//! The atom interner is bounded by the names a crawl's corpus uses, not by
//! how many pages it visits. Every scanner page draws 10 fresh honey
//! property names (paper Sec. 4.1.3); they are page-local property keys
//! and must never reach the process-wide interner.
//!
//! This file holds a single test on purpose: it reads the process-wide
//! interner count, so no other test may intern names in the same process
//! while it runs.

use gullible::{site_visit, CrawlCtx, Scan, ScanConfig};
use jsengine::Atom;
use openwpm::{Browser, BrowserConfig, SiteResponse};
use webgen::Population;

#[test]
fn honey_names_stay_out_of_the_interner_and_scans_intern_a_bounded_vocabulary() {
    let ctx = CrawlCtx::new();
    let _guard = ctx.enter();

    // A scanner visit's honey names are never interned, also when a page
    // script enumerates and reads them.
    let pop = Population::new(80, 3);
    let mut browser = Browser::new(BrowserConfig::scanner(3));
    let (mut names, mut honey_reads) = (0, 0);
    for rank in 0..pop.n_sites {
        for spec in &site_visit(&pop.plan(rank), true).pages {
            let stats = browser.visit(spec, |_| SiteResponse::default()).expect("visit");
            assert_eq!(stats.honey_names.len(), 10);
            for name in &stats.honey_names {
                assert_eq!(Atom::lookup(name), None, "honey name {name} was interned");
            }
            names += stats.honey_names.len();
            let store = browser.take_store();
            honey_reads += store.js_calls.iter().filter(|r| r.symbol.starts_with("honey:")).count();
        }
    }
    assert!(names >= 400, "only {names} honey names checked");
    assert!(honey_reads > 0, "no page script read a honey property");

    // Doubling a scan adds the new sites' vocabulary, not ~25 atoms per
    // site (which is what interning the honey names costs).
    let cfg = |n| ScanConfig { workers: 1, ..ScanConfig::new(n, 7) };
    Scan::new(cfg(200)).run().expect("200-site scan");
    let after_200 = Atom::interned_count();
    Scan::new(cfg(400)).run().expect("400-site scan");
    let added = Atom::interned_count() - after_200;
    assert!(added < 200, "scanning 400 sites interned {added} names more than scanning 200");
}
