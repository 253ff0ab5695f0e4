//! Determinism guarantees: the whole reproduction derives from a single
//! seed, so identical configurations must produce identical results.

use gullible::scan::{Scan, ScanConfig};
use gullible::{obs, run_compare, CompareConfig, CrawlCtx};
use webgen::Population;

#[test]
fn population_is_pure() {
    let a = Population::new(5_000, 123);
    let b = Population::new(5_000, 123);
    for rank in (0..5_000).step_by(37) {
        let pa = a.plan(rank);
        let pb = b.plan(rank);
        assert_eq!(pa.domain, pb.domain);
        assert_eq!(pa.front.third_party, pb.front.third_party);
        assert_eq!(pa.strict_csp, pb.strict_csp);
        assert_eq!(pa.site_seed, pb.site_seed);
    }
}

#[test]
fn different_seeds_give_different_webs() {
    let a = Population::new(5_000, 1);
    let b = Population::new(5_000, 2);
    let differing = (0..200).filter(|r| a.plan(*r).site_seed != b.plan(*r).site_seed).count();
    assert!(differing > 190);
}

#[test]
fn scans_are_reproducible() {
    let cfg = ScanConfig { workers: 3, ..ScanConfig::new(400, 55) };
    let r1 = Scan::new(cfg).run().expect("scan");
    let r2 = Scan::new(cfg).run().expect("scan");
    assert_eq!(r1.table5(), r2.table5());
    assert_eq!(r1.table7(), r2.table7());
    for (a, b) in r1.sites.iter().zip(&r2.sites) {
        assert_eq!(a.third_party_domains, b.third_party_domains, "rank {}", a.rank);
        assert_eq!(a.front.static_true, b.front.static_true);
        assert_eq!(a.front.dynamic_true, b.front.dynamic_true);
    }
}

#[test]
fn comparisons_are_reproducible() {
    let cfg = CompareConfig { n_sites: 2_000, seed: 55, runs: 2, workers: 2 };
    let r1 = run_compare(cfg);
    let r2 = run_compare(cfg);
    assert_eq!(r1.compare_set, r2.compare_set);
    assert_eq!(r1.dropped, r2.dropped);
    for ((w1, h1), (w2, h2)) in r1.runs.iter().zip(&r2.runs) {
        assert_eq!(w1.total_requests(), w2.total_requests());
        assert_eq!(h1.total_requests(), h2.total_requests());
        assert_eq!(w1.easylist_total(), w2.easylist_total());
    }
}

/// Fault-free half of the worker-count invariant (`tests/scheduler.rs`
/// holds it under adversarial faults): each leg runs under its own
/// stats-on context, and tables, records, history and the telemetry
/// digest all match. The same holds for the whole comparison report, and
/// a repeated comparison at one worker count reproduces it.
#[test]
fn worker_count_does_not_change_results() {
    let scan = |workers| {
        let ctx = CrawlCtx { telemetry: obs::Telemetry::new().with_stats(true), ..CrawlCtx::new() };
        let _g = ctx.enter();
        let report = Scan::new(ScanConfig { workers, ..ScanConfig::new(300, 77) }).run().expect("scan");
        (report, ctx.telemetry.registry().snapshot().digest())
    };
    let (r1, d1) = scan(1);
    let (r4, d4) = scan(4);
    assert_eq!(r1.table5(), r4.table5());
    assert_eq!(r1.table12(), r4.table12());
    assert_eq!(r1.sites, r4.sites);
    assert_eq!(r1.history, r4.history);
    assert_eq!(d1, d4, "telemetry digest");

    let compare = |workers| {
        let ctx = CrawlCtx { telemetry: obs::Telemetry::new().with_stats(true), ..CrawlCtx::new() };
        let _g = ctx.enter();
        let report = run_compare(CompareConfig { n_sites: 2_000, seed: 55, runs: 3, workers });
        (format!("{report:?}"), ctx.telemetry.registry().snapshot().digest())
    };
    let (c1, cd1) = compare(1);
    let (c4, cd4) = compare(4);
    assert!(c1.contains("VisitSummary"), "an empty comparison shows nothing");
    assert_eq!(c1, c4, "comparison report");
    assert_eq!(cd1, cd4, "comparison telemetry digest");
    assert_eq!(compare(4), (c4, cd4), "a repeated comparison");
}
