//! Record a scan into a content-addressed crawl bundle (Sec. 6.3 tooling:
//! pin a measurement run to disk so it can be re-measured and diffed).
//!
//! Usage: `archive_record [BUNDLE_DIR]` — the directory also comes from
//! `GULLIBLE_BUNDLE`; scale/seed/faults from the usual `GULLIBLE_*` knobs.

#![deny(deprecated)]

use gullible::report::thousands;
use gullible::Scan;

fn main() {
    let _ctx = bench::banner("Archive: record crawl bundle");
    let dir = bench::bundle_dir();
    let report = match Scan::new(bench::scan_config()).record(&dir).run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: recording failed: {e}");
            std::process::exit(2);
        }
    };
    let stats = report.archive.expect("recording run reports archive stats");
    let [(si, st), (di, dt), (ui, ut)] = report.table5();
    println!("table5: static {si}/{st}, dynamic {di}/{dt}, union {ui}/{ut}");
    println!(
        "archive: {} sites, {} unique blobs ({} B), {} dedup hits",
        thousands(stats.sites),
        thousands(stats.blobs_written),
        thousands(stats.blob_bytes),
        thousands(stats.dedup_hits),
    );
    println!("bundle: {}", dir.display());
    println!("{}", gullible::report::coverage_note(&report.completion));
    bench::finish("archive_record", Some(&report.coverage_line()));
}
