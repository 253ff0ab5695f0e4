//! Diff two crawl bundles site-by-site (paper Sec. 6.3: compare a WPM run
//! against a WPM_hide run — or any two recorded crawls — from their
//! archives, without re-crawling).
//!
//! Usage: `archive_diff BUNDLE_A BUNDLE_B [--expect-zero]`. With
//! `--expect-zero` the binary exits non-zero if any site differs (CI gate
//! for same-seed reproducibility).

#![deny(deprecated)]

use gullible::{diff_bundles, ReplayBundle};

fn main() {
    let _ctx = bench::banner("Archive: diff crawl bundles");
    let args = bench::env::positional_args();
    let [dir_a, dir_b] = args.as_slice() else {
        eprintln!("usage: archive_diff BUNDLE_A BUNDLE_B [--expect-zero]");
        std::process::exit(2);
    };
    let open = |d: &str| match ReplayBundle::open(d) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: cannot open bundle {d}: {e}");
            std::process::exit(2);
        }
    };
    let (a, b) = (open(dir_a), open(dir_b));
    let diff = diff_bundles(&a, &b);

    for (name, c) in [(dir_a.as_str(), &diff.a_commit), (dir_b.as_str(), &diff.b_commit)] {
        println!(
            "{name}: {} ok / {} failed / {} interrupted, table5 union {}/{}, records {:016x}",
            c.completed, c.failed, c.interrupted, c.table5[2].0, c.table5[2].1, c.records_digest
        );
    }
    if diff.config_differs {
        println!("configs differ (ablation diff — expected for WPM vs WPM_hide-style runs)");
    }
    let (ra, rb) = gullible::BundleDiff::record_totals(&a, &b);
    println!("records captured: {ra} vs {rb}");

    const SHOW: usize = 20;
    for d in diff.deltas.iter().take(SHOW) {
        println!("  site {:>6} {}: {}", d.rank, d.domain, d.changes.join("; "));
    }
    if diff.deltas.len() > SHOW {
        println!("  … and {} more differing sites (showing first {SHOW})", diff.deltas.len() - SHOW);
    }
    println!(
        "diff verdict: {} ({} differing sites)",
        if diff.is_clean() { "IDENTICAL" } else { "DIFFERENT" },
        diff.deltas.len()
    );
    bench::finish("archive_diff", None);
    if std::env::args().any(|arg| arg == "--expect-zero") && !diff.is_clean() {
        eprintln!("error: --expect-zero but bundles differ");
        std::process::exit(1);
    }
}
