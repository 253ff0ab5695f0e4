//! Replay a recorded crawl bundle through the whole measurement pipeline
//! and verify it reproduces the recording run — per-site records, Table 5
//! and (with `GULLIBLE_STATS=1`) the telemetry digest, byte for byte.
//!
//! Usage: `archive_replay [BUNDLE_DIR]` (or `GULLIBLE_BUNDLE`). Exits
//! non-zero on any divergence, so CI can gate on reproducibility.

#![deny(deprecated)]

use gullible::{obs, ReplayBundle, Scan};

fn main() {
    let _ctx = bench::banner("Archive: replay crawl bundle");
    let dir = bench::bundle_dir();
    let bundle = match ReplayBundle::open(&dir) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: cannot open bundle: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "bundle: {} ({} sites, recorded table5 union {}/{})",
        dir.display(),
        bundle.n_sites(),
        bundle.commit.table5[2].0,
        bundle.commit.table5[2].1,
    );
    let report = match Scan::new(bench::scan_config()).replay(&dir).run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: replay failed: {e}");
            std::process::exit(2);
        }
    };
    let stats = report.replay.expect("replay run reports replay stats");
    let mut failures = Vec::new();
    if stats.divergences > 0 {
        failures.push(format!("{} of {} sites diverged from the record", stats.divergences, stats.sites));
    }
    if report.table5() != bundle.commit.table5 {
        failures.push(format!(
            "table5 mismatch: replayed {:?}, recorded {:?}",
            report.table5(),
            bundle.commit.table5
        ));
    }
    let telemetry = obs::Telemetry::current();
    if telemetry.stats_enabled() && bundle.commit.stats_enabled {
        let digest = telemetry.registry().snapshot().digest();
        if digest == bundle.commit.telemetry_digest {
            println!("telemetry digest: {digest:016x} (matches record)");
        } else {
            failures.push(format!(
                "telemetry digest mismatch: replayed {digest:016x}, recorded {:016x}",
                bundle.commit.telemetry_digest
            ));
        }
    } else {
        println!("telemetry digest: not compared (stats off in record or replay)");
    }
    println!("{}", gullible::report::coverage_note(&report.completion));
    if failures.is_empty() {
        println!("replay verdict: REPRODUCED ({} sites, 0 divergences)", stats.sites);
    } else {
        for f in &failures {
            eprintln!("replay divergence: {f}");
        }
        println!("replay verdict: DIVERGED");
    }
    bench::finish("archive_replay", Some(&report.coverage_line()));
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
