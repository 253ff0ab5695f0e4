//! Compile-cache ablation: the same scan with the shared script-compilation
//! cache on and off, proving (a) the cache is a pure optimisation — every
//! measured artifact is byte-identical either way — and (b) it pays for
//! itself (the scan phase must be ≥ 1.5× faster with the cache).
//!
//! ```text
//! cargo run --release -p bench --bin ablation_compile_cache
//! ```
//!
//! Exits non-zero if the two runs disagree on any result or the speedup
//! target is missed, so CI can gate on it.

#![deny(deprecated)]

use std::sync::Arc;

use gullible::{Scan, ScanConfig};
use jsengine::CompileCache;

fn scan_cfg() -> ScanConfig {
    // Ablations run the scan three times (warm-up + two measured legs);
    // cap the population so the default configuration stays quick.
    let n = bench::n_sites().min(10_000);
    let mut cfg = ScanConfig::new(n, bench::seed());
    cfg.workers = bench::workers();
    cfg.faults = bench::env::fault_plan();
    cfg
}

/// One measured leg: scan with the cache in the given state, returning the
/// report, the deterministic telemetry digest and the wall time.
fn leg(cache_on: bool) -> (gullible::ScanReport, u64, std::time::Duration, jsengine::CacheStats) {
    // A fresh stats-on context per leg: a cold cache, or none at all.
    let mut ctx = bench::leg_ctx();
    ctx.js.cache = cache_on.then(|| Arc::new(CompileCache::new()));
    let _leg = ctx.enter();
    let t0 = std::time::Instant::now();
    let report = Scan::new(scan_cfg()).run().expect("scan without checkpoint cannot fail");
    let wall = t0.elapsed();
    let digest = ctx.telemetry.registry().snapshot().digest();
    let stats = ctx.js.cache.map(|c| c.stats()).unwrap_or_default();
    (report, digest, wall, stats)
}

fn main() {
    let _ctx = bench::banner("ablation: shared script-compilation cache");

    // Warm-up: fills the webgen materialisation memo (shared by both legs)
    // and faults in lazily-built corpus state, so neither leg pays one-off
    // costs the other doesn't.
    let _ = Scan::new(scan_cfg()).run();

    let (with_cache, digest_on, wall_on, stats) = leg(true);
    let (without, digest_off, wall_off, _) = leg(false);

    println!("scan with cache:    {wall_on:>10.2?}");
    println!("scan without cache: {wall_off:>10.2?}");
    let speedup = wall_off.as_secs_f64() / wall_on.as_secs_f64();
    println!("speedup:            {speedup:>9.2}x (target >= 1.50x)");
    println!(
        "cache: {} entries, {} hits / {} misses, {} source bytes retained",
        stats.entries, stats.hits, stats.misses, stats.bytes
    );

    let mut ok = true;
    if with_cache.sites != without.sites
        || with_cache.history != without.history
        || with_cache.table5() != without.table5()
    {
        println!("FAIL: scan results differ with the cache enabled");
        ok = false;
    }
    if digest_on != digest_off {
        println!("FAIL: telemetry digest differs: {digest_on:016x} vs {digest_off:016x}");
        ok = false;
    }
    if speedup < 1.5 {
        println!("FAIL: speedup below 1.5x");
        ok = false;
    }
    if ok {
        println!("OK: identical results, identical digest {digest_on:016x}, {speedup:.2}x faster");
    }

    bench::finish("ablation_compile_cache", Some(&with_cache.coverage_line()));
    if !ok {
        std::process::exit(1);
    }
}
