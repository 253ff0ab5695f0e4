//! Integration tests for the shared script-compilation cache: the cache
//! must be a *pure* optimisation — a warm cache is invisible in every
//! measured artifact — while staying correct under concurrency and
//! bounded in growth.
//!
//! Every test owns its cache through its own [`JsCtx`] or [`CrawlCtx`].

use std::sync::Arc;

use gullible::obs;
use gullible::scan::{Scan, ScanConfig};
use gullible::CrawlCtx;
use jsengine::JsCtx;

fn scan_cfg() -> ScanConfig {
    let mut cfg = ScanConfig::new(600, 7);
    cfg.workers = 2;
    cfg
}

/// The same seed scanned from a cold cache and again from the cache the
/// first scan left warm yields identical Table 5 output, identical
/// per-site records, and a byte-identical telemetry digest — while the
/// warm scan compiles nothing.
#[test]
fn cache_is_invisible_to_results_and_telemetry() {
    let leg = |ctx: &CrawlCtx| {
        let _g = ctx.enter();
        let report = Scan::new(scan_cfg()).run().expect("scan");
        let digest = ctx.telemetry.registry().snapshot().digest();
        (report, digest, ctx.js.cache.stats())
    };
    let stats_on = || obs::Telemetry::new().with_stats(true);
    let cold_ctx = CrawlCtx { telemetry: stats_on(), ..CrawlCtx::new() };
    let (cold, digest_cold, after_cold) = leg(&cold_ctx);
    let warm_ctx = CrawlCtx { telemetry: stats_on(), js: cold_ctx.js.clone(), ..CrawlCtx::new() };
    let (warm, digest_warm, after_warm) = leg(&warm_ctx);

    assert_eq!(cold.table5(), warm.table5(), "table 5 must not depend on the cache");
    assert_eq!(cold.sites, warm.sites, "per-site records must not depend on the cache");
    assert_eq!(cold.history, warm.history);
    assert_eq!(
        digest_cold, digest_warm,
        "telemetry digest differs: {digest_cold:016x} (cold) vs {digest_warm:016x} (warm)"
    );
    assert!(after_cold.misses > 0, "the cold scan must compile");
    assert_eq!(after_warm.misses, after_cold.misses, "the warm scan must not compile");
    assert!(after_warm.hits > after_cold.hits, "the warm scan must hit the cache");
}

/// Hammer the cache from many threads: every thread compiling the same
/// body set must converge on one shared artifact per body, with the entry
/// count bounded by the number of unique bodies (never by call count).
#[test]
fn concurrent_compiles_share_one_artifact_per_body() {
    let ctx = JsCtx::new();
    let bodies: Arc<Vec<String>> = Arc::new(
        (0..24).map(|i| format!("var stress{i} = {i}; stress{i} + 1;")).collect(),
    );
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let bodies = bodies.clone();
            let ctx = ctx.clone();
            std::thread::spawn(move || {
                let _g = ctx.enter();
                for _round in 0..40 {
                    for (i, body) in bodies.iter().enumerate() {
                        let cs = jsengine::compile_cached(body, &format!("stress{i}.js"))
                            .expect("stress script compiles");
                        assert_eq!(cs.name().as_ref(), format!("stress{i}.js"));
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("stress thread panicked");
    }

    let stats = ctx.cache.stats();
    assert_eq!(stats.entries, 24, "one entry per unique body");
    // 8 threads × 40 rounds × 24 bodies; a racing first compile that loses
    // the insert counts a hit, so misses equal unique bodies exactly.
    assert_eq!(stats.hits + stats.misses, 8 * 40 * 24);
    assert_eq!(stats.misses, 24, "misses must equal unique bodies");

    // After the dust settles, everyone gets pointer-identical programs.
    let _g = ctx.enter();
    let a = jsengine::compile_cached(&bodies[0], "stress0.js").unwrap();
    let b = jsengine::compile_cached(&bodies[0], "stress0.js").unwrap();
    assert!(Arc::ptr_eq(a.ast(), b.ast()));
}

/// Recompiling the same bodies forever must not grow the cache: size is
/// bounded by the unique-body count, not the compile count.
#[test]
fn growth_is_bounded_by_unique_bodies() {
    let ctx = JsCtx::new();
    let _g = ctx.enter();
    for round in 0..10 {
        for i in 0..20 {
            jsengine::compile_cached(&format!("var g{i} = {i};"), "growth.js")
                .expect("growth script compiles");
        }
        let stats = ctx.cache.stats();
        assert_eq!(stats.entries, 20, "round {round}: cache grew past the unique-body count");
    }
    let stats = ctx.cache.stats();
    assert_eq!(stats.misses, 20);
    assert_eq!(stats.hits, 9 * 20);
}

/// The cache keys a script by its body alone: a 400-site scan, where
/// first-party scripts serve one body under a URL per site, keeps no more
/// entries than the unique bodies its pages serve, plus the instrument.
#[test]
fn a_scan_caches_one_entry_per_unique_body() {
    use gullible::site_visit;
    use std::collections::HashSet;
    use webgen::Population;

    let cfg = ScanConfig { workers: 2, ..ScanConfig::new(400, 7) };
    let pop = Population::new(cfg.n_sites, cfg.seed);
    let (mut bodies, mut served) = (HashSet::new(), HashSet::new());
    for rank in 0..pop.n_sites {
        for spec in site_visit(&pop.plan(rank), true).pages {
            for s in spec.scripts {
                bodies.insert(s.source.clone());
                served.insert((s.source, s.url));
            }
            bodies.extend(spec.server_resources.into_iter().map(|(_, _, body)| body.into()));
        }
    }
    assert!(served.len() > 2 * bodies.len(), "the corpus must serve bodies under many URLs");

    let ctx = CrawlCtx::new();
    let _g = ctx.enter();
    Scan::new(cfg).run().expect("400-site scan");
    let entries = ctx.js.cache.len();
    assert!(
        entries <= bodies.len() + 1,
        "{entries} cache entries for {} unique bodies ({} served (body, URL) pairs)",
        bodies.len(),
        served.len()
    );
    assert_eq!(ctx.js.cache.stats().misses as usize, entries);
}
