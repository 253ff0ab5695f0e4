//! Scan-level differential gate: a fixed-seed scan must be byte-identical
//! under the tree-walking oracle and the bytecode VM — per-site records,
//! crawl history, Table 5 and the deterministic telemetry digest, which is
//! also pinned to its recorded value. The
//! expression-level property harness lives in `jsengine/tests/differential.rs`;
//! this covers the full pipeline (instrumented host objects, fault
//! supervision, record commit order) on top of it.

use gullible::{obs, CrawlCtx, Scan, ScanConfig};
use jsengine::Engine;

/// A fresh context with stats on.
fn stats_ctx(prof: obs::prof::Mode) -> CrawlCtx {
    CrawlCtx { telemetry: obs::Telemetry::new().with_stats(true).with_prof(prof), ..CrawlCtx::new() }
}

fn leg(engine: Engine, sites: u32, seed: u64) -> (gullible::ScanReport, u64) {
    let mut ctx = stats_ctx(obs::prof::Mode::Off);
    ctx.js.engine = engine;
    let _g = ctx.enter();
    let mut cfg = ScanConfig::new(sites, seed);
    cfg.workers = 1;
    let report = Scan::new(cfg).run().expect("in-memory scan cannot fail");
    let digest = ctx.telemetry.registry().snapshot().digest();
    (report, digest)
}

/// Telemetry digest of a stats-on 300-site scan at seed 42: what
/// `GULLIBLE_SITES=300 GULLIBLE_STATS=1 table05` prints. Equal digests
/// alone would pass a change that shifts both engines alike (a
/// realm-template bug, say), so the value is pinned.
const PINNED_DIGEST: u64 = 0xbd14_2a87_4a1e_41d9;

#[test]
fn scan_is_byte_identical_across_engines() {
    let (sites, seed) = (300, 42);
    let (tree, tree_digest) = leg(Engine::Tree, sites, seed);
    let (vm, vm_digest) = leg(Engine::Vm, sites, seed);

    assert_eq!(tree.sites, vm.sites, "per-site records diverged");
    assert_eq!(tree.history, vm.history, "crawl history diverged");
    assert_eq!(tree.table5(), vm.table5(), "Table 5 diverged");
    assert_eq!(
        [tree_digest, vm_digest],
        [PINNED_DIGEST; 2],
        "telemetry digest moved: tree {tree_digest:016x}, vm {vm_digest:016x}"
    );
}

/// A scan's engine choice ends with the scan: a later scan under a fresh
/// context runs on the process default engine again, as the profiler's
/// backend phases show.
#[test]
fn engine_choice_does_not_leak_into_later_scans() {
    let default = jsengine::default_engine();
    let other = match default {
        Engine::Vm => Engine::Tree,
        Engine::Tree => Engine::Vm,
    };
    // Times each backend phase was entered.
    let entered = |snap: &obs::Snapshot, e: Engine| {
        let def = match e {
            Engine::Vm => &obs::prof::JS_VM,
            Engine::Tree => &obs::prof::JS_INTERP,
        };
        snap.histograms.get(def.hist_name()).map_or(0, |h| h.count)
    };
    let cfg = ScanConfig { workers: 2, ..ScanConfig::new(40, 9) };
    let mut first = stats_ctx(obs::prof::Mode::On);
    first.js.engine = other;
    {
        let _g = first.enter();
        Scan::new(cfg).run().expect("scan");
    }
    assert!(entered(&first.telemetry.registry().snapshot(), other) > 0);

    // The second context takes its engine from the process default.
    let second = stats_ctx(obs::prof::Mode::On);
    let _g = second.enter();
    Scan::new(cfg).run().expect("scan");
    let snap = second.telemetry.registry().snapshot();
    assert!(entered(&snap, default) > 0, "later scan must run on {default:?}");
    assert_eq!(entered(&snap, other), 0, "{other:?} leaked into the later scan");
}
