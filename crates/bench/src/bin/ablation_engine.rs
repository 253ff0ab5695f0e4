//! Execution-backend ablation: the same measurement under the tree-walking
//! oracle and the bytecode VM, proving (a) the VM is observably identical —
//! per-site records, crawl history, Table 5 and the telemetry digest are
//! byte-for-byte the same — and (b) it pays for itself (≥ 2× visit
//! throughput on an interpretation-dominated workload).
//!
//! ```text
//! cargo run --release -p bench --bin ablation_engine             # full run
//! cargo run --release -p bench --bin ablation_engine -- --smoke  # CI gate
//! ```
//!
//! Output: the human comparison plus `BENCH_engine.json`. Exits non-zero if
//! the engines disagree on any artifact or (full mode) the speedup target
//! is missed, so CI can gate on it.

#![deny(deprecated)]

use gullible::{Scan, ScanConfig};
use jsengine::{Engine, Interp};

fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

fn scan_cfg() -> ScanConfig {
    let cap = if smoke_mode() { 300 } else { 5_000 };
    let n = bench::n_sites().min(cap);
    let mut cfg = ScanConfig::new(n, bench::seed());
    cfg.workers = bench::workers();
    cfg.faults = bench::env::fault_plan();
    cfg
}

/// One differential leg: a full fixed-seed scan under `engine`, returning
/// the report and the deterministic telemetry digest.
fn scan_leg(engine: Engine) -> (gullible::ScanReport, u64) {
    // A fresh stats-on context per leg, so each digest covers exactly its
    // own scan and each leg starts from a cold cache.
    let mut ctx = bench::leg_ctx();
    ctx.js.engine = engine;
    let _leg = ctx.enter();
    let report = Scan::new(scan_cfg()).run().expect("scan without checkpoint cannot fail");
    let digest = ctx.telemetry.registry().snapshot().digest();
    (report, digest)
}

/// A synthetic page script that keeps the *walk* hot: tight nested loops of
/// inline arithmetic, string building, property churn and `for`-`in` — the
/// statement mix of the population's heaviest pages, wrapped in a function
/// the way real page scripts ship (top-level `var`s would instead exercise
/// the global *object*, which is property-table work shared by both
/// backends, not interpretation). Calls appear but do not dominate: call
/// setup (scope + frame allocation) is runtime shared by both backends.
const HOT_SCRIPT: &str = "\
function page() {
    var total = 0;
    function mix(i, j) { return (i * 31 + j * 17) % 97; }
    for (var i = 0; i < 200; i++) {
        var acc = 0;
        for (var j = 0; j < 64; j++) {
            acc += (i * 31 + j * 17) % 97;
            acc = (acc * 2 + j) % 1024;
        }
        total += acc + mix(i, acc);
    }
    var s = '';
    for (var j = 0; j < 80; j++) { s += j % 10; }
    total += s.length;
    var o = {};
    for (var k = 0; k < 60; k++) { o['k' + (k % 12)] = k; }
    var seen = 0;
    for (var key in o) { seen += o[key]; }
    return total + seen;
}
page()
";

/// Visits/second running the hot script under `engine`: one realm template,
/// one shared compiled handle, a cloned realm per visit — the scan's
/// shared-artifact path with everything but interpretation stripped away.
fn throughput(engine: Engine, visits: u32) -> (f64, f64) {
    let cs = jsengine::compile(HOT_SCRIPT, "hot.js").expect("hot script parses");
    if engine == Engine::Vm {
        cs.chunk(); // compile the bytecode outside the timed region
    }
    // Cloned realms keep their template's engine.
    let mut template = Interp::new();
    template.engine = engine;
    let mut check = template.clone_realm();
    let expected = check.eval_compiled(&cs).expect("hot script runs");
    // Warm-up, then the timed region.
    for _ in 0..visits / 10 + 1 {
        let mut it = template.clone_realm();
        let _ = it.eval_compiled(&cs);
    }
    let t0 = std::time::Instant::now();
    for _ in 0..visits {
        let mut it = template.clone_realm();
        let got = it.eval_compiled(&cs).expect("hot script runs");
        assert_eq!(got, expected, "nondeterministic hot script");
    }
    let wall = t0.elapsed().as_secs_f64();
    (visits as f64 / wall, wall)
}

fn main() {
    let _ctx = bench::banner("ablation: MiniJS execution backend (tree oracle vs bytecode VM)");

    // Warm-up scan: fills the webgen materialisation memo and other lazy
    // one-off state shared by both legs.
    let _ = Scan::new(scan_cfg()).run();

    // --- differential gate -------------------------------------------------
    let (tree_report, tree_digest) = scan_leg(Engine::Tree);
    let (vm_report, vm_digest) = scan_leg(Engine::Vm);

    let mut ok = true;
    if tree_report.sites != vm_report.sites
        || tree_report.history != vm_report.history
        || tree_report.table5() != vm_report.table5()
    {
        println!("FAIL: scan results differ between engines");
        ok = false;
    }
    if tree_digest != vm_digest {
        println!("FAIL: telemetry digest differs: {tree_digest:016x} vs {vm_digest:016x}");
        ok = false;
    }
    if ok {
        println!(
            "differential gate: {} sites byte-identical, digest {vm_digest:016x}",
            vm_report.sites.len()
        );
    }

    // --- throughput --------------------------------------------------------
    let visits = if smoke_mode() { 60 } else { 600 };
    let (tree_vps, tree_wall) = throughput(Engine::Tree, visits);
    let (vm_vps, vm_wall) = throughput(Engine::Vm, visits);
    let speedup = vm_vps / tree_vps;
    println!("interp-phase throughput ({visits} visits of the hot script):");
    println!("  tree oracle: {tree_vps:>10.1} visits/s ({tree_wall:.2}s)");
    println!("  bytecode vm: {vm_vps:>10.1} visits/s ({vm_wall:.2}s)");
    println!("  speedup:     {speedup:>10.2}x (target >= 2.00x)");
    if speedup < 2.0 {
        if smoke_mode() {
            // Smoke runs share CI machines; the digest gate is the hard
            // check there, throughput is informational.
            println!("note: speedup below 2.0x in smoke mode (not enforced)");
        } else {
            println!("FAIL: speedup below 2.0x");
            ok = false;
        }
    }

    // --- artifact ----------------------------------------------------------
    let json = format!(
        "{{\"suite\":\"engine_ablation\",\"sites\":{},\"visits\":{visits},\
         \"tree_visits_per_sec\":{tree_vps:.1},\"vm_visits_per_sec\":{vm_vps:.1},\
         \"speedup\":{speedup:.2},\"digest\":\"{vm_digest:016x}\",\
         \"digests_equal\":{}}}",
        vm_report.sites.len(),
        tree_digest == vm_digest,
    );
    if let Err(e) = std::fs::write("BENCH_engine.json", format!("{json}\n")) {
        eprintln!("warning: could not write BENCH_engine.json: {e}");
    }
    println!("wrote BENCH_engine.json");

    bench::finish("ablation_engine", Some(&vm_report.coverage_line()));
    if !ok {
        std::process::exit(1);
    }
}
