//! Telemetry determinism (the observability layer around Sec. 4's scan):
//! the trace journal and the metric snapshot are functions of (seed, fault
//! plan) alone. Worker count changes scheduling, wall-clock time and
//! thread interleaving — none of which may leak into either artifact.

use gullible::obs;
use gullible::scan::{Scan, ScanConfig};
use gullible::{run_compare, CompareConfig, CrawlCtx};
use openwpm::FaultPlan;

/// A fresh crawl context tracing into an in-memory journal.
fn traced_ctx(telemetry: obs::Telemetry) -> (CrawlCtx, std::sync::Arc<obs::Journal>) {
    let ctx = CrawlCtx {
        telemetry: telemetry.with_journal(obs::Journal::buffer()),
        ..CrawlCtx::new()
    };
    let journal = ctx.telemetry.journal().expect("tracing context");
    (ctx, journal)
}

/// One instrumented run under its own context: scan, return the journal
/// bytes and the rendered metric snapshot.
fn traced_scan(workers: usize) -> (String, String) {
    let (ctx, journal) = traced_ctx(obs::Telemetry::new());
    let _g = ctx.enter();
    let cfg = ScanConfig {
        workers,
        faults: FaultPlan::adversarial(7),
        ..ScanConfig::new(400, 42)
    };
    let report = Scan::new(cfg).run().expect("scan");
    assert_eq!(report.completion.total, 400);
    journal.flush();
    let trace = journal.buffer_contents().expect("buffer journal");
    // `render_deterministic` omits the `cache.*` accounting, which varies
    // with worker interleaving by design.
    let metrics = ctx.telemetry.registry().snapshot().render_deterministic();
    (trace, metrics)
}

/// One traced comparison under its own context: the journal bytes and
/// the rendered metric snapshot.
fn traced_compare(workers: usize) -> (String, String) {
    let (ctx, journal) = traced_ctx(obs::Telemetry::new());
    let _g = ctx.enter();
    let report = run_compare(CompareConfig { n_sites: 1_000, seed: 42, runs: 3, workers });
    assert!(report.dropped.is_empty(), "{}", report.coverage_line());
    journal.flush();
    let trace = journal.buffer_contents().expect("buffer journal");
    (trace, ctx.telemetry.registry().snapshot().render_deterministic())
}

/// Panic with the first line where two journals differ.
fn assert_same_journal(a: &str, b: &str, what: &str) {
    if a != b {
        let diff = a
            .lines()
            .zip(b.lines())
            .enumerate()
            .find(|(_, (x, y))| x != y)
            .map(|(i, (x, y))| format!("first divergence at line {}:\n  {x}\n  {y}", i + 1))
            .unwrap_or_else(|| "journals differ in length".to_string());
        panic!("{what} journal depends on worker count — {diff}");
    }
}

/// Same seed + same adversarial fault plan ⇒ byte-identical simulated-clock
/// trace journals and metric snapshots, regardless of worker count. The
/// comparison's six supervised legs hold to the same rule.
#[test]
fn trace_and_metrics_are_worker_count_independent() {
    let (trace2, metrics2) = traced_scan(2);
    let (trace7, metrics7) = traced_scan(7);

    assert!(!trace2.is_empty(), "journal must record the crawl");
    assert!(metrics2.contains("supervisor.visits"), "metrics must record the crawl");

    assert_eq!(metrics2, metrics7, "metric snapshot depends on worker count");
    assert_same_journal(&trace2, &trace7, "scan");

    // The journal is also well-formed: parses, clocks are monotone per
    // scope, spans balance.
    let summary = obs::validate::validate_journal(&trace2).expect("journal validates");
    assert!(summary.lines > 400, "expected per-visit events, got {} lines", summary.lines);
    assert!(summary.spans > 0);

    let (compare1, compare_metrics1) = traced_compare(1);
    let (compare4, compare_metrics4) = traced_compare(4);
    assert_eq!(compare_metrics1, compare_metrics4, "comparison metrics depend on worker count");
    assert_same_journal(&compare1, &compare4, "comparison");
    let summary = obs::validate::validate_journal(&compare1).expect("comparison journal validates");
    assert!(compare1.contains(r#""scope":"visit:5.0""#), "six legs, six crawls");
    assert!(summary.spans > 0);
}

/// A scan under faults, then a comparison, in one traced context: the
/// journal holds seven crawls and still validates. A faulty scan's
/// `visit:0` ends late on its clock (watchdog time and backoff), so a
/// comparison leg that reused the name would restart that clock at 0.
#[test]
fn a_journal_holding_a_scan_and_a_comparison_validates() {
    let (ctx, journal) = traced_ctx(obs::Telemetry::new());
    let _g = ctx.enter();
    let cfg = ScanConfig { workers: 3, faults: FaultPlan::adversarial(7), ..ScanConfig::new(400, 42) };
    Scan::new(cfg).run().expect("scan");
    run_compare(CompareConfig { n_sites: 1_000, seed: 42, runs: 3, workers: 3 });
    journal.flush();
    let trace = journal.buffer_contents().expect("buffer journal");
    let summary = obs::validate::validate_journal(&trace).expect("multi-crawl journal validates");
    assert!(trace.contains(r#""scope":"visit:6.0""#), "a scan and six legs");
    assert!(summary.scopes > 400);
}

/// One run for the profiler-invisibility check: trace bytes, deterministic
/// metric render, telemetry digest, and fingerprints of the per-site
/// records and the paper tables.
fn profiled_scan(profile: bool) -> (String, String, u64, u64, String, String) {
    let dumps = std::env::temp_dir()
        .join(format!("gullible-telemetry-prof-{}.jsonl", std::process::id()));
    let telemetry = if profile {
        let _ = std::fs::remove_file(&dumps);
        // More slow visits kept than there are visits: every visit dumps
        // a forensic record — the worst case for interference.
        obs::Telemetry::new()
            .with_prof(obs::prof::Mode::Collapsed)
            .with_slow_visits(1_000)
            .with_forensics(&dumps)
            .expect("arm flight recorder")
    } else {
        obs::Telemetry::new()
    };
    let (ctx, journal) = traced_ctx(telemetry);
    let _g = ctx.enter();
    let cfg = ScanConfig {
        workers: 3,
        faults: FaultPlan::adversarial(7),
        ..ScanConfig::new(150, 42)
    };
    let report = Scan::new(cfg).run().expect("scan");
    journal.flush();
    let trace = journal.buffer_contents().expect("buffer journal");
    let snap = ctx.telemetry.registry().snapshot();
    let out = (
        trace,
        snap.render_deterministic(),
        snap.digest(),
        obs::fnv1a(format!("{:?}", report.sites).as_bytes()),
        format!("{:?}", report.table5()),
        format!("{:?}", report.history),
    );
    if profile {
        // The profiler itself must have seen the run (the comparison would
        // be vacuous otherwise) and left parseable forensics behind.
        assert!(snap.counter("prof.self.visit") > 0, "profiler armed but recorded nothing");
        ctx.telemetry.write_slow_visits();
        let text = std::fs::read_to_string(&dumps).expect("forensic dumps");
        let summary = obs::validate::validate_forensic(&text).expect("parseable forensics");
        let slow = summary.triggers.iter().filter(|(t, _)| t == "slow_visit").count() as u64;
        let visits = snap.histograms.get("sched.visit_wall_us").map_or(0, |h| h.count);
        assert!(visits > 0 && slow == visits, "{slow} slow-visit dumps for {visits} visits");
        let _ = std::fs::remove_file(&dumps);
    }
    out
}

/// The profiler and flight recorder are pure observers: with both fully
/// armed (collapsed stacks, per-visit forensic dumps) the trace journal,
/// deterministic metrics, telemetry digest, per-site records and paper
/// tables are byte-identical to an unprofiled run.
#[test]
fn profiler_is_digest_and_record_invisible() {
    let off = profiled_scan(false);
    let on = profiled_scan(true);
    assert_eq!(off.2, on.2, "profiler perturbed the telemetry digest");
    assert_eq!(off.1, on.1, "profiler leaked into the deterministic metric render");
    assert_eq!(off.3, on.3, "profiler perturbed the per-site records");
    assert_eq!(off.4, on.4, "profiler perturbed Table 5");
    assert_eq!(off.5, on.5, "profiler perturbed the fault history");
    assert_eq!(off.0, on.0, "profiler leaked into the trace journal");
}
