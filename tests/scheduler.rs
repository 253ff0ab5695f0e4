//! Scheduler guarantees: the shared work queue decides *which worker*
//! visits a site, never *what the crawl reports*. Every artifact —
//! telemetry digest, Table 5, per-site records, crawl history — must be
//! byte-identical across worker counts and across repeated runs; and the
//! rank-order merge of per-worker result buffers, as `run_supervised`
//! returns it, must equal the sequential map.

use gullible::obs;
use gullible::scan::{Scan, ScanConfig, ScanReport};
use gullible::CrawlCtx;
use openwpm::{run_supervised, FaultPlan, ItemMeta, VisitOutcome};

/// A fresh crawl context with stats collection on.
fn stats_ctx() -> CrawlCtx {
    CrawlCtx { telemetry: obs::Telemetry::new().with_stats(true), ..CrawlCtx::new() }
}

/// One full scan with stats collection under its own context; returns the
/// report plus the deterministic metric rendering.
fn measured_scan(workers: usize) -> (ScanReport, String) {
    let ctx = stats_ctx();
    let _g = ctx.enter();
    let cfg = ScanConfig {
        workers,
        faults: FaultPlan::adversarial(13),
        ..ScanConfig::new(300, 37)
    };
    let report = Scan::new(cfg).run().expect("scan");
    let metrics = ctx.telemetry.registry().snapshot().render_deterministic();
    (report, metrics)
}

/// The tentpole invariant: worker counts {1, 3, 8} produce identical
/// telemetry digests, Table 5, per-site records and history — and the
/// scheduler's own wall-latency metrics (which *do* differ) never leak in.
#[test]
fn results_identical_across_worker_counts() {
    let (base, base_metrics) = measured_scan(1);
    assert_eq!(base.completion.total, 300);
    for workers in [3, 8] {
        let (report, metrics) = measured_scan(workers);
        assert_eq!(base_metrics, metrics, "metrics diverged at {workers} workers");
        assert_eq!(base.table5(), report.table5(), "Table 5 diverged at {workers} workers");
        assert_eq!(base.table12(), report.table12(), "Table 12 diverged at {workers} workers");
        assert_eq!(base.sites, report.sites, "site records diverged at {workers} workers");
        assert_eq!(base.history, report.history, "history diverged at {workers} workers");
        assert_eq!(base.completion, report.completion);
    }
    assert!(
        !base_metrics.contains("sched."),
        "scheduler metrics must be digest-excluded:\n{base_metrics}"
    );
}

/// Two runs at the same worker count are also identical — same-count
/// determinism is a separate property from cross-count invariance (a
/// racy merge could break one without the other).
#[test]
fn repeated_runs_identical_at_same_worker_count() {
    let (a, am) = measured_scan(3);
    let (b, bm) = measured_scan(3);
    assert_eq!(am, bm);
    assert_eq!(a.table5(), b.table5());
    assert_eq!(a.sites, b.sites);
    assert_eq!(a.history, b.history);
}

/// `items` through a fault-free `run_supervised` on `workers` workers, the
/// per-item result being `step(index, item)`; returns the completed
/// results in item order.
fn supervised_map<W: Copy + Send + Sync, R: Send + Clone>(
    items: Vec<W>,
    workers: usize,
    step: impl Fn(usize, W) -> R + Sync,
) -> Vec<R> {
    let n = items.len();
    let crawl = run_supervised(
        items,
        workers,
        FaultPlan::none(),
        |_| ItemMeta { label: String::new(), fault_key: 0, flaky: false },
        |_| (),
        |_, i, item: &W| Ok(step(i, *item)),
        Vec::new(),
        |_, outcome, _| outcome,
    );
    assert_eq!(crawl.summary.completed, n);
    crawl
        .outcomes
        .into_iter()
        .map(|o| match o {
            VisitOutcome::Completed(r) => r,
            _ => unreachable!("every item completed"),
        })
        .collect()
}

/// Property: for random item and worker counts, the rank-order merge of
/// the parallel run equals the sequential map.
#[test]
fn merge_equals_sequential_map() {
    proplite::run_cases(120, 0x5CED, |rng| {
        let n = rng.usize_in(0, 500);
        let workers = rng.usize_in(1, 9);
        let items: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E37)).collect();
        let expect: Vec<u64> = items.iter().enumerate().map(|(i, v)| v ^ (i as u64) << 7).collect();
        let got = supervised_map(items, workers, |i, v: u64| v ^ (i as u64) << 7);
        assert_eq!(got, expect, "n={n} workers={workers}");
    });
}

/// Workers keep private result buffers; a worker that processes nothing
/// (more workers than items) must not perturb the merge.
#[test]
fn merge_handles_idle_workers() {
    for n in [1usize, 2, 5, 7] {
        let out = supervised_map((0..n as u32).collect(), 8, |_, x: u32| x * 10);
        assert_eq!(out, (0..n as u32).map(|x| x * 10).collect::<Vec<_>>());
    }
}

/// The scheduler reports through the caller's telemetry: one
/// `manager.items` count and one `sched.visit_wall_us` sample per item,
/// next to the supervisor's one visit per item.
#[test]
fn scheduler_counters_are_reported() {
    let telemetry = obs::Telemetry::new().with_stats(true);
    let _g = telemetry.enter();
    supervised_map((0..200u32).collect(), 4, |_, x| x);
    let snap = telemetry.registry().snapshot();
    assert_eq!(snap.counter("manager.items"), 200);
    assert_eq!(snap.counter("supervisor.visits"), 200);
    assert_eq!(snap.histograms["sched.visit_wall_us"].count, 200);
}
