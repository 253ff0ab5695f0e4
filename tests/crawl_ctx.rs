//! Crawl-context isolation: a scan's outputs are a function of its own
//! configuration and [`CrawlCtx`] alone. Two scans running at once on two
//! threads of one process — an oracle scan in memory, and a streamed scan
//! that is recorded, killed, torn and resumed — produce exactly what each
//! produces when it runs alone: per-site records, Table 5, the telemetry
//! digest (sealed into the bundle for the streamed scan) and the resumed
//! bundle's bytes.

mod common;

use std::path::Path;
use std::sync::Barrier;

use detect::{DetectCtx, MatcherKind};
use gullible::{obs, CrawlCtx, ReplayBundle, Scan, ScanConfig};
use jsengine::Engine;
use openwpm::FaultPlan;
use proplite::TempDir;

/// A fresh stats-on context on `engine` and `matcher`.
fn ctx(engine: Engine, matcher: MatcherKind) -> CrawlCtx {
    let mut ctx = CrawlCtx {
        telemetry: obs::Telemetry::new().with_stats(true),
        detect: DetectCtx::new(matcher),
        ..CrawlCtx::new()
    };
    ctx.js.engine = engine;
    ctx
}

fn tmp_dir(name: &str) -> TempDir {
    TempDir::new(&format!("crawl-ctx-{name}"))
}

/// Everything a run must reproduce, byte for byte.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Per-site records (in memory) or the sealed records digest (bundle).
    records: String,
    table5: [(u32, u32); 3],
    telemetry_digest: u64,
    /// `(file name, bytes)` of every file in the bundle directory.
    bundle: Vec<(String, Vec<u8>)>,
}

/// Scan (a): the tree-walking oracle and the naive matcher, in memory.
fn oracle_scan(start: &Barrier) -> Outcome {
    let ctx = ctx(Engine::Tree, MatcherKind::Naive);
    let _g = ctx.enter();
    start.wait();
    let cfg = ScanConfig { workers: 2, faults: FaultPlan::adversarial(5), ..ScanConfig::new(120, 17) };
    let report = Scan::new(cfg).run().expect("in-memory scan");
    Outcome {
        records: format!("{:?}", report.sites),
        table5: report.table5(),
        telemetry_digest: ctx.telemetry.registry().snapshot().digest(),
        bundle: Vec::new(),
    }
}

/// Scan (b): the VM and the automaton, streamed to `complete`, then the
/// state a crash during the 30th entry's append leaves (that entry cut to
/// 11 bytes) is built from it in `dir` and resumed under a fresh context
/// as a new process would be. One worker, so the bundle's bytes are
/// deterministic too.
fn crashed_stream(complete: &Path, dir: &Path, start: &Barrier) -> Outcome {
    let cfg = ScanConfig { workers: 1, faults: FaultPlan::adversarial(8), ..ScanConfig::new(90, 23) };
    start.wait();
    {
        let _g = ctx(Engine::Vm, MatcherKind::Automaton).enter();
        Scan::new(cfg).stream_to(complete).run().expect("complete stream");
    }
    common::crash_state(&cfg, complete, dir, 30, Some(11));
    let _g = ctx(Engine::Vm, MatcherKind::Automaton).enter();
    let report = Scan::new(cfg).stream_to(dir).run().expect("resume");
    let stream = report.stream.expect("stream stats");
    assert!(stream.resumed, "{stream:?}");
    assert_eq!((stream.records_replayed, stream.bundle_tail_dropped), (29, 1), "{stream:?}");
    let bundle = ReplayBundle::open(dir).expect("sealed bundle");
    let uninterrupted = ReplayBundle::open(complete).expect("complete bundle");
    assert_eq!(bundle.commit, uninterrupted.commit, "the resume converges");
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("bundle dir")
        .map(|e| {
            let path = e.expect("dir entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).expect("bundle file"))
        })
        .collect();
    files.sort();
    Outcome {
        records: format!("{:016x}", bundle.commit.records_digest),
        table5: report.table5(),
        telemetry_digest: bundle.commit.telemetry_digest,
        bundle: files,
    }
}

#[test]
fn concurrent_scans_match_their_solo_runs() {
    let solo = Barrier::new(1);
    let solo_a = oracle_scan(&solo);
    let (solo_complete, solo_dir) = (tmp_dir("solo-complete"), tmp_dir("solo"));
    let solo_b = crashed_stream(&solo_complete, &solo_dir, &solo);

    let both = Barrier::new(2);
    let (complete, dir) = (tmp_dir("concurrent-complete"), tmp_dir("concurrent"));
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| oracle_scan(&both));
        let b = s.spawn(|| crashed_stream(&complete, &dir, &both));
        (a.join().expect("scan a"), b.join().expect("scan b"))
    });

    assert!(!solo_b.bundle.is_empty());
    assert_eq!(a, solo_a, "the in-memory oracle scan changed when run concurrently");
    assert_eq!(b, solo_b, "the crashed and resumed stream changed when run concurrently");
    for d in [&solo_complete, &solo_dir, &complete, &dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}
