//! Chaos: crash-consistent streaming crawls (ISSUE: the paper's
//! reliability lesson, applied to the crawler itself).
//!
//! The contract under test: a streamed scan that is killed at an
//! arbitrary point — after a clean flush, mid-checkpoint-line, or
//! mid-bundle-append — and then resumed produces per-site records,
//! Table 5 and a telemetry digest *byte-identical* to an uninterrupted
//! run, at any worker count; and deliberately cross-corrupted
//! checkpoint/bundle pairs fail loudly instead of resuming quietly.

use std::path::PathBuf;

use gullible::{
    diff_bundles, obs, CrawlCtx, CtxGuard, ReplayBundle, Scan, ScanConfig, STREAM_CHECKPOINT_FILE,
};
use openwpm::{catch_crash, CrashPlan, FaultPlan, KillPoint};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gullible-chaos-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn chaos_cfg(n: u32, seed: u64, workers: usize) -> ScanConfig {
    ScanConfig {
        workers,
        faults: FaultPlan::adversarial(seed),
        flaky_sites_per_100k: 1_000,
        ..ScanConfig::new(n, seed)
    }
}

/// Everything two runs must agree on, byte for byte.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    table5: [(u32, u32); 3],
    table7: Vec<(String, u32)>,
    completion: (usize, usize, usize),
    records_digest: u64,
    telemetry_digest: u64,
}

fn fingerprint(report: &gullible::ScanReport, dir: &std::path::Path) -> Fingerprint {
    let bundle = ReplayBundle::open(dir).expect("committed stream bundle must open");
    Fingerprint {
        table5: report.table5(),
        table7: report.table7(),
        completion: (
            report.completion.completed,
            report.completion.failed,
            report.completion.interrupted,
        ),
        records_digest: bundle.commit.records_digest,
        telemetry_digest: bundle.commit.telemetry_digest,
    }
}

/// Enter a fresh stats-on crawl context — a notionally fresh process: its
/// registry, caches and memo start empty. Each run enters its own; guards
/// bound in one scope nest, the latest entered being current.
fn fresh_ctx() -> CtxGuard {
    stats_ctx(obs::Telemetry::new()).enter()
}

fn stats_ctx(telemetry: obs::Telemetry) -> CrawlCtx {
    CrawlCtx { telemetry: telemetry.with_stats(true), ..CrawlCtx::new() }
}

#[test]
fn stream_matches_recorded_run_byte_for_byte() {
    let (sdir, rdir) = (tmp_dir("stream-vs-record"), tmp_dir("stream-vs-record-ref"));
    let cfg = chaos_cfg(180, 11, 4);

    let _ctx = fresh_ctx();
    let streamed = Scan::new(cfg).stream_to(&sdir).run().expect("stream");
    let stream_fp = fingerprint(&streamed, &sdir);

    let stream = streamed.stream.expect("streamed report carries stream stats");
    assert!(stream.committed && !stream.resumed);
    assert_eq!(stream.records_flushed, 180);
    assert!(
        stream.peak_records_in_flight <= cfg.workers as u64 + 1,
        "streaming must hold O(workers) records, saw peak {}",
        stream.peak_records_in_flight
    );
    assert!(streamed.sites.is_empty(), "streaming keeps no per-site records");
    assert!(streamed.aggregates.is_some());

    let _ctx = fresh_ctx();
    let recorded = Scan::new(cfg).record(&rdir).run().expect("record");
    let record_fp = fingerprint(&recorded, &rdir);

    // A streamed scan is the same experiment as a classic recorded scan:
    // same tables, same bundle records, same telemetry digest.
    assert_eq!(stream_fp, record_fp);
    assert_eq!(streamed.table6(), recorded.table6());
    assert_eq!(streamed.table12(), recorded.table12());
    assert_eq!(streamed.rank_buckets(30), recorded.rank_buckets(30));
    assert_eq!(streamed.category_tallies(), recorded.category_tallies());
    assert_eq!(streamed.script_stats(), recorded.script_stats());
    assert_eq!(streamed.inclusion_totals(), recorded.inclusion_totals());
    assert_eq!(streamed.history, recorded.history);
    let (a, b) = (ReplayBundle::open(&sdir).unwrap(), ReplayBundle::open(&rdir).unwrap());
    assert!(diff_bundles(&a, &b).is_clean(), "stream vs record bundles must diff clean");
}

/// The tentpole property: over random (seed, kill-point, worker-count),
/// crash → resume ≡ uninterrupted.
#[test]
fn crashed_and_resumed_stream_is_byte_identical_to_uninterrupted() {
    let n = 120u32;
    for (case, &(seed, workers)) in
        [(3u64, 1usize), (4, 4), (5, 4), (6, 1), (7, 4), (8, 4)].iter().enumerate()
    {
        // Uninterrupted reference run.
        let ref_dir = tmp_dir(&format!("ref-{case}"));
        let cfg = chaos_cfg(n, seed, workers);
        let _ctx = fresh_ctx();
        let reference = Scan::new(cfg).stream_to(&ref_dir).run().expect("reference");
        let ref_fp = fingerprint(&reference, &ref_dir);

        // Crashed run: a seeded kill-point somewhere in the first half of
        // the crawl (so the resume always has real work left).
        let dir = tmp_dir(&format!("crash-{case}"));
        let plan = CrashPlan::seeded(seed.wrapping_mul(0x9e37), n / 2);
        let _ctx = fresh_ctx();
        let crashed = catch_crash(|| Scan::new(cfg).stream_to(&dir).inject_crash(plan).run());
        assert!(crashed.is_none(), "case {case}: planned kill {plan:?} must crash the crawl");

        // Resume in a notionally fresh process.
        let _ctx = fresh_ctx();
        let resumed = Scan::new(cfg).stream_to(&dir).run().expect("resume");
        let fp = fingerprint(&resumed, &dir);

        let stream = resumed.stream.expect("stream stats");
        assert!(stream.resumed && stream.committed, "case {case}: {stream:?}");
        assert!(stream.records_replayed > 0, "case {case}: nothing replayed");
        assert_eq!(
            fp, ref_fp,
            "case {case} (seed {seed}, workers {workers}, kill {plan:?}): \
             crashed-and-resumed run diverged from the uninterrupted run"
        );
        assert_eq!(resumed.history, reference.history, "case {case}");
        let (a, b) = (ReplayBundle::open(&dir).unwrap(), ReplayBundle::open(&ref_dir).unwrap());
        assert!(diff_bundles(&a, &b).is_clean(), "case {case}: bundles must diff clean");

        // The torn classes must actually have left damage behind for at
        // least some cases; the recovery counters make that visible.
        match plan.kill {
            KillPoint::MidCheckpointLine(..) => assert!(
                stream.checkpoint_lines_dropped > 0 || stream.revisits > 0,
                "case {case}: mid-line kill left no visible damage"
            ),
            KillPoint::MidBundleAppend(..) | KillPoint::AfterVisit(_) => {}
        }
    }
}

/// Every kill class, pinned explicitly (the seeded sweep above may not
/// cover all three), including a kill on the very first flush, at one
/// worker and at four. Each resume still holds O(workers) records.
#[test]
fn every_kill_class_recovers() {
    let n = 80u32;
    let kills = [
        KillPoint::AfterVisit(1),
        KillPoint::AfterVisit(20),
        KillPoint::MidCheckpointLine(7, 0),
        KillPoint::MidCheckpointLine(7, 25),
        KillPoint::MidBundleAppend(13, 0),
        KillPoint::MidBundleAppend(13, 33),
    ];
    let ref_dir = tmp_dir("classes-ref");
    let _ctx = fresh_ctx();
    let reference = Scan::new(chaos_cfg(n, 21, 4)).stream_to(&ref_dir).run().expect("reference");
    let ref_fp = fingerprint(&reference, &ref_dir);

    for (i, (workers, kill)) in [1, 4].into_iter().flat_map(|w| kills.map(|k| (w, k))).enumerate() {
        let cfg = chaos_cfg(n, 21, workers);
        let dir = tmp_dir(&format!("classes-{i}"));
        let _ctx = fresh_ctx();
        let crashed =
            catch_crash(|| Scan::new(cfg).stream_to(&dir).inject_crash(CrashPlan::new(kill)).run());
        assert!(crashed.is_none(), "kill {kill:?} must crash");
        let _ctx = fresh_ctx();
        let resumed = Scan::new(cfg).stream_to(&dir).run().expect("resume");
        let fp = fingerprint(&resumed, &dir);
        assert_eq!(fp, ref_fp, "kill {kill:?} at {workers} workers: resume diverged");
        assert_eq!(resumed.history, reference.history, "kill {kill:?} at {workers} workers");
        let (a, b) = (ReplayBundle::open(&dir).unwrap(), ReplayBundle::open(&ref_dir).unwrap());
        assert!(diff_bundles(&a, &b).is_clean(), "kill {kill:?} at {workers} workers: bundle diff");
        let stream = resumed.stream.unwrap();
        assert!(
            stream.peak_records_in_flight <= workers as u64 + 1,
            "kill {kill:?}: resume with {workers} workers peaked at {} records in flight",
            stream.peak_records_in_flight
        );
        match kill {
            // A clean-boundary kill loses nothing: resume replays all K
            // flushed records and re-visits only never-started sites.
            KillPoint::AfterVisit(k) => {
                assert_eq!(stream.records_replayed, k as u64, "kill {kill:?}");
                assert_eq!(stream.checkpoint_lines_dropped, 0, "kill {kill:?}");
                assert_eq!(stream.bundle_tail_dropped, 0, "kill {kill:?}");
            }
            // A torn checkpoint line loses exactly that line (with
            // `keep == 0` nothing of it ever hit disk, so the file just
            // ends early); either way its bundle entry is unacknowledged
            // and the site re-visited.
            KillPoint::MidCheckpointLine(k, keep) => {
                assert_eq!(stream.records_replayed, k as u64 - 1, "kill {kill:?}");
                assert_eq!(
                    stream.checkpoint_lines_dropped,
                    if keep > 0 { 1 } else { 0 },
                    "kill {kill:?}"
                );
                assert_eq!(stream.revisits, 1, "kill {kill:?}");
            }
            // A torn bundle append never got a checkpoint line: the torn
            // manifest tail is discarded wholesale (with `keep == 0` the
            // append died before writing a single byte).
            KillPoint::MidBundleAppend(k, keep) => {
                let torn = if keep > 0 { 1 } else { 0 };
                assert_eq!(stream.records_replayed, k as u64 - 1, "kill {kill:?}");
                assert_eq!(stream.checkpoint_lines_dropped, 0, "kill {kill:?}");
                assert_eq!(stream.bundle_tail_dropped, torn, "kill {kill:?}");
                assert_eq!(stream.revisits, 0, "kill {kill:?}");
            }
        }
    }
}

/// Every injected crash must leave an *explainable* trace: with the
/// flight recorder armed, each kill class writes a parseable forensic
/// dump naming the in-flight phase (all three classes die inside the
/// record flush, nested under the visit) — and the armed recorder must
/// not perturb the resumed run's bytes.
#[test]
fn chaos_kills_leave_explainable_forensics() {
    let n = 80u32;
    let cfg = chaos_cfg(n, 21, 4);
    let ref_dir = tmp_dir("forensic-ref");
    let _ctx = fresh_ctx();
    let reference = Scan::new(cfg).stream_to(&ref_dir).run().expect("reference");
    let ref_fp = fingerprint(&reference, &ref_dir);

    let kills = [
        KillPoint::AfterVisit(9),
        KillPoint::MidCheckpointLine(7, 14),
        KillPoint::MidBundleAppend(11, 6),
    ];
    for (i, kill) in kills.into_iter().enumerate() {
        let dir = tmp_dir(&format!("forensic-{i}"));
        let dumps = std::env::temp_dir()
            .join(format!("gullible-chaos-forensics-{i}-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&dumps);

        // Arm the flight recorder — exactly what a crash-investigation run
        // would do.
        let armed = |what| {
            stats_ctx(obs::Telemetry::new().with_forensics(&dumps).expect(what)).enter()
        };
        let _ctx = armed("arm flight recorder");
        let crashed =
            catch_crash(|| Scan::new(cfg).stream_to(&dir).inject_crash(CrashPlan::new(kill)).run());
        assert!(crashed.is_none(), "kill {kill:?} must crash");

        let text = std::fs::read_to_string(&dumps).expect("crash must leave a forensic dump");
        let summary = obs::validate::validate_forensic(&text)
            .unwrap_or_else(|e| panic!("kill {kill:?}: unparseable forensic dump: {e}"));
        assert!(summary.dumps >= 1, "kill {kill:?}: no forensic dumps");
        let chaos_dump = summary
            .triggers
            .iter()
            .find(|(t, _)| t == "chaos_kill")
            .unwrap_or_else(|| panic!("kill {kill:?}: no chaos_kill dump in {:?}", summary.triggers));
        assert!(
            chaos_dump.1.contains("archive.flush"),
            "kill {kill:?}: dump must name the in-flight phase, got {:?}",
            chaos_dump.1
        );
        assert!(summary.ring_events > 0, "kill {kill:?}: empty flight-recorder ring");

        // Resume with the recorder still armed: bytes must match the
        // (recorder-off) reference exactly.
        let _ctx = armed("re-arm flight recorder");
        let resumed = Scan::new(cfg).stream_to(&dir).run().expect("resume");
        let fp = fingerprint(&resumed, &dir);
        assert_eq!(fp, ref_fp, "kill {kill:?}: armed recorder perturbed the resume");
        let _ = std::fs::remove_file(&dumps);
    }
}

/// A crawl can crash, resume, crash again, and still converge.
#[test]
fn double_crash_still_converges() {
    let n = 90u32;
    let cfg = chaos_cfg(n, 33, 4);
    let ref_dir = tmp_dir("double-ref");
    let _ctx = fresh_ctx();
    let reference = Scan::new(cfg).stream_to(&ref_dir).run().expect("reference");
    let ref_fp = fingerprint(&reference, &ref_dir);

    let dir = tmp_dir("double");
    let _ctx = fresh_ctx();
    let first = catch_crash(|| {
        Scan::new(cfg)
            .stream_to(&dir)
            .inject_crash(CrashPlan::new(KillPoint::MidCheckpointLine(10, 12)))
            .run()
    });
    assert!(first.is_none());
    let _ctx = fresh_ctx();
    let second = catch_crash(|| {
        Scan::new(cfg)
            .stream_to(&dir)
            .inject_crash(CrashPlan::new(KillPoint::MidBundleAppend(15, 5)))
            .run()
    });
    assert!(second.is_none(), "second kill fires within the remaining work");
    let _ctx = fresh_ctx();
    let resumed = Scan::new(cfg).stream_to(&dir).run().expect("final resume");
    let fp = fingerprint(&resumed, &dir);
    assert_eq!(fp, ref_fp, "two crashes deep, the crawl still converges");
}

/// Interrupting a stream via `visit_budget` (no crash at all) leaves an
/// uncommitted bundle that a later unbudgeted run completes and seals.
#[test]
fn budgeted_stream_resumes_like_checkpoint() {
    let n = 60u32;
    let cfg = chaos_cfg(n, 44, 4);
    let ref_dir = tmp_dir("budget-ref");
    let _ctx = fresh_ctx();
    let reference = Scan::new(cfg).stream_to(&ref_dir).run().expect("reference");
    let ref_fp = fingerprint(&reference, &ref_dir);

    let dir = tmp_dir("budget");
    let _ctx = fresh_ctx();
    let partial = Scan::new(ScanConfig { visit_budget: Some(25), ..cfg })
        .stream_to(&dir)
        .run()
        .expect("budgeted stream");
    let pstream = partial.stream.unwrap();
    assert!(!pstream.committed, "budgeted run must leave the bundle unsealed");
    assert!(partial.completion.interrupted > 0);
    assert!(
        ReplayBundle::open(&dir).is_err(),
        "an unsealed bundle must refuse to open for replay"
    );

    let _ctx = fresh_ctx();
    let resumed = Scan::new(cfg).stream_to(&dir).run().expect("resume");
    let fp = fingerprint(&resumed, &dir);
    assert!(resumed.stream.unwrap().resumed);
    assert_eq!(fp, ref_fp);
}

/// Cross-corruption matrix: mismatched checkpoint/bundle pairs must be
/// hard errors (or clean fresh starts where nothing is trusted) — never
/// a quiet partial resume.
#[test]
fn cross_corruption_fails_loudly() {
    let n = 50u32;
    let cfg = chaos_cfg(n, 55, 2);

    let make_crashed = |name: &str| {
        let dir = tmp_dir(name);
        let _ctx = fresh_ctx();
        let crashed = catch_crash(|| {
            Scan::new(cfg)
                .stream_to(&dir)
                .inject_crash(CrashPlan::new(KillPoint::AfterVisit(12)))
                .run()
        });
        assert!(crashed.is_none());
        dir
    };

    // 1. Damage a bundle entry inside the trusted prefix: hard error.
    let dir = make_crashed("xc-damaged-entry");
    let manifest = dir.join("manifest.gar");
    let pristine = std::fs::read_to_string(&manifest).unwrap();
    let damaged: Vec<String> = pristine
        .lines()
        .enumerate()
        .map(|(i, l)| if i == 3 { l.replace(['0', '1'], "x") } else { l.to_string() })
        .collect();
    std::fs::write(&manifest, damaged.join("\n") + "\n").unwrap();
    let _ctx = fresh_ctx();
    let err = Scan::new(cfg).stream_to(&dir).run().map(|_| ()).unwrap_err().to_string();
    assert!(
        err.contains("trusted prefix") || err.contains("checkpoint"),
        "damaged trusted entry must be loud, got: {err}"
    );

    // 2. Truncate the manifest below the checkpointed high-water mark:
    //    the storage reneged on acknowledged durability — hard error.
    let dir = make_crashed("xc-truncated");
    let manifest = dir.join("manifest.gar");
    let pristine = std::fs::read_to_string(&manifest).unwrap();
    let keep: Vec<&str> = pristine.lines().collect();
    std::fs::write(&manifest, keep[..keep.len() - 4].join("\n") + "\n").unwrap();
    let _ctx = fresh_ctx();
    let err = Scan::new(cfg).stream_to(&dir).run().map(|_| ()).unwrap_err().to_string();
    assert!(
        err.contains("high-water mark") || err.contains("no bundle entry"),
        "truncated-below-hwm manifest must be loud, got: {err}"
    );

    // 3. Delete the checkpoint but keep the stale partial bundle: nothing
    //    is trusted, so the run starts fresh — and still matches a
    //    reference run exactly (the stale bundle must not leak in).
    let dir = make_crashed("xc-no-ckpt");
    std::fs::remove_file(dir.join(STREAM_CHECKPOINT_FILE)).unwrap();
    let _ctx = fresh_ctx();
    let report = Scan::new(cfg).stream_to(&dir).run().expect("fresh start");
    let fp = fingerprint(&report, &dir);
    let stream = report.stream.unwrap();
    assert!(!stream.resumed && stream.committed);
    assert_eq!(stream.records_flushed, n as u64);

    let ref_dir = tmp_dir("xc-ref");
    let _ctx = fresh_ctx();
    let reference = Scan::new(cfg).stream_to(&ref_dir).run().expect("reference");
    assert_eq!(fp, fingerprint(&reference, &ref_dir));

    // 4. Corrupt a checkpoint line in the *middle* of the file: that line
    //    is dropped and counted, its site re-visited, and the result still
    //    converges.
    let dir = make_crashed("xc-midline");
    let ckpt = dir.join(STREAM_CHECKPOINT_FILE);
    let pristine = std::fs::read_to_string(&ckpt).unwrap();
    let mut lines: Vec<String> = pristine.lines().map(String::from).collect();
    assert!(lines.len() > 6, "need a middle line to corrupt");
    lines[5] = lines[5].replace(['0', '1', '2'], "z");
    std::fs::write(&ckpt, lines.join("\n") + "\n").unwrap();
    let _ctx = fresh_ctx();
    let resumed = Scan::new(cfg).stream_to(&dir).run().expect("resume past corrupt line");
    let fp = fingerprint(&resumed, &dir);
    let stream = resumed.stream.unwrap();
    assert_eq!(stream.checkpoint_lines_dropped, 1);
    assert!(stream.revisits >= 1, "the dropped line's site must be re-visited");
    assert_eq!(fp, fingerprint(&reference, &ref_dir));

    // 5. A sealed bundle refuses further streaming (re-running the same
    //    command twice must not scribble on finished results).
    let _ctx = fresh_ctx();
    let err =
        Scan::new(cfg).stream_to(&ref_dir).run().map(|_| ()).unwrap_err().to_string();
    assert!(err.contains("committed"), "sealed bundle must refuse, got: {err}");
}

/// Mode guard: crash injection requires a bundle sink.
#[test]
fn stream_mode_guards() {
    let err = Scan::new(ScanConfig::new(4, 1))
        .inject_crash(CrashPlan::new(KillPoint::AfterVisit(1)))
        .run()
        .map(|_| ())
        .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
}

/// A streamed report keeps no records, yet counts exactly what an
/// in-memory report of the same config counts (Table 11's front counts).
#[test]
fn streamed_and_in_memory_reports_count_the_same_fronts() {
    let dir = tmp_dir("front-counts");
    let cfg = chaos_cfg(150, 17, 2);
    let _ctx = fresh_ctx();
    let in_memory = Scan::new(cfg).run().expect("in-memory scan");
    let streamed = Scan::new(cfg).stream_to(&dir).run().expect("streamed scan");
    assert!(streamed.sites.is_empty());
    let fronts = |r: &gullible::ScanReport| {
        [
            r.count(|front, _| front.static_true),
            r.count(|front, _| front.dynamic_true),
            r.count(|front, _| front.union_true()),
            r.count(|front, site| site.union_true() && !front.union_true()),
        ]
    };
    let expected = fronts(&in_memory);
    assert!(expected[2] > 0, "the population must hold front-page detectors");
    assert_eq!(fronts(&streamed), expected);
    assert_eq!(
        expected[2],
        in_memory.sites.iter().filter(|s| s.front.union_true()).count() as u32,
        "count must agree with the kept records"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
