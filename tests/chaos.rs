//! Chaos: crash-consistent streaming crawls (the paper's reliability
//! lesson, applied to the crawler itself).
//!
//! The contract under test: a streamed scan that is killed at an
//! arbitrary point — after a clean flush or mid-bundle-append — or whose
//! manifest is cut at any byte, and then resumed, produces per-site
//! records, Table 5 and a telemetry digest *byte-identical* to an
//! uninterrupted run, at any worker count; and a manifest damaged before
//! its last line fails loudly instead of resuming quietly.
//!
//! A killed crawl leaves nothing but its bundle: a manifest prefix,
//! perhaps ending in a torn line, and a blob file. Each test writes that
//! state directly (see [`Kill`] and `common::crash_state`) and resumes
//! from it; `bench`'s `sigkill_resume` test kills a real process.

mod common;

use std::path::Path;

use common::{as_interrupted, crash_state, cut_manifest, line_ends, reframed};
use gullible::{diff_bundles, obs, CrawlCtx, CtxGuard, ReplayBundle, Scan, ScanConfig};
use openwpm::FaultPlan;
use proplite::TempDir;

fn tmp_dir(name: &str) -> TempDir {
    TempDir::new(&format!("chaos-{name}"))
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

/// Where a crawl died, counted in manifest entries.
#[derive(Clone, Copy, Debug)]
enum Kill {
    /// Right after the `K`-th entry was fully on disk: the clean-boundary
    /// crash.
    AfterVisit(u32),
    /// While appending the `K`-th entry, with only its first `keep` bytes
    /// on disk (at most all of it but its newline): the torn-append crash.
    MidBundleAppend(u32, usize),
}

impl Kill {
    /// A seeded kill: class, entry ordinal in `[1, max]`, and (for the
    /// torn class) a partial-write length in `[0, 40)` bytes — from
    /// "nothing written" to "rank, domain and more written".
    fn seeded(seed: u64, max: u32) -> Kill {
        let mut rng = proplite::Rng::new(seed);
        let k = rng.u32_in(1, max + 1);
        let keep = rng.usize_in(0, 40);
        if rng.bool() {
            Kill::AfterVisit(k)
        } else {
            Kill::MidBundleAppend(k, keep)
        }
    }

    /// The entry the crawl was writing when it died.
    fn entry(self) -> u32 {
        match self {
            Kill::AfterVisit(k) | Kill::MidBundleAppend(k, _) => k,
        }
    }

    /// How much of that entry reached the disk, if the kill tore it.
    fn tear(self) -> Option<usize> {
        match self {
            Kill::AfterVisit(_) => None,
            Kill::MidBundleAppend(_, keep) => Some(keep),
        }
    }
}

/// Cut the manifest in `dir` to what `kill` leaves of it: the header and
/// the first `K` entries, the last of them cut to `keep` bytes for a torn
/// append. A commit line goes with the cut.
fn kill_manifest(dir: &Path, kill: Kill) {
    cut_manifest(dir, kill.entry() as usize, kill.tear());
}

/// The bundle a stream killed at `kill` leaves when it had flushed exactly
/// ranks `0..K`: their entries from `reference`, a complete bundle of
/// `cfg`, and only their blobs, so a resume appends blobs to the store it
/// reopens. A torn kill then cuts its last entry.
fn flushed_bundle(cfg: ScanConfig, reference: &Path, name: &str, kill: Kill) -> TempDir {
    let dir = tmp_dir(name);
    crash_state(&cfg, reference, &dir, kill.entry(), kill.tear());
    dir
}

/// The bundle a stream killed at `kill` leaves when its sites completed in
/// the order `reference` recorded them: a copy of that bundle, cut. Cut
/// from a multi-worker bundle, this is a multi-worker kill's
/// scheduling-dependent rank set; the blob file keeps bodies of sites the
/// cut drops, as the blobs of visits in flight at a kill do.
fn cut_bundle(reference: &Path, name: &str, kill: Kill) -> TempDir {
    let dir = tmp_dir(name);
    copy_bundle(reference, &dir);
    kill_manifest(&dir, kill);
    dir
}

/// The crash state of a stream at `cfg.workers`. One worker completes
/// sites in rank order, so it holds ranks `0..K` and their blobs; more
/// workers complete them in scheduling order, so it is cut from
/// `reference`, a complete bundle those workers wrote.
fn crashed_bundle(cfg: ScanConfig, reference: &Path, name: &str, kill: Kill) -> TempDir {
    if cfg.workers == 1 {
        flushed_bundle(cfg, reference, name, kill)
    } else {
        cut_bundle(reference, name, kill)
    }
}

#[test]
fn stream_matches_recorded_run_byte_for_byte() {
    let (sdir, rdir) = (tmp_dir("stream-vs-record"), tmp_dir("stream-vs-record-ref"));
    let cfg = chaos_cfg(180, 11, 4);

    let _ctx = fresh_ctx();
    let streamed = Scan::new(cfg).stream_to(&sdir).run().expect("stream");
    let stream_fp = fingerprint(&streamed, &sdir);

    let stream = streamed.stream.expect("streamed report carries stream stats");
    assert!(!stream.resumed);
    assert_eq!(stream.records_flushed, 180);
    // Every flush is counted: the completion hook reads the visit's
    // metrics delta without draining it, so the flush's own bookkeeping,
    // recorded after that read, still reaches the registry.
    let snap = obs::Telemetry::current().registry().snapshot();
    assert_eq!(snap.counter("checkpoint.writes"), stream.records_flushed);
    assert!(
        stream.peak_records_in_flight <= cfg.workers as u64 + 1,
        "streaming must hold O(workers) records, saw peak {}",
        stream.peak_records_in_flight
    );
    assert!(streamed.sites.is_empty(), "streaming keeps no per-site records");

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

        // Crashed run: a seeded kill somewhere in the first half of the
        // crawl (so the resume always has real work left).
        let plan = Kill::seeded(seed.wrapping_mul(0x9e37), n / 2);
        let dir = crashed_bundle(cfg, &ref_dir, &format!("crash-{case}"), plan);

        // Resume in a notionally fresh process.
        let _ctx = fresh_ctx();
        let resumed = Scan::new(cfg).stream_to(&dir).run().expect("resume");
        let fp = fingerprint(&resumed, &dir);

        let stream = resumed.stream.expect("stream stats");
        assert!(stream.resumed, "case {case}: {stream:?}");
        assert!(stream.records_replayed > 0, "case {case}: nothing replayed");
        assert_eq!(
            fp, ref_fp,
            "case {case} (seed {seed}, workers {workers}, kill {plan:?}): \
             crashed-and-resumed run diverged from the uninterrupted run"
        );
        assert_eq!(resumed.history, reference.history, "case {case}");
        let (a, b) = (ReplayBundle::open(&dir).unwrap(), ReplayBundle::open(&ref_dir).unwrap());
        assert!(diff_bundles(&a, &b).is_clean(), "case {case}: bundles must diff clean");

        // A torn append must actually have left damage behind; the
        // recovery counter makes it visible.
        if let Kill::MidBundleAppend(_, keep) = plan {
            assert_eq!(stream.bundle_tail_dropped, (keep > 0) as u64, "case {case}: {plan:?}");
        }
    }
}

/// A torn append's `keep` is capped at the line's length, so this keeps
/// every byte of the entry line but its newline.
const ALL_BUT_NEWLINE: usize = usize::MAX;

/// Every kill class, pinned explicitly (the seeded sweep above may not
/// cover both), including a kill on the very first flush and torn appends
/// at both boundaries (one byte written; all but the newline written), at
/// one worker and at four. Each resume still holds O(workers) records.
#[test]
fn every_kill_class_recovers() {
    let n = 80u32;
    let kills = [
        Kill::AfterVisit(1),
        Kill::AfterVisit(20),
        Kill::MidBundleAppend(13, 0),
        Kill::MidBundleAppend(13, 1),
        Kill::MidBundleAppend(13, 33),
        Kill::MidBundleAppend(13, ALL_BUT_NEWLINE),
    ];
    let ref_dir = tmp_dir("classes-ref");
    let _ctx = fresh_ctx();
    let reference = Scan::new(chaos_cfg(n, 21, 4)).stream_to(&ref_dir).run().expect("reference");
    let ref_fp = fingerprint(&reference, &ref_dir);

    for (i, (workers, kill)) in [1, 4].into_iter().flat_map(|w| kills.map(|k| (w, k))).enumerate() {
        let cfg = chaos_cfg(n, 21, workers);
        let dir = crashed_bundle(cfg, &ref_dir, &format!("classes-{i}"), kill);
        let _ctx = fresh_ctx();
        let resumed = Scan::new(cfg).stream_to(&dir).run().expect("resume");
        let fp = fingerprint(&resumed, &dir);
        assert_eq!(fp, ref_fp, "kill {kill:?} at {workers} workers: resume diverged");
        assert_eq!(resumed.history, reference.history, "kill {kill:?} at {workers} workers");
        let (a, b) = (ReplayBundle::open(&dir).unwrap(), ReplayBundle::open(&ref_dir).unwrap());
        assert!(diff_bundles(&a, &b).is_clean(), "kill {kill:?} at {workers} workers: bundle diff");
        let stream = resumed.stream.unwrap();
        if workers == 1 {
            // The crash state holds only the flushed sites' blobs: the
            // resume appends the rest to the store it reopened.
            assert!(resumed.archive.unwrap().blobs_written > 0, "kill {kill:?}");
        }
        assert!(
            stream.peak_records_in_flight <= workers as u64 + 1,
            "kill {kill:?}: resume with {workers} workers peaked at {} records in flight",
            stream.peak_records_in_flight
        );
        match kill {
            // A clean-boundary kill loses nothing: resume replays all K
            // flushed records and re-visits only never-started sites.
            Kill::AfterVisit(k) => {
                assert_eq!(stream.records_replayed, k as u64, "kill {kill:?}");
                assert_eq!(stream.bundle_tail_dropped, 0, "kill {kill:?}");
                assert_eq!(resumed.completion.bundle_lines_dropped, 0, "kill {kill:?}");
            }
            // A torn append loses exactly its own line, which is cut off
            // (with `keep == 0` the append died before writing a single
            // byte, so the manifest is the one a kill after K−1 flushes
            // leaves) and its site re-visited.
            Kill::MidBundleAppend(k, keep) => {
                let torn = (keep > 0) as u64;
                assert_eq!(stream.records_replayed, k as u64 - 1, "kill {kill:?}");
                assert_eq!(stream.bundle_tail_dropped, torn, "kill {kill:?}");
                assert_eq!(resumed.completion.bundle_lines_dropped, torn as usize, "kill {kill:?}");
            }
        }
    }
}

/// A crash-investigation resume runs with the flight recorder armed.
/// Each site it visits and fails leaves one `visit_failed` dump that
/// parses and names an in-flight `visit` phase, and the armed recorder
/// must not perturb the resumed run's bytes. Every site is flaky here, so
/// the adversarial weather fails some of them.
#[test]
fn chaos_kills_leave_explainable_forensics() {
    let n = 80u32;
    let cfg = ScanConfig { flaky_sites_per_100k: 100_000, ..chaos_cfg(n, 21, 4) };
    let ref_dir = tmp_dir("forensic-ref");
    let _ctx = fresh_ctx();
    let reference = Scan::new(cfg).stream_to(&ref_dir).run().expect("reference");
    let ref_fp = fingerprint(&reference, &ref_dir);

    let kills = [Kill::AfterVisit(9), Kill::MidBundleAppend(7, 14), Kill::MidBundleAppend(11, 6)];
    for (i, kill) in kills.into_iter().enumerate() {
        let dir = cut_bundle(&ref_dir, &format!("forensic-{i}"), kill);
        let dumps = std::env::temp_dir()
            .join(format!("gullible-chaos-forensics-{i}-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&dumps);

        // Arm the flight recorder — exactly what a crash-investigation run
        // would do — and resume: bytes must match the (recorder-off)
        // reference exactly.
        let telemetry = obs::Telemetry::new().with_forensics(&dumps).expect("arm flight recorder");
        let _ctx = stats_ctx(telemetry).enter();
        let failed = std::sync::atomic::AtomicUsize::new(0);
        let resumed = Scan::new(cfg)
            .stream_to(&dir)
            .on_complete(|_, outcome, _| {
                if let openwpm::VisitOutcome::Failed { .. } = outcome {
                    failed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            })
            .run()
            .expect("resume");
        let fp = fingerprint(&resumed, &dir);
        assert_eq!(fp, ref_fp, "kill {kill:?}: armed recorder perturbed the resume");

        let failed = failed.into_inner();
        assert!(failed > 0, "kill {kill:?}: the resume must fail some site");
        let text = std::fs::read_to_string(&dumps).expect("a failed visit must leave a dump");
        let summary = obs::validate::validate_forensic(&text)
            .unwrap_or_else(|e| panic!("kill {kill:?}: unparseable forensic dump: {e}"));
        let visit_failed = summary.triggers.iter().filter(|(t, _)| t == "visit_failed").count();
        assert_eq!(visit_failed, failed, "kill {kill:?}: {:?}", summary.triggers);
        for (trigger, phase) in &summary.triggers {
            assert!(phase.starts_with("visit"), "kill {kill:?}: {trigger} in phase {phase}");
        }
        assert!(summary.ring_events > 0, "kill {kill:?}: empty flight-recorder ring");
        let _ = std::fs::remove_file(&dumps);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A crawl can crash, resume, crash again, and still converge: a torn
/// kill at entry 10, a resume whose own bundle is then torn 15 entries
/// later (its blob file keeping the bodies of every site it visited, as a
/// kill with visits in flight leaves it), then a final resume.
#[test]
fn double_crash_still_converges() {
    let n = 90u32;
    let cfg = chaos_cfg(n, 33, 4);
    let ref_dir = tmp_dir("double-ref");
    let _ctx = fresh_ctx();
    let reference = Scan::new(cfg).stream_to(&ref_dir).run().expect("reference");
    let ref_fp = fingerprint(&reference, &ref_dir);

    let dir = flushed_bundle(cfg, &ref_dir, "double", Kill::MidBundleAppend(10, 12));
    let _ctx = fresh_ctx();
    let second = Scan::new(cfg).stream_to(&dir).run().expect("first resume");
    let stream = second.stream.unwrap();
    assert_eq!((stream.records_replayed, stream.bundle_tail_dropped), (9, 1), "{stream:?}");
    assert_eq!(stream.records_flushed, n as u64 - 9);
    kill_manifest(&dir, Kill::MidBundleAppend(9 + 15, 5));

    let _ctx = fresh_ctx();
    let resumed = Scan::new(cfg).stream_to(&dir).run().expect("final resume");
    let stream = resumed.stream.as_ref().unwrap();
    assert_eq!((stream.records_replayed, stream.bundle_tail_dropped), (23, 1), "{stream:?}");
    let fp = fingerprint(&resumed, &dir);
    assert_eq!(fp, ref_fp, "two crashes deep, the crawl still converges");
    assert_eq!(resumed.history, reference.history);
}

/// A killed stream's bundle has no commit line: it refuses to open for
/// replay, and a later run completes and seals it.
#[test]
fn unsealed_bundle_refuses_replay_until_resumed() {
    let n = 60u32;
    let cfg = chaos_cfg(n, 44, 4);
    let ref_dir = tmp_dir("unsealed-ref");
    let _ctx = fresh_ctx();
    let reference = Scan::new(cfg).stream_to(&ref_dir).run().expect("reference");
    let ref_fp = fingerprint(&reference, &ref_dir);

    let dir = flushed_bundle(cfg, &ref_dir, "unsealed", Kill::AfterVisit(25));
    let err = ReplayBundle::open(&dir).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("no commit line"), "{err}");

    let _ctx = fresh_ctx();
    let resumed = Scan::new(cfg).stream_to(&dir).run().expect("resume");
    let fp = fingerprint(&resumed, &dir);
    assert_eq!(resumed.stream.unwrap().records_replayed, 25);
    assert_eq!(fp, ref_fp);
}

/// Copy a bundle directory's files into a fresh `to`.
fn copy_bundle(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, to.join(path.file_name().unwrap())).unwrap();
    }
}

/// Corruption matrix for the one log: damage before the last line and an
/// intact line that does not decode are hard errors, a cut at any line
/// boundary converges, and a sealed bundle refuses more writes — never a
/// quiet partial resume.
#[test]
fn cross_corruption_fails_loudly() {
    let n = 50u32;
    let cfg = chaos_cfg(n, 55, 2);
    let ref_dir = tmp_dir("xc-ref");
    let _ctx = fresh_ctx();
    let reference = Scan::new(cfg).stream_to(&ref_dir).run().expect("reference");
    let ref_fp = fingerprint(&reference, &ref_dir);

    // 1. A corrupt non-final line is a hard error, and the resume writes
    //    nothing: the damaged manifest is left as it was.
    let dir = flushed_bundle(cfg, &ref_dir, "xc-damaged-entry", Kill::AfterVisit(12));
    let manifest = dir.join("manifest.gar");
    let pristine = std::fs::read_to_string(&manifest).unwrap();
    let damaged: Vec<String> = pristine
        .lines()
        .enumerate()
        .map(|(i, l)| if i == 3 { l.replace(['0', '1'], "x") } else { l.to_string() })
        .collect();
    let damaged = damaged.join("\n") + "\n";
    std::fs::write(&manifest, &damaged).unwrap();
    let _ctx = fresh_ctx();
    let err = Scan::new(cfg).stream_to(&dir).run().map(|_| ()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("corrupt"), "damaged entry must be loud, got: {err}");
    assert_eq!(std::fs::read_to_string(&manifest).unwrap(), damaged);

    // 2. So is an intact line whose delta or entry does not decode: here
    //    re-checksummed lines with a garbled delta, an out-of-range rank,
    //    and the `interrupted` status no recorder writes.
    let garbled = |p: &str| format!("{}\x01not a delta", p.rsplit_once('\x01').unwrap().0);
    let out_of_range = |p: &str| format!("{n}\x01{}", p.split_once('\x01').unwrap().1);
    for edit in [&garbled as &dyn Fn(&str) -> String, &out_of_range, &as_interrupted] {
        let lines: Vec<String> = pristine
            .lines()
            .enumerate()
            .map(|(i, l)| if i == 3 { reframed(l, edit) } else { l.to_string() })
            .collect();
        std::fs::write(&manifest, lines.join("\n") + "\n").unwrap();
        let _ctx = fresh_ctx();
        let err = Scan::new(cfg).stream_to(&dir).run().map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("does not decode"), "{err}");
    }

    // 3. A manifest cut at any line boundary is a shorter intact prefix:
    //    the resume adopts what is left, re-visits the rest and converges.
    let crashed = flushed_bundle(cfg, &ref_dir, "xc-crashed", Kill::AfterVisit(12));
    let pristine = std::fs::read(crashed.join("manifest.gar")).unwrap();
    let ends = line_ends(&pristine);
    assert_eq!(ends.len(), 13, "header plus 12 entries");
    for (adopted, &end) in ends.iter().enumerate() {
        let dir = tmp_dir(&format!("xc-cut-{adopted}"));
        copy_bundle(&crashed, &dir);
        std::fs::write(dir.join("manifest.gar"), &pristine[..end]).unwrap();
        let _ctx = fresh_ctx();
        let resumed = Scan::new(cfg).stream_to(&dir).run().expect("resume after a cut");
        let stream = resumed.stream.unwrap();
        assert_eq!(stream.records_replayed, adopted as u64);
        assert_eq!(stream.bundle_tail_dropped, 0);
        assert_eq!(fingerprint(&resumed, &dir), ref_fp, "cut after {adopted} entries");
        assert_eq!(resumed.history, reference.history, "cut after {adopted} entries");
        let _ = std::fs::remove_dir_all(&dir);
    }

    // 4. A sealed bundle refuses further streaming (re-running the same
    //    command twice must not scribble on finished results).
    let _ctx = fresh_ctx();
    let err =
        Scan::new(cfg).stream_to(&ref_dir).run().map(|_| ()).unwrap_err().to_string();
    assert!(err.contains("committed"), "sealed bundle must refuse, got: {err}");
}

/// The one log's corruption property: over random kill points, a manifest
/// truncated at any byte past its header resumes to exactly the
/// uninterrupted run, and one flipped byte in any entry line before the
/// last is an `InvalidData` error, never a panic or a quiet resume.
#[test]
fn truncated_manifest_converges_and_flipped_byte_fails() {
    let n = 60u32;
    let cfg = chaos_cfg(n, 61, 2);
    let ref_dir = tmp_dir("prop-ref");
    let _ctx = fresh_ctx();
    let reference = Scan::new(cfg).stream_to(&ref_dir).run().expect("reference");
    let ref_fp = fingerprint(&reference, &ref_dir);
    let ref_bundle = ReplayBundle::open(&ref_dir).unwrap();

    let mut case = 0;
    proplite::run_cases(64, 0x0E10_C0DE, |rng| {
        case += 1;
        let k = rng.u32_in(2, n);
        let crashed =
            flushed_bundle(cfg, &ref_dir, &format!("prop-crashed-{case}"), Kill::AfterVisit(k));
        let pristine = std::fs::read(crashed.join("manifest.gar")).unwrap();
        let ends = line_ends(&pristine);

        // Flip one byte inside an entry line that has a line after it.
        let dir = tmp_dir(&format!("prop-flip-{case}"));
        copy_bundle(&crashed, &dir);
        let line = rng.usize_in(1, ends.len() - 1);
        let at = rng.usize_in(ends[line - 1], ends[line] - 1);
        let mut flipped = pristine.clone();
        flipped[at] ^= rng.u32_in(1, 256) as u8;
        std::fs::write(dir.join("manifest.gar"), &flipped).unwrap();
        let _ctx = fresh_ctx();
        let err = Scan::new(cfg).stream_to(&dir).run().map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "k {k}, byte {at}: {err}");
        let _ = std::fs::remove_dir_all(&dir);

        // Truncate at a random byte past the header, then resume.
        let cut = rng.usize_in(ends[0], pristine.len() + 1);
        std::fs::write(crashed.join("manifest.gar"), &pristine[..cut]).unwrap();
        let _ctx = fresh_ctx();
        let resumed = Scan::new(cfg).stream_to(&crashed).run().expect("resume after a cut");
        let at_boundary = ends.contains(&cut);
        assert_eq!(resumed.stream.unwrap().bundle_tail_dropped, !at_boundary as u64, "cut {cut}");
        assert_eq!(fingerprint(&resumed, &crashed), ref_fp, "k {k}, cut {cut}");
        assert_eq!(resumed.history, reference.history, "k {k}, cut {cut}");
        let bundle = ReplayBundle::open(&crashed).unwrap();
        assert!(diff_bundles(&bundle, &ref_bundle).is_clean(), "k {k}, cut {cut}: bundle diff");
        let _ = std::fs::remove_dir_all(&crashed);
    });
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
