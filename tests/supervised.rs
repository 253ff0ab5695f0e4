//! Supervised-crawl guarantees (the robustness additions around Sec. 4's
//! scan): fault-injected crawls degrade gracefully and report their
//! completeness, aggregates are deterministic under faults, and a crawl
//! killed midway resumes from its bundle to byte-identical aggregates.

mod common;

use proplite::TempDir;

use common::crash_state;
use gullible::scan::{
    decode_site_record, encode_site_record, PageFlags, Scan, ScanConfig, SiteScanRecord,
};
use openwpm::supervisor::MAX_ATTEMPTS;
use openwpm::{
    run_supervised, CrawlStatus, FailureReason, FaultPlan, ItemMeta, VisitOutcome,
};
use webgen::Category;

fn tmp_bundle(tag: &str) -> TempDir {
    TempDir::new(&format!("supervised-{tag}"))
}

/// The issue's acceptance scenario: a 1,000-site scan under a 5% crash /
/// 1% hang / 1% nav-error fault plan completes without panicking, reports
/// a per-reason failure breakdown, and still covers ≥ 95% of sites.
#[test]
fn adversarial_thousand_site_scan_degrades_gracefully() {
    let cfg = ScanConfig {
        faults: FaultPlan::adversarial(7),
        ..ScanConfig::new(1_000, 42)
    };
    let report = Scan::new(cfg).run().expect("scan");

    assert_eq!(report.completion.total, 1_000);
    assert_eq!(report.history.len(), 1_000);
    assert_eq!(report.sites.len(), report.completion.completed);
    assert!(
        report.completion.completion_rate() >= 0.95,
        "completion {:.3}",
        report.completion.completion_rate()
    );
    // With a 5% per-visit crash rate some visits must have been retried.
    assert!(report.completion.recovered > 0);
    assert!(report.completion.restarts > 0);

    // Failures (if any at this retry budget) carry typed reasons that the
    // coverage line itemises.
    let line = report.coverage_line();
    assert!(line.contains("/1000 sites completed"));
    for h in &report.history {
        if h.status == CrawlStatus::Failed {
            let reason = FailureReason::parse(&h.error)
                .unwrap_or_else(|| panic!("untyped failure reason {:?}", h.error));
            assert!(line.contains(reason.as_str()), "coverage line omits {reason:?}");
        }
    }
}

/// Same seed + same fault plan ⇒ identical aggregates, run to run.
#[test]
fn faulty_scan_aggregates_are_deterministic() {
    let cfg = ScanConfig {
        faults: FaultPlan::adversarial(19),
        workers: 3,
        ..ScanConfig::new(400, 11)
    };
    let a = Scan::new(cfg).run().expect("scan");
    let b = Scan::new(cfg).run().expect("scan");
    assert_eq!(a.completion, b.completion);
    assert_eq!(a.history, b.history);
    assert_eq!(a.table5(), b.table5());
    assert_eq!(a.table7(), b.table7());
    assert_eq!(a.table12(), b.table12());
    assert_eq!(a.sites, b.sites);
}

/// Kill the crawl midway — the bundle a kill after 120 of 300 flushes
/// leaves, built on disk — resume from it, and get aggregates identical to
/// a run that was never interrupted.
#[test]
fn killed_and_resumed_scan_matches_uninterrupted() {
    let base = ScanConfig {
        faults: FaultPlan::adversarial(5),
        workers: 2,
        ..ScanConfig::new(300, 23)
    };
    let complete = tmp_bundle("resume-complete");
    let uninterrupted = Scan::new(base).record(&complete).run().expect("scan");

    let dir = tmp_bundle("resume");
    crash_state(&base, &complete, &dir, 120, None);

    // The resumed run visits only the remaining sites. Everything the
    // measurement reports — site records, per-site history, tables, the
    // coverage line — must be byte-identical to the run that was never
    // interrupted. (Effort telemetry like attempts/restarts is
    // per-process-leg and deliberately not checkpointed.)
    let resumed = Scan::new(base).record(&dir).run().expect("second leg");
    let stream = resumed.stream.unwrap();
    assert!(stream.resumed, "{stream:?}");
    assert_eq!(stream.records_replayed, 120);
    assert_eq!(stream.records_flushed, 180);
    assert_eq!(resumed.completion.completed, uninterrupted.completion.completed);
    assert_eq!(resumed.completion.failed, uninterrupted.completion.failed);
    assert_eq!(resumed.completion.interrupted, 0);
    assert_eq!(
        resumed.completion.failures_by_reason,
        uninterrupted.completion.failures_by_reason
    );
    assert_eq!(resumed.history, uninterrupted.history);
    assert_eq!(resumed.sites, uninterrupted.sites);
    assert_eq!(resumed.table5(), uninterrupted.table5());
    assert_eq!(resumed.table12(), uninterrupted.table12());
    assert_eq!(resumed.coverage_line(), uninterrupted.coverage_line());
}

/// A manifest header line framed as the bundle writer frames it.
fn header_line(version: &str, config: &str) -> String {
    let body = format!("gullible-bundle {version}\x1f{config}");
    format!("{body}\x1f{:016x}", gullible::obs::fnv1a(body.as_bytes()))
}

/// The bundle a scan checkpoints into is stamped with a format version;
/// manifests of another version are refused with a clear error instead of
/// being mis-parsed — which could silently restart the crawl from zero or
/// adopt entries this build cannot read.
#[test]
fn checkpoint_format_version_is_stamped_and_validated() {
    let base = ScanConfig { workers: 2, ..ScanConfig::new(40, 13) };

    // A fresh bundle's manifest leads with the version header.
    let complete = tmp_bundle("version-complete");
    Scan::new(base).record(&complete).run().expect("scan");
    let dir = tmp_bundle("version");
    let path = dir.join(archive::MANIFEST_FILE);
    crash_state(&base, &complete, &dir, 20, None);
    let contents = std::fs::read_to_string(&path).unwrap();
    let (header, body) = contents.split_once('\n').unwrap();
    assert_eq!(archive::BUNDLE_FORMAT_VERSION, 2);
    let current = format!("v{}", archive::BUNDLE_FORMAT_VERSION);
    let config = header.split('\x1f').nth(1).expect("header carries the scan config");
    assert_eq!(header, header_line(&current, config));

    // A past or future version is refused, naming both versions.
    for other in ["v1", "v999"] {
        std::fs::write(&path, format!("{}\n{body}", header_line(other, config))).unwrap();
        let err = Scan::new(base).record(&dir).run().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains(other) && msg.contains(&current), "{msg}");
    }

    // A mangled header is refused too, checksummed or not.
    for mangled in [header_line("vX", config), header.replacen("gullible", "gulible", 1)] {
        std::fs::write(&path, format!("{mangled}\n{body}")).unwrap();
        let err = Scan::new(base).record(&dir).run().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{mangled:?}");
    }

    // Restored, the header is not mistaken for a site line: the resume
    // adopts every entry and drops none.
    std::fs::write(&path, &contents).unwrap();
    let resumed = Scan::new(base).record(&dir).run().expect("resume");
    assert_eq!(resumed.completion.bundle_lines_dropped, 0);
    assert_eq!(resumed.stream.unwrap().records_replayed, 20);

}

/// A panic inside a visit step is caught by the supervisor and recorded
/// against the *correct* item index, at any worker count — the shared
/// work queue may route the item to any worker, but never mislabel it.
#[test]
fn step_panic_reports_correct_index_at_any_worker_count() {
    for workers in [1usize, 3, 8] {
        let crawl = run_supervised(
            (0..100u32).collect::<Vec<_>>(),
            workers,
            FaultPlan::none(),
            |_| ItemMeta { label: String::new(), fault_key: 0, flaky: false },
            |_| (),
            |_, i, x: &u32| {
                assert_eq!(i, *x as usize, "visit index");
                if *x == 61 {
                    panic!("deliberate visit explosion");
                }
                Ok(i)
            },
            Vec::new(),
            |_, outcome, _| outcome,
        );
        assert_eq!(crawl.summary.completed, 99, "workers={workers}");
        assert_eq!(crawl.summary.failures_by_reason, vec![(FailureReason::Panic, 1)]);
        for (i, outcome) in crawl.outcomes.iter().enumerate() {
            if i == 61 {
                assert_eq!(
                    *outcome,
                    VisitOutcome::Failed { reason: FailureReason::Panic, attempts: MAX_ATTEMPTS },
                    "workers={workers}"
                );
            } else {
                assert_eq!(outcome.completed(), Some(&i), "workers={workers} item {i}");
            }
        }
    }
}

/// Fault injection draws are keyed by (site, attempt), not by scheduling:
/// the same adversarial plan must produce the same per-site outcomes and
/// retry accounting whether one worker or eight drain the queue.
#[test]
fn fault_outcomes_identical_across_worker_counts() {
    let base_cfg = |workers| ScanConfig {
        faults: FaultPlan::adversarial(29),
        workers,
        ..ScanConfig::new(250, 17)
    };
    let base = Scan::new(base_cfg(1)).run().expect("scan");
    for workers in [3, 8] {
        let report = Scan::new(base_cfg(workers)).run().expect("scan");
        assert_eq!(base.completion, report.completion, "workers={workers}");
        assert_eq!(base.history, report.history, "workers={workers}");
        assert_eq!(base.sites, report.sites, "workers={workers}");
        assert_eq!(base.coverage_line(), report.coverage_line(), "workers={workers}");
    }
}

/// Checkpoint/resume composes with the scheduler at a high worker count:
/// kill a faulty 8-worker crawl once it has flushed ranks 0..80, resume
/// with a different worker count, and match the uninterrupted
/// single-worker run byte for byte.
#[test]
fn checkpoint_resume_with_many_workers_matches_single_worker() {
    let cfg = |workers| ScanConfig {
        faults: FaultPlan::adversarial(3),
        workers,
        ..ScanConfig::new(200, 53)
    };
    let uninterrupted = Scan::new(cfg(1)).run().expect("scan");

    let complete = tmp_bundle("sched-resume-complete");
    Scan::new(cfg(8)).record(&complete).run().expect("8-worker recording");
    let dir = tmp_bundle("sched-resume");
    crash_state(&cfg(8), &complete, &dir, 80, None);
    let resumed = Scan::new(cfg(3)).record(&dir).run().expect("second leg");
    assert_eq!(resumed.completion.completed, uninterrupted.completion.completed);
    assert_eq!(resumed.completion.failed, uninterrupted.completion.failed);
    assert_eq!(resumed.sites, uninterrupted.sites);
    assert_eq!(resumed.history, uninterrupted.history);
    assert_eq!(resumed.table5(), uninterrupted.table5());
    assert_eq!(resumed.stream.unwrap().records_replayed, 80);
}

fn arbitrary_record(rng: &mut proplite::Rng) -> SiteScanRecord {
    let flags = |rng: &mut proplite::Rng| PageFlags {
        static_identified: rng.bool(),
        static_true: rng.bool(),
        dynamic_identified: rng.bool(),
        dynamic_true: rng.bool(),
    };
    let cats = Category::all();
    SiteScanRecord {
        rank: rng.u32_in(0, 100_000),
        domain: format!("{}.com", rng.ascii(1, 24)),
        categories: (0..rng.usize_in(0, 3))
            .map(|_| cats[rng.usize_in(0, cats.len() - 1)])
            .collect(),
        front: flags(rng),
        site: flags(rng),
        openwpm_probes: (0..rng.usize_in(0, 4))
            .map(|_| (rng.ascii(1, 16), rng.ascii(1, 16)))
            .collect(),
        third_party_domains: (0..rng.usize_in(0, 5)).map(|_| rng.ascii(1, 20)).collect(),
        first_party_urls: (0..rng.usize_in(0, 3))
            .map(|_| format!("https://{}/{}.js", rng.ascii(1, 12), rng.ascii(1, 12)))
            .collect(),
        script_hashes: (0..rng.usize_in(0, 8)).map(|_| rng.next_u64()).collect(),
    }
}

/// Property: the site-record encoding inside bundle entries round-trips
/// arbitrary scan records exactly.
#[test]
fn checkpoint_encoding_roundtrips_arbitrary_records() {
    proplite::run_cases(300, 0xC4EC, |rng| {
        let rec = arbitrary_record(rng);
        let decoded = decode_site_record(&encode_site_record(&rec))
            .expect("encoded record must decode");
        assert_eq!(decoded, rec);
    });
}
