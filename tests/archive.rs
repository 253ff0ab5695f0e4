//! Crawl-archive integration: record a scan into a content-addressed
//! bundle, replay the whole pipeline from it, and diff bundles.
//!
//! The reproducibility contract under test (ISSUE: paper Sec. 6.3): a
//! replayed scan must reproduce the recording run's per-site records,
//! Table 5, crawl history and telemetry digest *byte-for-byte*, at any
//! worker count; two same-seed recordings must diff clean; and a damaged
//! bundle must fail loudly, never silently re-measure partial data.


use gullible::{diff_bundles, obs, site_visit, CrawlCtx, ReplayBundle, Scan, ScanConfig};
use openwpm::FaultPlan;
use proplite::TempDir;
use webgen::Population;

/// A fresh crawl context with stats on: each leg's digest covers exactly
/// its own run.
fn stats_ctx() -> CrawlCtx {
    CrawlCtx { telemetry: obs::Telemetry::new().with_stats(true), ..CrawlCtx::new() }
}

fn tmp_dir(name: &str) -> TempDir {
    TempDir::new(&format!("archive-{name}"))
}

#[test]
fn record_then_replay_reproduces_run_byte_for_byte() {
    let dir = tmp_dir("roundtrip");
    let cfg = ScanConfig {
        faults: FaultPlan::adversarial(3),
        flaky_sites_per_100k: 1_000,
        ..ScanConfig::new(240, 7)
    };

    let recorded = {
        let _g = stats_ctx().enter();
        Scan::new(cfg).record(&dir).run().expect("record")
    };
    let stats = recorded.archive.expect("recording run must report archive stats");
    assert_eq!(stats.sites, 240);
    assert!(stats.blobs_written > 0);
    assert!(stats.dedup_hits > 0, "shared provider scripts must dedup");

    // Replay at a different worker count: the bundle carries the recorded
    // config; only parallelism comes from the caller.
    let ctx = stats_ctx();
    let replayed = {
        let _g = ctx.enter();
        Scan::new(ScanConfig { workers: 1, ..ScanConfig::new(1, 1) }).replay(&dir).run().expect("replay")
    };
    let replay_digest = ctx.telemetry.registry().snapshot().digest();

    let rstats = replayed.replay.expect("replay run must report replay stats");
    assert_eq!(rstats.sites, 240);
    assert_eq!(rstats.divergences, 0, "replay must reproduce every recorded outcome");

    assert_eq!(replayed.n_sites, recorded.n_sites);
    assert_eq!(replayed.table5(), recorded.table5());
    assert_eq!(replayed.table6(), recorded.table6());
    assert_eq!(replayed.table12(), recorded.table12());
    assert_eq!(replayed.history, recorded.history);
    assert_eq!(replayed.completion, recorded.completion);
    assert_eq!(replayed.sites, recorded.sites, "per-site records must be identical");

    let bundle = ReplayBundle::open(&dir).expect("open");
    assert!(bundle.commit.stats_enabled);
    assert_eq!(
        bundle.commit.telemetry_digest, replay_digest,
        "replay telemetry digest must equal the recording run's"
    );
    assert_eq!(bundle.commit.table5, recorded.table5());
    assert_eq!(bundle.commit.completed, recorded.completion.completed);
    assert_eq!(bundle.commit.failed, recorded.completion.failed);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Property: over randomized small scans, (a) the bundle's blob counts
/// equal the corpus statistics computed independently from the generator
/// (blobs = unique script bodies, dedup hits = served − unique), and
/// (b) replay reproduces the per-site records exactly — including runs
/// with fault weather and budget-interrupted recordings, which leave an
/// open bundle that a second run resumes and seals.
#[test]
fn randomized_scans_roundtrip_with_exact_blob_accounting() {
    proplite::run_cases(4, 0xA2C4_11EE, |rng| {
        let n_sites = rng.u32_in(30, 70);
        let faults =
            if rng.bool() { FaultPlan::adversarial(rng.u32_in(1, 9) as u64) } else { FaultPlan::none() };
        let budget = rng.bool().then_some(n_sites as usize / 2);
        let cfg = ScanConfig {
            faults,
            ..ScanConfig::new(n_sites, rng.u32_in(1, 1_000) as u64)
        };
        let dir = tmp_dir("prop");

        let mut legs = Vec::new();
        if let Some(budget) = budget {
            let partial = Scan::new(ScanConfig { visit_budget: Some(budget), ..cfg })
                .record(&dir)
                .run()
                .expect("budgeted record");
            assert!(!partial.stream.unwrap().committed, "a budgeted recording stays open");
            assert_eq!(partial.completion.interrupted, n_sites as usize - budget);
            assert!(ReplayBundle::open(&dir).is_err(), "an open bundle must refuse replay");
            legs.push(partial.archive.expect("archive stats"));
        }
        let recorded = Scan::new(cfg).record(&dir).run().expect("record");
        let stream = recorded.stream.unwrap();
        assert!(stream.committed);
        assert_eq!(stream.resumed, budget.is_some());
        legs.push(recorded.archive.expect("archive stats"));

        // Independent corpus statistics straight from the generator.
        let pop = Population {
            flaky_per_100k: cfg.flaky_sites_per_100k,
            ..Population::new(cfg.n_sites, cfg.seed)
        };
        let mut served = 0u64;
        let mut unique = std::collections::HashSet::new();
        for rank in 0..cfg.n_sites {
            for spec in &site_visit(&pop.plan(rank), true).pages {
                for script in &spec.scripts {
                    served += 1;
                    unique.insert(script.content_hash());
                }
            }
        }
        // Every site is archived exactly once across the legs.
        let blobs_written: u64 = legs.iter().map(|s| s.blobs_written).sum();
        let dedup_hits: u64 = legs.iter().map(|s| s.dedup_hits).sum();
        assert_eq!(legs.last().unwrap().sites as u32, cfg.n_sites);
        assert_eq!(blobs_written, unique.len() as u64, "blobs = unique script bodies");
        assert_eq!(dedup_hits, served - unique.len() as u64);

        let replayed = Scan::new(ScanConfig { workers: rng.usize_in(1, 3), ..cfg })
            .replay(&dir)
            .run()
            .expect("replay");
        assert_eq!(replayed.replay.unwrap().divergences, 0);
        assert_eq!(replayed.sites, recorded.sites);
        assert_eq!(replayed.history, recorded.history);
        assert_eq!(replayed.completion.interrupted, 0);

        let _ = std::fs::remove_dir_all(&dir);
    });
}

#[test]
fn same_seed_bundles_diff_clean_and_ablations_diff_dirty() {
    let cfg = ScanConfig::new(150, 23);
    let (dir_a, dir_b, dir_c) = (tmp_dir("diff-a"), tmp_dir("diff-b"), tmp_dir("diff-c"));

    Scan::new(cfg).record(&dir_a).run().expect("record a");
    Scan::new(ScanConfig { workers: 2, ..cfg }).record(&dir_b).run().expect("record b");
    // Same sites, different crawl weather: some visits are retried.
    Scan::new(ScanConfig { faults: FaultPlan::adversarial(4), ..cfg })
        .record(&dir_c)
        .run()
        .expect("record c");

    let a = ReplayBundle::open(&dir_a).expect("open a");
    let b = ReplayBundle::open(&dir_b).expect("open b");
    let c = ReplayBundle::open(&dir_c).expect("open c");

    let clean = diff_bundles(&a, &b);
    assert!(clean.is_clean(), "same-seed runs must diff clean: {:?}", clean.deltas.first());
    assert!(!clean.config_differs, "worker count is not part of the recorded experiment");
    assert_eq!(a.commit.records_digest, b.commit.records_digest);

    let dirty = diff_bundles(&a, &c);
    assert!(dirty.config_differs);
    assert!(!dirty.is_clean(), "fault weather must change some site's outcome");
    // Retried visits show as attempt deltas; record-field deltas are
    // covered by `archive::tests::diff_reports_record_field_deltas`.
    assert!(dirty
        .deltas
        .iter()
        .any(|d| d.changes.iter().any(|c| c.starts_with("attempts:"))));
    // Sites the weather spares stay identical.
    assert!(dirty.deltas.len() < 150);

    for d in [&dir_a, &dir_b, &dir_c] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn damaged_bundles_fail_loudly() {
    let dir = tmp_dir("damage");
    Scan::new(ScanConfig::new(25, 5)).record(&dir).run().expect("record");
    let manifest = dir.join("manifest.gar");
    let pristine = std::fs::read_to_string(&manifest).expect("read manifest");

    // Missing bundle directory.
    let err = ReplayBundle::open(tmp_dir("nowhere")).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);

    // Uncommitted bundle: the recording crawl died before sealing.
    let without_commit: Vec<&str> = pristine.lines().collect();
    std::fs::write(&manifest, without_commit[..without_commit.len() - 1].join("\n"))
        .expect("truncate");
    let err = ReplayBundle::open(&dir).unwrap_err().to_string();
    assert!(err.contains("no commit line"), "{err}");

    // Committed bundle with a tampered site entry.
    let mut bytes = pristine.clone().into_bytes();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&manifest, &bytes).expect("tamper");
    let err = ReplayBundle::open(&dir).unwrap_err().to_string();
    assert!(
        err.contains("dropped manifest lines") || err.contains("missing site"),
        "{err}"
    );

    // Restore and verify it opens again (the damage checks are real).
    std::fs::write(&manifest, &pristine).expect("restore");
    ReplayBundle::open(&dir).expect("pristine bundle must open");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The config line keeps slots for settings no scan varies any more
/// (subpages, interaction, visit timeout, retry policy). A bundle holding
/// any other value there, even with a valid checksum, was made by a
/// different experiment and must be refused, naming the field.
#[test]
fn bundles_with_a_non_constant_fixed_config_slot_are_refused() {
    let dir = tmp_dir("fixed-slots");
    Scan::new(ScanConfig::new(8, 3)).record(&dir).run().expect("record");
    let manifest = dir.join("manifest.gar");
    let pristine = std::fs::read_to_string(&manifest).expect("read manifest");
    let (header, rest) = pristine.split_once('\n').expect("header line");
    let (body, _checksum) = header.rsplit_once('\x1f').expect("framed header");
    let (magic, config) = body.split_once('\x1f').expect("config payload");
    for (slot, field, value) in [
        (2, "subpages", "0"),
        (3, "interaction", "1"),
        (5, "visit_timeout_ms", "45000"),
        (6, "retry", "2,1000,30000"),
    ] {
        let mut slots: Vec<&str> = config.split('\x1c').collect();
        assert_ne!(slots[slot], value, "{field} must start at its constant");
        slots[slot] = value;
        let body = format!("{magic}\x1f{}", slots.join("\x1c"));
        let framed = format!("{body}\x1f{:016x}", obs::fnv1a(body.as_bytes()));
        std::fs::write(&manifest, format!("{framed}\n{rest}")).expect("rewrite header");
        let err = ReplayBundle::open(&dir).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{field}: {err}");
        assert!(err.to_string().contains(field), "{field}: {err}");
    }
    std::fs::write(&manifest, &pristine).expect("restore");
    ReplayBundle::open(&dir).expect("pristine bundle must open");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A replay that records reads its pages from the source bundle, so the
/// re-recorded bundle reproduces the original site for site.
#[test]
fn replay_then_record_reproduces_the_source_bundle() {
    let (dir_a, dir_b) = (tmp_dir("rerecord-a"), tmp_dir("rerecord-b"));
    let cfg = ScanConfig {
        faults: FaultPlan::adversarial(9),
        ..ScanConfig::new(60, 31)
    };
    let recorded = Scan::new(cfg).record(&dir_a).run().expect("record a");
    // The replaying scan's own config is ignored except for `workers`.
    let rerecorded = Scan::new(ScanConfig { workers: 2, ..ScanConfig::new(1, 1) })
        .replay(&dir_a)
        .record(&dir_b)
        .run()
        .expect("replay a, record b");
    assert_eq!(rerecorded.replay.unwrap().divergences, 0);
    assert_eq!(rerecorded.sites, recorded.sites);

    let (a, b) = (ReplayBundle::open(&dir_a).unwrap(), ReplayBundle::open(&dir_b).unwrap());
    let diff = diff_bundles(&a, &b);
    assert!(diff.is_clean(), "re-recorded bundle diverged: {:?}", diff.deltas.first());
    assert!(!diff.config_differs);
    assert_eq!(a.commit.records_digest, b.commit.records_digest);
    for d in [&dir_a, &dir_b] {
        let _ = std::fs::remove_dir_all(d);
    }
}
