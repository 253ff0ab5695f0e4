//! Integration tests for the compiled static-match engine: the automaton
//! must be invisible in every measured artifact relative to the naive
//! per-pattern oracle — per-site records, Table 5, Table 11's front-page
//! counts, Table 13's precision rows, near-miss verdicts and the telemetry
//! digest — and the FNV-64 verdict memo must actually absorb the repeated
//! script bodies a multi-subpage scan produces.
//!
//! Every leg runs under its own [`CrawlCtx`], so the match engine, its
//! verdict memo and the telemetry registry are private to the leg.

use detect::corpus::{self, Technique};
use detect::static_analysis::{pattern_matches_with, preprocess, StaticPattern};
use detect::{DetectCtx, MatcherKind};
use gullible::obs;
use gullible::scan::{Scan, ScanConfig};
use gullible::CrawlCtx;

fn scan_cfg() -> ScanConfig {
    let mut cfg = ScanConfig::new(600, 7);
    cfg.workers = 2;
    cfg
}

/// A fresh context on `kind` with stats on.
fn ctx(kind: MatcherKind) -> CrawlCtx {
    CrawlCtx {
        telemetry: obs::Telemetry::new().with_stats(true),
        detect: DetectCtx::new(kind),
        ..CrawlCtx::new()
    }
}

/// The headline invariant, at test scale: the same seed scanned under the
/// naive oracle and the automaton yields identical Table 5 output,
/// identical Table 11 front-page counts, identical per-site records, and a
/// byte-identical telemetry digest. Each leg classifies with its own
/// engine: the naive leg fills its own memo rather than reusing the
/// automaton's verdicts.
#[test]
fn match_engines_agree_at_scan_scale() {
    let leg = |kind: MatcherKind| {
        let ctx = ctx(kind);
        let _g = ctx.enter();
        let report = Scan::new(scan_cfg()).run().expect("scan");
        (report, ctx.telemetry.registry().snapshot())
    };
    let (auto, snap_auto) = leg(MatcherKind::Automaton);
    let (naive, snap_naive) = leg(MatcherKind::Naive);
    let (digest_naive, digest_auto) = (snap_naive.digest(), snap_auto.digest());

    assert!(snap_naive.counter("match.memo.miss") > 0, "the naive leg must classify, not reuse");
    assert_eq!(naive.table5(), auto.table5(), "table 5 must not depend on the match engine");
    assert_eq!(naive.sites, auto.sites, "per-site records must not depend on the match engine");
    assert_eq!(naive.history, auto.history);
    let front_counts = |r: &gullible::ScanReport| {
        (
            r.count(|front, _| front.static_true),
            r.count(|front, _| front.dynamic_true),
            r.count(|front, _| front.union_true()),
        )
    };
    assert!(front_counts(&auto).0 > 0, "the scan must find static detectors");
    assert_eq!(front_counts(&naive), front_counts(&auto), "Table 11 front-page counts differ");
    assert_eq!(
        digest_naive, digest_auto,
        "telemetry digest differs: {digest_naive:016x} (naive) vs {digest_auto:016x} (automaton)"
    );
}

/// The Table 13 evaluation corpus (as `bin/table13` builds it): true
/// detectors in every statically-visible tier plus a benign 'webdriver'
/// mention.
fn table13_corpus() -> (Vec<String>, Vec<String>) {
    let detectors = vec![
        corpus::selenium_detector(Technique::Plain, "https://bd.test/v"),
        corpus::selenium_detector(Technique::Indexed, "https://bd.test/v"),
        corpus::selenium_detector(Technique::HexEscaped, "https://bd.test/v"),
        corpus::openwpm_detector(&["jsInstruments"], Technique::Plain, "https://cheqzone.com/v"),
        corpus::openwpm_detector(
            &["getInstrumentJS", "instrumentFingerprintingApis"],
            Technique::Plain,
            "https://x.test/v",
        ),
    ];
    (detectors, vec![corpus::benign_webdriver_mention()])
}

/// Table 13's per-pattern (detector hits, benign FPs) rows are the same
/// under both engines, and show the paper's finding: only the FP-prone
/// patterns fire on the benign mention.
#[test]
fn table13_rows_agree_across_match_engines() {
    let (detectors, benign) = table13_corpus();
    let rows = |kind: MatcherKind| -> Vec<(&str, usize, usize)> {
        let count = |set: &[String], pat: StaticPattern| {
            set.iter().filter(|s| pattern_matches_with(kind, pat, &preprocess(s))).count()
        };
        StaticPattern::all()
            .iter()
            .map(|pat| (pat.name(), count(&detectors, *pat), count(&benign, *pat)))
            .collect()
    };
    let (naive, auto) = (rows(MatcherKind::Naive), rows(MatcherKind::Automaton));
    assert_eq!(naive, auto, "Table 13 rows differ between match engines");
    for (pat, (name, hits, fps)) in StaticPattern::all().iter().zip(&auto) {
        assert!(*hits > 0, "{name}: no detector hit");
        assert_eq!(*fps > 0, pat.fp_prone(), "{name}: {fps} benign hits");
    }
}

/// Near-miss-dense benign scripts: every fragment keeps a pattern
/// literal's shape but replaces its `r`s with other bytes from the
/// literal's own alphabet — the hot case of a real crawl, where almost
/// nothing matches. No fragment contains a match and no concatenation of
/// fragments forms one, so both engines must call every script benign.
#[test]
fn near_miss_verdicts_agree_across_match_engines() {
    const NEAR_MISSES: &[&str] = &[
        "getInstuumentJS",
        "instpumentFingepppintingApis",
        "jsInsttuments",
        "getInstuumentJS",
        "instpumentFingepppintingApis",
        "jsInsttuments",
        "navigatob.webdive",
        "webdiveb",
    ];
    // Deterministic fragment interleaving, 8 scripts of 64 KiB.
    for script in 0..8 {
        let mut body = String::with_capacity(68 * 1024);
        let mut pick = script * 5 + 1;
        while body.len() < 64 * 1024 {
            pick = (pick * 131 + 17) % NEAR_MISSES.len();
            body.push_str(NEAR_MISSES[pick]);
        }
        let naive = detect::classify_with(MatcherKind::Naive, &body);
        let auto = detect::classify_with(MatcherKind::Automaton, &body);
        assert_eq!(naive, auto, "script {script}: verdicts differ");
        let benign = !auto.finding.is_detector() && !auto.naive_webdriver;
        assert!(benign, "script {script}: not benign");
    }
}

/// Identical script bodies fetched on multiple pages (and sites) of one
/// scan must hit the verdict memo: each distinct body is preprocessed and
/// matched once per crawl, every repeat is a map lookup.
#[test]
fn repeated_bodies_hit_the_verdict_memo() {
    let ctx = ctx(MatcherKind::Automaton);
    let _g = ctx.enter();
    let report = Scan::new(scan_cfg()).run().expect("scan");
    let snap = ctx.telemetry.registry().snapshot();
    let hits = snap.counter("match.memo.hit");
    let misses = snap.counter("match.memo.miss");
    let scanned: usize = report.sites.iter().map(|s| s.script_hashes.len()).sum();
    assert!(scanned > 0, "scan produced no scripts to classify");
    assert_eq!(
        (hits + misses) as usize,
        scanned,
        "every saved script must consult the memo exactly once"
    );
    assert!(hits > 0, "multi-subpage scan must reuse memoised verdicts (misses {misses})");
    assert!(
        misses <= hits,
        "shared bodies should dominate: {misses} misses vs {hits} hits"
    );
}

/// The `match.*` effort metrics render in the `[stats]` summary but are
/// excluded from the telemetry digest — the memo hit/miss split depends on
/// worker scheduling, never the verdicts.
#[test]
fn match_metrics_are_digest_excluded() {
    let ctx = ctx(MatcherKind::Automaton);
    let _g = ctx.enter();
    let before = ctx.telemetry.registry().snapshot().digest();
    let _ = detect::classify_memo("if (navigator.webdriver) {}", 0x1234);
    let _ = detect::classify_memo("if (navigator.webdriver) {}", 0x1234);
    let snap = ctx.telemetry.registry().snapshot();
    assert!(snap.counter("match.scripts") > 0);
    assert_eq!(snap.counter("match.memo.hit"), 1);
    assert_eq!(snap.digest(), before, "match.* metrics must not move the digest");
}
