//! Integration tests for the compiled static-match engine: the automaton
//! must be invisible in every measured artifact relative to the naive
//! per-pattern oracle, and the FNV-64 verdict memo must actually absorb
//! the repeated script bodies a multi-subpage scan produces.
//!
//! Every leg runs under its own [`CrawlCtx`], so the match engine, its
//! verdict memo and the telemetry registry are private to the leg.

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

/// The headline ablation invariant, at test scale: the same seed scanned
/// under the naive oracle and the automaton yields identical Table 5
/// output, identical per-site records, and a byte-identical telemetry
/// digest. Each leg classifies with its own engine: the naive leg fills its
/// own memo rather than reusing the automaton's verdicts.
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
    assert_eq!(
        digest_naive, digest_auto,
        "telemetry digest differs: {digest_naive:016x} (naive) vs {digest_auto:016x} (automaton)"
    );
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
