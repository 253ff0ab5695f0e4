//! Static-matcher ablation: the same measurement under the naive
//! per-pattern oracle and the compiled multi-pattern automaton, proving
//! (a) the automaton is observably identical — per-site records, crawl
//! history, Table 5, Table 11's front-page counts, Table 13's precision
//! rows and the telemetry digest are byte-for-byte the same — and (b) it
//! pays for itself (≥ 5× match throughput on the near-miss-dense hot
//! workload).
//!
//! ```text
//! cargo run --release -p bench --bin ablation_matcher             # full run
//! cargo run --release -p bench --bin ablation_matcher -- --smoke  # CI gate
//! ```
//!
//! Output: the human comparison plus `BENCH_matcher.json`. Exits non-zero
//! if the engines disagree on any artifact or (full mode) the speedup
//! target is missed, so CI can gate on it.

#![deny(deprecated)]

use detect::corpus::{self, Technique};
use detect::static_analysis::{pattern_matches_with, preprocess, StaticPattern};
use detect::{match_preprocessed, DetectCtx, MatcherKind};
use gullible::{CrawlCtx, Scan, ScanConfig};

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

/// One differential leg: a full fixed-seed scan under a fresh context on
/// `kind`, returning the report and the deterministic telemetry digest.
/// The leg's verdict memo belongs to its engine, so the leg actually
/// exercises that engine instead of replaying another leg's verdicts.
fn scan_leg(kind: MatcherKind) -> (gullible::ScanReport, u64) {
    let ctx = CrawlCtx { detect: DetectCtx::new(kind), ..bench::leg_ctx() };
    let _leg = ctx.enter();
    let report = Scan::new(scan_cfg()).run().expect("scan without checkpoint cannot fail");
    let digest = ctx.telemetry.registry().snapshot().digest();
    (report, digest)
}

/// The Table 13 evaluation corpus (mirrors `bin/table13`): true detectors
/// in every statically-visible tier plus a benign 'webdriver' mention.
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
    let benign = vec![corpus::benign_webdriver_mention()];
    (detectors, benign)
}

/// Table 13 rows (detector hits, benign FPs per pattern) under one engine.
fn table13_rows(kind: MatcherKind) -> Vec<(&'static str, usize, usize)> {
    let (detectors, benign) = table13_corpus();
    StaticPattern::all()
        .iter()
        .map(|pat| {
            let hits =
                detectors.iter().filter(|s| pattern_matches_with(kind, *pat, &preprocess(s))).count();
            let fps =
                benign.iter().filter(|s| pattern_matches_with(kind, *pat, &preprocess(s))).count();
            (pat.name(), hits, fps)
        })
        .collect()
}

/// The hot-matching workload: near-miss-dense benign scripts. Every
/// fragment keeps a pattern literal's shape but replaces its `r`s with
/// other bytes from the literal's own alphabet. That defeats substring
/// search's byte-set skip heuristic (skip a whole window when the
/// trailing byte can't occur in the needle), so the naive engine pays
/// per-position comparison work on every pass — while the automaton's
/// required-byte prefilter (every production literal contains an `r`)
/// skips the whole script at word-at-a-time speed. The mix is weighted
/// toward the instrument-probe literals: their first/last bytes recur at
/// needle-length distances in the fragments, so substring search's
/// two-byte candidate filter fires and forces a verification at every
/// fragment. No fragment contains an actual match — like almost every
/// script of a real crawl — and no concatenation of fragments can form
/// one (the timed loop asserts benignity on every verdict).
fn hot_corpus() -> Vec<String> {
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
    // Deterministic fragment interleaving (no RNG available or needed).
    (0..8)
        .map(|script| {
            let mut body = String::with_capacity(68 * 1024);
            let mut pick = script * 5 + 1;
            while body.len() < 64 * 1024 {
                pick = (pick * 131 + 17) % NEAR_MISSES.len();
                body.push_str(NEAR_MISSES[pick]);
            }
            body
        })
        .collect()
}

/// Match throughput in bytes/sec over the preprocessed hot corpus under
/// one engine — matching only; preprocessing is engine-independent and
/// happens outside the timed region.
fn throughput(kind: MatcherKind, pre: &[String], iters: u32) -> (f64, f64) {
    let bytes_per_iter: u64 = pre.iter().map(|p| p.len() as u64).sum();
    // Warm-up (also forces the automaton build outside the timed region).
    for p in pre {
        let _ = match_preprocessed(kind, p);
    }
    let t0 = std::time::Instant::now();
    for _ in 0..iters {
        for p in pre {
            let v = match_preprocessed(kind, p);
            assert!(!v.finding.is_detector() && !v.naive_webdriver, "hot corpus must be benign");
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    (bytes_per_iter as f64 * iters as f64 / wall, wall)
}

fn main() {
    let _ctx = bench::banner("ablation: static-pattern match engine (naive oracle vs compiled automaton)");

    // Warm-up scan: fills the webgen materialisation memo and other lazy
    // one-off state shared by both legs.
    let _ = Scan::new(scan_cfg()).run();

    // --- differential gate: full scan --------------------------------------
    let (naive_report, naive_digest) = scan_leg(MatcherKind::Naive);
    let (auto_report, auto_digest) = scan_leg(MatcherKind::Automaton);

    let mut ok = true;
    if naive_report.sites != auto_report.sites
        || naive_report.history != auto_report.history
        || naive_report.table5() != auto_report.table5()
    {
        println!("FAIL: scan results differ between match engines");
        ok = false;
    }
    let front_counts = |r: &gullible::ScanReport| {
        (
            r.count(|front, _| front.static_true),
            r.count(|front, _| front.dynamic_true),
            r.count(|front, _| front.union_true()),
        )
    };
    if front_counts(&naive_report) != front_counts(&auto_report) {
        println!("FAIL: Table 11 front-page counts differ between match engines");
        ok = false;
    }
    if naive_digest != auto_digest {
        println!("FAIL: telemetry digest differs: {naive_digest:016x} vs {auto_digest:016x}");
        ok = false;
    }
    if ok {
        println!(
            "differential gate: {} sites byte-identical, digest {auto_digest:016x}",
            auto_report.sites.len()
        );
    }

    // --- differential gate: Table 13 precision rows -------------------------
    let naive_rows = table13_rows(MatcherKind::Naive);
    let auto_rows = table13_rows(MatcherKind::Automaton);
    if naive_rows != auto_rows {
        println!("FAIL: Table 13 rows differ between match engines");
        println!("  naive:     {naive_rows:?}");
        println!("  automaton: {auto_rows:?}");
        ok = false;
    } else {
        println!("Table 13 gate: {} pattern rows identical", naive_rows.len());
    }

    // --- throughput ---------------------------------------------------------
    let pre: Vec<String> = hot_corpus().iter().map(|s| preprocess(s)).collect();
    // Verdict parity on the exact timed corpus first.
    for p in &pre {
        assert_eq!(
            match_preprocessed(MatcherKind::Naive, p),
            match_preprocessed(MatcherKind::Automaton, p),
            "hot-corpus verdicts must agree"
        );
    }
    let iters = if smoke_mode() { 100 } else { 600 };
    let (naive_bps, naive_wall) = throughput(MatcherKind::Naive, &pre, iters);
    let (auto_bps, auto_wall) = throughput(MatcherKind::Automaton, &pre, iters);
    let speedup = auto_bps / naive_bps;
    let total_kib = pre.iter().map(String::len).sum::<usize>() / 1024;
    println!("match throughput ({iters} iters over {total_kib} KiB of near-miss scripts):");
    println!("  naive oracle: {:>10.1} MB/s ({naive_wall:.2}s)", naive_bps / 1e6);
    println!("  automaton:    {:>10.1} MB/s ({auto_wall:.2}s)", auto_bps / 1e6);
    println!("  speedup:      {speedup:>10.2}x (target >= 5.00x)");
    if speedup < 5.0 {
        if smoke_mode() {
            // Smoke runs share CI machines; the digest gate is the hard
            // check there, throughput is informational.
            println!("note: speedup below 5.0x in smoke mode (not enforced)");
        } else {
            println!("FAIL: speedup below 5.0x");
            ok = false;
        }
    }

    // --- artifact ----------------------------------------------------------
    let json = format!(
        "{{\"suite\":\"matcher_ablation\",\"sites\":{},\"iters\":{iters},\
         \"naive_bytes_per_sec\":{naive_bps:.0},\"automaton_bytes_per_sec\":{auto_bps:.0},\
         \"speedup\":{speedup:.2},\"digest\":\"{auto_digest:016x}\",\
         \"digests_equal\":{}}}",
        auto_report.sites.len(),
        naive_digest == auto_digest,
    );
    if let Err(e) = std::fs::write("BENCH_matcher.json", format!("{json}\n")) {
        eprintln!("warning: could not write BENCH_matcher.json: {e}");
    }
    println!("wrote BENCH_matcher.json");

    bench::finish("ablation_matcher", Some(&auto_report.coverage_line()));
    if !ok {
        std::process::exit(1);
    }
}
