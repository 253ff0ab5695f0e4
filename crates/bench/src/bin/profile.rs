//! `profile`: the crawl health report.
//!
//! Sweeps one fixed-seed streaming scan twice — profiler off (baseline),
//! then profiler on in collapsed mode with the flight recorder armed — and
//! proves the profiler is *digest-invisible*: per-site records, telemetry
//! digest, Table 5 and the fault history must be byte-identical between the
//! two runs. It then attributes the profiled run's visit wall clock to the
//! fixed phase tree (webgen materialise → compile cache → jsengine interp →
//! detect → archive encode/flush), checks the self times partition the
//! visit total, and reports forensics for the slowest 1% of visits plus
//! compile-cache and archive effort counters.
//!
//! Output: a human phase table plus `BENCH_profile.json` and the forensic
//! dumps in `BENCH_profile_forensics.jsonl`. Exits non-zero if the
//! profiler perturbs any digest, the phase shares do not sum to the visit
//! total, a forensic dump fails schema validation, or the profiled run
//! does not write exactly one `slow_visit` dump per kept slow visit.
//!
//! ```text
//! cargo run --release -p bench --bin profile            # 5K sites
//! cargo run --release -p bench --bin profile -- --smoke # 200 sites (CI)
//! ```

#![deny(deprecated)]

use std::path::{Path, PathBuf};

use gullible::obs;
use gullible::scan::{Scan, ScanConfig};
use gullible::ReplayBundle;

fn profile_cfg(sites: u32, seed: u64, workers: usize) -> ScanConfig {
    let mut cfg = ScanConfig::new(sites, seed);
    cfg.workers = workers;
    cfg
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("gullible-profile-bench-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Everything a run must reproduce bit-for-bit regardless of profiling.
struct Fingerprint {
    records_digest: u64,
    telemetry_digest: u64,
    table5: String,
    history_fp: u64,
}

fn fingerprint_of(report: &gullible::ScanReport, dir: &Path) -> Fingerprint {
    let bundle = ReplayBundle::open(dir).expect("sealed stream bundle");
    Fingerprint {
        records_digest: bundle.commit.records_digest,
        telemetry_digest: bundle.commit.telemetry_digest,
        table5: format!("{:?}", report.table5()),
        history_fp: obs::fnv1a(format!("{:?}", report.history).as_bytes()),
    }
}

struct PhaseRow {
    name: &'static str,
    n: u64,
    p50_us: u64,
    p99_us: u64,
    self_us: u64,
    share_pct: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let sites = if smoke { 200 } else { bench::env::sites_or(5_000) };
    let seed = bench::env::seed();
    let workers = bench::env::workers();

    let _ctx = bench::banner(&format!(
        "profile: crawl health report, {sites} sites{}",
        if smoke { " (smoke)" } else { "" }
    ));
    let mut failures: Vec<String> = Vec::new();

    // ------------------------------------------------ run A: baseline, prof off
    // Each run starts cold under its own context: equal compile misses
    // and static scans in both.
    let dir_a = tmp_dir("baseline");
    let ctx_a = bench::leg_ctx();
    let leg_a = ctx_a.enter();
    let t0 = std::time::Instant::now();
    let report_a =
        Scan::new(profile_cfg(sites, seed, workers)).stream_to(&dir_a).run().expect("baseline scan");
    let baseline_ms = t0.elapsed().as_secs_f64() * 1e3;
    let fp_a = fingerprint_of(&report_a, &dir_a);
    drop(leg_a);
    let slow_visits = bench::env::slow_visits(sites);
    println!("baseline:  {sites} sites in {baseline_ms:.1} ms (profiler off)");

    // ------------------------------------- run B: profiled + flight recorder
    let forensics = PathBuf::from("BENCH_profile_forensics.jsonl");
    let _ = std::fs::remove_file(&forensics);
    let dir_b = tmp_dir("profiled");
    let mut ctx_b = bench::leg_ctx();
    ctx_b.telemetry = obs::Telemetry::new()
        .with_stats(true)
        .with_prof(obs::prof::Mode::Collapsed)
        .with_slow_visits(slow_visits)
        .with_forensics(&forensics)
        .expect("open forensic sink");
    let _leg_b = ctx_b.enter();
    let t0 = std::time::Instant::now();
    let report_b =
        Scan::new(profile_cfg(sites, seed, workers)).stream_to(&dir_b).run().expect("profiled scan");
    let profiled_ms = t0.elapsed().as_secs_f64() * 1e3;
    let fp_b = fingerprint_of(&report_b, &dir_b);
    let snap = ctx_b.telemetry.registry().snapshot();
    let overhead_pct = (profiled_ms / baseline_ms - 1.0) * 100.0;
    println!("profiled:  {sites} sites in {profiled_ms:.1} ms (collapsed mode, recorder armed, {overhead_pct:+.1}% wall)");

    // ---------------------------------------------- profiler invisibility
    for (what, a, b) in [
        ("records digest", fp_a.records_digest, fp_b.records_digest),
        ("telemetry digest", fp_a.telemetry_digest, fp_b.telemetry_digest),
        ("history", fp_a.history_fp, fp_b.history_fp),
    ] {
        if a != b {
            failures.push(format!("profiler perturbed the {what}: {a:016x} vs {b:016x}"));
        }
    }
    if fp_a.table5 != fp_b.table5 {
        failures.push(format!("profiler perturbed Table 5: {} vs {}", fp_a.table5, fp_b.table5));
    }
    let invisible = failures.is_empty();
    println!(
        "profiler is {} (records {:016x}, telemetry {:016x})\n",
        if invisible { "DIGEST-INVISIBLE" } else { "VISIBLE IN DIGESTS" },
        fp_b.records_digest,
        fp_b.telemetry_digest,
    );

    // --------------------------------------------------------- phase shares
    let visit_total =
        snap.histograms.get(obs::prof::VISIT.hist_name()).map(|h| h.sum).unwrap_or(0);
    let mut rows: Vec<PhaseRow> = Vec::new();
    let mut self_sum = 0u64;
    let mut visit_subtree: Vec<&obs::prof::PhaseDef> = vec![&obs::prof::VISIT];
    visit_subtree.extend_from_slice(obs::prof::VISIT_PHASES);
    for phase in visit_subtree {
        let self_us = snap.counter(phase.self_counter());
        self_sum += self_us;
        let (n, p50_us, p99_us) = snap
            .histograms
            .get(phase.hist_name())
            .map(|h| (h.count, h.quantile(0.50), h.quantile(0.99)))
            .unwrap_or_default();
        rows.push(PhaseRow {
            name: phase.name,
            n,
            p50_us,
            p99_us,
            self_us,
            share_pct: if visit_total > 0 {
                self_us as f64 * 100.0 / visit_total as f64
            } else {
                0.0
            },
        });
    }
    let share_sum: f64 = rows.iter().map(|r| r.share_pct).sum();
    if visit_total == 0 {
        failures.push("no visit phase samples were recorded".into());
    } else if !(99.0..=101.0).contains(&share_sum) {
        failures.push(format!(
            "phase shares must partition the visit wall clock: sum {share_sum:.2}% \
             (self {self_sum} µs vs visit total {visit_total} µs)"
        ));
    }
    println!("phase                       n  p50(µs)  p99(µs)    self(µs)  share");
    for r in &rows {
        println!(
            "{:<22} {:>6}  {:>7}  {:>7}  {:>10}  {:>5.1}%",
            r.name, r.n, r.p50_us, r.p99_us, r.self_us, r.share_pct
        );
    }
    println!("{:<22} {:>45.1}% (must be ~100%)", "sum", share_sum);

    // Scheduler coverage: the visit phase should account for nearly all of
    // the scheduler's measured per-item wall time.
    let sched_total = snap.histograms.get("sched.visit_wall_us").map(|h| h.sum).unwrap_or(0);
    let coverage =
        if sched_total > 0 { visit_total as f64 / sched_total as f64 } else { 0.0 };
    if !(0.90..=1.02).contains(&coverage) {
        failures.push(format!(
            "visit phase covers {:.1}% of scheduler wall time (expected 90–102%)",
            coverage * 100.0
        ));
    }
    println!(
        "\nvisit phase covers {:.1}% of scheduler per-item wall time ({visit_total} / {sched_total} µs)",
        coverage * 100.0
    );

    // ------------------------------------------------- slowest-visit forensics
    ctx_b.telemetry.write_slow_visits();
    let forensic_text = std::fs::read_to_string(&forensics).unwrap_or_default();
    let summary = match obs::validate::validate_forensic(&forensic_text) {
        Ok(s) => s,
        Err(e) => {
            failures.push(format!("forensic dump failed validation: {e}"));
            obs::validate::ForensicSummary::default()
        }
    };
    let slow_dumps = summary.triggers.iter().filter(|(t, _)| t == "slow_visit").count();
    println!(
        "forensics: {} dump(s), {} ring event(s); {slow_dumps} of the {slow_visits} slowest visit(s)",
        summary.dumps, summary.ring_events
    );
    if slow_dumps != slow_visits {
        failures.push(format!(
            "expected exactly {slow_visits} slow_visit dump(s), found {slow_dumps}"
        ));
    }

    // ------------------------------------------------------ effort counters
    let effort: Vec<(&str, u64)> = vec![
        ("compile_hits", snap.counter("cache.compile.hit")),
        ("compile_misses", snap.counter("cache.compile.miss")),
        ("archive_entries", snap.counter("archive.write.entries")),
        ("archive_blobs", snap.counter("archive.write.blobs")),
        ("checkpoint_writes", snap.counter("checkpoint.writes")),
    ];
    println!(
        "effort: {}",
        effort.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(" ")
    );

    // ------------------------------------------------------------ JSON report
    let mut json = format!(
        "{{\"suite\":\"profile\",\"sites\":{sites},\"seed\":{seed},\"smoke\":{smoke},\
         \"workers\":{workers},\"baseline_ms\":{baseline_ms:.3},\"profiled_ms\":{profiled_ms:.3},\
         \"overhead_pct\":{overhead_pct:.2},\"invisible\":{invisible},\
         \"records_digest\":\"{:016x}\",\"telemetry_digest\":\"{:016x}\",\
         \"visit_total_us\":{visit_total},\"sched_total_us\":{sched_total},\
         \"coverage\":{coverage:.4},\"share_sum_pct\":{share_sum:.2},\"phases\":[",
        fp_b.records_digest, fp_b.telemetry_digest,
    );
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"name\":\"{}\",\"n\":{},\"p50_us\":{},\"p99_us\":{},\"self_us\":{},\
             \"share_pct\":{:.2}}}",
            r.name, r.n, r.p50_us, r.p99_us, r.self_us, r.share_pct
        ));
    }
    json.push_str(&format!(
        "],\"slow_visits\":{slow_visits},\"forensic_dumps\":{},\"forensic_ring_events\":{},\
         \"slow_visit_dumps\":{slow_dumps},\"effort\":{{",
        summary.dumps, summary.ring_events
    ));
    for (i, (k, v)) in effort.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!("\"{k}\":{v}"));
    }
    json.push_str(&format!(
        "}},\"healthy\":{},\"config\":\"{:016x}\"}}",
        failures.is_empty(),
        bench::run_config_hash()
    ));
    println!("{json}");
    if let Err(e) = std::fs::write("BENCH_profile.json", format!("{json}\n")) {
        eprintln!("warning: could not write BENCH_profile.json: {e}");
    }

    bench::finish("profile", Some(&format!("{sites} sites, 2 runs (baseline + profiled)")));
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
