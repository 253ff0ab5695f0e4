//! `scaling`: sweep worker counts over one fixed-seed scan and prove the
//! work-stealing scheduler scales without changing a single result byte.
//!
//! For each worker count the whole pipeline runs from scratch (telemetry
//! reset in between), and three fingerprints are captured: the telemetry
//! digest, Table 5, and an FNV fingerprint of the per-site records +
//! crawl history. All three must be identical across the sweep — worker
//! count may only change how fast the answer arrives, never the answer —
//! and the binary exits non-zero on any mismatch, which is how CI gates
//! the scheduler.
//!
//! Output: a human table (visits/sec, speedup, p50/p99 visit latency,
//! steal counts) plus `BENCH_scaling.json` with every number, written to
//! the working directory and echoed on stdout.
//!
//! ```text
//! cargo run --release -p bench --bin scaling            # 2K sites, workers 1/2/4/8
//! cargo run --release -p bench --bin scaling -- --smoke # 200 sites, workers 1/4 (CI)
//! ```

#![deny(deprecated)]

use gullible::obs;
use gullible::scan::{Scan, ScanConfig};

struct SweepPoint {
    workers: usize,
    completed: usize,
    elapsed_ms: f64,
    visits_per_sec: f64,
    p50_visit_us: u64,
    p99_visit_us: u64,
    steals: u64,
    chunks: u64,
    idle_spins: u64,
    digest: u64,
    table5: String,
    records_fp: u64,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sites: u32 = if smoke {
        200
    } else {
        std::env::var("GULLIBLE_SITES").ok().and_then(|v| v.parse().ok()).unwrap_or(2_000)
    };
    let worker_counts: &[usize] = if smoke { &[1, 4] } else { &[1, 2, 4, 8] };
    let seed = bench::seed();

    let _ctx = bench::banner(&format!(
        "scaling sweep: {sites} sites, workers {worker_counts:?}{}",
        if smoke { " (smoke)" } else { "" }
    ));

    let mut points: Vec<SweepPoint> = Vec::new();
    for &workers in worker_counts {
        // A fresh context per point; the sweep needs stats regardless of
        // GULLIBLE_STATS, for the digest and the latency histogram.
        let ctx = bench::leg_ctx();
        let _leg = ctx.enter();

        let cfg = ScanConfig { workers, ..ScanConfig::new(sites, seed) };
        let t0 = std::time::Instant::now();
        let report = Scan::new(cfg).run().expect("scan");
        let elapsed = t0.elapsed();

        let snap = ctx.telemetry.registry().snapshot();
        let hist = snap.histograms.get("sched.visit_wall_us").cloned().unwrap_or_default();
        let completed = report.completion.completed;
        let mut fp = format!("{:?}", report.table5());
        let table5 = fp.clone();
        fp.push_str(&format!("{:?}{:?}", report.sites, report.history));
        points.push(SweepPoint {
            workers,
            completed,
            elapsed_ms: elapsed.as_secs_f64() * 1e3,
            visits_per_sec: completed as f64 / elapsed.as_secs_f64(),
            p50_visit_us: hist.quantile(0.50),
            p99_visit_us: hist.quantile(0.99),
            steals: snap.counter("sched.steal"),
            chunks: snap.counter("sched.chunk.claimed"),
            idle_spins: snap.counter("sched.idle_spins"),
            digest: snap.digest(),
            table5,
            records_fp: obs::fnv1a(fp.as_bytes()),
        });
        let p = points.last().unwrap();
        println!(
            "workers {workers}: {completed} visits in {:.1} ms ({:.0} visits/s), {} steals",
            p.elapsed_ms, p.visits_per_sec, p.steals
        );
    }

    // The invariant this binary exists to enforce.
    let base = &points[0];
    let mut mismatches = 0;
    for p in &points[1..] {
        for (what, ours, theirs) in [
            ("telemetry digest", format!("{:016x}", base.digest), format!("{:016x}", p.digest)),
            ("Table 5", base.table5.clone(), p.table5.clone()),
            ("records", format!("{:016x}", base.records_fp), format!("{:016x}", p.records_fp)),
        ] {
            if ours != theirs {
                eprintln!(
                    "MISMATCH: {what} differs between {} and {} workers: {ours} vs {theirs}",
                    base.workers, p.workers
                );
                mismatches += 1;
            }
        }
    }

    println!("\nworkers  visits/s  speedup  p50 visit  p99 visit  steals  chunks  idle");
    for p in &points {
        println!(
            "{:>7}  {:>8.0}  {:>6.2}x  {:>7}us  {:>7}us  {:>6}  {:>6}  {:>4}",
            p.workers,
            p.visits_per_sec,
            p.visits_per_sec / base.visits_per_sec,
            p.p50_visit_us,
            p.p99_visit_us,
            p.steals,
            p.chunks,
            p.idle_spins,
        );
    }
    println!(
        "digest {} across the sweep: {:016x}",
        if mismatches == 0 { "IDENTICAL" } else { "DIVERGED" },
        base.digest
    );

    let mut json = format!(
        "{{\"suite\":\"scaling\",\"sites\":{sites},\"seed\":{seed},\"smoke\":{smoke},\"results\":["
    );
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"workers\":{},\"completed\":{},\"elapsed_ms\":{:.3},\"visits_per_sec\":{:.3},\
             \"p50_visit_us\":{},\"p99_visit_us\":{},\"steals\":{},\"chunks_claimed\":{},\
             \"idle_spins\":{},\"speedup\":{:.4},\"digest\":\"{:016x}\",\"records\":\"{:016x}\"}}",
            p.workers,
            p.completed,
            p.elapsed_ms,
            p.visits_per_sec,
            p.p50_visit_us,
            p.p99_visit_us,
            p.steals,
            p.chunks,
            p.idle_spins,
            p.visits_per_sec / base.visits_per_sec,
            p.digest,
            p.records_fp,
        ));
    }
    let mut t5 = String::new();
    obs::push_json_string(&mut t5, &base.table5);
    json.push_str(&format!(
        "],\"table5\":{t5},\"digest_match\":{},\"config\":\"{:016x}\"}}",
        mismatches == 0,
        bench::run_config_hash()
    ));
    println!("{json}");
    if let Err(e) = std::fs::write("BENCH_scaling.json", format!("{json}\n")) {
        eprintln!("warning: could not write BENCH_scaling.json: {e}");
    }

    bench::finish("scaling", Some(&format!("{}x{} sweep", points.len(), sites)));
    if mismatches > 0 {
        eprintln!("{mismatches} cross-worker mismatches — scheduler broke determinism");
        std::process::exit(1);
    }
}
