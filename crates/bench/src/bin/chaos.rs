//! `chaos`: kill the crawler and prove the resume is byte-exact.
//!
//! The paper's core complaint is that measurement tools degrade silently;
//! this harness applies it to the crawler itself. One uninterrupted
//! streaming scan is the reference; then, for a sweep of seeded
//! kill-points (clean post-flush, torn checkpoint line, torn bundle
//! append) × worker counts, the crawl is killed and resumed, and the
//! resumed bundle must match the reference in per-site records, Table 5
//! and telemetry digest — byte for byte. One case is additionally
//! realised as a *real* SIGKILL on a child process (spawned via
//! `--child-run`), not just an in-process unwind.
//!
//! Output: a human table of recovery statistics (records replayed, torn
//! lines dropped, re-visits, resume wall time) plus `BENCH_chaos.json`.
//! Exits non-zero on any divergence — how CI gates crash consistency.
//!
//! ```text
//! cargo run --release -p bench --bin chaos            # 5K sites
//! cargo run --release -p bench --bin chaos -- --smoke # 150 sites (CI)
//! ```

#![deny(deprecated)]

use std::path::{Path, PathBuf};

use gullible::obs;
use gullible::scan::{Scan, ScanConfig};
use gullible::{diff_bundles, ReplayBundle, STREAM_CHECKPOINT_FILE};
use openwpm::{catch_crash, CrashPlan, FaultPlan, KillPoint};

fn chaos_cfg(sites: u32, seed: u64, workers: usize) -> ScanConfig {
    ScanConfig {
        workers,
        faults: FaultPlan::adversarial(seed),
        flaky_sites_per_100k: 1_000,
        ..ScanConfig::new(sites, seed)
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gullible-chaos-bench-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Child-process entry: run one streaming scan to completion. The parent
/// SIGKILLs this process mid-crawl (first run) or lets it finish (resume
/// run); either way the on-disk bundle is all that survives.
fn child_run(args: &[String]) -> ! {
    let [dir, sites, seed, workers] = args else {
        eprintln!("usage: chaos --child-run <dir> <sites> <seed> <workers>");
        std::process::exit(2);
    };
    let cfg = chaos_cfg(
        sites.parse().expect("sites"),
        seed.parse().expect("seed"),
        workers.parse().expect("workers"),
    );
    let _ctx = bench::leg_ctx().enter();
    match Scan::new(cfg).stream_to(dir).run() {
        Ok(_) => std::process::exit(0),
        Err(e) => {
            eprintln!("child stream scan failed: {e}");
            std::process::exit(1);
        }
    }
}

struct CaseResult {
    label: String,
    workers: usize,
    real_kill: bool,
    replayed: u64,
    revisits: u64,
    lines_dropped: u64,
    tail_dropped: u64,
    peak_in_flight: u64,
    resume_ms: f64,
    matches: bool,
}

struct Reference {
    table5: String,
    records_digest: u64,
    telemetry_digest: u64,
    history_fp: u64,
}

fn reference_of(report: &gullible::ScanReport, dir: &Path) -> Reference {
    let bundle = ReplayBundle::open(dir).expect("sealed stream bundle");
    Reference {
        table5: format!("{:?}", report.table5()),
        records_digest: bundle.commit.records_digest,
        telemetry_digest: bundle.commit.telemetry_digest,
        history_fp: obs::fnv1a(format!("{:?}", report.history).as_bytes()),
    }
}

fn compare(case: &str, ours: &Reference, reference: &Reference, ref_dir: &Path, dir: &Path) -> bool {
    let mut ok = true;
    for (what, a, b) in [
        ("records digest", ours.records_digest, reference.records_digest),
        ("telemetry digest", ours.telemetry_digest, reference.telemetry_digest),
        ("history", ours.history_fp, reference.history_fp),
    ] {
        if a != b {
            eprintln!("MISMATCH [{case}]: {what}: {a:016x} vs reference {b:016x}");
            ok = false;
        }
    }
    if ours.table5 != reference.table5 {
        eprintln!("MISMATCH [{case}]: Table 5: {} vs {}", ours.table5, reference.table5);
        ok = false;
    }
    let (a, b) = (ReplayBundle::open(dir).unwrap(), ReplayBundle::open(ref_dir).unwrap());
    let diff = diff_bundles(&a, &b);
    if !diff.is_clean() {
        eprintln!("MISMATCH [{case}]: bundle diff has {} site deltas", diff.deltas.len());
        ok = false;
    }
    ok
}

/// Kill a real child process mid-crawl with SIGKILL once its checkpoint
/// shows `kill_after` flushed records, then resume in a *fresh* child.
fn real_kill_case(
    sites: u32,
    seed: u64,
    workers: usize,
    kill_after: usize,
    reference: &Reference,
    ref_dir: &Path,
) -> CaseResult {
    let dir = tmp_dir("sigkill");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let exe = std::env::current_exe().expect("current_exe");
    let spawn = || {
        std::process::Command::new(&exe)
            .args([
                "--child-run",
                dir.to_str().unwrap(),
                &sites.to_string(),
                &seed.to_string(),
                &workers.to_string(),
            ])
            .stdout(std::process::Stdio::null())
            .spawn()
            .expect("spawn child crawler")
    };

    let mut child = spawn();
    let ckpt = dir.join(STREAM_CHECKPOINT_FILE);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    loop {
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            panic!("child crawler never reached {kill_after} flushed records");
        }
        let lines = std::fs::read_to_string(&ckpt).map(|c| c.lines().count()).unwrap_or(0);
        // Header line + kill_after record lines.
        if lines > kill_after {
            break;
        }
        if let Ok(Some(status)) = child.try_wait() {
            panic!("child crawler exited early ({status}) before the kill landed");
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    child.kill().expect("SIGKILL child");
    let _ = child.wait();

    // Resume in a fresh process; it must complete and seal the bundle.
    let t0 = std::time::Instant::now();
    let status = spawn().wait().expect("wait resumed child");
    let resume_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(status.success(), "resumed child crawler failed: {status}");

    let bundle = ReplayBundle::open(&dir).expect("resumed child must seal the bundle");
    let ours = Reference {
        // The child's report isn't visible here; the sealed commit carries
        // everything the comparison needs. Table 5 comes from the commit.
        table5: format!("{:?}", bundle.commit.table5),
        records_digest: bundle.commit.records_digest,
        telemetry_digest: bundle.commit.telemetry_digest,
        history_fp: reference.history_fp, // compared via records digest instead
    };
    let reference_t5 = Reference {
        table5: format!("{:?}", ReplayBundle::open(ref_dir).unwrap().commit.table5),
        ..Reference {
            table5: String::new(),
            records_digest: reference.records_digest,
            telemetry_digest: reference.telemetry_digest,
            history_fp: reference.history_fp,
        }
    };
    let matches = compare("real SIGKILL", &ours, &reference_t5, ref_dir, &dir);
    let replayed = std::fs::read_to_string(&ckpt)
        .map(|c| c.lines().count().saturating_sub(1) as u64)
        .unwrap_or(0);
    CaseResult {
        label: format!("sigkill@{kill_after}"),
        workers,
        real_kill: true,
        replayed,
        revisits: 0,
        lines_dropped: 0,
        tail_dropped: 0,
        peak_in_flight: 0,
        resume_ms,
        matches,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--child-run") {
        child_run(&args[1..]);
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let sites: u32 = if smoke {
        150
    } else {
        std::env::var("GULLIBLE_SITES").ok().and_then(|v| v.parse().ok()).unwrap_or(5_000)
    };
    let seed = bench::seed();
    let worker_counts: &[usize] = &[1, 4];

    // Injected crashes unwind with a sentinel panic by design; keep their
    // backtraces out of the bench output while leaving real panics loud.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.contains("__gullible_injected_crash__") {
            default_hook(info);
        }
    }));

    let _ctx = bench::banner(&format!(
        "chaos: crash→resume equivalence, {sites} sites{}",
        if smoke { " (smoke)" } else { "" }
    ));

    // Reference: one uninterrupted streaming run per worker count (they
    // must agree with each other too, but the scaling bench owns that
    // claim; here workers=4's bundle is the reference for everyone).
    let ref_dir = tmp_dir("reference");
    let ref_ctx = bench::leg_ctx().enter();
    let t0 = std::time::Instant::now();
    let ref_report = Scan::new(chaos_cfg(sites, seed, 4)).stream_to(&ref_dir).run().expect("reference");
    let ref_elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
    let reference = reference_of(&ref_report, &ref_dir);
    let ref_stream = ref_report.stream.expect("stream stats");
    println!(
        "reference: {sites} sites in {:.1} ms, peak {} records in flight (workers 4)\n",
        ref_elapsed_ms, ref_stream.peak_records_in_flight
    );
    assert!(
        ref_stream.peak_records_in_flight <= 4 + 1,
        "streaming must hold O(workers) records in memory, saw {}",
        ref_stream.peak_records_in_flight
    );
    drop(ref_ctx);

    type MkKill = fn(u32) -> KillPoint;
    let kill_classes: &[(&str, MkKill)] = &[
        ("post_visit", |k| KillPoint::AfterVisit(k)),
        ("mid_checkpoint", |k| KillPoint::MidCheckpointLine(k, 17)),
        ("mid_bundle_append", |k| KillPoint::MidBundleAppend(k, 23)),
    ];
    let mut cases: Vec<CaseResult> = Vec::new();
    let mut failures = 0usize;

    for &workers in worker_counts {
        for (i, (class, mk)) in kill_classes.iter().enumerate() {
            // Kill somewhere in the middle of the crawl, staggered per
            // class so different resume shapes get exercised.
            let k = sites / 4 + (i as u32 * sites) / 8;
            let kill = mk(k.max(1));
            let dir = tmp_dir(&format!("{class}-w{workers}"));

            let crashed_ctx = bench::leg_ctx().enter();
            let crashed = catch_crash(|| {
                Scan::new(chaos_cfg(sites, seed, workers))
                    .stream_to(&dir)
                    .inject_crash(CrashPlan::new(kill))
                    .run()
            });
            assert!(crashed.is_none(), "planned kill {kill:?} must crash the crawl");
            drop(crashed_ctx);

            // The resume runs as a fresh process would: a fresh context.
            let _resume_ctx = bench::leg_ctx().enter();
            let t0 = std::time::Instant::now();
            let resumed = Scan::new(chaos_cfg(sites, seed, workers))
                .stream_to(&dir)
                .run()
                .expect("resume");
            let resume_ms = t0.elapsed().as_secs_f64() * 1e3;
            let ours = reference_of(&resumed, &dir);
            let stream = resumed.stream.expect("stream stats");
            let label = format!("{class}@{}", kill.flush_ordinal());
            let matches = compare(&label, &ours, &reference, &ref_dir, &dir);
            if !matches {
                failures += 1;
            }
            cases.push(CaseResult {
                label,
                workers,
                real_kill: false,
                replayed: stream.records_replayed,
                revisits: stream.revisits,
                lines_dropped: stream.checkpoint_lines_dropped,
                tail_dropped: stream.bundle_tail_dropped,
                peak_in_flight: stream.peak_records_in_flight,
                resume_ms,
                matches,
            });
            assert!(
                stream.peak_records_in_flight <= workers as u64 + 1,
                "resume with {workers} workers peaked at {} records in flight",
                stream.peak_records_in_flight
            );
        }
    }

    // One real SIGKILL on a child process, resumed in a fresh process.
    let real = real_kill_case(sites, seed, 4, (sites / 3) as usize, &reference, &ref_dir);
    if !real.matches {
        failures += 1;
    }
    cases.push(real);

    println!("\ncase                     workers  replayed  revisits  torn-lines  torn-tail  resume");
    for c in &cases {
        println!(
            "{:<24} {:>7}  {:>8}  {:>8}  {:>10}  {:>9}  {:>5.0}ms{}",
            c.label,
            c.workers,
            c.replayed,
            c.revisits,
            c.lines_dropped,
            c.tail_dropped,
            c.resume_ms,
            if c.real_kill { "  (real SIGKILL)" } else { "" },
        );
    }
    println!(
        "\ncrash→resume {} across {} cases (records {:016x}, telemetry {:016x})",
        if failures == 0 { "BYTE-IDENTICAL" } else { "DIVERGED" },
        cases.len(),
        reference.records_digest,
        reference.telemetry_digest,
    );

    let mut json = format!(
        "{{\"suite\":\"chaos\",\"sites\":{sites},\"seed\":{seed},\"smoke\":{smoke},\
         \"reference_elapsed_ms\":{ref_elapsed_ms:.3},\"peak_records_in_flight\":{},\
         \"records_digest\":\"{:016x}\",\"telemetry_digest\":\"{:016x}\",\"cases\":[",
        ref_stream.peak_records_in_flight, reference.records_digest, reference.telemetry_digest,
    );
    for (i, c) in cases.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let mut label = String::new();
        obs::push_json_string(&mut label, &c.label);
        json.push_str(&format!(
            "{{\"case\":{label},\"workers\":{},\"real_kill\":{},\"replayed\":{},\
             \"revisits\":{},\"lines_dropped\":{},\"tail_dropped\":{},\
             \"peak_in_flight\":{},\"resume_ms\":{:.3},\"match\":{}}}",
            c.workers,
            c.real_kill,
            c.replayed,
            c.revisits,
            c.lines_dropped,
            c.tail_dropped,
            c.peak_in_flight,
            c.resume_ms,
            c.matches,
        ));
    }
    json.push_str(&format!("],\"all_match\":{},\"config\":\"{:016x}\"}}", failures == 0, bench::run_config_hash()));
    println!("{json}");
    if let Err(e) = std::fs::write("BENCH_chaos.json", format!("{json}\n")) {
        eprintln!("warning: could not write BENCH_chaos.json: {e}");
    }

    bench::finish("chaos", Some(&format!("{} kill cases at {sites} sites", cases.len())));
    if failures > 0 {
        eprintln!("{failures} cases diverged — crash consistency broke");
        std::process::exit(1);
    }
}
