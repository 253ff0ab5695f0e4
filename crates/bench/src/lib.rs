//! Shared plumbing for the experiment-regeneration binaries.
//!
//! Every table and figure of the paper has a binary in `src/bin/` that
//! regenerates it against the synthetic population. Scale, seed, fault
//! weather and telemetry are all controlled by `GULLIBLE_*` environment
//! variables, documented (with types and defaults) in [`env`] — the one
//! module that parses them. The same binaries therefore drive both quick
//! looks and the full paper-scale runs recorded in EXPERIMENTS.md.
//!
//! Each binary follows the same frame:
//!
//! ```text
//! let _ctx = bench::banner("Table 5: …");  // prints the run header, enters the run's context
//! …regenerate the table…
//! bench::finish("table05", coverage);  // [stats] summary + provenance footer
//! ```
//!
//! [`banner`] enters a fresh [`CrawlCtx`] with the telemetry the knobs
//! describe: a JSONL trace journal when `GULLIBLE_TRACE` is set, stats
//! collection under `GULLIBLE_STATS`, the profiler settings; [`finish`]
//! prints the human `[stats]` summary (when enabled) and always prints
//! the machine-readable `[provenance]` footer, so every regenerated table
//! carries its seed, config hash and telemetry digest.

#![deny(deprecated)]
#![forbid(unsafe_code)]

use gullible::{obs, CompareConfig, CrawlCtx, CtxGuard, ScanConfig};

pub mod env;

/// Standard scan configuration from the environment, including the
/// `GULLIBLE_FAULTS` fault weather.
pub fn scan_config() -> ScanConfig {
    let mut cfg = ScanConfig::new(env::sites(), env::seed());
    cfg.workers = env::workers();
    cfg.faults = env::fault_plan();
    cfg
}

/// Crawl-bundle directory for the archive binaries: the first positional
/// CLI argument, else `GULLIBLE_BUNDLE`, else a (sites, seed)-scoped
/// directory under the system temp dir — the same default for
/// `archive_record` and `archive_replay`, so a record-then-replay pair
/// needs no arguments at all.
pub fn bundle_dir() -> std::path::PathBuf {
    env::positional_args()
        .into_iter()
        .next()
        .map(std::path::PathBuf::from)
        .or_else(env::bundle)
        .unwrap_or_else(|| {
            std::env::temp_dir().join(format!("gullible-bundle-{}x{}", env::sites(), env::seed()))
        })
}

/// Standard comparison configuration from the environment.
pub fn compare_config() -> CompareConfig {
    let mut cfg = CompareConfig::new(env::sites(), env::seed());
    cfg.workers = env::workers();
    cfg
}

/// The telemetry the knobs describe: the trace journal when
/// `GULLIBLE_TRACE` names a path, stats under `GULLIBLE_STATS`, the phase
/// profiler under `GULLIBLE_PROF`, and under `GULLIBLE_FORENSICS` the
/// flight recorder with the run's [`env::slow_visits`] slowest visits.
fn telemetry() -> obs::Telemetry {
    let mut t = obs::Telemetry::new();
    if let Some(path) = env::forensics() {
        match obs::Telemetry::new().with_forensics(&path) {
            Ok(armed) => t = armed.with_slow_visits(env::slow_visits(env::sites())),
            Err(e) => eprintln!("warning: GULLIBLE_FORENSICS={}: {e}", path.display()),
        }
    }
    if let Some(path) = env::trace() {
        match obs::Journal::to_file(&path) {
            Ok(journal) => t = t.with_journal(journal),
            Err(e) => eprintln!("warning: GULLIBLE_TRACE={}: {e}", path.display()),
        }
    }
    t.with_stats(env::stats()).with_prof(env::prof_mode())
}

/// A fresh context for one measured leg of a multi-run binary: stats-on
/// telemetry, an empty compile cache and verdict memo.
pub fn leg_ctx() -> CrawlCtx {
    CrawlCtx { telemetry: obs::Telemetry::new().with_stats(true), ..CrawlCtx::new() }
}

/// Make a closed stdout end the process quietly with status 0. `print!`
/// panics when the reader has gone away (`table05 | head -4`); that is
/// not a failure of the run, so it gets no panic report. Every other
/// panic still goes to the hook installed before.
fn exit_quietly_on_closed_stdout() {
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload().downcast_ref::<String>().map_or("", String::as_str);
        if msg.starts_with("failed printing to stdout") && msg.contains("Broken pipe") {
            std::process::exit(0);
        }
        report(info);
    }));
}

/// Print the run header every binary starts with (and, on stderr, the
/// [`env::warnings`] about unknown knobs), and enter a fresh context with
/// the telemetry the knobs describe for as long as the returned guard
/// lives.
pub fn banner(what: &str) -> CtxGuard {
    exit_quietly_on_closed_stdout();
    for warning in env::warnings() {
        eprintln!("{warning}");
    }
    let ctx = CrawlCtx { telemetry: telemetry(), ..CrawlCtx::new() };
    let faults = env::fault_plan();
    let weather = if faults.is_inert() {
        String::new()
    } else {
        format!(
            ", faults {}‰/visit (seed {})",
            faults.total_per_mille(),
            faults.seed
        )
    };
    let engine = match ctx.js.engine {
        jsengine::Engine::Vm => "",
        jsengine::Engine::Tree => ", engine tree",
    };
    println!(
        "gullible reproduction — {what}\npopulation: {} sites, seed {}, {} workers{weather}{engine}\n",
        env::sites(),
        env::seed(),
        env::workers()
    );
    ctx.enter()
}

/// Hash of the effective run configuration, as carried by provenance
/// footers. Keys are ordered; two runs with equal hashes were configured
/// identically (worker count included — it never changes the results, but
/// it is part of how the run was produced).
pub fn run_config_hash() -> u64 {
    let faults = env::fault_plan();
    obs::stats::config_hash(&[
        ("sites", env::sites().to_string()),
        ("seed", env::seed().to_string()),
        ("workers", env::workers().to_string()),
        ("faults_pm", faults.total_per_mille().to_string()),
        ("fault_seed", faults.seed.to_string()),
    ])
}

/// Print the run footer every binary ends with: the `[stats]` summary when
/// `GULLIBLE_STATS` is on, then — always — the one-line `[provenance]`
/// footer (seed, config hash, telemetry digest, coverage), and flush the
/// trace journal and the slow-visit forensic dumps.
pub fn finish(bin: &str, coverage: Option<&str>) {
    let telemetry = obs::Telemetry::current();
    telemetry.write_slow_visits();
    let reg = telemetry.registry();
    if telemetry.stats_enabled() {
        print!("{}", obs::stats::render_summary(reg));
    }
    if telemetry.prof_mode() == obs::prof::Mode::Collapsed {
        // Flamegraph-ready collapsed stacks: `stack;stack;... self_us`.
        let collapsed = telemetry.render_collapsed();
        if !collapsed.is_empty() {
            print!("[prof] collapsed stacks (self µs)\n{collapsed}");
        }
    }
    println!(
        "{}",
        obs::stats::provenance_footer(bin, env::seed(), run_config_hash(), &reg.snapshot(), coverage)
    );
    if let Some(journal) = telemetry.journal() {
        journal.flush();
    }
}

/// Scale one of the paper's 100K-population counts to the configured size
/// (for side-by-side target columns).
pub fn scale_target(paper_count: u64) -> u64 {
    paper_count * env::sites() as u64 / 100_000
}
