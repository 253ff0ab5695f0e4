//! The `GULLIBLE_*` environment knobs, parsed in exactly one place.
//!
//! Every regeneration binary and the umbrella `repro` runner read their
//! configuration from these variables; nothing else in the workspace calls
//! `std::env::var` for a `GULLIBLE_*` name except `jsengine`'s
//! process-default context, which reads `GULLIBLE_ENGINE` so plain
//! `cargo test` runs can select the tree-walking oracle.
//!
//! | knob                 | type  | default   | meaning |
//! |----------------------|-------|-----------|---------|
//! | `GULLIBLE_SITES`     | u32   | 20,000    | population size (paper scale: 100,000; `profile` defaults to 5,000) |
//! | `GULLIBLE_SEED`      | u64   | 42        | population seed |
//! | `GULLIBLE_WORKERS`   | usize | CPU count | crawl worker threads |
//! | `GULLIBLE_TRACE`     | path  | unset     | stream the JSONL telemetry journal here |
//! | `GULLIBLE_STATS`     | bool  | 0         | print the `[stats]` crawl summary after each run |
//! | `GULLIBLE_FAULTS`    | enum  | `off`     | fault weather: `off`, or `adversarial` ([`FaultPlan::adversarial`]: 5% browser crashes, 1% hangs, 1% navigation errors, 0.5% tab crashes, 0.5% transient HTTP failures per attempt) |
//! | `GULLIBLE_FAULT_SEED`| u64   | `0xFA017` | fault-plan seed, independent of the population seed |
//! | `GULLIBLE_ENGINE`    | enum  | `vm`      | MiniJS execution backend: `vm` (bytecode) or `tree` (reference oracle) |
//! | `GULLIBLE_BUNDLE`    | path  | unset     | crawl-bundle directory for `archive_record`/`archive_replay` (positional arg wins); `repro` streams its scan there and resumes it on restart |
//! | `GULLIBLE_PROF`      | mode  | off       | phase profiler: `1` on, `collapsed` also prints a flamegraph-ready collapsed-stack dump |
//! | `GULLIBLE_FORENSICS` | path  | unset     | append flight-recorder forensic dumps (JSONL) here; arms the profiler and dumps the [`slow_visits`] slowest visits at the end of the run |
//!
//! Boolean knobs accept `1`, `true`, `yes` or `on` (anything else, or
//! unset, is off). Numeric knobs are parsed as the type in the table; a
//! value that fails to parse, or does not fit that type, falls back to
//! the default rather than aborting a long run (or wrapping around).
//! A `GULLIBLE_*` variable outside this table, or a `GULLIBLE_FAULTS`
//! value other than the two above, is ignored with a warning
//! ([`warnings`]): a renamed knob must not quietly change the run.

use gullible::obs;
use openwpm::FaultPlan;
use std::path::PathBuf;

/// Every `GULLIBLE_*` name the workspace reads: the table above.
pub const KNOBS: [&str; 11] = [
    "GULLIBLE_SITES",
    "GULLIBLE_SEED",
    "GULLIBLE_WORKERS",
    "GULLIBLE_TRACE",
    "GULLIBLE_STATS",
    "GULLIBLE_FAULTS",
    "GULLIBLE_FAULT_SEED",
    "GULLIBLE_ENGINE",
    "GULLIBLE_BUNDLE",
    "GULLIBLE_PROF",
    "GULLIBLE_FORENSICS",
];

fn num_knob<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn flag_knob(name: &str) -> bool {
    matches!(
        std::env::var(name).unwrap_or_default().to_ascii_lowercase().as_str(),
        "1" | "true" | "yes" | "on"
    )
}

fn path_knob(name: &str) -> Option<PathBuf> {
    std::env::var_os(name).filter(|v| !v.is_empty()).map(PathBuf::from)
}

/// `GULLIBLE_SITES` — population size for scan-scale experiments.
pub fn sites() -> u32 {
    sites_or(20_000)
}

/// `GULLIBLE_SITES` for a binary with its own default population size.
pub fn sites_or(default: u32) -> u32 {
    num_knob("GULLIBLE_SITES", default)
}

/// `GULLIBLE_SEED` — population seed.
pub fn seed() -> u64 {
    num_knob("GULLIBLE_SEED", 42)
}

/// `GULLIBLE_WORKERS` — crawl worker threads.
pub fn workers() -> usize {
    num_knob("GULLIBLE_WORKERS", std::thread::available_parallelism().map_or(4, |n| n.get()))
}

/// `GULLIBLE_TRACE` — destination for the JSONL telemetry journal.
pub fn trace() -> Option<PathBuf> {
    path_knob("GULLIBLE_TRACE")
}

/// `GULLIBLE_STATS` — print the `[stats]` crawl summary.
pub fn stats() -> bool {
    flag_knob("GULLIBLE_STATS")
}

fn faults() -> String {
    std::env::var("GULLIBLE_FAULTS").unwrap_or_default().to_ascii_lowercase()
}

/// `GULLIBLE_FAULTS` seeded by `GULLIBLE_FAULT_SEED`: the adversarial
/// weather, or no faults. A clean plan carries the seed too, so it shows
/// in the run's config hash either way.
pub fn fault_plan() -> FaultPlan {
    let seed = num_knob("GULLIBLE_FAULT_SEED", 0xFA_017);
    if faults() == "adversarial" {
        FaultPlan::adversarial(seed)
    } else {
        FaultPlan { seed, ..FaultPlan::none() }
    }
}

/// `GULLIBLE_BUNDLE` — crawl-bundle directory for the archive binaries
/// and `repro`'s streamed scan.
pub fn bundle() -> Option<PathBuf> {
    path_knob("GULLIBLE_BUNDLE")
}

/// `GULLIBLE_PROF` — phase-profiler mode (`off`, `1`/`on`, `collapsed`).
pub fn prof_mode() -> obs::prof::Mode {
    obs::prof::parse_mode(&std::env::var("GULLIBLE_PROF").unwrap_or_default())
}

/// `GULLIBLE_FORENSICS` — flight-recorder forensic dump file (JSONL, append).
pub fn forensics() -> Option<PathBuf> {
    path_knob("GULLIBLE_FORENSICS")
}

/// How many of a `sites`-visit run's slowest visits leave a forensic
/// dump: the slowest 1%, at least one. A count rather than a wall-clock
/// threshold, so every run writes the same number of dumps however fast
/// the machine is.
pub fn slow_visits(sites: u32) -> usize {
    (sites as usize / 100).max(1)
}

/// One warning per `GULLIBLE_*` variable that is not in [`KNOBS`], and
/// one for a `GULLIBLE_FAULTS` value that names no weather. Both are
/// otherwise ignored, so a stale per-kind fault rate from an older
/// invocation would run a clean crawl without a word.
pub fn warnings() -> Vec<String> {
    let mut out: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("GULLIBLE_") && !KNOBS.contains(&k.as_str()))
        .map(|k| format!("warning: {k} is not a knob these binaries read; ignored"))
        .collect();
    out.sort();
    let faults = faults();
    if !matches!(faults.as_str(), "" | "off" | "adversarial") {
        out.push(format!(
            "warning: GULLIBLE_FAULTS={faults} is neither `off` nor `adversarial`; running without faults"
        ));
    }
    out
}

/// Positional (non-flag) CLI arguments, in order — the archive binaries
/// take bundle directories this way, ahead of `GULLIBLE_BUNDLE`.
pub fn positional_args() -> Vec<String> {
    std::env::args().skip(1).filter(|a| !a.starts_with("--")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env-var tests mutate process state; keep them in one test so they
    // cannot race each other under the parallel test runner.
    #[test]
    fn knob_parsing() {
        std::env::set_var("GULLIBLE_TEST_U64", "17");
        assert_eq!(num_knob("GULLIBLE_TEST_U64", 3u64), 17);
        std::env::set_var("GULLIBLE_TEST_U64", "not a number");
        assert_eq!(num_knob("GULLIBLE_TEST_U64", 3u64), 3);
        std::env::remove_var("GULLIBLE_TEST_U64");
        assert_eq!(num_knob("GULLIBLE_TEST_U64", 3u64), 3);

        // Out of range for the knob's own type: the default, not a
        // wrapped-around value (2^32 + 1 would narrow to 1 site).
        std::env::set_var("GULLIBLE_TEST_U32", "4294967297");
        assert_eq!(num_knob("GULLIBLE_TEST_U32", 20_000u32), 20_000);
        std::env::set_var("GULLIBLE_TEST_U32", "4294967295");
        assert_eq!(num_knob("GULLIBLE_TEST_U32", 20_000u32), u32::MAX);
        std::env::set_var("GULLIBLE_TEST_U32", "-1");
        assert_eq!(num_knob("GULLIBLE_TEST_U32", 20_000u32), 20_000);
        std::env::remove_var("GULLIBLE_TEST_U32");

        for on in ["1", "true", "YES", "On"] {
            std::env::set_var("GULLIBLE_TEST_FLAG", on);
            assert!(flag_knob("GULLIBLE_TEST_FLAG"), "{on} should enable");
        }
        std::env::set_var("GULLIBLE_TEST_FLAG", "0");
        assert!(!flag_knob("GULLIBLE_TEST_FLAG"));
        std::env::remove_var("GULLIBLE_TEST_FLAG");
        assert!(!flag_knob("GULLIBLE_TEST_FLAG"));

        // The fault weather: a preset, not per-kind rates.
        assert_eq!(fault_plan(), FaultPlan { seed: 0xFA_017, ..FaultPlan::none() });
        std::env::set_var("GULLIBLE_FAULTS", "Adversarial");
        std::env::set_var("GULLIBLE_FAULT_SEED", "7");
        assert_eq!(fault_plan(), FaultPlan::adversarial(7));
        assert!(warnings().iter().all(|w| !w.contains("GULLIBLE_FAULT")));
        std::env::set_var("GULLIBLE_FAULTS", "stormy");
        assert_eq!(fault_plan(), FaultPlan { seed: 7, ..FaultPlan::none() });
        assert!(warnings().iter().any(|w| w.contains("GULLIBLE_FAULTS=stormy")));
        std::env::remove_var("GULLIBLE_FAULTS");
        std::env::remove_var("GULLIBLE_FAULT_SEED");

        // A name outside the table is reported, not read.
        std::env::set_var("GULLIBLE_TEST_RENAMED_PM", "50");
        assert!(warnings().iter().any(|w| w.contains("GULLIBLE_TEST_RENAMED_PM")));
        std::env::remove_var("GULLIBLE_TEST_RENAMED_PM");
        assert!(warnings().iter().all(|w| !w.contains("GULLIBLE_TEST_RENAMED_PM")));

        assert_eq!(slow_visits(200), 2);
        assert_eq!(slow_visits(5_000), 50);
        assert_eq!(slow_visits(40), 1);

        std::env::set_var("GULLIBLE_TEST_PATH", "/tmp/x.jsonl");
        assert_eq!(path_knob("GULLIBLE_TEST_PATH"), Some(PathBuf::from("/tmp/x.jsonl")));
        std::env::set_var("GULLIBLE_TEST_PATH", "");
        assert_eq!(path_knob("GULLIBLE_TEST_PATH"), None);
        std::env::remove_var("GULLIBLE_TEST_PATH");
        assert_eq!(path_knob("GULLIBLE_TEST_PATH"), None);
    }
}
