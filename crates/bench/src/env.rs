//! The `GULLIBLE_*` environment knobs, parsed in exactly one place.
//!
//! Every regeneration binary and the umbrella `repro` runner read their
//! configuration from these variables; nothing else in the workspace calls
//! `std::env::var` for a `GULLIBLE_*` name except `jsengine`'s
//! process-default context, which reads `GULLIBLE_ENGINE` so plain
//! `cargo test` runs can select the tree-walking oracle.
//!
//! | knob                      | type  | default        | meaning |
//! |---------------------------|-------|----------------|---------|
//! | `GULLIBLE_SITES`          | u32   | 20,000         | population size (paper scale: 100,000; `profile` defaults to 5,000) |
//! | `GULLIBLE_SEED`           | u64   | 42             | population seed |
//! | `GULLIBLE_WORKERS`        | usize | CPU count      | crawl worker threads |
//! | `GULLIBLE_TRACE`          | path  | unset          | stream the JSONL telemetry journal here |
//! | `GULLIBLE_TRACE_WALL`     | bool  | 0              | add `wall_ms` to journal lines (breaks byte-identity) |
//! | `GULLIBLE_STATS`          | bool  | 0              | print the `[stats]` crawl summary after each run |
//! | `GULLIBLE_FAULT_CRASH_PM` | u32   | 0              | browser-crash probability per visit (per-mille) |
//! | `GULLIBLE_FAULT_HANG_PM`  | u32   | 0              | visit-hang probability (per-mille) |
//! | `GULLIBLE_FAULT_NAV_PM`   | u32   | 0              | navigation-error probability (per-mille) |
//! | `GULLIBLE_FAULT_TAB_PM`   | u32   | 0              | mid-visit tab-crash probability (per-mille) |
//! | `GULLIBLE_FAULT_HTTP_PM`  | u32   | 0              | transient-HTTP-failure probability (per-mille) |
//! | `GULLIBLE_FAULT_BOOST_PM` | u32   | 4000           | failure multiplier on flaky-flagged sites (per-mille) |
//! | `GULLIBLE_FAULT_SEED`     | u64   | `0xFA017`      | fault-plan seed, independent of the population seed |
//! | `GULLIBLE_ENGINE`         | enum  | `vm`           | MiniJS execution backend: `vm` (bytecode) or `tree` (reference oracle) |
//! | `GULLIBLE_BUNDLE`         | path  | unset          | crawl-bundle directory for `archive_record`/`archive_replay` (positional arg wins); `repro` streams its scan there and resumes it on restart |
//! | `GULLIBLE_PROF`           | mode  | off            | phase profiler: `1` on, `collapsed` also prints a flamegraph-ready collapsed-stack dump |
//! | `GULLIBLE_PROF_SLOW_VISITS` | usize | 0            | the k slowest visits of the run dump a forensic record, written at its end (`0` disables) |
//! | `GULLIBLE_FORENSICS`      | path  | unset          | append flight-recorder forensic dumps (JSONL) here; arms the profiler |
//!
//! Boolean knobs accept `1`, `true`, `yes` or `on` (anything else, or
//! unset, is off). Numeric knobs are parsed as the type in the table; a
//! value that fails to parse, or does not fit that type, falls back to
//! the default rather than aborting a long run (or wrapping around).

use gullible::obs;
use openwpm::FaultPlan;
use std::path::PathBuf;

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

/// `GULLIBLE_TRACE_WALL` — append wall-clock timestamps to journal lines.
pub fn trace_wall() -> bool {
    flag_knob("GULLIBLE_TRACE_WALL")
}

/// `GULLIBLE_STATS` — print the `[stats]` crawl summary.
pub fn stats() -> bool {
    flag_knob("GULLIBLE_STATS")
}

/// The `GULLIBLE_FAULT_*` fault plan; unset knobs keep [`FaultPlan`]'s
/// defaults, except the seed.
pub fn fault_plan() -> FaultPlan {
    let d = FaultPlan::default();
    FaultPlan {
        crash_per_mille: num_knob("GULLIBLE_FAULT_CRASH_PM", 0),
        hang_per_mille: num_knob("GULLIBLE_FAULT_HANG_PM", 0),
        nav_error_per_mille: num_knob("GULLIBLE_FAULT_NAV_PM", 0),
        tab_crash_per_mille: num_knob("GULLIBLE_FAULT_TAB_PM", 0),
        http_flaky_per_mille: num_knob("GULLIBLE_FAULT_HTTP_PM", 0),
        flaky_site_boost_pm: num_knob("GULLIBLE_FAULT_BOOST_PM", d.flaky_site_boost_pm),
        seed: num_knob("GULLIBLE_FAULT_SEED", 0xFA_017),
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

/// `GULLIBLE_PROF_SLOW_VISITS` — how many of the slowest visits leave a
/// forensic dump (0 = none).
pub fn prof_slow_visits() -> usize {
    num_knob("GULLIBLE_PROF_SLOW_VISITS", 0)
}

/// `GULLIBLE_FORENSICS` — flight-recorder forensic dump file (JSONL, append).
pub fn forensics() -> Option<PathBuf> {
    path_knob("GULLIBLE_FORENSICS")
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

        std::env::set_var("GULLIBLE_TEST_PATH", "/tmp/x.jsonl");
        assert_eq!(path_knob("GULLIBLE_TEST_PATH"), Some(PathBuf::from("/tmp/x.jsonl")));
        std::env::set_var("GULLIBLE_TEST_PATH", "");
        assert_eq!(path_knob("GULLIBLE_TEST_PATH"), None);
        std::env::remove_var("GULLIBLE_TEST_PATH");
        assert_eq!(path_knob("GULLIBLE_TEST_PATH"), None);
    }
}
