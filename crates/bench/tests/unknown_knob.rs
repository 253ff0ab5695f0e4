//! A `GULLIBLE_*` variable the binaries do not read is reported, not
//! silently ignored: a per-kind fault rate from before the
//! `GULLIBLE_FAULTS` preset runs a clean crawl, and stderr says why.

use std::process::Command;

#[test]
fn stale_fault_rate_knob_is_named_on_stderr() {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_table05"));
    for (key, _) in std::env::vars_os() {
        if key.to_str().is_some_and(|k| k.starts_with("GULLIBLE_") && k != "GULLIBLE_ENGINE") {
            cmd.env_remove(key);
        }
    }
    let out = cmd
        .env("GULLIBLE_SITES", "200")
        .env("GULLIBLE_FAULT_CRASH_PM", "50")
        .output()
        .expect("run table05");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "table05 exited with {}\n{stderr}", out.status);
    assert!(stderr.contains("GULLIBLE_FAULT_CRASH_PM"), "stderr does not name the knob: {stderr:?}");
    assert!(!stdout.contains("faults"), "an unknown knob changed the weather:\n{stdout}");
}
