//! The `[provenance]` footer's telemetry field names what was recorded: a
//! run with neither `GULLIBLE_STATS` nor `GULLIBLE_TRACE` records nothing
//! and says `telemetry=off`, and a stats run prints its real digest.

use std::process::Command;

/// `table05`'s provenance footer at 200 sites, seed 42, two workers, with
/// only `extra` set besides (plus `GULLIBLE_ENGINE`, which CI uses to run
/// the suite under either backend).
fn footer(extra: &[(&str, &str)]) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_table05"));
    for (key, _) in std::env::vars_os() {
        if key.to_str().is_some_and(|k| k.starts_with("GULLIBLE_") && k != "GULLIBLE_ENGINE") {
            cmd.env_remove(key);
        }
    }
    cmd.env("GULLIBLE_SITES", "200").env("GULLIBLE_SEED", "42").env("GULLIBLE_WORKERS", "2");
    for (k, v) in extra {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("run table05");
    assert!(out.status.success(), "table05 exited with {}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .find(|l| l.starts_with("[provenance]"))
        .expect("no provenance footer")
        .to_string()
}

#[test]
fn telemetry_field_is_off_without_stats_and_a_digest_with_them() {
    let clean = footer(&[]);
    assert!(clean.contains(" telemetry=off "), "{clean}");
    let faulty = footer(&[("GULLIBLE_FAULTS", "adversarial")]);
    assert!(faulty.contains(" telemetry=off "), "{faulty}");
    let stats = footer(&[("GULLIBLE_STATS", "1")]);
    assert!(stats.contains(" telemetry=ccf391221b8d62e1 "), "{stats}");
}
