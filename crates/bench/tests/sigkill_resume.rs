//! Crash→resume across a real process boundary: `repro` streaming into a
//! crawl bundle is SIGKILLed mid-crawl, then re-run in a fresh process on
//! the same bundle, and the sealed result must equal an uninterrupted
//! `repro` run byte for byte (records digest, telemetry digest, Table 5,
//! and a clean per-site bundle diff).
//!
//! `tests/chaos.rs` covers every kill class by writing the partial bundle
//! it leaves (a budgeted run's manifest, cut at a line or inside one);
//! this is the one test where a real process dies and nothing survives
//! but the bytes on disk.

use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use gullible::{diff_bundles, ReplayBundle};
use proplite::TempDir;

const SITES: usize = 150;

fn tmp_dir(name: &str) -> TempDir {
    TempDir::new(&format!("sigkill-{name}"))
}

/// `repro` streaming a small, fault-ridden scan into `bundle`. The child
/// sees only the knobs set here (plus `GULLIBLE_ENGINE`, which CI uses to
/// run the suite under either backend).
fn repro(bundle: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    for (key, _) in std::env::vars_os() {
        if key.to_str().is_some_and(|k| k.starts_with("GULLIBLE_") && k != "GULLIBLE_ENGINE") {
            cmd.env_remove(key);
        }
    }
    cmd.envs([
        ("GULLIBLE_SITES", SITES.to_string()),
        ("GULLIBLE_SEED", "42".into()),
        ("GULLIBLE_WORKERS", "2".into()),
        ("GULLIBLE_STATS", "1".into()),
        ("GULLIBLE_FAULTS", "adversarial".into()),
    ]);
    cmd.env("GULLIBLE_BUNDLE", bundle);
    cmd
}

/// Wait until the child's bundle manifest holds `records` intact entries,
/// then SIGKILL it. A line is intact once its newline is on disk, so the
/// entries are the complete lines after the header.
fn kill_after(mut child: Child, manifest: &Path, records: usize) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let lines = std::fs::read(manifest).map(|m| m.iter().filter(|b| **b == b'\n').count());
        if lines.unwrap_or(0) > records {
            break;
        }
        if let Ok(Some(status)) = child.try_wait() {
            panic!("repro exited ({status}) before {records} records were flushed");
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("repro never flushed {records} records");
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    child.kill().expect("SIGKILL repro");
    let _ = child.wait();
}

#[test]
fn sigkilled_repro_resumes_byte_identical() {
    let (dir, ref_dir) = (tmp_dir("killed"), tmp_dir("reference"));
    let mut reference =
        repro(&ref_dir).stdout(Stdio::null()).spawn().expect("spawn reference repro");

    let victim = repro(&dir).stdout(Stdio::null()).spawn().expect("spawn repro");
    kill_after(victim, &dir.join("manifest.gar"), SITES / 3);
    assert!(
        ReplayBundle::open(&dir).is_err(),
        "the kill landed after the bundle was sealed; nothing was resumed"
    );

    let resumed = repro(&dir).stderr(Stdio::inherit()).output().expect("spawn resumed repro");
    assert!(resumed.status.success(), "resumed repro failed: {}", resumed.status);
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    assert!(stdout.contains("counter crash.resume 1"), "the fresh repro did not resume:\n{stdout}");

    let status = reference.wait().expect("wait reference repro");
    assert!(status.success(), "reference repro failed: {status}");

    let ours = ReplayBundle::open(&dir).expect("resumed repro must seal the bundle");
    let theirs = ReplayBundle::open(&ref_dir).expect("reference repro must seal the bundle");
    assert_eq!(ours.commit.records_digest, theirs.commit.records_digest, "records digest");
    assert_eq!(ours.commit.telemetry_digest, theirs.commit.telemetry_digest, "telemetry digest");
    assert_eq!(ours.commit.table5, theirs.commit.table5, "Table 5");
    let diff = diff_bundles(&ours, &theirs);
    assert!(diff.is_clean(), "{} sites differ from the uninterrupted run", diff.deltas.len());

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}
