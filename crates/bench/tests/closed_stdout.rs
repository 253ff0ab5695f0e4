//! A table binary whose reader goes away (`table05 | head -4`) exits
//! quietly with status 0: no panic report on stderr.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

#[test]
fn table_bin_exits_quietly_when_stdout_closes() {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_table05"));
    for (key, _) in std::env::vars_os() {
        if key.to_str().is_some_and(|k| k.starts_with("GULLIBLE_") && k != "GULLIBLE_ENGINE") {
            cmd.env_remove(key);
        }
    }
    let mut child = cmd
        .env("GULLIBLE_SITES", "200")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn table05");
    // Read the banner's first line, then close the pipe while the scan is
    // still running: the table printed after it hits a closed stdout.
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap()).read_line(&mut first).expect("banner line");
    assert!(first.starts_with("gullible reproduction"), "unexpected first line {first:?}");
    let mut stderr = String::new();
    child.stderr.take().unwrap().read_to_string(&mut stderr).expect("read stderr");
    let status = child.wait().expect("wait for table05");
    assert_eq!(stderr, "", "table05 wrote to stderr after its stdout closed");
    assert!(status.success(), "table05 exited with {status}");
}
