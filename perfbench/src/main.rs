//! One benchmark process: a single cold repetition of one workload.
//!
//! `run.py` drives this binary; every repetition runs in a fresh process so
//! the process-wide compile cache, verdict memo and script memo start
//! empty. Subcommands:
//!
//! * `rep`    — one untimed set-up plus one timed, untraced run;
//! * `record` — record the fault-free bundle that `replay` reads;
//! * `oracle` — the reference outputs, computed with the oracle backends
//!   (tree-walking interpreter, naive matcher, one worker);
//! * `trace`  — the traced run: per-layer spans plus an untraced run of
//!   the same workload for the tracing overhead.
//!
//! Each prints one JSON object on its last stdout line.

mod e2e;
mod json;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// The benchmark's workloads (see README.md for why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ScanMem,
    ScanStream,
    Replay,
    Compare,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "scan-mem" => Workload::ScanMem,
            "scan-stream" => Workload::ScanStream,
            "replay" => Workload::Replay,
            "compare" => Workload::Compare,
            _ => return None,
        })
    }
}

/// Command-line options shared by every subcommand.
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub sites: u32,
    pub workers: usize,
    /// Scratch directory for bundles and span dumps.
    pub dir: PathBuf,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut sites = None;
    let mut workers = 2usize;
    let mut dir = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--sites" => sites = Some(value.parse().map_err(|_| format!("bad sites {value}"))?),
            "--workers" => workers = value.parse().map_err(|_| format!("bad workers {value}"))?,
            "--dir" => dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        sites: sites.ok_or("--sites is required")?,
        workers: workers.max(1),
        dir: dir.ok_or("--dir is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("usage: perfbench <rep|record|oracle|trace> --workload W --seed N --sites N --workers N --dir D");
        return ExitCode::from(2);
    };
    let opts = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd.as_str() {
        "rep" => e2e::rep(&opts),
        "record" => e2e::record(&opts),
        "oracle" => e2e::oracle(&opts),
        "trace" => trace::run(&opts),
        _ => Err(format!("unknown subcommand {cmd}")),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench {cmd}: {e}");
            ExitCode::FAILURE
        }
    }
}
