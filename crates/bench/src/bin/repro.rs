//! Umbrella experiment runner: regenerates the crawl-based tables and
//! figures from one scan and one comparison (so the expensive pipelines run
//! once), in paper order. The scan gives Tables 5, 6, 7, 11 (with Fig. 3)
//! and 12 and Figs. 4 and 5; the WPM vs WPM_hide comparison gives Tables
//! 8, 9 and 10 and Fig. 6. Each artefact's block is the one its own binary
//! prints ([`bench::render`]), under a `[bin]` heading. Tables 1–4
//! and 13–15 and Fig. 2 need no crawl; their own binaries print them. This
//! is what produces the scan and comparison numbers recorded in
//! EXPERIMENTS.md:
//!
//! ```text
//! GULLIBLE_SITES=100000 cargo run --release -p bench --bin repro
//! ```
//!
//! Set `GULLIBLE_BUNDLE=/path/to/dir` to stream the scan into a crawl
//! bundle there: records are flushed and dropped as they complete (memory
//! stays O(workers)), an interrupted run resumes from the bundle, and the
//! tables come out identical to an uninterrupted run.
//! `GULLIBLE_FAULTS=adversarial` injects crawl faults (see `bench::env`);
//! the coverage line under each scan block reports the resulting
//! completion rate.

#![deny(deprecated)]

use bench::render;
use gullible::{run_compare, CompareReport, Scan, ScanReport};

/// An artefact: the binary that prints it alone, and its renderer.
type Artefact<R> = (&'static str, fn(&R) -> String);

/// The scan's artefacts, in paper order.
const SCAN: [Artefact<ScanReport>; 8] = [
    ("table05", render::table05),
    ("table06", render::table06),
    ("table07", render::table07),
    ("table11", render::table11),
    ("figure03", render::figure03),
    ("figure04", render::figure04),
    ("figure05", render::figure05),
    ("table12", render::table12),
];

/// The comparison's artefacts, likewise.
const COMPARE: [Artefact<CompareReport>; 4] = [
    ("table08", render::table08),
    ("table09", render::table09),
    ("table10", render::table10),
    ("figure06", render::figure06),
];

fn main() {
    let _ctx = bench::banner("full reproduction run");
    let t0 = std::time::Instant::now();

    println!("--- running the Tranco scan (Sec. 4) ---");
    let scan = {
        let mut builder = Scan::new(bench::scan_config());
        if let Some(dir) = bench::env::bundle() {
            builder = builder.stream_to(&dir);
        }
        builder.run().unwrap_or_else(|e| {
            eprintln!("error: crawl bundle: {e}");
            std::process::exit(2);
        })
    };
    println!("scan finished in {:.1?}", t0.elapsed());
    println!("{}\n", scan.coverage_line());
    for (bin, block) in SCAN {
        println!("[{bin}]\n{}", block(&scan));
    }

    println!("--- running the WPM vs WPM_hide comparison (Sec. 6.3) ---");
    let t1 = std::time::Instant::now();
    let cmp = run_compare(bench::compare_config());
    println!("comparison finished in {:.1?} over {} sites × {} runs", t1.elapsed(), cmp.compare_set.len(), cmp.runs.len());
    println!("{}\n", cmp.coverage_line());
    for (bin, block) in COMPARE {
        println!("[{bin}]\n{}", block(&cmp));
    }

    println!("total wall time {:.1?}", t0.elapsed());
    bench::finish("repro", Some(&scan.coverage_line()));
}
