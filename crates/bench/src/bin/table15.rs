//! Table 15 / Appx. E — the 72 surveyed OpenWPM studies.
//!
//! Per-study flags are reconstructed to match Table 1's aggregates exactly
//! (the appendix table is not fully machine-readable); identities are the
//! paper's.

#![deny(deprecated)]

use gullible::literature::{studies, StudyMode};
use gullible::report::TextTable;

fn main() {
    let _ctx = bench::banner("Table 15: OpenWPM in literature");
    let mut table = TextTable::new("Table 15 — surveyed studies (flags reconstructed)");
    table.header(&[
        "year", "author", "venue", "mode", "VM", "ck", "http", "js", "scr", "clk", "typ",
        "sub", "anti", "BD",
    ]);
    let tick = |b: bool| if b { "x" } else { "" }.to_string();
    for s in studies() {
        let mode = match s.mode {
            StudyMode::Unspecified => "u",
            StudyMode::Native => "n",
            StudyMode::Headless => "h",
            StudyMode::Xvfb => "x",
            StudyMode::Docker => "d",
        };
        table.row(&[
            s.year.to_string(),
            s.first_author.to_string(),
            s.venue.to_string(),
            mode.to_string(),
            tick(s.uses_vm),
            tick(s.measures_cookies),
            tick(s.measures_http),
            tick(s.measures_js),
            tick(s.scrolling),
            tick(s.clicking),
            tick(s.typing),
            tick(s.visits_subpages),
            tick(s.uses_anti_bot),
            tick(s.discusses_bot_detection),
        ]);
    }
    println!("{}", table.render());
    bench::finish("table15", None);
}
