//! Table 1 — measurement characteristics of 72 OpenWPM-based studies.

#![deny(deprecated)]

use gullible::literature::{studies, tally};
use gullible::report::TextTable;

fn main() {
    let _ctx = bench::banner("Table 1: use of OpenWPM in previous studies");
    let t = tally(&studies());
    let mut table = TextTable::new("Table 1 — measurement characteristics (72 studies)");
    table.header(&["characteristic", "count", "paper"]);
    let rows: &[(&str, usize, &str)] = &[
        ("measures: HTTP traffic", t.http, "56"),
        ("measures: cookies", t.cookies, "35"),
        ("measures: JavaScript", t.js, "22"),
        ("measures: other", t.other, "6"),
        ("mode: unspecified", t.mode_unspecified, "59 (dual-mode study counted once here)"),
        ("mode: headless", t.mode_headless, "7"),
        ("mode: native", t.mode_native, "3"),
        ("mode: Xvfb", t.mode_xvfb, "2"),
        ("mode: Docker", t.mode_docker, "2"),
        ("deployed in VM/cloud", t.uses_vm, "16"),
        ("interaction: none", t.no_interaction, "55"),
        ("interaction: clicking", t.clicking, "11"),
        ("interaction: scrolling", t.scrolling, "8"),
        ("interaction: typing", t.typing, "5"),
        ("subpages: visited", t.subpages_visited, "19"),
        ("subpages: not visited", t.subpages_not_visited, "53"),
        ("bot detection: ignored", t.bd_ignored, "55"),
        ("bot detection: discussed", t.bd_discussed, "17"),
        ("uses anti-detection features", t.uses_anti_bot, "12"),
    ];
    for (label, measured, paper) in rows {
        table.row(&[label.to_string(), measured.to_string(), paper.to_string()]);
    }
    println!("{}", table.render());
    bench::finish("table01", None);
}
