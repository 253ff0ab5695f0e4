//! Table 9 — HTTP requests to ad/tracker resources (EasyList/EasyPrivacy).

#![deny(deprecated)]

use gullible::report::{thousands, TextTable};
use gullible::run_compare;
use stats::descriptive::{fmt_pct, pct_change};

fn main() {
    let _ctx = bench::banner("Table 9: ad/tracker requests, WPM vs WPM_hide");
    let report = run_compare(bench::compare_config());
    let mut table = TextTable::new("Table 9 — requests matching the blocklists");
    table.header(&["run", "EasyList WPM", "EasyList diff", "EasyPrivacy WPM", "EasyPrivacy diff"]);
    for (i, (wpm, hide)) in report.runs.iter().enumerate() {
        table.row(&[
            format!("r{}", i + 1),
            thousands(wpm.easylist_total()),
            fmt_pct(pct_change(wpm.easylist_total() as f64, hide.easylist_total() as f64)),
            thousands(wpm.easyprivacy_total()),
            fmt_pct(pct_change(wpm.easyprivacy_total() as f64, hide.easyprivacy_total() as f64)),
        ]);
    }
    println!("{}", table.render());
    for i in 0..report.runs.len() {
        if let Some(w) = report.wilcoxon_trackers(i) {
            println!(
                "r{}: Wilcoxon signed-rank z = {:.2}, p = {:.2e} ({}significant at 95%)",
                i + 1,
                w.z,
                w.p_value,
                if w.significant_at_95() { "" } else { "not " }
            );
        }
    }
    println!("paper: EasyList diffs +1.64% / +5.64% / +5.81%; p < 0.0001");
    bench::finish("table09", Some(&report.coverage_line()));
}
