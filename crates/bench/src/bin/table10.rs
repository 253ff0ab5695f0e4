//! Table 10 — served cookies and tracking cookies, WPM vs WPM_hide.

#![deny(deprecated)]

use gullible::report::{thousands, TextTable};
use gullible::{run_compare, Client};
use netsim::CookieParty;
use stats::descriptive::{fmt_pct, pct_change};

fn main() {
    let _ctx = bench::banner("Table 10: cookies, WPM vs WPM_hide");
    let report = run_compare(bench::compare_config());
    let mut table = TextTable::new("Table 10 — cookies per run");
    table.header(&[
        "run",
        "1st-party WPM",
        "diff",
        "3rd-party WPM",
        "diff",
        "tracking WPM",
        "diff",
    ]);
    for i in 0..report.runs.len() {
        let (wpm, hide) = &report.runs[i];
        let w1 = wpm.cookies_of(CookieParty::First);
        let h1 = hide.cookies_of(CookieParty::First);
        let w3 = wpm.cookies_of(CookieParty::Third);
        let h3 = hide.cookies_of(CookieParty::Third);
        let wt = report.tracking_cookies(Client::Wpm, i);
        let ht = report.tracking_cookies(Client::WpmHide, i);
        table.row(&[
            format!("r{}", i + 1),
            thousands(w1),
            fmt_pct(pct_change(w1 as f64, h1 as f64)),
            thousands(w3),
            fmt_pct(pct_change(w3 as f64, h3 as f64)),
            thousands(wt),
            fmt_pct(pct_change(wt as f64, ht as f64)),
        ]);
    }
    println!("{}", table.render());
    for i in 0..report.runs.len() {
        if let Some(w) = report.wilcoxon_cookies(i) {
            println!(
                "r{}: per-site cookie counts Wilcoxon z = {:.2}, p = {:.2e}",
                i + 1,
                w.z,
                w.p_value
            );
        }
    }
    println!(
        "paper diffs: 1st +3.33/+3.06/+4.23%; 3rd +5.05/+7.12/+8.11%; tracking \
         +41.70/+52.13/+59.65%"
    );
    bench::finish("table10", Some(&report.coverage_line()));
}
