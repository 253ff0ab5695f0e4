//! Table 8 — comparison of HTTP request resource types, WPM vs WPM_hide.

#![deny(deprecated)]

use gullible::report::{thousands, TextTable};
use gullible::run_compare;
use netsim::ResourceType;
use stats::descriptive::{fmt_pct, pct_change};

fn main() {
    let _ctx = bench::banner("Table 8: HTTP resource types, WPM vs WPM_hide (3 runs)");
    let report = run_compare(bench::compare_config());
    let (wpm1, hide1) = &report.runs[0];
    let mut table = TextTable::new("Table 8 — requests by resource type");
    table.header(&["resource type", "WPM (r1)", "WPM_hide (r1)", "Diff r1", "Diff r2", "Diff r3"]);
    let mut rows: Vec<(ResourceType, u64, u64)> = ResourceType::all()
        .iter()
        .map(|rt| (*rt, wpm1.requests_of(*rt), hide1.requests_of(*rt)))
        .collect();
    rows.sort_by(|a, b| {
        let da = pct_change(a.1 as f64, a.2 as f64).abs();
        let db = pct_change(b.1 as f64, b.2 as f64).abs();
        db.partial_cmp(&da).unwrap()
    });
    for (rt, w1, h1) in rows {
        if w1 == 0 && h1 == 0 {
            continue;
        }
        let mut cols = vec![rt.as_str().to_string(), thousands(w1), thousands(h1)];
        for run in 0..report.runs.len() {
            let (w, h) = &report.runs[run];
            cols.push(fmt_pct(pct_change(w.requests_of(rt) as f64, h.requests_of(rt) as f64)));
        }
        table.row(&cols);
    }
    let mut totals = vec![
        "Total".to_string(),
        thousands(wpm1.total_requests()),
        thousands(hide1.total_requests()),
    ];
    for run in 0..report.runs.len() {
        let (w, h) = &report.runs[run];
        totals.push(fmt_pct(pct_change(w.total_requests() as f64, h.total_requests() as f64)));
    }
    table.row(&totals);
    println!("{}", table.render());
    println!(
        "csp_report: WPM {} vs WPM_hide {} (paper: 784 vs 188, −76%); WPM failed to install \
         hooks on {} of {} sites (paper: up to 113 of 1,487)",
        wpm1.requests_of(ResourceType::CspReport),
        hide1.requests_of(ResourceType::CspReport),
        wpm1.blocked_sites(),
        report.compare_set.len()
    );
    println!("paper totals r1..r3: +1.91% / +3.37% / +5.32%");
    bench::finish("table08", Some(&report.coverage_line()));
}
