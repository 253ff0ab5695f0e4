//! Fig. 6 — per-API call coverage of WPM relative to WPM_hide.

#![deny(deprecated)]

use gullible::report::TextTable;
use gullible::run_compare;

fn main() {
    let _ctx = bench::banner("Figure 6: JS-call coverage per API (WPM / WPM_hide)");
    let report = run_compare(bench::compare_config());
    let cov = report.coverage(0);
    let mut table = TextTable::new("Figure 6 — API call coverage, run 1");
    table.header(&["symbol", "WPM calls", "WPM_hide calls", "coverage"]);
    let mut rows: Vec<(&String, &(u64, u64))> = cov.iter().collect();
    rows.sort_by_key(|(_, (w, h))| ((*w as f64 / (*h).max(1) as f64) * 1000.0) as u64);
    for (sym, (w, h)) in rows {
        if *h == 0 {
            continue;
        }
        let coverage = *w as f64 * 100.0 / *h as f64;
        table.row(&[
            sym.clone(),
            w.to_string(),
            h.to_string(),
            format!("{coverage:.0}%"),
        ]);
    }
    println!("{}", table.render());
    println!(
        "paper: coverage gaps up to 37%-points (Screen.availLeft 63%); gaps here come from \
         (a) the racy frame injection losing immediate in-frame accesses and (b) prototype \
         pollution leaving element-level Node methods unwrapped."
    );
    bench::finish("figure06", Some(&report.coverage_line()));
}
