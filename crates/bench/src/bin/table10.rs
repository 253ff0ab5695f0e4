//! Table 10 — served cookies and tracking cookies, WPM vs WPM_hide.

#![deny(deprecated)]

use gullible::run_compare;

fn main() {
    let _ctx = bench::banner("Table 10: cookies, WPM vs WPM_hide");
    let report = run_compare(bench::compare_config());
    print!("{}", bench::render::table10(&report));
    bench::finish("table10", Some(&report.coverage_line()));
}
