//! Table 8 — comparison of HTTP request resource types, WPM vs WPM_hide.

#![deny(deprecated)]

use gullible::run_compare;

fn main() {
    let _ctx = bench::banner("Table 8: HTTP resource types, WPM vs WPM_hide (3 runs)");
    let report = run_compare(bench::compare_config());
    print!("{}", bench::render::table08(&report));
    bench::finish("table08", Some(&report.coverage_line()));
}
