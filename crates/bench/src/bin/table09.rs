//! Table 9 — HTTP requests to ad/tracker resources (EasyList/EasyPrivacy).

#![deny(deprecated)]

use gullible::run_compare;

fn main() {
    let _ctx = bench::banner("Table 9: ad/tracker requests, WPM vs WPM_hide");
    let report = run_compare(bench::compare_config());
    print!("{}", bench::render::table09(&report));
    bench::finish("table09", Some(&report.coverage_line()));
}
