//! Fig. 6 — per-API call coverage of WPM relative to WPM_hide.

#![deny(deprecated)]

use gullible::run_compare;

fn main() {
    let _ctx = bench::banner("Figure 6: JS-call coverage per API (WPM / WPM_hide)");
    let report = run_compare(bench::compare_config());
    print!("{}", bench::render::figure06(&report));
    bench::finish("figure06", Some(&report.coverage_line()));
}
