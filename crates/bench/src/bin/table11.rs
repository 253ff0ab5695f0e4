//! Table 11 — studies measuring webdriver-property access on front pages.

#![deny(deprecated)]

use gullible::Scan;

fn main() {
    let _ctx = bench::banner("Table 11: webdriver probing on front pages vs prior work");
    let report = Scan::new(bench::scan_config()).run().expect("scan");
    print!("{}", bench::render::table11(&report));
    bench::finish("table11", Some(&report.coverage_line()));
}
