//! Table 5 — number of websites with Selenium detectors (static / dynamic /
//! union, identified vs without false positives).

#![deny(deprecated)]

use gullible::Scan;

fn main() {
    let _ctx = bench::banner("Table 5: sites with Selenium detectors");
    let report = Scan::new(bench::scan_config()).run().expect("scan");
    print!("{}", bench::render::table05(&report));
    bench::finish("table05", Some(&report.coverage_line()));
}
