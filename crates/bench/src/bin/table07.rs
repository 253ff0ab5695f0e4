//! Table 7 — domains hosting third-party detector scripts.

#![deny(deprecated)]

use gullible::Scan;

fn main() {
    let _ctx = bench::banner("Table 7: third-party detector hosting domains");
    let report = Scan::new(bench::scan_config()).run().expect("scan");
    print!("{}", bench::render::table07(&report));
    bench::finish("table07", Some(&report.coverage_line()));
}
