//! Table 12 / Appx. A — first-party detector origin clusters.

#![deny(deprecated)]

use gullible::Scan;

fn main() {
    let _ctx = bench::banner("Table 12: first-party detector attribution");
    let report = Scan::new(bench::scan_config()).run().expect("scan");
    print!("{}", bench::render::table12(&report));
    bench::finish("table12", Some(&report.coverage_line()));
}
