//! Table 6 — sites with scripts probing OpenWPM-specific properties.

#![deny(deprecated)]

use gullible::Scan;

fn main() {
    let _ctx = bench::banner("Table 6: OpenWPM-specific detectors per provider");
    let report = Scan::new(bench::scan_config()).run().expect("scan");
    print!("{}", bench::render::table06(&report));
    bench::finish("table06", Some(&report.coverage_line()));
}
