//! Fig. 5 — common categories of sites with detectors.

#![deny(deprecated)]

use gullible::Scan;

fn main() {
    let _ctx = bench::banner("Figure 5: categories of detector sites");
    let report = Scan::new(bench::scan_config()).run().expect("scan");
    print!("{}", bench::render::figure05(&report));
    bench::finish("figure05", Some(&report.coverage_line()));
}
