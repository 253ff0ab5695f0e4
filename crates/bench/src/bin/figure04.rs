//! Fig. 4 — detectors found on front pages: static vs dynamic, per bucket.

#![deny(deprecated)]

use gullible::Scan;

fn main() {
    let _ctx = bench::banner("Figure 4: front-page detectors, static vs dynamic analysis");
    let report = Scan::new(bench::scan_config()).run().expect("scan");
    print!("{}", bench::render::figure04(&report));
    bench::finish("figure04", Some(&report.coverage_line()));
}
