//! Fig. 3 — detectors on front pages vs incl. subpages, per rank bucket.

#![deny(deprecated)]

use gullible::Scan;

fn main() {
    let _ctx = bench::banner("Figure 3: front- vs subpage detectors per rank bucket");
    let report = Scan::new(bench::scan_config()).run().expect("scan");
    print!("{}", bench::render::figure03(&report));
    bench::finish("figure03", Some(&report.coverage_line()));
}
