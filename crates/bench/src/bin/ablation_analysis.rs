//! Analysis-method ablation: static-only vs dynamic-only vs combined, with
//! and without the honey filter — quantifying the design choices behind
//! Sec. 4.1 of the paper on one scan of the population.

#![deny(deprecated)]

use gullible::report::{thousands, TextTable};
use gullible::scan::{Scan, ScanConfig};

fn main() {
    let _ctx = bench::banner("ablation: analysis methods");
    let n = bench::env::sites().min(10_000);
    let cfg = ScanConfig { workers: bench::env::workers(), ..ScanConfig::new(n, bench::env::seed()) };
    let report = Scan::new(cfg).run().expect("scan");

    let mut table = TextTable::new("analysis-method ablation (detector sites found)");
    table.header(&["pipeline", "sites", "vs combined"]);
    let combined = report.count(|_, site| site.union_true());
    let rows = [
        ("static only", report.count(|_, site| site.static_true)),
        ("dynamic only", report.count(|_, site| site.dynamic_true)),
        ("combined (the paper's choice)", combined),
        ("dynamic w/o honey filter (incl. iterator FPs)", report.count(|_, site| site.dynamic_identified)),
    ];
    for (label, count) in rows {
        table.row(&[
            label.to_string(),
            thousands(count as u64),
            format!("{:+.1}%", (count as f64 / combined as f64 - 1.0) * 100.0),
        ]);
    }
    println!("{}", table.render());
    println!(
        "takeaways (mirroring the paper): neither method subsumes the other; the honey filter\n\
         removes iterator false positives from the dynamic pipeline."
    );
    println!("{}", gullible::report::coverage_note(&report.completion));
    bench::finish("ablation_analysis", Some(&report.coverage_line()));
}
