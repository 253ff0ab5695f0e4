//! Fig. 4 — detectors found on front pages: static vs dynamic, per bucket.

#![deny(deprecated)]

use gullible::report::thousands;
use gullible::Scan;

fn main() {
    let _ctx = bench::banner("Figure 4: front-page detectors, static vs dynamic analysis");
    let report = Scan::new(bench::scan_config()).run().expect("scan");
    let bucket = (report.n_sites / 20).max(1);
    println!("bucket size: {} ranks\n", thousands(bucket as u64));
    println!("{:<14} {:>10} {:>10}", "rank bucket", "static", "dynamic");
    for (i, counts) in report.rank_buckets(bucket).iter().enumerate() {
        println!(
            "{:<14} {:>10} {:>10}   {}",
            format!("{}..{}", i as u32 * bucket, (i as u32 + 1) * bucket),
            counts[0],
            counts[1],
            "#".repeat((counts[1] as usize * 40 / bucket.max(1) as usize).min(60))
        );
    }
    let s = report.count(|front, _| front.static_true);
    let d = report.count(|front, _| front.dynamic_true);
    let u = report.count(|front, _| front.union_true());
    println!(
        "\nfront pages: static {} dynamic {} union {} (paper: 11,897 / 12,208 / 13,989 at 100K; \
         both methods find similar per-bucket volumes but do not fully overlap)",
        thousands(s as u64),
        thousands(d as u64),
        thousands(u as u64)
    );
    println!("{}", gullible::report::coverage_note(&report.completion));
    bench::finish("figure04", Some(&report.coverage_line()));
}
