//! Table 12 / Appx. A — first-party detector origin clusters.

#![deny(deprecated)]

use gullible::report::{thousands, TextTable};
use gullible::Scan;

fn main() {
    let _ctx = bench::banner("Table 12: first-party detector attribution");
    let report = Scan::new(bench::scan_config()).run().expect("scan");
    let t12 = report.table12();
    let mut table = TextTable::new("Table 12 — first-party detector origins by URL pattern");
    table.header(&["origin", "sites", "paper @100K"]);
    let paper: &[(&str, u32)] = &[
        ("Akamai", 1004),
        ("Incapsula", 998),
        ("Unknown", 659),
        ("Cloudflare", 486),
        ("PerimeterX", 134),
        ("SelfBuilt", 586),
    ];
    let mut rows: Vec<(&str, u32)> = t12.iter().map(|(k, v)| (*k, *v)).collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1));
    for (origin, count) in rows {
        let target = paper.iter().find(|(o, _)| *o == origin).map(|(_, c)| *c).unwrap_or(0);
        table.row(&[
            origin.to_string(),
            thousands(count as u64),
            format!("{} (scaled ≈ {})", target, bench::scale_target(target as u64)),
        ]);
    }
    println!("{}", table.render());
    println!("{}", gullible::report::coverage_note(&report.completion));
    bench::finish("table12", Some(&report.coverage_line()));
}
