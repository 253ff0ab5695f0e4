//! Table 6 — sites with scripts probing OpenWPM-specific properties.

#![deny(deprecated)]

use gullible::report::TextTable;
use gullible::Scan;

fn main() {
    let _ctx = bench::banner("Table 6: OpenWPM-specific detectors per provider");
    let report = Scan::new(bench::scan_config()).run().expect("scan");
    let t6 = report.table6();
    let mut table = TextTable::new("Table 6 — OpenWPM-specific probes by provider");
    table.header(&["provider", "sites", "per property", "paper @100K"]);
    let paper: &[(&str, &str)] = &[
        ("cheqzone.com", "331 (jsInstruments)"),
        ("googlesyndication.com", "14"),
        ("google.com", "9"),
        ("adzouk1tag.com", "2"),
    ];
    for (provider, props) in &t6 {
        let sites: u32 = *props.values().max().unwrap_or(&0);
        let breakdown = props
            .iter()
            .map(|(p, n)| format!("{p}={n}"))
            .collect::<Vec<_>>()
            .join(", ");
        let target = paper
            .iter()
            .find(|(d, _)| d == provider)
            .map(|(_, t)| *t)
            .unwrap_or("-");
        table.row(&[provider.clone(), sites.to_string(), breakdown, target.to_string()]);
    }
    println!("{}", table.render());
    let total: u32 = t6
        .values()
        .map(|props| *props.values().max().unwrap_or(&0))
        .sum();
    println!(
        "total sites probing OpenWPM-specific properties: {total} (paper: 356 at 100K, scaled \
         target ≈ {})",
        bench::scale_target(356)
    );
    println!("{}", gullible::report::coverage_note(&report.completion));
    bench::finish("table06", Some(&report.coverage_line()));
}
