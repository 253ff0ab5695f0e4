//! Table 7 — domains hosting third-party detector scripts.

#![deny(deprecated)]

use gullible::report::{thousands, TextTable};
use gullible::Scan;

fn main() {
    let _ctx = bench::banner("Table 7: third-party detector hosting domains");
    let report = Scan::new(bench::scan_config()).run().expect("scan");
    let t7 = report.table7();
    let total: u32 = t7.iter().map(|(_, n)| n).sum();
    let mut table = TextTable::new("Table 7 — third-party hosting domains (1 inclusion/site)");
    table.header(&["#", "hosting domain", "inclusions", "%", "paper %"]);
    let paper: &[(&str, &str)] = &[
        ("yandex.ru", "18.04%"),
        ("adsafeprotected.com", "10.83%"),
        ("moatads.com", "10.15%"),
        ("webgains.io", "9.81%"),
        ("crazyegg.com", "7.28%"),
        ("intercomcdn.com", "4.98%"),
        ("teads.tv", "4.00%"),
        ("jsdelivr.net", "1.98%"),
        ("mxcdn.net", "1.95%"),
        ("mgid.com", "1.89%"),
    ];
    for (i, (domain, count)) in t7.iter().take(10).enumerate() {
        let paper_pct = paper.iter().find(|(d, _)| d == domain).map(|(_, p)| *p).unwrap_or("-");
        table.row(&[
            (i + 1).to_string(),
            domain.clone(),
            thousands(*count as u64),
            format!("{:.2}%", *count as f64 * 100.0 / total as f64),
            paper_pct.to_string(),
        ]);
    }
    let tail: u32 = t7.iter().skip(10).map(|(_, n)| n).sum();
    table.row(&[
        "11+".into(),
        format!("remaining {} domains", t7.len().saturating_sub(10)),
        thousands(tail as u64),
        format!("{:.1}%", tail as f64 * 100.0 / total as f64),
        "29.1%".into(),
    ]);
    println!("{}", table.render());
    let (first, third) = report.inclusion_totals();
    println!(
        "first-party detector scripts: {} | third-party inclusions: {} (paper: 3,867 / 21,325 \
         at 100K)",
        thousands(first as u64),
        thousands(third as u64)
    );
    println!("{}", gullible::report::coverage_note(&report.completion));
    bench::finish("table07", Some(&report.coverage_line()));
}
