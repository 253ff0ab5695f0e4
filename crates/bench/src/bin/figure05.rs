//! Fig. 5 — common categories of sites with detectors.

#![deny(deprecated)]

use gullible::report::TextTable;
use gullible::Scan;

fn main() {
    let _ctx = bench::banner("Figure 5: categories of detector sites");
    let report = Scan::new(bench::scan_config()).run().expect("scan");
    let (first, third) = report.category_tallies();
    let total_first: u32 = first.values().sum();
    let total_third: u32 = third.values().sum();
    let mut table = TextTable::new("Figure 5 — category shares of detector sites");
    table.header(&["category", "third-party %", "first-party %", "paper (3rd / 1st)"]);
    let paper: &[(&str, &str)] = &[
        ("News", "18.4% / 5%"),
        ("Technology", "9% / -"),
        ("Business", "7% / -"),
        ("Shopping", "5% / 16.4%"),
        ("Finance", "3% / 8%"),
        ("Travel", "2% / 7%"),
    ];
    let mut cats: Vec<&str> = third.keys().chain(first.keys()).copied().collect();
    cats.sort();
    cats.dedup();
    let mut rows: Vec<(&str, f64, f64)> = cats
        .iter()
        .map(|c| {
            let t = *third.get(c).unwrap_or(&0) as f64 * 100.0 / total_third.max(1) as f64;
            let f = *first.get(c).unwrap_or(&0) as f64 * 100.0 / total_first.max(1) as f64;
            (*c, t, f)
        })
        .collect();
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    for (cat, t, f) in rows {
        let p = paper.iter().find(|(c, _)| *c == cat).map(|(_, p)| *p).unwrap_or("-");
        table.row(&[cat.to_string(), format!("{t:.1}%"), format!("{f:.1}%"), p.to_string()]);
    }
    println!("{}", table.render());
    println!(
        "News leads third-party inclusions; Shopping leads first-party (the rank switch of \
         Sec. 4.3)."
    );
    println!("{}", gullible::report::coverage_note(&report.completion));
    bench::finish("figure05", Some(&report.coverage_line()));
}
