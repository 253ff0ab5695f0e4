//! Table 11 — studies measuring webdriver-property access on front pages.

#![deny(deprecated)]

use gullible::report::{pct, thousands, TextTable};
use gullible::Scan;

fn main() {
    let _ctx = bench::banner("Table 11: webdriver probing on front pages vs prior work");
    let report = Scan::new(bench::scan_config()).run().expect("scan");
    let front_static = report.count(|front, _| front.static_true);
    let front_dynamic = report.count(|front, _| front.dynamic_true);
    let front_union = report.count(|front, _| front.union_true());
    let n = report.n_sites as u64;
    let mut table = TextTable::new("Table 11 — front-page webdriver detectors across studies");
    table.header(&["study", "when", "analysis", "corpus", "# sites", "%"]);
    table.row_str(&["Jueckstock & Kapravelos [46]", "2019-10", "dynamic", "Alexa 50K", "2,756", "5.51%"]);
    table.row_str(&["Krumnow et al. (the paper)", "2020-07", "combined", "Tranco 100K", "13,989", "13.99%"]);
    table.row_str(&["  — static", "", "static", "", "11,957", "11.96%"]);
    table.row_str(&["  — dynamic", "", "dynamic", "", "12,194", "12.19%"]);
    table.row(&[
        "this reproduction".into(),
        "now".into(),
        "combined".into(),
        format!("synthetic {}", thousands(n)),
        thousands(front_union as u64),
        pct(front_union as u64, n),
    ]);
    table.row(&[
        "  — static".into(),
        "".into(),
        "static".into(),
        "".into(),
        thousands(front_static as u64),
        pct(front_static as u64, n),
    ]);
    table.row(&[
        "  — dynamic".into(),
        "".into(),
        "dynamic".into(),
        "".into(),
        thousands(front_dynamic as u64),
        pct(front_dynamic as u64, n),
    ]);
    println!("{}", table.render());
    println!("{}", gullible::report::coverage_note(&report.completion));
    bench::finish("table11", Some(&report.coverage_line()));
}
