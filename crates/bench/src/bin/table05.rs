//! Table 5 — number of websites with Selenium detectors (static / dynamic /
//! union, identified vs without false positives).

#![deny(deprecated)]

use gullible::report::{pct, thousands, TextTable};
use gullible::Scan;

fn main() {
    let _ctx = bench::banner("Table 5: sites with Selenium detectors");
    let report = Scan::new(bench::scan_config()).run().expect("scan");
    let [(si, st), (di, dt), (ui, ut)] = report.table5();
    let n = report.n_sites as u64;
    let mut table = TextTable::new("Table 5 — sites with Selenium detectors (front + subpages)");
    table.header(&["# sites", "static", "dynamic", "union", "paper (static/dynamic/union)"]);
    table.row(&[
        "identified".into(),
        thousands(si as u64),
        thousands(di as u64),
        thousands(ui as u64),
        format!("{}/{}/{} at 100K", 32_694, 19_139, 38_264),
    ]);
    table.row(&[
        "w/o FPs / inconclusive".into(),
        thousands(st as u64),
        thousands(dt as u64),
        thousands(ut as u64),
        format!("{}/{}/{} at 100K", 15_838, 16_762, 18_714),
    ]);
    println!("{}", table.render());
    let (scripts_total, scripts_unique) = report.script_stats();
    println!(
        "scripts collected: {} ({} unique; paper: 1,535,306 unique at 100K)",
        thousands(scripts_total),
        thousands(scripts_unique)
    );
    println!(
        "union w/o FPs = {} of {} sites = {} (paper: 18.7%); scaled paper target ≈ {}",
        thousands(ut as u64),
        thousands(n),
        pct(ut as u64, n),
        thousands(bench::scale_target(18_714)),
    );
    println!("{}", gullible::report::coverage_note(&report.completion));
    bench::finish("table05", Some(&report.coverage_line()));
}
