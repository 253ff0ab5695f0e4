//! Table 14 / Appx. C — Firefox-release lag of OpenWPM.

#![deny(deprecated)]

use gullible::literature::{days_from_civil, firefox_lag, FIREFOX_TIMELINE};
use gullible::report::TextTable;

fn main() {
    let _ctx = bench::banner("Table 14: migration to newer Firefox releases");
    let mut table = TextTable::new("Table 14 — Firefox / OpenWPM release timeline");
    table.header(&["Firefox", "release date", "OpenWPM", "integration date"]);
    for r in FIREFOX_TIMELINE {
        table.row(&[
            r.firefox.to_string(),
            format!("{:04}-{:02}-{:02}", r.ff_date.0, r.ff_date.1, r.ff_date.2),
            r.openwpm.unwrap_or("-").to_string(),
            r.integration_date
                .map(|(y, m, d)| format!("{y:04}-{m:02}-{d:02}"))
                .unwrap_or_else(|| "-".to_string()),
        ]);
    }
    println!("{}", table.render());
    let lag = firefox_lag();
    println!(
        "window: {} days (paper: 780); OpenWPM shipped an outdated Firefox on {} days = {:.0}% \
         (paper: 540 days = 69%)",
        lag.window_days,
        lag.outdated_days,
        lag.outdated_fraction() * 100.0
    );
    let _ = days_from_civil(2022, 7, 23);
    bench::finish("table14", None);
}
