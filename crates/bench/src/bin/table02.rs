//! Table 2 — deviating properties of each OpenWPM setup vs stock Firefox.

#![deny(deprecated)]

use browser::{Os, RunMode};
use gullible::report::TextTable;
use gullible::surface::{surface, ClientKind};

fn main() {
    let _ctx = bench::banner("Table 2: fingerprint surface per OS × run mode");
    let setups: &[(Os, RunMode)] = &[
        (Os::MacOs1015, RunMode::Regular),
        (Os::MacOs1015, RunMode::Headless),
        (Os::Ubuntu1804, RunMode::Regular),
        (Os::Ubuntu1804, RunMode::Headless),
        (Os::Ubuntu1804, RunMode::Xvfb),
        (Os::Ubuntu1804, RunMode::Docker),
    ];
    let mut table = TextTable::new("Table 2 — deviating properties (OpenWPM vs stock Firefox)");
    let mut header = vec!["property".to_string()];
    for (os, mode) in setups {
        header.push(format!("{}/{}", os.name(), mode.name()));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    table.header(&header_refs);

    let reports: Vec<_> =
        setups.iter().map(|(os, mode)| surface(ClientKind::OpenWpm, *os, *mode)).collect();
    let tick = |b: bool| if b { "yes" } else { "-" }.to_string();
    let mut push = |label: &str, f: &dyn Fn(&gullible::SurfaceReport) -> String| {
        let mut row = vec![label.to_string()];
        row.extend(reports.iter().map(f));
        table.row(&row);
    };
    push("navigator.webdriver is true", &|r| tick(r.webdriver_true()));
    push("screen dimension prop.", &|r| tick(r.screen_dimension_deviates()));
    push("screen position prop.", &|r| tick(r.screen_position_deviates()));
    push("font enumeration", &|r| tick(r.font_enumeration_deviates()));
    push("timezone is 0", &|r| tick(r.timezone_zero()));
    push("navigator.languages prop.", &|r| {
        let n = r.language_prop_count();
        if n == 0 { "-".into() } else { n.to_string() }
    });
    push("deviating WebGL prop.", &|r| {
        let n = r.webgl_deviations();
        if n == 0 { "-".into() } else { n.to_string() }
    });

    // With instrumentation: deltas added by the vanilla JS instrument.
    let mut tamper_row = vec!["+ tampering artefacts (instrumented)".to_string()];
    let mut custom_row = vec!["+ added custom functions (instrumented)".to_string()];
    for (os, mode) in setups {
        let plain = surface(ClientKind::OpenWpm, *os, *mode);
        let inst = surface(ClientKind::OpenWpmInstrumented, *os, *mode);
        tamper_row.push(format!(
            "+{}",
            inst.tampering_deviations().saturating_sub(plain.tampering_deviations())
        ));
        custom_row.push(format!("+{}", inst.added_custom_functions()));
    }
    table.row(&tamper_row);
    table.row(&custom_row);
    println!("{}", table.render());
    println!(
        "paper: webdriver/screen rows deviate everywhere; headless WebGL ≈ 2037 (macOS) / 2061 \
         (Ubuntu); Xvfb 18; Docker 27; instrumentation adds +1 custom window function."
    );
    bench::finish("table02", None);
}
