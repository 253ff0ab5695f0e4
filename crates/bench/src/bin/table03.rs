//! Table 3 — screen properties for the OpenWPM run-mode configurations.

#![deny(deprecated)]

use browser::{FingerprintProfile, Os, RunMode};
use gullible::report::TextTable;

fn main() {
    let _ctx = bench::banner("Table 3: screen geometry per configuration");
    let mut table = TextTable::new("Table 3 — screen properties");
    table.header(&["OS", "Mode", "Resolution", "Window", "X", "Y", "Offset (x,y)"]);
    let rows: &[(Os, RunMode)] = &[
        (Os::MacOs1015, RunMode::Regular),
        (Os::MacOs1015, RunMode::Headless),
        (Os::Ubuntu1804, RunMode::Regular),
        (Os::Ubuntu1804, RunMode::Headless),
        (Os::Ubuntu1804, RunMode::Xvfb),
        (Os::Ubuntu1804, RunMode::Docker),
    ];
    for (os, mode) in rows {
        let p = FingerprintProfile::openwpm(*os, *mode);
        let g = p.geometry;
        table.row(&[
            os.name().to_string(),
            mode.name().to_string(),
            format!("{} x {}", g.screen_width, g.screen_height),
            format!("{} x {}", g.window_width, g.window_height),
            g.screen_x.to_string(),
            g.screen_y.to_string(),
            format!("{}, {}", g.instance_offset.0, g.instance_offset.1),
        ]);
    }
    println!("{}", table.render());
    println!("paper Table 3 values are reproduced verbatim by the profile model.");
    bench::finish("table03", None);
}
