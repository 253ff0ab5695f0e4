//! Table 4 — WebGL vendor and screen.avail{Top,Left} for Ubuntu modes.

#![deny(deprecated)]

use browser::{FingerprintProfile, Os, RunMode};
use gullible::report::TextTable;

fn main() {
    let _ctx = bench::banner("Table 4: Ubuntu no-display deviations");
    let mut table = TextTable::new("Table 4 — selected deviations, Ubuntu modes");
    table.header(&["Mode", "WebGL vendor/renderer", "avail{Left, Top}"]);
    for mode in [RunMode::Regular, RunMode::Headless, RunMode::Xvfb, RunMode::Docker] {
        let p = FingerprintProfile::openwpm(Os::Ubuntu1804, mode);
        let webgl = match &p.webgl {
            None => "Null".to_string(),
            Some(w) => format!("{} {}", w.vendor, w.renderer),
        };
        table.row(&[
            mode.name().to_string(),
            webgl,
            format!("{}, {}", p.avail_left, p.avail_top),
        ]);
    }
    println!("{}", table.render());
    println!(
        "paper: RM 'AMD AMD TAHITI' 27,72 | HM Null 0,0 | Xvfb Mesa/llvmpipe 0,0 | Docker \
         'VMware, Inc. llvmpipe' 27,72."
    );
    bench::finish("table04", None);
}
