//! Fig. 2 — prototype pollution by the vanilla JS instrument.

#![deny(deprecated)]

use browser::{FingerprintProfile, Os, Page, RunMode};
use netsim::Url;
use openwpm::instrument::vanilla;
use openwpm::RecordStore;
use std::cell::RefCell;
use std::rc::Rc;

fn own_keys(page: &mut Page, expr: &str) -> String {
    page.run_script((
        format!("Object.getOwnPropertyNames({expr}).sort().join(', ')"),
        "probe",
    ))
    .unwrap()
    .as_str()
    .unwrap()
    .to_string()
}

fn main() {
    let _ctx = bench::banner("Figure 2: prototype pollution");
    let url = Url::parse("https://site.test/").unwrap();
    let mut clean = Page::new(
        FingerprintProfile::openwpm(Os::Ubuntu1804, RunMode::Regular),
        url.clone(),
        None,
    );
    println!("(A) original object:");
    println!("  Document.prototype own keys: {}", own_keys(&mut clean, "Document.prototype"));
    println!("  Node.prototype own keys:     {}", own_keys(&mut clean, "Node.prototype"));
    println!(
        "  EventTarget.prototype keys:  {}",
        own_keys(&mut clean, "EventTarget.prototype")
    );

    let mut inst = Page::new(
        FingerprintProfile::openwpm(Os::Ubuntu1804, RunMode::Regular),
        url,
        None,
    );
    vanilla::install(&mut inst, 7, Rc::new(RefCell::new(RecordStore::new())), "p".into());
    println!("\n(B) polluted by the instrumentation:");
    println!("  Document.prototype own keys: {}", own_keys(&mut inst, "Document.prototype"));
    println!("  Node.prototype own keys:     {}", own_keys(&mut inst, "Node.prototype"));
    println!(
        "  EventTarget.prototype keys:  {}",
        own_keys(&mut inst, "EventTarget.prototype")
    );
    println!(
        "\nancestor-prototype methods (appendChild, addEventListener, …) now appear as own \
         properties of the FIRST prototype — the distinguisher of paper Fig. 2."
    );
    bench::finish("figure02", None);
}
