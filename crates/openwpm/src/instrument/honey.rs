//! Honey properties (paper Sec. 4.1.3).
//!
//! The dynamic analysis cannot tell a targeted probe of the fingerprint
//! surface from a blanket property iteration (generic fingerprinting). The
//! paper's novel fix: decorate `navigator` and `window` with
//! randomly-named *honey* properties. A script that touches (nearly) all of
//! them is an iterator; its fingerprint-surface accesses are then
//! classified "inconclusive" rather than "detector" unless it also probes
//! `navigator.webdriver` deliberately.

use std::sync::Arc;

use browser::{Page, RealmWindow};
use jsengine::{Property, Slot, Value};

use crate::instrument::StoreHandle;
use crate::records::{JsCallRecord, JsOperation};

/// Marker prefix used in the record store for honey accesses.
pub const HONEY_SYMBOL_PREFIX: &str = "honey:";

/// Deterministic random-looking name generator (xorshift over the seed).
fn honey_name(seed: u64, i: u32) -> String {
    let mut x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    let alphabet = b"abcdefghijklmnopqrstuvwxyz";
    let mut name = String::from("_");
    for k in 0..8 {
        name.push(alphabet[((x >> (k * 7)) % 26) as usize] as char);
    }
    name
}

/// Install `count` honey properties on `navigator` and `window` of the top
/// realm. Returns the installed names (the analysis needs them to compute
/// per-script honey-hit ratios).
pub fn install(page: &mut Page, store: StoreHandle, seed: u64, count: u32) -> Vec<String> {
    let top = page.top;
    install_on_realm(page, top, store, seed, count)
}

fn install_on_realm(
    page: &mut Page,
    rw: RealmWindow,
    store: StoreHandle,
    seed: u64,
    count: u32,
) -> Vec<String> {
    let mut names = Vec::new();
    let it = &mut page.interp;
    for i in 0..count {
        let name = honey_name(seed, i);
        let key: Arc<str> = Arc::from(name.as_str());
        for (target, scope) in [(rw.navigator, "navigator"), (rw.window, "window")] {
            let store = store.clone();
            let key_in_getter = key.clone();
            let getter = it.alloc_native_fn(&name, move |it, _this, _args| {
                let script = it
                    .stack
                    .last()
                    .map(|f| f.script.to_string())
                    .unwrap_or_else(|| "unknown".into());
                store.borrow_mut().js_calls.push(JsCallRecord {
                    symbol: format!("{HONEY_SYMBOL_PREFIX}{scope}.{key_in_getter}"),
                    operation: JsOperation::Get,
                    value: String::new(),
                    script_url: script,
                    page_url: String::new(),
                    time_ms: it.now_ms,
                });
                Ok(Value::Undefined)
            });
            // Each page draws its own names: keep them out of the
            // process-wide atom interner.
            it.heap.get_mut(target).props.insert_local(
                key.clone(),
                Property {
                    slot: Slot::Accessor { get: Some(getter), set: None },
                    enumerable: true,
                    writable: true,
                },
            );
        }
        names.push(name);
    }
    names
}

/// Honey-access statistics for one script.
#[derive(Clone, Debug, Default)]
pub struct HoneyHits {
    pub hits: usize,
    pub total: usize,
}

impl HoneyHits {
    /// A script touching ≥ 90% of honey properties is an iterator.
    pub fn is_iterator(&self) -> bool {
        self.total > 0 && self.hits * 10 >= self.total * 9
    }
}

/// Count how many of the honey names `script` accessed in `store`.
pub fn hits_for_script(
    store: &crate::records::RecordStore,
    names: &[String],
    script: &str,
) -> HoneyHits {
    let mut hit_names: Vec<&str> = store
        .js_calls
        .iter()
        .filter(|r| r.script_url == script && r.symbol.starts_with(HONEY_SYMBOL_PREFIX))
        .map(|r| r.symbol.rsplit('.').next().unwrap_or(""))
        .collect();
    hit_names.sort_unstable();
    hit_names.dedup();
    HoneyHits { hits: hit_names.len(), total: names.len() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use browser::{FingerprintProfile, Os, Page, RunMode};
    use netsim::Url;
    use std::cell::RefCell;

    fn setup(count: u32) -> (Page, StoreHandle, Vec<String>) {
        let mut page = Page::new(
            FingerprintProfile::openwpm(Os::Ubuntu1804, RunMode::Regular),
            Url::parse("https://site.test/").unwrap(),
            None,
        );
        let store: StoreHandle = std::rc::Rc::new(RefCell::new(crate::records::RecordStore::new()));
        let names = install(&mut page, store.clone(), 99, count);
        (page, store, names)
    }

    #[test]
    fn names_are_deterministic_and_unique() {
        let a: Vec<String> = (0..20).map(|i| honey_name(5, i)).collect();
        let b: Vec<String> = (0..20).map(|i| honey_name(5, i)).collect();
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len());
    }

    #[test]
    fn iterator_script_trips_all_honey_properties() {
        let (mut page, store, names) = setup(8);
        page.run_script((
            "var sink = ''; for (var k in navigator) { sink += '' + navigator[k]; }",
            "https://fp.test/iterate.js",
        ))
        .unwrap();
        let hits = hits_for_script(&store.borrow(), &names, "https://fp.test/iterate.js");
        assert_eq!(hits.hits, 8, "iterator must touch every honey property");
        assert!(hits.is_iterator());
    }

    #[test]
    fn targeted_probe_misses_honey_properties() {
        let (mut page, store, names) = setup(8);
        page.run_script(("navigator.webdriver;", "https://bd.test/detect.js")).unwrap();
        let hits = hits_for_script(&store.borrow(), &names, "https://bd.test/detect.js");
        assert_eq!(hits.hits, 0);
        assert!(!hits.is_iterator());
    }

    /// Honey names are page-local keys, never interned; scripts see them
    /// exactly as they see interned properties. The twin page re-inserts
    /// the same properties, in the same order, through the interning path.
    #[test]
    fn local_honey_keys_behave_like_interned_properties() {
        let (mut local, _store, names) = setup(3);
        let (mut twin, _twin_store, _) = setup(3);
        for target in [twin.top.navigator, twin.top.window] {
            let props = &mut twin.interp.heap.get_mut(target).props;
            let honey: Vec<Property> = names.iter().map(|n| props.get(n).unwrap().clone()).collect();
            for (name, prop) in names.iter().zip(honey) {
                assert!(props.remove(name));
                props.insert(Arc::from(name.as_str()), prop);
            }
        }
        let script = format!(
            "var n = '{}', m = '{}', out = [];
             function keys(o) {{
               var k = Object.keys(o);
               return k.indexOf(n) + '/' + k.indexOf(m) + '/' + k.length;
             }}
             out.push(n in navigator); out.push(navigator.hasOwnProperty(n)); out.push(keys(navigator));
             navigator[n] = 5; out.push(typeof navigator[n]);
             Object.defineProperty(navigator, n, {{ value: 7, enumerable: true, writable: true }});
             out.push(navigator[n]); out.push(keys(navigator));
             navigator[n] = 8; out.push(navigator[n]);
             out.push(delete navigator[n]); out.push(n in navigator); out.push(navigator.hasOwnProperty(n));
             out.push(keys(navigator));
             navigator[n] = 9; out.push(keys(navigator));
             delete window[m]; out.push(m in window); out.push(window.hasOwnProperty(n));
             out.join('|')",
            names[0], names[1]
        );
        let run = |page: &mut Page| page.run_script((script.as_str(), "https://fp.test/probe.js")).unwrap();
        let got = run(&mut local);
        assert_eq!(got, run(&mut twin));
        let want = "true|true|0/1/3|undefined|7|0/1/3|8|true|false|false|-1/0/2|2/0/3|false|true";
        assert_eq!(got, Value::str(want));
    }

    #[test]
    fn honey_properties_are_invisible_values() {
        let (mut page, _store, names) = setup(2);
        let v = page
            .run_script((format!("navigator.{} === undefined", names[0]), "p.js"))
            .unwrap();
        assert_eq!(v, Value::Bool(true));
    }
}
