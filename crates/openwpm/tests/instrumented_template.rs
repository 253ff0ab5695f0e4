//! Differential tests for the pre-instrumented realm template: a page
//! stamped from it and bound to its visit must be indistinguishable from a
//! scratch page that ran the vanilla instrument itself — to the
//! DOM-traversal template attack, to the recording attacks that learn the
//! event id, and in the interpreter counts the telemetry digest includes.

use std::cell::RefCell;
use std::rc::Rc;

use browser::{capture_template, diff, CspPolicy, FingerprintProfile, Os, Page, RunMode};
use detect::corpus::{self, Technique};
use jsengine::Engine;
use netsim::{ResourceType, Url};
use openwpm::instrument::vanilla::{self, InstrumentedTemplate};
use openwpm::instrument::{honey, watch, StoreHandle};
use openwpm::{Browser, BrowserConfig, RecordStore, VisitSpec};

const PAGE_URL: &str = "https://site042.example/shop";

fn profile() -> FingerprintProfile {
    FingerprintProfile::openwpm(Os::Ubuntu1804, RunMode::Regular)
}

fn store() -> StoreHandle {
    Rc::new(RefCell::new(RecordStore::new()))
}

/// The scanner's instrument stack after the vanilla instrument: property
/// watches, then ten honey properties named from the visit seed.
fn finish_scanner_install(page: &mut Page, seed: u64, store: &StoreHandle) {
    watch::install(page, store.clone(), PAGE_URL.into());
    honey::install(page, store.clone(), seed, 10);
}

/// A scanner page built from scratch with the per-page install.
fn scratch_page(seed: u64, store: &StoreHandle, engine: Option<Engine>) -> Page {
    let mut page = Page::new(profile(), Url::parse(PAGE_URL).unwrap(), None);
    if let Some(e) = engine {
        page.interp.engine = e;
        page.enable_profiling();
    }
    assert!(vanilla::install(&mut page, seed, store.clone(), PAGE_URL.into()));
    finish_scanner_install(&mut page, seed, store);
    page
}

/// The same scanner page stamped from the instrumented template.
fn template_page(
    tpl: &InstrumentedTemplate,
    seed: u64,
    store: &StoreHandle,
    engine: Option<Engine>,
) -> Page {
    let mut page = tpl.instantiate(Url::parse(PAGE_URL).unwrap(), None);
    if let Some(e) = engine {
        page.interp.engine = e;
        page.enable_profiling();
    }
    tpl.bind(&mut page, seed, store.clone(), PAGE_URL.into());
    finish_scanner_install(&mut page, seed, store);
    page
}

#[test]
fn template_page_is_observably_identical_to_per_page_install() {
    let tpl = InstrumentedTemplate::new(profile(), &vanilla::compile_instrument());
    let (s1, s2) = (store(), store());
    let mut scratch = scratch_page(7, &s1, None);
    let mut cloned = template_page(&tpl, 7, &s2, None);
    let d = diff(&capture_template(&mut scratch), &capture_template(&mut cloned));
    assert!(d.is_empty(), "template page deviates from the per-page install: {d:?}");
    // The traversal touched instrumented getters and honey properties:
    // both paths recorded exactly the same calls.
    assert!(!s1.borrow().js_calls.is_empty());
    let calls = |s: &StoreHandle| format!("{:?}", s.borrow().js_calls);
    assert_eq!(calls(&s1), calls(&s2));
}

/// Every detector and fingerprinter script of the corpus, as served from
/// a third party.
fn corpus_scripts() -> Vec<String> {
    let v = "https://bd.test/v";
    let mut scripts: Vec<String> =
        Technique::all().iter().map(|t| corpus::selenium_detector(*t, v)).collect();
    scripts.extend(
        Technique::all().iter().map(|t| corpus::openwpm_detector(corpus::OPENWPM_PROPS, *t, v)),
    );
    scripts.push(corpus::first_party_detector("/verdict"));
    scripts.push(corpus::iframe_probe_detector(v));
    scripts.push(corpus::fingerprint_iterator(v));
    scripts.push(corpus::canvas_fingerprinter(v));
    scripts
}

/// The digest counts per-page interpreter work (`jsengine.ops_per_visit`,
/// `calls_per_visit`, `max_call_depth`, `evals`) and the step budget sees
/// the install: both must match the per-page install, whichever engine
/// runs the page and whatever it runs — a small site script, then each
/// corpus detector and fingerprinter — as must the recorded JS calls and
/// the page's traffic.
#[test]
fn profile_and_step_count_match_per_page_install_on_both_engines() {
    let tpl = InstrumentedTemplate::new(profile(), &vanilla::compile_instrument());
    let site = "var n = 0; for (var i = 0; i < 20; i++) { n += navigator.userAgent.length; } \
                document.createElement('div'); eval('n + 1');";
    let inputs: Vec<String> = std::iter::once(site.to_string()).chain(corpus_scripts()).collect();
    let (mut with_calls, mut with_traffic) = (0, 0);
    for engine in [Engine::Tree, Engine::Vm] {
        for (i, src) in inputs.iter().enumerate() {
            let (s1, s2) = (store(), store());
            let mut scratch = scratch_page(11, &s1, Some(engine));
            let mut cloned = template_page(&tpl, 11, &s2, Some(engine));
            let steps = |p: &Page| p.interp.steps();
            assert_eq!(steps(&scratch), steps(&cloned), "{engine:?} #{i}: after install");
            let mut results = Vec::new();
            for page in [&mut scratch, &mut cloned] {
                let result = page.run_script((src.as_str(), "https://cdn.test/app.js"));
                results.push(format!("{result:?}"));
                page.advance(60_000);
            }
            assert_eq!(results[0], results[1], "{engine:?} #{i}: script results differ");
            assert_eq!(steps(&scratch), steps(&cloned), "{engine:?} #{i}: after visit");
            let (a, b) = (scratch.take_profile().unwrap(), cloned.take_profile().unwrap());
            assert!(a.ops > 0, "{engine:?} #{i}: {a:?}");
            if i == 0 {
                assert_eq!(a.evals, 1, "{engine:?}: {a:?}");
            }
            assert_eq!(a, b, "{engine:?} #{i}: interpreter profiles differ");
            let calls = |s: &StoreHandle| format!("{:?}", s.borrow().js_calls);
            assert_eq!(calls(&s1), calls(&s2), "{engine:?} #{i}: recorded JS calls differ");
            let traffic = |p: &Page| format!("{:?}", p.traffic());
            assert_eq!(traffic(&scratch), traffic(&cloned), "{engine:?} #{i}: traffic differs");
            with_calls += usize::from(!s1.borrow().js_calls.is_empty());
            with_traffic += usize::from(!scratch.traffic().is_empty());
        }
    }
    assert!(with_calls > 0, "the inputs must reach the instrument");
    assert!(with_traffic > 0, "the inputs must reach the network");
}

/// Listing 2's recording attacks learn the event id from a live dispatch;
/// on a template page that must be the visit's own id.
#[test]
fn recording_attacks_learn_the_per_visit_event_id() {
    let tpl = InstrumentedTemplate::new(profile(), &vanilla::compile_instrument());
    let both = |seed: u64| {
        let (s1, s2) = (store(), store());
        [
            ("scratch", scratch_page(seed, &s1, None), s1),
            ("template", template_page(&tpl, seed, &s2, None), s2),
        ]
    };
    for seed in [3, 4] {
        let id = vanilla::event_id(seed);
        for (path, mut page, _) in both(seed) {
            page.run_script((corpus::dispatcher_hijack_attack(), "https://site042.example/a.js"))
                .unwrap();
            let grabbed = page.run_script(("window.__owpmBlockedId", "p")).unwrap();
            assert_eq!(grabbed.as_str(), Some(id.as_str()), "{path}: hijack");
        }
        // Fake data: forged records land through the grabbed id.
        for (path, mut page, s) in both(seed) {
            page.run_script((
                corpus::fake_data_injection_attack("https://innocent.example/app.js"),
                "https://site042.example/attack.js",
            ))
            .unwrap();
            let forged = s
                .borrow()
                .js_calls
                .iter()
                .filter(|r| r.symbol == "window.navigator.injectedFakeSymbol")
                .count();
            assert_eq!(forged, 1, "{path}: fake data must land exactly once");
        }
    }
}

/// A browser serves both templates: CSP-strict pages still take the
/// per-page install and fail visibly, permissive ones come pre-instrumented.
#[test]
fn browser_keeps_csp_blocked_pages_uninstrumented() {
    let mut browser = Browser::new(BrowserConfig::scanner(5));
    let spec = |csp: Option<CspPolicy>| VisitSpec {
        url: PAGE_URL.into(),
        csp,
        ..VisitSpec::default()
    };
    for round in 0..2 {
        let (mut page, stats) = browser.open_page(&spec(None)).unwrap();
        assert!(stats.instrumented, "round {round}");
        let v = page.run_script(("typeof window.getInstrumentJS", "p")).unwrap();
        assert_eq!(v.as_str().unwrap(), "function");

        let (mut page, stats) =
            browser.open_page(&spec(Some(CspPolicy::strict("/csp-report")))).unwrap();
        assert!(!stats.instrumented, "round {round}");
        let reports: Vec<_> = page
            .traffic()
            .into_iter()
            .filter(|r| r.resource_type == ResourceType::CspReport)
            .collect();
        assert_eq!(reports.len(), 1, "round {round}: exactly one csp_report");
        let v = page.run_script(("typeof window.getInstrumentJS", "p")).unwrap();
        assert_eq!(v.as_str().unwrap(), "undefined", "round {round}: window stays clean");
        let v = page
            .run_script(("Object.getOwnPropertyNames(Document.prototype).includes('appendChild')", "p"))
            .unwrap();
        assert!(!v.truthy(), "round {round}: no prototype pollution");
    }
}

/// Changing the browser's instance rebuilds its templates: the page then
/// presents the new instance's window offsets.
#[test]
fn browser_rebuilds_templates_when_instance_changes() {
    let mut browser = Browser::new(BrowserConfig::scanner(5));
    let spec = VisitSpec { url: PAGE_URL.into(), ..VisitSpec::default() };
    let probe = ("window.screenX + ',' + window.screenY", "p");
    for instance in [0, 3, 0] {
        browser.instance = instance;
        let (mut page, _) = browser.open_page(&spec).unwrap();
        let mut want = Page::new(profile().with_instance(instance), Url::parse(PAGE_URL).unwrap(), None);
        assert_eq!(
            page.run_script(probe).unwrap(),
            want.run_script(probe).unwrap(),
            "instance {instance}"
        );
    }
}

/// A freshly built vanilla browser has already looked its instrument up
/// in the compile cache, and building its instrumented template on the
/// first visit looks it up no second time. So every browser a crawl
/// (re)starts makes exactly one lookup for the instrument, and
/// `cache.compile.hit` does not depend on whether a restarted browser
/// visited anything.
#[test]
fn a_vanilla_browser_looks_up_its_instrument_once_before_any_visit() {
    let ctx = jsengine::JsCtx::new();
    let _g = ctx.enter();
    let lookups = |cache: &jsengine::CompileCache| {
        let s = cache.stats();
        (s.hits + s.misses, s.entries)
    };
    let browser = Browser::new(BrowserConfig::scanner(5));
    assert_eq!(lookups(&ctx.cache), (1, 1), "one lookup, for the instrument");
    let mut browser = browser.with_instance(2);
    let spec = VisitSpec { url: PAGE_URL.into(), ..VisitSpec::default() };
    browser.open_page(&spec).unwrap();
    assert_eq!(lookups(&ctx.cache), (1, 1), "the template reuses the compiled instrument");
}
