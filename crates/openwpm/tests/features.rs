//! Integration tests for framework features: instrument vintages (RQ2),
//! hover-gated detectors, crash recovery, and multi-frame instrumentation.

use std::cell::RefCell;
use std::rc::Rc;

use browser::{FingerprintProfile, Os, Page, RunMode};
use netsim::Url;
use openwpm::instrument::vanilla::{self, InstrumentVintage};
use openwpm::{Browser, BrowserConfig, PageScript, RecordStore, SiteResponse, VisitSpec};

fn fresh_page() -> Page {
    Page::new(
        FingerprintProfile::openwpm(Os::Ubuntu1804, RunMode::Regular),
        Url::parse("https://site.test/").unwrap(),
        None,
    )
}

#[test]
fn vintage_0_10_leaves_two_window_functions() {
    // Paper Sec. 3.2: "In the oldest OpenWPM version (0.10.0), we find that
    // the JavaScript instrument adds two properties instead of one to the
    // window object (jsInstruments and instrumentFingerprintingApis)."
    let mut page = fresh_page();
    let store = Rc::new(RefCell::new(RecordStore::new()));
    assert!(vanilla::install_vintage(
        &mut page,
        3,
        store,
        "p".into(),
        InstrumentVintage::V0_10
    ));
    let v = page
        .run_script((
            "[typeof window.jsInstruments, typeof window.instrumentFingerprintingApis, \
             typeof window.getInstrumentJS].join(',')",
            "probe",
        ))
        .unwrap();
    assert_eq!(v.as_str().unwrap(), "function,function,undefined");
}

#[test]
fn vintage_modern_leaves_one_window_function() {
    let mut page = fresh_page();
    let store = Rc::new(RefCell::new(RecordStore::new()));
    assert!(vanilla::install_vintage(&mut page, 3, store, "p".into(), InstrumentVintage::Modern));
    let v = page
        .run_script((
            "[typeof window.getInstrumentJS, typeof window.jsInstruments].join(',')",
            "probe",
        ))
        .unwrap();
    assert_eq!(v.as_str().unwrap(), "function,undefined");
}

#[test]
fn vintages_share_the_wrapping_surface() {
    // RQ2: fingerprint surfaces across versions largely overlap — the
    // toString leak is identical in both vintages.
    for vintage in [InstrumentVintage::Modern, InstrumentVintage::V0_10] {
        let mut page = fresh_page();
        let store = Rc::new(RefCell::new(RecordStore::new()));
        vanilla::install_vintage(&mut page, 3, store.clone(), "p".into(), vintage);
        let ts = page.run_script(("document.createElement.toString()", "probe")).unwrap();
        assert!(
            !ts.as_str().unwrap().contains("[native code]"),
            "{vintage:?} must show the wrapper"
        );
        page.run_script(("navigator.userAgent;", "probe2")).unwrap();
        assert!(store.borrow().js_calls.iter().any(|r| r.symbol.ends_with(".userAgent")));
    }
}

#[test]
fn interaction_triggers_hover_gated_detectors() {
    let detector = detect::corpus::selenium_detector(
        detect::Technique::HoverGated,
        "https://bd.test/v",
    );
    let spec = VisitSpec {
        url: "https://site.test/".into(),
        scripts: vec![PageScript {
            url: "https://bd.test/gated.js".into(),
            source: detector.into(),
            content_type: "text/javascript".into(),
        }],
        dwell_override_s: Some(2),
        ..Default::default()
    };
    // Without interaction: no verdict beacon.
    let mut plain = Browser::new(BrowserConfig::vanilla(5));
    let mut beacons = 0;
        let _ = plain.visit(&spec, |traffic| {
        beacons = traffic
            .iter()
            .filter(|r| r.resource_type == netsim::ResourceType::Beacon)
            .count();
        SiteResponse::default()
    });
    assert_eq!(beacons, 0, "hover-gated code must stay dormant without interaction");

    // With interaction, here a hover dispatched by a page script between
    // load and dwell: the detector fires (and flags the client).
    let mut interacting = Browser::new(BrowserConfig::vanilla(5));
    let (mut page, _) = interacting.open_page(&spec).expect("page opens");
    page.run_script((spec.scripts[0].source.as_ref(), "gated.js")).expect("detector loads");
    page.run_script(("document.dispatchEvent(new CustomEvent('mouseover'));", "hover.js"))
        .expect("hover dispatches");
    page.advance(1_000);
    let verdict = page
        .traffic()
        .into_iter()
        .find(|r| r.resource_type == netsim::ResourceType::Beacon)
        .map(|r| r.url.query);
    assert_eq!(verdict.as_deref(), Some("bot=1"), "interaction must execute the gated probe");
}

#[test]
fn multiple_sequential_frames_all_covered_by_stealth() {
    let mut b = Browser::new(BrowserConfig::stealth(6));
    let spec = VisitSpec {
        url: "https://site.test/".into(),
        scripts: vec![PageScript {
            url: "https://site.test/frames.js".into(),
            source: r#"
                for (var i = 0; i < 5; i++) {
                    var f = document.createElement('iframe');
                    document.body.appendChild(f);
                    f.contentWindow.navigator.userAgent;
                    f.contentWindow.screen.availTop;
                }
            "#
            .into(),
            content_type: "text/javascript".into(),
        }],
        dwell_override_s: Some(1),
        ..Default::default()
    };
        let _ = b.visit(&spec, |_| SiteResponse::default());
    let store = b.take_store();
    assert_eq!(store.calls_to(".userAgent").count(), 5);
    assert_eq!(store.calls_to(".availTop").count(), 5);
}

#[test]
fn vanilla_misses_all_sequential_immediate_frame_accesses() {
    let mut b = Browser::new(BrowserConfig::vanilla(6));
    let spec = VisitSpec {
        url: "https://site.test/".into(),
        scripts: vec![PageScript {
            url: "https://site.test/frames.js".into(),
            source: r#"
                for (var i = 0; i < 5; i++) {
                    var f = document.createElement('iframe');
                    document.body.appendChild(f);
                    f.contentWindow.navigator.userAgent;
                }
            "#
            .into(),
            content_type: "text/javascript".into(),
        }],
        dwell_override_s: Some(1),
        ..Default::default()
    };
        let _ = b.visit(&spec, |_| SiteResponse::default());
    let store = b.take_store();
    assert_eq!(
        store
            .calls_to(".userAgent")
            .filter(|r| r.script_url.contains("frames.js"))
            .count(),
        0,
        "all immediate in-frame accesses evade the racy injection"
    );
}

#[test]
fn canvas_fingerprinting_apis_are_instrumented_by_both_flavours() {
    let script = r#"
        var c = document.createElement('canvas');
        var gl = c.getContext('webgl');
        var hash = c.toDataURL();
        window.__cfp = hash;
    "#;
    for (cfg, label) in [(BrowserConfig::vanilla(8), "vanilla"), (BrowserConfig::stealth(8), "stealth")] {
        let mut b = Browser::new(cfg);
        let spec = VisitSpec {
            url: "https://site.test/".into(),
            scripts: vec![PageScript {
                url: "https://fp.test/canvas.js".into(),
                source: script.into(),
                content_type: "text/javascript".into(),
            }],
            dwell_override_s: Some(1),
            ..Default::default()
        };
                let _ = b.visit(&spec, |_| SiteResponse::default());
        let store = b.take_store();
        assert!(
            store.calls_to(".getContext").count() >= 1,
            "{label}: getContext unrecorded"
        );
        assert!(
            store.calls_to(".toDataURL").count() >= 1,
            "{label}: toDataURL unrecorded"
        );
    }
}

#[test]
fn canvas_hash_is_stable_per_profile_and_differs_across_modes() {
    let hash_for = |mode| {
        let mut page = Page::new(
            FingerprintProfile::openwpm(Os::Ubuntu1804, mode),
            Url::parse("https://site.test/").unwrap(),
            None,
        );
        page.run_script(("document.createElement('canvas').toDataURL()", "t"))
            .unwrap()
            .as_str()
            .unwrap()
            .to_string()
    };
    let a = hash_for(RunMode::Regular);
    let b = hash_for(RunMode::Regular);
    assert_eq!(a, b, "same profile, same pixels");
    let docker = hash_for(RunMode::Docker);
    assert_ne!(a, docker, "different renderer, different pixels");
}
