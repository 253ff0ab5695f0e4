//! The WebGL surface a page reaches through `canvas.getContext('webgl')`:
//! every context gets its own prototype holding the profile's surface, so
//! scripts can never share or leak writes through it, under either script
//! engine.

use browser::{FingerprintProfile, Os, Page, PageTemplate, RunMode};
use jsengine::{Engine, Value};
use netsim::Url;

const ENGINES: [Engine; 2] = [Engine::Vm, Engine::Tree];

fn regular() -> FingerprintProfile {
    FingerprintProfile::openwpm(Os::Ubuntu1804, RunMode::Regular)
}

fn page(tpl: &PageTemplate, host: &str, engine: Engine) -> Page {
    let mut p = tpl.instantiate(Url::parse(&format!("https://{host}/")).unwrap(), None);
    p.interp.engine = engine;
    p
}

fn run(p: &mut Page, src: &str) -> Value {
    p.run_script((src, "t")).unwrap()
}

fn text(p: &mut Page, src: &str) -> String {
    run(p, src).as_str().expect("a string result").to_string()
}

const TWO_CONTEXTS: &str = "var canvas = document.createElement('canvas');
    var a = canvas.getContext('webgl');
    var b = canvas.getContext('experimental-webgl');
    var pa = Object.getPrototypeOf(a);
    var pb = Object.getPrototypeOf(b);";

#[test]
fn each_context_has_its_own_prototype_with_the_profile_surface() {
    let profile = regular();
    let webgl = profile.webgl.clone().expect("regular mode has WebGL");
    let mut want: Vec<&str> = webgl.props().iter().map(|(k, _)| k.as_str()).collect();
    want.extend(["getParameter", "getSupportedExtensions"]);
    let want = want.join(",");
    let tpl = PageTemplate::new(profile);
    for engine in ENGINES {
        let mut p = page(&tpl, "a.example", engine);
        run(&mut p, TWO_CONTEXTS);
        assert_eq!(run(&mut p, "a !== b && pa !== pb"), Value::Bool(true), "{engine:?}");
        for proto in ["pa", "pb"] {
            let keys = text(&mut p, &format!("Object.getOwnPropertyNames({proto}).join(',')"));
            assert_eq!(keys, want, "{engine:?}: own keys of {proto}");
        }
        assert_eq!(text(&mut p, "Object.getOwnPropertyNames(a).join(',')"), "", "{engine:?}");
        let (name, value) = &webgl.props()[5];
        assert_eq!(text(&mut p, &format!("b.{name}")), *value, "{engine:?}");
        assert_eq!(
            text(&mut p, "a.UNMASKED_VENDOR_WEBGL + '|' + b.getParameter(37446)"),
            format!("{}|{}", webgl.vendor, webgl.renderer),
            "{engine:?}"
        );
    }
}

#[test]
fn writes_to_one_prototype_reach_no_other_context_or_page() {
    let tpl = PageTemplate::new(regular());
    for engine in ENGINES {
        let mut p = page(&tpl, "a.example", engine);
        run(&mut p, TWO_CONTEXTS);
        run(
            &mut p,
            "pa.UNMASKED_VENDOR_WEBGL = 'spoofed'; pa.injected = 1; delete pa.WEBGL_PROP_0007;",
        );
        assert_eq!(text(&mut p, "a.UNMASKED_VENDOR_WEBGL"), "spoofed", "{engine:?}");
        let fresh = "var c = document.createElement('canvas').getContext('webgl');
            [c.UNMASKED_VENDOR_WEBGL, typeof c.injected, typeof c.WEBGL_PROP_0007].join(',')";
        let untouched = "AMD,undefined,string";
        assert_eq!(
            text(
                &mut p,
                "[b.UNMASKED_VENDOR_WEBGL, typeof b.injected, typeof b.WEBGL_PROP_0007].join(',')"
            ),
            untouched,
            "{engine:?}: sibling context"
        );
        assert_eq!(text(&mut p, fresh), untouched, "{engine:?}: next context on the page");
        let mut q = page(&tpl, "b.example", engine);
        assert_eq!(text(&mut q, fresh), untouched, "{engine:?}: next page of the template");
    }
    let surface = tpl.profile().webgl.as_ref().unwrap().surface();
    assert!(surface.get("injected").is_none() && surface.contains("WEBGL_PROP_0007"));
}

#[test]
fn the_surface_is_built_once_per_profile() {
    let tpl = PageTemplate::new(regular());
    let webgl = tpl.profile().webgl.as_ref().unwrap();
    let first = webgl.surface() as *const _;
    for (i, engine) in ENGINES.into_iter().enumerate() {
        let mut p = page(&tpl, &format!("p{i}.example"), engine);
        run(&mut p, "document.createElement('canvas').getContext('webgl')");
        assert!(std::ptr::eq(webgl.surface(), first), "{engine:?}");
    }
    assert_eq!(webgl.surface().len(), webgl.prop_count());
}

#[test]
fn headless_still_has_no_webgl() {
    let tpl = PageTemplate::new(FingerprintProfile::openwpm(Os::Ubuntu1804, RunMode::Headless));
    for engine in ENGINES {
        let mut p = page(&tpl, "a.example", engine);
        let v = run(&mut p, "document.createElement('canvas').getContext('webgl') === null");
        assert_eq!(v, Value::Bool(true), "{engine:?}");
        let v = run(&mut p, "typeof document.createElement('canvas').getContext('2d')");
        assert_eq!(v.as_str().unwrap(), "object", "{engine:?}");
    }
}
