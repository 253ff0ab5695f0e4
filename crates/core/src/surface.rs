//! Fingerprint-surface analysis (paper Sec. 3, Tables 2–4).
//!
//! Combines the two fingerprinting methods of the paper — probe-list
//! fingerprinting (Jonker et al.) and DOM-traversal template attacks
//! (Schwarz et al.) — against each OpenWPM setup, diffing against a stock
//! Firefox of the same version. Also implements the Sec. 3.3 validator: a
//! detector exercising the four probe strategies, tested against OpenWPM
//! clients and consumer browsers.

use std::collections::BTreeMap;

use browser::{capture_template, diff, FingerprintProfile, Os, Page, RunMode, TemplateDiff};
use netsim::Url;
use openwpm::instrument::{stealth, vanilla};
use openwpm::StealthSettings;

/// Which instrumentation flavour to apply when building the client.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientKind {
    /// Plain OpenWPM client without the JS instrument.
    OpenWpm,
    /// With the vanilla JS instrument injected.
    OpenWpmInstrumented,
    /// WPM_hide: stealth instrumentation + geometry/webdriver masking.
    Hidden,
    /// A standalone Firefox (the diff baseline).
    StockFirefox,
    /// A Chromium-family consumer browser (cross-family validation).
    StockChrome,
}

/// A probe-list fingerprint: named probe → observed value.
pub type ProbeFingerprint = BTreeMap<&'static str, String>;

/// The probe list (the "specific list of properties" method). Each entry is
/// `(name, MiniJS expression)`; errors record as `<error: …>`.
pub const PROBES: &[(&str, &str)] = &[
    ("navigator.webdriver", "'' + navigator.webdriver"),
    ("navigator.userAgent", "navigator.userAgent"),
    ("navigator.platform", "navigator.platform"),
    ("navigator.languages.length", "'' + navigator.languages.length"),
    (
        "navigator.languages.extraProps",
        "(function () { var n = 0; var l = navigator.languages; \
         for (var k in l) { if (('' + k).indexOf('mozHeadless') === 0) { n++; } } return '' + n; })()",
    ),
    ("screen.width", "'' + screen.width"),
    ("screen.height", "'' + screen.height"),
    ("screen.availTop", "'' + screen.availTop"),
    ("screen.availLeft", "'' + screen.availLeft"),
    ("window.outerWidth", "'' + window.outerWidth"),
    ("window.outerHeight", "'' + window.outerHeight"),
    ("window.screenX", "'' + window.screenX"),
    ("window.screenY", "'' + window.screenY"),
    (
        "webgl.vendor",
        "(function () { var gl = document.createElement('canvas').getContext('webgl'); \
         return gl === null ? 'null' : '' + gl.getParameter(37445); })()",
    ),
    (
        "webgl.renderer",
        "(function () { var gl = document.createElement('canvas').getContext('webgl'); \
         return gl === null ? 'null' : '' + gl.getParameter(37446); })()",
    ),
    (
        "fonts.count",
        "(function () { var list = ['Arial', 'Courier New', 'Georgia', 'Times New Roman', \
         'Verdana', 'Helvetica', 'DejaVu Sans', 'Liberation Serif', 'Bitstream Vera Sans Mono']; \
         var n = 0; for (var i = 0; i < list.length; i++) { \
         if (document.fonts.check('12px ' + list[i])) { n++; } } return '' + n; })()",
    ),
    ("timezoneOffset", "'' + new Date().getTimezoneOffset()"),
    ("createElement.toString", "document.createElement.toString()"),
    ("typeof getInstrumentJS", "typeof window.getInstrumentJS"),
    (
        "Document.prototype.ownKeys",
        "Object.getOwnPropertyNames(Document.prototype).sort().join(',')",
    ),
    (
        "stack.appendChildProbe",
        "(function () { var s = ''; \
         var el = document.createElement('div'); \
         try { throw new Error('probe'); } catch (e) { s = '' + e.stack; } \
         return s.indexOf('openwpm') !== -1 ? 'instrument-frames' : 'clean'; })()",
    ),
];

/// Build a page for a client kind on a given OS/mode.
pub fn client_page(kind: ClientKind, os: Os, mode: RunMode) -> Page {
    let profile = match kind {
        ClientKind::OpenWpm | ClientKind::OpenWpmInstrumented => {
            FingerprintProfile::openwpm(os, mode)
        }
        ClientKind::Hidden => {
            let mut p = FingerprintProfile::openwpm(os, mode);
            let settings = StealthSettings::default();
            if let Some(g) = settings.window_geometry {
                p.geometry = g;
            }
            p
        }
        ClientKind::StockFirefox => FingerprintProfile::stock_firefox(os),
        ClientKind::StockChrome => FingerprintProfile::stock_chrome(os),
    };
    let mut page = Page::new(profile, Url::parse("https://fingerprint.probe/").unwrap(), None);
    let store = std::rc::Rc::new(std::cell::RefCell::new(openwpm::RecordStore::new()));
    match kind {
        ClientKind::OpenWpmInstrumented => {
            vanilla::install(&mut page, 1234, store, "https://fingerprint.probe/".into());
        }
        ClientKind::Hidden => {
            stealth::install(
                &mut page,
                &StealthSettings::default(),
                store,
                "https://fingerprint.probe/".into(),
            );
        }
        _ => {}
    }
    page
}

/// Capture the probe-list fingerprint of a page.
pub fn probe_fingerprint(page: &mut Page) -> ProbeFingerprint {
    let mut out = BTreeMap::new();
    for (name, expr) in PROBES {
        let v = match page.run_script((*expr, "fingerprint-probe.js")) {
            Ok(v) => page
                .interp
                .to_string_value(&v)
                .map(|s| s.to_string())
                .unwrap_or_else(|_| "<unstringifiable>".into()),
            Err(e) => format!("<error: {e}>"),
        };
        out.insert(*name, v);
    }
    out
}

/// The combined fingerprint surface of a client vs the stock baseline.
#[derive(Clone, Debug)]
pub struct SurfaceReport {
    pub os: Os,
    pub mode: RunMode,
    pub kind: ClientKind,
    /// Probes whose values deviate from stock Firefox: `(probe, stock, subject)`.
    pub probe_deviations: Vec<(&'static str, String, String)>,
    /// Template diff against stock Firefox.
    pub template: TemplateDiff,
}

impl SurfaceReport {
    /// Classify for the Table 2 rows.
    pub fn webdriver_true(&self) -> bool {
        self.probe_deviations
            .iter()
            .any(|(p, _, subj)| *p == "navigator.webdriver" && subj == "true")
    }

    pub fn screen_dimension_deviates(&self) -> bool {
        self.probe_deviations.iter().any(|(p, _, _)| {
            matches!(*p, "screen.width" | "screen.height" | "window.outerWidth" | "window.outerHeight")
        })
    }

    pub fn screen_position_deviates(&self) -> bool {
        self.probe_deviations
            .iter()
            .any(|(p, _, _)| matches!(*p, "window.screenX" | "window.screenY"))
    }

    pub fn font_enumeration_deviates(&self) -> bool {
        self.probe_deviations.iter().any(|(p, _, _)| *p == "fonts.count")
    }

    pub fn timezone_zero(&self) -> bool {
        self.probe_deviations
            .iter()
            .any(|(p, _, subj)| *p == "timezoneOffset" && subj == "0")
    }

    pub fn language_prop_count(&self) -> u32 {
        self.probe_deviations
            .iter()
            .find(|(p, _, _)| *p == "navigator.languages.extraProps")
            .and_then(|(_, _, subj)| subj.parse().ok())
            .unwrap_or(0)
    }

    /// Number of deviating WebGL properties (template paths).
    pub fn webgl_deviations(&self) -> usize {
        self.template.matching("webglContext")
    }

    /// Tampering artefacts from instrumentation: changed function sources,
    /// polluted prototypes.
    pub fn tampering_deviations(&self) -> usize {
        self.probe_deviations
            .iter()
            .filter(|(p, _, _)| {
                matches!(*p, "createElement.toString" | "Document.prototype.ownKeys" | "stack.appendChildProbe")
            })
            .count()
            + self
                .template
                .changed
                .iter()
                .filter(|path| {
                    path.contains("createElement")
                        || path.contains("appendChild")
                        || path.contains("addEventListener")
                        || path.contains("#ownKeys")
                })
                .count()
    }

    /// Custom functions added to `window` (the `getInstrumentJS` leak).
    pub fn added_custom_functions(&self) -> usize {
        usize::from(
            self.probe_deviations
                .iter()
                .any(|(p, _, subj)| *p == "typeof getInstrumentJS" && subj == "function"),
        )
    }
}

/// Compute the fingerprint surface of `kind` on `(os, mode)` against a
/// stock Firefox on the same OS.
pub fn surface(kind: ClientKind, os: Os, mode: RunMode) -> SurfaceReport {
    let mut stock = client_page(ClientKind::StockFirefox, os, RunMode::Regular);
    let stock_probes = probe_fingerprint(&mut stock);
    let stock_template = capture_template(&mut stock);

    let mut subject = client_page(kind, os, mode);
    let subject_probes = probe_fingerprint(&mut subject);
    let subject_template = capture_template(&mut subject);

    let mut probe_deviations = Vec::new();
    for (name, stock_v) in &stock_probes {
        let subj_v = subject_probes.get(name).cloned().unwrap_or_default();
        if *stock_v != subj_v {
            probe_deviations.push((*name, stock_v.clone(), subj_v));
        }
    }
    SurfaceReport {
        os,
        mode,
        kind,
        probe_deviations,
        template: diff(&stock_template, &subject_template),
    }
}

// ------------------------------------------------------ Sec 3.3 validator

/// The OpenWPM detector of Sec. 3.3, exercising all four test strategies:
/// (1) presence of a DOM property, (2) absence, (3) overwritten native
/// function, (4) value comparison.
pub fn validator_script() -> &'static str {
    r#"(function () {
  var evidence = [];
  // (1) presence of a DOM property unique to OpenWPM's instrumentation.
  if (typeof window.getInstrumentJS !== 'undefined') { evidence.push('presence:getInstrumentJS'); }
  // (2) absence of a property every displayed browser has.
  var gl = document.createElement('canvas').getContext('webgl');
  if (gl === null) { evidence.push('absence:webgl'); }
  // (3) overwritten native function.
  var ts = '' + document.createElement.toString();
  if (ts.indexOf('[native code]') === -1) { evidence.push('overwritten:createElement'); }
  // (4) value comparison against OpenWPM's constants.
  if (navigator.webdriver === true) { evidence.push('value:webdriver'); }
  if (screen.width === 2560 && screen.height === 1440 && window.outerWidth === 1366 && window.outerHeight === 683) {
    evidence.push('value:geometry');
  }
  if (screen.width === 1366 && screen.height === 768 && window.outerWidth === 1366) {
    evidence.push('value:headless-geometry');
  }
  if (gl !== null) {
    var vendor = '' + gl.getParameter(37445) + '/' + gl.getParameter(37446);
    if (vendor.indexOf('VMware') !== -1 || vendor.indexOf('llvmpipe') !== -1) {
      evidence.push('value:webgl-vendor');
    }
  }
  if (screen.availTop === 0 && screen.availLeft === 0) { evidence.push('value:availTop'); }
  window.__validator = evidence.join(',');
  return evidence.length > 0;
})()"#
}

/// Run the validator against a client; returns `(identified, evidence)`.
pub fn validate(kind: ClientKind, os: Os, mode: RunMode) -> (bool, String) {
    let mut page = client_page(kind, os, mode);
    let hit = page
        .run_script((validator_script(), "https://validator.test/detect.js"))
        .map(|v| v.truthy())
        .unwrap_or(false);
    let evidence = page
        .run_script(("window.__validator", "probe"))
        .ok()
        .and_then(|v| v.as_str().map(str::to_owned))
        .unwrap_or_default();
    (hit, evidence)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn openwpm_regular_mode_has_exact_table2_signature() {
        let s = surface(ClientKind::OpenWpm, Os::Ubuntu1804, RunMode::Regular);
        assert!(s.webdriver_true());
        assert!(s.screen_dimension_deviates());
        assert!(s.screen_position_deviates());
        assert!(!s.font_enumeration_deviates());
        assert!(!s.timezone_zero());
        assert_eq!(s.language_prop_count(), 0);
        assert_eq!(s.added_custom_functions(), 0);
    }

    #[test]
    fn headless_loses_webgl_and_gains_language_props() {
        let s = surface(ClientKind::OpenWpm, Os::Ubuntu1804, RunMode::Headless);
        assert!(s.webgl_deviations() > 2000, "webgl deviations: {}", s.webgl_deviations());
        assert_eq!(s.language_prop_count(), 43);
    }

    #[test]
    fn xvfb_and_docker_webgl_counts() {
        let xvfb = surface(ClientKind::OpenWpm, Os::Ubuntu1804, RunMode::Xvfb);
        // 18 changed props + vendor/renderer probe paths.
        assert!(
            (15..=25).contains(&xvfb.webgl_deviations()),
            "xvfb: {}",
            xvfb.webgl_deviations()
        );
        let docker = surface(ClientKind::OpenWpm, Os::Ubuntu1804, RunMode::Docker);
        assert!(
            (24..=35).contains(&docker.webgl_deviations()),
            "docker: {}",
            docker.webgl_deviations()
        );
        assert!(docker.timezone_zero());
        assert!(docker.font_enumeration_deviates());
    }

    #[test]
    fn instrumentation_adds_custom_function_and_tampering() {
        let plain = surface(ClientKind::OpenWpm, Os::Ubuntu1804, RunMode::Regular);
        let inst = surface(ClientKind::OpenWpmInstrumented, Os::Ubuntu1804, RunMode::Regular);
        assert_eq!(plain.added_custom_functions(), 0);
        assert_eq!(inst.added_custom_functions(), 1, "the getInstrumentJS leak");
        assert!(inst.tampering_deviations() > plain.tampering_deviations());
    }

    #[test]
    fn hidden_client_has_clean_surface_in_regular_mode() {
        let s = surface(ClientKind::Hidden, Os::Ubuntu1804, RunMode::Regular);
        assert!(!s.webdriver_true(), "webdriver must read false");
        assert!(!s.screen_dimension_deviates(), "geometry must match stock");
        assert!(!s.screen_position_deviates());
        assert_eq!(s.added_custom_functions(), 0);
        assert_eq!(
            s.probe_deviations.len(),
            0,
            "probe deviations: {:?}",
            s.probe_deviations
        );
    }

    #[test]
    fn validator_identifies_every_openwpm_mode_and_no_consumer_browser() {
        for mode in [RunMode::Regular, RunMode::Headless, RunMode::Xvfb, RunMode::Docker] {
            let (hit, ev) = validate(ClientKind::OpenWpm, Os::Ubuntu1804, mode);
            assert!(hit, "mode {mode:?} must be identified; evidence: {ev}");
        }
        let (hit, ev) = validate(ClientKind::OpenWpmInstrumented, Os::Ubuntu1804, RunMode::Regular);
        assert!(hit, "instrumented client: {ev}");
        let (hit, ev) = validate(ClientKind::StockFirefox, Os::Ubuntu1804, RunMode::Regular);
        assert!(!hit, "stock Firefox misidentified: {ev}");
        let (hit, ev) = validate(ClientKind::StockChrome, Os::Ubuntu1804, RunMode::Regular);
        assert!(!hit, "stock Chrome misidentified: {ev}");
    }

    #[test]
    fn rq2_fingerprint_surface_stable_across_instrument_versions() {
        // Sec. 3.2: surfaces of OpenWPM versions largely overlap; 0.10.0
        // leaves two custom window functions instead of one.
        use openwpm::instrument::vanilla::{self, InstrumentVintage};
        use std::cell::RefCell;
        use std::rc::Rc;
        let build = |vintage| {
            let mut page = client_page(ClientKind::OpenWpm, Os::Ubuntu1804, RunMode::Regular);
            let store = Rc::new(RefCell::new(openwpm::RecordStore::new()));
            vanilla::install_vintage(&mut page, 1, store, "p".into(), vintage);
            probe_fingerprint(&mut page)
        };
        let modern = build(InstrumentVintage::Modern);
        let legacy = build(InstrumentVintage::V0_10);
        // Overlap: the wrapped-function and geometry probes agree.
        let agreeing = modern
            .iter()
            .filter(|(k, v)| legacy.get(*k) == Some(v))
            .count();
        assert!(
            agreeing >= modern.len() - 1,
            "surfaces must largely overlap: {agreeing}/{}",
            modern.len()
        );
        // The difference: the leftover window-function names.
        assert_eq!(modern["typeof getInstrumentJS"], "function");
        assert_eq!(legacy["typeof getInstrumentJS"], "undefined");
    }

    #[test]
    fn validator_does_not_identify_hidden_client() {
        let (hit, ev) = validate(ClientKind::Hidden, Os::Ubuntu1804, RunMode::Regular);
        assert!(!hit, "WPM_hide identified: {ev}");
    }
}
