//! Crawler configuration, mirroring OpenWPM's `BrowserParams` +
//! `ManagerParams` plus the stealth settings file introduced in Sec. 6.1.5.

use browser::WindowGeometry;

/// Which JavaScript instrumentation flavour to deploy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JsInstrumentKind {
    /// No JavaScript instrument.
    Off,
    /// Vanilla OpenWPM: page-context wrappers installed by DOM script
    /// injection (detectable via `toString`, stack traces, window props and
    /// prototype pollution; attackable via the event dispatcher and CSP).
    Vanilla,
    /// WPM_hide: privileged native hooks (`exportFunction`-style), secure
    /// messaging and frame protection (Sec. 6).
    Stealth,
}

/// HTTP instrument body-saving policy (Sec. 5.4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HttpSaveMode {
    /// Store every response body ("full coverage").
    Full,
    /// Store JavaScript files only — evadable by silent delivery.
    JavascriptOnly,
}

/// The stealth settings file of Sec. 6.1.5: user-settable window geometry
/// and webdriver masking.
#[derive(Clone, Debug)]
pub struct StealthSettings {
    /// Override OpenWPM's hard-coded window size/position to blend in.
    pub window_geometry: Option<WindowGeometry>,
    /// Report `navigator.webdriver === false` like a stock Firefox.
    pub mask_webdriver: bool,
    /// Intercept DOM-creating APIs so new frames/documents are instrumented
    /// (CanvasBlocker-style frame protection, Sec. 6.2.2).
    pub frame_protection: bool,
}

impl Default for StealthSettings {
    fn default() -> Self {
        StealthSettings {
            window_geometry: Some(WindowGeometry {
                screen_width: 1920,
                screen_height: 1080,
                window_width: 1276,
                window_height: 854,
                screen_x: 212,
                screen_y: 118,
                instance_offset: (0, 0),
            }),
            mask_webdriver: true,
            frame_protection: true,
        }
    }
}

/// Per-browser configuration: only what the paper's experiments vary. Every
/// browser runs OpenWPM's regular mode on Ubuntu 18.04, records HTTP with
/// the JavaScript-only body filter and cookies, dwells 60 s unless the
/// visit overrides it, and does not interact with the page (Sec. 4.1.2,
/// 6.3).
#[derive(Clone, Debug)]
pub struct BrowserConfig {
    pub js_instrument: JsInstrumentKind,
    /// Stealth settings; only honoured when `js_instrument == Stealth`.
    pub stealth: StealthSettings,
    /// Deterministic seed for event-id generation and honey properties.
    pub seed: u64,
    /// Honey properties per target object for the dynamic analysis
    /// (0 disables; Sec. 4.1.3).
    pub honey_properties: u32,
    /// Record page accesses to OpenWPM-specific window properties
    /// (`getInstrumentJS` etc.) — the scanning client of Sec. 4 enables
    /// this to find OpenWPM-specific detectors (Table 6).
    pub watch_openwpm_props: bool,
}

impl BrowserConfig {
    /// Vanilla OpenWPM as used in the paper's scan (Sec. 4.1.2): the
    /// vanilla JS instrument beside the HTTP and cookie instruments.
    pub fn vanilla(seed: u64) -> BrowserConfig {
        BrowserConfig {
            js_instrument: JsInstrumentKind::Vanilla,
            stealth: StealthSettings::default(),
            seed,
            honey_properties: 0,
            watch_openwpm_props: false,
        }
    }

    /// The hardened client (WPM_hide) of Sec. 6.
    pub fn stealth(seed: u64) -> BrowserConfig {
        BrowserConfig { js_instrument: JsInstrumentKind::Stealth, ..BrowserConfig::vanilla(seed) }
    }

    /// The scanning client of Sec. 4: vanilla OpenWPM plus honey properties
    /// and OpenWPM-property watches for the combined analysis.
    pub fn scanner(seed: u64) -> BrowserConfig {
        BrowserConfig {
            honey_properties: 10,
            watch_openwpm_props: true,
            ..BrowserConfig::vanilla(seed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let v = BrowserConfig::vanilla(1);
        assert_eq!(v.js_instrument, JsInstrumentKind::Vanilla);
        assert_eq!(v.honey_properties, 0);
        assert_eq!(BrowserConfig::scanner(1).honey_properties, 10);
        let s = BrowserConfig::stealth(1);
        assert_eq!(s.js_instrument, JsInstrumentKind::Stealth);
        assert!(s.stealth.mask_webdriver);
    }
}
