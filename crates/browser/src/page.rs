//! A loaded page: one top-level realm plus any frames it spawns.
//!
//! `Page` couples a MiniJS interpreter with host state ([`PageHost`]) shared
//! by all the native functions installed into the realm. The OpenWPM crates
//! hook into the page through three channels, mirroring a WebExtension's
//! real capabilities:
//!
//! * [`Page::dom_inject_script`] — enter the page by DOM script injection
//!   (subject to the page's CSP, like vanilla OpenWPM's instrument);
//! * [`PageHost::event_sinks`] — privileged listeners on the event dispatch
//!   path (the content-script side of the vanilla instrument's messaging);
//! * frame hooks — synchronous ([`PageHost::frame_sync_hooks`], used by the
//!   hardened extension's frame protection) or scheduled
//!   ([`PageHost::frame_async_hooks`], the vanilla extension's delayed
//!   injection, which is what the iframe bypass of Sec. 5.4.1 races).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use jsengine::{EngineError, Interp, ObjId, ScriptSource, Value};
use netsim::{HttpRequest, HttpResponse, ResourceType, Url};

use crate::csp::CspPolicy;
use crate::hostobjects;
use crate::profile::FingerprintProfile;

/// Shared host state handle.
pub type PageShared = Rc<RefCell<PageHost>>;

/// Privileged event listener: sees every event that reaches the *native*
/// dispatch path (type, event value). A page that shadows
/// `document.dispatchEvent` starves these sinks — that is Listing 2.
pub type EventSink = Rc<dyn Fn(&mut Interp, &str, Value)>;

/// Hook invoked when a new browsing context (iframe / popup) is created.
pub type FrameHook = Rc<dyn Fn(&mut Interp, RealmWindow)>;

/// How a frame came to exist — the "DOM creation" contexts of Fig. 6.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FrameContext {
    /// `document.createElement('iframe')` + `appendChild`.
    IframeAppend,
    /// `document.write('<iframe …')`.
    DocumentWrite,
    /// `window.open(...)`.
    WindowOpen,
}

/// Object references of one window's realm.
#[derive(Clone, Copy, Debug)]
pub struct RealmWindow {
    pub window: ObjId,
    pub navigator: ObjId,
    pub screen: ObjId,
    pub document: ObjId,
    pub body: ObjId,
    pub navigator_proto: ObjId,
    pub screen_proto: ObjId,
    pub document_proto: ObjId,
    pub node_proto: ObjId,
    pub element_proto: ObjId,
    pub event_target_proto: ObjId,
    /// `HTMLCanvasElement.prototype` — carries `getContext`/`toDataURL`,
    /// the canvas-fingerprinting APIs OpenWPM instruments.
    pub canvas_proto: ObjId,
    /// `frames` array object of this window.
    pub frames_array: ObjId,
    pub is_top: bool,
}

/// Host-side state of a page visit.
pub struct PageHost {
    /// The client fingerprint this page presents. Shared (`Arc`) because
    /// every page of a browser instance presents the same profile — the
    /// browser builds it once and hands each page a reference.
    pub profile: std::sync::Arc<FingerprintProfile>,
    /// The page's URL, shared (`Arc`) with every request record of the
    /// visit.
    pub page_url: std::sync::Arc<Url>,
    pub csp: Option<CspPolicy>,
    /// Count of CSP violations triggered (each also emits a `csp_report`
    /// request when the policy has a report endpoint).
    pub csp_violations: u32,
    /// Requests generated dynamically by page code (fetch/beacon/reports).
    pub traffic: Vec<HttpRequest>,
    /// Server-side resources reachable via `fetch` (URL → response); sites
    /// register attacker-controlled payloads here.
    pub server_resources: HashMap<String, HttpResponse>,
    /// JS event listeners per (target object, event type).
    pub listeners: HashMap<(u32, String), Vec<Value>>,
    /// Privileged (extension-side) event sinks.
    pub event_sinks: Vec<EventSink>,
    /// Frames created during the visit, with their creation context.
    pub frames: Vec<(RealmWindow, FrameContext)>,
    /// Hooks run synchronously at frame creation (stealth frame protection).
    pub frame_sync_hooks: Vec<FrameHook>,
    /// Hooks run from a 0-delay scheduled job after frame creation (vanilla
    /// extension injection — racy by construction).
    pub frame_async_hooks: Vec<FrameHook>,
    /// Values written through `document.cookie`.
    pub js_cookies: Vec<String>,
    /// Virtual epoch base for `Date` (ms).
    pub epoch_base_ms: u64,
    /// The top realm, set once during installation.
    top: Option<RealmWindow>,
}

impl PageHost {
    pub(crate) fn new(
        profile: std::sync::Arc<FingerprintProfile>,
        page_url: std::sync::Arc<Url>,
        csp: Option<CspPolicy>,
    ) -> PageHost {
        PageHost {
            profile,
            page_url,
            csp,
            csp_violations: 0,
            traffic: Vec::new(),
            server_resources: HashMap::new(),
            listeners: HashMap::new(),
            event_sinks: Vec::new(),
            frames: Vec::new(),
            frame_sync_hooks: Vec::new(),
            frame_async_hooks: Vec::new(),
            js_cookies: Vec::new(),
            epoch_base_ms: 1_655_000_000_000, // mid-June 2022, the crawl window
            top: None,
        }
    }

    /// Whether nothing has happened on this host yet: no traffic,
    /// listeners, sinks, hooks, frames, cookies, server resources or CSP
    /// violations (what a template setup must leave behind).
    pub(crate) fn is_pristine(&self) -> bool {
        self.traffic.is_empty()
            && self.listeners.is_empty()
            && self.event_sinks.is_empty()
            && self.frames.is_empty()
            && self.frame_sync_hooks.is_empty()
            && self.frame_async_hooks.is_empty()
            && self.js_cookies.is_empty()
            && self.server_resources.is_empty()
            && self.csp_violations == 0
    }

    /// Record the top realm (called once by `install_window`).
    pub fn set_top(&mut self, rw: RealmWindow) {
        self.top = Some(rw);
    }

    pub fn top(&self) -> Option<RealmWindow> {
        self.top
    }

    pub fn top_window(&self) -> Option<ObjId> {
        self.top.map(|t| t.window)
    }

    /// Resolve a possibly relative URL against the page.
    pub fn resolve_url(&self, s: &str) -> Url {
        if let Some(u) = Url::parse(s) {
            return u;
        }
        Url {
            scheme: self.page_url.scheme.clone(),
            host: self.page_url.host.clone(),
            path: if s.starts_with('/') { s.to_owned() } else { format!("/{s}") },
            query: String::new(),
        }
    }

    /// Record a dynamically generated request.
    pub fn push_request(&mut self, url: Url, rt: ResourceType, time_ms: u64) {
        obs::add("netsim.requests", 1);
        self.traffic.push(HttpRequest {
            url,
            page: self.page_url.clone(),
            resource_type: rt,
            method: if rt == ResourceType::Beacon || rt == ResourceType::CspReport {
                "POST"
            } else {
                "GET"
            },
            time_ms,
        });
    }
}

/// One loaded page.
pub struct Page {
    pub interp: Interp,
    pub host: PageShared,
    pub top: RealmWindow,
}

/// Result of a blocked DOM script injection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CspBlocked;

/// The page host attached to an interpreter (set by [`Page::new`] and
/// [`crate::realm::PageTemplate::instantiate`]). The native window
/// functions fetch it through here at call time, so an installed realm
/// carries no per-page captures and can serve as a clonable template.
pub(crate) fn host_of(it: &Interp) -> PageShared {
    it.host
        .clone()
        .expect("interpreter has no attached PageHost")
        .downcast::<RefCell<PageHost>>()
        .expect("attached interpreter host is not a PageHost")
}

impl Page {
    /// Load an (empty) page for `url` with the given client profile and
    /// optional site CSP. Site content is executed afterwards with
    /// [`Page::run_script`]. The profile is accepted owned or pre-shared
    /// (`Arc`); browsers opening many pages share one allocation.
    pub fn new(
        profile: impl Into<std::sync::Arc<FingerprintProfile>>,
        url: Url,
        csp: Option<CspPolicy>,
    ) -> Page {
        let mut interp = Interp::new();
        let host = Rc::new(RefCell::new(PageHost::new(profile.into(), url.into(), csp)));
        interp.host = Some(host.clone());
        let top = hostobjects::install_window(&mut interp, &host, true);
        Page { interp, host, top }
    }

    /// Register a server resource reachable by `fetch` from page scripts.
    pub fn add_server_resource(&self, url: &str, content_type: &str, body: &str) {
        let parsed = self.host.borrow().resolve_url(url);
        self.host.borrow_mut().server_resources.insert(
            url.to_owned(),
            HttpResponse {
                url: parsed,
                status: 200,
                content_type: content_type.to_owned(),
                body: body.into(),
            },
        );
    }

    /// Run a page/site script in the top realm. Accepts anything that
    /// converts to a [`ScriptSource`]: raw text as a `(source, name)` pair
    /// (parsed on the spot, uncached), or a
    /// [`CompiledScript`](jsengine::CompiledScript) handle whose shared
    /// parse is reused — the caller opts into the compile cache by passing
    /// the latter; there is no duplicate method pair.
    pub fn run_script(&mut self, script: impl Into<ScriptSource>) -> Result<Value, EngineError> {
        self.interp.eval_source(&script.into())
    }

    /// Inject a script into the page the way a content script does via the
    /// DOM (vanilla OpenWPM's instrumentation entry). Subject to the page's
    /// CSP `script-src` (Sec. 5.1.2): on a strict policy the injection is
    /// refused, a violation is recorded, and a `csp_report` request is
    /// emitted to the site's report endpoint.
    pub fn dom_inject_script(&mut self, script: impl Into<ScriptSource>) -> Result<Value, CspBlocked> {
        let blocked = {
            let host = self.host.borrow();
            host.csp.as_ref().is_some_and(|c| c.blocks_inline_scripts)
        };
        if blocked {
            let (url, time) = {
                let mut host = self.host.borrow_mut();
                host.csp_violations += 1;
                let report_uri =
                    host.csp.as_ref().and_then(|c| c.report_uri.clone());
                match report_uri {
                    Some(uri) => (Some(host.resolve_url(&uri)), self.interp.now_ms),
                    None => (None, 0),
                }
            };
            if let Some(url) = url {
                self.host.borrow_mut().push_request(url, ResourceType::CspReport, time);
            }
            return Err(CspBlocked);
        }
        // Injection executes in the page's global scope, exactly like an
        // appended <script> element.
        self.interp.eval_source(&script.into()).map_err(|_| CspBlocked)
    }

    /// Advance virtual time, draining due jobs (extension injections,
    /// `setTimeout` callbacks). Script errors inside jobs are swallowed like
    /// a browser's per-task error isolation.
    pub fn advance(&mut self, ms: u64) {
        let _ = self.interp.advance_time(ms);
    }

    /// All frames created so far.
    pub fn frames(&self) -> Vec<(RealmWindow, FrameContext)> {
        self.host.borrow().frames.clone()
    }

    /// Total dynamic requests recorded.
    pub fn traffic(&self) -> Vec<HttpRequest> {
        self.host.borrow().traffic.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{Os, RunMode};

    fn page() -> Page {
        Page::new(
            FingerprintProfile::openwpm(Os::Ubuntu1804, RunMode::Regular),
            Url::parse("https://site.example.com/").unwrap(),
            None,
        )
    }

    #[test]
    fn page_exposes_host_objects() {
        let mut p = page();
        let ua = p.run_script(("navigator.userAgent", "t")).unwrap();
        assert!(ua.as_str().unwrap().contains("Firefox/90.0"));
        let wd = p.run_script(("navigator.webdriver", "t")).unwrap();
        assert_eq!(wd, Value::Bool(true));
    }

    #[test]
    fn stock_firefox_reports_webdriver_false() {
        let mut p = Page::new(
            FingerprintProfile::stock_firefox(Os::Ubuntu1804),
            Url::parse("https://site.example.com/").unwrap(),
            None,
        );
        let wd = p.run_script(("navigator.webdriver", "t")).unwrap();
        assert_eq!(wd, Value::Bool(false));
    }

    #[test]
    fn csp_blocks_dom_injection_and_reports() {
        let mut p = Page::new(
            FingerprintProfile::openwpm(Os::Ubuntu1804, RunMode::Regular),
            Url::parse("https://site.example.com/").unwrap(),
            Some(CspPolicy::strict("/csp-report")),
        );
        let r = p.dom_inject_script(("window.injected = 1;", "inject"));
        assert_eq!(r, Err(CspBlocked));
        assert_eq!(p.host.borrow().csp_violations, 1);
        let traffic = p.traffic();
        assert_eq!(traffic.len(), 1);
        assert_eq!(traffic[0].resource_type, ResourceType::CspReport);
        // The page never saw the injected global.
        let v = p.run_script(("typeof window.injected", "t")).unwrap();
        assert_eq!(v.as_str().unwrap(), "undefined");
    }

    #[test]
    fn permissive_page_allows_injection() {
        let mut p = page();
        p.dom_inject_script(("window.injected = 42;", "inject")).unwrap();
        let v = p.run_script(("window.injected", "t")).unwrap();
        assert_eq!(v, Value::Num(42.0));
    }
}
