//! Shared page-realm templates.
//!
//! Building a page realm — interpreter bootstrap plus the full
//! `window`/`navigator`/`screen`/`document` host-object surface — costs far
//! more than most visits' script execution. Since [`install_window`]
//! captures no per-page state (native functions fetch the [`PageHost`]
//! through the interpreter at call time), a realm built once per profile
//! can be *cloned* for every page instead of rebuilt: [`PageTemplate`]
//! holds the installed realm, and [`PageTemplate::instantiate`] clones it,
//! attaches a fresh host, and re-points the per-page location data.
//!
//! A template may also run [`PageTemplate::setup`] steps after the build:
//! page-independent script work that every page would otherwise repeat,
//! such as the vanilla OpenWPM instrument building its wrapper closures.
//! Every instance then starts with that work done. A setup script's
//! closures may capture per-page values (the instrument's event id
//! `eid`): the template runs with a placeholder, and the embedder
//! re-binds the real value on each instance with
//! [`Interp::set_captured_binding`] before any page script runs. That is
//! the whole contract: a setup may leave per-page values only in bindings
//! the embedder re-binds, and no host-side state at all.
//!
//! A template freezes its heap ([`jsengine::object::Heap::freeze`]) after
//! the build and after each setup, so every instance shares the
//! template's objects and copies only those it writes: instantiating and
//! dropping a page costs the objects the page touches, not the ~300 of
//! the template.
//!
//! Clones are observably identical to scratch-built pages that ran the
//! same setup: heap cloning preserves object ids and property insertion
//! order, [`Interp::clone_realm`] deep-copies every captured scope and
//! carries over the execution counters (the interpreter
//! [`Profile`](jsengine::Profile) counts, PRNG, job sequence), so a page
//! reports the setup's work as if it had run the setup itself. The
//! browser manager starts every page from a template; building a page
//! from scratch ([`Page::new`]) remains the reference the template tests
//! compare against.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use jsengine::Interp;
use netsim::Url;

use crate::csp::CspPolicy;
use crate::hostobjects::{install_window, repoint_location};
use crate::page::{Page, PageHost};
use crate::profile::FingerprintProfile;

/// A pre-built page realm for one fingerprint profile, cloned per visit.
pub struct PageTemplate {
    profile: Arc<FingerprintProfile>,
    /// The template realm on its build-time host, which only feeds the
    /// few values `install_window` reads eagerly (profile geometry, fonts
    /// count, a placeholder URL) and never reaches an instance.
    page: Page,
}

impl PageTemplate {
    /// Build the template realm: one interpreter bootstrap plus one
    /// host-object installation, paid once per (browser, profile).
    pub fn new(profile: impl Into<Arc<FingerprintProfile>>) -> PageTemplate {
        let profile = profile.into();
        let mut interp = Interp::new();
        let host = Rc::new(RefCell::new(PageHost::new(
            profile.clone(),
            Arc::new(Url::parse("https://template.invalid/").expect("placeholder URL parses")),
            None,
        )));
        interp.host = Some(host.clone());
        let top = install_window(&mut interp, &host, true);
        interp.heap.freeze();
        PageTemplate { profile, page: Page { interp, host, top } }
    }

    /// The profile this template was built for.
    pub fn profile(&self) -> &Arc<FingerprintProfile> {
        &self.profile
    }

    /// Run a setup step on the template page (no CSP). Every instance
    /// starts from the interpreter counts it leaves, so per-page counts
    /// include the setup.
    ///
    /// # Panics
    ///
    /// If `setup` left host-side state (traffic, listeners, frames,
    /// cookies, hooks, sinks, CSP violations) or pending jobs, none of
    /// which an instance could inherit.
    pub fn setup<R>(&mut self, setup: impl FnOnce(&mut Page) -> R) -> R {
        let out = setup(&mut self.page);
        assert!(
            self.page.host.borrow().is_pristine() && !self.page.interp.has_pending_jobs(),
            "PageTemplate::setup left state an instance cannot inherit"
        );
        self.page.interp.heap.freeze();
        out
    }

    /// Stamp out a page: clone the realm, attach a fresh [`PageHost`] for
    /// `url`/`csp`, and re-point the location data baked in at build time.
    /// The URL is accepted owned or pre-shared (`Arc`); the page's request
    /// records share it.
    pub fn instantiate(&self, url: impl Into<Arc<Url>>, csp: Option<CspPolicy>) -> Page {
        let url = url.into();
        let top = self.page.top;
        let mut interp = self.page.interp.clone_realm();
        let host = Rc::new(RefCell::new(PageHost::new(self.profile.clone(), url.clone(), csp)));
        host.borrow_mut().set_top(top);
        interp.host = Some(host.clone());
        repoint_location(&mut interp, top, &url);
        Page { interp, host, top }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{Os, RunMode};
    use crate::template::{capture_template, diff};
    use jsengine::Value;

    fn profile() -> FingerprintProfile {
        FingerprintProfile::openwpm(Os::Ubuntu1804, RunMode::Regular)
    }

    /// A template clone must be indistinguishable from a scratch-built
    /// page under the strongest observer we have: the DOM-traversal
    /// template attack, which walks every reachable property.
    #[test]
    fn clone_is_observably_identical_to_scratch_build() {
        let url = Url::parse("https://site042.example/shop").unwrap();
        let tpl = PageTemplate::new(profile());
        let mut cloned = tpl.instantiate(url.clone(), None);
        let mut scratch = Page::new(profile(), url.clone(), None);
        let d = diff(&capture_template(&mut scratch), &capture_template(&mut cloned));
        assert!(d.is_empty(), "clone deviates from scratch build: {d:?}");

        // The same holds after a setup step whose closures capture a
        // per-page value, once that value is re-bound on the instance.
        let mut tpl = PageTemplate::new(profile());
        let wrapper = tpl.setup(|page| {
            page.run_script((WRAP, "wrap.js")).unwrap();
            page.run_script(("wrap(window, 'placeholder')", "wrap.js")).unwrap().as_obj().unwrap()
        });
        let mut cloned = tpl.instantiate(url.clone(), None);
        assert!(cloned.interp.set_captured_binding(wrapper, "tag", Value::str("page-7")));
        let mut scratch = Page::new(profile(), url, None);
        scratch.run_script((WRAP, "wrap.js")).unwrap();
        scratch.run_script(("wrap(window, 'page-7')", "wrap.js")).unwrap();
        assert_eq!(cloned.interp.steps(), scratch.interp.steps());
        let d = diff(&capture_template(&mut scratch), &capture_template(&mut cloned));
        assert!(d.is_empty(), "set-up clone deviates from scratch build: {d:?}");
        let tag = |p: &mut Page| p.run_script(("navigator.platform; window.__tag", "t")).unwrap();
        assert_eq!(tag(&mut cloned), Value::str("page-7"));
        assert_eq!(tag(&mut scratch), Value::str("page-7"));
    }

    /// A miniature script instrument: wraps one accessor with a closure
    /// capturing a per-page `tag`, and returns the wrapper.
    const WRAP: &str = "function wrap(w, tag) {
        var d = Object.getOwnPropertyDescriptor(w.Navigator.prototype, 'platform');
        var get = function () { w.__tag = tag; return d.get.call(this); };
        Object.defineProperty(w.Navigator.prototype, 'platform', { get: get, enumerable: true });
        return get;
    }";

    /// Instances start from the setup's interpreter counts, so a page
    /// reports what a page that ran the setup itself would, builtin
    /// dispatches included while the phase profiler runs.
    #[test]
    fn instances_profile_from_the_setup() {
        let t = obs::Telemetry::new().with_prof(obs::prof::Mode::On);
        let _g = t.enter();
        let url = Url::parse("https://a.example/").unwrap();
        let mut tpl = PageTemplate::new(profile());
        let built = tpl.page.interp.profile();
        assert_eq!(built, jsengine::Profile::default(), "a build runs no script");
        tpl.setup(|page| page.run_script((WRAP, "wrap.js")).unwrap());
        let mut cloned = tpl.instantiate(url.clone(), None);
        let mut scratch = Page::new(profile(), url, None);
        scratch.run_script((WRAP, "wrap.js")).unwrap();
        for p in [&mut scratch, &mut cloned] {
            p.run_script(("wrap(window, 'x'); navigator.platform", "t")).unwrap();
        }
        let (a, b) = (scratch.interp.profile(), cloned.interp.profile());
        assert!(a.ops > 0 && !a.builtins.is_empty(), "{a:?}");
        assert_eq!(a, b);
    }

    /// Instances share the template's objects only while its heap is
    /// frozen; a template that skipped a freeze would hand every page a
    /// full copy without any other test noticing.
    #[test]
    fn template_heap_is_frozen_after_build_and_setup() {
        let mut tpl = PageTemplate::new(profile());
        assert!(tpl.page.interp.heap.is_frozen());
        tpl.setup(|page| page.run_script((WRAP, "wrap.js")).unwrap());
        assert!(tpl.page.interp.heap.is_frozen());
    }

    #[test]
    #[should_panic(expected = "cannot inherit")]
    fn setup_must_not_leave_host_state() {
        let mut tpl = PageTemplate::new(profile());
        tpl.setup(|page| page.run_script(("navigator.sendBeacon('/x');", "t")).unwrap());
    }

    /// The location data must track the instantiation URL, not the
    /// placeholder the template was built with.
    #[test]
    fn instantiate_repoints_location() {
        let tpl = PageTemplate::new(profile());
        let mut p = tpl.instantiate(Url::parse("https://a.example/x/y").unwrap(), None);
        let href = p.run_script(("location.href", "t")).unwrap();
        assert_eq!(href.as_str().unwrap(), "https://a.example/x/y");
        let dom = p.run_script(("document.domain", "t")).unwrap();
        assert_eq!(dom.as_str().unwrap(), "a.example");
        // A second page from the same template sees its own URL.
        let mut q = tpl.instantiate(Url::parse("https://b.example/").unwrap(), None);
        let href = q.run_script(("location.hostname", "t")).unwrap();
        assert_eq!(href.as_str().unwrap(), "b.example");
    }

    /// Pages stamped from one template must not share mutable state:
    /// globals, cookies and traffic are per-page.
    #[test]
    fn instantiated_pages_are_isolated() {
        let tpl = PageTemplate::new(profile());
        let url = |h: &str| Url::parse(&format!("https://{h}/")).unwrap();
        let mut a = tpl.instantiate(url("a.example"), None);
        let mut b = tpl.instantiate(url("b.example"), None);
        a.run_script(("window.flag = 'A'; document.cookie = 'id=a';", "t")).unwrap();
        let seen = b.run_script(("typeof window.flag", "t")).unwrap();
        assert_eq!(seen.as_str().unwrap(), "undefined");
        assert!(b.host.borrow().js_cookies.is_empty());
        a.run_script(("navigator.sendBeacon('/bd/v?bot=0');", "t")).unwrap();
        assert_eq!(a.traffic().len(), 1);
        assert!(b.traffic().is_empty());
        // Host-object behaviour still works in both clones.
        let ua = b.run_script(("navigator.userAgent", "t")).unwrap();
        assert!(ua.as_str().unwrap().contains("Firefox"));
    }

    /// Frames created inside a clone attach to that clone's host.
    #[test]
    fn frames_in_clones_stay_per_page() {
        let tpl = PageTemplate::new(profile());
        let mut a = tpl.instantiate(Url::parse("https://a.example/").unwrap(), None);
        let b = tpl.instantiate(Url::parse("https://b.example/").unwrap(), None);
        a.run_script((
            "document.body.appendChild(document.createElement('iframe'));",
            "t",
        ))
        .unwrap();
        assert_eq!(a.frames().len(), 1);
        assert!(b.frames().is_empty());
    }
}
