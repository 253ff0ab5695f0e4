//! Integration tests for the browser's web-platform surface: events, DOM
//! creation, fetch, Date, fonts, frames and window plumbing.

use browser::{CspPolicy, FingerprintProfile, FrameContext, Os, Page, RunMode};
use jsengine::Value;
use netsim::{ResourceType, Url};

fn page() -> Page {
    Page::new(
        FingerprintProfile::openwpm(Os::Ubuntu1804, RunMode::Regular),
        Url::parse("https://host.test/app").unwrap(),
        None,
    )
}

fn stock() -> Page {
    Page::new(
        FingerprintProfile::stock_firefox(Os::Ubuntu1804),
        Url::parse("https://host.test/app").unwrap(),
        None,
    )
}

#[test]
fn event_listeners_receive_dispatched_events() {
    let mut p = page();
    let v = p
        .run_script((
            r#"
            var got = [];
            document.addEventListener('ping', function (ev) { got.push(ev.detail); });
            document.dispatchEvent(new CustomEvent('ping', { detail: 'a' }));
            document.dispatchEvent(new CustomEvent('ping', { detail: 'b' }));
            document.dispatchEvent(new CustomEvent('other', { detail: 'c' }));
            got.join(',')
            "#,
            "t",
        ))
        .unwrap();
    assert_eq!(v.as_str().unwrap(), "a,b");
}

#[test]
fn remove_event_listener_works() {
    let mut p = page();
    let v = p
        .run_script((
            r#"
            var count = 0;
            function handler() { count++; }
            document.addEventListener('x', handler);
            document.dispatchEvent(new CustomEvent('x'));
            document.removeEventListener('x', handler);
            document.dispatchEvent(new CustomEvent('x'));
            count
            "#,
            "t",
        ))
        .unwrap();
    assert_eq!(v, Value::Num(1.0));
}

#[test]
fn iframe_creation_contexts_are_tracked() {
    let mut p = page();
    p.run_script((
        r#"
        var f = document.createElement('iframe');
        document.body.appendChild(f);
        window.open('https://popup.test/');
        document.write('<iframe src="x.html"></iframe>');
        "#,
        "t",
    ))
    .unwrap();
    let frames = p.frames();
    assert_eq!(frames.len(), 3);
    let contexts: Vec<FrameContext> = frames.iter().map(|(_, c)| *c).collect();
    assert!(contexts.contains(&FrameContext::IframeAppend));
    assert!(contexts.contains(&FrameContext::WindowOpen));
    assert!(contexts.contains(&FrameContext::DocumentWrite));
}

#[test]
fn content_window_is_a_fresh_clean_realm() {
    let mut p = page();
    let v = p
        .run_script((
            r#"
            window.marker = 'parent';
            var f = document.createElement('iframe');
            document.body.appendChild(f);
            var w = f.contentWindow;
            [w === window, typeof w.marker, typeof w.navigator, w.navigator === navigator].join(',')
            "#,
            "t",
        ))
        .unwrap();
    assert_eq!(v.as_str().unwrap(), "false,undefined,object,false");
}

#[test]
fn frames_array_exposes_children() {
    let mut p = page();
    let v = p
        .run_script((
            r#"
            var f = document.createElement('iframe');
            document.body.appendChild(f);
            [window.frames.length, window.frames[0] === f.contentWindow].join(',')
            "#,
            "t",
        ))
        .unwrap();
    assert_eq!(v.as_str().unwrap(), "1,true");
}

#[test]
fn fetch_records_traffic_and_resolves() {
    let mut p = page();
    p.add_server_resource("https://api.test/data", "application/json", "{\"k\":1}");
    let v = p
        .run_script((
            r#"
            var body = null;
            fetch('https://api.test/data')
                .then(function (r) { return r.text(); })
                .then(function (t) { body = t; });
            body
            "#,
            "t",
        ))
        .unwrap();
    assert_eq!(v.as_str().unwrap(), "{\"k\":1}");
    let traffic = p.traffic();
    assert_eq!(traffic.len(), 1);
    assert_eq!(traffic[0].resource_type, ResourceType::XmlHttpRequest);
    assert_eq!(traffic[0].url.host, "api.test");
}

#[test]
fn fetch_missing_resource_is_404() {
    let mut p = page();
    let v = p
        .run_script((
            "var st = 0; fetch('https://nowhere.test/x').then(function (r) { st = r.status; }); st",
            "t",
        ))
        .unwrap();
    assert_eq!(v, Value::Num(404.0));
}

#[test]
fn send_beacon_records_beacon_traffic() {
    let mut p = page();
    p.run_script(("navigator.sendBeacon('https://collect.test/b?x=1');", "t")).unwrap();
    let traffic = p.traffic();
    assert_eq!(traffic.len(), 1);
    assert_eq!(traffic[0].resource_type, ResourceType::Beacon);
    assert_eq!(traffic[0].method, "POST");
}

#[test]
fn dynamic_script_elements_fetch_and_execute() {
    let mut p = page();
    p.add_server_resource("https://cdn.test/lib.js", "text/javascript", "window.libLoaded = 7;");
    p.run_script((
        r#"
        var s = document.createElement('script');
        s.src = 'https://cdn.test/lib.js';
        document.head.appendChild(s);
        "#,
        "t",
    ))
    .unwrap();
    let v = p.run_script(("window.libLoaded", "t")).unwrap();
    assert_eq!(v, Value::Num(7.0));
    assert!(p.traffic().iter().any(|r| r.resource_type == ResourceType::Script));
}

#[test]
fn date_reflects_profile_timezone() {
    let mut regular = page();
    let v = regular.run_script(("new Date().getTimezoneOffset()", "t")).unwrap();
    assert_eq!(v, Value::Num(-120.0));
    let mut docker = Page::new(
        FingerprintProfile::openwpm(Os::Ubuntu1804, RunMode::Docker),
        Url::parse("https://host.test/").unwrap(),
        None,
    );
    let v = docker.run_script(("new Date().getTimezoneOffset()", "t")).unwrap();
    assert_eq!(v, Value::Num(0.0));
}

#[test]
fn date_now_advances_with_virtual_time() {
    let mut p = page();
    let t0 = p.run_script(("Date.now()", "t")).unwrap().to_number();
    p.advance(5_000);
    let t1 = p.run_script(("Date.now()", "t")).unwrap().to_number();
    assert_eq!(t1 - t0, 5_000.0);
}

#[test]
fn fonts_check_reflects_profile() {
    let mut p = page();
    let v = p
        .run_script((
            "[document.fonts.check('12px Arial'), document.fonts.check('12px NoSuchFont')].join(',')",
            "t",
        ))
        .unwrap();
    assert_eq!(v.as_str().unwrap(), "true,false");
    let mut docker = Page::new(
        FingerprintProfile::openwpm(Os::Ubuntu1804, RunMode::Docker),
        Url::parse("https://host.test/").unwrap(),
        None,
    );
    let v = docker
        .run_script((
            "[document.fonts.check('12px Arial'), document.fonts.check('12px Bitstream Vera Sans Mono')].join(',')",
            "t",
        ))
        .unwrap();
    assert_eq!(v.as_str().unwrap(), "false,true");
}

#[test]
fn location_reflects_page_url() {
    let mut p = page();
    let v = p
        .run_script(("[location.host, location.pathname, location.protocol].join(' ')", "t"))
        .unwrap();
    assert_eq!(v.as_str().unwrap(), "host.test /app https:");
}

#[test]
fn document_cookie_roundtrip() {
    let mut p = page();
    let v = p
        .run_script((
            "document.cookie = 'a=1'; document.cookie = 'b=2'; document.cookie",
            "t",
        ))
        .unwrap();
    assert_eq!(v.as_str().unwrap(), "a=1; b=2");
}

#[test]
fn headless_has_no_webgl_but_stock_does() {
    let mut headless = Page::new(
        FingerprintProfile::openwpm(Os::Ubuntu1804, RunMode::Headless),
        Url::parse("https://host.test/").unwrap(),
        None,
    );
    let v = headless
        .run_script(("document.createElement('canvas').getContext('webgl') === null", "t"))
        .unwrap();
    assert_eq!(v, Value::Bool(true));
    let mut s = stock();
    let v = s
        .run_script((
            "document.createElement('canvas').getContext('webgl').getParameter(37445)",
            "t",
        ))
        .unwrap();
    assert_eq!(v.as_str().unwrap(), "AMD");
}

#[test]
fn illegal_invocation_on_prototype_getters() {
    let mut p = page();
    let v = p
        .run_script((
            r#"
            var threw = 0;
            try { Object.getOwnPropertyDescriptor(Navigator.prototype, 'userAgent').get.call({}); }
            catch (e) { threw++; }
            try { Object.getOwnPropertyDescriptor(Screen.prototype, 'width').get.call(navigator); }
            catch (e) { threw++; }
            threw
            "#,
            "t",
        ))
        .unwrap();
    assert_eq!(v, Value::Num(2.0));
}

#[test]
fn csp_only_blocks_injection_not_page_scripts() {
    let mut p = Page::new(
        FingerprintProfile::openwpm(Os::Ubuntu1804, RunMode::Regular),
        Url::parse("https://host.test/").unwrap(),
        Some(CspPolicy::strict("/report")),
    );
    // Page's own scripts run fine.
    let v = p.run_script(("1 + 1", "site.js")).unwrap();
    assert_eq!(v, Value::Num(2.0));
    // Injection is refused.
    assert!(p.dom_inject_script(("window.x = 1;", "inject")).is_err());
}

#[test]
fn element_lookups_answer_body_after_converting_their_argument() {
    let mut p = page();
    let v = p
        .run_script((
            r#"
            var el = document.createElement('div');
            el.setAttribute('id', 'x');
            var conversions = 0;
            var key = { toString: function () { conversions++; return 'x'; } };
            [
                document.getElementById(key) === document.body,
                document.querySelector(key) === document.body,
                document.getElementById('x') === document.body,
                document.querySelector('#x') === document.body,
                conversions
            ].join(',')
            "#,
            "t",
        ))
        .unwrap();
    assert_eq!(v.as_str().unwrap(), "true,true,true,true,2");
}

#[test]
fn storage_roundtrip() {
    let mut p = page();
    let v = p
        .run_script((
            r#"
            localStorage.setItem('uid', 'abc123');
            var a = localStorage.getItem('uid');
            var missing = localStorage.getItem('nope');
            localStorage.removeItem('uid');
            var gone = localStorage.getItem('uid');
            [a, missing === null, gone === null].join(',')
            "#,
            "t",
        ))
        .unwrap();
    assert_eq!(v.as_str().unwrap(), "abc123,true,true");
}

#[test]
fn session_and_local_storage_are_distinct() {
    let mut p = page();
    let v = p
        .run_script((
            r#"
            localStorage.setItem('k', 'local');
            sessionStorage.setItem('k', 'session');
            [localStorage.getItem('k'), sessionStorage.getItem('k')].join(',')
            "#,
            "t",
        ))
        .unwrap();
    assert_eq!(v.as_str().unwrap(), "local,session");
}

#[test]
fn window_chrome_only_on_chromium_family() {
    let mut ff = stock();
    let v = ff.run_script(("typeof window.chrome", "t")).unwrap();
    assert_eq!(v.as_str().unwrap(), "undefined");
    let mut cr = Page::new(
        FingerprintProfile::stock_chrome(Os::Ubuntu1804),
        Url::parse("https://host.test/").unwrap(),
        None,
    );
    let v = cr.run_script(("typeof window.chrome === 'object' && typeof window.chrome.runtime === 'object'", "t")).unwrap();
    assert_eq!(v, Value::Bool(true));
}

#[test]
fn hardware_concurrency_exposed() {
    let mut p = page();
    let v = p.run_script(("navigator.hardwareConcurrency", "t")).unwrap();
    assert_eq!(v, Value::Num(8.0));
}
