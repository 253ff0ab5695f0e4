//! Installation of the web-platform host objects into a realm.
//!
//! Builds the object graph a page script can reach: `window`, `navigator`,
//! `screen`, `document`, element constructors, `CustomEvent`, `Date`,
//! `fetch`, timers and the event-target machinery. Property values come
//! from the realm's [`crate::profile::FingerprintProfile`], so two realms with different
//! profiles differ *exactly* where the paper's Tables 2–4 say they do.
//!
//! Layout notes that matter for the experiments:
//!
//! * IDL attributes are **accessor properties on the prototypes** with
//!   native getters that validate their receiver (calling
//!   `Object.getOwnPropertyDescriptor(Navigator.prototype,
//!   'userAgent').get.call({})` throws, as in Firefox) — the tamper check
//!   the stealth instrumentation must survive (Sec. 6.1.1);
//! * prototype chains are deep enough to pollute: `document` →
//!   `Document.prototype` → `Node.prototype` → `EventTarget.prototype`,
//!   which is what makes the vanilla instrument's flattening observable
//!   (Fig. 2);
//! * the WebGL surface is materialised lazily on each
//!   `canvas.getContext('webgl')` call (pages that never probe it don't pay
//!   for ~2,000 properties), as a copy of a property map built once per
//!   profile ([`crate::WebGlProfile::surface`]);
//! * `fetch` returns a synchronously-resolving thenable (a deliberate
//!   simplification — the corpus only chains `.then`).

use std::sync::Arc;

use jsengine::interp::ErrorKind;
use jsengine::{Interp, JsObject, ObjId, Property, Slot, Value};
use netsim::ResourceType;

use crate::page::{host_of, FrameContext, PageShared, RealmWindow};

/// Insert an enumerable data property.
fn data(it: &mut Interp, obj: ObjId, name: &str, v: Value) {
    it.heap.get_mut(obj).props.insert(Arc::from(name), Property::data(v));
}

/// Insert an enumerable native method (WebIDL operations are enumerable).
fn method(
    it: &mut Interp,
    obj: ObjId,
    name: &str,
    f: impl Fn(&mut Interp, Value, &[Value]) -> Result<Value, jsengine::Thrown> + 'static,
) {
    let func = it.alloc_native_fn(name, f);
    data(it, obj, name, Value::Obj(func));
}

/// Install an accessor property with a receiver-validating native getter.
/// `expected_class` is the internal class the receiver must have.
fn idl_getter(
    it: &mut Interp,
    proto: ObjId,
    name: &str,
    expected_class: &'static str,
    f: impl Fn(&mut Interp, ObjId) -> Result<Value, jsengine::Thrown> + 'static,
) {
    let name_owned: Arc<str> = Arc::from(name);
    let getter = it.alloc_native_fn(name, move |it, this, _args| {
        let name = &name_owned;
        let Some(id) = this.as_obj() else {
            return Err(it.throw_error(ErrorKind::Type, "'get' called on incompatible receiver"));
        };
        if it.heap.get(id).class != expected_class {
            return Err(it.throw_error(
                ErrorKind::Type,
                &format!("'get {name}' called on an object that does not implement interface {expected_class}"),
            ));
        }
        f(it, id)
    });
    it.heap
        .get_mut(proto)
        .props
        .insert(Arc::from(name), Property::accessor(Some(getter), None));
}

/// Expose an interface object (`window.Navigator` style): a non-constructible
/// function whose `prototype` is `proto`.
fn expose_interface(it: &mut Interp, window: ObjId, name: &str, proto: ObjId) {
    let ctor = it.alloc_native_fn(name, move |it, _this, _args| {
        Err(it.throw_error(ErrorKind::Type, "Illegal constructor"))
    });
    it.heap
        .get_mut(ctor)
        .props
        .insert(Arc::from("prototype"), Property::data_hidden(Value::Obj(proto)));
    it.heap
        .get_mut(proto)
        .props
        .insert(Arc::from("constructor"), Property::data_hidden(Value::Obj(ctor)));
    data(it, window, name, Value::Obj(ctor));
}

fn string_arg(it: &mut Interp, args: &[Value], i: usize) -> Result<Arc<str>, jsengine::Thrown> {
    let v = args.get(i).cloned().unwrap_or(Value::Undefined);
    it.to_string_value(&v)
}

/// Build one window realm. For `is_top` this dresses up the interpreter's
/// existing global object; otherwise a fresh `Window` object (an iframe's
/// `contentWindow`) with its own prototypes is created — crucially *without*
/// any instrumentation, which is what the iframe bypass exploits.
pub fn install_window(it: &mut Interp, host: &PageShared, is_top: bool) -> RealmWindow {
    let object_proto = it.intrinsics.object_proto;
    let window = if is_top {
        it.global
    } else {
        it.heap.alloc(JsObject::with_class(Some(object_proto), "Window"))
    };

    // ----- prototype chains -----
    let event_target_proto =
        it.heap.alloc(JsObject::with_class(Some(object_proto), "EventTargetPrototype"));
    let node_proto =
        it.heap.alloc(JsObject::with_class(Some(event_target_proto), "NodePrototype"));
    let element_proto =
        it.heap.alloc(JsObject::with_class(Some(node_proto), "ElementPrototype"));
    let html_element_proto =
        it.heap.alloc(JsObject::with_class(Some(element_proto), "HTMLElementPrototype"));
    let document_proto =
        it.heap.alloc(JsObject::with_class(Some(node_proto), "DocumentPrototype"));
    let navigator_proto =
        it.heap.alloc(JsObject::with_class(Some(object_proto), "NavigatorPrototype"));
    let screen_proto =
        it.heap.alloc(JsObject::with_class(Some(event_target_proto), "ScreenPrototype"));
    let canvas_proto = it
        .heap
        .alloc(JsObject::with_class(Some(html_element_proto), "HTMLCanvasElementPrototype"));

    install_event_target(it, event_target_proto);
    install_canvas_methods(it, canvas_proto);
    install_node_methods(it, node_proto);
    install_element_methods(it, element_proto);

    // ----- navigator -----
    let navigator = it.heap.alloc(JsObject::with_class(Some(navigator_proto), "Navigator"));
    {
        idl_getter(it, navigator_proto, "userAgent", "Navigator", move |it, _id| {
            let h = host_of(it);
            let ua = h.borrow().profile.user_agent();
            Ok(Value::str(ua))
        });
        idl_getter(it, navigator_proto, "webdriver", "Navigator", move |it, _id| {
            let h = host_of(it);
            let wd = h.borrow().profile.webdriver;
            Ok(Value::Bool(wd))
        });
        idl_getter(it, navigator_proto, "platform", "Navigator", move |it, _id| {
            let h = host_of(it);
            let os = h.borrow().profile.os;
            Ok(Value::str(match os {
                crate::profile::Os::MacOs1015 => "MacIntel",
                crate::profile::Os::Ubuntu1804 => "Linux x86_64",
            }))
        });
        idl_getter(it, navigator_proto, "language", "Navigator", move |it, _id| {
            let h = host_of(it);
            let lang = h.borrow().profile.languages.first().copied().unwrap_or("en-US");
            Ok(Value::str(lang))
        });
        idl_getter(it, navigator_proto, "languages", "Navigator", move |it, _id| {
            let (langs, extra) = {
                let h = host_of(it);
                let hb = h.borrow();
                (hb.profile.languages.clone(), hb.profile.extra_language_props)
            };
            let items: Vec<Value> = langs.iter().map(|l| Value::str(*l)).collect();
            let arr = it.alloc_array(items);
            // Headless mode decorates the language object with extra
            // properties (Sec. 3.1.2: "43 new properties").
            for i in 0..extra {
                data(it, arr, &format!("mozHeadlessLang{i:02}"), Value::Bool(true));
            }
            Ok(Value::Obj(arr))
        });
        idl_getter(it, navigator_proto, "plugins", "Navigator", move |it, _id| {
            Ok(Value::Obj(it.alloc_array(Vec::new())))
        });
        idl_getter(it, navigator_proto, "appVersion", "Navigator", move |_it, _id| {
            Ok(Value::str("5.0 (X11)"))
        });
        method(it, navigator_proto, "sendBeacon", move |it, _this, args| {
            let h = host_of(it);
            let url_s = string_arg(it, args, 0)?;
            let url = h.borrow().resolve_url(&url_s);
            let t = it.now_ms;
            h.borrow_mut().push_request(url, ResourceType::Beacon, t);
            Ok(Value::Bool(true))
        });
        method(it, navigator_proto, "javaEnabled", |_it, _this, _args| {
            Ok(Value::Bool(false))
        });
        idl_getter(it, navigator_proto, "hardwareConcurrency", "Navigator", move |it, _id| {
            let h = host_of(it);
            let hc = h.borrow().profile.hardware_concurrency;
            Ok(Value::Num(hc as f64))
        });
    }

    // ----- screen -----
    let screen = it.heap.alloc(JsObject::with_class(Some(screen_proto), "Screen"));
    {
        macro_rules! screen_getter {
            ($name:literal, $f:expr) => {{
                idl_getter(it, screen_proto, $name, "Screen", move |it, _id| {
                    let h = host_of(it);
                    let p = &h.borrow().profile;
                    #[allow(clippy::redundant_closure_call)]
                    Ok(Value::Num(($f)(p) as f64))
                });
            }};
        }
        screen_getter!("width", |p: &crate::profile::FingerprintProfile| p.geometry.screen_width as i64);
        screen_getter!("height", |p: &crate::profile::FingerprintProfile| p.geometry.screen_height as i64);
        screen_getter!("availWidth", |p: &crate::profile::FingerprintProfile| {
            p.geometry.screen_width as i64 - p.avail_left as i64
        });
        screen_getter!("availHeight", |p: &crate::profile::FingerprintProfile| {
            p.geometry.screen_height as i64 - p.avail_top as i64
        });
        screen_getter!("availTop", |p: &crate::profile::FingerprintProfile| p.avail_top as i64);
        screen_getter!("availLeft", |p: &crate::profile::FingerprintProfile| p.avail_left as i64);
        screen_getter!("colorDepth", |_p: &crate::profile::FingerprintProfile| 24i64);
        screen_getter!("pixelDepth", |_p: &crate::profile::FingerprintProfile| 24i64);
    }

    // ----- document -----
    let document = it.heap.alloc(JsObject::with_class(Some(document_proto), "HTMLDocument"));
    let body = make_element(it, html_element_proto, "body");
    let head = make_element(it, html_element_proto, "head");
    data(it, document, "readyState", Value::str("complete"));
    data(it, document, "body", Value::Obj(body));
    data(it, document, "head", Value::Obj(head));
    data(it, document, "title", Value::str(""));
    {
        let page_url = host.borrow().page_url.clone();
        let location = it.alloc_object_with_class("Location");
        data(it, location, "href", Value::str(page_url.to_string()));
        data(it, location, "host", Value::str(&page_url.host));
        data(it, location, "hostname", Value::str(&page_url.host));
        data(it, location, "pathname", Value::str(&page_url.path));
        data(it, location, "protocol", Value::str(format!("{}:", page_url.scheme)));
        data(it, document, "location", Value::Obj(location));
        data(it, window, "location", Value::Obj(location));
        data(it, document, "domain", Value::str(&page_url.host));
    }
    {
        // document.cookie accessor: reads/writes the JS-visible cookie
        // string; the cookie instrument observes stores host-side.
        let getter = it.alloc_native_fn("cookie", move |it, _this, _args| {
            let h = host_of(it);
            let joined = h.borrow().js_cookies.join("; ");
            Ok(Value::str(joined))
        });
        let setter = it.alloc_native_fn("cookie", move |it, _this, args| {
            let s = string_arg(it, args, 0)?;
            host_of(it).borrow_mut().js_cookies.push(s.to_string());
            Ok(Value::Undefined)
        });
        it.heap
            .get_mut(document_proto)
            .props
            .insert(Arc::from("cookie"), Property::accessor(Some(getter), Some(setter)));
    }
    {
        // document.fonts.check("12px FontName") — FontFaceSet.check.
        let fonts = it.alloc_object_with_class("FontFaceSet");
        method(it, fonts, "check", move |it, _this, args| {
            let spec = string_arg(it, args, 0)?;
            let name = spec.split_once(' ').map(|(_, n)| n).unwrap_or(&spec);
            let name = name.trim_matches(['"', '\''].as_ref());
            let h = host_of(it);
            let present = h.borrow().profile.fonts.contains(&name);
            Ok(Value::Bool(present))
        });
        let count = host.borrow().profile.fonts.len();
        data(it, fonts, "size", Value::Num(count as f64));
        data(it, document, "fonts", Value::Obj(fonts));
    }
    {
        let hep = html_element_proto;
        let cvp = canvas_proto;
        method(it, document_proto, "createElement", move |it, _this, args| {
            let tag = string_arg(it, args, 0)?;
            Ok(Value::Obj(make_element_with_canvas(it, hep, cvp, &tag)))
        });
        let body_id = body;
        // Pages in the simulation have no parsed static HTML, so every
        // lookup answers <body> and verbatim PoC listings work. The argument
        // is still converted: a `toString` on it is observable and costs
        // steps.
        method(it, document_proto, "getElementById", move |it, _this, args| {
            string_arg(it, args, 0)?;
            Ok(Value::Obj(body_id))
        });
        method(it, document_proto, "querySelector", move |it, _this, args| {
            string_arg(it, args, 0)?;
            Ok(Value::Obj(body_id))
        });
        method(it, document_proto, "write", move |it, _this, args| {
            let html = string_arg(it, args, 0)?;
            if html.contains("<iframe") {
                let h = host_of(it);
                create_frame(it, &h, FrameContext::DocumentWrite);
            }
            Ok(Value::Undefined)
        });
    }

    // ----- window properties -----
    let frames_array = it.alloc_array(Vec::new());
    {
        let p = host.borrow().profile.clone();
        let chrome_h = if p.mode.is_displayless() { 0 } else { 74 };
        data(it, window, "innerWidth", Value::Num(p.geometry.window_width as f64));
        data(
            it,
            window,
            "innerHeight",
            Value::Num((p.geometry.window_height - chrome_h) as f64),
        );
        data(it, window, "outerWidth", Value::Num(p.geometry.window_width as f64));
        data(it, window, "outerHeight", Value::Num(p.geometry.window_height as f64));
        data(it, window, "screenX", Value::Num(p.screen_x_for_instance() as f64));
        data(it, window, "screenY", Value::Num(p.screen_y_for_instance() as f64));
        data(it, window, "devicePixelRatio", Value::Num(1.0));
        data(it, window, "name", Value::str(""));
    }
    data(it, window, "navigator", Value::Obj(navigator));
    data(it, window, "screen", Value::Obj(screen));
    data(it, window, "document", Value::Obj(document));
    data(it, window, "self", Value::Obj(window));
    data(it, window, "window", Value::Obj(window));
    data(it, window, "frames", Value::Obj(frames_array));
    {
        let top_id = if is_top { window } else { host.borrow().top_window().unwrap_or(window) };
        data(it, window, "top", Value::Obj(top_id));
        data(it, window, "parent", Value::Obj(top_id));
    }

    // Interface objects on the window, so page scripts (and the injected
    // instrumentation) can reach the prototypes by name.
    expose_interface(it, window, "Navigator", navigator_proto);
    expose_interface(it, window, "Screen", screen_proto);
    expose_interface(it, window, "Document", document_proto);
    expose_interface(it, window, "HTMLDocument", document_proto);
    expose_interface(it, window, "Node", node_proto);
    expose_interface(it, window, "Element", element_proto);
    expose_interface(it, window, "HTMLElement", html_element_proto);
    expose_interface(it, window, "EventTarget", event_target_proto);
    expose_interface(it, window, "HTMLCanvasElement", canvas_proto);

    // ----- CustomEvent / Event -----
    install_events_ctor(it, window);
    // ----- Date -----
    install_date(it, window);
    // ----- fetch -----
    install_fetch(it, window);

    // ----- storage -----
    // localStorage / sessionStorage: per-realm in-page stores (enough for
    // fingerprinting scripts that stash identifiers).
    for name in ["localStorage", "sessionStorage"] {
        let storage = it.heap.alloc(JsObject::with_class(Some(object_proto), "Storage"));
        let backing = it.alloc_object();
        method(it, storage, "getItem", move |it, _this, args| {
            let key = string_arg(it, args, 0)?;
            match it.get_prop(&Value::Obj(backing), &key)? {
                Value::Undefined => Ok(Value::Null),
                v => Ok(v),
            }
        });
        method(it, storage, "setItem", move |it, _this, args| {
            let key = string_arg(it, args, 0)?;
            let value = string_arg(it, args, 1)?;
            it.set_prop(&Value::Obj(backing), &key, Value::Str(value))?;
            Ok(Value::Undefined)
        });
        method(it, storage, "removeItem", move |it, _this, args| {
            let key = string_arg(it, args, 0)?;
            it.delete_prop(&Value::Obj(backing), &key);
            Ok(Value::Undefined)
        });
        data(it, window, name, Value::Obj(storage));
    }

    // Chromium family exposes `window.chrome` — the classic cross-family
    // check consumer-browser validation needs (Sec. 3.3).
    if host.borrow().profile.is_chromium {
        let chrome = it.alloc_object_with_class("Object");
        let runtime = it.alloc_object();
        data(it, chrome, "runtime", Value::Obj(runtime));
        data(it, window, "chrome", Value::Obj(chrome));
    }

    // ----- window.open -----
    method(it, window, "open", move |it, _this, _args| {
        let h = host_of(it);
        let rw = create_frame(it, &h, FrameContext::WindowOpen);
        Ok(Value::Obj(rw.window))
    });

    let rw = RealmWindow {
        window,
        navigator,
        screen,
        document,
        body,
        navigator_proto,
        screen_proto,
        document_proto,
        node_proto,
        element_proto,
        event_target_proto,
        canvas_proto,
        frames_array,
        is_top,
    };
    if is_top {
        host.borrow_mut().set_top(rw);
    }
    rw
}

// ------------------------------------------------------------ event target

fn install_event_target(it: &mut Interp, proto: ObjId) {
    method(it, proto, "addEventListener", move |it, this, args| {
        let Some(target) = this.as_obj() else {
            return Err(it.throw_error(ErrorKind::Type, "invalid EventTarget"));
        };
        let etype = string_arg(it, args, 0)?;
        let listener = args.get(1).cloned().unwrap_or(Value::Undefined);
        host_of(it)
            .borrow_mut()
            .listeners
            .entry((target.0, etype.to_string()))
            .or_default()
            .push(listener);
        Ok(Value::Undefined)
    });
    method(it, proto, "removeEventListener", move |it, this, args| {
        let Some(target) = this.as_obj() else {
            return Ok(Value::Undefined);
        };
        let etype = string_arg(it, args, 0)?;
        let listener = args.get(1).cloned().unwrap_or(Value::Undefined);
        let h = host_of(it);
        if let Some(ls) = h.borrow_mut().listeners.get_mut(&(target.0, etype.to_string())) {
            ls.retain(|l| !l.strict_eq(&listener));
        }
        Ok(Value::Undefined)
    });
    method(it, proto, "dispatchEvent", move |it, this, args| {
        let event = args.first().cloned().unwrap_or(Value::Undefined);
        let etype = {
            let t = it.get_prop(&event, "type")?;
            it.to_string_value(&t)?
        };
        let h = host_of(it);
        // JS listeners registered on this target.
        if let Some(target) = this.as_obj() {
            let listeners = h
                .borrow()
                .listeners
                .get(&(target.0, etype.to_string()))
                .cloned()
                .unwrap_or_default();
            for l in listeners {
                if matches!(&l, Value::Obj(id) if it.heap.get(*id).is_callable()) {
                    it.call(l, this.clone(), std::slice::from_ref(&event))?;
                }
            }
        }
        // Privileged (extension) sinks see every natively-dispatched event —
        // and nothing that a shadowing page function chose to swallow.
        let sinks = h.borrow().event_sinks.clone();
        for sink in sinks {
            sink(it, &etype, event.clone());
        }
        Ok(Value::Bool(true))
    });
}

fn install_events_ctor(it: &mut Interp, window: ObjId) {
    for name in ["CustomEvent", "Event"] {
        let ctor = it.alloc_native_fn(name, move |it, _this, args| {
            let etype = string_arg(it, args, 0)?;
            let ev = it.alloc_object_with_class("CustomEvent");
            data(it, ev, "type", Value::Str(etype));
            data(it, ev, "bubbles", Value::Bool(false));
            let detail = match args.get(1) {
                Some(opts @ Value::Obj(_)) => it.get_prop(opts, "detail")?,
                _ => Value::Undefined,
            };
            data(it, ev, "detail", detail);
            Ok(Value::Obj(ev))
        });
        data(it, window, name, Value::Obj(ctor));
    }
}

fn install_date(it: &mut Interp, window: ObjId) {
    let date_proto = it.heap.alloc(JsObject::with_class(
        Some(it.intrinsics.object_proto),
        "DatePrototype",
    ));
    {
        method(it, date_proto, "getTime", move |it, _this, _args| {
            let h = host_of(it);
            let t = h.borrow().epoch_base_ms + it.now_ms;
            Ok(Value::Num(t as f64))
        });
        method(it, date_proto, "getTimezoneOffset", move |it, _this, _args| {
            let h = host_of(it);
            let tz = h.borrow().profile.timezone_offset_min;
            Ok(Value::Num(tz as f64))
        });
        method(it, date_proto, "getFullYear", |_it, _this, _args| {
            Ok(Value::Num(2022.0))
        });
        method(it, date_proto, "toISOString", |_it, _this, _args| {
            Ok(Value::str("2022-06-20T00:00:00.000Z"))
        });
    }
    let dp = date_proto;
    let ctor = it.alloc_native_fn("Date", move |it, _this, _args| {
        let obj = it.heap.alloc(JsObject::with_class(Some(dp), "Date"));
        Ok(Value::Obj(obj))
    });
    it.heap
        .get_mut(ctor)
        .props
        .insert(Arc::from("prototype"), Property::data_hidden(Value::Obj(date_proto)));
    {
        method(it, ctor, "now", move |it, _this, _args| {
            let h = host_of(it);
            let t = h.borrow().epoch_base_ms + it.now_ms;
            Ok(Value::Num(t as f64))
        });
    }
    data(it, window, "Date", Value::Obj(ctor));
}

fn install_fetch(it: &mut Interp, window: ObjId) {
    method(it, window, "fetch", move |it, _this, args| {
        let url_s = string_arg(it, args, 0)?;
        let h = host_of(it);
        let url = h.borrow().resolve_url(&url_s);
        let t = it.now_ms;
        h.borrow_mut().push_request(url, ResourceType::XmlHttpRequest, t);
        let resp = h.borrow().server_resources.get(&*url_s).cloned();
        let (status, body_rc) = match resp {
            Some(r) => (r.status, r.body),
            None => (404, Arc::from("")),
        };
        let robj = it.alloc_object_with_class("Response");
        data(it, robj, "status", Value::Num(status as f64));
        data(it, robj, "ok", Value::Bool(status == 200));
        {
            let body_rc = body_rc.clone();
            method(it, robj, "text", move |it, _this, _args| {
                let v = Value::Str(body_rc.clone());
                Ok(make_thenable(it, v))
            });
        }
        Ok(make_thenable(it, Value::Obj(robj)))
    });
}

/// A synchronously-resolving thenable standing in for a Promise. `.then(cb)`
/// immediately invokes `cb` with the resolved value and wraps the result;
/// `.catch` is a no-op returning the same thenable. The corpus only chains
/// `.then`, so eager resolution is behaviour-preserving for it.
pub fn make_thenable(it: &mut Interp, resolved: Value) -> Value {
    let p = it.alloc_object_with_class("Promise");
    {
        let resolved = resolved.clone();
        method(it, p, "then", move |it, _this, args| {
            let cb = args.first().cloned().unwrap_or(Value::Undefined);
            let next = match &cb {
                Value::Obj(id) if it.heap.get(*id).is_callable() => {
                    it.call(cb.clone(), Value::Undefined, std::slice::from_ref(&resolved))?
                }
                _ => resolved.clone(),
            };
            // Flatten thenables like real `then` does.
            if let Value::Obj(id) = &next {
                if it.heap.get(*id).class == "Promise" {
                    return Ok(next);
                }
            }
            Ok(make_thenable(it, next))
        });
    }
    let p_val = Value::Obj(p);
    {
        let p_ret = p_val.clone();
        method(it, p, "catch", move |_it, _this, _args| Ok(p_ret.clone()));
    }
    p_val
}

// ----------------------------------------------------------------- elements

/// Create an element object for `tag`.
pub fn make_element(it: &mut Interp, html_element_proto: ObjId, tag: &str) -> ObjId {
    make_element_with_canvas(it, html_element_proto, html_element_proto, tag)
}

/// Element creation with the realm's canvas prototype available (canvas
/// elements chain through `HTMLCanvasElement.prototype`).
pub fn make_element_with_canvas(
    it: &mut Interp,
    html_element_proto: ObjId,
    canvas_proto: ObjId,
    tag: &str,
) -> ObjId {
    let tag_lower = tag.to_ascii_lowercase();
    let class = match tag_lower.as_str() {
        "iframe" => "HTMLIFrameElement",
        "canvas" => "HTMLCanvasElement",
        "script" => "HTMLScriptElement",
        "div" => "HTMLDivElement",
        "body" => "HTMLBodyElement",
        "head" => "HTMLHeadElement",
        _ => "HTMLElement",
    };
    let proto = if class == "HTMLCanvasElement" { canvas_proto } else { html_element_proto };
    let el = it.heap.alloc(JsObject::with_class(Some(proto), class));
    data(it, el, "tagName", Value::str(tag_lower.to_ascii_uppercase()));
    data(it, el, "id", Value::str(""));
    data(it, el, "src", Value::str(""));
    let style = it.alloc_object();
    data(it, el, "style", Value::Obj(style));
    el
}

/// Canvas APIs on `HTMLCanvasElement.prototype` — `getContext` (WebGL per
/// profile, Sec. 3.1) and `toDataURL` (a deterministic render hash standing
/// in for canvas fingerprinting).
fn install_canvas_methods(it: &mut Interp, canvas_proto: ObjId) {
    method(it, canvas_proto, "getContext", move |it, this, args| {
        let Some(id) = this.as_obj() else {
            return Err(it.throw_error(ErrorKind::Type, "getContext on non-canvas"));
        };
        if it.heap.get(id).class != "HTMLCanvasElement" {
            return Err(it.throw_error(ErrorKind::Type, "getContext on non-canvas"));
        }
        let kind = string_arg(it, args, 0)?;
        if &*kind == "webgl" || &*kind == "experimental-webgl" {
            let profile = host_of(it).borrow().profile.clone();
            match &profile.webgl {
                None => Ok(Value::Null), // headless: no WebGL at all
                Some(webgl) => Ok(Value::Obj(make_webgl_context(it, webgl))),
            }
        } else {
            Ok(Value::Obj(it.alloc_object_with_class("CanvasRenderingContext2D")))
        }
    });
    method(it, canvas_proto, "toDataURL", move |it, _this, _args| {
        // Deterministic per-profile render hash: same GPU/driver → same
        // pixels, the premise of canvas fingerprinting.
        let h = host_of(it);
        let hb = h.borrow();
        let mut x = hb.profile.geometry.screen_width as u64;
        x = x.wrapping_mul(0x100_0000_01B3)
            ^ hb.profile.webgl.as_ref().map(|w| w.renderer.len() as u64).unwrap_or(0)
            ^ hb.profile.fonts.len() as u64;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        Ok(Value::str(format!("data:image/png;base64,{x:016x}")))
    });
}

/// Methods shared by all nodes (on `Node.prototype`): `appendChild` is the
/// DOM-modification entry the stealth frame protection must intercept.
fn install_node_methods(it: &mut Interp, node_proto: ObjId) {
    method(it, node_proto, "appendChild", move |it, this, args| {
        let child = args.first().cloned().unwrap_or(Value::Undefined);
        let Some(child_id) = child.as_obj() else {
            return Err(it.throw_error(ErrorKind::Type, "appendChild requires a node"));
        };
        let h = host_of(it);
        match it.heap.get(child_id).class {
            "HTMLIFrameElement" => {
                // Attaching an iframe creates its browsing context — a
                // pristine window object, instrumented only if a (sync or
                // eventually-run async) frame hook does so.
                let rw = create_frame(it, &h, FrameContext::IframeAppend);
                data(it, child_id, "contentWindow", Value::Obj(rw.window));
                data(it, child_id, "contentDocument", Value::Obj(rw.document));
            }
            "HTMLScriptElement" => {
                // Appending a <script src> fetches and runs it — this is
                // how dynamically-loaded detectors arrive.
                let src = it.get_prop(&child, "src")?;
                let src_s = it.to_string_value(&src)?;
                if !src_s.is_empty() {
                    let url = h.borrow().resolve_url(&src_s);
                    let t = it.now_ms;
                    h.borrow_mut().push_request(url, ResourceType::Script, t);
                    let resp = h.borrow().server_resources.get(&*src_s).cloned();
                    if let Some(r) = resp {
                        let _ = it.eval_in_scope(Value::Str(r.body), &it.global_scope());
                    }
                } else {
                    let text = it.get_prop(&child, "text")?;
                    if let Value::Str(code) = text {
                        let _ = it.eval_in_scope(Value::Str(code), &it.global_scope());
                    }
                }
            }
            _ => {}
        }
        let _ = this;
        Ok(child)
    });
    method(it, node_proto, "removeChild", |_it, _this, args| {
        Ok(args.first().cloned().unwrap_or(Value::Undefined))
    });
}

/// Methods on `Element.prototype`.
fn install_element_methods(it: &mut Interp, element_proto: ObjId) {
    method(it, element_proto, "setAttribute", move |it, this, args| {
        let name = string_arg(it, args, 0)?;
        let value = string_arg(it, args, 1)?;
        it.set_prop(&this, &name, Value::Str(value))?;
        Ok(Value::Undefined)
    });
    method(it, element_proto, "getAttribute", move |it, this, args| {
        let name = string_arg(it, args, 0)?;
        it.get_prop(&this, &name)
    });
    method(it, element_proto, "remove", |_it, _this, _args| Ok(Value::Undefined));
}

/// Materialise a WebGL context for this realm (lazy; see module docs): a
/// fresh prototype holding a copy of the profile's prebuilt surface, so
/// writes to one context's prototype reach no other context or page.
fn make_webgl_context(it: &mut Interp, profile: &crate::webgl::WebGlProfile) -> ObjId {
    let proto = it.heap.alloc(JsObject {
        props: profile.surface().clone(),
        ..JsObject::with_class(Some(it.intrinsics.object_proto), "WebGLRenderingContextPrototype")
    });
    let vendor = profile.vendor.clone();
    let renderer = profile.renderer.clone();
    method(it, proto, "getParameter", move |_it, _this, args| {
        let code = args.first().map(|v| v.to_number()).unwrap_or(0.0) as u32;
        Ok(match code {
            37445 => Value::str(&vendor),   // UNMASKED_VENDOR_WEBGL
            37446 => Value::str(&renderer), // UNMASKED_RENDERER_WEBGL
            other => Value::str(format!("webgl-param-{other}")),
        })
    });
    method(it, proto, "getSupportedExtensions", |it, _this, _args| {
        let exts = vec![
            Value::str("WEBGL_debug_renderer_info"),
            Value::str("OES_texture_float"),
        ];
        Ok(Value::Obj(it.alloc_array(exts)))
    });
    it.heap.alloc(JsObject::with_class(Some(proto), "WebGLRenderingContext"))
}

/// Re-point the per-page location data an installed realm baked in at
/// build time (`location.href`/`host`/`hostname`/`pathname`/`protocol` and
/// `document.domain`) at `url`. Property insertion positions are
/// preserved, so a re-pointed clone is observably identical to a realm
/// built for `url` from scratch.
pub(crate) fn repoint_location(it: &mut Interp, rw: RealmWindow, url: &netsim::Url) {
    let loc = it.heap.get(rw.window).props.get("location").and_then(|p| match &p.slot {
        Slot::Data(Value::Obj(id)) => Some(*id),
        _ => None,
    });
    if let Some(loc) = loc {
        data(it, loc, "href", Value::str(url.to_string()));
        data(it, loc, "host", Value::str(&url.host));
        data(it, loc, "hostname", Value::str(&url.host));
        data(it, loc, "pathname", Value::str(&url.path));
        data(it, loc, "protocol", Value::str(format!("{}:", url.scheme)));
    }
    data(it, rw.document, "domain", Value::str(&url.host));
}

// ------------------------------------------------------------------ frames

/// Create a child browsing context and run the frame hooks.
pub fn create_frame(it: &mut Interp, host: &PageShared, ctx: FrameContext) -> RealmWindow {
    let rw = install_window(it, host, false);
    {
        let mut h = host.borrow_mut();
        h.frames.push((rw, ctx));
        // Expose the new window through the top window's `frames` array.
        if let Some(top) = h.top() {
            let arr = top.frames_array;
            drop(h);
            if let Some(elems) = &mut it.heap.get_mut(arr).elements {
                elems.push(Value::Obj(rw.window));
            }
        }
    }
    // Synchronous hooks: the stealth extension's frame protection
    // instruments the new context before the page script can touch it.
    let sync_hooks = host.borrow().frame_sync_hooks.clone();
    for hook in sync_hooks {
        hook(it, rw);
    }
    // Async hooks: vanilla extension injection happens on the job queue —
    // a page script running synchronously right now wins the race.
    let async_hooks = host.borrow().frame_async_hooks.clone();
    for hook in async_hooks {
        let hook_rw = rw;
        let f = it.alloc_native_fn("frameInjection", move |it2, _this, _args| {
            hook(it2, hook_rw);
            Ok(Value::Undefined)
        });
        it.push_job(Value::Obj(f), Vec::new(), 0);
    }
    rw
}
