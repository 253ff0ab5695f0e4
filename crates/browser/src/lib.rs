//! # browser — an emulated Firefox for the OpenWPM reliability case study
//!
//! Builds complete page realms on top of the [`jsengine`] MiniJS
//! interpreter: `window`/`navigator`/`screen`/`document` host objects with
//! receiver-validating IDL accessors, element creation and iframes (each a
//! pristine child realm), CSP enforcement with violation reports, an event
//! target layer with privileged sinks, `fetch`/beacons, and per-(OS × run
//! mode) [`profile::FingerprintProfile`]s that encode Tables 2–4 of the
//! paper.
//!
//! Two fingerprinting methods operate on these realms:
//!
//! * probe-list fingerprinting — detector scripts in the `detect` crate
//!   simply run inside the realm;
//! * [`template`] — DOM-traversal template attacks (Schwarz et al.),
//!   implemented against the realm's object graph.
//!
//! The `openwpm` crate instruments these realms the way the real framework
//! instruments Firefox: by DOM script injection (vanilla, detectable and
//! attackable) or via privileged native hooks (the hardened `WPM_hide`).

#![forbid(unsafe_code)]

pub mod csp;
pub mod hostobjects;
pub mod page;
pub mod profile;
pub mod realm;
pub mod template;
pub mod webgl;

pub use csp::CspPolicy;
pub use page::{
    CspBlocked, EventSink, FrameContext, FrameHook, Page, PageHost, PageShared, RealmWindow,
};
pub use realm::PageTemplate;
pub use profile::{FingerprintProfile, Os, RunMode, WindowGeometry};
pub use template::{capture_template, diff, Template, TemplateDiff};
pub use webgl::WebGlProfile;
