//! # netsim — HTTP, cookie and URL simulation
//!
//! The reproduction's "web" is in-process: sites are generated data
//! structures and a page visit produces [`HttpRequest`]/[`HttpResponse`]
//! records rather than packets. This crate provides the vocabulary types for
//! that traffic, plus the pieces of the paper's evaluation that operate on
//! traffic:
//!
//! * [`url::Url`] and eTLD+1 extraction (the paper's Sec. 4.1.2 uses the
//!   eTLD+1 scheme to identify domains and classify first vs third parties);
//! * [`http::ResourceType`] matching the `webRequest` resource types that
//!   Table 8 groups traffic by (`csp_report`, `beacon`, `sub_frame`, …);
//! * [`cookies`] — cookie records and jars with expiry and first/third-party
//!   attribution, feeding Table 10;
//! * [`blocklist`] — EasyList/EasyPrivacy-style filter lists used to count
//!   ad/tracker requests for Table 9.
//!
//! Nothing here does real I/O; determinism of the crawl is the point.

#![forbid(unsafe_code)]

pub mod blocklist;
pub mod cookies;
pub mod http;
pub mod url;
pub mod wire;

pub use blocklist::{Blocklist, BlocklistKind};
pub use cookies::{Cookie, CookieJar, CookieParty};
pub use http::{FlakyNetwork, HttpRequest, HttpResponse, ResourceType};
pub use url::Url;
