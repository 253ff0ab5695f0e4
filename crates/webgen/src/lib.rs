//! # webgen — the synthetic Tranco Top-100K population
//!
//! A deterministic, lazily-generated web for the reproduction's crawls.
//! Every site derives from `(seed, rank)`; nothing in the scan or the
//! WPM-vs-WPM_hide comparison reads this crate's ground truth — detection
//! happens because detector scripts (from the `detect` corpus) actually run
//! and observe instrumentation artefacts, and cloaking happens because
//! [`behaviour::site_response`] reacts to the verdict beacons those scripts
//! send.
//!
//! Calibration: the population's *assignment distributions* are tuned to the
//! paper's measured totals (Tables 5–7, 11, 12; Figs. 3–5) so that the
//! analysis pipeline can be validated by re-deriving them end to end.
//! `site::Targets` documents each constant's derivation.

#![forbid(unsafe_code)]

pub mod behaviour;
pub mod blocklists;
pub mod categories;
pub mod materialise;
pub mod providers;
pub mod site;

pub use categories::Category;
pub use materialise::{materialised_bodies, verdict_from_traffic, visit_spec, PageKind};
pub use providers::{FirstPartyOrigin, OpenWpmProvider, OPENWPM_PROVIDERS, TOP_THIRD_PARTY};
pub use site::{CloakPolicy, PageDetectors, Population, SitePlan, Targets};
