//! # gullible — reproduction of "How gullible are web measurement tools?"
//! (CoNEXT '22)
//!
//! The core library ties the substrate crates together into the paper's
//! experiments:
//!
//! * [`mod@surface`] — fingerprint-surface analysis of OpenWPM per OS × run
//!   mode (Sec. 3, Tables 2–4) and the four-strategy detector validator
//!   (Sec. 3.3);
//! * [`attacks`] — the recording attacks of Sec. 5 as proof-of-concepts,
//!   evaluated against both the vanilla and the hardened instrument
//!   (Listings 2–4, RQ5–RQ8);
//! * [`scan`] — the Tranco-100K scan with combined static + dynamic
//!   analysis (Sec. 4, Tables 5–7, 11–12, Figs. 3–5);
//! * [`compare`] — the WPM vs WPM_hide field comparison over three repeated
//!   runs (Sec. 6.3, Tables 8–10, Fig. 6);
//! * [`literature`] — the study-survey and Firefox-lag datasets (Tables 1,
//!   14, 15);
//! * [`report`] — text-table rendering used by the regeneration binaries in
//!   the `bench` crate.
//!
//! ## Quickstart
//!
//! ```
//! use gullible::surface::{surface, validate, ClientKind};
//! use browser::{Os, RunMode};
//!
//! // How recognisable is an OpenWPM client in regular mode?
//! let report = surface(ClientKind::OpenWpm, Os::Ubuntu1804, RunMode::Regular);
//! assert!(report.webdriver_true());
//!
//! // And the hardened client?
//! let (identified, _evidence) = validate(ClientKind::Hidden, Os::Ubuntu1804, RunMode::Regular);
//! assert!(!identified);
//! ```

#![forbid(unsafe_code)]

pub mod archive;
pub mod attacks;
pub mod compare;
mod ctx;
pub mod literature;
pub mod report;
pub mod scan;
pub mod surface;

pub use obs;

pub use archive::{
    diff_bundles, ArchiveStats, BundleDiff, CommitInfo, ReplayBundle, ReplayStats, SiteDelta,
};
pub use compare::{run_compare, Client, CompareConfig, CompareReport};
pub use ctx::{CrawlCtx, CtxGuard};
pub use scan::{
    scan_site_visit, site_visit, Scan, ScanAggregates, ScanConfig, ScanReport, SiteScanRecord,
    SiteVisit, StreamStats,
};
pub use surface::{surface, validate, ClientKind, SurfaceReport};
