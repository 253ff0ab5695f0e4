//! # openwpm — reproduction of the OpenWPM measurement framework
//!
//! Mirrors the architecture of Fig. 1 in the paper: a web client (the
//! `browser` crate's emulated Firefox), automation (the crawler in
//! [`wpm_browser`] / [`manager`]), measurement instruments
//! ([`instrument`]) and the framework glue (configuration, record store,
//! restart handling).
//!
//! Two JavaScript-instrument implementations coexist:
//!
//! * [`instrument::vanilla`] — the stock OpenWPM approach: a generated
//!   MiniJS script is injected into the page via the DOM and wraps APIs
//!   with page-context closures. Every weakness the paper reports is
//!   *observable or exploitable* here: `toString` leakage (Listing 1),
//!   `window.getInstrumentJS`, wrapper frames in stack traces, prototype
//!   pollution (Fig. 2), the event-dispatcher hijack (Listing 2), CSP
//!   blocking (Sec. 5.1.2) and racy frame injection (Listing 3).
//! * [`instrument::stealth`] — WPM_hide (Sec. 6): privileged native hooks
//!   with preserved `toString`, per-prototype instrumentation, clean DOM,
//!   clean stacks, secure messaging and synchronous frame protection.
//!
//! The HTTP instrument ([`instrument::http`]) supports full-body and
//! JavaScript-only saving (the latter evadable per Listing 4), and the
//! cookie instrument records served cookies host-side.
//!
//! Crawl reliability (the paper's central concern) is handled by two
//! layers on top of the task manager: [`fault`] injects deterministic,
//! seeded failures (crashes, hangs, navigation errors, tab crashes,
//! flaky HTTP) and [`supervisor`] survives them — watchdog timeouts,
//! retry with exponential backoff, browser restarts, typed failure
//! records and checkpoint/resume hooks.

#![forbid(unsafe_code)]

pub mod config;
pub mod fault;
pub mod instrument;
pub mod manager;
pub mod records;
pub mod supervisor;
pub mod wpm_browser;

pub use config::{BrowserConfig, HttpSaveMode, JsInstrumentKind, StealthSettings};
pub use fault::{FaultInjector, FaultKind, FaultPlan};
pub use records::{
    CrawlHistoryRecord, CrawlStatus, JsCallRecord, JsOperation, RecordStore, SavedScript,
    StoreCapture,
};
pub use supervisor::{
    run_supervised, CrawlOutcome, CrawlSummary, FailureReason, ItemMeta, VisitOutcome,
};
pub use wpm_browser::{Browser, PageScript, SiteResponse, VisitSpec, VisitStats};
