//! # detect — bot-detector corpus and analysis pipelines
//!
//! Three pieces, mirroring Sec. 4 of the paper:
//!
//! * [`corpus`] — MiniJS detector scripts of every class found in the wild
//!   (Selenium/webdriver probes in five obfuscation tiers, OpenWPM-specific
//!   probes, first-party bot management, generic fingerprint iterators,
//!   plus the attack PoCs of Sec. 5);
//! * [`static_analysis`] — escape decoding, comment stripping and the
//!   pattern set of Appx. B / Table 13;
//! * [`dynamic_analysis`] — classification of recorded JavaScript calls
//!   with honey-property iterator filtering (Sec. 4.1.3).

#![forbid(unsafe_code)]

pub mod corpus;
pub mod dynamic_analysis;
pub mod static_analysis;

pub use corpus::Technique;
pub use dynamic_analysis::{observe, DynamicClass, ScriptObservation};
pub use static_analysis::{
    analyse, classify, classify_memo, classify_with, clear_verdict_memo,
    pattern_matches, pattern_matches_with, preprocess, set_default_matcher, DetectCtx, DetectGuard,
    MatcherKind, ScriptVerdict, StaticFinding, StaticPattern,
};
