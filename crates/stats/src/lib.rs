//! # stats — statistics for the evaluation
//!
//! Implements, from scratch, exactly the statistical machinery the paper's
//! evaluation uses:
//!
//! * the **Wilcoxon signed-rank test** (normal approximation with tie and
//!   zero-difference handling) — the paper tests per-site paired differences
//!   between WPM and WPM_hide with a 95% confidence level (Sec. 6.3);
//! * the **Ratcliff-Obershelp** similarity — criterion (5) of the tracking-
//!   cookie classifier compares cookie values across runs with it;
//! * small descriptive helpers (mean, median, percentage points) used by the
//!   table renderers.

#![forbid(unsafe_code)]

pub mod descriptive;
pub mod ratcliff;
pub mod wilcoxon;

pub use descriptive::{mean, median, pct_change};
pub use ratcliff::ratcliff_obershelp;
pub use wilcoxon::{wilcoxon_signed_rank, WilcoxonResult};
