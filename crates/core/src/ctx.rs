//! [`CrawlCtx`]: everything a crawl mutates besides its own outputs —
//! telemetry, execution backend, compile cache, match engine and verdict
//! memo — as one explicit value.
//!
//! Each layer keeps one thread-local *current* slot ([`obs::Telemetry`],
//! [`jsengine::JsCtx`], [`detect::DetectCtx`]) that falls back to a
//! per-layer process default when nothing is entered. [`Scan::run`] and
//! [`run_compare`] take [`CrawlCtx::current`] on the calling thread and
//! enter it on every worker, so two crawls in one process — on two
//! threads, or one after another under fresh contexts — never see each
//! other's metrics, caches or engine choice.
//!
//! [`Scan::run`]: crate::Scan::run
//! [`run_compare`]: crate::run_compare

/// One crawl's context. Fields are public: build a fresh one with
/// [`CrawlCtx::new`] and override what the run needs, e.g.
///
/// ```
/// use gullible::{obs, CrawlCtx};
///
/// let ctx = CrawlCtx {
///     telemetry: obs::Telemetry::new().with_stats(true),
///     ..CrawlCtx::new()
/// };
/// let _entered = ctx.enter();
/// ```
#[derive(Clone, Default)]
pub struct CrawlCtx {
    pub telemetry: obs::Telemetry,
    pub js: jsengine::JsCtx,
    pub detect: detect::DetectCtx,
}

impl CrawlCtx {
    /// A fresh context: telemetry off, an empty compile cache and verdict
    /// memo, and the process default engine and matcher.
    pub fn new() -> CrawlCtx {
        CrawlCtx::default()
    }

    /// The calling thread's current context, layer by layer.
    pub fn current() -> CrawlCtx {
        CrawlCtx {
            telemetry: obs::Telemetry::current(),
            js: jsengine::JsCtx::current(),
            detect: detect::DetectCtx::current(),
        }
    }

    /// Make this the calling thread's context until the guard drops.
    pub fn enter(&self) -> CtxGuard {
        CtxGuard {
            _telemetry: self.telemetry.enter(),
            _js: self.js.enter(),
            _detect: self.detect.enter(),
        }
    }
}

/// Restores the previously current context on drop.
#[must_use = "the context is current only while the guard lives"]
pub struct CtxGuard {
    _telemetry: obs::TelemetryGuard,
    _js: jsengine::JsGuard,
    _detect: detect::DetectGuard,
}
