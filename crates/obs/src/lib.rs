//! Crawl telemetry for the gullible pipeline: structured spans and a JSONL
//! event journal on the *simulated* crawl clock, a metrics registry fed
//! one visit delta at a time, and provenance reporting for every generated
//! table.
//!
//! Design constraints, in priority order:
//!
//! 1. **Determinism.** A seeded crawl must produce byte-identical journals
//!    and metric snapshots regardless of worker count. Events from worker
//!    threads are buffered in per-thread [`scope`]s and written by the
//!    coordinator in item order; timestamps come from the simulated clock,
//!    never the wall clock. Metrics recorded
//!    inside a scope reach the registry as one delta when it closes — the
//!    same delta a bundle persists and a resumed run merges back.
//! 2. **Zero cost when off.** With neither `GULLIBLE_TRACE` nor
//!    `GULLIBLE_STATS` set, every instrumentation call is one thread-local
//!    load and a branch.
//! 3. **No shared state between crawls.** Everything records into the
//!    calling thread's current [`Telemetry`]; two crawls under two
//!    telemetries never see each other's metrics.
//! 4. **Zero dependencies.** Rendering, hashing, and validation are all
//!    hand-rolled over `std`.
//!
//! The typical wiring (done by `bench::banner`): build a [`Telemetry`]
//! with stats and/or a journal and [`Telemetry::enter`] it; instrumented
//! code calls [`add`] / [`observe`] / [`emit`] / [`span`] freely, which
//! record into the calling thread's current telemetry; the binary prints
//! [`stats::render_summary`] + [`stats::provenance_footer`] at exit.

#![forbid(unsafe_code)]

mod event;
mod journal;
mod metrics;
pub mod prof;
mod scope;
pub mod stats;
mod telemetry;
pub mod validate;

pub use event::{push_json_string, AttrVal, Event, SpanMark};
pub use journal::Journal;
pub use metrics::{bucket_of, HistogramSnapshot, Registry, Snapshot, NONDETERMINISTIC_PREFIXES};
pub use scope::{
    begin_scope, clock_advance, clock_ms, scope_active, scope_metrics, ScopeGuard, ScopeMetrics,
};
pub use telemetry::{Telemetry, TelemetryGuard};

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

/// FNV-1a over bytes — the workspace's one cheap stable content hash.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continue an [`fnv1a`] fold from state `h` over more bytes:
/// `fnv1a_fold(fnv1a(a), b) == fnv1a(a ++ b)`.
#[inline]
pub fn fnv1a_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Is any telemetry live on this thread? One thread-local load — the
/// disabled-path check.
#[inline]
pub fn enabled() -> bool {
    telemetry::flags() & telemetry::ENABLED != 0
}

#[inline]
pub fn tracing_enabled() -> bool {
    telemetry::flags() & telemetry::TRACING != 0
}

/// The current telemetry's journal, if tracing is live.
pub fn journal() -> Option<Arc<Journal>> {
    telemetry::with_current(|t| t.journal.clone())
}

/// Bump a counter (no-op unless telemetry is enabled): in the open visit
/// scope's delta, else straight in the current telemetry's registry.
#[inline]
pub fn add(name: &'static str, delta: u64) {
    if enabled() {
        add_named(Cow::Borrowed(name), delta);
    }
}

/// [`add`] without the enabled check, for names built at run time.
pub(crate) fn add_named(name: Cow<'static, str>, delta: u64) {
    if let Some(name) = scope::record_add(name, delta) {
        telemetry::with_current(|t| t.registry.add(&name, delta));
    }
}

/// Record a histogram observation (no-op unless telemetry is enabled): in
/// the open visit scope's delta, else straight in the registry.
#[inline]
pub fn observe(name: &'static str, v: u64) {
    if enabled() && !scope::record_observe(name, v) {
        telemetry::with_current(|t| t.registry.observe(name, v));
    }
}

/// Merge a [`ScopeMetrics::encode`]d delta into the current registry the
/// way a closing visit scope merges its own — the crash-resume path for a
/// visit adopted from a bundle. Returns `false` (applying nothing) on a
/// malformed encoding; no-op when telemetry is disabled.
pub fn restore_metrics(encoded: &str) -> bool {
    let Some(delta) = ScopeMetrics::decode(encoded) else {
        return false;
    };
    if enabled() {
        telemetry::with_current(|t| t.registry.merge(&delta));
    }
    true
}

/// Emit a journal event (no-op unless tracing). Inside an active visit
/// scope the event is buffered there (stamped on the scope clock);
/// otherwise it goes straight to the journal's crawl scope.
pub fn emit(ev: Event) {
    // The flight recorder sees every event, traced or not: forensic dumps
    // must explain failures in stats-only runs too.
    prof::ring_event(&ev);
    if !tracing_enabled() {
        return;
    }
    if let Some(ev) = scope::push_event(ev) {
        if let Some(j) = journal() {
            j.crawl_event(ev);
        }
    }
}

/// An open span; closes (emitting `span_close`) on drop.
pub enum SpanGuard {
    Inactive,
    Visit(u32),
    Crawl(Arc<Journal>, u32),
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        match self {
            SpanGuard::Inactive => {}
            SpanGuard::Visit(id) => scope::scope_span_close(*id),
            SpanGuard::Crawl(j, id) => j.crawl_span_close(*id),
        }
    }
}

/// Open a span named `name`: in the active visit scope if one exists on
/// this thread, else in the journal's crawl scope. Inert when tracing is
/// off.
pub fn span(name: &'static str) -> SpanGuard {
    if !tracing_enabled() {
        return SpanGuard::Inactive;
    }
    if let Some(id) = scope::scope_span_open(name) {
        return SpanGuard::Visit(id);
    }
    match journal() {
        Some(j) => {
            let id = j.crawl_span_open(name);
            SpanGuard::Crawl(j, id)
        }
        None => SpanGuard::Inactive,
    }
}

/// A named pipeline phase: a crawl-scope span plus a wall-clock timing
/// recorded into the registry on drop (for the `[stats]` summary).
pub struct PhaseGuard {
    name: &'static str,
    started: Instant,
    _span: SpanGuard,
}

/// Begin a phase (scan, classify, compare, report…). Cheap when telemetry
/// is off: one `Instant::now` and two atomic loads.
pub fn phase(name: &'static str) -> PhaseGuard {
    PhaseGuard { name, started: Instant::now(), _span: span(name) }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if enabled() {
            telemetry::with_current(|t| t.registry.record_timing(self.name, self.started.elapsed()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_on() -> Telemetry {
        Telemetry::new().with_stats(true)
    }

    #[test]
    fn disabled_calls_are_noops() {
        let t = Telemetry::new();
        let _g = t.enter();
        add("noop.counter", 5);
        observe("noop.hist", 1);
        emit(Event::new(0, "dropped"));
        let s = span("dropped");
        assert!(matches!(s, SpanGuard::Inactive));
        drop(s);
        assert_eq!(t.registry().snapshot().counter("noop.counter"), 0);
    }

    #[test]
    fn stats_enable_collects_metrics() {
        let t = stats_on();
        {
            let _g = t.enter();
            add("on.counter", 2);
        }
        // Outside the guard the thread records into the inert default.
        add("on.counter", 40);
        assert_eq!(t.registry().snapshot().counter("on.counter"), 2);
        assert_eq!(Telemetry::current().registry().snapshot().counter("on.counter"), 0);
    }

    #[test]
    fn nested_contexts_restore_and_keep_separate_registries() {
        let (a, b) = (stats_on(), stats_on());
        let _ga = a.enter();
        add("nest.counter", 1);
        {
            let _gb = b.enter();
            add("nest.counter", 10);
        }
        add("nest.counter", 100);
        assert_eq!(a.registry().snapshot().counter("nest.counter"), 101);
        assert_eq!(b.registry().snapshot().counter("nest.counter"), 10);
    }

    #[test]
    fn journal_routes_scope_and_crawl_events() {
        let t = Telemetry::new().with_journal(Journal::buffer());
        let _g = t.enter();
        let j = t.journal().expect("tracing telemetry has a journal");
        emit(Event::new(0, "run_start").attr("seed", 42u64));
        {
            let _p = phase("scan");
            let scope = begin_scope();
            let _v = span("visit");
            clock_advance(3);
            emit(Event::new(0, "fault").attr("kind", "hang"));
            drop(_v);
            let events = scope.end();
            j.write_crawl_visits([events.as_slice()]);
        }
        j.flush();
        let text = j.buffer_contents().unwrap();
        let summary = validate::validate_journal(&text).unwrap();
        assert_eq!(summary.scopes, 2, "{text}");
        assert!(text.contains(r#""scope":"crawl","ev":"run_start","seed":42"#), "{text}");
        assert!(text.contains(r#""scope":"visit:0","ev":"span_open""#), "{text}");
        assert!(text.contains(r#"{"t":3,"scope":"visit:0","ev":"fault","kind":"hang"}"#), "{text}");
        // Phase timing landed in the registry (tracing implies enabled).
        assert!(t.registry().timings().iter().any(|(n, _)| n == "scan"));
    }

    #[test]
    fn captured_scope_delta_restores_to_identical_registry_state() {
        let t = stats_on();
        let delta = {
            let _g = t.enter();
            let scope = begin_scope();
            add("restore.counter", 3);
            add("restore.counter", 2);
            observe("restore.hist", 17);
            observe("restore.hist", 1);
            let delta = scope_metrics();
            let _ = scope.end();
            delta
        };
        let live = t.registry().snapshot();

        // A "fresh process": a new registry, the delta re-applied by name.
        let fresh = stats_on();
        let _g = fresh.enter();
        assert!(restore_metrics(&delta.encode()));
        let restored = fresh.registry().snapshot();
        assert_eq!(live.counter("restore.counter"), 5);
        assert_eq!(restored.counters, live.counters);
        assert_eq!(restored.histograms, live.histograms);
        assert_eq!(restored.digest(), live.digest());

        assert!(!restore_metrics("garbage-without-structure"));
    }

    #[test]
    fn scope_metrics_reach_the_registry_only_when_the_scope_ends() {
        let t = stats_on();
        let _g = t.enter();
        // Outside any scope, metrics land in the registry at once.
        add("sched.items", 1);
        assert_eq!(t.registry().snapshot().counter("sched.items"), 1);

        let scope = begin_scope();
        add("records.js_calls", 4);
        add("prof.self.visit", 900);
        observe("jsengine.ops_per_visit", 64);
        observe("jsengine.ops_per_visit", 3);
        let before_end = t.registry().snapshot();
        assert_eq!(before_end.counter("records.js_calls"), 0, "{}", before_end.render());
        assert!(before_end.histograms.is_empty(), "{}", before_end.render());
        let delta = scope_metrics();
        let _ = scope.end();
        let live = t.registry().snapshot();
        assert_eq!(live.counter("records.js_calls"), 4);
        assert_eq!(live.counter("prof.self.visit"), 900);
        assert_eq!(live.histograms["jsengine.ops_per_visit"].count, 2);

        // A scope that unwinds still merges what it counted.
        let unwound = std::panic::catch_unwind(|| {
            let _scope = begin_scope();
            add("records.js_calls", 1);
            panic!("killed mid-visit");
        });
        assert!(unwound.is_err());
        assert!(!scope_active());
        assert_eq!(t.registry().snapshot().counter("records.js_calls"), 5);

        // A resumed run merges the encoded delta through the same path: a
        // fresh registry given each visit's delta holds the same
        // deterministic state.
        let fresh = stats_on();
        let _f = fresh.enter();
        assert!(restore_metrics(&delta.encode()));
        assert!(restore_metrics("c:records.js_calls:1"));
        assert_eq!(
            fresh.registry().snapshot().render_deterministic(),
            t.registry().snapshot().render_deterministic()
        );
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_fold(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }
}
