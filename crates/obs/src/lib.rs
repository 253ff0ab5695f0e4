//! Crawl telemetry for the gullible pipeline: structured spans and a JSONL
//! event journal on the *simulated* crawl clock, a lock-free metrics
//! registry, and provenance reporting for every generated table.
//!
//! Design constraints, in priority order:
//!
//! 1. **Determinism.** A seeded crawl must produce byte-identical journals
//!    and metric snapshots regardless of worker count. Events from worker
//!    threads are buffered in per-thread [`scope`]s and written by the
//!    coordinator in item order; timestamps come from the simulated clock,
//!    never the wall clock (unless explicitly opted in).
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
pub use metrics::{
    bucket_of, Histogram, HistogramSnapshot, Registry, ShardedCounter, Snapshot,
    COUNTER_STRIPES, NONDETERMINISTIC_PREFIXES,
};
pub use scope::{
    begin_scope, clock_advance, clock_ms, decode_scope_metrics, end_scope, scope_active,
    take_scope_metrics, ScopeMetrics,
};
pub use telemetry::{Telemetry, TelemetryGuard};

use std::sync::Arc;
use std::time::Instant;

/// FNV-1a over bytes — the repo's standard cheap stable hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
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

/// Bump a counter in the current telemetry (no-op unless it is enabled).
///
/// Counter handles are cached per thread, keyed by the registry and the
/// `'static` name's address, so steady-state increments skip the
/// registry's `RwLock` entirely and land straight on the calling thread's
/// counter stripe. The cache follows one registry at a time: a thread
/// that switches telemetry starts a fresh cache.
#[inline]
pub fn add(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    scope::record_add(name, delta);
    /// `(telemetry id, [(name address, handle)])`.
    type Handles = (u64, Vec<(*const u8, Arc<ShardedCounter>)>);
    thread_local! {
        static HANDLES: std::cell::RefCell<Handles> = const { std::cell::RefCell::new((0, Vec::new())) };
    }
    telemetry::with_current(|t| {
        HANDLES.with(|cache| {
            let key = name.as_ptr();
            let (registry, handles) = &mut *cache.borrow_mut();
            if *registry != t.id {
                *registry = t.id;
                handles.clear();
            }
            if let Some((_, c)) = handles.iter().find(|(k, _)| *k == key) {
                c.add(delta);
                return;
            }
            let c = t.registry.counter(name);
            c.add(delta);
            handles.push((key, c));
        })
    });
}

/// Set a gauge (no-op unless telemetry is enabled).
#[inline]
pub fn gauge_set(name: &'static str, v: i64) {
    if enabled() {
        telemetry::with_current(|t| t.registry.gauge_set(name, v));
    }
}

/// Record a histogram observation (no-op unless telemetry is enabled).
#[inline]
pub fn observe(name: &'static str, v: u64) {
    if enabled() {
        scope::record_observe(name, v);
        telemetry::with_current(|t| t.registry.observe(name, v));
    }
}

/// Re-apply a [`ScopeMetrics::encode`]d metric delta to the current
/// registry — the crash-resume path's inverse of per-scope capture. Names
/// arrive as decoded strings, so this goes through the registry's
/// by-name (interning) lookups. Returns `false` (applying nothing) on a
/// malformed encoding; no-op when telemetry is disabled.
pub fn restore_metrics(encoded: &str) -> bool {
    let Some(entries) = decode_scope_metrics(encoded) else {
        return false;
    };
    if !enabled() {
        return true;
    }
    telemetry::with_current(|t| {
        for (kind, name, v) in entries {
            match kind {
                'c' => t.registry.counter_by_name(&name).add(v),
                _ => t.registry.histogram_by_name(&name).observe(v),
            }
        }
    });
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
    fn nested_contexts_restore_and_keep_separate_handle_caches() {
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
        let t = Telemetry::new().with_journal(Journal::buffer(false));
        let _g = t.enter();
        let j = t.journal().expect("tracing telemetry has a journal");
        emit(Event::new(0, "run_start").attr("seed", 42u64));
        {
            let _p = phase("scan");
            begin_scope(false);
            let _v = span("visit");
            clock_advance(3);
            emit(Event::new(0, "fault").attr("kind", "hang"));
            drop(_v);
            let events = end_scope();
            j.write_visit_events(0, &events);
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
            begin_scope(true);
            add("restore.counter", 3);
            add("restore.counter", 2);
            observe("restore.hist", 17);
            observe("restore.hist", 1);
            let delta = take_scope_metrics().expect("captured");
            end_scope();
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
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
