//! Per-thread visit scopes.
//!
//! Journal determinism across worker counts hinges on one rule: worker
//! threads never write to the journal directly. The supervisor opens a
//! *scope* on the worker thread before processing an item; every event and
//! span emitted while the scope is active is buffered here (thread-local,
//! no locks), stamped on the scope's simulated clock. When the item
//! finishes, the supervisor closes the scope, carries the buffered events
//! back through the ordered results of `run_parallel`, and the coordinator
//! writes them to the journal in item order. Which OS thread ran which item
//! becomes invisible.
//!
//! Metrics follow the same rule: inside a scope, [`crate::add`] and
//! [`crate::observe`] record only into the scope's [`ScopeMetrics`] delta,
//! and closing the scope merges that delta into the current telemetry's
//! registry — the one way a visit's metrics reach it, and the way a
//! resumed bundle entry's recorded delta reaches it too.

use crate::event::{Event, SpanMark};
use std::borrow::Cow;
use std::cell::RefCell;
use std::marker::PhantomData;

/// The metric updates one visit scope produced: summed counter deltas and
/// the individual histogram observations, in emission order. Counters and
/// observations are order-independent sums, so merging a delta recorded
/// by a crashed run reconstructs the same registry state the crashed run
/// had. Names are the `'static` literals of [`crate::add`] callers, or
/// owned for the few metrics named at run time
/// ([`crate::prof::count_builtins`]) and for decoded deltas.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScopeMetrics {
    /// `(counter name, summed delta)`, first-touch order.
    pub counters: Vec<(Cow<'static, str>, u64)>,
    /// `(histogram name, value)` — one entry per observation so bucket
    /// shapes and sums restore exactly.
    pub observations: Vec<(Cow<'static, str>, u64)>,
}

impl ScopeMetrics {
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.observations.is_empty()
    }

    /// Compact single-line encoding: `c:name:value` / `o:name:value`
    /// entries joined by `;`. Metric names are dotted identifiers, so the
    /// separators never collide; the result contains no newline and no
    /// bundle separator bytes. Metrics under
    /// [`crate::NONDETERMINISTIC_PREFIXES`] are skipped — they are
    /// excluded from the telemetry digest, so restoring them would only
    /// falsify accounting the digest never sees.
    pub fn encode(&self) -> String {
        let deterministic = |name: &str| {
            !crate::NONDETERMINISTIC_PREFIXES.iter().any(|p| name.starts_with(p))
        };
        let mut out = String::new();
        for (name, v) in self.counters.iter().filter(|(n, _)| deterministic(n)) {
            if !out.is_empty() {
                out.push(';');
            }
            out.push_str(&format!("c:{name}:{v}"));
        }
        for (name, v) in self.observations.iter().filter(|(n, _)| deterministic(n)) {
            if !out.is_empty() {
                out.push(';');
            }
            out.push_str(&format!("o:{name}:{v}"));
        }
        out
    }

    /// Parse a [`ScopeMetrics::encode`] string. `None` on any malformed
    /// entry — callers treat that as a damaged bundle entry.
    pub fn decode(s: &str) -> Option<ScopeMetrics> {
        let mut out = ScopeMetrics::default();
        if s.is_empty() {
            return Some(out);
        }
        for entry in s.split(';') {
            let mut parts = entry.splitn(3, ':');
            let list = match parts.next()? {
                "c" => &mut out.counters,
                "o" => &mut out.observations,
                _ => return None,
            };
            let name = parts.next()?;
            let value: u64 = parts.next()?.parse().ok()?;
            if name.is_empty() {
                return None;
            }
            list.push((Cow::Owned(name.to_string()), value));
        }
        Some(out)
    }
}

struct ScopeState {
    events: Vec<Event>,
    clock_ms: u64,
    span_stack: Vec<u32>,
    next_span: u32,
    metrics: ScopeMetrics,
}

thread_local! {
    static SCOPE: RefCell<Option<ScopeState>> = const { RefCell::new(None) };
}

/// Open a visit scope on the current thread, discarding any previous one.
/// Every [`crate::add`] / [`crate::observe`] made inside it records into
/// the scope's [`ScopeMetrics`] delta, which reaches the registry when the
/// scope closes: by [`ScopeGuard::end`], or by the guard's drop when the
/// visit unwinds out of its worker, so no metric a visit counted is lost.
pub fn begin_scope() -> ScopeGuard {
    SCOPE.with(|s| {
        *s.borrow_mut() = Some(ScopeState {
            events: Vec::new(),
            clock_ms: 0,
            span_stack: Vec::new(),
            next_span: 1,
            metrics: ScopeMetrics::default(),
        })
    });
    ScopeGuard { _not_send: PhantomData }
}

/// The open visit scope of this thread; closes it on drop. Not `Send`: a
/// scope closes on the thread that opened it.
#[must_use = "the scope closes when the guard drops"]
pub struct ScopeGuard {
    _not_send: PhantomData<*const ()>,
}

impl ScopeGuard {
    /// Close the scope: merge its metrics delta into the current
    /// telemetry's registry and return its buffered events. Unclosed
    /// spans are closed implicitly, innermost first, so journals always
    /// balance.
    pub fn end(self) -> Vec<Event> {
        close()
    }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        close();
    }
}

/// Close this thread's scope, if one is still open (see [`ScopeGuard::end`]).
fn close() -> Vec<Event> {
    let Some(mut st) = SCOPE.with(|s| s.borrow_mut().take()) else {
        return Vec::new();
    };
    while let Some(id) = st.span_stack.pop() {
        st.events.push(Event {
            t_ms: st.clock_ms,
            ev: "span_close",
            span: Some(SpanMark::Close { id }),
            attrs: Vec::new(),
        });
    }
    if !st.metrics.is_empty() {
        crate::telemetry::with_current(|t| t.registry.merge(&st.metrics));
    }
    st.events
}

/// A copy of the open scope's metrics delta so far (empty outside a
/// scope). Reading leaves the delta in place: it still merges into the
/// registry when the scope closes.
pub fn scope_metrics() -> ScopeMetrics {
    SCOPE.with(|s| s.borrow().as_ref().map(|st| st.metrics.clone()).unwrap_or_default())
}

/// Record a counter bump into the open scope's delta. Hands the name back
/// when no scope is open, for the caller to write the registry directly.
#[inline]
pub(crate) fn record_add(name: Cow<'static, str>, delta: u64) -> Option<Cow<'static, str>> {
    SCOPE.with(|s| match s.borrow_mut().as_mut() {
        Some(st) => {
            let counters = &mut st.metrics.counters;
            match counters.iter_mut().find(|(n, _)| *n == name) {
                Some((_, v)) => *v += delta,
                None => counters.push((name, delta)),
            }
            None
        }
        None => Some(name),
    })
}

/// Record a histogram observation into the open scope's delta; `false`
/// when no scope is open.
#[inline]
pub(crate) fn record_observe(name: &'static str, v: u64) -> bool {
    SCOPE.with(|s| match s.borrow_mut().as_mut() {
        Some(st) => {
            st.metrics.observations.push((Cow::Borrowed(name), v));
            true
        }
        None => false,
    })
}

pub fn scope_active() -> bool {
    SCOPE.with(|s| s.borrow().is_some())
}

/// Advance the scope's simulated clock (no-op without an active scope).
pub fn clock_advance(ms: u64) {
    SCOPE.with(|s| {
        if let Some(st) = s.borrow_mut().as_mut() {
            st.clock_ms += ms;
        }
    });
}

pub fn clock_ms() -> u64 {
    SCOPE.with(|s| s.borrow().as_ref().map(|st| st.clock_ms).unwrap_or(0))
}

/// Buffer an event in the active scope, stamping it with the scope clock.
/// Returns the event back if no scope is active (caller may re-route it to
/// the crawl scope).
pub(crate) fn push_event(mut ev: Event) -> Option<Event> {
    SCOPE.with(|s| {
        let mut b = s.borrow_mut();
        match b.as_mut() {
            Some(st) => {
                ev.t_ms = st.clock_ms;
                st.events.push(ev);
                None
            }
            None => Some(ev),
        }
    })
}

/// Open a span in the active scope; `None` when no scope is active.
pub(crate) fn scope_span_open(name: &'static str) -> Option<u32> {
    SCOPE.with(|s| {
        let mut b = s.borrow_mut();
        let st = b.as_mut()?;
        let id = st.next_span;
        st.next_span += 1;
        let parent = st.span_stack.last().copied().unwrap_or(0);
        let t = st.clock_ms;
        st.events.push(
            Event {
                t_ms: t,
                ev: "span_open",
                span: Some(SpanMark::Open { id, parent }),
                attrs: Vec::new(),
            }
            .attr("name", name),
        );
        st.span_stack.push(id);
        Some(id)
    })
}

/// Close a scope span. Any spans opened after it (and not yet closed) are
/// closed first so the stack stays balanced even if guards drop out of
/// order.
pub(crate) fn scope_span_close(id: u32) {
    SCOPE.with(|s| {
        let mut b = s.borrow_mut();
        let Some(st) = b.as_mut() else { return };
        if !st.span_stack.contains(&id) {
            return;
        }
        while let Some(top) = st.span_stack.pop() {
            st.events.push(Event {
                t_ms: st.clock_ms,
                ev: "span_close",
                span: Some(SpanMark::Close { id: top }),
                attrs: Vec::new(),
            });
            if top == id {
                break;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_buffer_in_order_with_clock() {
        let scope = begin_scope();
        assert!(push_event(Event::new(0, "a")).is_none());
        clock_advance(10);
        assert!(push_event(Event::new(0, "b")).is_none());
        let evs = scope.end();
        assert_eq!(evs.len(), 2);
        assert_eq!((evs[0].ev, evs[0].t_ms), ("a", 0));
        assert_eq!((evs[1].ev, evs[1].t_ms), ("b", 10));
        assert!(!scope_active());
    }

    #[test]
    fn events_outside_scope_are_returned() {
        assert!(!scope_active());
        assert!(push_event(Event::new(0, "x")).is_some());
    }

    #[test]
    fn spans_nest_and_balance() {
        let scope = begin_scope();
        let a = scope_span_open("outer").unwrap();
        let b = scope_span_open("inner").unwrap();
        scope_span_close(b);
        scope_span_close(a);
        let evs = scope.end();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0].span, Some(SpanMark::Open { id: a, parent: 0 }));
        assert_eq!(evs[1].span, Some(SpanMark::Open { id: b, parent: a }));
        assert_eq!(evs[2].span, Some(SpanMark::Close { id: b }));
        assert_eq!(evs[3].span, Some(SpanMark::Close { id: a }));
    }

    #[test]
    fn end_scope_closes_dangling_spans() {
        let scope = begin_scope();
        let a = scope_span_open("outer").unwrap();
        let b = scope_span_open("inner").unwrap();
        let evs = scope.end();
        assert_eq!(evs[2].span, Some(SpanMark::Close { id: b }));
        assert_eq!(evs[3].span, Some(SpanMark::Close { id: a }));
    }

    #[test]
    fn scope_metrics_capture_encode_and_decode_roundtrip() {
        let scope = begin_scope();
        for (name, v) in [("supervisor.faults", 2), ("records.js_calls", 10)] {
            assert!(record_add(Cow::Borrowed(name), v).is_none());
        }
        assert!(record_add(Cow::Borrowed("supervisor.faults"), 1).is_none());
        assert!(record_observe("jsengine.ops_per_visit", 64));
        assert!(record_observe("jsengine.ops_per_visit", 64));
        // Nondeterministic: dropped by encode.
        assert!(record_add(Cow::Borrowed("cache.compile.hit"), 9).is_none());
        let m = scope_metrics();
        assert_eq!(scope_metrics(), m, "reading leaves the delta in place");
        drop(scope);

        assert_eq!(m.counters[0], (Cow::Borrowed("supervisor.faults"), 3));
        assert_eq!(m.observations.len(), 2);
        let enc = m.encode();
        assert_eq!(
            enc,
            "c:supervisor.faults:3;c:records.js_calls:10;\
             o:jsengine.ops_per_visit:64;o:jsengine.ops_per_visit:64"
        );
        let dec = ScopeMetrics::decode(&enc).expect("decode");
        assert_eq!(dec.counters.len() + dec.observations.len(), 4, "{enc}");
        assert_eq!(dec.encode(), enc);

        assert_eq!(ScopeMetrics::decode("").unwrap(), ScopeMetrics::default());
        assert!(ScopeMetrics::decode("x:bad:1").is_none());
        assert!(ScopeMetrics::decode("c:name").is_none());
        assert!(ScopeMetrics::decode("c::3").is_none());
        assert!(ScopeMetrics::decode("c:name:notanum").is_none());

        // Outside a scope nothing is captured: the name comes back for the
        // caller to write the registry directly.
        assert_eq!(record_add(Cow::Borrowed("ignored"), 1), Some(Cow::Borrowed("ignored")));
        assert!(!record_observe("ignored", 1));
        assert!(scope_metrics().is_empty());
    }

    #[test]
    fn nested_prof_phases_keep_scope_deltas_deterministic() {
        // A visit scope captured while the phase profiler runs nested
        // guards must hold exactly the deterministic metrics: the prof.*
        // wall-clock counters/histograms the guards emit are excluded from
        // the encoded delta, while instrument counters recorded inside the
        // innermost phase still land in the delta.
        let t = crate::Telemetry::new().with_stats(true).with_prof(crate::prof::Mode::On);
        let _g = t.enter();
        let scope = begin_scope();
        {
            let _visit = crate::prof::enter(&crate::prof::VISIT);
            crate::add("records.js_calls", 4);
            {
                let _js = crate::prof::enter(&crate::prof::JS_INTERP);
                crate::add("records.js_calls", 3);
                crate::observe("jsengine.ops_per_visit", 128);
            }
        }
        let m = scope_metrics();
        let _ = scope.end();

        // The raw delta saw the prof guards fire...
        assert!(
            m.counters.iter().any(|(n, _)| n.starts_with("prof.self.")),
            "prof guards should have recorded raw counters: {:?}",
            m.counters
        );
        // ...but the persisted encoding carries only deterministic state.
        let enc = m.encode();
        assert!(!enc.contains("prof."), "{enc}");
        assert_eq!(enc, "c:records.js_calls:7;o:jsengine.ops_per_visit:128");
    }

    #[test]
    fn out_of_order_close_still_balances() {
        let scope = begin_scope();
        let a = scope_span_open("outer").unwrap();
        let _b = scope_span_open("inner").unwrap();
        scope_span_close(a); // closes inner first, then outer
        let evs = scope.end();
        assert_eq!(evs.len(), 4);
        assert!(matches!(evs[2].span, Some(SpanMark::Close { .. })));
        assert_eq!(evs[3].span, Some(SpanMark::Close { id: a }));
    }
}
