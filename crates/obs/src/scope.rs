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

use crate::event::{Event, SpanMark};
use std::cell::RefCell;

/// The metric updates one visit scope produced: summed counter deltas and
/// the individual histogram observations, in emission order. Counters and
/// observations are order-independent sums, so re-applying a delta on a
/// resumed run reconstructs the same registry state the crashed run had.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScopeMetrics {
    /// `(counter name, summed delta)`, first-touch order.
    pub counters: Vec<(&'static str, u64)>,
    /// `(histogram name, value)` — one entry per observation so bucket
    /// shapes and sums restore exactly.
    pub observations: Vec<(&'static str, u64)>,
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
}

/// Parse a [`ScopeMetrics::encode`] string into owned
/// `(kind, name, value)` entries (`kind` is `'c'` or `'o'`). `None` on any
/// malformed entry — callers treat that as a damaged bundle entry.
pub fn decode_scope_metrics(s: &str) -> Option<Vec<(char, String, u64)>> {
    if s.is_empty() {
        return Some(Vec::new());
    }
    let mut out = Vec::new();
    for entry in s.split(';') {
        let mut parts = entry.splitn(3, ':');
        let kind = match parts.next()? {
            "c" => 'c',
            "o" => 'o',
            _ => return None,
        };
        let name = parts.next()?;
        let value: u64 = parts.next()?.parse().ok()?;
        if name.is_empty() {
            return None;
        }
        out.push((kind, name.to_string(), value));
    }
    Some(out)
}

struct ScopeState {
    events: Vec<Event>,
    clock_ms: u64,
    span_stack: Vec<u32>,
    next_span: u32,
    metrics: Option<ScopeMetrics>,
}

thread_local! {
    static SCOPE: RefCell<Option<ScopeState>> = const { RefCell::new(None) };
}

/// Open a visit scope on the current thread, discarding any previous one.
/// With `capture_metrics`, every [`crate::add`] / [`crate::observe`] made
/// inside the scope is *also* recorded into the scope's [`ScopeMetrics`]
/// delta: the crash-consistent streaming mode persists the delta with each
/// visit's bundle manifest entry so a resumed process can re-apply exactly
/// the metrics the lost process already counted.
pub fn begin_scope(capture_metrics: bool) {
    SCOPE.with(|s| {
        *s.borrow_mut() = Some(ScopeState {
            events: Vec::new(),
            clock_ms: 0,
            span_stack: Vec::new(),
            next_span: 1,
            metrics: capture_metrics.then(ScopeMetrics::default),
        })
    });
}

/// Take the active scope's captured metric delta (leaving it empty).
/// `None` when no scope is open or capture is off.
pub fn take_scope_metrics() -> Option<ScopeMetrics> {
    SCOPE.with(|s| s.borrow_mut().as_mut().and_then(|st| st.metrics.take()))
}

/// Record a counter bump into the active scope's delta (no-op when
/// capture is off or no scope is open).
#[inline]
pub(crate) fn record_add(name: &'static str, delta: u64) {
    SCOPE.with(|s| {
        if let Some(m) = s.borrow_mut().as_mut().and_then(|st| st.metrics.as_mut()) {
            match m.counters.iter_mut().find(|(n, _)| *n == name) {
                Some((_, v)) => *v += delta,
                None => m.counters.push((name, delta)),
            }
        }
    });
}

/// Record a histogram observation into the active scope's delta.
#[inline]
pub(crate) fn record_observe(name: &'static str, v: u64) {
    SCOPE.with(|s| {
        if let Some(m) = s.borrow_mut().as_mut().and_then(|st| st.metrics.as_mut()) {
            m.observations.push((name, v));
        }
    });
}

/// Close the current thread's scope and return its buffered events
/// (empty if no scope was active). Unclosed spans are closed implicitly,
/// innermost first, so journals always balance.
pub fn end_scope() -> Vec<Event> {
    SCOPE.with(|s| {
        let Some(mut st) = s.borrow_mut().take() else {
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
        st.events
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
        begin_scope(false);
        assert!(push_event(Event::new(0, "a")).is_none());
        clock_advance(10);
        assert!(push_event(Event::new(0, "b")).is_none());
        let evs = end_scope();
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
        begin_scope(false);
        let a = scope_span_open("outer").unwrap();
        let b = scope_span_open("inner").unwrap();
        scope_span_close(b);
        scope_span_close(a);
        let evs = end_scope();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0].span, Some(SpanMark::Open { id: a, parent: 0 }));
        assert_eq!(evs[1].span, Some(SpanMark::Open { id: b, parent: a }));
        assert_eq!(evs[2].span, Some(SpanMark::Close { id: b }));
        assert_eq!(evs[3].span, Some(SpanMark::Close { id: a }));
    }

    #[test]
    fn end_scope_closes_dangling_spans() {
        begin_scope(false);
        let a = scope_span_open("outer").unwrap();
        let b = scope_span_open("inner").unwrap();
        let evs = end_scope();
        assert_eq!(evs[2].span, Some(SpanMark::Close { id: b }));
        assert_eq!(evs[3].span, Some(SpanMark::Close { id: a }));
    }

    #[test]
    fn scope_metrics_capture_encode_and_decode_roundtrip() {
        begin_scope(true);
        record_add("supervisor.faults", 2);
        record_add("records.js_calls", 10);
        record_add("supervisor.faults", 1);
        record_observe("jsengine.ops_per_visit", 64);
        record_observe("jsengine.ops_per_visit", 64);
        record_add("cache.compile.hit", 9); // nondeterministic: dropped by encode
        let m = take_scope_metrics().expect("capture on");
        let _ = end_scope();

        assert_eq!(m.counters.iter().find(|(n, _)| *n == "supervisor.faults"), Some(&("supervisor.faults", 3)));
        assert_eq!(m.observations.len(), 2);
        let enc = m.encode();
        assert!(!enc.contains("cache."), "{enc}");
        let dec = decode_scope_metrics(&enc).expect("decode");
        assert_eq!(dec.len(), 4, "{enc}");
        assert!(dec.contains(&('c', "supervisor.faults".to_string(), 3)));
        assert!(dec.contains(&('o', "jsengine.ops_per_visit".to_string(), 64)));

        assert_eq!(decode_scope_metrics("").unwrap(), Vec::new());
        assert!(decode_scope_metrics("x:bad:1").is_none());
        assert!(decode_scope_metrics("c:name").is_none());
        assert!(decode_scope_metrics("c::3").is_none());
        assert!(decode_scope_metrics("c:name:notanum").is_none());

        // A scope opened without capture records nothing.
        begin_scope(false);
        record_add("ignored", 1);
        assert!(take_scope_metrics().is_none(), "capture off: nothing captured");
        let _ = end_scope();
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
        begin_scope(true);
        {
            let _visit = crate::prof::enter(&crate::prof::VISIT);
            crate::add("records.js_calls", 4);
            {
                let _js = crate::prof::enter(&crate::prof::JS_INTERP);
                crate::add("records.js_calls", 3);
                crate::observe("jsengine.ops_per_visit", 128);
            }
        }
        let m = take_scope_metrics().expect("capture on");
        let _ = end_scope();

        // The raw delta saw the prof guards fire...
        assert!(
            m.counters.iter().any(|(n, _)| n.starts_with("prof.self.")),
            "prof guards should have recorded raw counters: {:?}",
            m.counters
        );
        // ...but the persisted encoding carries only deterministic state.
        let enc = m.encode();
        assert!(!enc.contains("prof."), "{enc}");
        let dec = decode_scope_metrics(&enc).expect("decode");
        assert!(dec.contains(&('c', "records.js_calls".to_string(), 7)), "{enc}");
        assert!(dec.contains(&('o', "jsengine.ops_per_visit".to_string(), 128)), "{enc}");
    }

    #[test]
    fn out_of_order_close_still_balances() {
        begin_scope(false);
        let a = scope_span_open("outer").unwrap();
        let _b = scope_span_open("inner").unwrap();
        scope_span_close(a); // closes inner first, then outer
        let evs = end_scope();
        assert_eq!(evs.len(), 4);
        assert!(matches!(evs[2].span, Some(SpanMark::Close { .. })));
        assert_eq!(evs[3].span, Some(SpanMark::Close { id: a }));
    }
}
