//! Opt-in interpreter profiling.
//!
//! The scan visits ~100K sites through this interpreter, so its hot loop
//! cannot afford unconditional accounting beyond the step budget it already
//! pays. Profiling therefore hangs off `Interp.profiler`, an
//! `Option<Box<CountingProfiler>>` that is `None` unless a host (the
//! browser crate, driven by telemetry knobs) enables it — the disabled cost
//! is a single `if let` branch per hook site.

use std::collections::HashMap;
use std::sync::Arc;

/// Aggregated per-page interpreter counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Profile {
    /// Statements executed (same unit as the step budget).
    pub ops: u64,
    /// Function calls dispatched (script and native).
    pub calls: u64,
    /// `eval()` invocations.
    pub evals: u64,
    /// Deepest call-stack depth reached.
    pub max_depth: usize,
    /// Per-builtin native-call counts, sorted by name for determinism.
    pub builtins: Vec<(Arc<str>, u64)>,
}

/// The interpreter's profiler: counts ops, calls, evals, peak depth, and
/// per-builtin native dispatches. Its `record_*` methods are the hooks the
/// interpreter invokes when profiling is enabled.
#[derive(Debug, Default)]
pub struct CountingProfiler {
    profile: Profile,
    builtins: HashMap<Arc<str>, u64>,
}

impl CountingProfiler {
    /// A profiler whose counts start from an earlier report: resuming and
    /// then counting more work reports the same as having counted all of
    /// it in one profiler.
    pub(crate) fn resume(base: Profile) -> CountingProfiler {
        let mut profile = base;
        let builtins = std::mem::take(&mut profile.builtins).into_iter().collect();
        CountingProfiler { profile, builtins }
    }

    pub fn record_step(&mut self) {
        self.profile.ops += 1;
    }

    /// `n` coalesced steps at once (the bytecode VM batches charges for
    /// pure nodes); equivalent to `n` [`record_step`](Self::record_step)
    /// calls.
    pub fn record_steps(&mut self, n: u32) {
        self.profile.ops += n as u64;
    }

    pub fn record_call(&mut self, depth: usize) {
        self.profile.calls += 1;
        if depth > self.profile.max_depth {
            self.profile.max_depth = depth;
        }
    }

    pub fn record_eval(&mut self) {
        self.profile.evals += 1;
    }

    /// A native (builtin) function is about to run; `name` is the
    /// interned name the host registered it under.
    pub fn record_builtin(&mut self, name: &Arc<str>) {
        *self.builtins.entry(Arc::clone(name)).or_insert(0) += 1;
    }

    pub fn report(&self) -> Profile {
        let mut profile = self.profile.clone();
        profile.builtins = self.builtins.iter().map(|(n, c)| (Arc::clone(n), *c)).collect();
        profile.builtins.sort_by(|a, b| a.0.cmp(&b.0));
        profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_profiler_accumulates() {
        let mut p = CountingProfiler::default();
        p.record_step();
        p.record_step();
        p.record_call(3);
        p.record_call(1);
        p.record_eval();
        let log: Arc<str> = Arc::from("log");
        let get_time: Arc<str> = Arc::from("getTime");
        p.record_builtin(&log);
        p.record_builtin(&log);
        p.record_builtin(&get_time);
        let report = p.report();
        assert_eq!((report.ops, report.calls, report.evals, report.max_depth), (2, 2, 1, 3));
        assert_eq!(
            report.builtins,
            vec![(Arc::from("getTime"), 1), (Arc::from("log"), 2)],
            "builtins must be name-sorted with summed counts"
        );
    }

    /// Counting in two profilers, the second resumed from the first's
    /// report, reports exactly what one profiler counting everything does.
    #[test]
    fn resumed_profiler_equals_one_uninterrupted_profiler() {
        let log: Arc<str> = Arc::from("log");
        let get: Arc<str> = Arc::from("get");
        let first = |p: &mut CountingProfiler| {
            p.record_steps(5);
            p.record_call(4);
            p.record_builtin(&log);
        };
        let second = |p: &mut CountingProfiler| {
            p.record_step();
            p.record_call(2);
            p.record_eval();
            p.record_builtin(&log);
            p.record_builtin(&get);
        };
        let mut whole = CountingProfiler::default();
        first(&mut whole);
        second(&mut whole);
        let mut head = CountingProfiler::default();
        first(&mut head);
        let mut tail = CountingProfiler::resume(head.report());
        second(&mut tail);
        assert_eq!(tail.report(), whole.report());
    }
}

#[cfg(test)]
mod interp_tests {
    use crate::Interp;

    #[test]
    fn profiling_observes_a_script_run() {
        let mut interp = Interp::new();
        interp.enable_profiling();
        interp
            .eval_script(
                "function f(n) { return n <= 1 ? 1 : n * f(n - 1); }\n\
                 var x = f(6);\n\
                 eval('x + 1');",
                "profiled",
            )
            .unwrap();
        let p = interp.take_profile().unwrap();
        assert!(p.ops > 0, "steps must be counted: {p:?}");
        assert!(p.calls >= 6, "recursive calls must be counted: {p:?}");
        assert_eq!(p.evals, 1);
        assert!(p.max_depth >= 6, "recursion depth must be tracked: {p:?}");
        assert!(interp.profiler.is_none(), "take_profile removes the profiler");
    }

    #[test]
    fn profiling_counts_builtin_dispatches_by_name() {
        let mut interp = Interp::new();
        interp.enable_profiling();
        interp
            .eval_script("var s = 'ab'.toUpperCase(); var t = 'cd'.toUpperCase();", "builtins")
            .unwrap();
        let p = interp.take_profile().unwrap();
        let upper = p.builtins.iter().find(|(n, _)| &**n == "toUpperCase");
        assert_eq!(upper.map(|(_, c)| *c), Some(2), "builtin calls tallied by name: {p:?}");
    }

    #[test]
    fn disabled_profiling_reports_nothing() {
        let mut interp = Interp::new();
        interp.eval_script("var a = 1 + 1;", "plain").unwrap();
        assert!(interp.take_profile().is_none());
    }
}
