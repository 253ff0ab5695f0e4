//! Per-page interpreter counts.
//!
//! The counts are realm state: [`Interp`](crate::Interp) bumps them where
//! it charges a step, dispatches a call or runs an `eval`, and
//! [`Interp::clone_realm`](crate::Interp::clone_realm) carries them over,
//! so a page cloned from a template reports what a page that ran the
//! template's setup itself would. [`Interp::profile`](crate::Interp::profile)
//! takes the snapshot the telemetry layer reads.

use std::sync::Arc;

/// A snapshot of one realm's interpreter counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Profile {
    /// Statements executed (the step count, the step budget's unit).
    pub ops: u64,
    /// Function calls dispatched (script and native).
    pub calls: u64,
    /// `eval()` invocations.
    pub evals: u64,
    /// Deepest call-stack depth reached.
    pub max_depth: usize,
    /// Per-builtin native-call counts, sorted by name for determinism;
    /// counted only while the phase profiler runs.
    pub builtins: Vec<(Arc<str>, u64)>,
}

#[cfg(test)]
mod interp_tests {
    use crate::Interp;
    use obs::prof::Mode;
    use obs::Telemetry;

    #[test]
    fn profiling_observes_a_script_run() {
        let mut interp = Interp::new();
        interp
            .eval_script(
                "function f(n) { return n <= 1 ? 1 : n * f(n - 1); }\n\
                 var x = f(6);\n\
                 eval('x + 1');",
                "profiled",
            )
            .unwrap();
        let p = interp.profile();
        assert_eq!(p.ops, interp.steps(), "ops are the step count: {p:?}");
        assert!(p.ops > 0, "steps must be counted: {p:?}");
        assert!(p.calls >= 6, "recursive calls must be counted: {p:?}");
        assert_eq!(p.evals, 1);
        assert!(p.max_depth >= 6, "recursion depth must be tracked: {p:?}");
    }

    #[test]
    fn profiling_counts_builtin_dispatches_by_name() {
        let t = Telemetry::new().with_prof(Mode::On);
        let _g = t.enter();
        let mut interp = Interp::new();
        interp
            .eval_script(
                "var s = 'ab'.toUpperCase(); var t = 'cd'.toUpperCase(); var u = 'e'.toLowerCase();",
                "builtins",
            )
            .unwrap();
        let p = interp.profile();
        let names: Vec<&str> = p.builtins.iter().map(|(n, _)| &**n).collect();
        assert_eq!(names, ["toLowerCase", "toUpperCase"], "name-sorted: {p:?}");
        let upper = p.builtins.iter().find(|(n, _)| &**n == "toUpperCase");
        assert_eq!(upper.map(|(_, c)| *c), Some(2), "builtin calls tallied by name: {p:?}");
    }

    /// With the phase profiler off no builtin dispatch is counted; the
    /// other counts do not depend on it.
    #[test]
    fn disabled_profiling_reports_nothing() {
        let src = "var a = 'ab'.toUpperCase();";
        let mut plain = Interp::new();
        plain.eval_script(src, "plain").unwrap();
        let t = Telemetry::new().with_prof(Mode::On);
        let mut profiled = Interp::new();
        {
            let _g = t.enter();
            profiled.eval_script(src, "plain").unwrap();
        }
        let (off, on) = (plain.profile(), profiled.profile());
        assert!(off.builtins.is_empty(), "{off:?}");
        assert!(!on.builtins.is_empty(), "{on:?}");
        let counts = |p: &super::Profile| (p.ops, p.calls, p.evals, p.max_depth);
        assert_eq!(counts(&off), counts(&on));
    }
}
