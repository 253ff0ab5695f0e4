//! Differential property tests: the bytecode VM against the tree-walking
//! oracle.
//!
//! The VM backend is only admissible if it is *observably identical* to the
//! tree-walker — same values, same thrown errors (message and kind), same
//! side-effect order, and the same interpreter profile (`ops` equality is
//! the strongest check: the VM coalesces step charges, so any drift in its
//! accounting or in evaluation order shows up as an ops mismatch). These
//! tests generate random programs from a bounded grammar and run each one
//! under both engines in fresh realms.

use jsengine::{Engine, Interp, Profile};
use proplite::{run_cases, Rng};

mod common;
use common::Gen;

/// What one engine observed from one program: the completion value (or the
/// error message), plus the full interpreter profile.
#[derive(Debug, PartialEq)]
struct Observation {
    outcome: Result<String, String>,
    profile: Profile,
}

fn observe(engine: Engine, src: &str) -> Observation {
    let mut it = Interp::new();
    it.engine = engine;
    it.enable_profiling();
    let outcome = match it.eval_script(src, "diff.js") {
        Ok(v) => Ok(format!("{v:?}")),
        Err(e) => Err(e.to_string()),
    };
    Observation { outcome, profile: it.take_profile().expect("profiler was enabled") }
}

fn assert_engines_agree(src: &str) {
    let tree = observe(Engine::Tree, src);
    let vm = observe(Engine::Vm, src);
    assert_eq!(tree, vm, "engines diverged on program:\n{src}");
}

// ------------------------------------------------------------- properties

/// Random well-formed programs: values, side-effect order, and the exact
/// interpreter profile must match between engines.
#[test]
fn random_programs_agree_across_engines() {
    run_cases(200, 0xD1FF, |rng: &mut Rng| {
        let src = Gen::new(rng).program();
        assert_engines_agree(&src);
    });
}

/// Programs that throw (unhandled) must produce identical error messages
/// and identical profiles up to the throw point.
#[test]
fn throwing_programs_agree_across_engines() {
    run_cases(100, 0xD1FE, |rng: &mut Rng| {
        let mut g = Gen::new(rng);
        g.out.push_str("var log = [];\n");
        let n = g.rng.usize_in(1, 4);
        g.stmts(n, true);
        // Then a guaranteed failure: an undefined reference or a
        // non-function call, both of which must throw the same error text.
        let bad = match g.rng.usize_in(0, 3) {
            0 => "nosuchvar + 1;\n".to_string(),
            1 => "var nf = 1; nf();\n".to_string(),
            _ => format!("throw new Error('{}');\n", g.rng.string_of("xyz", 1, 4)),
        };
        g.out.push_str(&bad);
        let src = g.program();
        let tree = observe(Engine::Tree, &src);
        let vm = observe(Engine::Vm, &src);
        assert!(tree.outcome.is_err(), "program must throw:\n{src}");
        assert_eq!(tree, vm, "engines diverged on throwing program:\n{src}");
    });
}

/// The step budget must exhaust after the same number of recorded steps:
/// a program that exceeds the budget fails identically under both engines.
#[test]
fn budget_exhaustion_is_identical() {
    let src = "var n = 0; while (true) { n += 1; } n";
    let tree = observe(Engine::Tree, src);
    let vm = observe(Engine::Vm, src);
    assert!(tree.outcome.is_err(), "infinite loop must hit the budget");
    assert_eq!(tree, vm, "budget exhaustion diverged");
}

/// Recursion-depth limits fire identically (frame accounting is shared).
#[test]
fn recursion_limit_is_identical() {
    let src = "function r(n) { return r(n + 1); } r(0)";
    let tree = observe(Engine::Tree, src);
    let vm = observe(Engine::Vm, src);
    assert!(tree.outcome.is_err(), "unbounded recursion must fail");
    assert_eq!(tree, vm, "recursion limit diverged");
}
