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
    observe_with_budget(engine, src, Interp::new().step_limit)
}

/// [`observe`] under a step budget of `limit`.
fn observe_with_budget(engine: Engine, src: &str, limit: u64) -> Observation {
    let mut it = Interp::new();
    it.engine = engine;
    it.step_limit = limit;
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
        let tree = observe(Engine::Tree, &src);
        let vm = observe(Engine::Vm, &src);
        assert_eq!(tree, vm, "engines diverged on program:\n{src}");
        if let Err(e) = &tree.outcome {
            assert!(
                !e.contains("ReferenceError") && !e.contains("SyntaxError"),
                "the generator wrote a program that stops at {e}:\n{src}"
            );
        }
    });
}

/// A `var` declared in a branch that did not run was never bound, so
/// reading it throws; both engines must throw the same error. The
/// generator no longer writes such programs, so this case keeps the path
/// covered.
#[test]
fn var_from_a_branch_that_did_not_run_agrees_across_engines() {
    let src = "var log = [];\nif (false) {\nvar v0 = 1;\n}\nlog.push('' + v0);\nlog.join('|')";
    let tree = observe(Engine::Tree, src);
    let vm = observe(Engine::Vm, src);
    let err = tree.outcome.as_ref().expect_err("v0 was never bound");
    assert!(err.contains("ReferenceError: v0 is not defined"), "{err}");
    assert_eq!(tree, vm, "engines diverged on program:\n{src}");
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

/// A step-budget error is never caught, but every `finally` on its way out
/// runs (and trips the budget again at its first charge); `catch` blocks
/// and the hoisting of a `finally`'s functions must match step for step.
#[test]
fn budget_exhaustion_inside_try_is_identical() {
    for src in [
        "var n = 0; try { while (true) { n += 1; } } catch (e) { n = -1; } n",
        "var n = 0; try { while (true) { n += 1; } } finally { n = -1; } n",
        "var n = 0; try { try { while (true) { n += 1; } } finally { function h() {} } } \
         catch (e) { n = e; } n",
        "function spin() { while (true) {} } try { spin(); } catch (e) { 1 } finally { }",
    ] {
        let tree = observe_with_budget(Engine::Tree, src, 50_000);
        let vm = observe_with_budget(Engine::Vm, src, 50_000);
        assert!(tree.outcome.is_err(), "must hit the budget: {src}");
        assert_eq!(tree, vm, "budget exhaustion inside try diverged: {src}");
    }
}

/// `too much recursion` is catchable: a catch at every level, and a
/// `finally` at every level, fire identically under both engines.
#[test]
fn recursion_limit_inside_try_is_identical() {
    for (src, caught) in [
        ("function r(n) { try { return r(n + 1); } catch (e) { return n + ':' + e; } } r(0)", true),
        ("var d = 0; function r(n) { try { return r(n + 1); } finally { d += 1; } } r(0)", false),
        (
            "var log = []; function r(n) { try { return r(n + 1); } finally { log.push(n); } } \
             try { r(0); } catch (e) { log.join(',') + '|' + e }",
            true,
        ),
    ] {
        let tree = observe(Engine::Tree, src);
        let vm = observe(Engine::Vm, src);
        assert_eq!(tree.outcome.is_ok(), caught, "{src}: {:?}", tree.outcome);
        assert_eq!(tree, vm, "recursion limit inside try diverged: {src}");
    }
}

/// Completions crossing `finally` blocks in every direction, nested
/// handlers, and `eval` bodies that use them.
#[test]
fn try_completions_agree_across_engines() {
    for src in [
        // A `finally` overriding a return, a throw and a break.
        "function f() { try { return 1; } finally { return 2; } } f()",
        "function f() { try { throw 1; } finally { return 2; } } f()",
        "var x = 0; for (;;) { try { x = 1; break; } finally { x = 2; } } x",
        "function f() { for (;;) { try { return 1; } finally { break; } } return 3; } f()",
        // A return value survives a `try` caught inside the `finally`.
        "function f() { try { try { return 1; } finally { return 2; } } \
         finally { try { throw 0; } catch (e) {} } } f()",
        // Nested finallys run innermost first on every exit.
        "var l = []; function f() { try { try { return 'r'; } finally { l.push(1); } } \
         finally { l.push(2); } } f() + l.join()",
        "var l = []; for (var i = 0; i < 3; i++) { try { try { if (i == 1) { continue; } \
         l.push(i); } finally { l.push('a' + i); } } finally { l.push('b' + i); } } l.join()",
        // A throw inside an inlined `finally` lands in the enclosing catch.
        "var l = []; for (;;) { try { try { break; } finally { throw 'x'; } } catch (e) { l.push(e); break; } } l.join()",
        // Catch scopes: `var` stays in the catch scope, closures keep it.
        "var g; try { throw 'p'; } catch (e) { var v = e + 1; g = function () { return e + v; }; } \
         g() + typeof v + typeof e",
        "var o = { m: function () { try { throw 0; } catch (e) { return this === o; } } }; o.m()",
        // A thrown error keeps its message while a `finally` changes it.
        "var err = new Error('a'); var r; try { try { throw err; } finally { err.message = 'b'; } } \
         catch (e) { r = e.message; } r",
        "try { throw new Error('up'); } finally { 1; }",
        // `for`-`in` iterations unwind with the handler.
        "var l = []; for (var k in { a: 1, b: 2 }) { try { for (var j in { c: 1 }) { throw k + j; } } \
         catch (e) { l.push(e); } } l.join()",
        // A catch scope left by a throw or a `break` is gone afterwards.
        "try { try { throw 1; } catch (e) { var inner = 1; throw 2; } } catch (e2) { } \
         typeof inner + typeof e",
        "for (;;) { try { throw 1; } catch (e) { var z = 1; break; } } typeof z",
        // A held error survives a throw or a `break` in its `finally`.
        "var r; try { try { throw 'a'; } finally { try { try { throw 'b'; } finally { throw 'c'; } } \
         catch (x) {} } } catch (e) { r = e; } r",
        "var r; try { try { throw 'a'; } finally { for (;;) { try { throw 'b'; } finally { break; } } } } \
         catch (e) { r = e; } r",
        // A waiting return value survives operands a caught throw left.
        "function g() { throw 0; } function f() { try { return 'r'; } \
         finally { try { [1, g()]; } catch (e) {} } } f()",
        // A top-level `return` ends the iteration it leaves, so a later
        // handler unwinds only its own loop's.
        "var l = []; for (var k in { a: 1 }) { return; } \
         for (var j in { b: 1, c: 2 }) { try { throw j; } catch (e) { l.push(e); } } l.join()",
        // `eval`: completion values, root returns, hoisting, scope.
        "eval('1; 2')",
        "eval('var q = 3; q * 2') + q",
        "eval('if (true) { return 5; } 6')",
        "eval('for (;;) { try { return 1; } finally { break; } } 7')",
        "function f(a) { return eval('a + 1'); } f(1)",
        "eval('function h() { return 9; }'); h()",
        "var r; try { eval('throw 3'); } catch (e) { r = e; } r",
        "var r; try { eval('1 +'); } catch (e) { r = e.message; } r",
        "var x = 1; try { throw 2; } catch (x) { eval('x = 5'); } x",
    ] {
        assert_engines_agree(src);
    }
}


/// The step budget tripping at every charge of a program that crosses
/// every kind of `try` exit: a charge coalesced across a guarded range's
/// boundary would run (or skip) a `catch` or `finally` the oracle skips
/// (or runs).
#[test]
fn budget_at_every_step_of_a_try_program_is_identical() {
    let src = "var l = [];
        function f(p) { try { if (p) { throw 'x' + p; } return 'r'; } catch (e) { l.push(e); }
          finally { l.push('f'); } }
        for (var i = 0; i < 3; i++) { try { if (i == 1) { continue; } l.push(f(i)); }
          finally { l.push(i); } }
        for (var k in { a: 1 }) { try { break; } finally { l.push(k); } }
        try { eval('1; try { throw 2; } catch (q) { q; } finally { 3; }'); } catch (e) { }
        l.join()";
    let total = {
        let mut it = Interp::new();
        it.eval_script(src, "sweep.js").expect("runs to completion");
        it.steps()
    };
    for limit in 0..=total {
        let tree = observe_with_budget(Engine::Tree, src, limit);
        let vm = observe_with_budget(Engine::Vm, src, limit);
        assert_eq!(tree, vm, "engines diverged at step limit {limit}");
    }
}
