//! Adversarial-semantics tests: the engine behaviours that hostile page
//! scripts rely on — shadowing, tampering, introspection — must work
//! exactly like a real engine, or the reproduction's attacks would be
//! theatre.

use jsengine::parser::{parse, MAX_NESTING};
use jsengine::{eval, Engine, EngineError, Interp, Value};

fn text(src: &str) -> String {
    match eval(src).unwrap() {
        Value::Str(s) => s.to_string(),
        other => panic!("expected string, got {other:?}"),
    }
}

fn boolean(src: &str) -> bool {
    match eval(src).unwrap() {
        Value::Bool(b) => b,
        other => panic!("expected bool, got {other:?}"),
    }
}

#[test]
fn shadowing_a_method_on_an_instance_beats_the_prototype() {
    // The mechanism behind the dispatcher hijack: an own property wins
    // against the inherited native.
    let src = r#"
        var proto = { hit: function () { return 'proto'; } };
        var obj = Object.create(proto);
        var before = obj.hit();
        obj.hit = function () { return 'shadow'; };
        var after = obj.hit();
        delete obj.hit;
        var restored = obj.hit();
        [before, after, restored].join(',')
    "#;
    assert_eq!(text(src), "proto,shadow,proto");
}

#[test]
fn saved_function_references_survive_shadowing() {
    let src = r#"
        var obj = { f: function (x) { return x * 2; } };
        var saved = obj.f;
        obj.f = function (x) { return 0; };
        saved(21)
    "#;
    assert_eq!(eval(src).unwrap(), Value::Num(42.0));
}

#[test]
fn var_in_loops_is_function_scoped() {
    // The instrument's wrapper loops depend on closure-captures of
    // parameters, not loop variables (classic var pitfall).
    let src = r#"
        var fns = [];
        for (var i = 0; i < 3; i++) {
            fns.push(function () { return i; });
        }
        [fns[0](), fns[1](), fns[2]()].join(',')
    "#;
    assert_eq!(text(src), "3,3,3");
    // Capturing via a parameter freezes the value.
    let src = r#"
        function make(v) { return function () { return v; }; }
        var fns = [];
        for (var i = 0; i < 3; i++) { fns.push(make(i)); }
        [fns[0](), fns[1](), fns[2]()].join(',')
    "#;
    assert_eq!(text(src), "0,1,2");
}

#[test]
fn define_property_can_replace_native_accessors() {
    // The vanilla instrument's core move, end to end in pure script.
    let src = r#"
        var host = {};
        Object.defineProperty(host, 'secret', {
            get: function () { return 'original'; }, enumerable: true
        });
        var origDesc = Object.getOwnPropertyDescriptor(host, 'secret');
        var orig = origDesc.get;
        var log = [];
        Object.defineProperty(host, 'secret', {
            get: function () { log.push('seen'); return orig.call(this); },
            enumerable: true
        });
        var v = host.secret;
        v + ':' + log.length
    "#;
    assert_eq!(text(src), "original:1");
}

#[test]
fn tostring_of_redefined_function_changes() {
    let src = r#"
        var o = { f: function () { return 1; } };
        var before = ('' + o.f).indexOf('return 1') !== -1;
        o.f = function () { return 2; };
        var after = ('' + o.f).indexOf('return 2') !== -1;
        before && after
    "#;
    assert!(boolean(src));
}

#[test]
fn error_stack_is_captured_at_construction_not_at_throw() {
    let mut it = Interp::new();
    let v = it
        .eval_script(
            r#"
            function maker() { return new Error('premade'); }
            var e = maker();
            function thrower(err) { throw err; }
            var stack = '';
            try { thrower(e); } catch (c) { stack = '' + c.stack; }
            stack
            "#,
            "adv.js",
        )
        .unwrap();
    let stack = v.as_str().unwrap();
    assert!(stack.contains("maker@adv.js"), "stack: {stack}");
    assert!(!stack.contains("thrower@"), "stack must be from construction: {stack}");
}

#[test]
fn for_in_sees_properties_added_to_prototypes_later() {
    let src = r#"
        var proto = {};
        var obj = Object.create(proto);
        proto.added = 1;
        var keys = [];
        for (var k in obj) { keys.push(k); }
        keys.join(',')
    "#;
    assert_eq!(text(src), "added");
}

#[test]
fn non_enumerable_properties_hide_from_iteration_but_not_access() {
    let src = r#"
        var o = {};
        Object.defineProperty(o, 'hidden', { value: 42, enumerable: false });
        var keys = [];
        for (var k in o) { keys.push(k); }
        keys.length + ':' + o.hidden + ':' + Object.getOwnPropertyNames(o).length
    "#;
    assert_eq!(text(src), "0:42:1");
}

#[test]
fn getter_exceptions_propagate_to_caller() {
    let src = r#"
        var o = {};
        Object.defineProperty(o, 'trap', {
            get: function () { throw new TypeError('illegal'); }
        });
        var caught = '';
        try { o.trap; } catch (e) { caught = e.name; }
        caught
    "#;
    assert_eq!(text(src), "TypeError");
}

#[test]
fn instanceof_follows_rewired_prototypes() {
    let src = r#"
        function A() {}
        function B() {}
        var x = new A();
        var viaA = x instanceof A;
        Object.setPrototypeOf(x, B.prototype);
        var viaB = x instanceof B;
        var stillA = x instanceof A;
        [viaA, viaB, stillA].join(',')
    "#;
    assert_eq!(text(src), "true,true,false");
}

#[test]
fn eval_can_define_globals_visible_to_later_scripts() {
    let mut it = Interp::new();
    it.eval_script("eval('var planted = 99;');", "first.js").unwrap();
    let v = it.eval_script("planted", "second.js").unwrap();
    assert_eq!(v, Value::Num(99.0));
}

#[test]
fn swallowed_exceptions_do_not_corrupt_state() {
    let src = r#"
        var ok = 0;
        for (var i = 0; i < 10; i++) {
            try {
                if (i % 2 === 0) { throw i; }
                ok++;
            } catch (e) {}
        }
        ok
    "#;
    assert_eq!(eval(src).unwrap(), Value::Num(5.0));
}

#[test]
fn arguments_reflects_extra_parameters() {
    let src = r#"
        function probe() {
            var out = [];
            for (var i = 0; i < arguments.length; i++) { out.push(arguments[i]); }
            return out.join('-');
        }
        probe('a', 'b', 'c', 'd')
    "#;
    assert_eq!(text(src), "a-b-c-d");
}

#[test]
fn apply_with_arguments_forwards_everything() {
    // `func.apply(this, arguments)` — the wrapper idiom from Listing 1.
    let src = r#"
        function inner(a, b, c) { return '' + a + b + c; }
        function wrapper() { return inner.apply(this, arguments); }
        wrapper(1, 2, 3)
    "#;
    assert_eq!(text(src), "123");
}

#[test]
fn global_this_assignment_and_window_identity() {
    let src = "globalThis.x = 5; var viaGlobal = x; globalThis === globalThis && viaGlobal === 5";
    assert!(boolean(src));
}

#[test]
fn heavily_nested_data_structures_roundtrip() {
    let src = r#"
        var deep = { a: [ { b: [ { c: 'found' } ] } ] };
        deep.a[0].b[0].c
    "#;
    assert_eq!(text(src), "found");
}

#[test]
fn string_conversion_of_objects_uses_custom_tostring() {
    let src = r#"
        var o = { toString: function () { return 'custom!'; } };
        'value: ' + o
    "#;
    assert_eq!(text(src), "value: custom!");
}

/// `n` levels of a shape that once overflowed the native stack: in the
/// parser's recursive descent (brackets, functions, blocks, `!`) or, for
/// the loop-built chains (`+1`, `.b`), in lowering and evaluation; or that
/// once blew up the bytecode (`finallys`).
fn nest(shape: &str, n: usize) -> String {
    match shape {
        "parens" => format!("{}1{}", "(".repeat(n), ")".repeat(n)),
        "arrays" => format!("{}{}", "[".repeat(n), "]".repeat(n)),
        "objects" => format!("x = {}1{}", "{a:".repeat(n), "}".repeat(n)),
        "iifes" => format!("{}{}", "(function(){".repeat(n), "})();".repeat(n)),
        "blocks" => format!("{}{}", "{".repeat(n), "}".repeat(n)),
        "nots" => format!("{}1", "!".repeat(n)),
        "plus" => format!("1{}", "+1".repeat(n)),
        "members" => format!("var a = {{}}; a.b = a; a{}", ".b".repeat(n)),
        // A `try` in each `finally`, left by a `break` from the innermost:
        // a lowering that copied each `finally` per exit grew as 2^n.
        "finallys" => format!("for(;;){{{}break;{}}}", "try{}finally{".repeat(n), "}".repeat(n)),
        other => unreachable!("no shape {other}"),
    }
}

const SHAPES: [&str; 9] =
    ["parens", "arrays", "objects", "iifes", "blocks", "nots", "plus", "members", "finallys"];

/// Run `src` on a thread with a 2 MiB stack, the default for spawned
/// threads and so for the crawl's workers.
fn run_on_worker_stack(engine: Engine, src: String) -> Result<Value, EngineError> {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            let mut interp = Interp::new();
            interp.engine = engine;
            interp.eval_script(&src, "deep.js")
        })
        .unwrap()
        .join()
        .unwrap()
}

#[test]
fn hostile_nesting_is_a_syntax_error_not_an_abort() {
    for shape in SHAPES {
        for engine in [Engine::Vm, Engine::Tree] {
            match run_on_worker_stack(engine, nest(shape, 100_000)) {
                Err(EngineError::Parse { message, .. }) => {
                    assert!(message.contains("nests deeper"), "{shape}, {engine:?}: {message}")
                }
                other => panic!("{shape}, {engine:?}: expected a syntax error, got {other:?}"),
            }
        }
    }
}

#[test]
fn nesting_at_the_budget_parses_lowers_and_runs() {
    for shape in SHAPES {
        // The deepest nesting of this shape the budget accepts.
        let parses = |n: usize| parse(&nest(shape, n)).is_ok();
        let (mut deepest, mut rejected) = (1, MAX_NESTING as usize + 1);
        assert!(parses(deepest) && !parses(rejected), "{shape}");
        while rejected - deepest > 1 {
            let mid = (deepest + rejected) / 2;
            if parses(mid) {
                deepest = mid;
            } else {
                rejected = mid;
            }
        }
        for engine in [Engine::Vm, Engine::Tree] {
            let ran = run_on_worker_stack(engine, nest(shape, deepest));
            assert!(ran.is_ok(), "{shape} x{deepest}, {engine:?}: {ran:?}");
        }
    }
}

/// Recursion 1,000 deep through the two costliest call shapes, an operand
/// (`0 + f()`) and a `try`/`finally`, is stopped by the call-depth limit
/// (`interp::MAX_CALL_DEPTH`) with a catchable error on a 2 MiB thread,
/// never by a native stack overflow that aborts the process.
#[test]
fn deep_recursion_throws_too_much_recursion_not_an_abort() {
    let shapes = [
        "function f(k) { if (k == 0) return 0; return (0 + f(k - 1)); }",
        "function f(k) { if (k == 0) return 0; try { return f(k - 1); } finally {} }",
    ];
    for def in shapes {
        let src = format!(
            "{def} var r = 'returned'; try {{ f(1000); }} catch (e) {{ r = String(e); }} r"
        );
        for engine in [Engine::Vm, Engine::Tree] {
            match run_on_worker_stack(engine, src.clone()) {
                Ok(Value::Str(s)) => {
                    assert!(s.contains("too much recursion"), "{def}, {engine:?}: {s}")
                }
                other => panic!("{def}, {engine:?}: expected a caught error, got {other:?}"),
            }
        }
    }
}
