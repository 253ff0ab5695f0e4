//! One script identity: the compile cache keys a script by its body alone,
//! and the URL it was served under travels on the handle, the top-level
//! frame and every closure the script creates. Two URLs serving one body
//! share one cache entry, yet `Error.stack` — which detectors read to
//! attribute an API call to its originating script (paper Sec. 3.1.4) —
//! names each URL on its own frames, on both engines. The expected stacks
//! are the ones the engine printed when each URL had its own parse.

use jsengine::{Engine, Interp, JsCtx, Value};

/// Defines a function, records a top-level stack, and calls a function
/// that `eval` created.
const SHARED: &str = "function shared() { return new Error('s').stack; }\n\
var top = new Error('t').stack;\n\
var viaEval = eval(\"(function evalMade() { return new Error('e').stack; })\")();\n";

const A: &str = "https://a.example/js/site.js";
const B: &str = "https://b.example/js/site.js";

fn text(v: Value) -> String {
    match v {
        Value::Str(s) => s.to_string(),
        other => panic!("expected a stack string, got {other:?}"),
    }
}

fn read(it: &mut Interp, expr: &str) -> String {
    text(it.eval_script(expr, "read.js").expect("read runs"))
}

#[test]
fn one_body_under_two_urls_is_one_entry_with_distinct_stacks() {
    for engine in [Engine::Tree, Engine::Vm] {
        let ctx = JsCtx { engine, ..JsCtx::new() };
        let _g = ctx.enter();
        let a = jsengine::compile_cached(SHARED, A).unwrap();
        let b = jsengine::compile_cached(SHARED, B).unwrap();
        assert_eq!(ctx.cache.len(), 1, "{engine:?}: one body, one entry");
        assert_eq!(ctx.cache.stats().misses, 1);

        for (cs, url) in [(&a, A), (&b, B)] {
            let mut it = Interp::new();
            assert_eq!(it.engine, engine);
            it.eval_compiled(cs).expect("shared script runs");
            assert_eq!(read(&mut it, "top"), format!("(toplevel)@{url}:2\n"), "{engine:?}");
            assert_eq!(
                read(&mut it, "shared()"),
                format!("shared@{url}:1\n(toplevel)@read.js:1\n"),
                "{engine:?}"
            );
            assert_eq!(
                read(&mut it, "viaEval"),
                format!("evalMade@{url} > eval:1\n(toplevel)@{url}:3\n"),
                "{engine:?}: a function made by eval keeps `<url> > eval`"
            );
        }
    }
}

#[test]
fn a_closure_keeps_its_defining_url_when_another_script_calls_it() {
    for engine in [Engine::Tree, Engine::Vm] {
        let ctx = JsCtx { engine, ..JsCtx::new() };
        let _g = ctx.enter();
        let mut it = Interp::new();
        let a = jsengine::compile_cached(SHARED, A).unwrap();
        it.eval_compiled(&a).expect("script A runs");
        let caller = "var fromA = shared; var made = eval('(function () { return fromA(); })'); made()";
        let from_b = jsengine::compile_cached(caller, B).unwrap();
        let stack = text(it.eval_compiled(&from_b).expect("script B runs"));
        assert_eq!(
            stack,
            format!("shared@{A}:1\n<anonymous>@{B} > eval:1\n(toplevel)@{B}:1\n"),
            "{engine:?}"
        );
        // Serving A's body again under B redefines `shared` as B's, and
        // leaves the closure B's caller captured as A's.
        let b = jsengine::compile_cached(SHARED, B).unwrap();
        it.eval_compiled(&b).expect("shared body under B runs");
        assert_eq!(read(&mut it, "shared()"), format!("shared@{B}:1\n(toplevel)@read.js:1\n"));
        assert_eq!(read(&mut it, "fromA()"), format!("shared@{A}:1\n(toplevel)@read.js:1\n"));
        assert_eq!(ctx.cache.len(), 2, "two bodies: the shared one and the caller");
    }
}
