//! Isolation property test for copy-on-write realm cloning.
//!
//! A frozen template shares its heap with every clone, so a clone's writes
//! must land in that clone alone. For random programs, under both engines:
//!
//! 1. a clone of a frozen template observes exactly what a clone of the
//!    same template left unfrozen (a full deep copy) observes: completion
//!    value or thrown error, captured state, console, step count, and
//!    every object's own keys;
//! 2. a clone made afterwards equals the template object for object and
//!    reads the template's captured state, so nothing the first clone
//!    wrote leaked through the shared base or a shared scope.

use jsengine::{Engine, Interp, ObjId};
use proplite::{run_cases, Rng};

mod common;
use common::Gen;

/// Setup work that leaves closures over an inner activation (`c`) and the
/// global scope (`n`), plus objects and builtins a page may write.
/// `state()` reads captured state through closures no page replaces.
const SETUP: &str = "var n = 0;
function mk() { var c = 0; return { inc: function () { return ++c + (++n); }, peek: function () { return c; } }; }
var o = mk();
var keep = mk();
function state() { return keep.peek() + ',' + n; }
var arr = [1, 2, 3];
Object.prototype.shared = 'base';
console.log('setup');";

/// Statements that write template objects and captured scopes; each
/// program starts with a random selection of them.
const TOUCH: &[&str] = &[
    "o.inc();",
    "keep.inc();",
    "log0 = o.peek() + n;",
    "o.peek = function () { return -1; };",
    "Math.extra = 1;",
    "Object.prototype.shared = 'page';",
    "delete o.inc;",
    "arr.push(4);",
    "Array.prototype.tag = 1;",
    "console.log('page ' + n);",
];

fn template(engine: Engine, frozen: bool) -> Interp {
    let mut it = Interp::new();
    it.engine = engine;
    it.eval_script(SETUP, "setup.js").unwrap();
    if frozen {
        it.heap.freeze();
    }
    it
}

/// Everything a run leaves observable, with each object's own keys by id.
#[derive(Debug, PartialEq)]
struct Observation {
    outcome: Result<String, String>,
    state: String,
    console: Vec<String>,
    steps: u64,
    keys: Vec<Vec<String>>,
}

fn run(tpl: &Interp, src: &str) -> Observation {
    let mut it = tpl.clone_realm();
    let outcome = match it.eval_script(src, "page.js") {
        Ok(v) => Ok(format!("{v:?}")),
        Err(e) => Err(e.to_string()),
    };
    let keys = (0..it.heap.len() as u32)
        .map(|i| it.heap.get(ObjId(i)).props.keys().map(|k| k.to_string()).collect())
        .collect();
    Observation { outcome, state: state(&mut it), console: it.console.clone(), steps: it.steps(), keys }
}

fn state(it: &mut Interp) -> String {
    format!("{:?}", it.eval_script("state()", "state.js").unwrap())
}

/// One line per object: everything but a script closure's environment,
/// which every clone re-points to its own copy.
fn heap_lines(it: &Interp) -> Vec<String> {
    (0..it.heap.len() as u32)
        .map(|i| {
            let obj = it.heap.get(ObjId(i));
            let props: Vec<String> = obj.props.iter().map(|(k, p)| format!("{k}={p:?}")).collect();
            format!(
                "{:?} {} {:?} {:?} {:?} {props:?}",
                obj.proto, obj.class, obj.call, obj.elements, obj.host_data
            )
        })
        .collect()
}

fn program(rng: &mut Rng) -> String {
    let mut src = String::from("var log0 = 0;\n");
    for touch in TOUCH {
        if rng.bool() {
            src.push_str(touch);
            src.push('\n');
        }
    }
    src + &Gen::new(rng).program()
}

#[test]
fn clones_of_a_frozen_template_are_isolated() {
    for engine in [Engine::Tree, Engine::Vm] {
        let frozen = template(engine, true);
        let deep = template(engine, false);
        let pristine = heap_lines(&frozen);
        run_cases(64, 0x150_1A7E, |rng: &mut Rng| {
            let src = program(rng);
            let a = run(&frozen, &src);
            assert_eq!(a, run(&deep, &src), "{engine:?}: frozen clone diverged on:\n{src}");
            let mut b = frozen.clone_realm();
            assert_eq!(heap_lines(&b), pristine, "{engine:?}: a write leaked on:\n{src}");
            let fresh = state(&mut deep.clone_realm());
            assert_eq!(state(&mut b), fresh, "{engine:?}: a scope leaked on:\n{src}");
        });
    }
}
