//! # MiniJS — a small JavaScript-subset interpreter
//!
//! `jsengine` is the scripting substrate of the *gullible* reproduction of
//! "How gullible are web measurement tools?" (CoNEXT '22). The paper's
//! attacks and defences all live at the JavaScript layer of a browser:
//! `Function.prototype.toString` leakage of instrumentation wrappers, stack
//! traces that expose wrapper frames, prototype pollution, property probing
//! and iteration, event-dispatcher hijacking, and `eval`-based silent code
//! delivery. Rather than hard-coding the outcome of those techniques, this
//! crate implements enough of JavaScript that they *emerge* from the
//! semantics:
//!
//! * a full object model with prototype chains, data and accessor
//!   properties, enumerability and property deletion;
//! * closures, `this` binding, `new`, `arguments`, `call`/`apply`;
//! * `try`/`catch`/`finally`, `throw`, and `Error` objects whose `.stack`
//!   reflects the real interpreter call stack (so a wrapped API call really
//!   does show the wrapper's frames);
//! * `Function.prototype.toString` returning the original source text for
//!   script functions and a `[native code]` body for native functions (so
//!   wrapper detection via `toString` really works);
//! * `eval` and a timer/job queue (so the silent-JS-delivery and delayed
//!   iframe attacks can be expressed verbatim);
//! * `for`-`in` iteration and `Object.getOwnPropertyNames` (so template
//!   attacks and honey-property traps behave as in the paper).
//!
//! The engine ships two execution backends behind one [`Engine`] API: the
//! original tree-walking interpreter (the reference oracle — maximally
//! debuggable, semantics written down once) and a bytecode VM
//! ([`bytecode`] + [`vm`]) that compiles each script once per
//! [`CompiledScript`] handle and runs a flat dispatch loop over the same
//! runtime (values, objects, builtins, error paths). The two are required
//! to be observably identical — per-site records, step budgets, traces and
//! telemetry digests byte-for-byte — and a differential harness enforces
//! it; the VM exists purely because the scan's interpretation phase
//! dominates visit wall time (2.34× visit throughput on an
//! interpretation-dominated page, recorded in EXPERIMENTS.md).
//!
//! ## Quick example
//!
//! ```
//! use jsengine::{Interp, Value};
//!
//! let mut interp = Interp::new();
//! let v = interp.eval_script("var x = 2; x + 40", "inline").unwrap();
//! assert_eq!(v, Value::Num(42.0));
//! ```
//!
//! Host environments (the `browser` crate) install host objects such as
//! `window`, `navigator` and `document` onto the global object and register
//! native functions that close over host state.

#![forbid(unsafe_code)]

pub mod ast;
pub mod atom;
pub mod bytecode;
pub mod compile;
mod ctx;
pub mod error;
pub mod interp;
pub mod lexer;
pub mod object;
pub mod parser;
pub mod profiler;
pub mod value;
pub mod vm;

mod builtins;

pub use compile::{compile, CacheStats, CompileCache, CompiledScript, ScriptSource};
pub use ctx::{cache, compile_cached, default_engine, set_default_engine, JsCtx, JsGuard};
pub use vm::Engine;
pub use atom::{Atom, AtomMap};
pub use error::{EngineError, Thrown};
pub use interp::{Frame, Interp, NativeFn, ScopeRef};
pub use profiler::{CountingProfiler, Profile};
pub use object::{Callable, JsObject, ObjId, PropMap, Property, Slot};
pub use value::Value;

/// Convenience: parse and run a script in a fresh interpreter, returning the
/// final expression value. Used heavily in tests.
pub fn eval(src: &str) -> Result<Value, EngineError> {
    let mut interp = Interp::new();
    interp.eval_script(src, "eval")
}
