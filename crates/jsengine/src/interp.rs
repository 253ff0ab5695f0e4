//! The tree-walking interpreter.
//!
//! The interpreter owns the heap, the global object, the call stack (from
//! which `Error.stack` strings are built — the artefact Sec. 3.1.4 of the
//! paper exploits), and a virtual-time job queue for `setTimeout` (which is
//! what makes the iframe-injection race of Sec. 5.4.1 expressible: page
//! scripts run synchronously while extension content scripts are injected as
//! queued jobs).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use crate::ast::*;
use crate::atom::{Atom, AtomMap};
use crate::error::{EngineError, Thrown};
use crate::object::{Callable, Heap, JsObject, ObjId, Property, Slot};
use crate::parser::parse;
use crate::profiler::{CountingProfiler, Profile};
use crate::value::Value;

/// Native function signature. Receives the interpreter, the `this` value and
/// the argument list. Host crates build these with closures over host state.
pub type NativeFn = Rc<dyn Fn(&mut Interp, Value, &[Value]) -> Result<Value, Thrown>>;

/// Deepest call stack a script may build, in frames (the top-level script
/// is one); a call past it throws a catchable `too much recursion`. A
/// native stack overflow aborts the whole crawler where no `catch_unwind`
/// can catch it, and a debug build spends up to ~35 KiB of native stack
/// per frame (plain recursion under the tree-walker; a VM frame takes
/// ~15 KiB, through `try`/`finally` or not), so 24 frames fit a 2 MiB
/// thread with room to spare (`tests/adversarial.rs`). Crawled pages stay
/// under 8 frames.
pub const MAX_CALL_DEPTH: usize = 24;

/// A lexical scope. Function-level scoping (`var` semantics).
///
/// Bindings are keyed by interned [`Atom`]s, so walking the scope chain
/// probes `u32` keys instead of re-hashing the identifier at every level.
#[derive(Debug, Default)]
pub struct Scope {
    pub vars: AtomMap<Value>,
    pub parent: Option<ScopeRef>,
    /// `this` binding of the activation that created this scope; `None`
    /// means "inherit from parent" (arrow functions, blocks).
    pub this_val: Option<Value>,
}

pub type ScopeRef = Rc<RefCell<Scope>>;

/// One call-stack frame. `Error.stack` renders these as `name@script:line`,
/// which is how a web page observes whether an API call travelled through an
/// instrumentation wrapper defined in an extension script.
#[derive(Clone, Debug)]
pub struct Frame {
    pub name: Arc<str>,
    pub script: Arc<str>,
    pub line: u32,
}

/// A queued timer job (virtual time, milliseconds).
pub struct Job {
    pub due: u64,
    pub seq: u64,
    pub func: Value,
    pub args: Vec<Value>,
}

/// The intrinsic prototypes and constructors created at realm birth.
#[derive(Clone, Copy, Debug)]
pub struct Intrinsics {
    pub object_proto: ObjId,
    pub function_proto: ObjId,
    pub array_proto: ObjId,
    pub string_proto: ObjId,
    pub number_proto: ObjId,
    pub boolean_proto: ObjId,
    pub error_proto: ObjId,
    pub type_error_proto: ObjId,
    pub reference_error_proto: ObjId,
    pub range_error_proto: ObjId,
}

/// Statement completion.
enum Flow {
    Normal,
    Return(Value),
    Break,
    Continue,
}

/// The MiniJS interpreter for one realm.
pub struct Interp {
    pub heap: Heap,
    /// The global object (`window` once the browser crate dresses it up).
    pub global: ObjId,
    pub intrinsics: Intrinsics,
    /// Live call stack, innermost last.
    pub stack: Vec<Frame>,
    global_scope: ScopeRef,
    /// Virtual clock in milliseconds; advanced by the host.
    pub now_ms: u64,
    jobs: Vec<Job>,
    job_seq: u64,
    /// Executed-statement budget; guards against runaway scripts in the
    /// 100K-site scan. Generous enough for the full corpus.
    pub step_limit: u64,
    steps: u64,
    /// Maximum interpreter recursion depth ([`MAX_CALL_DEPTH`]).
    pub max_depth: usize,
    /// `console.log` output, for tests and diagnostics.
    pub console: Vec<String>,
    /// Deterministic PRNG state for `Math.random` (xorshift64*).
    pub rng_state: u64,
    /// Opt-in profiling hooks; `None` costs one branch per hook site.
    pub profiler: Option<Box<CountingProfiler>>,
    /// Opaque embedder state. The browser crate attaches its per-page host
    /// here so native functions can reach it *at call time* instead of
    /// capturing it at install time — which is what makes an installed
    /// realm reusable as a [`clone_realm`](Interp::clone_realm) template.
    pub host: Option<Rc<dyn std::any::Any>>,
    /// Execution backend for script code (tree-walking oracle or bytecode
    /// VM). Initialised from the current [`JsCtx`](crate::JsCtx); hosts may
    /// flip it per realm before running scripts.
    pub engine: crate::vm::Engine,
    /// Spare value stacks for [`crate::vm::run_chunk`] activations, so a
    /// VM function call does not pay a heap allocation per invocation
    /// (recursion depth bounds the pool size).
    pub(crate) vm_stacks: Vec<Vec<Value>>,
}

/// Deep-copies scope chains for [`Interp::clone_realm`], keyed by the
/// source scope's address so shared environments stay shared in the copy.
/// The source scopes outlive the remap (they are borrowed from the source
/// realm), so an address cannot be reused while it is a key.
struct ScopeRemap {
    global: ScopeRef,
    copies: std::collections::HashMap<*const RefCell<Scope>, ScopeRef>,
}

impl ScopeRemap {
    fn new(source_global: &ScopeRef) -> ScopeRemap {
        let gs = source_global.borrow();
        let global = Rc::new(RefCell::new(Scope {
            vars: gs.vars.clone(),
            parent: None,
            this_val: gs.this_val.clone(),
        }));
        let mut copies = std::collections::HashMap::new();
        copies.insert(Rc::as_ptr(source_global), global.clone());
        ScopeRemap { global, copies }
    }

    fn copy(&mut self, scope: &ScopeRef) -> ScopeRef {
        if let Some(copy) = self.copies.get(&Rc::as_ptr(scope)) {
            return copy.clone();
        }
        let src = scope.borrow();
        let parent = src.parent.as_ref().map(|p| self.copy(p));
        let copy = Rc::new(RefCell::new(Scope {
            vars: src.vars.clone(),
            parent,
            this_val: src.this_val.clone(),
        }));
        self.copies.insert(Rc::as_ptr(scope), copy.clone());
        copy
    }
}

impl Default for Interp {
    fn default() -> Self {
        Interp::new()
    }
}

impl Interp {
    /// Build a fresh realm with all builtins installed.
    pub fn new() -> Interp {
        let mut heap = Heap::new();
        // Bootstrap: object proto first, everything else hangs off it.
        let object_proto = heap.alloc(JsObject::plain(None));
        let function_proto = heap.alloc(JsObject::with_class(Some(object_proto), "Function"));
        let array_proto = heap.alloc(JsObject::plain(Some(object_proto)));
        let string_proto = heap.alloc(JsObject::plain(Some(object_proto)));
        let number_proto = heap.alloc(JsObject::plain(Some(object_proto)));
        let boolean_proto = heap.alloc(JsObject::plain(Some(object_proto)));
        let error_proto = heap.alloc(JsObject::with_class(Some(object_proto), "Error"));
        let type_error_proto = heap.alloc(JsObject::with_class(Some(error_proto), "Error"));
        let reference_error_proto = heap.alloc(JsObject::with_class(Some(error_proto), "Error"));
        let range_error_proto = heap.alloc(JsObject::with_class(Some(error_proto), "Error"));
        let global = heap.alloc(JsObject::with_class(Some(object_proto), "Window"));

        let global_scope = Rc::new(RefCell::new(Scope {
            vars: AtomMap::default(),
            parent: None,
            this_val: Some(Value::Obj(global)),
        }));

        let mut interp = Interp {
            heap,
            global,
            intrinsics: Intrinsics {
                object_proto,
                function_proto,
                array_proto,
                string_proto,
                number_proto,
                boolean_proto,
                error_proto,
                type_error_proto,
                reference_error_proto,
                range_error_proto,
            },
            stack: Vec::new(),
            global_scope,
            now_ms: 0,
            jobs: Vec::new(),
            job_seq: 0,
            step_limit: 20_000_000,
            steps: 0,
            max_depth: MAX_CALL_DEPTH,
            console: Vec::new(),
            rng_state: 0x9E3779B97F4A7C15,
            profiler: None,
            host: None,
            engine: crate::ctx::current_engine(),
            vm_stacks: Vec::new(),
        };
        crate::builtins::install(&mut interp);
        interp
    }

    /// Duplicate this realm into an independent interpreter that continues
    /// exactly where this one stands.
    ///
    /// The heap, global object and intrinsics are cloned with object ids
    /// preserved. The heap clone shares the source's
    /// [frozen](crate::object::Heap::freeze) base and copies only its
    /// overlay, so a clone of a frozen realm costs the objects written
    /// since the freeze plus the script closures, not the whole heap; each
    /// clone copies a base object on its own first write to it. Every scope
    /// reachable from a script closure is deep-copied through a
    /// pointer-keyed remap (which copies those closures into the clone's
    /// overlay): sharing is preserved (two closures over one activation
    /// still share it in the clone), the global scope maps to the clone's
    /// global scope, and no mutable scope is ever shared between clones or
    /// with the source. So a realm that has run scripts retaining inner
    /// closures — an instrumented template — can be stamped out per page.
    ///
    /// The execution counters (step count, virtual clock, PRNG state, job
    /// sequence number), the engine and the console carry over, so a clone
    /// is observably the source continued. The profiler and the host
    /// handle do not: the embedder attaches its own. Function bytecode
    /// needs no copy: it lives on each [`FunctionDef`], which the clone's
    /// closures share with the source's.
    ///
    /// # Panics
    ///
    /// If the source has pending jobs or live call frames: both would hold
    /// values a clone could not meaningfully continue.
    pub fn clone_realm(&self) -> Interp {
        assert!(
            self.jobs.is_empty() && self.stack.is_empty(),
            "clone_realm: source realm has pending jobs or live frames"
        );
        let mut heap = self.heap.clone();
        let mut remap = ScopeRemap::new(&self.global_scope);
        heap.for_each_script_mut(|obj| {
            if let Some(Callable::Script { env, .. }) = &mut obj.call {
                *env = remap.copy(env);
            }
        });
        Interp {
            heap,
            global: self.global,
            intrinsics: self.intrinsics,
            stack: Vec::new(),
            global_scope: remap.global,
            now_ms: self.now_ms,
            jobs: Vec::new(),
            job_seq: self.job_seq,
            step_limit: self.step_limit,
            steps: self.steps,
            max_depth: self.max_depth,
            console: self.console.clone(),
            rng_state: self.rng_state,
            profiler: None,
            host: None,
            engine: self.engine,
            vm_stacks: Vec::new(),
        }
    }

    /// Overwrite the binding `name` in the environment captured by the
    /// script function `func`: the nearest scope on its chain that binds
    /// `name` gets `value`. Returns `false` (and changes nothing) when
    /// `func` is not a script function or no scope on its chain binds
    /// `name`. Embedders use this to re-bind a per-instance value that a
    /// template's closures captured (see [`Interp::clone_realm`]).
    pub fn set_captured_binding(&mut self, func: ObjId, name: &str, value: Value) -> bool {
        let (Some(Callable::Script { env, .. }), Some(atom)) =
            (&self.heap.get(func).call, Atom::lookup(name))
        else {
            return false;
        };
        let mut cur = Some(env.clone());
        while let Some(s) = cur {
            if let Some(slot) = s.borrow_mut().vars.get_mut(&atom) {
                *slot = value;
                return true;
            }
            cur = s.borrow().parent.clone();
        }
        false
    }

    /// Statements executed so far (the unit of the step budget).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    // ------------------------------------------------------------- public

    /// Parse and execute `src` as a top-level script named `script_name`.
    /// Returns the value of the final expression statement.
    pub fn eval_script(&mut self, src: &str, script_name: &str) -> Result<Value, EngineError> {
        let program = parse(src)?;
        self.eval_program(&program, &Arc::from(script_name))
    }

    /// Execute a pre-compiled script under the URL its handle carries. The
    /// shared [`Program`](crate::ast::Program) is never mutated, so one
    /// body's artifact can serve every interpreter in the process and every
    /// URL serving that body. Under the VM backend this reuses the body's
    /// once-compiled bytecode chunk (compiling it on first use).
    pub fn eval_compiled(
        &mut self,
        compiled: &crate::compile::CompiledScript,
    ) -> Result<Value, EngineError> {
        match self.engine {
            crate::vm::Engine::Vm => self.eval_program_vm(compiled.chunk(), compiled.name()),
            crate::vm::Engine::Tree => {
                let program = compiled.ast().clone();
                self.eval_program_tree(&program, compiled.name())
            }
        }
    }

    /// Execute either form of [`ScriptSource`](crate::compile::ScriptSource):
    /// raw text compiles on the spot (uncached); a compiled handle reuses
    /// its shared parse.
    pub fn eval_source(
        &mut self,
        source: &crate::compile::ScriptSource,
    ) -> Result<Value, EngineError> {
        match source {
            crate::compile::ScriptSource::Raw { source, name } => self.eval_script(source, name),
            crate::compile::ScriptSource::Compiled(cs) => self.eval_compiled(cs),
        }
    }

    /// Execute an already-parsed top-level program under `script_name`.
    ///
    /// This is the uncached top-level path ([`eval_script`](Interp::eval_script)
    /// and raw [`eval_source`](Interp::eval_source) scripts). It is one of
    /// the places that match on the [`Engine`](crate::vm::Engine), not the
    /// only one: [`eval_compiled`](Interp::eval_compiled), which every
    /// cached crawl script takes, dispatches on its own, as do
    /// [`Interp::call`] for function bodies and direct `eval`. Everything
    /// above them — `Page::run_script`, the visit loop — is engine-agnostic.
    pub fn eval_program(
        &mut self,
        program: &crate::ast::Program,
        script_name: &Arc<str>,
    ) -> Result<Value, EngineError> {
        match self.engine {
            crate::vm::Engine::Vm => {
                // Uncached path: compile on the spot. Cached scripts come
                // through `eval_compiled`, which reuses the shared chunk.
                let chunk = crate::bytecode::compile_program(program);
                self.eval_program_vm(&chunk, script_name)
            }
            crate::vm::Engine::Tree => self.eval_program_tree(program, script_name),
        }
    }

    /// Tree-walking backend for [`eval_program`](Interp::eval_program) —
    /// the reference oracle the VM is held byte-identical to.
    fn eval_program_tree(
        &mut self,
        program: &crate::ast::Program,
        script_name: &Arc<str>,
    ) -> Result<Value, EngineError> {
        self.stack.push(Frame {
            name: Arc::from("(toplevel)"),
            script: script_name.clone(),
            line: 1,
        });
        let scope = self.global_scope.clone();
        // Hoist function declarations.
        for stmt in &program.body {
            if let Stmt::FunctionDecl(def) = stmt {
                let f = self.alloc_script_fn(def.clone(), scope.clone());
                self.define_global(def.name.clone(), Value::Obj(f));
            }
        }
        let mut last = Value::Undefined;
        let mut error = None;
        for stmt in &program.body {
            let step = match stmt {
                Stmt::Expr(e) => self.eval_expr(e, &scope).map(|v| {
                    last = v;
                }),
                other => self.exec_stmt(other, &scope).map(|_| ()),
            };
            if let Err(t) = step {
                error = Some(t);
                break;
            }
        }
        self.stack.pop();
        match error {
            None => Ok(last),
            Some(t) => Err(self.thrown_to_error(t)),
        }
    }

    /// Bytecode backend for [`eval_program`](Interp::eval_program): the
    /// oracle's frame and error paths around [`crate::vm::run_chunk`]; the
    /// chunk hoists the script's function declarations itself.
    fn eval_program_vm(
        &mut self,
        chunk: &crate::bytecode::Chunk,
        script_name: &Arc<str>,
    ) -> Result<Value, EngineError> {
        self.stack.push(Frame {
            name: Arc::from("(toplevel)"),
            script: script_name.clone(),
            line: 1,
        });
        let scope = self.global_scope.clone();
        let r = crate::vm::run_chunk(self, chunk, &scope);
        self.stack.pop();
        r.map_err(|t| self.thrown_to_error(t))
    }

    /// Execute all pending jobs that are due at or before the (advanced)
    /// virtual clock. Jobs run in (due, seq) order; jobs scheduled by other
    /// jobs also run if due. Errors inside jobs are collected, not fatal.
    pub fn advance_time(&mut self, delta_ms: u64) -> Vec<Thrown> {
        let target = self.now_ms + delta_ms;
        let mut errors = Vec::new();
        loop {
            // Find the earliest job due within the window.
            let mut best: Option<usize> = None;
            for (i, job) in self.jobs.iter().enumerate() {
                if job.due <= target {
                    match best {
                        None => best = Some(i),
                        Some(b) => {
                            let jb = &self.jobs[b];
                            if (job.due, job.seq) < (jb.due, jb.seq) {
                                best = Some(i);
                            }
                        }
                    }
                }
            }
            let Some(i) = best else { break };
            let job = self.jobs.remove(i);
            // The clock reads as the job's firing time while it runs, so
            // jobs it schedules land relative to that instant (as in a real
            // event loop), not the end of the window.
            self.now_ms = self.now_ms.max(job.due);
            if let Err(t) = self.call(job.func.clone(), Value::Obj(self.global), &job.args) {
                errors.push(t);
            }
        }
        self.now_ms = target;
        errors
    }

    /// Schedule a job at `now + delay_ms`. Returns the job sequence number.
    pub fn push_job(&mut self, func: Value, args: Vec<Value>, delay_ms: u64) -> u64 {
        let seq = self.job_seq;
        self.job_seq += 1;
        self.jobs.push(Job { due: self.now_ms + delay_ms, seq, func, args });
        seq
    }

    /// Are there pending jobs?
    pub fn has_pending_jobs(&self) -> bool {
        !self.jobs.is_empty()
    }

    /// The global scope reference (used by `eval` and host shims).
    pub fn global_scope(&self) -> ScopeRef {
        self.global_scope.clone()
    }

    /// Name of the script of the innermost frame, skipping frames whose
    /// script name satisfies `skip`. This is the engine-level equivalent of
    /// OpenWPM's `getOriginatingScriptContext`.
    pub fn originating_script(&self, skip: &dyn Fn(&str) -> bool) -> Option<Arc<str>> {
        self.stack.iter().rev().find(|f| !skip(&f.script)).map(|f| f.script.clone())
    }

    /// Render the current call stack the way `Error.stack` does
    /// (innermost first, `name@script:line`).
    pub fn capture_stack_string(&self) -> String {
        let mut out = String::new();
        for frame in self.stack.iter().rev() {
            out.push_str(&format!("{}@{}:{}\n", frame.name, frame.script, frame.line));
        }
        out
    }

    // -------------------------------------------------------- allocation

    pub fn alloc_object(&mut self) -> ObjId {
        self.heap.alloc(JsObject::plain(Some(self.intrinsics.object_proto)))
    }

    pub fn alloc_object_with_class(&mut self, class: &'static str) -> ObjId {
        self.heap.alloc(JsObject::with_class(Some(self.intrinsics.object_proto), class))
    }

    pub fn alloc_array(&mut self, items: Vec<Value>) -> ObjId {
        let mut obj = JsObject::with_class(Some(self.intrinsics.array_proto), "Array");
        obj.elements = Some(items);
        self.heap.alloc(obj)
    }

    /// Allocate a native function object. Its `toString` renders as
    /// `function <name>() {\n    [native code]\n}` — identical to a pristine
    /// builtin, which is exactly the covert channel the stealth
    /// instrumentation uses (Sec. 6.1.1).
    pub fn alloc_native_fn(
        &mut self,
        name: &str,
        f: impl Fn(&mut Interp, Value, &[Value]) -> Result<Value, Thrown> + 'static,
    ) -> ObjId {
        let mut obj = JsObject::with_class(Some(self.intrinsics.function_proto), "Function");
        obj.call = Some(Callable::Native { name: Arc::from(name), f: Rc::new(f) });
        obj.props.insert(
            Arc::from("name"),
            Property { slot: Slot::Data(Value::str(name)), enumerable: false, writable: false },
        );
        self.heap.alloc(obj)
    }

    /// Allocate a script function closing over `env`. The function keeps
    /// the script name of the frame creating it: every frame push (a
    /// top-level script, a call, an `eval`) precedes the code that defines
    /// functions, so that is the script whose text holds `def`.
    pub fn alloc_script_fn(&mut self, def: Arc<FunctionDef>, env: ScopeRef) -> ObjId {
        let script = self.stack.last().map_or_else(|| Arc::from(""), |f| f.script.clone());
        let mut obj = JsObject::with_class(Some(self.intrinsics.function_proto), "Function");
        obj.props.insert(
            Arc::from("name"),
            Property {
                slot: Slot::Data(Value::str(&def.name)),
                enumerable: false,
                writable: false,
            },
        );
        obj.call = Some(Callable::Script { def, env, script });
        let id = self.heap.alloc(obj);
        // Every script function gets a `prototype` object for `new`.
        let proto_obj = self.alloc_object();
        self.heap.get_mut(proto_obj).props.insert(
            Arc::from("constructor"),
            Property::data_hidden(Value::Obj(id)),
        );
        self.heap
            .get_mut(id)
            .props
            .insert(Arc::from("prototype"), Property::data_hidden(Value::Obj(proto_obj)));
        id
    }

    /// Allocate an `Error`-family object, capturing the live stack.
    pub fn alloc_error(&mut self, kind: ErrorKind, message: &str) -> ObjId {
        let proto = match kind {
            ErrorKind::Error => self.intrinsics.error_proto,
            ErrorKind::Type => self.intrinsics.type_error_proto,
            ErrorKind::Reference => self.intrinsics.reference_error_proto,
            ErrorKind::Range => self.intrinsics.range_error_proto,
        };
        let stack = self.capture_stack_string();
        let mut obj = JsObject::with_class(Some(proto), "Error");
        obj.props.insert(Arc::from("message"), Property::data_hidden(Value::str(message)));
        obj.props.insert(Arc::from("stack"), Property::data_hidden(Value::str(stack)));
        self.heap.alloc(obj)
    }

    pub fn throw_error(&mut self, kind: ErrorKind, message: &str) -> Thrown {
        let obj = self.alloc_error(kind, message);
        let name = match kind {
            ErrorKind::Error => "Error",
            ErrorKind::Type => "TypeError",
            ErrorKind::Reference => "ReferenceError",
            ErrorKind::Range => "RangeError",
        };
        Thrown::new(Value::Obj(obj), format!("{name}: {message}"))
    }

    /// Define (or overwrite) a data property on the global object.
    pub fn define_global(&mut self, name: Arc<str>, value: Value) {
        let g = self.global;
        self.heap.get_mut(g).props.insert(name, Property::data(value));
    }

    // ------------------------------------------------------------ getters

    /// Full property lookup with prototype chain and accessor invocation.
    /// `base` may be a primitive (string/number/boolean), which dispatches
    /// to the corresponding prototype without allocating a wrapper.
    pub fn get_prop(&mut self, base: &Value, key: &str) -> Result<Value, Thrown> {
        match base {
            Value::Str(s) => {
                if key == "length" {
                    return Ok(Value::Num(s.chars().count() as f64));
                }
                if let Ok(idx) = key.parse::<usize>() {
                    return Ok(s
                        .chars()
                        .nth(idx)
                        .map(|c| Value::str(c.to_string()))
                        .unwrap_or(Value::Undefined));
                }
                let proto = self.intrinsics.string_proto;
                self.get_from_object(proto, base.clone(), key)
            }
            Value::Num(_) => {
                let proto = self.intrinsics.number_proto;
                self.get_from_object(proto, base.clone(), key)
            }
            Value::Bool(_) => {
                let proto = self.intrinsics.boolean_proto;
                self.get_from_object(proto, base.clone(), key)
            }
            Value::Obj(id) => {
                // Array fast paths.
                let obj = self.heap.get(*id);
                if let Some(elems) = &obj.elements {
                    if key == "length" {
                        return Ok(Value::Num(elems.len() as f64));
                    }
                    if let Ok(idx) = key.parse::<usize>() {
                        return Ok(elems.get(idx).cloned().unwrap_or(Value::Undefined));
                    }
                }
                self.get_from_object(*id, base.clone(), key)
            }
            Value::Undefined | Value::Null => Err(self.throw_error(
                ErrorKind::Type,
                &format!("cannot read properties of {base} (reading '{key}')"),
            )),
        }
    }

    /// Walk the prototype chain starting at `start`, invoking accessors with
    /// `this = receiver`.
    fn get_from_object(
        &mut self,
        start: ObjId,
        receiver: Value,
        key: &str,
    ) -> Result<Value, Thrown> {
        let mut cur = Some(start);
        while let Some(id) = cur {
            let obj = self.heap.get(id);
            if let Some(prop) = obj.props.get(key) {
                return match &prop.slot {
                    Slot::Data(v) => Ok(v.clone()),
                    Slot::Accessor { get: Some(g), .. } => {
                        let getter = *g;
                        self.call(Value::Obj(getter), receiver, &[])
                    }
                    Slot::Accessor { get: None, .. } => Ok(Value::Undefined),
                };
            }
            cur = obj.proto;
        }
        Ok(Value::Undefined)
    }

    /// Property assignment. Respects setters found along the prototype
    /// chain; otherwise defines a data property on the receiver (standard
    /// non-strict semantics — this is why a page can shadow
    /// `document.dispatchEvent` and hijack the vanilla instrument's
    /// messaging, Listing 2 of the paper).
    pub fn set_prop(&mut self, base: &Value, key: &str, value: Value) -> Result<(), Thrown> {
        let Some(id) = base.as_obj() else {
            // Assigning to primitive properties silently fails (non-strict).
            return Ok(());
        };
        // Array element stores.
        {
            let obj = self.heap.get_mut(id);
            if let Some(elems) = &mut obj.elements {
                if key == "length" {
                    let n = value.to_number();
                    if n >= 0.0 && n == n.trunc() {
                        elems.resize(n as usize, Value::Undefined);
                    }
                    return Ok(());
                }
                if let Ok(idx) = key.parse::<usize>() {
                    if idx >= elems.len() {
                        elems.resize(idx + 1, Value::Undefined);
                    }
                    elems[idx] = value;
                    return Ok(());
                }
            }
        }
        // Setter anywhere along the chain?
        let mut cur = Some(id);
        while let Some(oid) = cur {
            let obj = self.heap.get(oid);
            if let Some(prop) = obj.props.get(key) {
                match &prop.slot {
                    Slot::Accessor { set: Some(s), .. } => {
                        let setter = *s;
                        self.call(Value::Obj(setter), base.clone(), &[value])?;
                        return Ok(());
                    }
                    Slot::Accessor { set: None, .. } => {
                        // Getter-only accessor: silent no-op (non-strict).
                        return Ok(());
                    }
                    Slot::Data(_) => {
                        if oid == id {
                            if prop.writable {
                                let obj = self.heap.get_mut(oid);
                                if let Some(p) = obj.props.get_mut(key) {
                                    p.slot = Slot::Data(value);
                                }
                            }
                            return Ok(());
                        }
                        // Shadow an inherited data property.
                        break;
                    }
                }
            }
            cur = obj.proto;
        }
        self.heap.get_mut(id).props.insert(Arc::from(key), Property::data(value));
        Ok(())
    }

    /// `typeof`.
    pub fn type_of(&self, v: &Value) -> &'static str {
        if let Value::Obj(id) = v {
            if self.heap.get(*id).is_callable() {
                return "function";
            }
        }
        v.type_of_primitive()
    }

    /// String conversion that honours `toString` on objects.
    pub fn to_string_value(&mut self, v: &Value) -> Result<Arc<str>, Thrown> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            Value::Obj(id) => {
                // Arrays render as joined elements (JS default).
                if let Some(elems) = self.heap.get(*id).elements.clone() {
                    let mut parts = Vec::with_capacity(elems.len());
                    for e in &elems {
                        if e.is_nullish() {
                            parts.push(String::new());
                        } else {
                            parts.push(self.to_string_value(e)?.to_string());
                        }
                    }
                    return Ok(Arc::from(parts.join(",")));
                }
                let ts = self.get_prop(v, "toString")?;
                if let Value::Obj(f) = &ts {
                    if self.heap.get(*f).is_callable() {
                        let r = self.call(ts, v.clone(), &[])?;
                        return match r {
                            Value::Obj(_) => Ok(Arc::from("[object Object]")),
                            prim => self.to_string_value(&prim),
                        };
                    }
                }
                Ok(Arc::from(format!("[object {}]", self.heap.get(*id).class)))
            }
            other => Ok(Arc::from(other.to_string())),
        }
    }

    /// Numeric conversion honouring object-to-primitive.
    pub fn to_number_value(&mut self, v: &Value) -> Result<f64, Thrown> {
        match v {
            Value::Obj(_) => {
                let s = self.to_string_value(v)?;
                Ok(Value::Str(s).to_number())
            }
            prim => Ok(prim.to_number()),
        }
    }

    // --------------------------------------------------------------- calls

    /// Call `func` with explicit `this` and arguments. Pushes a stack frame
    /// for script functions (native calls execute invisibly, like real
    /// native code in SpiderMonkey stack traces).
    pub fn call(&mut self, func: Value, this: Value, args: &[Value]) -> Result<Value, Thrown> {
        let Some(fid) = func.as_obj() else {
            return Err(self.throw_error(ErrorKind::Type, "value is not a function"));
        };
        let callable = match &self.heap.get(fid).call {
            Some(c) => c.clone(),
            None => {
                return Err(self.throw_error(ErrorKind::Type, "object is not callable"));
            }
        };
        if self.stack.len() >= self.max_depth {
            return Err(Thrown::new(Value::str("InternalError: too much recursion"), "too much recursion"));
        }
        if let Some(p) = &mut self.profiler {
            p.record_call(self.stack.len() + 1);
        }
        match callable {
            Callable::Native { name, f } => {
                // The per-builtin dispatch counter lives in the shared
                // builtins layer, so both engines record identical
                // `prof.builtin.<name>` counts.
                crate::builtins::dispatch_native(self, &name, &f, this, args)
            }
            Callable::Script { def, env, script } => {
                let scope = Rc::new(RefCell::new(Scope {
                    vars: AtomMap::default(),
                    parent: Some(env),
                    this_val: if def.is_arrow { None } else { Some(this) },
                }));
                {
                    let mut s = scope.borrow_mut();
                    for (i, p) in def.params.iter().enumerate() {
                        s.vars
                            .insert(Atom::intern_arc(p), args.get(i).cloned().unwrap_or(Value::Undefined));
                    }
                }
                if !def.is_arrow {
                    let arguments = self.alloc_array(args.to_vec());
                    scope
                        .borrow_mut()
                        .vars
                        .insert(Atom::intern("arguments"), Value::Obj(arguments));
                }
                let display_name: Arc<str> = if def.name.is_empty() {
                    Arc::from("<anonymous>")
                } else {
                    def.name.clone()
                };
                self.stack.push(Frame {
                    name: display_name,
                    script,
                    line: def.line,
                });
                let result = if self.engine == crate::vm::Engine::Vm {
                    crate::vm::run_chunk(self, def.chunk(), &scope)
                } else {
                    // Hoist inner function declarations (the VM's chunk
                    // starts with the same declarations as `Hoist`s).
                    for stmt in def.body.iter() {
                        if let Stmt::FunctionDecl(d) = stmt {
                            let f = self.alloc_script_fn(d.clone(), scope.clone());
                            self.declare(&scope, d.name.clone(), Value::Obj(f));
                        }
                    }
                    let mut result = Ok(Value::Undefined);
                    for stmt in def.body.iter() {
                        match self.exec_stmt(stmt, &scope) {
                            Ok(Flow::Normal) => {}
                            Ok(Flow::Return(v)) => {
                                result = Ok(v);
                                break;
                            }
                            Ok(Flow::Break) | Ok(Flow::Continue) => {}
                            Err(t) => {
                                result = Err(t);
                                break;
                            }
                        }
                    }
                    result
                };
                self.stack.pop();
                result
            }
        }
    }

    /// `new Ctor(args)`.
    pub fn construct(&mut self, ctor: Value, args: &[Value]) -> Result<Value, Thrown> {
        let Some(fid) = ctor.as_obj() else {
            return Err(self.throw_error(ErrorKind::Type, "constructor is not a function"));
        };
        if !self.heap.get(fid).is_callable() {
            return Err(self.throw_error(ErrorKind::Type, "constructor is not callable"));
        }
        // Natives that construct (Error, CustomEvent, …) receive
        // `this = undefined` and return their object.
        if matches!(self.heap.get(fid).call, Some(Callable::Native { .. })) {
            return self.call(ctor, Value::Undefined, args);
        }
        let proto = match self.get_prop(&ctor, "prototype")? {
            Value::Obj(p) => p,
            _ => self.intrinsics.object_proto,
        };
        let obj = self.heap.alloc(JsObject::plain(Some(proto)));
        let r = self.call(ctor, Value::Obj(obj), args)?;
        Ok(match r {
            Value::Obj(_) => r,
            _ => Value::Obj(obj),
        })
    }

    fn thrown_to_error(&mut self, t: Thrown) -> EngineError {
        if t.message.contains("step budget") {
            EngineError::Budget("step")
        } else {
            EngineError::Uncaught(t)
        }
    }

    fn charge_step(&mut self) -> Result<(), Thrown> {
        self.steps += 1;
        if let Some(p) = &mut self.profiler {
            p.record_step();
        }
        if self.steps > self.step_limit {
            Err(Thrown::new(Value::str("InternalError: step budget exceeded"), "step budget exceeded"))
        } else {
            Ok(())
        }
    }

    /// Charge `n` coalesced steps (the VM batches pure-node charges into
    /// one budget check). The fast path cannot cross the limit; when it
    /// would, fall back to per-unit charging so the budget error fires
    /// after exactly as many recorded steps as the tree-walker's.
    #[inline]
    pub(crate) fn charge_steps(&mut self, n: u32) -> Result<(), Thrown> {
        if self.steps + n as u64 <= self.step_limit {
            self.steps += n as u64;
            if let Some(p) = &mut self.profiler {
                p.record_steps(n);
            }
            Ok(())
        } else {
            for _ in 0..n {
                self.charge_step()?;
            }
            Ok(())
        }
    }

    /// Install a fresh counting profiler (replacing any other).
    pub fn enable_profiling(&mut self) {
        self.profiler = Some(Box::<CountingProfiler>::default());
    }

    /// Install the counting profiler with `base` already counted, so the
    /// eventual report covers work done before this realm was cloned (a
    /// template's setup script) as if it had been profiled here.
    pub fn enable_profiling_from(&mut self, base: Profile) {
        self.profiler = Some(Box::new(CountingProfiler::resume(base)));
    }

    /// Remove the profiler and return its aggregated counts.
    pub fn take_profile(&mut self) -> Option<Profile> {
        self.profiler.take().map(|p| p.report())
    }

    // ---------------------------------------------------------- statements

    fn exec_block(&mut self, stmts: &[Stmt], scope: &ScopeRef) -> Result<Flow, Thrown> {
        // Hoist function declarations within the block.
        for stmt in stmts {
            if let Stmt::FunctionDecl(d) = stmt {
                let f = self.alloc_script_fn(d.clone(), scope.clone());
                self.declare(scope, d.name.clone(), Value::Obj(f));
            }
        }
        for stmt in stmts {
            match self.exec_stmt(stmt, scope)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &Stmt, scope: &ScopeRef) -> Result<Flow, Thrown> {
        self.charge_step()?;
        match stmt {
            Stmt::Empty => Ok(Flow::Normal),
            Stmt::Expr(e) => {
                self.eval_expr(e, scope)?;
                Ok(Flow::Normal)
            }
            Stmt::VarDecl { name, init } => {
                let v = match init {
                    Some(e) => self.eval_expr(e, scope)?,
                    None => Value::Undefined,
                };
                self.declare(scope, name.clone(), v);
                Ok(Flow::Normal)
            }
            Stmt::FunctionDecl(_) => Ok(Flow::Normal), // hoisted
            Stmt::Return(e) => {
                let v = match e {
                    Some(e) => self.eval_expr(e, scope)?,
                    None => Value::Undefined,
                };
                Ok(Flow::Return(v))
            }
            Stmt::If { cond, then, otherwise } => {
                let c = self.eval_expr(cond, scope)?;
                if c.truthy() {
                    self.exec_block(then, scope)
                } else if let Some(e) = otherwise {
                    self.exec_block(e, scope)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::While { cond, body } => {
                loop {
                    self.charge_step()?;
                    if !self.eval_expr(cond, scope)?.truthy() {
                        break;
                    }
                    match self.exec_block(body, scope)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        r @ Flow::Return(_) => return Ok(r),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For { init, cond, update, body } => {
                if let Some(init) = init {
                    self.exec_stmt(init, scope)?;
                }
                loop {
                    self.charge_step()?;
                    if let Some(c) = cond {
                        if !self.eval_expr(c, scope)?.truthy() {
                            break;
                        }
                    }
                    match self.exec_block(body, scope)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        r @ Flow::Return(_) => return Ok(r),
                    }
                    if let Some(u) = update {
                        self.eval_expr(u, scope)?;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::ForIn { var, object, body } => {
                let obj = self.eval_expr(object, scope)?;
                let keys = self.enumerate_keys(&obj);
                self.declare(scope, var.clone(), Value::Undefined);
                for key in keys {
                    self.assign_ident(scope, var, Value::Str(key))?;
                    match self.exec_block(body, scope)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        r @ Flow::Return(_) => return Ok(r),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::ForOf { var, object, body } => {
                let obj = self.eval_expr(object, scope)?;
                let items: Vec<Value> = match &obj {
                    Value::Obj(id) => match &self.heap.get(*id).elements {
                        Some(elems) => elems.clone(),
                        None => {
                            return Err(self
                                .throw_error(ErrorKind::Type, "value is not iterable"))
                        }
                    },
                    Value::Str(s) => {
                        s.chars().map(|c| Value::str(c.to_string())).collect()
                    }
                    _ => {
                        return Err(self.throw_error(ErrorKind::Type, "value is not iterable"))
                    }
                };
                self.declare(scope, var.clone(), Value::Undefined);
                for item in items {
                    self.assign_ident(scope, var, item)?;
                    match self.exec_block(body, scope)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        r @ Flow::Return(_) => return Ok(r),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
            Stmt::Throw(e, line) => {
                if let Some(f) = self.stack.last_mut() {
                    f.line = *line;
                }
                let v = self.eval_expr(e, scope)?;
                let msg = match &v {
                    Value::Obj(_) => {
                        let m = self.get_prop(&v, "message").unwrap_or(Value::Undefined);
                        format!("Error: {m}")
                    }
                    prim => prim.to_string(),
                };
                Err(Thrown::new(v, msg))
            }
            Stmt::Try { body, catch, finally } => {
                let result = self.exec_block(body, scope);
                let result = match result {
                    Err(t) if !t.message.contains("step budget") => {
                        if let Some((param, cbody)) = catch {
                            let cscope = Rc::new(RefCell::new(Scope {
                                vars: AtomMap::default(),
                                parent: Some(scope.clone()),
                                this_val: None,
                            }));
                            cscope.borrow_mut().vars.insert(Atom::intern_arc(param), t.value);
                            self.exec_block(cbody, &cscope)
                        } else {
                            Err(t)
                        }
                    }
                    other => other,
                };
                if let Some(fin) = finally {
                    match self.exec_block(fin, scope)? {
                        Flow::Normal => {}
                        other => return Ok(other), // finally overrides
                    }
                }
                result
            }
            Stmt::Block(stmts) => self.exec_block(stmts, scope),
        }
    }

    /// Enumerate `for`-`in` keys: own + inherited enumerable, deduplicated.
    pub fn enumerate_keys(&self, v: &Value) -> Vec<Arc<str>> {
        let mut out: Vec<Arc<str>> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let Some(mut cur) = v.as_obj().map(Some).unwrap_or(None) else {
            return out;
        };
        loop {
            let obj = self.heap.get(cur);
            if let Some(elems) = &obj.elements {
                for i in 0..elems.len() {
                    let k: Arc<str> = Arc::from(i.to_string());
                    if seen.insert(k.clone()) {
                        out.push(k);
                    }
                }
            }
            for (k, p) in obj.props.iter() {
                if p.enumerable && seen.insert(k.clone()) {
                    out.push(k.clone());
                }
            }
            match obj.proto {
                Some(p) => cur = p,
                None => break,
            }
        }
        out
    }

    // --------------------------------------------------------- expressions

    pub(crate) fn declare(&mut self, scope: &ScopeRef, name: Arc<str>, v: Value) {
        if Rc::ptr_eq(scope, &self.global_scope) {
            self.define_global(name, v);
        } else {
            scope.borrow_mut().vars.insert(Atom::intern_arc(&name), v);
        }
    }

    /// Resolve `name` on the scope chain, then on the global object. A
    /// never-interned name can't be bound in any scope (declaration interns
    /// it), so the chain walk is skipped entirely for it.
    pub(crate) fn lookup_ident(&mut self, scope: &ScopeRef, name: &str) -> Option<Value> {
        match Atom::lookup(name) {
            Some(atom) => self.lookup_ident_fast(scope, atom, name),
            None => self.lookup_global(name),
        }
    }

    /// Assign `name` where the scope chain binds it, else on the global
    /// object (see [`Self::lookup_ident`]).
    pub(crate) fn assign_ident(&mut self, scope: &ScopeRef, name: &str, v: Value) -> Result<(), Thrown> {
        match Atom::lookup(name) {
            Some(atom) => self.assign_ident_fast(scope, atom, name, v),
            None => self.set_prop(&Value::Obj(self.global), name, v),
        }
    }

    /// The scope chain's fallback: global object properties (host objects
    /// live there).
    fn lookup_global(&mut self, name: &str) -> Option<Value> {
        let g = self.global;
        if self.heap.get(g).props.contains(name) {
            return self.get_from_object(g, Value::Obj(g), name).ok();
        }
        None
    }

    /// [`Self::lookup_ident`] with the atom pre-interned (the VM stores
    /// atoms in its chunks), skipping the per-access string hash of
    /// [`Atom::lookup`]. Observably identical: an interned-but-unbound
    /// name falls through to the global object exactly like a
    /// never-interned one.
    #[inline]
    pub(crate) fn lookup_ident_fast(&mut self, scope: &ScopeRef, atom: Atom, name: &str) -> Option<Value> {
        // Immediate-scope hit (the overwhelmingly common case for function
        // locals) without touching the Rc refcount.
        let mut cur = {
            let b = scope.borrow();
            if let Some(v) = b.vars.get(&atom) {
                return Some(v.clone());
            }
            b.parent.clone()
        };
        while let Some(s) = cur {
            let b = s.borrow();
            if let Some(v) = b.vars.get(&atom) {
                return Some(v.clone());
            }
            cur = b.parent.clone();
        }
        self.lookup_global(name)
    }

    /// [`Self::assign_ident`] with the atom pre-interned; see
    /// [`Self::lookup_ident_fast`].
    #[inline]
    pub(crate) fn assign_ident_fast(
        &mut self,
        scope: &ScopeRef,
        atom: Atom,
        name: &str,
        v: Value,
    ) -> Result<(), Thrown> {
        let mut cur = {
            let mut b = scope.borrow_mut();
            if let Some(slot) = b.vars.get_mut(&atom) {
                *slot = v;
                return Ok(());
            }
            b.parent.clone()
        };
        while let Some(s) = cur {
            {
                let mut b = s.borrow_mut();
                if let Some(slot) = b.vars.get_mut(&atom) {
                    *slot = v;
                    return Ok(());
                }
            }
            let parent = s.borrow().parent.clone();
            cur = parent;
        }
        // Undeclared assignment creates/overwrites a global property (which
        // may hit a setter — e.g. an instrumented global accessor).
        self.set_prop(&Value::Obj(self.global), name, v)
    }

    /// [`Self::declare`] with the atom pre-interned (non-global scopes skip
    /// re-interning; the global path still needs the name for the property
    /// table).
    pub(crate) fn declare_fast(&mut self, scope: &ScopeRef, atom: Atom, name: &Arc<str>, v: Value) {
        if Rc::ptr_eq(scope, &self.global_scope) {
            self.define_global(name.clone(), v);
        } else {
            scope.borrow_mut().vars.insert(atom, v);
        }
    }

    pub(crate) fn resolve_this(&self, scope: &ScopeRef) -> Value {
        let mut cur = Some(scope.clone());
        while let Some(s) = cur {
            let b = s.borrow();
            if let Some(t) = &b.this_val {
                return t.clone();
            }
            cur = b.parent.clone();
        }
        Value::Obj(self.global)
    }

    fn eval_expr(&mut self, expr: &Expr, scope: &ScopeRef) -> Result<Value, Thrown> {
        self.charge_step()?;
        match expr {
            Expr::Num(n) => Ok(Value::Num(*n)),
            Expr::Str(s) => Ok(Value::Str(s.clone())),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Null => Ok(Value::Null),
            Expr::Undefined => Ok(Value::Undefined),
            Expr::This => Ok(self.resolve_this(scope)),
            Expr::Ident(name) => match self.lookup_ident(scope, name) {
                Some(v) => Ok(v),
                None => {
                    Err(self.throw_error(ErrorKind::Reference, &format!("{name} is not defined")))
                }
            },
            Expr::Array(items) => {
                let mut vals = Vec::with_capacity(items.len());
                for item in items {
                    vals.push(self.eval_expr(item, scope)?);
                }
                Ok(Value::Obj(self.alloc_array(vals)))
            }
            Expr::Object(pairs) => {
                let id = self.alloc_object();
                for (k, e) in pairs {
                    let v = self.eval_expr(e, scope)?;
                    self.heap.get_mut(id).props.insert(k.clone(), Property::data(v));
                }
                Ok(Value::Obj(id))
            }
            Expr::Function(def) => {
                Ok(Value::Obj(self.alloc_script_fn(def.clone(), scope.clone())))
            }
            Expr::Member { base, key, line } => {
                if let Some(f) = self.stack.last_mut() {
                    f.line = *line;
                }
                let b = self.eval_expr(base, scope)?;
                self.get_prop(&b, key)
            }
            Expr::Index { base, index, line } => {
                if let Some(f) = self.stack.last_mut() {
                    f.line = *line;
                }
                let b = self.eval_expr(base, scope)?;
                let i = self.eval_expr(index, scope)?;
                let key = self.to_string_value(&i)?;
                self.get_prop(&b, &key)
            }
            Expr::Call { callee, args, line } => {
                if let Some(f) = self.stack.last_mut() {
                    f.line = *line;
                }
                // `eval` as a special form: executes in the caller's scope.
                if let Expr::Ident(name) = &**callee {
                    if &**name == "eval" && self.lookup_ident(scope, "eval").is_some() {
                        let arg = match args.first() {
                            Some(a) => self.eval_expr(a, scope)?,
                            None => Value::Undefined,
                        };
                        return self.eval_in_scope(arg, scope);
                    }
                }
                let (func, this) = match &**callee {
                    Expr::Member { base, key, line } => {
                        if let Some(f) = self.stack.last_mut() {
                            f.line = *line;
                        }
                        let b = self.eval_expr(base, scope)?;
                        let f = self.get_prop(&b, key)?;
                        (f, b)
                    }
                    Expr::Index { base, index, line } => {
                        if let Some(f) = self.stack.last_mut() {
                            f.line = *line;
                        }
                        let b = self.eval_expr(base, scope)?;
                        let i = self.eval_expr(index, scope)?;
                        let key = self.to_string_value(&i)?;
                        let f = self.get_prop(&b, &key)?;
                        (f, b)
                    }
                    other => {
                        let f = self.eval_expr(other, scope)?;
                        (f, Value::Obj(self.global))
                    }
                };
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval_expr(a, scope)?);
                }
                if !matches!(func, Value::Obj(_)) {
                    let name = callee_name(callee);
                    return Err(self.throw_error(
                        ErrorKind::Type,
                        &format!("{name} is not a function"),
                    ));
                }
                self.call(func, this, &argv)
            }
            Expr::New { callee, args, line } => {
                if let Some(f) = self.stack.last_mut() {
                    f.line = *line;
                }
                let ctor = self.eval_expr(callee, scope)?;
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval_expr(a, scope)?);
                }
                self.construct(ctor, &argv)
            }
            Expr::Binary { op, left, right } => {
                let l = self.eval_expr(left, scope)?;
                let r = self.eval_expr(right, scope)?;
                self.binary_op(*op, l, r)
            }
            Expr::Logical { and, left, right } => {
                let l = self.eval_expr(left, scope)?;
                if *and {
                    if !l.truthy() {
                        return Ok(l);
                    }
                } else if l.truthy() {
                    return Ok(l);
                }
                self.eval_expr(right, scope)
            }
            Expr::Unary { op, operand } => {
                if let UnOp::TypeOf = op {
                    // `typeof missing` must not throw.
                    if let Expr::Ident(name) = &**operand {
                        return Ok(match self.lookup_ident(scope, name) {
                            Some(v) => Value::str(self.type_of(&v)),
                            None => Value::str("undefined"),
                        });
                    }
                }
                let v = self.eval_expr(operand, scope)?;
                match op {
                    UnOp::Neg => {
                        let n = self.to_number_value(&v)?;
                        Ok(Value::Num(-n))
                    }
                    UnOp::Plus => {
                        let n = self.to_number_value(&v)?;
                        Ok(Value::Num(n))
                    }
                    UnOp::Not => Ok(Value::Bool(!v.truthy())),
                    UnOp::BitNot => {
                        let n = self.to_number_value(&v)?;
                        Ok(Value::Num(!(to_int32(n)) as f64))
                    }
                    UnOp::TypeOf => Ok(Value::str(self.type_of(&v))),
                    UnOp::Void => Ok(Value::Undefined),
                }
            }
            Expr::Delete(target) => match target {
                Target::Ident(_) => Ok(Value::Bool(false)),
                Target::Member(base, key) => {
                    let b = self.eval_expr(base, scope)?;
                    Ok(Value::Bool(self.delete_prop(&b, key)))
                }
                Target::Index(base, index) => {
                    let b = self.eval_expr(base, scope)?;
                    let i = self.eval_expr(index, scope)?;
                    let key = self.to_string_value(&i)?;
                    Ok(Value::Bool(self.delete_prop(&b, &key)))
                }
            },
            Expr::Assign { op, target, value } => {
                let rhs = self.eval_expr(value, scope)?;
                let newv = if let AssignOp::Assign = op {
                    rhs
                } else {
                    let old = self.read_target(target, scope)?;
                    let bop = match op {
                        AssignOp::Add => BinOp::Add,
                        AssignOp::Sub => BinOp::Sub,
                        AssignOp::Mul => BinOp::Mul,
                        AssignOp::Div => BinOp::Div,
                        AssignOp::Assign => unreachable!(),
                    };
                    self.binary_op(bop, old, rhs)?
                };
                self.write_target(target, scope, newv.clone())?;
                Ok(newv)
            }
            Expr::Update { target, inc, prefix } => {
                let old = self.read_target(target, scope)?;
                let n = self.to_number_value(&old)?;
                let newn = if *inc { n + 1.0 } else { n - 1.0 };
                self.write_target(target, scope, Value::Num(newn))?;
                Ok(Value::Num(if *prefix { newn } else { n }))
            }
            Expr::Ternary { cond, then, otherwise } => {
                if self.eval_expr(cond, scope)?.truthy() {
                    self.eval_expr(then, scope)
                } else {
                    self.eval_expr(otherwise, scope)
                }
            }
            Expr::Sequence(exprs) => {
                let mut last = Value::Undefined;
                for e in exprs {
                    last = self.eval_expr(e, scope)?;
                }
                Ok(last)
            }
        }
    }

    /// `eval` semantics: strings parse and run in the caller's scope; other
    /// values pass through. Under the VM the body runs as an (uncached)
    /// chunk: root expression statements set the completion value and a
    /// root `return` returns its value, as in the oracle's loop below.
    pub fn eval_in_scope(&mut self, code: Value, scope: &ScopeRef) -> Result<Value, Thrown> {
        let Value::Str(src) = code else { return Ok(code) };
        if let Some(p) = &mut self.profiler {
            p.record_eval();
        }
        let script_name: Arc<str> = self
            .stack
            .last()
            .map(|f| Arc::from(format!("{} > eval", f.script)))
            .unwrap_or_else(|| Arc::from("eval"));
        let program = match parse(&src) {
            Ok(p) => p,
            Err(EngineError::Parse { line, message }) => {
                return Err(self.throw_error(
                    ErrorKind::Error,
                    &format!("SyntaxError in eval (line {line}): {message}"),
                ));
            }
            Err(_) => unreachable!("parse only returns Parse errors"),
        };
        self.stack.push(Frame { name: Arc::from("eval"), script: script_name, line: 1 });
        let r = (|| {
            if self.engine == crate::vm::Engine::Vm {
                let chunk = crate::bytecode::compile_eval(&program);
                return crate::vm::run_chunk(self, &chunk, scope);
            }
            for stmt in &program.body {
                if let Stmt::FunctionDecl(def) = stmt {
                    let f = self.alloc_script_fn(def.clone(), scope.clone());
                    self.declare(scope, def.name.clone(), Value::Obj(f));
                }
            }
            let mut last = Value::Undefined;
            for stmt in &program.body {
                match stmt {
                    Stmt::Expr(e) => last = self.eval_expr(e, scope)?,
                    other => {
                        if let Flow::Return(v) = self.exec_stmt(other, scope)? {
                            return Ok(v);
                        }
                    }
                }
            }
            Ok(last)
        })();
        self.stack.pop();
        r
    }

    fn read_target(&mut self, target: &Target, scope: &ScopeRef) -> Result<Value, Thrown> {
        match target {
            Target::Ident(name) => match self.lookup_ident(scope, name) {
                Some(v) => Ok(v),
                None => {
                    Err(self.throw_error(ErrorKind::Reference, &format!("{name} is not defined")))
                }
            },
            Target::Member(base, key) => {
                let b = self.eval_expr(base, scope)?;
                self.get_prop(&b, key)
            }
            Target::Index(base, index) => {
                let b = self.eval_expr(base, scope)?;
                let i = self.eval_expr(index, scope)?;
                let key = self.to_string_value(&i)?;
                self.get_prop(&b, &key)
            }
        }
    }

    fn write_target(
        &mut self,
        target: &Target,
        scope: &ScopeRef,
        v: Value,
    ) -> Result<(), Thrown> {
        match target {
            Target::Ident(name) => self.assign_ident(scope, name, v),
            Target::Member(base, key) => {
                let b = self.eval_expr(base, scope)?;
                self.set_prop(&b, key, v)
            }
            Target::Index(base, index) => {
                let b = self.eval_expr(base, scope)?;
                let i = self.eval_expr(index, scope)?;
                let key = self.to_string_value(&i)?;
                self.set_prop(&b, &key, v)
            }
        }
    }

    /// Property deletion; returns `true` when the property no longer exists.
    pub fn delete_prop(&mut self, base: &Value, key: &str) -> bool {
        let Some(id) = base.as_obj() else { return true };
        let obj = self.heap.get_mut(id);
        if let Some(elems) = &mut obj.elements {
            if let Ok(idx) = key.parse::<usize>() {
                if idx < elems.len() {
                    elems[idx] = Value::Undefined;
                    return true;
                }
            }
        }
        obj.props.remove(key);
        true
    }

    pub(crate) fn binary_op(&mut self, op: BinOp, l: Value, r: Value) -> Result<Value, Thrown> {
        use BinOp::*;
        Ok(match op {
            Add => {
                // String concatenation wins if either side is (or converts
                // to) a string.
                let lp = self.to_primitive(&l)?;
                let rp = self.to_primitive(&r)?;
                if matches!(lp, Value::Str(_)) || matches!(rp, Value::Str(_)) {
                    let ls = self.to_string_value(&lp)?;
                    let rs = self.to_string_value(&rp)?;
                    Value::str(format!("{ls}{rs}"))
                } else {
                    Value::Num(lp.to_number() + rp.to_number())
                }
            }
            Sub => Value::Num(self.to_number_value(&l)? - self.to_number_value(&r)?),
            Mul => Value::Num(self.to_number_value(&l)? * self.to_number_value(&r)?),
            Div => Value::Num(self.to_number_value(&l)? / self.to_number_value(&r)?),
            Rem => Value::Num(self.to_number_value(&l)? % self.to_number_value(&r)?),
            StrictEq => Value::Bool(l.strict_eq(&r)),
            StrictNotEq => Value::Bool(!l.strict_eq(&r)),
            Eq => Value::Bool(self.loose_eq(&l, &r)?),
            NotEq => Value::Bool(!self.loose_eq(&l, &r)?),
            Lt | Gt | Le | Ge => {
                let lp = self.to_primitive(&l)?;
                let rp = self.to_primitive(&r)?;
                let res = if let (Value::Str(a), Value::Str(b)) = (&lp, &rp) {
                    match op {
                        Lt => a < b,
                        Gt => a > b,
                        Le => a <= b,
                        Ge => a >= b,
                        _ => unreachable!(),
                    }
                } else {
                    let a = lp.to_number();
                    let b = rp.to_number();
                    match op {
                        Lt => a < b,
                        Gt => a > b,
                        Le => a <= b,
                        Ge => a >= b,
                        _ => unreachable!(),
                    }
                };
                Value::Bool(res)
            }
            BitAnd => Value::Num((to_int32(self.to_number_value(&l)?)
                & to_int32(self.to_number_value(&r)?)) as f64),
            BitOr => Value::Num((to_int32(self.to_number_value(&l)?)
                | to_int32(self.to_number_value(&r)?)) as f64),
            BitXor => Value::Num((to_int32(self.to_number_value(&l)?)
                ^ to_int32(self.to_number_value(&r)?)) as f64),
            Shl => Value::Num(
                (to_int32(self.to_number_value(&l)?)
                    << (to_uint32(self.to_number_value(&r)?) & 31)) as f64,
            ),
            Shr => Value::Num(
                (to_int32(self.to_number_value(&l)?)
                    >> (to_uint32(self.to_number_value(&r)?) & 31)) as f64,
            ),
            UShr => Value::Num(
                (to_uint32(self.to_number_value(&l)?)
                    >> (to_uint32(self.to_number_value(&r)?) & 31)) as f64,
            ),
            In => {
                let key = self.to_string_value(&l)?;
                let Some(id) = r.as_obj() else {
                    return Err(self.throw_error(
                        ErrorKind::Type,
                        "cannot use 'in' operator on non-object",
                    ));
                };
                let mut cur = Some(id);
                let mut found = false;
                while let Some(oid) = cur {
                    let obj = self.heap.get(oid);
                    if obj.props.contains(&key) {
                        found = true;
                        break;
                    }
                    if let Some(elems) = &obj.elements {
                        if let Ok(i) = key.parse::<usize>() {
                            if i < elems.len() {
                                found = true;
                                break;
                            }
                        }
                    }
                    cur = obj.proto;
                }
                Value::Bool(found)
            }
            InstanceOf => {
                let Some(_fid) = r.as_obj() else {
                    return Err(self
                        .throw_error(ErrorKind::Type, "right-hand side is not callable"));
                };
                let proto = self.get_prop(&r, "prototype")?;
                let Some(proto_id) = proto.as_obj() else {
                    return Ok(Value::Bool(false));
                };
                let mut cur = l.as_obj().and_then(|id| self.heap.get(id).proto);
                let mut found = false;
                while let Some(p) = cur {
                    if p == proto_id {
                        found = true;
                        break;
                    }
                    cur = self.heap.get(p).proto;
                }
                Value::Bool(found)
            }
        })
    }

    #[allow(clippy::wrong_self_convention)]
    fn to_primitive(&mut self, v: &Value) -> Result<Value, Thrown> {
        match v {
            Value::Obj(_) => {
                let s = self.to_string_value(v)?;
                Ok(Value::Str(s))
            }
            prim => Ok(prim.clone()),
        }
    }

    fn loose_eq(&mut self, l: &Value, r: &Value) -> Result<bool, Thrown> {
        use Value::*;
        Ok(match (l, r) {
            (Undefined | Null, Undefined | Null) => true,
            (Num(_), Num(_)) | (Str(_), Str(_)) | (Bool(_), Bool(_)) => l.strict_eq(r),
            (Obj(a), Obj(b)) => a == b,
            (Obj(_), _) => {
                let lp = self.to_primitive(l)?;
                self.loose_eq(&lp, r)?
            }
            (_, Obj(_)) => {
                let rp = self.to_primitive(r)?;
                self.loose_eq(l, &rp)?
            }
            _ => {
                // Mixed primitives compare numerically.
                let a = l.to_number();
                let b = r.to_number();
                a == b
            }
        })
    }
}

/// Error family used by [`Interp::throw_error`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    Error,
    Type,
    Reference,
    Range,
}

fn callee_name(e: &Expr) -> String {
    match e {
        Expr::Ident(n) => n.to_string(),
        Expr::Member { key, .. } => key.to_string(),
        Expr::Index { .. } => "<computed>".to_string(),
        _ => "<expression>".to_string(),
    }
}

/// ECMAScript `ToInt32`.
pub fn to_int32(n: f64) -> i32 {
    if !n.is_finite() {
        return 0;
    }
    (n.trunc() as i64 as u32) as i32
}

/// ECMAScript `ToUint32`.
pub fn to_uint32(n: f64) -> u32 {
    if !n.is_finite() {
        return 0;
    }
    n.trunc() as i64 as u32
}

#[cfg(test)]
mod clone_tests {
    use super::*;
    use crate::vm::Engine;

    /// A template whose closures capture an inner activation (`c`) and the
    /// global scope (`n`).
    const TEMPLATE: &str = "var n = 0; function mk(){ var c = 0; return { inc: function(){ return ++c + (++n); }, peek: function(){ return c; } }; } var o = mk();";

    fn template(engine: Engine) -> Interp {
        let mut it = Interp::new();
        it.engine = engine;
        it.eval_script(TEMPLATE, "template.js").unwrap();
        it
    }

    fn instance(template: &Interp, engine: Engine) -> Interp {
        let mut it = template.clone_realm();
        it.engine = engine;
        it
    }

    fn num(it: &mut Interp, src: &str) -> f64 {
        match it.eval_script(src, "probe.js").unwrap() {
            Value::Num(n) => n,
            other => panic!("{src} gave {other:?}"),
        }
    }

    fn closure(it: &mut Interp, path: &str) -> ObjId {
        it.eval_script(path, "probe.js").unwrap().as_obj().expect("a function object")
    }

    #[test]
    fn clones_do_not_share_captured_scopes() {
        for engine in [Engine::Tree, Engine::Vm] {
            let mut tpl = template(engine);
            let mut a = instance(&tpl, engine);
            let mut b = instance(&tpl, engine);
            // Both closures of one clone share one activation of `mk`.
            assert_eq!(num(&mut a, "o.inc()"), 2.0, "{engine:?}");
            assert_eq!(num(&mut a, "o.inc()"), 4.0, "{engine:?}");
            assert_eq!(num(&mut a, "o.peek()"), 2.0, "{engine:?}");
            assert_eq!(num(&mut a, "n"), 2.0, "{engine:?}");
            // Clone A's calls are invisible to clone B and to the template.
            assert_eq!(num(&mut b, "o.peek()"), 0.0, "{engine:?}");
            assert_eq!(num(&mut b, "n"), 0.0, "{engine:?}");
            assert_eq!(num(&mut tpl, "o.peek()"), 0.0, "{engine:?}");
            assert_eq!(num(&mut tpl, "n"), 0.0, "{engine:?}");
            // And B counts from the template's state, not from A's.
            assert_eq!(num(&mut b, "o.inc()"), 2.0, "{engine:?}");
            assert_eq!(num(&mut a, "o.peek() + n"), 4.0, "{engine:?}");
        }
    }

    #[test]
    fn clones_continue_the_templates_step_count() {
        for engine in [Engine::Tree, Engine::Vm] {
            let tpl = template(engine);
            let ran = tpl.steps();
            assert!(ran > 0, "{engine:?}: the template ran no steps");
            let mut a = instance(&tpl, engine);
            assert_eq!(a.steps(), ran, "{engine:?}");
            a.eval_script("o.inc();", "probe.js").unwrap();
            assert!(a.steps() > ran);
            assert_eq!(instance(&tpl, engine).steps(), ran, "{engine:?}");
        }
    }

    #[test]
    fn set_captured_binding_rebinds_one_clone_only() {
        for engine in [Engine::Tree, Engine::Vm] {
            let tpl = template(engine);
            let mut a = instance(&tpl, engine);
            let mut b = instance(&tpl, engine);
            let inc = closure(&mut a, "o.inc");
            assert!(a.set_captured_binding(inc, "c", Value::Num(10.0)));
            // `peek` closes over the same activation, so it sees the patch.
            assert_eq!(num(&mut a, "o.peek()"), 10.0, "{engine:?}");
            assert_eq!(num(&mut b, "o.peek()"), 0.0, "{engine:?}");
            // Unbound names and non-script functions are refused untouched.
            assert!(!a.set_captured_binding(inc, "nowhere", Value::Null));
            let native = closure(&mut a, "Object.keys");
            assert!(!a.set_captured_binding(native, "c", Value::Null));
        }
    }

    #[test]
    #[should_panic(expected = "pending jobs")]
    fn cloning_with_pending_jobs_panics() {
        let mut it = Interp::new();
        it.push_job(Value::Undefined, Vec::new(), 0);
        let _ = it.clone_realm();
    }
}
