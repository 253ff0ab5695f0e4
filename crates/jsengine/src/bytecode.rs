//! The bytecode compiler: flat instruction encoding for MiniJS.
//!
//! [`compile_program`] lowers a parsed [`Program`] into the [`Chunk`] of
//! its top-level statement list, and lowers the body of every function
//! definition reachable from it into that definition's own chunk
//! ([`FunctionDef::chunk`]), so a compiled script's bytecode lives on its
//! AST and is shared by every realm that runs it.
//! The VM's `run_chunk` executes a chunk in a stack dispatch loop and
//! never reads a statement: function-declaration hoisting is compiled in
//! as [`Insn::Hoist`] at the start of every root and block, and a call
//! reads only the callee definition's header and chunk.
//!
//! The compiler's contract is *observational
//! byte-identity with the tree-walker*: the same step charges in the same
//! order (so the step budget trips at the identical point), the same frame
//! line updates, the same heap allocation order, the same error messages,
//! the same call and eval counts. The tree-walking interpreter stays in
//! the crate as the reference oracle; `tests/engine_differential.rs` holds
//! the two engines to the same, pinned telemetry digest.
//!
//! Step accounting is coalesced: the tree-walker charges one step per
//! statement and per expression node at evaluation entry, which a naive
//! translation would pay as one budget check per instruction. Instead the
//! compiler accumulates charges for *pure* nodes (literals, operators on
//! already-evaluated operands) in a pending counter and flushes them as a
//! single [`Insn::Step`] immediately before any instruction with observable
//! effects — a heap mutation, a scope write, a frame-line update, a jump, or
//! anything that can call back into user code. Because only effect-free
//! charges are deferred, the interpreter state seen by every effect (and by
//! a mid-run budget exhaustion) is exactly the tree-walker's.
//!
//! `try`/`catch`/`finally` lowers to a per-chunk [`Handler`] table: an
//! error raised by an instruction in a guarded range lands at the `catch`
//! block, or at the `finally` block with the error pending. Each `finally`
//! block is compiled once, after its `try`: every way in pushes the
//! completion it interrupts — resume at an instruction, or re-raise an
//! error — and [`Insn::EndFinally`] carries it out. A `break`, `continue`
//! or `return` crossing several `finally` blocks enters each in turn,
//! resuming at the next step of its way out, so code size stays linear in
//! the source.

use std::sync::Arc;

use crate::ast::*;

/// One VM instruction. Operands are indices into the owning [`Chunk`]'s
/// pools; jump targets are absolute instruction offsets patched in by the
/// compiler's label pass.
#[derive(Clone, Debug, PartialEq)]
pub enum Insn {
    /// Charge `n` coalesced interpreter steps against the step budget.
    Step(u32),
    /// Update the innermost frame's line (member/index/call/new/throw sites).
    SetLine(u32),
    /// Push `consts[i]`.
    Const(u32),
    /// Duplicate the top of stack.
    Dup,
    /// Discard the top of stack.
    Pop,
    /// Swap the two top stack slots.
    Swap,
    /// Unconditional jump.
    Jump(u32),
    /// Pop; jump when falsy.
    JumpIfFalsy(u32),
    /// Peek; when falsy jump *keeping* the value, else pop it (`&&`).
    JumpFalsyKeep(u32),
    /// Peek; when truthy jump *keeping* the value, else pop it (`||`).
    JumpTruthyKeep(u32),
    /// Push the `this` binding of the current scope chain.
    LoadThis,
    /// Push the binding of `names[i]`; ReferenceError when unresolvable.
    LoadIdent(u32),
    /// Push `typeof` of the binding of `names[i]` (`"undefined"` when
    /// unresolvable — `typeof missing` must not throw).
    TypeOfIdent(u32),
    /// Pop a value and assign it to `names[i]` (scope chain, then global).
    StoreIdent(u32),
    /// Pop a value and declare `names[i]` in the current scope.
    Declare(u32),
    /// Allocate `fns[i]` as a function object and declare it in the current
    /// scope — hoisting at the start of a root or block, re-run on every
    /// entry like the oracle.
    Hoist(u32),
    /// Allocate `fns[i]` as a function object closing over the current
    /// scope and push it.
    MakeFunction(u32),
    /// Pop `n` values and push a freshly allocated array of them.
    MakeArray(u32),
    /// Push a freshly allocated plain object (before its property values
    /// are evaluated, matching the oracle's allocation order).
    AllocObject,
    /// Pop a value, peek an object, insert `names[i]` as an own data
    /// property (object-literal construction; not `set_prop`).
    SetOwnProp(u32),
    /// Pop a base, push `get_prop(base, names[i])`.
    GetProp(u32),
    /// Pop an index and a base, push `get_prop(base, to_string(index))`.
    GetIndex,
    /// Pop a base, then a value; `set_prop(base, names[i], value)`.
    SetProp(u32),
    /// Pop an index, a base, then a value; `set_prop` under the stringified
    /// index.
    SetIndex,
    /// Pop a base, push `delete base[names[i]]`.
    DeleteProp(u32),
    /// Pop an index and a base, push the deletion result.
    DeleteIndex,
    /// Pop two operands, push the binary result.
    BinOp(BinOp),
    /// Pop one operand, push the unary result (not `typeof ident`).
    UnOp(UnOp),
    /// Pop a value, push `Num(to_number(value))`.
    ToNumber,
    /// Pop a number, push it ±1 (`true` = increment).
    IncDec(bool),
    /// Peek a base, push `get_prop(base, names[i])` — method extraction for
    /// `base.key(...)` calls, leaving `[base, func]`.
    GetMethod(u32),
    /// Pop an index, peek a base, push the looked-up method.
    GetIndexMethod,
    /// Pop `argc` arguments, the function, and (when `with_this`) the base;
    /// `names[name]` is the static callee name for the "is not a function"
    /// TypeError.
    CallVal { argc: u32, name: u32, with_this: bool },
    /// Pop `argc` arguments and the constructor; push `construct`'s result.
    New { argc: u32 },
    /// `eval(...)` special form: when `eval` resolves in scope fall through
    /// (the argument code and [`Insn::EvalInScope`] follow), else jump to
    /// the ordinary-call lowering.
    EvalCheck(u32),
    /// Pop a value and run it through `eval_in_scope` in the current scope.
    EvalInScope,
    /// Pop a value and throw it (computing the message like the oracle).
    ThrowInsn,
    /// Pop a value, begin a `for`-`in` iteration over its keys and declare
    /// `names[i]` as `undefined`.
    IterKeys(u32),
    /// Pop a value, begin a `for`-`of` iteration over its elements (or
    /// characters) and declare `names[i]`; TypeError when not iterable.
    IterItems(u32),
    /// Advance the innermost iteration: assign the next key/item to
    /// `names[var]`, or jump to `done` when exhausted.
    IterNext { var: u32, done: u32 },
    /// End the innermost iteration (the `done` landing point).
    IterEnd,
    /// Pop a caught value and enter a `catch` block's scope: a child of the
    /// current scope binding `names[i]` to the value.
    EnterCatch(u32),
    /// Leave the innermost `catch` block's scope.
    ExitCatch,
    /// Push a completion resuming at the target, pending while the
    /// `finally` block entered next runs.
    Finally(u32),
    /// End a `finally` block: pop the innermost pending completion and
    /// resume at its target, or re-raise its error.
    EndFinally,
    /// Discard the innermost pending completion (a jump or `return` out of
    /// a `finally` block overrides it).
    DropFinally,
    /// Pop into the return register (a `return` crossing `finally` blocks).
    SetRet,
    /// Push the return register.
    LoadRet,
    /// Pop into the top-level `last` completion register.
    SetLast,
    /// Push the `last` register.
    LoadLast,
    /// Pop the top of stack and return it from the chunk.
    Ret,
}

/// A compiled statement list: flat instructions plus the pools they index.
#[derive(Debug, Default)]
pub struct Chunk {
    pub insns: Vec<Insn>,
    /// Primitive constants (`Num`/`Str`/`Bool`/`Null`/`Undefined` only).
    pub consts: Vec<crate::value::Value>,
    /// Identifier and property names, shared with the interner on use.
    pub names: Vec<Arc<str>>,
    /// `names[i]` pre-interned at compile time, so the VM's scope lookups
    /// hash a bare atom id instead of re-hashing the string per access
    /// (the tree-walker pays that string hash on every ident evaluation).
    pub atoms: Vec<crate::atom::Atom>,
    /// Function definitions for `MakeFunction`/`Hoist`.
    pub fns: Vec<Arc<FunctionDef>>,
    /// Guarded ranges, inner before outer wherever two cover one `pc`.
    pub handlers: Vec<Handler>,
}

/// One guarded instruction range of a [`Chunk`]. An error raised by an
/// instruction in `start..end` lands at `catch` with its value pushed, or —
/// for a `try` without `catch`, or a step-budget error, which no `catch`
/// sees — at the `finally` block with the error pending. The depths are
/// the activation's state at the `try` statement, to unwind to on landing;
/// they are static because a `try` is a statement, and the value stack is
/// empty there because statements are stack-neutral.
#[derive(Clone, Debug, PartialEq)]
pub struct Handler {
    pub start: u32,
    pub end: u32,
    pub catch: Option<u32>,
    pub finally: Option<u32>,
    /// Live `for`-`in`/`for`-`of` iterations.
    pub iters: u32,
    /// Live `catch` scopes.
    pub scopes: u32,
    /// Completions pending on enclosing `finally` blocks.
    pub completions: u32,
}

/// Compilation mode: the top level of a script completes with its `last`
/// expression value and swallows stray `return`/`break`/`continue`; a
/// function body completes with `undefined` unless a `return` runs; an
/// `eval` body completes like a script but returns from a `return`.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Top,
    Fn,
    Eval,
}

/// Compile a parsed program into its top-level chunk, lowering every
/// function definition reachable from it onto the definition itself.
pub fn compile_program(program: &Program) -> Chunk {
    compile_stmts(&program.body, Mode::Top)
}

/// Compile the body of an `eval` call (see [`compile_program`]).
pub fn compile_eval(program: &Program) -> Chunk {
    compile_stmts(&program.body, Mode::Eval)
}

impl FunctionDef {
    /// The body's bytecode. The compile of the defining script lowers it;
    /// a function no compile reached (one defined while its realm ran the
    /// tree-walker) is lowered here on its first call.
    pub fn chunk(&self) -> &Chunk {
        self.chunk.get_or_init(|| compile_stmts(&self.body, Mode::Fn))
    }
}

/// Lower a root statement list, then each function it defines that is not
/// lowered yet (and, through it, the functions that one defines).
fn compile_stmts(body: &[Stmt], mode: Mode) -> Chunk {
    let mut c = Compiler::new(mode);
    c.compile_root(body);
    let chunk = c.finish();
    for def in &chunk.fns {
        def.chunk();
    }
    chunk
}

type LabelId = usize;

/// What a jump or `return` leaving a statement must undo or run on the
/// way out, innermost last on [`Compiler::ctx`].
#[derive(Clone, Copy)]
enum Ctx {
    /// A loop: the `break`/`continue` targets, and whether it holds a live
    /// iteration.
    Loop { brk: LabelId, cont: LabelId, iter: bool },
    /// A `try` body or `catch` block whose `finally` block starts at the
    /// label.
    Try(LabelId),
    /// A `catch` block's scope.
    Catch,
    /// A `finally` block, with its completion pending.
    Finally,
}

struct Compiler {
    mode: Mode,
    insns: Vec<Insn>,
    consts: Vec<crate::value::Value>,
    names: Vec<Arc<str>>,
    fns: Vec<Arc<FunctionDef>>,
    /// Coalesced step charges not yet emitted (pure nodes only).
    pending: u32,
    labels: Vec<Option<u32>>,
    patches: Vec<(usize, LabelId)>,
    ctx: Vec<Ctx>,
    /// Closed guarded ranges, inner before outer (their closing order);
    /// `catch`/`finally` hold label ids until [`Compiler::finish`] resolves
    /// them.
    handlers: Vec<Handler>,
    /// Where a loop-less `break`/`continue`/top-level `return` lands: the
    /// start of the next root statement (the oracle swallows the flow at
    /// the root of a function body or program).
    root_next: Option<LabelId>,
}

impl Compiler {
    fn new(mode: Mode) -> Compiler {
        Compiler {
            mode,
            insns: Vec::new(),
            consts: Vec::new(),
            names: Vec::new(),
            fns: Vec::new(),
            pending: 0,
            labels: Vec::new(),
            patches: Vec::new(),
            ctx: Vec::new(),
            handlers: Vec::new(),
            root_next: None,
        }
    }

    // ------------------------------------------------------------ plumbing

    fn emit(&mut self, i: Insn) {
        self.insns.push(i);
    }

    /// Flush the pending step counter. Must run before any instruction with
    /// observable effects, any jump, and any label bind.
    fn flush(&mut self) {
        if self.pending > 0 {
            let n = self.pending;
            self.pending = 0;
            self.insns.push(Insn::Step(n));
        }
    }

    fn charge(&mut self, n: u32) {
        self.pending += n;
    }

    fn here(&self) -> u32 {
        self.insns.len() as u32
    }

    fn new_label(&mut self) -> LabelId {
        self.labels.push(None);
        self.labels.len() - 1
    }

    fn bind(&mut self, l: LabelId) {
        self.flush();
        self.labels[l] = Some(self.here());
    }

    /// Emit a jump-family instruction whose target operand is patched to
    /// `label` once bound. The operand starts as `u32::MAX`.
    fn emit_jump(&mut self, i: Insn, label: LabelId) {
        self.flush();
        self.patches.push((self.insns.len(), label));
        self.insns.push(i);
    }

    fn const_idx(&mut self, v: crate::value::Value) -> u32 {
        self.consts.push(v);
        (self.consts.len() - 1) as u32
    }

    fn name_idx(&mut self, n: &Arc<str>) -> u32 {
        if let Some(i) = self.names.iter().position(|x| x == n) {
            return i as u32;
        }
        self.names.push(n.clone());
        (self.names.len() - 1) as u32
    }

    fn fn_idx(&mut self, def: &Arc<FunctionDef>) -> u32 {
        if let Some(i) = self.fns.iter().position(|d| Arc::ptr_eq(d, def)) {
            return i as u32;
        }
        self.fns.push(def.clone());
        (self.fns.len() - 1) as u32
    }

    fn finish(mut self) -> Chunk {
        self.flush();
        // Epilogue: a Top or Eval chunk completes with its `last` register,
        // a Fn chunk with `undefined` (an explicit `return` uses `Ret`).
        match self.mode {
            Mode::Top | Mode::Eval => self.emit(Insn::LoadLast),
            Mode::Fn => {
                let u = self.const_idx(crate::value::Value::Undefined);
                self.emit(Insn::Const(u));
            }
        }
        self.emit(Insn::Ret);
        // Label pass: write every bound label position into its operand.
        let labels = self.labels;
        let pos = |l: LabelId| labels[l].expect("compiler bug: unbound label");
        for (insn, label) in self.patches {
            match &mut self.insns[insn] {
                Insn::Jump(t)
                | Insn::JumpIfFalsy(t)
                | Insn::JumpFalsyKeep(t)
                | Insn::JumpTruthyKeep(t)
                | Insn::EvalCheck(t)
                | Insn::Finally(t)
                | Insn::IterNext { done: t, .. } => *t = pos(label),
                other => unreachable!("compiler bug: patch on {other:?}"),
            }
        }
        for h in &mut self.handlers {
            h.catch = h.catch.map(|l| pos(l as LabelId));
            h.finally = h.finally.map(|l| pos(l as LabelId));
        }
        // Pre-interning is observation-neutral: atoms are process-global
        // and append-only, and `lookup_ident` treats "interned but unbound"
        // exactly like "never interned" (both fall through to the global
        // object), so interning earlier than the tree-walker would cannot
        // change any result.
        let atoms = self.names.iter().map(crate::atom::Atom::intern_arc).collect();
        Chunk {
            insns: self.insns,
            consts: self.consts,
            names: self.names,
            atoms,
            fns: self.fns,
            handlers: self.handlers,
        }
    }

    // ------------------------------------------------------------ leaving

    /// Open a guarded range at the next instruction (pending charges belong
    /// to the code before it), landing at `catch`/`finally` with the depths
    /// the current contexts hold.
    fn guard(&mut self, catch: Option<LabelId>, finally: Option<LabelId>) -> Handler {
        self.flush();
        let count = |f: fn(&Ctx) -> bool| self.ctx.iter().filter(|c| f(c)).count() as u32;
        Handler {
            start: self.here(),
            end: 0,
            catch: catch.map(|l| l as u32),
            finally: finally.map(|l| l as u32),
            iters: count(|c| matches!(c, Ctx::Loop { iter: true, .. })),
            scopes: count(|c| matches!(c, Ctx::Catch)),
            completions: count(|c| matches!(c, Ctx::Finally)),
        }
    }

    /// Close a range [`Compiler::guard`] opened, with the charges it
    /// incurred.
    fn unguard(&mut self, mut h: Handler) {
        self.flush();
        h.end = self.here();
        if h.start < h.end {
            self.handlers.push(h);
        }
    }

    /// Leave every context above the first `keep` on the way to a jump or
    /// a return, innermost first: end iterations, leave `catch` scopes,
    /// discard the completions pending on `finally` blocks, and enter the
    /// `finally` block of each `try` left, resuming at the next step. None
    /// of these instructions can raise, so it is harmless that they sit in
    /// the guarded ranges they leave.
    fn unwind(&mut self, keep: usize) {
        self.flush();
        for i in (keep..self.ctx.len()).rev() {
            match self.ctx[i] {
                Ctx::Loop { iter, .. } => {
                    if iter {
                        self.emit(Insn::IterEnd);
                    }
                }
                Ctx::Try(finally) => {
                    let resume = self.new_label();
                    self.emit_jump(Insn::Finally(u32::MAX), resume);
                    self.emit_jump(Insn::Jump(u32::MAX), finally);
                    self.bind(resume);
                }
                Ctx::Catch => self.emit(Insn::ExitCatch),
                Ctx::Finally => self.emit(Insn::DropFinally),
            }
        }
    }

    /// `break`/`continue`: jump to the innermost loop's target, or to the
    /// next root statement outside any loop.
    fn jump_out(&mut self, brk: bool) {
        let (keep, target) = self
            .ctx
            .iter()
            .enumerate()
            .rev()
            .find_map(|(i, c)| match c {
                Ctx::Loop { brk: b, cont, .. } => Some((i + 1, if brk { *b } else { *cont })),
                _ => None,
            })
            .unwrap_or_else(|| (0, self.root_next.expect("break outside root")));
        self.jump_leaving(keep, target);
    }

    /// Jump to `target`, leaving the contexts above the first `keep`.
    fn jump_leaving(&mut self, keep: usize, target: LabelId) {
        self.unwind(keep);
        self.emit_jump(Insn::Jump(u32::MAX), target);
    }

    fn ret(&mut self) {
        self.flush();
        self.emit(Insn::Ret);
    }

    // ------------------------------------------------------------- roots

    /// Compile a root statement list (program top level, function body or
    /// `eval` body): hoist its function declarations, then its statements.
    fn compile_root(&mut self, body: &[Stmt]) {
        self.hoist(body);
        for stmt in body {
            let next = self.new_label();
            self.root_next = Some(next);
            match (self.mode, stmt) {
                // The oracle's `eval_program` routes root expression
                // statements straight to `eval_expr` (no statement charge)
                // and records the value as the script's completion.
                (Mode::Top | Mode::Eval, Stmt::Expr(e)) => {
                    self.expr(e);
                    self.emit(Insn::SetLast);
                }
                _ => self.stmt(stmt),
            }
            self.bind(next);
        }
        self.root_next = None;
    }

    // --------------------------------------------------------- statements

    fn stmt(&mut self, stmt: &Stmt) {
        // Mirrors the oracle's `exec_stmt` entry charge.
        self.charge(1);
        match stmt {
            // Declarations are hoisted on entry to their root or block.
            Stmt::Empty | Stmt::FunctionDecl(_) => {}
            Stmt::Expr(e) => {
                self.expr(e);
                self.emit(Insn::Pop);
            }
            Stmt::VarDecl { name, init } => {
                match init {
                    Some(e) => self.expr(e),
                    None => {
                        let u = self.const_idx(crate::value::Value::Undefined);
                        self.emit(Insn::Const(u));
                    }
                }
                let n = self.name_idx(name);
                self.flush();
                self.emit(Insn::Declare(n));
            }
            Stmt::Return(e) => {
                match e {
                    Some(e) => self.expr(e),
                    None => {
                        let u = self.const_idx(crate::value::Value::Undefined);
                        self.emit(Insn::Const(u));
                    }
                }
                match self.mode {
                    // The value waits in a register while `finally` blocks
                    // run.
                    Mode::Fn | Mode::Eval => {
                        let crosses = self.ctx.iter().any(|c| matches!(c, Ctx::Try(_)));
                        self.flush();
                        if crosses {
                            self.emit(Insn::SetRet);
                        }
                        self.unwind(0);
                        if crosses {
                            self.emit(Insn::LoadRet);
                        }
                        self.ret();
                    }
                    // A top-level `return` evaluates its operand, then the
                    // oracle discards the flow and moves to the next root
                    // statement.
                    Mode::Top => {
                        self.emit(Insn::Pop);
                        let next = self.root_next.expect("top return outside root");
                        self.jump_leaving(0, next);
                    }
                }
            }
            Stmt::If { cond, then, otherwise } => {
                self.expr(cond);
                let else_l = self.new_label();
                self.emit_jump(Insn::JumpIfFalsy(u32::MAX), else_l);
                self.block(then);
                match otherwise {
                    Some(e) => {
                        let end = self.new_label();
                        self.emit_jump(Insn::Jump(u32::MAX), end);
                        self.bind(else_l);
                        self.block(e);
                        self.bind(end);
                    }
                    None => self.bind(else_l),
                }
            }
            Stmt::While { cond, body } => {
                let top = self.new_label();
                let done = self.new_label();
                self.bind(top);
                self.charge(1); // per-iteration charge
                self.expr(cond);
                self.emit_jump(Insn::JumpIfFalsy(u32::MAX), done);
                self.loop_body(done, top, false, body);
                self.emit_jump(Insn::Jump(u32::MAX), top);
                self.bind(done);
            }
            Stmt::For { init, cond, update, body } => {
                if let Some(init) = init {
                    self.stmt(init);
                }
                let top = self.new_label();
                let cont = self.new_label();
                let done = self.new_label();
                self.bind(top);
                self.charge(1); // per-iteration charge
                if let Some(c) = cond {
                    self.expr(c);
                    self.emit_jump(Insn::JumpIfFalsy(u32::MAX), done);
                }
                self.loop_body(done, cont, false, body);
                self.bind(cont);
                if let Some(u) = update {
                    self.expr(u);
                    self.emit(Insn::Pop);
                }
                self.emit_jump(Insn::Jump(u32::MAX), top);
                self.bind(done);
            }
            Stmt::ForIn { var, object, body } => {
                self.expr(object);
                let n = self.name_idx(var);
                self.flush();
                self.emit(Insn::IterKeys(n));
                self.iter_loop(n, body);
            }
            Stmt::ForOf { var, object, body } => {
                self.expr(object);
                let n = self.name_idx(var);
                self.flush();
                self.emit(Insn::IterItems(n));
                self.iter_loop(n, body);
            }
            Stmt::Break => self.jump_out(true),
            Stmt::Continue => self.jump_out(false),
            Stmt::Throw(e, line) => {
                self.flush();
                self.emit(Insn::SetLine(*line));
                self.expr(e);
                self.flush();
                self.emit(Insn::ThrowInsn);
            }
            Stmt::Try { body, catch, finally } => {
                // The statement's own charge lands before the guarded body,
                // as the oracle charges it before running the body.
                let catch_at = catch.as_ref().map(|_| self.new_label());
                let fin_at = finally.as_ref().map(|_| self.new_label());
                let h = self.guard(catch_at, fin_at);
                if let Some(f) = fin_at {
                    self.ctx.push(Ctx::Try(f));
                }
                self.block(body);
                self.unguard(h);
                let done = self.new_label();
                if let (Some((param, cbody)), Some(catch_at)) = (catch, catch_at) {
                    self.emit_jump(Insn::Jump(u32::MAX), done);
                    self.bind(catch_at);
                    let n = self.name_idx(param);
                    self.emit(Insn::EnterCatch(n));
                    let h = fin_at.map(|f| self.guard(None, Some(f)));
                    self.ctx.push(Ctx::Catch);
                    self.block(cbody);
                    self.ctx.pop();
                    self.flush();
                    self.emit(Insn::ExitCatch);
                    if let Some(h) = h {
                        self.unguard(h);
                    }
                }
                self.bind(done);
                if let (Some(f), Some(fin_at)) = (finally, fin_at) {
                    // Normal completion resumes after the block; the throw
                    // path lands at `fin_at` with its error pending.
                    self.ctx.pop();
                    let end = self.new_label();
                    self.emit_jump(Insn::Finally(u32::MAX), end);
                    self.bind(fin_at);
                    self.ctx.push(Ctx::Finally);
                    self.block(f);
                    self.ctx.pop();
                    self.flush();
                    self.emit(Insn::EndFinally);
                    self.bind(end);
                }
            }
            Stmt::Block(stmts) => self.block(stmts),
        }
    }

    /// Loop skeleton shared by `for`-`in` and `for`-`of` (the iterator is
    /// already pushed): advance, body, back-edge, and the `done` landing
    /// point that ends the iteration.
    fn iter_loop(&mut self, var: u32, body: &[Stmt]) {
        let top = self.new_label();
        let done = self.new_label();
        self.bind(top);
        self.emit_jump(Insn::IterNext { var, done: u32::MAX }, done);
        self.loop_body(done, top, true, body);
        self.emit_jump(Insn::Jump(u32::MAX), top);
        self.bind(done);
        self.emit(Insn::IterEnd);
    }

    fn loop_body(&mut self, brk: LabelId, cont: LabelId, iter: bool, body: &[Stmt]) {
        self.ctx.push(Ctx::Loop { brk, cont, iter });
        self.block(body);
        self.ctx.pop();
    }

    /// Compile a nested block: hoist its function declarations, then its
    /// statements.
    fn block(&mut self, stmts: &[Stmt]) {
        self.hoist(stmts);
        for s in stmts {
            self.stmt(s);
        }
    }

    /// Declare the function declarations of a root or block in the current
    /// scope, in source order and charging nothing, on every entry — like
    /// the oracle's hoisting loops.
    fn hoist(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            if let Stmt::FunctionDecl(d) = s {
                let i = self.fn_idx(d);
                self.flush();
                self.emit(Insn::Hoist(i));
            }
        }
    }

    // -------------------------------------------------------- expressions

    fn expr(&mut self, e: &Expr) {
        // Mirrors the oracle's `eval_expr` entry charge.
        self.charge(1);
        match e {
            Expr::Num(n) => {
                let i = self.const_idx(crate::value::Value::Num(*n));
                self.emit(Insn::Const(i));
            }
            Expr::Str(s) => {
                let i = self.const_idx(crate::value::Value::Str(s.clone()));
                self.emit(Insn::Const(i));
            }
            Expr::Bool(b) => {
                let i = self.const_idx(crate::value::Value::Bool(*b));
                self.emit(Insn::Const(i));
            }
            Expr::Null => {
                let i = self.const_idx(crate::value::Value::Null);
                self.emit(Insn::Const(i));
            }
            Expr::Undefined => {
                let i = self.const_idx(crate::value::Value::Undefined);
                self.emit(Insn::Const(i));
            }
            Expr::This => self.emit(Insn::LoadThis),
            Expr::Ident(name) => {
                let i = self.name_idx(name);
                self.flush();
                self.emit(Insn::LoadIdent(i));
            }
            Expr::Array(items) => {
                for item in items {
                    self.expr(item);
                }
                self.flush();
                self.emit(Insn::MakeArray(items.len() as u32));
            }
            Expr::Object(pairs) => {
                self.flush();
                self.emit(Insn::AllocObject);
                for (k, e) in pairs {
                    self.expr(e);
                    let i = self.name_idx(k);
                    self.flush();
                    self.emit(Insn::SetOwnProp(i));
                }
            }
            Expr::Function(def) => {
                let i = self.fn_idx(def);
                self.flush();
                self.emit(Insn::MakeFunction(i));
            }
            Expr::Member { base, key, line } => {
                self.flush();
                self.emit(Insn::SetLine(*line));
                self.expr(base);
                let i = self.name_idx(key);
                self.flush();
                self.emit(Insn::GetProp(i));
            }
            Expr::Index { base, index, line } => {
                self.flush();
                self.emit(Insn::SetLine(*line));
                self.expr(base);
                self.expr(index);
                self.flush();
                self.emit(Insn::GetIndex);
            }
            Expr::Call { callee, args, line } => self.call(callee, args, *line),
            Expr::New { callee, args, line } => {
                self.flush();
                self.emit(Insn::SetLine(*line));
                self.expr(callee);
                for a in args {
                    self.expr(a);
                }
                self.flush();
                self.emit(Insn::New { argc: args.len() as u32 });
            }
            Expr::Binary { op, left, right } => {
                self.expr(left);
                self.expr(right);
                self.flush();
                self.emit(Insn::BinOp(*op));
            }
            Expr::Logical { and, left, right } => {
                self.expr(left);
                let end = self.new_label();
                let short = if *and {
                    Insn::JumpFalsyKeep(u32::MAX)
                } else {
                    Insn::JumpTruthyKeep(u32::MAX)
                };
                self.emit_jump(short, end);
                self.expr(right);
                self.bind(end);
            }
            Expr::Unary { op, operand } => {
                if let (UnOp::TypeOf, Expr::Ident(name)) = (op, &**operand) {
                    // `typeof missing` must not throw: the operand is not
                    // evaluated (and not charged) by the oracle.
                    let i = self.name_idx(name);
                    self.flush();
                    self.emit(Insn::TypeOfIdent(i));
                    return;
                }
                self.expr(operand);
                self.flush();
                self.emit(Insn::UnOp(*op));
            }
            Expr::Delete(target) => match target {
                Target::Ident(_) => {
                    let i = self.const_idx(crate::value::Value::Bool(false));
                    self.emit(Insn::Const(i));
                }
                Target::Member(base, key) => {
                    self.expr(base);
                    let i = self.name_idx(key);
                    self.flush();
                    self.emit(Insn::DeleteProp(i));
                }
                Target::Index(base, index) => {
                    self.expr(base);
                    self.expr(index);
                    self.flush();
                    self.emit(Insn::DeleteIndex);
                }
            },
            Expr::Assign { op, target, value } => {
                self.expr(value);
                match op {
                    AssignOp::Assign => self.plain_assign(target),
                    compound => {
                        let bop = match compound {
                            AssignOp::Add => BinOp::Add,
                            AssignOp::Sub => BinOp::Sub,
                            AssignOp::Mul => BinOp::Mul,
                            AssignOp::Div => BinOp::Div,
                            AssignOp::Assign => unreachable!(),
                        };
                        // Oracle order: read target, op(old, rhs), write
                        // target (the base re-evaluates on the write).
                        self.read_target(target);
                        self.emit(Insn::Swap);
                        self.flush();
                        self.emit(Insn::BinOp(bop));
                        self.emit(Insn::Dup);
                        self.write_target(target);
                    }
                }
            }
            Expr::Update { target, inc, prefix } => {
                self.read_target(target);
                self.flush();
                self.emit(Insn::ToNumber);
                if !*prefix {
                    self.emit(Insn::Dup); // keep the old value as the result
                }
                self.emit(Insn::IncDec(*inc));
                if *prefix {
                    self.emit(Insn::Dup); // the new value is the result
                }
                self.write_target(target);
            }
            Expr::Ternary { cond, then, otherwise } => {
                self.expr(cond);
                let else_l = self.new_label();
                let end = self.new_label();
                self.emit_jump(Insn::JumpIfFalsy(u32::MAX), else_l);
                self.expr(then);
                self.emit_jump(Insn::Jump(u32::MAX), end);
                self.bind(else_l);
                self.expr(otherwise);
                self.bind(end);
            }
            Expr::Sequence(exprs) => {
                if exprs.is_empty() {
                    let i = self.const_idx(crate::value::Value::Undefined);
                    self.emit(Insn::Const(i));
                    return;
                }
                for (i, e) in exprs.iter().enumerate() {
                    self.expr(e);
                    if i + 1 < exprs.len() {
                        self.emit(Insn::Pop);
                    }
                }
            }
        }
    }

    /// `a = rhs` / `a.b = rhs` / `a[i] = rhs` with `[rhs]` on the stack;
    /// leaves the assigned value as the result.
    fn plain_assign(&mut self, target: &Target) {
        self.emit(Insn::Dup);
        match target {
            Target::Ident(name) => {
                let i = self.name_idx(name);
                self.flush();
                self.emit(Insn::StoreIdent(i));
            }
            Target::Member(base, key) => {
                self.expr(base);
                let i = self.name_idx(key);
                self.flush();
                self.emit(Insn::SetProp(i));
            }
            Target::Index(base, index) => {
                self.expr(base);
                self.expr(index);
                self.flush();
                self.emit(Insn::SetIndex);
            }
        }
    }

    /// The oracle's `read_target`: no line updates, no charge for the
    /// target node itself (its base sub-expressions do charge).
    fn read_target(&mut self, target: &Target) {
        match target {
            Target::Ident(name) => {
                let i = self.name_idx(name);
                self.flush();
                self.emit(Insn::LoadIdent(i));
            }
            Target::Member(base, key) => {
                self.expr(base);
                let i = self.name_idx(key);
                self.flush();
                self.emit(Insn::GetProp(i));
            }
            Target::Index(base, index) => {
                self.expr(base);
                self.expr(index);
                self.flush();
                self.emit(Insn::GetIndex);
            }
        }
    }

    /// The oracle's `write_target`: pops the value (and re-evaluates the
    /// base), pushes nothing.
    fn write_target(&mut self, target: &Target) {
        match target {
            Target::Ident(name) => {
                let i = self.name_idx(name);
                self.flush();
                self.emit(Insn::StoreIdent(i));
            }
            Target::Member(base, key) => {
                self.expr(base);
                let i = self.name_idx(key);
                self.flush();
                self.emit(Insn::SetProp(i));
            }
            Target::Index(base, index) => {
                self.expr(base);
                self.expr(index);
                self.flush();
                self.emit(Insn::SetIndex);
            }
        }
    }

    /// Call lowering, including the `eval` special form and the oracle's
    /// member/index callee handling (the callee `Member`/`Index` node is
    /// *not* charged — the oracle matches on it without re-entering
    /// `eval_expr`).
    fn call(&mut self, callee: &Expr, args: &[Expr], line: u32) {
        self.flush();
        self.emit(Insn::SetLine(line));
        let mut eval_end = None;
        if let Expr::Ident(name) = callee {
            if &**name == "eval" {
                // Runtime check: `eval` resolving in scope takes the
                // special form; otherwise fall through to an ordinary call
                // (which re-looks-up `eval`, exactly like the oracle).
                let ordinary = self.new_label();
                let end = self.new_label();
                self.emit_jump(Insn::EvalCheck(u32::MAX), ordinary);
                match args.first() {
                    Some(a) => self.expr(a),
                    None => {
                        let u = self.const_idx(crate::value::Value::Undefined);
                        self.emit(Insn::Const(u));
                    }
                }
                self.flush();
                self.emit(Insn::EvalInScope);
                self.emit_jump(Insn::Jump(u32::MAX), end);
                self.bind(ordinary);
                eval_end = Some(end);
            }
        }
        let (name, with_this) = match callee {
            Expr::Member { base, key, line } => {
                self.flush();
                self.emit(Insn::SetLine(*line));
                self.expr(base);
                let i = self.name_idx(key);
                self.flush();
                self.emit(Insn::GetMethod(i));
                (self.name_idx(key), true)
            }
            Expr::Index { base, index, line } => {
                self.flush();
                self.emit(Insn::SetLine(*line));
                self.expr(base);
                self.expr(index);
                self.flush();
                self.emit(Insn::GetIndexMethod);
                (self.name_idx(&Arc::from("<computed>")), true)
            }
            other => {
                self.expr(other);
                let n: Arc<str> = match other {
                    Expr::Ident(n) => n.clone(),
                    _ => Arc::from("<expression>"),
                };
                (self.name_idx(&n), false)
            }
        };
        for a in args {
            self.expr(a);
        }
        self.flush();
        self.emit(Insn::CallVal { argc: args.len() as u32, name, with_this });
        if let Some(end) = eval_end {
            self.bind(end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn compile_src(src: &str) -> Chunk {
        compile_program(&parse(src).unwrap())
    }

    /// Every jump operand and handler landing must be patched to a real
    /// instruction offset — no `u32::MAX` placeholder may survive.
    fn assert_patched(chunk: &Chunk) {
        let n = chunk.insns.len() as u32;
        let check = |t: u32, what: &str| {
            assert!(t < n, "{what} target {t} out of range (len {n})");
        };
        for insn in &chunk.insns {
            match insn {
                Insn::Jump(t)
                | Insn::JumpIfFalsy(t)
                | Insn::JumpFalsyKeep(t)
                | Insn::JumpTruthyKeep(t)
                | Insn::EvalCheck(t)
                | Insn::Finally(t)
                | Insn::IterNext { done: t, .. } => check(*t, "jump"),
                _ => {}
            }
        }
        for h in &chunk.handlers {
            assert!(h.start < h.end && h.end <= n, "bad range {h:?}");
            h.catch.into_iter().chain(h.finally).for_each(|t| check(t, "handler"));
        }
    }

    #[test]
    fn jump_patching_covers_control_flow() {
        let chunk = compile_src(
            "var total = 0;
             for (var i = 0; i < 4; i++) {
                 if (i % 2 == 0) { continue; }
                 if (i == 3) { break; }
                 total += i;
             }
             while (total > 0) { total--; }
             var t = total ? 'y' : (total && 'n');
             t",
        );
        assert_patched(&chunk);
        assert!(chunk.insns.iter().any(|i| matches!(i, Insn::JumpIfFalsy(_))));
        assert!(chunk.insns.iter().any(|i| matches!(i, Insn::JumpFalsyKeep(_))));
    }

    /// Every definition reachable from `chunk`, with the chunk it was
    /// lowered to, outermost first.
    fn lowered(chunk: &Chunk, out: &mut Vec<(Arc<FunctionDef>, *const Chunk)>) {
        for def in &chunk.fns {
            let body = def.chunk.get().expect("lowered by the script's compile");
            assert_patched(body);
            out.push((def.clone(), body));
            lowered(body, out);
        }
    }

    #[test]
    fn compiling_a_script_lowers_every_nested_definition_once() {
        let program = parse(
            "function outer(x) {
                 var inner = function (y) { return y + 1; };
                 function later() { return 3; }
                 return inner(x) + (function () { return 2; })() + later();
             }
             outer(1)",
        )
        .unwrap();
        let top = compile_program(&program);
        assert!(matches!(top.insns[0], Insn::Hoist(0)), "root hoisting is compiled in");
        let mut defs = Vec::new();
        lowered(&top, &mut defs);
        // outer, then inner, the hoisted `later` and the IIFE inside it.
        let names: Vec<&str> = defs.iter().map(|(d, _)| &*d.name).collect();
        assert_eq!(names, ["outer", "later", "", ""]);
        // A second compile of the same program lowers its top level again
        // and no definition twice.
        compile_program(&program);
        for (def, at) in &defs {
            assert!(std::ptr::eq(def.chunk(), *at), "{} lowered twice", def.name);
        }
    }

    #[test]
    fn a_cloned_realm_runs_its_template_chunk() {
        use crate::object::Callable;
        use crate::Value;
        let cs = crate::compile::compile("function f(n) { return n + 1; }", "t.js").unwrap();
        let mut template = crate::Interp::new();
        template.engine = crate::vm::Engine::Vm;
        template.eval_compiled(&cs).unwrap();
        let mut page = template.clone_realm();
        let mut ran = Vec::new();
        for it in [&mut template, &mut page] {
            let f = it.get_prop(&Value::Obj(it.global), "f").unwrap();
            let Some(Callable::Script { def, .. }) = &it.heap.get(f.as_obj().unwrap()).call else {
                panic!("f is a script function");
            };
            let def = def.clone();
            assert_eq!(it.call(f, Value::Undefined, &[Value::Num(1.0)]).unwrap(), Value::Num(2.0));
            ran.push(def.chunk() as *const Chunk);
        }
        assert!(std::ptr::eq(ran[0], ran[1]), "one chunk per definition, not per realm");
        assert!(std::ptr::eq(ran[0], cs.chunk().fns[0].chunk()));
    }

    #[test]
    fn try_lowers_to_a_handler_table() {
        // `Chunk` keeps no statement: a `try` is instructions plus a
        // handler whose range covers the body and lands in the catch block.
        let chunk = compile_src("try { var x = 1; } catch (e) { x = 2; }");
        let top = &chunk;
        assert_patched(top);
        assert_eq!(top.handlers.len(), 1);
        let h = &top.handlers[0];
        assert_eq!(h.finally, None);
        let catch = h.catch.expect("catch landing") as usize;
        assert!(matches!(top.insns[catch], Insn::EnterCatch(_)));
        assert!(top.insns.iter().any(|i| matches!(i, Insn::ExitCatch)));
        // The statement's own charge is flushed before the guarded range.
        assert!(matches!(top.insns[h.start as usize - 1], Insn::Step(_)));
    }

    #[test]
    fn finally_is_compiled_once() {
        // `h()` once, and `g()` once for all three ways into its `finally`:
        // normal completion, the throw path and the `break`.
        let chunk = compile_src(
            "for (;;) { try { if (a) { break; } h(); } finally { g(); } }",
        );
        let top = &chunk;
        assert_patched(top);
        let calls = top.insns.iter().filter(|i| matches!(i, Insn::CallVal { .. })).count();
        assert_eq!(calls, 2);
        assert_eq!(top.insns.iter().filter(|i| matches!(i, Insn::EndFinally)).count(), 1);
        assert_eq!(top.handlers.len(), 1);
        let h = &top.handlers[0];
        assert_eq!(h.catch, None);
        // The throw path lands at the block itself, past the normal path's
        // `Finally` push.
        let at = h.finally.expect("finally landing") as usize;
        assert!(matches!(top.insns[at - 1], Insn::Finally(_)));
    }

    #[test]
    fn code_size_is_linear_in_finally_nesting() {
        // A `try` in a `finally`, nested 40 deep, with a `return` crossing
        // every level: one copy of each block, and O(depth) exit code.
        let depth = 40;
        let src = format!(
            "function f() {{ {} return g(); {} }}",
            "try { h(); } finally { ".repeat(depth),
            "}".repeat(depth)
        );
        let chunk = compile_src(&src);
        let body = chunk.fns[0].chunk();
        assert_patched(body);
        let calls = body.insns.iter().filter(|i| matches!(i, Insn::CallVal { .. })).count();
        assert_eq!(calls, depth + 1);
        assert!(body.insns.len() < 40 * depth, "{} insns", body.insns.len());
    }

    #[test]
    fn steps_are_coalesced_without_empty_charges() {
        let chunk = compile_src("1 + 2 * 3");
        for insn in &chunk.insns {
            if let Insn::Step(n) = insn {
                assert!(*n > 0, "Step(0) emitted");
            }
        }
        // Three literals and two operator nodes = five coalesced charges.
        let total: u32 = chunk
            .insns
            .iter()
            .map(|i| if let Insn::Step(n) = i { *n } else { 0 })
            .sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn for_in_lowers_to_iterator_instructions() {
        let chunk = compile_src("var o = {a: 1}; for (var k in o) { k; }");
        assert_patched(&chunk);
        let has = |f: fn(&Insn) -> bool| chunk.insns.iter().any(f);
        assert!(has(|i| matches!(i, Insn::IterKeys(_))));
        assert!(has(|i| matches!(i, Insn::IterNext { .. })));
        assert!(has(|i| matches!(i, Insn::IterEnd)));
    }
}
