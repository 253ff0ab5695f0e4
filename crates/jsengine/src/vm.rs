//! The bytecode VM: a stack dispatch loop over [`crate::bytecode::Chunk`]s,
//! plus the backend-agnostic [`Engine`] choice (selected per crawl by a
//! [`JsCtx`](crate::JsCtx)).
//!
//! The VM reuses the interpreter's entire runtime — heap, scopes, frames,
//! builtins, step budget, interpreter counts — and only replaces the *walk*:
//! where the tree-walker recurses over the AST, `run_chunk` advances a
//! program counter over flat instructions. Everything observable (error
//! objects and messages, `Error.stack` lines, heap allocation order, step
//! charges, per-builtin dispatch counts) is routed through the same
//! interpreter methods the tree-walker calls, which is what makes the two
//! backends byte-identical; see `bytecode.rs` for the compilation contract
//! and `tests/differential.rs` for the property harness that enforces it.

use std::sync::Arc;

use crate::bytecode::{Chunk, Insn};
use crate::error::Thrown;
use crate::interp::{to_int32, ErrorKind, Interp, Scope, ScopeRef};
use crate::object::Property;
use crate::value::Value;

/// Which execution backend an [`Interp`] uses for script code. The
/// tree-walking interpreter is the reference oracle; the bytecode VM is the
/// production backend, and runs every statement of a script under it —
/// `eval` bodies included. Both engines share every runtime path below the
/// statement walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// AST tree-walker (the reference oracle).
    Tree,
    /// Bytecode compiler + stack VM (the default).
    Vm,
}

/// Live `for`-`in` / `for`-`of` iteration state (per chunk activation, so
/// an error or `return` tears it down with the frame).
enum Iter {
    Keys { keys: Vec<Arc<str>>, idx: usize },
    Items { items: Vec<Value>, idx: usize },
}

/// Execute one chunk in `scope`. The caller owns the surrounding frame
/// bookkeeping (`Interp::call` / `eval_program` push and pop the frame for
/// both engines), so an `Err` propagates with the interpreter state exactly
/// as the tree-walker would leave it.
pub(crate) fn run_chunk(it: &mut Interp, chunk: &Chunk, scope: &ScopeRef) -> Result<Value, Thrown> {
    // Value stacks are pooled on the interpreter so a function call does
    // not pay a heap allocation per activation; recursion depth (bounded
    // by `max_depth`) bounds the pool.
    let mut stack = it.vm_stacks.pop().unwrap_or_default();
    let mut regs = Regs {
        pc: 0,
        scope: scope.clone(),
        outer: Vec::new(),
        iters: Vec::new(),
        completions: Vec::new(),
        last: Value::Undefined,
        ret: Value::Undefined,
    };
    let mut run = || loop {
        match dispatch(it, chunk, &mut regs, &mut stack) {
            Err(t) => regs.land(chunk, t, &mut stack)?,
            done => return done,
        }
    };
    let r = run();
    stack.clear();
    it.vm_stacks.push(stack);
    r
}

/// One chunk activation's registers, besides its value stack.
struct Regs {
    pc: usize,
    /// The innermost scope: the activation's, or a `catch` block's.
    scope: ScopeRef,
    /// The scopes the live `catch` scopes shadow, outermost first.
    outer: Vec<ScopeRef>,
    iters: Vec<Iter>,
    /// The completions pending on the `finally` blocks running: resume at
    /// an instruction, or re-raise an error.
    completions: Vec<Result<u32, Thrown>>,
    /// The top-level completion value.
    last: Value,
    /// The value of a `return` crossing `finally` blocks.
    ret: Value,
}

impl Regs {
    /// Route `t`, raised by the instruction before `pc`, to the innermost
    /// handler covering it: unwind to the handler's depths and land at its
    /// `catch` (the value pushed) or its `finally` (the error pending).
    /// A step-budget error is never caught, as in the oracle, but its
    /// `finally` blocks run. With no such handler, `t` leaves the chunk.
    fn land(&mut self, chunk: &Chunk, t: Thrown, stack: &mut Vec<Value>) -> Result<(), Thrown> {
        let at = self.pc as u32 - 1;
        let budget = t.message.contains("step budget");
        let target = chunk.handlers.iter().find_map(|h| {
            let to = if budget { h.finally } else { h.catch.or(h.finally) };
            to.filter(|_| h.start <= at && at < h.end).map(|to| (h, to))
        });
        let Some((h, to)) = target else { return Err(t) };
        stack.clear();
        self.iters.truncate(h.iters as usize);
        self.completions.truncate(h.completions as usize);
        while self.outer.len() > h.scopes as usize {
            self.scope = self.outer.pop().expect("len > scopes");
        }
        if h.catch == Some(to) {
            stack.push(t.value);
        } else {
            self.completions.push(Err(t));
        }
        self.pc = to as usize;
        Ok(())
    }
}

/// The dispatch loop proper, on a borrowed (pooled) value stack. It returns
/// at the chunk's `Ret` or at the first error, which [`run_chunk`] routes
/// to a handler before re-entering; a failing instruction leaves `pc` just
/// past itself.
fn dispatch(
    it: &mut Interp,
    chunk: &Chunk,
    regs: &mut Regs,
    stack: &mut Vec<Value>,
) -> Result<Value, Thrown> {
    let Regs { pc, scope, outer, iters, completions, last, ret } = regs;
    loop {
        let insn = &chunk.insns[*pc];
        *pc += 1;
        match insn {
            Insn::Step(n) => it.charge_steps(*n)?,
            Insn::SetLine(n) => {
                if let Some(f) = it.stack.last_mut() {
                    f.line = *n;
                }
            }
            Insn::Const(i) => stack.push(chunk.consts[*i as usize].clone()),
            Insn::Dup => {
                let v = stack.last().expect("vm stack underflow").clone();
                stack.push(v);
            }
            Insn::Pop => {
                stack.pop();
            }
            Insn::Swap => {
                let n = stack.len();
                stack.swap(n - 1, n - 2);
            }
            Insn::Jump(t) => *pc = *t as usize,
            Insn::JumpIfFalsy(t) => {
                let v = stack.pop().expect("vm stack underflow");
                if !v.truthy() {
                    *pc = *t as usize;
                }
            }
            Insn::JumpFalsyKeep(t) => {
                if stack.last().expect("vm stack underflow").truthy() {
                    stack.pop();
                } else {
                    *pc = *t as usize;
                }
            }
            Insn::JumpTruthyKeep(t) => {
                if stack.last().expect("vm stack underflow").truthy() {
                    *pc = *t as usize;
                } else {
                    stack.pop();
                }
            }
            Insn::LoadThis => stack.push(it.resolve_this(scope)),
            Insn::LoadIdent(i) => {
                let i = *i as usize;
                match it.lookup_ident_fast(scope, chunk.atoms[i], &chunk.names[i]) {
                    Some(v) => stack.push(v),
                    None => {
                        return Err(it.throw_error(
                            ErrorKind::Reference,
                            &format!("{} is not defined", chunk.names[i]),
                        ))
                    }
                }
            }
            Insn::TypeOfIdent(i) => {
                let i = *i as usize;
                let v = match it.lookup_ident_fast(scope, chunk.atoms[i], &chunk.names[i]) {
                    Some(v) => Value::str(it.type_of(&v)),
                    None => Value::str("undefined"),
                };
                stack.push(v);
            }
            Insn::StoreIdent(i) => {
                let i = *i as usize;
                let v = stack.pop().expect("vm stack underflow");
                it.assign_ident_fast(scope, chunk.atoms[i], &chunk.names[i], v)?;
            }
            Insn::Declare(i) => {
                let i = *i as usize;
                let v = stack.pop().expect("vm stack underflow");
                it.declare_fast(scope, chunk.atoms[i], &chunk.names[i], v);
            }
            Insn::Hoist(i) => {
                let def = chunk.fns[*i as usize].clone();
                let name = def.name.clone();
                let f = it.alloc_script_fn(def, scope.clone());
                it.declare(scope, name, Value::Obj(f));
            }
            Insn::MakeFunction(i) => {
                let def = chunk.fns[*i as usize].clone();
                let f = it.alloc_script_fn(def, scope.clone());
                stack.push(Value::Obj(f));
            }
            Insn::MakeArray(n) => {
                let vals = stack.split_off(stack.len() - *n as usize);
                let id = it.alloc_array(vals);
                stack.push(Value::Obj(id));
            }
            Insn::AllocObject => {
                let id = it.alloc_object();
                stack.push(Value::Obj(id));
            }
            Insn::SetOwnProp(i) => {
                let v = stack.pop().expect("vm stack underflow");
                if let Some(Value::Obj(id)) = stack.last() {
                    it.heap
                        .get_mut(*id)
                        .props
                        .insert(chunk.names[*i as usize].clone(), Property::data(v));
                }
            }
            Insn::GetProp(i) => {
                let base = stack.pop().expect("vm stack underflow");
                let r = it.get_prop(&base, &chunk.names[*i as usize])?;
                stack.push(r);
            }
            Insn::GetIndex => {
                let index = stack.pop().expect("vm stack underflow");
                let base = stack.pop().expect("vm stack underflow");
                let key = it.to_string_value(&index)?;
                let r = it.get_prop(&base, &key)?;
                stack.push(r);
            }
            Insn::SetProp(i) => {
                let base = stack.pop().expect("vm stack underflow");
                let v = stack.pop().expect("vm stack underflow");
                it.set_prop(&base, &chunk.names[*i as usize], v)?;
            }
            Insn::SetIndex => {
                let index = stack.pop().expect("vm stack underflow");
                let base = stack.pop().expect("vm stack underflow");
                let v = stack.pop().expect("vm stack underflow");
                let key = it.to_string_value(&index)?;
                it.set_prop(&base, &key, v)?;
            }
            Insn::DeleteProp(i) => {
                let base = stack.pop().expect("vm stack underflow");
                let r = it.delete_prop(&base, &chunk.names[*i as usize]);
                stack.push(Value::Bool(r));
            }
            Insn::DeleteIndex => {
                let index = stack.pop().expect("vm stack underflow");
                let base = stack.pop().expect("vm stack underflow");
                let key = it.to_string_value(&index)?;
                let r = it.delete_prop(&base, &key);
                stack.push(Value::Bool(r));
            }
            Insn::BinOp(op) => {
                let r = stack.pop().expect("vm stack underflow");
                let l = stack.pop().expect("vm stack underflow");
                // Numeric fast path: `Interp::binary_op` is pure (no heap
                // access, no conversions with side effects) when both
                // operands are numbers, so these arms are exactly its
                // `(Num, Num)` results without the call.
                let v = if let (&Value::Num(a), &Value::Num(b)) = (&l, &r) {
                    use crate::ast::BinOp::*;
                    match op {
                        Add => Value::Num(a + b),
                        Sub => Value::Num(a - b),
                        Mul => Value::Num(a * b),
                        Div => Value::Num(a / b),
                        Rem => Value::Num(a % b),
                        Lt => Value::Bool(a < b),
                        Gt => Value::Bool(a > b),
                        Le => Value::Bool(a <= b),
                        Ge => Value::Bool(a >= b),
                        StrictEq | Eq => Value::Bool(a == b),
                        StrictNotEq | NotEq => Value::Bool(a != b),
                        _ => it.binary_op(*op, l, r)?,
                    }
                } else {
                    it.binary_op(*op, l, r)?
                };
                stack.push(v);
            }
            Insn::UnOp(op) => {
                let v = stack.pop().expect("vm stack underflow");
                let r = match op {
                    crate::ast::UnOp::Neg => Value::Num(-it.to_number_value(&v)?),
                    crate::ast::UnOp::Plus => Value::Num(it.to_number_value(&v)?),
                    crate::ast::UnOp::Not => Value::Bool(!v.truthy()),
                    crate::ast::UnOp::BitNot => {
                        Value::Num(!to_int32(it.to_number_value(&v)?) as f64)
                    }
                    crate::ast::UnOp::TypeOf => Value::str(it.type_of(&v)),
                    crate::ast::UnOp::Void => Value::Undefined,
                };
                stack.push(r);
            }
            Insn::ToNumber => {
                match stack.last().expect("vm stack underflow") {
                    // Already a number: conversion is the identity, with no
                    // observable work — leave it in place.
                    Value::Num(_) => {}
                    _ => {
                        let v = stack.pop().expect("vm stack underflow");
                        let n = it.to_number_value(&v)?;
                        stack.push(Value::Num(n));
                    }
                }
            }
            Insn::IncDec(inc) => {
                let Some(Value::Num(n)) = stack.pop() else {
                    unreachable!("IncDec on non-number")
                };
                stack.push(Value::Num(if *inc { n + 1.0 } else { n - 1.0 }));
            }
            Insn::GetMethod(i) => {
                let base = stack.last().expect("vm stack underflow").clone();
                let f = it.get_prop(&base, &chunk.names[*i as usize])?;
                stack.push(f);
            }
            Insn::GetIndexMethod => {
                let index = stack.pop().expect("vm stack underflow");
                let base = stack.last().expect("vm stack underflow").clone();
                let key = it.to_string_value(&index)?;
                let f = it.get_prop(&base, &key)?;
                stack.push(f);
            }
            Insn::CallVal { argc, name, with_this } => {
                let args = stack.split_off(stack.len() - *argc as usize);
                let func = stack.pop().expect("vm stack underflow");
                let this = if *with_this {
                    stack.pop().expect("vm stack underflow")
                } else {
                    Value::Obj(it.global)
                };
                if !matches!(func, Value::Obj(_)) {
                    let name = &chunk.names[*name as usize];
                    return Err(
                        it.throw_error(ErrorKind::Type, &format!("{name} is not a function"))
                    );
                }
                let r = it.call(func, this, &args)?;
                stack.push(r);
            }
            Insn::New { argc } => {
                let args = stack.split_off(stack.len() - *argc as usize);
                let ctor = stack.pop().expect("vm stack underflow");
                let r = it.construct(ctor, &args)?;
                stack.push(r);
            }
            Insn::EvalCheck(t) => {
                if it.lookup_ident(scope, "eval").is_none() {
                    *pc = *t as usize;
                }
            }
            Insn::EvalInScope => {
                let arg = stack.pop().expect("vm stack underflow");
                let r = it.eval_in_scope(arg, scope)?;
                stack.push(r);
            }
            Insn::ThrowInsn => {
                let v = stack.pop().expect("vm stack underflow");
                let msg = match &v {
                    Value::Obj(_) => {
                        let m = it.get_prop(&v, "message").unwrap_or(Value::Undefined);
                        format!("Error: {m}")
                    }
                    prim => prim.to_string(),
                };
                return Err(Thrown::new(v, msg));
            }
            Insn::IterKeys(i) => {
                let v = stack.pop().expect("vm stack underflow");
                let keys = it.enumerate_keys(&v);
                iters.push(Iter::Keys { keys, idx: 0 });
                let i = *i as usize;
                it.declare_fast(scope, chunk.atoms[i], &chunk.names[i], Value::Undefined);
            }
            Insn::IterItems(i) => {
                let v = stack.pop().expect("vm stack underflow");
                let items: Vec<Value> = match &v {
                    Value::Obj(id) => match &it.heap.get(*id).elements {
                        Some(elems) => elems.clone(),
                        None => {
                            return Err(
                                it.throw_error(ErrorKind::Type, "value is not iterable")
                            )
                        }
                    },
                    Value::Str(s) => s.chars().map(|c| Value::str(c.to_string())).collect(),
                    _ => {
                        return Err(it.throw_error(ErrorKind::Type, "value is not iterable"))
                    }
                };
                iters.push(Iter::Items { items, idx: 0 });
                let i = *i as usize;
                it.declare_fast(scope, chunk.atoms[i], &chunk.names[i], Value::Undefined);
            }
            Insn::IterNext { var, done } => {
                let next = match iters.last_mut().expect("vm iter underflow") {
                    Iter::Keys { keys, idx } => {
                        if *idx < keys.len() {
                            let k = keys[*idx].clone();
                            *idx += 1;
                            Some(Value::Str(k))
                        } else {
                            None
                        }
                    }
                    Iter::Items { items, idx } => {
                        if *idx < items.len() {
                            let v = items[*idx].clone();
                            *idx += 1;
                            Some(v)
                        } else {
                            None
                        }
                    }
                };
                match next {
                    Some(v) => {
                        let var = *var as usize;
                        it.assign_ident_fast(scope, chunk.atoms[var], &chunk.names[var], v)?
                    }
                    None => *pc = *done as usize,
                }
            }
            Insn::IterEnd => {
                iters.pop();
            }
            Insn::EnterCatch(i) => {
                let v = stack.pop().expect("vm stack underflow");
                let mut vars = crate::atom::AtomMap::default();
                vars.insert(chunk.atoms[*i as usize], v);
                let child = Scope { vars, parent: Some(scope.clone()), this_val: None };
                outer.push(std::mem::replace(scope, std::rc::Rc::new(child.into())));
            }
            Insn::ExitCatch => *scope = outer.pop().expect("vm catch underflow"),
            Insn::Finally(t) => completions.push(Ok(*t)),
            Insn::EndFinally => match completions.pop().expect("vm completion underflow") {
                Ok(t) => *pc = t as usize,
                Err(t) => return Err(t),
            },
            Insn::DropFinally => {
                completions.pop();
            }
            Insn::SetRet => *ret = stack.pop().expect("vm stack underflow"),
            Insn::LoadRet => stack.push(ret.clone()),
            Insn::SetLast => *last = stack.pop().expect("vm stack underflow"),
            Insn::LoadLast => stack.push(last.clone()),
            Insn::Ret => return Ok(stack.pop().expect("vm stack underflow")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EngineError;

    fn vm_interp() -> Interp {
        let mut it = Interp::new();
        it.engine = Engine::Vm;
        it
    }

    #[test]
    fn frames_tear_down_on_thrown_errors() {
        let mut it = vm_interp();
        let err = it
            .eval_script(
                "function f() { missing; }\nfunction g() { f(); }\ng();",
                "teardown.js",
            )
            .unwrap_err();
        match err {
            EngineError::Uncaught(t) => {
                assert!(t.message.contains("missing is not defined"), "{}", t.message)
            }
            other => panic!("expected uncaught, got {other:?}"),
        }
        // The whole frame stack unwound, including g's and f's frames.
        assert!(it.stack.is_empty(), "stack not torn down: {:?}", it.stack);
        // And the realm still works.
        let v = it.eval_script("1 + 1", "after.js").unwrap();
        assert_eq!(v, Value::Num(2.0));
    }

    #[test]
    fn iterator_state_tears_down_with_the_frame() {
        let mut it = vm_interp();
        let err = it
            .eval_script(
                "function f(o) { for (var k in o) { if (k == 'b') { boom(); } } return 1; }
                 f({a: 1, b: 2, c: 3});",
                "iter.js",
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::Uncaught(_)));
        assert!(it.stack.is_empty());
        // A fresh call reuses the same compiled chunk and iterates cleanly.
        let v = it
            .eval_script(
                "function g(o) { var n = 0; for (var k in o) { n++; } return n; }
                 g({a: 1, b: 2});",
                "iter2.js",
            )
            .unwrap();
        assert_eq!(v, Value::Num(2.0));
    }

    #[test]
    fn engine_selection_is_per_interp() {
        let mut tree = Interp::new();
        tree.engine = Engine::Tree;
        let mut vm = Interp::new();
        vm.engine = Engine::Vm;
        let src = "var xs = [1, 2, 3];\nvar sum = 0;\nfor (var i = 0; i < xs.length; i++) { sum += xs[i]; }\nsum";
        let a = tree.eval_script(src, "sel.js").unwrap();
        let b = vm.eval_script(src, "sel.js").unwrap();
        assert_eq!(a, b);
        assert_eq!(b, Value::Num(6.0));
    }

    #[test]
    fn default_engine_round_trips() {
        // Entering a context selects the engine of every realm built under
        // it and touches no process state: the default is unchanged after.
        let before = crate::default_engine();
        for e in [Engine::Tree, Engine::Vm] {
            let ctx = crate::JsCtx { engine: e, ..crate::JsCtx::new() };
            let _g = ctx.enter();
            assert_eq!(crate::JsCtx::current().engine, e);
            assert_eq!(Interp::new().engine, e);
        }
        assert_eq!(crate::default_engine(), before);
        assert_eq!(crate::JsCtx::current().engine, before);
    }
}
