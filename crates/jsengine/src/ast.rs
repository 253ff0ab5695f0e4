//! Abstract syntax tree for the MiniJS subset.

use std::sync::{Arc, OnceLock};

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    NotEq,
    StrictEq,
    StrictNotEq,
    Lt,
    Gt,
    Le,
    Ge,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
    UShr,
    /// `in` operator (property existence).
    In,
    /// `instanceof`.
    InstanceOf,
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnOp {
    Neg,
    Plus,
    Not,
    BitNot,
    TypeOf,
    /// `void`-like: `delete` is handled as its own expression node.
    Void,
}

/// Assignment flavours.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AssignOp {
    Assign,
    Add,
    Sub,
    Mul,
    Div,
}

/// Assignment / update targets.
#[derive(Clone, Debug)]
pub enum Target {
    Ident(Arc<str>),
    /// `obj.key` — key resolved at parse time.
    Member(Box<Expr>, Arc<str>),
    /// `obj[expr]`.
    Index(Box<Expr>, Box<Expr>),
}

/// Expressions.
#[derive(Clone, Debug)]
pub enum Expr {
    Num(f64),
    Str(Arc<str>),
    Bool(bool),
    Null,
    Undefined,
    This,
    Ident(Arc<str>),
    /// Array literal.
    Array(Vec<Expr>),
    /// Object literal: `(key, value)` pairs.
    Object(Vec<(Arc<str>, Expr)>),
    /// Function expression (named or anonymous) and arrow functions.
    Function(Arc<FunctionDef>),
    /// `base.key`.
    Member { base: Box<Expr>, key: Arc<str>, line: u32 },
    /// `base[index]`.
    Index { base: Box<Expr>, index: Box<Expr>, line: u32 },
    /// Call; when the callee is a member expression, `this` binds to the
    /// base object — which is how instrumentation wrappers observe their
    /// receivers, and how `document.dispatchEvent` hijacking works.
    Call { callee: Box<Expr>, args: Vec<Expr>, line: u32 },
    /// `new Ctor(args)`.
    New { callee: Box<Expr>, args: Vec<Expr>, line: u32 },
    Binary { op: BinOp, left: Box<Expr>, right: Box<Expr> },
    /// Short-circuiting `&&` / `||`.
    Logical { and: bool, left: Box<Expr>, right: Box<Expr> },
    Unary { op: UnOp, operand: Box<Expr> },
    /// `delete obj.key` / `delete obj[k]`; `delete ident` evaluates to false.
    Delete(Target),
    Assign { op: AssignOp, target: Target, value: Box<Expr> },
    /// `++x`, `x++`, `--x`, `x--`.
    Update { target: Target, inc: bool, prefix: bool },
    Ternary { cond: Box<Expr>, then: Box<Expr>, otherwise: Box<Expr> },
    /// Comma sequence `(a, b)`.
    Sequence(Vec<Expr>),
}

/// A function definition shared between the AST and function objects (so
/// `Function.prototype.toString` can return the verbatim source slice).
#[derive(Debug)]
pub struct FunctionDef {
    /// Function name; empty for anonymous functions.
    pub name: Arc<str>,
    pub params: Vec<Arc<str>>,
    pub body: Arc<[Stmt]>,
    /// Verbatim source text of the definition (exactly what `toString`
    /// must return for script functions).
    pub source: Arc<str>,
    /// Line of the `function` keyword in the defining script.
    pub line: u32,
    /// Arrow functions bind `this` lexically.
    pub is_arrow: bool,
    /// The body's bytecode, lowered by the compile of the script that
    /// defines it; the VM reads it through [`FunctionDef::chunk`], never
    /// `body`.
    pub(crate) chunk: OnceLock<crate::bytecode::Chunk>,
}

/// Statements.
#[derive(Clone, Debug)]
pub enum Stmt {
    Expr(Expr),
    /// `var`/`let`/`const` — scoping is function-level for all three (the
    /// corpus does not rely on TDZ semantics).
    VarDecl { name: Arc<str>, init: Option<Expr> },
    FunctionDecl(Arc<FunctionDef>),
    Return(Option<Expr>),
    If { cond: Expr, then: Vec<Stmt>, otherwise: Option<Vec<Stmt>> },
    While { cond: Expr, body: Vec<Stmt> },
    /// Classic `for(init; cond; update)`.
    For {
        init: Option<Box<Stmt>>,
        cond: Option<Expr>,
        update: Option<Expr>,
        body: Vec<Stmt>,
    },
    /// `for (var k in obj)` — enumerates own + inherited enumerable keys.
    ForIn { var: Arc<str>, object: Expr, body: Vec<Stmt> },
    /// `for (var v of arr)` — arrays and strings.
    ForOf { var: Arc<str>, object: Expr, body: Vec<Stmt> },
    Break,
    Continue,
    Throw(Expr, u32),
    Try {
        body: Vec<Stmt>,
        catch: Option<(Arc<str>, Vec<Stmt>)>,
        finally: Option<Vec<Stmt>>,
    },
    Block(Vec<Stmt>),
    Empty,
}

/// A parsed program.
#[derive(Clone, Debug)]
pub struct Program {
    pub body: Vec<Stmt>,
}
