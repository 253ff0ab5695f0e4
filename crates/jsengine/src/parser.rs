//! Recursive-descent parser for the MiniJS subset.
//!
//! The parser keeps the original source around so that every
//! [`FunctionDef`] records its verbatim source slice — this is what
//! `Function.prototype.toString` returns for script functions, and is the
//! signal websites use to detect OpenWPM's JavaScript wrappers (paper
//! Listing 1).

use std::sync::Arc;

use crate::ast::*;
use crate::error::EngineError;
use crate::lexer::{lex, Tok, Token};

/// Deepest nesting a script may have, in parser levels: each recursive
/// descent (statement, assignment, unary operand, binary right operand)
/// and each chain link (`a+b`, `.b`, `[i]`, `(…)`, `new`) is one level.
/// Lowering, both engines and `Drop` recurse on the AST, and a stack
/// overflow aborts the whole crawler where no `catch_unwind` can catch
/// it. A script at the limit runs on a 2 MiB thread in a debug build
/// (`tests/adversarial.rs`); generated page scripts nest 20 levels.
pub const MAX_NESTING: u32 = 128;

/// Parse a full program.
pub fn parse(src: &str) -> Result<Program, EngineError> {
    let tokens = lex(src)
        .map_err(|e| EngineError::Parse { line: e.line, message: e.message })?;
    let mut p = Parser {
        src,
        tokens,
        pos: 0,
        depth: 0,
        height: 0,
    };
    let mut body = Vec::new();
    while !p.at(&Tok::Eof) {
        body.push(p.statement()?);
    }
    Ok(Program { body })
}

struct Parser<'a> {
    src: &'a str,
    tokens: Vec<Token>,
    pos: usize,
    /// Nesting levels entered by the recursive descent.
    depth: u32,
    /// Deepest level of the tree built so far in the innermost nesting
    /// level: `depth` plus the chain links under it.
    height: u32,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &Tok {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    fn at(&self, t: &Tok) -> bool {
        self.peek() == t
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.at(t) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> Result<Token, EngineError> {
        if self.at(t) {
            Ok(self.bump())
        } else {
            Err(self.err(format!("expected {:?}, found {:?}", t, self.peek())))
        }
    }

    fn err(&self, message: impl Into<String>) -> EngineError {
        EngineError::Parse { line: self.line(), message: message.into() }
    }

    /// `level`, or a syntax error once it passes [`MAX_NESTING`].
    fn budget(&self, level: u32) -> Result<u32, EngineError> {
        if level > MAX_NESTING {
            return Err(self.err(format!("script nests deeper than {MAX_NESTING} levels")));
        }
        Ok(level)
    }

    /// Run `parse` one nesting level deeper.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        self.depth = self.budget(self.depth + 1)?;
        let outer = std::mem::replace(&mut self.height, self.depth);
        let parsed = parse(self);
        self.depth -= 1;
        self.height = self.height.max(outer);
        parsed
    }

    /// Account for one link of a loop-built chain: the node about to wrap
    /// everything parsed so far at this level sits one level above it.
    fn link(&mut self) -> Result<(), EngineError> {
        self.height = self.budget(self.height + 1)?;
        Ok(())
    }

    fn ident(&mut self) -> Result<Arc<str>, EngineError> {
        match self.peek().clone() {
            Tok::Ident(name) => {
                self.bump();
                Ok(name)
            }
            // Contextual keywords usable as identifiers in the corpus.
            Tok::Of => {
                self.bump();
                Ok(Arc::from("of"))
            }
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    // ---------------------------------------------------------- statements

    fn statement(&mut self) -> Result<Stmt, EngineError> {
        self.nested(Self::statement_here)
    }

    fn statement_here(&mut self) -> Result<Stmt, EngineError> {
        match self.peek().clone() {
            Tok::Semi => {
                self.bump();
                Ok(Stmt::Empty)
            }
            Tok::LBrace => {
                self.bump();
                let body = self.block_body()?;
                Ok(Stmt::Block(body))
            }
            Tok::Var | Tok::Let | Tok::Const => {
                let stmt = self.var_decl()?;
                self.eat(&Tok::Semi);
                Ok(stmt)
            }
            Tok::Function => {
                let def = self.function(true)?;
                Ok(Stmt::FunctionDecl(def))
            }
            Tok::Return => {
                self.bump();
                let value = if self.at(&Tok::Semi) || self.at(&Tok::RBrace) || self.at(&Tok::Eof)
                {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.eat(&Tok::Semi);
                Ok(Stmt::Return(value))
            }
            Tok::If => self.if_stmt(),
            Tok::While => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let cond = self.expression()?;
                self.expect(&Tok::RParen)?;
                let body = self.stmt_as_block()?;
                Ok(Stmt::While { cond, body })
            }
            Tok::For => self.for_stmt(),
            Tok::Break => {
                self.bump();
                self.eat(&Tok::Semi);
                Ok(Stmt::Break)
            }
            Tok::Continue => {
                self.bump();
                self.eat(&Tok::Semi);
                Ok(Stmt::Continue)
            }
            Tok::Throw => {
                let line = self.line();
                self.bump();
                let e = self.expression()?;
                self.eat(&Tok::Semi);
                Ok(Stmt::Throw(e, line))
            }
            Tok::Try => self.try_stmt(),
            _ => {
                let e = self.expression()?;
                self.eat(&Tok::Semi);
                Ok(Stmt::Expr(e))
            }
        }
    }

    /// A `var`/`let`/`const` declaration list (single statement, possibly
    /// multiple declarators) — returns a Block when more than one.
    fn var_decl(&mut self) -> Result<Stmt, EngineError> {
        self.bump(); // var/let/const
        let mut decls = Vec::new();
        loop {
            let name = self.ident()?;
            let init = if self.eat(&Tok::Assign) {
                Some(self.assignment()?)
            } else {
                None
            };
            decls.push(Stmt::VarDecl { name, init });
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        if decls.len() == 1 {
            Ok(decls.pop().unwrap())
        } else {
            Ok(Stmt::Block(decls))
        }
    }

    fn if_stmt(&mut self) -> Result<Stmt, EngineError> {
        self.expect(&Tok::If)?;
        self.expect(&Tok::LParen)?;
        let cond = self.expression()?;
        self.expect(&Tok::RParen)?;
        let then = self.stmt_as_block()?;
        let otherwise = if self.eat(&Tok::Else) {
            Some(self.stmt_as_block()?)
        } else {
            None
        };
        Ok(Stmt::If { cond, then, otherwise })
    }

    fn for_stmt(&mut self) -> Result<Stmt, EngineError> {
        self.expect(&Tok::For)?;
        self.expect(&Tok::LParen)?;
        // for (var k in obj) / for (var v of arr) / classic for.
        if matches!(self.peek(), Tok::Var | Tok::Let | Tok::Const) {
            // Look ahead to distinguish for-in/of from classic with decl.
            if let Tok::Ident(_) = self.peek2() {
                let save = self.pos;
                self.bump(); // var
                let var = self.ident()?;
                if self.eat(&Tok::In) {
                    let object = self.expression()?;
                    self.expect(&Tok::RParen)?;
                    let body = self.stmt_as_block()?;
                    return Ok(Stmt::ForIn { var, object, body });
                }
                if self.eat(&Tok::Of) {
                    let object = self.expression()?;
                    self.expect(&Tok::RParen)?;
                    let body = self.stmt_as_block()?;
                    return Ok(Stmt::ForOf { var, object, body });
                }
                self.pos = save;
            }
        } else if let Tok::Ident(_) = self.peek() {
            // `for (k in obj)` without declaration.
            if matches!(self.peek2(), Tok::In | Tok::Of) {
                let var = self.ident()?;
                let is_in = self.eat(&Tok::In);
                if !is_in {
                    self.expect(&Tok::Of)?;
                }
                let object = self.expression()?;
                self.expect(&Tok::RParen)?;
                let body = self.stmt_as_block()?;
                return Ok(if is_in {
                    Stmt::ForIn { var, object, body }
                } else {
                    Stmt::ForOf { var, object, body }
                });
            }
        }
        // Classic for.
        let init = if self.at(&Tok::Semi) {
            self.bump();
            None
        } else if matches!(self.peek(), Tok::Var | Tok::Let | Tok::Const) {
            let d = self.var_decl()?;
            self.expect(&Tok::Semi)?;
            Some(Box::new(d))
        } else {
            let e = self.expression()?;
            self.expect(&Tok::Semi)?;
            Some(Box::new(Stmt::Expr(e)))
        };
        let cond = if self.at(&Tok::Semi) { None } else { Some(self.expression()?) };
        self.expect(&Tok::Semi)?;
        let update = if self.at(&Tok::RParen) { None } else { Some(self.expression()?) };
        self.expect(&Tok::RParen)?;
        let body = self.stmt_as_block()?;
        Ok(Stmt::For { init, cond, update, body })
    }

    fn try_stmt(&mut self) -> Result<Stmt, EngineError> {
        self.expect(&Tok::Try)?;
        self.expect(&Tok::LBrace)?;
        let body = self.block_body()?;
        let catch = if self.eat(&Tok::Catch) {
            let param = if self.eat(&Tok::LParen) {
                let name = self.ident()?;
                self.expect(&Tok::RParen)?;
                name
            } else {
                Arc::from("_e")
            };
            self.expect(&Tok::LBrace)?;
            let cbody = self.block_body()?;
            Some((param, cbody))
        } else {
            None
        };
        let finally = if self.eat(&Tok::Finally) {
            self.expect(&Tok::LBrace)?;
            Some(self.block_body()?)
        } else {
            None
        };
        if catch.is_none() && finally.is_none() {
            return Err(self.err("try without catch or finally"));
        }
        Ok(Stmt::Try { body, catch, finally })
    }

    fn block_body(&mut self) -> Result<Vec<Stmt>, EngineError> {
        let mut body = Vec::new();
        while !self.at(&Tok::RBrace) {
            if self.at(&Tok::Eof) {
                return Err(self.err("unexpected end of input in block"));
            }
            body.push(self.statement()?);
        }
        self.expect(&Tok::RBrace)?;
        Ok(body)
    }

    fn stmt_as_block(&mut self) -> Result<Vec<Stmt>, EngineError> {
        if self.eat(&Tok::LBrace) {
            self.block_body()
        } else {
            Ok(vec![self.statement()?])
        }
    }

    // --------------------------------------------------------- expressions

    fn expression(&mut self) -> Result<Expr, EngineError> {
        let first = self.assignment()?;
        if self.at(&Tok::Comma) {
            let mut seq = vec![first];
            while self.eat(&Tok::Comma) {
                seq.push(self.assignment()?);
            }
            Ok(Expr::Sequence(seq))
        } else {
            Ok(first)
        }
    }

    fn assignment(&mut self) -> Result<Expr, EngineError> {
        self.nested(Self::assignment_here)
    }

    fn assignment_here(&mut self) -> Result<Expr, EngineError> {
        // Arrow functions: `x => ...` and `(a, b) => ...`.
        if let Some(arrow) = self.try_arrow()? {
            return Ok(arrow);
        }
        let left = self.ternary()?;
        let op = match self.peek() {
            Tok::Assign => AssignOp::Assign,
            Tok::PlusAssign => AssignOp::Add,
            Tok::MinusAssign => AssignOp::Sub,
            Tok::StarAssign => AssignOp::Mul,
            Tok::SlashAssign => AssignOp::Div,
            _ => return Ok(left),
        };
        self.bump();
        let target = self.as_target(left)?;
        let value = self.assignment()?;
        Ok(Expr::Assign { op, target, value: Box::new(value) })
    }

    fn as_target(&self, e: Expr) -> Result<Target, EngineError> {
        match e {
            Expr::Ident(name) => Ok(Target::Ident(name)),
            Expr::Member { base, key, .. } => Ok(Target::Member(base, key)),
            Expr::Index { base, index, .. } => Ok(Target::Index(base, index)),
            _ => Err(self.err("invalid assignment target")),
        }
    }

    /// Try to parse an arrow function at the current position; restores the
    /// cursor on failure.
    fn try_arrow(&mut self) -> Result<Option<Expr>, EngineError> {
        let save = self.pos;
        let start_tok = self.tokens[self.pos].start;
        let line = self.line();
        let params: Vec<Arc<str>> = if let Tok::Ident(name) = self.peek().clone() {
            if *self.peek2() != Tok::Arrow {
                return Ok(None);
            }
            self.bump();
            vec![name]
        } else if self.at(&Tok::LParen) {
            // Scan ahead: `(` ident-list `)` `=>`.
            let mut params = Vec::new();
            self.bump();
            loop {
                match self.peek().clone() {
                    Tok::RParen => {
                        self.bump();
                        break;
                    }
                    Tok::Ident(name) => {
                        self.bump();
                        params.push(name);
                        if !self.eat(&Tok::Comma) && !self.at(&Tok::RParen) {
                            self.pos = save;
                            return Ok(None);
                        }
                    }
                    _ => {
                        self.pos = save;
                        return Ok(None);
                    }
                }
            }
            if !self.at(&Tok::Arrow) {
                self.pos = save;
                return Ok(None);
            }
            params
        } else {
            return Ok(None);
        };
        self.expect(&Tok::Arrow)?;
        let body: Vec<Stmt> = if self.eat(&Tok::LBrace) {
            self.block_body()?
        } else {
            let e = self.assignment()?;
            vec![Stmt::Return(Some(e))]
        };
        let end = self.tokens[self.pos].start;
        let source: Arc<str> = Arc::from(self.src[start_tok..end].trim_end());
        Ok(Some(Expr::Function(Arc::new(FunctionDef {
            name: Arc::from(""),
            params,
            body: body.into(),
            source,
            line,
            is_arrow: true,
        }))))
    }

    fn ternary(&mut self) -> Result<Expr, EngineError> {
        let cond = self.binary(0)?;
        if self.eat(&Tok::Question) {
            let then = self.assignment()?;
            self.expect(&Tok::Colon)?;
            let otherwise = self.assignment()?;
            Ok(Expr::Ternary {
                cond: Box::new(cond),
                then: Box::new(then),
                otherwise: Box::new(otherwise),
            })
        } else {
            Ok(cond)
        }
    }

    /// Precedence-climbing binary expression parser.
    fn binary(&mut self, min_prec: u8) -> Result<Expr, EngineError> {
        let mut left = self.unary()?;
        loop {
            let (prec, op) = match self.peek() {
                Tok::OrOr => (1, None),
                Tok::AndAnd => (2, None),
                Tok::BitOr => (3, Some(BinOp::BitOr)),
                Tok::BitXor => (4, Some(BinOp::BitXor)),
                Tok::BitAnd => (5, Some(BinOp::BitAnd)),
                Tok::EqEq => (6, Some(BinOp::Eq)),
                Tok::NotEq => (6, Some(BinOp::NotEq)),
                Tok::EqEqEq => (6, Some(BinOp::StrictEq)),
                Tok::NotEqEq => (6, Some(BinOp::StrictNotEq)),
                Tok::Lt => (7, Some(BinOp::Lt)),
                Tok::Gt => (7, Some(BinOp::Gt)),
                Tok::Le => (7, Some(BinOp::Le)),
                Tok::Ge => (7, Some(BinOp::Ge)),
                Tok::In => (7, Some(BinOp::In)),
                Tok::Instanceof => (7, Some(BinOp::InstanceOf)),
                Tok::Shl => (8, Some(BinOp::Shl)),
                Tok::Shr => (8, Some(BinOp::Shr)),
                Tok::UShr => (8, Some(BinOp::UShr)),
                Tok::Plus => (9, Some(BinOp::Add)),
                Tok::Minus => (9, Some(BinOp::Sub)),
                Tok::Star => (10, Some(BinOp::Mul)),
                Tok::Slash => (10, Some(BinOp::Div)),
                Tok::Percent => (10, Some(BinOp::Rem)),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            let is_and = self.at(&Tok::AndAnd);
            self.bump();
            let right = self.nested(|p| p.binary(prec + 1))?;
            self.link()?;
            left = match op {
                Some(op) => Expr::Binary { op, left: Box::new(left), right: Box::new(right) },
                None => Expr::Logical { and: is_and, left: Box::new(left), right: Box::new(right) },
            };
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr, EngineError> {
        self.nested(Self::unary_here)
    }

    fn unary_here(&mut self) -> Result<Expr, EngineError> {
        let op = match self.peek() {
            Tok::Minus => Some(UnOp::Neg),
            Tok::Plus => Some(UnOp::Plus),
            Tok::Not => Some(UnOp::Not),
            Tok::Tilde => Some(UnOp::BitNot),
            Tok::Typeof => Some(UnOp::TypeOf),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let operand = self.unary()?;
            return Ok(Expr::Unary { op, operand: Box::new(operand) });
        }
        if self.at(&Tok::Delete) {
            self.bump();
            let e = self.unary()?;
            let target = self.as_target(e)?;
            return Ok(Expr::Delete(target));
        }
        if self.at(&Tok::PlusPlus) || self.at(&Tok::MinusMinus) {
            let inc = self.at(&Tok::PlusPlus);
            self.bump();
            let e = self.unary()?;
            let target = self.as_target(e)?;
            return Ok(Expr::Update { target, inc, prefix: true });
        }
        if self.at(&Tok::New) {
            let line = self.line();
            self.bump();
            // The callee is a member chain without call suffixes.
            let prim = self.primary()?;
            let callee = self.member_chain(prim)?;
            let args = if self.at(&Tok::LParen) { self.arguments()? } else { Vec::new() };
            self.link()?;
            let new_expr = Expr::New { callee: Box::new(callee), args, line };
            // Allow member access / calls on the construction result.
            return self.postfix_chain(new_expr);
        }
        let prim = self.primary()?;
        let chained = self.postfix_chain(prim)?;
        // Postfix update.
        if self.at(&Tok::PlusPlus) || self.at(&Tok::MinusMinus) {
            let inc = self.at(&Tok::PlusPlus);
            self.bump();
            self.link()?;
            let target = self.as_target(chained)?;
            return Ok(Expr::Update { target, inc, prefix: false });
        }
        Ok(chained)
    }

    fn member_chain(&mut self, mut base: Expr) -> Result<Expr, EngineError> {
        loop {
            if self.at(&Tok::Dot) {
                let line = self.line();
                self.bump();
                self.link()?;
                let key = self.member_name()?;
                base = Expr::Member { base: Box::new(base), key, line };
            } else if self.at(&Tok::LBracket) {
                let line = self.line();
                self.bump();
                let index = self.expression()?;
                self.expect(&Tok::RBracket)?;
                self.link()?;
                base = Expr::Index { base: Box::new(base), index: Box::new(index), line };
            } else {
                return Ok(base);
            }
        }
    }

    fn postfix_chain(&mut self, mut base: Expr) -> Result<Expr, EngineError> {
        loop {
            if self.at(&Tok::Dot) || self.at(&Tok::LBracket) {
                base = self.member_chain(base)?;
            } else if self.at(&Tok::LParen) {
                let line = self.line();
                let args = self.arguments()?;
                self.link()?;
                base = Expr::Call { callee: Box::new(base), args, line };
            } else {
                return Ok(base);
            }
        }
    }

    /// Member names may be keywords (`obj.delete` etc.).
    fn member_name(&mut self) -> Result<Arc<str>, EngineError> {
        let tok = self.bump();
        let name: Arc<str> = match tok.kind {
            Tok::Ident(name) => name,
            Tok::Delete => Arc::from("delete"),
            Tok::New => Arc::from("new"),
            Tok::In => Arc::from("in"),
            Tok::Of => Arc::from("of"),
            Tok::Catch => Arc::from("catch"),
            Tok::Typeof => Arc::from("typeof"),
            Tok::Throw => Arc::from("throw"),
            Tok::This => Arc::from("this"),
            Tok::Function => Arc::from("function"),
            Tok::Return => Arc::from("return"),
            Tok::Continue => Arc::from("continue"),
            Tok::For => Arc::from("for"),
            other => {
                return Err(EngineError::Parse {
                    line: tok.line,
                    message: format!("expected member name, found {other:?}"),
                })
            }
        };
        Ok(name)
    }

    fn arguments(&mut self) -> Result<Vec<Expr>, EngineError> {
        self.expect(&Tok::LParen)?;
        let mut args = Vec::new();
        if !self.at(&Tok::RParen) {
            loop {
                args.push(self.assignment()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen)?;
        Ok(args)
    }

    fn primary(&mut self) -> Result<Expr, EngineError> {
        let tok = self.tokens[self.pos].clone();
        match tok.kind {
            Tok::Num(n) => {
                self.bump();
                Ok(Expr::Num(n))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Expr::Str(s))
            }
            Tok::True => {
                self.bump();
                Ok(Expr::Bool(true))
            }
            Tok::False => {
                self.bump();
                Ok(Expr::Bool(false))
            }
            Tok::Null => {
                self.bump();
                Ok(Expr::Null)
            }
            Tok::Undefined => {
                self.bump();
                Ok(Expr::Undefined)
            }
            Tok::This => {
                self.bump();
                Ok(Expr::This)
            }
            Tok::Ident(name) => {
                self.bump();
                Ok(Expr::Ident(name))
            }
            Tok::Of => {
                self.bump();
                Ok(Expr::Ident(Arc::from("of")))
            }
            Tok::LParen => {
                self.bump();
                let e = self.expression()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Tok::LBracket => self.array_literal(),
            Tok::LBrace => self.object_literal(),
            Tok::Function => Ok(Expr::Function(self.function(false)?)),
            other => Err(self.err(format!("unexpected token {other:?}"))),
        }
    }

    fn array_literal(&mut self) -> Result<Expr, EngineError> {
        self.expect(&Tok::LBracket)?;
        let mut items = Vec::new();
        if !self.at(&Tok::RBracket) {
            loop {
                items.push(self.assignment()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
                if self.at(&Tok::RBracket) {
                    break; // trailing comma
                }
            }
        }
        self.expect(&Tok::RBracket)?;
        Ok(Expr::Array(items))
    }

    fn object_literal(&mut self) -> Result<Expr, EngineError> {
        self.expect(&Tok::LBrace)?;
        let mut pairs = Vec::new();
        if !self.at(&Tok::RBrace) {
            loop {
                let key: Arc<str> = match self.peek().clone() {
                    Tok::Str(s) => {
                        self.bump();
                        s
                    }
                    Tok::Num(n) => {
                        self.bump();
                        Arc::from(crate::value::number_to_string(n))
                    }
                    _ => self.member_name()?,
                };
                let value = if self.eat(&Tok::Colon) {
                    self.assignment()?
                } else {
                    // Shorthand `{key}`.
                    Expr::Ident(key.clone())
                };
                pairs.push((key, value));
                if !self.eat(&Tok::Comma) {
                    break;
                }
                if self.at(&Tok::RBrace) {
                    break; // trailing comma
                }
            }
        }
        self.expect(&Tok::RBrace)?;
        Ok(Expr::Object(pairs))
    }

    /// Parse a `function name(params) { body }`; `require_name` for
    /// declarations.
    fn function(&mut self, require_name: bool) -> Result<Arc<FunctionDef>, EngineError> {
        let start = self.tokens[self.pos].start;
        let line = self.line();
        self.expect(&Tok::Function)?;
        let name: Arc<str> = if let Tok::Ident(_) = self.peek() {
            self.ident()?
        } else if require_name {
            return Err(self.err("function declaration requires a name"));
        } else {
            Arc::from("")
        };
        self.expect(&Tok::LParen)?;
        let mut params = Vec::new();
        if !self.at(&Tok::RParen) {
            loop {
                params.push(self.ident()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen)?;
        self.expect(&Tok::LBrace)?;
        let body = self.block_body()?;
        let end = self.tokens[self.pos].start;
        // The function source runs from the `function` keyword through the
        // closing brace; the next token's start bounds it, so trim trailing
        // whitespace off the slice.
        let source: Arc<str> = Arc::from(self.src[start..end].trim_end());
        Ok(Arc::new(FunctionDef {
            name,
            params,
            body: body.into(),
            source,
            line,
            is_arrow: false,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(src: &str) -> Program {
        parse(src).unwrap()
    }

    #[test]
    fn parses_var_and_expr() {
        let p = ok("var x = 1 + 2 * 3; x");
        assert_eq!(p.body.len(), 2);
    }

    #[test]
    fn function_source_is_verbatim() {
        let src = "function probe(a) {\n  return a + 1;\n}";
        let p = ok(src);
        match &p.body[0] {
            Stmt::FunctionDecl(def) => assert_eq!(&*def.source, src),
            other => panic!("expected function decl, got {other:?}"),
        }
    }

    #[test]
    fn member_call_chain() {
        ok("navigator.userAgent.indexOf('Headless') !== -1");
        ok("window['navigator']['webdriver']");
        ok("a.b.c(1, 2)(3)[4].e");
    }

    #[test]
    fn for_in_variants() {
        ok("for (var k in navigator) { count = count + 1; }");
        ok("for (k in window) probe(k);");
        ok("for (var v of list) { sum += v; }");
    }

    #[test]
    fn arrow_functions() {
        ok("var f = x => x * 2;");
        ok("var g = (a, b) => { return a + b; };");
        ok("document.dispatchEvent = (event) => { blocked.push(event); };");
        ok("var h = () => 42;");
    }

    #[test]
    fn try_catch_throw() {
        ok("try { risky(); } catch (e) { seen = e.stack; } finally { done = true; }");
        ok("try { x(); } catch { y(); }");
        ok("throw new Error('boom');");
    }

    #[test]
    fn object_and_array_literals() {
        ok("var o = { a: 1, 'b c': 2, 3: 'x', shorthand, };");
        ok("var a = [1, 'two', [3], { four: 4 },];");
    }

    #[test]
    fn new_with_member_access() {
        ok("new Error('x').stack");
        ok("var e = new window.CustomEvent('t', { detail: d });");
    }

    #[test]
    fn delete_and_typeof() {
        ok("delete window.getInstrumentJS;");
        ok("typeof navigator.webdriver === 'undefined'");
        ok("'webdriver' in navigator");
    }

    #[test]
    fn update_expressions() {
        ok("i++; ++i; i--; --i; a[i]++;");
    }

    #[test]
    fn parse_error_reports_line() {
        match parse("var x = 1;\nvar = 2;") {
            Err(EngineError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn ternary_and_sequence() {
        ok("var r = cond ? a : b;");
        ok("x = (a, b, c);");
    }

    #[test]
    fn keywords_as_member_names() {
        ok("obj.delete(); obj.new; obj.in; obj.catch(fn);");
    }
}
