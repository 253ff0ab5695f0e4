//! A random-program generator over a bounded MiniJS grammar, shared by
//! the property tests that run one program under two configurations and
//! compare what they observe.
//!
//! Generated code references only variables and functions it declared
//! (plus deliberate `typeof` probes), builds a `log` array of its side
//! effects, and ends in one expression statement whose value joins the
//! log with a final expression.

use proplite::Rng;

const IDENT_POOL: &[&str] = &["a", "b", "c", "d", "e"];

pub struct Gen<'r> {
    pub rng: &'r mut Rng,
    /// Variables declared so far (generated code only references these, so
    /// every program is closed modulo deliberate `typeof` probes).
    vars: Vec<String>,
    funcs: Vec<(String, usize)>,
    pub out: String,
    depth: usize,
}

impl<'r> Gen<'r> {
    pub fn new(rng: &'r mut Rng) -> Gen<'r> {
        Gen { rng, vars: Vec::new(), funcs: Vec::new(), out: String::new(), depth: 0 }
    }

    fn fresh_var(&mut self) -> String {
        let name = format!("v{}", self.vars.len());
        self.vars.push(name.clone());
        name
    }

    fn var_ref(&mut self) -> String {
        if self.vars.is_empty() {
            return "0".to_string();
        }
        let i = self.rng.usize_in(0, self.vars.len());
        self.vars[i].clone()
    }

    fn expr(&mut self) -> String {
        self.depth += 1;
        let leaf = self.depth > 3;
        let pick = if leaf { self.rng.usize_in(0, 5) } else { self.rng.usize_in(0, 12) };
        let e = match pick {
            0 => format!("{}", self.rng.i64_in(-100, 100)),
            1 => format!("'{}'", self.rng.string_of("abcxyz", 0, 4)),
            2 => if self.rng.usize_in(0, 2) == 0 { "true" } else { "false" }.to_string(),
            3 | 4 => self.var_ref(),
            5 => {
                let op = ["+", "-", "*", "%", "<", ">", "==", "===", "&&", "||"]
                    [self.rng.usize_in(0, 10)];
                format!("({} {} {})", self.expr(), op, self.expr())
            }
            6 => {
                // `- ` keeps a negative operand from lexing as `--`.
                let op = ["!", "- ", "typeof "][self.rng.usize_in(0, 3)];
                format!("({}{})", op, self.expr())
            }
            7 => format!("({} ? {} : {})", self.expr(), self.expr(), self.expr()),
            8 => format!("('' + {}).length", self.expr()),
            9 => format!("Math.abs({})", self.expr()),
            10 => {
                if !self.funcs.is_empty() {
                    let i = self.rng.usize_in(0, self.funcs.len());
                    let (name, arity) = self.funcs[i].clone();
                    let args: Vec<String> = (0..arity).map(|_| self.expr()).collect();
                    format!("{name}({})", args.join(", "))
                } else {
                    self.var_ref()
                }
            }
            _ => {
                let probe = IDENT_POOL[self.rng.usize_in(0, IDENT_POOL.len())];
                format!("(typeof {probe})")
            }
        };
        self.depth -= 1;
        e
    }

    /// One statement as an `if` or `else` body. What it declares exists
    /// only when that branch runs, so later code must not reference it.
    fn branch(&mut self) {
        let (vars, funcs) = (self.vars.len(), self.funcs.len());
        self.stmts(1, false);
        self.vars.truncate(vars);
        self.funcs.truncate(funcs);
    }

    pub fn stmts(&mut self, n: usize, loops_ok: bool) {
        for _ in 0..n {
            self.stmt(loops_ok);
        }
    }

    fn stmt(&mut self, loops_ok: bool) {
        match self.rng.usize_in(0, if loops_ok { 10 } else { 7 }) {
            0 | 1 => {
                let e = self.expr();
                let v = self.fresh_var();
                self.out.push_str(&format!("var {v} = {e};\n"));
            }
            2 => {
                let v = self.var_ref();
                let e = self.expr();
                if v != "0" {
                    let op = ["=", "+=", "-="][self.rng.usize_in(0, 3)];
                    self.out.push_str(&format!("{v} {op} {e};\n"));
                }
            }
            3 => {
                let c = self.expr();
                self.out.push_str(&format!("if ({c}) {{\n"));
                self.branch();
                if self.rng.usize_in(0, 2) == 0 {
                    self.out.push_str("} else {\n");
                    self.branch();
                }
                self.out.push_str("}\n");
            }
            4 => {
                let e = self.expr();
                self.out.push_str(&format!("log.push('' + ({e}));\n"));
            }
            5 => self.function_decl(),
            6 => self.try_stmt(),
            7 => {
                let n = self.rng.usize_in(0, 6);
                let body = self.expr();
                let v = self.fresh_var();
                self.out.push_str(&format!(
                    "var {v} = 0;\nfor (var i{v} = 0; i{v} < {n}; i{v}++) \
                     {{ {v} += ('' + ({body})).length; }}\n"
                ));
            }
            8 => {
                let v = self.fresh_var();
                let start = self.rng.usize_in(0, 7);
                self.out.push_str(&format!(
                    "var {v} = {start};\nwhile ({v} > 0) {{ {v} -= 1; log.push('w' + {v}); }}\n"
                ));
            }
            _ => {
                // The keys first: an initializer cannot read its own name.
                let ks: Vec<String> = (0..self.rng.usize_in(1, 4))
                    .map(|i| format!("k{i}: {}", self.expr()))
                    .collect();
                let v = self.fresh_var();
                self.out.push_str(&format!("var {v} = {{ {} }};\n", ks.join(", ")));
                self.out.push_str(&format!(
                    "for (var kk in {v}) {{ log.push(kk + '=' + {v}[kk]); }}\n"
                ));
            }
        }
    }

    /// A function declaration in one of the shapes hoisting must get right:
    /// declared before its first call, called before its declaration, with
    /// a body that calls an inner declaration before declaring it, or an
    /// `eval` body that calls its own declaration first.
    fn function_decl(&mut self) {
        let name = format!("f{}", self.funcs.len());
        let arity = self.rng.usize_in(0, 3);
        let params = (0..arity).map(|i| format!("p{i}")).collect::<Vec<_>>().join(", ");
        let body_ret = self.expr();
        let decl = match self.rng.usize_in(0, 4) {
            0 => format!("function {name}({params}) {{ return {body_ret}; }}\n"),
            1 => {
                let args: Vec<String> = (0..arity).map(|_| self.expr()).collect();
                let v = self.fresh_var();
                format!(
                    "var {v} = {name}({});\nfunction {name}({params}) {{ return {body_ret}; }}\n",
                    args.join(", ")
                )
            }
            2 => format!(
                "function {name}({params}) {{ return h{name}(); \
                 function h{name}() {{ return {body_ret}; }} }}\n"
            ),
            _ => {
                let v = self.fresh_var();
                format!(
                    "function {name}({params}) {{ return {body_ret}; }}\n\
                     var {v} = eval(\"e{name}(); function e{name}() {{ return {body_ret}; }}\");\n"
                )
            }
        };
        self.out.push_str(&decl);
        self.funcs.push((name, arity));
    }

    /// A `try` statement in one of the shapes the VM lowers: `catch`,
    /// `finally`, nesting, throws from callees, from `catch` and from
    /// `finally`, jumps and returns through `finally`, `finally` overriding
    /// a completion, catch-scope captures, and `eval` bodies. Every shape
    /// records what ran in `log` or a fresh variable.
    fn try_stmt(&mut self) {
        let e = self.expr();
        let v = self.fresh_var();
        let thrown = self.rng.string_of("abc", 1, 3);
        let n = self.vars.len();
        let src = match self.rng.usize_in(0, 11) {
            0 => format!(
                "var {v} = 0;\ntry {{ if ({e}) {{ throw new Error('{thrown}'); }} \
                 {v} = 1; }} catch (err) {{ {v} = err.message; }}\n"
            ),
            1 => {
                // `finally` with or without `catch`, inside another `try`.
                let catch = if self.rng.bool() { "catch (err) { log.push('c' + err); }" } else { "" };
                format!(
                    "var {v} = 0;\ntry {{ try {{ if ({e}) {{ throw '{thrown}'; }} {v} = 1; }} \
                     {catch} finally {{ log.push('f' + {v}); }} }} catch (e2) {{ {v} = 'o' + e2; }}\n"
                )
            }
            2 => format!(
                // A throw from a callee, caught by the caller.
                "function t{n}(p) {{ if (p) {{ throw new Error('t' + p); }} return p; }}\n\
                 var {v} = 0;\ntry {{ {v} = t{n}({e}); }} catch (err) {{ {v} = 'c' + err.message; }}\n"
            ),
            3 => format!(
                // A throw inside `catch`, then inside `finally`.
                "var {v} = 0;\ntry {{ try {{ throw 1; }} catch (err) {{ throw '{thrown}' + err; }} \
                 finally {{ log.push('f'); if ({e}) {{ throw 'fin'; }} }} }} catch (e2) {{ {v} = e2; }}\n"
            ),
            4 => {
                let k = self.rng.usize_in(0, 5);
                let j = self.rng.usize_in(0, 5);
                format!(
                    "var {v} = 0;\nfor (var i{v} = 0; i{v} < 5; i{v}++) {{ try {{ \
                     if (i{v} == {k}) {{ break; }} if (i{v} == {j}) {{ continue; }} {v} += 1; }} \
                     finally {{ log.push('f' + i{v}); }} }}\n"
                )
            }
            5 => format!(
                // `break`/`continue` through `finally` in `for`-`in`.
                "var {v} = {{ a: 1, b: 2, c: 3 }};\nfor (var k{v} in {v}) {{ try {{ \
                 if (k{v} == 'b') {{ continue; }} if ({e}) {{ break; }} log.push(k{v}); }} \
                 finally {{ log.push('f' + k{v}); }} }}\n"
            ),
            6 => {
                let start = self.rng.usize_in(0, 5);
                format!(
                    "var {v} = {start};\nwhile ({v} > 0) {{ try {{ {v} -= 1; \
                     if ({v} == 1) {{ break; }} continue; }} finally {{ log.push('w' + {v}); }} }}\n"
                )
            }
            7 => format!(
                // `return` through `finally` (and a loop's iteration).
                "function r{n}(p) {{ for (var q in {{ x: 1 }}) {{ try {{ if (p) {{ return 'r' + q; }} \
                 log.push('x'); }} finally {{ log.push('rf'); }} }} return 'end'; }}\n\
                 var {v} = r{n}({e});\n"
            ),
            8 => format!(
                // `finally` overriding a `return` or a throw.
                "function o{n}(p) {{ try {{ if (p) {{ throw 'o'; }} return 'a'; }} \
                 finally {{ if ({e}) {{ return 'over'; }} }} }}\n\
                 var {v} = 0;\ntry {{ {v} = o{n}({e}); }} catch (err) {{ {v} = 'c' + err; }}\n\
                 for (;;) {{ try {{ throw 'lost'; }} finally {{ break; }} }}\n"
            ),
            9 => format!(
                // A closure over the catch parameter; `var` in a catch body.
                "var {v} = 0;\ntry {{ throw '{thrown}' + ({e}); }} catch (err) {{ var vc{v} = err; \
                 {v} = function () {{ return err + vc{v}; }}; }}\n\
                 log.push({v}() + (typeof vc{v}) + (typeof err));\n"
            ),
            _ => {
                // `eval` of an expression body and of a statement body.
                let body = if self.rng.bool() {
                    e.clone()
                } else {
                    format!(
                        "var ev{v} = {e}; try {{ if (ev{v}) {{ return 'er'; }} }} \
                         finally {{ log.push('ef'); }} ev{v}"
                    )
                };
                format!("var {v} = eval(\"{body}\");\n")
            }
        };
        self.out.push_str(&src);
    }

    pub fn program(mut self) -> String {
        self.out.push_str("var log = [];\n");
        let n = self.rng.usize_in(2, 9);
        self.stmts(n, true);
        let fin = self.expr();
        self.out.push_str(&format!("log.join('|') + '#' + ('' + ({fin}))\n"));
        self.out
    }
}
