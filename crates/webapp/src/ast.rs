//! MiniJS abstract syntax tree and its pretty-printer.
//!
//! The pretty-printer matters as much as the parser here: a snapshot *is*
//! MiniJS source, and app functions are re-emitted into the snapshot by
//! printing their ASTs. `parse(print(ast)) == ast` is covered by tests.
//!
//! Identifiers are pre-interned [`Ident`]s: the lexer interns each name
//! once, and everything downstream (interpreter lookup, snapshot
//! emission, effect analysis) compares symbols instead of strings.

use crate::intern::Ident;
use std::fmt;

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `undefined`.
    Undefined,
    /// `null`.
    Null,
    /// Boolean literal.
    Bool(bool),
    /// Number literal.
    Number(f64),
    /// String literal.
    Str(String),
    /// Identifier reference.
    Ident(Ident),
    /// Array literal.
    Array(Vec<Expr>),
    /// Object literal (`{key: value, ...}`), insertion order preserved.
    Object(Vec<(String, Expr)>),
    /// `new Float32Array(expr)` — the only constructor MiniJS needs.
    NewFloat32Array(Box<Expr>),
    /// Property access `expr.name`.
    Member(Box<Expr>, String),
    /// Index access `expr[index]`.
    Index(Box<Expr>, Box<Expr>),
    /// Call `callee(args...)`; method calls are `Member` callees.
    Call(Box<Expr>, Vec<Expr>),
    /// Unary `!x` or `-x`.
    Unary(&'static str, Box<Expr>),
    /// Binary operation.
    Binary(&'static str, Box<Expr>, Box<Expr>),
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `var name = init;` (init optional).
    Var(Ident, Option<Expr>),
    /// `target = value;` — target is an `Ident`, `Member` or `Index`.
    Assign(Expr, Expr),
    /// Bare expression statement.
    Expr(Expr),
    /// Function declaration.
    Function(FunctionDef),
    /// `return expr;` (expr optional).
    Return(Option<Expr>),
    /// `if (cond) {...} else {...}`.
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    /// `while (cond) {...}`.
    While(Expr, Vec<Stmt>),
    /// `for (init; cond; update) {...}` — each header slot optional.
    For {
        /// Initializer (a `var` declaration or an assignment).
        init: Option<Box<Stmt>>,
        /// Loop condition (`true` when omitted).
        cond: Option<Expr>,
        /// Per-iteration update (an assignment or expression).
        update: Option<Box<Stmt>>,
        /// Loop body.
        body: Vec<Stmt>,
    },
}

/// A top-level function. MiniJS has no closures — functions capture nothing,
/// mirroring the snapshot system of reference \[10\] (closure reconstruction
/// is the subject of the follow-up paper \[11\] and out of scope).
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDef {
    /// Function name.
    pub name: Ident,
    /// Parameter names.
    pub params: Vec<Ident>,
    /// Body statements.
    pub body: Vec<Stmt>,
}

impl FunctionDef {
    /// Every name this function binds for its whole body: parameters,
    /// then `var` declarations in first-occurrence order, each once.
    /// `var` hoists as in JavaScript, so a declaration anywhere in the
    /// body (outside nested functions) makes the name local throughout.
    pub fn locals(&self) -> Vec<&Ident> {
        let mut out: Vec<&Ident> = Vec::new();
        let mut add = |name| {
            if !out.contains(&name) {
                out.push(name);
            }
        };
        self.params.iter().for_each(&mut add);
        walk_stmts(&self.body, &mut |stmt| {
            if let Stmt::Var(name, _) = stmt {
                add(name);
            }
        });
        out
    }
}

/// Calls `f` on every statement that runs in the scope of `stmts`, in
/// source order: it descends into `if`/`while`/`for` bodies and the `for`
/// init/update, but not into nested function declarations (their bodies
/// are a scope of their own).
pub fn walk_stmts<'a, F: FnMut(&'a Stmt)>(stmts: &'a [Stmt], f: &mut F) {
    for stmt in stmts {
        f(stmt);
        match stmt {
            Stmt::If(_, then_body, else_body) => {
                walk_stmts(then_body, f);
                walk_stmts(else_body, f);
            }
            Stmt::While(_, body) => walk_stmts(body, f),
            Stmt::For {
                init, update, body, ..
            } => {
                for header in init.iter().chain(update) {
                    walk_stmts(std::slice::from_ref(&**header), f);
                }
                walk_stmts(body, f);
            }
            Stmt::Var(..) | Stmt::Assign(..) | Stmt::Expr(_) | Stmt::Return(_) => {}
            Stmt::Function(_) => {}
        }
    }
}

/// Escapes a string into MiniJS literal syntax including quotes.
pub fn escape_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            '\0' => out.push_str("\\0"),
            other => out.push(other),
        }
    }
    out.push('"');
    out
}

/// Prints a number as a MiniJS literal. Negative and non-finite values need
/// wrapping since the grammar has no negative literals.
pub fn number_literal(n: f64) -> String {
    if n.is_nan() {
        "(0/0)".to_string()
    } else if n.is_infinite() {
        if n > 0.0 {
            "(1/0)".to_string()
        } else {
            "(-1/0)".to_string()
        }
    } else if n < 0.0 || (n == 0.0 && n.is_sign_negative()) {
        format!("(-{})", -n)
    } else {
        format!("{n}")
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Undefined => write!(f, "undefined"),
            Expr::Null => write!(f, "null"),
            Expr::Bool(b) => write!(f, "{b}"),
            Expr::Number(n) => write!(f, "{}", number_literal(*n)),
            Expr::Str(s) => write!(f, "{}", escape_str(s)),
            Expr::Ident(name) => write!(f, "{name}"),
            Expr::Array(elems) => {
                write!(f, "[")?;
                for (i, e) in elems.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "]")
            }
            Expr::Object(props) => {
                write!(f, "{{")?;
                for (i, (k, v)) in props.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}: {v}", escape_str(k))?;
                }
                write!(f, "}}")
            }
            Expr::NewFloat32Array(arg) => write!(f, "new Float32Array({arg})"),
            Expr::Member(obj, name) => write!(f, "{}.{name}", Paren(obj)),
            Expr::Index(obj, index) => write!(f, "{}[{index}]", Paren(obj)),
            Expr::Call(callee, args) => {
                write!(f, "{}(", Paren(callee))?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Unary("typeof", e) => write!(f, "typeof ({e})"),
            Expr::Unary(op, e) => write!(f, "{op}({e})"),
            Expr::Binary(op, l, r) => write!(f, "({l} {op} {r})"),
        }
    }
}

/// Wraps non-primary callees/objects in parentheses so printing stays
/// grammatical (e.g. `(a + b).x`).
struct Paren<'a>(&'a Expr);

impl fmt::Display for Paren<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Expr::Ident(_)
            | Expr::Member(..)
            | Expr::Index(..)
            | Expr::Call(..)
            | Expr::Str(_)
            | Expr::Array(_)
            | Expr::NewFloat32Array(_) => write!(f, "{}", self.0),
            other => write!(f, "({other})"),
        }
    }
}

fn write_block(f: &mut fmt::Formatter<'_>, body: &[Stmt], indent: usize) -> fmt::Result {
    writeln!(f, "{{")?;
    for stmt in body {
        write_stmt(f, stmt, indent + 1)?;
    }
    write!(f, "{}}}", "  ".repeat(indent))
}

fn write_stmt(f: &mut fmt::Formatter<'_>, stmt: &Stmt, indent: usize) -> fmt::Result {
    let pad = "  ".repeat(indent);
    match stmt {
        Stmt::Var(name, Some(init)) => writeln!(f, "{pad}var {name} = {init};"),
        Stmt::Var(name, None) => writeln!(f, "{pad}var {name};"),
        Stmt::Assign(target, value) => writeln!(f, "{pad}{target} = {value};"),
        Stmt::Expr(e) => writeln!(f, "{pad}{e};"),
        Stmt::Function(def) => {
            let params: Vec<&str> = def.params.iter().map(Ident::as_str).collect();
            write!(f, "{pad}function {}({}) ", def.name, params.join(", "))?;
            write_block(f, &def.body, indent)?;
            writeln!(f)
        }
        Stmt::Return(Some(e)) => writeln!(f, "{pad}return {e};"),
        Stmt::Return(None) => writeln!(f, "{pad}return;"),
        Stmt::If(cond, then_body, else_body) => {
            write!(f, "{pad}if ({cond}) ")?;
            write_block(f, then_body, indent)?;
            if !else_body.is_empty() {
                write!(f, " else ")?;
                write_block(f, else_body, indent)?;
            }
            writeln!(f)
        }
        Stmt::While(cond, body) => {
            write!(f, "{pad}while ({cond}) ")?;
            write_block(f, body, indent)?;
            writeln!(f)
        }
        Stmt::For {
            init,
            cond,
            update,
            body,
        } => {
            // Header statements print without their trailing ";\n".
            let fragment = |s: &Option<Box<Stmt>>| -> String {
                s.as_ref()
                    .map(|s| {
                        let text = s.to_string();
                        text.trim_end().trim_end_matches(';').to_string()
                    })
                    .unwrap_or_default()
            };
            write!(
                f,
                "{pad}for ({}; {}; {}) ",
                fragment(init),
                cond.as_ref().map(|c| c.to_string()).unwrap_or_default(),
                fragment(update)
            )?;
            write_block(f, body, indent)?;
            writeln!(f)
        }
    }
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_stmt(f, self, 0)
    }
}

impl fmt::Display for FunctionDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_stmt(f, &Stmt::Function(self.clone()), 0)
    }
}

/// Prints a whole program.
pub fn print_program(stmts: &[Stmt]) -> String {
    stmts.iter().map(|s| s.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_roundtrip_chars() {
        assert_eq!(escape_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn number_literals() {
        assert_eq!(number_literal(3.0), "3");
        assert_eq!(number_literal(-2.5), "(-2.5)");
        assert_eq!(number_literal(f64::NAN), "(0/0)");
        assert_eq!(number_literal(f64::INFINITY), "(1/0)");
        assert_eq!(number_literal(f64::NEG_INFINITY), "(-1/0)");
    }

    #[test]
    fn expr_display_is_grammatical() {
        let e = Expr::Binary(
            "+",
            Box::new(Expr::Number(1.0)),
            Box::new(Expr::Member(
                Box::new(Expr::Ident("obj".into())),
                "x".into(),
            )),
        );
        assert_eq!(e.to_string(), "(1 + obj.x)");
    }

    #[test]
    fn object_literal_display() {
        let e = Expr::Object(vec![
            ("x".into(), Expr::Number(1.0)),
            ("y".into(), Expr::Number(2.0)),
        ]);
        assert_eq!(e.to_string(), "{\"x\": 1,\"y\": 2}");
    }

    #[test]
    fn function_display_contains_body() {
        let def = FunctionDef {
            name: "front".into(),
            params: vec!["a".into()],
            body: vec![Stmt::Return(Some(Expr::Ident("a".into())))],
        };
        let text = def.to_string();
        assert!(text.starts_with("function front(a) {"));
        assert!(text.contains("return a;"));
    }
}
