//! The MiniJS scope model the snapshot verifier and the effect pass both
//! read — the static mirror of the interpreter's name resolution.
//!
//! MiniJS has no closures: a name inside a function binds to the
//! function's own params and `var`s ([`FunctionDef::locals`], hoisted to
//! the whole body as in JavaScript), then to globals, then to declared
//! functions, then to the host surface. Assigning to a name that is not a
//! local *creates a global* at runtime, so every non-local, non-host
//! assignment target anywhere is a global definition site
//! (flow-insensitively) — exactly how generated restore scripts
//! re-establish app globals. Nested function declarations register
//! globally when executed, so they are declared here like top-level ones.

use crate::hostapi;
use snapedge_webapp::ast::{walk_stmts, Expr, FunctionDef, Stmt};
use std::collections::{BTreeMap, BTreeSet};

/// One function's own scope.
#[derive(Debug, Default)]
pub(crate) struct FuncScope {
    /// Parameter names.
    pub(crate) params: BTreeSet<String>,
    /// Every name the function binds: parameters plus `var`s.
    pub(crate) locals: BTreeSet<String>,
}

/// The declaration table of one program, built once per analysis.
pub(crate) struct Scopes<'a> {
    /// Every function declaration, nested ones included, in source order.
    pub(crate) defs: Vec<&'a FunctionDef>,
    /// Function name → its scope; a redeclared name keeps the last one.
    /// Keyed by report-visible names. lint: allow(string-keyed-map)
    pub(crate) functions: BTreeMap<String, FuncScope>,
    /// Top-level `var`s plus non-local, non-host assignment targets.
    pub(crate) globals: BTreeSet<String>,
    /// Host object names (built-in and registered).
    hosts: BTreeSet<String>,
}

impl<'a> Scopes<'a> {
    /// Declares everything in `program`. Host names are the built-in
    /// [`hostapi::HOST_GLOBALS`] plus the `registered` ones.
    pub(crate) fn build<'h>(
        program: &'a [Stmt],
        registered: impl IntoIterator<Item = &'h String>,
    ) -> Scopes<'a> {
        let mut scopes = Scopes {
            defs: Vec::new(),
            functions: BTreeMap::new(),
            globals: BTreeSet::new(),
            hosts: hostapi::HOST_GLOBALS
                .iter()
                .map(|s| s.to_string())
                .chain(registered.into_iter().cloned())
                .collect(),
        };
        scopes.collect_declarations(program);
        scopes.collect_global_assign_targets(program);
        scopes
    }

    /// Every function declaration (nested ones included) with its scope,
    /// and the top-level `var`s.
    fn collect_declarations(&mut self, program: &'a [Stmt]) {
        function_defs(program, &mut self.defs);
        for def in &self.defs {
            let scope = FuncScope {
                params: def.params.iter().map(|p| p.to_string()).collect(),
                locals: def.locals().iter().map(|n| n.to_string()).collect(),
            };
            self.functions.insert(def.name.to_string(), scope);
        }
        walk_stmts(program, &mut |stmt| {
            if let Stmt::Var(name, _) = stmt {
                self.globals.insert(name.to_string());
            }
        });
    }

    /// Non-local, non-host assignment targets, at top level or in any
    /// function body: each creates a global at runtime.
    fn collect_global_assign_targets(&mut self, program: &'a [Stmt]) {
        let mut targets = BTreeSet::new();
        let bodies = self
            .defs
            .iter()
            .map(|d| (Some(d.name.as_str()), &d.body[..]));
        for (ctx, body) in std::iter::once((None, program)).chain(bodies) {
            walk_stmts(body, &mut |stmt| {
                if let Stmt::Assign(Expr::Ident(name), _) = stmt {
                    if !self.is_local(name, ctx) && !self.is_host(name) {
                        targets.insert(name.to_string());
                    }
                }
            });
        }
        self.globals.extend(targets);
    }

    /// `true` when `name` is a param or `var` of function `ctx` (`None`
    /// is top-level code, which has no locals).
    pub(crate) fn is_local(&self, name: &str, ctx: Option<&str>) -> bool {
        ctx.and_then(|f| self.functions.get(f))
            .is_some_and(|s| s.locals.contains(name))
    }

    /// `true` when `name` is a host object name (shadowed or not).
    pub(crate) fn is_host(&self, name: &str) -> bool {
        self.hosts.contains(name)
    }

    /// `true` when an app binding (local, global or function) hides any
    /// host object of the same name.
    pub(crate) fn is_shadowed(&self, name: &str, ctx: Option<&str>) -> bool {
        self.is_local(name, ctx) || self.globals.contains(name) || self.functions.contains_key(name)
    }

    /// `true` when the expression definitely evaluates to a DOM element:
    /// `document.getElementById(..)`, `document.createElement(..)`, or
    /// `document.body` (with `document` unshadowed).
    pub(crate) fn is_dom_expr(&self, expr: &Expr, ctx: Option<&str>) -> bool {
        let document = |obj: &Expr| matches!(obj, Expr::Ident(n) if n == "document" && !self.is_shadowed(n, ctx));
        match expr {
            Expr::Call(callee, _) => match callee.as_ref() {
                Expr::Member(obj, m) => {
                    document(obj) && (m == "getElementById" || m == "createElement")
                }
                _ => false,
            },
            Expr::Member(obj, p) => document(obj) && p == "body",
            _ => false,
        }
    }
}

/// Every function declaration in `stmts`, nested ones included, in
/// source pre-order.
fn function_defs<'a>(stmts: &'a [Stmt], out: &mut Vec<&'a FunctionDef>) {
    walk_stmts(stmts, &mut |stmt| {
        if let Stmt::Function(def) = stmt {
            out.push(def);
            function_defs(&def.body, out);
        }
    });
}
