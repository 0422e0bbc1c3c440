//! Def-use recording, reachability, and the snapshot-specific lints over
//! a parsed MiniJS program. Names resolve through the shared scope model
//! ([`crate::scope`]).

use crate::hostapi;
use crate::scope::Scopes;
use crate::{AnalysisOptions, AnalysisStats, Diagnostic, Mode, Rule, Severity};
use snapedge_webapp::ast::{Expr, Stmt};
use snapedge_webapp::is_reserved_machinery;
use std::collections::{BTreeMap, BTreeSet};

/// Where a read happened: `None` for top-level code, else the name of
/// the function whose body it is in.
type Ctx<'a> = Option<&'a str>;

pub(crate) struct Analysis<'a> {
    opts: &'a AnalysisOptions,
    scopes: Scopes<'a>,
    ambient: BTreeSet<String>,
    /// Global name → contexts that read it.
    /// lint: allow(string-keyed-map)
    reads: BTreeMap<String, Vec<Ctx<'a>>>,
    /// Function → functions it references.
    /// lint: allow(string-keyed-map)
    calls: BTreeMap<String, BTreeSet<String>>,
    /// Functions referenced from top-level code.
    toplevel_refs: BTreeSet<String>,
    /// Functions installed as event handlers via `addEventListener`.
    handlers: BTreeSet<String>,
    pub(crate) diagnostics: Vec<Diagnostic>,
}

impl<'a> Analysis<'a> {
    pub(crate) fn run(
        program: &'a [Stmt],
        opts: &'a AnalysisOptions,
    ) -> (Vec<Diagnostic>, AnalysisStats) {
        let mut a = Analysis {
            opts,
            scopes: Scopes::build(program, &opts.hosts),
            ambient: opts.ambient.iter().cloned().collect(),
            reads: BTreeMap::new(),
            calls: BTreeMap::new(),
            toplevel_refs: BTreeSet::new(),
            handlers: BTreeSet::new(),
            diagnostics: Vec::new(),
        };
        a.check_hygiene();
        a.resolve_block(program, None);
        let reachable = a.reachable_functions();
        a.check_dead_state(&reachable);
        let stats = AnalysisStats {
            functions: a.scopes.functions.len(),
            globals: a.scopes.globals.len(),
            handlers: a.handlers.len(),
            reachable_functions: reachable.len(),
        };
        (a.diagnostics, stats)
    }

    // ---- Hygiene: reserved-prefix names. ----

    fn check_hygiene(&mut self) {
        if self.opts.mode != Mode::App {
            return;
        }
        // The parser already rejects non-machinery reserved names; an
        // *app* must not declare the machinery names either — those
        // belong to generated snapshots.
        let declared: Vec<String> = self
            .scopes
            .functions
            .keys()
            .chain(self.scopes.globals.iter())
            .filter(|n| is_reserved_machinery(n))
            .cloned()
            .collect();
        for name in declared {
            self.diagnostics.push(Diagnostic {
                rule: Rule::ReservedPrefix,
                severity: Severity::Error,
                message: format!("app declares snapshot machinery name {name:?}"),
                name: Some(name),
                line: None,
            });
        }
    }

    // ---- Pass 2: resolve reads, record def-use, check host API. ----

    fn resolve_block(&mut self, stmts: &'a [Stmt], ctx: Ctx<'a>) {
        for stmt in stmts {
            match stmt {
                Stmt::Var(_, init) => {
                    if let Some(e) = init {
                        self.resolve_expr(e, ctx);
                    }
                }
                Stmt::Assign(target, value) => {
                    // The target of a plain identifier assignment is a
                    // definition, not a read; member/index targets read
                    // their receiver.
                    match target {
                        Expr::Ident(_) => {}
                        Expr::Member(obj, prop) => {
                            self.check_member_write(obj, prop, ctx);
                            self.resolve_expr(obj, ctx);
                        }
                        Expr::Index(obj, idx) => {
                            self.resolve_expr(obj, ctx);
                            self.resolve_expr(idx, ctx);
                        }
                        other => self.resolve_expr(other, ctx),
                    }
                    self.resolve_expr(value, ctx);
                }
                Stmt::Expr(e) => self.resolve_expr(e, ctx),
                Stmt::Function(def) => {
                    self.resolve_block(&def.body, Some(def.name.as_str()));
                }
                Stmt::Return(e) => {
                    if let Some(e) = e {
                        self.resolve_expr(e, ctx);
                    }
                }
                Stmt::If(cond, then, els) => {
                    self.resolve_expr(cond, ctx);
                    self.resolve_block(then, ctx);
                    self.resolve_block(els, ctx);
                }
                Stmt::While(cond, body) => {
                    self.resolve_expr(cond, ctx);
                    self.resolve_block(body, ctx);
                }
                Stmt::For {
                    init,
                    cond,
                    update,
                    body,
                } => {
                    if let Some(s) = init {
                        self.resolve_block(std::slice::from_ref(s), ctx);
                    }
                    if let Some(e) = cond {
                        self.resolve_expr(e, ctx);
                    }
                    if let Some(s) = update {
                        self.resolve_block(std::slice::from_ref(s), ctx);
                    }
                    self.resolve_block(body, ctx);
                }
            }
        }
    }

    fn resolve_expr(&mut self, expr: &Expr, ctx: Ctx<'a>) {
        match expr {
            Expr::Ident(name) => self.resolve_read(name, ctx),
            Expr::Array(elems) => {
                for e in elems {
                    self.resolve_expr(e, ctx);
                }
            }
            Expr::Object(props) => {
                for (_, e) in props {
                    self.resolve_expr(e, ctx);
                }
            }
            Expr::NewFloat32Array(e) | Expr::Unary(_, e) => self.resolve_expr(e, ctx),
            Expr::Member(obj, prop) => {
                self.check_member(obj, prop, None, ctx);
                self.resolve_expr(obj, ctx);
            }
            Expr::Index(obj, idx) => {
                self.resolve_expr(obj, ctx);
                self.resolve_expr(idx, ctx);
            }
            Expr::Call(callee, args) => {
                if let Expr::Member(obj, method) = callee.as_ref() {
                    self.check_member(obj, method, Some(args), ctx);
                    self.resolve_expr(obj, ctx);
                    // `addEventListener(event, handler)` installs an event
                    // handler: a reachability root.
                    if method == "addEventListener" {
                        if let Some(Expr::Ident(handler)) = args.get(1) {
                            self.handlers.insert(handler.to_string());
                        }
                    }
                } else {
                    self.resolve_expr(callee, ctx);
                }
                for a in args {
                    self.resolve_expr(a, ctx);
                }
            }
            Expr::Binary(_, l, r) => {
                self.resolve_expr(l, ctx);
                self.resolve_expr(r, ctx);
            }
            Expr::Undefined | Expr::Null | Expr::Bool(_) | Expr::Number(_) | Expr::Str(_) => {}
        }
    }

    /// Resolves an identifier read in runtime lookup order: locals,
    /// globals, functions, hosts, then (delta mode) the agreed base's
    /// ambient declarations. Anything else is a free identifier — the
    /// snapshot is not self-contained.
    fn resolve_read(&mut self, name: &str, ctx: Ctx<'a>) {
        if self.scopes.is_local(name, ctx) {
            return;
        }
        if self.scopes.globals.contains(name) {
            self.reads.entry(name.to_string()).or_default().push(ctx);
            return;
        }
        if self.scopes.functions.contains_key(name) {
            match ctx {
                None => {
                    self.toplevel_refs.insert(name.to_string());
                }
                Some(f) => {
                    self.calls
                        .entry(f.to_string())
                        .or_default()
                        .insert(name.to_string());
                }
            }
            return;
        }
        if self.scopes.is_host(name) || self.ambient.contains(name) {
            return;
        }
        self.diagnostics.push(Diagnostic {
            rule: Rule::FreeIdentifier,
            severity: Severity::Error,
            message: format!(
                "free identifier {name:?}: not a local, global, declared function, \
                 or documented host API{}",
                match ctx {
                    None => String::new(),
                    Some(f) => format!(" (in function {f:?})"),
                }
            ),
            name: Some(name.to_string()),
            line: None,
        });
    }

    /// Checks member access / method calls against the documented host
    /// API surface when the receiver's kind is statically known.
    fn check_member(&mut self, obj: &Expr, prop: &str, call_args: Option<&[Expr]>, ctx: Ctx<'a>) {
        let is_call = call_args.is_some();
        // Receiver is a host global (unshadowed by a local or app global).
        if let Expr::Ident(name) = obj {
            if self.scopes.is_shadowed(name, ctx) {
                return; // shadowed: not the host object
            }
            let surface: Option<(&[&str], &[&str])> = match name.as_str() {
                "document" => Some((hostapi::DOCUMENT_METHODS, hostapi::DOCUMENT_PROPS)),
                "console" => Some((hostapi::CONSOLE_METHODS, &[])),
                "Math" => Some((hostapi::MATH_METHODS, hostapi::MATH_PROPS)),
                // Registered host objects (e.g. `model`) define their own
                // surface; the embedder vouches for it.
                _ => None,
            };
            if let Some((methods, props)) = surface {
                let table = if is_call { methods } else { props };
                if !table.contains(&prop) {
                    self.unknown_api(name, prop, is_call);
                }
            }
            return;
        }
        // Receiver is a statically recognizable DOM element handle.
        if self.scopes.is_dom_expr(obj, ctx) {
            let table = if is_call {
                hostapi::DOM_METHODS
            } else {
                hostapi::DOM_PROPS
            };
            if !table.contains(&prop) {
                self.unknown_api("element", prop, is_call);
            }
        }
    }

    /// Checks a member *assignment* target. Host globals have no
    /// assignable properties at all; DOM elements only accept
    /// `textContent`.
    fn check_member_write(&mut self, obj: &Expr, prop: &str, ctx: Ctx<'a>) {
        if let Expr::Ident(name) = obj {
            if !self.scopes.is_shadowed(name, ctx) && self.scopes.is_host(name) {
                self.diagnostics.push(Diagnostic {
                    rule: Rule::UnknownHostApi,
                    severity: Severity::Error,
                    message: format!("host object {name} has no assignable property {prop:?}"),
                    name: Some(prop.to_string()),
                    line: None,
                });
            }
            return;
        }
        if self.scopes.is_dom_expr(obj, ctx) && !hostapi::DOM_WRITABLE_PROPS.contains(&prop) {
            self.diagnostics.push(Diagnostic {
                rule: Rule::UnknownHostApi,
                severity: Severity::Error,
                message: format!(
                    "cannot assign element property {prop:?} (only \"textContent\" is writable)"
                ),
                name: Some(prop.to_string()),
                line: None,
            });
        }
    }

    fn unknown_api(&mut self, receiver: &str, prop: &str, is_call: bool) {
        let what = if is_call { "method" } else { "property" };
        self.diagnostics.push(Diagnostic {
            rule: Rule::UnknownHostApi,
            severity: Severity::Error,
            message: format!(
                "unknown {what} {prop:?} on {receiver}: outside the documented host API surface"
            ),
            name: Some(prop.to_string()),
            line: None,
        });
    }

    // ---- Pass 3: reachability and dead state. ----

    /// Functions reachable from event handlers and top-level code, over
    /// the function-reference graph.
    fn reachable_functions(&self) -> BTreeSet<String> {
        let mut reachable: BTreeSet<String> = BTreeSet::new();
        let mut work: Vec<String> = self
            .handlers
            .iter()
            .chain(self.toplevel_refs.iter())
            .filter(|f| self.scopes.functions.contains_key(*f))
            .cloned()
            .collect();
        while let Some(f) = work.pop() {
            if !reachable.insert(f.clone()) {
                continue;
            }
            if let Some(next) = self.calls.get(&f) {
                for g in next {
                    if !reachable.contains(g) {
                        work.push(g.clone());
                    }
                }
            }
        }
        reachable
    }

    /// Dead state: a captured global that no top-level code and no
    /// handler-reachable function ever reads is pure snapshot bloat — it
    /// serializes, transfers, and restores for nothing.
    fn check_dead_state(&mut self, reachable: &BTreeSet<String>) {
        if self.opts.mode == Mode::Delta {
            // A delta only carries *changed* state; its readers usually
            // live unchanged at the agreed base, so reachability over the
            // delta script alone would be meaningless.
            return;
        }
        let dead: Vec<String> = self
            .scopes
            .globals
            .iter()
            .filter(|g| !is_reserved_machinery(g))
            .filter(|g| {
                let live = self.reads.get(*g).map(|ctxs| {
                    ctxs.iter().any(|c| match c {
                        None => true,
                        Some(f) => reachable.contains(*f),
                    })
                });
                !live.unwrap_or(false)
            })
            .cloned()
            .collect();
        for name in dead {
            self.diagnostics.push(Diagnostic {
                rule: Rule::DeadState,
                severity: Severity::Warning,
                message: format!(
                    "dead state: global {name:?} is never read by top-level code \
                     or any event-handler-reachable function"
                ),
                name: Some(name),
                line: None,
            });
        }
    }
}
