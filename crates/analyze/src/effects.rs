//! Interprocedural effect analysis over MiniJS: per-function and
//! per-round read/write sets, purity classification, host-API effect
//! tagging, and conservative static cost bounds.
//!
//! Every function (and the top level) is summarized into a point on the
//! effect lattice
//!
//! ```text
//! Pure  ⊑  Writes(set)  ⊑  Host(tag)  ⊑  Unknown
//! ```
//!
//! and the result carries:
//!
//! * **the per-round write set** — the globals any event-handler-reachable
//!   code can write ([`EffectSummary::writable_globals`], shown in the
//!   effect report). Whenever a write cannot be attributed (`Unknown`:
//!   dynamic member writes through aliases, mutating method calls on
//!   unclassifiable receivers), [`EffectSummary::round_writes`] is `None`.
//! * **pre-ship nondeterminism gating** — host accesses are tagged with
//!   the effect class the embedder declared at registration
//!   ([`HostEffect`]); reaching a clock/random/IO host makes the app
//!   unreplayable and [`EffectSummary::verdict`] returns the typed
//!   [`AnalyzeError::Nondeterministic`] before any link bytes ship. DOM
//!   effects stay replayable (snapshots carry the document).
//! * **static cost bounds** — [`CostBound`] holds a guaranteed *floor* on
//!   metered ops / heap growth per round and (when loop-free) a ceiling;
//!   the floor flags guaranteed `ResourceExhausted` against
//!   [`MeterLimits`] pre-ship and feeds the offload predictor as a
//!   compute-time prior.
//!
//! Soundness notes. The interpreter charges at least one metered op per
//! executed statement, so a statement-count floor (stopping at any
//! possible early `return`, taking the `min` across `if` branches, and
//! counting loop bodies zero times) is a true lower bound. Write
//! attribution is flow-insensitive and conservative: a member/index write
//! or mutating method call whose receiver is not rooted at a global
//! identifier, a recognizable DOM expression, or a DOM-holding local
//! poisons the whole summary to `Unknown`. Aliasing between two *globals*
//! needs no handling here — delta capture's changed/unchanged heap
//! intersection check already forces a full snapshot in that case.

use crate::scope::Scopes;
use snapedge_webapp::ast::{walk_stmts, Expr, FunctionDef, Stmt};
use snapedge_webapp::{html, parser, HostEffect, MeterLimits};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Context name used for top-level (load-time) code in summaries.
pub const TOPLEVEL: &str = "<toplevel>";

/// Typed outcome of an effect-analysis pass that cannot vouch for the
/// app.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalyzeError {
    /// The source failed to lex/parse; nothing could be analyzed.
    Parse(String),
    /// The app reaches nondeterministic host APIs — replaying the same
    /// snapshot on another browser can diverge, so it must run where it
    /// is (or not at all).
    Nondeterministic(Vec<NondetSource>),
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::Parse(msg) => write!(f, "parse: {msg}"),
            AnalyzeError::Nondeterministic(sources) => {
                write!(f, "nondeterministic host access: ")?;
                for (i, s) in sources.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{s}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// One nondeterministic host access found by the pass.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct NondetSource {
    /// Function containing the access ([`TOPLEVEL`] for load-time code).
    pub function: String,
    /// The registered host object name.
    pub host: String,
    /// Method or property accessed; `"*"` when the host object itself is
    /// aliased into a variable (every later use is assumed reachable).
    pub method: String,
    /// The effect class the embedder declared for the host.
    pub effect: HostEffect,
}

impl fmt::Display for NondetSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}.{} ({}) in {}",
            self.host,
            self.method,
            self.effect.label(),
            self.function
        )
    }
}

/// A point on the effect lattice — the classification of one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect {
    /// No writes, no host access: safe to elide entirely.
    Pure,
    /// Writes only the named globals (and nothing else observable).
    Writes(BTreeSet<String>),
    /// Reaches host APIs; the tag is the *worst* effect class touched.
    Host(HostEffect),
    /// A write could not be attributed — assume anything may change.
    Unknown,
}

impl fmt::Display for Effect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Effect::Pure => write!(f, "pure"),
            Effect::Writes(set) => {
                write!(f, "writes(")?;
                for (i, name) in set.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{name}")?;
                }
                write!(f, ")")
            }
            Effect::Host(tag) => write!(f, "host({})", tag.label()),
            Effect::Unknown => write!(f, "unknown"),
        }
    }
}

/// Conservative static cost bounds for one execution (a function body
/// including everything it is guaranteed to call, or one offloaded
/// round).
///
/// `min_*` are guaranteed floors: every execution charges at least that
/// many metered ops / allocates at least that many heap cells. `max_*`
/// are ceilings, `None` when unboundable (loops, recursion, event
/// re-dispatch).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CostBound {
    /// Guaranteed minimum metered ops.
    pub min_ops: u64,
    /// Maximum metered ops, when statically bounded.
    pub max_ops: Option<u64>,
    /// Guaranteed minimum fresh heap cells allocated.
    pub min_new_cells: u64,
    /// Maximum fresh heap cells, when statically bounded.
    pub max_new_cells: Option<u64>,
}

impl CostBound {
    /// Flags guaranteed resource exhaustion: the cheapest possible
    /// execution already blows a [`MeterLimits`] cap, so shipping the
    /// snapshot would only burn link bytes before the inevitable
    /// `ResourceExhausted`. Returns a description of the first doomed
    /// axis, or `None` when execution might fit.
    pub fn guaranteed_exhaustion(&self, limits: &MeterLimits) -> Option<String> {
        if let Some(cap) = limits.max_ops {
            if self.min_ops > cap {
                return Some(format!(
                    "op floor {} exceeds the meter budget ops={cap}",
                    self.min_ops
                ));
            }
        }
        if let Some(cap) = limits.max_heap_cells {
            if self.min_new_cells > cap as u64 {
                return Some(format!(
                    "allocation floor {} cells exceeds the meter budget heap={cap}",
                    self.min_new_cells
                ));
            }
        }
        None
    }
}

impl fmt::Display for CostBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ceil = |v: &Option<u64>| match v {
            Some(n) => n.to_string(),
            None => "∞".to_string(),
        };
        write!(
            f,
            "ops {}..{}, new cells {}..{}",
            self.min_ops,
            ceil(&self.max_ops),
            self.min_new_cells,
            ceil(&self.max_new_cells)
        )
    }
}

/// Effect facts for one function (or the top level).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FnEffect {
    /// Globals read.
    pub reads: BTreeSet<String>,
    /// Globals written (directly or through heap regions rooted at them).
    pub writes: BTreeSet<String>,
    /// Named functions referenced (call graph edges).
    pub calls: BTreeSet<String>,
    /// Host objects touched (built-in or registered).
    pub hosts: BTreeSet<String>,
    /// Worst host effect class touched, when any.
    pub host_tag: Option<HostEffect>,
    /// A write escaped static attribution (dynamic receiver).
    pub unknown_writes: bool,
    /// This body (not counting callees) can enqueue events
    /// (`dispatchEvent`), making op ceilings unboundable.
    pub dispatches_events: bool,
    /// Cost bounds of this body alone; callee costs are folded in by
    /// [`EffectSummary`].
    pub cost: CostBound,
    /// Nondeterministic host accesses in this body.
    pub nondet: Vec<NondetSource>,
}

impl FnEffect {
    /// This function's point on the effect lattice.
    pub fn classify(&self) -> Effect {
        if self.unknown_writes {
            return Effect::Unknown;
        }
        if let Some(tag) = self.host_tag {
            if tag.is_nondeterministic() {
                return Effect::Host(tag);
            }
            if self.writes.is_empty() {
                return Effect::Host(tag);
            }
        }
        if !self.writes.is_empty() {
            return Effect::Writes(self.writes.clone());
        }
        match self.host_tag {
            Some(tag) => Effect::Host(tag),
            None => Effect::Pure,
        }
    }
}

/// Inputs to an effect-analysis run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EffectOptions {
    /// Registered host objects and their embedder-declared effect
    /// classes, beyond the built-in deterministic
    /// `document`/`console`/`Math` surface. Embedder-facing API, keyed
    /// by registration name. lint: allow(string-keyed-map)
    pub hosts: BTreeMap<String, HostEffect>,
}

impl EffectOptions {
    /// Options with no registered hosts (built-ins only).
    pub fn new() -> EffectOptions {
        EffectOptions::default()
    }

    /// Builds options from `Browser::host_effects()` output.
    pub fn from_host_effects(list: Vec<(String, HostEffect)>) -> EffectOptions {
        EffectOptions {
            hosts: list.into_iter().collect(),
        }
    }

    /// Adds one registered host with its declared effect class.
    pub fn with_host(mut self, name: &str, effect: HostEffect) -> EffectOptions {
        self.hosts.insert(name.to_string(), effect);
        self
    }
}

/// The memoizable result of one effect-analysis pass over an app.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EffectSummary {
    /// Per-function effects, plus [`TOPLEVEL`] for load-time code.
    /// Report-facing output, keyed by user-visible names.
    /// lint: allow(string-keyed-map)
    pub functions: BTreeMap<String, FnEffect>,
    /// Functions installed as event handlers (`addEventListener` roots).
    pub handlers: BTreeSet<String>,
    /// Union of globals any handler-reachable code can write — the
    /// per-round write set behind capture pruning. `None` when any
    /// reachable write escaped attribution (the mandatory full-walk
    /// fallback).
    pub round_writes: Option<BTreeSet<String>>,
    /// Nondeterministic host accesses anywhere in the app (top level
    /// included — load-time nondeterminism already breaks replay).
    pub nondet: Vec<NondetSource>,
    /// Per-round cost bounds over the handler-reachable closure.
    pub cost: CostBound,
}

impl EffectSummary {
    /// `true` when replaying this app's snapshots can diverge.
    pub fn is_nondeterministic(&self) -> bool {
        !self.nondet.is_empty()
    }

    /// The pre-ship gate: `Err(AnalyzeError::Nondeterministic)` when the
    /// app reaches clock/random/IO hosts, `Ok` otherwise.
    pub fn verdict(&self) -> Result<(), AnalyzeError> {
        if self.nondet.is_empty() {
            Ok(())
        } else {
            Err(AnalyzeError::Nondeterministic(self.nondet.clone()))
        }
    }

    /// The per-round write set, when every reachable write was
    /// attributed.
    pub fn writable_globals(&self) -> Option<&BTreeSet<String>> {
        self.round_writes.as_ref()
    }

    /// Renders a human-readable report: per-function lattice points, the
    /// round write set, and cost bounds.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, fx) in &self.functions {
            let handler = if self.handlers.contains(name) {
                " [handler]"
            } else {
                ""
            };
            out.push_str(&format!(
                "{name}{handler}: {} ({})\n",
                fx.classify(),
                fx.cost
            ));
        }
        match &self.round_writes {
            Some(set) => {
                let names: Vec<&str> = set.iter().map(String::as_str).collect();
                out.push_str(&format!("round write set: {{{}}}\n", names.join(", ")));
            }
            None => out.push_str("round write set: unknown (full-walk capture)\n"),
        }
        out.push_str(&format!("round cost bound: {}\n", self.cost));
        if !self.nondet.is_empty() {
            for s in &self.nondet {
                out.push_str(&format!("nondeterministic: {s}\n"));
            }
        }
        out
    }
}

/// Analyzes one MiniJS script.
///
/// # Errors
///
/// Returns [`AnalyzeError::Parse`] when the source does not parse. A
/// nondeterministic app still returns `Ok` (so callers can inspect the
/// full summary); use [`EffectSummary::verdict`] to gate.
pub fn effect_summary(src: &str, opts: &EffectOptions) -> Result<EffectSummary, AnalyzeError> {
    let program = parser::parse_program(src).map_err(|e| AnalyzeError::Parse(e.to_string()))?;
    Ok(EffectPass::run(&program, opts))
}

/// Analyzes every `<script>` in an HTML document as one program (scripts
/// share one global scope and run in order).
///
/// # Errors
///
/// Returns [`AnalyzeError::Parse`] for HTML or script parse failures.
pub fn effect_summary_html(
    html_src: &str,
    opts: &EffectOptions,
) -> Result<EffectSummary, AnalyzeError> {
    let doc = html::parse_document(html_src).map_err(|e| AnalyzeError::Parse(e.to_string()))?;
    let combined = doc.scripts.join("\n");
    effect_summary(&combined, opts)
}

// ---------------------------------------------------------------------------
// The pass itself.
// ---------------------------------------------------------------------------

struct EffectPass<'a> {
    opts: &'a EffectOptions,
    scopes: Scopes<'a>,
    /// Function name → its DOM-holding locals ([`dom_locals`]).
    /// lint: allow(string-keyed-map)
    dom_locals: BTreeMap<String, BTreeSet<String>>,
}

/// Methods on plain heap values that mutate their receiver (must stay in
/// sync with the interpreter's method tables; everything else —
/// `indexOf`, `slice`, `split`, ... — allocates at most).
const MUTATING_METHODS: &[&str] = &["push", "pop"];

impl<'a> EffectPass<'a> {
    fn run(program: &'a [Stmt], opts: &'a EffectOptions) -> EffectSummary {
        // Pass 1: declarations (the shared scope model) and each
        // function's DOM-holding locals.
        let scopes = Scopes::build(program, opts.hosts.keys());
        let dom_locals = scopes
            .defs
            .iter()
            .map(|def| (def.name.to_string(), dom_locals(&scopes, def)))
            .collect();
        let pass = EffectPass {
            opts,
            scopes,
            dom_locals,
        };

        // Pass 2: per-function (and top-level) effect facts.
        // lint: allow(string-keyed-map)
        let mut functions: BTreeMap<String, FnEffect> = BTreeMap::new();
        let mut handlers: BTreeSet<String> = BTreeSet::new();
        let mut toplevel = FnEffect::default();
        pass.scan_block(program, None, &mut toplevel, &mut handlers);
        let cost = body_cost(program, &mut |s| pass.stmt_flags(s, None)).bound;
        toplevel.cost = cost;
        functions.insert(TOPLEVEL.to_string(), toplevel);
        for def in &pass.scopes.defs {
            let mut fx = FnEffect::default();
            let ctx = Some(def.name.as_str());
            pass.scan_block(&def.body, ctx, &mut fx, &mut handlers);
            fx.cost = body_cost(&def.body, &mut |s| pass.stmt_flags(s, ctx)).bound;
            functions.insert(def.name.to_string(), fx);
        }

        // Pass 3: fold costs and effects over the call graph, then take
        // the per-round view from the handler roots.
        let summary_cost =
            |roots: &BTreeSet<String>| -> CostBound { round_cost(&functions, roots) };
        let reachable = reachable_from(&functions, handlers.iter().cloned().collect());
        let mut round_writes: Option<BTreeSet<String>> = Some(BTreeSet::new());
        for name in &reachable {
            let Some(fx) = functions.get(name) else {
                continue;
            };
            if fx.unknown_writes {
                round_writes = None;
                break;
            }
            if let Some(set) = round_writes.as_mut() {
                set.extend(fx.writes.iter().cloned());
            }
        }
        // Nondeterminism anywhere (top level included): load-time clock
        // reads already make two restores disagree.
        let mut nondet: Vec<NondetSource> = Vec::new();
        for fx in functions.values() {
            nondet.extend(fx.nondet.iter().cloned());
        }
        nondet.sort();
        nondet.dedup();

        let cost = summary_cost(&handlers);
        EffectSummary {
            functions,
            handlers,
            round_writes,
            nondet,
            cost,
        }
    }

    // ---- Name classification. ----

    fn is_dom_local(&self, name: &str, ctx: Option<&str>) -> bool {
        ctx.and_then(|f| self.dom_locals.get(f))
            .is_some_and(|locals| locals.contains(name))
    }

    /// The effect class of an *unshadowed* host identifier, or `None`
    /// when the name is not a host here.
    fn host_effect_of(&self, name: &str, ctx: Option<&str>) -> Option<HostEffect> {
        if self.scopes.is_shadowed(name, ctx) {
            return None; // shadowed: an app binding, not the host
        }
        if let Some(&e) = self.opts.hosts.get(name) {
            return Some(e);
        }
        match name {
            // The built-in surface is deterministic by construction (no
            // Date / Math.random / timers); `document` edits the DOM.
            "document" => Some(HostEffect::Dom),
            "console" | "Math" => Some(HostEffect::Deterministic),
            _ => None,
        }
    }

    /// `true` when the expression definitely evaluates to a DOM element
    /// (including through a tracked DOM-holding local).
    fn is_dom_expr(&self, expr: &Expr, ctx: Option<&str>) -> bool {
        match expr {
            Expr::Ident(name) => self.is_dom_local(name, ctx),
            _ => self.scopes.is_dom_expr(expr, ctx),
        }
    }

    /// Walks a member/index chain to its base expression.
    fn chain_base<'e>(&self, mut expr: &'e Expr) -> &'e Expr {
        loop {
            match expr {
                Expr::Member(obj, _) | Expr::Index(obj, _) => expr = obj,
                other => return other,
            }
        }
    }

    // ---- Pass 2: effect facts. ----

    fn scan_block(
        &self,
        stmts: &[Stmt],
        ctx: Option<&str>,
        fx: &mut FnEffect,
        handlers: &mut BTreeSet<String>,
    ) {
        for stmt in stmts {
            match stmt {
                Stmt::Var(_, init) => {
                    if let Some(e) = init {
                        self.scan_expr(e, ctx, fx, handlers);
                    }
                }
                Stmt::Assign(target, value) => {
                    self.scan_write(target, ctx, fx);
                    match target {
                        Expr::Ident(_) => {}
                        Expr::Member(obj, _) => self.scan_expr(obj, ctx, fx, handlers),
                        Expr::Index(obj, idx) => {
                            self.scan_expr(obj, ctx, fx, handlers);
                            self.scan_expr(idx, ctx, fx, handlers);
                        }
                        other => self.scan_expr(other, ctx, fx, handlers),
                    }
                    self.scan_expr(value, ctx, fx, handlers);
                }
                Stmt::Expr(e) => self.scan_expr(e, ctx, fx, handlers),
                Stmt::Function(_) => {
                    // Nested declarations get their own FnEffect entry
                    // via collect_function_defs; declaring one here has
                    // no effect on this body's facts.
                }
                Stmt::Return(e) => {
                    if let Some(e) = e {
                        self.scan_expr(e, ctx, fx, handlers);
                    }
                }
                Stmt::If(cond, then, els) => {
                    self.scan_expr(cond, ctx, fx, handlers);
                    self.scan_block(then, ctx, fx, handlers);
                    self.scan_block(els, ctx, fx, handlers);
                }
                Stmt::While(cond, body) => {
                    self.scan_expr(cond, ctx, fx, handlers);
                    self.scan_block(body, ctx, fx, handlers);
                }
                Stmt::For {
                    init,
                    cond,
                    update,
                    body,
                } => {
                    if let Some(s) = init {
                        self.scan_block(std::slice::from_ref(s), ctx, fx, handlers);
                    }
                    if let Some(e) = cond {
                        self.scan_expr(e, ctx, fx, handlers);
                    }
                    if let Some(s) = update {
                        self.scan_block(std::slice::from_ref(s), ctx, fx, handlers);
                    }
                    self.scan_block(body, ctx, fx, handlers);
                }
            }
        }
    }

    /// Attributes one assignment target.
    fn scan_write(&self, target: &Expr, ctx: Option<&str>, fx: &mut FnEffect) {
        match target {
            Expr::Ident(name) => {
                if !self.scopes.is_local(name, ctx) && !self.scopes.is_host(name) {
                    fx.writes.insert(name.to_string());
                }
            }
            Expr::Member(obj, _) | Expr::Index(obj, _) => {
                // DOM writes (textContent) are replayable: the delta DOM
                // diff carries them.
                if self.is_dom_expr(obj, ctx) {
                    self.touch_host(fx, "document", HostEffect::Dom);
                    return;
                }
                match self.chain_base(target) {
                    Expr::Ident(base)
                        if !self.scopes.is_local(base, ctx)
                            && self.scopes.globals.contains(base.as_str()) =>
                    {
                        // Mutation of a heap region rooted at a global.
                        fx.writes.insert(base.to_string());
                    }
                    _ => {
                        // A write through a local alias or computed
                        // receiver: could hit any global's reachable
                        // region.
                        fx.unknown_writes = true;
                    }
                }
            }
            _ => fx.unknown_writes = true,
        }
    }

    fn touch_host(&self, fx: &mut FnEffect, host: &str, effect: HostEffect) {
        fx.hosts.insert(host.to_string());
        fx.host_tag = Some(match fx.host_tag {
            Some(prev) => prev.max(effect),
            None => effect,
        });
    }

    fn record_nondet(
        &self,
        fx: &mut FnEffect,
        host: &str,
        method: &str,
        effect: HostEffect,
        ctx: Option<&str>,
    ) {
        fx.nondet.push(NondetSource {
            function: ctx.unwrap_or(TOPLEVEL).to_string(),
            host: host.to_string(),
            method: method.to_string(),
            effect,
        });
    }

    fn scan_expr(
        &self,
        expr: &Expr,
        ctx: Option<&str>,
        fx: &mut FnEffect,
        handlers: &mut BTreeSet<String>,
    ) {
        match expr {
            Expr::Ident(name) => self.scan_ident(name, ctx, fx),
            Expr::Array(elems) => {
                for e in elems {
                    self.scan_expr(e, ctx, fx, handlers);
                }
            }
            Expr::Object(props) => {
                for (_, e) in props {
                    self.scan_expr(e, ctx, fx, handlers);
                }
            }
            Expr::NewFloat32Array(e) | Expr::Unary(_, e) => self.scan_expr(e, ctx, fx, handlers),
            Expr::Member(obj, prop) => {
                self.scan_member(obj, prop, ctx, fx);
                self.scan_receiver(obj, ctx, fx, handlers);
            }
            Expr::Index(obj, idx) => {
                self.scan_expr(obj, ctx, fx, handlers);
                self.scan_expr(idx, ctx, fx, handlers);
            }
            Expr::Call(callee, args) => {
                if let Expr::Member(obj, method) = callee.as_ref() {
                    self.scan_member(obj, method, ctx, fx);
                    self.scan_method_mutation(obj, method, ctx, fx);
                    self.scan_receiver(obj, ctx, fx, handlers);
                    if method == "addEventListener" {
                        if let Some(Expr::Ident(handler)) = args.get(1) {
                            handlers.insert(handler.to_string());
                        } else if args.len() >= 2 {
                            // A dynamic handler expression defeats the
                            // reachability roots.
                            fx.unknown_writes = true;
                        }
                    }
                    if method == "dispatchEvent" {
                        fx.dispatches_events = true;
                    }
                } else {
                    self.scan_expr(callee, ctx, fx, handlers);
                }
                for a in args {
                    self.scan_expr(a, ctx, fx, handlers);
                }
            }
            Expr::Binary(_, l, r) => {
                self.scan_expr(l, ctx, fx, handlers);
                self.scan_expr(r, ctx, fx, handlers);
            }
            Expr::Undefined | Expr::Null | Expr::Bool(_) | Expr::Number(_) | Expr::Str(_) => {}
        }
    }

    /// Scans a member/call receiver without re-triggering the bare-host
    /// aliasing rule for the direct `host.method` form.
    fn scan_receiver(
        &self,
        obj: &Expr,
        ctx: Option<&str>,
        fx: &mut FnEffect,
        handlers: &mut BTreeSet<String>,
    ) {
        if let Expr::Ident(name) = obj {
            if self.host_effect_of(name, ctx).is_some() {
                return; // direct host receiver, already tagged
            }
        }
        self.scan_expr(obj, ctx, fx, handlers);
    }

    /// A bare identifier read, outside direct member-receiver position.
    fn scan_ident(&self, name: &str, ctx: Option<&str>, fx: &mut FnEffect) {
        if self.scopes.is_local(name, ctx) {
            return;
        }
        if self.scopes.globals.contains(name) {
            fx.reads.insert(name.to_string());
            return;
        }
        if self.scopes.functions.contains_key(name) {
            fx.calls.insert(name.to_string());
            return;
        }
        if let Some(effect) = self.host_effect_of(name, ctx) {
            // The host object itself flows into a value (`var m = model;`)
            // — every method becomes reachable through the alias, so the
            // whole declared surface applies.
            self.touch_host(fx, name, effect);
            if effect.is_nondeterministic() {
                self.record_nondet(fx, name, "*", effect, ctx);
            }
        }
        // Unresolvable identifiers are the closedness verifier's
        // business (free-identifier), not an effect.
    }

    /// A member access / method call with a syntactic receiver.
    fn scan_member(&self, obj: &Expr, prop: &str, ctx: Option<&str>, fx: &mut FnEffect) {
        if let Expr::Ident(name) = obj {
            if let Some(effect) = self.host_effect_of(name, ctx) {
                self.touch_host(fx, name, effect);
                if effect.is_nondeterministic() {
                    self.record_nondet(fx, name, prop, effect, ctx);
                }
                return;
            }
        }
        if self.is_dom_expr(obj, ctx) {
            self.touch_host(fx, "document", HostEffect::Dom);
        }
    }

    /// Attributes heap mutation by the interpreter's mutating methods
    /// (`push`/`pop`) through whatever the receiver roots at.
    fn scan_method_mutation(&self, obj: &Expr, method: &str, ctx: Option<&str>, fx: &mut FnEffect) {
        if !MUTATING_METHODS.contains(&method) {
            return;
        }
        if self.is_dom_expr(obj, ctx) {
            return; // DOM elements have no push/pop; interp would error
        }
        if let Expr::Ident(name) = obj {
            if self.host_effect_of(name, ctx).is_some() {
                return; // host objects define their own surface
            }
        }
        match self.chain_base(obj) {
            Expr::Ident(base)
                if !self.scopes.is_local(base, ctx)
                    && self.scopes.globals.contains(base.as_str()) =>
            {
                fx.writes.insert(base.to_string());
            }
            _ => fx.unknown_writes = true,
        }
    }

    /// Statement-level flags for the cost walk: which function calls are
    /// guaranteed (not short-circuited), how many allocation sites the
    /// statement holds, and whether it can touch hosts (extra charges).
    fn stmt_flags(&self, expr: &Expr, ctx: Option<&str>) -> ExprFlags {
        let mut flags = ExprFlags::default();
        self.expr_flags(expr, ctx, true, &mut flags);
        flags
    }

    fn expr_flags(&self, expr: &Expr, ctx: Option<&str>, guaranteed: bool, out: &mut ExprFlags) {
        out.nodes += 1;
        match expr {
            Expr::Array(elems) => {
                out.allocs += 1;
                if guaranteed {
                    out.guaranteed_allocs += 1;
                }
                for e in elems {
                    self.expr_flags(e, ctx, guaranteed, out);
                }
            }
            Expr::Object(props) => {
                out.allocs += 1;
                if guaranteed {
                    out.guaranteed_allocs += 1;
                }
                for (_, e) in props {
                    self.expr_flags(e, ctx, guaranteed, out);
                }
            }
            Expr::NewFloat32Array(e) => {
                out.allocs += 1;
                if guaranteed {
                    out.guaranteed_allocs += 1;
                }
                self.expr_flags(e, ctx, guaranteed, out);
            }
            Expr::Member(obj, _) | Expr::Index(obj, _) => {
                self.expr_flags(obj, ctx, guaranteed, out);
                if let Expr::Index(_, idx) = expr {
                    self.expr_flags(idx, ctx, guaranteed, out);
                }
            }
            Expr::Call(callee, args) => {
                match callee.as_ref() {
                    Expr::Ident(name)
                        if !self.scopes.is_local(name, ctx)
                            && self.scopes.functions.contains_key(name.as_str()) =>
                    {
                        out.calls.push((name.to_string(), guaranteed));
                    }
                    Expr::Member(obj, _) => {
                        // A method call may dispatch to a host or
                        // allocate a result (split/slice/getImageData);
                        // ceiling-side only.
                        out.method_calls += 1;
                        self.expr_flags(obj, ctx, guaranteed, out);
                    }
                    other => self.expr_flags(other, ctx, guaranteed, out),
                }
                for a in args {
                    self.expr_flags(a, ctx, guaranteed, out);
                }
            }
            Expr::Unary(_, e) => self.expr_flags(e, ctx, guaranteed, out),
            Expr::Binary(op, l, r) => {
                self.expr_flags(l, ctx, guaranteed, out);
                // Short-circuit operators may skip their right operand:
                // nothing in it is guaranteed.
                let rhs_guaranteed = guaranteed && *op != "&&" && *op != "||";
                self.expr_flags(r, ctx, rhs_guaranteed, out);
            }
            // A bare function reference only costs when called (the Call
            // arm counts it).
            Expr::Ident(_) => {}
            Expr::Undefined | Expr::Null | Expr::Bool(_) | Expr::Number(_) | Expr::Str(_) => {}
        }
    }
}

/// Flags gathered from one expression tree for the cost walk.
#[derive(Debug, Default)]
struct ExprFlags {
    /// Total expression nodes (each evaluation charges at most ~1 op,
    /// plus 1 for a host dispatch — the ceiling doubles this count).
    nodes: u64,
    /// Named function call sites: `(callee, guaranteed)`.
    calls: Vec<(String, bool)>,
    /// Method call sites (potential host dispatch / allocation).
    method_calls: u64,
    /// Allocation sites (array/object/Float32Array literals).
    allocs: u64,
    /// Allocation sites guaranteed to evaluate.
    guaranteed_allocs: u64,
}

/// Cost walk result for one statement block.
struct BlockCost {
    bound: CostBound,
    /// The block can `return` before its end, so nothing after it in the
    /// enclosing sequence is guaranteed.
    may_exit: bool,
    /// Guaranteed function calls (the floor folds callee floors in),
    /// and all possible calls (for the ceiling).
    guaranteed_calls: Vec<String>,
    all_calls: Vec<String>,
    /// Loops or event dispatch make any ceiling unsound.
    unbounded: bool,
}

/// Computes per-body cost bounds. `flags_of` supplies per-expression
/// facts (so the walk stays scope-aware without borrowing the pass
/// mutably).
fn body_cost(stmts: &[Stmt], flags_of: &mut dyn FnMut(&Expr) -> ExprFlags) -> BlockCost {
    let mut min_ops: u64 = 0;
    let mut max_ops: u64 = 0;
    let mut min_cells: u64 = 0;
    let mut max_cells: u64 = 0;
    let mut may_exit = false;
    let mut guaranteed_calls: Vec<String> = Vec::new();
    let mut all_calls: Vec<String> = Vec::new();
    let mut unbounded = false;
    let mut guaranteed = true; // statements after a possible return are not

    let add_expr = |e: &Expr,
                    guaranteed: bool,
                    _min_ops: &mut u64,
                    max_ops: &mut u64,
                    min_cells: &mut u64,
                    max_cells: &mut u64,
                    gcalls: &mut Vec<String>,
                    acalls: &mut Vec<String>,
                    flags_of: &mut dyn FnMut(&Expr) -> ExprFlags| {
        let f = flags_of(e);
        // Ceiling: every node evaluation charges one op, plus one extra
        // per node that could be a host/meter charge point.
        *max_ops = max_ops.saturating_add(f.nodes.saturating_mul(2));
        *max_cells = max_cells.saturating_add(f.allocs + f.method_calls);
        if guaranteed {
            *min_cells += f.guaranteed_allocs;
        }
        for (callee, call_guaranteed) in f.calls {
            if guaranteed && call_guaranteed {
                gcalls.push(callee.clone());
            }
            acalls.push(callee);
        }
    };

    for stmt in stmts {
        match stmt {
            Stmt::Var(_, init) => {
                if guaranteed {
                    min_ops += 1;
                }
                max_ops = max_ops.saturating_add(1);
                if let Some(e) = init {
                    add_expr(
                        e,
                        guaranteed,
                        &mut min_ops,
                        &mut max_ops,
                        &mut min_cells,
                        &mut max_cells,
                        &mut guaranteed_calls,
                        &mut all_calls,
                        flags_of,
                    );
                }
            }
            Stmt::Assign(target, value) => {
                if guaranteed {
                    min_ops += 1;
                }
                max_ops = max_ops.saturating_add(1);
                for e in [target, value] {
                    add_expr(
                        e,
                        guaranteed,
                        &mut min_ops,
                        &mut max_ops,
                        &mut min_cells,
                        &mut max_cells,
                        &mut guaranteed_calls,
                        &mut all_calls,
                        flags_of,
                    );
                }
            }
            Stmt::Expr(e) => {
                if guaranteed {
                    min_ops += 1;
                }
                max_ops = max_ops.saturating_add(1);
                add_expr(
                    e,
                    guaranteed,
                    &mut min_ops,
                    &mut max_ops,
                    &mut min_cells,
                    &mut max_cells,
                    &mut guaranteed_calls,
                    &mut all_calls,
                    flags_of,
                );
            }
            Stmt::Function(_) => {
                if guaranteed {
                    min_ops += 1;
                }
                max_ops = max_ops.saturating_add(1);
            }
            Stmt::Return(e) => {
                if guaranteed {
                    min_ops += 1;
                }
                max_ops = max_ops.saturating_add(1);
                if let Some(e) = e {
                    add_expr(
                        e,
                        guaranteed,
                        &mut min_ops,
                        &mut max_ops,
                        &mut min_cells,
                        &mut max_cells,
                        &mut guaranteed_calls,
                        &mut all_calls,
                        flags_of,
                    );
                }
                may_exit = true;
                guaranteed = false;
            }
            Stmt::If(cond, then, els) => {
                if guaranteed {
                    min_ops += 1;
                }
                max_ops = max_ops.saturating_add(1);
                add_expr(
                    cond,
                    guaranteed,
                    &mut min_ops,
                    &mut max_ops,
                    &mut min_cells,
                    &mut max_cells,
                    &mut guaranteed_calls,
                    &mut all_calls,
                    flags_of,
                );
                let then_cost = body_cost(then, flags_of);
                let else_cost = body_cost(els, flags_of);
                if guaranteed {
                    // Floor: the cheaper branch, body ops only (callee
                    // floors inside a branch are not guaranteed unless we
                    // tracked per-branch calls; stay conservative).
                    min_ops += then_cost.bound.min_ops.min(else_cost.bound.min_ops);
                    min_cells += then_cost
                        .bound
                        .min_new_cells
                        .min(else_cost.bound.min_new_cells);
                }
                match (then_cost.bound.max_ops, else_cost.bound.max_ops) {
                    (Some(a), Some(b)) => max_ops = max_ops.saturating_add(a.max(b)),
                    _ => unbounded = true,
                }
                match (then_cost.bound.max_new_cells, else_cost.bound.max_new_cells) {
                    (Some(a), Some(b)) => max_cells = max_cells.saturating_add(a.max(b)),
                    _ => unbounded = true,
                }
                all_calls.extend(then_cost.all_calls);
                all_calls.extend(else_cost.all_calls);
                unbounded |= then_cost.unbounded || else_cost.unbounded;
                if then_cost.may_exit || else_cost.may_exit {
                    may_exit = true;
                    guaranteed = false;
                }
            }
            Stmt::While(cond, body) => {
                if guaranteed {
                    min_ops += 1; // the statement itself; zero iterations
                }
                add_expr(
                    cond,
                    guaranteed,
                    &mut min_ops,
                    &mut max_ops,
                    &mut min_cells,
                    &mut max_cells,
                    &mut guaranteed_calls,
                    &mut all_calls,
                    flags_of,
                );
                let body_c = body_cost(body, flags_of);
                all_calls.extend(body_c.all_calls);
                unbounded = true; // iteration count is dynamic
                if body_c.may_exit {
                    may_exit = true;
                    guaranteed = false;
                }
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
            } => {
                if guaranteed {
                    min_ops += 1;
                }
                if let Some(s) = init {
                    let init_c = body_cost(std::slice::from_ref(s), flags_of);
                    if guaranteed {
                        min_ops += init_c.bound.min_ops;
                        min_cells += init_c.bound.min_new_cells;
                        guaranteed_calls.extend(init_c.guaranteed_calls);
                    }
                    all_calls.extend(init_c.all_calls);
                }
                if let Some(e) = cond {
                    add_expr(
                        e,
                        guaranteed,
                        &mut min_ops,
                        &mut max_ops,
                        &mut min_cells,
                        &mut max_cells,
                        &mut guaranteed_calls,
                        &mut all_calls,
                        flags_of,
                    );
                }
                if let Some(s) = update {
                    let upd_c = body_cost(std::slice::from_ref(s), flags_of);
                    all_calls.extend(upd_c.all_calls);
                }
                let body_c = body_cost(body, flags_of);
                all_calls.extend(body_c.all_calls);
                unbounded = true;
                if body_c.may_exit {
                    may_exit = true;
                    guaranteed = false;
                }
            }
        }
    }

    BlockCost {
        bound: CostBound {
            min_ops,
            max_ops: if unbounded { None } else { Some(max_ops) },
            min_new_cells: min_cells,
            max_new_cells: if unbounded { None } else { Some(max_cells) },
        },
        may_exit,
        guaranteed_calls,
        all_calls,
        unbounded,
    }
}

/// BFS over the call graph from the given roots.
// lint: allow(string-keyed-map)
fn reachable_from(functions: &BTreeMap<String, FnEffect>, roots: Vec<String>) -> BTreeSet<String> {
    let mut reachable: BTreeSet<String> = BTreeSet::new();
    let mut work = roots;
    while let Some(f) = work.pop() {
        if !functions.contains_key(&f) || !reachable.insert(f.clone()) {
            continue;
        }
        if let Some(fx) = functions.get(&f) {
            for g in &fx.calls {
                if !reachable.contains(g) {
                    work.push(g.clone());
                }
            }
        }
    }
    reachable
}

/// Folds per-function cost bounds into a per-round bound over the
/// handler roots.
///
/// Floor: an offloaded round dispatches (at least) one pending event to
/// (at least) one registered handler — the *minimum* over handlers of
/// their interprocedural floors is guaranteed. Ceiling: all handlers
/// could be registered for the dispatched event, so the ceiling sums
/// every handler's interprocedural ceiling; any loop, recursion, or
/// `dispatchEvent` (event cascade) anywhere reachable voids it.
// lint: allow(string-keyed-map)
fn round_cost(functions: &BTreeMap<String, FnEffect>, handlers: &BTreeSet<String>) -> CostBound {
    let mut floors: Vec<(u64, u64)> = Vec::new();
    let mut ceiling_ops: Option<u64> = Some(0);
    let mut ceiling_cells: Option<u64> = Some(0);
    for h in handlers {
        if !functions.contains_key(h) {
            continue;
        }
        // lint: allow(string-keyed-map)
        let mut memo: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        let floor = fn_floor(functions, h, &mut memo);
        floors.push(floor);
        match fn_ceiling(functions, h, &mut BTreeSet::new()) {
            Some((ops, cells)) => {
                ceiling_ops = ceiling_ops.map(|c| c.saturating_add(ops));
                ceiling_cells = ceiling_cells.map(|c| c.saturating_add(cells));
            }
            None => {
                ceiling_ops = None;
                ceiling_cells = None;
            }
        }
    }
    let (min_ops, min_new_cells) = floors.iter().copied().min().unwrap_or((0, 0));
    if floors.is_empty() {
        return CostBound {
            min_ops: 0,
            max_ops: Some(0),
            min_new_cells: 0,
            max_new_cells: Some(0),
        };
    }
    CostBound {
        min_ops,
        max_ops: ceiling_ops,
        min_new_cells,
        max_new_cells: ceiling_cells,
    }
}

/// Interprocedural floor for one function: its body floor (recursion
/// contributes zero — sound for a lower bound).
fn fn_floor(
    // lint: allow(string-keyed-map)
    functions: &BTreeMap<String, FnEffect>,
    name: &str,
    // lint: allow(string-keyed-map)
    memo: &mut BTreeMap<String, (u64, u64)>,
) -> (u64, u64) {
    if let Some(&v) = memo.get(name) {
        return v;
    }
    memo.insert(name.to_string(), (0, 0)); // cycle guard
    let Some(fx) = functions.get(name) else {
        return (0, 0);
    };
    // Body-only floor; guaranteed-call folding happens through the
    // per-body guaranteed_calls list, which FnEffect does not retain —
    // the body floor alone is already a sound per-round bound.
    let v = (fx.cost.min_ops, fx.cost.min_new_cells);
    memo.insert(name.to_string(), v);
    v
}

/// Interprocedural ceiling: body ceiling plus every call site's callee
/// ceiling; `None` on any loop, event dispatch, or recursion.
fn fn_ceiling(
    // lint: allow(string-keyed-map)
    functions: &BTreeMap<String, FnEffect>,
    name: &str,
    in_progress: &mut BTreeSet<String>,
) -> Option<(u64, u64)> {
    if !in_progress.insert(name.to_string()) {
        return None; // recursion
    }
    let result = (|| {
        let fx = functions.get(name)?;
        if fx.dispatches_events {
            return None; // event cascade: more handler runs
        }
        let mut ops = fx.cost.max_ops?;
        let mut cells = fx.cost.max_new_cells?;
        for callee in &fx.calls {
            let (c_ops, c_cells) = fn_ceiling(functions, callee, in_progress)?;
            ops = ops.saturating_add(c_ops);
            cells = cells.saturating_add(c_cells);
        }
        Some((ops, cells))
    })();
    in_progress.remove(name);
    result
}

/// Locals of `def` whose every `var` initializer and assignment is a
/// recognizable DOM expression — one-level alias tracking for the common
/// `var el = document.getElementById(..)` pattern. Params can be rebound
/// by callers, so they are never DOM-trusted; a local both DOM- and
/// other-assigned is not trusted either (flow-insensitive).
fn dom_locals(scopes: &Scopes<'_>, def: &FunctionDef) -> BTreeSet<String> {
    let ctx = Some(def.name.as_str());
    let Some(scope) = scopes.functions.get(def.name.as_str()) else {
        return BTreeSet::new();
    };
    let mut assigned_dom: BTreeSet<String> = BTreeSet::new();
    let mut assigned_other: BTreeSet<String> = BTreeSet::new();
    walk_stmts(&def.body, &mut |stmt| {
        let (name, value) = match stmt {
            Stmt::Var(name, init) => (name, init.as_ref()),
            Stmt::Assign(Expr::Ident(name), value) => (name, Some(value)),
            _ => return,
        };
        if value.is_some_and(|v| scopes.is_dom_expr(v, ctx)) {
            assigned_dom.insert(name.to_string());
        } else {
            assigned_other.insert(name.to_string());
        }
    });
    assigned_dom
        .into_iter()
        .filter(|n| scope.locals.contains(n) && !scope.params.contains(n))
        .filter(|n| !assigned_other.contains(n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts_with_model() -> EffectOptions {
        EffectOptions::new().with_host("model", HostEffect::Deterministic)
    }

    #[test]
    fn pure_function_is_pure() {
        let s = effect_summary(
            "function f(a) { var b = a + 1; return b; }\nf(1);",
            &EffectOptions::new(),
        )
        .unwrap();
        assert_eq!(s.functions["f"].classify(), Effect::Pure);
        assert!(s.nondet.is_empty());
    }

    #[test]
    fn direct_global_writes_are_attributed() {
        let s = effect_summary(
            "var a = 0;\nvar b = 0;\nfunction h() { a = 1; }\n\
             document.body.addEventListener(\"go\", h);",
            &EffectOptions::new(),
        )
        .unwrap();
        let writes = s.round_writes.expect("attributable");
        assert!(writes.contains("a"));
        assert!(!writes.contains("b"));
        match s.functions["h"].classify() {
            Effect::Writes(set) => assert_eq!(set.len(), 1),
            other => panic!("expected writes, got {other}"),
        }
    }

    #[test]
    fn member_write_roots_at_the_global() {
        let s = effect_summary(
            "var state = {n: 0};\nfunction h() { state.n = 1; }\n\
             document.body.addEventListener(\"go\", h);",
            &EffectOptions::new(),
        )
        .unwrap();
        assert!(s.round_writes.unwrap().contains("state"));
    }

    #[test]
    fn push_on_global_rooted_receiver_is_a_write() {
        let s = effect_summary(
            "var log = [];\nfunction h() { log.push(1); }\n\
             document.body.addEventListener(\"go\", h);",
            &EffectOptions::new(),
        )
        .unwrap();
        assert!(s.round_writes.unwrap().contains("log"));
    }

    #[test]
    fn dynamic_member_write_degrades_to_unknown() {
        let s = effect_summary(
            "var a = {n: 0};\nvar b = {n: 0};\n\
             function pick(x) { if (x) { return a; }\nreturn b; }\n\
             function h() { var o = pick(1); o.n = 5; }\n\
             document.body.addEventListener(\"go\", h);",
            &EffectOptions::new(),
        )
        .unwrap();
        assert!(s.round_writes.is_none(), "alias write must poison the set");
        assert_eq!(s.functions["h"].classify(), Effect::Unknown);
    }

    #[test]
    fn push_through_local_alias_degrades_to_unknown() {
        let s = effect_summary(
            "var log = [];\nfunction h() { var l = log; l.push(1); }\n\
             document.body.addEventListener(\"go\", h);",
            &EffectOptions::new(),
        )
        .unwrap();
        assert!(s.round_writes.is_none());
    }

    #[test]
    fn dom_writes_stay_replayable() {
        let s = effect_summary(
            "function h() { document.getElementById(\"out\").textContent = \"x\"; }\n\
             document.body.addEventListener(\"go\", h);",
            &EffectOptions::new(),
        )
        .unwrap();
        assert_eq!(s.functions["h"].classify(), Effect::Host(HostEffect::Dom));
        assert!(s.round_writes.unwrap().is_empty());
        assert!(s.nondet.is_empty());
    }

    #[test]
    fn dom_local_alias_is_tracked() {
        let s = effect_summary(
            "function h() { var el = document.getElementById(\"out\"); el.textContent = \"x\"; }\n\
             document.body.addEventListener(\"go\", h);",
            &EffectOptions::new(),
        )
        .unwrap();
        assert!(s.round_writes.is_some(), "DOM alias must not poison");
        assert_eq!(s.functions["h"].classify(), Effect::Host(HostEffect::Dom));
    }

    #[test]
    fn nondet_host_call_is_flagged_with_source() {
        let opts = EffectOptions::new().with_host("clock", HostEffect::Clock);
        let s = effect_summary(
            "var t = 0;\nfunction h() { t = clock.now(); }\n\
             document.body.addEventListener(\"go\", h);",
            &opts,
        )
        .unwrap();
        let err = s.verdict().unwrap_err();
        match err {
            AnalyzeError::Nondeterministic(sources) => {
                assert_eq!(sources.len(), 1);
                assert_eq!(sources[0].host, "clock");
                assert_eq!(sources[0].method, "now");
                assert_eq!(sources[0].function, "h");
                assert_eq!(sources[0].effect, HostEffect::Clock);
            }
            other => panic!("expected nondet, got {other}"),
        }
    }

    #[test]
    fn nondet_host_alias_is_conservatively_flagged() {
        let opts = EffectOptions::new().with_host("rng", HostEffect::Random);
        let s = effect_summary(
            "var r = 0;\nfunction h() { var m = rng;\nr = m.next(); }\n\
             document.body.addEventListener(\"go\", h);",
            &opts,
        )
        .unwrap();
        assert!(s.is_nondeterministic());
        assert_eq!(s.nondet[0].method, "*");
    }

    #[test]
    fn deterministic_host_is_not_flagged() {
        let s = effect_summary(
            "var r = null;\nfunction h() { r = model.inference(3); }\n\
             document.body.addEventListener(\"go\", h);",
            &opts_with_model(),
        )
        .unwrap();
        assert!(s.verdict().is_ok());
        assert!(s.round_writes.unwrap().contains("r"));
    }

    #[test]
    fn toplevel_nondeterminism_breaks_replay_too() {
        let opts = EffectOptions::new().with_host("clock", HostEffect::Clock);
        let s = effect_summary("var boot = clock.now();", &opts).unwrap();
        assert!(s.is_nondeterministic());
        assert_eq!(s.nondet[0].function, TOPLEVEL);
    }

    #[test]
    fn cost_floor_counts_guaranteed_statements() {
        let s = effect_summary(
            "var a = 0;\nfunction h() { a = 1;\na = 2;\na = 3; }\n\
             document.body.addEventListener(\"go\", h);",
            &EffectOptions::new(),
        )
        .unwrap();
        assert!(s.cost.min_ops >= 3, "floor {} too low", s.cost.min_ops);
        assert!(s.cost.max_ops.is_some());
    }

    #[test]
    fn loops_void_the_ceiling_but_not_the_floor() {
        let s = effect_summary(
            "var a = 0;\nfunction h() { a = 1;\nwhile (a) { a = a + 1; } }\n\
             document.body.addEventListener(\"go\", h);",
            &EffectOptions::new(),
        )
        .unwrap();
        assert!(s.cost.min_ops >= 2);
        assert_eq!(s.cost.max_ops, None);
    }

    #[test]
    fn early_return_caps_the_floor() {
        let s = effect_summary(
            "var a = 0;\nfunction h() { if (a) { return; }\na = 1;\na = 2;\na = 3;\na = 4; }\n\
             document.body.addEventListener(\"go\", h);",
            &EffectOptions::new(),
        )
        .unwrap();
        // The return path executes 2 statements (if + return); the floor
        // must not exceed that.
        assert!(s.cost.min_ops <= 2, "floor {} unsound", s.cost.min_ops);
    }

    #[test]
    fn guaranteed_exhaustion_flags_doomed_budgets() {
        let s = effect_summary(
            "var a = 0;\nfunction h() { a = 1;\na = 2;\na = 3; }\n\
             document.body.addEventListener(\"go\", h);",
            &EffectOptions::new(),
        )
        .unwrap();
        let tight = MeterLimits::default().with_ops(2);
        assert!(s.cost.guaranteed_exhaustion(&tight).is_some());
        let loose = MeterLimits::default().with_ops(1_000);
        assert!(s.cost.guaranteed_exhaustion(&loose).is_none());
    }

    #[test]
    fn paper_apps_are_fully_attributable() {
        use snapedge_webapp::HostEffect as HE;
        let opts = EffectOptions::new().with_host("model", HE::Deterministic);
        for (src, expected) in [
            (
                "var imageUrl = null;\nvar resultText = null;\n\
                 function onLoad() { imageUrl = document.getElementById(\"photo\").getAttribute(\"src\"); }\n\
                 function runInference() { resultText = model.inference(imageUrl);\n\
                 document.getElementById(\"result\").textContent = resultText; }\n\
                 document.body.addEventListener(\"click\", onLoad);\n\
                 document.body.addEventListener(\"run_inference\", runInference);",
                vec!["imageUrl", "resultText"],
            ),
            (
                "var feature = null;\n\
                 function runFront() { feature = model.front(\"input\"); }\n\
                 document.body.addEventListener(\"run_front\", runFront);",
                vec!["feature"],
            ),
        ] {
            let s = effect_summary(src, &opts).unwrap();
            assert!(s.verdict().is_ok());
            let writes = s.round_writes.expect("attributable");
            let got: Vec<&str> = writes.iter().map(String::as_str).collect();
            assert_eq!(got, expected, "{src}");
        }
    }

    #[test]
    fn parse_failure_is_a_typed_error() {
        let err = effect_summary("var = ;", &EffectOptions::new()).unwrap_err();
        assert!(matches!(err, AnalyzeError::Parse(_)), "{err}");
    }

    #[test]
    fn render_mentions_lattice_points() {
        let s = effect_summary(
            "var a = 0;\nfunction h() { a = 1; }\n\
             document.body.addEventListener(\"go\", h);",
            &EffectOptions::new(),
        )
        .unwrap();
        let text = s.render();
        assert!(text.contains("writes(a)"), "{text}");
        assert!(text.contains("round write set: {a}"), "{text}");
        assert!(text.contains("[handler]"), "{text}");
    }
}
