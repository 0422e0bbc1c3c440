//! Snapshot capture: serializing a live web app into *another web app*
//! (Section III-A of the paper).
//!
//! A snapshot is a self-contained HTML document: the serialized DOM plus a
//! generated script that re-declares every function, rebuilds the reachable
//! heap (cycles included), restores globals, re-registers event listeners,
//! restores canvas pixels, and finally re-dispatches the pending events —
//! so running the snapshot on any browser (the edge server's, or the
//! client's again) resumes execution exactly where capture stopped.
//!
//! Restore is not a separate mechanism: it is [`Browser::load_html`].
//!
//! The heap/global serialization core is shared with
//! [`delta`](crate::DeltaCapture) capture (the paper's future-work
//! direction of reusing state already present at the server).

use crate::ast::{escape_str, number_literal};
use crate::browser::{Browser, Core};
use crate::html::serialize_body;
use crate::intern::Symbol;
use crate::value::{HeapCell, JsValue, ObjId};
use crate::WebError;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::rc::Rc;

/// Cache of rendered `Float32Array` literals, keyed by
/// `(heap generation, cell, version)`. The write barrier bumps a cell's
/// version on every mutation, so a hit is guaranteed byte-identical to
/// re-rendering — clean payload cells share their serialized text across
/// captures instead of being re-stringified each time.
pub(crate) type RenderCache = BTreeMap<(u64, ObjId, u32), Rc<str>>;

/// Beyond this many cached literals the cache is dropped wholesale —
/// payload arrays are few and large, so eviction precision is not worth
/// bookkeeping.
const RENDER_CACHE_MAX: usize = 1024;

/// Options controlling snapshot generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotOptions {
    /// Apply the size optimization of reference \[10\]: heap cells referenced
    /// exactly once and free of cycles are inlined as literals instead of
    /// being built through numbered temporaries and patch statements.
    pub inline_single_use: bool,
    /// Run the static snapshot verifier (`snapedge-analyze`) on the
    /// generated script before shipping it. The webapp crate only carries
    /// the flag; the verification itself runs in the offload layer
    /// (`snapedge-core`), which rejects unshippable snapshots before any
    /// link traffic.
    pub verify: bool,
    /// Run the static effect analysis (`snapedge-analyze`) over the app.
    /// As with `verify`, the webapp crate only carries the flag; the
    /// offload layer computes the per-app effect summary, rejects
    /// nondeterministic apps before any link traffic, flags guaranteed
    /// meter exhaustion pre-ship, and feeds the op floor to the offload
    /// predictor. Off (the default) leaves every capture byte-identical
    /// to the unanalyzed path.
    pub effects: bool,
    /// Let delta capture use the write-barrier dirty sets recorded since
    /// [`Browser::state_base`](crate::Browser::state_base): only globals
    /// touched since the base (and globals rooting dirtied heap cells)
    /// are deep-compared, so capture cost scales with state *changed*
    /// instead of state *held*. Produces byte-identical deltas to the
    /// full-walk path; `false` forces the legacy full comparison
    /// (capturing against a base from a different browser falls back
    /// automatically). Full snapshots are unaffected.
    pub incremental: bool,
}

impl Default for SnapshotOptions {
    fn default() -> Self {
        SnapshotOptions {
            inline_single_use: true,
            verify: false,
            effects: false,
            incremental: true,
        }
    }
}

/// Size/structure accounting for a capture.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Reachable heap cells serialized.
    pub heap_cells: usize,
    /// Of those, how many were inlined as literals.
    pub inlined_cells: usize,
    /// Top-level functions re-declared.
    pub functions: usize,
    /// Event listeners re-registered.
    pub listeners: usize,
    /// Pending events re-dispatched.
    pub pending_events: usize,
    /// DOM nodes serialized.
    pub dom_nodes: usize,
    /// Total snapshot size in bytes.
    pub bytes: usize,
}

/// A captured execution state, as a self-contained web app.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    html: String,
    stats: SnapshotStats,
}

impl Snapshot {
    /// The snapshot document (HTML + generated script).
    pub fn html(&self) -> &str {
        &self.html
    }

    /// Size in bytes — what travels over the network.
    pub fn size_bytes(&self) -> u64 {
        self.html.len() as u64
    }

    /// Capture accounting.
    pub fn stats(&self) -> &SnapshotStats {
        &self.stats
    }
}

impl Browser {
    /// Captures the current execution state as a [`Snapshot`].
    ///
    /// Capture happens at an event boundary (the paper takes snapshots just
    /// before dispatching the offloaded event), so no interpreter call
    /// frames exist — exactly the restriction the original system has.
    ///
    /// # Errors
    ///
    /// Returns [`WebError::Snapshot`] when state cannot be serialized
    /// (dangling references).
    pub fn capture_snapshot(&mut self, options: &SnapshotOptions) -> Result<Snapshot, WebError> {
        capture(self, options)
    }

    /// Restores a snapshot, replacing the current app state. Identical to
    /// loading the snapshot as a fresh web app.
    ///
    /// # Errors
    ///
    /// Propagates HTML/script errors from [`Browser::load_html`].
    pub fn restore_snapshot(&mut self, snapshot: &Snapshot) -> Result<(), WebError> {
        self.core.globals.clear();
        self.core.functions.clear();
        self.core.listeners.clear();
        self.core.queue.clear();
        self.core.heap = crate::value::Heap::new();
        // The heap was rebuilt: every capture anchor and derived cache is
        // void (the fresh generation would shield the render cache anyway,
        // but stale entries are dead weight).
        self.snap_cache = None;
        self.layout_cache.clear();
        self.render_cache.clear();
        self.load_html(snapshot.html())
    }
}

/// Name prefix reserved for snapshot machinery (the restore function).
/// Functions and globals with this prefix are environment, not app state.
///
/// The parser rejects user declarations under this prefix (so apps cannot
/// shadow restore machinery), and the static analyzer treats it as the
/// boundary between app state and generated environment.
pub const RESERVED_PREFIX: &str = "__snapedge_";

/// Returns true for the exact machinery names the snapshot/delta
/// generators emit under [`RESERVED_PREFIX`]: `__snapedge_restore`,
/// `__snapedge_apply_delta`, and the delta new-subtree temporaries
/// `__snapedge_n<digits>`. These are the only reserved-prefix names the
/// parser accepts as declarations — anything else under the prefix is a
/// hygiene violation.
pub fn is_reserved_machinery(name: &str) -> bool {
    if name == "__snapedge_restore" || name == "__snapedge_apply_delta" {
        return true;
    }
    match name.strip_prefix("__snapedge_n") {
        Some(rest) => !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()),
        None => false,
    }
}

/// Output of [`emit_globals_script`].
pub(crate) struct GlobalsEmit {
    /// MiniJS statements: temp declarations, patches, global assignments.
    /// Intended to run inside a function scope (temps use `var`, globals
    /// use bare assignment).
    pub script: String,
    /// Heap cells serialized.
    pub cells: usize,
    /// Cells inlined as literals.
    pub inlined: usize,
}

/// Serializes the heap reachable from the *selected* globals, plus the
/// assignments for those globals. Shared by full capture (all globals) and
/// delta capture (changed globals only).
///
/// Globals are symbol-keyed in memory, but every serialized artifact is
/// defined in *name* order — selection resolves and sorts before any
/// byte is emitted. `render_cache` (when provided) reuses serialized
/// `Float32Array` text for cells whose version is unchanged.
pub(crate) fn emit_globals_script(
    core: &Core,
    names: &BTreeSet<Symbol>,
    options: &SnapshotOptions,
    mut render_cache: Option<&mut RenderCache>,
) -> Result<GlobalsEmit, WebError> {
    // ---- Reachability, in deterministic (name) order. ----
    let mut order: Vec<ObjId> = Vec::new();
    let mut seen: BTreeSet<ObjId> = BTreeSet::new();
    let mut stack: Vec<ObjId> = Vec::new();
    let selected: Vec<(crate::intern::Ident, &JsValue)> = core
        .globals
        .iter_sorted()
        .into_iter()
        .filter(|(k, _)| names.contains(&k.sym()) && !k.starts_with(RESERVED_PREFIX))
        .collect();
    for (_, value) in &selected {
        if let Some(id) = value_ref(value) {
            if seen.insert(id) {
                stack.push(id);
            }
        }
    }
    while let Some(id) = stack.pop() {
        order.push(id);
        for child in cell_refs(core.heap.cell(id)?) {
            if seen.insert(child) {
                stack.push(child);
            }
        }
    }

    // ---- Reference counts within the serialized subgraph. ----
    let mut refcount: BTreeMap<ObjId, usize> = BTreeMap::new();
    for (_, value) in &selected {
        if let Some(id) = value_ref(value) {
            *refcount.entry(id).or_default() += 1;
        }
    }
    for &id in &order {
        for child in cell_refs(core.heap.cell(id)?) {
            *refcount.entry(child).or_default() += 1;
        }
    }

    // ---- Cells participating in cycles can never be inlined. ----
    let cyclic = find_cyclic(core, &order)?;

    let mut inlined: BTreeSet<ObjId> = BTreeSet::new();
    if options.inline_single_use {
        // A cell is inlined when it is referenced exactly once and its
        // whole subgraph is acyclic single-use (so the literal expands
        // without duplication or forward references).
        fn inlinable(
            id: ObjId,
            core: &Core,
            refcount: &BTreeMap<ObjId, usize>,
            cyclic: &BTreeSet<ObjId>,
            memo: &mut BTreeMap<ObjId, bool>,
        ) -> bool {
            if let Some(&v) = memo.get(&id) {
                return v;
            }
            // Pre-mark to terminate on (unexpected) cycles conservatively.
            memo.insert(id, false);
            let ok = refcount.get(&id).copied().unwrap_or(0) == 1
                && !cyclic.contains(&id)
                && core
                    .heap
                    .cell(id)
                    .map(|c| {
                        cell_refs(c)
                            .into_iter()
                            .all(|child| inlinable(child, core, refcount, cyclic, memo))
                    })
                    .unwrap_or(false);
            memo.insert(id, ok);
            ok
        }
        let mut memo = BTreeMap::new();
        for &id in &order {
            if inlinable(id, core, &refcount, &cyclic, &mut memo) {
                inlined.insert(id);
            }
        }
    }

    // ---- Collision-free temporary prefix. ----
    let global_names = core.globals.names_sorted();
    let mut prefix = "__h".to_string();
    while global_names.iter().any(|k| k.starts_with(&prefix))
        || core.functions.values().any(|d| d.name.starts_with(&prefix))
    {
        prefix.push('_');
    }
    let temp_name = move |id: ObjId| format!("{prefix}{}", id.index());

    let mut script = String::new();

    // ---- Phase A: declare non-inlined cells. ----
    for &id in &order {
        if inlined.contains(&id) {
            continue;
        }
        match core.heap.cell(id)? {
            HeapCell::Object(_) => {
                let _ = writeln!(script, "var {} = {{}};", temp_name(id));
            }
            HeapCell::Array(_) => {
                let _ = writeln!(script, "var {} = [];", temp_name(id));
            }
            HeapCell::Float32Array(data) => {
                let _ = write!(script, "var {} = ", temp_name(id));
                match render_cache.as_deref_mut() {
                    Some(cache) => {
                        let key = (core.heap.generation(), id, core.heap.version(id));
                        if let Some(text) = cache.get(&key) {
                            script.push_str(text);
                        } else {
                            // The rendered text is retained by the cache as
                            // an `Rc<str>` — per-miss ownership is the
                            // point. lint: allow(collect-in-loop)
                            let mut text = String::new();
                            render_f32_literal(data, &mut text);
                            script.push_str(&text);
                            if cache.len() >= RENDER_CACHE_MAX {
                                cache.clear();
                            }
                            cache.insert(key, Rc::from(text));
                        }
                    }
                    None => render_f32_literal(data, &mut script),
                }
                script.push_str(";\n");
            }
        }
    }

    // ---- Phase B: patch members of non-inlined cells (handles cycles and
    // sharing). ----
    for &id in &order {
        if inlined.contains(&id) {
            continue;
        }
        match core.heap.cell(id)? {
            HeapCell::Object(map) => {
                for (k, v) in map {
                    if matches!(v, JsValue::Undefined) {
                        // Optimization from [10]: omit default values.
                        continue;
                    }
                    let _ = write!(script, "{}[{}] = ", temp_name(id), escape_str(k));
                    render_value(core, v, &inlined, &temp_name, &mut script)?;
                    script.push_str(";\n");
                }
            }
            HeapCell::Array(elems) => {
                for (i, v) in elems.iter().enumerate() {
                    if matches!(v, JsValue::Undefined) {
                        continue;
                    }
                    let _ = write!(script, "{}[{i}] = ", temp_name(id));
                    render_value(core, v, &inlined, &temp_name, &mut script)?;
                    script.push_str(";\n");
                }
            }
            HeapCell::Float32Array(_) => {}
        }
    }

    // ---- Global assignments (no `var`: run inside a function scope,
    // un-declared assignment creates true globals). ----
    for (name, value) in &selected {
        let _ = write!(script, "{name} = ");
        render_value(core, value, &inlined, &temp_name, &mut script)?;
        script.push_str(";\n");
    }

    Ok(GlobalsEmit {
        script,
        cells: order.len(),
        inlined: inlined.len(),
    })
}

/// Renders a value as a MiniJS expression (recursing into inlined cells).
pub(crate) fn render_value(
    core: &Core,
    value: &JsValue,
    inlined: &BTreeSet<ObjId>,
    temp_name: &dyn Fn(ObjId) -> String,
    out: &mut String,
) -> Result<(), WebError> {
    match value {
        JsValue::Undefined => out.push_str("undefined"),
        JsValue::Null => out.push_str("null"),
        JsValue::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        JsValue::Number(n) => out.push_str(&number_literal(*n)),
        JsValue::Str(s) => out.push_str(&escape_str(s)),
        JsValue::Function(name) => out.push_str(name),
        JsValue::Host(name) => out.push_str(name),
        JsValue::Dom(node) => {
            out.push_str(&element_expr(core, *node)?);
        }
        JsValue::Object(id) | JsValue::Array(id) | JsValue::Float32Array(id) => {
            if inlined.contains(id) {
                render_cell_literal(core, *id, inlined, temp_name, out)?;
            } else {
                out.push_str(&temp_name(*id));
            }
        }
    }
    Ok(())
}

fn render_cell_literal(
    core: &Core,
    id: ObjId,
    inlined: &BTreeSet<ObjId>,
    temp_name: &dyn Fn(ObjId) -> String,
    out: &mut String,
) -> Result<(), WebError> {
    match core.heap.cell(id)? {
        HeapCell::Object(map) => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&escape_str(k));
                out.push(':');
                render_value(core, v, inlined, temp_name, out)?;
            }
            out.push('}');
        }
        HeapCell::Array(elems) => {
            out.push('[');
            for (i, v) in elems.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_value(core, v, inlined, temp_name, out)?;
            }
            out.push(']');
        }
        HeapCell::Float32Array(data) => {
            render_f32_literal(data, out);
        }
    }
    Ok(())
}

fn capture(browser: &mut Browser, options: &SnapshotOptions) -> Result<Snapshot, WebError> {
    browser.core.doc.ensure_ids();
    let core = &browser.core;
    let render_cache = &mut browser.render_cache;

    let mut script = String::new();
    script.push_str("// snapshot generated by snapedge\n");

    // 1. Functions, sorted by name (the map is symbol-keyed, so emission
    //    re-sorts). The reserved restore function from a previous
    //    snapshot generation is never app state.
    for def in core.functions_sorted() {
        if def.name.starts_with(RESERVED_PREFIX) {
            continue;
        }
        script.push_str(&def.to_string());
    }

    // 2-4. State rebuilding runs inside a function so heap temporaries are
    // locals; app globals are created by un-declared assignment.
    script.push_str(&format!("function {RESERVED_PREFIX}restore() {{\n"));
    let all_names: BTreeSet<Symbol> = core.globals.iter().map(|(s, _)| s).collect();
    let emit = emit_globals_script(core, &all_names, options, Some(render_cache))?;
    script.push_str(&emit.script);

    // 5. Event listeners (registration order preserved).
    for listener in &core.listeners {
        let _ = writeln!(
            script,
            "{}.addEventListener({}, {});",
            element_expr(core, listener.target)?,
            escape_str(&listener.event),
            listener.handler
        );
    }

    // 6. Canvas pixel payloads.
    for node in core.doc.walk() {
        if let Some(data) = core
            .doc
            .image_data(node)
            .map_err(|e| WebError::Snapshot(format!("canvas: {e}")))?
        {
            let _ = write!(script, "{}.setImageData(", element_expr(core, node)?);
            render_f32_literal(data, &mut script);
            script.push_str(");\n");
        }
    }

    // 7. Pending events — the re-dispatch that resumes execution.
    for event in &core.queue {
        let _ = writeln!(
            script,
            "{}.dispatchEvent({});",
            element_expr(core, event.target)?,
            escape_str(&event.event)
        );
    }
    script.push_str(&format!("}}\n{RESERVED_PREFIX}restore();\n"));

    let body = serialize_body(&core.doc);
    let html = format!("<html><body>{body}</body>\n<script>\n{script}</script></html>\n");
    let stats = SnapshotStats {
        heap_cells: emit.cells,
        inlined_cells: emit.inlined,
        functions: core
            .functions
            .values()
            .filter(|d| !d.name.starts_with(RESERVED_PREFIX))
            .count(),
        listeners: core.listeners.len(),
        pending_events: core.queue.len(),
        dom_nodes: core.doc.walk().len(),
        bytes: html.len(),
    };
    // Metered capture: serializing N reachable heap cells costs N ops, so
    // a tenant cannot smuggle unbounded serialization work (the snapshot
    // walks the whole reachable graph) past its op budget.
    browser.meter_charge(emit.cells as u64)?;
    Ok(Snapshot { html, stats })
}

/// Floats are JS numbers (f64): widening `f32 -> f64` before printing
/// reproduces the long decimal expansions that make the paper's feature
/// data so large in text form (≈18 bytes/value at GoogLeNet's `1st_conv`).
pub(crate) fn render_f32_literal(data: &[f32], out: &mut String) {
    out.push_str("new Float32Array([");
    for (i, &v) in data.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let d = v as f64;
        if d.is_nan() {
            out.push_str("(0/0)");
        } else if d.is_infinite() {
            out.push_str(if d > 0.0 { "(1/0)" } else { "(-1/0)" });
        } else if d < 0.0 {
            let _ = write!(out, "(-{})", -d);
        } else {
            let _ = write!(out, "{d}");
        }
    }
    out.push_str("])");
}

/// MiniJS expression that resolves to a DOM element after restore.
pub(crate) fn element_expr(core: &Core, node: crate::dom::DomNodeId) -> Result<String, WebError> {
    if node == core.doc.body() {
        return Ok("document.body".to_string());
    }
    let id = core
        .doc
        .attr(node, "id")
        .map_err(|e| WebError::Snapshot(format!("dom ref: {e}")))?
        .ok_or_else(|| WebError::Snapshot("dom node without id after ensure_ids".into()))?;
    Ok(format!("document.getElementById({})", escape_str(id)))
}

pub(crate) fn value_ref(value: &JsValue) -> Option<ObjId> {
    match value {
        JsValue::Object(id) | JsValue::Array(id) | JsValue::Float32Array(id) => Some(*id),
        _ => None,
    }
}

pub(crate) fn cell_refs(cell: &HeapCell) -> Vec<ObjId> {
    match cell {
        HeapCell::Object(map) => map.values().filter_map(value_ref).collect(),
        HeapCell::Array(elems) => elems.iter().filter_map(value_ref).collect(),
        HeapCell::Float32Array(_) => Vec::new(),
    }
}

/// Finds cells that participate in reference cycles (Tarjan SCC; an SCC of
/// size > 1, or a self-loop, is cyclic).
pub(crate) fn find_cyclic(core: &Core, order: &[ObjId]) -> Result<BTreeSet<ObjId>, WebError> {
    #[derive(Default)]
    struct Tarjan {
        index: BTreeMap<ObjId, usize>,
        lowlink: BTreeMap<ObjId, usize>,
        on_stack: BTreeSet<ObjId>,
        stack: Vec<ObjId>,
        next: usize,
        cyclic: BTreeSet<ObjId>,
    }
    fn strongconnect(v: ObjId, core: &Core, t: &mut Tarjan) -> Result<(), WebError> {
        t.index.insert(v, t.next);
        t.lowlink.insert(v, t.next);
        t.next += 1;
        t.stack.push(v);
        t.on_stack.insert(v);
        let mut self_loop = false;
        for w in cell_refs(core.heap.cell(v)?) {
            if w == v {
                self_loop = true;
            }
            if !t.index.contains_key(&w) {
                strongconnect(w, core, t)?;
                let wl = t.lowlink[&w];
                let vl = t.lowlink[&v];
                t.lowlink.insert(v, vl.min(wl));
            } else if t.on_stack.contains(&w) {
                let wi = t.index[&w];
                let vl = t.lowlink[&v];
                t.lowlink.insert(v, vl.min(wi));
            }
        }
        if t.lowlink[&v] == t.index[&v] {
            let mut component = Vec::new();
            while let Some(w) = t.stack.pop() {
                t.on_stack.remove(&w);
                component.push(w);
                if w == v {
                    break;
                }
            }
            if component.len() > 1 || self_loop {
                t.cyclic.extend(component);
            }
        }
        Ok(())
    }
    let mut t = Tarjan::default();
    for &id in order {
        if !t.index.contains_key(&id) {
            strongconnect(id, core, &mut t)?;
        }
    }
    Ok(t.cyclic)
}

/// Structural equality of two browsers' *app state* (globals, heap graph,
/// functions, listeners, queue, DOM) — how tests assert that migration
/// preserved execution state. Host objects are environment and excluded.
pub fn state_eq(a: &Browser, b: &Browser) -> bool {
    let (ca, cb) = (a.core(), b.core());
    // Globals: same names, deep-equal values. Symbols are per-thread
    // canonical, so a symbol probe across two browsers compares names.
    if ca.globals.len() != cb.globals.len() {
        return false;
    }
    for (sym, va) in ca.globals.iter() {
        let Some(vb) = cb.globals.get(sym) else {
            return false;
        };
        // Visited-set only — nothing is emitted in iteration order.
        // lint: allow(hash-iter)
        let mut visited = std::collections::HashSet::new();
        if !ca.heap.deep_eq(va, &cb.heap, vb, &mut visited) {
            return false;
        }
    }
    // Functions: identical ASTs (names included — `FunctionDef` equality
    // covers them), ignoring reserved snapshot machinery.
    let fa: Vec<_> = ca
        .functions_sorted()
        .into_iter()
        .filter(|d| !d.name.starts_with(RESERVED_PREFIX))
        .collect();
    let fb: Vec<_> = cb
        .functions_sorted()
        .into_iter()
        .filter(|d| !d.name.starts_with(RESERVED_PREFIX))
        .collect();
    if fa.len() != fb.len() {
        return false;
    }
    for (da, db) in fa.iter().zip(&fb) {
        if da.as_ref() != db.as_ref() {
            return false;
        }
    }
    // Listeners and queue compared via target element ids.
    let resolve = |core: &Core, node| -> Option<String> {
        core.doc.attr(node, "id").ok().flatten().map(str::to_string)
    };
    let la: Vec<_> = ca
        .listeners
        .iter()
        .map(|l| (resolve(ca, l.target), l.event.clone(), l.handler.clone()))
        .collect();
    let lb: Vec<_> = cb
        .listeners
        .iter()
        .map(|l| (resolve(cb, l.target), l.event.clone(), l.handler.clone()))
        .collect();
    if la != lb {
        return false;
    }
    let qa: Vec<_> = ca
        .queue
        .iter()
        .map(|e| (resolve(ca, e.target), e.event.clone()))
        .collect();
    let qb: Vec<_> = cb
        .queue
        .iter()
        .map(|e| (resolve(cb, e.target), e.event.clone()))
        .collect();
    if qa != qb {
        return false;
    }
    ca.doc.tree_eq(&cb.doc)
}
