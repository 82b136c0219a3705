//! Batched columnar (vectorized) Cypher execution over [`CompactGraph`].
//!
//! The row-at-a-time interpreter in [`crate::cypher`] carries each
//! intermediate result as a `FxHashMap<String, Binding>` — every pattern
//! hop clones the map, re-hashes variable names, and re-probes the key
//! dictionary per property read. Over the frozen compact snapshot none of
//! that is necessary: this module runs the **same plan** (pattern order,
//! index pushdown, reverse anchoring, parallel chunking) through batched
//! physical operators instead:
//!
//! * label scans and eq-index probes emit sorted id runs (postings
//!   slices) that become a node **column**;
//! * CSR expansion is a gather — one pass over each anchor's adjacency
//!   slice appends to a selection vector plus edge/target columns, then
//!   every existing column is gathered by the selection vector;
//! * property predicates and projections compile to [`VExpr`] trees whose
//!   label/key strings are resolved to dictionary symbols **once per
//!   batch**, then evaluated over id vectors;
//! * parallel fan-out is **morsel-driven** by default (see
//!   [`crate::morsel`]): the first pattern's candidate run is cut into
//!   fixed-size morsels behind a shared cursor and merged in morsel
//!   order; the legacy static contiguous chunking survives behind
//!   [`Scheduler::Static`](crate::cypher::Scheduler) as an A/B baseline.
//!
//! Answers are bit-identical to the interpreted path (pinned by
//! `tests/vectorized_differential.rs` and `tests/morsel_differential.rs`):
//! operators emit rows in the same order, apply the same three-valued NULL
//! logic via the shared [`compare`]/[`aggregate_core`]/[`shape_rows`]
//! helpers, and fall back to the interpreter for the `OPTIONAL MATCH`
//! tail, which is row-oriented by nature.

use crate::cypher::compare;
use crate::cypher::{
    aggregate_core, err, finish_single_inner, shape_rows, start_candidates, Binding, CmpOp,
    CypherError, Direction, Expr, NodePattern, Params, PartPath, PathPattern, Probe, ReturnItem,
    Row, Rows, SinglePlan, SingleQuery, PARALLEL_MIN_WORK,
};
use crate::profile::ProfHook;
use s3pg_pg::{CompactGraph, EdgeId, NodeId, PgRead, Value};
use s3pg_rdf::Sym;

/// One column of a batch: homogeneous bindings for a variable across all
/// rows. Node/edge columns are plain id vectors; `Val` columns (UNWIND
/// output) hold owned values.
#[derive(Debug, Clone)]
pub(crate) enum Col {
    Node(Vec<NodeId>),
    Edge(Vec<EdgeId>),
    Val(Vec<Value>),
}

impl Col {
    fn gather(&self, sel: &[u32]) -> Col {
        match self {
            Col::Node(v) => Col::Node(sel.iter().map(|&i| v[i as usize]).collect()),
            Col::Edge(v) => Col::Edge(sel.iter().map(|&i| v[i as usize]).collect()),
            Col::Val(v) => Col::Val(sel.iter().map(|&i| v[i as usize].clone()).collect()),
        }
    }

    fn extend(&mut self, other: Col) {
        match (self, other) {
            (Col::Node(a), Col::Node(b)) => a.extend(b),
            (Col::Edge(a), Col::Edge(b)) => a.extend(b),
            (Col::Val(a), Col::Val(b)) => a.extend(b),
            _ => unreachable!("chunk batches follow the same operator sequence"),
        }
    }
}

/// A batch of intermediate rows in columnar form: named columns of equal
/// length. The interpreter's per-row hash maps become one `(name, column)`
/// pair per variable for the whole batch.
#[derive(Debug, Clone)]
pub(crate) struct Batch {
    pub(crate) cols: Vec<(String, Col)>,
    pub(crate) len: usize,
}

impl Batch {
    /// The expansion seed: one row binding nothing (the interpreter's
    /// `vec![Row::default()]`).
    fn unit() -> Batch {
        Batch {
            cols: Vec::new(),
            len: 1,
        }
    }

    pub(crate) fn empty() -> Batch {
        Batch {
            cols: Vec::new(),
            len: 0,
        }
    }

    fn col_index(&self, name: &str) -> Option<usize> {
        self.cols.iter().position(|(n, _)| n == name)
    }

    fn col(&self, name: &str) -> Option<&Col> {
        self.cols.iter().find(|(n, _)| n == name).map(|(_, c)| c)
    }

    /// Regenerate every column through a selection vector of row indices
    /// (repeats allowed — fan-out gathers repeat the source row index once
    /// per emitted candidate).
    fn gather(&self, sel: &[u32]) -> Batch {
        Batch {
            cols: self
                .cols
                .iter()
                .map(|(n, c)| (n.clone(), c.gather(sel)))
                .collect(),
            len: sel.len(),
        }
    }

    /// Bind (or rebind) a variable column, mirroring `Row::insert`'s
    /// overwrite semantics.
    fn set_col(&mut self, name: &str, col: Col) {
        match self.col_index(name) {
            Some(i) => self.cols[i].1 = col,
            None => self.cols.push((name.to_string(), col)),
        }
    }

    /// Concatenate another batch with the same schema (parallel chunk or
    /// morsel merge, order preserved by the caller).
    pub(crate) fn append(&mut self, other: Batch) {
        debug_assert!(self
            .cols
            .iter()
            .zip(&other.cols)
            .all(|((a, _), (b, _))| a == b));
        self.len += other.len;
        for ((_, a), (_, b)) in self.cols.iter_mut().zip(other.cols) {
            a.extend(b);
        }
    }
}

/// Node-pattern labels resolved to symbols once per batch. `None` means a
/// label the dictionary has never seen — no node can match.
fn resolve_node_labels(cg: &CompactGraph, labels: &[String]) -> Option<Vec<Sym>> {
    labels.iter().map(|l| cg.key_sym(l)).collect()
}

#[inline]
fn labels_match(cg: &CompactGraph, labels: &Option<Vec<Sym>>, n: NodeId) -> bool {
    match labels {
        None => false,
        Some(syms) => {
            let row = cg.node_label_syms(n);
            syms.iter().all(|s| row.contains(s))
        }
    }
}

/// Relationship labels resolved once per batch; an empty pattern matches
/// every edge, and unresolvable labels can never match.
struct RelSyms {
    match_all: bool,
    syms: Vec<Sym>,
}

fn resolve_rel_labels(cg: &CompactGraph, labels: &[String]) -> RelSyms {
    RelSyms {
        match_all: labels.is_empty(),
        syms: labels.iter().filter_map(|l| cg.key_sym(l)).collect(),
    }
}

#[inline]
fn edge_label_ok(cg: &CompactGraph, rs: &RelSyms, e: EdgeId) -> bool {
    if rs.match_all {
        return true;
    }
    let row = cg.edge_label_syms(e);
    rs.syms.iter().any(|s| row.contains(s))
}

/// Seed a pattern's start binding over an incoming batch: filter an
/// already-bound node column, or cross-product with the (probe or label
/// scan) candidate run. Returns the seeded batch plus the anchor column
/// the hops expand from.
fn seed_batch(
    cg: &CompactGraph,
    pattern: &PathPattern,
    probe: Option<&Probe>,
    batch: Batch,
) -> Result<(Batch, Vec<NodeId>), CypherError> {
    let start = &pattern.start;
    match start.var.as_deref().and_then(|v| batch.col_index(v)) {
        Some(ci) => match &batch.cols[ci].1 {
            Col::Node(ids) => {
                let labels = resolve_node_labels(cg, &start.labels);
                let mut sel: Vec<u32> = Vec::with_capacity(ids.len());
                for (i, &n) in ids.iter().enumerate() {
                    if labels_match(cg, &labels, n) {
                        sel.push(i as u32);
                    }
                }
                let anchors: Vec<NodeId> = sel.iter().map(|&i| ids[i as usize]).collect();
                Ok((batch.gather(&sel), anchors))
            }
            _ => {
                if batch.len > 0 {
                    err("pattern variable already bound to a non-node")
                } else {
                    Ok((batch, Vec::new()))
                }
            }
        },
        None => {
            let candidates = start_candidates(cg, start, probe);
            let labels = resolve_node_labels(cg, &start.labels);
            let matching: Vec<NodeId> = candidates
                .as_slice()
                .iter()
                .copied()
                .filter(|&n| labels_match(cg, &labels, n))
                .collect();
            let n = batch.len;
            let m = matching.len();
            // Row-major cross product, matching the interpreter's
            // per-row candidate enumeration order.
            let mut sel: Vec<u32> = Vec::with_capacity(n * m);
            for i in 0..n as u32 {
                for _ in 0..m {
                    sel.push(i);
                }
            }
            let mut out = batch.gather(&sel);
            let mut anchors: Vec<NodeId> = Vec::with_capacity(n * m);
            for _ in 0..n {
                anchors.extend_from_slice(&matching);
            }
            if let Some(v) = &start.var {
                out.set_col(v, Col::Node(anchors.clone()));
            }
            Ok((out, anchors))
        }
    }
}

/// Seed the first pattern from one contiguous candidate chunk or morsel
/// (parallel worker entry — the interpreter's `seed_rows` over a chunk).
pub(crate) fn seed_chunk(
    cg: &CompactGraph,
    start: &NodePattern,
    chunk: &[NodeId],
) -> (Batch, Vec<NodeId>) {
    let labels = resolve_node_labels(cg, &start.labels);
    let matching: Vec<NodeId> = chunk
        .iter()
        .copied()
        .filter(|&n| labels_match(cg, &labels, n))
        .collect();
    let mut batch = Batch {
        cols: Vec::new(),
        len: matching.len(),
    };
    if let Some(v) = &start.var {
        batch.set_col(v, Col::Node(matching.clone()));
    }
    (batch, matching)
}

/// Expand a pattern's hops: for each hop, one pass over every anchor's
/// CSR adjacency slice builds a selection vector plus edge/target columns,
/// then the batch is gathered through it. Check order (edge label, target
/// label, pre-bound target equality) matches the interpreter exactly, so
/// emitted row order is identical.
pub(crate) fn expand_hops_batch(
    cg: &CompactGraph,
    pattern: &PathPattern,
    mut batch: Batch,
    mut anchors: Vec<NodeId>,
) -> Result<Batch, CypherError> {
    for (rel, node) in &pattern.hops {
        let rel_syms = resolve_rel_labels(cg, &rel.labels);
        let node_labels = resolve_node_labels(cg, &node.labels);
        let prebound = node.var.as_deref().and_then(|v| batch.col(v));
        let mut sel: Vec<u32> = Vec::new();
        let mut edges: Vec<EdgeId> = Vec::new();
        let mut targets: Vec<NodeId> = Vec::new();
        for (i, &anchor) in anchors.iter().enumerate() {
            let mut scan = |adj: &[EdgeId], outgoing: bool| {
                for &e in adj {
                    if !edge_label_ok(cg, &rel_syms, e) {
                        continue;
                    }
                    let (src, dst) = PgRead::edge_endpoints(cg, e);
                    let other = if outgoing { dst } else { src };
                    if !labels_match(cg, &node_labels, other) {
                        continue;
                    }
                    // Respect pre-bound node variables (joins between
                    // patterns): a non-node binding never equals a node.
                    match prebound {
                        Some(Col::Node(ids)) if ids[i] != other => continue,
                        Some(Col::Node(_)) | None => {}
                        Some(_) => continue,
                    }
                    sel.push(i as u32);
                    edges.push(e);
                    targets.push(other);
                }
            };
            match rel.direction {
                Direction::Out => scan(cg.out_adjacency(anchor), true),
                Direction::In => scan(cg.in_adjacency(anchor), false),
                Direction::Undirected => {
                    scan(cg.out_adjacency(anchor), true);
                    scan(cg.in_adjacency(anchor), false);
                }
            }
        }
        let mut next = batch.gather(&sel);
        if let Some(v) = &rel.var {
            next.set_col(v, Col::Edge(edges));
        }
        if let Some(v) = &node.var {
            next.set_col(v, Col::Node(targets.clone()));
        }
        anchors = targets;
        batch = next;
        if batch.len == 0 {
            break;
        }
    }
    Ok(batch)
}

/// Evaluate a single-hop pattern anchored at its already-bound end node —
/// the vectorized [`ExpandReverse`]: walk the opposite CSR slice of each
/// end binding and gather matching start nodes.
///
/// [`ExpandReverse`]: crate::cypher::explain
fn expand_reversed(
    cg: &CompactGraph,
    pattern: &PathPattern,
    batch: Batch,
) -> Result<Batch, CypherError> {
    let (rel, end) = &pattern.hops[0];
    let end_var = end
        .var
        .as_deref()
        .expect("reversed pattern has an end variable");
    let Some(ci) = batch.col_index(end_var) else {
        // Defensive: the planner only reverses patterns whose end variable
        // is bound by an earlier pattern, but fall back to the forward
        // expansion rather than miscompute (mirrors the interpreter).
        let (seeded, anchors) = seed_batch(cg, pattern, None, batch)?;
        return expand_hops_batch(cg, pattern, seeded, anchors);
    };
    let Col::Node(ends) = &batch.cols[ci].1 else {
        // A non-node binding never matches a node pattern: no rows.
        let mut out = batch.gather(&[]);
        if let Some(v) = &rel.var {
            out.set_col(v, Col::Edge(Vec::new()));
        }
        if let Some(v) = &pattern.start.var {
            out.set_col(v, Col::Node(Vec::new()));
        }
        return Ok(out);
    };
    let end_labels = resolve_node_labels(cg, &end.labels);
    let start_labels = resolve_node_labels(cg, &pattern.start.labels);
    let rel_syms = resolve_rel_labels(cg, &rel.labels);
    let mut sel: Vec<u32> = Vec::new();
    let mut edges: Vec<EdgeId> = Vec::new();
    let mut starts: Vec<NodeId> = Vec::new();
    for (i, &anchor) in ends.iter().enumerate() {
        if !labels_match(cg, &end_labels, anchor) {
            continue;
        }
        let mut scan = |adj: &[EdgeId], incoming: bool| {
            for &e in adj {
                if !edge_label_ok(cg, &rel_syms, e) {
                    continue;
                }
                let (src, dst) = PgRead::edge_endpoints(cg, e);
                let other = if incoming { src } else { dst };
                if !labels_match(cg, &start_labels, other) {
                    continue;
                }
                sel.push(i as u32);
                edges.push(e);
                starts.push(other);
            }
        };
        // The hop direction is written relative to the start node; anchored
        // at the end we walk the opposite adjacency list.
        match rel.direction {
            Direction::Out => scan(cg.in_adjacency(anchor), true),
            Direction::In => scan(cg.out_adjacency(anchor), false),
            Direction::Undirected => {
                scan(cg.out_adjacency(anchor), false);
                scan(cg.in_adjacency(anchor), true);
            }
        }
    }
    let mut out = batch.gather(&sel);
    if let Some(v) = &rel.var {
        out.set_col(v, Col::Edge(edges));
    }
    if let Some(v) = &pattern.start.var {
        out.set_col(v, Col::Node(starts));
    }
    Ok(out)
}

/// One planned pattern, vectorized: reverse-anchored or seed-then-expand.
pub(crate) fn expand_pattern(
    cg: &CompactGraph,
    pattern: &PathPattern,
    probe: Option<&Probe>,
    reversed: bool,
    batch: Batch,
) -> Result<Batch, CypherError> {
    if reversed {
        expand_reversed(cg, pattern, batch)
    } else {
        let (seeded, anchors) = seed_batch(cg, pattern, probe, batch)?;
        expand_hops_batch(cg, pattern, seeded, anchors)
    }
}

/// Expand the required MATCH patterns in planned order over batches using
/// **static contiguous chunking** (the [`Scheduler::Static`] baseline).
/// Chunking and merge order match the interpreter's, so sequential and
/// parallel results are identical. Engagement is decided on estimated
/// total work alone — morsels/chunks handle granularity, so a small
/// candidate run with a huge fan-out still parallelizes.
fn expand_patterns_vectorized<P: ProfHook>(
    cg: &CompactGraph,
    q: &SingleQuery,
    sp: &SinglePlan,
    probes: &[Option<Probe>],
    threads: usize,
    prof: P,
) -> Result<Batch, CypherError> {
    if threads > 1 {
        if let Some(&first) = sp.order.first() {
            let pattern = &q.patterns[first];
            let candidates = start_candidates(cg, &pattern.start, probes[first].as_ref());
            let candidates = candidates.as_slice();
            let work = candidates.len().saturating_mul(sp.per_row());
            if work >= PARALLEL_MIN_WORK {
                let rest = &sp.order[1..];
                let chunk_size = candidates.len().div_ceil(threads);
                let fan_out = prof.begin();
                let outcomes: Vec<Result<Batch, CypherError>> = std::thread::scope(|scope| {
                    let handles: Vec<_> = candidates
                        .chunks(chunk_size)
                        .map(|chunk| {
                            scope.spawn(move || {
                                let started = prof.begin();
                                let (seeded, anchors) = seed_chunk(cg, &pattern.start, chunk);
                                let mut batch = expand_hops_batch(cg, pattern, seeded, anchors)?;
                                prof.record(format_args!("pat{first}"), batch.len, started);
                                prof.note_batches(format_args!("pat{first}"), 1);
                                for &pi in rest {
                                    if batch.len == 0 {
                                        break;
                                    }
                                    let started = prof.begin();
                                    batch = expand_pattern(
                                        cg,
                                        &q.patterns[pi],
                                        probes[pi].as_ref(),
                                        sp.reversed[pi],
                                        batch,
                                    )?;
                                    prof.record(format_args!("pat{pi}"), batch.len, started);
                                    prof.note_batches(format_args!("pat{pi}"), 1);
                                }
                                Ok(batch)
                            })
                        })
                        .collect();
                    prof.note_chunks(format_args!("parallel"), handles.len());
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("cypher worker panicked"))
                        .collect()
                });
                // Concatenate chunk batches in chunk order; empty chunks
                // (early-broken pattern chains) contribute no rows.
                let mut merged: Option<Batch> = None;
                for outcome in outcomes {
                    let b = outcome?;
                    if b.len == 0 {
                        continue;
                    }
                    match &mut merged {
                        None => merged = Some(b),
                        Some(m) => m.append(b),
                    }
                }
                let merged = merged.unwrap_or_else(Batch::empty);
                prof.record(format_args!("parallel"), merged.len, fan_out);
                prof.note_batches(format_args!("parallel"), 1);
                return Ok(merged);
            }
        }
    }
    let mut batch = Batch::unit();
    for &pi in &sp.order {
        let started = prof.begin();
        batch = expand_pattern(
            cg,
            &q.patterns[pi],
            probes[pi].as_ref(),
            sp.reversed[pi],
            batch,
        )?;
        prof.record(format_args!("pat{pi}"), batch.len, started);
        prof.note_batches(format_args!("pat{pi}"), 1);
        if batch.len == 0 {
            break;
        }
    }
    Ok(batch)
}

/// An expression compiled against one batch's column layout: variable
/// names resolved to column indexes and property keys to dictionary
/// symbols once, instead of per row. Evaluation mirrors the interpreter's
/// `eval` (same NULL propagation, same three-valued logic, the shared
/// [`compare`]).
pub(crate) enum VExpr {
    /// Literals, `NULL`, resolved parameters, and every reference that can
    /// only ever be NULL (unbound variables, unknown keys, non-node
    /// bindings).
    Const(Option<Value>),
    ValCol(usize),
    NodeProp(usize, Sym),
    EdgeProp(usize, Sym),
    Coalesce(Vec<VExpr>),
    Cmp(CmpOp, Box<VExpr>, Box<VExpr>),
    And(Box<VExpr>, Box<VExpr>),
    Or(Box<VExpr>, Box<VExpr>),
    Not(Box<VExpr>),
    IsNull(Box<VExpr>, bool),
}

impl VExpr {
    pub(crate) fn compile(cg: &CompactGraph, expr: &Expr, batch: &Batch, params: &Params) -> VExpr {
        match expr {
            Expr::Null => VExpr::Const(None),
            Expr::Lit(v) => VExpr::Const(Some(v.clone())),
            // Unbound parameters are rejected before evaluation starts, so
            // a miss (library misuse) degrades to NULL, never a panic.
            Expr::Param(name) => VExpr::Const(params.get(name).cloned()),
            Expr::Var(name) => match batch.col_index(name) {
                Some(ci) => match &batch.cols[ci].1 {
                    Col::Val(_) => VExpr::ValCol(ci),
                    _ => VExpr::Const(None),
                },
                None => VExpr::Const(None),
            },
            Expr::Prop(var, key) => match (batch.col_index(var), cg.key_sym(key)) {
                (Some(ci), Some(k)) => match &batch.cols[ci].1 {
                    Col::Node(_) => VExpr::NodeProp(ci, k),
                    Col::Edge(_) => VExpr::EdgeProp(ci, k),
                    Col::Val(_) => VExpr::Const(None),
                },
                _ => VExpr::Const(None),
            },
            Expr::Coalesce(args) => VExpr::Coalesce(
                args.iter()
                    .map(|a| VExpr::compile(cg, a, batch, params))
                    .collect(),
            ),
            Expr::Cmp(op, l, r) => VExpr::Cmp(
                *op,
                Box::new(VExpr::compile(cg, l, batch, params)),
                Box::new(VExpr::compile(cg, r, batch, params)),
            ),
            Expr::And(a, b) => VExpr::And(
                Box::new(VExpr::compile(cg, a, batch, params)),
                Box::new(VExpr::compile(cg, b, batch, params)),
            ),
            Expr::Or(a, b) => VExpr::Or(
                Box::new(VExpr::compile(cg, a, batch, params)),
                Box::new(VExpr::compile(cg, b, batch, params)),
            ),
            Expr::Not(a) => VExpr::Not(Box::new(VExpr::compile(cg, a, batch, params))),
            Expr::IsNull(a, negated) => {
                VExpr::IsNull(Box::new(VExpr::compile(cg, a, batch, params)), *negated)
            }
        }
    }

    pub(crate) fn eval(&self, cg: &CompactGraph, batch: &Batch, i: usize) -> Option<Value> {
        match self {
            VExpr::Const(v) => v.clone(),
            VExpr::ValCol(ci) => match &batch.cols[*ci].1 {
                Col::Val(v) => Some(v[i].clone()),
                _ => unreachable!("compiled against this batch"),
            },
            VExpr::NodeProp(ci, k) => match &batch.cols[*ci].1 {
                Col::Node(v) => cg.node_prop_sym(v[i], *k),
                _ => unreachable!("compiled against this batch"),
            },
            VExpr::EdgeProp(ci, k) => match &batch.cols[*ci].1 {
                Col::Edge(v) => cg.edge_prop_sym(v[i], *k),
                _ => unreachable!("compiled against this batch"),
            },
            VExpr::Coalesce(args) => args.iter().find_map(|a| a.eval(cg, batch, i)),
            VExpr::Cmp(op, l, r) => {
                let lv = l.eval(cg, batch, i)?;
                let rv = r.eval(cg, batch, i)?;
                let ord = compare(&lv, &rv)?;
                Some(Value::Bool(match op {
                    CmpOp::Eq => ord.is_eq(),
                    CmpOp::Ne => ord.is_ne(),
                    CmpOp::Lt => ord.is_lt(),
                    CmpOp::Le => ord.is_le(),
                    CmpOp::Gt => ord.is_gt(),
                    CmpOp::Ge => ord.is_ge(),
                }))
            }
            VExpr::And(a, b) => match (a.eval(cg, batch, i), b.eval(cg, batch, i)) {
                (Some(Value::Bool(x)), Some(Value::Bool(y))) => Some(Value::Bool(x && y)),
                (Some(Value::Bool(false)), _) | (_, Some(Value::Bool(false))) => {
                    Some(Value::Bool(false))
                }
                _ => None,
            },
            VExpr::Or(a, b) => match (a.eval(cg, batch, i), b.eval(cg, batch, i)) {
                (Some(Value::Bool(x)), Some(Value::Bool(y))) => Some(Value::Bool(x || y)),
                (Some(Value::Bool(true)), _) | (_, Some(Value::Bool(true))) => {
                    Some(Value::Bool(true))
                }
                _ => None,
            },
            VExpr::Not(a) => match a.eval(cg, batch, i) {
                Some(Value::Bool(b)) => Some(Value::Bool(!b)),
                _ => None,
            },
            VExpr::IsNull(a, negated) => {
                let is_null = a.eval(cg, batch, i).is_none();
                Some(Value::Bool(is_null != *negated))
            }
        }
    }
}

/// Materialize a batch back into binding rows (the `OPTIONAL MATCH`
/// interpreter fallback).
pub(crate) fn batch_to_rows(batch: &Batch) -> Vec<Row> {
    (0..batch.len)
        .map(|i| {
            let mut row = Row::default();
            for (name, col) in &batch.cols {
                let binding = match col {
                    Col::Node(v) => Binding::Node(v[i]),
                    Col::Edge(v) => Binding::Edge(v[i]),
                    Col::Val(v) => Binding::Val(v[i].clone()),
                };
                row.insert(name.clone(), binding);
            }
            row
        })
        .collect()
}

/// The row-stage middle of a part: WHERE / UNWIND / post-UNWIND WHERE as
/// selection-vector filters over compiled expressions. Shared between the
/// sequential finish and each morsel worker (per-morsel invocations
/// accumulate under the same operator ids, so PROFILE rows still sum).
pub(crate) fn apply_row_stages<P: ProfHook>(
    cg: &CompactGraph,
    q: &SingleQuery,
    mut batch: Batch,
    params: &Params,
    prof: P,
) -> Result<Batch, CypherError> {
    if let Some(where_clause) = &q.where_clause {
        let started = prof.begin();
        let ve = VExpr::compile(cg, where_clause, &batch, params);
        let mut sel: Vec<u32> = Vec::with_capacity(batch.len);
        for i in 0..batch.len {
            if matches!(ve.eval(cg, &batch, i), Some(Value::Bool(true))) {
                sel.push(i as u32);
            }
        }
        batch = batch.gather(&sel);
        prof.record(format_args!("filter"), batch.len, started);
        prof.note_batches(format_args!("filter"), 1);
    }
    for (k, (expr, var)) in q.unwind.iter().enumerate() {
        let started = prof.begin();
        let ve = VExpr::compile(cg, expr, &batch, params);
        let mut sel: Vec<u32> = Vec::new();
        let mut vals: Vec<Value> = Vec::new();
        for i in 0..batch.len {
            // UNWIND NULL → no rows; lists flatten, scalars pass through.
            if let Some(value) = ve.eval(cg, &batch, i) {
                for item in value.iter_flat() {
                    sel.push(i as u32);
                    vals.push(item.clone());
                }
            }
        }
        batch = batch.gather(&sel);
        batch.set_col(var, Col::Val(vals));
        prof.record(format_args!("unwind{k}"), batch.len, started);
        prof.note_batches(format_args!("unwind{k}"), 1);
    }
    if let Some(unwind_where) = &q.unwind_where {
        let started = prof.begin();
        let ve = VExpr::compile(cg, unwind_where, &batch, params);
        let mut sel: Vec<u32> = Vec::with_capacity(batch.len);
        for i in 0..batch.len {
            if matches!(ve.eval(cg, &batch, i), Some(Value::Bool(true))) {
                sel.push(i as u32);
            }
        }
        batch = batch.gather(&sel);
        prof.record(format_args!("unwind_filter"), batch.len, started);
        prof.note_batches(format_args!("unwind_filter"), 1);
    }
    Ok(batch)
}

/// Compile every return item against a batch's column layout: `Some` for
/// expressions and aggregate arguments, `None` for `count(*)` (no
/// argument — every row counts).
pub(crate) fn compile_return_items(
    cg: &CompactGraph,
    q: &SingleQuery,
    batch: &Batch,
    params: &Params,
) -> Vec<Option<VExpr>> {
    q.return_items
        .iter()
        .map(|(item, _)| match item {
            ReturnItem::Expr(e) => Some(VExpr::compile(cg, e, batch, params)),
            ReturnItem::Agg { arg, .. } => {
                arg.as_ref().map(|e| VExpr::compile(cg, e, batch, params))
            }
        })
        .collect()
}

/// Everything after required-pattern expansion, vectorized: the shared
/// [`apply_row_stages`] middle, projection and aggregation over compiled
/// column accessors through the shared [`aggregate_core`], then the shared
/// [`shape_rows`] tail — or, when `topk` holds (see
/// [`PartPath`](crate::cypher::PartPath)), a bounded top-K selection
/// instead of the full sort. Parts
/// with `OPTIONAL MATCH` materialize rows and run the interpreter's finish
/// (same operator ids, so PROFILE output stays joinable).
fn finish_vectorized<P: ProfHook>(
    cg: &CompactGraph,
    q: &SingleQuery,
    batch: Batch,
    params: &Params,
    topk: bool,
    prof: P,
) -> Result<Rows, CypherError> {
    if !q.optional_patterns.is_empty() {
        let rows = batch_to_rows(&batch);
        return finish_single_inner(cg, q, rows, params, prof);
    }
    let batch = apply_row_stages(cg, q, batch, params, prof)?;
    let columns: Vec<String> = q.return_items.iter().map(|(_, a)| a.clone()).collect();
    let has_aggregate = crate::cypher::has_aggregate(q);
    let started = prof.begin();
    let compiled = compile_return_items(cg, q, &batch, params);
    if topk {
        // Sequential ORDER BY/LIMIT pushdown: same bounded selection the
        // morsel workers use, with a single (sequential) heap.
        let (index, descending) = q.order_by.expect("top-K requires ORDER BY");
        let k = q.skip.unwrap_or(0).saturating_add(q.limit.unwrap_or(0));
        let mut heap = crate::morsel::TopK::new(index, descending, k);
        for i in 0..batch.len {
            let row: Vec<Option<Value>> = compiled
                .iter()
                .map(|ve| ve.as_ref().and_then(|ve| ve.eval(cg, &batch, i)))
                .collect();
            heap.push((0, i as u64), row);
        }
        prof.record(format_args!("project"), batch.len, started);
        prof.note_batches(format_args!("project"), 1);
        let rows = crate::morsel::merge_topk(q, vec![heap], prof);
        return Ok(Rows { columns, rows });
    }
    let mut out: Vec<Vec<Option<Value>>> = if has_aggregate {
        aggregate_core(q, batch.len, |row, item| {
            compiled[item]
                .as_ref()
                .and_then(|ve| ve.eval(cg, &batch, row))
        })
    } else {
        (0..batch.len)
            .map(|i| {
                compiled
                    .iter()
                    .map(|ve| ve.as_ref().and_then(|ve| ve.eval(cg, &batch, i)))
                    .collect()
            })
            .collect()
    };
    if has_aggregate {
        prof.record(format_args!("aggregate"), out.len(), started);
        prof.note_batches(format_args!("aggregate"), 1);
    } else {
        prof.record(format_args!("project"), out.len(), started);
        prof.note_batches(format_args!("project"), 1);
    }
    shape_rows(q, &mut out, prof);
    Ok(Rows { columns, rows: out })
}

/// Below this estimated row-visit count the interpreter wins: batch setup
/// (symbol resolution, expression compilation, column buffers) is a fixed
/// cost per operator that one-row index probes never amortize. The answers
/// are bit-identical either way, so dispatch is purely a physical choice.
const VECTORIZE_MIN_WORK: usize = 16;

/// Whether a part's estimated work (first-pattern candidates × per-row
/// cost, the statistic the parallel engagement test uses) clears
/// [`VECTORIZE_MIN_WORK`]. Planner statistics only — no graph probes — so
/// the decision itself costs nothing on the tiny queries it exists to
/// protect.
pub(crate) fn worth_vectorizing(sp: &SinglePlan) -> bool {
    sp.order.first().is_none_or(|&first| {
        sp.cost[first].max(1).saturating_mul(sp.per_row()) >= VECTORIZE_MIN_WORK
    })
}

/// One UNION part, end to end, through the batched columnar operators.
/// Called by the planned-evaluation dispatcher when `path.vectorized`
/// holds; answers are bit-identical to the interpreted path. Parallel-worthy
/// parts dispatch to the morsel scheduler when `path.morsel` holds, and to
/// static chunking otherwise.
#[allow(clippy::too_many_arguments)]
pub(crate) fn evaluate_part_vectorized<P: ProfHook>(
    cg: &CompactGraph,
    part: &SingleQuery,
    sp: &SinglePlan,
    probes: &[Option<Probe>],
    params: &Params,
    threads: usize,
    path: PartPath,
    prof: P,
) -> Result<Rows, CypherError> {
    let first = sp.order.first().filter(|_| path.morsel);
    if let Some(&first) = first {
        let candidates = start_candidates(cg, &part.patterns[first].start, probes[first].as_ref());
        let slice = candidates.as_slice();
        if slice.len().saturating_mul(sp.per_row()) >= PARALLEL_MIN_WORK {
            return crate::morsel::evaluate_part_morsel(
                cg, part, sp, probes, params, slice, threads, path.topk, prof,
            );
        }
    }
    let batch = expand_patterns_vectorized(cg, part, sp, probes, threads, prof)?;
    finish_vectorized(cg, part, batch, params, path.topk, prof)
}
