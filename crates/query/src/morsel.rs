//! Morsel-driven parallel execution and batch-native result shaping.
//!
//! The static scheduler ([`Scheduler::Static`](crate::cypher::Scheduler))
//! splits the first pattern's candidates into one contiguous chunk per
//! thread; a single hot vertex (skewed degree) then leaves every other
//! core idle while one chunk does all the expansion. This module replaces
//! that with **morsel-driven parallelism**: the candidate run is cut into
//! fixed-size morsels of [`MORSEL_SIZE`] ids behind a shared atomic
//! cursor, and a scoped worker pool pulls morsels until the queue drains.
//! Each worker drives its morsel through the *entire* vectorized pipeline
//! (seed → CSR expand → predicate → shaping), so a heavy morsel occupies
//! one core while the rest of the pool chews through the tail.
//!
//! **Merge contract.** Every per-morsel result is tagged with its morsel
//! index and merged in index order. Morsel order equals candidate order
//! equals sequential row order, so the merged output is bit-identical to
//! a sequential run — the same contract the static chunking had, now
//! skew-robust.
//!
//! **Batch-native shaping.** Instead of materializing every row and
//! handing the tail to the interpreter's shaping:
//!
//! * aggregates (`count`/`sum`/`min`/`max` + implicit GROUP BY) accumulate
//!   into one [`GroupTable`] per worker, merged order-insensitively —
//!   float sums use the exact [`ExactSum`] accumulator so addition order
//!   cannot change the result, and `min`/`max` break representation ties
//!   (`Int(1)` vs `Float(1.0)`) by first-seen row;
//! * `ORDER BY … LIMIT …` (no DISTINCT, no aggregates) keeps a bounded
//!   [`TopK`] of `SKIP+LIMIT` rows per worker under the exact
//!   [`order_cmp`] ordering plus a row-sequence tiebreak, so the merged
//!   top-K equals the first K rows of the stable full sort it replaces;
//! * `DISTINCT` rows are pre-deduplicated per worker (sound because the
//!   globally earliest occurrence of a key can never have an earlier
//!   duplicate inside its own worker), shrinking the merge before the
//!   shared [`shape_rows`] dedups across workers.
//!
//! Queries with `OPTIONAL MATCH` still interpret their tail: workers
//! expand patterns only, per-morsel batches merge in order, and the
//! merged batch flows through the interpreter finish — the same fallback
//! the sequential vectorized path takes.

use crate::cypher::{
    finish_single_inner, has_aggregate, order_cmp, shape_rows, total_cmp_values, AggFunc,
    CypherError, Params, Probe, ReturnItem, Rows, SinglePlan, SingleQuery,
};
use crate::profile::ProfHook;
use crate::vectorized::{
    apply_row_stages, batch_to_rows, compile_return_items, expand_hops_batch, expand_pattern,
    seed_chunk, Batch,
};
use s3pg_pg::{CompactGraph, NodeId, Value};
use s3pg_rdf::fxhash::{FxHashMap, FxHashSet};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Candidate ids per morsel — a ceiling, see [`morsel_size_for`]. Large
/// enough to amortize per-morsel setup (symbol resolution, expression
/// compilation), small enough that a skewed candidate run still splits
/// into many independently schedulable units.
pub(crate) const MORSEL_SIZE: usize = 2048;

/// Morsels handed to each worker, at minimum, when the run is long enough
/// to split: the queue can only balance load if every worker gets several
/// pulls.
const MORSELS_PER_WORKER: usize = 4;

/// The morsel size for a candidate run: [`MORSEL_SIZE`] as the ceiling,
/// shrunk on short runs so every worker still gets ≥ [`MORSELS_PER_WORKER`]
/// morsels. Without the shrink, a 9k-candidate run at 4 threads would cut
/// into five 2048-id morsels — one worker draws two and the wall clock is
/// 2 morsels, *worse* than static chunking's balanced quarter. Correctness
/// never depends on the size (merge is by morsel index), only balance.
pub(crate) fn morsel_size_for(len: usize, threads: usize) -> usize {
    MORSEL_SIZE
        .min(len.div_ceil(threads.saturating_mul(MORSELS_PER_WORKER).max(1)))
        .max(1)
}

/// A row's provenance: `(morsel index, row index within the morsel)`.
/// Lexicographic order over this pair is exactly sequential row order, so
/// it serves as the stable tiebreak for `min`/`max` and top-K selection.
type Seq = (u64, u64);

/// Whether the executor may satisfy this part's `ORDER BY` with the
/// bounded top-K heap: an ORDER BY plus LIMIT, no DISTINCT (dedup needs
/// all rows), no aggregates (grouping shrinks rows before the sort), and
/// no `OPTIONAL MATCH` (interpreter tail).
pub(crate) fn topk_eligible(q: &SingleQuery) -> bool {
    q.order_by.is_some()
        && q.limit.is_some()
        && !q.distinct
        && !has_aggregate(q)
        && q.optional_patterns.is_empty()
}

/// Render an optional value to the injective string key every dedup and
/// grouping site shares (`Debug` form, `∅` for NULL).
fn render_key(v: &Option<Value>) -> String {
    v.as_ref().map_or("∅".to_string(), |v| format!("{v:?}"))
}

// ---- exact float summation -------------------------------------------------

/// An exact f64 accumulator (Shewchuk's expansion, the algorithm behind
/// Python's `math.fsum`): the running sum is kept as non-overlapping
/// partials updated by two-sum cascades, and [`ExactSum::total`] rounds
/// the exact value once. Addition order therefore cannot change the
/// result — merging per-worker partial sums yields bit-identical totals
/// to a sequential left-to-right sum, which is what lets `sum()` over
/// floats parallelize without breaking the differential gate.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExactSum {
    /// Non-overlapping partials, increasing magnitude.
    partials: Vec<f64>,
    /// Infinities and NaNs accumulate separately (IEEE semantics).
    special: f64,
}

impl ExactSum {
    /// Add one value exactly.
    pub(crate) fn add(&mut self, mut x: f64) {
        if !x.is_finite() {
            self.special += x;
            return;
        }
        let mut j = 0;
        for i in 0..self.partials.len() {
            let mut y = self.partials[i];
            if x.abs() < y.abs() {
                std::mem::swap(&mut x, &mut y);
            }
            let hi = x + y;
            let lo = y - (hi - x);
            if lo != 0.0 {
                self.partials[j] = lo;
                j += 1;
            }
            x = hi;
        }
        self.partials.truncate(j);
        if x.is_finite() {
            self.partials.push(x);
        } else {
            // Intermediate overflow: the exact value left representable
            // range; degrade to IEEE infinity like a plain sum would.
            self.special += x;
        }
    }

    /// Fold another accumulator in; exact, so order-insensitive.
    pub(crate) fn merge(&mut self, other: &ExactSum) {
        for &p in &other.partials {
            self.add(p);
        }
        self.special += other.special;
    }

    /// The correctly rounded total (CPython `fsum` finalization: fold the
    /// partials from the largest down, track the first non-zero round-off,
    /// and apply the half-even correction).
    pub(crate) fn total(&self) -> f64 {
        if self.special != 0.0 || self.special.is_nan() {
            return self.special + self.partials.iter().sum::<f64>();
        }
        let p = &self.partials;
        let mut n = p.len();
        if n == 0 {
            return 0.0;
        }
        n -= 1;
        let mut hi = p[n];
        let mut lo = 0.0;
        while n > 0 {
            n -= 1;
            let x = hi;
            let y = p[n];
            hi = x + y;
            let yr = hi - x;
            lo = y - yr;
            if lo != 0.0 {
                break;
            }
        }
        if n > 0 && ((lo < 0.0 && p[n - 1] < 0.0) || (lo > 0.0 && p[n - 1] > 0.0)) {
            let y = lo * 2.0;
            let x = hi + y;
            if y == x - hi {
                hi = x;
            }
        }
        hi
    }
}

// ---- grouped aggregation ---------------------------------------------------

/// The running state of one `sum(...)` slot: integers accumulate in a
/// wrapping i64 (associative, so merge order is free) and floats in the
/// exact [`ExactSum`]. The result is `Int` until the first float arrives.
#[derive(Debug, Default)]
struct SumAcc {
    int: i64,
    float: ExactSum,
    saw_float: bool,
}

impl SumAcc {
    fn add_value(&mut self, v: &Value) {
        match v {
            Value::Int(i) => self.int = self.int.wrapping_add(*i),
            Value::Float(f) => {
                self.float.add(*f);
                self.saw_float = true;
            }
            // Non-numeric values are skipped, like NULLs.
            _ => {}
        }
    }

    fn merge(&mut self, other: &SumAcc) {
        self.int = self.int.wrapping_add(other.int);
        self.float.merge(&other.float);
        self.saw_float |= other.saw_float;
    }

    fn finish(&self) -> Value {
        if self.saw_float {
            Value::Float(self.int as f64 + self.float.total())
        } else {
            Value::Int(self.int)
        }
    }
}

/// One aggregate slot's accumulator, picked by `(func, distinct)`.
#[derive(Debug)]
enum AggAcc {
    /// `count(*)` and `count(expr)`.
    Count(i64),
    /// `count(DISTINCT expr)` — rendered non-NULL values.
    CountDistinct(FxHashSet<String>),
    /// `sum(expr)`.
    Sum(SumAcc),
    /// `sum(DISTINCT expr)` — first value per rendered key; summed in
    /// sorted key order at finish, so the result is merge-order-free.
    SumDistinct(FxHashMap<String, Value>),
    /// `min(expr)` / `max(expr)`: the champion value plus the sequence of
    /// the row it came from. Ties under the total comparator keep the
    /// smallest sequence — first row wins, exactly like a sequential scan.
    MinMax {
        is_min: bool,
        best: Option<(Value, Seq)>,
    },
}

impl AggAcc {
    fn new(func: AggFunc, distinct: bool) -> AggAcc {
        match (func, distinct) {
            (AggFunc::Count, true) => AggAcc::CountDistinct(FxHashSet::default()),
            (AggFunc::Count, false) => AggAcc::Count(0),
            (AggFunc::Sum, true) => AggAcc::SumDistinct(FxHashMap::default()),
            (AggFunc::Sum, false) => AggAcc::Sum(SumAcc::default()),
            (AggFunc::Min, _) => AggAcc::MinMax {
                is_min: true,
                best: None,
            },
            (AggFunc::Max, _) => AggAcc::MinMax {
                is_min: false,
                best: None,
            },
        }
    }

    /// Feed one row's input: `None` for `count(*)` (no argument — every
    /// row counts), `Some(v)` for an evaluated argument (NULL skipped).
    fn add(&mut self, input: Option<Option<Value>>, seq: Seq) {
        match self {
            AggAcc::Count(n) => {
                if matches!(input, None | Some(Some(_))) {
                    *n += 1;
                }
            }
            AggAcc::CountDistinct(seen) => {
                if let Some(Some(v)) = input {
                    seen.insert(format!("{v:?}"));
                }
            }
            AggAcc::Sum(acc) => {
                if let Some(Some(v)) = input {
                    acc.add_value(&v);
                }
            }
            AggAcc::SumDistinct(seen) => {
                if let Some(Some(v)) = input {
                    seen.entry(format!("{v:?}")).or_insert(v);
                }
            }
            AggAcc::MinMax { is_min, best } => {
                if let Some(Some(v)) = input {
                    Self::challenge(*is_min, best, v, seq);
                }
            }
        }
    }

    /// Replace the champion when `v` is strictly better, or equal with an
    /// earlier sequence (sequential first-wins, reproduced under merge).
    fn challenge(is_min: bool, best: &mut Option<(Value, Seq)>, v: Value, seq: Seq) {
        let better = match best {
            None => true,
            Some((champion, champion_seq)) => match total_cmp_values(&v, champion) {
                std::cmp::Ordering::Less => is_min,
                std::cmp::Ordering::Greater => !is_min,
                std::cmp::Ordering::Equal => seq < *champion_seq,
            },
        };
        if better {
            *best = Some((v, seq));
        }
    }

    fn merge(&mut self, other: AggAcc) {
        match (self, other) {
            (AggAcc::Count(a), AggAcc::Count(b)) => *a += b,
            (AggAcc::CountDistinct(a), AggAcc::CountDistinct(b)) => a.extend(b),
            (AggAcc::Sum(a), AggAcc::Sum(b)) => a.merge(&b),
            (AggAcc::SumDistinct(a), AggAcc::SumDistinct(b)) => {
                for (k, v) in b {
                    a.entry(k).or_insert(v);
                }
            }
            (
                AggAcc::MinMax { is_min, best },
                AggAcc::MinMax {
                    best: other_best, ..
                },
            ) => {
                if let Some((v, seq)) = other_best {
                    Self::challenge(*is_min, best, v, seq);
                }
            }
            _ => unreachable!("workers build slots from the same query"),
        }
    }

    fn finish(self) -> Option<Value> {
        match self {
            AggAcc::Count(n) => Some(Value::Int(n)),
            AggAcc::CountDistinct(seen) => Some(Value::Int(seen.len() as i64)),
            AggAcc::Sum(acc) => Some(acc.finish()),
            AggAcc::SumDistinct(seen) => {
                // Sorted key order makes the accumulation order a function
                // of the value set alone, never of arrival order.
                let mut entries: Vec<(String, Value)> = seen.into_iter().collect();
                entries.sort_by(|a, b| a.0.cmp(&b.0));
                let mut acc = SumAcc::default();
                for (_, v) in &entries {
                    acc.add_value(v);
                }
                Some(acc.finish())
            }
            AggAcc::MinMax { best, .. } => best.map(|(v, _)| v),
        }
    }

    /// The value an aggregate reports over zero rows (ungrouped).
    fn empty_value(func: AggFunc) -> Option<Value> {
        match func {
            AggFunc::Count | AggFunc::Sum => Some(Value::Int(0)),
            AggFunc::Min | AggFunc::Max => None,
        }
    }
}

/// One group per rendered key vector: the grouping values from the first
/// row that created the group, plus one [`AggAcc`] per aggregate item.
struct GroupAcc {
    key_values: Vec<Option<Value>>,
    slots: Vec<AggAcc>,
}

/// The hash aggregation table every aggregating path shares: the
/// interpreter and the sequential vectorized finish feed it row by row
/// (`aggregate_core`), and each morsel worker builds its own and merges.
/// Grouping keys, NULL handling, accumulation, and output order (groups
/// sorted by rendered key, the old `BTreeMap` iteration order) are defined
/// once here, so every execution strategy aggregates by identical rules.
pub(crate) struct GroupTable {
    groups: FxHashMap<Vec<String>, GroupAcc>,
}

impl GroupTable {
    pub(crate) fn new(_q: &SingleQuery) -> GroupTable {
        GroupTable {
            groups: FxHashMap::default(),
        }
    }

    /// Accumulate one row. `eval_item(i)` evaluates return item `i` for
    /// this row; `seq` is the row's global sequence for min/max ties.
    pub(crate) fn add_row(
        &mut self,
        q: &SingleQuery,
        seq: Seq,
        mut eval_item: impl FnMut(usize) -> Option<Value>,
    ) {
        let mut key: Vec<String> = Vec::new();
        let mut key_values: Vec<Option<Value>> = Vec::new();
        let mut agg_inputs: Vec<Option<Option<Value>>> = Vec::new();
        for (idx, (item, _)) in q.return_items.iter().enumerate() {
            match item {
                ReturnItem::Expr(_) => {
                    let v = eval_item(idx);
                    key.push(render_key(&v));
                    key_values.push(v);
                }
                ReturnItem::Agg { arg, .. } => {
                    agg_inputs.push(arg.as_ref().map(|_| eval_item(idx)));
                }
            }
        }
        let group = self.groups.entry(key).or_insert_with(|| GroupAcc {
            key_values,
            slots: Self::slots_for(q),
        });
        for (acc, input) in group.slots.iter_mut().zip(agg_inputs) {
            acc.add(input, seq);
        }
    }

    fn slots_for(q: &SingleQuery) -> Vec<AggAcc> {
        q.return_items
            .iter()
            .filter_map(|(item, _)| match item {
                ReturnItem::Agg { func, distinct, .. } => Some(AggAcc::new(*func, *distinct)),
                ReturnItem::Expr(_) => None,
            })
            .collect()
    }

    /// Fold another worker's table in. Group accumulators merge
    /// order-insensitively, so any merge order yields the same output.
    pub(crate) fn merge(&mut self, other: GroupTable) {
        for (key, acc) in other.groups {
            match self.groups.entry(key) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(acc);
                }
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let group = e.get_mut();
                    for (mine, theirs) in group.slots.iter_mut().zip(acc.slots) {
                        mine.merge(theirs);
                    }
                }
            }
        }
    }

    /// Emit one output row per group, sorted by rendered key (the order
    /// the interpreter's `BTreeMap` produced). Zero rows with nothing but
    /// aggregates yields the single empty-input row (`count(*)` = 0).
    pub(crate) fn finish(self, q: &SingleQuery) -> Vec<Vec<Option<Value>>> {
        let n_aggs = q
            .return_items
            .iter()
            .filter(|(item, _)| matches!(item, ReturnItem::Agg { .. }))
            .count();
        if self.groups.is_empty() && n_aggs == q.return_items.len() {
            let row = q
                .return_items
                .iter()
                .map(|(item, _)| match item {
                    ReturnItem::Agg { func, .. } => AggAcc::empty_value(*func),
                    ReturnItem::Expr(_) => unreachable!("all items are aggregates"),
                })
                .collect();
            return vec![row];
        }
        let mut entries: Vec<(Vec<String>, GroupAcc)> = self.groups.into_iter().collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
            .into_iter()
            .map(|(_, acc)| {
                let mut keys = acc.key_values.into_iter();
                let mut slots = acc.slots.into_iter();
                q.return_items
                    .iter()
                    .map(|(item, _)| match item {
                        ReturnItem::Expr(_) => keys.next().unwrap(),
                        ReturnItem::Agg { .. } => slots.next().unwrap().finish(),
                    })
                    .collect()
            })
            .collect()
    }
}

// ---- top-K pushdown --------------------------------------------------------

/// A bounded top-K selector over `(row, seq)` entries under the exact
/// [`order_cmp`] ordering with a sequence tiebreak. Because a stable sort
/// keeps equal rows in input (= sequence) order, the K smallest entries
/// under `(order key, seq)` are exactly the first K rows of the full
/// stable sort — so pushdown output is bit-identical to sort-then-limit.
///
/// Implementation: an unsorted buffer compacted (sort + truncate to K)
/// whenever it doubles, with the current K-th entry cached as a rejection
/// bound; amortized O(n log K) without per-push heap maintenance.
pub(crate) struct TopK {
    index: usize,
    descending: bool,
    k: usize,
    entries: Vec<(Seq, Vec<Option<Value>>)>,
    bound: Option<(Seq, Vec<Option<Value>>)>,
}

impl TopK {
    pub(crate) fn new(index: usize, descending: bool, k: usize) -> TopK {
        TopK {
            index,
            descending,
            k,
            entries: Vec::new(),
            bound: None,
        }
    }

    fn entry_cmp(
        &self,
        a: &(Seq, Vec<Option<Value>>),
        b: &(Seq, Vec<Option<Value>>),
    ) -> std::cmp::Ordering {
        order_cmp(&a.1, &b.1, self.index, self.descending).then(a.0.cmp(&b.0))
    }

    /// Offer one row; rows that cannot make the top K are dropped.
    pub(crate) fn push(&mut self, seq: Seq, row: Vec<Option<Value>>) {
        if self.k == 0 {
            return;
        }
        let entry = (seq, row);
        if let Some(bound) = &self.bound {
            if self.entry_cmp(&entry, bound) != std::cmp::Ordering::Less {
                return;
            }
        }
        self.entries.push(entry);
        if self.entries.len() >= self.k.saturating_mul(2).max(256) {
            self.compact();
        }
    }

    fn compact(&mut self) {
        // Unstable sort is safe: the seq tiebreak makes the order total.
        let cmp = |a: &(Seq, Vec<Option<Value>>), b: &(Seq, Vec<Option<Value>>)| {
            order_cmp(&a.1, &b.1, self.index, self.descending).then(a.0.cmp(&b.0))
        };
        self.entries.sort_unstable_by(cmp);
        self.entries.truncate(self.k);
        if self.entries.len() == self.k {
            self.bound = self.entries.last().cloned();
        }
    }

    /// The surviving (≤ K) entries, compacted.
    fn into_entries(mut self) -> Vec<(Seq, Vec<Option<Value>>)> {
        self.compact();
        self.entries
    }
}

/// Merge per-worker top-K heaps and apply SKIP/LIMIT: the global K
/// smallest entries in `(order key, seq)` order, minus the skipped
/// prefix. Records under the same `sort`/`skip`/`limit` operator ids the
/// full-sort path uses, so PROFILE output stays joinable.
pub(crate) fn merge_topk<P: ProfHook>(
    q: &SingleQuery,
    heaps: Vec<TopK>,
    prof: P,
) -> Vec<Vec<Option<Value>>> {
    let (index, descending) = q.order_by.expect("top-K requires ORDER BY");
    let k = q.skip.unwrap_or(0).saturating_add(q.limit.unwrap_or(0));
    let started = prof.begin();
    let mut all: Vec<(Seq, Vec<Option<Value>>)> =
        heaps.into_iter().flat_map(TopK::into_entries).collect();
    all.sort_unstable_by(|a, b| order_cmp(&a.1, &b.1, index, descending).then(a.0.cmp(&b.0)));
    all.truncate(k);
    let mut out: Vec<Vec<Option<Value>>> = all.into_iter().map(|(_, r)| r).collect();
    prof.record(format_args!("sort"), out.len(), started);
    if let Some(skip) = q.skip {
        let started = prof.begin();
        out.drain(..skip.min(out.len()));
        prof.record(format_args!("skip"), out.len(), started);
    }
    if let Some(limit) = q.limit {
        let started = prof.begin();
        out.truncate(limit);
        prof.record(format_args!("limit"), out.len(), started);
    }
    out
}

// ---- the morsel scheduler --------------------------------------------------

/// How a worker folds its per-morsel batches down.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// `OPTIONAL MATCH` tail: expand only, merge batches, interpret.
    Batches,
    /// Aggregates: per-worker [`GroupTable`], order-insensitive merge.
    Agg,
    /// ORDER BY + LIMIT pushdown: per-worker bounded [`TopK`].
    TopK,
    /// Plain projection: per-morsel row vectors merged in morsel order.
    Rows,
}

/// What one worker hands back after the queue drains.
struct WorkerOut {
    /// Rows emitted by pattern expansion (the `parallel` operator stat).
    expanded: usize,
    tagged_rows: Vec<(usize, Vec<Vec<Option<Value>>>)>,
    tagged_batches: Vec<(usize, Batch)>,
    table: Option<GroupTable>,
    heap: Option<TopK>,
}

/// One UNION part, morsel-parallel, end to end. The caller has already
/// established: `sp.order` is non-empty, `threads > 1`, and the estimated
/// work clears `PARALLEL_MIN_WORK` (so `candidates` is non-empty).
/// `topk` is the part's `PartPath::topk`: pushdown enabled and eligible.
#[allow(clippy::too_many_arguments)]
pub(crate) fn evaluate_part_morsel<P: ProfHook>(
    cg: &CompactGraph,
    q: &SingleQuery,
    sp: &SinglePlan,
    probes: &[Option<Probe>],
    params: &Params,
    candidates: &[NodeId],
    threads: usize,
    topk: bool,
    prof: P,
) -> Result<Rows, CypherError> {
    let morsel_size = morsel_size_for(candidates.len(), threads);
    let n_morsels = candidates.len().div_ceil(morsel_size).max(1);
    let n_workers = threads.min(n_morsels);
    let mode = if !q.optional_patterns.is_empty() {
        Mode::Batches
    } else if has_aggregate(q) {
        Mode::Agg
    } else if topk {
        Mode::TopK
    } else {
        Mode::Rows
    };
    let cursor = AtomicUsize::new(0);
    let fan_out = prof.begin();
    let outcomes: Vec<Result<WorkerOut, CypherError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_workers)
            .map(|w| {
                let cursor = &cursor;
                scope.spawn(move || {
                    run_worker(
                        cg,
                        q,
                        sp,
                        probes,
                        params,
                        candidates,
                        cursor,
                        morsel_size,
                        n_morsels,
                        mode,
                        w,
                        prof,
                    )
                })
            })
            .collect();
        prof.note_chunks(format_args!("parallel"), handles.len());
        prof.note_morsels(format_args!("parallel"), n_morsels);
        handles
            .into_iter()
            .map(|h| h.join().expect("morsel worker panicked"))
            .collect()
    });
    let mut outs: Vec<WorkerOut> = Vec::with_capacity(outcomes.len());
    let mut expanded = 0usize;
    for outcome in outcomes {
        let out = outcome?;
        expanded += out.expanded;
        outs.push(out);
    }
    prof.record(format_args!("parallel"), expanded, fan_out);
    prof.note_batches(format_args!("parallel"), 1);

    let columns: Vec<String> = q.return_items.iter().map(|(_, a)| a.clone()).collect();
    match mode {
        Mode::Batches => {
            let mut tagged: Vec<(usize, Batch)> =
                outs.into_iter().flat_map(|o| o.tagged_batches).collect();
            tagged.sort_unstable_by_key(|&(m, _)| m);
            let mut merged: Option<Batch> = None;
            for (_, b) in tagged {
                match &mut merged {
                    None => merged = Some(b),
                    Some(m) => m.append(b),
                }
            }
            let batch = merged.unwrap_or_else(Batch::empty);
            let rows = batch_to_rows(&batch);
            finish_single_inner(cg, q, rows, params, prof)
        }
        Mode::Agg => {
            let mut merged: Option<GroupTable> = None;
            for o in outs {
                if let Some(t) = o.table {
                    match &mut merged {
                        None => merged = Some(t),
                        Some(m) => m.merge(t),
                    }
                }
            }
            let started = prof.begin();
            let mut rows = merged.unwrap_or_else(|| GroupTable::new(q)).finish(q);
            prof.record(format_args!("aggregate"), rows.len(), started);
            shape_rows(q, &mut rows, prof);
            Ok(Rows { columns, rows })
        }
        Mode::TopK => {
            let heaps: Vec<TopK> = outs.into_iter().filter_map(|o| o.heap).collect();
            let rows = merge_topk(q, heaps, prof);
            Ok(Rows { columns, rows })
        }
        Mode::Rows => {
            let mut tagged: Vec<(usize, Vec<Vec<Option<Value>>>)> =
                outs.into_iter().flat_map(|o| o.tagged_rows).collect();
            tagged.sort_unstable_by_key(|&(m, _)| m);
            let mut rows: Vec<Vec<Option<Value>>> =
                tagged.into_iter().flat_map(|(_, r)| r).collect();
            shape_rows(q, &mut rows, prof);
            Ok(Rows { columns, rows })
        }
    }
}

/// One worker: pull morsels off the shared cursor until the queue drains,
/// drive each through the full pipeline, fold into the mode's sink.
#[allow(clippy::too_many_arguments)]
fn run_worker<P: ProfHook>(
    cg: &CompactGraph,
    q: &SingleQuery,
    sp: &SinglePlan,
    probes: &[Option<Probe>],
    params: &Params,
    candidates: &[NodeId],
    cursor: &AtomicUsize,
    morsel_size: usize,
    n_morsels: usize,
    mode: Mode,
    w: usize,
    prof: P,
) -> Result<WorkerOut, CypherError> {
    let first = sp.order[0];
    let pattern = &q.patterns[first];
    let rest = &sp.order[1..];
    let worker_started = prof.begin();
    let mut out = WorkerOut {
        expanded: 0,
        tagged_rows: Vec::new(),
        tagged_batches: Vec::new(),
        table: (mode == Mode::Agg).then(|| GroupTable::new(q)),
        heap: (mode == Mode::TopK).then(|| {
            let (index, descending) = q.order_by.expect("top-K requires ORDER BY");
            let k = q.skip.unwrap_or(0).saturating_add(q.limit.unwrap_or(0));
            TopK::new(index, descending, k)
        }),
    };
    let mut seen: FxHashSet<Vec<String>> = FxHashSet::default();
    let mut my_morsels = 0usize;
    loop {
        let m = cursor.fetch_add(1, Ordering::Relaxed);
        if m >= n_morsels {
            break;
        }
        my_morsels += 1;
        let lo = m * morsel_size;
        let hi = (lo + morsel_size).min(candidates.len());
        // Per-morsel records accumulate in the shared sink under the same
        // operator ids the explain renderer assigns — rows sum, times sum.
        let started = prof.begin();
        let (seeded, anchors) = seed_chunk(cg, &pattern.start, &candidates[lo..hi]);
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
        out.expanded += batch.len;
        if mode == Mode::Batches {
            if batch.len > 0 {
                out.tagged_batches.push((m, batch));
            }
            continue;
        }
        let batch = apply_row_stages(cg, q, batch, params, prof)?;
        if batch.len == 0 {
            continue;
        }
        let compiled = compile_return_items(cg, q, &batch, params);
        match mode {
            Mode::Agg => {
                let started = prof.begin();
                let table = out.table.as_mut().expect("agg mode has a table");
                for i in 0..batch.len {
                    table.add_row(q, (m as u64, i as u64), |item| {
                        compiled[item]
                            .as_ref()
                            .and_then(|ve| ve.eval(cg, &batch, i))
                    });
                }
                // Per-morsel accumulation time; the merge records the
                // final group count, so rows still sum correctly.
                prof.record(format_args!("aggregate"), 0, started);
                prof.note_batches(format_args!("aggregate"), 1);
            }
            Mode::TopK => {
                let started = prof.begin();
                let heap = out.heap.as_mut().expect("top-K mode has a heap");
                for i in 0..batch.len {
                    let row: Vec<Option<Value>> = compiled
                        .iter()
                        .map(|ve| ve.as_ref().and_then(|ve| ve.eval(cg, &batch, i)))
                        .collect();
                    heap.push((m as u64, i as u64), row);
                }
                prof.record(format_args!("project"), batch.len, started);
                prof.note_batches(format_args!("project"), 1);
            }
            Mode::Rows => {
                let started = prof.begin();
                let mut rows: Vec<Vec<Option<Value>>> = (0..batch.len)
                    .map(|i| {
                        compiled
                            .iter()
                            .map(|ve| ve.as_ref().and_then(|ve| ve.eval(cg, &batch, i)))
                            .collect()
                    })
                    .collect();
                prof.record(format_args!("project"), rows.len(), started);
                prof.note_batches(format_args!("project"), 1);
                if q.distinct {
                    // Worker-local pre-dedup: the globally earliest
                    // occurrence of a key cannot have an earlier duplicate
                    // inside its own worker (morsels are pulled in
                    // ascending order), so dropping later repeats here
                    // never changes what the merge-order dedup keeps.
                    rows.retain(|r| seen.insert(r.iter().map(render_key).collect()));
                }
                if !rows.is_empty() {
                    out.tagged_rows.push((m, rows));
                }
            }
            Mode::Batches => unreachable!("handled above"),
        }
    }
    prof.record(format_args!("parallel.w{w}"), out.expanded, worker_started);
    prof.note_morsels(format_args!("parallel.w{w}"), my_morsels);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_sum_is_order_insensitive() {
        // A pathological cancellation set: naive left-to-right f64 sums
        // differ between orderings; the exact accumulator must not.
        let values = [1e16, 3.15625, -1e16, 2.65625, 1e-9, 0.1, -0.1, 1e16, -1e16];
        let mut forward = ExactSum::default();
        for v in values {
            forward.add(v);
        }
        let mut backward = ExactSum::default();
        for v in values.iter().rev() {
            backward.add(*v);
        }
        // Split/merge (the parallel shape) agrees too.
        let mut left = ExactSum::default();
        let mut right = ExactSum::default();
        for (i, v) in values.iter().enumerate() {
            if i % 2 == 0 {
                left.add(*v);
            } else {
                right.add(*v);
            }
        }
        right.merge(&left);
        assert_eq!(forward.total().to_bits(), backward.total().to_bits());
        assert_eq!(forward.total().to_bits(), right.total().to_bits());
        // And it is the correctly rounded exact value.
        // 3.15625 and 2.65625 are exact binary fractions, so their sum is
        // exact and the `+ 1e-9` rounds once — the correctly rounded value.
        assert_eq!(forward.total(), 3.15625 + 2.65625 + 1e-9);
    }

    #[test]
    fn exact_sum_handles_specials() {
        let mut s = ExactSum::default();
        s.add(1.0);
        s.add(f64::INFINITY);
        assert_eq!(s.total(), f64::INFINITY);
        let mut n = ExactSum::default();
        n.add(f64::NAN);
        assert!(n.total().is_nan());
    }

    #[test]
    fn topk_matches_stable_sort_prefix() {
        // 1000 rows with only 7 distinct keys: ties everywhere, so the seq
        // tiebreak is what keeps pushdown identical to the stable sort.
        let rows: Vec<Vec<Option<Value>>> = (0..1000)
            .map(|i| vec![Some(Value::Int((i * 31) % 7)), Some(Value::Int(i))])
            .collect();
        for descending in [false, true] {
            let k = 25;
            let mut heap = TopK::new(0, descending, k);
            for (i, r) in rows.iter().enumerate() {
                heap.push((i as u64 / 100, i as u64 % 100), r.clone());
            }
            let got: Vec<_> = heap.into_entries().into_iter().map(|(_, r)| r).collect();
            let mut full = rows.clone();
            full.sort_by(|a, b| order_cmp(a, b, 0, descending));
            full.truncate(k);
            assert_eq!(got, full);
        }
    }
}
