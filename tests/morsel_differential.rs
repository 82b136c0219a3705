//! Differential gate for the morsel-driven scheduler and batch-native
//! shaping: over a frozen [`CompactGraph`] the morsel-parallel pipeline
//! must answer every query **bit-identically** to the sequential
//! vectorized pipeline and to the row-at-a-time interpreter running the
//! same plan — at 1, 2, and 8 threads, under the default tuning, under
//! the static-chunking baseline, and with ORDER BY/LIMIT pushdown
//! disabled — on a pristine transform, after tombstone-heavy mutation,
//! and on an adversarially skewed graph whose hub vertex owns ~30% of all
//! edges (the shape the morsel scheduler exists for).
//!
//! The query set stresses everything the batch-native shaping rewrote:
//! grouped `count`/`sum`/`min`/`max` (including `DISTINCT` aggregates and
//! the zero-row aggregate), worker-local `DISTINCT` dedup, `ORDER BY` +
//! `SKIP`/`LIMIT` through the top-K heap (and an ORDER BY without LIMIT
//! that must *not* take it), plus the empty-morsel edge cases: a label
//! with no postings and a predicate that filters every row.

use s3pg::pipeline::transform;
use s3pg::Mode;
use s3pg_pg::PropertyGraph;
use s3pg_query::cypher::{self, Exec, ExecTuning, Scheduler};
use s3pg_rdf::rng::XorShiftRng;
use s3pg_shacl::extract_shapes;
use s3pg_workloads::skew::generate_skewed;
use s3pg_workloads::spec::{generate, DatasetSpec, GeneratedDataset};

/// Thread counts every query runs at: sequential, minimal parallel, and
/// more workers than the skew graph has hot morsels.
const THREADS: [usize; 3] = [1, 2, 8];

/// Skew scale picked so estimated work clears the parallel engagement
/// floor (4800 sources × per-row cost > 4096) while the gate stays fast.
const SKEW_SCALE: f64 = 1.2;

fn workload() -> GeneratedDataset {
    generate(&DatasetSpec {
        name: "morseldiff".into(),
        namespace: "http://morseldiff.test/".into(),
        classes: 3,
        subclass_fraction: 0.25,
        instances_per_class: 150,
        single_literal: 3,
        single_non_literal: 2,
        mt_homo_literal: 1,
        mt_homo_non_literal: 1,
        mt_hetero: 1,
        density: 0.7,
        multi_value_p: 0.3,
        seed: 0x5EED,
    })
}

/// Every tuning the gate pins against the interpreted reference: the
/// default (morsel scheduler + top-K pushdown), the static-chunking
/// baseline, and the morsel scheduler with pushdown disabled (full sort).
fn tunings() -> Vec<(ExecTuning, &'static str)> {
    vec![
        (ExecTuning::default(), "morsel+topk"),
        (
            ExecTuning {
                scheduler: Scheduler::Static,
                topk_pushdown: false,
                ..ExecTuning::default()
            },
            "static",
        ),
        (
            ExecTuning {
                scheduler: Scheduler::Morsel,
                topk_pushdown: false,
                ..ExecTuning::default()
            },
            "morsel-no-topk",
        ),
    ]
}

/// Assert every tuning × thread count answers bit-identically to the
/// interpreter on the frozen snapshot of `pg`.
fn assert_morsel_matches(pg: &PropertyGraph, queries: &[String], context: &str) {
    let compact = pg.freeze();
    let params = cypher::Params::default();
    let mut nonempty = 0usize;
    for text in queries {
        let q = cypher::parse(text).unwrap_or_else(|e| panic!("{context}: parse {text}: {e}"));
        let plan = cypher::plan(&compact, &q);
        let interpret = |threads| Exec {
            threads,
            params: &params,
            tuning: ExecTuning {
                vectorize: false,
                ..ExecTuning::default()
            },
            ..Exec::default()
        };
        let reference = cypher::evaluate(&compact, &q, &plan, &interpret(1)).unwrap();
        for threads in THREADS {
            let interpreted = cypher::evaluate(&compact, &q, &plan, &interpret(threads)).unwrap();
            assert_eq!(
                reference, interpreted,
                "{context}: interpreter not thread-invariant for {text} at {threads} threads"
            );
            for (tuning, name) in tunings() {
                let exec = Exec {
                    threads,
                    params: &params,
                    tuning,
                    ..Exec::default()
                };
                let got = cypher::evaluate(&compact, &q, &plan, &exec).unwrap();
                assert_eq!(
                    reference, got,
                    "{context}: {name} != interpreted for {text} at {threads} threads"
                );
            }
        }
        nonempty += usize::from(!reference.is_empty());
    }
    assert!(nonempty > 0, "{context}: every query returned no rows");
}

/// Queries over the skewed graph: hub-heavy traversal, grouped and
/// distinct aggregates, top-K-eligible and -ineligible ORDER BY, and the
/// empty-postings / all-filtered edge cases (empty morsels end to end).
fn skew_queries() -> Vec<String> {
    vec![
        "MATCH (s:Source)-[:linksTo]->(t:Target) RETURN s.iri, t.iri".to_string(),
        "MATCH (s:Source)-[:linksTo]->(t:Target) WHERE t.rank > 50000 RETURN s.iri, t.rank"
            .to_string(),
        "MATCH (s:Source)-[:linksTo]->(t:Target) RETURN count(*) AS n".to_string(),
        "MATCH (s:Source)-[:linksTo]->(t:Target) \
         RETURN s.iri, count(t) AS n, sum(t.rank) AS total, min(t.rank) AS lo, \
         max(t.rank) AS hi"
            .to_string(),
        "MATCH (s:Source)-[:linksTo]->(t:Target) \
         RETURN count(DISTINCT t.iri) AS targets, sum(DISTINCT t.rank) AS ranks"
            .to_string(),
        "MATCH (s:Source)-[:linksTo]->(t:Target) RETURN DISTINCT t.iri".to_string(),
        "MATCH (s:Source)-[:linksTo]->(t:Target) \
         RETURN t.iri, t.rank ORDER BY t.rank SKIP 3 LIMIT 17"
            .to_string(),
        "MATCH (s:Source)-[:linksTo]->(t:Target) \
         RETURN DISTINCT t.rank ORDER BY t.rank DESC LIMIT 9"
            .to_string(),
        "MATCH (t:Target) RETURN t.iri, t.rank ORDER BY t.rank".to_string(),
        // Zero-row aggregate: one row of count 0 / sum 0 / NULL min.
        "MATCH (s:Source)-[:linksTo]->(t:Target) WHERE t.rank < 0 \
         RETURN count(*) AS n, sum(t.rank) AS total, min(t.rank) AS lo"
            .to_string(),
        // Empty postings and all-filtered: every morsel comes back empty.
        "MATCH (n:NoSuchLabelAnywhere) RETURN n.iri".to_string(),
        "MATCH (s:Source) WHERE s.iri = 'nope' RETURN s.iri".to_string(),
    ]
}

/// Queries over the uniform workload graph, exercising the morsel path on
/// a transform-shaped graph (multi-label nodes, mixed properties).
fn workload_queries(pg: &PropertyGraph) -> Vec<String> {
    // The two identifier-safe labels with the most nodes, and the busiest
    // identifier-safe edge label (mirrors the vectorized gate's helpers).
    let mut label_counts: std::collections::BTreeMap<String, usize> = Default::default();
    for id in pg.node_ids() {
        for label in pg.labels_of(id) {
            let ok = label
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic())
                && label.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
            if ok {
                *label_counts.entry(label.to_string()).or_insert(0) += 1;
            }
        }
    }
    let mut ranked: Vec<(String, usize)> = label_counts.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    assert!(
        ranked.len() >= 2,
        "workload graph has fewer than two labels"
    );
    let (l0, l1) = (ranked[0].0.clone(), ranked[1].0.clone());
    vec![
        format!("MATCH (a:{l0}) MATCH (b:{l1}) RETURN a.iri, b.iri"),
        format!("MATCH (a:{l0}) RETURN a.iri, count(*) AS n"),
        format!("MATCH (a:{l0}) RETURN min(a.iri) AS lo, max(a.iri) AS hi"),
        format!("MATCH (a:{l0}) RETURN DISTINCT a.iri ORDER BY a.iri DESC SKIP 3 LIMIT 7"),
        format!("MATCH (a:{l0}) MATCH (b:{l1}) RETURN a.iri ORDER BY a.iri LIMIT 11"),
        format!(
            "MATCH (a:{l0}) RETURN count(a) AS n UNION ALL MATCH (b:{l1}) RETURN count(b) AS n"
        ),
    ]
}

#[test]
fn morsel_matches_interpreter_on_pristine_workload() {
    let generated = workload();
    let shapes = extract_shapes(&generated.graph);
    let out = transform(&generated.graph, &shapes, Mode::Parsimonious);
    let queries = workload_queries(&out.pg);
    assert_morsel_matches(&out.pg, &queries, "pristine");
}

#[test]
fn morsel_matches_interpreter_after_tombstones() {
    let generated = workload();
    let shapes = extract_shapes(&generated.graph);
    let out = transform(&generated.graph, &shapes, Mode::Parsimonious);
    let queries = workload_queries(&out.pg);
    let mut pg = out.pg;
    let mut rng = XorShiftRng::seed_from_u64(0x7157);
    let ids: Vec<_> = pg.node_ids().collect();
    for id in ids {
        if rng.choose_index(4).unwrap() == 0 {
            pg.remove_node(id);
        }
    }
    let edge_ids: Vec<_> = pg.edge_ids().collect();
    for (i, id) in edge_ids.into_iter().enumerate() {
        if i % 3 == 0 {
            pg.remove_edge_by_id(id);
        }
    }
    assert_morsel_matches(&pg, &queries, "after tombstones");
}

#[test]
fn morsel_matches_interpreter_on_skewed_graph() {
    let skewed = generate_skewed(SKEW_SCALE, 0xD1CE);
    assert!(
        skewed.hub_edge_share() > 0.25,
        "skew generator lost its hub"
    );
    let shapes = extract_shapes(&skewed.graph);
    let out = transform(&skewed.graph, &shapes, Mode::Parsimonious);
    assert_morsel_matches(&out.pg, &skew_queries(), "skewed");
}
