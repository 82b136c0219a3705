//! Differential gate for the vectorized execution pipeline: over a frozen
//! [`CompactGraph`] the batched columnar operators must answer every query
//! **bit-identically** to the row-at-a-time interpreter running the same
//! plan — same rows, same order — sequential and 4-thread parallel, on
//! the pristine transform, after tombstone-heavy mutation, and after
//! incremental growth; and both must agree (as multisets) with the
//! unplanned scan evaluator and with the mutable graph the snapshot was
//! frozen from. The gate also runs the compact form through its binary
//! codec and demands the decoded snapshot answer exactly like the one it
//! was written from, and pins the SPARQL flat-batch join sequential ≡
//! parallel.
//!
//! Alongside the workload queries, the set covers the vectorized edge
//! cases: a label absent from the dictionary (empty postings run), an
//! always-false predicate (every row filtered, empty selection vector),
//! and multi-hop traversal under a property filter (selection vectors
//! threaded through consecutive CSR gathers).

use s3pg::pipeline::transform;
use s3pg::query_translate;
use s3pg::Mode;
use s3pg_pg::{CompactGraph, PropertyGraph, Value};
use s3pg_query::cypher::{self, Exec, ExecTuning};
use s3pg_query::sparql;
use s3pg_rdf::rng::XorShiftRng;
use s3pg_shacl::extract_shapes;
use s3pg_workloads::generate_queries;
use s3pg_workloads::spec::{generate, DatasetSpec, GeneratedDataset};
use std::collections::BTreeMap;

/// Big enough that the cartesian queries clear the parallel engagement
/// threshold, so the chunked worker path is exercised on both pipelines.
const INSTANCES: usize = 120;

fn workload() -> GeneratedDataset {
    generate(&DatasetSpec {
        name: "vecdiff".into(),
        namespace: "http://vecdiff.test/".into(),
        classes: 3,
        subclass_fraction: 0.25,
        instances_per_class: INSTANCES,
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

/// Order-independent row rendering for cross-representation comparison.
fn sorted_rows(rows: &cypher::Rows) -> Vec<String> {
    let mut out: Vec<String> = rows.rows.iter().map(|r| format!("{r:?}")).collect();
    out.sort();
    out
}

fn identifier_safe(s: &str) -> bool {
    s.chars().next().is_some_and(|c| c.is_ascii_alphabetic())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// The two identifier-safe node labels with the most live nodes.
fn busiest_labels(pg: &PropertyGraph) -> (String, String) {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for id in pg.node_ids() {
        for label in pg.labels_of(id) {
            if identifier_safe(label) {
                *counts.entry(label.to_string()).or_insert(0) += 1;
            }
        }
    }
    let mut ranked: Vec<(String, usize)> = counts.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    assert!(
        ranked.len() >= 2,
        "workload graph has fewer than two labels"
    );
    (ranked[0].0.clone(), ranked[1].0.clone())
}

/// The identifier-safe edge label with the most live edges, paired with
/// the most common label among its source nodes.
fn busiest_edge(pg: &PropertyGraph) -> (String, String) {
    let mut edges: BTreeMap<String, usize> = BTreeMap::new();
    for id in pg.edge_ids() {
        for label in pg.edge_labels_of(id) {
            if identifier_safe(label) {
                *edges.entry(label.to_string()).or_insert(0) += 1;
            }
        }
    }
    let (edge_label, _) = edges
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
        .expect("workload graph has no edges");
    let mut sources: BTreeMap<String, usize> = BTreeMap::new();
    for id in pg.edge_ids() {
        if pg.edge_labels_of(id).contains(&edge_label.as_str()) {
            for label in pg.labels_of(pg.edge(id).src) {
                *sources.entry(label.to_string()).or_insert(0) += 1;
            }
        }
    }
    let (src_label, _) = sources
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
        .expect("busiest edge has no labeled sources");
    (edge_label, src_label)
}

/// The query set every gate runs: translated workload SPARQL, cartesian
/// products and joins (parallel fan-out), multi-hop traversal under a
/// filter (selection vectors), aggregation, sort/skip/limit shaping,
/// UNWIND, and the empty-postings / all-filtered edge cases.
fn query_set(generated: &GeneratedDataset, out: &s3pg::pipeline::TransformOutput) -> Vec<String> {
    let mut queries: Vec<String> = generate_queries(&generated.meta, 2)
        .iter()
        .map(|spec| query_translate::translate_str(&spec.sparql, &out.schema.mapping).unwrap())
        .collect();
    let (l0, l1) = busiest_labels(&out.pg);
    let (edge_label, src_label) = busiest_edge(&out.pg);
    // Parallel fan-out over a cartesian product and a value join.
    queries.push(format!("MATCH (a:{l0}) MATCH (b:{l1}) RETURN a.iri, b.iri"));
    queries.push(format!(
        "MATCH (a:{src_label})-[:{edge_label}]->(v) \
         MATCH (b:{src_label})-[:{edge_label}]->(v) RETURN a.iri, b.iri"
    ));
    // CSR gathers: one-hop, two-hop, and reverse-anchored traversals.
    queries.push(format!(
        "MATCH (a:{src_label})-[:{edge_label}]->(v) RETURN a.iri, v.iri"
    ));
    queries.push(format!(
        "MATCH (a:{src_label})-[:{edge_label}]->(v)-[:{edge_label}]->(w) \
         RETURN a.iri, w.iri"
    ));
    queries.push(format!(
        "MATCH (a:{src_label}) MATCH (b)-[:{edge_label}]->(a) RETURN a.iri, b.iri"
    ));
    // Selection vectors through a filter, aggregation, and shaping.
    queries.push(format!(
        "MATCH (a:{src_label})-[:{edge_label}]->(v) WHERE a.iri <> v.iri \
         RETURN a.iri, v.iri"
    ));
    queries.push(format!(
        "MATCH (a:{l0}) RETURN count(*) AS n UNION ALL MATCH (b:{l1}) RETURN count(b) AS n"
    ));
    queries.push(format!(
        "MATCH (a:{l0}) RETURN DISTINCT a.iri ORDER BY a.iri DESC SKIP 3 LIMIT 7"
    ));
    queries.push(format!(
        "MATCH (a:{l0}) UNWIND a.iri AS x RETURN x LIMIT 40"
    ));
    // Empty postings: a label the dictionary has never interned.
    queries.push("MATCH (n:NoSuchLabelAnywhere) RETURN n.iri".to_string());
    queries.push(format!(
        "MATCH (a:{src_label})-[:NoSuchEdgeLabel]->(v) RETURN a.iri, v.iri"
    ));
    // All-filtered: every row survives expansion, none survive WHERE.
    queries.push(format!("MATCH (a:{l0}) WHERE a.iri = 'nope' RETURN a.iri"));
    queries
}

/// Freeze `pg`, roundtrip the snapshot through its binary codec, and
/// assert the vectorized pipeline agrees with every reference on every
/// query, sequential and parallel.
fn assert_vectorized_matches(pg: &PropertyGraph, queries: &[String], context: &str) {
    let compact = pg.freeze();
    let mut image = Vec::new();
    compact.write_to(&mut image).expect("snapshot encodes");
    let decoded = CompactGraph::read_from(image.as_slice()).expect("snapshot decodes");
    let params = cypher::Params::default();
    let mut nonempty = 0usize;
    for text in queries {
        let q = cypher::parse(text).unwrap();
        let plan = cypher::plan(&compact, &q);
        let scan = cypher::evaluate_scan(&compact, &q, &params).unwrap();
        for threads in [1usize, 4] {
            let exec = Exec {
                threads,
                params: &params,
                ..Exec::default()
            };
            let interpret = Exec {
                tuning: ExecTuning {
                    vectorize: false,
                    ..ExecTuning::default()
                },
                ..exec
            };
            let interpreted = cypher::evaluate(&compact, &q, &plan, &interpret).unwrap();
            let vectorized = cypher::evaluate(&compact, &q, &plan, &exec).unwrap();
            // Same plan, same graph: bit-identical, not just multiset-equal.
            assert_eq!(
                interpreted, vectorized,
                "{context}: vectorized != interpreted for {text} at {threads} threads"
            );
            let roundtripped = cypher::evaluate(&decoded, &q, &plan, &exec).unwrap();
            assert_eq!(
                vectorized, roundtripped,
                "{context}: codec roundtrip diverges for {text} at {threads} threads"
            );
            // The unplanned scan and the mutable graph may enumerate in a
            // different order; compare as multisets.
            assert_eq!(
                sorted_rows(&scan),
                sorted_rows(&vectorized),
                "{context}: vectorized != scan for {text} at {threads} threads"
            );
            let mutable = cypher::evaluate(pg, &q, &cypher::plan(pg, &q), &interpret).unwrap();
            assert_eq!(
                sorted_rows(&mutable),
                sorted_rows(&vectorized),
                "{context}: vectorized != mutable for {text} at {threads} threads"
            );
        }
        nonempty += usize::from(!scan.is_empty());
    }
    assert!(nonempty > 0, "{context}: every query returned no rows");
}

#[test]
fn vectorized_matches_references_on_pristine_transform() {
    let generated = workload();
    let shapes = extract_shapes(&generated.graph);
    let out = transform(&generated.graph, &shapes, Mode::Parsimonious);
    let queries = query_set(&generated, &out);
    assert_vectorized_matches(&out.pg, &queries, "pristine");
}

#[test]
fn vectorized_matches_references_after_tombstone_heavy_mutation() {
    let generated = workload();
    let shapes = extract_shapes(&generated.graph);
    let out = transform(&generated.graph, &shapes, Mode::Parsimonious);
    let queries = query_set(&generated, &out);
    let mut pg = out.pg;

    // Deterministically tombstone nodes, strip properties and labels, and
    // drop edges: the frozen postings runs and CSR rows must renumber the
    // survivors and the vectorized gathers must still agree everywhere.
    let mut rng = XorShiftRng::seed_from_u64(0x7157);
    let ids: Vec<_> = pg.node_ids().collect();
    for id in ids {
        match rng.choose_index(6).unwrap() {
            0 | 1 => {
                pg.remove_node(id);
            }
            2 => {
                if let Some((key, _)) = pg.node(id).props.first() {
                    let key = pg.resolve(*key).to_string();
                    pg.remove_prop(id, &key);
                }
            }
            3 => {
                if let Some(label) = pg.labels_of(id).first().map(|l| l.to_string()) {
                    pg.remove_label(id, &label);
                }
            }
            _ => {}
        }
    }
    let edge_ids: Vec<_> = pg.edge_ids().collect();
    for (i, id) in edge_ids.into_iter().enumerate() {
        if i % 3 == 0 {
            pg.remove_edge_by_id(id);
        }
    }
    assert_vectorized_matches(&pg, &queries, "after tombstones");

    // Post-tombstone updates land in the next freeze.
    let survivors: Vec<_> = pg.node_ids().take(8).collect();
    for id in survivors {
        pg.set_prop(id, "readd", Value::String("back".into()));
    }
    assert_vectorized_matches(&pg, &queries, "after re-adds");
}

#[test]
fn sparql_flat_join_is_thread_invariant() {
    let generated = workload();
    for spec in generate_queries(&generated.meta, 3) {
        let q = sparql::parse(&spec.sparql).unwrap();
        let parallel = sparql::Exec {
            threads: 4,
            ..sparql::Exec::default()
        };
        let seq = sparql::evaluate(&generated.graph, &q, &sparql::Exec::default()).unwrap();
        let par = sparql::evaluate(&generated.graph, &q, &parallel).unwrap();
        assert_eq!(seq, par, "sparql {} diverges at 4 threads", spec.sparql);
    }
}
