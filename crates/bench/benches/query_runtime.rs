//! Figure 6 benchmark: query runtime per category on the source RDF graph
//! (SPARQL) and on the three transformed PGs (Cypher) — plus a
//! machine-readable `BENCH_query.json` comparing the pre-planner scan
//! baseline against indexed/planned evaluation at 1/2/4/8 threads, and
//! index-probe vs label-scan on equality-predicate queries.
//!
//! ```text
//! cargo bench --bench query_runtime -- [--scale F] [--out BENCH_query.json]
//! ```

use s3pg::query_translate;
use s3pg_baselines::NeoSemantics;
use s3pg_bench::experiments::{accuracy_context, plan_and_evaluate, Dataset, Scale};
use s3pg_bench::timing::{bench, bench_samples, section, Samples};
use s3pg_pg::{PropertyGraph, Value};
use s3pg_query::{cypher, sparql};
use s3pg_workloads::generate_queries;
use s3pg_workloads::QueryCategory;
use std::fmt::Write as _;

/// Worker counts for the parallel comparison sweeps.
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    // `cargo bench` forwards arguments after `--`; it also passes
    // `--bench` itself, which is ignored like any other unknown flag.
    let mut scale = 0.15f64;
    let mut out_path = "BENCH_query.json".to_string();
    let mut inspect = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                if let Some(v) = it.next().and_then(|v| v.parse::<f64>().ok()) {
                    scale = v;
                }
            }
            "--out" => {
                if let Some(v) = it.next() {
                    out_path = v;
                }
            }
            "--inspect" => inspect = true,
            _ => {}
        }
    }

    let cx = accuracy_context(Dataset::DBpedia2022, Scale(scale));
    if inspect {
        inspect_pg(&cx.s3pg.pg);
        return;
    }
    let graph = &cx.prepared.generated.graph;
    let queries = generate_queries(&cx.prepared.generated.meta, 1);
    let no_params = cypher::Params::default();

    section("figure6");
    for category in QueryCategory::ALL {
        let Some(q) = queries.iter().find(|q| q.category == category) else {
            continue;
        };
        let sparql_q = sparql::parse(&q.sparql).unwrap();
        let s3pg_q = cypher::parse(
            &query_translate::translate_str(&q.sparql, &cx.s3pg.schema.mapping).unwrap(),
        )
        .unwrap();
        let neo_q = cypher::parse(&NeoSemantics::query(Some(&q.class), &q.predicate)).unwrap();
        let r2p_q = cypher::parse(&cx.rdf2pg.query(Some(&q.class), &q.predicate)).unwrap();

        let name = category.name();
        bench(&format!("sparql/{name}"), || {
            sparql::evaluate(graph, &sparql_q, &sparql::Exec::default()).unwrap()
        });
        bench(&format!("s3pg/{name}"), || {
            plan_and_evaluate(&cx.s3pg.pg, &s3pg_q, 1)
        });
        bench(&format!("neosem/{name}"), || {
            plan_and_evaluate(&cx.neosem.pg, &neo_q, 1)
        });
        bench(&format!("rdf2pg/{name}"), || {
            plan_and_evaluate(&cx.rdf2pg.pg, &r2p_q, 1)
        });
    }

    // ---- BENCH_query.json: workload mix, scan vs planned vs parallel ----
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"dataset\": \"{}\",", cx.prepared.dataset.name());
    let _ = writeln!(json, "  \"scale\": {scale},");
    let _ = writeln!(json, "  \"threads\": [1, 2, 4, 8],");
    json.push_str("  \"workload\": [\n");

    section("workload mix: scan vs planned, threads 1/2/4/8");
    let mut first = true;
    for q in &queries {
        let name = format!("{}-Q{}", q.category.name(), q.id);
        let sparql_q = sparql::parse(&q.sparql).unwrap();
        let s3pg_q = cypher::parse(
            &query_translate::translate_str(&q.sparql, &cx.s3pg.schema.mapping).unwrap(),
        )
        .unwrap();

        let scan = bench_samples(&format!("cypher-scan/{name}"), || {
            cypher::evaluate_scan(&cx.s3pg.pg, &s3pg_q, &no_params).unwrap()
        });
        let cypher_t: Vec<(usize, Samples)> = THREADS
            .iter()
            .map(|&t| {
                (
                    t,
                    bench_samples(&format!("cypher-t{t}/{name}"), || {
                        plan_and_evaluate(&cx.s3pg.pg, &s3pg_q, t)
                    }),
                )
            })
            .collect();
        let sparql_t: Vec<(usize, Samples)> = THREADS
            .iter()
            .map(|&t| {
                (
                    t,
                    bench_samples(&format!("sparql-t{t}/{name}"), || {
                        let exec = sparql::Exec {
                            threads: t,
                            ..sparql::Exec::default()
                        };
                        sparql::evaluate(graph, &sparql_q, &exec).unwrap()
                    }),
                )
            })
            .collect();

        if !first {
            json.push_str(",\n");
        }
        first = false;
        json.push_str("    {\n");
        let _ = writeln!(json, "      \"id\": {},", q.id);
        let _ = writeln!(json, "      \"category\": \"{}\",", q.category.name());
        let _ = writeln!(json, "      \"cypher_scan\": {},", samples_json(&scan));
        json.push_str("      \"cypher_threads\": {");
        json.push_str(&threads_json(&cypher_t));
        json.push_str("},\n");
        json.push_str("      \"sparql_threads\": {");
        json.push_str(&threads_json(&sparql_t));
        json.push_str("}\n    }");
    }
    json.push_str("\n  ],\n");

    // ---- Multi-pattern value joins: scan vs planned, threads sweep ----
    // Two MATCH patterns sharing a carrier variable — the nested-loop
    // join the parallel evaluator is built for: the first pattern's
    // candidates are partitioned and each worker runs the whole second
    // pattern for its chunk.
    section("multi-pattern value joins: scan vs planned, threads 1/2/4/8");
    json.push_str("  \"multi_pattern\": [\n");
    let mut first = true;
    for text in join_queries(&cx.s3pg.pg, 3) {
        let parsed = cypher::parse(&text).unwrap();
        let tag = short_tag(&text);
        let scan = bench_samples(&format!("join-scan/{tag}"), || {
            cypher::evaluate_scan(&cx.s3pg.pg, &parsed, &no_params).unwrap()
        });
        let join_t: Vec<(usize, Samples)> = THREADS
            .iter()
            .map(|&t| {
                (
                    t,
                    bench_samples(&format!("join-t{t}/{tag}"), || {
                        plan_and_evaluate(&cx.s3pg.pg, &parsed, t)
                    }),
                )
            })
            .collect();
        let scan_ns = scan.p50.as_nanos().max(1) as f64;
        let t4 = join_t[2].1.p50.as_nanos().max(1) as f64;
        let speedup = scan_ns / t4;
        println!("{tag:<56} planned @4 threads vs scan {speedup:.1}x (p50)");
        if !first {
            json.push_str(",\n");
        }
        first = false;
        json.push_str("    {\n");
        let _ = writeln!(json, "      \"query\": {},", json_string(&text));
        let _ = writeln!(json, "      \"cypher_scan\": {},", samples_json(&scan));
        json.push_str("      \"cypher_threads\": {");
        json.push_str(&threads_json(&join_t));
        json.push_str("},\n");
        let _ = writeln!(json, "      \"p50_speedup_t4_vs_scan\": {speedup:.2}");
        json.push_str("    }");
    }
    json.push_str("\n  ],\n");

    // ---- Equality predicates: index probe vs label scan ----
    section("equality predicates: index vs scan");
    json.push_str("  \"equality\": [\n");
    let mut first = true;
    for (label, key, literal) in equality_targets(&cx.s3pg.pg, 4) {
        let text = format!("MATCH (n:{label}) WHERE n.{key} = {literal} RETURN n.{key}");
        let parsed = cypher::parse(&text).unwrap();
        let tag = format!("{label}.{key}");
        let scan = bench_samples(&format!("eq-scan/{tag}"), || {
            cypher::evaluate_scan(&cx.s3pg.pg, &parsed, &no_params).unwrap()
        });
        let indexed = bench_samples(&format!("eq-index/{tag}"), || {
            plan_and_evaluate(&cx.s3pg.pg, &parsed, 1)
        });
        let speedup = scan.p50.as_nanos() as f64 / indexed.p50.as_nanos().max(1) as f64;
        println!("{tag:<56} index speedup {speedup:.1}x (p50)");
        if !first {
            json.push_str(",\n");
        }
        first = false;
        json.push_str("    {\n");
        let _ = writeln!(json, "      \"query\": {},", json_string(&text));
        let _ = writeln!(json, "      \"label\": {},", json_string(&label));
        let _ = writeln!(json, "      \"key\": {},", json_string(&key));
        let _ = writeln!(json, "      \"scan\": {},", samples_json(&scan));
        let _ = writeln!(json, "      \"indexed\": {},", samples_json(&indexed));
        let _ = writeln!(json, "      \"p50_speedup\": {speedup:.2}");
        json.push_str("    }");
    }
    json.push_str("\n  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_query.json");
    println!("\nwrote {out_path}");
}

/// `{"p50_us": …, "p99_us": …, "mean_us": …, "iters": …}` for one sample set.
fn samples_json(s: &Samples) -> String {
    format!(
        "{{\"p50_us\": {:.2}, \"p99_us\": {:.2}, \"mean_us\": {:.2}, \"iters\": {}}}",
        s.p50.as_nanos() as f64 / 1_000.0,
        s.p99.as_nanos() as f64 / 1_000.0,
        s.mean.as_nanos() as f64 / 1_000.0,
        s.iters
    )
}

/// `"1": {…}, "2": {…}, …` for a per-thread-count sweep.
fn threads_json(sweep: &[(usize, Samples)]) -> String {
    sweep
        .iter()
        .map(|(t, s)| format!("\"{t}\": {}", samples_json(s)))
        .collect::<Vec<_>>()
        .join(", ")
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// First 3 tokens of a query as a display tag.
fn short_tag(query: &str) -> String {
    query
        .split_whitespace()
        .take(3)
        .collect::<Vec<_>>()
        .join(" ")
}

/// Build up to `limit` two-pattern value-join queries from the PG: pairs
/// of entity classes that reach the same literal carrier through the same
/// multi-type edge label (the paper's shared-property-value join shape).
/// Ranked by estimated join work, biggest first, so the benchmark
/// exercises the heaviest joins the dataset offers.
fn join_queries(pg: &PropertyGraph, limit: usize) -> Vec<String> {
    use std::collections::BTreeMap;
    // edge label → (src label → edge count)
    let mut by_edge: BTreeMap<String, BTreeMap<String, usize>> = BTreeMap::new();
    for id in pg.edge_ids() {
        let src = pg.edge(id).src;
        for el in pg.edge_labels_of(id) {
            if !identifier_safe(el) {
                continue;
            }
            let entry = by_edge.entry(el.to_string()).or_default();
            for sl in pg.labels_of(src) {
                if identifier_safe(sl) {
                    *entry.entry(sl.to_string()).or_insert(0) += 1;
                }
            }
        }
    }
    let mut ranked: Vec<(usize, String)> = Vec::new();
    for (el, srcs) in &by_edge {
        if srcs.len() < 2 {
            continue;
        }
        let mut classes: Vec<(&String, &usize)> = srcs.iter().collect();
        classes.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
        let (l1, n1) = classes[0];
        let (l2, n2) = classes[1];
        ranked.push((
            n1 * n2,
            format!("MATCH (a:{l1})-[:{el}]->(v) MATCH (b:{l2})-[:{el}]->(v) RETURN a.iri, b.iri"),
        ));
    }
    ranked.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    ranked.into_iter().take(limit).map(|(_, q)| q).collect()
}

/// `--inspect`: dump label and edge-label cardinalities plus a sample
/// node per label, for designing benchmark queries against the
/// transformed graph without guessing at its shape.
fn inspect_pg(pg: &PropertyGraph) {
    let mut labels = std::collections::BTreeMap::new();
    let mut edge_labels = std::collections::BTreeMap::new();
    for id in pg.node_ids() {
        for label in pg.labels_of(id) {
            *labels.entry(label.to_string()).or_insert(0usize) += 1;
        }
    }
    for id in pg.edge_ids() {
        for label in pg.edge_labels_of(id) {
            *edge_labels.entry(label.to_string()).or_insert(0usize) += 1;
        }
    }
    println!("nodes={} edges={}", pg.node_count(), pg.edge_count());
    for (label, n) in &labels {
        let sample = pg.nodes_with_label(label).first().map(|&id| {
            let node = pg.node(id);
            let keys: Vec<&str> = node.props.iter().map(|(k, _)| pg.resolve(*k)).collect();
            let degree = pg.out_edges(id).count();
            format!("keys={keys:?} out_degree={degree}")
        });
        println!("label {label:<40} {n:>8}  {}", sample.unwrap_or_default());
    }
    for (label, n) in &edge_labels {
        println!("edge  {label:<40} {n:>8}");
    }
}

/// Whether `s` can appear bare as a Cypher label/key identifier.
fn identifier_safe(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Pick up to `limit` real `(label, key, literal)` equality targets from
/// the PG, largest label first, so index-vs-scan is measured on the same
/// data the workload queries touch. The literal is the first bucket
/// node's value — any present value works, since scan cost is the label
/// cardinality regardless of selectivity.
fn equality_targets(pg: &PropertyGraph, limit: usize) -> Vec<(String, String, String)> {
    let mut labels: Vec<(String, usize)> = {
        let mut set = std::collections::BTreeMap::new();
        for id in pg.node_ids() {
            for label in pg.labels_of(id) {
                *set.entry(label.to_string()).or_insert(0usize) += 1;
            }
        }
        set.into_iter().collect()
    };
    labels.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    let mut out = Vec::new();
    for (label, _) in labels {
        if out.len() >= limit {
            break;
        }
        if !identifier_safe(&label) {
            continue;
        }
        let Some(&node) = pg.nodes_with_label(&label).first() else {
            continue;
        };
        let target = pg.node(node).props.iter().find_map(|(k, v)| {
            let key = pg.resolve(*k);
            if !identifier_safe(key) {
                return None;
            }
            match v {
                Value::String(s) if !s.contains(['"', '\\']) => {
                    Some((key.to_string(), format!("{s:?}")))
                }
                Value::Int(i) => Some((key.to_string(), i.to_string())),
                _ => None,
            }
        });
        if let Some((key, literal)) = target {
            out.push((label, key, literal));
        }
    }
    out
}
