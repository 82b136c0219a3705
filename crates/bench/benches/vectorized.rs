//! Vectorized-execution benchmark: interpreted vs batched columnar
//! evaluation over the same frozen [`CompactGraph`] and the same cached
//! plan, across scale tiers, emitting a machine-readable
//! `BENCH_vectorized.json` that `trace_check --vectorized-bench` validates
//! in CI — plus the **morsel scheduler benchmark**: morsel-driven vs
//! static-chunked parallel execution on uniform and skewed-degree graphs,
//! and ORDER BY/LIMIT top-K pushdown vs full sort, emitting
//! `BENCH_morsel.json` for `trace_check --morsel-bench`.
//!
//! ```text
//! cargo bench --bench vectorized -- [--scales 1,10,100] \
//!     [--out BENCH_vectorized.json] [--morsel-out BENCH_morsel.json] \
//!     [--morsel-only]
//! ```
//!
//! Both sides of every A/B run over the *same* compact snapshot under the
//! *same* plan, so the measured delta is purely the physical execution
//! strategy. Row counts (vectorized A/B: full answers) are asserted equal
//! before any timing happens.

use s3pg::pipeline::transform;
use s3pg::query_translate;
use s3pg::Mode;
use s3pg_bench::experiments::{prepare, Dataset, Scale};
use s3pg_bench::timing::{bench_samples, section, Samples};
use s3pg_pg::{CompactGraph, PgRead, PropertyGraph, Value};
use s3pg_query::cypher::{self, Exec, ExecTuning, Scheduler};
use s3pg_shacl::extract_shapes;
use s3pg_workloads::generate_queries;
use s3pg_workloads::skew;
use std::fmt::Write as _;

/// Worker count every parallel A/B runs at.
const MORSEL_BENCH_THREADS: usize = 4;

fn main() {
    let mut scales: Vec<f64> = vec![1.0, 10.0];
    let mut out_path = "BENCH_vectorized.json".to_string();
    let mut morsel_out = "BENCH_morsel.json".to_string();
    let mut morsel_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scales" => {
                if let Some(v) = it.next() {
                    scales = v
                        .split(',')
                        .filter_map(|s| s.trim().parse::<f64>().ok())
                        .collect();
                }
            }
            "--out" => {
                if let Some(v) = it.next() {
                    out_path = v;
                }
            }
            "--morsel-out" => {
                if let Some(v) = it.next() {
                    morsel_out = v;
                }
            }
            "--morsel-only" => morsel_only = true,
            _ => {}
        }
    }
    assert!(!scales.is_empty(), "--scales parsed to an empty list");

    if !morsel_only {
        run_vectorized(&scales, &out_path);
    }
    run_morsel(&scales, &morsel_out);
}

fn run_vectorized(scales: &[f64], out_path: &str) {
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"dataset\": \"{}\",", Dataset::DBpedia2022.name());
    json.push_str("  \"tiers\": [\n");
    for (ti, &scale) in scales.iter().enumerate() {
        section(&format!("scale {scale}"));
        let prepared = prepare(Dataset::DBpedia2022, Scale(scale));
        let out = transform(
            &prepared.generated.graph,
            &prepared.shapes,
            Mode::Parsimonious,
        );
        let pg = &out.pg;
        let compact = pg.freeze();
        println!(
            "scale {scale}: {} nodes, {} edges",
            compact.node_count(),
            compact.edge_count()
        );

        // Query set: translated workload queries plus the traversal shapes
        // the CSR-gather pipeline targets (tagged `traversal*` so the CI
        // gate can find them) and an equality probe over the frozen
        // eq-index.
        let mut queries: Vec<(String, String)> = Vec::new();
        for q in generate_queries(&prepared.generated.meta, 1) {
            let text = query_translate::translate_str(&q.sparql, &out.schema.mapping).unwrap();
            queries.push((format!("{}-Q{}", q.category.name(), q.id), text));
        }
        if let Some((edge_label, src)) = busiest_edge(pg) {
            queries.push((
                "traversal".to_string(),
                format!("MATCH (a:{src})-[:{edge_label}]->(v) RETURN a.iri, v.iri"),
            ));
            queries.push((
                "traversal-2hop".to_string(),
                format!(
                    "MATCH (a:{src})-[:{edge_label}]->(v)-[:{edge_label}]->(w) \
                     RETURN a.iri, w.iri"
                ),
            ));
            queries.push((
                "traversal-filtered".to_string(),
                format!(
                    "MATCH (a:{src})-[:{edge_label}]->(v) WHERE a.iri <> v.iri \
                     RETURN a.iri, v.iri"
                ),
            ));
        }
        if let Some(text) = equality_query(pg) {
            queries.push(("equality".to_string(), text));
        }

        if ti > 0 {
            json.push_str(",\n");
        }
        json.push_str("    {\n");
        let _ = writeln!(json, "      \"scale\": {scale},");
        let _ = writeln!(json, "      \"nodes\": {},", compact.node_count());
        let _ = writeln!(json, "      \"edges\": {},", compact.edge_count());
        json.push_str("      \"queries\": [\n");
        let mut first = true;
        for (tag, text) in &queries {
            let parsed = cypher::parse(text).unwrap();
            let plan = cypher::plan(&compact, &parsed);
            let interpret = Exec {
                tuning: ExecTuning {
                    vectorize: false,
                    ..ExecTuning::default()
                },
                ..Exec::default()
            };
            let vectorize = Exec::default();
            let rows_interpreted = cypher::evaluate(&compact, &parsed, &plan, &interpret).unwrap();
            let rows_vectorized = cypher::evaluate(&compact, &parsed, &plan, &vectorize).unwrap();
            assert_eq!(
                rows_interpreted, rows_vectorized,
                "pipelines disagree on {text}"
            );
            let rows = rows_vectorized.rows.len();
            // Interleave the two pipelines (A/B/A/B…, min p50 per side) so
            // machine drift between passes cancels instead of biasing
            // whichever side ran later.
            let mut interpreted: Option<Samples> = None;
            let mut vectorized: Option<Samples> = None;
            for _ in 0..3 {
                let a = bench_samples(&format!("interpreted/{tag}"), || {
                    cypher::evaluate(&compact, &parsed, &plan, &interpret).unwrap()
                });
                if interpreted.as_ref().is_none_or(|best| a.p50 < best.p50) {
                    interpreted = Some(a);
                }
                let b = bench_samples(&format!("vectorized/{tag}"), || {
                    cypher::evaluate(&compact, &parsed, &plan, &vectorize).unwrap()
                });
                if vectorized.as_ref().is_none_or(|best| b.p50 < best.p50) {
                    vectorized = Some(b);
                }
            }
            let (interpreted, vectorized) = (interpreted.unwrap(), vectorized.unwrap());
            let speedup =
                interpreted.p50.as_nanos().max(1) as f64 / vectorized.p50.as_nanos().max(1) as f64;
            println!("{tag:<40} interpreted/vectorized p50 {speedup:.2}x");
            if !first {
                json.push_str(",\n");
            }
            first = false;
            json.push_str("        {\n");
            let _ = writeln!(json, "          \"tag\": {},", json_string(tag));
            let _ = writeln!(json, "          \"query\": {},", json_string(text));
            let _ = writeln!(json, "          \"rows\": {rows},");
            let _ = writeln!(
                json,
                "          \"interpreted\": {},",
                samples_json(&interpreted)
            );
            let _ = writeln!(
                json,
                "          \"vectorized\": {},",
                samples_json(&vectorized)
            );
            let _ = writeln!(
                json,
                "          \"p50_interpreted_over_vectorized\": {speedup:.3}"
            );
            json.push_str("        }");
        }
        json.push_str("\n      ]\n    }");
    }
    json.push_str("\n  ]\n}\n");

    std::fs::write(out_path, &json).expect("write BENCH_vectorized.json");
    println!("\nwrote {out_path}");
}

/// One morsel-vs-static (or topk-vs-fullsort) A/B over a frozen snapshot:
/// assert both tunings answer identically, then interleave 3 passes of
/// each side and keep the best p50 per side.
fn ab_tunings(
    compact: &CompactGraph,
    text: &str,
    tag: &str,
    a: (ExecTuning, &str),
    b: (ExecTuning, &str),
) -> (usize, Samples, Samples) {
    let parsed = cypher::parse(text).unwrap();
    let plan = cypher::plan(compact, &parsed);
    let run = |tuning: ExecTuning| {
        let exec = Exec {
            threads: MORSEL_BENCH_THREADS,
            tuning,
            ..Exec::default()
        };
        cypher::evaluate(compact, &parsed, &plan, &exec).unwrap()
    };
    let rows_a = run(a.0);
    let rows_b = run(b.0);
    assert_eq!(rows_a, rows_b, "tunings disagree on {text}");
    let rows = rows_a.rows.len();
    let mut best_a: Option<Samples> = None;
    let mut best_b: Option<Samples> = None;
    for _ in 0..3 {
        let s = bench_samples(&format!("{}/{tag}", a.1), || run(a.0));
        if best_a.as_ref().is_none_or(|best| s.p50 < best.p50) {
            best_a = Some(s);
        }
        let s = bench_samples(&format!("{}/{tag}", b.1), || run(b.0));
        if best_b.as_ref().is_none_or(|best| s.p50 < best.p50) {
            best_b = Some(s);
        }
    }
    (rows, best_a.unwrap(), best_b.unwrap())
}

/// Render one A/B query entry: `a`/`b` are the JSON field names for the
/// two sides and `ratio_field` names `b.p50 / a.p50` (so >1 means side
/// `a` is faster).
#[allow(clippy::too_many_arguments)]
fn ab_entry_json(
    json: &mut String,
    first: &mut bool,
    tag: &str,
    text: &str,
    rows: usize,
    (a_name, a): (&str, &Samples),
    (b_name, b): (&str, &Samples),
    ratio_field: &str,
) {
    let ratio = b.p50.as_nanos().max(1) as f64 / a.p50.as_nanos().max(1) as f64;
    println!("{tag:<40} {ratio_field} p50 {ratio:.2}x");
    if !*first {
        json.push_str(",\n");
    }
    *first = false;
    json.push_str("        {\n");
    let _ = writeln!(json, "          \"tag\": {},", json_string(tag));
    let _ = writeln!(json, "          \"query\": {},", json_string(text));
    let _ = writeln!(json, "          \"rows\": {rows},");
    let _ = writeln!(json, "          \"{a_name}\": {},", samples_json(a));
    let _ = writeln!(json, "          \"{b_name}\": {},", samples_json(b));
    let _ = writeln!(json, "          \"{ratio_field}\": {ratio:.3}");
    json.push_str("        }");
}

/// The morsel scheduler benchmark: three sections per scale tier.
///
/// * `uniform` — morsel vs static chunking on the evenly distributed
///   DBpedia-style workload (the scheduler must not regress it);
/// * `skew` — the same A/B on the skewed-degree graph whose hub owns ~30%
///   of all edges (the shape morsels exist for);
/// * `topk` — ORDER BY/LIMIT pushdown vs full materialize-then-sort,
///   both on the morsel scheduler.
fn run_morsel(scales: &[f64], out_path: &str) {
    let morsel = ExecTuning::default();
    let static_chunks = ExecTuning {
        scheduler: Scheduler::Static,
        topk_pushdown: false,
        ..ExecTuning::default()
    };
    let no_topk = ExecTuning {
        scheduler: Scheduler::Morsel,
        topk_pushdown: false,
        ..ExecTuning::default()
    };

    // Recorded so the gate knows whether scheduler timing ratios mean
    // anything: on a 1-core machine every thread pool is oversubscription
    // and morsel-vs-static p50s are scheduling noise, so `trace_check
    // --morsel-bench` only enforces them when this is >= 2.
    let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"threads\": {MORSEL_BENCH_THREADS},");
    let _ = writeln!(json, "  \"parallelism\": {parallelism},");
    let _ = writeln!(json, "  \"morsel_size\": 2048,");

    // Uniform tiers: the no-regression guard.
    json.push_str("  \"uniform\": [\n");
    for (ti, &scale) in scales.iter().enumerate() {
        section(&format!("morsel uniform scale {scale}"));
        let prepared = prepare(Dataset::DBpedia2022, Scale(scale));
        let out = transform(
            &prepared.generated.graph,
            &prepared.shapes,
            Mode::Parsimonious,
        );
        let compact = out.pg.freeze();
        let mut queries: Vec<(String, String)> = Vec::new();
        if let Some((edge_label, src)) = busiest_edge(&out.pg) {
            queries.push((
                "uniform-traversal".to_string(),
                format!("MATCH (a:{src})-[:{edge_label}]->(v) RETURN a.iri, v.iri"),
            ));
            queries.push((
                "uniform-filtered".to_string(),
                format!(
                    "MATCH (a:{src})-[:{edge_label}]->(v) WHERE a.iri <> v.iri \
                     RETURN a.iri, v.iri"
                ),
            ));
            queries.push((
                "uniform-group-count".to_string(),
                format!("MATCH (a:{src})-[:{edge_label}]->(v) RETURN a.iri, count(v) AS n"),
            ));
        }
        if ti > 0 {
            json.push_str(",\n");
        }
        json.push_str("    {\n");
        let _ = writeln!(json, "      \"scale\": {scale},");
        json.push_str("      \"queries\": [\n");
        let mut first = true;
        for (tag, text) in &queries {
            let (rows, m, s) = ab_tunings(
                &compact,
                text,
                tag,
                (morsel, "morsel"),
                (static_chunks, "static"),
            );
            ab_entry_json(
                &mut json,
                &mut first,
                tag,
                text,
                rows,
                ("morsel", &m),
                ("static", &s),
                "p50_static_over_morsel",
            );
        }
        json.push_str("\n      ]\n    }");
    }
    json.push_str("\n  ],\n");

    // Skew + top-K tiers share the skewed snapshot per scale.
    let mut skew_json = String::new();
    let mut topk_json = String::new();
    for (ti, &scale) in scales.iter().enumerate() {
        section(&format!("morsel skew scale {scale}"));
        let skewed = skew::generate_skewed(scale, 0xD1CE);
        let shapes = extract_shapes(&skewed.graph);
        let out = transform(&skewed.graph, &shapes, Mode::Parsimonious);
        let compact = out.pg.freeze();
        println!(
            "skew scale {scale}: {} nodes, {} edges, hub degree {} ({:.1}% of edges)",
            compact.node_count(),
            compact.edge_count(),
            skewed.hub_degree,
            100.0 * skewed.hub_edge_share()
        );

        if ti > 0 {
            skew_json.push_str(",\n");
            topk_json.push_str(",\n");
        }
        skew_json.push_str("    {\n");
        let _ = writeln!(skew_json, "      \"scale\": {scale},");
        let _ = writeln!(skew_json, "      \"hub_degree\": {},", skewed.hub_degree);
        let _ = writeln!(
            skew_json,
            "      \"hub_edge_share\": {:.3},",
            skewed.hub_edge_share()
        );
        skew_json.push_str("      \"queries\": [\n");
        let skew_queries = [
            (
                "skew-traversal",
                "MATCH (s:Source)-[:linksTo]->(t:Target) RETURN s.iri, t.iri".to_string(),
            ),
            (
                "skew-filtered",
                "MATCH (s:Source)-[:linksTo]->(t:Target) WHERE t.rank > 50000 \
                 RETURN s.iri, t.rank"
                    .to_string(),
            ),
            (
                "skew-agg",
                "MATCH (s:Source)-[:linksTo]->(t:Target) \
                 RETURN s.iri, count(t) AS n, sum(t.rank) AS total"
                    .to_string(),
            ),
        ];
        let mut first = true;
        for (tag, text) in &skew_queries {
            let (rows, m, s) = ab_tunings(
                &compact,
                text,
                tag,
                (morsel, "morsel"),
                (static_chunks, "static"),
            );
            ab_entry_json(
                &mut skew_json,
                &mut first,
                tag,
                text,
                rows,
                ("morsel", &m),
                ("static", &s),
                "p50_static_over_morsel",
            );
        }
        skew_json.push_str("\n      ]\n    }");

        topk_json.push_str("    {\n");
        let _ = writeln!(topk_json, "      \"scale\": {scale},");
        topk_json.push_str("      \"queries\": [\n");
        let text = "MATCH (s:Source)-[:linksTo]->(t:Target) \
                    RETURN t.iri, t.rank ORDER BY t.rank LIMIT 10";
        let (rows, t, f) = ab_tunings(
            &compact,
            text,
            "topk-order-limit",
            (morsel, "topk"),
            (no_topk, "fullsort"),
        );
        let mut first = true;
        ab_entry_json(
            &mut topk_json,
            &mut first,
            "topk-order-limit",
            text,
            rows,
            ("topk", &t),
            ("fullsort", &f),
            "p50_fullsort_over_topk",
        );
        topk_json.push_str("\n      ]\n    }");
    }
    json.push_str("  \"skew\": [\n");
    json.push_str(&skew_json);
    json.push_str("\n  ],\n");
    json.push_str("  \"topk\": [\n");
    json.push_str(&topk_json);
    json.push_str("\n  ]\n}\n");

    std::fs::write(out_path, &json).expect("write BENCH_morsel.json");
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

/// Whether `s` can appear bare as a Cypher label/key identifier.
fn identifier_safe(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// The busiest identifier-safe edge label and a label of one of its
/// source nodes.
fn busiest_edge(pg: &PropertyGraph) -> Option<(String, String)> {
    let mut edges: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    for id in pg.edge_ids() {
        for label in pg.edge_labels_of(id) {
            if identifier_safe(label) {
                *edges.entry(label.to_string()).or_insert(0) += 1;
            }
        }
    }
    let (edge_label, _) = edges
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))?;
    let src = pg.edge_ids().find_map(|id| {
        if !pg.edge_labels_of(id).contains(&edge_label.as_str()) {
            return None;
        }
        pg.labels_of(pg.edge(id).src)
            .iter()
            .find(|l| identifier_safe(l))
            .map(|l| l.to_string())
    })?;
    Some((edge_label, src))
}

/// An equality probe on a real `(label, key, literal)` present in the PG.
fn equality_query(pg: &PropertyGraph) -> Option<String> {
    for id in pg.node_ids() {
        for label in pg.labels_of(id) {
            if !identifier_safe(label) {
                continue;
            }
            for (key, value) in &pg.node(id).props {
                let key = pg.resolve(*key);
                if !identifier_safe(key) {
                    continue;
                }
                let literal = match value {
                    Value::String(s) if !s.contains(['"', '\\']) => format!("{s:?}"),
                    Value::Int(i) => i.to_string(),
                    _ => continue,
                };
                return Some(format!(
                    "MATCH (n:{label}) WHERE n.{key} = {literal} RETURN n.iri"
                ));
            }
        }
    }
    None
}
