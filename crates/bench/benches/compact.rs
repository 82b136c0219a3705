//! Compact-snapshot benchmark: resident bytes and query latency for the
//! mutable [`PropertyGraph`] vs its frozen [`CompactGraph`], emitting a
//! machine-readable `BENCH_compact.json` that `trace_check
//! --compact-bench` validates in CI.
//!
//! ```text
//! cargo bench --bench compact -- [--scale F] [--out BENCH_compact.json]
//! ```
//!
//! Resident bytes come from the obs deep-size estimators on both
//! representations (the same estimators behind the server's
//! `s3pg_mem_pg_bytes` / `s3pg_mem_pg_compact_bytes` gauges), so the
//! reported ratio is exactly what the serving memory gauges would show.

use s3pg::query_translate;
use s3pg_bench::experiments::{accuracy_context, plan_and_evaluate, Dataset, Scale};
use s3pg_bench::timing::{bench_samples, section, Samples};
use s3pg_pg::{PropertyGraph, Value};
use s3pg_query::cypher;
use s3pg_workloads::generate_queries;
use std::fmt::Write as _;

fn main() {
    let mut scale = 0.15f64;
    let mut out_path = "BENCH_compact.json".to_string();
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
            _ => {}
        }
    }

    let cx = accuracy_context(Dataset::DBpedia2022, Scale(scale));
    let pg = &cx.s3pg.pg;

    section("freeze");
    let started = std::time::Instant::now();
    let compact = pg.freeze();
    let freeze_micros = started.elapsed().as_micros() as u64;
    let mutable_bytes = pg.deep_size_bytes() as u64;
    let compact_bytes = compact.deep_size_bytes() as u64;
    let bytes_ratio = mutable_bytes as f64 / compact_bytes.max(1) as f64;
    println!(
        "mutable {mutable_bytes} B, compact {compact_bytes} B \
         ({bytes_ratio:.2}x smaller), frozen in {freeze_micros} us"
    );
    println!(
        "dictionary: {} entries, {} B, {} encodes, {:.1}% hit rate",
        compact.dict_len(),
        compact.dict_size_bytes(),
        compact.dict_encodes(),
        compact.dict_hit_rate() * 100.0
    );

    // Query set: the translated workload mix, a one-hop traversal over the
    // busiest edge label (CSR's home turf), and an equality probe (frozen
    // eq-index vs mutable hash index).
    let mut queries: Vec<(String, String)> = Vec::new();
    for q in generate_queries(&cx.prepared.generated.meta, 1) {
        let text = query_translate::translate_str(&q.sparql, &cx.s3pg.schema.mapping).unwrap();
        queries.push((format!("{}-Q{}", q.category.name(), q.id), text));
    }
    if let Some(text) = traversal_query(pg) {
        queries.push(("traversal".to_string(), text));
    }
    if let Some(text) = equality_query(pg) {
        queries.push(("equality".to_string(), text));
    }

    section("query latency: mutable vs compact");
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"dataset\": \"{}\",", cx.prepared.dataset.name());
    let _ = writeln!(json, "  \"scale\": {scale},");
    let _ = writeln!(json, "  \"mutable_bytes\": {mutable_bytes},");
    let _ = writeln!(json, "  \"compact_bytes\": {compact_bytes},");
    let _ = writeln!(
        json,
        "  \"bytes_ratio_mutable_over_compact\": {bytes_ratio:.3},"
    );
    let _ = writeln!(json, "  \"freeze_micros\": {freeze_micros},");
    let _ = writeln!(
        json,
        "  \"dict\": {{\"entries\": {}, \"bytes\": {}, \"encodes\": {}, \"hit_rate\": {:.4}}},",
        compact.dict_len(),
        compact.dict_size_bytes(),
        compact.dict_encodes(),
        compact.dict_hit_rate()
    );
    json.push_str("  \"queries\": [\n");
    let mut first = true;
    for (tag, text) in &queries {
        let parsed = cypher::parse(text).unwrap();
        let rows_mutable = plan_and_evaluate(pg, &parsed, 1).rows.len();
        let rows_compact = plan_and_evaluate(&compact, &parsed, 1).rows.len();
        assert_eq!(
            rows_mutable, rows_compact,
            "representations disagree on {text}"
        );
        // Interleave the two representations (A/B/A/B…, min p50 per side)
        // so slow machine drift between passes cancels instead of biasing
        // whichever side ran later.
        let mut on_mutable: Option<Samples> = None;
        let mut on_compact: Option<Samples> = None;
        for _ in 0..3 {
            let m = bench_samples(&format!("mutable/{tag}"), || {
                plan_and_evaluate(pg, &parsed, 1)
            });
            if on_mutable.as_ref().is_none_or(|best| m.p50 < best.p50) {
                on_mutable = Some(m);
            }
            let c = bench_samples(&format!("compact/{tag}"), || {
                plan_and_evaluate(&compact, &parsed, 1)
            });
            if on_compact.as_ref().is_none_or(|best| c.p50 < best.p50) {
                on_compact = Some(c);
            }
        }
        let (on_mutable, on_compact) = (on_mutable.unwrap(), on_compact.unwrap());
        let p50_ratio =
            on_compact.p50.as_nanos().max(1) as f64 / on_mutable.p50.as_nanos().max(1) as f64;
        println!("{tag:<40} compact/mutable p50 {p50_ratio:.2}x");
        if !first {
            json.push_str(",\n");
        }
        first = false;
        json.push_str("    {\n");
        let _ = writeln!(json, "      \"tag\": {},", json_string(tag));
        let _ = writeln!(json, "      \"query\": {},", json_string(text));
        let _ = writeln!(json, "      \"rows\": {rows_mutable},");
        let _ = writeln!(json, "      \"mutable\": {},", samples_json(&on_mutable));
        let _ = writeln!(json, "      \"compact\": {},", samples_json(&on_compact));
        let _ = writeln!(json, "      \"p50_compact_over_mutable\": {p50_ratio:.3}");
        json.push_str("    }");
    }
    json.push_str("\n  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_compact.json");
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

/// A one-hop traversal over the busiest identifier-safe edge label.
fn traversal_query(pg: &PropertyGraph) -> Option<String> {
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
    Some(format!(
        "MATCH (a:{src})-[:{edge_label}]->(v) RETURN a.iri, v.iri"
    ))
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
