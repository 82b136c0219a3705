//! Per-layer metrics: the names every traced run reports, and the
//! measurements taken from outside the binaries — public library calls
//! timed in-process, a `--metrics --trace-out` conversion, and the
//! server's spans per request class.

use crate::oracle::{nproc, Inputs};
use crate::serve::{Class, Client, Route};
use crate::spans;
use crate::stats::median;
use s3pg::pipeline::{transform_with, PipelineConfig};
use s3pg::Mode;
use s3pg_pg::conformance;
use s3pg_server::protocol::Request;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Every per-layer metric, with its unit. A traced run reports all of
/// them; a metric its workload does not reach reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("rdf.parse_ms", "ms"),
    ("shacl.extract_ms", "ms"),
    ("s3pg.schema_transform_ms", "ms"),
    ("s3pg.phase1_ms", "ms"),
    ("s3pg.phase2_ms", "ms"),
    ("s3pg.shard_skew", "ratio"),
    ("pg.conformance_ms", "ms"),
    ("pg.conformance_batch_ms", "ms"),
    ("pg.freeze_ms", "ms"),
    ("pg.compact_bytes", "bytes"),
    ("s3pg.emit_ms", "ms"),
    ("convert.unattributed_ms", "ms"),
    ("convert_s", "s"),
    ("server.decode_us.lookup", "us"),
    ("server.decode_us.scan", "us"),
    ("server.decode_us.update", "us"),
    ("server.decode_us.update_64k", "us"),
    ("server.plan_us.lookup", "us"),
    ("server.plan_us.scan", "us"),
    ("server.serialize_us.lookup", "us"),
    ("server.serialize_us.scan", "us"),
    ("query.cypher.eval_us.lookup", "us"),
    ("query.cypher.eval_us.scan", "us"),
    ("query.sparql.eval_us.lookup", "us"),
    ("query.sparql.eval_us.scan", "us"),
    ("query.rows_examined_per_row", "ratio"),
    ("server.plan_cache.hit_ratio", "ratio"),
    ("server.request_bytes.lookup", "bytes"),
    ("server.request_bytes.scan", "bytes"),
    ("server.request_bytes.update", "bytes"),
    ("server.response_bytes.lookup", "bytes"),
    ("server.response_bytes.scan", "bytes"),
    ("server.response_bytes.update", "bytes"),
    ("server.wire_us.lookup", "us"),
    ("server.wire_us.scan", "us"),
    ("json.lookup_p50_ms", "ms"),
    ("json.scan_p50_ms", "ms"),
    ("bolt.lookup_p50_ms", "ms"),
    ("bolt.scan_p50_ms", "ms"),
    ("client.decode_us", "us"),
    ("client.decode_bytes", "bytes"),
    ("lookup_p50_ms", "ms"),
    ("lookup_p99_ms", "ms"),
    ("scan_p50_ms", "ms"),
    ("scan_p99_ms", "ms"),
    ("read_qps", "1/s"),
    ("samples.lookup", "count"),
    ("samples.scan", "count"),
    ("samples.update", "count"),
    ("update_p50_ms", "ms"),
    ("update_triples_per_s", "1/s"),
    ("update.unattributed_ms", "ms"),
    ("store.apply_update_ms", "ms"),
    ("s3pg.incremental_ms", "ms"),
    ("rdf.mirror_ms", "ms"),
    ("store.clone_ms", "ms"),
    ("obs.deep_size_ms", "ms"),
    ("wal.append_us", "us"),
    ("wal.commit_us", "us"),
    ("wal.records_per_fsync", "ratio"),
    ("wal.bytes_per_triple", "bytes"),
    ("wal.checkpoint_ms", "ms"),
    ("store.freeze_lag_ms", "ms"),
    ("store.mutable_window_share", "ratio"),
    ("mixed.gen_late_ms", "ms"),
    ("store.snapshot_mb", "MB"),
    ("obs.trace_overhead_pct", "%"),
];

/// Per-layer values of one run; unset names read 0 ("not reached").
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYER_METRICS.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(v) = value {
            self.set(name, v);
        }
    }

    /// Every layer metric as (name, value, unit).
    pub fn all(&self) -> Vec<(&'static str, f64, &'static str)> {
        LAYER_METRICS
            .iter()
            .map(|&(n, u)| (n, self.values.get(n).copied().unwrap_or(0.0), u))
            .collect()
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median wall time of `f` over `n` runs, in ms.
fn timed_median<T>(n: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        let t = Instant::now();
        last = Some(std::hint::black_box(f()));
        times.push(ms_since(t));
    }
    (median(&times).unwrap_or(0.0), last.expect("n >= 1"))
}

/// The conversion layers: one `--metrics --trace-out` run of
/// `s3pg-convert`, plus the public calls it makes, timed in-process.
pub fn conversion(
    inputs: &Inputs,
    work: &Path,
    layers: &mut Layers,
) -> Result<crate::sut::Conversion, String> {
    let out_dir = work.join("out_traced");
    let trace_path = work.join("convert_trace.jsonl");
    let threads = nproc().to_string();
    let data = inputs.nt_path.to_string_lossy().into_owned();
    let conv = crate::sut::convert(&[
        "--data",
        &data,
        "--threads",
        &threads,
        "--stats",
        "--emit",
        "csv,ddl",
        "--metrics",
        "--trace-out",
        &trace_path.to_string_lossy(),
        "--out-dir",
        &out_dir.to_string_lossy(),
    ])?;
    if !conv.success {
        return Ok(conv);
    }
    layers.set("convert_s", conv.wall.as_secs_f64());
    let metrics = std::fs::read(out_dir.join("metrics.json")).map_err(|e| e.to_string())?;
    let metrics = crate::wire::parse(&metrics)?;
    let mut phases = 0.0;
    for phase in metrics
        .get("phases")
        .and_then(|p| p.as_arr())
        .unwrap_or_default()
    {
        let name = phase
            .get("name")
            .and_then(|n| n.as_str())
            .unwrap_or_default();
        let ms = phase
            .get("wall_micros")
            .and_then(|w| w.as_f64())
            .unwrap_or(0.0)
            / 1e3;
        phases += ms;
        match name {
            "parse" => layers.set("rdf.parse_ms", ms),
            "schema_transform" => layers.set("s3pg.schema_transform_ms", ms),
            "phase1_nodes" => layers.set("s3pg.phase1_ms", ms),
            "phase2_props" => layers.set("s3pg.phase2_ms", ms),
            _ => {}
        }
    }
    layers.set_opt(
        "s3pg.shard_skew",
        metrics.get("shard_skew").and_then(|s| s.as_f64()),
    );
    let trace = std::fs::read_to_string(&trace_path).map_err(|e| e.to_string())?;
    let lines: Vec<String> = trace.lines().map(str::to_string).collect();
    let (traces, _) = spans::group(&lines);
    let emit_ms = traces.values().filter_map(|t| t.total("emit")).sum::<f64>() / 1e3;
    layers.set("s3pg.emit_ms", emit_ms);
    layers.set(
        "convert.unattributed_ms",
        conv.wall.as_secs_f64() * 1e3 - phases - emit_ms,
    );
    let _ = std::fs::remove_dir_all(&out_dir);
    let _ = std::fs::remove_file(&trace_path);

    let graph = &inputs.dataset.graph;
    let (extract_ms, _) = timed_median(3, || s3pg_shacl::extract_shapes(graph));
    layers.set("shacl.extract_ms", extract_ms);
    let pg = &inputs.out.pg;
    let (conformance_ms, _) =
        timed_median(3, || conformance::check(pg, &inputs.out.schema.pg_schema));
    layers.set("pg.conformance_ms", conformance_ms);
    let (freeze_ms, compact) = timed_median(3, || pg.freeze());
    layers.set("pg.freeze_ms", freeze_ms);
    layers.set("pg.compact_bytes", compact.deep_size_bytes() as f64);

    // Tracing overhead: the same in-process transform with the process
    // tracer recording its phase spans, against tracing off.
    let transform = || {
        transform_with(
            graph,
            &inputs.shapes,
            Mode::Parsimonious,
            PipelineConfig { threads: nproc() },
        )
    };
    let tracer = s3pg_obs::tracer();
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        let t = Instant::now();
        std::hint::black_box(transform());
        off.push(ms_since(t));
        tracer.set_enabled(true);
        let t = Instant::now();
        {
            let _root = tracer.span(tracer.new_trace(), "bench_transform");
            std::hint::black_box(transform());
        }
        on.push(ms_since(t));
        tracer.set_enabled(false);
    }
    // Fastest of each: the least disturbed by other load on the host.
    let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let (off, on) = (fastest(&off), fastest(&on));
    layers.set("obs.trace_overhead_pct", (on - off) / off * 100.0);
    Ok(conv)
}

/// The server's spans per request class: a short sequential probe per
/// class over the JSON listener, each followed by a `trace` read; plus
/// one `PROFILE` per distinct scan and one client-side
/// `Response::decode` of a scan frame.
pub fn server_probe(
    client: &mut Client<'_>,
    inputs: &Inputs,
    layers: &mut Layers,
) -> Result<(), String> {
    const PER_CLASS: usize = 40;
    let mut cursor = 0u64;
    spans::fetch(client.json(), &mut cursor)?;
    for class in [Class::Lookup, Class::Scan] {
        let mut decode = Vec::new();
        let mut plan = Vec::new();
        let mut serialize = Vec::new();
        let mut wire = Vec::new();
        for route in [Route::SparqlJson, Route::CypherJson] {
            let mut client_us = Vec::new();
            let keys = match class {
                Class::Lookup => inputs.lookups.len(),
                Class::Scan => inputs.scans.len(),
            };
            for i in 0..PER_CLASS {
                let s = client.send(class, route, i % keys);
                if s.error.is_none() {
                    client_us.push(s.latency.as_secs_f64() * 1e6);
                }
            }
            let traces = spans::fetch(client.json(), &mut cursor)?;
            let mut eval = Vec::new();
            let mut request = Vec::new();
            for t in traces.values().filter(|t| t.has("query_eval")) {
                decode.extend(t.total("decode"));
                plan.push(t.total("query_plan").unwrap_or(0.0));
                serialize.extend(t.total("serialize"));
                eval.extend(t.total("query_eval"));
                request.extend(t.total("request"));
            }
            if let (Some(c), Some(r)) = (median(&client_us), median(&request)) {
                wire.push(c - r);
            }
            let name = match (route, class) {
                (Route::SparqlJson, Class::Lookup) => "query.sparql.eval_us.lookup",
                (Route::SparqlJson, Class::Scan) => "query.sparql.eval_us.scan",
                (_, Class::Lookup) => "query.cypher.eval_us.lookup",
                (_, Class::Scan) => "query.cypher.eval_us.scan",
            };
            layers.set_opt(name, median(&eval));
        }
        let mean = |v: &[f64]| (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64);
        let (d, p, s, w) = match class {
            Class::Lookup => (
                "server.decode_us.lookup",
                "server.plan_us.lookup",
                "server.serialize_us.lookup",
                "server.wire_us.lookup",
            ),
            Class::Scan => (
                "server.decode_us.scan",
                "server.plan_us.scan",
                "server.serialize_us.scan",
                "server.wire_us.scan",
            ),
        };
        layers.set_opt(d, median(&decode));
        layers.set_opt(p, mean(&plan));
        layers.set_opt(s, median(&serialize));
        layers.set_opt(w, mean(&wire));
    }

    // Rows every operator produced per result row, over the scans.
    let mut ratios = Vec::new();
    for q in &inputs.scans {
        let line = Request::cypher(format!("PROFILE {}", q.cypher)).encode();
        let frame = client.json().call(&line)?;
        let rows = frame
            .get("rows")
            .and_then(|r| r.as_arr())
            .map_or(0, <[_]>::len);
        if let (Some(plan), true) = (frame.get("plan"), rows > 0) {
            ratios.push(plan_rows(plan) / rows as f64);
        }
    }
    layers.set_opt("query.rows_examined_per_row", median(&ratios));

    // The shipped client's decode of one scan frame, outside any timer
    // the end-to-end metrics use.
    let line = Request::sparql(inputs.scans[0].sparql.as_str()).encode();
    let raw = client.json().exchange(&line)?.raw;
    let text = String::from_utf8(raw).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let decoded = s3pg_server::protocol::Response::decode(&text);
    layers.set("client.decode_us", t.elapsed().as_secs_f64() * 1e6);
    layers.set("client.decode_bytes", text.len() as f64);
    decoded.map_err(|e| format!("Response::decode: {e}"))?;
    let (.., mem_bytes) = crate::serve::stats(client.json())?;
    layers.set("store.snapshot_mb", mem_bytes as f64 / 1e6);
    Ok(())
}

/// Sum of `rows` over a profiled plan tree.
fn plan_rows(node: &crate::wire::J) -> f64 {
    node.get("rows").and_then(|r| r.as_f64()).unwrap_or(0.0)
        + node
            .get("children")
            .and_then(|c| c.as_arr())
            .map_or(0.0, |c| c.iter().map(plan_rows).sum())
}

/// The server's decode of a large update body, timed in-process on the
/// public `Request::decode` (the JSON parser's cost grows with the body).
pub fn large_update_decode(inputs: &Inputs, layers: &mut Layers) {
    let mut additions = String::new();
    for b in &inputs.batches {
        if additions.len() >= 64 * 1024 {
            break;
        }
        additions.push_str(&b.additions);
    }
    let body = crate::oracle::Batch {
        additions,
        deletions: String::new(),
        triples: 0,
    }
    .request_line();
    let (ms, decoded) = timed_median(3, || Request::decode(&body));
    if decoded.is_ok() {
        layers.set("server.decode_us.update_64k", ms * 1e3);
    }
}
