//! The two workloads, `read` and `mixed`. Both report the same
//! end-to-end metrics, measured on what the workload exercises:
//!
//! | metric        | read                        | mixed                                     |
//! |---------------|-----------------------------|-------------------------------------------|
//! | `setup_s`     | s3pg-serve spawn → first answered query, median of [`SETUPS`] starts (mixed: each with a fresh WAL) ||
//! | `peak_rss_mb` | VmHWM of s3pg-serve         | VmHWM of s3pg-serve                       |
//! | `p50_ms`      | lookups, closed loop        | lookups, open loop, timed from the due time |
//!
//! The conversion path is timed by `setup_s` (a server start parses,
//! extracts shapes, transforms, checks conformance and freezes) and, in
//! the traced pass, by one `s3pg-convert` run and its layers.

use crate::layers::{self, Layers};
use crate::oracle::{nproc, Inputs};
use crate::schedule::Schedule;
use crate::serve::{self, Ack, Checker, Class, Client, Progress, Route, Sample};
use crate::stats::{median, percentile, summarize};
use crate::sut::{ServeConfig, Server};
use crate::wire::{JsonConn, J};
use s3pg_rdf::fxhash::FxHashMap;
use s3pg_server::json::Json;
use s3pg_server::protocol::Request;
use std::path::Path;
use std::sync::atomic::AtomicUsize;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Server start-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Open-loop read rate of the mixed workload, requests per second.
pub const MIXED_READS_PER_S: u32 = 200;

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// End-of-run checks (name, passed).
    pub checks: Vec<(String, bool)>,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub p50_ms: f64,
    pub layers: Layers,
    pub context: Vec<(String, String)>,
}

impl Report {
    /// Set `p50_ms` from the gated class's latencies (ms), and record its
    /// sample count and highest supported percentile.
    fn latencies(&mut self, class: &str, ms: &[f64]) -> Result<(), String> {
        let sum = summarize(ms).ok_or_else(|| format!("no {class} samples"))?;
        self.p50_ms = sum.p50;
        self.note(&format!("{class}_samples"), sum.n);
        self.note(&format!("{class}_tail_quantile"), sum.tail_q);
        self.note(&format!("{class}_tail_ms"), sum.tail);
        Ok(())
    }

    fn check(&mut self, name: &str, ok: bool) {
        self.checks.push((name.to_string(), ok));
        if !ok {
            eprintln!("check failed: {name}");
        }
    }

    fn note(&mut self, key: &str, value: impl ToString) {
        self.context.push((key.to_string(), value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// Start [`SETUPS`] servers in turn, timing each from spawn to its first
/// answered query; all but the last are stopped.
fn start_servers(
    inputs: &Inputs,
    work: &Path,
    wal: bool,
    report: &mut Report,
) -> Result<Server, String> {
    let l = &inputs.lookups[0];
    let probe = Request::Sparql {
        query: inputs.lookup_templates[l.template].sparql.clone(),
        params: vec![("e".to_string(), Json::Str(format!("<{}>", l.entity)))],
    }
    .encode();
    let mut times = Vec::new();
    let mut last = None;
    for i in 0..SETUPS {
        let wal_dir = work.join(format!("wal{i}"));
        let _ = std::fs::remove_dir_all(&wal_dir);
        report.attempted += 1;
        let server = Server::start(
            &ServeConfig {
                data: &inputs.nt_path,
                threads: nproc(),
                workers: nproc(),
                wal_dir: wal.then_some(wal_dir.as_path()),
            },
            &probe,
        )?;
        times.push(server.setup.as_secs_f64());
        if let Some(previous) = last.replace(server) {
            Server::stop(previous);
        }
    }
    report.setup_s = median(&times).expect("SETUPS >= 1");
    eprintln!("set-up times {times:.2?} s");
    report.note("setup_starts", SETUPS);
    last.ok_or_else(|| "no server".into())
}

/// The conversion path, once per traced run: one `s3pg-convert` checked
/// against the oracle (exit status 0, `PG ⊨ S_PG`, node and edge
/// counts), `M(F(G)) = G`, and the conversion layers.
fn conversion_pass(inputs: &Inputs, work: &Path, report: &mut Report) -> Result<(), String> {
    report.attempted += 1;
    let run = layers::conversion(inputs, work, &mut report.layers)?;
    let expected = format!(
        "transformed (parsimonious): {} nodes, {} edges",
        inputs.out.pg.node_count(),
        inputs.out.pg.edge_count()
    );
    let ok = run.success
        && run.stdout.contains("conformance: PG ⊨ S_PG")
        && run.stdout.contains(&expected);
    report.check(
        "s3pg-convert: exit 0, PG ⊨ S_PG, counts equal the oracle",
        ok,
    );
    let recovered = s3pg::inverse::recover_graph(&inputs.out.pg, &inputs.out.schema.mapping)
        .map_err(|e| e.to_string())?;
    report.check(
        "inverse: M(F(G)) = G",
        recovered.same_triples(&inputs.dataset.graph),
    );
    Ok(())
}

/// Per-class latency summaries and byte means shared by read and mixed.
fn read_layers(samples: &[Sample], layers: &mut Layers) {
    let ms = |f: &dyn Fn(&Sample) -> bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.error.is_none() && f(s))
            .map(|s| s.latency.as_secs_f64() * 1e3)
            .collect()
    };
    let mean = |v: Vec<f64>| (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64);
    for (class, p50, p99, n, req, resp) in [
        (
            Class::Lookup,
            "lookup_p50_ms",
            "lookup_p99_ms",
            "samples.lookup",
            "server.request_bytes.lookup",
            "server.response_bytes.lookup",
        ),
        (
            Class::Scan,
            "scan_p50_ms",
            "scan_p99_ms",
            "samples.scan",
            "server.request_bytes.scan",
            "server.response_bytes.scan",
        ),
    ] {
        let v = ms(&|s| s.answer.class == class);
        layers.set(n, v.len() as f64);
        layers.set_opt(p50, percentile(&v, 0.5));
        layers.set_opt(p99, percentile(&v, 0.99));
        let of = samples.iter().filter(|s| s.answer.class == class);
        layers.set_opt(
            req,
            mean(of.clone().map(|s| s.request_bytes as f64).collect()),
        );
        layers.set_opt(resp, mean(of.map(|s| s.response_bytes as f64).collect()));
    }
    for (name, class, bolt) in [
        ("json.lookup_p50_ms", Class::Lookup, false),
        ("json.scan_p50_ms", Class::Scan, false),
        ("bolt.lookup_p50_ms", Class::Lookup, true),
        ("bolt.scan_p50_ms", Class::Scan, true),
    ] {
        let v = ms(&|s| s.answer.class == class && (s.answer.route == Route::CypherBolt) == bolt);
        layers.set_opt(name, median(&v));
    }
}

fn plan_cache_ratio(
    before: &FxHashMap<String, f64>,
    after: &FxHashMap<String, f64>,
) -> Option<f64> {
    let delta = |family: &str| {
        serve::sum_family(after, family).unwrap_or(0.0)
            - serve::sum_family(before, family).unwrap_or(0.0)
    };
    let (hits, misses) = (
        delta("s3pg_plan_cache_hits_total"),
        delta("s3pg_plan_cache_misses_total"),
    );
    (hits + misses > 0.0).then(|| hits / (hits + misses))
}

/// Compare the server's `stats` with the oracle's model sizes and
/// conformance verdict.
fn check_stats(
    report: &mut Report,
    conn: &mut JsonConn,
    (nodes, edges, triples): (usize, usize, usize),
    oracle_conforms: bool,
) {
    match serve::stats(conn) {
        Ok((n, e, t, conforms, _)) => {
            report.check(
                "stats: nodes, edges, triples equal the oracle",
                (n, e, t) == (nodes as u64, edges as u64, triples as u64),
            );
            report.check(
                "stats: conformance verdict equals the oracle",
                conforms == oracle_conforms,
            );
            report.note("served_conforms", conforms);
        }
        Err(e) => report.check(&format!("stats: {e}"), false),
    }
}

/// Count failed and mismatched reads; `matched` from the checker.
fn account_reads(report: &mut Report, samples: &[Sample], matched: &[bool], checker: &Checker) {
    let failed = samples
        .iter()
        .zip(matched)
        .filter(|(s, &m)| s.error.is_some() || !m)
        .count();
    report.attempted += samples.len() as u64;
    report.failed += failed as u64 + checker.preservation_failures;
    report.note("read_mismatches", failed);
    report.note("preservation_failures", checker.preservation_failures);
    for s in samples.iter().filter(|s| s.error.is_some()).take(3) {
        eprintln!("read failed: {:?}", s.error);
    }
}

/// `s3pg-serve` without WAL or writes, two closed-loop clients.
pub fn read(inputs: &Inputs, work: &Path, seconds: u64, traced: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let server = start_servers(inputs, work, false, &mut report)?;
    let result = read_on(inputs, &server, work, seconds, traced, &mut report);
    report.peak_rss_mb = server.peak_rss_mb().unwrap_or(0.0);
    Server::stop(server);
    result.map(|()| report)
}

fn read_on(
    inputs: &Inputs,
    server: &Server,
    work: &Path,
    seconds: u64,
    traced: bool,
    report: &mut Report,
) -> Result<(), String> {
    let clients = nproc().clamp(1, 2);
    let counts = [AtomicUsize::new(0), AtomicUsize::new(0)];
    let barrier = Barrier::new(clients);
    type Run<'a> = (
        Client<'a>,
        Vec<Sample>,
        Instant,
        Instant,
        FxHashMap<String, f64>,
    );
    let runs: Vec<Result<Run, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (counts, barrier) = (&counts, &barrier);
                scope.spawn(move || {
                    let seed = crate::oracle::sub_seed(inputs.seed, 10 + c as u64);
                    let client = Client::connect(inputs, &server.addr, &server.bolt_addr, seed);
                    let mut client = match client {
                        Ok(c) => c,
                        Err(e) => {
                            barrier.wait();
                            return Err(e);
                        }
                    };
                    client.warm_up();
                    let before = if c == 0 {
                        serve::metrics(client.json())
                    } else {
                        FxHashMap::default()
                    };
                    barrier.wait();
                    let start = Instant::now();
                    let deadline = start + Duration::from_secs(seconds);
                    let hard = start + Duration::from_secs(seconds * 3 + 30);
                    let samples = serve::closed_loop(&mut client, deadline, hard, counts);
                    Ok((client, samples, start, Instant::now(), before))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut samples = Vec::new();
    let mut answers = serve::Answers::default();
    let mut window: Option<(Instant, Instant)> = None;
    let mut first: Option<Client> = None;
    let mut before = FxHashMap::default();
    for run in runs {
        let (mut client, s, start, end, b) = run?;
        if first.is_none() {
            before = b;
        }
        samples.extend(s);
        answers.merge(std::mem::take(&mut client.answers));
        window = Some(match window {
            None => (start, end),
            Some((a, b)) => (a.min(start), b.max(end)),
        });
        first.get_or_insert(client);
    }
    let mut client = first.ok_or("no clients")?;
    let (start, end) = window.expect("clients ran");
    let after = serve::metrics(client.json());
    check_stats(
        report,
        client.json(),
        (
            inputs.out.pg.node_count(),
            inputs.out.pg.edge_count(),
            inputs.dataset.graph.len(),
        ),
        inputs.out.conformance.conforms(),
    );
    report.check("oracle: PG ⊨ S_PG", inputs.out.conformance.conforms());

    let checking = Instant::now();
    let mut checker = Checker::default();
    let mut matched = vec![false; samples.len()];
    checker.check_version(
        inputs,
        &inputs.dataset.graph,
        &inputs.out.pg,
        0,
        &samples,
        &answers,
        &mut matched,
    );
    eprintln!("answer checks took {:.1?}", checking.elapsed());
    account_reads(report, &samples, &matched, &checker);

    let lookups: Vec<f64> = samples
        .iter()
        .filter(|s| s.error.is_none() && s.answer.class == Class::Lookup)
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .collect();
    report.latencies("lookup", &lookups)?;
    read_layers(&samples, &mut report.layers);
    let qps = samples.len() as f64 / (end - start).as_secs_f64();
    report.layers.set("read_qps", qps);
    report.layers.set_opt(
        "server.plan_cache.hit_ratio",
        plan_cache_ratio(&before, &after),
    );
    if traced {
        layers::server_probe(&mut client, inputs, &mut report.layers)?;
        layers::large_update_decode(inputs, &mut report.layers);
        conversion_pass(inputs, work, report)?;
    }
    Ok(())
}

/// `s3pg-serve --wal-dir`: one closed-loop Δ stream, one open-loop reader.
pub fn mixed(inputs: &Inputs, work: &Path, seconds: u64, traced: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let server = start_servers(inputs, work, true, &mut report)?;
    let result = mixed_on(inputs, &server, work, seconds, traced, &mut report);
    report.peak_rss_mb = server.peak_rss_mb().unwrap_or(0.0);
    Server::stop(server);
    result.map(|()| report)
}

fn mixed_on(
    inputs: &Inputs,
    server: &Server,
    work: &Path,
    seconds: u64,
    traced: bool,
    report: &mut Report,
) -> Result<(), String> {
    let mut updater = JsonConn::connect(&server.addr)?;
    let seed = crate::oracle::sub_seed(inputs.seed, 20);
    let mut reader = Client::connect(inputs, &server.addr, &server.bolt_addr, seed)?;
    reader.warm_up();
    let before = serve::metrics(&mut updater);
    let progress = Progress::default();
    let schedule = Schedule {
        period: Duration::from_secs(1) / MIXED_READS_PER_S,
    };
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let hard = start + Duration::from_secs(seconds * 3 + 30);
    let (samples, acks) = std::thread::scope(|scope| {
        let reads =
            scope.spawn(|| serve::open_loop(&mut reader, schedule, deadline, hard, &progress));
        let acks = serve::update_stream(&mut updater, inputs, deadline, &progress, traced);
        (reads.join().expect("reader thread"), acks)
    });
    let stream_s = start.elapsed().as_secs_f64();
    eprintln!("mixed stream ended after {stream_s:.1} s");
    let checking = Instant::now();
    let after = serve::metrics(&mut updater);
    report.note("batches_total", inputs.batches.len());
    report.note("batches_sent", acks.len());
    report.check(
        "delta stream did not run dry",
        acks.len() < inputs.batches.len(),
    );

    // Replay the acknowledged batches on a replica, checking each ack and
    // every read at each version it may have seen.
    let mut graph = inputs.dataset.graph.clone();
    let mut out = inputs.out.clone();
    let mut checker = Checker::default();
    let mut matched = vec![false; samples.len()];
    let (mut incremental, mut mirror, mut conformance) = (Vec::new(), Vec::new(), Vec::new());
    let mut acked_triples = 0usize;
    let mut update_ms = Vec::new();
    let mut replica_conforms = inputs.out.conformance.conforms();
    let answers = std::mem::take(&mut reader.answers);
    checker.check_version(inputs, &graph, &out.pg, 0, &samples, &answers, &mut matched);
    for (v, (batch, ack)) in inputs.batches.iter().zip(&acks).enumerate() {
        report.attempted += 1;
        let t = Instant::now();
        let outcome = s3pg::incremental::apply_ntriples_delta(
            &mut out.pg,
            &mut out.schema,
            &mut out.state,
            &batch.additions,
            &batch.deletions,
        )
        .map_err(|e| format!("replica: {e}"))?;
        incremental.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        for tr in outcome.deletions.triples() {
            let s = graph.import_term(&outcome.deletions, tr.s);
            let p = graph.import_sym(&outcome.deletions, tr.p);
            let o = graph.import_term(&outcome.deletions, tr.o);
            graph.remove(s, p, o);
        }
        graph.absorb(&outcome.additions);
        mirror.push(t.elapsed().as_secs_f64() * 1e3);
        // A full conformance check costs about as much as the update
        // itself, so the replica runs it on the last batch (and on every
        // batch in the traced pass, where it is a layer measurement).
        let verdict = (traced || v + 1 == acks.len()).then(|| {
            let t = Instant::now();
            let verdict = s3pg_pg::conformance::check(&out.pg, &out.schema.pg_schema);
            conformance.push(t.elapsed().as_secs_f64() * 1e3);
            verdict
        });
        let conforms = verdict.as_ref().map(|r| r.conforms());
        replica_conforms = conforms.unwrap_or(replica_conforms);
        let c = &outcome.counters;
        let expected = [
            (c.entity_nodes + c.carrier_nodes) as f64,
            c.edges as f64,
            c.key_values as f64,
            outcome.removed as f64,
        ];
        let ok = match &ack.frame {
            Ok(f) => {
                let n = |k: &str| f.get(k).and_then(J::as_f64).unwrap_or(-1.0);
                f.get("ok").and_then(J::as_bool) == Some(true)
                    && conforms.is_none_or(|c| f.get("conforms").and_then(J::as_bool) == Some(c))
                    && [
                        n("added_nodes"),
                        n("added_edges"),
                        n("added_properties"),
                        n("removed"),
                    ] == expected
            }
            Err(_) => false,
        };
        if ok {
            acked_triples += batch.triples;
            update_ms.push(ack.latency.as_secs_f64() * 1e3);
        } else {
            report.failed += 1;
            eprintln!(
                "update {v} ack differs from the replica (expected {expected:?}, conforms {conforms:?}, first failure {:?}): {:?}",
                verdict.as_ref().and_then(|r| r.failures.first()),
                ack.frame
            );
        }
        checker.check_version(
            inputs,
            &graph,
            &out.pg,
            v as u32 + 1,
            &samples,
            &answers,
            &mut matched,
        );
    }
    account_reads(report, &samples, &matched, &checker);
    eprintln!(
        "replica replay and answer checks took {:.1?}",
        checking.elapsed()
    );
    check_stats(
        report,
        &mut updater,
        (out.pg.node_count(), out.pg.edge_count(), graph.len()),
        replica_conforms,
    );
    if traced {
        // The paper's G ⊨ S ⟺ F(G) ⊨ S_PG, on the evolved graph.
        let validates = s3pg_shacl::validate(&graph, &inputs.shapes).conforms();
        report.check(
            "evolved G ⊨ S iff F(G) ⊨ S_PG",
            validates == replica_conforms,
        );
    }

    // Lookups, not scans, are the gated class: scan latency is CPU-bound
    // and followed the host's speed from run to run (see README).
    let lookups: Vec<f64> = samples
        .iter()
        .filter(|s| s.error.is_none() && s.answer.class == Class::Lookup)
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .collect();
    report.latencies("lookup", &lookups)?;
    report.note("reads_per_s_scheduled", MIXED_READS_PER_S);

    // Δ triples per second of update service time: the rate the write
    // path sustains, independent of the writer's think time.
    let busy_s = update_ms.iter().sum::<f64>() / 1e3;
    let triples_per_s = (busy_s > 0.0).then(|| acked_triples as f64 / busy_s);
    let l = &mut report.layers;
    read_layers(&samples, l);
    l.set("samples.update", update_ms.len() as f64);
    l.set_opt("update_p50_ms", median(&update_ms));
    l.set_opt("update_triples_per_s", triples_per_s);
    l.set_opt(
        "server.plan_cache.hit_ratio",
        plan_cache_ratio(&before, &after),
    );
    let lateness: Vec<f64> = samples.iter().map(|s| s.late.as_secs_f64() * 1e3).collect();
    l.set_opt("mixed.gen_late_ms", percentile(&lateness, 0.99));
    l.set_opt("s3pg.incremental_ms", median(&incremental));
    l.set_opt("rdf.mirror_ms", median(&mirror));
    l.set_opt("pg.conformance_batch_ms", median(&conformance));
    let mean = |v: Vec<f64>| (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64);
    l.set_opt(
        "server.request_bytes.update",
        mean(acks.iter().map(|a| a.request_bytes as f64).collect()),
    );
    l.set_opt(
        "server.response_bytes.update",
        mean(acks.iter().map(|a| a.response_bytes as f64).collect()),
    );
    let delta = |family: &str| {
        serve::sum_family(&after, family).unwrap_or(0.0)
            - serve::sum_family(&before, family).unwrap_or(0.0)
    };
    let fsyncs = delta("s3pg_wal_fsyncs_total");
    if fsyncs > 0.0 {
        l.set(
            "wal.records_per_fsync",
            delta("s3pg_wal_records_total") / fsyncs,
        );
    }
    if traced {
        update_spans(&acks, l);
        let lags: Vec<f64> = acks
            .iter()
            .filter_map(|a| a.freeze_lag)
            .map(|d| d.as_secs_f64() * 1e3)
            .collect();
        l.set_opt("store.freeze_lag_ms", median(&lags));
        let window: f64 = lags.iter().sum::<f64>() / 1e3;
        l.set("store.mutable_window_share", window / stream_s);
        replica_layers(&graph, &out, inputs, work, l)?;
        layers::server_probe(&mut reader, inputs, l)?;
        layers::large_update_decode(inputs, l);
        conversion_pass(inputs, work, report)?;
    }
    Ok(())
}

/// Server spans of the update requests (collected after each ack in the
/// traced pass).
fn update_spans(acks: &[Ack], layers: &mut Layers) {
    let pick =
        |f: &dyn Fn(&Ack) -> Option<f64>| -> Vec<f64> { acks.iter().filter_map(f).collect() };
    let decode = pick(&|a| a.spans.as_ref().and_then(|t| t.total("decode")));
    let execute = pick(&|a| a.spans.as_ref().and_then(|t| t.total("execute")));
    let request = pick(&|a| a.spans.as_ref().and_then(|t| t.total("request")));
    let client = pick(&|a| a.frame.is_ok().then_some(a.latency.as_secs_f64() * 1e6));
    layers.set_opt("server.decode_us.update", median(&decode));
    layers.set_opt("store.apply_update_ms", median(&execute).map(|us| us / 1e3));
    if let (Some(c), Some(r)) = (median(&client), median(&request)) {
        layers.set("update.unattributed_ms", (c - r) / 1e3);
    }
}

/// Layers of the write path replayed on the replica: snapshot copy,
/// deep-size accounting, WAL append/commit and checkpoint.
fn replica_layers(
    graph: &s3pg_rdf::Graph,
    out: &s3pg::TransformOutput,
    inputs: &Inputs,
    work: &Path,
    layers: &mut Layers,
) -> Result<(), String> {
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let (mut clone, mut size) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let t = Instant::now();
        std::hint::black_box((out.pg.clone(), graph.clone()));
        clone.push(ms(t));
        let t = Instant::now();
        std::hint::black_box(graph.deep_size_bytes() + out.pg.deep_size_bytes());
        size.push(ms(t));
    }
    layers.set_opt("store.clone_ms", median(&clone));
    layers.set_opt("obs.deep_size_ms", median(&size));

    let dir = work.join("wal_replay");
    let _ = std::fs::remove_dir_all(&dir);
    let registry = s3pg_obs::Registry::new();
    let (wal, _) = s3pg_wal::Wal::open(&dir, s3pg_wal::WalOptions::default(), &registry)
        .map_err(|e| format!("wal: {e}"))?;
    let (mut append, mut commit) = (Vec::new(), Vec::new());
    let mut triples = 0usize;
    for batch in inputs.batches.iter().take(64) {
        let t = Instant::now();
        let seq = wal
            .append(&batch.additions, &batch.deletions)
            .map_err(|e| format!("wal: {e}"))?;
        append.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        wal.commit(seq).map_err(|e| format!("wal: {e}"))?;
        commit.push(t.elapsed().as_secs_f64() * 1e6);
        triples += batch.triples;
    }
    layers.set_opt("wal.append_us", median(&append));
    layers.set_opt("wal.commit_us", median(&commit));
    layers.set(
        "wal.bytes_per_triple",
        wal.total_bytes() as f64 / triples.max(1) as f64,
    );
    let nt = s3pg_rdf::serializer::to_ntriples(graph);
    let compact = out.pg.freeze();
    let t = Instant::now();
    s3pg_wal::checkpoint::write_checkpoint(&dir, wal.last_seq(), &nt, Some(&compact))
        .map_err(|e| format!("checkpoint: {e}"))?;
    layers.set("wal.checkpoint_ms", ms(t));
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
