//! Served traffic: the read request mix, the Δ stream, and the checking
//! of every answer against the oracle.

use crate::oracle::{answer_cypher, answer_sparql, same_answer, Inputs, Lang};
use crate::schedule::{Schedule, Timing};
use crate::wire::{frame_rows, parse, BoltConn, JsonConn, Rows, J};
use s3pg_bolt::packstream::Value;
use s3pg_query::results::ResultSet;
use s3pg_rdf::fxhash::FxHashMap;
use s3pg_rdf::rng::XorShiftRng;
use s3pg_server::json::Json;
use s3pg_server::protocol::Request;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Samples each read class must reach in one run, so that p99 has ten
/// samples beyond it.
pub const MIN_SAMPLES: usize = 1000;

/// The Δ writer's think time: it sends its next batch once the previous
/// one is acknowledged and at least this long after sending it. Longer
/// than an update takes on a slow host, so a run sees the same number of
/// updates however fast they are, and the read metrics measure the
/// interference of each update rather than how many fit into the run.
pub const UPDATE_SPACING: Duration = Duration::from_secs(3);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    Lookup,
    Scan,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Route {
    SparqlJson,
    CypherJson,
    CypherBolt,
}

impl Route {
    pub fn lang(self) -> Lang {
        match self {
            Route::SparqlJson => Lang::Sparql,
            _ => Lang::Cypher,
        }
    }
}

/// Identity of a distinct served answer: what was asked and a hash of
/// what came back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AnswerKey {
    pub class: Class,
    pub route: Route,
    pub key: usize,
    pub hash: u64,
}

/// One timed read.
#[derive(Debug, Clone)]
pub struct Sample {
    pub answer: AnswerKey,
    /// From the write (closed loop) or the due time (open loop) to the
    /// end of the response.
    pub latency: Duration,
    /// Open loop only: how late the request was sent.
    pub late: Duration,
    pub request_bytes: usize,
    pub response_bytes: usize,
    /// Snapshot versions the answer may reflect: Δ batches acknowledged
    /// before the send, and sent before the response ended.
    pub lo: u32,
    pub hi: u32,
    pub error: Option<String>,
}

/// Raw served answers, one copy per distinct [`AnswerKey`].
#[derive(Default)]
pub struct Answers {
    pub json: FxHashMap<AnswerKey, Vec<u8>>,
    pub rows: FxHashMap<AnswerKey, Rows>,
}

impl Answers {
    pub fn merge(&mut self, other: Answers) {
        self.json.extend(other.json);
        self.rows.extend(other.rows);
    }
}

fn hash_of(value: &impl Hash) -> u64 {
    let mut h = std::hash::DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// A load-generator client: one JSON connection and one Bolt session,
/// with at most one request in flight.
pub struct Client<'a> {
    inputs: &'a Inputs,
    json: JsonConn,
    bolt: BoltConn,
    rng: XorShiftRng,
    next_cypher_on_bolt: bool,
    pub answers: Answers,
}

impl<'a> Client<'a> {
    pub fn connect(
        inputs: &'a Inputs,
        addr: &str,
        bolt_addr: &str,
        seed: u64,
    ) -> Result<Self, String> {
        Ok(Client {
            inputs,
            json: JsonConn::connect(addr)?,
            bolt: BoltConn::connect(bolt_addr)?,
            rng: XorShiftRng::seed_from_u64(seed),
            next_cypher_on_bolt: seed % 2 == 1,
            answers: Answers::default(),
        })
    }

    /// Draw the next request: class and language 50/50, Cypher
    /// alternating between the JSON and Bolt listeners.
    pub fn draw(&mut self) -> (Class, Route, usize) {
        let class = if self.rng.random_range(0..2usize) == 0 {
            Class::Lookup
        } else {
            Class::Scan
        };
        let route = if self.rng.random_range(0..2usize) == 0 {
            Route::SparqlJson
        } else {
            self.next_cypher_on_bolt = !self.next_cypher_on_bolt;
            if self.next_cypher_on_bolt {
                Route::CypherBolt
            } else {
                Route::CypherJson
            }
        };
        let key = match class {
            Class::Lookup => self.rng.random_range(0..self.inputs.lookups.len()),
            Class::Scan => self.rng.random_range(0..self.inputs.scans.len()),
        };
        (class, route, key)
    }

    /// Query text and `$e` binding of a request.
    fn query(&self, class: Class, route: Route, key: usize) -> (&'a str, Option<&'a str>) {
        let inputs = self.inputs;
        let (q, entity) = match class {
            Class::Scan => (&inputs.scans[key], None),
            Class::Lookup => {
                let l = &inputs.lookups[key];
                (
                    &inputs.lookup_templates[l.template],
                    Some(l.entity.as_str()),
                )
            }
        };
        let text = match route.lang() {
            Lang::Sparql => q.sparql.as_str(),
            Lang::Cypher => q.cypher.as_str(),
        };
        (text, entity)
    }

    /// Send one request and time it; the answer is stored, not checked.
    pub fn send(&mut self, class: Class, route: Route, key: usize) -> Sample {
        let (query, entity) = self.query(class, route, key);
        let mut sample = Sample {
            answer: AnswerKey {
                class,
                route,
                key,
                hash: 0,
            },
            latency: Duration::ZERO,
            late: Duration::ZERO,
            request_bytes: 0,
            response_bytes: 0,
            lo: 0,
            hi: 0,
            error: None,
        };
        match route {
            Route::CypherBolt => {
                let params = entity
                    .map(|e| vec![("e".to_string(), Value::String(e.to_string()))])
                    .unwrap_or_default();
                match self.bolt.run(query, params) {
                    Ok(ex) => {
                        sample.latency = ex.latency;
                        sample.request_bytes = ex.request_bytes;
                        sample.response_bytes = ex.response_bytes;
                        match ex.rows {
                            Ok(rows) => {
                                sample.answer.hash = hash_of(&rows);
                                self.answers.rows.entry(sample.answer).or_insert(rows);
                            }
                            Err(e) => sample.error = Some(e),
                        }
                    }
                    Err(e) => sample.error = Some(e),
                }
            }
            Route::SparqlJson | Route::CypherJson => {
                let params = entity
                    .map(|e| {
                        let value = match route {
                            Route::SparqlJson => format!("<{e}>"),
                            _ => e.to_string(),
                        };
                        vec![("e".to_string(), Json::Str(value))]
                    })
                    .unwrap_or_default();
                let query = query.to_string();
                let line = match route {
                    Route::SparqlJson => Request::Sparql { query, params },
                    _ => Request::Cypher { query, params },
                }
                .encode();
                match self.json.exchange(&line) {
                    Ok(ex) => {
                        sample.latency = ex.latency;
                        sample.request_bytes = ex.request_bytes;
                        sample.response_bytes = ex.raw.len() + 1;
                        sample.answer.hash = hash_of(&ex.raw);
                        self.answers.json.entry(sample.answer).or_insert(ex.raw);
                    }
                    Err(e) => sample.error = Some(e),
                }
            }
        }
        sample
    }

    /// One request of every kind, untimed: fills the plan cache.
    pub fn warm_up(&mut self) {
        for class in [Class::Lookup, Class::Scan] {
            let keys = match class {
                Class::Lookup => self.inputs.lookups.len(),
                Class::Scan => self.inputs.scans.len(),
            };
            for key in 0..keys.min(8) {
                for route in [Route::SparqlJson, Route::CypherJson, Route::CypherBolt] {
                    let _ = self.send(class, route, key);
                }
            }
        }
    }

    /// The JSON connection, for untimed calls (stats, metrics, trace).
    pub fn json(&mut self) -> &mut JsonConn {
        &mut self.json
    }
}

/// Closed loop until `deadline`, and on until both classes have
/// [`MIN_SAMPLES`] across all clients (`counts`), or `hard_deadline`.
pub fn closed_loop(
    client: &mut Client<'_>,
    deadline: Instant,
    hard_deadline: Instant,
    counts: &[AtomicUsize; 2],
) -> Vec<Sample> {
    let mut samples = Vec::new();
    loop {
        let now = Instant::now();
        let enough = counts
            .iter()
            .all(|c| c.load(Ordering::Relaxed) >= MIN_SAMPLES);
        if (now >= deadline && enough) || now >= hard_deadline {
            return samples;
        }
        let (class, route, key) = client.draw();
        let sample = client.send(class, route, key);
        counts[class as usize].fetch_add(1, Ordering::Relaxed);
        samples.push(sample);
    }
}

/// Δ-stream progress shared between the updater and the reader.
#[derive(Default)]
pub struct Progress {
    pub sent: AtomicU32,
    pub acked: AtomicU32,
    pub reading_done: AtomicBool,
}

/// Open loop on a fixed schedule, timing each read from its due time.
pub fn open_loop(
    client: &mut Client<'_>,
    schedule: Schedule,
    deadline: Instant,
    hard_deadline: Instant,
    progress: &Progress,
) -> Vec<Sample> {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut counts = [0usize; 2];
    let mut previous_done = Duration::ZERO;
    for i in 0u32.. {
        let due = schedule.due(i);
        let enough = counts.iter().all(|&c| c >= MIN_SAMPLES);
        if (start + due >= deadline && enough) || Instant::now() >= hard_deadline {
            break;
        }
        let send_at = schedule.send_at(i, previous_done);
        let now = start.elapsed();
        if send_at > now {
            std::thread::sleep(send_at - now);
        }
        let (class, route, key) = client.draw();
        let lo = progress.acked.load(Ordering::SeqCst);
        let sent = start.elapsed();
        let mut sample = client.send(class, route, key);
        let done = start.elapsed();
        sample.hi = progress.sent.load(Ordering::SeqCst);
        sample.lo = lo;
        let timing = Timing { due, sent, done };
        sample.late = timing.late();
        sample.latency = timing.latency();
        previous_done = done;
        counts[class as usize] += 1;
        samples.push(sample);
    }
    progress.reading_done.store(true, Ordering::SeqCst);
    samples
}

/// One acknowledged Δ batch.
#[derive(Debug, Clone)]
pub struct Ack {
    pub latency: Duration,
    pub request_bytes: usize,
    pub response_bytes: usize,
    pub frame: Result<J, String>,
    /// Traced pass only: time from the ack until the background freeze
    /// of the published snapshot landed.
    pub freeze_lag: Option<Duration>,
    /// Traced pass only: the server's spans of this update request.
    pub spans: Option<crate::spans::Trace>,
}

/// Stream Δ batches closed-loop until the reader is done and `deadline`
/// has passed. `traced`: after each ack, wait until the server's
/// compaction counter advances and read the request's spans.
pub fn update_stream(
    conn: &mut JsonConn,
    inputs: &Inputs,
    deadline: Instant,
    progress: &Progress,
    traced: bool,
) -> Vec<Ack> {
    let mut acks = Vec::new();
    let mut cursor = 0u64;
    if traced {
        let _ = crate::spans::fetch(conn, &mut cursor);
    }
    let finished = || progress.reading_done.load(Ordering::SeqCst) && Instant::now() >= deadline;
    let mut last_send: Option<Instant> = None;
    for batch in &inputs.batches {
        while let Some(wait) =
            last_send.map(|t| (t + UPDATE_SPACING).saturating_duration_since(Instant::now()))
        {
            if wait.is_zero() || finished() {
                break;
            }
            std::thread::sleep(wait.min(Duration::from_millis(20)));
        }
        if finished() {
            break;
        }
        last_send = Some(Instant::now());
        let compactions = if traced {
            metric(conn, "s3pg_compactions_total")
        } else {
            None
        };
        let line = batch.request_line();
        progress.sent.fetch_add(1, Ordering::SeqCst);
        let ack = match conn.exchange(&line) {
            Ok(ex) => Ack {
                latency: ex.latency,
                request_bytes: ex.request_bytes,
                response_bytes: ex.raw.len() + 1,
                frame: parse(&ex.raw),
                freeze_lag: None,
                spans: None,
            },
            Err(e) => Ack {
                latency: Duration::ZERO,
                request_bytes: line.len() + 1,
                response_bytes: 0,
                frame: Err(e),
                freeze_lag: None,
                spans: None,
            },
        };
        progress.acked.fetch_add(1, Ordering::SeqCst);
        let failed = ack.frame.is_err();
        acks.push(ack);
        if failed {
            break;
        }
        if let Some(before) = compactions {
            let acked_at = Instant::now();
            while metric(conn, "s3pg_compactions_total").is_some_and(|c| c <= before)
                && acked_at.elapsed() < Duration::from_secs(30)
            {
                std::thread::sleep(Duration::from_millis(2));
            }
            let last = acks.last_mut().expect("just pushed");
            last.freeze_lag = Some(acked_at.elapsed());
            last.spans = crate::spans::fetch(conn, &mut cursor)
                .ok()
                .and_then(|traces| traces.into_values().find(|t| t.has("apply_delta")));
        }
    }
    acks
}

/// All samples of the server's `metrics` exposition.
pub fn metrics(conn: &mut JsonConn) -> FxHashMap<String, f64> {
    let mut out = FxHashMap::default();
    if let Ok(frame) = conn.call(&Request::Metrics.encode()) {
        if let Some(text) = frame.get("exposition").and_then(J::as_str) {
            if let Ok(samples) = s3pg_obs::registry::parse_exposition(text) {
                for s in samples {
                    out.insert(s.name, s.value);
                }
            }
        }
    }
    out
}

/// One metric's value, summed over its label sets.
pub fn metric(conn: &mut JsonConn, family: &str) -> Option<f64> {
    let all = metrics(conn);
    sum_family(&all, family)
}

pub fn sum_family(all: &FxHashMap<String, f64>, family: &str) -> Option<f64> {
    let mut found = None;
    for (name, v) in all {
        if s3pg_obs::registry::family_of(name) == family {
            *found.get_or_insert(0.0) += v;
        }
    }
    found
}

/// The server's `stats` frame as (nodes, edges, triples, conforms, mem_bytes).
pub fn stats(conn: &mut JsonConn) -> Result<(u64, u64, u64, bool, u64), String> {
    let f = conn.call(&Request::Stats.encode())?;
    let n = |k: &str| {
        f.get(k)
            .and_then(J::as_f64)
            .map(|v| v as u64)
            .ok_or(format!("stats lacks {k}"))
    };
    Ok((
        n("nodes")?,
        n("edges")?,
        n("triples")?,
        f.get("conforms")
            .and_then(J::as_bool)
            .ok_or("stats lacks conforms")?,
        n("mem_bytes")?,
    ))
}

/// Checks served answers against the oracle, version by version.
#[derive(Default)]
pub struct Checker {
    decoded: FxHashMap<AnswerKey, Result<Rows, String>>,
    /// Lookups target entities the Δ never touches, so their oracle
    /// answer is computed once and holds at every version.
    lookups: FxHashMap<(Lang, usize), Result<ResultSet, String>>,
    /// Scan and lookup pairs where SPARQL on G and `F_qt` Cypher on F(G)
    /// disagreed (query preservation), counted once per (query, version).
    pub preservation_failures: u64,
    pub oracle_calls: u64,
}

impl Checker {
    /// Oracle answers at one version (`graph`, `pg`), for every sample
    /// whose version range holds `version` and that is not yet matched.
    #[allow(clippy::too_many_arguments)]
    pub fn check_version(
        &mut self,
        inputs: &Inputs,
        graph: &s3pg_rdf::Graph,
        pg: &s3pg_pg::PropertyGraph,
        version: u32,
        samples: &[Sample],
        answers: &Answers,
        matched: &mut [bool],
    ) {
        let mut oracle: FxHashMap<(Lang, Class, usize), Result<ResultSet, String>> =
            FxHashMap::default();
        let mut calls = 0u64;
        let lookups = &mut self.lookups;
        let mut answer = |lang: Lang, class: Class, key: usize| match class {
            Class::Lookup => lookups
                .entry((lang, key))
                .or_insert_with(|| {
                    calls += 1;
                    oracle_answer(inputs, graph, pg, lang, class, key)
                })
                .clone(),
            Class::Scan => {
                calls += 1;
                oracle_answer(inputs, graph, pg, lang, class, key)
            }
        };
        let mut verdicts: FxHashMap<AnswerKey, bool> = FxHashMap::default();
        for (i, s) in samples.iter().enumerate() {
            if matched[i] || s.error.is_some() || s.lo > version || s.hi < version {
                continue;
            }
            let a = s.answer;
            if let Some(&v) = verdicts.get(&a) {
                matched[i] = v;
                continue;
            }
            let lang = a.route.lang();
            let expected = oracle
                .entry((lang, a.class, a.key))
                .or_insert_with(|| answer(lang, a.class, a.key));
            let served = self
                .decoded
                .entry(a)
                .or_insert_with(|| match answers.json.get(&a) {
                    Some(raw) => parse(raw).and_then(|f| frame_rows(&f)),
                    None => answers
                        .rows
                        .get(&a)
                        .cloned()
                        .ok_or_else(|| "answer not kept".to_string()),
                });
            let ok = match (expected, served) {
                (Ok(e), Ok(rows)) => same_answer(e, rows.clone()),
                _ => false,
            };
            verdicts.insert(a, ok);
            matched[i] = ok;
        }
        // Query preservation on every query asked at this version.
        let asked: Vec<(Class, usize)> = oracle.keys().map(|&(_, c, k)| (c, k)).collect();
        for (class, key) in asked {
            for lang in [Lang::Sparql, Lang::Cypher] {
                oracle
                    .entry((lang, class, key))
                    .or_insert_with(|| answer(lang, class, key));
            }
            match (
                &oracle[&(Lang::Sparql, class, key)],
                &oracle[&(Lang::Cypher, class, key)],
            ) {
                (Ok(a), Ok(b)) if a.same_as(b) => {}
                _ => self.preservation_failures += 1,
            }
        }
        self.oracle_calls += calls;
    }
}

/// The oracle's answer to one read at one version.
pub fn oracle_answer(
    inputs: &Inputs,
    graph: &s3pg_rdf::Graph,
    pg: &s3pg_pg::PropertyGraph,
    lang: Lang,
    class: Class,
    key: usize,
) -> Result<ResultSet, String> {
    let (q, entity) = match class {
        Class::Scan => (&inputs.scans[key], None),
        Class::Lookup => {
            let l = &inputs.lookups[key];
            (
                &inputs.lookup_templates[l.template],
                Some(l.entity.as_str()),
            )
        }
    };
    match lang {
        Lang::Sparql => answer_sparql(graph, &q.sparql, entity),
        Lang::Cypher => answer_cypher(pg, &q.cypher, entity),
    }
}
