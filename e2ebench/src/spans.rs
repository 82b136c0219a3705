//! Reading the server's own spans through its `trace` endpoint, and the
//! span tree a `--trace-out` conversion writes.

use crate::wire::{parse, JsonConn, J};
use std::collections::BTreeMap;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub begin_us: u64,
    pub end_us: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        self.end_us.saturating_sub(self.begin_us) as f64
    }
}

/// The spans of one trace (one served request), keyed by span id.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    pub spans: BTreeMap<u64, Span>,
}

impl Trace {
    /// Total duration of the spans called `name`, if any.
    pub fn total(&self, name: &str) -> Option<f64> {
        let mut found = None;
        for s in self.spans.values().filter(|s| s.name == name) {
            *found.get_or_insert(0.0) += s.micros();
        }
        found
    }
    pub fn has(&self, name: &str) -> bool {
        self.spans.values().any(|s| s.name == name)
    }
}

/// Group JSONL trace events (begin/end pairs) into traces; spans whose
/// begin or end fell outside the window are dropped. Returns the traces
/// and the newest event time seen.
pub fn group(lines: &[String]) -> (BTreeMap<u64, Trace>, u64) {
    let mut open: BTreeMap<u64, (u64, String, u64)> = BTreeMap::new();
    let mut traces: BTreeMap<u64, Trace> = BTreeMap::new();
    let mut newest = 0;
    for line in lines {
        let Ok(ev) = parse(line.as_bytes()) else {
            continue;
        };
        let num = |k: &str| ev.get(k).and_then(J::as_f64).map(|v| v as u64);
        let (Some(trace), Some(span), Some(t)) = (num("trace"), num("span"), num("t_us")) else {
            continue;
        };
        newest = newest.max(t);
        let name = ev
            .get("name")
            .and_then(J::as_str)
            .unwrap_or_default()
            .to_string();
        match ev.get("ev").and_then(J::as_str) {
            Some("begin") => {
                open.insert(span, (trace, name, t));
            }
            Some("end") => {
                if let Some((trace, name, begin)) = open.remove(&span) {
                    traces.entry(trace).or_default().spans.insert(
                        span,
                        Span {
                            name,
                            begin_us: begin,
                            end_us: t,
                        },
                    );
                }
            }
            _ => {}
        }
    }
    (traces, newest)
}

/// Fetch every trace event newer than `*cursor`, advancing it.
pub fn fetch(conn: &mut JsonConn, cursor: &mut u64) -> Result<BTreeMap<u64, Trace>, String> {
    let request = s3pg_server::protocol::Request::Trace {
        limit: 16384,
        since: *cursor,
    };
    let frame = conn.call(&request.encode())?;
    let events: Vec<String> = frame
        .get("events")
        .and_then(J::as_arr)
        .ok_or("trace frame without events")?
        .iter()
        .filter_map(|e| e.as_str().map(str::to_string))
        .collect();
    let (traces, newest) = group(&events);
    *cursor = (*cursor).max(newest);
    Ok(traces)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_begin_end_pairs_per_trace() {
        let ev = |trace: u64, span: u64, parent: u64, name: &str, ev: &str, t: u64| {
            format!(
                r#"{{"trace":{trace},"span":{span},"parent":{parent},"name":"{name}","ev":"{ev}","t_us":{t}}}"#
            )
        };
        let lines = vec![
            ev(1, 1, 0, "request", "begin", 10),
            ev(1, 2, 1, "decode", "begin", 11),
            ev(1, 2, 1, "decode", "end", 14),
            ev(2, 9, 0, "request", "begin", 12),
            ev(1, 1, 0, "request", "end", 30),
            // span 7 began before the window
            ev(3, 7, 0, "request", "end", 31),
        ];
        let (traces, newest) = group(&lines);
        assert_eq!(newest, 31);
        assert_eq!(traces[&1].total("request"), Some(20.0));
        assert_eq!(traces[&1].total("decode"), Some(3.0));
        assert!(!traces.contains_key(&2));
        assert!(!traces.contains_key(&3));
    }
}
