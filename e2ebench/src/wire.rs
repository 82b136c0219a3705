//! The load generator's side of both listeners: a JSON-lines connection
//! and a Bolt session, each timing one request from the moment its bytes
//! are written to the moment the response is complete (the JSON frame's
//! newline, or Bolt's final `SUCCESS`).
//!
//! Response frames are kept as raw bytes and decoded only after the timed
//! interval, with [`parse`] — a small linear-time JSON reader — rather
//! than the server crate's `Response::decode`, whose string scanning is
//! quadratic in the frame length (timed separately as `client.decode_us`).

use s3pg_bolt::message::{self, ClientMessage, ServerMessage};
use s3pg_bolt::packstream::Value;
use s3pg_bolt::{frame, handshake, DEFAULT_MAX_MESSAGE_BYTES};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Result rows in the `tr(µ)` string domain; `None` is NULL/unbound.
pub type Rows = Vec<Vec<Option<String>>>;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum J {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn get(&self, key: &str) -> Option<&J> {
        match self {
            J::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    pub fn as_str(&self) -> Option<&str> {
        match self {
            J::Str(s) => Some(s),
            _ => None,
        }
    }
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            J::Num(n) => Some(*n),
            _ => None,
        }
    }
    pub fn as_arr(&self) -> Option<&[J]> {
        match self {
            J::Arr(a) => Some(a),
            _ => None,
        }
    }
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            J::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parse one JSON document (linear time).
pub fn parse(text: &[u8]) -> Result<J, String> {
    let mut p = Parser { b: text, i: 0 };
    let v = p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing bytes at {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\n' | b'\r' | b'\t') {
            self.i += 1;
        }
    }

    fn lit(&mut self, word: &str, v: J) -> Result<J, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at {}", self.i))
        }
    }

    fn value(&mut self) -> Result<J, String> {
        self.ws();
        match self.b.get(self.i) {
            None => Err("unexpected end".into()),
            Some(b'n') => self.lit("null", J::Null),
            Some(b't') => self.lit("true", J::Bool(true)),
            Some(b'f') => self.lit("false", J::Bool(false)),
            Some(b'"') => self.string().map(J::Str),
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.b.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(J::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(J::Arr(items));
                        }
                        _ => return Err(format!("expected , or ] at {}", self.i)),
                    }
                }
            }
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.b.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(J::Obj(fields));
                }
                loop {
                    self.ws();
                    if self.b.get(self.i) != Some(&b'"') {
                        return Err(format!("expected key at {}", self.i));
                    }
                    let key = self.string()?;
                    self.ws();
                    if self.b.get(self.i) != Some(&b':') {
                        return Err(format!("expected : at {}", self.i));
                    }
                    self.i += 1;
                    fields.push((key, self.value()?));
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(J::Obj(fields));
                        }
                        _ => return Err(format!("expected , or }} at {}", self.i)),
                    }
                }
            }
            Some(_) => {
                let start = self.i;
                while self.i < self.b.len()
                    && matches!(
                        self.b[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.b[start..self.i])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(J::Num)
                    .ok_or_else(|| format!("bad number at {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.i += 1; // opening quote
        let mut out = Vec::new();
        loop {
            let Some(&c) = self.b.get(self.i) else {
                return Err("unterminated string".into());
            };
            self.i += 1;
            match c {
                b'"' => break,
                b'\\' => {
                    let e = *self.b.get(self.i).ok_or("dangling escape")?;
                    self.i += 1;
                    match e {
                        b'"' => out.push(b'"'),
                        b'\\' => out.push(b'\\'),
                        b'/' => out.push(b'/'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let mut code = self.hex4()?;
                            if (0xD800..0xDC00).contains(&code)
                                && self.b[self.i..].starts_with(b"\\u")
                            {
                                self.i += 2;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err("bad surrogate pair".into());
                                }
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            }
                            let ch = char::from_u32(code).ok_or("bad \\u escape")?;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                        }
                        _ => return Err(format!("bad escape at {}", self.i)),
                    }
                }
                _ => out.push(c),
            }
        }
        String::from_utf8(out).map_err(|e| e.to_string())
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self.b.get(self.i..self.i + 4).ok_or("short \\u escape")?;
        self.i += 4;
        std::str::from_utf8(digits)
            .ok()
            .and_then(|s| u32::from_str_radix(s, 16).ok())
            .ok_or_else(|| "bad \\u escape".to_string())
    }
}

/// The rows of a `cypher`/`sparql` success frame; `Err` with the frame's
/// error text otherwise.
pub fn frame_rows(frame: &J) -> Result<Rows, String> {
    if frame.get("ok").and_then(J::as_bool) != Some(true) {
        return Err(format!("error frame: {frame:?}"));
    }
    let rows = frame
        .get("rows")
        .and_then(J::as_arr)
        .ok_or("no rows field")?;
    rows.iter()
        .map(|row| {
            row.as_arr()
                .ok_or_else(|| "row is not an array".to_string())?
                .iter()
                .map(|cell| match cell {
                    J::Null => Ok(None),
                    J::Str(s) => Ok(Some(s.clone())),
                    other => Err(format!("cell is not a string: {other:?}")),
                })
                .collect()
        })
        .collect()
}

fn dial(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .and_then(|()| stream.set_nodelay(true))
        .map_err(|e| e.to_string())?;
    Ok(stream)
}

/// One JSON-lines connection.
pub struct JsonConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// One timed exchange: the raw response frame (without its newline) and
/// the bytes each way.
pub struct Exchange {
    pub raw: Vec<u8>,
    pub latency: Duration,
    pub request_bytes: usize,
}

impl JsonConn {
    pub fn connect(addr: &str) -> Result<JsonConn, String> {
        let writer = dial(addr)?;
        let reader =
            BufReader::with_capacity(1 << 16, writer.try_clone().map_err(|e| e.to_string())?);
        Ok(JsonConn { writer, reader })
    }

    /// Send one request line and read its response frame. The timer
    /// starts before the write and stops at the response's newline.
    pub fn exchange(&mut self, line: &str) -> Result<Exchange, String> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        let started = Instant::now();
        self.writer
            .write_all(&bytes)
            .map_err(|e| format!("write: {e}"))?;
        let mut raw = Vec::new();
        let n = self
            .reader
            .read_until(b'\n', &mut raw)
            .map_err(|e| format!("read: {e}"))?;
        let latency = started.elapsed();
        if n == 0 || raw.last() != Some(&b'\n') {
            return Err("connection closed mid-frame".into());
        }
        raw.pop();
        Ok(Exchange {
            raw,
            latency,
            request_bytes: bytes.len(),
        })
    }

    /// Untimed call with the response parsed.
    pub fn call(&mut self, line: &str) -> Result<J, String> {
        let ex = self.exchange(line)?;
        parse(&ex.raw)
    }
}

/// One Bolt session (handshake + HELLO done).
pub struct BoltConn {
    stream: TcpStream,
}

/// A Bolt RUN+PULL exchange: rows (or the FAILURE text) and sizes.
pub struct BoltExchange {
    pub rows: Result<Rows, String>,
    pub latency: Duration,
    pub request_bytes: usize,
    pub response_bytes: usize,
}

impl BoltConn {
    pub fn connect(addr: &str) -> Result<BoltConn, String> {
        let mut stream = dial(addr)?;
        handshake::client_handshake(&mut stream)
            .map_err(|e| format!("bolt handshake: {e}"))?
            .ok_or("server rejected every Bolt version")?;
        let mut conn = BoltConn { stream };
        conn.send(&ClientMessage::Hello(vec![(
            "user_agent".into(),
            Value::String("s3pg-e2ebench/0".into()),
        )]))?;
        match conn.recv()?.0 {
            ServerMessage::Success(_) => Ok(conn),
            other => Err(format!("HELLO failed: {other:?}")),
        }
    }

    fn send(&mut self, m: &ClientMessage) -> Result<usize, String> {
        let payload = message::encode_client(m);
        let mut buf = Vec::with_capacity(payload.len() + 8);
        frame::write_message(&mut buf, &payload).map_err(|e| e.to_string())?;
        self.stream
            .write_all(&buf)
            .map_err(|e| format!("bolt write: {e}"))?;
        Ok(buf.len())
    }

    fn recv(&mut self) -> Result<(ServerMessage, usize), String> {
        let payload = frame::read_message(&mut self.stream, DEFAULT_MAX_MESSAGE_BYTES)
            .map_err(|e| format!("bolt read: {e}"))?
            .ok_or("bolt session closed")?;
        // Payload plus one chunk header per 64 KiB and the end marker.
        let wire = payload.len() + 2 * (payload.len() / 0xFFFF + 1) + 2;
        let m = message::decode_server(&payload).map_err(|e| format!("bolt decode: {e}"))?;
        Ok((m, wire))
    }

    /// RUN + PULL(all), pipelined; timed from the first byte written to
    /// the final `SUCCESS` (or `FAILURE`, after which the session is
    /// reset outside the timer).
    pub fn run(
        &mut self,
        query: &str,
        params: Vec<(String, Value)>,
    ) -> Result<BoltExchange, String> {
        let run = ClientMessage::Run {
            query: query.to_string(),
            parameters: params,
            extra: Vec::new(),
        };
        let pull = ClientMessage::Pull(vec![("n".into(), Value::Int(-1))]);
        let mut buf = Vec::new();
        for m in [&run, &pull] {
            frame::write_message(&mut buf, &message::encode_client(m))
                .map_err(|e| e.to_string())?;
        }
        let started = Instant::now();
        self.stream
            .write_all(&buf)
            .map_err(|e| format!("bolt write: {e}"))?;
        let mut response_bytes = 0;
        let (first, n) = self.recv()?;
        response_bytes += n;
        let failure = match first {
            ServerMessage::Success(_) => None,
            ServerMessage::Failure { message, .. } => Some(message),
            other => return Err(format!("unexpected RUN answer {other:?}")),
        };
        let mut rows = Vec::new();
        loop {
            let (m, n) = self.recv()?;
            response_bytes += n;
            match m {
                ServerMessage::Record(values) => rows.push(
                    values
                        .into_iter()
                        .map(|v| match v {
                            Value::Null => None,
                            Value::String(s) => Some(s),
                            other => Some(format!("{other:?}")),
                        })
                        .collect(),
                ),
                ServerMessage::Success(_) | ServerMessage::Ignored => break,
                ServerMessage::Failure { message, .. } => {
                    return Err(format!("PULL failed: {message}"));
                }
            }
        }
        let latency = started.elapsed();
        let rows = match failure {
            None => Ok(rows),
            Some(message) => {
                self.send(&ClientMessage::Reset)?;
                self.recv()?;
                Err(message)
            }
        };
        Ok(BoltExchange {
            rows,
            latency,
            request_bytes: buf.len(),
            response_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_frames_with_escapes() {
        let v =
            parse(r#"{"ok":true,"rows":[["a\"bé😀",null],["x\\y",null]],"n":-1.5e2}"#.as_bytes())
                .unwrap();
        let rows = frame_rows(&v).unwrap();
        assert_eq!(rows[0][0].as_deref(), Some("a\"bé😀"));
        assert_eq!(rows[1], vec![Some("x\\y".to_string()), None]);
        assert_eq!(v.get("n").and_then(J::as_f64), Some(-150.0));
        assert!(parse(b"{\"a\":1} x").is_err());
        assert!(frame_rows(&parse(br#"{"ok":false,"error":{}}"#).unwrap()).is_err());
    }
}
