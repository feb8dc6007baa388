//! A minimal blocking client for the line-JSON protocol — what the
//! benchmark harness and the wire tests speak through. Any request goes
//! through [`Client::request`] / [`Client::request_raw`]; the typed
//! helpers cover the ops those callers send by name.

use serde::Value;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// One protocol connection: send a request line, read a response line.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connect to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// Send one raw request line, return the raw response line (without
    /// the trailing newline).
    pub fn request_raw(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            ));
        }
        while response.ends_with('\n') || response.ends_with('\r') {
            response.pop();
        }
        Ok(response)
    }

    /// Send one request line and parse the response object.
    pub fn request(&mut self, line: &str) -> io::Result<Value> {
        let raw = self.request_raw(line)?;
        serde_json::from_str(&raw).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed response {raw:?}: {e}"),
            )
        })
    }

    fn request_obj(&mut self, fields: Vec<(&str, Value)>) -> io::Result<Value> {
        let obj = Value::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect());
        let line = serde_json::to_string(&obj)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        self.request(&line)
    }

    /// `{"op":"rank", ...}` — ranked features and entities for seeds.
    pub fn rank(
        &mut self,
        seeds: &[&str],
        k_features: usize,
        k_entities: usize,
    ) -> io::Result<Value> {
        self.request_obj(vec![
            ("op", Value::Str("rank".to_owned())),
            ("seeds", names(seeds)),
            ("k_features", Value::Num(k_features as f64)),
            ("k_entities", Value::Num(k_entities as f64)),
        ])
    }

    /// `{"op":"append", ...}` — append an N-Triples delta.
    pub fn append(&mut self, ntriples: &str) -> io::Result<Value> {
        self.request_obj(vec![
            ("op", Value::Str("append".to_owned())),
            ("ntriples", Value::Str(ntriples.to_owned())),
        ])
    }

    /// `{"op":"retract", ...}` — retract the statements of an N-Triples
    /// body.
    pub fn retract(&mut self, ntriples: &str) -> io::Result<Value> {
        self.request_obj(vec![
            ("op", Value::Str("retract".to_owned())),
            ("ntriples", Value::Str(ntriples.to_owned())),
        ])
    }

    /// `{"op":"stats"}` — store/cache observability snapshot.
    pub fn stats(&mut self) -> io::Result<Value> {
        self.request_obj(vec![("op", Value::Str("stats".to_owned()))])
    }

    /// `{"op":"shutdown"}` — request a graceful server stop.
    pub fn shutdown(&mut self) -> io::Result<Value> {
        self.request_obj(vec![("op", Value::Str("shutdown".to_owned()))])
    }
}

fn names(items: &[&str]) -> Value {
    Value::Arr(items.iter().map(|s| Value::Str((*s).to_owned())).collect())
}

/// `true` iff the response object says `"ok": true`.
pub fn response_ok(v: &Value) -> bool {
    matches!(v.field_opt("ok"), Value::Bool(true))
}

/// Extract `[[name, score], ...]` from a response field.
pub fn scored_list(v: &Value, field: &str) -> Vec<(String, f64)> {
    let Value::Arr(items) = v.field_opt(field) else {
        return Vec::new();
    };
    items
        .iter()
        .filter_map(|item| match item {
            Value::Arr(pair) => match (pair.first(), pair.get(1)) {
                (Some(Value::Str(name)), Some(Value::Num(score))) => Some((name.clone(), *score)),
                _ => None,
            },
            _ => None,
        })
        .collect()
}

/// Extract a numeric response field (e.g. `"generation"`), when present
/// and integral.
pub fn num_field(v: &Value, field: &str) -> Option<u64> {
    match v.field_opt(field) {
        Value::Num(n) if n.fract() == 0.0 && *n >= 0.0 => Some(*n as u64),
        _ => None,
    }
}
