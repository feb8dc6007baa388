//! In-memory spans around calls into each layer, written out as
//! `trace.json` when the traced run ends.
//!
//! A span is (name, start, end, parent, request id). The replay is
//! single-threaded, so a span's children never overlap and its *self
//! time* is its duration minus the durations of its direct children.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Spans of one replayed request share this id.
    pub request: usize,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when `on`; runs the closure and nothing else when off,
/// so the same replay code gives the untraced baseline.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    request: usize,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            request: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Every later span belongs to request `id`.
    pub fn begin_request(&mut self, id: usize) {
        self.request = id;
    }

    /// Run `f` inside a span named `name`; spans `f` opens are its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(index);
        // the clock is read after the bookkeeping and before the
        // closing bookkeeping, so a span times the call, not the tracer
        self.spans[index].start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.open.pop();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Per span name: the self time spent under that name in each request
/// that has such a span (a request's same-named spans are summed), in
/// microseconds.
pub fn self_us_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut per_request: BTreeMap<(&'static str, usize), u64> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times_ns(spans)) {
        *per_request.entry((span.name, span.request)).or_default() += own;
    }
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), own) in per_request {
        by_name.entry(name).or_default().push(own as f64 / 1e3);
    }
    by_name
}

/// `trace.json`: one object per span, in start order.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            r#" {{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"request":{}}}"#,
            s.name, s.start_ns, s.end_ns, s.request
        ));
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_direct_children() {
        // request [0,100] > rank [10,90] > score [20,70]; parse [0,8]
        let spans = vec![
            span("request", 0, 100, None),
            span("parse", 0, 8, Some(0)),
            span("rank", 10, 90, Some(0)),
            span("score", 20, 70, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![12, 8, 30, 50]);
        let by_name = self_us_by_name(&spans);
        assert_eq!(by_name["rank"], vec![0.03]);
        // same-named spans of one request add up; requests stay apart
        let mut twice = spans.clone();
        twice.push(span("parse", 92, 96, Some(0)));
        twice.push(Span {
            request: 1,
            ..span("parse", 200, 203, None)
        });
        assert_eq!(self_us_by_name(&twice)["parse"], vec![0.012, 0.003]);
        // self times partition the root: nothing is counted twice
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn the_tracer_nests_spans_and_tags_requests() {
        let mut t = Tracer::new(true);
        t.begin_request(7);
        let got = t.span("outer", |t| t.span("inner", |_| 1) + t.span("inner", |_| 2));
        assert_eq!(got, 3);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[2].end_ns <= spans[0].end_ns);
        let json: serde::Value = serde_json::from_str(&to_json(spans)).expect("valid JSON");
        assert!(matches!(json, serde::Value::Arr(ref a) if a.len() == 3));
    }

    #[test]
    fn an_untraced_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |t| t.span("y", |_| 5)), 5);
        assert!(t.spans().is_empty());
    }
}
