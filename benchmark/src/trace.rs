//! In-memory spans around the public calls the benchmark makes, for the
//! traced run: name, start, end, parent span, and the request id for
//! serve. Spans are kept in memory and written out when the run ends.

use crate::json::{int, num, object, string, Value};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What ran, e.g. `run:table2` or `serve.ttfb`.
    pub name: String,
    /// Start, relative to the tracer's origin.
    pub start: Duration,
    /// End, relative to the tracer's origin.
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request this span belongs to (serve only).
    pub request: Option<u64>,
}

impl Span {
    /// The span's length.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// A span recorder. A disabled tracer records nothing and costs one
/// branch per span, so pass code can take one unconditionally.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SelfTime {
    /// Spans with this name.
    pub count: usize,
    /// Sum of their durations.
    pub total: Duration,
    /// Sum of their durations minus the time their child spans cover.
    pub own: Duration,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer whose times are relative to `origin`.
    pub fn on(origin: Instant) -> Tracer {
        Tracer {
            origin,
            enabled: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The tracer's time origin.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Runs `f` inside a span named `name`, nested in the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let start = self.origin.elapsed();
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent: self.open.last().copied(),
            request: None,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.origin.elapsed();
        out
    }

    /// Records a finished interval with an explicit parent and request id,
    /// returning its index.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name: name.to_string(),
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// The innermost open span.
    pub fn current(&self) -> Option<usize> {
        self.open.last().copied()
    }

    /// Appends another tracer's spans (recorded against the same origin),
    /// hanging its root spans under `parent`.
    pub fn absorb(&mut self, other: Tracer, parent: Option<usize>) {
        let offset = self.spans.len();
        for mut span in other.spans {
            span.parent = match span.parent {
                Some(p) => Some(p + offset),
                None => parent,
            };
            self.spans.push(span);
        }
    }

    /// Every recorded span, in start order per recording thread.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn self_times(&self) -> BTreeMap<String, SelfTime> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_time[p] += span.duration();
            }
        }
        let mut out: BTreeMap<String, SelfTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_time) {
            let entry = out.entry(span.name.clone()).or_default();
            entry.count += 1;
            entry.total += span.duration();
            entry.own += span.duration().saturating_sub(children);
        }
        out
    }

    /// The spans as a JSON array, times in microseconds.
    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    let mut fields = vec![
                        ("id", int(id as u64)),
                        ("name", string(&s.name)),
                        ("start_us", num(s.start.as_secs_f64() * 1e6)),
                        ("end_us", num(s.end.as_secs_f64() * 1e6)),
                        ("parent", s.parent.map_or(Value::Null, |p| int(p as u64))),
                    ];
                    if let Some(r) = s.request {
                        fields.push(("request", int(r)));
                    }
                    object(fields)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let v = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        assert!(t.self_times().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let origin = Instant::now();
        let mut t = Tracer::on(origin);
        let at = |ms| origin + Duration::from_millis(ms);
        let root = t.record("pass", at(0), at(100), None, None);
        t.record("run", at(10), at(40), root, None);
        t.record("run", at(50), at(90), root, None);
        let times = t.self_times();
        assert_eq!(times["pass"].own, Duration::from_millis(30));
        assert_eq!(times["run"].count, 2);
        assert_eq!(times["run"].total, Duration::from_millis(70));
        assert_eq!(times["run"].own, Duration::from_millis(70));
    }

    #[test]
    fn nested_spans_link_parents_and_absorb_remaps() {
        let origin = Instant::now();
        let mut t = Tracer::on(origin);
        t.span("outer", |t| t.span("inner", |_| ()));
        assert_eq!(t.spans()[1].parent, Some(0));
        let mut client = Tracer::on(origin);
        let req = client.record("serve.request", origin, origin, None, Some(9));
        client.record("serve.ttfb", origin, origin, req, Some(9));
        t.absorb(client, Some(0));
        assert_eq!(t.spans()[2].parent, Some(0));
        assert_eq!(t.spans()[3].parent, Some(2));
        assert_eq!(t.spans()[3].request, Some(9));
    }
}
