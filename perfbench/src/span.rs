//! In-memory spans for the traced run: `{name, request id, parent,
//! start, end}`, recorded around calls into each layer from the
//! benchmark's own files and written out when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Value;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.prove`.
    pub name: &'static str,
    /// The request this span belongs to.
    pub request: u64,
    /// Index of the span that caused it.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration.
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans in memory.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Times `f` as a span and returns its index with `f`'s result.
    ///
    /// A *composite* call (`node.handle`, `core.prove`) is opaque from
    /// outside, so its children are replayed separately on the same
    /// request and recorded with the composite as their parent: their
    /// intervals do not nest inside it in wall time, but their
    /// durations subtract from it the same way.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (usize, R) {
        let start = self.origin.elapsed();
        let result = f();
        let end = self.origin.elapsed();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        });
        (self.spans.len() - 1, result)
    }

    /// Opens a span that encloses the spans recorded until
    /// [`Recorder::close`] — the per-request root.
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Ends a span begun with [`Recorder::open`].
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus its children's, floored
    /// at zero (replayed children can overshoot a composite by noise).
    pub fn self_nanos(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::nanos).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.nanos());
            }
        }
        own
    }

    /// `name → (span count, total self time in ns)`.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_nanos()) {
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += own;
        }
        out
    }

    /// `name → (span count, total duration in ns)`.
    pub fn total_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for span in &self.spans {
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.nanos();
        }
        out
    }

    /// The `--spans` file: one object per span.
    pub fn to_json(&self) -> Value {
        let own = self.self_nanos();
        Value::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Value::obj([
                        ("id", Value::Num(id as f64)),
                        ("name", Value::str(s.name)),
                        ("request", Value::Num(s.request as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("start_ns", Value::Num(s.start_ns as f64)),
                        ("end_ns", Value::Num(s.end_ns as f64)),
                        ("self_ns", Value::Num(own[id] as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_floors_at_zero() {
        let recorder = Recorder {
            origin: Instant::now(),
            spans: vec![
                span("request", None, 0, 100),
                span("node.handle", Some(0), 10, 70),
                // Replayed children of the composite: outside its
                // interval in wall time, subtracted all the same.
                span("core.prove", Some(1), 200, 240),
                span("codec.encode", Some(1), 240, 250),
                span("core.verify", Some(0), 70, 95),
                // A replay that overshoots its composite.
                span("merkle.bmt_prove", Some(2), 300, 350),
            ],
        };
        assert_eq!(recorder.self_nanos(), vec![15, 10, 0, 10, 25, 50]);
        let by_name = recorder.self_by_name();
        assert_eq!(by_name["node.handle"], (1, 10));
        assert_eq!(by_name["core.prove"], (1, 0));
        assert_eq!(recorder.total_by_name()["core.prove"], (1, 40));
    }

    #[test]
    fn recorder_nests_by_explicit_parent() {
        let mut recorder = Recorder::new();
        let root = recorder.open("request", 7, None);
        let (child, value) = recorder.time("core.verify", 7, Some(root), || 42);
        recorder.close(root);
        assert_eq!(value, 42);
        let spans = recorder.spans();
        assert_eq!(spans[child].parent, Some(root));
        assert_eq!(spans[child].request, 7);
        assert!(spans[root].start_ns <= spans[child].start_ns);
        assert!(spans[child].end_ns <= spans[root].end_ns);
        assert_eq!(recorder.to_json().as_arr().unwrap().len(), 2);
    }
}
