//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer's public functions; nothing inside the crates is
//! instrumented. They stay in memory and are written to
//! `out/<workload>.trace.json` when the run ends. A layer's *self time*
//! is its span's duration minus the part of that interval its child
//! spans cover.

use crate::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within a trace.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// What was called, e.g. `lowering.lower`.
    pub name: &'static str,
    /// The crate that did the work, e.g. `gc-lowering`.
    pub layer: &'static str,
    /// The op (request, round, execution) this span belongs to; spans of
    /// one op share it. `u64::MAX` for set-up work outside any op.
    pub op: u64,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

/// `op` value of spans that belong to no op (compile, load, probes).
pub const NO_OP: u64 = u64::MAX;

/// Records spans for one thread. Several recorders sharing an epoch
/// (see [`Recorder::sibling`]) merge into one trace.
#[derive(Debug, Clone)]
pub struct Recorder {
    epoch: Instant,
    next_id: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder whose epoch is now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next_id: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread: same epoch, ids offset by
    /// `lane << 40` so merged traces keep ids unique.
    pub fn sibling(&self, lane: u64) -> Recorder {
        Recorder {
            epoch: self.epoch,
            next_id: lane << 40,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one. Close it with
    /// [`Recorder::end`]; spans nest strictly.
    pub fn start(&mut self, name: &'static str, layer: &'static str, op: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().map(|&i| self.spans[i].id);
        self.open.push(self.spans.len());
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            layer,
            op,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Close the innermost open span, which must be `id`; returns its
    /// `(start_ns, end_ns)`.
    pub fn end(&mut self, id: u64) -> (u64, u64) {
        let end_ns = self.now_ns();
        let i = self.open.pop().expect("a span is open");
        assert_eq!(self.spans[i].id, id, "spans must close innermost-first");
        self.spans[i].end_ns = end_ns;
        (self.spans[i].start_ns, end_ns)
    }

    /// Time `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        op: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let id = self.start(name, layer, op);
        let out = f(self);
        self.end(id);
        out
    }

    /// Record a span whose interval was measured elsewhere (rebuilt
    /// from returned statistics), as a child of `parent`.
    pub fn add_child(
        &mut self,
        parent: u64,
        name: &'static str,
        layer: &'static str,
        op: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent: Some(parent),
            name,
            layer,
            op,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
    }

    /// Duration of the most recently closed span named `name`, in ms.
    pub fn last_ms(&self, name: &str) -> Option<f64> {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
    }

    /// Fold another thread's spans in.
    pub fn merge(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }

    /// All spans recorded so far.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace as a JSON document: the spans plus per-layer self time.
    pub fn to_json(&self, workload: &str) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::obj([
                    ("id", Value::Num(s.id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("name", Value::str(s.name)),
                    ("layer", Value::str(s.layer)),
                    (
                        "op",
                        if s.op == NO_OP {
                            Value::Null
                        } else {
                            Value::Num(s.op as f64)
                        },
                    ),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                ])
            })
            .collect();
        let layers = layer_self_ns(&self.spans)
            .into_iter()
            .map(|(layer, ns)| (layer, Value::Num(ns as f64)))
            .collect::<Vec<_>>();
        Value::obj([
            ("workload", Value::str(workload)),
            ("self_ns_by_layer", Value::obj(layers)),
            ("spans", Value::Arr(spans)),
        ])
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent. Overlapping
/// children are not subtracted twice.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Total self time per layer.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let own = self_times(spans);
    let mut by_layer = BTreeMap::new();
    for s in spans {
        *by_layer.entry(s.layer).or_insert(0) += own[&s.id];
    }
    by_layer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, layer: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            layer,
            op: 0,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root 0..100, child 10..60, grandchild 20..30
        let spans = [
            span(0, None, "core", 0, 100),
            span(1, Some(0), "lowering", 10, 60),
            span(2, Some(1), "tir", 20, 30),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&0], 50); // 100 - child's 50; the grandchild is the child's
        assert_eq!(own[&1], 40);
        assert_eq!(own[&2], 10);
        let by_layer = layer_self_ns(&spans);
        assert_eq!(
            by_layer["core"] + by_layer["lowering"] + by_layer["tir"],
            100
        );
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        // children 10..50 and 30..70 overlap; a third sticks out past the
        // parent's end and one lies inside another entirely
        let spans = [
            span(0, None, "serve", 0, 100),
            span(1, Some(0), "tir", 10, 50),
            span(2, Some(0), "tir", 30, 70),
            span(3, Some(0), "tir", 90, 130),
            span(4, Some(0), "tir", 35, 45),
        ];
        let own = self_times(&spans);
        // covered: 10..70 (60) + 90..100 (10)
        assert_eq!(own[&0], 30);
    }

    #[test]
    fn recorder_nests_and_merges() {
        let mut rec = Recorder::new();
        let mut other = rec.sibling(1);
        rec.span("core.compile", "gc-core", NO_OP, |r| {
            r.span("lowering.lower", "gc-lowering", NO_OP, |_| ());
        });
        let id = other.start("serve.infer", "gc-serve", 7);
        other.end(id);
        other.add_child(id, "tir.execute", "gc-tir", 7, 5, 3);
        rec.merge(other);
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[2].id, 1 << 40);
        assert_eq!(spans[3].end_ns, 5, "end is clamped to start");
        let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), 4, "ids stay unique after a merge");
        assert!(rec.last_ms("lowering.lower").is_some());
        let json = rec.to_json("w").to_json();
        assert!(Value::parse(&json).is_ok());
    }
}
