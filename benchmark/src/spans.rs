//! In-memory spans for the traced run, and the self-time arithmetic the
//! waterfall is built from.

use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One call into one layer on behalf of one session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The call, e.g. `core.execute_prepared`.
    pub name: &'static str,
    /// The crate whose time this is.
    pub layer: &'static str,
    /// Index of the ladder session the call served.
    pub session: u32,
    /// Index (into the recorder) of the span one rung further out for
    /// the same session; `None` for the outermost rung.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans in memory; nothing is written until the run ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// `at` on the recorder's clock.
    pub fn at_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        layer: &'static str,
        session: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            layer,
            session,
            parent: None,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Times `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        session: u32,
        f: impl FnOnce() -> R,
    ) -> (R, u32) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        (out, self.push(name, layer, session, start, end))
    }

    pub fn set_parent(&mut self, child: u32, parent: u32) {
        self.spans[child as usize].parent = Some(parent);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }
}

/// Self time of every span: its duration minus the durations of the
/// spans that name it as parent.
///
/// The ladder's rungs run one after another, not inside each other, so a
/// child is charged by its duration rather than by its overlap with the
/// parent's interval — and a rung measured in isolation can come out
/// dearer than the share of it the outer rung really pays, which makes a
/// self time negative. It is kept signed: summed over one session's tree
/// the self times telescope to the outermost span exactly.
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut own: Vec<i64> = spans.iter().map(|s| s.duration_ns() as i64).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent as usize] -= span.duration_ns() as i64;
        }
    }
    own
}

/// One waterfall row: a span name with its mean span and mean self time
/// per session.
#[derive(Debug, Clone, PartialEq)]
pub struct WaterfallRow {
    pub name: &'static str,
    pub layer: &'static str,
    pub calls: u64,
    pub mean_span_ns: f64,
    pub mean_self_ns: f64,
}

/// Folds spans into one row per span name, outermost (longest) first.
pub fn waterfall(spans: &[Span]) -> Vec<WaterfallRow> {
    let own = self_times(spans);
    let mut rows: BTreeMap<&'static str, (&'static str, u64, u64, i64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(own) {
        let row = rows.entry(span.name).or_insert((span.layer, 0, 0, 0));
        row.1 += 1;
        row.2 += span.duration_ns();
        row.3 += own;
    }
    let mut out: Vec<WaterfallRow> = rows
        .into_iter()
        .map(|(name, (layer, calls, total, own))| WaterfallRow {
            name,
            layer,
            calls,
            mean_span_ns: total as f64 / calls as f64,
            mean_self_ns: own as f64 / calls as f64,
        })
        .collect();
    out.sort_by(|a, b| b.mean_span_ns.total_cmp(&a.mean_span_ns));
    out
}

/// For every outermost span name: calls, mean span, and the mean of the
/// self times of everything underneath it (itself included). The two
/// means agree when every child's parent link is in place; the traced run
/// prints both as its own check.
pub fn tree_totals(spans: &[Span]) -> Vec<(&'static str, u64, f64, f64)> {
    let own = self_times(spans);
    let mut totals: BTreeMap<&'static str, (u64, u64, i64)> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        let mut root = i;
        while let Some(parent) = spans[root].parent {
            root = parent as usize;
        }
        let total = totals.entry(spans[root].name).or_default();
        if root == i {
            total.0 += 1;
            total.1 += span.duration_ns();
        }
        total.2 += own[i];
    }
    totals
        .into_iter()
        .map(|(name, (calls, span, own))| {
            (
                name,
                calls,
                span as f64 / calls as f64,
                own as f64 / calls as f64,
            )
        })
        .collect()
}

/// The spans as a JSON array of `{name, layer, session, parent,
/// start_ns, end_ns}` objects.
pub fn to_json(spans: &[Span]) -> Value {
    Value::Array(
        spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("name".into(), Value::String(s.name.into())),
                    ("layer".into(), Value::String(s.layer.into())),
                    ("session".into(), Value::U64(s.session.into())),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::U64(p.into())),
                    ),
                    ("start_ns".into(), Value::U64(s.start_ns)),
                    ("end_ns".into(), Value::U64(s.end_ns)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, session: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            name,
            layer: "test",
            session,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_telescopes() {
        // net(100) ⊃ engine(70) ⊃ {input(5), exec(40) ⊃ {hops(10), codec(4)}}
        let spans = vec![
            span("net", 0, None, 0, 100),
            span("engine", 0, Some(0), 200, 270),
            span("input", 0, Some(1), 300, 305),
            span("exec", 0, Some(1), 400, 440),
            span("hops", 0, Some(3), 500, 510),
            span("codec", 0, Some(3), 600, 604),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![30, 25, 5, 26, 10, 4]);
        assert_eq!(own.iter().sum::<i64>(), 100);
    }

    #[test]
    fn a_dearer_child_makes_self_time_negative_not_wrapped() {
        let spans = vec![
            span("outer", 0, None, 0, 10),
            span("inner", 0, Some(0), 20, 35),
        ];
        assert_eq!(self_times(&spans), vec![-5, 15]);
    }

    #[test]
    fn waterfall_means_are_per_call_and_sum_to_the_top_rung() {
        let spans = vec![
            span("outer", 0, None, 0, 100),
            span("inner", 0, Some(0), 0, 60),
            span("outer", 1, None, 0, 200),
            span("inner", 1, Some(2), 0, 80),
        ];
        let rows = waterfall(&spans);
        assert_eq!(rows[0].name, "outer");
        assert_eq!(rows[0].calls, 2);
        assert_eq!(rows[0].mean_span_ns, 150.0);
        assert_eq!(rows[0].mean_self_ns, 80.0);
        assert_eq!(rows[1].mean_self_ns, 70.0);
        let total_self: f64 = rows.iter().map(|r| r.mean_self_ns).sum();
        assert_eq!(total_self, rows[0].mean_span_ns);
    }

    #[test]
    fn tree_totals_follow_parent_links_to_the_root() {
        let spans = vec![
            span("net", 0, None, 0, 100),
            span("engine", 0, Some(0), 0, 70),
            span("exec", 0, Some(1), 0, 40),
            span("mesh", 0, None, 0, 50),
            span("harness", 0, Some(3), 0, 60),
            span("orphan", 0, None, 0, 9),
        ];
        assert_eq!(
            tree_totals(&spans),
            vec![
                ("mesh", 1, 50.0, 50.0),
                ("net", 1, 100.0, 100.0),
                ("orphan", 1, 9.0, 9.0)
            ]
        );
    }

    #[test]
    fn recorder_times_and_links() {
        let mut rec = Recorder::new();
        let ((), outer) = rec.time("outer", "test", 7, || {});
        let ((), inner) = rec.time("inner", "test", 7, || {});
        rec.set_parent(inner, outer);
        assert_eq!(rec.spans()[inner as usize].parent, Some(outer));
        assert_eq!(rec.durations("inner").len(), 1);
        let json = serde_json::to_string(&to_json(rec.spans())).unwrap();
        assert!(json.contains("\"session\":7") && json.contains("\"parent\":0"));
    }
}
