//! Named counters, gauges, and histograms.

use crate::histogram::LogHistogram;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Escapes a string for use as a Prometheus label *value*: backslash,
/// double quote, and newline must be escaped per the text exposition
/// format.
pub(crate) fn label_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Builds a fully-labeled series name — `base{k1="v1",k2="v2"}` — with
/// label values escaped via `label_escape`. Labeled series live in the
/// registry under this full name; the Prometheus exporter groups them
/// back under their base name for `# HELP`/`# TYPE` lines.
///
/// # Examples
///
/// ```
/// use intersect_obs::metrics::labeled;
///
/// let name = labeled("violations_total", &[("protocol", "tree(r=2)"), ("bound", "bits")]);
/// assert_eq!(name, "violations_total{protocol=\"tree(r=2)\",bound=\"bits\"}");
/// ```
pub fn labeled(base: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return base.to_string();
    }
    let mut out = String::with_capacity(base.len() + 16 * labels.len());
    out.push_str(base);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&label_escape(v));
        out.push('"');
    }
    out.push('}');
    out
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// A monotonically increasing count.
    Counter(u64),
    /// A value that goes up and down (queue depth, in-flight sessions).
    Gauge(i64),
    /// A streaming distribution (latencies, message sizes).
    Histogram(LogHistogram),
}

/// A thread-safe registry of named metrics.
///
/// Names follow Prometheus conventions (`snake_case`, `_total` suffix for
/// counters, unit suffixes like `_micros`); the text exposition in
/// [`crate::export::prometheus`] renders them directly.
///
/// # Examples
///
/// ```
/// use intersect_obs::MetricsRegistry;
///
/// let m = MetricsRegistry::new();
/// m.counter_add("sessions_total", 2);
/// m.gauge_set("in_flight", 5);
/// m.gauge_add("in_flight", -1);
/// m.observe("latency_micros", 120);
/// assert_eq!(m.counter("sessions_total"), 2);
/// assert_eq!(m.gauge("in_flight"), 4);
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, Metric>>,
    help: Mutex<BTreeMap<String, String>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        self.inner.lock().expect("metrics registry poisoned")
    }

    /// Registers a `# HELP` description for a metric's *base* name (no
    /// labels). The Prometheus exporter emits it ahead of the `# TYPE`
    /// line for every series sharing that base name.
    pub fn describe(&self, base_name: &str, help: &str) {
        self.help
            .lock()
            .expect("metrics help poisoned")
            .insert(base_name.to_string(), help.to_string());
    }

    /// A point-in-time copy of every registered help text, keyed by base
    /// metric name.
    pub fn help_snapshot(&self) -> BTreeMap<String, String> {
        self.help.lock().expect("metrics help poisoned").clone()
    }

    /// Adds to a counter, creating it at zero on first use.
    pub fn counter_add(&self, name: &str, v: u64) {
        let mut map = self.lock();
        match map.entry(name.to_string()).or_insert(Metric::Counter(0)) {
            Metric::Counter(c) => *c += v,
            other => debug_assert!(false, "{name} is not a counter: {other:?}"),
        }
    }

    /// Sets a gauge to an absolute value.
    pub fn gauge_set(&self, name: &str, v: i64) {
        self.lock().insert(name.to_string(), Metric::Gauge(v));
    }

    /// Adjusts a gauge by a signed delta, creating it at zero on first use.
    pub fn gauge_add(&self, name: &str, d: i64) {
        let mut map = self.lock();
        match map.entry(name.to_string()).or_insert(Metric::Gauge(0)) {
            Metric::Gauge(g) => *g += d,
            other => debug_assert!(false, "{name} is not a gauge: {other:?}"),
        }
    }

    /// Records one sample into a histogram, creating it on first use.
    pub fn observe(&self, name: &str, value: u64) {
        let mut map = self.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(LogHistogram::new()))
        {
            Metric::Histogram(h) => h.record(value),
            other => debug_assert!(false, "{name} is not a histogram: {other:?}"),
        }
    }

    /// Reads a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        match self.lock().get(name) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Reads a gauge (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        match self.lock().get(name) {
            Some(Metric::Gauge(g)) => *g,
            _ => 0,
        }
    }

    /// Clones a histogram out of the registry, when present.
    pub fn histogram(&self, name: &str) -> Option<LogHistogram> {
        match self.lock().get(name) {
            Some(Metric::Histogram(h)) => Some(h.clone()),
            _ => None,
        }
    }

    /// A point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> BTreeMap<String, Metric> {
        self.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_and_histograms_accumulate() {
        let m = MetricsRegistry::new();
        m.counter_add("a_total", 1);
        m.counter_add("a_total", 2);
        m.gauge_add("g", 5);
        m.gauge_add("g", -2);
        m.observe("h_micros", 10);
        m.observe("h_micros", 1000);
        assert_eq!(m.counter("a_total"), 3);
        assert_eq!(m.gauge("g"), 3);
        let h = m.histogram("h_micros").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 1000);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.gauge("missing"), 0);
        assert!(m.histogram("missing").is_none());
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(label_escape(r#"a\b"c"#), r#"a\\b\"c"#);
        assert_eq!(label_escape("line\nbreak"), "line\\nbreak");
        assert_eq!(
            labeled("m_total", &[("p", "tree\"x\\y\n")]),
            "m_total{p=\"tree\\\"x\\\\y\\n\"}"
        );
        assert_eq!(labeled("m_total", &[]), "m_total");
    }

    #[test]
    fn labeled_series_are_distinct_counters() {
        let m = MetricsRegistry::new();
        m.counter_add(&labeled("v_total", &[("bound", "bits")]), 2);
        m.counter_add(&labeled("v_total", &[("bound", "rounds")]), 1);
        assert_eq!(m.counter("v_total{bound=\"bits\"}"), 2);
        assert_eq!(m.counter("v_total{bound=\"rounds\"}"), 1);
        assert_eq!(m.counter("v_total"), 0);
    }

    #[test]
    fn help_texts_are_registered_per_base_name() {
        let m = MetricsRegistry::new();
        m.describe("a_total", "things that happened");
        m.counter_add("a_total", 1);
        let help = m.help_snapshot();
        assert_eq!(help["a_total"], "things that happened");
        assert!(!help.contains_key("missing"));
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let m = MetricsRegistry::new();
        m.gauge_set("z", 1);
        m.counter_add("a_total", 1);
        let snap = m.snapshot();
        let names: Vec<&String> = snap.keys().collect();
        assert_eq!(names, ["a_total", "z"]);
    }
}
