//! Exporters: JSONL event streams, Chrome trace-event JSON, and
//! Prometheus text exposition — all hand-rendered, keeping the crate
//! dependency-free.
//!
//! | Function | Format | Typical sink |
//! |---|---|---|
//! | [`jsonl`] | one JSON object per line | `--trace-out`, log shippers |
//! | [`chrome_trace`] | trace-event JSON array | `chrome://tracing`, Perfetto |
//! | [`prometheus`] | text exposition | `--metrics-out`, scrapers |

use crate::event::{Event, EventKind};
use crate::metrics::Metric;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders one event as a single-line JSON object (no trailing newline).
pub(crate) fn event_json(ev: &Event) -> String {
    let mut out = format!(
        "{{\"ts_us\":{},\"target\":\"{}\",\"name\":\"{}\"",
        ev.ts_micros,
        json_escape(ev.target),
        json_escape(&ev.name)
    );
    if let Some(session) = ev.session {
        let _ = write!(out, ",\"session\":{session}");
    }
    if let Some(party) = ev.party {
        let _ = write!(out, ",\"party\":\"{}\"", party.label());
    }
    if !ev.phase.is_empty() {
        let _ = write!(out, ",\"phase\":\"{}\"", json_escape(&ev.phase));
    }
    if let Some(t) = ev.trace {
        let _ = write!(
            out,
            ",\"trace\":\"{}\",\"parent_span\":\"{}\"",
            t.trace_hex(),
            t.span_hex()
        );
    }
    match ev.kind {
        EventKind::Span { dur_micros, delta } => {
            let _ = write!(out, ",\"kind\":\"span\",\"dur_us\":{dur_micros}");
            if let Some(d) = delta {
                let _ = write!(
                    out,
                    ",\"bits_sent\":{},\"bits_received\":{},\"rounds\":{}",
                    d.bits_sent, d.bits_received, d.rounds
                );
            }
        }
        EventKind::Instant => out.push_str(",\"kind\":\"instant\""),
        EventKind::Message { dir, bits, clock } => {
            let _ = write!(
                out,
                ",\"kind\":\"message\",\"dir\":\"{}\",\"bits\":{bits},\"clock\":{clock}",
                dir.label()
            );
        }
    }
    out.push('}');
    out
}

/// Renders events as a JSONL stream: one `event_json` line per event.
pub fn jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&event_json(ev));
        out.push('\n');
    }
    out
}

/// Renders events in the Chrome trace-event format (the JSON-array form),
/// loadable by `chrome://tracing` and Perfetto.
///
/// Mapping: sessions become `pid`s (unattributed events use pid 0),
/// parties become `tid`s (Alice 0, Bob 1, unattributed 2). Spans are
/// complete events (`"ph":"X"`) carrying their cost delta — and, when
/// the event was trace-attributed, the trace/parent-span hex — in
/// `args`; instants are `"ph":"i"`; messages are counter-style instants
/// with the payload size in `args`. Non-empty traces open with `"ph":"M"`
/// `process_name`/`thread_name` metadata records so stitched
/// client/server traces are labeled in the viewer.
pub fn chrome_trace(events: &[Event]) -> String {
    use std::collections::BTreeSet;
    let mut out = String::from("[");
    let mut first = true;
    // Metadata records label each (pid, tid) lane; an empty trace stays
    // exactly "[]".
    let mut pids = BTreeSet::new();
    let mut lanes = BTreeSet::new();
    for ev in events {
        let pid = ev.session.unwrap_or(0);
        pids.insert(pid);
        lanes.insert((pid, ev.party.map(|p| p.index()).unwrap_or(2)));
    }
    for pid in &pids {
        if !first {
            out.push(',');
        }
        first = false;
        let label = if *pid == 0 {
            "unattributed".to_string()
        } else {
            format!("session {pid}")
        };
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{label}\"}}}}"
        );
    }
    for (pid, tid) in &lanes {
        if !first {
            out.push(',');
        }
        first = false;
        let label = match tid {
            0 => "alice",
            1 => "bob",
            _ => "unattributed",
        };
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":\"{label}\"}}}}"
        );
    }
    for ev in events {
        if !first {
            out.push(',');
        }
        first = false;
        let pid = ev.session.unwrap_or(0);
        let tid = ev.party.map(|p| p.index()).unwrap_or(2);
        let name = json_escape(&ev.name);
        let cat = json_escape(ev.target);
        let trace_args = ev.trace.map(|t| {
            format!(
                "\"trace\":\"{}\",\"parent_span\":\"{}\"",
                t.trace_hex(),
                t.span_hex()
            )
        });
        match ev.kind {
            EventKind::Span { dur_micros, delta } => {
                // Complete events are stamped with their *start* time.
                let start = ev.ts_micros.saturating_sub(dur_micros);
                let _ = write!(
                    out,
                    "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\
                     \"ts\":{start},\"dur\":{dur_micros},\"pid\":{pid},\"tid\":{tid}"
                );
                let mut args = String::new();
                if let Some(d) = delta {
                    let _ = write!(
                        args,
                        "\"bits_sent\":{},\"bits_received\":{},\"rounds\":{}",
                        d.bits_sent, d.bits_received, d.rounds
                    );
                }
                if let Some(t) = trace_args {
                    if !args.is_empty() {
                        args.push(',');
                    }
                    args.push_str(&t);
                }
                if !args.is_empty() {
                    let _ = write!(out, ",\"args\":{{{args}}}");
                }
                out.push('}');
            }
            EventKind::Instant => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{},\"pid\":{pid},\"tid\":{tid}",
                    ev.ts_micros
                );
                if let Some(t) = trace_args {
                    let _ = write!(out, ",\"args\":{{{t}}}");
                }
                out.push('}');
            }
            EventKind::Message { dir, bits, clock } => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{},\"pid\":{pid},\"tid\":{tid},\
                     \"args\":{{\"dir\":\"{}\",\"bits\":{bits},\"clock\":{clock}",
                    ev.ts_micros,
                    dir.label()
                );
                if let Some(t) = trace_args {
                    out.push(',');
                    out.push_str(&t);
                }
                out.push_str("}}");
            }
        }
    }
    out.push(']');
    out
}

/// Splits a registry key into its base metric name and (if present) the
/// label body, i.e. `foo{a="b"}` → `("foo", Some("a=\"b\""))`.
fn split_labels(name: &str) -> (&str, Option<&str>) {
    match name.split_once('{') {
        Some((base, rest)) => (base, Some(rest.trim_end_matches('}'))),
        None => (name, None),
    }
}

/// `base` + optional suffix + optional label body + one extra label,
/// rendered as a complete sample name.
fn sample_name(
    base: &str,
    labels: Option<&str>,
    suffix: &str,
    extra: Option<(&str, &str)>,
) -> String {
    let mut out = String::with_capacity(base.len() + suffix.len() + 24);
    out.push_str(base);
    out.push_str(suffix);
    let mut body = String::new();
    if let Some(l) = labels {
        body.push_str(l);
    }
    if let Some((k, v)) = extra {
        if !body.is_empty() {
            body.push(',');
        }
        let _ = write!(body, "{k}=\"{v}\"");
    }
    if !body.is_empty() {
        out.push('{');
        out.push_str(&body);
        out.push('}');
    }
    out
}

/// Escapes a `# HELP` text: backslash and newline, per the exposition
/// format.
fn help_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Renders a metrics snapshot in the Prometheus text exposition format,
/// without `# HELP` lines. See [`prometheus_with_help`].
pub fn prometheus(metrics: &BTreeMap<String, Metric>) -> String {
    prometheus_with_help(metrics, &BTreeMap::new())
}

/// Renders a metrics snapshot in the Prometheus text exposition format.
///
/// Counters and gauges become single samples; histograms become
/// summary-style quantiles plus `_count`, `_sum`, `_min`, and `_max`
/// samples. Series whose registry key carries a label body (built with
/// [`crate::metrics::labeled`]) are grouped under their base name:
/// `# HELP` (from `help`, keyed by base name) and `# TYPE` are emitted
/// once per base name, ahead of the first series.
pub fn prometheus_with_help(
    metrics: &BTreeMap<String, Metric>,
    help: &BTreeMap<String, String>,
) -> String {
    let mut out = String::new();
    let mut last_base: Option<String> = None;
    for (name, metric) in metrics {
        let (base, labels) = split_labels(name);
        if last_base.as_deref() != Some(base) {
            if let Some(text) = help.get(base) {
                let _ = writeln!(out, "# HELP {base} {}", help_escape(text));
            }
            let kind = match metric {
                Metric::Counter(_) => "counter",
                Metric::Gauge(_) => "gauge",
                Metric::Histogram(_) => "summary",
            };
            let _ = writeln!(out, "# TYPE {base} {kind}");
            last_base = Some(base.to_string());
        }
        match metric {
            Metric::Counter(v) => {
                let _ = writeln!(out, "{} {v}", sample_name(base, labels, "", None));
            }
            Metric::Gauge(v) => {
                let _ = writeln!(out, "{} {v}", sample_name(base, labels, "", None));
            }
            Metric::Histogram(h) => {
                for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                    let _ = writeln!(
                        out,
                        "{} {}",
                        sample_name(base, labels, "", Some(("quantile", label))),
                        h.percentile(q)
                    );
                }
                let _ = writeln!(
                    out,
                    "{} {}",
                    sample_name(base, labels, "_sum", None),
                    h.sum()
                );
                let _ = writeln!(
                    out,
                    "{} {}",
                    sample_name(base, labels, "_count", None),
                    h.count()
                );
                let _ = writeln!(
                    out,
                    "{} {}",
                    sample_name(base, labels, "_min", None),
                    h.min()
                );
                let _ = writeln!(
                    out,
                    "{} {}",
                    sample_name(base, labels, "_max", None),
                    h.max()
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CostDelta, Direction, Party};
    use crate::metrics::MetricsRegistry;

    fn span_event() -> Event {
        Event {
            ts_micros: 120,
            target: "core",
            name: "verify".into(),
            session: Some(7),
            party: Some(Party::Alice),
            phase: "stage".into(),
            trace: None,
            kind: EventKind::Span {
                dur_micros: 100,
                delta: Some(CostDelta {
                    bits_sent: 64,
                    bits_received: 32,
                    rounds: 2,
                }),
            },
        }
    }

    fn message_event() -> Event {
        Event {
            ts_micros: 40,
            target: "comm",
            name: "msg".into(),
            session: None,
            party: None,
            phase: String::new(),
            trace: None,
            kind: EventKind::Message {
                dir: Direction::Sent,
                bits: 9,
                clock: 3,
            },
        }
    }

    #[test]
    fn jsonl_emits_one_line_per_event_with_all_fields() {
        let text = jsonl(&[span_event(), message_event()]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"ts_us\":120"));
        assert!(lines[0].contains("\"session\":7"));
        assert!(lines[0].contains("\"party\":\"alice\""));
        assert!(lines[0].contains("\"phase\":\"stage\""));
        assert!(lines[0].contains("\"bits_sent\":64"));
        assert!(lines[1].contains("\"kind\":\"message\""));
        assert!(lines[1].contains("\"dir\":\"sent\""));
        assert!(!lines[1].contains("session"));
    }

    #[test]
    fn json_escaping_handles_special_characters() {
        let mut ev = span_event();
        ev.name = "a\"b\\c\nd\u{1}".into();
        let line = event_json(&ev);
        assert!(line.contains("a\\\"b\\\\c\\nd\\u0001"));
    }

    #[test]
    fn chrome_trace_is_an_array_of_well_formed_records() {
        let text = chrome_trace(&[span_event(), message_event()]);
        assert!(text.starts_with('[') && text.ends_with(']'));
        // Spans are complete events stamped at their start time.
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"ts\":20,\"dur\":100"));
        assert!(text.contains("\"pid\":7,\"tid\":0"));
        // Messages are thread-scoped instants with args.
        assert!(text.contains("\"ph\":\"i\""));
        assert!(text.contains("\"args\":{\"dir\":\"sent\",\"bits\":9,\"clock\":3}"));
    }

    #[test]
    fn chrome_trace_of_nothing_is_an_empty_array() {
        assert_eq!(chrome_trace(&[]), "[]");
    }

    #[test]
    fn chrome_trace_labels_lanes_and_carries_trace_context() {
        let ctx = crate::tracing::TraceContext::mint(7, 1);
        let mut ev = span_event();
        ev.trace = Some(ctx);
        let text = chrome_trace(&[ev, message_event()]);
        // Metadata records label the session pid and each party lane.
        assert!(text.contains("\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":7"));
        assert!(text.contains("\"args\":{\"name\":\"session 7\"}"));
        assert!(text.contains("\"args\":{\"name\":\"alice\"}"));
        assert!(text.contains("\"args\":{\"name\":\"unattributed\"}"));
        // The span's args carry both the cost delta and the trace hex.
        assert!(text.contains(&format!(
            "\"rounds\":2,\"trace\":\"{}\",\"parent_span\":\"{}\"",
            ctx.trace_hex(),
            ctx.span_hex()
        )));
        // The trace-less message keeps its original args shape.
        assert!(text.contains("\"args\":{\"dir\":\"sent\",\"bits\":9,\"clock\":3}"));
    }

    #[test]
    fn event_json_carries_trace_hex_when_attributed() {
        let ctx = crate::tracing::TraceContext::mint(7, 1);
        let mut ev = span_event();
        ev.trace = Some(ctx);
        let line = event_json(&ev);
        assert!(line.contains(&format!("\"trace\":\"{}\"", ctx.trace_hex())));
        assert!(line.contains(&format!("\"parent_span\":\"{}\"", ctx.span_hex())));
        assert!(!event_json(&span_event()).contains("\"trace\""));
    }

    #[test]
    fn prometheus_renders_every_metric_kind() {
        let m = MetricsRegistry::new();
        m.counter_add("sessions_total", 3);
        m.gauge_set("in_flight", -2);
        for v in [10u64, 20, 30] {
            m.observe("latency_micros", v);
        }
        let text = prometheus(&m.snapshot());
        assert!(text.contains("# TYPE sessions_total counter\nsessions_total 3\n"));
        assert!(text.contains("# TYPE in_flight gauge\nin_flight -2\n"));
        assert!(text.contains("# TYPE latency_micros summary"));
        assert!(text.contains("latency_micros{quantile=\"0.5\"}"));
        assert!(text.contains("latency_micros_count 3"));
        assert!(text.contains("latency_micros_sum 60"));
        assert!(text.contains("latency_micros_min 10"));
        assert!(text.contains("latency_micros_max 30"));
    }

    #[test]
    fn prometheus_emits_help_lines_from_registered_descriptions() {
        let m = MetricsRegistry::new();
        m.describe("sessions_total", "sessions admitted\nsince start");
        m.counter_add("sessions_total", 3);
        m.counter_add("undocumented_total", 1);
        let text = prometheus_with_help(&m.snapshot(), &m.help_snapshot());
        assert!(text.contains("# HELP sessions_total sessions admitted\\nsince start\n"));
        assert!(text.contains("# TYPE sessions_total counter\nsessions_total 3\n"));
        // No HELP line for metrics without a description.
        assert!(!text.contains("# HELP undocumented_total"));
        assert!(text.contains("# TYPE undocumented_total counter\n"));
    }

    #[test]
    fn labeled_series_share_one_type_line_under_their_base_name() {
        use crate::metrics::labeled;
        let m = MetricsRegistry::new();
        m.describe("violations_total", "envelope violations");
        m.counter_add(&labeled("violations_total", &[("bound", "bits")]), 2);
        m.counter_add(&labeled("violations_total", &[("bound", "rounds")]), 1);
        let text = prometheus_with_help(&m.snapshot(), &m.help_snapshot());
        assert_eq!(text.matches("# TYPE violations_total counter").count(), 1);
        assert_eq!(text.matches("# HELP violations_total").count(), 1);
        assert!(text.contains("violations_total{bound=\"bits\"} 2\n"));
        assert!(text.contains("violations_total{bound=\"rounds\"} 1\n"));
    }

    #[test]
    fn label_values_survive_escaping_in_exposition() {
        use crate::metrics::labeled;
        let m = MetricsRegistry::new();
        m.counter_add(&labeled("odd_total", &[("p", "a\"b\\c\nd")]), 7);
        let text = prometheus(&m.snapshot());
        assert!(text.contains("odd_total{p=\"a\\\"b\\\\c\\nd\"} 7\n"));
    }

    #[test]
    fn labeled_histograms_merge_the_quantile_label() {
        use crate::metrics::labeled;
        let m = MetricsRegistry::new();
        let name = labeled("lat_micros", &[("protocol", "sqrt")]);
        for v in [10u64, 20, 30] {
            m.observe(&name, v);
        }
        let text = prometheus(&m.snapshot());
        assert!(text.contains("# TYPE lat_micros summary\n"));
        assert!(text.contains("lat_micros{protocol=\"sqrt\",quantile=\"0.5\"}"));
        assert!(text.contains("lat_micros_count{protocol=\"sqrt\"} 3\n"));
        assert!(text.contains("lat_micros_sum{protocol=\"sqrt\"} 60\n"));
    }
}
