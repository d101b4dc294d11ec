//! The session registry: aggregate accounting for an engine run.
//!
//! Every admitted session deposits its [`CostReport`] here; the registry
//! folds them into engine-wide metrics (total bits, a rounds histogram,
//! per-protocol tallies, rejection counts) and wall-clock latency
//! percentiles. Snapshots split cleanly in two: [`EngineMetrics`] is a
//! pure function of the admitted workload — byte-identical across runs
//! and worker counts — while [`LatencySummary`] is wall-clock and
//! inherently nondeterministic. Tests that pin down engine determinism
//! compare only the former.

use intersect_comm::stats::{CostReport, NetworkReport};
use intersect_obs::LogHistogram;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Default capacity of the recently-finished-session ring retained for
/// the `/sessions` endpoint; `EngineConfig::ring` (and the
/// `intersect-serve --ring` flag) override it per engine.
const RECENT_CAP: usize = 64;

/// Aggregate communication cost of all sessions served by one protocol.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProtocolTally {
    /// Sessions completed with this protocol.
    pub sessions: u64,
    /// Total bits across those sessions.
    pub bits: u64,
    /// Worst round complexity observed.
    pub max_rounds: u64,
}

/// Deterministic engine-wide counters: a pure fold over the per-session
/// [`CostReport`]s, independent of scheduling order and worker count.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineMetrics {
    /// Sessions admitted into the queue.
    pub submitted: u64,
    /// Sessions that finished with both parties agreeing on the output.
    pub completed: u64,
    /// Sessions that finished with a protocol error.
    pub failed: u64,
    /// Sessions turned away by admission control (queue full).
    pub rejected: u64,
    /// Total bits on the wire across all finished sessions.
    pub total_bits: u64,
    /// Total messages across all finished sessions.
    pub total_messages: u64,
    /// Finished sessions by round complexity.
    pub rounds_histogram: BTreeMap<u64, u64>,
    /// Finished sessions grouped by protocol name.
    pub per_protocol: BTreeMap<String, ProtocolTally>,
    /// Finished m-party sessions keyed by party count `m` (two-party
    /// sessions are not counted here; `m = 2` means an engine-hosted
    /// multiparty session that happens to have two players).
    #[serde(default)]
    pub multiparty_sessions: BTreeMap<u64, u64>,
}

/// Wall-clock latency percentiles over finished sessions, in microseconds
/// from admission to outcome. Nondeterministic by nature; kept separate
/// from [`EngineMetrics`] so determinism tests can ignore it.
///
/// Percentiles come from a streaming [`LogHistogram`] rather than an
/// exact sort: constant memory however many sessions run, at most 6.25 %
/// overshoot per quantile, and `min`/`max` stay exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Fastest session.
    pub min_micros: u64,
    /// Median session latency.
    pub p50_micros: u64,
    /// 90th-percentile session latency.
    pub p90_micros: u64,
    /// 99th-percentile session latency.
    pub p99_micros: u64,
    /// Slowest session.
    pub max_micros: u64,
}

/// A one-line record of a finished session, retained in a bounded ring
/// for live introspection (`/sessions`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct SessionSummary {
    /// Client-assigned session id.
    pub id: u64,
    /// Display name of the protocol that served it.
    pub protocol: String,
    /// Total bits on the wire.
    pub bits: u64,
    /// Round complexity.
    pub rounds: u64,
    /// Admission-to-outcome latency in microseconds.
    pub latency_micros: u64,
    /// `true` iff both parties finished and agreed.
    pub ok: bool,
}

/// A point-in-time view of an engine's accounting.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EngineSnapshot {
    /// Size of the worker pool that produced the snapshot.
    pub workers: u64,
    /// Deterministic aggregate counters.
    pub metrics: EngineMetrics,
    /// Wall-clock latency percentiles.
    pub latency: LatencySummary,
}

impl EngineSnapshot {
    /// Renders the snapshot as aligned markdown tables (the same layout
    /// conventions as the experiment reports in `intersect-bench`).
    pub fn to_markdown(&self) -> String {
        let m = &self.metrics;
        let mut out = format!("### engine snapshot — {} workers\n\n", self.workers);
        out.push_str(&render_table(
            &[
                "submitted",
                "completed",
                "failed",
                "rejected",
                "total bits",
                "messages",
            ],
            &[vec![
                m.submitted.to_string(),
                m.completed.to_string(),
                m.failed.to_string(),
                m.rejected.to_string(),
                m.total_bits.to_string(),
                m.total_messages.to_string(),
            ]],
        ));
        out.push('\n');
        out.push_str(&render_table(
            &["protocol", "sessions", "bits", "max rounds"],
            &m.per_protocol
                .iter()
                .map(|(name, t)| {
                    vec![
                        name.clone(),
                        t.sessions.to_string(),
                        t.bits.to_string(),
                        t.max_rounds.to_string(),
                    ]
                })
                .collect::<Vec<_>>(),
        ));
        out.push('\n');
        out.push_str(&render_table(
            &["rounds", "sessions"],
            &m.rounds_histogram
                .iter()
                .map(|(rounds, count)| vec![rounds.to_string(), count.to_string()])
                .collect::<Vec<_>>(),
        ));
        if !m.multiparty_sessions.is_empty() {
            out.push('\n');
            out.push_str(&render_table(
                &["players (m)", "sessions"],
                &m.multiparty_sessions
                    .iter()
                    .map(|(players, count)| vec![players.to_string(), count.to_string()])
                    .collect::<Vec<_>>(),
            ));
        }
        out.push('\n');
        out.push_str(&render_table(
            &["latency min", "p50", "p90", "p99", "max"],
            &[vec![
                format!("{}µs", self.latency.min_micros),
                format!("{}µs", self.latency.p50_micros),
                format!("{}µs", self.latency.p90_micros),
                format!("{}µs", self.latency.p99_micros),
                format!("{}µs", self.latency.max_micros),
            ]],
        ));
        out
    }

    /// Renders the snapshot as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot is serializable")
    }
}

/// Right-aligned markdown table, matching `intersect-bench`'s layout.
fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = *w))
            .collect();
        format!("| {} |\n", padded.join(" | "))
    };
    let mut out = fmt_row(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    out.push_str(&fmt_row(
        &widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>(),
    ));
    for row in rows {
        out.push_str(&fmt_row(row));
    }
    out
}

/// Thread-safe accumulator shared by the dispatcher and the workers.
#[derive(Debug, Default)]
pub(crate) struct Registry {
    inner: Mutex<RegistryInner>,
}

#[derive(Debug)]
struct RegistryInner {
    metrics: EngineMetrics,
    latency: LogHistogram,
    recent: VecDeque<SessionSummary>,
    recent_cap: usize,
}

impl Default for RegistryInner {
    fn default() -> Self {
        RegistryInner {
            metrics: EngineMetrics::default(),
            latency: LogHistogram::default(),
            recent: VecDeque::new(),
            recent_cap: RECENT_CAP,
        }
    }
}

impl Registry {
    /// A registry whose recent-session ring holds `cap` entries
    /// (clamped to at least 1).
    pub(crate) fn with_capacity(cap: usize) -> Registry {
        let registry = Registry::default();
        registry.lock().recent_cap = cap.max(1);
        registry
    }

    /// The recent-session ring's capacity.
    pub(crate) fn recent_capacity(&self) -> usize {
        self.lock().recent_cap
    }

    pub(crate) fn record_submitted(&self) {
        self.lock().metrics.submitted += 1;
    }

    pub(crate) fn record_rejected(&self) {
        self.lock().metrics.rejected += 1;
    }

    pub(crate) fn record_outcome(
        &self,
        id: u64,
        protocol_name: &str,
        report: &CostReport,
        succeeded: bool,
        latency_micros: u64,
    ) {
        let cost = (report.total_bits(), report.messages, report.rounds);
        self.fold(id, protocol_name, cost, None, succeeded, latency_micros);
    }

    /// Folds one finished m-party session: the aggregate counters see it
    /// like any other session (bits, messages, rounds, per-protocol
    /// tally under the `mp/*` name), plus the m-keyed session count.
    pub(crate) fn record_multiparty(
        &self,
        id: u64,
        protocol_name: &str,
        players: usize,
        report: &NetworkReport,
        succeeded: bool,
        latency_micros: u64,
    ) {
        let cost = (report.total_bits(), report.messages, report.rounds);
        self.fold(
            id,
            protocol_name,
            cost,
            Some(players),
            succeeded,
            latency_micros,
        );
    }

    /// Folds one finished session of `(bits, messages, rounds)` into the
    /// counters, the latency histogram and the recent ring.
    fn fold(
        &self,
        id: u64,
        protocol_name: &str,
        (bits, messages, rounds): (u64, u64, u64),
        players: Option<usize>,
        succeeded: bool,
        latency_micros: u64,
    ) {
        let mut inner = self.lock();
        let m = &mut inner.metrics;
        if succeeded {
            m.completed += 1;
        } else {
            m.failed += 1;
        }
        m.total_bits += bits;
        m.total_messages += messages;
        *m.rounds_histogram.entry(rounds).or_insert(0) += 1;
        // A name is copied on a protocol's first session only.
        let bump = |tally: &mut ProtocolTally| {
            tally.sessions += 1;
            tally.bits += bits;
            tally.max_rounds = tally.max_rounds.max(rounds);
        };
        match m.per_protocol.get_mut(protocol_name) {
            Some(tally) => bump(tally),
            None => bump(m.per_protocol.entry(protocol_name.to_string()).or_default()),
        }
        if let Some(players) = players {
            *m.multiparty_sessions.entry(players as u64).or_insert(0) += 1;
        }
        inner.latency.record(latency_micros);
        // A full ring hands its oldest summary's string to the newest.
        let mut protocol = String::new();
        while inner.recent.len() >= inner.recent_cap {
            protocol = inner
                .recent
                .pop_front()
                .map_or(protocol, |oldest| oldest.protocol);
        }
        protocol.clear();
        protocol.push_str(protocol_name);
        inner.recent.push_back(SessionSummary {
            id,
            protocol,
            bits,
            rounds,
            latency_micros,
            ok: succeeded,
        });
    }

    pub(crate) fn recent(&self) -> Vec<SessionSummary> {
        self.lock().recent.iter().cloned().collect()
    }

    pub(crate) fn snapshot(&self, workers: u64) -> EngineSnapshot {
        let inner = self.lock();
        let h = &inner.latency;
        EngineSnapshot {
            workers,
            metrics: inner.metrics.clone(),
            latency: LatencySummary {
                min_micros: h.min(),
                p50_micros: h.percentile(0.50),
                p90_micros: h.percentile(0.90),
                p99_micros: h.percentile(0.99),
                max_micros: h.max(),
            },
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        self.inner.lock().expect("registry poisoned")
    }
}

/// A cloneable, `'static` handle onto a running (or finished) engine's
/// registry: the snapshot API the telemetry plane scrapes while workers
/// are still serving. Obtained from `Engine::watch`; stays valid after
/// `Engine::finish` consumes the engine itself.
#[derive(Debug, Clone)]
pub struct EngineWatch {
    pub(crate) registry: Arc<Registry>,
    pub(crate) workers: u64,
}

impl EngineWatch {
    /// A live [`EngineSnapshot`] (sessions may still be in flight).
    pub fn snapshot(&self) -> EngineSnapshot {
        self.registry.snapshot(self.workers)
    }

    /// The most recently finished sessions, oldest first (bounded ring).
    pub(crate) fn recent_sessions(&self) -> Vec<SessionSummary> {
        self.registry.recent()
    }

    /// The recent-session ring's capacity (`EngineConfig::ring`).
    pub fn ring(&self) -> usize {
        self.registry.recent_capacity()
    }

    /// The `/sessions` document: the live snapshot, the configured ring
    /// capacity, and the recent-session ring, as pretty-printed JSON.
    pub fn sessions_json(&self) -> String {
        #[derive(Serialize)]
        struct SessionsDoc {
            snapshot: EngineSnapshot,
            ring: usize,
            recent: Vec<SessionSummary>,
        }
        serde_json::to_string_pretty(&SessionsDoc {
            snapshot: self.snapshot(),
            ring: self.ring(),
            recent: self.recent_sessions(),
        })
        .expect("sessions document is serializable")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report(bits: u64, rounds: u64) -> CostReport {
        CostReport {
            bits_alice: bits / 2,
            bits_bob: bits - bits / 2,
            messages: rounds,
            rounds,
        }
    }

    #[test]
    fn registry_folds_outcomes_into_metrics() {
        let reg = Registry::default();
        for _ in 0..3 {
            reg.record_submitted();
        }
        reg.record_rejected();
        reg.record_outcome(0, "tree(r=2)", &sample_report(100, 6), true, 40);
        reg.record_outcome(1, "tree(r=2)", &sample_report(50, 8), true, 10);
        reg.record_outcome(2, "sqrt-fknn", &sample_report(30, 40), false, 90);
        let snap = reg.snapshot(4);
        assert_eq!(snap.workers, 4);
        assert_eq!(snap.metrics.submitted, 3);
        assert_eq!(snap.metrics.rejected, 1);
        assert_eq!(snap.metrics.completed, 2);
        assert_eq!(snap.metrics.failed, 1);
        assert_eq!(snap.metrics.total_bits, 180);
        assert_eq!(snap.metrics.rounds_histogram[&6], 1);
        assert_eq!(snap.metrics.rounds_histogram[&8], 1);
        let tree = &snap.metrics.per_protocol["tree(r=2)"];
        assert_eq!(tree.sessions, 2);
        assert_eq!(tree.bits, 150);
        assert_eq!(tree.max_rounds, 8);
        // Histogram percentiles: exact at the edges (min/max), within one
        // sub-bucket elsewhere (40 lands in the [40, 42) bucket → 41).
        assert_eq!(snap.latency.min_micros, 10);
        assert_eq!(snap.latency.p50_micros, 41);
        assert_eq!(snap.latency.p90_micros, 90);
        assert_eq!(snap.latency.p99_micros, 90);
        assert_eq!(snap.latency.max_micros, 90);
    }

    #[test]
    fn registry_folds_multiparty_outcomes() {
        let reg = Registry::default();
        let report = NetworkReport {
            bits_sent: vec![40, 30, 20, 10],
            bits_received: vec![25, 25, 25, 25],
            messages: 12,
            rounds: 5,
        };
        reg.record_multiparty(9, "mp/average", 4, &report, true, 33);
        reg.record_multiparty(10, "mp/average", 4, &report, false, 35);
        let snap = reg.snapshot(2);
        assert_eq!(snap.metrics.completed, 1);
        assert_eq!(snap.metrics.failed, 1);
        assert_eq!(snap.metrics.total_bits, 200);
        assert_eq!(snap.metrics.total_messages, 24);
        assert_eq!(snap.metrics.rounds_histogram[&5], 2);
        assert_eq!(snap.metrics.multiparty_sessions[&4], 2);
        assert_eq!(snap.metrics.per_protocol["mp/average"].sessions, 2);
        assert!(snap.to_markdown().contains("players (m)"));
        let back: EngineSnapshot = serde_json::from_str(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn empty_snapshot_is_safe() {
        let snap = Registry::default().snapshot(1);
        assert_eq!(snap.latency, LatencySummary::default());
        assert!(snap.to_markdown().contains("| 0 |") || snap.to_markdown().contains("0"));
    }

    #[test]
    fn recent_ring_is_bounded_and_ordered() {
        let reg = Registry::default();
        for id in 0..(RECENT_CAP as u64 + 10) {
            reg.record_outcome(id, "trivial", &sample_report(10, 2), true, 1);
        }
        let recent = reg.recent();
        assert_eq!(recent.len(), RECENT_CAP);
        assert_eq!(recent.first().unwrap().id, 10); // oldest evicted
        assert_eq!(recent.last().unwrap().id, RECENT_CAP as u64 + 9);
    }

    #[test]
    fn ring_capacity_is_configurable_and_clamped() {
        let reg = Registry::with_capacity(3);
        assert_eq!(reg.recent_capacity(), 3);
        for id in 0..8 {
            reg.record_outcome(id, "trivial", &sample_report(10, 2), true, 1);
        }
        let recent = reg.recent();
        assert_eq!(recent.len(), 3);
        assert_eq!(recent.first().unwrap().id, 5);
        assert_eq!(Registry::with_capacity(0).recent_capacity(), 1);
    }

    #[test]
    fn watch_serves_live_snapshots_and_sessions_json() {
        let registry = Arc::new(Registry::default());
        let watch = EngineWatch {
            registry: Arc::clone(&registry),
            workers: 4,
        };
        registry.record_submitted();
        registry.record_outcome(7, "sqrt-fknn", &sample_report(96, 30), true, 55);
        assert_eq!(watch.snapshot().metrics.completed, 1);
        assert_eq!(watch.recent_sessions()[0].id, 7);
        let json = watch.sessions_json();
        let doc: serde_json::Value = serde_json::from_str(&json).unwrap();
        let snapshot = doc.get("snapshot").expect("snapshot field");
        assert_eq!(snapshot.get("workers").unwrap().as_u64(), Some(4));
        assert_eq!(doc.get("ring").unwrap().as_u64(), Some(64));
        let recent = match doc.get("recent").expect("recent field") {
            serde_json::Value::Array(items) => items,
            other => panic!("recent is not an array: {other:?}"),
        };
        assert_eq!(recent.len(), 1);
        assert_eq!(
            recent[0].get("protocol").unwrap().as_str(),
            Some("sqrt-fknn")
        );
        assert_eq!(recent[0].get("bits").unwrap().as_u64(), Some(96));
        assert!(matches!(
            recent[0].get("ok"),
            Some(serde_json::Value::Bool(true))
        ));
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let reg = Registry::default();
        reg.record_submitted();
        reg.record_outcome(0, "trivial", &sample_report(64, 2), true, 5);
        let snap = reg.snapshot(2);
        let json = snap.to_json();
        let back: EngineSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn markdown_tables_are_aligned() {
        let reg = Registry::default();
        reg.record_submitted();
        reg.record_outcome(0, "tree(r=2)", &sample_report(12345, 6), true, 77);
        let md = reg.snapshot(8).to_markdown();
        assert!(md.starts_with("### engine snapshot — 8 workers"));
        // Within each table, all pipe-rows have equal width (in chars:
        // the formatter pads by char count, and "µ" is two bytes).
        for block in md.split("\n\n").filter(|b| b.contains('|')) {
            let lens: Vec<usize> = block
                .lines()
                .filter(|l| l.starts_with('|'))
                .map(|l| l.chars().count())
                .collect();
            assert!(lens.windows(2).all(|w| w[0] == w[1]), "misaligned: {block}");
        }
    }
}
