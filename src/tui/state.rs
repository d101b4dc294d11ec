//! The dashboard's application state and its reducer.
//!
//! [`AppState::reduce`] is the only place telemetry becomes UI state:
//! it folds one [`Sample`] plus the elapsed time since the previous one
//! into counters, derived rates, and bounded history rings. It is a
//! pure function of `(state, sample, elapsed)` — no clocks, no sockets —
//! which is what makes frames reproducible from fixtures.

use crate::tui::scrape::Sample;
use serde_json::Value;

/// How many points the throughput/latency sparklines retain.
pub const HISTORY: usize = 48;

/// One protocol's row in the per-protocol panel.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolRow {
    /// Display name (registry key).
    pub name: String,
    /// Sessions served.
    pub sessions: u64,
    /// Total bits across those sessions.
    pub bits: u64,
    /// Worst observed round count.
    pub max_rounds: u64,
    /// Conformance envelope breaches attributed to this protocol.
    pub violations: u64,
}

/// Latency percentiles from the last sample, microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyView {
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Worst observed.
    pub max: u64,
}

/// One segment row of the latency-waterfall pane.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentRow {
    /// Segment name (`admit-queue`, `rounds-execute`, ...).
    pub name: String,
    /// Total microseconds attributed to this segment across sessions.
    pub total_micros: u64,
    /// Mean microseconds per observed session.
    pub mean_micros: u64,
}

/// One party-count row of the multiparty pane.
#[derive(Debug, Clone, PartialEq)]
pub struct MultipartyRow {
    /// Party count m.
    pub m: u64,
    /// Engine-hosted m-party sessions finished at this party count.
    pub sessions: u64,
}

/// A recently finished session (tail of the `/sessions` ring).
#[derive(Debug, Clone, PartialEq)]
pub struct RecentRow {
    /// Session id.
    pub id: u64,
    /// Protocol that served it.
    pub protocol: String,
    /// Bits on the wire.
    pub bits: u64,
    /// Rounds used.
    pub rounds: u64,
    /// Both parties agreed.
    pub ok: bool,
}

/// Everything the renderer draws. Updated exclusively by
/// [`reduce`](AppState::reduce).
#[derive(Debug, Clone, Default)]
pub struct AppState {
    /// Samples folded so far.
    pub ticks: u64,
    /// Consecutive polls in which no endpoint answered.
    pub scrape_failures: u64,
    /// Header identity, e.g. `intersect 0.1.0 (release, catalogue 12)`.
    pub version_line: String,
    /// `ok`, the degraded detail, or `unreachable`.
    pub health_line: String,
    /// Worker threads reported by the engine.
    pub workers: u64,
    /// Completed session count (cumulative).
    pub completed: u64,
    /// Failed session count.
    pub failed: u64,
    /// Rejected-by-admission count.
    pub rejected: u64,
    /// Total bits on the wire.
    pub total_bits: u64,
    /// Sessions/s per tick, oldest first (sparkline source).
    pub throughput: Vec<f64>,
    /// p99 latency per tick, microseconds (sparkline source).
    pub p99_history: Vec<u64>,
    /// Last sample's latency percentiles.
    pub latency: LatencyView,
    /// Per-protocol tallies, sorted by name.
    pub per_protocol: Vec<ProtocolRow>,
    /// Plan-cache counters `(hits, misses, entries)`.
    pub plan_cache: (u64, u64, u64),
    /// Pair-context cache counters `(hits, misses, entries)`.
    pub pair_context: (u64, u64, u64),
    /// Pair coin-block refills (cumulative).
    pub coin_refills: u64,
    /// Envelope checks performed.
    pub conformance_checks: u64,
    /// Envelope breaches.
    pub conformance_violations: u64,
    /// Tail of the recent-session ring, newest last.
    pub recent: Vec<RecentRow>,
    /// Recent-outcome ring capacity reported by `/sessions`.
    pub ring: u64,
    /// Latency waterfall: engine segment attribution in canonical
    /// segment order, empty until segment histograms appear.
    pub waterfall: Vec<SegmentRow>,
    /// Multiparty sessions by party count, sorted by m; empty until the
    /// first m-party session finishes.
    pub multiparty: Vec<MultipartyRow>,
    /// Total bits across all multiparty sessions.
    pub multiparty_bits: u64,
    /// Mean per-player bits (sent + received) per multiparty session.
    pub multiparty_player_mean_bits: u64,
    /// Worst per-player bits observed in any multiparty session.
    pub multiparty_player_max_bits: u64,
}

fn as_u64(v: &Value) -> u64 {
    v.as_u64().unwrap_or(0)
}

impl AppState {
    /// Folds one sample into the state. `elapsed_secs` is the wall time
    /// since the previous sample (used only for the throughput rate);
    /// pass any fixed positive value when replaying fixtures.
    pub fn reduce(&mut self, sample: &Sample, elapsed_secs: f64) {
        self.ticks += 1;
        if !sample.reachable {
            self.scrape_failures += 1;
            self.health_line = "unreachable".to_string();
            // Telemetry gone: the rate is unknown, not zero-and-flat.
            push_capped(&mut self.throughput, 0.0);
            push_capped(&mut self.p99_history, 0);
            return;
        }
        self.scrape_failures = 0;

        if let Some(v) = &sample.version {
            self.version_line = format!(
                "intersect {} ({}, catalogue {})",
                v["version"].as_str().unwrap_or("?"),
                v["profile"].as_str().unwrap_or("?"),
                as_u64(&v["catalogue_size"]),
            );
        }
        self.health_line = match &sample.health {
            Some((200, _)) => "ok".to_string(),
            Some((_, body)) => body
                .lines()
                .collect::<Vec<_>>()
                .join("; ")
                .trim()
                .to_string(),
            None => "unknown".to_string(),
        };

        if let Some(doc) = &sample.sessions {
            self.ring = as_u64(&doc["ring"]);
            let snap = &doc["snapshot"];
            let metrics = &snap["metrics"];
            self.workers = as_u64(&snap["workers"]);
            let completed = as_u64(&metrics["completed"]);
            let rate = (completed.saturating_sub(self.completed)) as f64 / elapsed_secs.max(1e-9);
            push_capped(&mut self.throughput, rate);
            self.completed = completed;
            self.failed = as_u64(&metrics["failed"]);
            self.rejected = as_u64(&metrics["rejected"]);
            self.total_bits = as_u64(&metrics["total_bits"]);
            let latency = &snap["latency"];
            self.latency = LatencyView {
                p50: as_u64(&latency["p50_micros"]),
                p90: as_u64(&latency["p90_micros"]),
                p99: as_u64(&latency["p99_micros"]),
                max: as_u64(&latency["max_micros"]),
            };
            push_capped(&mut self.p99_history, self.latency.p99);

            self.per_protocol = metrics["per_protocol"]
                .as_object()
                .map(|map| {
                    map.iter()
                        .map(|(name, tally)| ProtocolRow {
                            name: name.clone(),
                            sessions: as_u64(&tally["sessions"]),
                            bits: as_u64(&tally["bits"]),
                            max_rounds: as_u64(&tally["max_rounds"]),
                            violations: protocol_violations(sample, name),
                        })
                        .collect()
                })
                .unwrap_or_default();

            self.recent = doc["recent"]
                .as_array()
                .map(|rows| {
                    rows.iter()
                        .rev()
                        .take(5)
                        .rev()
                        .map(|r| RecentRow {
                            id: as_u64(&r["id"]),
                            protocol: r["protocol"].as_str().unwrap_or("?").to_string(),
                            bits: as_u64(&r["bits"]),
                            rounds: as_u64(&r["rounds"]),
                            ok: r["ok"].as_bool().unwrap_or(false),
                        })
                        .collect()
                })
                .unwrap_or_default();
        }

        self.plan_cache = (
            sample.metric("engine_plan_cache_hits") as u64,
            sample.metric("engine_plan_cache_misses") as u64,
            sample.metric("engine_plan_cache_entries") as u64,
        );
        self.pair_context = (
            sample.metric("pair_context_hits") as u64,
            sample.metric("pair_context_misses") as u64,
            sample.metric("pair_context_entries") as u64,
        );
        self.coin_refills = sample.metric("coin_block_refills_total") as u64;

        // Latency waterfall: the engine's per-segment summaries, in the
        // canonical segment order so the pane reads top-to-bottom as a
        // session's life. Absent until the first segment observation.
        self.waterfall = intersect_engine::timeline::SEGMENTS
            .iter()
            .filter_map(|segment| {
                let sum = sample.metric(&format!(
                    "engine_segment_micros_sum{{segment=\"{segment}\"}}"
                ));
                let count = sample.metric(&format!(
                    "engine_segment_micros_count{{segment=\"{segment}\"}}"
                ));
                (count > 0.0).then(|| SegmentRow {
                    name: segment.to_string(),
                    total_micros: sum as u64,
                    mean_micros: (sum / count) as u64,
                })
            })
            .collect();
        // Multiparty pane: sessions by party count (labelled counter)
        // plus the pooled bit meters from the engine's m-party path.
        self.multiparty = sample
            .metrics
            .iter()
            .filter_map(|(key, value)| {
                let m = key
                    .strip_prefix("multiparty_sessions_total{m=\"")?
                    .strip_suffix("\"}")?;
                Some(MultipartyRow {
                    m: m.parse().ok()?,
                    sessions: *value as u64,
                })
            })
            .collect();
        self.multiparty.sort_by_key(|row| row.m);
        self.multiparty_bits = sample.metric("multiparty_bits_total") as u64;
        let player_sum = sample.metric("multiparty_player_bits_sum");
        let player_count = sample.metric("multiparty_player_bits_count");
        self.multiparty_player_mean_bits = if player_count > 0.0 {
            (player_sum / player_count) as u64
        } else {
            0
        };
        self.multiparty_player_max_bits = sample.metric("multiparty_player_bits_max") as u64;
        self.conformance_checks = sample.metric_sum("conformance_checks_total") as u64;
        self.conformance_violations = sample.metric_sum("conformance_violations_total") as u64;
    }
}

/// Conformance breaches attributed to one protocol, summed over bounds.
fn protocol_violations(sample: &Sample, protocol: &str) -> u64 {
    let prefix = format!("conformance_violations_total{{protocol=\"{protocol}\"");
    sample
        .metrics
        .iter()
        .filter(|(k, _)| k.starts_with(&prefix))
        .map(|(_, v)| *v as u64)
        .sum()
}

fn push_capped<T>(history: &mut Vec<T>, value: T) {
    history.push(value);
    if history.len() > HISTORY {
        history.remove(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sessions_doc(completed: u64, p99: u64) -> String {
        format!(
            "{{\"snapshot\":{{\"workers\":4,\"metrics\":{{\"submitted\":{c},\
             \"completed\":{c},\"failed\":0,\"rejected\":0,\"total_bits\":12345,\
             \"total_messages\":99,\"rounds_histogram\":{{}},\
             \"per_protocol\":{{\"sqrt-fknn\":{{\"sessions\":{c},\"bits\":12345,\
             \"max_rounds\":40}}}}}},\"latency\":{{\"min_micros\":10,\
             \"p50_micros\":100,\"p90_micros\":200,\"p99_micros\":{p99},\
             \"max_micros\":900}}}},\"recent\":[{{\"id\":7,\
             \"protocol\":\"sqrt-fknn\",\"bits\":512,\"rounds\":40,\
             \"latency_micros\":88,\"ok\":true}}]}}",
            c = completed,
            p99 = p99,
        )
    }

    #[test]
    fn reduce_computes_throughput_from_completed_deltas() {
        let mut state = AppState::default();
        let s1 = Sample::from_bodies("", &sessions_doc(100, 500), "{}", Some((200, "ok\n")));
        let s2 = Sample::from_bodies("", &sessions_doc(150, 700), "{}", Some((200, "ok\n")));
        state.reduce(&s1, 1.0);
        state.reduce(&s2, 2.0);
        assert_eq!(state.ticks, 2);
        assert_eq!(state.completed, 150);
        assert_eq!(state.throughput, vec![100.0, 25.0]);
        assert_eq!(state.p99_history, vec![500, 700]);
        assert_eq!(state.latency.p99, 700);
        assert_eq!(state.per_protocol.len(), 1);
        assert_eq!(state.per_protocol[0].sessions, 150);
        assert_eq!(state.recent.len(), 1);
        assert!(state.recent[0].ok);
        assert_eq!(state.health_line, "ok");
    }

    #[test]
    fn unreachable_samples_count_failures_without_clearing_state() {
        let mut state = AppState::default();
        let live = Sample::from_bodies("", &sessions_doc(10, 100), "{}", Some((200, "ok\n")));
        state.reduce(&live, 1.0);
        let dead = Sample::default();
        state.reduce(&dead, 1.0);
        state.reduce(&dead, 1.0);
        assert_eq!(state.scrape_failures, 2);
        assert_eq!(state.health_line, "unreachable");
        assert_eq!(state.completed, 10, "stale data beats no data");
        assert_eq!(state.throughput.len(), 3);
    }

    #[test]
    fn cache_and_conformance_metrics_flow_through() {
        let mut state = AppState::default();
        let metrics = "engine_plan_cache_hits 90\nengine_plan_cache_misses 10\n\
                       engine_plan_cache_entries 4\n\
                       pair_context_hits 30\npair_context_misses 6\n\
                       pair_context_entries 3\ncoin_block_refills_total 2\n\
                       conformance_checks_total 100\n\
                       conformance_violations_total{protocol=\"sqrt-fknn\",bound=\"bits\"} 3\n";
        let sample = Sample::from_bodies(
            metrics,
            &sessions_doc(5, 50),
            "{\"version\":\"0.1.0\",\"catalogue_size\":12,\"profile\":\"release\"}",
            Some((503, "degraded: 3 conformance violation(s)\n")),
        );
        state.reduce(&sample, 1.0);
        assert_eq!(state.plan_cache, (90, 10, 4));
        assert_eq!(state.pair_context, (30, 6, 3));
        assert_eq!(state.coin_refills, 2);
        assert_eq!(state.conformance_violations, 3);
        assert_eq!(state.per_protocol[0].violations, 3);
        assert_eq!(
            state.version_line,
            "intersect 0.1.0 (release, catalogue 12)"
        );
        assert_eq!(state.health_line, "degraded: 3 conformance violation(s)");
    }

    #[test]
    fn waterfall_follows_canonical_segment_order_and_ring_is_reported() {
        let mut state = AppState::default();
        let metrics = "engine_segment_micros_sum{segment=\"rounds-execute\"} 1400\n\
                       engine_segment_micros_count{segment=\"rounds-execute\"} 10\n\
                       engine_segment_micros_sum{segment=\"admit-queue\"} 200\n\
                       engine_segment_micros_count{segment=\"admit-queue\"} 10\n\
                       engine_segment_micros_sum{segment=\"drain\"} 50\n\
                       engine_segment_micros_count{segment=\"drain\"} 10\n";
        let doc = format!("{{\"ring\":16,{}", &sessions_doc(5, 50)[1..]);
        let sample = Sample::from_bodies(metrics, &doc, "{}", Some((200, "ok\n")));
        state.reduce(&sample, 1.0);
        assert_eq!(state.ring, 16);
        // Canonical order, not alphabetical; segments never observed are
        // omitted rather than rendered as zero rows.
        let names: Vec<&str> = state.waterfall.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["admit-queue", "rounds-execute", "drain"]);
        assert_eq!(state.waterfall[1].mean_micros, 140);
        assert_eq!(state.waterfall[1].total_micros, 1400);
    }

    #[test]
    fn multiparty_rows_sort_by_party_count_and_fold_bit_meters() {
        let mut state = AppState::default();
        let metrics = "multiparty_sessions_total{m=\"8\"} 3\n\
                       multiparty_sessions_total{m=\"2\"} 24\n\
                       multiparty_bits_total 412800\n\
                       multiparty_player_bits_sum 825600\n\
                       multiparty_player_bits_count 132\n\
                       multiparty_player_bits_max 9400\n";
        let sample = Sample::from_bodies(metrics, "{}", "{}", Some((200, "ok\n")));
        state.reduce(&sample, 1.0);
        let rows: Vec<(u64, u64)> = state.multiparty.iter().map(|r| (r.m, r.sessions)).collect();
        assert_eq!(
            rows,
            vec![(2, 24), (8, 3)],
            "sorted by m, not by scrape order"
        );
        assert_eq!(state.multiparty_bits, 412_800);
        assert_eq!(state.multiparty_player_mean_bits, 6254);
        assert_eq!(state.multiparty_player_max_bits, 9400);
        // No multiparty traffic: the pane's inputs reset to empty/zero.
        let quiet = Sample::from_bodies("", "{}", "{}", Some((200, "ok\n")));
        state.reduce(&quiet, 1.0);
        assert!(state.multiparty.is_empty());
        assert_eq!(state.multiparty_player_mean_bits, 0);
    }

    #[test]
    fn history_rings_stay_bounded() {
        let mut state = AppState::default();
        let sample = Sample::from_bodies("", &sessions_doc(1, 1), "{}", Some((200, "ok\n")));
        for _ in 0..(HISTORY + 20) {
            state.reduce(&sample, 1.0);
        }
        assert_eq!(state.throughput.len(), HISTORY);
        assert_eq!(state.p99_history.len(), HISTORY);
    }
}
