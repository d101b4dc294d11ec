//! The frame renderer: a pure `AppState → String` function.
//!
//! No terminal control codes live here — the binary wraps frames in the
//! ANSI alternate screen; this module only lays out text. That split is
//! what makes the golden-frame test possible: the same bytes render in
//! CI, in a pipe, and on an operator's terminal.

use crate::tui::state::AppState;

const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders a sparkline of `values` scaled to their own maximum, at most
/// `width` characters wide (the most recent values win when truncating).
/// All-zero (or empty) input renders as baseline blocks.
pub fn sparkline(values: &[f64], width: usize) -> String {
    if width == 0 {
        return String::new();
    }
    let tail = &values[values.len().saturating_sub(width)..];
    let max = tail.iter().copied().fold(0.0_f64, f64::max);
    tail.iter()
        .map(|&v| {
            if max <= 0.0 {
                BLOCKS[0]
            } else {
                let idx = ((v / max) * (BLOCKS.len() - 1) as f64).round() as usize;
                BLOCKS[idx.min(BLOCKS.len() - 1)]
            }
        })
        .collect()
}

/// Human-scales a bit count, matching the bench tables' convention.
fn fmt_bits(bits: u64) -> String {
    let b = bits as f64;
    if b >= 1e9 {
        format!("{:.2} Gbit", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.2} Mbit", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.2} Kbit", b / 1e3)
    } else {
        format!("{bits} bit")
    }
}

fn hit_rate(hits: u64, misses: u64) -> String {
    let total = hits + misses;
    if total == 0 {
        "n/a".to_string()
    } else {
        format!("{:.1}%", hits as f64 / total as f64 * 100.0)
    }
}

/// Clips a line to `width` characters (by chars, not bytes — sparkline
/// blocks are multi-byte) and pushes it with a trailing newline.
fn push_line(out: &mut String, width: usize, line: &str) {
    out.extend(line.chars().take(width));
    out.push('\n');
}

/// Renders one full frame at the given character width. Pure: equal
/// states render equal frames.
pub fn render(state: &AppState, width: usize) -> String {
    let mut out = String::new();
    let w = width.max(40);

    let title = if state.version_line.is_empty() {
        "intersect-top".to_string()
    } else {
        format!("intersect-top — {}", state.version_line)
    };
    let tick = format!("tick {}", state.ticks);
    let pad = w.saturating_sub(title.chars().count() + tick.len());
    push_line(&mut out, w, &format!("{title}{}{tick}", " ".repeat(pad)));
    let health = if state.scrape_failures > 0 {
        format!(
            "health: unreachable ({} failed poll(s))",
            state.scrape_failures
        )
    } else {
        format!("health: {}", state.health_line)
    };
    push_line(&mut out, w, &health);
    push_line(&mut out, w, &"─".repeat(w));

    let spark_w = w.saturating_sub(26).min(crate::tui::state::HISTORY);
    let rate = state.throughput.last().copied().unwrap_or(0.0);
    push_line(
        &mut out,
        w,
        &format!(
            "throughput {:>8.1}/s  {}",
            rate,
            sparkline(&state.throughput, spark_w)
        ),
    );
    let p99: Vec<f64> = state.p99_history.iter().map(|&v| v as f64).collect();
    push_line(
        &mut out,
        w,
        &format!(
            "p99 {:>11} us  {}",
            state.latency.p99,
            sparkline(&p99, spark_w)
        ),
    );
    push_line(
        &mut out,
        w,
        &format!(
            "latency us: p50 {}  p90 {}  p99 {}  max {}",
            state.latency.p50, state.latency.p90, state.latency.p99, state.latency.max
        ),
    );
    push_line(
        &mut out,
        w,
        &format!(
            "sessions: completed {}  failed {}  rejected {}  bits {}  workers {}",
            state.completed,
            state.failed,
            state.rejected,
            fmt_bits(state.total_bits),
            state.workers
        ),
    );
    push_line(&mut out, w, "");

    push_line(
        &mut out,
        w,
        &format!(
            "per-protocol (envelope: {} checks, {} violations)",
            state.conformance_checks, state.conformance_violations
        ),
    );
    push_line(
        &mut out,
        w,
        &format!(
            "  {:<18} {:>9} {:>12} {:>10} {:>10}",
            "protocol", "sessions", "bits", "max rounds", "violations"
        ),
    );
    if state.per_protocol.is_empty() {
        push_line(&mut out, w, "  (no sessions yet)");
    }
    for row in &state.per_protocol {
        push_line(
            &mut out,
            w,
            &format!(
                "  {:<18} {:>9} {:>12} {:>10} {:>10}",
                row.name,
                row.sessions,
                fmt_bits(row.bits),
                row.max_rounds,
                row.violations
            ),
        );
    }
    let (hits, misses, entries) = state.plan_cache;
    push_line(
        &mut out,
        w,
        &format!(
            "plan cache: {} hits / {} misses ({} hit rate), {} entries",
            hits,
            misses,
            hit_rate(hits, misses),
            entries
        ),
    );
    let (phits, pmisses, pentries) = state.pair_context;
    push_line(
        &mut out,
        w,
        &format!(
            "pair contexts: {} hits / {} misses ({} hit rate), {} entries, {} coin refills",
            phits,
            pmisses,
            hit_rate(phits, pmisses),
            pentries,
            state.coin_refills
        ),
    );
    push_line(&mut out, w, "");

    push_line(&mut out, w, "latency waterfall (mean us/session)");
    if state.waterfall.is_empty() {
        push_line(&mut out, w, "  (no segment observations yet)");
    } else {
        let max_mean = state
            .waterfall
            .iter()
            .map(|row| row.mean_micros)
            .max()
            .unwrap_or(0)
            .max(1);
        let bar_w = w.saturating_sub(34).clamp(8, 40);
        for row in &state.waterfall {
            let filled =
                ((row.mean_micros as f64 / max_mean as f64) * bar_w as f64).round() as usize;
            let line = format!(
                "  {:<14} {:>9} {}",
                row.name,
                row.mean_micros,
                "█".repeat(filled.min(bar_w)),
            );
            push_line(&mut out, w, line.trim_end());
        }
    }
    push_line(&mut out, w, "");

    push_line(
        &mut out,
        w,
        &format!(
            "multiparty sessions ({} on the wire, per-player mean {} / max {})",
            fmt_bits(state.multiparty_bits),
            fmt_bits(state.multiparty_player_mean_bits),
            fmt_bits(state.multiparty_player_max_bits),
        ),
    );
    if state.multiparty.is_empty() {
        push_line(&mut out, w, "  (no m-party sessions yet)");
    } else {
        let max_sessions = state
            .multiparty
            .iter()
            .map(|row| row.sessions)
            .max()
            .unwrap_or(0)
            .max(1);
        let bar_w = w.saturating_sub(26).clamp(8, 40);
        for row in &state.multiparty {
            let filled =
                ((row.sessions as f64 / max_sessions as f64) * bar_w as f64).round() as usize;
            let line = format!(
                "  m={:<4} {:>9} {}",
                row.m,
                row.sessions,
                "█".repeat(filled.min(bar_w)),
            );
            push_line(&mut out, w, line.trim_end());
        }
    }
    push_line(&mut out, w, "");

    if state.ring > 0 {
        push_line(
            &mut out,
            w,
            &format!("recent sessions (ring {})", state.ring),
        );
    } else {
        push_line(&mut out, w, "recent sessions");
    }
    if state.recent.is_empty() {
        push_line(&mut out, w, "  (none)");
    }
    for row in &state.recent {
        push_line(
            &mut out,
            w,
            &format!(
                "  #{:<6} {:<18} {:>12} {:>3} rounds  {}",
                row.id,
                row.protocol,
                fmt_bits(row.bits),
                row.rounds,
                if row.ok { "ok" } else { "FAIL" }
            ),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tui::scrape::Sample;

    #[test]
    fn sparkline_scales_to_its_own_maximum() {
        let s = sparkline(&[0.0, 1.0, 2.0, 4.0], 8);
        assert_eq!(s, "▁▃▅█");
        assert_eq!(sparkline(&[0.0, 0.0], 8), "▁▁");
        assert_eq!(sparkline(&[], 8), "");
        // Truncation keeps the most recent points.
        assert_eq!(sparkline(&[9.0, 1.0, 2.0], 2), "▅█");
    }

    #[test]
    fn bits_formatting_scales() {
        assert_eq!(fmt_bits(512), "512 bit");
        assert_eq!(fmt_bits(12_345), "12.35 Kbit");
        assert_eq!(fmt_bits(3_400_000), "3.40 Mbit");
        assert_eq!(fmt_bits(7_100_000_000), "7.10 Gbit");
    }

    #[test]
    fn render_is_pure_and_respects_width() {
        let mut state = AppState::default();
        let sample = Sample::from_bodies("", "{}", "{}", Some((200, "ok\n")));
        state.reduce(&sample, 1.0);
        let a = render(&state, 72);
        let b = render(&state, 72);
        assert_eq!(a, b, "equal states must render equal frames");
        assert!(a.lines().all(|l| l.chars().count() <= 72));
        assert!(a.contains("health: ok"));
    }

    #[test]
    fn render_shows_the_waterfall_pane_scaled_to_the_slowest_segment() {
        let mut state = AppState::default();
        let metrics = "engine_segment_micros_sum{segment=\"rounds-execute\"} 1000\n\
                       engine_segment_micros_count{segment=\"rounds-execute\"} 10\n\
                       engine_segment_micros_sum{segment=\"admit-queue\"} 100\n\
                       engine_segment_micros_count{segment=\"admit-queue\"} 10\n";
        let sample = Sample::from_bodies(metrics, "{}", "{}", Some((200, "ok\n")));
        state.reduce(&sample, 1.0);
        let frame = render(&state, 100);
        assert!(frame.contains("latency waterfall (mean us/session)"));
        let rounds = frame
            .lines()
            .find(|l| l.contains("rounds-execute"))
            .unwrap();
        let admit = frame.lines().find(|l| l.contains("admit-queue")).unwrap();
        let bars = |l: &str| l.chars().filter(|&c| c == '█').count();
        assert!(
            bars(rounds) > bars(admit),
            "slowest segment gets the longest bar"
        );
        // An empty waterfall renders the placeholder instead.
        let empty = render(&AppState::default(), 100);
        assert!(empty.contains("(no segment observations yet)"));
    }
}
