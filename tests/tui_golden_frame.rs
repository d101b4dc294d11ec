//! Golden-frame test for `intersect-top`: the renderer, fed a captured
//! telemetry snapshot, must reproduce the committed frame byte for byte.
//!
//! The fixture bodies under `tests/fixtures/` stand in for the four
//! scrape endpoints; `Sample::from_bodies` builds the exact structure
//! live mode builds from HTTP, so this pins the scrape-parse → reduce →
//! render path end to end without a server or a terminal.
//!
//! To regenerate after an intentional layout change:
//! `BLESS=1 cargo test --test tui_golden_frame` and review the diff.

use intersect::tui::{render, AppState, Sample};
use std::path::Path;

const WIDTH: usize = 100;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn fixture_state() -> AppState {
    let metrics = fixture("tui_metrics.txt");
    let sessions = fixture("tui_sessions.json");
    let version = "{\"version\":\"0.1.0\",\"catalogue_size\":12,\"profile\":\"release\"}";
    let health = Some((503, "degraded: 2 conformance violation(s)\n"));
    // Two ticks so the throughput delta and sparklines have history; the
    // second sample repeats the first, so the rate settles to zero on
    // tick two (completed count unchanged) after 240/s on tick one.
    let sample = Sample::from_bodies(&metrics, &sessions, version, health);
    let mut state = AppState::default();
    state.reduce(&sample, 1.0);
    state.reduce(&sample, 1.0);
    state
}

#[test]
fn golden_frame_matches_the_committed_fixture() {
    let frame = render(&fixture_state(), WIDTH);
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/tui_frame.golden");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&golden_path, &frame).expect("write blessed golden frame");
        eprintln!("blessed {}", golden_path.display());
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden frame missing — run with BLESS=1 to create it");
    assert_eq!(
        frame, golden,
        "rendered frame diverged from tests/fixtures/tui_frame.golden; \
         if the layout change is intentional, regenerate with \
         BLESS=1 cargo test --test tui_golden_frame"
    );
}

#[test]
fn golden_frame_content_spot_checks() {
    let frame = render(&fixture_state(), WIDTH);
    // Identity and health from /version and /healthz.
    assert!(frame.contains("intersect 0.1.0 (release, catalogue 12)"));
    assert!(frame.contains("health: degraded: 2 conformance violation(s)"));
    // Session counters from /sessions.
    assert!(frame.contains("completed 240"));
    assert!(frame.contains("workers 4"));
    // Plan cache, pair contexts, and conformance from /metrics.
    assert!(frame.contains("180 hits / 20 misses (90.0% hit rate), 6 entries"));
    assert!(frame
        .contains("pair contexts: 56 hits / 8 misses (87.5% hit rate), 8 entries, 3 coin refills"));
    assert!(frame.contains("240 checks, 2 violations"));
    // Latency waterfall from the engine segment summaries: canonical
    // order, slowest segment carries the longest bar.
    assert!(frame.contains("latency waterfall (mean us/session)"));
    assert!(frame.contains("rounds-execute"));
    assert!(frame.contains("admit-queue"));
    // Multiparty pane from the multiparty_* families: rows by party
    // count with the pooled bit meters in the header.
    assert!(frame.contains("multiparty sessions (412.80 Kbit on the wire"));
    assert!(frame.contains("m=2           24"));
    assert!(frame.contains("m=8            3"));
    // Recent-session ring capacity from /sessions.
    assert!(frame.contains("recent sessions (ring 64)"));
    // Every line respects the requested width.
    assert!(frame.lines().all(|l| l.chars().count() <= WIDTH));
}

#[test]
fn frames_are_deterministic_across_renders() {
    let state = fixture_state();
    assert_eq!(render(&state, WIDTH), render(&state, WIDTH));
    assert_eq!(render(&state, 72), render(&state, 72));
}
