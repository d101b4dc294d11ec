//! Lint for the `/metrics` exposition: every series the system exports
//! under live traffic must carry `# HELP` and `# TYPE` headers for its
//! family, and no family or sample may appear twice.
//!
//! The workload below is chosen to light up every metric family the
//! serve path can emit — engine counters, plan cache, conformance, pair
//! contexts, multiparty, and the `build_info` identity gauge. A metric
//! registered without a matching `describe` call fails this test; so
//! does a `describe` for a family that no longer exists.

use intersect::engine::prelude::*;
use intersect::engine::EngineConfig;
use intersect::obs;
use intersect_core::sets::ProblemSpec;
use std::collections::BTreeSet;

/// Drives a small mixed workload with conformance armed, then renders
/// the exposition exactly as `/metrics` would.
fn live_exposition() -> String {
    let sub = obs::Subscriber::new();
    let _guard = sub.install();
    intersect::version::register_build_info();

    let mut config = EngineConfig::new(2);
    config.conformance = Some(Default::default());
    let engine = Engine::start(config);
    for id in 0..48u64 {
        let (k, overlap) = if id % 2 == 0 { (1 << 10, 0) } else { (64, 60) };
        let mut req = SessionRequest::new(id, ProblemSpec::new(1 << 30, k), overlap);
        req.seed = id + 1;
        engine.submit(req).expect("engine is accepting");
    }
    // Two stream submissions on one pair light up the pair-context
    // families (a miss, then a hit), and 80 sessions outrun the 64-seed
    // coin block so `coin_block_refills_total` fires too.
    let spec = ProblemSpec::new(1 << 16, 16);
    let stream = engine.open_stream(9);
    for round in 0..2u64 {
        let batch: Vec<SessionRequest> = (0..40)
            .map(|i| SessionRequest::new(1_000 + round * 40 + i, spec, 4))
            .collect();
        engine
            .submit_stream(stream, batch)
            .expect("stream accepted");
    }
    // A pair of m-party sessions lights up the multiparty_* families
    // (sessions-by-m counter, total bits, per-player bit summary).
    for (id, m) in [(2_000u64, 2usize), (2_001, 4)] {
        let req = intersect::engine::MultipartyRequest::new(
            id,
            spec,
            m,
            4,
            intersect::multiparty::MultipartyChoice::AverageCase,
        );
        engine.submit_multiparty(req).expect("engine is accepting");
    }
    engine.finish();

    // The flight recorder counts its dumps, so take one dump here to
    // light up `flight_recorder_dumps_total` (which `dump_jsonl`
    // self-describes on first use).
    let _ = obs::flight::dump_jsonl();

    obs::export::prometheus_with_help(&sub.metrics().snapshot(), &sub.metrics().help_snapshot())
}

/// The family a sample belongs to: its base name, except that summary
/// component samples (`X_sum`, `X_count`, `X_min`, `X_max`) belong to
/// the summary family `X` they were rendered from.
fn family_of<'a>(base: &'a str, summaries: &BTreeSet<String>) -> &'a str {
    for suffix in ["_sum", "_count", "_min", "_max"] {
        if let Some(stem) = base.strip_suffix(suffix) {
            if summaries.contains(stem) {
                return stem;
            }
        }
    }
    base
}

#[test]
fn every_exported_series_has_help_and_type_and_no_duplicates() {
    let text = live_exposition();
    assert!(!text.is_empty(), "the workload must export metrics");

    let mut helped = BTreeSet::new();
    let mut typed = BTreeSet::new();
    let mut summaries = BTreeSet::new();
    let mut samples = BTreeSet::new();

    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().expect("HELP names a family");
            assert!(helped.insert(name.to_string()), "duplicate # HELP {name}");
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("TYPE names a family");
            let kind = parts.next().expect("TYPE carries a kind");
            assert!(
                ["counter", "gauge", "summary"].contains(&kind),
                "unknown TYPE kind {kind} for {name}"
            );
            assert!(typed.insert(name.to_string()), "duplicate # TYPE {name}");
            if kind == "summary" {
                summaries.insert(name.to_string());
            }
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment: {line}");
        let key = line
            .split_whitespace()
            .next()
            .unwrap_or_else(|| panic!("malformed sample line: {line:?}"));
        assert!(samples.insert(key.to_string()), "duplicate sample {key}");

        let base = key.split('{').next().expect("split never yields empty");
        let family = family_of(base, &summaries);
        assert!(
            typed.contains(family),
            "series {key} has no # TYPE for family {family}"
        );
        assert!(
            helped.contains(family),
            "series {key} has no # HELP for family {family} — \
             register one with MetricsRegistry::describe"
        );
    }

    // No orphaned headers: every described family exported something.
    for family in &helped {
        let has_sample = samples.iter().any(|key| {
            let base = key.split('{').next().expect("non-empty");
            family_of(base, &summaries) == family.as_str()
        });
        assert!(
            has_sample,
            "# HELP {family} has no samples in this workload"
        );
    }

    // The families this PR is specifically about must be present.
    for expected in [
        "build_info",
        "conformance_checks_total",
        "pair_context_hits",
        "pair_context_misses",
        "pair_context_entries",
        "coin_block_refills_total",
        "engine_streams_opened_total",
        "trace_contexts_minted_total",
        "engine_segment_micros",
        "flight_recorder_dumps_total",
        "multiparty_sessions_total",
        "multiparty_bits_total",
        "multiparty_player_bits",
    ] {
        assert!(
            typed.contains(expected),
            "expected family {expected} missing from the exposition"
        );
    }
}

/// Label values flow into the exposition escaped per the text format:
/// backslash, double quote, and newline never break a sample line, and
/// the HELP text for the family escapes backslash and newline too.
#[test]
fn labelled_series_escape_hostile_values_in_the_exposition() {
    let sub = obs::Subscriber::new();
    let _guard = sub.install();

    obs::describe(
        "pair_context_evictions_probe",
        "Lint probe: back\\slash and\nnewline in help",
    );
    let hostile = obs::metrics::labeled(
        "pair_context_evictions_probe",
        &[("pair", "a\"b\\c\nd"), ("proto", "sqrt")],
    );
    obs::counter_add(&hostile, 3);

    let text = obs::export::prometheus_with_help(
        &sub.metrics().snapshot(),
        &sub.metrics().help_snapshot(),
    );

    // Every sample stays on one line: the newline in the label value
    // must have been escaped at registration time.
    let sample = text
        .lines()
        .find(|l| l.starts_with("pair_context_evictions_probe{"))
        .expect("labelled sample exported");
    assert_eq!(
        sample,
        "pair_context_evictions_probe{pair=\"a\\\"b\\\\c\\nd\",proto=\"sqrt\"} 3"
    );
    // HELP escapes backslash and newline (quotes are legal in HELP).
    let help = text
        .lines()
        .find(|l| l.starts_with("# HELP pair_context_evictions_probe"))
        .expect("HELP for labelled family");
    assert_eq!(
        help,
        "# HELP pair_context_evictions_probe Lint probe: back\\\\slash and\\nnewline in help"
    );
    // TYPE is emitted once for the family, keyed by base name.
    assert!(text.contains("# TYPE pair_context_evictions_probe counter"));
}
