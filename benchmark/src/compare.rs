//! The bounds of `BENCHMARK.json` applied to result files: the A/A
//! self-check (`--compare`) and the seed-to-seed spread (`--spread`).

use crate::report::{metric_value, read_json};
use crate::stats::{iqr_share, median, quartiles};
use serde_json::Value;
use std::path::Path;

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// Reads the end-to-end metrics from `BENCHMARK.json` in the current
/// directory (the repo root, where the documented command runs) or, when
/// started inside `benchmark/`, one level up.
pub fn load_spec() -> Result<Vec<MetricSpec>, String> {
    let path = ["BENCHMARK.json", "../BENCHMARK.json"]
        .iter()
        .map(Path::new)
        .find(|p| p.exists())
        .ok_or("BENCHMARK.json not found in . or ..")?;
    parse_spec(&read_json(path)?)
}

fn parse_spec(spec: &Value) -> Result<Vec<MetricSpec>, String> {
    spec["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(MetricSpec {
                name: m["name"].as_str().ok_or("metric without name")?.to_string(),
                lower_is_better: match m["better"].as_str() {
                    Some("lower") => true,
                    Some("higher") => false,
                    other => return Err(format!("metric direction {other:?}")),
                },
                bound: m["bound"].as_f64().ok_or("metric without bound")?,
            })
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The blocks inside one of the runs spread wider than the bound, so
    /// the two medians cannot be told apart at that resolution.
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a`; negative is better.
fn worsening(metric: &MetricSpec, a: f64, b: f64) -> f64 {
    let delta = if metric.lower_is_better { b - a } else { a - b };
    delta / a.abs().max(f64::MIN_POSITIVE)
}

/// Judges run `b` against run `a` of the same workload. `blocks_*` are
/// the per-block values behind each median (empty for a metric that has
/// none: those are exact or whole-run readings).
pub fn judge(
    metric: &MetricSpec,
    a: f64,
    b: f64,
    blocks_a: &[f64],
    blocks_b: &[f64],
) -> (Verdict, f64, f64) {
    let worse = worsening(metric, a, b);
    let spread = [blocks_a, blocks_b]
        .iter()
        .filter(|blocks| blocks.len() >= 2)
        .map(|blocks| iqr_share(blocks))
        .fold(0.0, f64::max);
    let verdict = if spread > metric.bound {
        // Too noisy to call — unless every block of b beats every block
        // of a, which no amount of spread explains away.
        let every_b_better = !blocks_a.is_empty()
            && blocks_b
                .iter()
                .all(|&y| blocks_a.iter().all(|&x| worsening(metric, x, y) < 0.0));
        if every_b_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else if worse > metric.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, worse, spread)
}

fn blocks(child: &Value, metric: &str) -> Vec<f64> {
    child["detail"]["blocks"][metric]
        .as_array()
        .map(|v| v.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// `--compare A B`: one row per (workload, metric). `Ok(false)` when any
/// row regressed.
pub fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let spec = load_spec()?;
    let (file_a, file_b) = (read_json(a)?, read_json(b)?);
    let mut regressed = 0;
    let mut unresolved = 0;
    println!(
        "{:<28} {:<20} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse%", "spread%", "bound%"
    );
    for (workload, entry_a) in file_a["workloads"]
        .as_object()
        .ok_or("A has no workloads")?
    {
        let (run_a, run_b) = (
            &entry_a["timed"],
            &file_b["workloads"][workload.as_str()]["timed"],
        );
        for metric in &spec {
            let (Some(va), Some(vb)) = (
                metric_value(run_a, &metric.name),
                metric_value(run_b, &metric.name),
            ) else {
                return Err(format!(
                    "{workload}/{}: missing from a result file",
                    metric.name
                ));
            };
            let (verdict, worse, spread) = judge(
                metric,
                va,
                vb,
                &blocks(run_a, &metric.name),
                &blocks(run_b, &metric.name),
            );
            match verdict {
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok => {}
            }
            println!(
                "{workload:<28} {:<20} {va:>14.4} {vb:>14.4} {:>8.2} {:>8.2} {:>6.1}  {}",
                metric.name,
                worse * 100.0,
                spread * 100.0,
                metric.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    println!("{regressed} regressed, {unresolved} unresolved");
    Ok(regressed == 0)
}

/// `--spread`: for one workload's runs on different seeds, the distance
/// between the quartiles of each metric as a share of its median — what
/// the metric's bound has to cover three times over. Returns whether
/// every gated spread does, and the rows as JSON.
pub fn spread_rows(spec: &[MetricSpec], workload: &str, runs: &[Value]) -> (bool, Value) {
    let mut all_within = true;
    let mut rows = Vec::new();
    println!("{workload}: spread over {} seeds", runs.len());
    println!(
        "  {:<20} {:>14} {:>14} {:>14} {:>8} {:>8}",
        "metric", "q1", "median", "q3", "spread%", "bound%"
    );
    for metric in spec {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| metric_value(r, &metric.name))
            .collect();
        let (q1, q3) = quartiles(&values);
        let spread = iqr_share(&values);
        // setup_s is exempt from the spread rule, not from its bound.
        let within = metric.name == "setup_s" || spread * 3.0 <= metric.bound;
        all_within &= within;
        println!(
            "  {:<20} {q1:>14.4} {:>14.4} {q3:>14.4} {:>8.2} {:>8.1}{}",
            metric.name,
            median(&values),
            spread * 100.0,
            metric.bound * 100.0,
            if within {
                ""
            } else {
                "  <- wider than a third of the bound"
            }
        );
        rows.push((
            metric.name.clone(),
            Value::Object(vec![
                (
                    "values".into(),
                    Value::Array(values.iter().map(|&v| Value::F64(v)).collect()),
                ),
                ("spread".into(), Value::F64(spread)),
                ("bound".into(), Value::F64(metric.bound)),
            ]),
        ));
    }
    (all_within, Value::Object(rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(lower_is_better: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            lower_is_better,
            bound,
        }
    }

    #[test]
    fn direction_decides_what_worse_means() {
        let latency = metric(true, 0.10);
        let throughput = metric(false, 0.10);
        assert_eq!(judge(&latency, 100.0, 109.0, &[], &[]).0, Verdict::Ok);
        assert_eq!(
            judge(&latency, 100.0, 111.0, &[], &[]).0,
            Verdict::Regressed
        );
        assert_eq!(judge(&latency, 100.0, 50.0, &[], &[]).0, Verdict::Ok);
        assert_eq!(
            judge(&throughput, 100.0, 89.0, &[], &[]).0,
            Verdict::Regressed
        );
        assert_eq!(judge(&throughput, 100.0, 120.0, &[], &[]).0, Verdict::Ok);
    }

    #[test]
    fn wide_blocks_make_a_difference_unresolved_unless_one_side_dominates() {
        let latency = metric(true, 0.10);
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            judge(&latency, 100.0, 115.0, &noisy, &[115.0; 5]).0,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(
                &latency,
                100.0,
                50.0,
                &noisy,
                &[50.0, 52.0, 48.0, 51.0, 49.0]
            )
            .0,
            Verdict::Ok
        );
        let steady = [99.0, 100.0, 101.0, 100.0, 100.0];
        assert_eq!(
            judge(&latency, 100.0, 115.0, &steady, &[115.0; 5]).0,
            Verdict::Regressed
        );
    }

    #[test]
    fn spec_parses_direction_and_bound() {
        let spec: Value = serde_json::from_str(
            r#"{"end_to_end":[{"name":"a","unit":"s","better":"lower","bound":0.1},
                              {"name":"b","unit":"1/s","better":"higher","bound":0.2}]}"#,
        )
        .unwrap();
        let parsed = parse_spec(&spec).unwrap();
        assert!(parsed[0].lower_is_better && !parsed[1].lower_is_better);
        assert_eq!(parsed[1].bound, 0.2);
        let bad: Value = serde_json::from_str(
            r#"{"end_to_end":[{"name":"a","better":"sideways","bound":0.1}]}"#,
        )
        .unwrap();
        assert!(parse_spec(&bad).is_err());
    }
}
