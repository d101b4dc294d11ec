//! What a run prints: the environment header, every metric by name with
//! its unit, and the result object the driver reads off the last line.

use crate::ladder::{LadderResult, PER_LAYER};
use crate::spans::{tree_totals, waterfall};
use crate::stats::{median, BlockStat};
use crate::timed::{TimedResult, IDENTITY_SAMPLE, MIN_SETUPS};
use crate::workload::{Driver, Workload};
use serde_json::Value;
use std::path::Path;
use std::process::Command;

/// `(name, unit)` of the end-to-end metrics, the same nine on every
/// workload. `BENCHMARK.json` adds direction and bound; a unit test keeps
/// names and units equal.
pub const END_TO_END: [(&str, &str); 9] = [
    ("sessions_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("bits_per_session", "bit"),
    ("rounds_per_session", "1"),
    ("correct_share", "1"),
    ("cpu_us_per_session", "us"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// The line before the result object carries the run's detail (per-block
/// values, counts) for result files; it starts with this marker.
const DETAIL_MARKER: &str = "# detail ";

pub struct Outcome {
    pub correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
    detail: Value,
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn floats(values: &[f64]) -> Value {
    Value::Array(values.iter().map(|&v| Value::F64(v)).collect())
}

impl Outcome {
    /// Prints the detail line and — last — the result object with exactly
    /// `correct`, `attempted`, `failed`, `metrics`.
    pub fn print(&self) {
        println!(
            "{DETAIL_MARKER}{}",
            serde_json::to_string(&self.detail).expect("detail serializes")
        );
        let metrics = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                (
                    name.to_string(),
                    obj(vec![
                        ("value", Value::F64(*value)),
                        ("unit", Value::String(unit.to_string())),
                    ]),
                )
            })
            .collect();
        let result = obj(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            ("metrics", Value::Object(metrics)),
        ]);
        println!(
            "{}",
            serde_json::to_string(&result).expect("result serializes")
        );
    }
}

pub fn timed_outcome(r: &TimedResult) -> Outcome {
    let block = |name: &str, s: &BlockStat| {
        println!(
            "  {name:<18} median of {} {:.4} (min {:.4}, max {:.4})",
            s.blocks.len(),
            s.median,
            s.min,
            s.max
        );
    };
    println!(
        "sessions: {} attempted, {} failed; pool {} live, {} screened out; {} reports bit-identical to a harness rerun",
        r.attempted, r.failed, r.pool_live, r.screened, r.identity_checked
    );
    println!(
        "latency samples per block: {:?} (pooled {})",
        r.samples_per_block,
        r.samples_per_block.iter().sum::<u64>()
    );
    block("sessions_per_s", &r.sessions_per_s);
    block("latency_p50_us", &r.latency_p50_us);
    block("latency_p99_us", &r.latency_p99_us);
    block("setup_s", &BlockStat::of(r.setups_s.clone()));
    let values = [
        r.sessions_per_s.median,
        r.latency_p50_us.median,
        r.latency_p99_us.median,
        r.bits_per_session,
        r.rounds_per_session,
        (r.attempted - r.failed) as f64 / r.attempted as f64,
        r.cpu_us_per_session,
        r.peak_rss_mb,
        median(&r.setups_s),
    ];
    println!("end-to-end metrics:");
    for ((name, unit), value) in END_TO_END.iter().zip(values) {
        println!("  {name:<36} {value:>16.4} {unit}");
    }
    Outcome {
        correct: r.failed == 0,
        attempted: r.attempted,
        failed: r.failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect(),
        detail: obj(vec![
            ("screened", Value::U64(r.screened as u64)),
            ("pool_live", Value::U64(r.pool_live as u64)),
            ("identity_checked", Value::U64(r.identity_checked as u64)),
            (
                "blocks",
                obj(vec![
                    ("sessions_per_s", floats(&r.sessions_per_s.blocks)),
                    ("latency_p50_us", floats(&r.latency_p50_us.blocks)),
                    ("latency_p99_us", floats(&r.latency_p99_us.blocks)),
                    ("setup_s", floats(&r.setups_s)),
                ]),
            ),
        ]),
    }
}

pub fn ladder_outcome(r: &LadderResult) -> Outcome {
    let rows = waterfall(r.recorder.spans());
    println!("waterfall (mean per session; self = span minus the spans it is parent of):");
    println!(
        "  {:<28} {:<11} {:>7} {:>14} {:>14}",
        "span", "layer", "calls", "span ns", "self ns"
    );
    for row in &rows {
        println!(
            "  {:<28} {:<11} {:>7} {:>14.0} {:>14.0}",
            row.name, row.layer, row.calls, row.mean_span_ns, row.mean_self_ns
        );
    }
    for (top, calls, span, own) in tree_totals(r.recorder.spans()) {
        println!(
            "  under {top} ({calls} sessions): self times sum to {own:.0} ns of its {span:.0} ns span"
        );
    }
    println!("per-layer metrics, each with the end-to-end metric it should move:");
    for ((name, value), (_, unit, _, feeds)) in r.metrics.iter().zip(PER_LAYER) {
        println!("  {name:<36} {value:>16.4} {unit:<6} -> {feeds}");
    }
    Outcome {
        correct: r.failed == 0,
        attempted: r.attempted,
        failed: r.failed,
        metrics: r
            .metrics
            .iter()
            .zip(PER_LAYER)
            .map(|(&(name, v), (_, unit, ..))| (name, unit, v))
            .collect(),
        detail: obj(vec![(
            "waterfall",
            Value::Array(
                rows.iter()
                    .map(|row| {
                        obj(vec![
                            ("span", Value::String(row.name.into())),
                            ("layer", Value::String(row.layer.into())),
                            ("calls", Value::U64(row.calls)),
                            ("mean_span_ns", Value::F64(row.mean_span_ns)),
                            ("mean_self_ns", Value::F64(row.mean_self_ns)),
                        ])
                    })
                    .collect(),
            ),
        )]),
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn cores() -> u64 {
    std::thread::available_parallelism().map_or(0, |n| n.get() as u64)
}

/// Where the numbers come from: commit, compiler, cores.
pub fn env_json() -> Value {
    obj(vec![
        (
            "git_sha",
            Value::String(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Value::String(command_line("rustc", &["-V"]))),
        ("nproc", Value::U64(cores())),
    ])
}

pub fn print_header(workload: &Workload, seed: u64, seconds: f64) {
    let env = env_json();
    println!(
        "intersect benchmark | git {} | {} | nproc {} | seed {seed} | {seconds} s",
        env["git_sha"].as_str().unwrap_or("unknown"),
        env["rustc"].as_str().unwrap_or("unknown"),
        cores(),
    );
    println!(
        "workload {} | {:?} {} n=2^{} k={} | closed loop, {} in flight | pool {} seeded sessions | {MIN_SETUPS}+ set-ups of one pool pass | identity sample {IDENTITY_SAMPLE}",
        workload.name,
        workload.driver,
        workload.choice,
        workload.spec.n.trailing_zeros(),
        workload.spec.k,
        workload.in_flight,
        workload.pool,
    );
    println!("why: {}", workload.why);
}

/// Writes `value` as pretty JSON, creating the parent directory.
pub fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {}: {e}", path.display()))
}

pub fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Splits a child's stdout into `{"result": <last line>, "detail": …}`.
pub fn parse_child_output(stdout: &str) -> Result<Value, String> {
    let mut lines = stdout.lines().rev();
    let last = lines.next().ok_or("child printed nothing")?;
    let result: Value =
        serde_json::from_str(last).map_err(|e| format!("last line is not JSON ({e}): {last}"))?;
    let detail = lines
        .find_map(|l| l.strip_prefix(DETAIL_MARKER))
        .and_then(|d| serde_json::from_str(d).ok())
        .unwrap_or(Value::Null);
    Ok(obj(vec![("result", result), ("detail", detail)]))
}

pub fn metric_value(child: &Value, name: &str) -> Option<f64> {
    child["result"]["metrics"].get(name)?.get("value")?.as_f64()
}

/// One collected child run, as rows of `name value unit`.
pub fn print_child(workload: &str, child: &Value) {
    let result = &child["result"];
    println!(
        "{workload}: correct={} attempted={} failed={}",
        result["correct"].as_bool().unwrap_or(false),
        result["attempted"].as_u64().unwrap_or(0),
        result["failed"].as_u64().unwrap_or(0)
    );
    for (name, metric) in result["metrics"].as_object().unwrap_or(&[]) {
        println!(
            "  {name:<36} {:>16.4} {}",
            metric["value"].as_f64().unwrap_or(f64::NAN),
            metric["unit"].as_str().unwrap_or("")
        );
    }
}

/// The timed run's p50 beside the traced engine rung's: what recording
/// spans (and running serially, on a smaller sample) does to the number.
pub fn print_tracing_overhead(workload: &Workload, timed: &Value, traced: &Value) {
    // The rung that runs the workload's own kind of session; the ladder
    // has none that submits stream blocks.
    let rung = match workload.driver {
        Driver::Singles => "engine.session_ns",
        Driver::Net => "net.session_ns",
        Driver::Multiparty { .. } => "multiparty.engine_session_ns",
        Driver::Stream => return,
    };
    if let (Some(plain), Some(spanned)) = (
        metric_value(timed, "latency_p50_us"),
        metric_value(traced, rung),
    ) {
        println!(
            "  tracing overhead: timed-run p50 {plain:.1} us vs traced {rung} p50 {:.1} us ({:+.1} %)",
            spanned / 1e3,
            (spanned / 1e3 / plain - 1.0) * 100.0
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_output_round_trips() {
        let out = "header\n  x 1 s\n# detail {\"blocks\":{\"setup_s\":[0.5,0.25]}}\n\
                   {\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}\n";
        let child = parse_child_output(out).unwrap();
        assert_eq!(metric_value(&child, "setup_s"), Some(0.5));
        assert_eq!(
            child["detail"]["blocks"]["setup_s"]
                .as_array()
                .map(<[Value]>::len),
            Some(2)
        );
        assert!(parse_child_output("not json").is_err());
        assert!(parse_child_output("").is_err());
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_code_prints() {
        let spec = read_json(Path::new(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../BENCHMARK.json"
        )))
        .unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            spec[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().unwrap().to_string(),
                        m["unit"].as_str().unwrap().to_string(),
                    )
                })
                .collect()
        };
        let own = |rows: &[(&str, &str)]| -> Vec<(String, String)> {
            rows.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        let per_layer: Vec<(&str, &str)> = PER_LAYER.iter().map(|&(n, u, ..)| (n, u)).collect();
        assert_eq!(listed("per_layer"), own(&per_layer));
        for (row, (_, _, better, _)) in spec["per_layer"].as_array().unwrap().iter().zip(PER_LAYER)
        {
            assert_eq!(row["better"].as_str(), Some(better));
        }
        let workloads: Vec<(&str, &str)> = crate::workload::WORKLOADS
            .iter()
            .map(|w| (w.name, w.why))
            .collect();
        let listed: Vec<(String, String)> = spec["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| {
                (
                    w["name"].as_str().unwrap().to_string(),
                    w["why"].as_str().unwrap().to_string(),
                )
            })
            .collect();
        assert_eq!(listed, own(&workloads));
        assert_eq!(spec["run_seconds"].as_f64(), Some(crate::DEFAULT_SECONDS));
    }
}
