//! What leaves the process: the result line of one run, the result set
//! `e2e all` writes (nothing in it is transcribed by hand), and
//! `e2e check`, which compares two sets against the bounds.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use serde_json::Value;

use crate::host::Fingerprint;
use crate::run::{Metric, Output};
use crate::spec::{Better, E2E, PER_LAYER, WORKLOADS};
use crate::stats;

/// A JSON number with all its digits (non-finite values cannot occur in
/// a result; they read 0 rather than break the line).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The last line of a run's standard output: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(out: &Output) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// Prefix of the line carrying each metric's spread over the run's
/// repetitions, which the result line has no room for.
pub const DETAIL_PREFIX: &str = "#detail ";

pub fn detail_line(out: &Output) -> String {
    let spreads: BTreeMap<&str, f64> = out
        .metrics
        .iter()
        .filter_map(|m| m.over_reps.map(|q| (m.name, q.spread())))
        .collect();
    let mut obj = BTreeMap::new();
    obj.insert("reps", Value::Number(out.reps as f64));
    obj.insert("rep_spread", serde::Serialize::to_value(&spreads));
    format!(
        "{DETAIL_PREFIX}{}",
        serde_json::to_string(&obj).unwrap_or_default()
    )
}

/// Every metric by name with its unit, for people.
pub fn print_metrics(workload: &str, out: &Output) {
    println!(
        "workload {workload}: {} repetitions, {} attempted, {} failed, outputs {}",
        out.reps,
        out.attempted,
        out.failed,
        if out.correct { "correct" } else { "WRONG" }
    );
    for note in &out.notes {
        println!("{note}");
    }
    for problem in &out.problems {
        println!("problem: {problem}");
    }
    for Metric {
        name,
        unit,
        value,
        over_reps,
    } in &out.metrics
    {
        match over_reps {
            Some(q) => println!(
                "  {name:<32} {value:>16.6} {unit:<6} (q1 {:.6}, q3 {:.6}, n {})",
                q.q1, q.q3, q.n
            ),
            None => println!("  {name:<32} {value:>16.6} {unit}"),
        }
    }
}

/// How long one run measures, seconds (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// `BENCHMARK.json`, rendered from the tables in `spec.rs` so that the
/// file is never edited by hand.
pub fn manifest() -> String {
    let list = |items: Vec<Vec<(&str, Value)>>| Value::Array(items.into_iter().map(obj).collect());
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "e2e-bench/Cargo.toml",
        "--",
    ];
    let set = obj(vec![
        (
            "command",
            Value::Array(command.iter().map(|s| text(s)).collect()),
        ),
        ("paths", Value::Array(vec![text("e2e-bench")])),
        ("run_seconds", Value::Number(RUN_SECONDS as f64)),
        (
            "workloads",
            list(
                WORKLOADS
                    .iter()
                    .map(|w| vec![("name", text(w.name)), ("why", text(w.why))])
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            list(
                E2E.iter()
                    .map(|m| {
                        vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                            ("bound", Value::Number(m.bound)),
                        ]
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            list(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                        ]
                    })
                    .collect(),
            ),
        ),
    ]);
    // `run_seconds` must read as a whole number, which the vendored
    // renderer writes as "10.0".
    serde_json::to_string_pretty(&set)
        .unwrap_or_default()
        .replace(
            &format!("\"run_seconds\": {RUN_SECONDS}.0"),
            &format!("\"run_seconds\": {RUN_SECONDS}"),
        )
        + "\n"
}

/// What `e2e all` was asked to do.
pub struct AllOptions {
    pub seed: u64,
    pub seconds: u64,
    pub runs: u64,
    pub quick: bool,
    pub reps: Option<usize>,
    pub out: std::path::PathBuf,
}

/// One child run's parsed output.
struct ChildRun {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
    rep_spread: BTreeMap<String, f64>,
}

fn object_f64s(v: Option<&Value>, leaf: Option<&str>) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Some(Value::Object(members)) = v {
        for (k, val) in members {
            let n = match leaf {
                Some(key) => val.get(key).and_then(Value::as_f64),
                None => val.as_f64(),
            };
            if let Some(n) = n {
                out.insert(k.clone(), n);
            }
        }
    }
    out
}

/// Re-execute this binary for one run, so each workload gets a process
/// (and a peak RSS) of its own; its output is shown as it is parsed.
fn child_run(
    workload: &str,
    seed: u64,
    trace: bool,
    opts: &AllOptions,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if opts.quick {
        cmd.arg("--quick");
    }
    if let Some(reps) = opts.reps {
        cmd.args(["--reps", &reps.to_string()]);
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        return Err(format!(
            "{workload} (seed {seed}) exited with {}",
            output.status
        ));
    }
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no output"))?;
    let result = serde_json::from_str(last).map_err(|e| format!("{workload}: {e}"))?;
    let detail = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .and_then(|d| serde_json::from_str(d).ok());
    Ok(ChildRun {
        correct: result.get("correct") == Some(&Value::Bool(true)),
        attempted: result
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0),
        failed: result.get("failed").and_then(Value::as_f64).unwrap_or(0.0),
        metrics: object_f64s(result.get("metrics"), Some("value")),
        rep_spread: object_f64s(detail.as_ref().and_then(|d| d.get("rep_spread")), None),
    })
}

fn obj(members: Vec<(&str, Value)>) -> Value {
    Value::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

/// Run every workload (`runs` end-to-end runs on consecutive seeds, then
/// one traced run) and write the result set. The end-to-end runs go round
/// robin over the workloads, so a slow spell of the host lands on a few
/// runs of every workload (and shows as spread) instead of on every run of
/// one workload (where it would read as a slower program).
pub fn all(opts: &AllOptions) -> Result<(), String> {
    let host = Fingerprint::gather();
    let mut runs_of: Vec<Vec<ChildRun>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    for r in 0..opts.runs {
        for (w, runs) in WORKLOADS.iter().zip(&mut runs_of) {
            runs.push(child_run(w.name, opts.seed + r, false, opts)?);
        }
    }
    let mut workloads = Vec::new();
    let mut everything_correct = true;
    for (w, runs) in WORKLOADS.iter().zip(runs_of) {
        let traced = child_run(w.name, opts.seed, true, opts)?;
        everything_correct &= traced.correct && runs.iter().all(|r| r.correct);

        let mut e2e = Vec::new();
        for m in E2E {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.get(m.name).copied())
                .collect();
            let q = stats::quartiles(&values).ok_or_else(|| format!("no {} runs", w.name))?;
            let rep_spread = runs[0].rep_spread.get(m.name).copied();
            e2e.push((
                m.name,
                obj(vec![
                    ("unit", text(m.unit)),
                    ("better", text(m.better.as_str())),
                    ("bound", Value::Number(m.bound)),
                    ("median", Value::Number(q.median)),
                    ("q1", Value::Number(q.q1)),
                    ("q3", Value::Number(q.q3)),
                    ("n", Value::Number(q.n as f64)),
                    ("spread", Value::Number(q.spread())),
                    ("rep_spread", rep_spread.map_or(Value::Null, Value::Number)),
                    (
                        "values",
                        Value::Array(values.into_iter().map(Value::Number).collect()),
                    ),
                ]),
            ));
        }
        let layers = PER_LAYER
            .iter()
            .map(|m| {
                let value = traced.metrics.get(m.name).copied().unwrap_or(0.0);
                (
                    m.name,
                    obj(vec![
                        ("unit", text(m.unit)),
                        ("value", Value::Number(value)),
                    ]),
                )
            })
            .collect();
        let sum = |f: fn(&ChildRun) -> f64| runs.iter().map(f).sum::<f64>() + f(&traced);
        workloads.push((
            w.name,
            obj(vec![
                ("why", text(w.why)),
                (
                    "correct",
                    Value::Bool(traced.correct && runs.iter().all(|r| r.correct)),
                ),
                ("attempted", Value::Number(sum(|r| r.attempted))),
                ("failed", Value::Number(sum(|r| r.failed))),
                ("end_to_end", obj(e2e)),
                ("per_layer", obj(layers)),
            ]),
        ));
    }
    let set = obj(vec![
        ("schema", text("pm-e2e-bench/1")),
        ("seed", Value::Number(opts.seed as f64)),
        ("seconds", Value::Number(opts.seconds as f64)),
        ("runs", Value::Number(opts.runs as f64)),
        ("quick", Value::Bool(opts.quick)),
        (
            "note",
            text("UDP workloads cross the host loopback, not a link; baseline only, no gain is claimed"),
        ),
        (
            "host",
            obj(vec![
                ("nproc", Value::Number(host.nproc as f64)),
                ("cpu_model", text(&host.cpu_model)),
                ("simd_backend", text(host.simd_backend)),
                ("kernel", text(&host.kernel)),
                ("git_rev", text(&host.git_rev)),
            ]),
        ),
        ("workloads", obj(workloads)),
    ]);
    let rendered = serde_json::to_string_pretty(&set).map_err(|e| e.to_string())?;
    if let Some(dir) = opts.out.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&opts.out, rendered + "\n")
        .map_err(|e| format!("cannot write {}: {e}", opts.out.display()))?;
    println!("result set written to {}", opts.out.display());
    if everything_correct {
        Ok(())
    } else {
        Err("a workload's outputs were wrong".to_string())
    }
}

/// Verdict on one (metric, workload) pair of two result sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The spread between runs is wider than the bound: nothing can be
    /// said either way.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a`, in the direction
/// the metric counts as worse (negative: better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// `worsening` of `b` against `a`, or of whichever side is worse when the
/// two sets are of the same revision and so have no "before" and "after".
pub fn worse_by(better: Better, a: f64, b: f64, both_ways: bool) -> f64 {
    let forward = worsening(better, a, b);
    if both_ways {
        forward.max(worsening(better, b, a))
    } else {
        forward
    }
}

pub fn verdict(bound: f64, spread: f64, worse_by: f64) -> Verdict {
    if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn load_set(path: &Path) -> Result<Value, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let set = serde_json::from_str(&body).map_err(|e| format!("{}: {e}", path.display()))?;
    match set.get("schema").and_then(Value::as_str) {
        Some("pm-e2e-bench/1") => Ok(set),
        _ => Err(format!(
            "{}: not a pm-e2e-bench/1 result set",
            path.display()
        )),
    }
}

/// Spread of one side: across its runs when there are enough of them to
/// have quartiles, else across the repetitions of its single run.
fn side_spread(entry: &Value) -> f64 {
    let n = entry.get("n").and_then(Value::as_f64).unwrap_or(0.0);
    let key = if n >= 4.0 { "spread" } else { "rep_spread" };
    entry.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// Workloads of a set whose outputs were wrong, with their failed counts.
fn incorrect_workloads(set: &Value) -> Vec<String> {
    WORKLOADS
        .iter()
        .filter_map(|w| {
            let entry = &set["workloads"][w.name];
            let failed = entry.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
            let correct = entry.get("correct") == Some(&Value::Bool(true));
            (!correct || failed > 0.0).then(|| format!("{} ({failed} failed)", w.name))
        })
        .collect()
}

/// Compare set `b` against set `a` metric by metric with the bounds of
/// this benchmark; prints one row per (metric, workload). Two sets of the
/// same revision are compared both ways: neither may be worse than the
/// other. Returns how many rows were worse, plus one for every workload
/// either set ended incorrect on (timings of wrong outputs compare with
/// nothing).
pub fn check(a: &Path, b: &Path) -> Result<usize, String> {
    let (sa, sb) = (load_set(a)?, load_set(b)?);
    for key in ["quick", "seconds"] {
        if sa.get(key) != sb.get(key) {
            return Err(format!("the sets were run with different `{key}` settings"));
        }
    }
    if sa["host"]["cpu_model"] != sb["host"]["cpu_model"]
        || sa["host"]["nproc"] != sb["host"]["nproc"]
    {
        println!("warning: the sets come from different hosts");
    }
    let rev = |set: &Value| set["host"]["git_rev"].as_str().map(str::to_string);
    let same_rev = rev(&sa) == rev(&sb) && rev(&sa).is_some_and(|r| r != "unknown");
    if same_rev {
        println!("same revision on both sides: rows are compared both ways");
    }
    let mut incorrect = 0;
    for (path, set) in [(a, &sa), (b, &sb)] {
        for w in incorrect_workloads(set) {
            println!("{}: incorrect outputs on {w}", path.display());
            incorrect += 1;
        }
    }
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse_by", "spread", "bound"
    );
    let (mut worse, mut unresolved) = (0, 0);
    for w in WORKLOADS {
        for m in E2E {
            let (ea, eb) = (
                &sa["workloads"][w.name]["end_to_end"][m.name],
                &sb["workloads"][w.name]["end_to_end"][m.name],
            );
            let (Some(va), Some(vb)) = (
                ea.get("median").and_then(Value::as_f64),
                eb.get("median").and_then(Value::as_f64),
            ) else {
                return Err(format!("{} / {} is missing from a set", w.name, m.name));
            };
            let worse_by = worse_by(m.better, va, vb, same_rev);
            let spread = side_spread(ea).max(side_spread(eb));
            let v = verdict(m.bound, spread, worse_by);
            worse += usize::from(v == Verdict::Worse);
            unresolved += usize::from(v == Verdict::Unresolved);
            println!(
                "{:<16} {:<16} {:>14.5} {:>14.5} {:>+8.1}% {:>7.1}% {:>6.1}%  {}",
                w.name,
                m.name,
                va,
                vb,
                worse_by * 100.0,
                spread * 100.0,
                m.bound * 100.0,
                v.as_str()
            );
        }
    }
    println!(
        "{} rows: {worse} worse, {unresolved} unresolved; {incorrect} incorrect workloads",
        WORKLOADS.len() * E2E.len()
    );
    Ok(worse + incorrect)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{Metric, Output};

    #[test]
    fn a_set_with_wrong_outputs_or_failed_sessions_is_incorrect() {
        let workload = |correct: bool, failed: f64| {
            obj(vec![
                ("correct", Value::Bool(correct)),
                ("failed", Value::Number(failed)),
            ])
        };
        let set = |entries: Vec<(&str, Value)>| obj(vec![("workloads", obj(entries))]);
        let all_good: Vec<(&str, Value)> = WORKLOADS
            .iter()
            .map(|w| (w.name, workload(true, 0.0)))
            .collect();
        assert!(incorrect_workloads(&set(all_good.clone())).is_empty());
        let mut bad = all_good;
        bad[1].1 = workload(false, 0.0);
        bad[4].1 = workload(true, 2.0);
        let found = incorrect_workloads(&set(bad));
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found[0].starts_with(WORKLOADS[1].name));
        assert!(found[1].starts_with(WORKLOADS[4].name));
        // A workload missing from the set is not correct either.
        assert_eq!(incorrect_workloads(&set(Vec::new())).len(), WORKLOADS.len());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_whole_counts() {
        let out = Output {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "setup_s",
                    unit: "s",
                    value: 0.812_734_5,
                    over_reps: None,
                },
                Metric {
                    name: "em",
                    unit: "ratio",
                    value: f64::NAN,
                    over_reps: None,
                },
            ],
            problems: Vec::new(),
            reps: 3,
            notes: Vec::new(),
        };
        let line = result_line(&out);
        assert!(line.contains("\"attempted\": 1000,"), "{line}");
        assert!(line.contains("\"failed\": 0,"), "{line}");
        let v = serde_json::from_str(&line).expect("valid JSON");
        let Value::Object(members) = &v else {
            panic!("object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v["metrics"]["setup_s"]["value"].as_f64(), Some(0.812_734_5));
        assert_eq!(v["metrics"]["setup_s"]["unit"].as_str(), Some("s"));
        assert_eq!(v["metrics"]["em"]["value"].as_f64(), Some(0.0));
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Lower is better: 10% -> 12% slower is worse at a 10% bound.
        assert!((worsening(Better::Lower, 100.0, 112.0) - 0.12).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 88.0) - 0.12).abs() < 1e-12);
        assert!(worsening(Better::Higher, 100.0, 120.0) < 0.0);
        assert_eq!(verdict(0.10, 0.02, 0.12), Verdict::Worse);
        assert_eq!(verdict(0.10, 0.02, 0.09), Verdict::Ok);
        assert_eq!(verdict(0.10, 0.02, -0.30), Verdict::Ok);
        // Two sets of one revision: the slower side is the one compared,
        // whichever was taken first.
        assert!(worse_by(Better::Lower, 133.0, 100.0, false) < 0.0);
        assert!((worse_by(Better::Lower, 133.0, 100.0, true) - 0.33).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 100.0, 133.0, true) - 0.33 / 1.33).abs() < 1e-12);
        // A spread wider than the bound resolves nothing, whatever moved.
        assert_eq!(verdict(0.10, 0.15, 0.12), Verdict::Unresolved);
        assert_eq!(verdict(0.10, 0.15, 0.0), Verdict::Unresolved);
    }
}
