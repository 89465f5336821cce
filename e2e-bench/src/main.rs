#![forbid(unsafe_code)]
//! `e2e` -- the repository's benchmark. See README.md in this directory
//! and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run
//! e2e all [--seed n] [--seconds s] [--runs n] [--out file]       every workload, writes a result set
//! e2e check <a.json> <b.json>                                    compare two result sets
//! e2e list                                                       workloads and metrics
//! e2e manifest                                                   BENCHMARK.json, from the same tables
//! ```
//!
//! `--quick` (quarter-size workloads, two repetitions: smoke only) and
//! `--reps <n>` (a fixed repetition count instead of the time budget)
//! apply to a run and to `all`.

mod host;
mod layers;
mod protocol;
mod report;
mod run;
mod sim;
mod spec;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// Flags of the form `--name value`, plus bare `--quick`.
struct Flags {
    pairs: Vec<(String, String)>,
    quick: bool,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags {
            pairs: Vec::new(),
            quick: false,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => flags.quick = true,
                name if name.starts_with("--") => {
                    let value = it.next().ok_or_else(|| format!("{name} needs a value"))?;
                    flags.pairs.push((name[2..].to_string(), value.clone()));
                }
                other => return Err(format!("unexpected argument `{other}`")),
            }
        }
        Ok(flags)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name}: `{v}` is not a valid number"))
            })
            .transpose()
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .pairs
            .iter()
            .find(|(n, _)| !allowed.contains(&n.as_str()))
        {
            Some((n, _)) => Err(format!("unknown flag --{n}")),
            None => Ok(()),
        }
    }
}

/// Build outputs live under cargo's target directory; so do ours.
fn artifact_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("e2e-bench")
}

fn one_run(flags: &Flags) -> Result<bool, String> {
    flags.only(&["workload", "seed", "seconds", "trace", "reps"])?;
    let name = flags.get("workload").ok_or("--workload is required")?;
    let workload = spec::workload(name).ok_or_else(|| {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`; known: {}", known.join(", "))
    })?;
    let trace = match flags.get("trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let quick = flags.quick;
    let opts = run::Options {
        workload: if quick { workload.quick() } else { workload },
        seed: flags.number("seed")?.unwrap_or(1),
        seconds: flags
            .number("seconds")?
            .unwrap_or(report::RUN_SECONDS as f64),
        trace,
        reps: flags.number("reps")?.or(quick.then_some(2)),
        trace_dir: artifact_dir(),
    };
    if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let out = run::run(&opts)?;
    report::print_metrics(name, &out);
    if quick {
        println!("quick: quarter-size smoke run, not comparable with any baseline");
    }
    println!("{}", report::detail_line(&out));
    println!("{}", report::result_line(&out));
    Ok(out.correct)
}

fn all(flags: &Flags) -> Result<bool, String> {
    flags.only(&["seed", "seconds", "runs", "reps", "out"])?;
    let seed = flags.number("seed")?.unwrap_or(1);
    let opts = report::AllOptions {
        seed,
        seconds: flags.number("seconds")?.unwrap_or(report::RUN_SECONDS),
        runs: flags.number("runs")?.unwrap_or(1).max(1),
        quick: flags.quick,
        reps: flags.number("reps")?,
        out: flags.get("out").map_or_else(
            || artifact_dir().join(format!("results-seed{seed}.json")),
            PathBuf::from,
        ),
    };
    report::all(&opts).map(|()| true)
}

fn list() {
    println!("workloads:");
    for w in spec::WORKLOADS {
        println!("  {:<16} {}", w.name, w.why);
    }
    println!("end-to-end metrics (every workload reports each):");
    for m in spec::E2E {
        println!(
            "  {:<18} {:<6} {:<6} bound {:>4.0}%  {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        );
    }
    println!("per-layer metrics (traced run; 0 where the layer does not run):");
    for m in spec::PER_LAYER {
        println!(
            "  {:<30} {:<6} {:<6} {:<12} -> {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.layer,
            m.moves
        );
    }
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("list") => {
            list();
            Ok(true)
        }
        Some("manifest") => {
            print!("{}", report::manifest());
            Ok(true)
        }
        Some("check") => match args {
            [_, a, b] => Ok(report::check(a.as_ref(), b.as_ref())? == 0),
            _ => Err("usage: e2e check <a.json> <b.json>".to_string()),
        },
        Some("all") => all(&Flags::parse(&args[1..])?),
        _ => one_run(&Flags::parse(args)?),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}
