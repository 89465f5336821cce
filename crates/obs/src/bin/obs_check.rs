#![forbid(unsafe_code)]
//! `obs-check` — validate a JSONL trace produced by `--trace`.
//!
//! Usage: `obs-check <trace.jsonl>`
//!
//! Thin CLI over [`pm_obs::validate_trace`]: the file must be non-empty,
//! every line must parse as a JSON object with a finite non-negative
//! numeric `"t"`, and every `"type"` must come from the
//! [`pm_obs::EVENT_NAMES`] vocabulary (generated from the same table as
//! the `Event` enum, so the two cannot disagree). Prints a per-type event
//! census on success; exits 1 with a line-numbered diagnostic on the
//! first failure.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let Some(path) = args.get(1) else {
        eprintln!("usage: obs-check <trace.jsonl>");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("obs-check: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match pm_obs::validate_trace(&text) {
        Ok(census) => {
            let total: u64 = census.values().sum();
            println!("{path}: OK — {total} events, {} types", census.len());
            println!("  {:>10}  {:>6}  event", "count", "share");
            for (ty, n) in &census {
                let share = if total == 0 {
                    0.0
                } else {
                    *n as f64 * 100.0 / total as f64
                };
                println!("  {n:>10}  {share:>5.1}%  {ty}");
            }
            println!("  {total:>10}  100.0%  (total)");
            let unused = pm_obs::EVENT_NAMES
                .iter()
                .filter(|name| !census.contains_key(**name))
                .count();
            println!(
                "  vocabulary: {}/{} event types present, {unused} unused",
                census.len(),
                pm_obs::EVENT_NAMES.len()
            );
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("obs-check: {path}: {err}");
            ExitCode::FAILURE
        }
    }
}
