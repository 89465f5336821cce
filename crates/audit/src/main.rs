#![forbid(unsafe_code)]
//! `pm-audit` CLI — scan the workspace and gate against a baseline.
//!
//! ```text
//! pm-audit [--root <dir>] [--baseline <file>] [--write-baseline <file>]
//!          [--update-baseline] [--json] [--quiet]
//! ```
//!
//! `--update-baseline` rewrites the `--baseline` file from the current
//! run's counts — the sanctioned way to shrink the ratchet after a
//! cleanup. CI never passes it; the gate then trivially passes against
//! the fresh file, so the diff is reviewed like any other ratchet change.
//!
//! Exit codes: `0` gate passed, `1` a (rule, crate, item) count exceeds
//! its baseline entry, `2` usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use pm_audit::baseline::Counts;

struct Opts {
    root: PathBuf,
    baseline: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
    update_baseline: bool,
    json: bool,
    quiet: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        root: PathBuf::from("."),
        baseline: None,
        write_baseline: None,
        update_baseline: false,
        json: false,
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                opts.root = PathBuf::from(args.next().ok_or("--root needs a directory")?);
            }
            "--baseline" => {
                opts.baseline = Some(PathBuf::from(args.next().ok_or("--baseline needs a file")?));
            }
            "--write-baseline" => {
                opts.write_baseline = Some(PathBuf::from(
                    args.next().ok_or("--write-baseline needs a file")?,
                ));
            }
            "--update-baseline" => opts.update_baseline = true,
            "--json" => opts.json = true,
            "--quiet" => opts.quiet = true,
            "--help" | "-h" => {
                return Err("usage: pm-audit [--root <dir>] [--baseline <file>] \
                            [--write-baseline <file>] [--update-baseline] [--json] [--quiet]"
                    .into())
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    if opts.update_baseline && opts.baseline.is_none() {
        return Err("--update-baseline needs --baseline <file> to know what to rewrite".into());
    }
    Ok(opts)
}

fn run() -> Result<bool, String> {
    let opts = parse_args()?;
    let report = pm_audit::audit_workspace(&opts.root)?;

    if let Some(path) = &opts.write_baseline {
        let json = pm_audit::baseline::to_json(&report.counts);
        std::fs::write(path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        if !opts.quiet {
            eprintln!("pm-audit: wrote baseline to {}", path.display());
        }
    }
    if opts.update_baseline {
        // Rewrite in place, then gate against the fresh file
        // below — reading it back keeps the parse path honest.
        if let Some(path) = &opts.baseline {
            let json = pm_audit::baseline::to_json(&report.counts);
            std::fs::write(path, json)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            if !opts.quiet {
                eprintln!("pm-audit: updated baseline {}", path.display());
            }
        }
    }

    let baseline_counts: Counts = match &opts.baseline {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            pm_audit::baseline::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?
        }
        None => Counts::new(),
    };
    let outcome = pm_audit::gate(&report, &baseline_counts);

    if !opts.quiet {
        if opts.json {
            print!("{}", pm_audit::render_json(&report, &outcome));
        } else {
            print!("{}", pm_audit::render_text(&report, &outcome));
        }
    }
    Ok(outcome.passed())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("pm-audit: {msg}");
            ExitCode::from(2)
        }
    }
}
