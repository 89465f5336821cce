#![forbid(unsafe_code)]
//! Regenerate the paper's figures.
//!
//! ```sh
//! # every figure at paper-scale grids (takes a few minutes):
//! cargo run --release -p pm-bench --bin figures -- all
//! # one figure, quick grids, with CSV/JSON dumped next to the tables:
//! cargo run --release -p pm-bench --bin figures -- fig5 --quick --out figures-out
//! ```
//!
//! Each figure prints as an aligned table (the paper's series as columns)
//! and, with `--out DIR`, is also written as `DIR/<id>.csv` and
//! `DIR/<id>.json`.

use std::io::Write as _;

use pm_bench::{all_figures, extension_figures, Figure, Quality};

struct Args {
    targets: Vec<String>,
    quality: Quality,
    out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        targets: Vec::new(),
        quality: Quality::Full,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.quality = Quality::Quick,
            "--out" => args.out = Some(it.next().expect("--out takes a directory")),
            "--help" | "-h" => {
                eprintln!("usage: figures [all|ext|fig1|...|fig18|extA|...|extD|extF]... [--quick] [--out DIR]");
                std::process::exit(0);
            }
            other => args.targets.push(other.to_string()),
        }
    }
    if args.targets.is_empty() {
        args.targets.push("all".into());
    }
    args
}

fn emit(fig: &Figure, out: &Option<String>) {
    println!("{}", fig.to_table());
    if let Some(dir) = out {
        std::fs::create_dir_all(dir).expect("create output directory");
        let csv_path = format!("{dir}/{}.csv", fig.id);
        std::fs::File::create(&csv_path)
            .and_then(|mut f| f.write_all(fig.to_csv().as_bytes()))
            .expect("write CSV");
        let json_path = format!("{dir}/{}.json", fig.id);
        std::fs::File::create(&json_path)
            .and_then(|mut f| f.write_all(fig.to_json().as_bytes()))
            .expect("write JSON");
        eprintln!("wrote {csv_path} and {json_path}");
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "reports each figure's wall-clock build time"
)]
fn main() {
    let args = parse_args();
    let mut registry = all_figures();
    registry.extend(extension_figures());
    let run_all = args.targets.iter().any(|t| t == "all");
    let run_ext = args.targets.iter().any(|t| t == "ext");
    let mut matched = 0;
    for (id, generate) in &registry {
        let is_ext = id.starts_with("ext");
        let selected =
            args.targets.iter().any(|t| t == id) || (run_all && !is_ext) || (run_ext && is_ext);
        if selected {
            let start = std::time::Instant::now();
            let fig = generate(args.quality);
            emit(&fig, &args.out);
            eprintln!("{id} generated in {:.2}s", start.elapsed().as_secs_f64());
            matched += 1;
        }
    }
    if matched == 0 {
        eprintln!(
            "no figure matched {:?}; known: {:?}",
            args.targets,
            registry.iter().map(|(id, _)| *id).collect::<Vec<_>>()
        );
        std::process::exit(1);
    }
}
