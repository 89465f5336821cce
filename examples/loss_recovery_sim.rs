//! Compare the four recovery schemes of the paper under three loss
//! environments — a compact, runnable tour of Sections 3 and 4.
//!
//! For each environment (independent, shared full-binary-tree, Markov
//! burst) the example simulates no-FEC ARQ, layered FEC, and both
//! integrated FEC variants across receiver populations, printing E[M] —
//! the expected transmissions per data packet with its 95% confidence
//! half-width — plus the analytical values where the paper has closed
//! forms.
//!
//! Trials fan out across a worker pool by default (results are
//! bit-identical to a serial run at any worker count); each environment
//! sweep reports its wall-clock time.
//!
//! ```sh
//! cargo run --release --example loss_recovery_sim [-- --trials 2000]
//!     [--jobs 4]             # worker threads (default: all cores)
//!     [--serial]             # force single-threaded execution
//!     [--trace runs.jsonl]   # one sim_run JSONL event per simulation
//!     [--metrics]            # dump the run census to stderr at exit
//! ```

use std::sync::Arc;
use std::time::Instant;

use parity_multicast::analysis::{integrated, layered, nofec, Population};
use parity_multicast::obs::{JsonlRecorder, MetricsRegistry, Obs, Stopwatch};
use parity_multicast::par::Pool;
use parity_multicast::sim::runner::{run_env_par_traced, LossEnv, Scheme};
use parity_multicast::sim::SimConfig;

struct Options {
    trials: usize,
    jobs: Option<usize>,
    serial: bool,
    trace: Option<String>,
    metrics: bool,
}

fn parse_options() -> Options {
    let mut opts = Options {
        trials: 1500,
        jobs: None,
        serial: false,
        trace: None,
        metrics: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--trials" => {
                opts.trials = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--trials takes a positive integer");
            }
            "--jobs" => {
                opts.jobs = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n > 0)
                        .expect("--jobs takes a positive integer"),
                );
            }
            "--serial" => opts.serial = true,
            "--trace" => {
                opts.trace = Some(it.next().expect("--trace takes a file path"));
            }
            "--metrics" => opts.metrics = true,
            other => {
                panic!("unknown flag {other:?} (try --trials/--jobs/--serial/--trace/--metrics)")
            }
        }
    }
    opts
}

fn main() {
    let opts = parse_options();
    let pool = if opts.serial {
        Pool::serial()
    } else {
        match opts.jobs {
            Some(n) => Pool::new(n),
            None => Pool::auto(),
        }
    };
    let trace_rec = opts
        .trace
        .as_deref()
        .map(|path| Arc::new(JsonlRecorder::create(path).expect("cannot open trace file")));
    let obs = match &trace_rec {
        Some(rec) => Obs::new(rec.clone()),
        None => Obs::null(),
    };
    let clock = Stopwatch::start();
    let registry = MetricsRegistry::new();
    let runs = registry.counter("sim.runs");

    let trials = opts.trials;
    let cfg = SimConfig::paper_timing(trials);
    let p = 0.01;
    let k = 7;
    let schemes = [
        Scheme::NoFec,
        Scheme::Layered { k, h: 1 },
        Scheme::Integrated1 { k },
        Scheme::Integrated2 { k },
    ];
    let envs = [
        ("independent loss (Section 3)", LossEnv::Independent { p }),
        (
            "shared FBT loss (Section 4.1)",
            LossEnv::FullBinaryTree { p },
        ),
        (
            "burst loss b=2 (Section 4.2)",
            LossEnv::Burst { p, mean_burst: 2.0 },
        ),
    ];
    let populations = [1usize, 16, 256, 4096];

    println!(
        "worker pool: {} thread{}",
        pool.workers(),
        if pool.workers() == 1 { "" } else { "s" }
    );
    for (name, env) in envs {
        #[expect(
            clippy::disallowed_methods,
            reason = "reports the sweep's wall-clock time"
        )]
        let sweep_start = Instant::now();
        println!("\n=== {name}, p = {p}, k = {k}, {trials} trials");
        print!("{:>8}", "R");
        for s in &schemes {
            print!("{:>22}", s.label());
        }
        println!();
        for &r in &populations {
            print!("{r:>8}");
            for (i, &s) in schemes.iter().enumerate() {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "stamps the run's trace events with the sweep's wall-clock time"
                )]
                let now = clock.now();
                let res = run_env_par_traced(
                    &cfg,
                    s,
                    env,
                    r,
                    0xC0FFEE ^ (i as u64) << 8,
                    &pool,
                    &obs,
                    now,
                );
                runs.inc();
                print!("{:>16.3} ±{:.3}", res.mean_transmissions, res.ci95);
            }
            println!();
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "reports the sweep's wall-clock time"
        )]
        let wall = sweep_start.elapsed();
        println!("  sweep wall-clock: {:.2}s", wall.as_secs_f64());
        if matches!(env, LossEnv::Independent { .. }) {
            println!("  analytical checks at R = 4096:");
            let pop = Population::homogeneous(p, 4096);
            println!(
                "    no-FEC     E[M] = {:.3}",
                nofec::expected_transmissions(&pop)
            );
            println!(
                "    layered    E[M] = {:.3}",
                layered::expected_transmissions(k, 1, &pop)
            );
            println!(
                "    integrated E[M] = {:.3}  (Eq. 6 lower bound)",
                integrated::lower_bound(k, 0, &pop)
            );
        }
    }
    println!("\nReadings to verify against the paper:");
    println!(" * independent loss: integrated < layered < no-FEC for large R (Fig. 5)");
    println!(
        " * shared loss: every scheme needs fewer transmissions; FEC's edge shrinks (Figs. 11-12)"
    );
    println!(" * burst loss: layered(7+1) is WORSE than no-FEC; integrated2 beats integrated1 (Figs. 15-16)");

    if opts.metrics {
        eprintln!("\n{}", registry.render_text());
    }
    if let Some(rec) = &trace_rec {
        rec.flush();
        eprintln!("trace written to {}", opts.trace.as_deref().unwrap());
    }
}
