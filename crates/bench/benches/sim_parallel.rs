//! Serial vs parallel Monte Carlo sweeps: the pm-par speedup benchmark.
//!
//! One data point is the reference workload — an R = 4096
//! integrated-FEC-2 run under independent loss — executed on
//! `Pool::serial()` and on pools of 2 and 4 workers. The parallel runs return bit-identical
//! statistics (asserted here, not just in the test suite), so the only
//! thing this benchmark measures is wall-clock. `BENCH_sim.json` at the
//! repo root records the reference numbers together with the host core
//! count: speedup tops out at `min(workers, physical cores)`, so expect
//! ~1× on a single-core host and ≳3× on 4 cores.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use pm_par::Pool;
use pm_sim::runner::{run_env_par, LossEnv, Scheme};
use pm_sim::SimConfig;

const SCHEME: Scheme = Scheme::Integrated2 { k: 7 };
const ENV: LossEnv = LossEnv::Independent { p: 0.01 };
const RECEIVERS: usize = 4096;
const TRIALS: usize = 200;
const SEED: u64 = 42;

fn bench_sim_parallel(c: &mut Criterion) {
    let cfg = SimConfig::paper_timing(TRIALS);
    let serial = Pool::serial();
    let reference = run_env_par(&cfg, SCHEME, ENV, RECEIVERS, SEED, &serial);
    let mut g = c.benchmark_group("sim_parallel_integrated2_r4096");
    g.sample_size(10);
    g.bench_function(BenchmarkId::from_parameter("serial"), |b| {
        b.iter(|| run_env_par(&cfg, SCHEME, ENV, RECEIVERS, SEED, &serial));
    });
    for workers in [2usize, 4] {
        let pool = Pool::new(workers);
        let par = run_env_par(&cfg, SCHEME, ENV, RECEIVERS, SEED, &pool);
        assert_eq!(
            reference.mean_transmissions.to_bits(),
            par.mean_transmissions.to_bits(),
            "parallel result must be bit-identical before timing it"
        );
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("workers{workers}")),
            &workers,
            |b, _| {
                b.iter(|| run_env_par(&cfg, SCHEME, ENV, RECEIVERS, SEED, &pool));
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_sim_parallel);
criterion_main!(benches);
