//! Criterion benchmarks of the discrete-event simulator: the Fig. 11/12
//! sweeps run hundreds of (scheme, R) points, so per-trial cost matters.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use pm_sim::runner::{run_env, LossEnv, Scheme};
use pm_sim::SimConfig;

fn bench_schemes(c: &mut Criterion) {
    let cfg = SimConfig::paper_timing(50);
    let mut g = c.benchmark_group("sim_schemes_r256");
    for scheme in [
        Scheme::NoFec,
        Scheme::Layered { k: 7, h: 1 },
        Scheme::Integrated1 { k: 7 },
        Scheme::Integrated2 { k: 7 },
    ] {
        g.bench_with_input(
            BenchmarkId::from_parameter(scheme.label()),
            &scheme,
            |b, &s| {
                b.iter(|| run_env(&cfg, s, LossEnv::Independent { p: 0.01 }, 256, 42));
            },
        );
    }
    g.finish();
}

fn bench_environments(c: &mut Criterion) {
    let cfg = SimConfig::paper_timing(50);
    let mut g = c.benchmark_group("sim_envs_nofec_r1024");
    for (name, env) in [
        ("independent", LossEnv::Independent { p: 0.01 }),
        ("fbt", LossEnv::FullBinaryTree { p: 0.01 }),
        (
            "burst",
            LossEnv::Burst {
                p: 0.01,
                mean_burst: 2.0,
            },
        ),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &env, |b, &e| {
            b.iter(|| run_env(&cfg, Scheme::NoFec, e, 1024, 42));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_schemes, bench_environments);
criterion_main!(benches);
