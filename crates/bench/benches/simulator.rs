//! Criterion benchmarks of the discrete-event simulator: the Fig. 11/12
//! sweeps run hundreds of (scheme, R) points, so per-trial cost matters.
//! `loss_sample_lost` times the memoryless models' one transmission, the
//! geometric-skip walk every simulated packet of those figures pays.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use pm_loss::{IndependentLoss, LossModel, TreeLoss, TwoClassLoss};
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

/// One `sample_lost` call at R = 4096 and the paper's p = 0.01 (the
/// two-class population: α = 0.1 of receivers at 0.25): ≈ 41, 140 and 41
/// losses per call.
fn bench_loss_sample_lost(c: &mut Criterion) {
    fn bench(g: &mut criterion::BenchmarkGroup<'_>, name: &str, mut model: impl LossModel) {
        let mut lost = Vec::new();
        g.bench_function(name, |b| {
            b.iter(|| {
                model.sample_lost(0.0, &mut lost);
                lost.len()
            })
        });
    }
    let mut g = c.benchmark_group("loss_sample_lost");
    bench(
        &mut g,
        "independent_r4096",
        IndependentLoss::new(4096, 0.01, 42),
    );
    bench(
        &mut g,
        "two_class_r4096",
        TwoClassLoss::new(4096, 0.1, 0.01, 0.25, 42),
    );
    bench(&mut g, "fbt_r4096", TreeLoss::full_binary(12, 0.01, 42));
    g.finish();
}

criterion_group!(
    benches,
    bench_schemes,
    bench_environments,
    bench_loss_sample_lost
);
criterion_main!(benches);
