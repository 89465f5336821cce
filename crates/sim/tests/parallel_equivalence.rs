//! Serial ↔ parallel bit-equivalence: the determinism contract of the
//! parallel Monte Carlo engine.
//!
//! `run_env` (on `Pool::auto()`), `run_env_par` and its traced variant
//! must return results **bit-identical** — not merely statistically
//! close — to a serial run, `run_env_par(…, &Pool::serial())`, for every
//! scheme × loss-environment pair and any worker count. The contract
//! rests on per-trial seeding (`mix_seed(seed, i)`) plus a fixed chunk
//! layout merged in chunk order, and on per-worker trial buffers that
//! every trial leaves as it found them; this suite is the tripwire for
//! anything that reintroduces schedule dependence.

use pm_obs::{Obs, RingRecorder};
use pm_par::Pool;
use pm_sim::runner::{run_env, run_env_par, run_env_par_traced, LossEnv, Scheme};
use pm_sim::{SimConfig, SimResult};
use std::sync::Arc;

/// All four recovery schemes with paper-typical coding parameters.
fn schemes() -> [Scheme; 4] {
    [
        Scheme::NoFec,
        Scheme::Layered { k: 7, h: 1 },
        Scheme::Integrated1 { k: 7 },
        Scheme::Integrated2 { k: 7 },
    ]
}

/// All five loss environments. Receiver counts stay powers of two so the
/// tree-shaped environments are valid everywhere.
fn environments() -> [LossEnv; 5] {
    [
        LossEnv::Independent { p: 0.05 },
        LossEnv::FullBinaryTree { p: 0.05 },
        LossEnv::Burst {
            p: 0.05,
            mean_burst: 2.0,
        },
        LossEnv::TwoClass {
            alpha: 0.25,
            p_low: 0.01,
            p_high: 0.25,
        },
        LossEnv::TreeBurst {
            p: 0.05,
            mean_burst: 2.0,
        },
    ]
}

/// Field-by-field exact equality (f64 bit patterns via `==`; NaN-free
/// because every run here has ≥ 2 trials).
fn assert_bit_identical(a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(
        a.mean_transmissions.to_bits(),
        b.mean_transmissions.to_bits(),
        "{what}: mean_transmissions {} vs {}",
        a.mean_transmissions,
        b.mean_transmissions
    );
    assert_eq!(a.stderr.to_bits(), b.stderr.to_bits(), "{what}: stderr");
    assert_eq!(a.ci95.to_bits(), b.ci95.to_bits(), "{what}: ci95");
    assert_eq!(
        a.mean_rounds.to_bits(),
        b.mean_rounds.to_bits(),
        "{what}: mean_rounds"
    );
    assert_eq!(
        a.mean_unneeded.to_bits(),
        b.mean_unneeded.to_bits(),
        "{what}: mean_unneeded"
    );
    assert_eq!(a.trials, b.trials, "{what}: trials");
}

/// The single-threaded reference every other width must equal.
fn serial(cfg: &SimConfig, scheme: Scheme, env: LossEnv, receivers: usize, seed: u64) -> SimResult {
    run_env_par(cfg, scheme, env, receivers, seed, &Pool::serial())
}

#[test]
fn run_env_matches_serial_all_schemes_all_envs() {
    // `run_env` fans its trials over `Pool::auto()`: whatever width that
    // is where the test runs (or under PM_PAR_WORKERS), it is the serial result.
    let cfg = SimConfig::paper_timing(37);
    for scheme in schemes() {
        for env in environments() {
            assert_bit_identical(
                &serial(&cfg, scheme, env, 8, 0xC0FFEE),
                &run_env(&cfg, scheme, env, 8, 0xC0FFEE),
                &format!("run_env {scheme:?} / {env:?}"),
            );
        }
    }
}

#[test]
fn parallel_matches_serial_all_schemes_all_envs() {
    // 37 trials: not a multiple of the internal chunk size, so the final
    // ragged chunk is exercised too.
    let cfg = SimConfig::paper_timing(37);
    let pools = [Pool::new(2), Pool::new(3)];
    for scheme in schemes() {
        for env in environments() {
            let serial = serial(&cfg, scheme, env, 8, 0xFEED_F00D);
            for pool in &pools {
                let par = run_env_par(&cfg, scheme, env, 8, 0xFEED_F00D, pool);
                assert_bit_identical(
                    &serial,
                    &par,
                    &format!("{scheme:?} / {env:?} @ {} workers", pool.workers()),
                );
            }
        }
    }
}

#[test]
fn parallel_matches_serial_many_worker_counts() {
    // One scheme/env pair across a spread of worker counts, including
    // more workers than chunks.
    let cfg = SimConfig::paper_timing(50);
    let env = LossEnv::Burst {
        p: 0.05,
        mean_burst: 2.0,
    };
    let scheme = Scheme::Integrated2 { k: 7 };
    let serial = serial(&cfg, scheme, env, 16, 42);
    for workers in [1, 2, 3, 4, 7, 16] {
        let par = run_env_par(&cfg, scheme, env, 16, 42, &Pool::new(workers));
        assert_bit_identical(&serial, &par, &format!("{workers} workers"));
    }
}

#[test]
fn traced_parallel_matches_serial_stats_and_event_count() {
    // Tracing batches events thread-locally and flushes at trial
    // boundaries: the statistics stay bit-identical and every trial's
    // event arrives exactly once (order across threads is unspecified).
    let cfg = SimConfig::paper_timing(24);
    let env = LossEnv::Independent { p: 0.1 };
    let scheme = Scheme::Integrated2 { k: 3 };

    let ring_s = Arc::new(RingRecorder::new(256));
    let obs_s = Obs::new(ring_s.clone());
    let serial = run_env_par_traced(&cfg, scheme, env, 8, 5, &Pool::serial(), &obs_s, 1.0);

    let ring_p = Arc::new(RingRecorder::new(256));
    let obs_p = Obs::new(ring_p.clone());
    let par = run_env_par_traced(&cfg, scheme, env, 8, 5, &Pool::new(3), &obs_p, 1.0);

    assert_bit_identical(&serial, &par, "traced run");
    let events_s = ring_s.events();
    let events_p = ring_p.events();
    assert_eq!(events_s.len(), events_p.len(), "same event count");
    // Same multiset of trial indices regardless of arrival order.
    let mut trials_s: Vec<u64> = events_s
        .iter()
        .filter_map(|(_, e)| match e {
            pm_obs::Event::SimTrial { trial, .. } => Some(*trial),
            _ => None,
        })
        .collect();
    let mut trials_p: Vec<u64> = events_p
        .iter()
        .filter_map(|(_, e)| match e {
            pm_obs::Event::SimTrial { trial, .. } => Some(*trial),
            _ => None,
        })
        .collect();
    trials_s.sort_unstable();
    trials_p.sort_unstable();
    assert_eq!(trials_s, trials_p, "every trial traced exactly once");
}

#[test]
fn auto_pool_matches_serial() {
    // Whatever the host's core count, the contract holds.
    let cfg = SimConfig::paper_timing(40);
    let env = LossEnv::TwoClass {
        alpha: 0.25,
        p_low: 0.01,
        p_high: 0.25,
    };
    let serial = serial(&cfg, Scheme::Layered { k: 7, h: 1 }, env, 8, 123);
    let par = run_env_par(
        &cfg,
        Scheme::Layered { k: 7, h: 1 },
        env,
        8,
        123,
        &Pool::auto(),
    );
    assert_bit_identical(&serial, &par, "auto pool");
}
