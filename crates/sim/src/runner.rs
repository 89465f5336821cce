//! Scheme dispatch and deterministic per-trial seeding — serial and
//! parallel.
//!
//! # Execution model
//!
//! [`run_env`] gives every trial its **own** loss model, seeded with
//! [`pm_par::mix_seed`]`(seed, trial_index)`. Trials are therefore
//! mutually independent and order-free: trial 517 samples the same random
//! bits whether it runs first, last, or on another thread. [`run_env_par`]
//! exploits exactly that — it fans trial chunks across a [`Pool`] and
//! merges per-chunk [`SchemeStats`] in fixed chunk order (Chan et al.
//! parallel variance combine), so its [`SimResult`] is **bit-identical**
//! to the serial one for every scheme × environment pair; the
//! `parallel_equivalence` integration test pins this.

use pm_loss::{GilbertLoss, IndependentLoss, LossModel, TreeBurstLoss, TreeLoss, TwoClassLoss};
use pm_obs::{Event, EventBuffer, Obs};
use pm_par::{mix_seed, Pool};

use crate::config::SimConfig;
use crate::metrics::{SchemeStats, SimResult, TrialOut};
use crate::scheme;

/// Trials per work chunk in the parallel drivers. Fixed (never derived
/// from the worker count) so the chunk layout — and with it the merge
/// order of floating-point accumulators — is a pure function of the trial
/// count. Small enough to load-balance a 4-worker pool on a 50-trial run,
/// large enough that the one atomic fetch-add per chunk is noise.
const TRIAL_CHUNK: usize = 8;

/// A recovery scheme with its coding parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Plain ARQ.
    NoFec,
    /// Layered FEC with TG size `k` and `h` parities per block.
    Layered { k: usize, h: usize },
    /// Integrated FEC 1: parities streamed back-to-back, receivers leave.
    Integrated1 { k: usize },
    /// Integrated FEC 2: NP-style rounds, parities on demand.
    Integrated2 { k: usize },
}

impl Scheme {
    /// Short label used in figure output.
    pub fn label(&self) -> String {
        match self {
            Scheme::NoFec => "no-FEC".to_string(),
            Scheme::Layered { k, h } => format!("layered({k}+{h})"),
            Scheme::Integrated1 { k } => format!("integrated1(k={k})"),
            Scheme::Integrated2 { k } => format!("integrated2(k={k})"),
        }
    }

    /// Coding geometry `(k, h)` as recorded in `session_config` trace
    /// events. No-FEC sends bare packets (`k = 1`, no parity); the
    /// integrated schemes generate parities on demand, so their static
    /// budget is reported as `h = 0`.
    pub fn geometry(&self) -> (u32, u32) {
        match self {
            Scheme::NoFec => (1, 0),
            Scheme::Layered { k, h } => (*k as u32, *h as u32),
            Scheme::Integrated1 { k } | Scheme::Integrated2 { k } => (*k as u32, 0),
        }
    }

    /// Validate coding parameters (the per-trial path checks them once up
    /// front rather than once per trial).
    fn validate(&self) {
        match self {
            Scheme::NoFec => {}
            Scheme::Layered { k, .. } | Scheme::Integrated1 { k } | Scheme::Integrated2 { k } => {
                assert!(*k >= 1, "k must be at least 1");
            }
        }
    }
}

/// Simulate exactly one trial of `scheme` on `model`, advancing `now`.
fn run_trial<M: LossModel>(
    cfg: &SimConfig,
    scheme: Scheme,
    model: &mut M,
    now: &mut f64,
) -> TrialOut {
    match scheme {
        Scheme::NoFec => scheme::nofec_trial(cfg, model, now),
        Scheme::Layered { k, h } => scheme::layered_trial(cfg, k, h, model, now),
        Scheme::Integrated1 { k } => scheme::integrated_1_trial(cfg, k, model, now),
        Scheme::Integrated2 { k } => scheme::integrated_2_trial(cfg, k, model, now),
    }
}

/// The loss environments of Section 4, by name.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossEnv {
    /// Independent per-receiver loss with probability `p` (receivers only).
    Independent { p: f64 },
    /// Full binary tree of height `d` (`R = 2^d`), per-receiver end-to-end
    /// loss `p` (Section 4.1).
    FullBinaryTree { p: f64 },
    /// Two-state Markov burst loss with probability `p` and mean burst
    /// length `b`, calibrated at the run's `delta` (Section 4.2).
    Burst { p: f64, mean_burst: f64 },
    /// Two-class heterogeneous population (Section 3.3): fraction `alpha`
    /// of receivers at `p_high`, the rest at `p_low`.
    TwoClass { alpha: f64, p_low: f64, p_high: f64 },
    /// Shared bursts: Gilbert chains at every FBT node (extension
    /// combining Sections 4.1 and 4.2).
    TreeBurst { p: f64, mean_burst: f64 },
}

impl LossEnv {
    /// Check the `(environment, receivers)` combination before any trial
    /// runs.
    ///
    /// # Panics
    /// Panics if `receivers == 0`, or is not a power of two for the
    /// tree-shaped environments.
    fn validate(&self, receivers: usize) {
        assert!(receivers > 0, "need at least one receiver");
        match self {
            LossEnv::FullBinaryTree { .. } => assert!(
                receivers.is_power_of_two(),
                "FBT needs a power-of-two receiver count"
            ),
            LossEnv::TreeBurst { .. } => assert!(
                receivers.is_power_of_two(),
                "tree-burst needs a power-of-two receiver count"
            ),
            _ => {}
        }
    }

    /// Mean per-receiver end-to-end loss probability, as recorded in
    /// `session_config` trace events. Exact for the homogeneous
    /// environments; the population average for [`LossEnv::TwoClass`].
    pub fn mean_loss(&self) -> f64 {
        match self {
            LossEnv::Independent { p }
            | LossEnv::FullBinaryTree { p }
            | LossEnv::Burst { p, .. }
            | LossEnv::TreeBurst { p, .. } => *p,
            LossEnv::TwoClass {
                alpha,
                p_low,
                p_high,
            } => alpha * p_high + (1.0 - alpha) * p_low,
        }
    }
}

/// One concrete loss model instance built from a [`LossEnv`] — the
/// factory product handed to each trial. An enum (not a boxed trait
/// object) so per-trial construction costs no allocation beyond the
/// model's own state.
enum EnvModel {
    Independent(IndependentLoss),
    Tree(TreeLoss),
    Gilbert(GilbertLoss),
    TwoClass(TwoClassLoss),
    TreeBurst(TreeBurstLoss),
}

impl EnvModel {
    /// Build the model for `env` with its RNG seeded at `seed`.
    /// `env.validate(receivers)` must have passed.
    fn build(env: LossEnv, receivers: usize, delta: f64, seed: u64) -> EnvModel {
        match env {
            LossEnv::Independent { p } => {
                EnvModel::Independent(IndependentLoss::new(receivers, p, seed))
            }
            LossEnv::FullBinaryTree { p } => {
                let d = receivers.trailing_zeros();
                EnvModel::Tree(TreeLoss::full_binary(d, p, seed))
            }
            LossEnv::Burst { p, mean_burst } => {
                EnvModel::Gilbert(GilbertLoss::new(receivers, p, mean_burst, delta, seed))
            }
            LossEnv::TwoClass {
                alpha,
                p_low,
                p_high,
            } => EnvModel::TwoClass(TwoClassLoss::new(receivers, alpha, p_low, p_high, seed)),
            LossEnv::TreeBurst { p, mean_burst } => {
                let d = receivers.trailing_zeros();
                EnvModel::TreeBurst(TreeBurstLoss::new(d, p, mean_burst, delta, seed))
            }
        }
    }
}

impl LossModel for EnvModel {
    fn receivers(&self) -> usize {
        match self {
            EnvModel::Independent(m) => m.receivers(),
            EnvModel::Tree(m) => m.receivers(),
            EnvModel::Gilbert(m) => m.receivers(),
            EnvModel::TwoClass(m) => m.receivers(),
            EnvModel::TreeBurst(m) => m.receivers(),
        }
    }

    fn sample_lost(&mut self, time: f64, out: &mut Vec<u32>) {
        match self {
            EnvModel::Independent(m) => m.sample_lost(time, out),
            EnvModel::Tree(m) => m.sample_lost(time, out),
            EnvModel::Gilbert(m) => m.sample_lost(time, out),
            EnvModel::TwoClass(m) => m.sample_lost(time, out),
            EnvModel::TreeBurst(m) => m.sample_lost(time, out),
        }
    }
}

/// Shared trial body of the serial and parallel drivers: build the
/// trial's model from its mixed seed, run it from simulated time zero,
/// fold the outputs, and (when tracing) stage + flush a `sim_trial` event
/// at the trial boundary.
struct TrialCtx<'a> {
    cfg: &'a SimConfig,
    scheme: Scheme,
    env: LossEnv,
    receivers: usize,
    seed: u64,
    trace: Option<(&'a Obs, &'a str)>,
}

impl TrialCtx<'_> {
    fn run_into(&self, acc: &mut TracedAccum, trial: usize) {
        let mut model = EnvModel::build(
            self.env,
            self.receivers,
            self.cfg.delta,
            mix_seed(self.seed, trial as u64),
        );
        let mut now = 0.0f64;
        let out = run_trial(self.cfg, self.scheme, &mut model, &mut now);
        if let Some((obs, label)) = self.trace {
            acc.buf.emit(now, || Event::SimTrial {
                scheme: label.to_string(),
                trial: trial as u64,
                m: out.mean_m(),
                rounds: out.rounds,
            });
            // Trial boundary: hand the whole batch to the shared recorder
            // so events of different trials never interleave mid-trial.
            acc.buf.flush_to(obs);
        }
        acc.stats.push_trial(&out);
    }

    fn accum(&self) -> TracedAccum {
        TracedAccum {
            stats: SchemeStats::new(),
            buf: match self.trace {
                Some((obs, _)) => EventBuffer::for_obs(obs),
                None => EventBuffer::default(),
            },
        }
    }

    /// Fan this context's trials across `pool` and reduce
    /// deterministically.
    fn run_all(&self, pool: &Pool) -> SimResult {
        pool.par_map_reduce(
            self.cfg.trials,
            TRIAL_CHUNK,
            || self.accum(),
            |acc, trial| self.run_into(acc, trial),
            |acc, part| acc.stats.merge(&part.stats),
        )
        .stats
        .result()
    }
}

/// Chunk accumulator of the parallel drivers: statistics plus the
/// thread-local event staging buffer.
struct TracedAccum {
    stats: SchemeStats,
    buf: EventBuffer,
}

/// Run `scheme` in `env` with `receivers` receivers (must be a power of
/// two for the tree environments), serially, with one independently
/// seeded loss model per trial. Bit-identical to [`run_env_par`] at any
/// worker count.
///
/// # Panics
/// Panics if `receivers == 0`, or is not a power of two for the FBT /
/// tree-burst environments.
pub fn run_env(
    cfg: &SimConfig,
    scheme: Scheme,
    env: LossEnv,
    receivers: usize,
    seed: u64,
) -> SimResult {
    run_env_par(cfg, scheme, env, receivers, seed, &Pool::serial())
}

/// [`run_env`] with trials fanned across `pool`.
///
/// Determinism: trial `i` always draws from `mix_seed(seed, i)`, chunks
/// are fixed at [`TRIAL_CHUNK`] trials, and chunk statistics merge in
/// chunk order — the result is a pure function of the arguments, never of
/// `pool.workers()` or the OS schedule.
///
/// # Panics
/// Same conditions as [`run_env`].
pub fn run_env_par(
    cfg: &SimConfig,
    scheme: Scheme,
    env: LossEnv,
    receivers: usize,
    seed: u64,
    pool: &Pool,
) -> SimResult {
    scheme.validate();
    env.validate(receivers);
    TrialCtx {
        cfg,
        scheme,
        env,
        receivers,
        seed,
        trace: None,
    }
    .run_all(pool)
}

/// [`run_env_par`] with tracing: every trial emits a `sim_trial` event
/// (timestamped with the trial's *simulated* end time), batched in a
/// thread-local [`EventBuffer`] and flushed to `obs` at the trial
/// boundary; a `sim_run` summary follows at wall-clock timestamp `now`.
/// The returned statistics stay bit-identical to [`run_env`].
///
/// # Panics
/// Same conditions as [`run_env`].
#[expect(
    clippy::too_many_arguments,
    reason = "the traced superset of run_env_par's signature"
)]
pub fn run_env_par_traced(
    cfg: &SimConfig,
    scheme: Scheme,
    env: LossEnv,
    receivers: usize,
    seed: u64,
    pool: &Pool,
    obs: &Obs,
    now: f64,
) -> SimResult {
    scheme.validate();
    env.validate(receivers);
    let (k, h) = scheme.geometry();
    obs.emit(now, || Event::SessionConfig {
        session: 0,
        k,
        h,
        receivers: receivers as u32,
        loss: env.mean_loss(),
        backend: pm_simd::backend_name(),
    });
    let label = scheme.label();
    let res = TrialCtx {
        cfg,
        scheme,
        env,
        receivers,
        seed,
        trace: Some((obs, &label)),
    }
    .run_all(pool);
    obs.emit(now, || Event::SimRun {
        scheme: label.clone(),
        receivers: receivers as u64,
        trials: res.trials as u64,
        mean_m: res.mean_transmissions,
        ci95: res.ci95,
        mean_rounds: res.mean_rounds,
    });
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`run_trial`] on the dense `#[cfg(test)]` oracle loops.
    fn run_trial_dense<M: LossModel>(
        cfg: &SimConfig,
        scheme: Scheme,
        model: &mut M,
        now: &mut f64,
    ) -> TrialOut {
        match scheme {
            Scheme::NoFec => scheme::nofec_trial_dense(cfg, model, now),
            Scheme::Layered { k, h } => scheme::layered_trial_dense(cfg, k, h, model, now),
            Scheme::Integrated1 { k } => scheme::integrated_1_trial_dense(cfg, k, model, now),
            Scheme::Integrated2 { k } => scheme::integrated_2_trial_dense(cfg, k, model, now),
        }
    }

    #[test]
    fn sparse_trial_loops_equal_their_dense_oracles() {
        // Twin models on one seed give the oracle (through `sample`) and
        // the sparse loop (through `sample_lost`) the same loss patterns,
        // so every output must agree exactly — and so must the clock, or a
        // time-correlated model would have diverged. Loss rates are high
        // enough that most trials run several rounds.
        let cfg = SimConfig::paper_timing(1);
        let envs = [
            LossEnv::Independent { p: 0.2 },
            LossEnv::FullBinaryTree { p: 0.2 },
            LossEnv::Burst {
                p: 0.15,
                mean_burst: 2.5,
            },
            LossEnv::TwoClass {
                alpha: 0.3,
                p_low: 0.02,
                p_high: 0.4,
            },
            LossEnv::TreeBurst {
                p: 0.15,
                mean_burst: 2.0,
            },
        ];
        let mut multi_round = 0usize;
        for k in [1usize, 3, 7, 20] {
            let schemes = [
                Scheme::NoFec,
                Scheme::Layered {
                    k,
                    h: k.div_ceil(4),
                },
                Scheme::Integrated1 { k },
                Scheme::Integrated2 { k },
            ];
            for (scheme, env) in schemes
                .iter()
                .flat_map(|s| envs.iter().map(move |e| (*s, *e)))
            {
                for r in [1usize, 5, 64, 300] {
                    let tree = matches!(
                        env,
                        LossEnv::FullBinaryTree { .. } | LossEnv::TreeBurst { .. }
                    );
                    // The tree environments need R = 2^d: 1, 4, 64, 256.
                    let r = if tree { 1 << r.ilog2() } else { r };
                    for seed in 0..200u64 {
                        let seed = mix_seed(seed, (k * 1000 + r) as u64);
                        let mut sparse_model = EnvModel::build(env, r, cfg.delta, seed);
                        let mut dense_model = EnvModel::build(env, r, cfg.delta, seed);
                        let (mut now_sparse, mut now_dense) = (0.0, 0.0);
                        let sparse = run_trial(&cfg, scheme, &mut sparse_model, &mut now_sparse);
                        let dense = run_trial_dense(&cfg, scheme, &mut dense_model, &mut now_dense);
                        assert_eq!(sparse, dense, "{scheme:?} {env:?} R={r} seed={seed}");
                        assert_eq!(now_sparse, now_dense, "{scheme:?} {env:?} R={r}");
                        multi_round += usize::from(dense.rounds > 1.0);
                    }
                }
            }
        }
        assert!(
            multi_round > 20_000,
            "only {multi_round} multi-round trials"
        );
    }

    #[test]
    fn env_model_draws_the_bare_models_stream() {
        // `EnvModel` adds nothing between a trial loop and the model's own
        // sampler: same seed, same loss lists as the bare model.
        let mut wrapped = EnvModel::build(LossEnv::Independent { p: 0.05 }, 4096, 0.04, 77);
        let mut bare = IndependentLoss::new(4096, 0.05, 77);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for i in 0..50 {
            wrapped.sample_lost(i as f64, &mut a);
            bare.sample_lost(i as f64, &mut b);
            assert!(!a.is_empty());
            assert_eq!(a, b);
        }
    }

    #[test]
    fn labels() {
        assert_eq!(Scheme::NoFec.label(), "no-FEC");
        assert_eq!(Scheme::Layered { k: 7, h: 1 }.label(), "layered(7+1)");
        assert_eq!(Scheme::Integrated2 { k: 20 }.label(), "integrated2(k=20)");
    }

    #[test]
    fn dispatch_runs_all_schemes() {
        let cfg = SimConfig::paper_timing(50);
        for s in [
            Scheme::NoFec,
            Scheme::Layered { k: 3, h: 1 },
            Scheme::Integrated1 { k: 3 },
            Scheme::Integrated2 { k: 3 },
        ] {
            let res = run_env(&cfg, s, LossEnv::Independent { p: 0.1 }, 4, 1);
            assert!(res.mean_transmissions >= 1.0, "{s:?}");
            assert_eq!(
                res.trials,
                if matches!(s, Scheme::Layered { .. }) {
                    150
                } else {
                    50
                }
            );
        }
    }

    #[test]
    fn environments_construct() {
        let cfg = SimConfig::paper_timing(30);
        for env in [
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
        ] {
            let res = run_env(&cfg, Scheme::NoFec, env, 8, 2);
            assert!(res.mean_transmissions >= 1.0);
        }
    }

    #[test]
    fn shared_loss_needs_fewer_transmissions() {
        // Fig. 11/12's core observation: FBT shared loss yields lower E[M]
        // than independent loss at the same per-receiver p.
        let cfg = SimConfig::paper_timing(1500);
        let r = 256;
        let indep =
            run_env(&cfg, Scheme::NoFec, LossEnv::Independent { p: 0.05 }, r, 7).mean_transmissions;
        let shared = run_env(
            &cfg,
            Scheme::NoFec,
            LossEnv::FullBinaryTree { p: 0.05 },
            r,
            7,
        )
        .mean_transmissions;
        assert!(
            shared < indep,
            "shared loss E[M]={shared} should undercut independent {indep}"
        );
    }

    #[test]
    fn trial_reseeding_makes_trials_order_free() {
        // Doubling the trial count must leave the first trials' samples
        // untouched: with per-trial seeding the run is a prefix-stable
        // sequence, unlike a shared stream where every trial depends on
        // its predecessors. Proxy: a 50-trial mean over seeds 0..49 equals
        // the matching prefix recomputed trial-by-trial.
        let cfg_small = SimConfig::paper_timing(50);
        let env = LossEnv::Burst {
            p: 0.05,
            mean_burst: 2.0,
        };
        let direct = run_env(&cfg_small, Scheme::Integrated2 { k: 7 }, env, 8, 11);
        let cfg_one = SimConfig::paper_timing(1);
        let mut stats = SchemeStats::new();
        for t in 0..50usize {
            // One-trial runs at shifted base seeds reproduce each trial:
            // run_env(seed) trial 0 uses mix_seed(seed, 0), so walk the
            // seed domain trial by trial via the same mixer inputs.
            let mut model = EnvModel::build(env, 8, cfg_one.delta, mix_seed(11, t as u64));
            let mut now = 0.0;
            stats.push_trial(&run_trial(
                &cfg_one,
                Scheme::Integrated2 { k: 7 },
                &mut model,
                &mut now,
            ));
        }
        // Same trials, but accumulated without the chunked merge — means
        // agree to reassociation error, counts exactly.
        let manual = stats.result();
        assert_eq!(direct.trials, manual.trials);
        assert!((direct.mean_transmissions - manual.mean_transmissions).abs() < 1e-9);
        assert!((direct.mean_rounds - manual.mean_rounds).abs() < 1e-9);
    }

    #[test]
    fn traced_run_emits_summary() {
        use std::sync::Arc;
        let ring = Arc::new(pm_obs::RingRecorder::new(64));
        let obs = Obs::new(ring.clone());
        let cfg = SimConfig::paper_timing(40);
        let res = run_env_par_traced(
            &cfg,
            Scheme::Integrated2 { k: 3 },
            LossEnv::Independent { p: 0.1 },
            4,
            1,
            &Pool::serial(),
            &obs,
            2.5,
        );
        let events = ring.events();
        // A session_config header, 40 sim_trial events, one sim_run summary.
        assert_eq!(events.len(), 42);
        match &events[0].1 {
            Event::SessionConfig {
                k,
                h,
                receivers,
                backend,
                ..
            } => {
                assert_eq!((*k, *h), (3, 0));
                assert_eq!(*receivers, 4);
                assert_eq!(*backend, pm_simd::backend_name());
            }
            other => panic!("expected SessionConfig, got {other:?}"),
        }
        let (t, last) = events.last().unwrap();
        assert_eq!(*t, 2.5);
        match last {
            Event::SimRun {
                scheme,
                receivers,
                trials,
                mean_m,
                ..
            } => {
                assert_eq!(scheme, "integrated2(k=3)");
                assert_eq!(*receivers, 4);
                assert_eq!(*trials as usize, res.trials);
                assert_eq!(*mean_m, res.mean_transmissions);
            }
            other => panic!("expected SimRun, got {other:?}"),
        }
        // Trial events carry their index and the scheme label.
        match &events[1].1 {
            Event::SimTrial { scheme, trial, .. } => {
                assert_eq!(scheme, "integrated2(k=3)");
                assert_eq!(*trial, 0);
            }
            other => panic!("expected SimTrial, got {other:?}"),
        }
    }

    #[test]
    fn traced_stats_match_untraced() {
        use std::sync::Arc;
        let cfg = SimConfig::paper_timing(30);
        let env = LossEnv::Independent { p: 0.1 };
        let plain = run_env(&cfg, Scheme::NoFec, env, 4, 9);
        let ring = Arc::new(pm_obs::RingRecorder::new(256));
        let obs = Obs::new(ring.clone());
        let traced = run_env_par_traced(&cfg, Scheme::NoFec, env, 4, 9, &Pool::serial(), &obs, 0.0);
        assert_eq!(plain, traced, "tracing must not perturb statistics");
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn fbt_requires_power_of_two() {
        let cfg = SimConfig::paper_timing(10);
        let _ = run_env(
            &cfg,
            Scheme::NoFec,
            LossEnv::FullBinaryTree { p: 0.1 },
            3,
            0,
        );
    }
}
