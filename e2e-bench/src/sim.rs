//! One repetition of the simulator workload: `run_env`, serial, at the
//! paper's Integrated-FEC-2 point. It shares no code with the protocol
//! stack -- pm-sim, pm-loss, pm-par and pm-analysis are all it touches.

use std::time::Instant;

use pm_analysis::{integrated, Population};
use pm_par::Pool;
use pm_sim::runner::{run_env, run_env_par, LossEnv, Scheme};
use pm_sim::{SimConfig, SimResult};

use crate::host::{self, CpuSample};
use crate::spec::SimSpec;

/// What one simulator repetition measured.
#[derive(Debug, Clone)]
pub struct SimRep {
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu: CpuSample,
    /// Simulated deliveries: trials x k x receivers.
    pub deliveries: u64,
    pub result: SimResult,
    /// The analytical E[M] evaluated during set-up.
    pub em_pred: f64,
}

fn scheme(spec: &SimSpec) -> Scheme {
    Scheme::Integrated2 { k: spec.k }
}

fn env(spec: &SimSpec) -> LossEnv {
    LossEnv::Independent { p: spec.loss }
}

/// The idealized integrated-FEC E[M] (Eqs. 4-6) the simulated scheme --
/// parities on demand, never exhausted -- converges to.
pub fn predicted_em(spec: &SimSpec) -> f64 {
    let pop = Population::homogeneous(spec.loss, spec.receivers as u64);
    integrated::lower_bound(spec.k, 0, &pop)
}

/// Set-up is what a figure regeneration does before it simulates a point:
/// build the configuration and evaluate the analytical curve there.
pub fn run_rep(spec: &SimSpec, seed: u64) -> SimRep {
    let started = Instant::now();
    let cfg = SimConfig::paper_timing(spec.trials);
    let em_pred = predicted_em(spec);
    let setup_s = started.elapsed().as_secs_f64();

    let cpu0 = CpuSample::now();
    let t0 = Instant::now();
    let result = run_env(&cfg, scheme(spec), env(spec), spec.receivers, seed);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu = CpuSample::now().since(&cpu0);

    SimRep {
        setup_s,
        wall_s,
        cpu,
        deliveries: (spec.trials * spec.k * spec.receivers) as u64,
        result,
        em_pred,
    }
}

/// The determinism contract, checked once per process: the serial result
/// is bit-identical to the one `min(2, nproc)` workers produce.
pub fn check_parallel_identity(
    spec: &SimSpec,
    seed: u64,
    serial: &SimResult,
) -> Result<(), String> {
    let cfg = SimConfig::paper_timing(spec.trials);
    let pool = Pool::new(host::nproc().min(2));
    let parallel = run_env_par(&cfg, scheme(spec), env(spec), spec.receivers, seed, &pool);
    if parallel == *serial {
        Ok(())
    } else {
        Err(format!(
            "serial and {}-worker simulator results differ: {serial:?} vs {parallel:?}",
            pool.workers()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_matches_analysis_and_its_parallel_twin() {
        let spec = SimSpec {
            k: 7,
            loss: 0.01,
            receivers: 256,
            trials: 400,
        };
        let rep = run_rep(&spec, 5);
        assert_eq!(rep.deliveries, 400 * 7 * 256);
        let dev = (rep.result.mean_transmissions / rep.em_pred - 1.0).abs();
        assert!(
            dev < 0.03,
            "E[M] {} vs {}",
            rep.result.mean_transmissions,
            rep.em_pred
        );
        check_parallel_identity(&spec, 5, &rep.result).expect("bit-identical");
        assert_ne!(
            run_rep(&spec, 6).result,
            rep.result,
            "the seed reaches the simulator"
        );
    }
}
