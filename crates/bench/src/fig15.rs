//! Figure 15 — burst loss vs layered FEC: no-FEC against layered `7+1`
//! and `7+3`, `p = 0.01`, mean burst `b = 2`, simulated.

use pm_sim::runner::{run_env, LossEnv, Scheme};
use pm_sim::SimConfig;

use crate::common::{sim_trials, Figure, Quality, Series};

const P: f64 = 0.01;
const B: f64 = 2.0;

fn burst_grid(quality: Quality) -> Vec<u64> {
    match quality {
        Quality::Quick => vec![1, 4, 16, 64],
        Quality::Full => vec![1, 4, 16, 64, 256, 1024, 4096],
    }
}

/// Shared generator for the burst-loss figures.
pub fn burst_figure(id: &str, title: &str, schemes: &[Scheme], quality: Quality) -> Figure {
    let cfg = SimConfig::paper_timing(sim_trials(quality));
    let env = LossEnv::Burst {
        p: P,
        mean_burst: B,
    };
    let grid = burst_grid(quality);
    let series = schemes
        .iter()
        .map(|&s| {
            let pts: Vec<(f64, f64)> = grid
                .iter()
                .map(|&r| {
                    let res = run_env(&cfg, s, env, r as usize, 0xB0B ^ r);
                    (r as f64, res.mean_transmissions)
                })
                .collect();
            Series::new(s.label(), pts)
        })
        .collect();
    Figure {
        id: id.into(),
        title: title.into(),
        x_label: "receivers R".into(),
        y_label: "transmissions E[M]".into(),
        log_x: true,
        series,
        notes: vec![format!(
            "simulated; two-state Markov loss, p = {P}, b = {B}, delta = 40ms, T = 300ms"
        )],
    }
}

/// Generate Figure 15.
pub fn generate(quality: Quality) -> Figure {
    burst_figure(
        "fig15",
        "burst loss and layered FEC",
        &[
            Scheme::NoFec,
            Scheme::Layered { k: 7, h: 1 },
            Scheme::Layered { k: 7, h: 3 },
        ],
        quality,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layered_loses_to_nofec_under_bursts() {
        let _cores = crate::tests::cores_shared();
        // The paper's headline negative result: with bursts of mean 2,
        // layered FEC at k = 7 is WORSE than plain ARQ.
        let fig = generate(Quality::Quick);
        let no_fec = fig.series_named("no-FEC").unwrap().last_y().unwrap();
        let l1 = fig.series_named("layered(7+1)").unwrap().last_y().unwrap();
        assert!(
            l1 > no_fec,
            "burst loss should make layered(7+1) ({l1}) worse than no-FEC ({no_fec})"
        );
    }
}
