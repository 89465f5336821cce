//! Figure 11 — layered FEC (`k = 7`, `h = 1`) and no-FEC under
//! independent vs shared full-binary-tree loss, simulated for `R = 2^d`.

use pm_sim::runner::{run_env, LossEnv, Scheme};
use pm_sim::SimConfig;

use crate::common::{pow2_grid, sim_trials, Figure, Quality, Series};

const P: f64 = 0.01;

/// Shared generator for Figs. 11/12 (they differ in the FEC scheme).
pub fn shared_loss_figure(id: &str, title: &str, fec: Scheme, quality: Quality) -> Figure {
    let cfg = SimConfig::paper_timing(sim_trials(quality));
    let grid = pow2_grid(quality);
    let runs = [
        (
            "non-FEC, indep. loss",
            Scheme::NoFec,
            LossEnv::Independent { p: P },
        ),
        (
            "non-FEC, FBT loss",
            Scheme::NoFec,
            LossEnv::FullBinaryTree { p: P },
        ),
        ("FEC, indep. loss", fec, LossEnv::Independent { p: P }),
        ("FEC, FBT loss", fec, LossEnv::FullBinaryTree { p: P }),
    ];
    let series = runs
        .iter()
        .map(|(label, scheme, env)| {
            let pts: Vec<(f64, f64)> = grid
                .iter()
                .map(|&r| {
                    let res = run_env(&cfg, *scheme, *env, r as usize, 0x51AB ^ r);
                    (r as f64, res.mean_transmissions)
                })
                .collect();
            Series::new(*label, pts)
        })
        .collect();
    Figure {
        id: id.into(),
        title: title.into(),
        x_label: "receivers R".into(),
        y_label: "transmissions E[M]".into(),
        log_x: true,
        series,
        notes: vec![
            format!("simulated, p = {P}; FBT: p_node = 1-(1-p)^(1/(d+1)), R = 2^d"),
            format!("FEC scheme: {}", fec.label()),
        ],
    }
}

/// Generate Figure 11.
pub fn generate(quality: Quality) -> Figure {
    shared_loss_figure(
        "fig11",
        "layered FEC vs non-FEC under independent and FBT shared loss",
        Scheme::Layered { k: 7, h: 1 },
        quality,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_loss_lowers_transmissions() {
        let _cores = crate::tests::cores_shared();
        let fig = generate(Quality::Quick);
        let indep = fig
            .series_named("non-FEC, indep. loss")
            .unwrap()
            .last_y()
            .unwrap();
        let shared = fig
            .series_named("non-FEC, FBT loss")
            .unwrap()
            .last_y()
            .unwrap();
        assert!(shared < indep, "shared {shared} vs indep {indep}");
        let fec_i = fig
            .series_named("FEC, indep. loss")
            .unwrap()
            .last_y()
            .unwrap();
        let fec_s = fig.series_named("FEC, FBT loss").unwrap().last_y().unwrap();
        assert!(fec_s <= fec_i + 0.05, "FEC shared {fec_s} vs indep {fec_i}");
    }

    #[test]
    fn layered_crossover_later_under_shared_loss() {
        let _cores = crate::tests::cores_shared();
        // Layered beats no-FEC for R > ~20 under independent loss but only
        // for R > ~60 under shared loss; check the ordering flips in the
        // right direction at a mid-size R.
        let fig = shared_loss_figure("t", "t", Scheme::Layered { k: 7, h: 1 }, Quality::Quick);
        let at = |label: &str, x: f64| fig.series_named(label).unwrap().y_at(x).unwrap();
        // At R = 64 independent-loss layered already wins clearly.
        assert!(at("FEC, indep. loss", 64.0) < at("non-FEC, indep. loss", 64.0));
        // Under shared loss the gap at R = 64 is smaller than under
        // independent loss (the crossover happens later).
        let gap_indep = at("non-FEC, indep. loss", 64.0) - at("FEC, indep. loss", 64.0);
        let gap_shared = at("non-FEC, FBT loss", 64.0) - at("FEC, FBT loss", 64.0);
        assert!(
            gap_shared < gap_indep + 0.02,
            "shared gap {gap_shared} should trail independent gap {gap_indep}"
        );
    }
}
