//! The paper's scale: Section 4 simulates to R = 2^17 and the analysis
//! runs to 10^6 receivers. With loss patterns drawn sparsely a trial costs
//! what its losses cost, so a million receivers is an ordinary test input
//! — checked against the closed form, with no wall-clock assertion.

use pm_analysis::{integrated, Population};
use pm_sim::runner::{run_env, LossEnv, Scheme};
use pm_sim::SimConfig;

#[test]
fn integrated_2_at_a_million_receivers_matches_the_lower_bound() {
    let (k, p, r) = (7usize, 0.01, 1usize << 20);
    let cfg = SimConfig::paper_timing(50);
    let res = run_env(
        &cfg,
        Scheme::Integrated2 { k },
        LossEnv::Independent { p },
        r,
        2,
    );
    let analytic = integrated::lower_bound(k, 0, &Population::homogeneous(p, r as u64));
    assert_eq!(res.trials, 50);
    assert!(
        (res.mean_transmissions - analytic).abs() < 3.0 * res.stderr,
        "sim {} vs Eq. (6) {analytic} (stderr {})",
        res.mean_transmissions,
        res.stderr
    );
}
