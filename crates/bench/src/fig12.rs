//! Figure 12 — integrated FEC (`k = 7`) vs non-FEC under independent and
//! FBT shared loss, simulated.

use pm_sim::runner::Scheme;

use crate::common::{Figure, Quality};
use crate::fig11::shared_loss_figure;

/// Generate Figure 12.
pub fn generate(quality: Quality) -> Figure {
    shared_loss_figure(
        "fig12",
        "integrated FEC vs non-FEC under independent and FBT shared loss",
        Scheme::Integrated2 { k: 7 },
        quality,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrated_benefit_remains_substantial_but_smaller_when_shared() {
        let _cores = crate::tests::cores_shared();
        let fig = generate(Quality::Quick);
        let at_edge = |label: &str| fig.series_named(label).unwrap().last_y().unwrap();
        let arq_i = at_edge("non-FEC, indep. loss");
        let arq_s = at_edge("non-FEC, FBT loss");
        let fec_i = at_edge("FEC, indep. loss");
        let fec_s = at_edge("FEC, FBT loss");
        // FEC wins in both environments...
        assert!(fec_i < arq_i, "{fec_i} vs {arq_i}");
        assert!(fec_s < arq_s, "{fec_s} vs {arq_s}");
        // ...but the absolute saving shrinks under shared loss.
        assert!(
            (arq_s - fec_s) < (arq_i - fec_i) + 0.05,
            "saving shared {} vs indep {}",
            arq_s - fec_s,
            arq_i - fec_i
        );
    }
}
