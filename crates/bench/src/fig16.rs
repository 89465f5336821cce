//! Figure 16 — burst loss and integrated FEC: variants 1 (parities
//! back-to-back) and 2 (rounds spaced by `T`), `k = 7, 20, 100`.

use pm_sim::runner::Scheme;

use crate::common::{Figure, Quality};
use crate::fig15::burst_figure;

/// Generate Figure 16.
pub fn generate(quality: Quality) -> Figure {
    burst_figure(
        "fig16",
        "burst loss and integrated FEC",
        &[
            Scheme::NoFec,
            Scheme::Integrated1 { k: 7 },
            Scheme::Integrated2 { k: 7 },
            Scheme::Integrated1 { k: 20 },
            Scheme::Integrated2 { k: 20 },
            Scheme::Integrated1 { k: 100 },
            Scheme::Integrated2 { k: 100 },
        ],
        quality,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaving_helps_small_k_only() {
        let _cores = crate::tests::cores_shared();
        let fig = generate(Quality::Quick);
        let edge = |label: &str| fig.series_named(label).unwrap().last_y().unwrap();
        // k = 7: the spread-out variant 2 clearly beats variant 1.
        assert!(
            edge("integrated2(k=7)") < edge("integrated1(k=7)"),
            "int2 {} vs int1 {}",
            edge("integrated2(k=7)"),
            edge("integrated1(k=7)")
        );
        // k = 100: the two variants nearly coincide (no interleaving
        // needed) and both sit close to 1.
        let v1 = edge("integrated1(k=100)");
        let v2 = edge("integrated2(k=100)");
        assert!((v1 - v2).abs() < 0.06, "k=100 variants {v1} vs {v2}");
        assert!(v1 < 1.2 && v2 < 1.2);
    }

    #[test]
    fn larger_groups_monotonically_better() {
        let _cores = crate::tests::cores_shared();
        let fig = generate(Quality::Quick);
        let edge = |label: &str| fig.series_named(label).unwrap().last_y().unwrap();
        assert!(edge("integrated2(k=20)") < edge("integrated2(k=7)"));
        assert!(edge("integrated2(k=100)") < edge("integrated2(k=20)"));
    }
}
