//! Plain ARQ without FEC — the baseline of every figure.
//!
//! Every lost packet is retransmitted (multicast) until all receivers have
//! it. With independent loss `p_r` per receiver, the number of transmissions
//! `M` of a packet satisfies `P(M <= i) = prod_r (1 - p_r^i)` and
//! `E[M] = sum_{i>=0} (1 - P(M <= i))`. This is the `k = n` degenerate case
//! of the layered formula.

use crate::layered;
use crate::population::Population;

/// Expected transmissions per packet for no-FEC reliable multicast over an
/// independent-loss population.
pub fn expected_transmissions(pop: &Population) -> f64 {
    // Layered with h = 0 and k = 1 reduces exactly to the ARQ formula
    // (q = p, expansion factor 1).
    layered::expected_transmissions(1, 0, pop)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_is_one() {
        assert!(
            (expected_transmissions(&Population::homogeneous(0.0, 1_000_000)) - 1.0).abs() < 1e-12
        );
    }

    #[test]
    fn single_receiver_geometric() {
        for p in [0.01, 0.1, 0.25] {
            let m = expected_transmissions(&Population::homogeneous(p, 1));
            assert!((m - 1.0 / (1.0 - p)).abs() < 1e-9, "p={p} m={m}");
        }
    }

    #[test]
    fn two_receivers_closed_form() {
        // E[M] for R=2: sum_i (1 - (1-p^i)^2) = sum_i (2 p^i - p^{2i})
        //             = 1 + 2p/(1-p) - p^2/(1-p^2).
        let p: f64 = 0.2;
        let expect = 1.0 + 2.0 * p / (1.0 - p) - p * p / (1.0 - p * p);
        let m = expected_transmissions(&Population::homogeneous(p, 2));
        assert!((m - expect).abs() < 1e-9, "m={m} expect={expect}");
    }

    #[test]
    fn paper_fig9_shape() {
        // Fig. 9: at R = 10^6, 1% high-loss receivers (p = 0.25) roughly
        // double E[M] relative to the clean population.
        let clean = expected_transmissions(&Population::homogeneous(0.01, 1_000_000));
        let dirty = expected_transmissions(&Population::two_class(1_000_000, 0.01, 0.01, 0.25));
        let ratio = dirty / clean;
        assert!(
            (1.5..=2.6).contains(&ratio),
            "expected ~2x degradation, got {ratio} ({clean} -> {dirty})"
        );
        // ...but one high-loss receiver among 100 barely moves it.
        let small_clean = expected_transmissions(&Population::homogeneous(0.01, 100));
        let small_dirty = expected_transmissions(&Population::two_class(100, 0.01, 0.01, 0.25));
        assert!(
            small_dirty / small_clean < 1.45,
            "{small_dirty} / {small_clean}"
        );
    }

    #[test]
    fn log_growth_in_receivers() {
        // E[M] grows like log(R)/log(1/p): check the increments per decade
        // are roughly constant.
        let m = |r| expected_transmissions(&Population::homogeneous(0.01, r));
        let d1 = m(1_000) - m(100);
        let d2 = m(10_000) - m(1_000);
        let d3 = m(100_000) - m(10_000);
        assert!(
            (d1 - d2).abs() < 0.1 && (d2 - d3).abs() < 0.1,
            "{d1} {d2} {d3}"
        );
        // Per-decade growth should be ~ log10 / log(1/p) = 2.3/4.6 = 0.5.
        assert!((d2 - 0.5).abs() < 0.1, "d2={d2}");
    }
}
