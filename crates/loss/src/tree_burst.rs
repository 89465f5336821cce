//! Spatio-temporally correlated loss: Gilbert burst chains at the nodes
//! of a multicast tree.
//!
//! The paper studies spatial correlation (Section 4.1) and temporal
//! correlation (Section 4.2) separately and notes that real trees exhibit
//! both: a congested router drops *runs* of packets and every downstream
//! receiver shares them. [`TreeBurstLoss`] combines the two models —
//! every node of a full binary tree carries its own two-state Markov
//! chain, calibrated so each receiver still sees marginal loss `p` and
//! node-level bursts have mean length `b` — giving shared *bursts*, the
//! worst case for FEC blocks.
//!
//! Extension beyond the paper, built from its two ingredients.

use crate::gilbert::GilbertLoss;
use crate::model::{lost_indices, LossModel};

/// Full binary tree of height `d` whose every node hosts an independent
/// Gilbert chain; a packet reaches a receiver iff no node on its path is
/// in the loss state at transmission time.
#[derive(Debug, Clone)]
pub struct TreeBurstLoss {
    d: u32,
    /// One chain per tree node, addressed heap-style (root = 0,
    /// children of `i` = `2i+1`, `2i+2`).
    chains: GilbertLoss,
    node_count: usize,
    receivers: usize,
    /// Scratch: per-node loss states for the current sample.
    node_lost: Vec<bool>,
}

impl TreeBurstLoss {
    /// Build the model: height `d` (`R = 2^d` receivers), per-receiver
    /// marginal loss `p`, mean burst length `b` *at each node*, packet
    /// spacing `delta` for burst calibration.
    ///
    /// Each node's stationary loss probability is
    /// `p_node = 1 - (1-p)^(1/(d+1))` (as in the memoryless FBT model), and
    /// its chain is calibrated for mean sojourn-bursts of `b` packets.
    ///
    /// # Panics
    /// As for [`GilbertLoss::new`] applied to `p_node`, plus `d <= 20`.
    pub fn new(d: u32, p: f64, b: f64, delta: f64, seed: u64) -> Self {
        assert!(d <= 20, "tree height {d} too large");
        assert!((0.0..1.0).contains(&p) && p > 0.0, "p must be in (0, 1)");
        let p_node = 1.0 - (1.0 - p).powf(1.0 / (d as f64 + 1.0));
        let node_count = (1usize << (d + 1)) - 1;
        let chains = GilbertLoss::new(node_count, p_node, b, delta, seed);
        TreeBurstLoss {
            d,
            chains,
            node_count,
            receivers: 1 << d,
            node_lost: vec![false; node_count],
        }
    }

    /// Restart as [`TreeBurstLoss::new`] with `seed` would build the
    /// model: the same draws from here on, in the model's own buffers (no
    /// allocation). The per-node scratch is overwritten by every sample.
    pub fn reseed(&mut self, seed: u64) {
        self.chains.reseed(seed);
    }

    /// Tree height.
    pub fn height(&self) -> u32 {
        self.d
    }

    /// Number of tree nodes carrying chains.
    pub fn node_count(&self) -> usize {
        self.node_count
    }
}

impl LossModel for TreeBurstLoss {
    fn receivers(&self) -> usize {
        self.receivers
    }

    fn sample_lost(&mut self, time: f64, out: &mut Vec<u32>) {
        // Advance every node chain to `time`.
        self.chains.sample(time, &mut self.node_lost);
        // Propagate: node i is "cut" if it or any ancestor is lost. The
        // heap layout makes ancestors strictly smaller indices.
        // Reuse node_lost in place: after this pass it means "path cut".
        for i in 1..self.node_count {
            let parent = (i - 1) / 2;
            self.node_lost[i] = self.node_lost[i] || self.node_lost[parent];
        }
        // Leaves occupy the last 2^d slots.
        let first_leaf = self.node_count - self.receivers;
        lost_indices(&self.node_lost[first_leaf..], out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::empirical_loss_rate;
    use crate::stats::BurstStats;

    #[test]
    fn shapes() {
        let t = TreeBurstLoss::new(3, 0.05, 2.0, 0.04, 1);
        assert_eq!(t.receivers(), 8);
        assert_eq!(t.node_count(), 15);
        assert_eq!(t.height(), 3);
    }

    #[test]
    fn marginal_rate_is_p() {
        let mut t = TreeBurstLoss::new(4, 0.05, 2.0, 0.04, 42);
        let rate = empirical_loss_rate(&mut t, 30_000, 0.04);
        assert!((rate - 0.05).abs() < 0.01, "rate={rate}");
    }

    #[test]
    fn receivers_see_bursts() {
        // The per-receiver loss process inherits temporal correlation from
        // the node chains: mean burst length must exceed the iid value
        // 1/(1-p) ~ 1.05.
        let mut t = TreeBurstLoss::new(3, 0.05, 3.0, 0.04, 7);
        let mut stats = BurstStats::new();
        let mut lost = vec![false; 8];
        for i in 0..200_000 {
            t.sample(i as f64 * 0.04, &mut lost);
            stats.record(lost[0]);
        }
        stats.finish();
        let mean = stats.mean_burst().unwrap();
        assert!(
            mean > 1.5,
            "mean burst {mean} should show temporal correlation"
        );
    }

    #[test]
    fn siblings_share_bursts() {
        // Spatial correlation survives: sibling receivers co-lose far more
        // often than independence predicts.
        let mut t = TreeBurstLoss::new(3, 0.2, 2.0, 0.04, 9);
        let n = 50_000;
        let (mut l0, mut l1, mut both) = (0usize, 0usize, 0usize);
        let mut lost = vec![false; 8];
        for i in 0..n {
            t.sample(i as f64 * 0.04, &mut lost);
            if lost[0] {
                l0 += 1;
            }
            if lost[1] {
                l1 += 1;
            }
            if lost[0] && lost[1] {
                both += 1;
            }
        }
        let joint = both as f64 / n as f64;
        let indep = (l0 as f64 / n as f64) * (l1 as f64 / n as f64);
        assert!(joint > indep * 1.5, "joint {joint} vs independent {indep}");
    }

    #[test]
    fn reproducible() {
        let mut a = TreeBurstLoss::new(4, 0.1, 2.0, 0.04, 33);
        let mut b = TreeBurstLoss::new(4, 0.1, 2.0, 0.04, 33);
        for i in 0..100 {
            assert_eq!(a.sample_vec(i as f64 * 0.04), b.sample_vec(i as f64 * 0.04));
        }
    }

    #[test]
    fn works_with_simulator_schemes() {
        // Smoke: the combined model plugs into the pm-sim schemes through
        // the LossModel trait (exercised fully in the integration tests).
        let mut t = TreeBurstLoss::new(2, 0.05, 2.0, 0.04, 5);
        let v = t.sample_vec(0.0);
        assert_eq!(v.len(), 4);
    }
}
