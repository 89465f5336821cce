//! Spatially correlated ("shared") loss on a multicast tree — Section 4.1.
//!
//! A packet travels from the root (the source) down the distribution tree;
//! every node drops it independently with that node's loss probability, and
//! a drop at an interior node is *shared* by every receiver underneath. The
//! paper's reference topology is the **full binary tree (FBT)** of height
//! `d` with `R = 2^d` leaf receivers, where every node (including source
//! and leaves) drops with the same `p_node`, chosen so that each receiver's
//! end-to-end loss probability is the target `p`:
//!
//! ```text
//!     p = 1 - (1 - p_node)^(d+1)
//! ```
//!
//! (A root-to-leaf path crosses `d + 1` potentially-dropping nodes: the
//! source's link plus one per tree level.)
//!
//! [`TreeLoss`] supports arbitrary trees with per-node probabilities: for a
//! tree from [`TreeBuilder`] the sampler walks the nodes once per packet and
//! prunes subtrees below a drop, so shared losses cost less RNG work, not
//! more. The FBT never materialises its `2^(d+1) - 1` nodes: they all share
//! one `p_node` and, in heap order, node `i` covers a contiguous range of
//! leaves, so a packet is sampled by geometric skipping over the node ids
//! and the union of the dropped nodes' leaf ranges — `O(drops)`, not
//! `O(R)`, to build and to sample.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::model::LossModel;
use crate::skip::{Draws, GeoSkip};

/// One node of the distribution tree.
#[derive(Debug, Clone)]
struct Node {
    /// Loss probability of the hop into this node.
    p: f64,
    children: Vec<usize>,
    /// `Some(r)` if this node is receiver `r` (a leaf).
    receiver: Option<usize>,
}

/// The generators are boxed, so the two variants are a few words each.
#[derive(Debug, Clone)]
enum Topology {
    /// Full binary tree of height `d` in heap order (root 0, children of
    /// `i` at `2i+1`, `2i+2`, receiver `r` at node `2^d - 1 + r`), every
    /// node dropping with the same probability.
    FullBinary {
        d: u32,
        skip: GeoSkip,
        draws: Box<Draws>,
        /// Scratch: leaf ranges `(first, end)` under this packet's drops.
        cut: Vec<(u32, u32)>,
    },
    Explicit {
        nodes: Vec<Node>,
        rng: Box<ChaCha8Rng>,
        /// Scratch stack for the per-packet walk.
        stack: Vec<(usize, bool)>,
    },
}

/// Loss model over a multicast tree.
#[derive(Debug, Clone)]
pub struct TreeLoss {
    topology: Topology,
    receivers: usize,
}

/// Builder for arbitrary tree topologies.
#[derive(Debug, Clone, Default)]
pub struct TreeBuilder {
    nodes: Vec<Node>,
}

impl TreeBuilder {
    /// Start a new tree; `p_root` is the loss probability at the source
    /// itself (set 0.0 for a loss-free source).
    pub fn new(p_root: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p_root),
            "p_root must be a probability"
        );
        TreeBuilder {
            nodes: vec![Node {
                p: p_root,
                children: Vec::new(),
                receiver: None,
            }],
        }
    }

    /// Add an interior node under `parent`; returns the new node's id.
    ///
    /// # Panics
    /// Panics on a bad parent id or non-probability `p`.
    pub fn add_node(&mut self, parent: usize, p: f64) -> usize {
        assert!(parent < self.nodes.len(), "parent {parent} does not exist");
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        let id = self.nodes.len();
        self.nodes.push(Node {
            p,
            children: Vec::new(),
            receiver: None,
        });
        self.nodes[parent].children.push(id);
        id
    }

    /// Mark node `id` as a receiver (leaf). Receiver indices are assigned
    /// in call order.
    ///
    /// # Panics
    /// Panics if the node has children or is already a receiver.
    pub fn mark_receiver(&mut self, id: usize) {
        assert!(id < self.nodes.len(), "node {id} does not exist");
        assert!(
            self.nodes[id].children.is_empty(),
            "receivers must be leaves"
        );
        assert!(
            self.nodes[id].receiver.is_none(),
            "node {id} is already a receiver"
        );
        // Receiver index assigned at build time (count of already-marked).
        let r = self.nodes.iter().filter(|n| n.receiver.is_some()).count();
        self.nodes[id].receiver = Some(r);
    }

    /// Finish the tree.
    ///
    /// # Panics
    /// Panics if no node was marked as a receiver.
    pub fn build(self, seed: u64) -> TreeLoss {
        let receivers = self.nodes.iter().filter(|n| n.receiver.is_some()).count();
        assert!(receivers > 0, "tree has no receivers");
        assert!(u32::try_from(receivers).is_ok(), "receiver indices are u32");
        TreeLoss {
            topology: Topology::Explicit {
                nodes: self.nodes,
                rng: Box::new(ChaCha8Rng::seed_from_u64(seed)),
                stack: Vec::new(),
            },
            receivers,
        }
    }
}

impl TreeLoss {
    /// The paper's FBT model: full binary tree of height `d` (`R = 2^d`
    /// receivers at the leaves), every node dropping independently with
    /// `p_node = 1 - (1-p)^(1/(d+1))` so each receiver sees loss
    /// probability exactly `p`.
    ///
    /// `d = 0` degenerates to a single receiver losing with probability `p`.
    ///
    /// # Panics
    /// Panics unless `p` is a probability and `d <= 26` (2^26 receivers is
    /// the supported ceiling), and if `PM_SIMD` is invalid on this host
    /// (the gaps' logarithms go through pm-simd's dispatch).
    pub fn full_binary(d: u32, p: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        assert!(d <= 26, "FBT height {d} too large");
        let p_node = 1.0 - (1.0 - p).powf(1.0 / (d as f64 + 1.0));
        TreeLoss {
            topology: Topology::FullBinary {
                d,
                skip: GeoSkip::new(p_node),
                draws: Box::new(Draws::new(seed)),
                cut: Vec::new(),
            },
            receivers: 1 << d,
        }
    }

    /// Restart as the constructor with `seed` would build the model (for
    /// either topology): the same draws from here on, and no allocation.
    /// The per-packet scratch is rebuilt by every sample.
    pub fn reseed(&mut self, seed: u64) {
        match &mut self.topology {
            Topology::FullBinary { draws, .. } => draws.reseed(seed),
            Topology::Explicit { rng, .. } => **rng = ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Total number of tree nodes.
    pub fn node_count(&self) -> usize {
        match &self.topology {
            Topology::FullBinary { d, .. } => (2 << d) - 1,
            Topology::Explicit { nodes, .. } => nodes.len(),
        }
    }

    /// End-to-end loss probability of receiver 0 assuming a path of
    /// independent per-node drops (diagnostic; exact for symmetric trees).
    pub fn path_loss_probability(&self) -> f64 {
        let nodes = match &self.topology {
            Topology::FullBinary { d, skip, .. } => {
                return 1.0 - (1.0 - skip.p()).powi(*d as i32 + 1);
            }
            Topology::Explicit { nodes, .. } => nodes,
        };
        // Walk from root to the first receiver greedily.
        let mut surv = 1.0;
        let mut id = 0usize;
        loop {
            surv *= 1.0 - nodes[id].p;
            if nodes[id].receiver.is_some() {
                break;
            }
            match nodes[id].children.first() {
                Some(&c) => id = c,
                None => break,
            }
        }
        1.0 - surv
    }
}

impl LossModel for TreeLoss {
    fn receivers(&self) -> usize {
        self.receivers
    }

    fn sample_lost(&mut self, _time: f64, out: &mut Vec<u32>) {
        out.clear();
        match &mut self.topology {
            Topology::FullBinary {
                d,
                skip,
                draws,
                cut,
            } => {
                // Every node drops independently, so there is nothing to
                // prune: draw the dropped nodes, then take the union of the
                // leaf ranges beneath them. Node `id` is the `first`-th of
                // level `level` and covers `2^(d - level)` leaves.
                let d = *d;
                cut.clear();
                skip.for_each_hit(draws, 0, (2 << d) - 1, |id| {
                    let level = (id + 1).ilog2();
                    let first = id + 1 - (1 << level);
                    let span = d - level;
                    cut.push((first << span, (first + 1) << span));
                });
                // Ranges nest or are disjoint; in start order the union is
                // whatever each adds beyond the furthest end so far.
                cut.sort_unstable();
                let mut end = 0;
                for &(first, range_end) in cut.iter() {
                    out.extend(first.max(end)..range_end);
                    end = end.max(range_end);
                }
            }
            Topology::Explicit { nodes, rng, stack } => {
                // Depth-first walk; once an ancestor drops, everything
                // below is lost without further sampling (the sharing).
                stack.clear();
                stack.push((0, false));
                while let Some((id, ancestor_dropped)) = stack.pop() {
                    let node = &nodes[id];
                    let dropped =
                        ancestor_dropped || (node.p > 0.0 && rng.random::<f64>() < node.p);
                    if let (true, Some(r)) = (dropped, node.receiver) {
                        out.push(r as u32);
                    }
                    stack.extend(node.children.iter().map(|&c| (c, dropped)));
                }
                out.sort_unstable(); // walk order is not receiver order
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::empirical_loss_rate;
    use crate::skip::oracle;

    #[test]
    fn fbt_sizes() {
        let t = TreeLoss::full_binary(0, 0.01, 0);
        assert_eq!(t.receivers(), 1);
        assert_eq!(t.node_count(), 1);
        let t = TreeLoss::full_binary(3, 0.01, 0);
        assert_eq!(t.receivers(), 8);
        assert_eq!(t.node_count(), 15);
    }

    #[test]
    fn per_receiver_rate_is_p() {
        let mut t = TreeLoss::full_binary(4, 0.05, 42);
        let rate = empirical_loss_rate(&mut t, 20_000, 1.0);
        assert!((rate - 0.05).abs() < 0.005, "rate={rate}");
        assert!((t.path_loss_probability() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn siblings_share_loss() {
        // In an FBT with loss only possible at shared nodes, sibling
        // receivers must be positively correlated.
        let mut t = TreeLoss::full_binary(3, 0.2, 7);
        let n = 30_000;
        let (mut l0, mut l1, mut both) = (0usize, 0usize, 0usize);
        let mut lost = vec![false; 8];
        for i in 0..n {
            t.sample(i as f64, &mut lost);
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
        assert!(
            joint > indep + 0.01,
            "siblings should be positively correlated: joint={joint} indep={indep}"
        );
    }

    #[test]
    fn distant_receivers_less_correlated_than_siblings() {
        let mut t = TreeLoss::full_binary(3, 0.2, 9);
        let n = 30_000;
        let mut joint_sib = 0usize;
        let mut joint_far = 0usize;
        let mut lost = vec![false; 8];
        for i in 0..n {
            t.sample(i as f64, &mut lost);
            if lost[0] && lost[1] {
                joint_sib += 1;
            }
            if lost[0] && lost[7] {
                joint_far += 1;
            }
        }
        assert!(
            joint_sib > joint_far,
            "siblings (share d nodes) should co-lose more than distant pairs: {joint_sib} vs {joint_far}"
        );
    }

    #[test]
    fn source_drop_loses_everyone() {
        // Tree whose only lossy node is the root: losses hit all or none.
        let mut b = TreeBuilder::new(0.3);
        let l = b.add_node(0, 0.0);
        let r = b.add_node(0, 0.0);
        b.mark_receiver(l);
        b.mark_receiver(r);
        let mut t = b.build(5);
        let mut lost = vec![false; 2];
        for i in 0..2000 {
            t.sample(i as f64, &mut lost);
            assert_eq!(lost[0], lost[1], "root loss must be fully shared");
        }
    }

    #[test]
    fn custom_tree_receiver_indices_in_mark_order() {
        let mut b = TreeBuilder::new(0.0);
        let a = b.add_node(0, 1.0); // always drops
        let c = b.add_node(0, 0.0); // never drops
        b.mark_receiver(a);
        b.mark_receiver(c);
        let mut t = b.build(1);
        let v = t.sample_vec(0.0);
        assert!(v[0], "receiver 0 sits behind an always-drop node");
        assert!(!v[1], "receiver 1 has a clean path");
    }

    #[test]
    fn reproducible_from_seed() {
        let mut a = TreeLoss::full_binary(5, 0.1, 33);
        let mut b = TreeLoss::full_binary(5, 0.1, 33);
        for i in 0..50 {
            assert_eq!(a.sample_vec(i as f64), b.sample_vec(i as f64));
        }
    }

    #[test]
    #[should_panic(expected = "receivers must be leaves")]
    fn interior_receiver_rejected() {
        let mut b = TreeBuilder::new(0.0);
        let mid = b.add_node(0, 0.1);
        let _leaf = b.add_node(mid, 0.1);
        b.mark_receiver(mid);
    }

    #[test]
    #[should_panic(expected = "no receivers")]
    fn empty_tree_rejected() {
        let _ = TreeBuilder::new(0.0).build(0);
    }

    /// The leaves under FBT node `id`: its leftmost and rightmost
    /// descendants at depth `d`, found by walking down.
    fn leaves_under(d: u32, id: u32) -> std::ops::RangeInclusive<u32> {
        let first_leaf = (1 << d) - 1;
        let (mut left, mut right) = (id, id);
        while left < first_leaf {
            (left, right) = (2 * left + 1, 2 * right + 2);
        }
        left - first_leaf..=right - first_leaf
    }

    #[test]
    fn hit_lists_equal_the_draw_then_ln_oracle() {
        for kernels in oracle::backends() {
            for p in oracle::PS {
                let d = if p < 0.1 { 9 } else { 3 };
                let mut model = TreeLoss::full_binary(d, p, 13);
                let Topology::FullBinary { skip, draws, .. } = &mut model.topology else {
                    unreachable!()
                };
                draws.set_kernels(kernels);
                let skip = *skip;
                let mut rng = ChaCha8Rng::seed_from_u64(13);
                let (mut got, mut want) = (Vec::new(), Vec::new());
                for call in 0..oracle::CALLS {
                    model.sample_lost(0.0, &mut got);
                    want.clear();
                    oracle::for_each_hit(&skip, &mut rng, 0, (2 << d) - 1, |id| {
                        want.extend(leaves_under(d, id))
                    });
                    want.sort_unstable();
                    want.dedup();
                    assert_eq!(got, want, "{:?} p={p} call {call}", kernels.backend());
                }
            }
        }
    }
}
