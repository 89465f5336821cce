//! The sparse view of a transmission (`LossModel::sample_lost`): it agrees
//! with the dense view for every model, and the samplers that produce it
//! by geometric skipping have the distribution the dense per-receiver
//! draws had — per-index rates up to both ends of the range, independence
//! where the model says so, the tree's correlations where it does not.

use pm_loss::tree::TreeBuilder;
use pm_loss::{
    GilbertLoss, IndependentLoss, LossModel, PerReceiverLoss, TreeBurstLoss, TreeLoss, TwoClassLoss,
};

/// The paper's FBT built node by node: the explicit-topology twin of
/// `TreeLoss::full_binary` (same distribution, different RNG stream).
fn explicit_fbt(d: u32, p: f64, seed: u64) -> TreeLoss {
    let p_node = 1.0 - (1.0 - p).powf(1.0 / (d as f64 + 1.0));
    let mut b = TreeBuilder::new(p_node);
    let mut level = vec![0usize];
    for _ in 0..d {
        level = level
            .iter()
            .flat_map(|&n| [b.add_node(n, p_node), b.add_node(n, p_node)])
            .collect();
    }
    for &leaf in &level {
        b.mark_receiver(leaf);
    }
    b.build(seed)
}

/// A model's name and two copies of it in the same state.
type Twins = (&'static str, Box<dyn LossModel>, Box<dyn LossModel>);

/// Every model in the crate, twice per seed.
fn twins(seed: u64) -> Vec<Twins> {
    fn pair<M: LossModel + Clone + 'static>(name: &'static str, m: M) -> Twins {
        (name, Box::new(m.clone()), Box::new(m))
    }
    vec![
        pair("independent", IndependentLoss::new(70, 0.2, seed)),
        pair(
            "per-receiver",
            PerReceiverLoss::new(vec![0.5, 0.5, 0.0, 0.1, 0.1, 0.1, 1.0, 0.3], seed),
        ),
        pair("two-class", TwoClassLoss::new(50, 0.25, 0.05, 0.6, seed)),
        pair("fbt", TreeLoss::full_binary(5, 0.3, seed)),
        pair("explicit tree", explicit_fbt(4, 0.3, seed)),
        pair("gilbert", GilbertLoss::new(40, 0.2, 2.5, 0.04, seed)),
        pair("tree-burst", TreeBurstLoss::new(4, 0.2, 2.0, 0.04, seed)),
    ]
}

#[test]
fn dense_view_is_the_expansion_of_the_sparse_view() {
    for seed in 0..40 {
        for (name, mut dense, mut sparse) in twins(seed) {
            let r = dense.receivers();
            let mut lost = Vec::new();
            let mut seen_loss = false;
            for i in 0..60 {
                let t = i as f64 * 0.04;
                let pattern = dense.sample_vec(t);
                sparse.sample_lost(t, &mut lost);
                assert!(
                    lost.windows(2).all(|w| w[0] < w[1]),
                    "{name}: not strictly ascending: {lost:?}"
                );
                assert!(lost.iter().all(|&rc| (rc as usize) < r), "{name}");
                let expanded: Vec<bool> = (0..r as u32)
                    .map(|rc| lost.binary_search(&rc).is_ok())
                    .collect();
                assert_eq!(pattern, expanded, "{name} seed {seed} call {i}");
                seen_loss |= !lost.is_empty();
            }
            assert!(seen_loss, "{name}: 60 transmissions without a loss");
        }
    }
}

#[test]
fn sample_one_reads_one_receiver_off_the_same_stream() {
    let mut whole = GilbertLoss::new(6, 0.3, 2.0, 0.04, 9);
    let mut one = whole.clone();
    let mut scratch = Vec::new();
    for i in 0..200 {
        let t = i as f64 * 0.04;
        assert_eq!(one.sample_one(t, 4, &mut scratch), whole.sample_vec(t)[4]);
    }
}

/// Loss counts per receiver and joint-loss counts for `pairs`, over `n`
/// transmissions.
fn tally<M: LossModel>(model: &mut M, n: usize, pairs: &[(u32, u32)]) -> (Vec<f64>, Vec<f64>) {
    let mut per = vec![0u32; model.receivers()];
    let mut joint = vec![0u32; pairs.len()];
    let mut lost = Vec::new();
    for i in 0..n {
        model.sample_lost(i as f64, &mut lost);
        for &rc in &lost {
            per[rc as usize] += 1;
        }
        for (j, (a, b)) in pairs.iter().enumerate() {
            if lost.binary_search(a).is_ok() && lost.binary_search(b).is_ok() {
                joint[j] += 1;
            }
        }
    }
    let rate = |c: &u32| f64::from(*c) / n as f64;
    (
        per.iter().map(rate).collect(),
        joint.iter().map(rate).collect(),
    )
}

/// `|got - want|` within five binomial standard deviations at `n` samples.
fn close(got: f64, want: f64, n: usize) -> bool {
    (got - want).abs() <= 5.0 * (want * (1.0 - want) / n as f64).sqrt() + 1e-12
}

#[test]
fn independent_marginals_reach_both_ends_and_pairs_are_independent() {
    // The classic off-by-one of geometric skipping starves index 0 or
    // R - 1; check every index, at a small and a large rate.
    let n = 100_000;
    for p in [0.02, 0.4] {
        let r = 33u32;
        let pairs = [(0, 1), (0, r - 1), (15, 16), (r - 2, r - 1)];
        let mut m = IndependentLoss::new(r as usize, p, 5);
        let (per, joint) = tally(&mut m, n, &pairs);
        for (rc, &rate) in per.iter().enumerate() {
            assert!(close(rate, p, n), "p={p} receiver {rc}: {rate}");
        }
        for (pair, &j) in pairs.iter().zip(&joint) {
            assert!(close(j, p * p, n), "p={p} pair {pair:?}: joint {j}");
        }
    }
}

#[test]
fn per_receiver_runs_keep_their_own_rates() {
    // Runs of length 1, 2 and 20, a zero run in the middle, and the last
    // receiver in a class of its own.
    let mut ps = vec![0.3, 0.05, 0.05];
    ps.extend([0.0; 4]);
    ps.extend([0.5; 20]);
    ps.push(0.9);
    let r = ps.len() as u32;
    let n = 100_000;
    let pairs = [(0, 1), (1, 2), (2, 7), (7, 8), (r - 2, r - 1)];
    let mut m = PerReceiverLoss::new(ps.clone(), 21);
    assert_eq!(m.receivers(), ps.len());
    let (per, joint) = tally(&mut m, n, &pairs);
    for (rc, (&rate, &p)) in per.iter().zip(&ps).enumerate() {
        assert_eq!(m.p_of(rc), p);
        assert!(close(rate, p, n), "receiver {rc}: {rate} vs {p}");
    }
    for (&(a, b), &j) in pairs.iter().zip(&joint) {
        let want = ps[a as usize] * ps[b as usize];
        assert!(close(j, want, n), "pair ({a}, {b}): joint {j} vs {want}");
    }
}

#[test]
fn two_class_boundary_receivers_have_their_class_rate() {
    let n = 100_000;
    let mut m = TwoClassLoss::new(40, 0.25, 0.01, 0.25, 2);
    let (per, _) = tally(&mut m, n, &[]);
    for (rc, &rate) in per.iter().enumerate() {
        let want = if rc < 10 { 0.25 } else { 0.01 };
        assert!(close(rate, want, n), "receiver {rc}: {rate} vs {want}");
    }
}

#[test]
fn fbt_marginals_and_correlations_match_the_node_model() {
    // A leaf is lost iff any of the d + 1 nodes on its path drops; two
    // leaves whose paths share `s` nodes are both intact with probability
    // q^(2(d+1) - s).
    let (d, p, n) = (4u32, 0.2f64, 200_000);
    let q = (1.0 - p).powf(1.0 / (d as f64 + 1.0));
    let both_lost = |shared: i32| 1.0 - 2.0 * (1.0 - p) + q.powi(2 * (d as i32 + 1) - shared);
    let last = (1 << d) - 1;
    // (pair, nodes shared): siblings, cousins, opposite halves, last two.
    let pairs = [(0, 1), (0, 2), (0, last), (last - 1, last), (7, 8)];
    let shared = [4, 3, 1, 4, 1];
    let mut implicit = TreeLoss::full_binary(d, p, 3);
    let mut explicit = explicit_fbt(d, p, 3);
    let (per_i, joint_i) = tally(&mut implicit, n, &pairs);
    let (per_e, joint_e) = tally(&mut explicit, n, &pairs);
    for (rc, (&a, &b)) in per_i.iter().zip(&per_e).enumerate() {
        assert!(close(a, p, n), "implicit leaf {rc}: {a}");
        assert!(close(b, p, n), "explicit leaf {rc}: {b}");
    }
    for (i, pair) in pairs.iter().enumerate() {
        let want = both_lost(shared[i]);
        assert!(
            close(joint_i[i], want, n),
            "implicit {pair:?}: {} vs {want}",
            joint_i[i]
        );
        assert!(
            close(joint_e[i], want, n),
            "explicit {pair:?}: {} vs {want}",
            joint_e[i]
        );
    }
}

/// What the models add around the skip walk at its extremes (the walk's
/// own edge cases are `skip.rs`'s unit tests): a class with no receivers,
/// a tree that is one node, every node of a tree lost at once.
#[test]
fn empty_classes_and_certain_loss_in_a_tree() {
    let mut lost = Vec::new();
    for seed in 0..20 {
        for r in [1usize, 2, 64] {
            let all: Vec<u32> = (0..r as u32).collect();
            for (p, want) in [(0.0, &[][..]), (1.0, &all[..])] {
                let mut models: Vec<Box<dyn LossModel>> = vec![
                    Box::new(TwoClassLoss::new(r, 0.0, p, 0.5, seed)),
                    Box::new(TwoClassLoss::new(r, 1.0, 0.5, p, seed)),
                    Box::new(TreeLoss::full_binary(r.trailing_zeros(), p, seed)),
                ];
                for m in &mut models {
                    m.sample_lost(0.0, &mut lost);
                    assert_eq!(lost, want, "p={p} R={r}");
                }
            }
        }
    }
}
