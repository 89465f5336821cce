//! `reseed(seed)` restarts a model in place as its constructor would
//! build it with `seed`. The simulator builds one model per worker and
//! re-seeds it for every trial, so a re-seeded model that drew anything
//! differently, or kept a chain's clock from its last use, would move
//! every simulated figure.

use pm_loss::tree::TreeBuilder;
use pm_loss::{
    GilbertLoss, IndependentLoss, LossModel, PerReceiverLoss, TreeBurstLoss, TreeLoss, TwoClassLoss,
};

/// Use a model built at seed 1 for a while, re-seed it to each of a few
/// seeds, and require the loss lists of a model freshly built at that
/// seed, from time 0 on.
fn check<M: LossModel>(name: &str, build: impl Fn(u64) -> M, reseed: impl Fn(&mut M, u64)) {
    let mut reused = build(1);
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for seed in [2, 3, u64::MAX] {
        // Past the end of the comparison below, so a chain model's clock
        // is well away from 0 when it is re-seeded.
        for i in 0..40 {
            reused.sample_lost(4.0 + i as f64 * 0.04, &mut a);
        }
        reseed(&mut reused, seed);
        let mut fresh = build(seed);
        let mut losses = 0;
        for i in 0..80 {
            let t = i as f64 * 0.04;
            reused.sample_lost(t, &mut a);
            fresh.sample_lost(t, &mut b);
            assert_eq!(a, b, "{name}: seed {seed}, sample {i}");
            losses += a.len();
        }
        assert!(losses > 0, "{name}: seed {seed} drew no loss");
    }
}

#[test]
fn reseeded_models_draw_the_fresh_models_stream() {
    check(
        "independent",
        |s| IndependentLoss::new(70, 0.2, s),
        IndependentLoss::reseed,
    );
    check(
        "per-receiver",
        |s| PerReceiverLoss::new(vec![0.5, 0.0, 0.1, 0.1, 1.0, 0.3], s),
        PerReceiverLoss::reseed,
    );
    check(
        "two-class",
        |s| TwoClassLoss::new(50, 0.25, 0.05, 0.6, s),
        TwoClassLoss::reseed,
    );
    check(
        "fbt",
        |s| TreeLoss::full_binary(5, 0.3, s),
        TreeLoss::reseed,
    );
    check(
        "explicit tree",
        |s| {
            let mut b = TreeBuilder::new(0.1);
            for _ in 0..6 {
                let leaf = b.add_node(0, 0.2);
                b.mark_receiver(leaf);
            }
            b.build(s)
        },
        TreeLoss::reseed,
    );
    check(
        "gilbert",
        |s| GilbertLoss::new(40, 0.2, 2.5, 0.04, s),
        GilbertLoss::reseed,
    );
    check(
        "tree-burst",
        |s| TreeBurstLoss::new(4, 0.2, 2.0, 0.04, s),
        TreeBurstLoss::reseed,
    );
}

#[test]
fn reseeding_mid_buffer_drops_the_buffered_draws() {
    // The memoryless models draw their uniforms 32 at a time, so a
    // re-seed usually lands mid-buffer. An `IndependentLoss` walk over
    // 0..R takes one draw per loss, plus the one that overshoots the end
    // unless receiver R - 1 lost, so the draws a model has used are known
    // from its loss lists. Growing the number of calls before the re-seed
    // walks that count through every position of the buffer.
    const R: u32 = 70;
    let mut positions = [false; 32];
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for calls in 0..400 {
        let mut reused = IndependentLoss::new(R as usize, 0.2, 1);
        let mut used = 0;
        for _ in 0..calls {
            reused.sample_lost(0.0, &mut a);
            used += a.len() + usize::from(a.last() != Some(&(R - 1)));
        }
        positions[used % positions.len()] = true;
        reused.reseed(7);
        let mut fresh = IndependentLoss::new(R as usize, 0.2, 7);
        for i in 0..40 {
            reused.sample_lost(0.0, &mut a);
            fresh.sample_lost(0.0, &mut b);
            assert_eq!(
                a, b,
                "re-seeded after {calls} calls ({used} draws): sample {i}"
            );
        }
        if positions.iter().all(|&p| p) {
            return;
        }
    }
    panic!("buffer positions never reached: {positions:?}");
}
