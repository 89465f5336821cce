//! The simulator's output, pinned bit for bit.
//!
//! Every other pm-sim suite checks a relation: serial equals parallel,
//! sparse equals dense, a mean lies inside a confidence interval. None of
//! them notices a change that moves every run the same way, such as a
//! different keystream from `rand_chacha`, a loss model that draws its
//! variates in another order, or a new chunk layout in pm-par. This one
//! does: it holds the `f64::to_bits` of every [`SimResult`] field for the
//! four schemes under the five loss environments. A change that moves
//! these numbers on purpose re-pins them and says why.

use pm_par::Pool;
use pm_sim::runner::{run_env, run_env_par, LossEnv, Scheme};
use pm_sim::{SimConfig, SimResult};

/// `[mean_transmissions, stderr, ci95, mean_rounds, mean_unneeded]` as
/// `f64::to_bits`, then `trials`; rows in [`cases`] order.
#[rustfmt::skip]
const PINNED: [([u64; 5], usize); 20] = [
    // no-FEC: independent, FBT, burst, two-class, tree-burst.
    ([0x3ff6666666666666, 0x3fb6134703fcaab5, 0x3fc5a24079aad041, 0x3ff6666666666666, 0x3fd699999999999a], 40),
    ([0x3ff1333333333333, 0x3fa598242050b59f, 0x3fb529940b306011, 0x3ff1333333333333, 0x3fb1333333333333], 40),
    ([0x3ff9333333333333, 0x3fb63dbef9f84b8e, 0x3fc5cbdeff35e3a5, 0x3ff9333333333333, 0x3fe0333333333333], 40),
    ([0x3ffccccccccccccd, 0x3fc51a32e629ac32, 0x3fd4ae27a41e9964, 0x3ffccccccccccccd, 0x3fe5c00000000000], 40),
    ([0x3ff4000000000000, 0x3fb3fa3867634e1a, 0x3fc393ef988528b3, 0x3ff4000000000000, 0x3fcbcccccccccccd], 40),
    // layered(7+1): independent, FBT, burst, two-class, tree-burst.
    ([0x3ff655ae7f7a40c9, 0x3f9d173f89511de7, 0x3fac824da02ba78b, 0x3ffa666666666666, 0x4010e80000000000], 280),
    ([0x3ff3c9aa518085c0, 0x3f933cf454f6d99f, 0x3fa2da7490b4791c, 0x3ff4cccccccccccd, 0x3fff866666666666], 280),
    ([0x3ffa40c89ed311c2, 0x3fa15ed39ee7d501, 0x3fb105e3de49986c, 0x3ffc000000000000, 0x4012fb3333333333], 280),
    ([0x40014e5e0a72f053, 0x3faf635b13078f62, 0x3fbec2a60d8768ad, 0x4009333333333333, 0x402b4d9999999999], 280),
    ([0x3ff644f6988e1b2c, 0x3fa13a1c3debc7d7, 0x3fb0e1e87a1f6290, 0x3ffa666666666666, 0x4010c00000000000], 280),
    // integrated1(k=7): independent, FBT, burst, two-class, tree-burst.
    ([0x3ff42be2be2be2be, 0x3f91487190986eac, 0x3fa0eff469dd104c, 0x3ff0000000000000, 0x0000000000000000], 40),
    ([0x3ff2a0ea0ea0ea0f, 0x3f8ea1a73a8ef45a, 0x3f9e04d1f6d3c681, 0x3ff0000000000000, 0x0000000000000000], 40),
    ([0x3ff6ea0ea0ea0ea2, 0x3fa7596c55fe24a1, 0x3fb6e1dfeddf75d1, 0x3ff0000000000000, 0x0000000000000000], 40),
    ([0x3ff9075075075075, 0x3fa33c7aae5a4547, 0x3fb2d9fd58f210b1, 0x3ff0000000000000, 0x0000000000000000], 40),
    ([0x3ff4666666666666, 0x3fa267a6a269eecc, 0x3fb2096afb53558a, 0x3ff0000000000000, 0x0000000000000000], 40),
    // integrated2(k=7): independent, FBT, burst, two-class, tree-burst.
    ([0x3ff42be2be2be2be, 0x3f91487190986eac, 0x3fa0eff469dd104c, 0x400199999999999a, 0x3ff5f33333333333], 40),
    ([0x3ff2a0ea0ea0ea0f, 0x3f8ea1a73a8ef45a, 0x3f9e04d1f6d3c681, 0x3ffeccccccccccce, 0x3feb666666666666], 40),
    ([0x3ff683a83a83a83a, 0x3fa534237f2487c5, 0x3fb4c7936d3d6655, 0x4000cccccccccccd, 0x4003433333333333], 40),
    ([0x3ff9075075075075, 0x3fa33c7aae5a4547, 0x3fb2d9fd58f210b1, 0x4007000000000000, 0x4009c00000000000], 40),
    ([0x3ff3b6db6db6db6d, 0x3f9b8fa4003e45dc, 0x3fab02871ef558f1, 0x3fff333333333333, 0x3ff439999999999a], 40),
];

/// The four schemes × the five environments, scheme-major.
fn cases() -> impl Iterator<Item = (Scheme, LossEnv)> {
    let schemes = [
        Scheme::NoFec,
        Scheme::Layered { k: 7, h: 1 },
        Scheme::Integrated1 { k: 7 },
        Scheme::Integrated2 { k: 7 },
    ];
    let envs = [
        LossEnv::Independent { p: 0.05 },
        LossEnv::FullBinaryTree { p: 0.05 },
        LossEnv::Burst {
            p: 0.05,
            mean_burst: 2.0,
        },
        LossEnv::TwoClass {
            alpha: 0.25,
            p_low: 0.01,
            p_high: 0.25,
        },
        LossEnv::TreeBurst {
            p: 0.05,
            mean_burst: 2.0,
        },
    ];
    schemes
        .into_iter()
        .flat_map(move |s| envs.into_iter().map(move |e| (s, e)))
}

fn bits(r: &SimResult) -> ([u64; 5], usize) {
    (
        [
            r.mean_transmissions.to_bits(),
            r.stderr.to_bits(),
            r.ci95.to_bits(),
            r.mean_rounds.to_bits(),
            r.mean_unneeded.to_bits(),
        ],
        r.trials,
    )
}

#[test]
fn sim_results_are_pinned() {
    // 40 trials are five chunks, so the chunk merge order is pinned too;
    // R = 16 is a power of two for the tree environments.
    let cfg = SimConfig::paper_timing(40);
    for ((scheme, env), want) in cases().zip(PINNED) {
        let serial = run_env_par(&cfg, scheme, env, 16, 5, &Pool::serial());
        assert_eq!(bits(&serial), want, "{scheme:?} {env:?}: {serial:?}");
        // Every worker reuses its loss model across its trials; at any
        // width that must leave the bits where they were.
        let auto = run_env(&cfg, scheme, env, 16, 5);
        assert_eq!(bits(&auto), want, "{scheme:?} {env:?} on Pool::auto()");
    }
}
