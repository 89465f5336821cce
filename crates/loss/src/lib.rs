#![forbid(unsafe_code)]
//! Packet-loss models for reliable-multicast studies.
//!
//! The paper evaluates FEC/ARQ recovery under four loss environments
//! (Sections 3 and 4); each has a model here, all behind the [`LossModel`]
//! trait so the simulator can swap them freely (the live protocol's tests
//! inject independent loss per receiver with `pm_net::FaultyTransport`):
//!
//! * [`IndependentLoss`] — spatially and temporally independent Bernoulli
//!   loss with probability `p` at every receiver (Section 3).
//! * [`TwoClassLoss`] / [`PerReceiverLoss`] — heterogeneous populations,
//!   e.g. a fraction `alpha` of "high loss" receivers at `p = 0.25` among
//!   receivers at `p = 0.01` (Section 3.3, Figs. 9–10).
//! * [`TreeLoss`] / [`TreeLoss::full_binary`] — spatially correlated
//!   ("shared") loss on a multicast tree: every node of a full binary tree
//!   of height `d` drops packets independently with `p_node` chosen so each
//!   receiver still sees loss probability `p` (Section 4.1, Figs. 11–12).
//! * [`GilbertLoss`] — temporally correlated (burst) loss from a two-state
//!   continuous-time Markov chain, parameterised by `(p, mean burst length
//!   b, packet spacing delta)` exactly as in Section 4.2 (Figs. 14–16).
//!
//! [`stats::BurstStats`] collects the consecutive-loss run-length histogram
//! of Fig. 14.
//!
//! # One transmission, two views
//!
//! A model draws the fate of one multicast packet *jointly* for all `R`
//! receivers, and hands it out as [`LossModel::sample_lost`] — the
//! ascending indices of the receivers that lost it — or, expanded from
//! that, as the dense [`LossModel::sample`] `&mut [bool]`. The sparse list
//! is the primary view: at the paper's `p = 0.01` it is a hundredth the
//! size of the population, and the three memoryless environments produce
//! it without visiting the receivers that got the packet, by geometric
//! skipping (the distance to the next loss is `floor(ln U / ln(1-p))`,
//! `U` uniform on `(0, 1]`): [`IndependentLoss`] over the receiver
//! indices, [`PerReceiverLoss`] / [`TwoClassLoss`] with one skip per run
//! of equal `p`, [`TreeLoss::full_binary`] over the node ids, each
//! dropped node contributing its contiguous range of leaves. A simulation
//! that consumes only the list (`pm-sim` does) then costs `O(losses)` per
//! packet at any `R`. Each of these models draws its `U`s 32 at a time and
//! takes their logarithms in one call of pm-simd's `ln_unit` (four lanes
//! at a time on AVX-512 hosts); a gap that vector logarithm cannot decide
//! with certainty is recomputed with libm's, so every list is bit for bit
//! the one a draw-then-`ln` walk gives, on every `PM_SIMD` backend. That
//! makes pm-simd's dispatch part of their construction: a `PM_SIMD` value
//! this host cannot run panics there. [`GilbertLoss`] and [`TreeBurstLoss`] step one chain
//! per receiver (node) and remain `O(R)`; a sparse burst model — keep the
//! set of chains in the loss state, skip geometrically over the good ones
//! — is open work. The trait doc says why the list is ascending.
//!
//! All models are driven by a seedable ChaCha RNG so every experiment is
//! reproducible from its seed, through either view: the dense pattern is
//! defined as the expansion of the sparse one, so a model has one stream.
//!
//! ```
//! use pm_loss::{IndependentLoss, LossModel};
//! let mut model = IndependentLoss::new(8, 0.25, 42);
//! let mut lost = Vec::new();
//! model.sample_lost(0.0, &mut lost); // one multicast transmission
//! assert!(lost.windows(2).all(|w| w[0] < w[1]) && lost.iter().all(|&r| r < 8));
//! let pattern = model.sample_vec(0.04); // the next one, densely
//! assert_eq!(pattern.len(), 8);
//! ```

pub mod bernoulli;
pub mod gilbert;
pub mod hetero;
pub mod model;
mod skip;
pub mod stats;
pub mod tree;
pub mod tree_burst;

pub use bernoulli::IndependentLoss;
pub use gilbert::GilbertLoss;
pub use hetero::{PerReceiverLoss, TwoClassLoss};
pub use model::LossModel;
pub use stats::BurstStats;
pub use tree::TreeLoss;
pub use tree_burst::TreeBurstLoss;

#[cfg(test)]
mod proptests;
