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
//! All models are driven by a seedable ChaCha RNG so every experiment is
//! reproducible from its seed; each receiver gets an independent stream.
//!
//! ```
//! use pm_loss::{IndependentLoss, LossModel};
//! let mut model = IndependentLoss::new(8, 0.25, 42);
//! let pattern = model.sample_vec(0.0); // one multicast transmission
//! assert_eq!(pattern.len(), 8);
//! ```

pub mod bernoulli;
pub mod gilbert;
pub mod hetero;
pub mod model;
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
