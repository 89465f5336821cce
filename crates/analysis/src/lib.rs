#![forbid(unsafe_code)]
//! Analytical models from *Parity-Based Loss Recovery for Reliable
//! Multicast Transmission* (Nonnenmacher, Biersack, Towsley, SIGCOMM '97).
//!
//! Everything in Sections 3 and 5 of the paper is a closed-form or
//! numerically evaluated expression; this crate reproduces each one with
//! attention to the numeric ranges involved (receiver populations to
//! `R = 10^6`, loss probabilities to `10^-3`, so all binomials are evaluated
//! in log space and `x^R`-style powers via `exp(R ln x)`):
//!
//! | Paper | Here |
//! |---|---|
//! | Eq. (2) `q(k,n,p)` | [`layered::rm_loss_probability`] |
//! | Eq. (3) layered-FEC `E[M]` | [`layered::expected_transmissions`] |
//! | no-FEC `E[M]` (ARQ baseline) | [`nofec::expected_transmissions`] |
//! | Eqs. (4)–(6) integrated lower bound | [`integrated::lower_bound`] |
//! | finite-parity integrated `E[M]` | [`integrated::finite`] |
//! | Eqs. (7)–(8) heterogeneous populations | the same entry points over a multi-class [`Population`] |
//! | Eq. (17) transmission rounds | [`rounds`] |
//! | Eqs. (10)–(16) N2/NP processing rates | [`endhost`] |
//! | Fig. 1 coding-rate model | [`coding`] |
//!
//! Each stochastic model also has a parallel Monte Carlo estimator in
//! [`montecarlo`] that simulates the model's *definition* (not the
//! formula) across a [`pm_par::Pool`], with results bit-identical at any
//! worker count — the crate's own tests cross-check every closed form
//! against them.
//!
//! Receiver heterogeneity is expressed through [`Population`]: a list of
//! `(loss probability, receiver count)` classes. The homogeneous case is a
//! single class; the paper's Figs. 9–10 use two. Per-class grouping keeps
//! the `R = 10^6` product `prod_r (1 - q_r^i)` exact and cheap.
//!
//! ```
//! use pm_analysis::{integrated, layered, nofec, Population};
//! let pop = Population::homogeneous(0.01, 1_000_000);
//! let arq = nofec::expected_transmissions(&pop);
//! let lay = layered::expected_transmissions(7, 2, &pop);
//! let int = integrated::lower_bound(7, 0, &pop);
//! assert!(int < lay && lay < arq); // the paper's Fig. 5 ordering
//! ```

pub mod coding;
pub mod endhost;
pub mod integrated;
pub mod layered;
pub mod montecarlo;
pub mod nofec;
pub mod numerics;
pub mod population;
pub mod rounds;

pub use endhost::CostModel;
pub use population::Population;

#[cfg(test)]
mod proptests;
