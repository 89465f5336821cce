#![forbid(unsafe_code)]
//! Simulation of reliable-multicast loss recovery — the tool behind the
//! paper's Figs. 11, 12, 15 and 16 (the scenarios where closed forms are
//! unavailable: shared tree loss and temporally correlated burst loss).
//!
//! Four recovery schemes are simulated, each with the exact timing model of
//! the paper's Fig. 13 (`delta` between consecutive packets, `T` for the
//! feedback/retransmission turnaround):
//!
//! * [`runner::Scheme::NoFec`] — plain ARQ; retransmissions of a packet
//!   spaced `delta + T`.
//! * [`runner::Scheme::Layered`] — FEC blocks of `k` data + `h` parities
//!   below an ARQ layer; a packet keeps its block position across
//!   retransmission rounds, consecutive blocks separated by `delta + T`.
//! * [`runner::Scheme::Integrated1`] — parities stream right behind the
//!   data at the full rate `1/delta`; each receiver "leaves the group"
//!   once it holds `k` packets (no feedback, no unnecessary receptions).
//! * [`runner::Scheme::Integrated2`] — the NP-style hybrid ARQ: after each
//!   round the sender learns the maximum number of packets any receiver
//!   still needs and multicasts exactly that many parities, rounds
//!   separated by `delta + T` (which *interleaves* parities across loss
//!   bursts).
//!
//! Every scheme is generic over a [`pm_loss::LossModel`], so the same code
//! runs under each [`runner::LossEnv`]: independent, shared-tree (FBT) and
//! Markov burst loss. All simulations are deterministic given the seed.
//!
//! The trial loops read a transmission only as
//! [`pm_loss::LossModel::sample_lost`] — the receivers that lost it — and
//! keep only state a loss touches, on buffers their worker reuses from
//! trial to trial and that each trial resets at the entries its losses
//! touched: a trial costs `O(losses)`, not `transmissions × R`, and
//! allocates nothing once its worker has run one like it. Under the
//! memoryless environments the paper's `R = 2^17` (and `10^6`) are
//! ordinary inputs. Each loop has a dense twin,
//! one pass over all receivers per packet, kept under `#[cfg(test)]` as the
//! oracle it must equal exactly.
//!
//! The [`runner`] entry points seed each trial independently via
//! `pm_par::mix_seed(seed, trial_index)`, which makes trials order-free:
//! [`runner::run_env`] fans them across [`pm_par::Pool::auto`] (every
//! core, or `PM_PAR_WORKERS`), [`runner::run_env_par`] across the pool it
//! is given, and both return results **bit-identical** to
//! `run_env_par(…, &Pool::serial())` at any worker count;
//! [`runner::run_env_par_traced`] adds per-trial events.
//!
//! The headline metric matches the paper: **E\[M\]**, the expected number of
//! packet transmissions per data packet delivered reliably to every
//! receiver, reported with its standard error ([`metrics::SimResult`]).
//!
//! ```
//! use pm_sim::runner::{run_env, LossEnv, Scheme};
//! use pm_sim::SimConfig;
//! let cfg = SimConfig::paper_timing(200);
//! let res = run_env(&cfg, Scheme::Integrated2 { k: 7 },
//!                   LossEnv::Independent { p: 0.05 }, 16, 42);
//! assert!(res.mean_transmissions >= 1.0);
//! ```

pub mod config;
pub mod metrics;
pub mod runner;
mod scheme;

pub use config::SimConfig;
pub use metrics::{RunningStat, SimResult};
