#![forbid(unsafe_code)]
//! # pm-par — zero-dependency data parallelism for simulation sweeps
//!
//! The Monte Carlo workloads in this workspace (`pm-sim` scheme runs,
//! `pm-analysis` cross-checks) are embarrassingly parallel: thousands of
//! independent seeded trials whose statistics are merged at the end. This
//! crate supplies the two ingredients that make such runs *fast and
//! reproducible at the same time*:
//!
//! - [`splitmix64`] / [`mix_seed`]: a statistically strong, constant-time
//!   mixer that derives one independent RNG seed per trial index. Seeding
//!   per trial (instead of advancing one shared stream) makes trial order
//!   irrelevant, so work can be scheduled across any number of threads
//!   without changing a single sampled bit.
//! - [`Pool`]: a scoped, chunked thread pool with [`Pool::par_map`] and
//!   [`Pool::par_map_reduce`] over index ranges. Work is split into
//!   *fixed-size chunks claimed dynamically* by workers — the calling
//!   thread is one of them — and per-chunk accumulators are merged **in
//!   chunk order** on the calling thread.
//!   [`Pool::par_map_reduce_with`] also gives each worker one state of its
//!   own (reusable buffers) for all the items it runs.
//!   Because the chunk layout and merge order depend only on `(n, chunk)`
//!   — never on the worker count or on which thread ran which chunk — a
//!   reduction over floating-point accumulators returns bit-identical
//!   results for 1, 2, or 64 workers.
//!
//! The pool is deliberately minimal: threads live for one call (scoped;
//! `n` workers start `n − 1` of them), there is no work stealing beyond
//! the shared chunk counter, and the only synchronization is one
//! `AtomicUsize` fetch-add per chunk. The fetch-add is free at any chunk
//! size this workspace uses; the thread start is not. On a 2-vCPU VM a
//! worker spawned while the caller already works starts 1–3 ms late, so
//! a call that lasts less than a few milliseconds — a small-R point of a
//! simulated figure — gains nothing from a second worker, and one a few
//! times longer gains less than 2×. Amortising the start over a whole
//! figure (one pool call for all its points) is ROADMAP item 6 (c).
//!
//! ```
//! use pm_par::Pool;
//! let pool = Pool::new(4);
//! // Deterministic parallel sum of squares: same answer at any width.
//! let total = pool.par_map_reduce(
//!     1000,
//!     16,
//!     || 0u64,
//!     |acc, i| *acc += (i as u64) * (i as u64),
//!     |acc, part| *acc += part,
//! );
//! assert_eq!(total, (0..1000u64).map(|i| i * i).sum());
//! ```

mod pool;
mod seed;

pub use pool::{available_workers, Pool};
pub use seed::{mix_seed, splitmix64};
