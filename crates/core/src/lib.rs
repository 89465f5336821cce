#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
//! **Protocol NP** — reliable multicast with integrated FEC (hybrid ARQ),
//! the system contribution of *Parity-Based Loss Recovery for Reliable
//! Multicast Transmission* (Nonnenmacher, Biersack, Towsley, SIGCOMM '97)
//! — plus the classic **N2** NAK-based ARQ protocol it is evaluated
//! against.
//!
//! NP in one paragraph (paper Section 5.1): the sender splits the byte
//! stream into transmission groups of `k` data packets. Round 1 multicasts
//! a group's data followed by `POLL(i, k)`; receivers that cannot yet
//! decode group `i` schedule `NAK(i, l)` — `l` the number of packets they
//! still miss — under slotting-and-damping so ideally a single NAK carrying
//! the *maximum* demand survives. On `NAK(i, l)` the sender interrupts
//! current work, encodes (or fetches pre-encoded) `l` *parity* packets of
//! group `i`, multicasts them plus a new poll, and resumes. One parity
//! repairs *different* losses at different receivers, which is where the
//! bandwidth savings of Figs. 5–8 come from.
//!
//! The crate is structured sans-io: one [`Sender`] and one [`Receiver`]
//! are pure state machines consuming `(Message, now)` and emitting messages
//! to send — deterministic to test, trivial to embed. NP
//! ([`NpSender`]/[`NpReceiver`]) and N2 ([`n2::N2Sender`]/[`n2::N2Receiver`])
//! are the same two machines under two policy pairs,
//! [`sender::Repair`] (fresh parities, or the named originals) and
//! [`receiver::Feedback`] (one NAK per group, or one per packet) — the only
//! structural differences the paper's Section 5 draws between them. [`runtime`] holds what a driver of those machines
//! shares with them — the machine traits, timing/resilience configuration
//! and session reports — and `pm-mux` is that driver, the only one (tests
//! at R = 1000 included: a `Mux` on a virtual clock), over any
//! [`pm_net::Transport`] (in-memory hub or real UDP multicast); [`costs`]
//! counts every packet/NAK/encode/decode so end-host processing (Section
//! 5's metric) can be attributed with a [`pm_analysis::CostModel`]-style
//! cost table.
//!
//! Every layer optionally emits structured [`pm_obs`] events: construct the
//! machines with `with_obs` and hand the same handle to the driver
//! (`Mux::with_obs` ahead of `pm_mux::drive_session`) to get a full
//! session trace (see `crates/obs`).

pub mod config;
pub mod costs;
pub mod error;
pub mod n2;
pub mod payload;
pub mod receiver;
pub mod runtime;
pub mod sender;
pub mod session;

pub use config::{CompletionPolicy, NpConfig};
pub use costs::CostCounters;
pub use error::ProtocolError;
pub use payload::Payload;
pub use receiver::{NpReceiver, Receiver, ReceiverAction};
pub use runtime::{ReceiverReport, ResilienceCore, ResiliencePolicy, RuntimeConfig};
pub use sender::{NpSender, Sender, SenderStep};
pub use session::{SessionPlan, SessionReport};
