#![forbid(unsafe_code)]
//! # pm-mux — event-driven session multiplexer
//!
//! Runs N concurrent sender/receiver protocol machines on **one thread**
//! over a shared non-blocking socket set, with every wait — packet
//! pacing, retry backoff, machine wakeups, receiver poll cadence, stall
//! and eviction deadlines — expressed as an entry in one timer queue
//! ([`wheel::TimerWheel`], a binary heap whose top is the exact next
//! deadline) instead of a blocking call. The driver never parks on one
//! session's behalf, so a hostile or dead session cannot stall its
//! neighbors.
//!
//! This is the only loop in the workspace that drives the protocol
//! machines over a transport. The clock-free parts of its policy live
//! beside the machines in `pm-core`:
//! [`pm_core::runtime::ResilienceCore`] for corruption absorption and
//! retry accounting, [`pm_core::runtime::absorb_feedback`] for the
//! eviction liveness classification, and the
//! [`SessionReport`](pm_core::runtime::SessionReport) /
//! [`ReceiverReport`](pm_core::runtime::ReceiverReport) a session ends
//! with. [`drive_session`] runs a sender and all its receivers to their
//! end on the calling thread, on a mux (and so a clock) of the caller's
//! choosing: a group is one mux, never a thread per session.
//!
//! Time comes from a [`MuxClock`]: [`VirtualClock`] for deterministic
//! tests (the clock jumps to the next timer deadline when the system is
//! quiescent), [`WallClock`] for production (bounded naps between I/O
//! sweeps).
//!
//! When capacity runs out, the [`overload`] module keeps the mux up:
//! per-turn budget accounting feeds an [`overload::OverloadPolicy`] that
//! refuses admission past a high-water mark (typed
//! [`overload::AdmissionError`]) and, under sustained saturation, sheds
//! victims deterministically with typed
//! [`SessionOutcome::Shed`] reports — graceful
//! degradation at the driver layer, mirroring what parity recovery does
//! at the protocol layer.

pub mod clock;
pub mod drive;
pub mod mux;
pub mod overload;
pub mod wheel;

pub use clock::{MuxClock, VirtualClock, WallClock};
pub use drive::drive_session;
pub use mux::{Mux, MuxConfig, MuxMetrics, SessionOutcome, ShedReport, TICK};
pub use overload::{AdmissionError, OverloadConfig, OverloadPolicy, OverloadSignal};
pub use wheel::TimerWheel;
