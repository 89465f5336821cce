#![forbid(unsafe_code)]
// Test fixtures build bytes from loop counters; library casts must not truncate.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]
//! Network substrate for the NP reliable-multicast protocol.
//!
//! This crate supplies everything `pm-core` needs to run over a real or
//! simulated network:
//!
//! * [`wire`] — the packet format: one compact binary encoding for data
//!   packets, parities, sender POLLs, receiver NAKs and session control.
//!   Only it reads a header, down to the half of a session it is for.
//! * [`transport`] — the [`Transport`] trait: multicast send +
//!   timeout-bounded receive.
//! * [`poll`] — [`PollTransport`], the non-blocking receive every
//!   transport has natively, the [`PollSet`] a mux sweeps (only its ready
//!   endpoints: a hub endpoint at its log's tail parks until the next
//!   publish), and [`poll::wait_recv`], the one blocking wait. No
//!   transport starts a thread.
//! * [`mem`] — an in-process multicast hub: one shared log that every
//!   endpoint reads through its own cursor, so a send costs one entry and
//!   one decode whatever the population and an empty poll one atomic
//!   load; the workhorse of protocol tests (faults are [`fault`]'s, per
//!   endpoint).
//! * [`udp`] — real UDP multicast (`239.0.0.0/8`): one non-blocking socket
//!   joins the group and feeds a [`mem`] log, so each datagram is decoded
//!   once for every in-process endpoint, its sender's included (std
//!   cannot set `SO_REUSEPORT` — see DESIGN.md). Its `Feed` is pm-net's
//!   one socket reader; [`farm`] drains its shared socket with it too.
//! * [`fault`] — a transport decorator that drops / duplicates / reorders
//!   received packets with configured probabilities (the smoltcp-style
//!   fault-injection idiom), seedable for reproducibility — plus
//!   datagram-level faults: bit-flip corruption, truncation, garbage
//!   injection, send-path loss, and scheduled blackout windows.
//! * [`fec_layer`] — the layered FEC of the paper's Fig. 2(a), each block
//!   accumulated in the NP receiver's `pm_rse::GroupDecoder`.
//! * [`chaos`] — named fault presets (light/heavy/blackout) and the
//!   seeded {corruption × blackout × churn × receiver-death} scenario
//!   grid behind the chaos tests.
//! * [`suppression`] — NAK slotting-and-damping: the timer discipline from
//!   the paper's Section 5.1 (receivers needing more packets answer in
//!   earlier slots; hearing an equal-or-better NAK cancels yours).

pub mod chaos;
pub mod farm;
pub mod fault;
pub mod fec_layer;
pub mod mem;
pub mod poll;
pub mod suppression;
pub mod transcript;
pub mod transport;
pub mod udp;
pub mod wire;

pub use chaos::{scenario_grid, ChaosPreset, ChaosScenario};
pub use farm::{FarmEndpoint, FarmHub, FarmRole, FarmStats};
pub use fault::{FaultConfig, FaultStats, FaultyTransport};
pub use fec_layer::{FecLayerConfig, FecTransport};
pub use mem::MemHub;
pub use poll::{PollSet, PollTransport, Token};
pub use suppression::NakSuppressor;
pub use transcript::{Transcript, TranscriptTransport};
pub use transport::{classify_recv_err, NetError, RecvClass, Transport};
pub use wire::Message;

/// Lock `m`; no pm-net code panics holding one, so a poisoned lock is consistent.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod proptests;
