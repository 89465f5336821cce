#![forbid(unsafe_code)]
// Test fixtures build bytes from loop counters; library casts must not truncate.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]
#![expect(
    clippy::disallowed_types,
    reason = "keyed lookups only; NakSuppressor's one iteration takes a min or sorts by group"
)]
//! Network substrate for the NP reliable-multicast protocol.
//!
//! This crate supplies everything `pm-core` needs to run over a real or
//! simulated network:
//!
//! * [`wire`] — the packet format: one compact binary encoding for data
//!   packets, parities, sender POLLs, receiver NAKs and session control.
//! * [`transport`] — the [`Transport`] trait: multicast send +
//!   timeout-bounded receive.
//! * [`mem`] — an in-process multicast hub: one shared log that every
//!   endpoint reads through its own cursor, so a send costs one entry and
//!   one decode whatever the population and an empty poll one atomic
//!   load; the workhorse of protocol tests (faults are [`fault`]'s, per
//!   endpoint).
//! * [`udp`] — real UDP multicast (`239.0.0.0/8`) via std sockets: one
//!   socket joins the group and an in-process hub fans packets out to any
//!   number of endpoints (std cannot set `SO_REUSEPORT`, so multiple OS
//!   sockets on one port are out of reach without adding a crate; the hub
//!   preserves multicast semantics for in-process receivers — see
//!   DESIGN.md).
//! * [`fault`] — a transport decorator that drops / duplicates / reorders
//!   received packets with configured probabilities (the smoltcp-style
//!   fault-injection idiom), seedable for reproducibility — plus
//!   datagram-level faults: bit-flip corruption, truncation, garbage
//!   injection, send-path loss, and scheduled blackout windows.
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

#[cfg(test)]
mod proptests;
