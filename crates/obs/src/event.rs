//! The shared event vocabulary.
//!
//! One typed [`Event`] enum covers every layer of the stack — protocol
//! machines (`pm-core`), transports and NAK suppression (`pm-net`), the
//! codec cache (`pm-rse`), and the scheme simulator (`pm-sim`) — so a
//! single JSONL trace tells the whole story of a run. Events are plain
//! data: construction is cheap, and with the null recorder they are never
//! constructed at all (see [`crate::Obs::emit`]).

use serde::Value;

/// Which side of the protocol an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The multicast sender.
    Sender,
    /// A multicast receiver.
    Receiver,
}

impl Role {
    /// Stable lowercase name used in traces.
    pub fn as_str(&self) -> &'static str {
        match self {
            Role::Sender => "sender",
            Role::Receiver => "receiver",
        }
    }
}

/// How a driven session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Transfer completed normally.
    Completed,
    /// Transfer completed for the responsive receivers, with silent
    /// stragglers evicted (graceful degradation).
    Degraded,
    /// The runtime gave up waiting for progress.
    Stalled,
    /// FIN arrived before the transfer completed.
    SenderGone,
    /// Any other protocol/transport failure.
    Failed,
}

impl Outcome {
    /// Stable lowercase name used in traces.
    pub fn as_str(&self) -> &'static str {
        match self {
            Outcome::Completed => "completed",
            Outcome::Degraded => "degraded",
            Outcome::Stalled => "stalled",
            Outcome::SenderGone => "sender_gone",
            Outcome::Failed => "failed",
        }
    }
}

/// Wire-message classification for transport-level events. `Data` and
/// `Parity` split `Message::Packet` by FEC-block index (`index < k` is
/// data), mirroring how the protocol itself treats packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgKind {
    /// Session announcement.
    Announce,
    /// Data packet (`index < k`).
    Data,
    /// Parity packet (`index >= k`).
    Parity,
    /// Sender poll.
    Poll,
    /// NP per-group NAK.
    Nak,
    /// N2 per-packet NAK.
    NakPacket,
    /// Receiver completion report.
    Done,
    /// Session close.
    Fin,
    /// Layered-FEC transport frame.
    FecFrame,
}

impl MsgKind {
    /// Stable lowercase name used in traces.
    pub fn as_str(&self) -> &'static str {
        match self {
            MsgKind::Announce => "announce",
            MsgKind::Data => "data",
            MsgKind::Parity => "parity",
            MsgKind::Poll => "poll",
            MsgKind::Nak => "nak",
            MsgKind::NakPacket => "nak_packet",
            MsgKind::Done => "done",
            MsgKind::Fin => "fin",
            MsgKind::FecFrame => "fec_frame",
        }
    }
}

/// How one field type of the table renders as a JSON value.
trait Field {
    fn json(&self) -> Value;
}

macro_rules! field_as {
    ($($ty:ty => |$v:ident| $json:expr),* $(,)?) => {$(
        impl Field for $ty {
            fn json(&self) -> Value {
                let $v = self;
                $json
            }
        }
    )*};
}

field_as! {
    u16 => |v| Value::Number(f64::from(*v)),
    u32 => |v| Value::Number(f64::from(*v)),
    u64 => |v| Value::Number(*v as f64),
    f64 => |v| Value::Number(*v),
    bool => |v| Value::Bool(*v),
    String => |v| Value::String(v.clone()),
    &'static str => |v| Value::String((*v).into()),
    Role => |v| Value::String(v.as_str().into()),
    Outcome => |v| Value::String(v.as_str().into()),
    MsgKind => |v| Value::String(v.as_str().into()),
}

/// The one declaration of the vocabulary: each entry is
/// `Variant = "wire_name" { field: Type, .. }`, and the [`Event`] enum,
/// [`EVENT_NAMES`], [`Event::name`], [`Event::session`] and
/// [`Event::to_json`] are all generated from it — a JSONL line is `t`,
/// `type`, then the fields under their own names in declaration order,
/// and an event belongs to a session exactly when it has a field named
/// `session`. Adding an event is one entry in the table below.
macro_rules! events {
    // `@session` takes every field twice: the first copy is compared with
    // the literal `session`, the second is the arm's own binding (an ident
    // written in this definition could not name it — hygiene).
    (@session) => { None };
    (@session session $s:ident $($rest:ident)*) => { Some(*$s) };
    (@session $other:ident $o:ident $($rest:ident)*) => { events!(@session $($rest)*) };
    ($(
        $(#[$vmeta:meta])*
        $variant:ident = $name:literal {
            $($(#[$fmeta:meta])* $field:ident: $ty:ty),* $(,)?
        }
    ),* $(,)?) => {
        /// One structured observability event.
        ///
        /// Timestamps are *not* part of the event: the emitting site supplies the
        /// session-relative time `t` (seconds) to [`crate::Obs::emit`], and
        /// recorders pair the two. This keeps events constructible in sans-io code
        /// that has no clock of its own.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Event {
            $($(#[$vmeta])* $variant { $($(#[$fmeta])* $field: $ty),* }),*
        }

        /// Every stable event type name, in `Event` declaration order — the
        /// complete trace vocabulary. `obs-check` validates the `type` field
        /// of every trace line against this list.
        pub const EVENT_NAMES: [&str; [$($name),*].len()] = [$($name),*];

        impl Event {
            /// Stable snake_case type name (the `type` field of a JSONL line).
            pub fn name(&self) -> &'static str {
                match self {
                    $(Event::$variant { .. } => $name),*
                }
            }

            /// The session this event belongs to, when it carries one. Wire-level
            /// and codec events (`net_*`, `decode_cache_*`, resilience counters)
            /// are unattributed and return `None` — windowed telemetry folds them
            /// into the farm-wide aggregate only.
            #[expect(
                unused_variables,
                reason = "every arm binds all of its variant's fields and reads at most `session`"
            )]
            pub fn session(&self) -> Option<u32> {
                match self {
                    $(Event::$variant { $($field),* } => events!(@session $($field $field)*)),*
                }
            }

            /// Render as one JSON object with the timestamp `t` and the `type`
            /// name first, then the variant's fields.
            pub fn to_json(&self, t: f64) -> Value {
                let mut m: Vec<(String, Value)> = vec![
                    ("t".into(), Value::Number(t)),
                    ("type".into(), Value::String(self.name().into())),
                ];
                match self {
                    $(Event::$variant { $($field),* } => {
                        $(m.push((stringify!($field).into(), $field.json()));)*
                    })*
                }
                Value::Object(m)
            }
        }
    };
}

events! {
    // ---- session lifecycle (pm-core machines + runtime) ----
    /// A protocol machine was constructed for a session.
    SessionStart = "session_start" {
        /// Sender or receiver side.
        role: Role,
        /// Session identifier.
        session: u32,
        /// Transmission groups planned (0 until a receiver learns a plan).
        groups: u32,
        /// Transfer size in bytes (0 until known).
        bytes: u64,
    },
    /// A driven session ended.
    SessionEnd = "session_end" {
        /// Sender or receiver side.
        role: Role,
        /// How it ended.
        outcome: Outcome,
    },
    /// The runtime aborted for lack of progress.
    StallTimeout = "stall_timeout" {
        /// Which driver stalled.
        role: Role,
        /// Seconds since the last progress event.
        waited_secs: f64,
    },
    /// A complete receiver stopped lingering for a lost FIN.
    LingerExpired = "linger_expired" {
        /// Seconds the receiver lingered.
        waited_secs: f64,
    },

    // ---- sender side (pm-core) ----
    /// Announce multicast (initial or keep-alive).
    AnnounceSent = "announce_sent" {
        /// Session identifier.
        session: u32,
    },
    /// Data packet multicast.
    DataSent = "data_sent" {
        /// Session identifier.
        session: u32,
        /// Transmission group.
        group: u32,
        /// FEC-block index (`< k`).
        index: u16,
    },
    /// Parity (or fallback original retransmission) multicast as repair.
    ParitySent = "parity_sent" {
        /// Session identifier.
        session: u32,
        /// Transmission group.
        group: u32,
        /// FEC-block index (`>= k` for true parities).
        index: u16,
    },
    /// Poll multicast after a round.
    PollSent = "poll_sent" {
        /// Session identifier.
        session: u32,
        /// Transmission group.
        group: u32,
        /// Packets sent in the round (NAK slotting parameter `s`).
        sent: u16,
        /// Round number.
        round: u16,
    },
    /// FIN multicast; the session is closing.
    FinSent = "fin_sent" {
        /// Session identifier.
        session: u32,
    },
    /// A NAK reached the sender.
    NakRecv = "nak_recv" {
        /// Session identifier.
        session: u32,
        /// Transmission group.
        group: u32,
        /// Packets the receiver still needs.
        needed: u16,
        /// Round the NAK answers.
        round: u16,
        /// True if round gating discarded it (duplicate of a serviced
        /// round).
        stale: bool,
    },
    /// The sender queued one repair round for a group.
    RepairRound = "repair_round" {
        /// Session identifier.
        session: u32,
        /// Transmission group.
        group: u32,
        /// The new round number.
        round: u16,
        /// Fresh parities queued.
        parities: u16,
        /// Original data packets re-queued (parity budget exhausted).
        originals: u16,
    },
    /// A receiver reported completion.
    DoneRecv = "done_recv" {
        /// Session identifier.
        session: u32,
        /// Reporting receiver.
        receiver: u32,
    },

    // ---- receiver side (pm-core) ----
    /// Data packet received.
    DataRecv = "data_recv" {
        /// Session identifier.
        session: u32,
        /// Transmission group.
        group: u32,
        /// FEC-block index (`< k`).
        index: u16,
    },
    /// Parity packet received.
    ParityRecv = "parity_recv" {
        /// Session identifier.
        session: u32,
        /// Transmission group.
        group: u32,
        /// FEC-block index (`>= k`).
        index: u16,
    },
    /// Poll received.
    PollRecv = "poll_recv" {
        /// Session identifier.
        session: u32,
        /// Transmission group.
        group: u32,
        /// Packets sent in the round.
        sent: u16,
        /// Round number.
        round: u16,
    },
    /// A transmission group was fully decoded.
    GroupDecoded = "group_decoded" {
        /// Session identifier.
        session: u32,
        /// Transmission group.
        group: u32,
        /// Data packets reconstructed by the codec (0 on the systematic
        /// fast path).
        recovered: u64,
    },
    /// The decoder's inverse-matrix cache served a repeated loss pattern.
    DecodeCacheHit = "decode_cache_hit" {
        /// Group size of the code.
        k: u16,
        /// Block size of the code.
        n: u16,
    },
    /// A fresh loss pattern forced an O(k^3) matrix inversion.
    DecodeCacheMiss = "decode_cache_miss" {
        /// Group size of the code.
        k: u16,
        /// Block size of the code.
        n: u16,
    },
    /// A NAK timer fired and the NAK was multicast.
    NakSent = "nak_sent" {
        /// Session identifier.
        session: u32,
        /// Transmission group.
        group: u32,
        /// Packets still needed.
        needed: u16,
        /// Round being answered.
        round: u16,
    },
    /// This receiver reported completion.
    DoneSent = "done_sent" {
        /// Session identifier.
        session: u32,
        /// The reporting receiver.
        receiver: u32,
    },
    /// FIN received.
    FinRecv = "fin_recv" {
        /// Session identifier.
        session: u32,
    },
    /// Every group decoded; the transfer is whole.
    TransferComplete = "transfer_complete" {
        /// Session identifier.
        session: u32,
        /// Groups decoded.
        groups: u32,
    },

    // ---- NAK suppression (pm-net) ----
    /// A NAK was scheduled into its slot.
    NakScheduled = "nak_scheduled" {
        /// Transmission group.
        group: u32,
        /// Packets still needed.
        needed: u16,
        /// Round being answered.
        round: u16,
        /// Absolute deadline (session clock, seconds).
        deadline: f64,
    },
    /// An overheard NAK damped the scheduled one.
    NakSuppressed = "nak_suppressed" {
        /// Transmission group.
        group: u32,
        /// Packets this receiver still needed.
        needed: u16,
        /// Demand of the overheard NAK that covered it.
        covered_by: u16,
    },

    // ---- transports (pm-net) ----
    /// A message left through a transport.
    NetSent = "net_sent" {
        /// Message classification.
        kind: MsgKind,
    },
    /// A message was delivered by a transport.
    NetRecv = "net_recv" {
        /// Message classification.
        kind: MsgKind,
    },
    /// The fault injector dropped a message.
    NetDropped = "net_dropped" {
        /// Message classification.
        kind: MsgKind,
    },
    /// The fault injector duplicated a message.
    NetDuplicated = "net_duplicated" {
        /// Message classification.
        kind: MsgKind,
    },
    /// The fault injector held a message back (one-packet reorder).
    NetReordered = "net_reordered" {
        /// Message classification.
        kind: MsgKind,
    },
    /// The fault injector flipped bits inside a datagram's bytes.
    NetCorrupted = "net_corrupted" {
        /// Classification of the damaged message.
        kind: MsgKind,
    },
    /// The fault injector truncated a datagram.
    NetTruncated = "net_truncated" {
        /// Classification of the truncated message.
        kind: MsgKind,
    },
    /// The fault injector delivered a garbage datagram ahead of real
    /// traffic.
    NetGarbage = "net_garbage" {
        /// Length of the garbage datagram in bytes.
        bytes: u64,
    },
    /// A datagram fell inside a scheduled blackout/partition window.
    NetBlackout = "net_blackout" {
        /// Message classification.
        kind: MsgKind,
        /// True when dropped on the send path, false on receive.
        tx: bool,
    },

    // ---- resilience (pm-core runtime) ----
    /// The driver dropped a corrupt/undecodable datagram and kept going.
    CorruptDropped = "corrupt_dropped" {
        /// Running total of dropped datagrams for this driver.
        total: u64,
    },
    /// A control-plane send failed and was retried with backoff.
    SendRetry = "send_retry" {
        /// Retry attempt number (1-based).
        attempt: u32,
    },
    /// The sender gave up on silent receivers and completed for the
    /// responsive population.
    ReceiverEvicted = "receiver_evicted" {
        /// Receivers evicted as unresponsive.
        evicted: u32,
        /// Receivers that had reported completion.
        completed: u32,
    },

    // ---- simulator (pm-sim) ----
    /// One scheme/environment simulation finished.
    SimRun = "sim_run" {
        /// Scheme label (e.g. `integrated2(k=7)`).
        scheme: String,
        /// Receiver population.
        receivers: u64,
        /// Trials averaged.
        trials: u64,
        /// Mean transmissions per data packet, `E[M]`.
        mean_m: f64,
        /// Half-width of the 95% confidence interval on `mean_m`.
        ci95: f64,
        /// Mean rounds per transmission group.
        mean_rounds: f64,
    },
    /// One simulated trial (one transmission group, or one packet for
    /// no-FEC) finished. Emitted by the parallel scheme runner at trial
    /// boundaries; `t` is the trial's *simulated* end time, not wall
    /// clock.
    SimTrial = "sim_trial" {
        /// Scheme label (e.g. `integrated2(k=7)`).
        scheme: String,
        /// Trial index within the run (also the RNG sub-seed index).
        trial: u64,
        /// Transmissions per data packet this trial contributed, `M`.
        m: f64,
        /// Rounds the trial took.
        rounds: f64,
    },

    // ---- session multiplexer (pm-mux) ----
    /// A session was added to an event-driven multiplexer.
    MuxSessionAdded = "mux_session_added" {
        /// Multiplexer session slot.
        session: u32,
        /// Sender or receiver side.
        role: Role,
        /// Sessions live in the multiplexer after the add.
        active: u32,
    },
    /// A multiplexed session finished (completed, degraded, or failed)
    /// and was removed from the driver.
    MuxSessionEnded = "mux_session_ended" {
        /// Multiplexer session slot.
        session: u32,
        /// Sender or receiver side.
        role: Role,
        /// Sessions still live after the removal.
        active: u32,
        /// Drive steps this session consumed (the fairness unit).
        drives: u64,
    },
    /// The multiplexer's admission control refused a new session: the
    /// rolling utilization estimate was above the high-water mark (or the
    /// hard session cap was reached). The session never ran.
    MuxAdmissionRejected = "mux_admission_rejected" {
        /// The session id that was refused.
        session: u32,
        /// The side that tried to join.
        role: Role,
        /// Sessions live at the moment of refusal.
        active: u32,
        /// Rolling poll-budget utilization (1.0 = the turn budget is
        /// fully consumed) that triggered the refusal.
        utilization: f64,
    },
    /// The multiplexer's poll budget has been saturated for long enough
    /// that the overload policy considers the mux overloaded. Shedding
    /// may follow. Paired with `mux_overload_cleared`.
    MuxOverload = "mux_overload" {
        /// Sessions live when the overload was declared.
        active: u32,
        /// Rolling utilization at declaration.
        utilization: f64,
    },
    /// Utilization fell back below the high-water mark: the overload
    /// episode (begun by `mux_overload`) is over.
    MuxOverloadCleared = "mux_overload_cleared" {
        /// Sessions live when the overload cleared.
        active: u32,
        /// Rolling utilization at clearance.
        utilization: f64,
    },
    /// Sustained overload made the policy shed this session: it was
    /// removed mid-flight with a typed `Shed` outcome and a postmortem,
    /// by deterministic victim priority — not an error, the mux's
    /// graceful degradation under load.
    MuxSessionShed = "mux_session_shed" {
        /// The shed session.
        session: u32,
        /// Sender or receiver side.
        role: Role,
        /// Sessions still live after the shed.
        active: u32,
        /// Drive steps the session had consumed when shed.
        drives: u64,
        /// Rolling utilization that sustained the overload.
        utilization: f64,
    },

    // ---- shared-socket farm (pm-net) ----
    /// A shared-socket farm demultiplexed a datagram to a session with no
    /// registered endpoint — a stranger, or a straggler of a finished or
    /// shed session — and dropped it after counting.
    FarmUnknownDrop = "farm_unknown_drop" {
        /// The wire header's session claim (0 if the header was too
        /// damaged to carry one).
        session: u32,
    },

    // ---- telemetry (pm-obs) ----
    /// The code geometry and loss environment of a session, emitted once
    /// by trace producers that know them (harnesses, simulators, drills).
    /// `obs-analyze --compare-analysis` reruns the `pm-analysis` engine at
    /// exactly these parameters to reconcile a measured trace against the
    /// paper's analytical curves.
    SessionConfig = "session_config" {
        /// Session identifier.
        session: u32,
        /// Data packets per transmission group.
        k: u32,
        /// Parity budget per group.
        h: u32,
        /// Receiver population `R`.
        receivers: u32,
        /// Per-packet loss probability `p` of the environment.
        loss: f64,
        /// Codec kernel backend the producer dispatched to
        /// (`pm_simd::backend_name()`: "scalar", "avx2", "neon"), so a
        /// trace's throughput numbers are attributable to a kernel.
        backend: &'static str,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_carries_t_and_type() {
        let ev = Event::DataSent {
            session: 7,
            group: 2,
            index: 5,
        };
        let v = ev.to_json(1.25);
        assert_eq!(v["t"], 1.25);
        assert_eq!(v["type"], "data_sent");
        assert_eq!(v["group"], 2);
        assert_eq!(v["index"], 5);
    }

    #[test]
    fn every_variant_names_and_serializes() {
        let samples = vec![
            Event::SessionStart {
                role: Role::Sender,
                session: 1,
                groups: 3,
                bytes: 4096,
            },
            Event::SessionEnd {
                role: Role::Receiver,
                outcome: Outcome::Completed,
            },
            Event::StallTimeout {
                role: Role::Sender,
                waited_secs: 1.5,
            },
            Event::LingerExpired { waited_secs: 0.3 },
            Event::AnnounceSent { session: 1 },
            Event::DataSent {
                session: 1,
                group: 0,
                index: 0,
            },
            Event::ParitySent {
                session: 1,
                group: 0,
                index: 9,
            },
            Event::PollSent {
                session: 1,
                group: 0,
                sent: 8,
                round: 1,
            },
            Event::FinSent { session: 1 },
            Event::NakRecv {
                session: 1,
                group: 0,
                needed: 2,
                round: 1,
                stale: false,
            },
            Event::RepairRound {
                session: 1,
                group: 0,
                round: 2,
                parities: 2,
                originals: 0,
            },
            Event::DoneRecv {
                session: 1,
                receiver: 4,
            },
            Event::DataRecv {
                session: 1,
                group: 0,
                index: 0,
            },
            Event::ParityRecv {
                session: 1,
                group: 0,
                index: 9,
            },
            Event::PollRecv {
                session: 1,
                group: 0,
                sent: 8,
                round: 1,
            },
            Event::GroupDecoded {
                session: 1,
                group: 0,
                recovered: 2,
            },
            Event::DecodeCacheHit { k: 8, n: 48 },
            Event::DecodeCacheMiss { k: 8, n: 48 },
            Event::NakSent {
                session: 1,
                group: 0,
                needed: 2,
                round: 1,
            },
            Event::DoneSent {
                session: 1,
                receiver: 4,
            },
            Event::FinRecv { session: 1 },
            Event::TransferComplete {
                session: 1,
                groups: 3,
            },
            Event::NakScheduled {
                group: 0,
                needed: 2,
                round: 1,
                deadline: 0.015,
            },
            Event::NakSuppressed {
                group: 0,
                needed: 2,
                covered_by: 3,
            },
            Event::NetSent {
                kind: MsgKind::Data,
            },
            Event::NetRecv {
                kind: MsgKind::Poll,
            },
            Event::NetDropped {
                kind: MsgKind::Parity,
            },
            Event::NetDuplicated { kind: MsgKind::Nak },
            Event::NetReordered {
                kind: MsgKind::Announce,
            },
            Event::NetCorrupted {
                kind: MsgKind::Data,
            },
            Event::NetTruncated {
                kind: MsgKind::Done,
            },
            Event::NetGarbage { bytes: 48 },
            Event::NetBlackout {
                kind: MsgKind::Fin,
                tx: true,
            },
            Event::CorruptDropped { total: 3 },
            Event::SendRetry { attempt: 2 },
            Event::ReceiverEvicted {
                evicted: 1,
                completed: 2,
            },
            Event::SimRun {
                scheme: "no-FEC".into(),
                receivers: 16,
                trials: 100,
                mean_m: 1.2,
                ci95: 0.01,
                mean_rounds: 2.0,
            },
            Event::SimTrial {
                scheme: "no-FEC".into(),
                trial: 3,
                m: 1.5,
                rounds: 2.0,
            },
            Event::MuxSessionAdded {
                session: 7,
                role: Role::Sender,
                active: 12,
            },
            Event::MuxSessionEnded {
                session: 7,
                role: Role::Receiver,
                active: 11,
                drives: 4096,
            },
            Event::MuxAdmissionRejected {
                session: 9,
                role: Role::Sender,
                active: 12,
                utilization: 0.97,
            },
            Event::MuxOverload {
                active: 12,
                utilization: 0.99,
            },
            Event::MuxOverloadCleared {
                active: 10,
                utilization: 0.4,
            },
            Event::MuxSessionShed {
                session: 8,
                role: Role::Receiver,
                active: 11,
                drives: 512,
                utilization: 0.99,
            },
            Event::FarmUnknownDrop { session: 51 },
            Event::SessionConfig {
                session: 1,
                k: 8,
                h: 40,
                receivers: 16,
                loss: 0.05,
                backend: "scalar",
            },
        ];
        let mut names = std::collections::BTreeSet::new();
        for ev in &samples {
            assert!(names.insert(ev.name()), "duplicate name {}", ev.name());
            let line = serde_json::to_string(&ev.to_json(0.5)).unwrap();
            let back = serde_json::from_str(&line).unwrap();
            assert_eq!(back["type"].as_str(), Some(ev.name()));
            assert_eq!(back["t"].as_f64(), Some(0.5));
        }
        assert_eq!(names.len(), 46, "vocabulary size pinned");
        // The names and EVENT_NAMES come from the same table entries, so the
        // list cannot disagree with the variants; only its size is pinned.
        assert_eq!(EVENT_NAMES.len(), 46);
    }
}
