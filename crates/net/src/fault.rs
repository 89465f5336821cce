//! Fault injection: a transport decorator that perturbs the *receive*
//! path (multicast loss happens per receiver, so injecting at the receiver
//! models independent loss; wrap several endpoints of one `MemHub` with
//! different seeds for a whole lossy population) and, for the
//! datagram-level faults, the *send* path too — a receiver's NAK/Done
//! feedback crosses the same hostile network as the data.
//!
//! Message-level faults (`drop`/`duplicate`/`reorder`) perturb delivery
//! order and count. Datagram-level faults (`corrupt`/`truncate`/`garbage`)
//! damage the *bytes*: the message is re-encoded, mutilated, and pushed
//! through the real [`Message::decode`] so the caller sees exactly the
//! recoverable [`NetError::Corrupt`]/[`NetError::Decode`] a damaged UDP
//! datagram would produce. A [`FaultConfig::blackout`] window models a
//! network partition: everything in the interval vanishes, both
//! directions.

use std::time::Duration;

use bytes::Bytes;
use pm_obs::{Event, Obs, Stopwatch};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::poll::PollTransport;
use crate::transport::{NetError, Transport};
use crate::wire::Message;

/// Probabilities of each fault, applied per received datagram.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultConfig {
    /// Drop the datagram.
    pub drop: f64,
    /// Deliver the datagram twice.
    pub duplicate: f64,
    /// Hold the datagram back and deliver it after the next one (a
    /// one-packet reorder).
    pub reorder: f64,
    /// Flip bits within one byte of the encoded datagram; the caller
    /// sees the recoverable decode error the damage produces.
    pub corrupt: f64,
    /// Truncate the encoded datagram at a random length; the caller sees
    /// the recoverable decode error.
    pub truncate: f64,
    /// Deliver a random garbage datagram ahead of the real message (the
    /// real one follows on the next receive).
    pub garbage: f64,
    /// Drop the datagram on the *send* path (lost NAK/Done feedback).
    pub send_drop: f64,
    /// Scheduled partition: during `[start, end)` seconds (measured from
    /// transport creation), every datagram vanishes in both directions.
    pub blackout: Option<(f64, f64)>,
}

impl FaultConfig {
    /// No faults.
    pub fn none() -> Self {
        FaultConfig::default()
    }

    /// Drop-only faults with probability `p` — the paper's loss model.
    ///
    /// # Panics
    /// Panics unless `p` is a probability.
    pub fn drop_only(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        FaultConfig {
            drop: p,
            ..FaultConfig::none()
        }
    }

    fn validate(&self) {
        for (name, v) in [
            ("drop", self.drop),
            ("duplicate", self.duplicate),
            ("reorder", self.reorder),
            ("corrupt", self.corrupt),
            ("truncate", self.truncate),
            ("garbage", self.garbage),
            ("send_drop", self.send_drop),
        ] {
            assert!(
                (0.0..=1.0).contains(&v),
                "{name} probability {v} out of range"
            );
        }
        if let Some((start, end)) = self.blackout {
            assert!(
                start >= 0.0 && end >= start,
                "blackout window [{start}, {end}) is malformed"
            );
        }
    }
}

/// Counters of injected faults (for assertions and reporting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Datagrams dropped (receive path).
    pub dropped: u64,
    /// Datagrams duplicated.
    pub duplicated: u64,
    /// Datagrams reordered.
    pub reordered: u64,
    /// Datagrams damaged by bit flips.
    pub corrupted: u64,
    /// Datagrams truncated.
    pub truncated: u64,
    /// Garbage datagrams injected.
    pub garbage_injected: u64,
    /// Datagrams swallowed by the blackout window on the receive path.
    pub blackout_recv: u64,
    /// Datagrams swallowed by the blackout window on the send path.
    pub blackout_send: u64,
    /// Datagrams dropped on the send path.
    pub send_dropped: u64,
    /// Datagrams delivered to the caller.
    pub delivered: u64,
}

impl FaultStats {
    /// Total datagrams the injector damaged at the byte level (each one
    /// surfaced to the caller as a recoverable decode error).
    pub fn byte_faults(&self) -> u64 {
        self.corrupted + self.truncated + self.garbage_injected
    }

    /// Total datagrams the blackout window swallowed (both directions).
    pub fn blackout_total(&self) -> u64 {
        self.blackout_recv + self.blackout_send
    }
}

/// A [`Transport`] decorator injecting faults.
pub struct FaultyTransport<T> {
    inner: T,
    cfg: FaultConfig,
    rng: ChaCha8Rng,
    /// Duplicate copy awaiting delivery.
    pending_dup: Option<Message>,
    /// Reordered message awaiting the one that overtakes it.
    held: Option<Message>,
    /// Real message queued behind an injected garbage datagram.
    stash: Option<Message>,
    stats: FaultStats,
    obs: Obs,
    clock: Stopwatch,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wrap `inner` with the given fault profile.
    ///
    /// # Panics
    /// Panics on out-of-range probabilities.
    pub fn new(inner: T, cfg: FaultConfig, seed: u64) -> Self {
        cfg.validate();
        FaultyTransport {
            inner,
            cfg,
            rng: ChaCha8Rng::seed_from_u64(seed),
            pending_dup: None,
            held: None,
            stash: None,
            stats: FaultStats::default(),
            obs: Obs::null(),
            clock: Stopwatch::start(),
        }
    }

    /// Emit `net_dropped`/`net_duplicated`/`net_reordered` events
    /// (timestamped from transport creation) to `obs`.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Fault counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Whether the session clock currently sits inside the blackout
    /// window.
    #[expect(
        clippy::disallowed_methods,
        reason = "a scheduled blackout is a wall-clock window; read only when one is configured"
    )]
    fn in_blackout(&self) -> bool {
        match self.cfg.blackout {
            Some((start, end)) => {
                let t = self.clock.now();
                t >= start && t < end
            }
            None => false,
        }
    }

    /// Re-encode `msg`, flip 1–8 bits within one random byte, and decode
    /// the damaged datagram — returning the same recoverable error a
    /// bit-flipped UDP datagram would produce. Damage confined to one
    /// byte is *guaranteed* caught by the wire checksum, so this never
    /// mis-parses.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a remainder mod raw.len() fits usize, and one mod 255, plus 1, fits u8"
    )]
    fn corruption_error(&mut self, msg: &Message) -> NetError {
        let mut raw = msg.encode().to_vec();
        let pos = (self.rng.random::<u64>() % raw.len() as u64) as usize;
        let mask = (self.rng.random::<u64>() % 255 + 1) as u8; // nonzero
        raw[pos] ^= mask;
        match Message::decode(Bytes::from(raw)) {
            Err(e) => e,
            // Unreachable by the checksum's single-byte guarantee; stay
            // total rather than trust it.
            Ok(_) => NetError::Corrupt("injected bit flips".into()),
        }
    }

    /// Re-encode `msg`, cut it short, and decode the stump.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a remainder mod raw.len() fits usize"
    )]
    fn truncation_error(&mut self, msg: &Message) -> NetError {
        let raw = msg.encode();
        let cut = (self.rng.random::<u64>() % raw.len() as u64) as usize;
        match Message::decode(raw.slice(0..cut)) {
            Err(e) => e,
            Ok(_) => NetError::Corrupt("injected truncation".into()),
        }
    }

    /// Build a random garbage datagram and decode it.
    fn garbage_error(&mut self) -> (u64, NetError) {
        let len = (self.rng.random::<u64>() % 64) as usize;
        let mut junk = vec![0u8; len];
        self.rng.fill_bytes(&mut junk);
        let err = match Message::decode(Bytes::from(junk)) {
            Err(e) => e,
            // A 2^-48 fluke (valid magic + checksum); report it as
            // corruption all the same.
            Ok(_) => NetError::Corrupt("injected garbage".into()),
        };
        (len as u64, err)
    }
}

impl<T: PollTransport> Transport for FaultyTransport<T> {
    fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        // Feedback crosses the same hostile network: the blackout window
        // and send_drop swallow outbound datagrams silently (the network
        // never reports a lost UDP datagram either).
        if self.in_blackout() {
            self.stats.blackout_send += 1;
            self.obs.emit(&self.clock, || Event::NetBlackout {
                kind: msg.obs_kind(),
                tx: true,
            });
            return Ok(());
        }
        if self.rng.random::<f64>() < self.cfg.send_drop {
            self.stats.send_dropped += 1;
            self.obs.emit(&self.clock, || Event::NetDropped {
                kind: msg.obs_kind(),
            });
            return Ok(());
        }
        self.inner.send(msg)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, NetError> {
        crate::poll::wait_recv(self, timeout)
    }
}

/// The receive-side fault pipeline over the inner endpoint's `poll_recv`:
/// an empty poll reads no clock, so an idle chaos decorator costs a sweep
/// nothing. While it holds a duplicate, a stashed or a reordered message,
/// its token stays ready ([`crate::poll::keep_ready`]).
impl<T: PollTransport> PollTransport for FaultyTransport<T> {
    fn poll_recv(&mut self) -> Result<Option<Message>, NetError> {
        let got = self.next_faulty();
        if self.pending_dup.is_some() || self.stash.is_some() || self.held.is_some() {
            crate::poll::keep_ready();
        }
        got
    }
}

impl<T: PollTransport> FaultyTransport<T> {
    /// The next message through the fault pipeline.
    fn next_faulty(&mut self) -> Result<Option<Message>, NetError> {
        if let Some(dup) = self.pending_dup.take() {
            self.stats.delivered += 1;
            return Ok(Some(dup));
        }
        if let Some(real) = self.stash.take() {
            // The message that was queued behind an injected garbage
            // datagram; it already passed the byte-level stage.
            self.stats.delivered += 1;
            return Ok(Some(real));
        }
        loop {
            let msg = match self.inner.poll_recv()? {
                Some(m) => m,
                None => {
                    // Nothing more: flush a held (reordered) message if any
                    // rather than losing it forever.
                    if let Some(h) = self.held.take() {
                        self.stats.delivered += 1;
                        return Ok(Some(h));
                    }
                    return Ok(None);
                }
            };
            if self.in_blackout() {
                self.stats.blackout_recv += 1;
                self.obs.emit(&self.clock, || Event::NetBlackout {
                    kind: msg.obs_kind(),
                    tx: false,
                });
                continue;
            }
            if self.rng.random::<f64>() < self.cfg.corrupt {
                self.stats.corrupted += 1;
                self.obs.emit(&self.clock, || Event::NetCorrupted {
                    kind: msg.obs_kind(),
                });
                return Err(self.corruption_error(&msg));
            }
            if self.rng.random::<f64>() < self.cfg.truncate {
                self.stats.truncated += 1;
                self.obs.emit(&self.clock, || Event::NetTruncated {
                    kind: msg.obs_kind(),
                });
                return Err(self.truncation_error(&msg));
            }
            if self.rng.random::<f64>() < self.cfg.garbage {
                self.stats.garbage_injected += 1;
                let (bytes, err) = self.garbage_error();
                self.obs.emit(&self.clock, || Event::NetGarbage { bytes });
                self.stash = Some(msg);
                return Err(err);
            }
            if self.rng.random::<f64>() < self.cfg.drop {
                self.stats.dropped += 1;
                self.obs.emit(&self.clock, || Event::NetDropped {
                    kind: msg.obs_kind(),
                });
                continue;
            }
            if self.rng.random::<f64>() < self.cfg.reorder && self.held.is_none() {
                self.stats.reordered += 1;
                self.obs.emit(&self.clock, || Event::NetReordered {
                    kind: msg.obs_kind(),
                });
                self.held = Some(msg);
                continue;
            }
            if self.rng.random::<f64>() < self.cfg.duplicate {
                self.stats.duplicated += 1;
                self.obs.emit(&self.clock, || Event::NetDuplicated {
                    kind: msg.obs_kind(),
                });
                self.pending_dup = Some(msg.clone());
            }
            // A message passing through releases any held one right after.
            if let Some(h) = self.held.take() {
                // Deliver current now, held next (that's the swap).
                self.pending_dup = match self.pending_dup.take() {
                    // Extremely unlikely both: chain them, dup after held.
                    Some(d) => {
                        self.stats.delivered += 1;
                        self.held = Some(d);
                        Some(h)
                    }
                    None => Some(h),
                };
            }
            self.stats.delivered += 1;
            return Ok(Some(msg));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemHub;

    const TICK: Duration = Duration::from_millis(200);

    fn fins(n: u32) -> Vec<Message> {
        (0..n).map(|s| Message::Fin { session: s }).collect()
    }

    #[test]
    fn no_faults_is_transparent() {
        let hub = MemHub::new();
        let mut tx = hub.join();
        let mut rx = FaultyTransport::new(hub.join(), FaultConfig::none(), 1);
        for m in fins(10) {
            tx.send(&m).unwrap();
        }
        for m in fins(10) {
            assert_eq!(rx.recv_timeout(TICK).unwrap(), Some(m));
        }
        assert_eq!(rx.stats().dropped, 0);
        assert_eq!(rx.stats().delivered, 10);
    }

    #[test]
    fn drop_rate_approximates_p() {
        let hub = MemHub::new();
        let mut tx = hub.join();
        let mut rx = FaultyTransport::new(hub.join(), FaultConfig::drop_only(0.3), 42);
        let n = 5000;
        for m in fins(n) {
            tx.send(&m).unwrap();
        }
        let mut received = 0;
        while rx
            .recv_timeout(Duration::from_millis(20))
            .unwrap()
            .is_some()
        {
            received += 1;
        }
        let rate = 1.0 - received as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.03, "drop rate {rate}");
        assert_eq!(rx.stats().dropped + rx.stats().delivered, n as u64);
    }

    #[test]
    fn duplicates_delivered_back_to_back() {
        let hub = MemHub::new();
        let mut tx = hub.join();
        let cfg = FaultConfig {
            duplicate: 1.0,
            ..FaultConfig::none()
        };
        let mut rx = FaultyTransport::new(hub.join(), cfg, 7);
        tx.send(&Message::Fin { session: 9 }).unwrap();
        assert_eq!(
            rx.recv_timeout(TICK).unwrap(),
            Some(Message::Fin { session: 9 })
        );
        assert_eq!(
            rx.recv_timeout(TICK).unwrap(),
            Some(Message::Fin { session: 9 })
        );
        assert_eq!(rx.stats().duplicated, 1);
    }

    #[test]
    fn reorder_swaps_adjacent() {
        let hub = MemHub::new();
        let mut tx = hub.join();
        // Reorder deterministically: first message always held.
        let cfg = FaultConfig {
            reorder: 1.0,
            ..FaultConfig::none()
        };
        let mut rx = FaultyTransport::new(hub.join(), cfg, 3);
        tx.send(&Message::Fin { session: 0 }).unwrap();
        tx.send(&Message::Fin { session: 1 }).unwrap();
        // With reorder=1.0, message 0 is held; message 1 cannot be held
        // (slot occupied) so it is delivered, then 0 follows.
        assert_eq!(
            rx.recv_timeout(TICK).unwrap(),
            Some(Message::Fin { session: 1 })
        );
        assert_eq!(
            rx.recv_timeout(TICK).unwrap(),
            Some(Message::Fin { session: 0 })
        );
    }

    #[test]
    fn held_message_flushed_on_timeout() {
        let hub = MemHub::new();
        let mut tx = hub.join();
        let cfg = FaultConfig {
            reorder: 1.0,
            ..FaultConfig::none()
        };
        let mut rx = FaultyTransport::new(hub.join(), cfg, 3);
        tx.send(&Message::Fin { session: 5 }).unwrap();
        // Held on first recv attempt... flushed by the timeout path.
        let got = rx.recv_timeout(Duration::from_millis(30)).unwrap();
        assert_eq!(got, Some(Message::Fin { session: 5 }));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_probability_rejected() {
        let hub = MemHub::new();
        let cfg = FaultConfig {
            drop: 1.2,
            ..FaultConfig::none()
        };
        let _ = FaultyTransport::new(hub.join(), cfg, 0);
    }

    #[test]
    #[should_panic(expected = "malformed")]
    fn inverted_blackout_window_rejected() {
        let hub = MemHub::new();
        let cfg = FaultConfig {
            blackout: Some((2.0, 1.0)),
            ..FaultConfig::none()
        };
        let _ = FaultyTransport::new(hub.join(), cfg, 0);
    }

    #[test]
    fn corruption_surfaces_recoverable_error() {
        let hub = MemHub::new();
        let mut tx = hub.join();
        let cfg = FaultConfig {
            corrupt: 1.0,
            ..FaultConfig::none()
        };
        let mut rx = FaultyTransport::new(hub.join(), cfg, 11);
        for _ in 0..50 {
            tx.send(&Message::Done {
                session: 1,
                receiver: 2,
            })
            .unwrap();
            match rx.recv_timeout(TICK) {
                Err(e) => assert!(e.is_recoverable(), "corruption must be recoverable: {e}"),
                other => panic!("expected corruption error, got {other:?}"),
            }
        }
        assert_eq!(rx.stats().corrupted, 50);
        assert_eq!(rx.stats().delivered, 0);
    }

    #[test]
    fn truncation_surfaces_recoverable_error() {
        let hub = MemHub::new();
        let mut tx = hub.join();
        let cfg = FaultConfig {
            truncate: 1.0,
            ..FaultConfig::none()
        };
        let mut rx = FaultyTransport::new(hub.join(), cfg, 13);
        for _ in 0..50 {
            tx.send(&Message::Poll {
                session: 1,
                group: 0,
                sent: 8,
                round: 1,
            })
            .unwrap();
            match rx.recv_timeout(TICK) {
                Err(e) => assert!(e.is_recoverable(), "truncation must be recoverable: {e}"),
                other => panic!("expected truncation error, got {other:?}"),
            }
        }
        assert_eq!(rx.stats().truncated, 50);
    }

    #[test]
    fn garbage_precedes_real_message() {
        let hub = MemHub::new();
        let mut tx = hub.join();
        let cfg = FaultConfig {
            garbage: 1.0,
            ..FaultConfig::none()
        };
        let mut rx = FaultyTransport::new(hub.join(), cfg, 17);
        tx.send(&Message::Fin { session: 8 }).unwrap();
        // First receive: the garbage datagram's decode error.
        match rx.recv_timeout(TICK) {
            Err(e) => assert!(e.is_recoverable(), "garbage must be recoverable: {e}"),
            other => panic!("expected garbage error, got {other:?}"),
        }
        // Second receive: the real message, unharmed.
        assert_eq!(
            rx.recv_timeout(TICK).unwrap(),
            Some(Message::Fin { session: 8 })
        );
        assert_eq!(rx.stats().garbage_injected, 1);
        assert_eq!(rx.stats().delivered, 1);
    }

    #[test]
    fn blackout_swallows_both_directions() {
        let hub = MemHub::new();
        let mut tx = hub.join();
        let mut other = hub.join();
        // Window comfortably covering the whole test run.
        let cfg = FaultConfig {
            blackout: Some((0.0, 30.0)),
            ..FaultConfig::none()
        };
        let mut rx = FaultyTransport::new(hub.join(), cfg, 19);
        // Receive path: everything from tx vanishes at the faulty
        // endpoint (the unwrapped endpoint still sees it).
        tx.send(&Message::Fin { session: 1 }).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(50)).unwrap(), None);
        assert_eq!(
            other.recv_timeout(TICK).unwrap(),
            Some(Message::Fin { session: 1 })
        );
        // Send path: nothing reaches the other endpoint.
        rx.send(&Message::Fin { session: 2 }).unwrap();
        assert_eq!(other.recv_timeout(Duration::from_millis(50)).unwrap(), None);
        assert_eq!(rx.stats().blackout_recv, 1);
        assert_eq!(rx.stats().blackout_send, 1);
        assert_eq!(rx.stats().blackout_total(), 2);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the blackout window is timed by the MemHub endpoint's wall-clock Stopwatch"
    )]
    fn blackout_window_expires() {
        let hub = MemHub::new();
        let mut tx = hub.join();
        // A window entirely in the past by the time we receive.
        let cfg = FaultConfig {
            blackout: Some((0.0, 0.05)),
            ..FaultConfig::none()
        };
        let mut rx = FaultyTransport::new(hub.join(), cfg, 23);
        std::thread::sleep(Duration::from_millis(80));
        tx.send(&Message::Fin { session: 3 }).unwrap();
        assert_eq!(
            rx.recv_timeout(TICK).unwrap(),
            Some(Message::Fin { session: 3 })
        );
        assert_eq!(rx.stats().blackout_recv, 0);
    }

    #[test]
    fn send_drop_swallows_feedback() {
        let hub = MemHub::new();
        let mut other = hub.join();
        let cfg = FaultConfig {
            send_drop: 1.0,
            ..FaultConfig::none()
        };
        let mut rx = FaultyTransport::new(hub.join(), cfg, 29);
        rx.send(&Message::Nak {
            session: 1,
            group: 0,
            needed: 2,
            round: 1,
        })
        .unwrap();
        assert_eq!(other.recv_timeout(Duration::from_millis(50)).unwrap(), None);
        assert_eq!(rx.stats().send_dropped, 1);
    }

    #[test]
    fn byte_faults_never_misparse() {
        // Across many seeds, a corrupted/truncated datagram must never
        // decode into a valid Message: the error path is the only path.
        let hub = MemHub::new();
        let mut tx = hub.join();
        let cfg = FaultConfig {
            corrupt: 0.5,
            truncate: 0.5,
            ..FaultConfig::none()
        };
        let mut rx = FaultyTransport::new(hub.join(), cfg, 31);
        let payload: Vec<u8> = (0..256).map(|i| (i % 251) as u8).collect();
        let sent = Message::Packet {
            session: 1,
            group: 0,
            index: 1,
            k: 4,
            n: 8,
            payload: payload.into(),
        };
        for _ in 0..200 {
            tx.send(&sent).unwrap();
            match rx.recv_timeout(TICK) {
                Ok(Some(m)) => assert_eq!(m, sent, "delivered message must be intact"),
                Ok(None) => panic!("message lost without a counted fault"),
                Err(e) => assert!(e.is_recoverable()),
            }
        }
        let s = rx.stats();
        assert_eq!(s.byte_faults() + s.delivered, 200);
    }
}
