//! Non-blocking readiness layer: [`PollTransport`], the [`PollSet`]
//! registry, and [`wait_recv`], the one blocking wait built on them.
//!
//! The blocking [`Transport`] contract holds the calling thread in
//! `recv_timeout` — one thread per endpoint. An event-driven runtime
//! (`pm-mux`) needs the opposite: ask *many* endpoints "anything ready?"
//! from one thread and never park on any single session's behalf.
//! [`PollTransport::poll_recv`] is that question, and [`PollSet`] is the
//! socket-registration + readiness-polling surface the multiplexer drives:
//! register endpoints, then sweep them round-robin with a per-endpoint
//! budget so one firehose session cannot starve its neighbors.

use std::time::{Duration, Instant};

use crate::transport::{NetError, Transport};
use crate::wire::Message;

/// A [`Transport`] that can also answer "is a datagram ready?" without
/// blocking.
///
/// `poll_recv` must return immediately: `Ok(Some)` with a decoded
/// datagram, `Ok(None)` when nothing is ready, or an error (recoverable
/// corruption included, see [`Transport::recv_timeout`]). Every pm-net
/// transport implements it natively, and its `recv_timeout` is
/// [`wait_recv`] over it.
pub trait PollTransport: Transport {
    /// Non-blocking receive.
    ///
    /// # Errors
    /// Same surface as [`Transport::recv_timeout`]: recoverable damage
    /// (count-and-drop) or fatal transport failure.
    fn poll_recv(&mut self) -> Result<Option<Message>, NetError>;
}

/// The crate's one blocking wait, every pm-net `recv_timeout`: poll `t`
/// until it yields, napping 200 µs between empty polls, and return
/// `Ok(None)` once `timeout` has passed (a zero `timeout` polls once).
///
/// # Errors
/// Whatever `t.poll_recv()` returns.
#[expect(
    clippy::disallowed_methods,
    reason = "the one blocking wait: a wall-clock deadline and a nap between empty polls"
)]
pub fn wait_recv<T: PollTransport + ?Sized>(
    t: &mut T,
    timeout: Duration,
) -> Result<Option<Message>, NetError> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(msg) = t.poll_recv()? {
            return Ok(Some(msg));
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Ok(None);
        }
        std::thread::sleep(left.min(Duration::from_micros(200)));
    }
}

impl<T: PollTransport + ?Sized> PollTransport for &mut T {
    fn poll_recv(&mut self) -> Result<Option<Message>, NetError> {
        (**self).poll_recv()
    }
}

impl Transport for Box<dyn PollTransport> {
    fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        (**self).send(msg)
    }
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, NetError> {
        (**self).recv_timeout(timeout)
    }
}

impl PollTransport for Box<dyn PollTransport> {
    fn poll_recv(&mut self) -> Result<Option<Message>, NetError> {
        (**self).poll_recv()
    }
}

/// Stable handle to a transport registered in a [`PollSet`].
///
/// Tokens are slot indices; a deregistered slot's token is retired and the
/// slot recycled, so holding a stale token yields `None` from accessors
/// rather than touching a stranger's transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token {
    slot: usize,
    generation: u32,
}

impl Token {
    /// Slot index (useful as a dense array key while the token is live).
    pub fn slot(&self) -> usize {
        self.slot
    }
}

struct Slot<T> {
    transport: Option<T>,
    generation: u32,
}

/// Registration + readiness polling over a set of non-blocking endpoints:
/// the "shared socket set" an event-driven driver sweeps.
///
/// Determinism contract: `poll_round` visits live slots in ascending slot
/// order starting from a cursor that advances by one each round. For a
/// fixed registration history the visit schedule — and therefore the
/// interleaving of drained datagrams — is a pure function of the call
/// sequence, never of wall time.
pub struct PollSet<T: PollTransport> {
    slots: Vec<Slot<T>>,
    free: Vec<usize>,
    cursor: usize,
    live: usize,
}

impl<T: PollTransport> Default for PollSet<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: PollTransport> PollSet<T> {
    /// Empty set.
    pub fn new() -> Self {
        PollSet {
            slots: Vec::new(),
            free: Vec::new(),
            cursor: 0,
            live: 0,
        }
    }

    /// Register an endpoint; the returned token addresses it until
    /// [`PollSet::deregister`].
    pub fn register(&mut self, transport: T) -> Token {
        self.live += 1;
        match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot];
                s.transport = Some(transport);
                Token {
                    slot,
                    generation: s.generation,
                }
            }
            None => {
                let slot = self.slots.len();
                self.slots.push(Slot {
                    transport: Some(transport),
                    generation: 0,
                });
                Token {
                    slot,
                    generation: 0,
                }
            }
        }
    }

    /// Remove an endpoint, returning it. Stale or already-freed tokens
    /// yield `None`.
    pub fn deregister(&mut self, token: Token) -> Option<T> {
        let s = self.slots.get_mut(token.slot)?;
        if s.generation != token.generation {
            return None;
        }
        let t = s.transport.take()?;
        s.generation = s.generation.wrapping_add(1);
        self.free.push(token.slot);
        self.live -= 1;
        Some(t)
    }

    /// Mutable access to a registered endpoint (e.g. to send on it).
    pub fn get_mut(&mut self, token: Token) -> Option<&mut T> {
        let s = self.slots.get_mut(token.slot)?;
        if s.generation != token.generation {
            return None;
        }
        s.transport.as_mut()
    }

    /// Number of registered endpoints.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// One fairness-bounded readiness sweep: visit every live endpoint
    /// once (round-robin, the starting endpoint rotating each call) and
    /// drain up to `budget` outcomes from each. Ready datagrams *and*
    /// per-endpoint receive errors land in `sink` as `(token, outcome)` —
    /// errors are data here, because each session's resilience policy owns
    /// the decision to absorb or abort. Returns how many outcomes were
    /// collected.
    pub fn poll_round(
        &mut self,
        budget: usize,
        sink: &mut Vec<(Token, Result<Message, NetError>)>,
    ) -> usize {
        let n = self.slots.len();
        if n == 0 || budget == 0 {
            return 0;
        }
        let start = self.cursor % n;
        self.cursor = self.cursor.wrapping_add(1);
        let mut collected = 0;
        for off in 0..n {
            let slot = (start + off) % n;
            let generation = self.slots[slot].generation;
            let Some(t) = self.slots[slot].transport.as_mut() else {
                continue;
            };
            for _ in 0..budget {
                match t.poll_recv() {
                    Ok(Some(msg)) => {
                        sink.push((Token { slot, generation }, Ok(msg)));
                        collected += 1;
                    }
                    Ok(None) => break,
                    Err(e) => {
                        sink.push((Token { slot, generation }, Err(e)));
                        collected += 1;
                        // An error consumed this poll slot; keep draining
                        // up to the budget so recoverable damage doesn't
                        // stall the queue behind it.
                    }
                }
            }
        }
        collected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemHub;

    #[test]
    fn poll_recv_is_nonblocking_and_ordered() {
        let hub = MemHub::new();
        let mut a = hub.join();
        let mut b = hub.join();
        assert_eq!(b.poll_recv().unwrap(), None, "empty queue, no blocking");
        for s in 0..4u32 {
            a.send(&Message::Fin { session: s }).unwrap();
        }
        for s in 0..4u32 {
            assert_eq!(b.poll_recv().unwrap(), Some(Message::Fin { session: s }));
        }
        assert_eq!(b.poll_recv().unwrap(), None);
    }

    #[test]
    fn poll_recv_surfaces_corruption_skips_foreign() {
        let hub = MemHub::new();
        let a = hub.join();
        let mut b = hub.join();
        a.send_raw(bytes::Bytes::from_static(b"\x00\x00foreign junk"));
        assert_eq!(b.poll_recv().unwrap(), None, "foreign bytes skipped");
        let mut raw = Message::Fin { session: 3 }.encode().to_vec();
        raw[10] ^= 0x40;
        a.send_raw(bytes::Bytes::from(raw));
        assert!(b.poll_recv().unwrap_err().is_recoverable());
    }

    #[test]
    fn pollset_registration_lifecycle() {
        let hub = MemHub::new();
        let mut set: PollSet<_> = PollSet::new();
        let t1 = set.register(hub.join());
        let t2 = set.register(hub.join());
        assert_eq!(set.len(), 2);
        assert!(set.get_mut(t1).is_some());
        let ep = set.deregister(t1).expect("live token");
        drop(ep);
        assert_eq!(set.len(), 1);
        assert!(set.get_mut(t1).is_none(), "token retired");
        assert!(set.deregister(t1).is_none(), "double free rejected");
        // The slot is recycled under a fresh generation: the stale token
        // still doesn't resolve.
        let t3 = set.register(hub.join());
        assert_eq!(t3.slot(), t1.slot());
        assert!(set.get_mut(t1).is_none());
        assert!(set.get_mut(t2).is_some());
        assert!(set.get_mut(t3).is_some());
    }

    #[test]
    fn poll_round_is_fair_under_budget() {
        let hub = MemHub::new();
        let mut feeder = hub.join();
        let mut set: PollSet<_> = PollSet::new();
        let t1 = set.register(hub.join());
        let t2 = set.register(hub.join());
        // Both endpoints have 3 queued datagrams; with budget 2 a round
        // collects 2 from each, not 4 from the first.
        for s in 0..3u32 {
            feeder.send(&Message::Fin { session: s }).unwrap();
        }
        let mut sink = Vec::new();
        let got = set.poll_round(2, &mut sink);
        assert_eq!(got, 4);
        let per = |tok: Token| sink.iter().filter(|(t, _)| *t == tok).count();
        assert_eq!(per(t1), 2);
        assert_eq!(per(t2), 2);
        // The leftover drains next round.
        sink.clear();
        assert_eq!(set.poll_round(2, &mut sink), 2);
    }

    #[test]
    fn poll_round_rotates_start() {
        let hub = MemHub::new();
        let mut feeder = hub.join();
        let mut set: PollSet<_> = PollSet::new();
        let t1 = set.register(hub.join());
        let t2 = set.register(hub.join());
        feeder.send(&Message::Fin { session: 1 }).unwrap();
        let mut sink = Vec::new();
        set.poll_round(1, &mut sink);
        assert_eq!(sink[0].0, t1, "round 0 starts at slot 0");
        feeder.send(&Message::Fin { session: 2 }).unwrap();
        sink.clear();
        set.poll_round(1, &mut sink);
        assert_eq!(sink[0].0, t2, "round 1 starts at slot 1");
    }

    #[test]
    fn boxed_poll_transport_objects_work() {
        let hub = MemHub::new();
        let mut a = hub.join();
        let mut boxed: Box<dyn PollTransport> = Box::new(hub.join());
        a.send(&Message::Fin { session: 8 }).unwrap();
        assert_eq!(
            boxed.poll_recv().unwrap(),
            Some(Message::Fin { session: 8 })
        );
        boxed.send(&Message::Fin { session: 9 }).unwrap();
        assert_eq!(a.poll_recv().unwrap(), Some(Message::Fin { session: 9 }));
    }
}
