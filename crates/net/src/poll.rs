//! Non-blocking readiness layer: [`PollTransport`], the [`PollSet`]
//! registry, and [`wait_recv`], the one blocking wait built on them.
//!
//! The blocking [`Transport`] contract holds the calling thread in
//! `recv_timeout` — one thread per endpoint. An event-driven runtime
//! (`pm-mux`) needs the opposite: ask *many* endpoints "anything ready?"
//! from one thread and never park on any single session's behalf.
//! [`PollTransport::poll_recv`] is that question, and [`PollSet`] is the
//! socket-registration + readiness-polling surface the multiplexer drives:
//! register endpoints, then sweep the ready ones round-robin with a
//! per-endpoint budget so one firehose session cannot starve its
//! neighbors.
//!
//! A [`PollSet`] polls only the endpoints that may have something: one
//! whose poll *parked* is skipped until a publish wakes it. While the set
//! polls a token, this module's thread-local context holds that token's
//! waker; a [`crate::mem::MemEndpoint`] that reads to its log's tail hands
//! the waker to its hub and parks the poll, and the hub's next publish
//! wakes it.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
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
///
/// # Readiness
///
/// A [`PollSet`] polls a token again only while it may yield. A poll
/// *parks* when it leaves its endpoint with nothing to read and with the
/// token's waker handed to whatever will make the next datagram
/// readable; the set then skips the token until that waker fires, a
/// [`PollSet::get_mut`] (a send) touches it, or it is registered anew.
/// Any other poll, empty or not, leaves the token ready.
///
/// - **Who parks:** only [`MemHub`](crate::MemHub)'s endpoints, when a
///   read leaves them at the group log's tail. The hub wakes every parked
///   token on its next publish, from whichever thread sends.
/// - **Socket-fed endpoints never park.** A [`UdpEndpoint`](crate::udp::UdpEndpoint)
///   or a [`FarmEndpoint`](crate::FarmEndpoint) learns of a datagram only
///   by reading the socket, and the kernel wakes no token: the datagram
///   stays in the socket buffer until a poll drains it, so these tokens
///   are polled every sweep.
/// - **A wrapper that still holds data calls [`keep_ready`].** A
///   decorator that forwards `poll_recv` inherits its inner endpoint's
///   park, which is right while everything it could yield comes from
///   below. One that buffers — a held, stashed or duplicated message, a
///   decode queue, a send block whose age flush runs inside `poll_recv` —
///   calls [`keep_ready`] before returning, or its token may not be
///   polled again. A pass-through or filtering wrapper needs no code.
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

/// One token's wake bit in its [`PollSet`]: what a parked poll leaves
/// with whoever will make its next datagram readable (a [`WakeList`]).
pub(crate) struct Waker {
    /// The wake bits of the 64 slots this token's slot is among.
    word: Arc<AtomicU64>,
    bit: u64,
}

/// The tokens a publisher will wake, one mask per wake word: a hub keeps
/// one, so that a publish costs one atomic OR per [`PollSet`] word
/// however many of its tokens parked, and a token added twice is woken
/// once.
#[derive(Default)]
pub(crate) struct WakeList {
    words: Vec<(Arc<AtomicU64>, u64)>,
}

impl WakeList {
    /// Wake `waker`'s token at the next [`WakeList::wake_all`].
    pub(crate) fn add(&mut self, waker: &Waker) {
        match self
            .words
            .iter_mut()
            .find(|(w, _)| Arc::ptr_eq(w, &waker.word))
        {
            Some((_, mask)) => *mask |= waker.bit,
            None => self.words.push((Arc::clone(&waker.word), waker.bit)),
        }
    }

    /// Wake every added token, from any thread, and forget them (and
    /// the words of sets that have since been dropped).
    pub(crate) fn wake_all(&mut self) {
        self.words.retain_mut(|(word, mask)| {
            if *mask != 0 {
                // Release, paired with the Acquire of the sweep's swap:
                // whoever takes the bit sees the log entry published
                // before it.
                word.fetch_or(std::mem::take(mask), Ordering::Release);
            }
            Arc::strong_count(word) > 1
        });
    }

    /// Tokens waiting for the next [`WakeList::wake_all`].
    pub(crate) fn len(&self) -> usize {
        self.words
            .iter()
            .map(|(_, m)| m.count_ones() as usize)
            .sum()
    }
}

/// The poll [`PollSet`] is making on this thread, if any.
struct Context {
    /// The polled token's waker, lent by [`PollSet`] and taken back when
    /// the visit ends.
    waker: Cell<Option<Waker>>,
    flags: Cell<u8>,
}

/// The poll parked ([`park`]).
const PARKED: u8 = 1;
/// Something above the parked endpoint still holds data ([`keep_ready`]).
const KEEP: u8 = 2;

thread_local! {
    static CONTEXT: Context = const {
        Context {
            waker: Cell::new(None),
            flags: Cell::new(0),
        }
    };
}

/// Park the poll in progress: inside a [`PollSet`] poll, hand
/// `register` the token's waker; the poll parks if it returns `true` (it
/// handed the waker on and found nothing new to read). Outside a [`PollSet`] poll, `register` is not called and
/// nothing parks.
///
/// No wake-up is lost because the sweep takes a word's wake bits before
/// it visits a slot in it ([`PollSet::poll_ready`]): a publish that lands
/// after that swap leaves its bit for the next sweep, and one that landed
/// before it is seen by `register`'s look at the log.
pub(crate) fn park(register: impl FnOnce(&Waker) -> bool) {
    CONTEXT.with(|cx| {
        let Some(waker) = cx.waker.take() else {
            return;
        };
        if register(&waker) {
            cx.flags.set(cx.flags.get() | PARKED);
        }
        cx.waker.set(Some(waker));
    });
}

/// Keep the token being polled ready although the endpoint under the
/// caller parked: for a wrapper that returns with data still held above
/// it (see [`PollTransport`]'s readiness contract). Outside a
/// [`PollSet`] poll it does nothing.
pub fn keep_ready() {
    CONTEXT.with(|cx| cx.flags.set(cx.flags.get() | KEEP));
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
    /// This slot's waker; lent to the thread's context while it is polled.
    waker: Option<Waker>,
}

/// Registration + readiness polling over a set of non-blocking endpoints:
/// the "shared socket set" an event-driven driver sweeps.
///
/// A slot is polled unless it is parked. Registering and
/// [`PollSet::get_mut`] unpark it, a poll that parks parks it, and the
/// parked endpoint's waker unparks it (see [`PollTransport`]'s readiness
/// contract).
///
/// Determinism contract: `poll_ready` visits the unparked slots in ascending
/// slot order starting from a cursor that advances by one each round —
/// the sweep of every live slot minus the polls that would have found
/// nothing. For a fixed registration history on one thread the visit
/// schedule, and therefore the interleaving of drained datagrams, is a
/// pure function of the call sequence, never of wall time.
pub struct PollSet<T: PollTransport> {
    slots: Vec<Slot<T>>,
    /// Bit `s % 64` of word `s / 64` is set while slot `s` is parked,
    /// free or not yet registered: this thread's own, so parking and
    /// unparking take no atomic operation.
    parked: Vec<u64>,
    /// Wakes not yet taken by a sweep, laid out as `parked`; a word is
    /// shared with its slots' wakers. Both grow as registration reaches
    /// a new word.
    woken: Vec<Arc<AtomicU64>>,
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
            parked: Vec::new(),
            woken: Vec::new(),
            free: Vec::new(),
            cursor: 0,
            live: 0,
        }
    }

    /// Park or unpark `slot`.
    fn set_parked(&mut self, slot: usize, parked: bool) {
        let (word, bit) = (&mut self.parked[slot / 64], 1 << (slot % 64));
        if parked {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// Register an endpoint; the returned token addresses it until
    /// [`PollSet::deregister`]. It starts unparked.
    pub fn register(&mut self, transport: T) -> Token {
        self.live += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot].transport = Some(transport);
                slot
            }
            None => {
                let slot = self.slots.len();
                if slot / 64 == self.woken.len() {
                    self.woken.push(Arc::default());
                    self.parked.push(!0);
                }
                let waker = Waker {
                    word: Arc::clone(&self.woken[slot / 64]),
                    bit: 1 << (slot % 64),
                };
                self.slots.push(Slot {
                    transport: Some(transport),
                    generation: 0,
                    waker: Some(waker),
                });
                slot
            }
        };
        self.set_parked(slot, false);
        Token {
            slot,
            generation: self.slots[slot].generation,
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
        self.set_parked(token.slot, true);
        Some(t)
    }

    /// Mutable access to a registered endpoint (e.g. to send on it). The
    /// token is unparked: what the caller does may give it something to
    /// yield.
    pub fn get_mut(&mut self, token: Token) -> Option<&mut T> {
        let s = self.slots.get(token.slot)?;
        if s.generation != token.generation || s.transport.is_none() {
            return None;
        }
        self.set_parked(token.slot, false);
        self.slots[token.slot].transport.as_mut()
    }

    /// Number of registered endpoints.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// One fairness-bounded readiness sweep: visit every unparked endpoint
    /// once (round-robin, the starting slot rotating each call) and drain
    /// up to `budget` outcomes from each, stopping early at a poll that
    /// finds nothing or parks. Ready datagrams *and* per-endpoint receive
    /// errors land in `sink` as `(token, outcome)` — errors are data
    /// here, because each session's resilience policy owns the decision
    /// to absorb or abort. Returns how many outcomes were collected.
    pub fn poll_ready(
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
        for (from, end) in [(start, n), (0, start)] {
            let mut at = from;
            while let Some(slot) = self.next_ready(at, end) {
                collected += self.visit(slot, budget, sink);
                at = slot + 1;
            }
        }
        collected
    }

    /// The first unparked slot in `from..end`. A word's wakes are taken
    /// (one swap, only when there are any) as the search reaches it, so a
    /// slot woken earlier in this sweep is seen, and every slot is
    /// visited after the wakes that were taken for it.
    fn next_ready(&mut self, from: usize, end: usize) -> Option<usize> {
        let mut at = from;
        while at < end {
            let w = at / 64;
            let woken = &self.woken[w];
            if woken.load(Ordering::Relaxed) != 0 {
                // Acquire, paired with the Release of `wake_all`: the
                // visit sees the log entry whose publish woke the slot.
                self.parked[w] &= !woken.swap(0, Ordering::Acquire);
            }
            let bits = !self.parked[w] >> (at % 64);
            if bits != 0 {
                let slot = at + bits.trailing_zeros() as usize;
                return (slot < end).then_some(slot);
            }
            at = (w + 1) * 64;
        }
        None
    }

    /// Poll one unparked slot up to `budget` times with its waker in the
    /// thread's context, and park it if its last poll parked.
    fn visit(
        &mut self,
        slot: usize,
        budget: usize,
        sink: &mut Vec<(Token, Result<Message, NetError>)>,
    ) -> usize {
        let Slot {
            transport,
            generation,
            waker,
        } = &mut self.slots[slot];
        let Some(t) = transport.as_mut() else {
            self.set_parked(slot, true); // a stale wake of a freed slot
            return 0;
        };
        let token = Token {
            slot,
            generation: *generation,
        };
        // One thread-local access for the whole visit: the polls run
        // inside it, and only a park reaches the context again.
        let (collected, parked) = CONTEXT.with(|cx| {
            let outer = (cx.waker.replace(waker.take()), cx.flags.replace(0));
            let mut collected = 0;
            let mut parked = false;
            for _ in 0..budget {
                let got = t.poll_recv();
                parked = cx.flags.replace(0) == PARKED;
                match got {
                    Ok(Some(msg)) => sink.push((token, Ok(msg))),
                    Ok(None) => break,
                    // An error consumed this poll slot; keep draining up
                    // to the budget so recoverable damage doesn't stall
                    // the queue behind it.
                    Err(e) => sink.push((token, Err(e))),
                }
                collected += 1;
                if parked {
                    break;
                }
            }
            *waker = cx.waker.replace(outer.0);
            cx.flags.set(outer.1);
            (collected, parked)
        });
        if parked {
            self.set_parked(slot, true);
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
    fn poll_ready_is_fair_under_budget() {
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
        let got = set.poll_ready(2, &mut sink);
        assert_eq!(got, 4);
        let per = |tok: Token| sink.iter().filter(|(t, _)| *t == tok).count();
        assert_eq!(per(t1), 2);
        assert_eq!(per(t2), 2);
        // The leftover drains next round.
        sink.clear();
        assert_eq!(set.poll_ready(2, &mut sink), 2);
    }

    #[test]
    fn poll_ready_rotates_start() {
        let hub = MemHub::new();
        let mut feeder = hub.join();
        let mut set: PollSet<_> = PollSet::new();
        let t1 = set.register(hub.join());
        let t2 = set.register(hub.join());
        feeder.send(&Message::Fin { session: 1 }).unwrap();
        let mut sink = Vec::new();
        set.poll_ready(1, &mut sink);
        assert_eq!(sink[0].0, t1, "round 0 starts at slot 0");
        feeder.send(&Message::Fin { session: 2 }).unwrap();
        sink.clear();
        set.poll_ready(1, &mut sink);
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
