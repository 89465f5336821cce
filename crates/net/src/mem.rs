//! In-process multicast hub — the deterministic test substrate, and the
//! group log [`crate::udp::UdpHub`] feeds from its socket.
//!
//! A [`MemHub`] models one multicast group: every endpoint's `send` is
//! heard by every *other* endpoint (no self-delivery, like IP multicast
//! with loopback disabled). Messages are serialized through the real wire
//! codec so the full encode/decode path is exercised. A datagram is
//! checksummed and parsed once, at send: all its readers would hold the
//! same immutable bytes, so their verdicts could not differ. Damage that
//! differs per receiver is [`crate::fault`]'s, injected above the hub.
//!
//! The group is one shared log, not a queue per endpoint: a `send` appends
//! one entry whatever the population, each endpoint reads through its own
//! cursor, and an entry goes once its last reader has passed it. A poll
//! that finds nothing new is one atomic load — no lock, no queue, and
//! nothing here blocks or starts a thread.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use pm_obs::{Event, Obs, Stopwatch};

use crate::lock;
use crate::transport::{NetError, Transport};
use crate::wire::Message;

/// One multicast datagram in the log, decoded: the message, or the text
/// of the recoverable [`NetError::Corrupt`] every reader gets instead.
struct Entry {
    /// The sending endpoint's id, or `usize::MAX` off a socket.
    from: usize,
    msg: Result<Message, String>,
    /// Joined endpoints other than `from` that have yet to read it.
    readers_left: usize,
}

impl Entry {
    /// One reader's share: a clone (for a `Packet`, one reference count),
    /// except that the last reader takes the message itself.
    fn read(&mut self) -> Result<Message, String> {
        self.readers_left -= 1;
        if self.readers_left == 0 {
            std::mem::replace(&mut self.msg, Err(String::new()))
        } else {
            self.msg.clone()
        }
    }
}

/// The group's log: `entries[i]` has sequence number `base + i`.
#[derive(Default)]
struct Log {
    entries: VecDeque<Entry>,
    base: u64,
    /// Endpoints currently joined.
    members: usize,
}

impl Log {
    /// Drop the entries every reader is through with.
    fn trim(&mut self) {
        while self.entries.front().is_some_and(|e| e.readers_left == 0) {
            self.entries.pop_front();
            self.base += 1;
        }
    }
}

#[derive(Default)]
pub(crate) struct Shared {
    log: Mutex<Log>,
    /// Sequence number the next entry will get (`base + entries.len()`):
    /// bumped (`Release`) under the log lock after a push, loaded
    /// (`Acquire`) lock-free by a poll to learn whether its cursor is at
    /// the tail.
    published: AtomicU64,
}

impl Shared {
    /// Log a datagram's decode outcome for every joined endpoint but
    /// `from` (`None`: a datagram off a socket, which every endpoint
    /// reads). Damaged own traffic is logged, to surface (recoverable) at
    /// every reader so its driver can count and drop it; a foreign
    /// datagram (bad magic, short header) every reader would skip is not,
    /// and neither is one nobody else is joined to hear.
    pub(crate) fn publish(&self, from: Option<&MemEndpoint>, decoded: Result<Message, NetError>) {
        let msg = match decoded {
            Ok(msg) => Ok(msg),
            Err(NetError::Corrupt(text)) => Err(text),
            Err(_) => return,
        };
        let mut log = lock(&self.log);
        let (from, readers_left) = match from {
            Some(ep) => (ep.id, log.members - usize::from(ep.left.borrow().is_none())),
            None => (usize::MAX, log.members),
        };
        if readers_left > 0 {
            log.entries.push_back(Entry {
                from,
                msg,
                readers_left,
            });
            self.published.fetch_add(1, Ordering::Release);
        }
    }
}

/// An in-process multicast group.
#[derive(Clone, Default)]
pub struct MemHub {
    state: Arc<Shared>,
}

impl MemHub {
    /// New empty group.
    pub fn new() -> Self {
        Self::default()
    }

    /// Join the group, returning a new endpoint. It hears what is sent
    /// from now on, nothing from before.
    pub fn join(&self) -> MemEndpoint {
        static NEXT_ID: AtomicUsize = AtomicUsize::new(0);
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let mut log = lock(&self.state.log);
        log.members += 1;
        MemEndpoint {
            id,
            hub: self.state.clone(),
            cursor: self.state.published.load(Ordering::Relaxed),
            left: RefCell::new(None),
            obs: Obs::null(),
            clock: Stopwatch::start(),
        }
    }

    /// Number of endpoints currently joined.
    pub fn endpoints(&self) -> usize {
        lock(&self.state.log).members
    }

    /// Datagrams the group still holds for an endpoint yet to read them.
    pub fn retained(&self) -> usize {
        lock(&self.state.log).entries.len()
    }
}

/// One endpoint of a [`MemHub`] group.
pub struct MemEndpoint {
    id: usize,
    pub(crate) hub: Arc<Shared>,
    /// Sequence number of the next log entry to read. Own entries are not
    /// waited for, so the log's `base` may have passed it.
    cursor: u64,
    /// Once left: the datagrams that were still unread at that moment,
    /// decoded as in the log. They remain receivable; after them the
    /// endpoint is `Closed`.
    left: RefCell<Option<VecDeque<Result<Message, String>>>>,
    pub(crate) obs: Obs,
    pub(crate) clock: Stopwatch,
}

impl MemEndpoint {
    /// Emit `net_sent`/`net_recv` events to `obs`, stamped with the
    /// seconds since endpoint creation. The clock is read only for an
    /// enabled `obs`, so a disabled one adds no clock read to a send or
    /// receive.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Leave the group (subsequent sends by others skip this endpoint),
    /// giving up its share of every entry it has not read. Dropping the
    /// endpoint leaves implicitly.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "cursor - base <= the log's length"
    )]
    pub fn leave(&self) {
        let mut left = self.left.borrow_mut();
        if left.is_some() {
            return;
        }
        let mut log = lock(&self.hub.log);
        log.members -= 1;
        let read = self.cursor.saturating_sub(log.base) as usize;
        let mut backlog = VecDeque::new();
        for entry in log.entries.range_mut(read..) {
            if entry.from != self.id {
                backlog.push_back(entry.read());
            }
        }
        log.trim();
        *left = Some(backlog);
    }

    /// Inject raw datagram bytes toward every *other* endpoint, bypassing
    /// the encoder. A chaos/test hook: lets a saboteur place corrupted or
    /// garbage bytes on the wire exactly as a damaged UDP datagram would
    /// arrive.
    pub fn send_raw(&self, raw: Bytes) {
        self.hub.publish(Some(self), Message::decode(raw));
    }

    /// Whether the log holds nothing past this endpoint's cursor: one
    /// atomic load.
    #[inline]
    pub(crate) fn at_tail(&self) -> bool {
        self.cursor == self.hub.published.load(Ordering::Acquire)
    }

    /// The next unread datagram from another endpoint, without blocking;
    /// the caller has found this endpoint left or behind the log's tail.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "cursor - base <= the log's length"
    )]
    fn next_msg(&mut self) -> Result<Option<Result<Message, String>>, NetError> {
        if let Some(backlog) = self.left.get_mut() {
            return backlog.pop_front().map(Some).ok_or(NetError::Closed);
        }
        let log = &mut *lock(&self.hub.log);
        self.cursor = self.cursor.max(log.base);
        let mut found = None;
        while let Some(entry) = log.entries.get_mut((self.cursor - log.base) as usize) {
            self.cursor += 1;
            if entry.from != self.id {
                found = Some(entry.read());
                break;
            }
        }
        log.trim();
        Ok(found)
    }

    /// [`poll_recv`](crate::poll::PollTransport::poll_recv) past its
    /// empty fast path.
    #[inline(never)]
    fn poll_more(&mut self) -> Result<Option<Message>, NetError> {
        let Some(msg) = self.next_msg()? else {
            return Ok(None);
        };
        let msg = msg.map_err(NetError::Corrupt)?;
        self.obs.emit(&self.clock, || Event::NetRecv {
            kind: msg.obs_kind(),
        });
        Ok(Some(msg))
    }
}

impl Drop for MemEndpoint {
    fn drop(&mut self) {
        self.leave();
    }
}

impl Transport for MemEndpoint {
    fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        self.obs.emit(&self.clock, || Event::NetSent {
            kind: msg.obs_kind(),
        });
        self.send_raw(msg.encode());
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, NetError> {
        crate::poll::wait_recv(self, timeout)
    }
}

impl crate::poll::PollTransport for MemEndpoint {
    /// Native non-blocking drain. Without an enabled `obs` it reads no
    /// wall clock at all, so under the event-driven multiplexer's virtual
    /// clock the in-memory substrate stays fully deterministic. An empty
    /// poll of a joined endpoint is one atomic load, inlined into the
    /// caller's sweep; the rest is out of line.
    #[inline]
    fn poll_recv(&mut self) -> Result<Option<Message>, NetError> {
        if self.left.get_mut().is_none() && self.at_tail() {
            return Ok(None);
        }
        self.poll_more()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poll::PollTransport;

    const TICK: Duration = Duration::from_millis(200);

    #[test]
    fn fanout_excludes_sender() {
        let hub = MemHub::new();
        let mut a = hub.join();
        let mut b = hub.join();
        let mut c = hub.join();
        assert_eq!(hub.endpoints(), 3);
        a.send(&Message::Fin { session: 1 }).unwrap();
        assert_eq!(
            b.recv_timeout(TICK).unwrap(),
            Some(Message::Fin { session: 1 })
        );
        assert_eq!(
            c.recv_timeout(TICK).unwrap(),
            Some(Message::Fin { session: 1 })
        );
        assert_eq!(
            a.recv_timeout(Duration::from_millis(10)).unwrap(),
            None,
            "no self-delivery"
        );
    }

    #[test]
    fn timeout_returns_none() {
        let hub = MemHub::new();
        let mut a = hub.join();
        assert_eq!(a.recv_timeout(Duration::from_millis(5)).unwrap(), None);
    }

    #[test]
    fn leave_stops_delivery() {
        let hub = MemHub::new();
        let mut a = hub.join();
        let b = hub.join();
        b.leave();
        assert_eq!(hub.endpoints(), 1);
        a.send(&Message::Fin { session: 2 }).unwrap();
        // a still has nobody to hear from; send worked without error.
        assert_eq!(a.recv_timeout(Duration::from_millis(5)).unwrap(), None);
    }

    #[test]
    fn drop_leaves_implicitly() {
        let hub = MemHub::new();
        {
            let _tmp = hub.join();
            assert_eq!(hub.endpoints(), 1);
        }
        assert_eq!(hub.endpoints(), 0);
    }

    #[test]
    fn messages_preserve_order_per_sender() {
        let hub = MemHub::new();
        let mut a = hub.join();
        let mut b = hub.join();
        for s in 0..20u32 {
            a.send(&Message::Fin { session: s }).unwrap();
        }
        for s in 0..20u32 {
            assert_eq!(
                b.recv_timeout(TICK).unwrap(),
                Some(Message::Fin { session: s })
            );
        }
    }

    #[test]
    fn corrupt_datagram_surfaces_foreign_skipped() {
        let hub = MemHub::new();
        let a = hub.join();
        let mut readers: Vec<MemEndpoint> = (0..3).map(|_| hub.join()).collect();
        // Foreign garbage (wrong magic): silently skipped, never kept.
        a.send_raw(bytes::Bytes::from_static(b"\x00\x00not ours at all"));
        assert_eq!(hub.retained(), 0);
        for b in &mut readers {
            assert_eq!(b.recv_timeout(Duration::from_millis(10)).unwrap(), None);
        }
        // Our traffic, damaged in flight: surfaces as recoverable Corrupt,
        // once at every reader.
        let mut raw = Message::Fin { session: 3 }.encode().to_vec();
        raw[10] ^= 0x40;
        a.send_raw(bytes::Bytes::from(raw));
        for b in &mut readers {
            match b.recv_timeout(TICK) {
                Err(e @ NetError::Corrupt(_)) => assert!(e.is_recoverable()),
                other => panic!("expected Corrupt error, got {other:?}"),
            }
            assert_eq!(b.poll_recv().unwrap(), None, "surfaces once");
        }
        // Every endpoint keeps working afterwards.
        a.send_raw(Message::Fin { session: 4 }.encode());
        for b in &mut readers {
            assert_eq!(
                b.recv_timeout(TICK).unwrap(),
                Some(Message::Fin { session: 4 })
            );
        }
        assert_eq!(hub.retained(), 0);
    }

    #[test]
    fn cross_thread_delivery() {
        let hub = MemHub::new();
        let mut tx = hub.join();
        let mut rx = hub.join();
        let handle = std::thread::spawn(move || {
            let mut got = Vec::new();
            while got.len() < 5 {
                if let Some(Message::Fin { session }) = rx.recv_timeout(TICK).unwrap() {
                    got.push(session);
                }
            }
            got
        });
        for s in 0..5u32 {
            tx.send(&Message::Fin { session: s }).unwrap();
        }
        assert_eq!(handle.join().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    fn fin(session: u32) -> Message {
        Message::Fin { session }
    }

    fn drain(ep: &mut MemEndpoint) -> Vec<Message> {
        std::iter::from_fn(|| ep.poll_recv().unwrap()).collect()
    }

    #[test]
    fn late_joiner_hears_only_later_traffic() {
        let hub = MemHub::new();
        let mut a = hub.join();
        let mut b = hub.join();
        a.send(&fin(1)).unwrap();
        let mut late = hub.join();
        a.send(&fin(2)).unwrap();
        assert_eq!(drain(&mut late), vec![fin(2)]);
        assert_eq!(drain(&mut b), vec![fin(1), fin(2)]);
        assert_eq!(hub.retained(), 0);
    }

    #[test]
    fn interleaved_senders_keep_one_order_and_never_hear_themselves() {
        let hub = MemHub::new();
        let mut eps: Vec<MemEndpoint> = (0..3).map(|_| hub.join()).collect();
        let mut heard = [vec![], vec![], vec![]];
        for s in 0..30u32 {
            eps[s as usize % 3].send(&fin(s)).unwrap();
            // Readers at different depths of the same log.
            let reader = (s as usize / 2) % 3;
            heard[reader].extend(eps[reader].poll_recv().unwrap());
        }
        for (i, ep) in eps.iter_mut().enumerate() {
            heard[i].extend(drain(ep));
            let want: Vec<Message> = (0..30).filter(|s| *s as usize % 3 != i).map(fin).collect();
            assert_eq!(heard[i], want, "endpoint {i}");
        }
        assert_eq!(hub.retained(), 0, "everything read, nothing kept");
    }

    #[test]
    fn a_send_nobody_else_can_hear_is_not_retained() {
        let hub = MemHub::new();
        let mut alone = hub.join();
        alone.send(&fin(1)).unwrap();
        alone.send_raw(Bytes::from_static(b"noise"));
        assert_eq!(hub.retained(), 0);
        // ... and a later joiner does not find it either.
        let mut b = hub.join();
        assert_eq!(drain(&mut b), vec![]);
        assert_eq!(drain(&mut alone), vec![]);
    }

    #[test]
    fn a_leaver_releases_its_backlog_but_can_still_read_it() {
        let hub = MemHub::new();
        let mut a = hub.join();
        let mut b = hub.join();
        let mut c = hub.join();
        for s in 0..4 {
            a.send(&fin(s)).unwrap();
        }
        assert_eq!(b.poll_recv().unwrap(), Some(fin(0)));
        assert_eq!(drain(&mut c).len(), 4);
        assert_eq!(hub.retained(), 3, "b has three to go");
        b.leave();
        b.leave(); // idempotent
        assert_eq!(hub.endpoints(), 2);
        assert_eq!(hub.retained(), 0, "the log does not wait for a leaver");
        a.send(&fin(9)).unwrap();
        // What was unread at `leave` is still delivered, nothing newer is,
        // and then the endpoint reports `Closed` on both receive paths.
        assert_eq!(b.poll_recv().unwrap(), Some(fin(1)));
        assert_eq!(b.recv_timeout(TICK).unwrap(), Some(fin(2)));
        assert_eq!(b.poll_recv().unwrap(), Some(fin(3)));
        assert!(matches!(b.poll_recv(), Err(NetError::Closed)));
        assert!(matches!(b.recv_timeout(TICK), Err(NetError::Closed)));
        // A leaver may still talk; it is no longer counted as a listener.
        b.send(&fin(10)).unwrap();
        assert_eq!(drain(&mut c), vec![fin(9), fin(10)]);
        drop(b);
        assert_eq!(hub.endpoints(), 2);
        // Dropping with a backlog releases it the same way.
        drop(a);
        assert_eq!(hub.retained(), 0);
    }

    fn packet(group: u32) -> Message {
        Message::Packet {
            session: 1,
            group,
            index: 0,
            k: 7,
            n: 255,
            payload: Bytes::from(vec![group as u8; 64]),
        }
    }

    /// Where a delivered packet's payload lives.
    fn payload_at(msg: &Message) -> *const u8 {
        match msg {
            Message::Packet { payload, .. } => payload.as_ptr(),
            other => panic!("expected a packet, got {other:?}"),
        }
    }

    #[test]
    fn one_decode_serves_every_reader() {
        let hub = MemHub::new();
        let tx = hub.join();
        let mut readers: Vec<MemEndpoint> = (0..8).map(|_| hub.join()).collect();
        let raw = packet(3).encode();
        tx.send_raw(raw.clone());
        let at = raw.as_ptr().wrapping_add(crate::wire::HEADER_LEN + 14);
        for rx in &mut readers {
            let got = rx.poll_recv().unwrap().expect("a packet");
            assert_eq!(got, packet(3));
            assert_eq!(payload_at(&got), at, "a window of the sent datagram");
        }
        assert_eq!(hub.retained(), 0);
    }

    #[test]
    fn the_last_reader_takes_the_entry() {
        let hub = MemHub::new();
        let tx = hub.join();
        let mut rx: Vec<MemEndpoint> = (0..4).map(|_| hub.join()).collect();
        let raws = [packet(0).encode(), packet(1).encode()];
        for raw in &raws {
            tx.send_raw(raw.clone());
        }
        let at = |g: usize| raws[g].as_ptr().wrapping_add(crate::wire::HEADER_LEN + 14);
        for ep in &mut rx[..2] {
            for g in 0..2 {
                assert_eq!(payload_at(&ep.poll_recv().unwrap().unwrap()), at(g));
            }
        }
        // Halfway: two readers through, one leaves, one still to read.
        rx[2].leave();
        assert_eq!(hub.retained(), 2);
        for g in 0..2 {
            assert_eq!(payload_at(&rx[3].poll_recv().unwrap().unwrap()), at(g));
            assert_eq!(hub.retained(), 1 - g, "the last read ends entry {g}");
        }
        for g in 0..2 {
            let got = rx[2].poll_recv().unwrap().expect("the backlog");
            assert_eq!((payload_at(&got), got), (at(g), packet(g as u32)));
        }
        assert!(matches!(rx[2].poll_recv(), Err(NetError::Closed)));
    }
}
