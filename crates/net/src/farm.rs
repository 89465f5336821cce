//! Shared-socket UDP farm transport: one descriptor, N sessions.
//!
//! The [`crate::udp::UdpHub`] gives every endpoint the whole multicast
//! feed and lets the protocol machines discard what is not theirs — fine
//! for a handful of sessions, quadratic in traffic for a farm. A
//! [`FarmHub`] instead owns **one non-blocking UDP socket** and
//! demultiplexes arriving datagrams by the session and direction that
//! [`crate::wire`] reads off each one ([`Message::role`], or a damaged
//! datagram's header claim). One `Mux` can therefore drive hundreds of
//! sessions over a single descriptor.
//!
//! Datagrams that demux to **no registered session** — late packets from
//! a finished or shed session, strangers on the port — are counted and
//! dropped, never buffered: a shed session's state cannot be resurrected
//! by its own stragglers. Per-session queues are bounded
//! ([`FARM_QUEUE_CAP`]); overflow behaves like any other UDP loss (drop
//! newest, count), so farm memory stays proportional to the number of
//! *live* sessions no matter how hostile the port is.
//!
//! There is no reader thread: whichever endpoint polls first drains the
//! socket into everyone's queues, which is exactly the event-driven mux's
//! sweep pattern. The drain is the `Feed` under [`crate::udp::UdpHub`]
//! too (budget, error classes, the latched fatal error and the read
//! count); this module adds only the routing, the bounded queues and the
//! skip rule below.
//!
//! **One drain per sweep.** A drain that ends on `WouldBlock` has proved
//! the socket dry, so the next `N - 1` empty-queue polls (`N` registered
//! halves) return `None` without a syscall: an idle sweep costs one
//! `EAGAIN`, not `N`. A drain that ran out of budget arms nothing, a send
//! through the hub disarms the skip (the socket is its own peer).
//! Invariant: an empty-queue poll sees anything already in the kernel
//! buffer within one sweep's worth of polls, and the rule never reads a
//! clock.

use std::collections::{BTreeMap, VecDeque};
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use pm_obs::{Event, Obs, Stopwatch};

use crate::lock;
use crate::poll::PollTransport;
use crate::transport::{NetError, Transport};
use crate::udp::{Drained, Feed};
use crate::wire::{self, Message};

/// Bound on one session half's pending-datagram queue. Overflow is
/// dropped-and-counted exactly like kernel-buffer loss would be.
pub const FARM_QUEUE_CAP: usize = 8_192;

/// Which half of a session an endpoint serves: each message goes to the
/// half its [`Message::role`] names, so the halves share the socket.
pub use crate::wire::Role as FarmRole;

/// Counters a farm maintains about traffic it refused to deliver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FarmStats {
    /// Datagrams that demuxed to no registered `(session, role)` —
    /// strangers, or stragglers of finished/shed sessions.
    pub unknown_session: u64,
    /// Datagrams dropped because a session half's queue was full.
    pub queue_overflow: u64,
    /// Datagrams that were not ours at all (bad magic / truncated
    /// header); skipped silently, tallied here for diagnostics.
    pub foreign: u64,
    /// `recv_from` calls issued, `EAGAIN` included (diagnostic only).
    pub socket_reads: u64,
}

/// The per-session queues the socket drains into.
struct Demux {
    queues: BTreeMap<(u32, FarmRole), VecDeque<Result<Message, NetError>>>,
    /// Every counter but `socket_reads`, which the feed keeps.
    stats: FarmStats,
    obs: Obs,
    clock: Stopwatch,
}

impl Demux {
    /// Demultiplex one raw datagram into a session queue, the unknown
    /// counter, or the foreign tally.
    fn route(&mut self, raw: Bytes) {
        let claim = wire::claimed_route(&raw);
        match Message::decode(raw) {
            Ok(msg) => self.deliver((msg.session(), msg.role()), Ok(msg)),
            // Ours but damaged in flight: the header's session claim is
            // the best routing information there is. The owning session's
            // resilience policy counts it; with no owner it is an unknown
            // drop like any other stray.
            Err(e @ NetError::Corrupt(_)) => match claim {
                Some(key) => self.deliver(key, Err(e)),
                None => self.count_unknown(0),
            },
            // Not our wire format at all.
            Err(_) => self.stats.foreign += 1,
        }
    }

    fn deliver(&mut self, key: (u32, FarmRole), item: Result<Message, NetError>) {
        match self.queues.get_mut(&key) {
            Some(q) => {
                if q.len() >= FARM_QUEUE_CAP {
                    self.stats.queue_overflow += 1;
                } else {
                    q.push_back(item);
                }
            }
            None => self.count_unknown(key.0),
        }
    }

    fn count_unknown(&mut self, session: u32) {
        self.stats.unknown_session += 1;
        self.obs
            .emit(&self.clock, || Event::FarmUnknownDrop { session });
    }
}

struct FarmCore {
    feed: Feed,
    demux: Demux,
    /// Where every send goes: the socket's own address (loopback for an
    /// unspecified bind), so a session's two halves share the descriptor.
    peer: SocketAddr,
    /// Encode scratch, so a send allocates nothing.
    tx: Vec<u8>,
    /// Empty-queue polls that may still skip the socket read (module docs).
    skip: usize,
}

/// One non-blocking UDP socket shared by every session of a farm, with
/// wire-session-id demultiplexing. See the module docs.
pub struct FarmHub {
    core: Arc<Mutex<FarmCore>>,
}

impl FarmHub {
    /// Bind a non-blocking socket on `addr` (port 0 for ephemeral).
    ///
    /// # Errors
    /// Propagates socket errors (bind, local-address lookup).
    pub fn bind(addr: SocketAddrV4) -> Result<Self, NetError> {
        let socket = UdpSocket::bind(addr)?;
        socket.set_nonblocking(true)?;
        let peer = socket.local_addr()?;
        // An unspecified bind address is not a routable destination;
        // steer self-sends through loopback instead.
        let peer = match peer {
            SocketAddr::V4(v4) if v4.ip().is_unspecified() => {
                SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::LOCALHOST, v4.port()))
            }
            other => other,
        };
        Ok(FarmHub {
            core: Arc::new(Mutex::new(FarmCore {
                feed: Feed::new(socket),
                demux: Demux {
                    queues: BTreeMap::new(),
                    stats: FarmStats::default(),
                    obs: Obs::null(),
                    clock: Stopwatch::start(),
                },
                peer,
                tx: Vec::new(),
                skip: 0,
            })),
        })
    }

    /// A loopback farm on an ephemeral port.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn loopback() -> Result<Self, NetError> {
        Self::bind(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0))
    }

    /// The socket's local address.
    ///
    /// # Errors
    /// Propagates the socket's local-address lookup failure.
    pub fn local_addr(&self) -> Result<SocketAddr, NetError> {
        Ok(lock(&self.core).feed.socket.local_addr()?)
    }

    /// Emit `farm_unknown_drop` events to `obs`.
    pub fn with_obs(self, obs: Obs) -> Self {
        lock(&self.core).demux.obs = obs;
        self
    }

    /// Register the `role` half of `session` and return its endpoint.
    /// Datagrams for the pair demux to it until the endpoint is dropped;
    /// after that they fall into the unknown-session counter.
    ///
    /// # Errors
    /// `NetError::Io(AlreadyExists)` if that half is already registered —
    /// two live transports demuxing the same key would split its traffic
    /// unpredictably.
    pub fn endpoint(&self, session: u32, role: FarmRole) -> Result<FarmEndpoint, NetError> {
        let queues = &mut lock(&self.core).demux.queues;
        let key = (session, role);
        if queues.contains_key(&key) {
            return Err(NetError::Io(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                format!("farm session {session} {role:?} half already registered"),
            )));
        }
        queues.insert(key, VecDeque::new());
        Ok(FarmEndpoint {
            core: self.core.clone(),
            key,
        })
    }

    /// Refused-traffic counters (unknown-session, overflow, foreign).
    pub fn stats(&self) -> FarmStats {
        let core = lock(&self.core);
        FarmStats {
            socket_reads: core.feed.reads,
            ..core.demux.stats
        }
    }

    /// Session halves currently registered.
    pub fn len(&self) -> usize {
        lock(&self.core).demux.queues.len()
    }

    /// True when no session half is registered.
    pub fn is_empty(&self) -> bool {
        lock(&self.core).demux.queues.is_empty()
    }

    /// Raw send of `bytes` to the hub's own socket, bypassing encode — lets
    /// tests and drills inject damaged or foreign datagrams on the wire.
    ///
    /// # Errors
    /// Propagates socket send errors.
    pub fn inject_raw(&self, bytes: &[u8]) -> Result<(), NetError> {
        let mut core = lock(&self.core);
        core.skip = 0;
        core.feed.socket.send_to(bytes, core.peer)?;
        Ok(())
    }
}

/// One `(session, role)` half of a [`FarmHub`]. Sends go out the shared
/// socket to the socket's own address; receives are the datagrams the hub
/// demultiplexed to this half. Dropping the endpoint deregisters the
/// half: later datagrams for it are counted-and-dropped.
pub struct FarmEndpoint {
    core: Arc<Mutex<FarmCore>>,
    key: (u32, FarmRole),
}

impl Drop for FarmEndpoint {
    fn drop(&mut self) {
        lock(&self.core).demux.queues.remove(&self.key);
    }
}

impl Transport for FarmEndpoint {
    fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        let core = &mut *lock(&self.core);
        msg.encode_into(&mut core.tx);
        // The socket is its own peer: what a drain proved is stale.
        core.skip = 0;
        match core.feed.socket.send_to(&core.tx, core.peer) {
            Ok(_) => Ok(()),
            // Transient pushback (full socket buffer) surfaces as an I/O
            // error; the drivers' retry-with-backoff machinery owns it.
            Err(e) => Err(NetError::Io(e)),
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, NetError> {
        crate::poll::wait_recv(self, timeout)
    }
}

impl PollTransport for FarmEndpoint {
    /// Next datagram demuxed to this half. An empty queue reads the
    /// socket, unless a drain has proved it dry (module docs).
    fn poll_recv(&mut self) -> Result<Option<Message>, NetError> {
        let FarmCore {
            feed, demux, skip, ..
        } = &mut *lock(&self.core);
        // Serve from the queue first: the socket drain below may park a
        // fatal error that must not eat already-demuxed datagrams.
        let queue = |demux: &mut Demux| demux.queues.get_mut(&self.key)?.pop_front();
        if let Some(item) = queue(demux) {
            return item.map(Some);
        }
        if *skip > 0 {
            *skip -= 1;
            return Ok(None);
        }
        match feed.drain(|raw| demux.route(raw)) {
            Drained::Dry => *skip = demux.queues.len().saturating_sub(1),
            Drained::Budget => {}
            Drained::Fatal(kind) => return Err(NetError::Io(kind.into())),
        }
        queue(demux).transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::udp::DRAIN_BUDGET;

    fn hub() -> FarmHub {
        FarmHub::loopback().expect("loopback farm socket")
    }

    fn wait_recv(ep: &mut FarmEndpoint) -> Option<Message> {
        ep.recv_timeout(Duration::from_secs(2)).expect("recv ok")
    }

    /// Poll `ep` (expecting nothing for it) until `pred` holds or ~2s.
    #[expect(
        clippy::disallowed_methods,
        reason = "polls the farm's loopback UDP socket"
    )]
    fn drain_until(ep: &mut FarmEndpoint, mut pred: impl FnMut() -> bool) -> bool {
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while !pred() {
            assert_eq!(ep.poll_recv().expect("poll ok"), None);
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        true
    }

    #[test]
    fn demuxes_by_session_and_direction() {
        let hub = hub();
        let mut s1 = hub.endpoint(1, FarmRole::Sender).unwrap();
        let mut r1 = hub.endpoint(1, FarmRole::Receiver).unwrap();
        let mut r2 = hub.endpoint(2, FarmRole::Receiver).unwrap();

        // Session 1's sender transmits a control message: only session
        // 1's receiver half sees it.
        s1.send(&Message::Fin { session: 1 }).unwrap();
        assert_eq!(wait_recv(&mut r1), Some(Message::Fin { session: 1 }));
        assert_eq!(r2.poll_recv().unwrap(), None);

        // Session 1's receiver NAKs: it routes to the sender half, not
        // back to the receiver.
        let nak = Message::Nak {
            session: 1,
            group: 0,
            needed: 2,
            round: 1,
        };
        r1.send(&nak).unwrap();
        assert_eq!(wait_recv(&mut s1), Some(nak));
        assert_eq!(r1.poll_recv().unwrap(), None);
        assert_eq!(hub.stats().unknown_session, 0);
    }

    #[test]
    fn unknown_session_datagrams_are_counted_and_dropped() {
        let hub = hub();
        let mut r1 = hub.endpoint(1, FarmRole::Receiver).unwrap();
        r1.send(&Message::Fin { session: 99 }).unwrap();
        assert!(
            drain_until(&mut r1, || hub.stats().unknown_session == 1),
            "stray for unregistered session 99 must be counted"
        );
    }

    #[test]
    fn dropped_endpoint_turns_its_traffic_into_unknown_drops() {
        let hub = hub();
        let mut r1 = hub.endpoint(1, FarmRole::Receiver).unwrap();
        let mut s1 = hub.endpoint(1, FarmRole::Sender).unwrap();
        s1.send(&Message::Fin { session: 1 }).unwrap();
        assert_eq!(wait_recv(&mut r1), Some(Message::Fin { session: 1 }));
        drop(r1);
        // Late traffic for the retired half must not resurrect it.
        s1.send(&Message::Fin { session: 1 }).unwrap();
        assert!(
            drain_until(&mut s1, || hub.stats().unknown_session == 1),
            "late datagram for retired half must be counted"
        );
        // Re-registering the half starts clean.
        let mut r1b = hub.endpoint(1, FarmRole::Receiver).unwrap();
        assert_eq!(r1b.poll_recv().unwrap(), None, "no resurrected backlog");
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "polls the farm's loopback UDP socket"
    )]
    fn corrupt_datagrams_route_to_their_claimed_session() {
        let hub = hub();
        let mut r1 = hub.endpoint(1, FarmRole::Receiver).unwrap();
        let mut raw = Message::Fin { session: 1 }.encode().to_vec();
        raw[5] ^= 0xFF; // damage the stored checksum; session claim stays 1
        hub.inject_raw(&raw).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            match r1.poll_recv() {
                Err(e) => {
                    assert!(e.is_recoverable(), "corrupt is recoverable, got {e}");
                    break;
                }
                Ok(None) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_micros(200));
                }
                other => panic!("expected Corrupt error, got {other:?}"),
            }
        }
        assert_eq!(hub.stats().unknown_session, 0);
    }

    /// A datagram from outside the hub: nothing tells the hub it was sent.
    fn send_from_elsewhere(hub: &FarmHub, msg: &Message) {
        let outside = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let to = hub.local_addr().unwrap();
        outside.send_to(&msg.encode(), to).unwrap();
    }

    /// `n` receiver halves (sessions `0..n`) with the skip armed by a
    /// first, dry poll of half 0.
    fn armed(hub: &FarmHub, n: u32) -> Vec<FarmEndpoint> {
        let mut eps: Vec<_> = (0..n)
            .map(|s| hub.endpoint(s, FarmRole::Receiver).unwrap())
            .collect();
        assert_eq!(eps[0].poll_recv().unwrap(), None);
        assert_eq!(hub.stats().socket_reads, 1, "one EAGAIN proved it dry");
        eps
    }

    #[test]
    fn a_sweep_reads_the_socket_once_not_once_per_half() {
        let hub = hub();
        let mut set = crate::poll::PollSet::new();
        let mut feeder = hub.endpoint(99, FarmRole::Sender).unwrap();
        for s in 0..16 {
            set.register(hub.endpoint(s, FarmRole::Receiver).unwrap());
        }
        let mut sink = Vec::new();
        // Idle: 17 halves registered, one EAGAIN for the whole sweep.
        assert_eq!(set.poll_ready(64, &mut sink), 0);
        assert_eq!(hub.stats().socket_reads, 1);
        // Five datagrams pending: five reads, the EAGAIN that ends the
        // drain, and at most one more when the skip runs out mid-sweep.
        for s in [3, 3, 7, 11, 15] {
            feeder.send(&Message::Fin { session: s }).unwrap();
        }
        assert_eq!(set.poll_ready(64, &mut sink), 5);
        let reads = hub.stats().socket_reads - 1;
        assert!((6..=7).contains(&reads), "{reads} reads for 5 datagrams");
        assert_eq!(hub.stats().unknown_session, 0);
    }

    #[test]
    fn a_skipped_half_is_served_within_one_sweep_of_polls() {
        let hub = hub();
        let n = 8;
        let mut eps = armed(&hub, n);
        // Traffic from elsewhere lands while the skip is armed; only half
        // 0 is ever polled. N - 1 polls skip, the next one drains.
        send_from_elsewhere(&hub, &Message::Fin { session: 0 });
        let polls = (1..=n)
            .find(|_| eps[0].poll_recv().unwrap().is_some())
            .expect("served within N polls");
        assert_eq!(polls, n, "N - 1 skipped polls, then the drain");
        assert_eq!(hub.stats().socket_reads, 3, "no syscall while skipping");
        // The blocking API is the same polls, napping between them: re-arm,
        // and it finds the datagram once the skip runs out.
        assert_eq!(eps[0].poll_recv().unwrap(), None);
        send_from_elsewhere(&hub, &Message::Fin { session: 0 });
        assert_eq!(
            eps[0].recv_timeout(Duration::from_secs(2)).unwrap(),
            Some(Message::Fin { session: 0 })
        );
    }

    #[test]
    fn a_send_disarms_the_skip() {
        let hub = hub();
        let mut eps = armed(&hub, 8);
        let fin = Message::Fin { session: 0 };
        // On a loopback farm the hub's own send lands on its own socket:
        // the very next empty-queue poll must see it.
        eps[1].send(&fin).unwrap();
        assert_eq!(eps[0].poll_recv().unwrap(), Some(fin.clone()));
        assert_eq!(eps[0].poll_recv().unwrap(), None, "re-armed");
        hub.inject_raw(&fin.encode()).unwrap();
        assert_eq!(eps[0].poll_recv().unwrap(), Some(fin));
    }

    #[test]
    fn dropping_an_endpoint_mid_skip_leaves_the_rest_working() {
        let hub = hub();
        let mut eps = armed(&hub, 6);
        eps.truncate(2); // four halves retire with five skips outstanding
        assert_eq!(hub.len(), 2);
        send_from_elsewhere(&hub, &Message::Fin { session: 1 });
        // The stale count only delays: it was sized for the old
        // population, so the survivor is served within that many polls.
        let served = (0..6).any(|_| eps[1].poll_recv().unwrap().is_some());
        assert!(served, "survivor starved after its neighbours left");
        drop(eps);
        assert!(hub.is_empty());
    }

    #[test]
    fn a_budget_exhausted_drain_does_not_arm_the_skip() {
        let hub = hub();
        let mut r1 = hub.endpoint(1, FarmRole::Receiver).unwrap();
        let mut r2 = hub.endpoint(2, FarmRole::Receiver).unwrap();
        let flood = DRAIN_BUDGET + 3;
        for _ in 0..flood {
            r1.send(&Message::Fin { session: 2 }).unwrap();
        }
        // The first poll spends its whole budget without reaching EAGAIN,
        // so the second must read again instead of skipping.
        assert_eq!(r1.poll_recv().unwrap(), None);
        assert_eq!(hub.stats().socket_reads, DRAIN_BUDGET as u64);
        assert_eq!(r1.poll_recv().unwrap(), None);
        assert_eq!(hub.stats().socket_reads, flood as u64 + 1);
        let got = std::iter::from_fn(|| r2.poll_recv().unwrap()).count();
        assert_eq!(got, flood);
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let hub = hub();
        let _r = hub.endpoint(4, FarmRole::Receiver).unwrap();
        match hub.endpoint(4, FarmRole::Receiver) {
            Err(NetError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::AlreadyExists),
            Err(other) => panic!("expected AlreadyExists, got {other:?}"),
            Ok(_) => panic!("duplicate registration must be rejected"),
        }
        // The other half is free.
        assert!(hub.endpoint(4, FarmRole::Sender).is_ok());
    }

    #[test]
    fn foreign_datagrams_are_skipped_silently() {
        let hub = hub();
        let mut r1 = hub.endpoint(1, FarmRole::Receiver).unwrap();
        hub.inject_raw(b"\x00\x00not ours").unwrap();
        assert!(
            drain_until(&mut r1, || hub.stats().foreign == 1),
            "foreign datagram must be tallied"
        );
        assert_eq!(hub.stats().unknown_session, 0);
    }
}
