//! Real UDP multicast transport.
//!
//! One [`UdpHub`] binds a non-blocking socket to the group port and joins
//! the multicast group (administratively scoped `239.0.0.0/8`
//! recommended) with loopback enabled. Endpoints send through their own
//! unbound-port sockets straight to the group address, so datagrams really
//! traverse the kernel multicast path.
//!
//! The receive side is a [`MemHub`] group log fed from the socket, and no
//! thread: an endpoint whose poll finds its cursor at the log's tail
//! drains the socket, up to a budget, into the log, where every endpoint
//! reads it. Each datagram is decoded once, as it is logged. The drain,
//! `Feed`, is the one loop in pm-net that reads a socket (the farm's too).
//! A fatal socket error reaches every endpoint as [`NetError::Io`] once it
//! has read what was logged before it. The endpoints share the socket, so
//! it stays open while any of them lives, after the hub handle has dropped.
//!
//! Semantics differ from [`MemHub`] in one documented way: because
//! `IP_MULTICAST_LOOP` is on and all endpoints share the hub's receive
//! socket, **every endpoint sees every datagram, including its own**.
//! Protocol state machines in `pm-core` are written to tolerate
//! self-delivery (a sender ignores packet types only receivers handle and
//! vice versa).

use std::net::{Ipv4Addr, SocketAddrV4, UdpSocket};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use pm_obs::Event;

use crate::lock;
use crate::mem::{MemEndpoint, MemHub};
use crate::poll::PollTransport;
use crate::transport::{classify_recv_err, NetError, RecvClass, Transport};
use crate::wire::Message;

/// Largest datagram a socket read takes.
const RECV_BUF: usize = 65_536;
/// Socket reads per drain, the work one poll does on everyone's behalf
/// (smaller under test, so a flood past it fits a receive buffer).
pub(crate) const DRAIN_BUDGET: usize = if cfg!(test) { 32 } else { 256 };

/// How a [`Feed::drain`] ended: a read found the socket empty, it spent
/// `DRAIN_BUDGET` reads, or the socket is broken (and not read again).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Drained {
    Dry,
    Budget,
    Fatal(std::io::ErrorKind),
}

/// A non-blocking socket and the one loop that reads it, shared by
/// [`UdpHub`] and [`crate::farm::FarmHub`].
pub(crate) struct Feed {
    pub(crate) socket: UdpSocket,
    buf: Vec<u8>,
    /// The first fatal socket error; once set, the socket is not read again.
    fatal: Option<std::io::ErrorKind>,
    /// `recv_from` calls issued, `EAGAIN` included.
    pub(crate) reads: u64,
}

impl Feed {
    pub(crate) fn new(socket: UdpSocket) -> Self {
        Feed {
            socket,
            buf: vec![0u8; RECV_BUF],
            fatal: None,
            reads: 0,
        }
    }

    /// Read up to `DRAIN_BUDGET` datagrams, handing each to `sink` as its
    /// own `Bytes`. Transient errors are skipped; the first fatal one is
    /// latched.
    pub(crate) fn drain(&mut self, mut sink: impl FnMut(Bytes)) -> Drained {
        if let Some(kind) = self.fatal {
            return Drained::Fatal(kind);
        }
        for _ in 0..DRAIN_BUDGET {
            self.reads += 1;
            match self.socket.recv_from(&mut self.buf) {
                Ok((len, _src)) => sink(Bytes::copy_from_slice(&self.buf[..len])),
                Err(e) => match classify_recv_err(&e) {
                    RecvClass::WouldBlock => return Drained::Dry,
                    RecvClass::Transient => {}
                    RecvClass::Fatal => {
                        self.fatal = Some(e.kind());
                        return Drained::Fatal(e.kind());
                    }
                },
            }
        }
        Drained::Budget
    }
}

/// A joined UDP multicast group, read into one group log.
pub struct UdpHub {
    group: SocketAddrV4,
    log: MemHub,
    feed: Arc<Mutex<Feed>>,
}

impl UdpHub {
    /// Bind the group socket and join `group` on all interfaces.
    ///
    /// # Errors
    /// Propagates socket errors (bind, join). A host without multicast
    /// support will fail here — callers such as examples degrade to the
    /// in-memory hub.
    pub fn join(group: SocketAddrV4) -> Result<Self, NetError> {
        if !group.ip().is_multicast() {
            return Err(NetError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("{} is not a multicast address", group.ip()),
            )));
        }
        let socket = UdpSocket::bind(SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, group.port()))?;
        socket.join_multicast_v4(group.ip(), &Ipv4Addr::UNSPECIFIED)?;
        socket.set_multicast_loop_v4(true)?;
        socket.set_nonblocking(true)?;
        Ok(UdpHub {
            group,
            log: MemHub::new(),
            feed: Arc::new(Mutex::new(Feed::new(socket))),
        })
    }

    /// The group address.
    pub fn group(&self) -> SocketAddrV4 {
        self.group
    }

    /// Create a new endpoint on this group. It hears what arrives from now
    /// on.
    ///
    /// # Errors
    /// Fails if the endpoint's send socket cannot be created.
    pub fn endpoint(&self) -> Result<UdpEndpoint, NetError> {
        let send_socket = UdpSocket::bind(SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, 0))?;
        send_socket.set_multicast_loop_v4(true)?;
        Ok(UdpEndpoint {
            group: self.group,
            send_socket,
            reader: self.log.join(),
            feed: self.feed.clone(),
        })
    }
}

/// One endpoint of a [`UdpHub`] group. Dropping it gives up its share of
/// what it has not read.
pub struct UdpEndpoint {
    group: SocketAddrV4,
    send_socket: UdpSocket,
    /// Its cursor into the group log.
    reader: MemEndpoint,
    feed: Arc<Mutex<Feed>>,
}

impl UdpEndpoint {
    /// Emit `net_sent`/`net_recv` events to `obs`, stamped with the
    /// seconds since endpoint creation. The clock is read only for an
    /// enabled `obs`, so a disabled one adds no clock read to a send or
    /// receive.
    pub fn with_obs(mut self, obs: pm_obs::Obs) -> Self {
        self.reader = self.reader.with_obs(obs);
        self
    }
}

impl Transport for UdpEndpoint {
    fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        let reader = &self.reader;
        reader.obs.emit(&reader.clock, || Event::NetSent {
            kind: msg.obs_kind(),
        });
        self.send_socket.send_to(&msg.encode(), self.group)?;
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, NetError> {
        crate::poll::wait_recv(self, timeout)
    }
}

impl PollTransport for UdpEndpoint {
    /// The next logged datagram; at the log's tail, drain the socket into
    /// the log first, decoding each datagram once.
    fn poll_recv(&mut self) -> Result<Option<Message>, NetError> {
        let (log, feed) = (&self.reader.hub, &self.feed);
        let publish = |raw| log.publish(None, Message::decode(raw));
        let drained = self.reader.at_tail().then(|| lock(feed).drain(publish));
        match (self.reader.poll_recv()?, drained) {
            (None, Some(Drained::Fatal(kind))) => Err(NetError::Io(kind.into())),
            (msg, _) => Ok(msg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Multicast may be unavailable in constrained environments; tests
    /// skip (with a note) rather than fail when the group can't be joined.
    fn try_hub(port: u16) -> Option<UdpHub> {
        match UdpHub::join(SocketAddrV4::new(Ipv4Addr::new(239, 255, 43, 21), port)) {
            Ok(h) => Some(h),
            Err(e) => {
                eprintln!("skipping UDP multicast test: {e}");
                None
            }
        }
    }

    #[test]
    fn rejects_non_multicast_address() {
        match UdpHub::join(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 9000)) {
            Err(NetError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput);
            }
            Err(other) => panic!("unexpected error kind: {other}"),
            Ok(_) => panic!("unicast address must be rejected"),
        }
    }

    #[test]
    fn loopback_roundtrip() {
        let Some(hub) = try_hub(41877) else { return };
        let mut a = hub.endpoint().unwrap();
        let mut b = hub.endpoint().unwrap();
        let msg = Message::Nak {
            session: 3,
            group: 9,
            needed: 2,
            round: 1,
        };
        a.send(&msg).unwrap();
        // Self-delivery is expected on UDP: both endpoints see it.
        let got_b = b.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(got_b, Some(msg.clone()));
        let got_a = a.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(got_a, Some(msg));
    }

    #[test]
    fn payload_packets_roundtrip() {
        let Some(hub) = try_hub(41879) else { return };
        let mut a = hub.endpoint().unwrap();
        let mut b = hub.endpoint().unwrap();
        let payload: Vec<u8> = (0..2048).map(|i| (i % 251) as u8).collect();
        let msg = Message::Packet {
            session: 1,
            group: 0,
            index: 5,
            k: 7,
            n: 10,
            payload: payload.into(),
        };
        a.send(&msg).unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(2)).unwrap(), Some(msg));
    }

    #[test]
    fn corrupt_datagram_surfaces_garbage_skipped() {
        let Some(hub) = try_hub(41883) else { return };
        let mut a = hub.endpoint().unwrap();
        let tx = UdpSocket::bind(SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, 0)).unwrap();
        tx.set_multicast_loop_v4(true).unwrap();
        // Pure garbage (wrong magic) is skipped silently.
        tx.send_to(b"\x00\x00definitely not ours", hub.group())
            .unwrap();
        assert_eq!(a.recv_timeout(Duration::from_millis(200)).unwrap(), None);
        // A damaged own-format datagram surfaces as recoverable Corrupt.
        let mut raw = Message::Fin { session: 5 }.encode().to_vec();
        raw[9] ^= 0x08;
        tx.send_to(&raw, hub.group()).unwrap();
        match a.recv_timeout(Duration::from_secs(2)) {
            Err(e) => assert!(e.is_recoverable(), "expected recoverable, got {e}"),
            other => panic!("expected Corrupt error, got {other:?}"),
        }
        // The endpoint keeps working afterwards.
        tx.send_to(&Message::Fin { session: 6 }.encode(), hub.group())
            .unwrap();
        assert_eq!(
            a.recv_timeout(Duration::from_secs(2)).unwrap(),
            Some(Message::Fin { session: 6 })
        );
    }

    #[test]
    fn timeout_when_quiet() {
        let Some(hub) = try_hub(41881) else { return };
        let mut a = hub.endpoint().unwrap();
        assert_eq!(a.recv_timeout(Duration::from_millis(30)).unwrap(), None);
    }

    /// A socket outside the group's endpoints: every endpoint hears what
    /// it sends, and the log waits for no read of its own.
    fn outsider() -> UdpSocket {
        let tx = UdpSocket::bind(SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, 0)).unwrap();
        tx.set_multicast_loop_v4(true).unwrap();
        tx
    }

    fn fin(session: u32) -> Message {
        Message::Fin { session }
    }

    const WAIT: Duration = Duration::from_secs(2);

    #[test]
    fn one_decode_serves_every_endpoint() {
        use crate::poll::PollTransport;
        let Some(hub) = try_hub(41885) else { return };
        let to = hub.group();
        let mut eps: Vec<UdpEndpoint> = (0..4).map(|_| hub.endpoint().unwrap()).collect();
        // The endpoints keep the socket open without the hub handle.
        drop(hub);
        let sent = Message::Packet {
            session: 1,
            group: 3,
            index: 0,
            k: 7,
            n: 255,
            payload: Bytes::from(vec![3u8; 64]),
        };
        outsider().send_to(&sent.encode(), to).unwrap();
        let payload_at = |msg: &Message| match msg {
            Message::Packet { payload, .. } => payload.as_ptr(),
            other => panic!("expected a packet, got {other:?}"),
        };
        let first = eps[0].recv_timeout(WAIT).unwrap().expect("a packet");
        assert_eq!(first, sent);
        for ep in &mut eps[1..] {
            // Logged by the first endpoint's drain: no socket read here.
            let got = ep.poll_recv().unwrap().expect("the logged packet");
            assert_eq!(got, sent);
            assert_eq!(
                payload_at(&got),
                payload_at(&first),
                "one buffer, one decode"
            );
        }
    }

    #[test]
    fn a_dropped_endpoint_gives_up_its_share() {
        let Some(hub) = try_hub(41887) else { return };
        let mut a = hub.endpoint().unwrap();
        let b = hub.endpoint().unwrap();
        let tx = outsider();
        for s in 0..3 {
            tx.send_to(&fin(s).encode(), hub.group()).unwrap();
        }
        for s in 0..3 {
            assert_eq!(a.recv_timeout(WAIT).unwrap(), Some(fin(s)));
        }
        assert_eq!(hub.log.retained(), 3, "b has three to read");
        drop(b);
        assert_eq!(hub.log.retained(), 0, "the log does not wait for a leaver");
    }

    #[test]
    fn endpoints_on_two_threads_each_hear_everything_once_in_order() {
        const N: u32 = 100;
        let Some(hub) = try_hub(41889) else { return };
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let mut ep = hub.endpoint().unwrap();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while got.len() < N as usize {
                        match ep.recv_timeout(WAIT).unwrap() {
                            Some(Message::Fin { session }) => got.push(session),
                            other => panic!("expected a FIN, got {other:?}"),
                        }
                    }
                    let quiet = ep.recv_timeout(Duration::from_millis(50)).unwrap();
                    assert_eq!(quiet, None, "nothing heard twice");
                    (got, ep)
                })
            })
            .collect();
        let tx = outsider();
        for s in 0..N {
            tx.send_to(&fin(s).encode(), hub.group()).unwrap();
        }
        let mut eps = Vec::new();
        for reader in readers {
            let (got, ep) = reader.join().unwrap();
            assert_eq!(got, (0..N).collect::<Vec<_>>());
            eps.push(ep);
        }
        assert_eq!(hub.log.retained(), 0, "both joined, both through");
    }

    #[test]
    fn foreign_bytes_stop_at_the_drain_and_damage_reaches_every_endpoint() {
        use crate::poll::PollTransport;
        let Some(hub) = try_hub(41891) else { return };
        let mut eps: Vec<UdpEndpoint> = (0..3).map(|_| hub.endpoint().unwrap()).collect();
        let tx = outsider();
        let mut damaged = fin(5).encode().to_vec();
        damaged[9] ^= 0x08;
        for raw in [
            &b"\x00\x00definitely not ours"[..],
            &damaged,
            &fin(6).encode(),
        ] {
            tx.send_to(raw, hub.group()).unwrap();
        }
        match eps[0].recv_timeout(WAIT) {
            Err(e) => assert!(e.is_recoverable(), "expected recoverable, got {e}"),
            other => panic!("expected Corrupt error, got {other:?}"),
        }
        assert_eq!(eps[0].recv_timeout(WAIT).unwrap(), Some(fin(6)));
        // All three were drained; the foreign one was never logged.
        assert_eq!(hub.log.retained(), 2);
        for ep in &mut eps[1..] {
            assert!(ep.poll_recv().unwrap_err().is_recoverable());
            assert_eq!(ep.poll_recv().unwrap(), Some(fin(6)));
        }
        assert_eq!(hub.log.retained(), 0);
    }

    #[test]
    fn a_fatal_socket_error_reaches_every_endpoint_after_what_was_logged() {
        use crate::poll::PollTransport;
        use std::io::ErrorKind::BrokenPipe;
        let Some(hub) = try_hub(41893) else { return };
        let mut a = hub.endpoint().unwrap();
        let mut b = hub.endpoint().unwrap();
        outsider().send_to(&fin(1).encode(), hub.group()).unwrap();
        assert_eq!(a.recv_timeout(WAIT).unwrap(), Some(fin(1)));
        // What a drain leaves behind when the socket breaks.
        lock(&hub.feed).fatal = Some(BrokenPipe);
        let broken = |got| matches!(got, Err(NetError::Io(e)) if e.kind() == BrokenPipe);
        assert!(broken(a.poll_recv()));
        assert_eq!(b.poll_recv().unwrap(), Some(fin(1)));
        assert!(broken(b.poll_recv()));
        assert!(broken(b.recv_timeout(WAIT)));
    }
}
