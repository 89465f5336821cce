//! Real UDP multicast transport.
//!
//! One [`UdpHub`] binds a socket to the group port, joins the multicast
//! group (administratively scoped `239.0.0.0/8` recommended) with loopback
//! enabled, and a reader thread fans every datagram out to the in-process
//! endpoints. Endpoints send through their own unbound-port sockets
//! straight to the group address, so datagrams really traverse the kernel
//! multicast path.
//!
//! Semantics differ from [`crate::mem::MemHub`] in one documented way:
//! because `IP_MULTICAST_LOOP` is on and all endpoints share the hub's
//! receive socket, **every endpoint sees every datagram, including its
//! own**. Protocol state machines in `pm-core` are written to tolerate
//! self-delivery (a sender ignores packet types only receivers handle and
//! vice versa).

use std::net::{Ipv4Addr, SocketAddrV4, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use pm_obs::{Event, Obs, Stopwatch};

use crate::transport::{NetError, Transport};
use crate::wire::Message;

/// Maximum datagram we ever read.
const RECV_BUF: usize = 65_536;

struct HubShared {
    sinks: Mutex<Vec<Sender<Bytes>>>,
    shutdown: AtomicBool,
}

/// A joined UDP multicast group with an in-process fan-out.
pub struct UdpHub {
    group: SocketAddrV4,
    shared: Arc<HubShared>,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl UdpHub {
    /// Bind the group socket, join `group` on all interfaces, and start
    /// the reader thread.
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
        socket.set_read_timeout(Some(Duration::from_millis(50)))?;
        let shared = Arc::new(HubShared {
            sinks: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
        });
        let reader_shared = shared.clone();
        let reader = std::thread::Builder::new()
            .name("pm-udp-hub".into())
            .spawn(move || {
                let mut buf = vec![0u8; RECV_BUF];
                while !reader_shared.shutdown.load(Ordering::Relaxed) {
                    match socket.recv_from(&mut buf) {
                        Ok((len, _src)) => {
                            let datagram = Bytes::copy_from_slice(&buf[..len]);
                            let sinks = reader_shared.sinks.lock();
                            for sink in sinks.iter() {
                                let _ = sink.send(datagram.clone());
                            }
                        }
                        // Same classification the farm's poll path uses:
                        // only a Fatal socket error stops the reader.
                        Err(e) => match crate::transport::classify_recv_err(&e) {
                            crate::transport::RecvClass::WouldBlock
                            | crate::transport::RecvClass::Transient => continue,
                            crate::transport::RecvClass::Fatal => break,
                        },
                    }
                }
            })?;
        Ok(UdpHub {
            group,
            shared,
            reader: Some(reader),
        })
    }

    /// The group address.
    pub fn group(&self) -> SocketAddrV4 {
        self.group
    }

    /// Create a new endpoint on this group.
    ///
    /// # Errors
    /// Fails if the endpoint's send socket cannot be created.
    pub fn endpoint(&self) -> Result<UdpEndpoint, NetError> {
        let send_socket = UdpSocket::bind(SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, 0))?;
        send_socket.set_multicast_loop_v4(true)?;
        let (tx, rx) = unbounded();
        self.shared.sinks.lock().push(tx);
        Ok(UdpEndpoint {
            group: self.group,
            send_socket,
            rx,
            obs: Obs::null(),
            clock: Stopwatch::start(),
        })
    }
}

impl Drop for UdpHub {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

/// One endpoint of a [`UdpHub`] group.
pub struct UdpEndpoint {
    group: SocketAddrV4,
    send_socket: UdpSocket,
    rx: Receiver<Bytes>,
    obs: Obs,
    clock: Stopwatch,
}

impl UdpEndpoint {
    /// Emit `net_sent`/`net_recv` events (timestamped from endpoint
    /// creation) to `obs`.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }
}

impl Transport for UdpEndpoint {
    fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        self.obs.emit(self.clock.now(), || Event::NetSent {
            kind: msg.obs_kind(),
        });
        let encoded = msg.encode();
        self.send_socket.send_to(&encoded, self.group)?;
        Ok(())
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "a blocking recv deadline on the multicast socket's reader channel"
    )]
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, NetError> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            match self.rx.recv_timeout(remaining) {
                Ok(raw) => match Message::decode(raw) {
                    Ok(msg) => {
                        self.obs.emit(self.clock.now(), || Event::NetRecv {
                            kind: msg.obs_kind(),
                        });
                        return Ok(Some(msg));
                    }
                    // Our magic but a failed checksum: damaged in
                    // flight, surfaced (recoverable) for the driver to
                    // count and drop. Anything else is a foreign
                    // datagram on the group — silent skip.
                    Err(e @ NetError::Corrupt(_)) => return Err(e),
                    Err(_) => continue,
                },
                Err(RecvTimeoutError::Timeout) => return Ok(None),
                Err(RecvTimeoutError::Disconnected) => return Err(NetError::Closed),
            }
        }
    }
}

/// The default `recv_timeout(ZERO)` path drains the reader thread's
/// channel without parking, which is exactly the readiness semantic the
/// multiplexer needs.
impl crate::poll::PollTransport for UdpEndpoint {}

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
}
