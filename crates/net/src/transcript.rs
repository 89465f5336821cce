//! Byte-exact session transcripts: a transport decorator that records
//! every datagram it sends and receives, in order.
//!
//! The equivalence tests pin a strong claim — the event-driven
//! multiplexer (`pm-mux`) produces *byte-identical* per-session traffic to
//! the blocking drivers — and a claim that strong needs a witness. Wrap
//! each endpoint in a [`TranscriptTransport`], run the session, and
//! compare [`Transcript`]s: two runs are equivalent iff their ordered
//! `(sent, received)` byte sequences match exactly.

use std::sync::{Arc, Mutex};

use bytes::Bytes;

use crate::lock;
use crate::poll::PollTransport;
use crate::transport::{NetError, Transport};
use crate::wire::Message;

/// The ordered wire history of one endpoint: canonical encodings of every
/// datagram sent and every datagram successfully received.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Transcript {
    /// Encodings of sent datagrams, in send order.
    pub sent: Vec<Bytes>,
    /// Encodings of received datagrams, in delivery order.
    pub received: Vec<Bytes>,
}

impl Transcript {
    /// Total datagrams on both sides.
    pub fn len(&self) -> usize {
        self.sent.len() + self.received.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.sent.is_empty() && self.received.is_empty()
    }

    /// The received datagrams, decoded — e.g. to count the NAKs that
    /// reached a sender's endpoint.
    pub fn received_messages(&self) -> impl Iterator<Item = Message> + '_ {
        let decode = |raw: &Bytes| Message::decode(raw.clone()).ok();
        self.received.iter().filter_map(decode)
    }
}

/// Transport decorator recording a [`Transcript`] of all traffic.
///
/// Recording happens at the decorator's position in the stack: wrap the
/// innermost transport to see post-fault-injection bytes, or the outermost
/// to see what the driver itself sent and absorbed.
pub struct TranscriptTransport<T: Transport> {
    inner: T,
    log: Arc<Mutex<Transcript>>,
}

impl<T: Transport> TranscriptTransport<T> {
    /// Wrap `inner`, recording into a fresh transcript.
    pub fn new(inner: T) -> Self {
        TranscriptTransport {
            inner,
            log: Arc::new(Mutex::new(Transcript::default())),
        }
    }

    /// Shared handle to the transcript (readable while the transport is
    /// owned by a driver, and after it is dropped).
    pub fn transcript(&self) -> Arc<Mutex<Transcript>> {
        self.log.clone()
    }
}

impl<T: PollTransport> Transport for TranscriptTransport<T> {
    fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        self.inner.send(msg)?;
        lock(&self.log).sent.push(msg.encode());
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: std::time::Duration) -> Result<Option<Message>, NetError> {
        crate::poll::wait_recv(self, timeout)
    }
}

impl<T: PollTransport> PollTransport for TranscriptTransport<T> {
    fn poll_recv(&mut self) -> Result<Option<Message>, NetError> {
        let got = self.inner.poll_recv()?;
        if let Some(msg) = &got {
            lock(&self.log).received.push(msg.encode());
        }
        Ok(got)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemHub;
    use std::time::Duration;

    #[test]
    fn records_both_directions_in_order() {
        let hub = MemHub::new();
        let mut peer = hub.join();
        let mut tp = TranscriptTransport::new(hub.join());
        let log = tp.transcript();
        tp.send(&Message::Fin { session: 1 }).unwrap();
        peer.send(&Message::Done {
            session: 1,
            receiver: 2,
        })
        .unwrap();
        assert!(tp
            .recv_timeout(Duration::from_millis(200))
            .unwrap()
            .is_some());
        peer.send(&Message::Fin { session: 1 }).unwrap();
        assert!(tp.poll_recv().unwrap().is_some());
        let t = log.lock().unwrap();
        assert_eq!(t.sent.len(), 1);
        assert_eq!(t.received.len(), 2);
        assert_eq!(t.sent[0], Message::Fin { session: 1 }.encode());
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn identical_sessions_produce_identical_transcripts() {
        let run = || {
            let hub = MemHub::new();
            let mut peer = hub.join();
            let mut tp = TranscriptTransport::new(hub.join());
            for s in 0..5u32 {
                tp.send(&Message::Fin { session: s }).unwrap();
                peer.send(&Message::Done {
                    session: s,
                    receiver: s,
                })
                .unwrap();
                tp.poll_recv().unwrap();
            }
            tp.transcript().lock().unwrap().clone()
        };
        assert_eq!(run(), run());
    }
}
