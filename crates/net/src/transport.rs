//! The transport abstraction.

use std::fmt;
use std::time::Duration;

use crate::wire::Message;

/// Transport errors.
#[derive(Debug)]
pub enum NetError {
    /// Socket/channel level failure.
    Io(std::io::Error),
    /// Malformed datagram.
    Decode(String),
    /// A datagram that carried our magic but failed its integrity
    /// checksum: bytes were damaged in flight. Always recoverable — drop
    /// the datagram and keep receiving.
    Corrupt(String),
    /// The hub/socket behind this endpoint has shut down.
    Closed,
}

impl NetError {
    /// Whether a driver may safely drop the offending datagram and keep
    /// the session alive. Decode failures and checksum mismatches damage
    /// one datagram, not the transport; I/O errors and closure are fatal.
    pub fn is_recoverable(&self) -> bool {
        matches!(self, NetError::Decode(_) | NetError::Corrupt(_))
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport I/O error: {e}"),
            NetError::Decode(msg) => write!(f, "malformed datagram: {msg}"),
            NetError::Corrupt(msg) => write!(f, "corrupt datagram: {msg}"),
            NetError::Closed => write!(f, "transport closed"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl PartialEq for NetError {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (NetError::Io(a), NetError::Io(b)) => a.kind() == b.kind(),
            (NetError::Decode(a), NetError::Decode(b)) => a == b,
            (NetError::Corrupt(a), NetError::Corrupt(b)) => a == b,
            (NetError::Closed, NetError::Closed) => true,
            _ => false,
        }
    }
}

/// What a UDP `recv` error means for the loop that hit it: the one total
/// classification that pm-net's one socket drain (the `Feed` under
/// [`crate::udp::UdpHub`] and [`crate::farm::FarmHub`]) applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvClass {
    /// Nothing to read right now (`WouldBlock` / `TimedOut`): yield and
    /// come back.
    WouldBlock,
    /// A per-datagram hiccup that does not damage the socket — signal
    /// interruption, or an ICMP-unreachable surfaced from an earlier
    /// send (connection reset/refused/aborted): drop and keep reading.
    Transient,
    /// The socket itself is broken (bad descriptor, out of memory, …):
    /// stop reading and surface the error.
    Fatal,
}

/// Classify a `recv`/`recv_from` error. Total: every [`std::io::Error`]
/// maps to exactly one [`RecvClass`]; unknown kinds are conservatively
/// [`RecvClass::Fatal`] so a broken socket can never spin a hot loop.
pub fn classify_recv_err(e: &std::io::Error) -> RecvClass {
    use std::io::ErrorKind;
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => RecvClass::WouldBlock,
        ErrorKind::Interrupted
        | ErrorKind::ConnectionReset
        | ErrorKind::ConnectionRefused
        | ErrorKind::ConnectionAborted => RecvClass::Transient,
        _ => RecvClass::Fatal,
    }
}

/// A multicast endpoint: everything sent is delivered to every *other*
/// endpoint of the group (standard multicast loopback semantics: a sender
/// does not receive its own datagrams).
pub trait Transport: Send {
    /// Multicast one message to the group.
    ///
    /// # Errors
    /// Transport-level failures; encoding cannot fail.
    fn send(&mut self, msg: &Message) -> Result<(), NetError>;

    /// Receive the next message, waiting up to `timeout`. Returns
    /// `Ok(None)` on timeout.
    ///
    /// Malformed *foreign* datagrams (wrong magic, short header) are
    /// skipped silently (they consume budget from `timeout` but never
    /// surface as errors). Datagrams carrying our magic that fail the
    /// integrity checksum or structural validation surface as a
    /// *recoverable* [`NetError::Corrupt`] / [`NetError::Decode`] so the
    /// caller can count and drop them (see
    /// [`NetError::is_recoverable`]).
    ///
    /// Every pm-net transport's is [`crate::poll::wait_recv`] over its
    /// own `poll_recv`, and no library code calls it: it stays for the
    /// end-to-end benchmark's wrappers, which implement and forward it.
    ///
    /// # Errors
    /// [`NetError::Closed`] when the group is gone.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, NetError>;
}

/// A borrowed transport is a transport: lets a driver that owns its
/// endpoints run on one the caller keeps (and reads `stats()` off after).
impl<T: Transport + ?Sized> Transport for &mut T {
    fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        (**self).send(msg)
    }
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, NetError> {
        (**self).recv_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = NetError::Decode("bad magic".into());
        assert!(e.to_string().contains("bad magic"));
        assert_eq!(NetError::Closed.to_string(), "transport closed");
        let io = NetError::from(std::io::Error::new(std::io::ErrorKind::TimedOut, "t"));
        assert!(io.to_string().contains("I/O"));
    }

    #[test]
    fn error_equality() {
        assert_eq!(NetError::Closed, NetError::Closed);
        assert_ne!(NetError::Closed, NetError::Decode("x".into()));
        assert_eq!(NetError::Corrupt("c".into()), NetError::Corrupt("c".into()));
        assert_ne!(NetError::Corrupt("c".into()), NetError::Decode("c".into()));
    }

    #[test]
    fn recoverability_classification() {
        assert!(NetError::Decode("bad".into()).is_recoverable());
        assert!(NetError::Corrupt("flip".into()).is_recoverable());
        assert!(!NetError::Closed.is_recoverable());
        let io = NetError::from(std::io::Error::new(std::io::ErrorKind::TimedOut, "t"));
        assert!(!io.is_recoverable());
    }

    fn err(kind: std::io::ErrorKind) -> std::io::Error {
        std::io::Error::new(kind, "test")
    }

    #[test]
    fn recv_class_would_block() {
        use std::io::ErrorKind;
        assert_eq!(
            classify_recv_err(&err(ErrorKind::WouldBlock)),
            RecvClass::WouldBlock
        );
        assert_eq!(
            classify_recv_err(&err(ErrorKind::TimedOut)),
            RecvClass::WouldBlock
        );
    }

    #[test]
    fn recv_class_transient() {
        use std::io::ErrorKind;
        for kind in [
            ErrorKind::Interrupted,
            ErrorKind::ConnectionReset,
            ErrorKind::ConnectionRefused,
            ErrorKind::ConnectionAborted,
        ] {
            assert_eq!(
                classify_recv_err(&err(kind)),
                RecvClass::Transient,
                "{kind:?}"
            );
        }
    }

    #[test]
    fn recv_class_fatal_is_the_conservative_default() {
        use std::io::ErrorKind;
        for kind in [
            ErrorKind::NotFound,
            ErrorKind::PermissionDenied,
            ErrorKind::BrokenPipe,
            ErrorKind::InvalidInput,
            ErrorKind::OutOfMemory,
            ErrorKind::Other,
        ] {
            assert_eq!(classify_recv_err(&err(kind)), RecvClass::Fatal, "{kind:?}");
        }
    }
}
