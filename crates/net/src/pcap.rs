//! Packet capture: record every message a transport sends or receives
//! into a standard **libpcap** file, openable in Wireshark/tcpdump.
//!
//! Messages are encapsulated as Ethernet II / IPv4 / UDP datagrams
//! addressed to the session's multicast group, with correct IPv4 header
//! checksums, so any pcap tool decodes the framing down to the UDP payload
//! (the PM wire format) without custom dissectors. Sent and received
//! traffic are distinguished by the source MAC/IP (sender `10.0.0.1`,
//! receiver `10.0.0.2`).
//!
//! This is the fault-finding idiom the smoltcp examples ship as `--pcap`,
//! here as a [`Transport`] decorator: wrap any endpoint in
//! [`PcapTransport`] and every datagram of the session lands in the file.

use std::io::{self, Write};
use std::time::{Duration, Instant};

use crate::transport::{NetError, Transport};
use crate::wire::Message;

/// Classic pcap global header constants.
const PCAP_MAGIC: u32 = 0xA1B2_C3D4; // microsecond timestamps
const PCAP_VERSION_MAJOR: u16 = 2;
const PCAP_VERSION_MINOR: u16 = 4;
const LINKTYPE_ETHERNET: u32 = 1;
/// Snap length: full packets.
const SNAPLEN: u32 = 65_535;

/// Multicast destination used in the synthesized headers.
const GROUP_IP: [u8; 4] = [239, 255, 42, 99];
const GROUP_PORT: u16 = 47_999;

/// Writes pcap records for wire messages.
pub struct PcapWriter<W: Write> {
    out: W,
    start: Instant,
}

impl<W: Write> PcapWriter<W> {
    /// Write the pcap global header and return the writer.
    ///
    /// # Errors
    /// I/O failures on the underlying writer.
    pub fn new(mut out: W) -> io::Result<Self> {
        out.write_all(&PCAP_MAGIC.to_le_bytes())?;
        out.write_all(&PCAP_VERSION_MAJOR.to_le_bytes())?;
        out.write_all(&PCAP_VERSION_MINOR.to_le_bytes())?;
        out.write_all(&0i32.to_le_bytes())?; // thiszone
        out.write_all(&0u32.to_le_bytes())?; // sigfigs
        out.write_all(&SNAPLEN.to_le_bytes())?;
        out.write_all(&LINKTYPE_ETHERNET.to_le_bytes())?;
        Ok(PcapWriter {
            out,
            // pm-audit: allow(determinism-time): capture timestamps are wall-clock by definition
            start: Instant::now(),
        })
    }

    /// Record one message; `outbound` selects the synthesized source
    /// (sender vs receiver side of this endpoint).
    ///
    /// # Errors
    /// I/O failures on the underlying writer.
    pub fn record(&mut self, msg: &Message, outbound: bool) -> io::Result<()> {
        let payload = msg.encode();
        let frame = build_frame(&payload, outbound);
        let ts = self.start.elapsed();
        self.write_record(ts, &frame)
    }

    fn write_record(&mut self, ts: Duration, frame: &[u8]) -> io::Result<()> {
        // pm-audit: allow(lossy-cast): pcap mandates 32-bit seconds; wraps in 2106
        self.out.write_all(&(ts.as_secs() as u32).to_le_bytes())?;
        self.out.write_all(&ts.subsec_micros().to_le_bytes())?;
        let len = u32::try_from(frame.len().min(SNAPLEN as usize)).unwrap_or(SNAPLEN);
        self.out.write_all(&len.to_le_bytes())?; // incl_len
        let orig = u32::try_from(frame.len()).unwrap_or(u32::MAX);
        self.out.write_all(&orig.to_le_bytes())?; // orig_len
        self.out.write_all(&frame[..len as usize])?;
        Ok(())
    }

    /// Flush and return the inner writer.
    ///
    /// # Errors
    /// Flush failures.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Ethernet II + IPv4 + UDP encapsulation of one wire payload.
fn build_frame(payload: &[u8], outbound: bool) -> Vec<u8> {
    let src_ip: [u8; 4] = if outbound {
        [10, 0, 0, 1]
    } else {
        [10, 0, 0, 2]
    };
    let src_mac: [u8; 6] = if outbound {
        [0x02, 0, 0, 0, 0, 0x01]
    } else {
        [0x02, 0, 0, 0, 0, 0x02]
    };
    // Multicast MAC per RFC 1112: 01:00:5e + low 23 bits of the group IP.
    let dst_mac: [u8; 6] = [
        0x01,
        0x00,
        0x5E,
        GROUP_IP[1] & 0x7F,
        GROUP_IP[2],
        GROUP_IP[3],
    ];

    let udp_len = 8 + payload.len();
    let ip_len = 20 + udp_len;
    let mut f = Vec::with_capacity(14 + ip_len);
    // Ethernet II
    f.extend_from_slice(&dst_mac);
    f.extend_from_slice(&src_mac);
    f.extend_from_slice(&0x0800u16.to_be_bytes()); // IPv4

    // IPv4 header (no options)
    let ip_start = f.len();
    f.push(0x45); // version 4, IHL 5
    f.push(0); // DSCP/ECN
    f.extend_from_slice(&u16::try_from(ip_len).unwrap_or(u16::MAX).to_be_bytes());
    f.extend_from_slice(&0u16.to_be_bytes()); // identification
    f.extend_from_slice(&0u16.to_be_bytes()); // flags/fragment
    f.push(1); // TTL (multicast scope)
    f.push(17); // UDP
    f.extend_from_slice(&0u16.to_be_bytes()); // checksum placeholder
    f.extend_from_slice(&src_ip);
    f.extend_from_slice(&GROUP_IP);
    let csum = ipv4_checksum(&f[ip_start..ip_start + 20]);
    f[ip_start + 10..ip_start + 12].copy_from_slice(&csum.to_be_bytes());

    // UDP header (checksum 0 = unset, legal for IPv4)
    f.extend_from_slice(&GROUP_PORT.to_be_bytes()); // src port (cosmetic)
    f.extend_from_slice(&GROUP_PORT.to_be_bytes());
    f.extend_from_slice(&u16::try_from(udp_len).unwrap_or(u16::MAX).to_be_bytes());
    f.extend_from_slice(&0u16.to_be_bytes());
    f.extend_from_slice(payload);
    f
}

/// Ones-complement sum over the IPv4 header.
fn ipv4_checksum(header: &[u8]) -> u16 {
    let mut sum = 0u32;
    for chunk in header.chunks(2) {
        let word = u16::from_be_bytes([chunk[0], *chunk.get(1).unwrap_or(&0)]);
        sum += u32::from(word);
    }
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !((sum & 0xFFFF) as u16)
}

/// A [`Transport`] decorator that captures all traffic to a pcap stream.
pub struct PcapTransport<T, W: Write> {
    inner: T,
    pcap: PcapWriter<W>,
    /// Records are best-effort: a capture-file error must not take down
    /// the session; the first error is remembered here.
    capture_error: Option<io::Error>,
}

impl<T: Transport, W: Write> PcapTransport<T, W> {
    /// Wrap `inner`, writing captures to `out`.
    ///
    /// # Errors
    /// Failure writing the pcap global header.
    pub fn new(inner: T, out: W) -> io::Result<Self> {
        Ok(PcapTransport {
            inner,
            pcap: PcapWriter::new(out)?,
            capture_error: None,
        })
    }

    /// First capture error, if any occurred (the session kept running).
    pub fn capture_error(&self) -> Option<&io::Error> {
        self.capture_error.as_ref()
    }

    /// Unwrap, flushing the capture.
    ///
    /// # Errors
    /// Flush failures.
    pub fn finish(self) -> io::Result<(T, W)> {
        Ok((self.inner, self.pcap.finish()?))
    }

    fn capture(&mut self, msg: &Message, outbound: bool) {
        if self.capture_error.is_some() {
            return;
        }
        if let Err(e) = self.pcap.record(msg, outbound) {
            self.capture_error = Some(e);
        }
    }
}

impl<T: Transport, W: Write + Send> Transport for PcapTransport<T, W> {
    fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        self.capture(msg, true);
        self.inner.send(msg)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, NetError> {
        let got = self.inner.recv_timeout(timeout)?;
        if let Some(msg) = &got {
            self.capture(msg, false);
        }
        Ok(got)
    }
}

/// The default `recv_timeout(ZERO)` path is as non-blocking as `inner`'s.
impl<T: Transport, W: Write + Send> crate::poll::PollTransport for PcapTransport<T, W> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemHub;
    use bytes::Bytes;

    fn parse_global_header(buf: &[u8]) {
        assert!(buf.len() >= 24, "global header");
        assert_eq!(
            u32::from_le_bytes(buf[0..4].try_into().unwrap()),
            PCAP_MAGIC
        );
        assert_eq!(u16::from_le_bytes(buf[4..6].try_into().unwrap()), 2);
        assert_eq!(
            u32::from_le_bytes(buf[20..24].try_into().unwrap()),
            LINKTYPE_ETHERNET
        );
    }

    /// Parse records, returning (frame bytes, captured length) pairs.
    fn parse_records(mut buf: &[u8]) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while !buf.is_empty() {
            assert!(buf.len() >= 16, "record header");
            let incl = u32::from_le_bytes(buf[8..12].try_into().unwrap()) as usize;
            let orig = u32::from_le_bytes(buf[12..16].try_into().unwrap()) as usize;
            assert_eq!(incl, orig, "no truncation expected");
            out.push(buf[16..16 + incl].to_vec());
            buf = &buf[16 + incl..];
        }
        out
    }

    #[test]
    fn frames_decode_as_ethernet_ipv4_udp() {
        let msg = Message::Packet {
            session: 7,
            group: 1,
            index: 2,
            k: 5,
            n: 8,
            payload: Bytes::from_static(b"hello"),
        };
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.record(&msg, true).unwrap();
        let buf = w.finish().unwrap();
        parse_global_header(&buf);
        let frames = parse_records(&buf[24..]);
        assert_eq!(frames.len(), 1);
        let f = &frames[0];
        // Ethernet: multicast destination MAC, IPv4 ethertype.
        assert_eq!(&f[0..3], &[0x01, 0x00, 0x5E]);
        assert_eq!(&f[12..14], &[0x08, 0x00]);
        // IPv4: version/IHL, UDP protocol, valid checksum.
        assert_eq!(f[14], 0x45);
        assert_eq!(f[23], 17);
        assert_eq!(
            ipv4_checksum_zeroed(&f[14..34]),
            0,
            "IPv4 checksum must verify"
        );
        // UDP length covers the encoded message.
        let udp_len = u16::from_be_bytes([f[38], f[39]]) as usize;
        let inner = &f[42..42 - 8 + udp_len];
        assert_eq!(Message::decode(Bytes::copy_from_slice(inner)).unwrap(), msg);
    }

    /// Checksum over a header *including* its checksum field verifies to 0.
    fn ipv4_checksum_zeroed(header: &[u8]) -> u16 {
        let mut sum = 0u32;
        for chunk in header.chunks(2) {
            sum += u16::from_be_bytes([chunk[0], chunk[1]]) as u32;
        }
        while sum > 0xFFFF {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        !(sum as u16)
    }

    #[test]
    fn transport_decorator_captures_both_directions() {
        let hub = MemHub::new();
        let mut a = PcapTransport::new(hub.join(), Vec::new()).unwrap();
        let mut b = hub.join();
        a.send(&Message::Fin { session: 1 }).unwrap();
        b.send(&Message::Fin { session: 2 }).unwrap();
        let got = a.recv_timeout(Duration::from_millis(200)).unwrap();
        assert_eq!(got, Some(Message::Fin { session: 2 }));
        assert!(a.capture_error().is_none());
        let (_, buf) = a.finish().unwrap();
        parse_global_header(&buf);
        let frames = parse_records(&buf[24..]);
        assert_eq!(frames.len(), 2, "one sent + one received");
        // Outbound frame carries the sender source IP, inbound the other.
        assert_eq!(&frames[0][26..30], &[10, 0, 0, 1]);
        assert_eq!(&frames[1][26..30], &[10, 0, 0, 2]);
    }

    #[test]
    fn capture_failure_does_not_break_the_session() {
        struct FailingWriter {
            bytes_allowed: usize,
        }
        impl Write for FailingWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.bytes_allowed < buf.len() {
                    Err(io::Error::other("disk full"))
                } else {
                    self.bytes_allowed -= buf.len();
                    Ok(buf.len())
                }
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let hub = MemHub::new();
        // Exactly the 24-byte global header fits; the first record fails.
        let mut a = PcapTransport::new(hub.join(), FailingWriter { bytes_allowed: 24 }).unwrap();
        let mut b = hub.join();
        a.send(&Message::Fin { session: 1 }).unwrap(); // capture fails inside
        assert!(a.capture_error().is_some());
        // The message still went out on the wire.
        assert_eq!(
            b.recv_timeout(Duration::from_millis(200)).unwrap(),
            Some(Message::Fin { session: 1 })
        );
    }
}
