//! [`Payload`] — a delivered transfer, held as the packets that carried it.

use bytes::Bytes;

/// The bytes of a transfer as its data packets, in stream order: windows
/// of the datagrams that arrived (only a reconstructed packet owns its
/// storage). Building, cloning and reporting one copies no payload byte,
/// and on a `MemHub` every receiver's shares one buffer per packet.
#[derive(Debug, Clone)]
pub struct Payload {
    /// No chunk is empty; the lengths sum to `len`.
    chunks: Vec<Bytes>,
    len: usize,
}

impl Payload {
    /// The first `len` bytes of `chunks` laid end to end (all of them if
    /// they hold fewer): the chunk that crosses `len` is `slice`d there,
    /// so a zero-padded tail is never visible, and empty pieces go.
    pub fn new(mut chunks: Vec<Bytes>, len: usize) -> Self {
        let mut left = len;
        chunks.retain_mut(|c| {
            if left < c.len() {
                *c = c.slice(..left);
            }
            left -= c.len();
            !c.is_empty()
        });
        let len = len - left;
        Payload { chunks, len }
    }

    /// Length of the transfer in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for an empty transfer.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bytes in order, as the non-empty pieces they arrived in.
    pub fn chunks(&self) -> &[Bytes] {
        &self.chunks
    }

    /// The one copy: the transfer in a contiguous buffer.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        self.chunks.iter().for_each(|c| out.extend_from_slice(c));
        out
    }
}

/// One chunk — what a `ReceiverMachine` with no `payload` of its own reports.
impl From<Vec<u8>> for Payload {
    fn from(data: Vec<u8>) -> Self {
        Payload::new(vec![data.into()], usize::MAX)
    }
}

/// Equal to the same bytes held contiguously (`[u8]`, `&[u8]`, `Vec<u8>`).
impl<T: AsRef<[u8]> + ?Sized> PartialEq<T> for Payload {
    fn eq(&self, other: &T) -> bool {
        let mut rest = other.as_ref();
        self.len == rest.len()
            && self.chunks.iter().all(|c| {
                let (head, tail) = rest.split_at(c.len());
                rest = tail;
                **c == *head
            })
    }
}
