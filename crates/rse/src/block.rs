//! Receiver-side FEC-block accumulator.
//!
//! [`GroupDecoder`] is the per-transmission-group state a protocol receiver
//! keeps: which of the `n` block packets have arrived, how many more are
//! needed (`l`, the number a NAK reports in protocol NP), and — once any `k`
//! have been received — the reconstructed data packets.
//!
//! Its size and cost follow what arrived, not the block length: at most
//! `k` arrivals are ever kept, sorted by block index. A receiver of
//! protocol NP runs `h = 255 - k`, and a slot per block packet would cost
//! more to initialise than a small group's payload does to receive.

use bytes::Bytes;

use crate::code::CodeSpec;
use crate::decoder::RseDecoder;
use crate::error::RseError;

/// Result of inserting one packet into a [`GroupDecoder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Packet stored; the group still needs more packets.
    Stored,
    /// Packet stored and the group now has `k` packets — call
    /// [`GroupDecoder::reconstruct`].
    Decodable,
    /// Exact duplicate of an already-received packet; ignored.
    Duplicate,
    /// The group already has `k` packets; the extra packet was discarded
    /// (an "unnecessary reception" in the paper's terminology).
    Unneeded,
}

/// Accumulates packets of one FEC block until the transmission group can be
/// reconstructed.
#[derive(Debug, Clone)]
pub struct GroupDecoder {
    spec: CodeSpec,
    /// The packets kept (at most `k`), ascending by block index.
    arrivals: Vec<(u8, Bytes)>,
    /// How many of `arrivals` are data packets (index below `k`).
    data_received: usize,
    /// Count of discarded packets that arrived after the group was complete.
    unneeded: u64,
}

impl GroupDecoder {
    /// New empty accumulator for one transmission group.
    pub fn new(spec: CodeSpec) -> Self {
        GroupDecoder {
            spec,
            arrivals: Vec::with_capacity(spec.k()),
            data_received: 0,
            unneeded: 0,
        }
    }

    /// Code parameters.
    pub fn spec(&self) -> &CodeSpec {
        &self.spec
    }

    /// Number of distinct packets received so far.
    pub fn received(&self) -> usize {
        self.arrivals.len()
    }

    /// Number of distinct *data* packets received so far.
    pub fn data_received(&self) -> usize {
        self.data_received
    }

    /// Number of *additional* packets needed to decode: `max(0, k - received)`.
    /// This is the `l` a protocol-NP receiver reports in `NAK(i, l)`.
    pub fn needed(&self) -> usize {
        self.spec.k().saturating_sub(self.received())
    }

    /// True once any `k` distinct packets of the block have been received.
    pub fn is_decodable(&self) -> bool {
        self.received() >= self.spec.k()
    }

    /// True if all `k` *data* packets arrived (no decoding work required).
    pub fn all_data_received(&self) -> bool {
        self.data_received == self.spec.k()
    }

    /// Indices of data packets that have not arrived.
    pub fn missing_data(&self) -> Vec<usize> {
        let mut held = self
            .arrivals
            .iter()
            .map(|(i, _)| usize::from(*i))
            .peekable();
        (0..self.spec.k())
            .filter(|i| held.next_if_eq(i).is_none())
            .collect()
    }

    /// Packets that arrived after the group was already decodable
    /// (duplicate/unnecessary receptions — a metric the paper tracks).
    pub fn unneeded_receptions(&self) -> u64 {
        self.unneeded
    }

    /// Insert a packet with FEC-block index `index` (`0..n`).
    ///
    /// # Errors
    /// [`RseError::IndexOutOfRange`] for a bad index,
    /// [`RseError::PacketSizeMismatch`] if the size differs from earlier
    /// packets of this block, [`RseError::DuplicateShare`] on a conflicting
    /// duplicate.
    pub fn insert(&mut self, index: usize, payload: Bytes) -> Result<InsertOutcome, RseError> {
        let n = self.spec.n();
        let key = match u8::try_from(index) {
            Ok(key) if index < n => key,
            _ => return Err(RseError::IndexOutOfRange { index, n }),
        };
        if let Some((_, first)) = self.arrivals.first() {
            if first.len() != payload.len() {
                return Err(RseError::PacketSizeMismatch {
                    expected: first.len(),
                    got: payload.len(),
                });
            }
        }
        // In-order arrival appends; anything else finds its sorted place,
        // which is also where a packet with this index would already be.
        let at = match self.arrivals.last() {
            Some((last, _)) if *last >= key => self.arrivals.partition_point(|(i, _)| *i < key),
            _ => self.arrivals.len(),
        };
        if let Some((_, held)) = self.arrivals.get(at).filter(|(i, _)| *i == key) {
            return if *held == payload {
                Ok(InsertOutcome::Duplicate)
            } else {
                Err(RseError::DuplicateShare { index })
            };
        }
        if self.is_decodable() {
            self.unneeded += 1;
            return Ok(InsertOutcome::Unneeded);
        }
        self.arrivals.insert(at, (key, payload));
        self.data_received += usize::from(index < self.spec.k());
        Ok(if self.is_decodable() {
            InsertOutcome::Decodable
        } else {
            InsertOutcome::Stored
        })
    }

    /// The `k` data packets, if every one of them arrived — no decoder
    /// and no field arithmetic needed (the systematic fast path).
    pub fn data_if_complete(&self) -> Option<Vec<Bytes>> {
        // Storing stops at `k`, so `k` data arrivals are all there is.
        self.all_data_received()
            .then(|| self.arrivals.iter().map(|(_, p)| p.clone()).collect())
    }

    /// Reconstruct the `k` data packets. Those that arrived come back as
    /// the inserted [`Bytes`] (a reference-count bump, same storage); only
    /// the missing ones are computed and allocated, all in one kernel call.
    ///
    /// # Errors
    /// [`RseError::NotEnoughShares`] if fewer than `k` packets have arrived.
    pub fn reconstruct(&self, decoder: &RseDecoder) -> Result<Vec<Bytes>, RseError> {
        if !self.is_decodable() {
            return Err(RseError::NotEnoughShares {
                have: self.received(),
                need: self.spec.k(),
            });
        }
        if let Some(data) = self.data_if_complete() {
            return Ok(data);
        }
        // The arrivals are the selection: `k` distinct packets ascending by
        // block index. All gaps are rebuilt in one kernel call, each into
        // its own packet-sized buffer: a buffer for all `l` would be a
        // large-bin allocation whose free lets the allocator trim the heap
        // and fault the pages back in on the next decode.
        let _span = decoder.span();
        let (k, l) = (self.spec.k(), self.spec.k() - self.data_received);
        let len = self.arrivals.first().map_or(0, |(_, p)| p.len());
        let mut rebuilt = vec![vec![0u8; len]; l];
        let mut outs: Vec<&mut [u8]> = rebuilt.iter_mut().map(Vec::as_mut_slice).collect();
        let selection = self
            .arrivals
            .iter()
            .map(|(i, p)| (usize::from(*i), p.as_ref()));
        decoder.rebuild_into(selection, &mut outs)?;
        let mut rebuilt = rebuilt.into_iter().map(Bytes::from);
        let mut arrived = self.arrivals.iter().peekable();
        (0..k)
            .map(|i| match arrived.next_if(|(j, _)| usize::from(*j) == i) {
                Some((_, payload)) => Ok(payload.clone()),
                None => rebuilt.next().ok_or(RseError::Internal(
                    "one rebuilt packet per missing data index",
                )),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::RseEncoder;

    fn setup(k: usize, h: usize) -> (RseEncoder, RseDecoder, Vec<Bytes>, Vec<Bytes>) {
        let spec = CodeSpec::new(k, h).unwrap();
        let enc = RseEncoder::new(spec).unwrap();
        let dec = RseDecoder::from_encoder(&enc);
        let data: Vec<Bytes> = (0..k)
            .map(|i| {
                Bytes::from(
                    (0..32)
                        .map(|b| ((i * 41 + b * 3) % 256) as u8)
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let parities: Vec<Bytes> = enc
            .encode_all(&data)
            .unwrap()
            .into_iter()
            .map(Bytes::from)
            .collect();
        (enc, dec, data, parities)
    }

    #[test]
    fn happy_path_all_data() {
        let (_, dec, data, _) = setup(4, 2);
        let mut g = GroupDecoder::new(*dec.spec());
        for (i, d) in data.iter().enumerate() {
            let out = g.insert(i, d.clone()).unwrap();
            if i < 3 {
                assert_eq!(out, InsertOutcome::Stored);
                assert_eq!(g.needed(), 4 - i - 1);
            } else {
                assert_eq!(out, InsertOutcome::Decodable);
            }
        }
        assert!(g.all_data_received());
        assert_eq!(g.reconstruct(&dec).unwrap(), data);
    }

    #[test]
    fn parity_fills_loss() {
        let (_, dec, data, parities) = setup(5, 3);
        let mut g = GroupDecoder::new(*dec.spec());
        // Lose data packets 1 and 3.
        for i in [0usize, 2, 4] {
            g.insert(i, data[i].clone()).unwrap();
        }
        assert_eq!(g.missing_data(), vec![1, 3]);
        assert_eq!(g.needed(), 2);
        g.insert(5, parities[0].clone()).unwrap();
        let out = g.insert(6, parities[1].clone()).unwrap();
        assert_eq!(out, InsertOutcome::Decodable);
        assert_eq!(g.reconstruct(&dec).unwrap(), data);
    }

    #[test]
    fn reconstruct_shares_storage_with_arrived_packets() {
        // Arrived packets come back as the inserted Bytes (same storage,
        // no copy); only the two gaps are new allocations.
        let (_, dec, data, parities) = setup(6, 3);
        let mut g = GroupDecoder::new(*dec.spec());
        for i in [0usize, 1, 3, 5] {
            g.insert(i, data[i].clone()).unwrap();
        }
        assert_eq!(g.data_if_complete(), None);
        g.insert(8, parities[2].clone()).unwrap();
        g.insert(6, parities[0].clone()).unwrap();
        let rec = g.reconstruct(&dec).unwrap();
        assert_eq!(rec, data);
        for (i, (got, sent)) in rec.iter().zip(&data).enumerate() {
            let arrived = ![2, 4].contains(&i);
            assert_eq!(got.as_ptr() == sent.as_ptr(), arrived, "packet {i}");
        }
        // Loss-free group: the decoder-less accessor is the whole answer.
        let mut g = GroupDecoder::new(*dec.spec());
        for (i, d) in data.iter().enumerate() {
            g.insert(i, d.clone()).unwrap();
        }
        let all = g.data_if_complete().unwrap();
        assert!(all.iter().zip(&data).all(|(a, b)| a.as_ptr() == b.as_ptr()));
        assert_eq!(g.reconstruct(&dec).unwrap(), all);
    }

    #[test]
    fn duplicates_and_unneeded_are_counted() {
        let (_, dec, data, parities) = setup(3, 2);
        let mut g = GroupDecoder::new(*dec.spec());
        g.insert(0, data[0].clone()).unwrap();
        assert_eq!(
            g.insert(0, data[0].clone()).unwrap(),
            InsertOutcome::Duplicate
        );
        g.insert(1, data[1].clone()).unwrap();
        g.insert(2, data[2].clone()).unwrap();
        assert_eq!(
            g.insert(3, parities[0].clone()).unwrap(),
            InsertOutcome::Unneeded
        );
        assert_eq!(g.unneeded_receptions(), 1);
        assert_eq!(g.received(), 3);
    }

    #[test]
    fn conflicting_duplicate_rejected() {
        let (_, dec, data, parities) = setup(3, 2);
        let mut g = GroupDecoder::new(*dec.spec());
        g.insert(0, data[0].clone()).unwrap();
        assert_eq!(
            g.insert(0, parities[0].clone()).unwrap_err(),
            RseError::DuplicateShare { index: 0 }
        );
    }

    #[test]
    fn premature_reconstruct_errors() {
        let (_, dec, data, _) = setup(4, 1);
        let mut g = GroupDecoder::new(*dec.spec());
        g.insert(0, data[0].clone()).unwrap();
        assert_eq!(
            g.reconstruct(&dec).unwrap_err(),
            RseError::NotEnoughShares { have: 1, need: 4 }
        );
    }

    #[test]
    fn size_mismatch_rejected() {
        let (_, dec, data, _) = setup(3, 1);
        let mut g = GroupDecoder::new(*dec.spec());
        g.insert(0, data[0].clone()).unwrap();
        let bad = Bytes::from(vec![0u8; 7]);
        assert!(matches!(
            g.insert(1, bad),
            Err(RseError::PacketSizeMismatch { .. })
        ));
    }

    #[test]
    fn index_out_of_range_rejected() {
        let (_, dec, _, _) = setup(3, 1);
        let mut g = GroupDecoder::new(*dec.spec());
        assert!(matches!(
            g.insert(4, Bytes::new()),
            Err(RseError::IndexOutOfRange { .. })
        ));
    }
}
