//! Erasure decoder: reconstruct a transmission group from any `k` packets.
//!
//! The code is systematic, so data packets that arrived pass through
//! untouched and only the `l` missing ones are computed. Every packet of
//! the block is a value of one polynomial of degree below `k`
//! (`generator.rs`), so the `k` selected shares determine it: with `M` the
//! missing data indices, `S` those that arrived, `C` the `l` parities
//! chosen to stand in and `R = S ∪ C`, missing packet `m` is the
//! interpolation at its own point,
//!
//! ```text
//! d_m = sum_{r in R} D[m][r] * y_r,   D[m][r] = Q(m) / ((x_m - x_r) * Q(r)),
//! Q(b) = prod_{s in R, s != b} (x_b - x_s)
//! ```
//!
//! `D` is exactly the rows of the full `k x k` selection inverse (Rizzo's
//! scheme) that belong to the missing packets — the inverse is unique —
//! written down rather than solved: `O(k*l)` table lookups from the `k`
//! data weights, with no system, no `l^3` term and no singular case. All
//! `l` missing packets are then one call of the backend's matrix kernel
//! over the `k` selected payloads. A decode costs `O(k*l + l*k*P/W)` for a
//! kernel that does `W` bytes per step, not `O(k^3 + l*k*P)`: the paper's
//! Section 2.1, "the decoding overhead is proportional to `l`" — a lost
//! packet costs `k` multiply-accumulates over the packet.
//!
//! A decoder therefore holds no state that decodes change: its spec, its
//! kernels, the `k` weights and an optional timer. Nothing is remembered
//! between decodes — a loss pattern seen before costs what a new one does,
//! and almost every pattern is new (a receiver under independent loss
//! rarely loses the same positions twice) — so a decoder is `Send + Sync`
//! without a lock, and a clone is a copy of `k` weights.

use pm_obs::{Histogram, SpanTimer};
use pm_simd::{try_kernels, Kernels};

use crate::code::{CodeSpec, MAX_BLOCK};
use crate::encoder::RseEncoder;
use crate::error::RseError;
use crate::generator::Lagrange;

/// A reusable decoder for one [`CodeSpec`].
///
/// Unlike an [`RseEncoder`], a decoder does not write down the generator's
/// `h x k` parity block: a session has one encoder, which uses every row,
/// but R receivers, each of which needs only the rows of its missing
/// packets. Construction computes the `k` Lagrange weights (`O(k^2)`), and
/// each decode writes down its `l x k` decode rows in `O(k*l)`.
#[derive(Debug, Clone)]
pub struct RseDecoder {
    spec: CodeSpec,
    /// The backend-dispatched matrix kernel.
    kernels: &'static Kernels,
    /// The closed form's per-code weights, from which decode rows derive.
    lagrange: Lagrange,
    /// Optional decode-latency histogram (nanoseconds per decode call).
    timer: Option<Histogram>,
}

impl RseDecoder {
    /// Build a decoder for the given code (same generator and kernel
    /// backend as [`RseEncoder::new`] for the spec).
    ///
    /// # Errors
    /// As for [`RseEncoder::new`].
    pub fn new(spec: CodeSpec) -> Result<Self, RseError> {
        Ok(Self::build(spec, try_kernels()?, Lagrange::new(spec.k())))
    }

    /// Build a decoder on the encoder's kernels and Lagrange weights.
    pub fn from_encoder(enc: &RseEncoder) -> Self {
        Self::build(*enc.spec(), enc.kernels(), enc.lagrange().clone())
    }

    fn build(spec: CodeSpec, kernels: &'static Kernels, lagrange: Lagrange) -> Self {
        RseDecoder {
            spec,
            kernels,
            lagrange,
            timer: None,
        }
    }

    /// Record per-call reconstruction latency (nanoseconds) into `hist`. Off
    /// by default so the uninstrumented hot path pays nothing.
    pub fn set_timer(&mut self, hist: Histogram) {
        self.timer = Some(hist);
    }

    /// The code parameters this decoder was built for.
    pub fn spec(&self) -> &CodeSpec {
        &self.spec
    }

    /// Reconstruct and return only the data packets that were missing, as
    /// `(data_index, payload)` pairs ascending by index — nothing that
    /// arrived is copied.
    ///
    /// # Errors
    /// As for [`RseDecoder::decode`].
    pub fn decode_missing<P: AsRef<[u8]>>(
        &self,
        shares: &[(usize, P)],
    ) -> Result<Vec<(usize, Vec<u8>)>, RseError> {
        let _span = self.span();
        let (k, n) = (self.spec.k(), self.spec.n());
        // Deduplicate into per-index slots, validating sizes.
        let mut slots = [None::<&[u8]>; MAX_BLOCK];
        let slots = slots
            .get_mut(..n)
            .ok_or(RseError::Internal("a CodeSpec has n <= MAX_BLOCK"))?;
        let mut payload_len: Option<usize> = None;
        let mut parities: Vec<(usize, &[u8])> = Vec::new();
        for (index, payload) in shares.iter().map(|(i, p)| (*i, p.as_ref())) {
            let slot = slots
                .get_mut(index)
                .ok_or(RseError::IndexOutOfRange { index, n })?;
            match payload_len {
                None => payload_len = Some(payload.len()),
                Some(expected) if expected != payload.len() => {
                    return Err(RseError::PacketSizeMismatch {
                        expected,
                        got: payload.len(),
                    })
                }
                _ => {}
            }
            match *slot {
                None => {
                    *slot = Some(payload);
                    if index >= k {
                        parities.push((index, payload));
                    }
                }
                Some(existing) if existing == payload => {} // exact duplicate
                Some(_) => return Err(RseError::DuplicateShare { index }),
            }
        }

        let have = slots.iter().flatten().count();
        if have < k {
            return Err(RseError::NotEnoughShares { have, need: k });
        }
        let len = payload_len.unwrap_or(0);

        let data_slots = slots.get(..k).unwrap_or(slots);
        let missing: Vec<usize> = data_slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.is_none().then_some(i))
            .collect();
        if missing.is_empty() {
            return Ok(Vec::new());
        }

        // Selected shares: the data packets that arrived plus the first `l`
        // parities supplied (`have >= k`: there are that many), sorted so
        // that one share *set* always yields one set of decode rows.
        parities.truncate(missing.len());
        parities.sort_unstable_by_key(|&(index, _)| index);
        let arrived = data_slots.iter().enumerate();
        let arrived = arrived.filter_map(|(i, s)| s.map(|payload| (i, payload)));
        let mut rebuilt = vec![vec![0u8; len]; missing.len()];
        let mut outs: Vec<&mut [u8]> = rebuilt.iter_mut().map(Vec::as_mut_slice).collect();
        self.rebuild_into(arrived.chain(parities), &mut outs)?;
        Ok(missing.into_iter().zip(rebuilt).collect())
    }

    /// A decode's span on the timer, when one is set.
    pub(crate) fn span(&self) -> Option<SpanTimer<'_>> {
        self.timer.as_ref().map(SpanTimer::start)
    }

    /// Accumulate into `outs` — zeroed, one per missing data index
    /// ascending, each as long as a share — the data packets missing from
    /// `selection`: exactly `k` distinct shares of one length, ascending by
    /// block index, so the data that arrived and then the `l` parities
    /// chosen to stand in. `d_M = D * y` for all `l` missing packets is one
    /// matrix-kernel call over the selection's payloads.
    pub(crate) fn rebuild_into<'s>(
        &self,
        selection: impl IntoIterator<Item = (usize, &'s [u8])>,
        outs: &mut [&mut [u8]],
    ) -> Result<(), RseError> {
        let k = self.spec.k();
        let mut sources = [&[][..]; MAX_BLOCK];
        let (mut missing, mut chosen) = ([0usize; MAX_BLOCK], [0usize; MAX_BLOCK]);
        let (mut selected, mut l, mut c, mut next_data) = (0, 0, 0, 0);
        for ((index, payload), source) in selection.into_iter().zip(sources.iter_mut()) {
            *source = payload;
            selected += 1;
            if index < k {
                for (slot, m) in missing.iter_mut().skip(l).zip(next_data..index) {
                    (*slot, l) = (m, l + 1);
                }
                next_data = index + 1;
            } else if let Some(slot) = chosen.get_mut(c) {
                (*slot, c) = (index, c + 1);
            }
        }
        for (slot, m) in missing.iter_mut().skip(l).zip(next_data..k) {
            (*slot, l) = (m, l + 1);
        }
        if selected != k || c != l || outs.len() != l {
            return Err(RseError::Internal(
                "a selection is k shares, l of them parities, and one output per gap",
            ));
        }
        if l == 0 {
            return Ok(());
        }
        let (missing, chosen) = (missing.get(..l), chosen.get(..l));
        let (missing, chosen) = (missing.unwrap_or_default(), chosen.unwrap_or_default());
        let rows = self.lagrange.rows(missing, chosen, missing);
        let sources = sources.get(..k).unwrap_or_default();
        self.kernels.mul_add_multi_rows(&rows, sources, outs);
        Ok(())
    }

    /// Reconstruct all `k` data packets from `shares` — `(block_index,
    /// payload)` pairs, where indices `0..k` are data and `k..n` parities.
    ///
    /// Exact duplicates are tolerated and ignored; conflicting duplicates
    /// are an error. Extra shares beyond `k` are ignored (data shares are
    /// preferred, then parities in the order supplied).
    ///
    /// # Errors
    /// [`RseError::NotEnoughShares`] with fewer than `k` distinct shares,
    /// plus the usual validation errors.
    pub fn decode<P: AsRef<[u8]>>(&self, shares: &[(usize, P)]) -> Result<Vec<Vec<u8>>, RseError> {
        let k = self.spec.k();
        let rebuilt = self.decode_missing(shares)?;
        let arrived = shares.iter().filter(|(index, _)| *index < k);
        let arrived = arrived.map(|(index, payload)| (*index, payload.as_ref().to_vec()));
        let mut out = vec![Vec::new(); k];
        for (index, payload) in arrived.chain(rebuilt) {
            if let Some(slot) = out.get_mut(index) {
                *slot = payload;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|b| ((i * 97 + b * 31 + 5) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    fn codec(k: usize, h: usize) -> (RseEncoder, RseDecoder, Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let spec = CodeSpec::new(k, h).unwrap();
        let enc = RseEncoder::new(spec).unwrap();
        let dec = RseDecoder::from_encoder(&enc);
        let data = group(k, 48);
        let parities = enc.encode_all(&data).unwrap();
        (enc, dec, data, parities)
    }

    #[test]
    fn all_data_received_fast_path() {
        for (k, h) in [(7, 3), (6, 2)] {
            let (_, dec, data, _) = codec(k, h);
            let shares: Vec<(usize, &[u8])> =
                data.iter().enumerate().map(|(i, d)| (i, &d[..])).collect();
            assert_eq!(dec.decode(&shares).unwrap(), data);
            assert!(dec.decode_missing(&shares).unwrap().is_empty());
        }
    }

    #[test]
    fn recover_from_each_single_loss() {
        let (_, dec, data, parities) = codec(7, 3);
        for lost in 0..7 {
            let mut shares: Vec<(usize, &[u8])> = data
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != lost)
                .map(|(i, d)| (i, &d[..]))
                .collect();
            shares.push((7, &parities[0][..]));
            let decoded = dec.decode(&shares).unwrap();
            assert_eq!(decoded, data, "lost packet {lost}");
            let missing = dec.decode_missing(&shares).unwrap();
            assert_eq!(missing, vec![(lost, data[lost].clone())]);
        }
    }

    #[test]
    fn recover_from_maximum_loss() {
        // Lose all h = 3 data packets; recover from k-3 data + 3 parities.
        let (_, dec, data, parities) = codec(7, 3);
        let mut shares: Vec<(usize, &[u8])> = (3..7).map(|i| (i, &data[i][..])).collect();
        for (j, p) in parities.iter().enumerate() {
            shares.push((7 + j, &p[..]));
        }
        assert_eq!(dec.decode(&shares).unwrap(), data);
    }

    #[test]
    fn parity_only_decoding() {
        // k parities, zero data packets: still reconstructs (pure Vandermonde
        // inversion, no systematic fast path at all).
        let (_, dec, data, parities) = codec(4, 4);
        let shares: Vec<(usize, &[u8])> = parities
            .iter()
            .enumerate()
            .map(|(j, p)| (4 + j, &p[..]))
            .collect();
        assert_eq!(dec.decode(&shares).unwrap(), data);
    }

    #[test]
    fn arbitrary_parity_subset_works() {
        // Any k of the n packets suffice — try scattered combinations.
        let (_, dec, data, parities) = codec(5, 5);
        let combos: [&[usize]; 4] = [
            &[0, 2, 4, 6, 8],
            &[1, 3, 5, 7, 9],
            &[0, 1, 7, 8, 9],
            &[4, 5, 6, 7, 8],
        ];
        for idxs in combos {
            let shares: Vec<(usize, &[u8])> = idxs
                .iter()
                .map(|&i| {
                    if i < 5 {
                        (i, &data[i][..])
                    } else {
                        (i, &parities[i - 5][..])
                    }
                })
                .collect();
            assert_eq!(dec.decode(&shares).unwrap(), data, "indices {idxs:?}");
        }
    }

    #[test]
    fn not_enough_shares_error() {
        let (_, dec, data, _) = codec(7, 3);
        let shares: Vec<(usize, &[u8])> = (0..6).map(|i| (i, &data[i][..])).collect();
        assert_eq!(
            dec.decode(&shares).unwrap_err(),
            RseError::NotEnoughShares { have: 6, need: 7 }
        );
    }

    #[test]
    fn exact_duplicates_ignored_conflicts_rejected() {
        let (_, dec, data, parities) = codec(3, 2);
        let mut shares: Vec<(usize, &[u8])> = vec![
            (0, &data[0][..]),
            (0, &data[0][..]), // exact duplicate: fine
            (1, &data[1][..]),
            (3, &parities[0][..]),
        ];
        assert_eq!(dec.decode(&shares).unwrap(), data);
        let conflicting = parities[1].clone();
        shares.push((0, &conflicting[..]));
        assert_eq!(
            dec.decode(&shares).unwrap_err(),
            RseError::DuplicateShare { index: 0 }
        );
    }

    #[test]
    fn index_and_size_validation() {
        let (_, dec, data, _) = codec(3, 2);
        let bad = vec![(9usize, &data[0][..])];
        assert_eq!(
            dec.decode(&bad).unwrap_err(),
            RseError::IndexOutOfRange { index: 9, n: 5 }
        );
        let short = [0u8; 5];
        let ragged: Vec<(usize, &[u8])> = vec![(0, &data[0][..]), (1, &short[..])];
        assert!(matches!(
            dec.decode(&ragged),
            Err(RseError::PacketSizeMismatch { .. })
        ));
    }

    #[test]
    fn extra_shares_beyond_k_are_ignored() {
        let (_, dec, data, parities) = codec(4, 3);
        // Send everything: 4 data + 3 parities = 7 shares for k = 4.
        let mut shares: Vec<(usize, &[u8])> =
            data.iter().enumerate().map(|(i, d)| (i, &d[..])).collect();
        for (j, p) in parities.iter().enumerate() {
            shares.push((4 + j, &p[..]));
        }
        assert_eq!(dec.decode(&shares).unwrap(), data);
    }

    #[test]
    fn large_group_roundtrip() {
        // Paper-size group: k = 100 with a burst of 7 losses.
        let (_, dec, data, parities) = codec(100, 7);
        let mut shares: Vec<(usize, &[u8])> = data
            .iter()
            .enumerate()
            .filter(|(i, _)| !(40..47).contains(i))
            .map(|(i, d)| (i, &d[..]))
            .collect();
        for (j, p) in parities.iter().enumerate() {
            shares.push((100 + j, &p[..]));
        }
        assert_eq!(dec.decode(&shares).unwrap(), data);
    }

    #[test]
    fn zero_length_packets_decode() {
        // Degenerate payloads: losses are "recovered" as empty packets
        // without arithmetic; no panic, correct shape.
        let (_, dec, _, _) = codec(4, 2);
        let empty: Vec<u8> = vec![];
        let shares: Vec<(usize, &[u8])> = vec![
            (0, &empty[..]),
            (1, &empty[..]),
            (4, &empty[..]),
            (5, &empty[..]),
        ];
        let out = dec.decode(&shares).unwrap();
        assert_eq!(out, vec![Vec::<u8>::new(); 4]);
        let missing = dec.decode_missing(&shares).unwrap();
        assert_eq!(missing, vec![(2, vec![]), (3, vec![])]);
    }

    #[test]
    fn reordered_shares_decode_alike() {
        // Same share *set*, different parity arrival order: the canonical
        // selection gives both one set of decode rows.
        let (_, dec, data, parities) = codec(5, 3);
        let fwd: Vec<(usize, &[u8])> = vec![
            (2, &data[2][..]),
            (3, &data[3][..]),
            (4, &data[4][..]),
            (5, &parities[0][..]),
            (6, &parities[1][..]),
        ];
        let mut rev = fwd.clone();
        rev.reverse();
        assert_eq!(dec.decode(&fwd).unwrap(), data);
        assert_eq!(dec.decode(&rev).unwrap(), data);
        assert_eq!(
            dec.decode_missing(&fwd).unwrap(),
            dec.decode_missing(&rev).unwrap()
        );
    }

    #[test]
    fn every_single_loss_pattern_decodes() {
        let (_, dec, data, parities) = codec(20, 1);
        for lost in 0..20usize {
            let mut shares: Vec<(usize, &[u8])> = data
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != lost)
                .map(|(i, d)| (i, &d[..]))
                .collect();
            shares.push((20, &parities[0][..]));
            assert_eq!(dec.decode(&shares).unwrap(), data, "lost {lost}");
        }
    }

    /// A decoder is shared by reference across threads and copied freely.
    const _: fn() = || {
        fn shareable<T: Send + Sync + Clone>() {}
        shareable::<RseDecoder>();
    };

    #[test]
    fn a_clone_decodes_alike() {
        let (_, dec, data, parities) = codec(3, 1);
        let shares: Vec<(usize, &[u8])> =
            vec![(0, &data[0][..]), (1, &data[1][..]), (3, &parities[0][..])];
        assert_eq!(dec.decode(&shares).unwrap(), data);
        assert_eq!(dec.clone().decode(&shares).unwrap(), data);
    }

    #[test]
    fn the_first_l_parities_offered_stand_in() {
        let (_, dec, data, parities) = codec(7, 248);
        let garbage = [0xA5; 48];
        let shares = |lost: [usize; 2], offered: [usize; 3]| -> Vec<(usize, &[u8])> {
            let arrived = (0..7).filter(|i| !lost.contains(i));
            let arrived = arrived.map(|i| (i, &data[i][..]));
            // The third parity offered is never read: it carries garbage.
            let payload = |(n, j): (usize, usize)| {
                (
                    7 + j,
                    if n < 2 {
                        &parities[j][..]
                    } else {
                        &garbage[..]
                    },
                )
            };
            arrived
                .chain(offered.into_iter().enumerate().map(payload))
                .collect()
        };
        // Two losses: the first two parities supplied stand in.
        assert_eq!(dec.decode(&shares([1, 4], [20, 9, 30])).unwrap(), data);
        assert_eq!(dec.decode(&shares([1, 4], [9, 20, 30])).unwrap(), data);
        assert_eq!(dec.decode(&shares([0, 6], [30, 20, 9])).unwrap(), data);
    }

    #[test]
    fn new_equals_from_encoder() {
        let spec = CodeSpec::new(6, 4).unwrap();
        let enc = RseEncoder::new(spec).unwrap();
        let d1 = RseDecoder::new(spec).unwrap();
        let d2 = RseDecoder::from_encoder(&enc);
        let data = group(6, 16);
        let parities = enc.encode_all(&data).unwrap();
        let shares: Vec<(usize, &[u8])> = vec![
            (2, &data[2][..]),
            (3, &data[3][..]),
            (6, &parities[0][..]),
            (7, &parities[1][..]),
            (8, &parities[2][..]),
            (9, &parities[3][..]),
        ];
        assert_eq!(d1.decode(&shares).unwrap(), d2.decode(&shares).unwrap());
    }
}
