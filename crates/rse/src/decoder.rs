//! Erasure decoder: reconstruct a transmission group from any `k` packets.
//!
//! The code is systematic, so data packets that arrived pass through
//! untouched and only the `l` missing ones are computed. With `M` the
//! missing data indices, `S` those that arrived, `C` the `l` parities
//! chosen to stand in and `P` the generator's parity block,
//! `y_C = P[C,S] * d_S + P[C,M] * d_M`, hence
//!
//! ```text
//! d_M = A^-1 * [ P[C,S] | I_l ] * [ d_S ; y_C ],   A = P[C,M]  (l x l)
//! ```
//!
//! Only `A` is inverted. `D = A^-1 * [P[C,S] | I_l]` is exactly the rows of
//! the full `k x k` selection inverse (Rizzo's scheme) that belong to the
//! missing packets — the inverse is unique — and each missing packet is one
//! batched multiply-accumulate pass over the `k` selected payloads. A decode
//! costs `O(l^3 + l^2*k + l*k*P)`, not `O(k^3 + l*k*P)`: the paper's
//! Section 2.1, "the decoding overhead is proportional to `l`".
//!
//! Loss patterns repeat: a receiver behind one lossy link tends to lose the
//! same packet positions group after group (and the all-parity carousel
//! case always selects the same rows). The decoder therefore memoises `D`
//! in a small LRU cache keyed by the *selection bitmask* (which block
//! indices supplied the `k` equations); a repeat pattern skips the solve.

use pm_gf::{Gf256, Matrix};
use pm_obs::{Counter, Histogram, SpanTimer};
use pm_simd::{try_kernels, Kernels};

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::code::{CodeSpec, MAX_BLOCK};
use crate::encoder::RseEncoder;
use crate::error::RseError;
use crate::generator;

/// Bitmask over the `n <= 255` block indices of the `k` selected shares —
/// the loss-pattern cache key.
type PatternKey = [u64; 4];

/// Retained decode rows. Each entry is `l * (k + l)` bytes (at most
/// `2 * k^2`, 127 KB at the GF(2^8) block limit, for a parity-only decode);
/// 16 entries cover far more distinct loss patterns than one receiver sees
/// in practice.
const INVERSE_CACHE_CAP: usize = 16;

/// MRU-first LRU of `(selection bitmask, decode rows)`.
#[derive(Debug, Default)]
struct PatternCache(Mutex<Vec<(PatternKey, Arc<Matrix>)>>);

impl Clone for PatternCache {
    /// A list of its own over the same rows (immutable behind `Arc`).
    fn clone(&self) -> Self {
        PatternCache(Mutex::new(self.entries().clone()))
    }
}

impl PatternCache {
    /// A poisoned lock is taken over: every update is one `Vec` operation
    /// on complete entries, so a panic cannot leave the list half-written.
    fn entries(&self) -> MutexGuard<'_, Vec<(PatternKey, Arc<Matrix>)>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The rows memoised for `key`, which becomes the most recent entry.
    fn get(&self, key: &PatternKey) -> Option<Arc<Matrix>> {
        let mut entries = self.entries();
        let pos = entries.iter().position(|(k2, _)| k2 == key)?;
        let hit = entries.remove(pos);
        let rows = Arc::clone(&hit.1);
        entries.insert(0, hit);
        Some(rows)
    }

    /// Memoise `rows` (unless a racing decoder did), evicting beyond the cap.
    fn put(&self, key: PatternKey, rows: &Arc<Matrix>) {
        let mut entries = self.entries();
        if !entries.iter().any(|(k2, _)| *k2 == key) {
            entries.insert(0, (key, Arc::clone(rows)));
            entries.truncate(INVERSE_CACHE_CAP);
        }
    }
}

/// Point-in-time view of the inverse-cache effectiveness counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Decodes served by memoised decode rows.
    pub hits: u64,
    /// Decodes that had to solve a fresh loss pattern.
    pub misses: u64,
}

/// A reusable decoder for one [`CodeSpec`]. It owns its copy of the
/// generator's parity block — written down in closed form, so there is no
/// shared generator cache to build one from (see [`RseEncoder`]).
#[derive(Debug, Clone)]
pub struct RseDecoder {
    spec: CodeSpec,
    /// Backend-dispatched slice kernels.
    kernels: &'static Kernels,
    /// Parity rows of the systematic generator, `h x k` (dummy 1 x k if h=0).
    parity_rows: Matrix,
    /// Decode rows per loss pattern; a clone starts from a copy of the list.
    inverse_cache: PatternCache,
    /// Lifetime cache-hit count, shared across clones.
    cache_hits: Counter,
    /// Lifetime cache-miss (fresh solve) count, shared across clones.
    cache_misses: Counter,
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
        let parity_rows = generator::parity_rows(&spec)?;
        Ok(Self::build(spec, try_kernels()?, parity_rows))
    }

    /// Build a decoder on the encoder's kernels, copying its parity block.
    pub fn from_encoder(enc: &RseEncoder) -> Self {
        Self::build(*enc.spec(), enc.kernels(), enc.parity_rows().clone())
    }

    fn build(spec: CodeSpec, kernels: &'static Kernels, parity_rows: Matrix) -> Self {
        RseDecoder {
            spec,
            kernels,
            parity_rows,
            inverse_cache: PatternCache::default(),
            cache_hits: Counter::new(),
            cache_misses: Counter::new(),
            timer: None,
        }
    }

    /// Number of loss patterns whose decode rows are currently memoised.
    pub fn cached_inverses(&self) -> usize {
        self.inverse_cache.entries().len()
    }

    /// Lifetime inverse-cache hit/miss counts (shared across clones; the
    /// systematic no-loss fast path touches neither).
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.cache_hits.get(),
            misses: self.cache_misses.get(),
        }
    }

    /// Record per-call reconstruction latency (nanoseconds) into `hist`. Off
    /// by default so the uninstrumented hot path pays nothing.
    pub fn set_timer(&mut self, hist: Histogram) {
        self.timer = Some(hist);
    }

    /// The decode rows for one loss pattern, from the LRU cache when it has
    /// been decoded before: `l x (k + l)`, one row per `missing` packet, one
    /// column per data index (a missing packet's column is dead: no payload
    /// meets it), then one per `chosen` parity share. Both lists must be
    /// ascending, so that one share *set* has one key and one set of rows.
    #[expect(
        clippy::indexing_slicing,
        reason = "from_fn passes c < l = chosen.len() and m < l = missing.len()"
    )]
    fn inverse_for<T>(
        &self,
        missing: &[usize],
        chosen: &[(usize, T)],
    ) -> Result<Arc<Matrix>, RseError> {
        let k = self.spec.k();
        let arrived = (0..k).filter(|i| missing.binary_search(i).is_err());
        let mut key: PatternKey = [0; 4];
        for i in arrived.chain(chosen.iter().map(|c| c.0)) {
            if let Some(word) = key.get_mut(i / 64) {
                *word |= 1 << (i % 64);
            }
        }
        if let Some(rows) = self.inverse_cache.get(&key) {
            self.cache_hits.inc();
            return Ok(rows);
        }
        self.cache_misses.inc();

        // Solve outside the lock: decoders racing on different patterns
        // must not serialize. A = P[C,M]; rows = A^-1 * [P[C,:] | I_l].
        let l = missing.len();
        let p = |c: usize, i: usize| self.parity_rows[(chosen[c].0 - k, i)];
        let a = Matrix::from_fn(l, l, |c, m| p(c, missing[m]));
        let b = Matrix::from_fn(l, k + l, |c, j| match j.checked_sub(k) {
            None => p(c, j),
            Some(parity) if parity == c => Gf256::ONE,
            Some(_) => Gf256::ZERO,
        });
        let rows = Arc::new(a.invert()?.mul(&b)?);
        self.inverse_cache.put(key, &rows);
        Ok(rows)
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
        let _span = self.timer.as_ref().map(SpanTimer::start);
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
        let mut rebuilt = Vec::with_capacity(missing.len());
        if missing.is_empty() {
            return Ok(rebuilt);
        }

        // Selected shares: the data packets that arrived plus the first `l`
        // parities supplied (`have >= k`: there are that many), sorted so
        // that one share *set* always yields one selection and cache key.
        parities.truncate(missing.len());
        parities.sort_unstable_by_key(|&(index, _)| index);
        let rows = self.inverse_for(&missing, &parities)?;

        // d_i = sum_j rows[i][j] * y_j, each missing packet as one batched
        // multi-source pass (up to four shares per read-modify-write of the
        // output). One source buffer is reused across rows.
        let selected = || {
            let chosen = parities.iter().map(|&(_, payload)| Some(payload));
            data_slots.iter().copied().chain(chosen)
        };
        let mut sources: Vec<(Gf256, &[u8])> = Vec::with_capacity(k);
        for (r, &i) in missing.iter().enumerate() {
            sources.clear();
            sources.extend(
                rows.row(r)
                    .iter()
                    .zip(selected())
                    .filter_map(|(&c, payload)| Some((c, payload?))),
            );
            let mut out = vec![0u8; len];
            self.kernels.mul_add_multi(&sources, &mut out);
            rebuilt.push((i, out));
        }
        Ok(rebuilt)
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
        let (_, dec, data, _) = codec(7, 3);
        let shares: Vec<(usize, &[u8])> =
            data.iter().enumerate().map(|(i, d)| (i, &d[..])).collect();
        assert_eq!(dec.decode(&shares).unwrap(), data);
        assert!(dec.decode_missing(&shares).unwrap().is_empty());
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
    fn inverse_cache_reused_across_parity_order() {
        // Same share *set*, different parity arrival order: the canonical
        // selection must map both onto one cache entry.
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
        assert_eq!(dec.cached_inverses(), 1);
        assert_eq!(dec.decode(&rev).unwrap(), data);
        assert_eq!(dec.cached_inverses(), 1, "reordered shares reuse the entry");
        assert_eq!(dec.cache_stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn inverse_cache_capacity_bounded() {
        // More distinct single-loss patterns than the cache holds: evicts,
        // never grows past the cap, and every decode is still correct.
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
        assert!(dec.cached_inverses() <= 16, "LRU respects its capacity");
        assert!(dec.cached_inverses() > 0);
    }

    #[test]
    fn all_data_fast_path_skips_cache() {
        let (_, dec, data, _) = codec(6, 2);
        let shares: Vec<(usize, &[u8])> =
            data.iter().enumerate().map(|(i, d)| (i, &d[..])).collect();
        assert_eq!(dec.decode(&shares).unwrap(), data);
        assert_eq!(dec.cached_inverses(), 0, "no inversion, no cache entry");
        assert_eq!(dec.cache_stats(), CacheStats::default());
    }

    #[test]
    fn clone_shares_cached_inverses() {
        let (_, dec, data, parities) = codec(3, 1);
        let shares: Vec<(usize, &[u8])> =
            vec![(0, &data[0][..]), (1, &data[1][..]), (3, &parities[0][..])];
        dec.decode(&shares).unwrap();
        let cloned = dec.clone();
        assert_eq!(cloned.cached_inverses(), 1);
        assert_eq!(cloned.decode(&shares).unwrap(), data);
        // Hit/miss counters are one shared cell across clones.
        assert_eq!(dec.cache_stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cloned.cache_stats(), dec.cache_stats());
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
