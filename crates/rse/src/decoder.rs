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
//! Only `A` is inverted, by scalar Gauss–Jordan in `O(l^3)`. `D = A^-1 *
//! [P[C,S] | I_l]` is exactly the rows of the full `k x k` selection
//! inverse (Rizzo's scheme) that belong to the missing packets — the
//! inverse is unique. The product itself runs on the slice kernels: the `l`
//! rows of `[P[C,S] | I_l]` are `k`-byte "packets" and `A^-1` the
//! coefficient matrix, one call of the backend's matrix kernel. All `l`
//! missing packets are then one more matrix-kernel call over the `k`
//! selected payloads. A decode costs `O(l^3 + l*k*P/W)` for a kernel that
//! does `W` bytes per step (the `l^2*k` product is the same kernel at
//! `P = l`), not `O(k^3 + l*k*P)`: the paper's Section 2.1, "the decoding
//! overhead is proportional to `l`" — a lost packet costs `k`
//! multiply-accumulates over the packet.
//!
//! Loss patterns repeat: a receiver behind one lossy link tends to lose the
//! same packet positions group after group (and the all-parity carousel
//! case always selects the same rows). The decoder therefore memoises `D`
//! in a small LRU cache keyed by the *selection bitmask* (which block
//! indices supplied the `k` equations); a repeat pattern skips the solve.
//! `D` is kept as plain coefficients: the kernels look each one's tables
//! up in pm-simd's process-wide caches, so no decode builds any.
//!
//! `P` itself is never written down whole. A receiver uses the rows of the
//! few parities that stood in for its losses — one or two of `h = 248` at
//! `k = 7` — so the decoder keeps only the `k` Lagrange weights of the
//! closed form (`generator.rs`) and derives a parity's row, in `O(k)`, the
//! first time a loss pattern chooses it. Rows derived once are kept: the
//! list is bounded by the parities that arrived.

use pm_gf::{Gf256, Matrix};
use pm_obs::{Counter, Histogram, SpanTimer};
use pm_simd::{try_kernels, Kernels};

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::code::{CodeSpec, MAX_BLOCK};
use crate::encoder::RseEncoder;
use crate::error::RseError;
use crate::generator::Lagrange;

/// Bitmask over the `n <= 255` block indices of the `k` selected shares —
/// the loss-pattern cache key.
type PatternKey = [u64; 4];

/// One loss pattern's decode rows, `l x k` row-major: one row per missing
/// packet, one column per selected share (the data packets that arrived,
/// ascending, then the chosen parities, ascending).
type DecodeRows = Arc<Vec<Gf256>>;

/// Retained decode rows. Each entry is `l * k` bytes (at most 64 KB, for a
/// parity-only decode at the GF(2^8) block limit); 16 entries cover far
/// more distinct loss patterns than one receiver sees in practice.
const INVERSE_CACHE_CAP: usize = 16;

/// What a decoder has worked out so far.
#[derive(Debug, Default, Clone)]
struct Memo {
    /// MRU-first LRU of `(selection bitmask, decode rows)`; a clone shares
    /// the rows (immutable behind `Arc`).
    patterns: Vec<(PatternKey, DecodeRows)>,
    /// Block indices of the generator parity rows derived so far, in the
    /// order they were first chosen.
    derived: Vec<usize>,
    /// Their coefficients, `k` per row: `derived[i]`'s row starts at `i * k`.
    coeffs: Vec<Gf256>,
}

impl Memo {
    /// The rows memoised for `key`, which becomes the most recent entry.
    fn get(&mut self, key: &PatternKey) -> Option<DecodeRows> {
        let pos = self.patterns.iter().position(|(k2, _)| k2 == key)?;
        let hit = self.patterns.remove(pos);
        let rows = Arc::clone(&hit.1);
        self.patterns.insert(0, hit);
        Some(rows)
    }

    /// Memoise `rows` (unless a racing decoder did), evicting beyond the cap.
    fn put(&mut self, key: PatternKey, rows: &DecodeRows) {
        if !self.patterns.iter().any(|(k2, _)| *k2 == key) {
            self.patterns.insert(0, (key, Arc::clone(rows)));
            self.patterns.truncate(INVERSE_CACHE_CAP);
        }
    }

    /// Where parity row `r`'s coefficients start in `coeffs`, deriving the
    /// row the first time it is asked for.
    fn row_at(&mut self, r: usize, lagrange: &Lagrange) -> Result<usize, RseError> {
        if let Some(i) = self.derived.iter().position(|&d| d == r) {
            return Ok(i * lagrange.k());
        }
        let start = self.coeffs.len();
        if let Err(e) = lagrange.row_into(r, &mut self.coeffs) {
            self.coeffs.truncate(start);
            return Err(e);
        }
        self.derived.push(r);
        Ok(start)
    }
}

/// A decoder's [`Memo`], behind one lock: decodes run through `&self`, from
/// any thread.
#[derive(Debug, Default)]
struct SharedMemo(Mutex<Memo>);

impl Clone for SharedMemo {
    /// A memo of its own, starting from a copy.
    fn clone(&self) -> Self {
        SharedMemo(Mutex::new(self.lock().clone()))
    }
}

impl SharedMemo {
    /// A poisoned lock is taken over: every update leaves complete entries
    /// (a failed derivation truncates what it appended), so a panic cannot
    /// leave the memo half-written.
    fn lock(&self) -> MutexGuard<'_, Memo> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
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

/// A reusable decoder for one [`CodeSpec`].
///
/// There is no shared generator cache, and, unlike an [`RseEncoder`], a
/// decoder does not build the generator's `h x k` parity block either. A
/// session has one encoder, which uses every row, but R receivers, each of
/// which uses the few rows its losses chose. Construction computes the `k`
/// Lagrange weights (`O(k^2)`), and each parity row is derived in `O(k)` the
/// first time a loss pattern needs it, then kept.
#[derive(Debug, Clone)]
pub struct RseDecoder {
    spec: CodeSpec,
    /// Backend-dispatched slice kernels.
    kernels: &'static Kernels,
    /// The closed form's per-code weights, from which parity rows derive.
    lagrange: Lagrange,
    /// Decode rows per loss pattern and the parity rows derived so far; a
    /// clone starts from a copy.
    memo: SharedMemo,
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
        let lagrange = Lagrange::new(spec.k())?;
        Ok(Self::build(spec, try_kernels()?, lagrange))
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
            memo: SharedMemo::default(),
            cache_hits: Counter::new(),
            cache_misses: Counter::new(),
            timer: None,
        }
    }

    /// Number of loss patterns whose decode rows are currently memoised.
    pub fn cached_inverses(&self) -> usize {
        self.memo.lock().patterns.len()
    }

    /// Block indices of the parity rows derived so far, ascending.
    #[cfg(test)]
    fn derived_rows(&self) -> Vec<usize> {
        let mut derived = self.memo.lock().derived.clone();
        derived.sort_unstable();
        derived
    }

    /// Generator row `r` (`k <= r < n`) as the decoder derives it.
    #[cfg(test)]
    pub(crate) fn parity_row(&self, r: usize) -> Result<Vec<Gf256>, RseError> {
        let mut memo = self.memo.lock();
        let at = memo.row_at(r, &self.lagrange)?;
        Ok(memo.coeffs[at..at + self.spec.k()].to_vec())
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
    /// been decoded before: `l x k`, one row per `missing` packet, one
    /// column per selected share — the data packets that arrived, then the
    /// `chosen` parities. Both lists must be ascending, so that one share
    /// *set* has one key and one set of rows.
    #[expect(
        clippy::indexing_slicing,
        reason = "row_at placed k coefficients at each at[c]; c < l = p.len(), and \
                  missing holds ascending data indices < k"
    )]
    fn inverse_for<T>(
        &self,
        missing: &[usize],
        chosen: &[(usize, T)],
    ) -> Result<DecodeRows, RseError> {
        let k = self.spec.k();
        // Every data index, toggled off again for each missing one, and the
        // chosen parities: the selected share set (each index is distinct).
        let mut key: PatternKey = [0; 4];
        let toggled = missing.iter().copied().chain(chosen.iter().map(|c| c.0));
        for i in (0..k).chain(toggled) {
            if let Some(word) = key.get_mut(i / 64) {
                *word ^= 1 << (i % 64);
            }
        }
        let mut memo = self.memo.lock();
        if let Some(rows) = memo.get(&key) {
            self.cache_hits.inc();
            return Ok(rows);
        }
        self.cache_misses.inc();

        // A = P[C,M], and B = [P[C,S] | I_l] as l rows of k bytes.
        let l = missing.len();
        let at = chosen
            .iter()
            .map(|c| memo.row_at(c.0, &self.lagrange))
            .collect::<Result<Vec<_>, _>>()?;
        let p: Vec<&[Gf256]> = at
            .iter()
            .map(|&start| &memo.coeffs[start..start + k])
            .collect();
        let a = Matrix::from_fn(l, l, |c, m| p[c][missing[m]]);
        let mut b = Vec::with_capacity(l * k);
        for (c, p_c) in p.iter().enumerate() {
            // The arrived columns are the runs between missing indices.
            let mut from = 0;
            for &m in missing.iter().chain([&k]) {
                b.extend(p_c[from..m].iter().map(|v| v.0));
                from = m + 1;
            }
            b.extend((0..l).map(|j| u8::from(j == c)));
        }
        // Solve outside the lock: decoders racing on different patterns
        // must not serialize. D = A^-1 * B is a matrix-kernel call with B's
        // rows as the packets.
        drop(memo);
        let a_inv = a.invert()?;
        let a_inv: Vec<Gf256> = (0..l).flat_map(|r| a_inv.row(r)).copied().collect();
        let mut d = vec![0u8; l * k];
        let sources: Vec<&[u8]> = b.chunks_exact(k).collect();
        let mut outs: Vec<&mut [u8]> = d.chunks_exact_mut(k).collect();
        self.kernels.mul_add_multi_rows(&a_inv, &sources, &mut outs);
        let rows = Arc::new(d.into_iter().map(Gf256).collect());
        self.memo.lock().put(key, &rows);
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
        if missing.is_empty() {
            return Ok(Vec::new());
        }

        // Selected shares: the data packets that arrived plus the first `l`
        // parities supplied (`have >= k`: there are that many), sorted so
        // that one share *set* always yields one selection and cache key.
        parities.truncate(missing.len());
        parities.sort_unstable_by_key(|&(index, _)| index);
        let rows = self.inverse_for(&missing, &parities)?;

        // d_M = D * y over the selected shares, all l missing packets in one
        // matrix-kernel call.
        let chosen = parities.iter().map(|&(_, payload)| payload);
        let sources: Vec<&[u8]> = data_slots.iter().flatten().copied().chain(chosen).collect();
        let mut rebuilt: Vec<(usize, Vec<u8>)> =
            missing.iter().map(|&i| (i, vec![0u8; len])).collect();
        let mut outs: Vec<&mut [u8]> = rebuilt.iter_mut().map(|(_, out)| &mut out[..]).collect();
        self.kernels.mul_add_multi_rows(&rows, &sources, &mut outs);
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
    fn a_decoder_holds_only_the_chosen_parity_rows() {
        let (_, dec, data, parities) = codec(7, 248);
        assert!(dec.derived_rows().is_empty(), "construction derives no row");
        let shares = |lost: [usize; 2], offered: [usize; 3]| -> Vec<(usize, &[u8])> {
            let arrived = (0..7).filter(|i| !lost.contains(i));
            let arrived = arrived.map(|i| (i, &data[i][..]));
            arrived
                .chain(offered.map(|j| (7 + j, &parities[j][..])))
                .collect()
        };
        // Two losses: the first two parities supplied (block indices 27
        // and 16) stand in; the third offered one is never looked at.
        assert_eq!(dec.decode(&shares([1, 4], [20, 9, 30])).unwrap(), data);
        assert_eq!(dec.derived_rows(), [16, 27]);
        assert_eq!(dec.decode(&shares([1, 4], [9, 20, 30])).unwrap(), data);
        assert_eq!(
            dec.derived_rows(),
            [16, 27],
            "a repeat pattern derives nothing"
        );
        assert_eq!(dec.decode(&shares([0, 6], [30, 20, 9])).unwrap(), data);
        assert_eq!(dec.derived_rows(), [16, 27, 37], "row 27 is reused");
        assert_eq!(dec.cache_stats(), CacheStats { hits: 1, misses: 2 });
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
