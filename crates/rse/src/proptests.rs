//! Property-based tests: the MDS guarantee under random loss patterns, and
//! cross-checks between the matrix codec and the paper's Eq. (1) codec.

use pm_gf::Gf256;
use proptest::prelude::*;

use bytes::Bytes;

use crate::block::{GroupDecoder, InsertOutcome};
use crate::code::CodeSpec;
use crate::decoder::RseDecoder;
use crate::encoder::RseEncoder;
use crate::error::RseError;
use crate::generator::Lagrange;
use crate::matrix::Matrix;
use crate::poly_codec;
use pm_simd::{kernels_for, Backend, Kernels};

/// The systematic generator the Gauss–Jordan way: `Matrix::systematize` of
/// the `n x k` Vandermonde over `alpha^0 .. alpha^(n-1)`.
fn systematised_generator(spec: CodeSpec) -> Matrix {
    let points: Vec<Gf256> = (0..spec.n()).map(Gf256::alpha_pow).collect();
    Matrix::vandermonde(&points, spec.k())
        .systematize()
        .unwrap()
}

/// The decoder this crate shipped before the reduced-system solve, kept as
/// the oracle for [`RseDecoder`]: the generator comes from
/// `Matrix::systematize`, every loss pattern inverts the full `k x k`
/// matrix of the selected shares' generator rows, and the accumulation is
/// the scalar reference kernel. Validation order and share selection are
/// the old code's.
struct FullInverseDecoder {
    spec: CodeSpec,
    generator: Matrix,
}

impl FullInverseDecoder {
    fn new(spec: CodeSpec) -> Self {
        FullInverseDecoder {
            spec,
            generator: systematised_generator(spec),
        }
    }

    fn decode(&self, shares: &[(usize, &[u8])]) -> Result<Vec<Vec<u8>>, RseError> {
        let (k, n) = (self.spec.k(), self.spec.n());
        let mut slots: Vec<Option<&[u8]>> = vec![None; n];
        let mut payload_len: Option<usize> = None;
        let mut parity_order: Vec<usize> = Vec::new();
        for &(index, payload) in shares {
            if index >= n {
                return Err(RseError::IndexOutOfRange { index, n });
            }
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
            match slots[index] {
                None => {
                    slots[index] = Some(payload);
                    if index >= k {
                        parity_order.push(index);
                    }
                }
                Some(existing) if existing == payload => {}
                Some(_) => return Err(RseError::DuplicateShare { index }),
            }
        }
        let have = slots.iter().flatten().count();
        if have < k {
            return Err(RseError::NotEnoughShares { have, need: k });
        }
        let len = payload_len.unwrap_or(0);
        let missing: Vec<usize> = (0..k).filter(|&i| slots[i].is_none()).collect();
        let mut out: Vec<Vec<u8>> = (0..k)
            .map(|i| slots[i].map_or_else(|| vec![0u8; len], <[u8]>::to_vec))
            .collect();
        if missing.is_empty() {
            return Ok(out);
        }
        let mut selected: Vec<usize> = (0..k).filter(|&i| slots[i].is_some()).collect();
        let mut chosen: Vec<usize> = parity_order.iter().take(missing.len()).copied().collect();
        chosen.sort_unstable();
        selected.extend(chosen);
        let inv = self.generator.select_rows(&selected).invert().unwrap();
        for &i in &missing {
            for (j, &share) in selected.iter().enumerate() {
                let payload = slots[share].unwrap();
                pm_simd::reference::mul_add_slice(inv[(i, j)], payload, &mut out[i]);
            }
        }
        Ok(out)
    }
}

/// Decode `shares` on both decoders; results (data or error variant) must
/// agree, and `decode_missing` must return exactly the gaps of `decode`.
fn assert_same_decode(
    dec: &RseDecoder,
    oracle: &FullInverseDecoder,
    shares: &[(usize, &[u8])],
) -> Result<(), TestCaseError> {
    let k = dec.spec().k();
    let want = oracle.decode(shares);
    prop_assert_eq!(&dec.decode(shares), &want, "shares {:?}", shares);
    let gaps = dec.decode_missing(shares);
    match (want, gaps) {
        (Ok(data), Ok(gaps)) => {
            let absent = |i: &usize| !shares.iter().any(|(index, _)| index == i);
            let want_gaps: Vec<(usize, Vec<u8>)> = (0..k)
                .filter(absent)
                .map(|i| (i, data[i].clone()))
                .collect();
            prop_assert_eq!(gaps, want_gaps);
        }
        (Err(want), Err(got)) => prop_assert_eq!(got, want),
        (want, got) => prop_assert!(false, "decode {want:?} vs decode_missing {got:?}"),
    }
    Ok(())
}

/// Random (k, h) spec with modest sizes plus a random payload length.
fn spec_strategy() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..12, 0usize..8, 1usize..64)
}

fn make_group(k: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut s = seed.wrapping_add(0x9e3779b97f4a7c15);
    (0..k)
        .map(|_| {
            (0..len)
                .map(|_| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    (s >> 24) as u8
                })
                .collect()
        })
        .collect()
}

/// Pick `keep` distinct indices from `0..n` using a seed.
fn choose(n: usize, keep: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let mut s = seed | 1;
    for i in (1..n).rev() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (s >> 33) as usize % (i + 1);
        idx.swap(i, j);
    }
    idx.truncate(keep);
    idx
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any k survivors out of n reconstruct the group exactly.
    #[test]
    fn mds_any_k_of_n((k, h, len) in spec_strategy(), seed in any::<u64>()) {
        let spec = CodeSpec::new(k, h).unwrap();
        let enc = RseEncoder::new(spec).unwrap();
        let dec = RseDecoder::from_encoder(&enc);
        let data = make_group(k, len, seed);
        let parities = enc.encode_all(&data).unwrap();
        let survivors = choose(spec.n(), k, seed ^ 0xabcdef);
        let shares: Vec<(usize, &[u8])> = survivors
            .iter()
            .map(|&i| if i < k { (i, &data[i][..]) } else { (i, &parities[i - k][..]) })
            .collect();
        prop_assert_eq!(dec.decode(&shares).unwrap(), data);
    }

    /// Fewer than k survivors must fail loudly, never return wrong data.
    #[test]
    fn under_k_shares_always_error((k, h, len) in spec_strategy(), seed in any::<u64>()) {
        prop_assume!(k >= 2);
        let spec = CodeSpec::new(k, h).unwrap();
        let enc = RseEncoder::new(spec).unwrap();
        let dec = RseDecoder::from_encoder(&enc);
        let data = make_group(k, len, seed);
        let parities = enc.encode_all(&data).unwrap();
        let survivors = choose(spec.n(), k - 1, seed);
        let shares: Vec<(usize, &[u8])> = survivors
            .iter()
            .map(|&i| if i < k { (i, &data[i][..]) } else { (i, &parities[i - k][..]) })
            .collect();
        let is_not_enough =
            matches!(dec.decode(&shares), Err(crate::RseError::NotEnoughShares { .. }));
        prop_assert!(is_not_enough);
    }

    /// The Eq. (1) polynomial codec either decodes exactly or reports a
    /// singular system — never silently wrong data. (It is not MDS over
    /// GF(2^8): generalized Vandermonde minors can vanish in characteristic
    /// 2; see the module docs. The production matrix codec, tested in
    /// `mds_any_k_of_n` above, does not have this failure mode.)
    #[test]
    fn poly_codec_roundtrip_or_explicit_singular(
        (k, h, len) in spec_strategy(),
        seed in any::<u64>(),
    ) {
        let spec = CodeSpec::new(k, h).unwrap();
        let data = make_group(k, len, seed);
        let parities = poly_codec::encode_all(&spec, &data).unwrap();
        let survivors = choose(spec.n(), k, seed ^ 0x1234);
        let shares: Vec<(usize, &[u8])> = survivors
            .iter()
            .map(|&i| if i < k { (i, &data[i][..]) } else { (i, &parities[i - k][..]) })
            .collect();
        match poly_codec::decode(&spec, &shares) {
            Ok(Some(decoded)) => prop_assert_eq!(decoded, data),
            Ok(None) => {} // singular
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
    }

    /// When only *parity* packets are lost (all data arrives), the poly
    /// codec always succeeds — the systematic fast path has no singular
    /// minors.
    #[test]
    fn poly_codec_data_complete_always_decodes(
        (k, h, len) in spec_strategy(),
        seed in any::<u64>(),
    ) {
        let spec = CodeSpec::new(k, h).unwrap();
        let data = make_group(k, len, seed);
        let shares: Vec<(usize, &[u8])> =
            data.iter().enumerate().map(|(i, d)| (i, &d[..])).collect();
        prop_assert_eq!(poly_codec::decode(&spec, &shares).unwrap(), Some(data));
    }

    /// Cross-check: the matrix decoder reconstructs data encoded with the
    /// *polynomial* generator when given the data shares plus poly parities
    /// re-described in matrix terms — both are MDS codes over the same
    /// points, so each codec must at least round-trip its own parities and
    /// agree on pure-data reconstruction.
    #[test]
    fn codecs_agree_on_pure_data((k, _h, len) in spec_strategy(), seed in any::<u64>()) {
        let spec = CodeSpec::new(k, 0).unwrap();
        let dec = RseDecoder::new(spec).unwrap();
        let data = make_group(k, len, seed);
        let shares: Vec<(usize, &[u8])> =
            data.iter().enumerate().map(|(i, d)| (i, &d[..])).collect();
        prop_assert_eq!(dec.decode(&shares).unwrap(), data.clone());
        prop_assert_eq!(poly_codec::decode(&spec, &shares).unwrap(), Some(data));
    }

    /// Differential: the cached-row batched encoder produces byte-identical
    /// parities to a scalar-reference accumulation over the same generator
    /// coefficients.
    #[test]
    fn encoder_matches_scalar_reference((k, h, len) in spec_strategy(), seed in any::<u64>()) {
        let spec = CodeSpec::new(k, h).unwrap();
        let enc = RseEncoder::new(spec).unwrap();
        let data = make_group(k, len, seed);
        for j in 0..h {
            let fast = enc.parity(j, &data).unwrap();
            let mut scalar = vec![0u8; len];
            for (i, d) in data.iter().enumerate() {
                pm_simd::reference::mul_add_slice(enc.parity_coeff(j, i).unwrap(), d, &mut scalar);
            }
            prop_assert_eq!(&fast, &scalar, "parity {}", j);
        }
    }

    /// Decoding the same loss pattern twice returns identical data.
    #[test]
    fn decoding_a_pattern_twice_gives_the_same_data((k, h, len) in spec_strategy(), seed in any::<u64>()) {
        prop_assume!(h >= 1);
        let spec = CodeSpec::new(k, h).unwrap();
        let enc = RseEncoder::new(spec).unwrap();
        let dec = RseDecoder::from_encoder(&enc);
        let data = make_group(k, len, seed);
        let parities = enc.encode_all(&data).unwrap();
        let survivors = choose(spec.n(), k, seed ^ 0xCACE);
        let shares: Vec<(usize, &[u8])> = survivors
            .iter()
            .map(|&i| if i < k { (i, &data[i][..]) } else { (i, &parities[i - k][..]) })
            .collect();
        let first = dec.decode(&shares).unwrap();
        let second = dec.decode(&shares).unwrap();
        prop_assert_eq!(&first, &second);
        prop_assert_eq!(first, data);
    }

    /// GroupDecoder invariants: `needed() + received() == k` until
    /// decodable, insertion order never matters for the reconstruction.
    #[test]
    fn group_decoder_order_invariant((k, h, len) in spec_strategy(), seed in any::<u64>()) {
        prop_assume!(h >= 1);
        let spec = CodeSpec::new(k, h).unwrap();
        let enc = RseEncoder::new(spec).unwrap();
        let dec = RseDecoder::from_encoder(&enc);
        let data = make_group(k, len, seed);
        let parities = enc.encode_all(&data).unwrap();
        let order = choose(spec.n(), spec.n().min(k + 1), seed ^ 0x77);
        let mut g = GroupDecoder::new(spec);
        for &i in &order {
            if g.is_decodable() {
                break;
            }
            prop_assert_eq!(g.needed(), k - g.received());
            let payload = if i < k { data[i].clone() } else { parities[i - k].clone() };
            g.insert(i, payload.into()).unwrap();
        }
        if g.is_decodable() {
            let rec = g.reconstruct(&dec).unwrap();
            for (i, d) in data.iter().enumerate() {
                prop_assert_eq!(rec[i].as_ref(), &d[..]);
            }
        }
    }
}

/// `take` distinct block indices plus `dups` repeats of some of them, in a
/// random order: loss set, parity choice and arrival order in one draw.
fn share_indices(n: usize, take: usize, dups: usize, seed: u64) -> Vec<usize> {
    let mut idx = choose(n, take, seed);
    let repeats: Vec<usize> = choose(idx.len(), dups.min(idx.len()), seed ^ 0xD0B)
        .into_iter()
        .map(|p| idx[p])
        .collect();
    idx.extend(repeats);
    choose(idx.len(), idx.len(), seed ^ 0x0DE2)
        .into_iter()
        .map(|p| idx[p])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Differential: the reduced-system decoder returns what the full
    /// `k x k`-inverse decoder returned — the same bytes, the same error
    /// variant — over random geometry, loss set, parity choice and order,
    /// duplicates, surplus and too few shares, and the three malformed-share
    /// faults. Three rounds share one decoder pair.
    #[test]
    fn decode_matches_full_inverse_reference(
        (k, h, len) in (1usize..24, 0usize..14, 0usize..48),
        dups in 0usize..4,
        fault in 0u8..8,
        seed in any::<u64>(),
    ) {
        let spec = CodeSpec::new(k, h).unwrap();
        let n = spec.n();
        let enc = RseEncoder::new(spec).unwrap();
        let dec = RseDecoder::new(spec).unwrap();
        let oracle = FullInverseDecoder::new(spec);
        let data = make_group(k, len, seed);
        let parities = enc.encode_all(&data).unwrap();
        let payload = |i: usize| if i < k { &data[i][..] } else { &parities[i - k][..] };
        let too_long = vec![0u8; len + 1];
        for round in 0..3u64 {
            let r = (seed >> (16 * round)) as usize;
            // One draw in four falls short of k shares; the rest carry
            // between none and all of the surplus.
            let take = if r.is_multiple_of(4) { (r / 4) % (n + 1) } else { k + (r / 4) % (h + 1) };
            let idx = share_indices(n, take, dups, seed.wrapping_add(round));
            let mut shares: Vec<(usize, &[u8])> = idx.iter().map(|&i| (i, payload(i))).collect();
            let at = (r / 64) % (shares.len() + 1);
            match (fault, idx.first()) {
                (0, _) => shares.insert(at, (n + r % 3, payload(0))),
                (1, _) => shares.insert(at, (r % n, &too_long[..])),
                (2, Some(&i)) => shares.insert(at, (i, payload((i + 1) % n))),
                _ => {}
            }
            assert_same_decode(&dec, &oracle, &shares)?;
        }
    }
}

/// The differential above, pinned on the loss counts at the ends of the
/// range: `l = 1` for every (lost packet, parity) pair, `l = h`, and
/// parity-only decoding (`l = k`), each in forward and reverse share order.
#[test]
fn decode_matches_full_inverse_on_edge_patterns() {
    for (k, h) in [(1, 1), (1, 3), (3, 5), (4, 4), (7, 3), (12, 5)] {
        let spec = CodeSpec::new(k, h).unwrap();
        let enc = RseEncoder::new(spec).unwrap();
        let dec = RseDecoder::new(spec).unwrap();
        let oracle = FullInverseDecoder::new(spec);
        let data = make_group(k, 24, (k * 31 + h) as u64);
        let parities = enc.encode_all(&data).unwrap();
        let payload = |i: usize| {
            if i < k {
                &data[i][..]
            } else {
                &parities[i - k][..]
            }
        };
        let mut patterns: Vec<Vec<usize>> = Vec::new();
        for lost in 0..k {
            for parity in k..k + h {
                patterns.push((0..k).filter(|&i| i != lost).chain([parity]).collect());
            }
        }
        let l = h.min(k);
        patterns.push((l..k).chain(k..k + l).collect()); // first l data lost
        patterns.push((0..k - l).chain(k + h - l..k + h).collect()); // last l lost
        if h >= k {
            patterns.push((k..2 * k).collect()); // parity only
            patterns.push((k + h - k..k + h).collect());
        }
        for pattern in patterns {
            let mut shares: Vec<(usize, &[u8])> =
                pattern.iter().map(|&i| (i, payload(i))).collect();
            assert_same_decode(&dec, &oracle, &shares).unwrap();
            shares.reverse();
            assert_same_decode(&dec, &oracle, &shares).unwrap();
        }
    }
}

/// The accumulator this crate shipped before [`GroupDecoder`] kept only
/// what arrived: one `Option<Bytes>` slot per block packet, scanned for the
/// size check, the data census and the share list. Kept as the oracle.
struct DenseGroup {
    spec: CodeSpec,
    slots: Vec<Option<Bytes>>,
    received: usize,
    unneeded: u64,
}

impl DenseGroup {
    fn new(spec: CodeSpec) -> Self {
        DenseGroup {
            spec,
            slots: vec![None; spec.n()],
            received: 0,
            unneeded: 0,
        }
    }

    fn missing_data(&self) -> Vec<usize> {
        (0..self.spec.k())
            .filter(|&i| self.slots[i].is_none())
            .collect()
    }

    fn insert(&mut self, index: usize, payload: Bytes) -> Result<InsertOutcome, RseError> {
        let (k, n) = (self.spec.k(), self.spec.n());
        if index >= n {
            return Err(RseError::IndexOutOfRange { index, n });
        }
        if let Some(first) = self.slots.iter().flatten().next() {
            if first.len() != payload.len() {
                return Err(RseError::PacketSizeMismatch {
                    expected: first.len(),
                    got: payload.len(),
                });
            }
        }
        match &self.slots[index] {
            Some(existing) if existing == &payload => return Ok(InsertOutcome::Duplicate),
            Some(_) => return Err(RseError::DuplicateShare { index }),
            None => {}
        }
        if self.received >= k {
            self.unneeded += 1;
            return Ok(InsertOutcome::Unneeded);
        }
        self.slots[index] = Some(payload);
        self.received += 1;
        Ok(if self.received >= k {
            InsertOutcome::Decodable
        } else {
            InsertOutcome::Stored
        })
    }

    fn data_if_complete(&self) -> Option<Vec<Bytes>> {
        self.slots.iter().take(self.spec.k()).cloned().collect()
    }

    fn reconstruct(&self, decoder: &RseDecoder) -> Result<Vec<Bytes>, RseError> {
        if self.received < self.spec.k() {
            return Err(RseError::NotEnoughShares {
                have: self.received,
                need: self.spec.k(),
            });
        }
        if let Some(data) = self.data_if_complete() {
            return Ok(data);
        }
        let shares: Vec<(usize, &[u8])> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|b| (i, b.as_ref())))
            .collect();
        let mut rebuilt = decoder.decode_missing(&shares)?.into_iter();
        Ok(self
            .slots
            .iter()
            .take(self.spec.k())
            .map(|slot| match slot {
                Some(arrived) => arrived.clone(),
                None => Bytes::from(rebuilt.next().unwrap().1),
            })
            .collect())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Differential: [`GroupDecoder`] answers every arrival script as the
    /// dense accumulator did — the same outcome or error per insert, the
    /// same census after it, the same reconstruction (bytes, and `as_ptr`
    /// sharing for what arrived) — over random
    /// geometry up to `n = 255` and scripts that mix a shuffled block with
    /// identical and conflicting duplicates, wrong sizes, out-of-range
    /// indices and arrivals past `k`.
    #[test]
    fn group_decoder_matches_dense_reference(
        (k, h, len) in (1usize..40, 0usize..24, 0usize..40),
        max_parity in any::<bool>(),
        steps in 0usize..80,
        seed in any::<u64>(),
    ) {
        let spec = if max_parity {
            CodeSpec::with_max_parity(k).unwrap()
        } else {
            CodeSpec::new(k, h).unwrap()
        };
        let n = spec.n();
        let enc = RseEncoder::new(spec).unwrap();
        // Parities beyond the first 24 are never drawn; skip encoding them.
        let reach = n.min(k + 24);
        let data = make_group(k, len, seed);
        let block: Vec<Bytes> = (0..reach)
            .map(|i| if i < k { data[i].clone() } else { enc.parity(i - k, &data).unwrap() })
            .map(Bytes::from)
            .collect();
        let order = choose(reach, reach, seed ^ 0xA221);
        let (dec_new, dec_old) = (RseDecoder::new(spec).unwrap(), RseDecoder::new(spec).unwrap());
        let (mut new, mut old) = (GroupDecoder::new(spec), DenseGroup::new(spec));
        let (mut s, mut forged) = (seed | 1, false);
        for step in 0..steps {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let r = (s >> 33) as usize;
            // Mostly the shuffled block in order (wrapping repeats it);
            // `again` is an index that has probably been offered before.
            let fresh = order[step % reach];
            let again = order[(r / 8) % (step + 1).min(reach)];
            let (index, payload) = match r % 8 {
                0..=3 => (fresh, block[fresh].clone()),
                4 => (again, block[again].clone()),
                5 => (again, block[(again + 1) % reach].clone()),
                6 => (fresh, Bytes::from(vec![0u8; len + 1 + (r / 8) % 3])),
                _ => (n + (r / 8) % 300, block[fresh].clone()),
            };
            // A wrong payload for an index not yet held is simply stored:
            // both sides then decode the same wrong block.
            let honest = block.get(index) == Some(&payload);
            let outcome = old.insert(index, payload.clone());
            prop_assert_eq!(new.insert(index, payload), outcome);
            forged |= !honest
                && matches!(outcome, Ok(InsertOutcome::Stored | InsertOutcome::Decodable));
            prop_assert_eq!(new.received(), old.received);
            prop_assert_eq!(new.needed(), k.saturating_sub(old.received));
            prop_assert_eq!(new.is_decodable(), old.received >= k);
            prop_assert_eq!(new.missing_data(), old.missing_data());
            prop_assert_eq!(new.data_received(), k - old.missing_data().len());
            prop_assert_eq!(new.all_data_received(), old.missing_data().is_empty());
            prop_assert_eq!(new.unneeded_receptions(), old.unneeded);
            prop_assert_eq!(new.data_if_complete(), old.data_if_complete());
        }
        let (got, want) = (new.reconstruct(&dec_new), old.reconstruct(&dec_old));
        prop_assert_eq!(&got, &want);
        if let (Ok(got), Ok(want)) = (got, want) {
            prop_assert!(forged || got[..] == block[..k]);
            for (g, w) in got.iter().zip(&want) {
                // Arrived packets are the inserted storage on both sides;
                // rebuilt ones are fresh allocations on both.
                let arrived = old.slots.iter().flatten().any(|b| b.as_ptr() == g.as_ptr());
                prop_assert_eq!(g.as_ptr() == w.as_ptr(), arrived);
            }
        }
    }
}

/// Every kernel backend this host can run.
fn backends() -> Vec<&'static Kernels> {
    [Backend::Scalar, Backend::Avx2, Backend::Gfni]
        .into_iter()
        .filter_map(kernels_for)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encoders and decoders built on different kernel backends produce the
    /// same parities and reconstruct the same bytes, for random loss
    /// patterns: `l` up to 39 outputs (several groups of four), payloads
    /// from empty to a few vector steps with every tail length.
    #[test]
    fn decode_missing_is_backend_independent(
        (k, h, len) in (1usize..40, 1usize..40, 0usize..300),
        seed in any::<u64>(),
    ) {
        let spec = CodeSpec::new(k, h).unwrap();
        let data = make_group(k, len, seed);
        let survivors = choose(spec.n(), k, seed ^ 0x7777);
        let mut want = None;
        for kern in backends() {
            let enc = RseEncoder::with_kernels(spec, kern);
            let dec = RseDecoder::from_encoder(&enc);
            let parities = enc.encode_all(&data).unwrap();
            let shares: Vec<(usize, &[u8])> = survivors
                .iter()
                .map(|&i| if i < k { (i, &data[i][..]) } else { (i, &parities[i - k][..]) })
                .collect();
            let got = (dec.decode_missing(&shares).unwrap(), parities.clone());
            match &want {
                None => want = Some(got),
                Some(w) => prop_assert_eq!(&got, w, "backend {}", kern.backend().name()),
            }
        }
    }
}

/// Geometries `(k, h, l)` for the decode-row checks below, at the ends of
/// the range: `l = 1`, parity-only (`l = k`), `k = 1`, and `h = 255 - k`.
const ROW_SWEEP: [(usize, usize, usize); 17] = [
    (1, 1, 1),
    (1, 254, 1),
    (2, 253, 2),
    (7, 3, 1),
    (7, 248, 1),
    (7, 248, 3),
    (7, 248, 7),
    (7, 7, 7),
    (20, 235, 5),
    (20, 20, 20),
    (100, 155, 1),
    (100, 155, 10),
    (100, 155, 50),
    (100, 155, 100),
    (127, 128, 127),
    (128, 127, 127),
    (254, 1, 1),
];

/// A loss pattern drawn from `seed`: `l` missing data indices and `l`
/// chosen parity block indices, each ascending.
fn loss_pattern(k: usize, h: usize, l: usize, seed: u64) -> (Vec<usize>, Vec<usize>) {
    let mut missing = choose(k, l, seed);
    missing.sort_unstable();
    let mut chosen: Vec<usize> = choose(h, l, !seed).iter().map(|j| k + j).collect();
    chosen.sort_unstable();
    (missing, chosen)
}

/// The decoder's rows, read back through `decode_missing`: when share `s`
/// of the selection (arrived data ascending, then the chosen parities
/// ascending) carries the unit vector `e_s` as a `k`-byte payload, missing
/// packet `r` decodes to row `r` of `D`. Each must equal the scalar
/// `A^-1 * [P[C,S] | I_l]` over [`ROW_SWEEP`].
#[test]
fn decode_rows_equal_the_scalar_solve() {
    for (case, (k, h, l)) in ROW_SWEEP.into_iter().enumerate() {
        let spec = CodeSpec::new(k, h).unwrap();
        let enc = RseEncoder::new(spec).unwrap();
        let dec = RseDecoder::new(spec).unwrap();
        let (missing, chosen) = loss_pattern(k, h, l, case as u64 * 0x9e37 + 1);
        let arrived: Vec<usize> = (0..k).filter(|i| !missing.contains(i)).collect();
        let units: Vec<Vec<u8>> = (0..k)
            .map(|s| (0..k).map(|b| u8::from(b == s)).collect())
            .collect();
        let shares: Vec<(usize, &[u8])> = arrived
            .iter()
            .chain(&chosen)
            .zip(&units)
            .map(|(&i, e)| (i, &e[..]))
            .collect();
        let got = dec.decode_missing(&shares).unwrap();

        let p = |c: usize, i: usize| enc.parity_coeff(chosen[c] - k, i).unwrap();
        let a_inv = Matrix::from_fn(l, l, |c, m| p(c, missing[m]))
            .invert()
            .unwrap();
        assert_eq!(got.len(), l);
        for (r, (index, row)) in got.iter().enumerate() {
            let solved = arrived
                .iter()
                .map(|&i| (0..l).fold(Gf256::ZERO, |acc, c| acc + a_inv[(r, c)] * p(c, i)));
            let want: Vec<u8> = solved
                .chain((0..l).map(|c| a_inv[(r, c)]))
                .map(|c| c.0)
                .collect();
            assert_eq!(*index, missing[r]);
            assert_eq!(row, &want, "(k, h, l) = ({k}, {h}, {l}), row {r}");
        }
    }
}

/// Differential: the closed-form decode rows equal, entry by entry, the
/// missing packets' rows of the Gauss–Jordan inverse of the selected rows
/// of the Gauss–Jordan-systematised generator — nothing of the closed form
/// on the oracle's side — for several loss patterns per [`ROW_SWEEP`]
/// geometry.
#[test]
fn closed_form_rows_equal_the_gauss_jordan_inverse() {
    for (k, h, l) in ROW_SWEEP {
        let spec = CodeSpec::new(k, h).unwrap();
        let generator = systematised_generator(spec);
        let lagrange = Lagrange::new(k);
        for seed in 1..=4u64 {
            let (missing, chosen) = loss_pattern(k, h, l, seed * 0x5851 + (k * h) as u64);
            let selected: Vec<usize> = (0..k)
                .filter(|i| !missing.contains(i))
                .chain(chosen.iter().copied())
                .collect();
            let inverse = generator.select_rows(&selected).invert().unwrap();
            let rows = lagrange.rows(&missing, &chosen, &missing);
            assert_eq!(rows.len(), l * k);
            for (row, &m) in rows.chunks_exact(k).zip(&missing) {
                assert_eq!(
                    row,
                    inverse.row(m),
                    "(k, h, l) = ({k}, {h}, {l}), missing {m}"
                );
            }
        }
    }
}

/// The round entry equals the per-parity path byte for byte: every
/// `(first, count)` with `first + count <= h` over [`ROW_SWEEP`]'s
/// geometries, under every backend, at a 5-byte payload (a scalar tail
/// for AVX2, one masked step for GFNI); then rounds from a few `first`s at
/// 1 500 bytes, where every backend's vector loop runs. A round past `h`
/// is refused.
#[test]
fn encode_round_equals_the_per_parity_path() {
    let mut geometries: Vec<(usize, usize)> = ROW_SWEEP.iter().map(|&(k, h, _)| (k, h)).collect();
    geometries.dedup();
    for (k, h) in geometries {
        let spec = CodeSpec::new(k, h).unwrap();
        for kern in backends() {
            let name = kern.backend().name();
            let enc = RseEncoder::with_kernels(spec, kern);
            for len in [5, 1500] {
                let data = make_group(k, len, (k * 1000 + h + len) as u64);
                let single: Vec<Vec<u8>> = (0..h).map(|j| enc.parity(j, &data).unwrap()).collect();
                let firsts: Vec<usize> = match len {
                    5 => (0..=h).collect(),
                    _ => vec![0, 1.min(h), h / 3, h],
                };
                for first in firsts {
                    let counts: Vec<usize> = match len {
                        5 => (0..=h - first).collect(),
                        _ => (0..=(h - first).min(17)).chain([h - first]).collect(),
                    };
                    for count in counts {
                        let round = enc.encode_round(first, count, &data).unwrap();
                        assert_eq!(round.len(), count);
                        for (j, parity) in (first..).zip(&round) {
                            assert_eq!(
                                parity, &single[j],
                                "(k, h) = ({k}, {h}), round {first}+{count}, parity {j}, len {len}, {name}"
                            );
                        }
                    }
                    assert!(matches!(
                        enc.encode_round(first, h - first + 1, &data),
                        Err(RseError::IndexOutOfRange { .. })
                    ));
                }
            }
        }
    }
}

/// The protocol's decode path — `GroupDecoder::reconstruct`, arrivals in
/// any order — rebuilds the data at `l = 1`, `k / 2` and `min(h, k)` over
/// [`ROW_SWEEP`]'s geometries, handing back the arrived packets' own
/// storage.
#[test]
fn reconstruct_rebuilds_the_missing_packets() {
    for (case, (k, h, _)) in ROW_SWEEP.into_iter().enumerate() {
        let spec = CodeSpec::new(k, h).unwrap();
        let enc = RseEncoder::new(spec).unwrap();
        let dec = RseDecoder::from_encoder(&enc);
        let len = 100;
        let data: Vec<Bytes> = make_group(k, len, case as u64)
            .into_iter()
            .map(Bytes::from)
            .collect();
        for l in [1, (k / 2).min(h), h.min(k)] {
            let (missing, chosen) = loss_pattern(k, h, l, (case * 31 + l) as u64);
            let parities = enc.encode_round(0, h, &data).unwrap();
            let mut arrivals: Vec<(usize, Bytes)> = (0..k)
                .filter(|i| !missing.contains(i))
                .map(|i| (i, data[i].clone()))
                .chain(chosen.iter().map(|&c| (c, parities[c - k].clone())))
                .collect();
            arrivals.reverse();
            let mut g = GroupDecoder::new(spec);
            for (i, p) in arrivals {
                g.insert(i, p).unwrap();
            }
            let got = g.reconstruct(&dec).unwrap();
            assert_eq!(got, data, "(k, h, l) = ({k}, {h}, {l})");
            for (i, (got, sent)) in got.iter().zip(&data).enumerate() {
                assert_eq!(got.as_ptr() == sent.as_ptr(), !missing.contains(&i));
            }
        }
    }
}
