//! Incremental (online) erasure decoding.
//!
//! The batch [`crate::RseDecoder`] does all of its work once `k` shares are
//! present — an O(l^3 + l^2·k + l·k·P) burst at the worst moment (the
//! instant the group completes, often right before the application wants
//! the data). [`IncrementalDecoder`] instead performs Gauss–Jordan
//! elimination *as shares arrive*: each [`IncrementalDecoder::add_share`]
//! costs O(k^2 + k·P) and the final share finishes with only
//! back-substitution left. It does more arithmetic in total (it reduces
//! every share, not just the `l` lost packets), but spread over arrivals — the
//! online-decoding concern the paper raises in Section 5 ("even when
//! receivers decode online").
//!
//! A second benefit: linearly *redundant* shares are detected on arrival
//! (they reduce to a zero row) and reported as
//! [`AddOutcome::Redundant`] instead of silently wasting buffer space.

use pm_gf::Gf256;
use pm_simd::Kernels;

use crate::code::CodeSpec;
use crate::encoder::RseEncoder;
use crate::error::RseError;

/// Result of absorbing one share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddOutcome {
    /// Share absorbed; `k - rank` more independent shares are needed.
    Absorbed {
        /// Independent shares still required.
        remaining: usize,
    },
    /// Share absorbed and the group is now decodable — call
    /// [`IncrementalDecoder::finish`].
    Complete,
    /// The share was a linear combination of those already absorbed
    /// (e.g. a duplicate); it contributes nothing and was dropped.
    Redundant,
}

/// Online Gauss–Jordan decoder for one transmission group.
pub struct IncrementalDecoder {
    spec: CodeSpec,
    /// Backend-dispatched slice kernels, inherited from the encoder.
    kernels: &'static Kernels,
    /// Generator parity rows (shared orientation with the encoder).
    parity_rows: Vec<Vec<Gf256>>,
    /// Pivot rows by leading column: `(coefficients, payload)`. Rows are
    /// normalized to a leading 1 and fully reduced against earlier pivots.
    pivots: Vec<Option<(Vec<Gf256>, Vec<u8>)>>,
    rank: usize,
    payload_len: Option<usize>,
}

impl IncrementalDecoder {
    /// Build from the code spec (constructs the generator; reuse across
    /// groups via [`IncrementalDecoder::reset`]).
    ///
    /// # Errors
    /// Spec/generator construction failures.
    pub fn new(spec: CodeSpec) -> Result<Self, RseError> {
        let enc = RseEncoder::new(spec)?;
        Ok(Self::from_encoder(&enc))
    }

    /// Build sharing an existing encoder's generator.
    pub fn from_encoder(enc: &RseEncoder) -> Self {
        let spec = *enc.spec();
        let parity_rows = (0..spec.h())
            .map(|j| (0..spec.k()).map(|i| enc.parity_coeff(j, i)).collect())
            .collect();
        IncrementalDecoder {
            spec,
            kernels: enc.kernels(),
            parity_rows,
            pivots: vec![None; spec.k()],
            rank: 0,
            payload_len: None,
        }
    }

    /// Code parameters.
    pub fn spec(&self) -> &CodeSpec {
        &self.spec
    }

    /// Independent shares absorbed so far.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// True once `k` independent shares have been absorbed.
    pub fn is_complete(&self) -> bool {
        self.rank == self.spec.k()
    }

    /// Clear all state for the next group (keeps the generator).
    pub fn reset(&mut self) {
        for p in self.pivots.iter_mut() {
            *p = None;
        }
        self.rank = 0;
        self.payload_len = None;
    }

    fn generator_row(&self, index: usize) -> Result<Vec<Gf256>, RseError> {
        let k = self.spec.k();
        if index < k {
            Ok((0..k)
                .map(|i| if i == index { Gf256::ONE } else { Gf256::ZERO })
                .collect())
        } else {
            self.parity_rows
                .get(index - k)
                .cloned()
                .ok_or(RseError::Internal("index < n implies a parity row"))
        }
    }

    /// Absorb one share of the FEC block.
    ///
    /// # Errors
    /// Index/size validation, or absorbing into an already-complete group
    /// ([`RseError::DuplicateShare`] is *not* used here — duplicates are
    /// simply [`AddOutcome::Redundant`]).
    pub fn add_share(&mut self, index: usize, payload: &[u8]) -> Result<AddOutcome, RseError> {
        let (k, n) = (self.spec.k(), self.spec.n());
        if index >= n {
            return Err(RseError::IndexOutOfRange { index, n });
        }
        match self.payload_len {
            None => self.payload_len = Some(payload.len()),
            Some(expected) if expected != payload.len() => {
                return Err(RseError::PacketSizeMismatch {
                    expected,
                    got: payload.len(),
                })
            }
            _ => {}
        }
        if self.is_complete() {
            return Ok(AddOutcome::Redundant);
        }

        let mut row = self.generator_row(index)?;
        let mut data = payload.to_vec();
        // Forward-reduce against existing pivots.
        for col in 0..k {
            let factor = *row
                .get(col)
                .ok_or(RseError::Internal("generator rows have k columns"))?;
            if factor.is_zero() {
                continue;
            }
            match self.pivots.get(col) {
                Some(Some((prow, ppayload))) => {
                    for (rc, &pv) in row.iter_mut().zip(prow.iter()).skip(col) {
                        *rc += factor * pv;
                    }
                    self.kernels.mul_add_slice(factor, ppayload, &mut data);
                }
                Some(None) => {
                    // New pivot: normalize to a leading 1 and store.
                    let inv = factor
                        .checked_inv()
                        .ok_or(RseError::Internal("leading entry is non-zero"))?;
                    for c in row.iter_mut().skip(col) {
                        *c *= inv;
                    }
                    self.kernels.scale_slice(inv, &mut data);
                    *self
                        .pivots
                        .get_mut(col)
                        .ok_or(RseError::Internal("pivot column within k"))? = Some((row, data));
                    self.rank += 1;
                    return Ok(if self.is_complete() {
                        AddOutcome::Complete
                    } else {
                        AddOutcome::Absorbed {
                            remaining: k - self.rank,
                        }
                    });
                }
                None => return Err(RseError::Internal("pivot column within k")),
            }
        }
        // Reduced to zero: linearly dependent on what we already have.
        debug_assert!(row.iter().all(|c| c.is_zero()));
        Ok(AddOutcome::Redundant)
    }

    /// Back-substitute and return the `k` data packets.
    ///
    /// # Errors
    /// [`RseError::NotEnoughShares`] before completion.
    pub fn finish(mut self) -> Result<Vec<Vec<u8>>, RseError> {
        let k = self.spec.k();
        if !self.is_complete() {
            return Err(RseError::NotEnoughShares {
                have: self.rank,
                need: k,
            });
        }
        // Eliminate above-diagonal entries from the bottom up, row at a
        // time: once rows `i+1..k` are fully reduced, row `i` clears all its
        // trailing coefficients in one batched multi-source pass (the
        // `mul_add_multi` kernel touches `payload_i` once per group of four
        // pivot payloads instead of once per pivot).
        for i in (0..k.saturating_sub(1)).rev() {
            let (head, tail) = self.pivots.split_at_mut(i + 1);
            let (row_i, payload_i) = head
                .last_mut()
                .and_then(Option::as_mut)
                .ok_or(RseError::Internal("rank k implies every pivot present"))?;
            let mut sources: Vec<(Gf256, &[u8])> = Vec::new();
            for (&coeff, pivot) in row_i.iter().skip(i + 1).zip(tail.iter()) {
                if coeff.is_zero() {
                    continue;
                }
                let (_, p) = pivot
                    .as_ref()
                    .ok_or(RseError::Internal("rank k implies every pivot present"))?;
                sources.push((coeff, p.as_slice()));
            }
            self.kernels.mul_add_multi(&sources, payload_i);
            for c in row_i.iter_mut().skip(i + 1) {
                *c = Gf256::ZERO;
            }
        }
        self.pivots
            .into_iter()
            .map(|p| {
                p.map(|(_, payload)| payload)
                    .ok_or(RseError::Internal("rank k implies every pivot present"))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::RseDecoder;

    fn group(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|b| ((i * 89 + b * 13 + 7) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    fn setup(k: usize, h: usize) -> (RseEncoder, Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let enc = RseEncoder::new(CodeSpec::new(k, h).unwrap()).unwrap();
        let data = group(k, 40);
        let parities = enc.encode_all(&data).unwrap();
        (enc, data, parities)
    }

    #[test]
    fn all_data_shares_complete_without_arithmetic() {
        let (enc, data, _) = setup(5, 2);
        let mut dec = IncrementalDecoder::from_encoder(&enc);
        for (i, d) in data.iter().enumerate() {
            let out = dec.add_share(i, d).unwrap();
            if i < 4 {
                assert_eq!(out, AddOutcome::Absorbed { remaining: 4 - i });
            } else {
                assert_eq!(out, AddOutcome::Complete);
            }
        }
        assert_eq!(dec.finish().unwrap(), data);
    }

    #[test]
    fn mixed_share_patterns_match_batch_decoder() {
        let (enc, data, parities) = setup(6, 4);
        let batch = RseDecoder::from_encoder(&enc);
        let patterns: [&[usize]; 4] = [
            &[0, 6, 2, 7, 4, 8],
            &[9, 8, 7, 6, 5, 4],
            &[0, 1, 2, 3, 4, 9],
            &[6, 7, 8, 9, 0, 3],
        ];
        for pat in patterns {
            let mut dec = IncrementalDecoder::from_encoder(&enc);
            for &i in pat {
                let payload = if i < 6 { &data[i] } else { &parities[i - 6] };
                dec.add_share(i, payload).unwrap();
            }
            assert!(dec.is_complete());
            let incremental = dec.finish().unwrap();
            let shares: Vec<(usize, &[u8])> = pat
                .iter()
                .map(|&i| {
                    (
                        i,
                        if i < 6 {
                            data[i].as_slice()
                        } else {
                            parities[i - 6].as_slice()
                        },
                    )
                })
                .collect();
            assert_eq!(
                incremental,
                batch.decode(&shares).unwrap(),
                "pattern {pat:?}"
            );
            assert_eq!(incremental, data);
        }
    }

    #[test]
    fn duplicates_and_excess_are_redundant() {
        let (enc, data, parities) = setup(3, 3);
        let mut dec = IncrementalDecoder::from_encoder(&enc);
        dec.add_share(0, &data[0]).unwrap();
        assert_eq!(dec.add_share(0, &data[0]).unwrap(), AddOutcome::Redundant);
        dec.add_share(3, &parities[0]).unwrap();
        assert_eq!(
            dec.add_share(4, &parities[1]).unwrap(),
            AddOutcome::Complete
        );
        // Anything after completion is redundant by definition.
        assert_eq!(
            dec.add_share(5, &parities[2]).unwrap(),
            AddOutcome::Redundant
        );
        assert_eq!(dec.finish().unwrap(), data);
    }

    #[test]
    fn premature_finish_errors() {
        let (enc, data, _) = setup(4, 1);
        let mut dec = IncrementalDecoder::from_encoder(&enc);
        dec.add_share(1, &data[1]).unwrap();
        assert_eq!(dec.rank(), 1);
        assert!(matches!(
            dec.finish(),
            Err(RseError::NotEnoughShares { have: 1, need: 4 })
        ));
    }

    #[test]
    fn validation() {
        let (enc, data, _) = setup(3, 2);
        let mut dec = IncrementalDecoder::from_encoder(&enc);
        assert!(matches!(
            dec.add_share(9, &data[0]),
            Err(RseError::IndexOutOfRange { .. })
        ));
        dec.add_share(0, &data[0]).unwrap();
        assert!(matches!(
            dec.add_share(1, &data[1][..10]),
            Err(RseError::PacketSizeMismatch { .. })
        ));
    }

    #[test]
    fn reset_reuses_generator() {
        let (enc, data, parities) = setup(3, 2);
        let mut dec = IncrementalDecoder::from_encoder(&enc);
        dec.add_share(3, &parities[0]).unwrap();
        dec.reset();
        assert_eq!(dec.rank(), 0);
        for (i, d) in data.iter().enumerate() {
            dec.add_share(i, d).unwrap();
        }
        assert_eq!(dec.finish().unwrap(), data);
    }

    #[test]
    fn zero_length_payloads_complete() {
        // Degenerate packets: rank accounting still works on the generator
        // rows alone; finish returns k empty packets.
        let (enc, _, _) = setup(3, 2);
        let mut dec = IncrementalDecoder::from_encoder(&enc);
        for i in [0usize, 3, 4] {
            dec.add_share(i, &[]).unwrap();
        }
        assert!(dec.is_complete());
        assert_eq!(dec.finish().unwrap(), vec![Vec::<u8>::new(); 3]);
    }

    #[test]
    fn parity_only_completion() {
        let (enc, data, parities) = setup(3, 3);
        let mut dec = IncrementalDecoder::from_encoder(&enc);
        for (j, p) in parities.iter().enumerate() {
            dec.add_share(3 + j, p).unwrap();
        }
        assert!(dec.is_complete());
        assert_eq!(dec.finish().unwrap(), data);
    }
}
