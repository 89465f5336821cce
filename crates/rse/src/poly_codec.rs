//! The paper's Eq. (1) codec, kept as a test-only executable specification.
//!
//! Section 2.1 defines the code directly: treat the `k` data symbols as
//! coefficients of `F(X) = d_1 + d_2 X + … + d_k X^(k-1)` and compute parity
//! `p_j = F(alpha^(j-1))`. Decoding recovers `F` from any `k` known values
//! of it: received data packet `i` fixes the *coefficient* of `X^(i-1)`,
//! received parity `j` fixes the *evaluation* at `alpha^(j-1)`.
//!
//! **Caveat (and why production coders differ):** this literal construction
//! is *not* MDS over GF(2^m). Recovering `l` missing coefficients from `l`
//! parity evaluations requires inverting a *generalized* Vandermonde minor
//! (rows = evaluation points, columns = the missing coefficient powers), and
//! over a field of characteristic 2 such minors can vanish for specific
//! loss patterns, leaving a group unrecoverable even though exactly `k`
//! packets survive. This is precisely why Rizzo's `fec.c` (and
//! our [`crate::RseEncoder`]) instead *systematize an `n x k` Vandermonde
//! generator*, which restores the any-`k`-of-`n` guarantee. [`decode`]
//! returns `Ok(None)` on such patterns rather than ever producing wrong
//! data; the property tests pin down both behaviours.
//!
//! Protocols use [`crate::RseEncoder`]/[`crate::RseDecoder`]; this module is
//! compiled for tests only, as the oracle `proptests.rs` compares against.

#![cfg(test)]

use pm_gf::Gf256;

use crate::code::CodeSpec;
use crate::error::RseError;

/// Encode parity `j` (`0 <= j < h`) literally per Eq. (1):
/// `p_j[s] = F_s(alpha^j)` where `F_s` has the `s`-th byte of each data
/// packet as coefficients. (The paper writes `p_j = F(alpha^(j-1))` with
/// 1-based `j`; this function takes 0-based `j`.)
///
/// # Errors
/// Standard validation errors (wrong count, ragged sizes, bad index).
pub fn encode_parity<P: AsRef<[u8]>>(
    spec: &CodeSpec,
    j: usize,
    data: &[P],
) -> Result<Vec<u8>, RseError> {
    if j >= spec.h() {
        return Err(RseError::IndexOutOfRange {
            index: spec.k() + j,
            n: spec.n(),
        });
    }
    if data.len() != spec.k() {
        return Err(RseError::WrongDataCount {
            expected: spec.k(),
            got: data.len(),
        });
    }
    let len = data[0].as_ref().len();
    for d in data {
        if d.as_ref().len() != len {
            return Err(RseError::PacketSizeMismatch {
                expected: len,
                got: d.as_ref().len(),
            });
        }
    }
    let x = Gf256::alpha_pow(j);
    let mut out = vec![0u8; len];
    for (s, o) in out.iter_mut().enumerate() {
        // Horner over the s-th byte column.
        let mut acc = Gf256::ZERO;
        for d in data.iter().rev() {
            acc = acc * x + Gf256(d.as_ref()[s]);
        }
        *o = acc.0;
    }
    Ok(out)
}

/// Encode all `h` parities per Eq. (1).
///
/// # Errors
/// As for [`encode_parity`].
pub fn encode_all<P: AsRef<[u8]>>(spec: &CodeSpec, data: &[P]) -> Result<Vec<Vec<u8>>, RseError> {
    (0..spec.h())
        .map(|j| encode_parity(spec, j, data))
        .collect()
}

/// Decode the `k` data packets from any `k` shares `(block_index, payload)`,
/// or `None` when those shares leave the Eq. (1) system singular.
///
/// For each byte position, build the unique polynomial of degree `< k`
/// consistent with the received coefficients and evaluations, then read the
/// data bytes off its coefficients.
///
/// # Errors
/// Standard validation errors; [`RseError::NotEnoughShares`] below `k`.
pub fn decode<P: AsRef<[u8]>>(
    spec: &CodeSpec,
    shares: &[(usize, P)],
) -> Result<Option<Vec<Vec<u8>>>, RseError> {
    let k = spec.k();
    let n = spec.n();
    let mut slots: Vec<Option<&[u8]>> = vec![None; n];
    let mut len: Option<usize> = None;
    for (idx, p) in shares {
        if *idx >= n {
            return Err(RseError::IndexOutOfRange { index: *idx, n });
        }
        let p = p.as_ref();
        match len {
            None => len = Some(p.len()),
            Some(l) if l != p.len() => {
                return Err(RseError::PacketSizeMismatch {
                    expected: l,
                    got: p.len(),
                })
            }
            _ => {}
        }
        match slots[*idx] {
            None => slots[*idx] = Some(p),
            Some(existing) if existing == p => {}
            Some(_) => return Err(RseError::DuplicateShare { index: *idx }),
        }
    }
    let have = slots.iter().flatten().count();
    if have < k {
        return Err(RseError::NotEnoughShares { have, need: k });
    }
    let len = len.unwrap_or(0);

    let known_coeffs: Vec<usize> = (0..k).filter(|&i| slots[i].is_some()).collect();
    if known_coeffs.len() == k {
        return Ok(Some((0..k).map(|i| slots[i].unwrap().to_vec()).collect()));
    }
    // Parity evaluations to use, in index order, just enough to reach k.
    let evals: Vec<usize> = (k..n)
        .filter(|&i| slots[i].is_some())
        .take(k - known_coeffs.len())
        .collect();

    let mut out: Vec<Vec<u8>> = (0..k)
        .map(|i| {
            slots[i]
                .map(|p| p.to_vec())
                .unwrap_or_else(|| vec![0u8; len])
        })
        .collect();
    #[expect(
        clippy::needless_range_loop,
        reason = "s indexes every share column in lockstep"
    )]
    for s in 0..len {
        // Subtract the known coefficients' contribution from each parity
        // evaluation, then interpolate the residual polynomial whose
        // non-zero coefficients sit exactly at the missing positions.
        //
        // Simpler equivalent (used here): interpolate on a "virtual" point
        // set. A coefficient constraint is not an evaluation, so instead we
        // solve directly: write F_s(X) = K(X) + M(X) where K collects known
        // coefficients. For each parity evaluation x_e with value y_e:
        // M(x_e) = y_e - K(x_e). M has one unknown coefficient per missing
        // index; with |missing| equations this is a Vandermonde system on
        // the missing powers, solved by Lagrange-style elimination.
        let missing: Vec<usize> = (0..k).filter(|&i| slots[i].is_none()).collect();
        let m = missing.len();
        // Build the m x m system: sum_t M_t * x_e^missing[t] = rhs_e.
        let mut a = vec![vec![Gf256::ZERO; m]; m];
        let mut rhs = vec![Gf256::ZERO; m];
        for (row, &e) in evals.iter().enumerate() {
            let x = Gf256::alpha_pow(e - k);
            for (col, &mi) in missing.iter().enumerate() {
                a[row][col] = x.pow(mi as u64);
            }
            let mut kx = Gf256::ZERO;
            for &ci in &known_coeffs {
                kx += Gf256(slots[ci].unwrap()[s]) * x.pow(ci as u64);
            }
            rhs[row] = Gf256(slots[e].unwrap()[s]) + kx; // y - K(x) (char 2)
        }
        // Gaussian elimination on the tiny system.
        for col in 0..m {
            let Some(piv) = (col..m).find(|&r| !a[r][col].is_zero()) else {
                return Ok(None);
            };
            a.swap(col, piv);
            rhs.swap(col, piv);
            let inv = a[col][col].checked_inv().expect("pivot non-zero");
            for c in 0..m {
                a[col][c] *= inv;
            }
            rhs[col] *= inv;
            for r in 0..m {
                if r == col || a[r][col].is_zero() {
                    continue;
                }
                let f = a[r][col];
                for c in 0..m {
                    let v = a[col][c];
                    a[r][c] += f * v;
                }
                let v = rhs[col];
                rhs[r] += f * v;
            }
        }
        for (t, &mi) in missing.iter().enumerate() {
            out[mi][s] = rhs[t].0;
        }
    }
    Ok(Some(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::Poly;

    fn group(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|b| ((i * 53 + b * 11 + 3) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn roundtrip_with_parity_losses() {
        let spec = CodeSpec::new(7, 3).unwrap();
        let data = group(7, 24);
        let parities = encode_all(&spec, &data).unwrap();
        // Lose data 0, 4 and 6; use parities 0..3.
        let mut shares: Vec<(usize, &[u8])> = data
            .iter()
            .enumerate()
            .filter(|(i, _)| ![0usize, 4, 6].contains(i))
            .map(|(i, d)| (i, &d[..]))
            .collect();
        for (j, p) in parities.iter().enumerate() {
            shares.push((7 + j, &p[..]));
        }
        assert_eq!(decode(&spec, &shares).unwrap(), Some(data));
    }

    #[test]
    fn all_data_fast_path() {
        let spec = CodeSpec::new(4, 2).unwrap();
        let data = group(4, 10);
        let shares: Vec<(usize, &[u8])> =
            data.iter().enumerate().map(|(i, d)| (i, &d[..])).collect();
        assert_eq!(decode(&spec, &shares).unwrap(), Some(data));
    }

    #[test]
    fn parity_matches_direct_polynomial_evaluation() {
        let spec = CodeSpec::new(5, 4).unwrap();
        let data = group(5, 8);
        for j in 0..4usize {
            let p = encode_parity(&spec, j, &data).unwrap();
            for s in 0..8 {
                let col: Vec<u8> = data.iter().map(|d| d[s]).collect();
                let f = Poly::from_bytes(&col);
                assert_eq!(Gf256(p[s]), f.eval(Gf256::alpha_pow(j)), "j={j} s={s}");
            }
        }
    }

    #[test]
    fn not_enough_shares() {
        let spec = CodeSpec::new(5, 2).unwrap();
        let data = group(5, 4);
        let shares: Vec<(usize, &[u8])> = (0..4).map(|i| (i, &data[i][..])).collect();
        assert_eq!(
            decode(&spec, &shares).unwrap_err(),
            RseError::NotEnoughShares { have: 4, need: 5 }
        );
    }

    #[test]
    fn parity_only_reconstruction() {
        let spec = CodeSpec::new(3, 3).unwrap();
        let data = group(3, 12);
        let parities = encode_all(&spec, &data).unwrap();
        let shares: Vec<(usize, &[u8])> = parities
            .iter()
            .enumerate()
            .map(|(j, p)| (3 + j, &p[..]))
            .collect();
        assert_eq!(decode(&spec, &shares).unwrap(), Some(data));
    }

    #[test]
    fn validation_errors() {
        let spec = CodeSpec::new(3, 2).unwrap();
        let data = group(3, 4);
        assert!(matches!(
            encode_parity(&spec, 2, &data),
            Err(RseError::IndexOutOfRange { .. })
        ));
        assert!(matches!(
            encode_parity(&spec, 0, &data[..2]),
            Err(RseError::WrongDataCount { .. })
        ));
        let shares: Vec<(usize, &[u8])> = vec![(7, &data[0][..])];
        assert!(matches!(
            decode(&spec, &shares),
            Err(RseError::IndexOutOfRange { .. })
        ));
    }
}
