//! Systematic RSE encoder.
//!
//! The generator is an `n x k` matrix `G` over the distinct points
//! `alpha^0 .. alpha^(n-1)`: the top `k` rows are the identity (data
//! packets pass through) and row `k + j` produces parity `j`. It is the
//! systematised Vandermonde matrix of Rizzo's `fec.c`, written down
//! directly: row `k + j` is the Lagrange basis over the `k` data points
//! evaluated at `alpha^(k+j)`, the same interpolation a decoder's rows come
//! from (`generator.rs`). Any `k` rows are linearly independent, so any `k`
//! received packets reconstruct the group.
//!
//! Cost model (paper Fig. 1): producing `h` parities for a group of `k`
//! packets of `P` bytes costs `h * k * P` GF(2^8) multiply-accumulates, so
//! the per-packet encode rate is proportional to `1 / (h * k)` — the shape
//! measured in Figure 1 and regenerated by `pm-bench`.

use pm_gf::Gf256;
use pm_obs::{Histogram, SpanTimer};
use pm_simd::{try_kernels, Backend, Kernels};

use crate::code::CodeSpec;
use crate::error::RseError;
use crate::generator::Lagrange;

/// A reusable encoder for one [`CodeSpec`].
///
/// Construction resolves the process-wide kernel backend (`PM_SIMD` +
/// runtime CPU detection, see [`pm_simd::try_kernels`]) and writes down the
/// generator's `h x k` parity block in closed form (O(k^2 + h*k) table
/// lookups: for the one encoder a session has, cheaper than a shared
/// cache's lock and lookup would be worth, so every encoder builds its own;
/// the R decoders write down only the rows a loss pattern needs, see
/// [`crate::RseDecoder`]). Encoding a parity is then one one-row call of
/// the selected backend's matrix kernel on that row's `k` coefficients;
/// the kernel looks each coefficient's tables up in pm-simd's process-wide
/// caches, so an encoder holds no tables of its own.
#[derive(Debug, Clone)]
pub struct RseEncoder {
    spec: CodeSpec,
    /// The closed form's per-code weights, handed to derived decoders.
    lagrange: Lagrange,
    /// Parity rows only: `h x k`, row-major (the identity top of G is
    /// implicit; empty when `h = 0`).
    parity_rows: Vec<Gf256>,
    /// The backend-dispatched matrix kernel all hot loops run through.
    kernels: &'static Kernels,
    /// Optional encode-latency histogram (nanoseconds per parity call).
    timer: Option<Histogram>,
}

impl RseEncoder {
    /// Build an encoder for the given code, on the process-wide dispatched
    /// kernel backend.
    ///
    /// # Errors
    /// [`RseError::Dispatch`] when `PM_SIMD` names an unknown or
    /// unavailable backend.
    pub fn new(spec: CodeSpec) -> Result<Self, RseError> {
        Ok(Self::with_kernels(spec, try_kernels()?))
    }

    /// Build an encoder pinned to an explicit kernel vtable (see
    /// [`pm_simd::kernels_for`]) — for benches and differential tests that
    /// compare backends within one process.
    pub fn with_kernels(spec: CodeSpec, kernels: &'static Kernels) -> Self {
        let lagrange = Lagrange::new(spec.k());
        let parities: Vec<usize> = (spec.k()..spec.n()).collect();
        let parity_rows = lagrange.rows(&[], &[], &parities);
        RseEncoder {
            spec,
            lagrange,
            parity_rows,
            kernels,
            timer: None,
        }
    }

    /// The kernel backend this encoder's hot loops run on.
    pub fn backend(&self) -> Backend {
        self.kernels.backend()
    }

    /// The kernel vtable this encoder was built with (shared with decoders
    /// derived via `from_encoder`, keeping one consistent backend per
    /// codec family).
    pub fn kernels(&self) -> &'static Kernels {
        self.kernels
    }

    /// Record per-parity encode latency (nanoseconds) into `hist`. Off by
    /// default so the uninstrumented hot path pays nothing.
    pub fn set_timer(&mut self, hist: Histogram) {
        self.timer = Some(hist);
    }

    /// The code parameters this encoder was built for.
    pub fn spec(&self) -> &CodeSpec {
        &self.spec
    }

    /// The closed form's weights, from which a decoder derives its rows.
    pub(crate) fn lagrange(&self) -> &Lagrange {
        &self.lagrange
    }

    /// Row `k + j` of the generator: parity `j`'s `k` coefficients, or
    /// `None` unless `j < h`.
    fn parity_row(&self, j: usize) -> Option<&[Gf256]> {
        self.parity_rows.chunks_exact(self.spec.k()).nth(j)
    }

    /// Generator coefficient `G[k + j][i]` of parity `j` for data packet
    /// `i`, or `None` unless `j < h` and `i < k`.
    pub fn parity_coeff(&self, j: usize, i: usize) -> Option<Gf256> {
        self.parity_row(j)?.get(i).copied()
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "data.len() == k >= 1 was checked just above"
    )]
    fn check_data<P: AsRef<[u8]>>(&self, data: &[P]) -> Result<usize, RseError> {
        if data.len() != self.spec.k() {
            return Err(RseError::WrongDataCount {
                expected: self.spec.k(),
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
        Ok(len)
    }

    /// Compute parity packet `j` (`0 <= j < h`) for a transmission group.
    ///
    /// This is the *incremental* entry point used by protocol NP, which only
    /// ever encodes as many parities as receivers actually need.
    ///
    /// # Errors
    /// Index out of range, wrong packet count, or unequal packet sizes.
    pub fn parity<P: AsRef<[u8]>>(&self, j: usize, data: &[P]) -> Result<Vec<u8>, RseError> {
        self.parity_with(j, data, &mut Vec::with_capacity(self.spec.k()))
    }

    /// [`RseEncoder::parity`] over a caller-held `sources` buffer, so a run
    /// of parities for one group allocates it once.
    fn parity_with<'d, P: AsRef<[u8]>>(
        &self,
        j: usize,
        data: &'d [P],
        sources: &mut Vec<&'d [u8]>,
    ) -> Result<Vec<u8>, RseError> {
        let _span = self.timer.as_ref().map(SpanTimer::start);
        let row = self.parity_row(j).ok_or(RseError::IndexOutOfRange {
            index: self.spec.k() + j,
            n: self.spec.n(),
        })?;
        let len = self.check_data(data)?;
        sources.clear();
        sources.extend(data.iter().map(AsRef::as_ref));
        let mut out = vec![0u8; len];
        self.kernels
            .mul_add_multi_rows(row, sources, &mut [out.as_mut_slice()]);
        Ok(out)
    }

    /// Compute the first `count` parity packets.
    ///
    /// # Errors
    /// As for [`RseEncoder::parity`].
    pub fn parities<P: AsRef<[u8]>>(
        &self,
        count: usize,
        data: &[P],
    ) -> Result<Vec<Vec<u8>>, RseError> {
        let mut sources = Vec::with_capacity(self.spec.k());
        (0..count)
            .map(|j| self.parity_with(j, data, &mut sources))
            .collect()
    }

    /// Compute the full parity set (`h` packets) — "pre-encoding" in the
    /// paper's Section 5 sense.
    ///
    /// # Errors
    /// As for [`RseEncoder::parity`].
    pub fn encode_all<P: AsRef<[u8]>>(&self, data: &[P]) -> Result<Vec<Vec<u8>>, RseError> {
        self.parities(self.spec.h(), data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|b| ((i * 131 + b * 7 + 13) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn parity_is_deterministic_and_incremental() {
        let enc = RseEncoder::new(CodeSpec::new(7, 3).unwrap()).unwrap();
        let data = group(7, 64);
        let all = enc.encode_all(&data).unwrap();
        assert_eq!(all.len(), 3);
        for (j, p) in all.iter().enumerate() {
            assert_eq!(&enc.parity(j, &data).unwrap(), p, "parity {j}");
        }
    }

    #[test]
    fn single_data_packet_parity_is_copy() {
        // k = 1: every parity row must be [1], i.e. parity == the data packet
        // (repetition code), since G is systematic and MDS.
        let enc = RseEncoder::new(CodeSpec::new(1, 4).unwrap()).unwrap();
        let data = group(1, 32);
        for p in enc.encode_all(&data).unwrap() {
            assert_eq!(p, data[0]);
        }
    }

    #[test]
    fn parity_linear_in_data() {
        // Encoding the XOR of two groups equals XOR of encodings.
        let enc = RseEncoder::new(CodeSpec::new(5, 2).unwrap()).unwrap();
        let a = group(5, 40);
        let b: Vec<Vec<u8>> = (0..5)
            .map(|i| {
                (0..40)
                    .map(|x| ((i * 19 + x * 3 + 1) % 256) as u8)
                    .collect()
            })
            .collect();
        let sum: Vec<Vec<u8>> = a
            .iter()
            .zip(&b)
            .map(|(pa, pb)| pa.iter().zip(pb).map(|(x, y)| x ^ y).collect())
            .collect();
        for j in 0..2 {
            let pa = enc.parity(j, &a).unwrap();
            let pb = enc.parity(j, &b).unwrap();
            let ps = enc.parity(j, &sum).unwrap();
            let xored: Vec<u8> = pa.iter().zip(&pb).map(|(x, y)| x ^ y).collect();
            assert_eq!(ps, xored, "parity {j}");
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let enc = RseEncoder::new(CodeSpec::new(3, 2).unwrap()).unwrap();
        let short = vec![vec![0u8; 8], vec![0u8; 8]];
        assert!(matches!(
            enc.parity(0, &short),
            Err(RseError::WrongDataCount { .. })
        ));
        let ragged = vec![vec![0u8; 8], vec![0u8; 8], vec![0u8; 9]];
        assert!(matches!(
            enc.parity(0, &ragged),
            Err(RseError::PacketSizeMismatch { .. })
        ));
        let data = vec![vec![0u8; 8]; 3];
        assert!(matches!(
            enc.parity(2, &data),
            Err(RseError::IndexOutOfRange { .. })
        ));
    }

    #[test]
    fn zero_parity_spec_encodes_nothing() {
        let enc = RseEncoder::new(CodeSpec::new(4, 0).unwrap()).unwrap();
        assert!(enc.parity_rows.is_empty(), "no dummy row");
        assert!(enc.encode_all(&group(4, 16)).unwrap().is_empty());
        assert_eq!(enc.parity_coeff(0, 0), None);
    }

    #[test]
    fn parity_coeff_is_none_out_of_range() {
        let enc = RseEncoder::new(CodeSpec::new(3, 2).unwrap()).unwrap();
        assert!(enc.parity_coeff(1, 2).is_some());
        assert_eq!(enc.parity_coeff(1, 3), None);
        assert_eq!(enc.parity_coeff(2, 0), None);
        assert_eq!(enc.parity_coeff(usize::MAX, 0), None);
    }

    #[test]
    fn max_block_size_works() {
        let spec = CodeSpec::with_max_parity(200).unwrap();
        let enc = RseEncoder::new(spec).unwrap();
        let data = group(200, 8);
        let p = enc.parity(54, &data).unwrap(); // last parity index: h-1 = 54
        assert_eq!(p.len(), 8);
    }

    #[test]
    fn empty_packets_allowed() {
        // Zero-length packets are degenerate but must not panic.
        let enc = RseEncoder::new(CodeSpec::new(3, 1).unwrap()).unwrap();
        let data = vec![vec![], vec![], vec![]];
        assert_eq!(enc.parity(0, &data).unwrap(), Vec::<u8>::new());
    }
}
