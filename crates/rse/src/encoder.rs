//! Systematic RSE encoder.
//!
//! The generator is an `n x k` matrix `G` over the distinct points
//! `alpha^0 .. alpha^(n-1)`: the top `k` rows are the identity (data
//! packets pass through) and row `k + j` produces parity `j`. It is the
//! systematised Vandermonde matrix of Rizzo's `fec.c`, written down
//! directly: row `k + j` is the Lagrange basis over the `k` data points
//! evaluated at `alpha^(k+j)` (formula in `generator.rs`). Any `k` rows are
//! linearly independent, so any `k` received packets reconstruct the group.
//!
//! Cost model (paper Fig. 1): producing `h` parities for a group of `k`
//! packets of `P` bytes costs `h * k * P` GF(2^8) multiply-accumulates, so
//! the per-packet encode rate is proportional to `1 / (h * k)` — the shape
//! measured in Figure 1 and regenerated by `pm-bench`.

use pm_gf::{Gf256, Matrix};
use pm_obs::{Histogram, SpanTimer};
use pm_simd::{try_kernels, Backend, CoeffTables, Kernels};

use crate::code::CodeSpec;
use crate::error::RseError;
use crate::generator;

/// A reusable encoder for one [`CodeSpec`].
///
/// Construction resolves the process-wide kernel backend (`PM_SIMD` +
/// runtime CPU detection, see [`pm_simd::try_kernels`]), writes down the
/// generator's `h x k` parity block in closed form (O(k^2 + h*k) field
/// operations: cheaper than a shared cache's lock and lookup would be worth,
/// so every codec builds its own), and caches, for every coefficient, that
/// coefficient's [`CoeffTables`] — `&'static` borrows of its multiplication
/// row in the shared 64 KB table and of its 32-byte SIMD nibble tables.
/// Encoding a group is then pure table lookups — no row construction, no
/// table indexing by coefficient — batched four source packets per
/// destination pass through the selected backend's vectorized kernel.
#[derive(Clone)]
pub struct RseEncoder {
    spec: CodeSpec,
    /// Parity rows only: `h x k` (the identity top of G is implicit).
    parity_rows: Matrix,
    /// Row-major `h x k` cache of each coefficient's lookup tables.
    coeff_tabs: Vec<CoeffTables>,
    /// The backend-dispatched slice kernels all hot loops run through.
    kernels: &'static Kernels,
    /// Optional encode-latency histogram (nanoseconds per parity call).
    timer: Option<Histogram>,
}

impl std::fmt::Debug for RseEncoder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // coeff_tabs is 64 KB worth of table borrows — elide it.
        f.debug_struct("RseEncoder")
            .field("spec", &self.spec)
            .field("parity_rows", &self.parity_rows)
            .field("backend", &self.kernels.backend())
            .finish_non_exhaustive()
    }
}

impl RseEncoder {
    /// Build an encoder for the given code, on the process-wide dispatched
    /// kernel backend.
    ///
    /// # Errors
    /// Spec/generator failures, or [`RseError::Dispatch`] when `PM_SIMD`
    /// names an unknown or unavailable backend.
    pub fn new(spec: CodeSpec) -> Result<Self, RseError> {
        Self::with_kernels(spec, try_kernels()?)
    }

    /// Build an encoder pinned to an explicit kernel vtable (see
    /// [`pm_simd::kernels_for`]) — for benches and differential tests that
    /// compare backends within one process.
    ///
    /// # Errors
    /// Spec/generator construction failures.
    pub fn with_kernels(spec: CodeSpec, kernels: &'static Kernels) -> Result<Self, RseError> {
        let parity_rows = generator::parity_rows(&spec)?;
        let coeff_tabs = (0..spec.h())
            .flat_map(|j| parity_rows.row(j))
            .map(|&c| CoeffTables::new(c))
            .collect();
        Ok(RseEncoder {
            spec,
            parity_rows,
            coeff_tabs,
            kernels,
            timer: None,
        })
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

    /// The generator's parity block (`h x k`; the 1 x k dummy when `h = 0`).
    pub(crate) fn parity_rows(&self) -> &Matrix {
        &self.parity_rows
    }

    /// Generator coefficient `G[k + j][i]` of parity `j` for data packet `i`.
    pub fn parity_coeff(&self, j: usize, i: usize) -> Gf256 {
        self.parity_rows[(j, i)]
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
        sources: &mut Vec<(CoeffTables, &'d [u8])>,
    ) -> Result<Vec<u8>, RseError> {
        let _span = self.timer.as_ref().map(SpanTimer::start);
        let k = self.spec.k();
        if j >= self.spec.h() {
            return Err(RseError::IndexOutOfRange {
                index: k + j,
                n: self.spec.n(),
            });
        }
        let len = self.check_data(data)?;
        let tabs = self
            .coeff_tabs
            .get(j * k..(j + 1) * k)
            .ok_or(RseError::Internal("one table row per parity"))?;
        sources.clear();
        sources.extend(
            tabs.iter()
                .zip(data)
                .filter(|(t, _)| !t.coeff().is_zero())
                .map(|(t, d)| (*t, d.as_ref())),
        );
        let mut out = vec![0u8; len];
        self.kernels.mul_add_multi_rows(sources, &mut out);
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
        assert!(enc.encode_all(&group(4, 16)).unwrap().is_empty());
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
