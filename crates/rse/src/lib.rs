#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
// Test fixtures build bytes from loop counters; library casts must not truncate.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]
//! Reed–Solomon erasure (RSE) coding over packets.
//!
//! This crate implements the packet-level erasure codec of Section 2 of
//! *Parity-Based Loss Recovery for Reliable Multicast Transmission*
//! (Nonnenmacher, Biersack, Towsley, SIGCOMM '97), in the style of McAuley's
//! burst-erasure coder and Rizzo's software `fec.c`:
//!
//! * A **transmission group (TG)** is `k` equal-size data packets
//!   `d_1 .. d_k`. The encoder derives up to `h = n - k` **parity packets**
//!   `p_1 .. p_h`; the `n` packets together form an **FEC block**.
//! * The code is *systematic*: data packets are sent unmodified, so when
//!   nothing is lost no decoding happens at all, and decode cost is
//!   proportional to the number of lost data packets.
//! * A receiver can reconstruct the TG from **any** `k` of the `n` packets
//!   (MDS property).
//! * Packets longer than one symbol are handled by running the code
//!   independently over every byte position (`m = 8` bit symbols), which is
//!   Figure 2 of McAuley \[12\] and Section 2.2 of the paper.
//!
//! There is one codec: [`RseEncoder`]/[`RseDecoder`], the systematic
//! Vandermonde code (Rizzo-style) over GF(2^8), `n <= 255`, used by the
//! `pm-core` protocol. Its encode and decode rows come from one closed-form
//! interpolation through the points `alpha^r` (`generator.rs`): nothing is
//! solved, so a decoder holds no state that decodes change — no cache, no
//! lock — and is `Send + Sync`. The Gauss–Jordan matrices and the
//! polynomials that the rows are tested against are test-only modules
//! (`matrix.rs`, `poly.rs`), and so is the paper's literal Eq. (1)
//! construction (`p_j = F(alpha^(j-1))`, `poly_codec.rs`), an executable
//! specification that the property tests cross-check this codec against.
//!
//! [`GroupDecoder`] is the receiver-side accumulator used by the protocol:
//! it keeps the (at most `k`) packets of a block that arrived — state and
//! cost follow `k`, not the block length `n` — and reconstructs the TG as
//! soon as any `k` have been received.
//!
//! ```
//! use pm_rse::{CodeSpec, RseDecoder, RseEncoder};
//! let spec = CodeSpec::new(4, 2)?;                 // k=4 data, h=2 parities
//! let enc = RseEncoder::new(spec)?;
//! let dec = RseDecoder::from_encoder(&enc);
//! let data: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 8]).collect();
//! let parities = enc.encode_all(&data)?;
//! // Lose data packets 1 and 3; decode from the rest + both parities.
//! let shares: Vec<(usize, &[u8])> = vec![
//!     (0, &data[0][..]), (2, &data[2][..]),
//!     (4, &parities[0][..]), (5, &parities[1][..]),
//! ];
//! assert_eq!(dec.decode(&shares)?, data);
//! # Ok::<(), pm_rse::RseError>(())
//! ```

pub mod block;
pub mod code;
pub mod decoder;
pub mod encoder;
pub mod error;
mod generator;

pub use block::{GroupDecoder, InsertOutcome};
pub use code::CodeSpec;
pub use decoder::RseDecoder;
pub use encoder::RseEncoder;
pub use error::RseError;

#[cfg(test)]
mod matrix;
#[cfg(test)]
mod poly;
#[cfg(test)]
mod poly_codec;
#[cfg(test)]
mod proptests;
