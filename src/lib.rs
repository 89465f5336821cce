#![forbid(unsafe_code)]
//! # parity-multicast
//!
//! A faithful, production-quality reproduction of *Parity-Based Loss
//! Recovery for Reliable Multicast Transmission* (Nonnenmacher, Biersack,
//! Towsley, SIGCOMM 1997): Reed–Solomon erasure coding, the **NP** hybrid
//! FEC/ARQ multicast protocol, the **N2** ARQ baseline, the paper's
//! analytical models, and the loss-model/simulation machinery behind every
//! figure in its evaluation.
//!
//! This crate is a façade re-exporting the workspace members under stable
//! names:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`gf`] | `pm-gf` | the field GF(2^8): total table-driven arithmetic on one byte |
//! | [`simd`] | `pm-simd` | the codec's kernels: one GF(2^8) matrix multiply-accumulate per backend, scalar or runtime-dispatched GFNI/AVX2/NEON (the one sanctioned `unsafe` boundary) |
//! | [`rse`] | `pm-rse` | systematic Reed–Solomon erasure codec over packets: encode and decode rows from one closed-form interpolation |
//! | [`loss`] | `pm-loss` | Bernoulli / heterogeneous / Markov-burst / shared-tree loss models |
//! | [`analysis`] | `pm-analysis` | Eqs. (2)–(17): E\[M\], rounds, end-host rates |
//! | [`sim`] | `pm-sim` | scheme simulations (no-FEC, layered, integrated 1/2) |
//! | [`net`] | `pm-net` | wire format, UDP multicast + in-memory transports, NAK suppression |
//! | [`protocol`] | `pm-core` | protocol NP and baseline N2: one sans-io sender and one receiver, plus the traits/config/reports their driver shares with them |
//! | [`obs`] | `pm-obs` | structured trace events, counters/histograms, JSONL recorders |
//! | [`par`] | `pm-par` | scoped thread pool: deterministic `par_map` / `par_map_reduce` |
//! | [`mux`] | `pm-mux` | event-driven session multiplexer — the one loop that drives the machines: N sessions, one thread, a binary-heap timer queue, wall or virtual clock |
//!
//! ## Quickstart
//!
//! Erasure-code a transmission group and survive packet loss:
//!
//! ```
//! use parity_multicast::rse::{CodeSpec, RseDecoder, RseEncoder};
//!
//! // k = 7 data packets, up to h = 3 parities (the paper's workhorse).
//! let spec = CodeSpec::new(7, 3).unwrap();
//! let encoder = RseEncoder::new(spec).unwrap();
//! let decoder = RseDecoder::from_encoder(&encoder);
//!
//! let group: Vec<Vec<u8>> = (0..7).map(|i| vec![i as u8; 64]).collect();
//! let parities = encoder.encode_all(&group).unwrap();
//!
//! // Lose data packets 1 and 4; any 7 of the 10 block packets suffice.
//! let mut shares: Vec<(usize, &[u8])> = group
//!     .iter()
//!     .enumerate()
//!     .filter(|(i, _)| *i != 1 && *i != 4)
//!     .map(|(i, d)| (i, d.as_slice()))
//!     .collect();
//! shares.push((7, parities[0].as_slice()));
//! shares.push((8, parities[1].as_slice()));
//!
//! let recovered = decoder.decode(&shares).unwrap();
//! assert_eq!(recovered, group);
//! ```
//!
//! Run the full NP protocol over an in-memory multicast group, sender and
//! receiver on one mux under a virtual clock (see
//! `examples/file_multicast.rs` for the real-UDP version, on a wall clock):
//!
//! ```
//! use std::time::Duration;
//! use parity_multicast::mux::{drive_session, Mux, MuxConfig, VirtualClock};
//! use parity_multicast::net::{MemHub, PollTransport};
//! use parity_multicast::protocol::{
//!     runtime::RuntimeConfig, CompletionPolicy, NpConfig, NpReceiver, NpSender,
//! };
//!
//! let hub = MemHub::new();
//! let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
//! let mut cfg = NpConfig::small(CompletionPolicy::KnownReceivers(1));
//! cfg.payload_len = 512;
//! let rt = RuntimeConfig {
//!     packet_spacing: Duration::from_micros(20),
//!     stall_timeout: Duration::from_secs(5),
//!     complete_linger: Duration::from_millis(300),
//!     ..RuntimeConfig::default()
//! };
//!
//! let mut sender_tp = hub.join();
//! let mut receiver_tp = hub.join();
//! let s = NpSender::new(1, &payload, cfg).unwrap();
//! let r = NpReceiver::new(1, 1, 0.001, 42);
//! let mut mux = Mux::new(MuxConfig::default(), VirtualClock::new());
//! let (sent, mut got) = drive_session(
//!     &mut mux,
//!     rt,
//!     (s, &mut sender_tp),
//!     [(r, &mut receiver_tp as &mut dyn PollTransport)],
//! );
//! assert_eq!(sent.unwrap().completed, [1]);
//! assert_eq!(got.pop().unwrap().unwrap().data, payload);
//! ```

pub use pm_analysis as analysis;
pub use pm_core as protocol;
pub use pm_gf as gf;
pub use pm_loss as loss;
pub use pm_mux as mux;
pub use pm_net as net;
pub use pm_obs as obs;
pub use pm_par as par;
pub use pm_rse as rse;
pub use pm_sim as sim;
pub use pm_simd as simd;
