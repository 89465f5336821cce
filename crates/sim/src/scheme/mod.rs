//! The four recovery schemes (Fig. 13 timing).
//!
//! Each scheme is a crate-private `*_trial` function simulating **one**
//! transmission group (one packet for no-FEC) against a caller-supplied
//! model and clock, returning the raw [`crate::metrics::TrialOut`] — the
//! unit [`crate::runner`] seeds independently and fans across threads.

mod integrated;
mod layered;
mod nofec;

pub(crate) use integrated::{integrated_1_trial, integrated_2_trial};
pub(crate) use layered::layered_trial;
pub(crate) use nofec::nofec_trial;
