//! The four recovery schemes (Fig. 13 timing).
//!
//! Each scheme is a crate-private `*_trial` function simulating **one**
//! transmission group (one packet for no-FEC) against a caller-supplied
//! model and clock, returning the raw [`crate::metrics::TrialOut`] — the
//! unit [`crate::runner`] seeds independently and fans across threads.
//! A trial reads each transmission as `LossModel::sample_lost` and keeps
//! only state that a loss touches; its `*_trial_dense` twin (`#[cfg(test)]`)
//! walks every receiver on every packet and must produce the same
//! `TrialOut` and the same clock from the same seed.

mod integrated;
mod layered;
mod nofec;

pub(crate) use integrated::{integrated_1_trial, integrated_2_trial};
pub(crate) use layered::layered_trial;
pub(crate) use nofec::nofec_trial;

/// Keep the members of the ascending set `pending` that are also in the
/// ascending loss list `lost` and pass `keep` — one merge pass, in place.
fn retain_lost(pending: &mut Vec<u32>, lost: &[u32], mut keep: impl FnMut(u32) -> bool) {
    let mut at = 0;
    pending.retain(|&rc| {
        while at < lost.len() && lost[at] < rc {
            at += 1;
        }
        at < lost.len() && lost[at] == rc && keep(rc)
    });
}

#[cfg(test)]
pub(crate) use {
    integrated::{integrated_1_trial_dense, integrated_2_trial_dense},
    layered::layered_trial_dense,
    nofec::nofec_trial_dense,
};
