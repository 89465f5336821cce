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
//!
//! A trial's buffers live in a [`Scratch`] that the runner keeps per
//! worker, so a trial allocates nothing once its worker has run one of the
//! same shape (scheme, `k`, `R`); each trial hands the scratch back clean,
//! resetting only the entries its losses touched.

mod integrated;
mod layered;
mod nofec;

pub(crate) use integrated::{integrated_1_trial, integrated_2_trial};
pub(crate) use layered::layered_trial;
pub(crate) use nofec::nofec_trial;

/// One worker's reusable trial buffers. Between trials every buffer is in
/// its rest state — the per-receiver counters all zero, the pending sets
/// empty — whatever trial ran last, so which trials share a scratch
/// changes no output.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// The current transmission's loss list.
    lost: Vec<u32>,
    /// The trial's per-packet `E[M]` samples, lent out as
    /// `TrialOut::m_values`.
    m_values: Vec<f64>,
    /// The integrated schemes' group state.
    group: integrated::GroupBufs,
    /// Layered FEC's block and per-slot state.
    layered: layered::LayeredBufs,
    /// No-FEC's set still missing the packet; empty at rest.
    pending: Vec<u32>,
}

impl Scratch {
    /// Lend out a one-sample `m_values`.
    fn one_m_value(&mut self, m: f64) -> &[f64] {
        self.m_values.clear();
        self.m_values.push(m);
        &self.m_values
    }
}

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
