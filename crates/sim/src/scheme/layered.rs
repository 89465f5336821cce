//! Layered FEC simulation.
//!
//! The FEC layer always ships `h` parities with every block of `k` data
//! packets (cost factor `n/k` per round), and a receiver recovers a data
//! packet from a block iff it received the packet itself or at least `k`
//! of the block's `n` packets. Unrecovered packets are retransmitted in a
//! later block *at the same block position* (the paper's assumption), with
//! the next block starting `delta + T` after the previous block's last
//! packet.

use pm_loss::LossModel;

use super::{retain_lost, Scratch};
use crate::config::SimConfig;
use crate::metrics::TrialOut;

/// Layered FEC's buffers, kept by a worker between trials. At rest
/// `lost_in_block` is all zero and every `pending` list empty.
#[derive(Debug, Default)]
pub(crate) struct LayeredBufs {
    /// The block's loss lists back to back; slot s is
    /// `block[ends[s-1]..ends[s]]`.
    block: Vec<u32>,
    ends: Vec<usize>,
    /// Per-receiver losses in the current block; zeroed at the block's
    /// losses when the block is done.
    lost_in_block: Vec<u32>,
    /// `pending[slot]`: receivers still missing the data packet in
    /// `slot`, ascending; at least `k` lists.
    pending: Vec<Vec<u32>>,
    /// Per-slot count of rounds the slot participated in.
    slot_rounds: Vec<u64>,
}

/// One layered-FEC trial: one transmission group of `k` data packets
/// (tracked jointly so burst loss correlates them exactly as on the
/// wire), driven to completion. Contributes `k` per-slot `E[M]` samples.
///
/// A receiver misses data slot `s` of a block iff it lost packet `s` *and*
/// more than `h` packets of the block, so both the sets still missing each
/// slot and the waste (receptions of a slot by receivers that already hold
/// it) are read off the block's `n` loss lists; the one `R`-sized array,
/// the per-receiver loss count of the block, is touched at the losses only.
pub(crate) fn layered_trial<'s, M: LossModel>(
    cfg: &SimConfig,
    k: usize,
    h: usize,
    model: &mut M,
    now: &mut f64,
    scratch: &'s mut Scratch,
) -> TrialOut<'s> {
    let n = k + h;
    let r = model.receivers();
    let Scratch {
        lost,
        m_values,
        layered:
            LayeredBufs {
                block,
                ends,
                lost_in_block,
                pending,
                slot_rounds,
            },
        ..
    } = &mut *scratch;
    if lost_in_block.len() < r {
        lost_in_block.resize(r, 0);
    }
    if pending.len() < k {
        pending.resize_with(k, Vec::new);
    }
    // Before the first block every receiver is pending on every slot,
    // which is never written down. Parity slots need no tracking: they are
    // regenerated for whatever group they ride in.
    let pending = &mut pending[..k];
    slot_rounds.clear();
    slot_rounds.resize(k, 0);
    let mut group_rounds = 0u64;
    let mut unneeded = 0u64;
    while group_rounds == 0 || pending.iter().any(|p| !p.is_empty()) {
        group_rounds += 1;
        // One block: n packets at delta spacing.
        block.clear();
        ends.clear();
        for _ in 0..n {
            model.sample_lost(*now, lost);
            for &rc in lost.iter() {
                lost_in_block[rc as usize] += 1;
            }
            block.extend_from_slice(lost);
            ends.push(block.len());
            *now += cfg.delta;
        }
        let mut start = 0;
        for (slot, pend) in pending.iter_mut().enumerate() {
            let lost_slot = &block[start..ends[slot]];
            start = ends[slot];
            // Below k receptions the block does not decode.
            let undecoded = |rc: u32| lost_in_block[rc as usize] as usize > h;
            if group_rounds == 1 {
                slot_rounds[slot] += 1;
                pend.extend(lost_slot.iter().copied().filter(|&rc| undecoded(rc)));
                continue;
            }
            // Every receiver not pending on this slot already holds it —
            // all of them if the slot is complete and merely rides along —
            // and receiving it again is waste.
            let held = r - pend.len();
            slot_rounds[slot] += u64::from(!pend.is_empty());
            let mut lost_by_pending = 0;
            retain_lost(pend, lost_slot, |rc| {
                lost_by_pending += 1;
                undecoded(rc)
            });
            unneeded += (held - (lost_slot.len() - lost_by_pending)) as u64;
        }
        for &rc in block.iter() {
            lost_in_block[rc as usize] = 0;
        }
        *now += cfg.feedback_delay; // gap to the next block is delta + T
    }
    // Each round the packet rides in costs n/k transmissions in the
    // per-packet accounting (Eq. (3)'s n/k factor).
    m_values.clear();
    m_values.extend(
        slot_rounds
            .iter()
            .map(|&sr| sr as f64 * n as f64 / k as f64),
    );
    TrialOut {
        m_values,
        rounds: group_rounds as f64,
        unneeded: Some(unneeded as f64 / r as f64),
    }
}

#[cfg(test)]
/// Dense oracle of [`layered_trial`]: every receiver's reception of every
/// packet of every block, tabulated. The body is the loop this crate ran
/// before the sparse view, kept unedited but for where its samples go, so
/// "equal to the oracle" means "equal to what the figures were produced
/// with".
pub(crate) fn layered_trial_dense<'s, M: LossModel>(
    cfg: &SimConfig,
    k: usize,
    h: usize,
    model: &mut M,
    now: &mut f64,
    scratch: &'s mut Scratch,
) -> TrialOut<'s> {
    let n = k + h;
    let r = model.receivers();
    let mut lost = vec![false; r];
    // pending[slot] = receivers still missing the data packet in
    // `slot`. Parity slots need no tracking: they are regenerated for
    // whatever group they ride in.
    let mut pending: Vec<Vec<usize>> = (0..k).map(|_| (0..r).collect()).collect();
    // Per-slot count of rounds the slot participated in.
    let mut slot_rounds = vec![0u64; k];
    let mut group_rounds = 0u64;
    let mut unneeded = 0u64;
    while pending.iter().any(|p| !p.is_empty()) {
        group_rounds += 1;
        // Any data slot already complete that rides in this block is a
        // potential unnecessary reception for receivers that hold it.
        let complete_slots: Vec<usize> = (0..k)
            .filter(|&s| group_rounds > 1 && pending[s].is_empty())
            .collect();
        // One block: n packets at delta spacing. Sample the loss
        // pattern of every receiver at every packet slot.
        // received[rc][slot] for slots 0..n.
        let mut receive_counts = vec![0usize; r];
        let mut got: Vec<Vec<bool>> = vec![vec![false; n]; r];
        #[expect(
            clippy::needless_range_loop,
            reason = "slot is also the semantic block index"
        )]
        for slot in 0..n {
            model.sample(*now, &mut lost);
            for rc in 0..r {
                if !lost[rc] {
                    receive_counts[rc] += 1;
                    got[rc][slot] = true;
                }
            }
            *now += cfg.delta;
        }
        for &slot in &complete_slots {
            // Every receiver already holds a complete slot; receiving
            // its retransmission again is waste.
            unneeded += got.iter().filter(|g| g[slot]).count() as u64;
        }
        for (slot, pend) in pending.iter_mut().enumerate() {
            if pend.is_empty() {
                continue;
            }
            slot_rounds[slot] += 1;
            // Receivers NOT pending on this slot that still received it
            // were already served earlier: unnecessary reception.
            if group_rounds > 1 {
                #[expect(
                    clippy::disallowed_types,
                    reason = "a membership probe, never iterated"
                )]
                let pend_set: std::collections::HashSet<usize> = pend.iter().copied().collect();
                unneeded += got
                    .iter()
                    .enumerate()
                    .filter(|(rc, g)| !pend_set.contains(rc) && g[slot])
                    .count() as u64;
            }
            pend.retain(|&rc| !(got[rc][slot] || receive_counts[rc] >= k));
        }
        *now += cfg.feedback_delay; // gap to the next block is delta + T
    }
    // Each round the packet rides in costs n/k transmissions in the
    // per-packet accounting (Eq. (3)'s n/k factor).
    scratch.m_values.clear();
    scratch.m_values.extend(
        slot_rounds
            .iter()
            .map(|&sr| sr as f64 * n as f64 / k as f64),
    );
    TrialOut {
        m_values: &scratch.m_values,
        rounds: group_rounds as f64,
        unneeded: Some(unneeded as f64 / r as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::SimResult;
    use crate::runner::{run_env, LossEnv, Scheme};
    use pm_loss::IndependentLoss;

    /// `cfg.trials` groups of `k + h` to `r` receivers under independent
    /// loss `p`.
    fn layered(cfg: &SimConfig, (k, h): (usize, usize), r: usize, p: f64, seed: u64) -> SimResult {
        run_env(
            cfg,
            Scheme::Layered { k, h },
            LossEnv::Independent { p },
            r,
            seed,
        )
    }

    #[test]
    fn lossless_costs_expansion_factor() {
        let res = layered(&SimConfig::paper_timing(50), (7, 2), 8, 0.0, 1);
        assert!((res.mean_transmissions - 9.0 / 7.0).abs() < 1e-12);
        assert_eq!(res.mean_rounds, 1.0);
    }

    #[test]
    fn h0_matches_nofec_statistics() {
        // With no parities the scheme is ARQ in blocks; per-packet E[M]
        // must match the no-FEC analysis.
        let p = 0.1;
        let res = layered(&SimConfig::paper_timing(5000), (5, 0), 4, p, 11);
        let analytic =
            pm_analysis::nofec::expected_transmissions(&pm_analysis::Population::homogeneous(p, 4));
        assert!(
            (res.mean_transmissions - analytic).abs() < 5.0 * res.stderr.max(0.01),
            "sim {} vs analytic {analytic} (se {})",
            res.mean_transmissions,
            res.stderr
        );
    }

    #[test]
    fn matches_layered_analysis_independent_loss() {
        let (k, h, p, r) = (7usize, 1usize, 0.05, 16usize);
        let res = layered(&SimConfig::paper_timing(4000), (k, h), r, p, 5);
        let analytic = pm_analysis::layered::expected_transmissions(
            k,
            h,
            &pm_analysis::Population::homogeneous(p, r as u64),
        );
        assert!(
            (res.mean_transmissions - analytic).abs() < 5.0 * res.stderr.max(0.01),
            "sim {} vs analytic {analytic} (se {})",
            res.mean_transmissions,
            res.stderr
        );
    }

    #[test]
    fn parity_reduces_rounds() {
        let cfg = SimConfig::paper_timing(2000);
        let without = layered(&cfg, (7, 0), 32, 0.05, 9);
        let with = layered(&cfg, (7, 3), 32, 0.05, 9);
        assert!(
            with.mean_rounds < without.mean_rounds,
            "rounds with parity {} !< without {}",
            with.mean_rounds,
            without.mean_rounds
        );
    }

    #[test]
    fn trial_contributes_k_samples() {
        let mut model = IndependentLoss::new(8, 0.0, 1);
        let mut now = 0.0;
        let mut scratch = Scratch::default();
        let out = layered_trial(
            &SimConfig::paper_timing(1),
            7,
            2,
            &mut model,
            &mut now,
            &mut scratch,
        );
        assert_eq!(out.m_values.len(), 7, "one E[M] sample per data slot");
        assert!(out.m_values.iter().all(|&m| (m - 9.0 / 7.0).abs() < 1e-12));
        assert_eq!(out.rounds, 1.0);
    }
}
