//! Plain ARQ simulation.

use pm_loss::LossModel;

use super::{retain_lost, Scratch};
use crate::config::SimConfig;
use crate::metrics::TrialOut;

/// One no-FEC trial: multicast one packet and retransmit — spaced
/// `delta + T` per the paper's timing diagram — until all receivers have
/// it. `now` is advanced past the packet so a time-correlated model sees
/// the real schedule; the trailing gap to the next packet is `delta`.
///
/// The state is the set still missing the packet, which after the first
/// transmission is exactly the receivers that lost it and only shrinks —
/// to empty, its rest state in `scratch`: nothing of size `R` is ever
/// touched.
pub(crate) fn nofec_trial<'s, M: LossModel>(
    cfg: &SimConfig,
    model: &mut M,
    now: &mut f64,
    scratch: &'s mut Scratch,
) -> TrialOut<'s> {
    let r = model.receivers() as u64;
    let Scratch { lost, pending, .. } = &mut *scratch;
    model.sample_lost(*now, pending);
    let mut tx = 1u64;
    let mut unneeded = 0u64;
    while !pending.is_empty() {
        *now += cfg.delta + cfg.feedback_delay; // NAK turnaround
        tx += 1;
        model.sample_lost(*now, lost);
        let had = r - pending.len() as u64;
        retain_lost(pending, lost, |_| true);
        // A multicast retransmission reaching a receiver that already had
        // the packet is pure waste: everyone who had it, less those of
        // them who lost this copy (the losers that were not pending).
        unneeded += had - (lost.len() - pending.len()) as u64;
    }
    *now += cfg.delta; // next packet follows at line rate
    TrialOut {
        m_values: scratch.one_m_value(tx as f64),
        rounds: tx as f64,
        unneeded: Some(unneeded as f64 / r as f64),
    }
}

#[cfg(test)]
/// The dense oracle the sparse loop is checked against: the same scheme,
/// one pass over all `R` receivers per transmission.
pub(crate) fn nofec_trial_dense<'s, M: LossModel>(
    cfg: &SimConfig,
    model: &mut M,
    now: &mut f64,
    scratch: &'s mut Scratch,
) -> TrialOut<'s> {
    let r = model.receivers();
    let mut lost = vec![false; r];
    let mut has = vec![false; r];
    let mut remaining = r;
    let mut tx = 0u64;
    let mut unneeded = 0u64;
    while remaining > 0 {
        tx += 1;
        model.sample(*now, &mut lost);
        for rc in 0..r {
            if !lost[rc] {
                if has[rc] {
                    unneeded += 1;
                } else {
                    has[rc] = true;
                    remaining -= 1;
                }
            }
        }
        *now += if remaining == 0 {
            cfg.delta
        } else {
            cfg.delta + cfg.feedback_delay
        };
    }
    TrialOut {
        m_values: scratch.one_m_value(tx as f64),
        rounds: tx as f64,
        unneeded: Some(unneeded as f64 / r as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::SimResult;
    use crate::runner::{run_env, LossEnv, Scheme};
    use pm_loss::IndependentLoss;

    /// `cfg.trials` packets to `r` receivers under independent loss `p`.
    fn nofec(cfg: &SimConfig, r: usize, p: f64, seed: u64) -> SimResult {
        run_env(cfg, Scheme::NoFec, LossEnv::Independent { p }, r, seed)
    }

    #[test]
    fn lossless_sends_once() {
        let res = nofec(&SimConfig::paper_timing(100), 16, 0.0, 1);
        assert_eq!(res.mean_transmissions, 1.0);
        assert_eq!(res.stderr, 0.0);
        assert_eq!(res.trials, 100);
    }

    #[test]
    fn single_receiver_geometric_mean() {
        let p = 0.2;
        let res = nofec(&SimConfig::paper_timing(20_000), 1, p, 7);
        let expect = 1.0 / (1.0 - p);
        assert!(
            (res.mean_transmissions - expect).abs() < 4.0 * res.stderr.max(0.005),
            "sim {} vs analytic {expect}",
            res.mean_transmissions
        );
    }

    #[test]
    fn more_receivers_cost_more() {
        let cfg = SimConfig::paper_timing(4000);
        let a = nofec(&cfg, 2, 0.1, 3).mean_transmissions;
        let b = nofec(&cfg, 64, 0.1, 3).mean_transmissions;
        assert!(b > a, "R=64 ({b}) should beat R=2 ({a})");
    }

    #[test]
    fn trial_reports_raw_outputs() {
        let mut model = IndependentLoss::new(4, 0.0, 1);
        let mut now = 0.0;
        let mut scratch = Scratch::default();
        let out = nofec_trial(
            &SimConfig::paper_timing(1),
            &mut model,
            &mut now,
            &mut scratch,
        );
        assert_eq!(out.m_values, [1.0]);
        assert_eq!(out.rounds, 1.0);
        assert_eq!(out.unneeded, Some(0.0));
        assert!(now > 0.0, "trial must advance simulated time");
    }
}
