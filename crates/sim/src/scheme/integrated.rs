//! Integrated FEC simulations (Section 4.2's two protocol variants).

use pm_loss::LossModel;

use super::Scratch;
use crate::config::SimConfig;
use crate::metrics::TrialOut;

/// Safety valve: a single TG may not consume more than this many
/// transmissions (would indicate a pathological loss model, e.g. p ~ 1).
const MAX_TX_PER_GROUP: u64 = 1_000_000;

/// A [`Group`]'s buffers, kept by a worker between trials. At rest
/// `missed` is all zero (however long it has grown) and `touched` empty.
#[derive(Debug, Default)]
pub(crate) struct GroupBufs {
    /// `missed[rc]`: packets `rc` lost before it held `k`.
    missed: Vec<u32>,
    /// The receivers whose `missed` this trial raised from zero — all the
    /// entries the trial has to reset.
    touched: Vec<u32>,
    /// `with_missed[m]`: receivers whose `missed` is `m`. Counters only
    /// grow, so the last bucket is the running maximum.
    with_missed: Vec<u32>,
}

/// One transmission group as its losses see it. A receiver that lost `m`
/// of the `tx` packets sent while it was still incomplete holds
/// `min(k, tx - m)` of them, so a receiver's progress is one counter that
/// only a loss touches, and what the sender asks of the group — how many
/// packets the worst receiver still needs, how many receivers are done —
/// follows from the counters' histogram without a pass over the receivers.
struct Group<'s> {
    k: u64,
    /// Packets multicast so far.
    tx: u64,
    bufs: &'s mut GroupBufs,
    /// Receivers holding `k` packets.
    complete: u64,
    /// Receptions by receivers that were already complete.
    unneeded: u64,
}

impl<'s> Group<'s> {
    /// A group nobody has lost anything of yet, on `bufs` at rest.
    fn new(k: usize, receivers: usize, bufs: &'s mut GroupBufs) -> Self {
        if bufs.missed.len() < receivers {
            bufs.missed.resize(receivers, 0);
        }
        bufs.with_missed.clear();
        bufs.with_missed.push(receivers as u32);
        Group {
            k: k as u64,
            tx: 0,
            bufs,
            complete: 0,
            unneeded: 0,
        }
    }

    /// Packets the worst receiver still needs: `k - (tx - max missed)`.
    fn need(&self) -> u64 {
        self.k + (self.bufs.with_missed.len() as u64 - 1) - self.tx
    }

    /// Account one multicast packet that the receivers in `lost` missed.
    ///
    /// # Panics
    /// Panics past the transmission cap (loss model stuck at 100% loss).
    fn packet(&mut self, lost: &[u32]) {
        self.tx += 1;
        assert!(
            self.tx <= MAX_TX_PER_GROUP,
            "loss model never delivers packets"
        );
        let GroupBufs {
            missed,
            touched,
            with_missed,
        } = &mut *self.bufs;
        let mut lost_by_complete = 0;
        for &rc in lost {
            let m = missed[rc as usize] as usize;
            // Complete before this packet iff (tx - 1) - m >= k.
            if m as u64 + self.k < self.tx {
                lost_by_complete += 1;
                continue;
            }
            if m == 0 {
                touched.push(rc);
            }
            missed[rc as usize] += 1;
            with_missed[m] -= 1;
            if with_missed.len() == m + 1 {
                with_missed.push(0);
            }
            with_missed[m + 1] += 1;
        }
        // Completed receivers still on the group hear repair parities they
        // cannot use.
        self.unneeded += self.complete - lost_by_complete;
        // Whoever has now missed exactly tx - k holds exactly k: this
        // packet completed them, and their counters are final.
        if self.tx >= self.k {
            let done = with_missed.get((self.tx - self.k) as usize);
            self.complete += u64::from(done.copied().unwrap_or(0));
        }
    }

    /// End the trial: hand the buffers back at rest — zeroing the
    /// counters this trial raised, and only those — and return the
    /// packets sent and the unneeded receptions.
    fn finish(self) -> (u64, u64) {
        let GroupBufs {
            missed, touched, ..
        } = self.bufs;
        for &rc in touched.iter() {
            missed[rc as usize] = 0;
        }
        touched.clear();
        (self.tx, self.unneeded)
    }
}

/// One integrated-FEC-1 trial: parities stream back-to-back behind the
/// data at rate `1/delta`; a receiver departs the group the moment it
/// holds `k` packets and the sender stops once everyone has. No feedback
/// rounds, no interleaving — under burst loss consecutive parities fall
/// into the same burst. `E[M] = (k + L)/k`, `L` the parities streamed.
///
/// # Panics
/// Panics if the trial exceeds the internal transmission cap (loss model
/// stuck at 100% loss).
pub(crate) fn integrated_1_trial<'s, M: LossModel>(
    cfg: &SimConfig,
    k: usize,
    model: &mut M,
    now: &mut f64,
    scratch: &'s mut Scratch,
) -> TrialOut<'s> {
    let mut group = Group::new(k, model.receivers(), &mut scratch.group);
    while group.need() > 0 {
        model.sample_lost(*now, &mut scratch.lost);
        *now += cfg.delta;
        group.packet(&scratch.lost);
    }
    let (tx, _) = group.finish();
    TrialOut {
        m_values: scratch.one_m_value(tx as f64 / k as f64),
        rounds: 1.0,
        // Departed receivers no longer listen — by construction integrated
        // FEC 1 has zero unnecessary receptions (Section 2.1 bullet 3).
        unneeded: None,
    }
}

/// One integrated-FEC-2 trial (protocol NP's schedule): round 1 multicasts
/// the `k` data packets; after a feedback gap of `T` the sender multicasts
/// exactly as many parities as the worst receiver still needs; repeat —
/// which spreads a group's parities over time (implicit interleaving).
/// `rounds` is the paper's appendix `E[T]`.
///
/// # Panics
/// As for [`integrated_1_trial`].
pub(crate) fn integrated_2_trial<'s, M: LossModel>(
    cfg: &SimConfig,
    k: usize,
    model: &mut M,
    now: &mut f64,
    scratch: &'s mut Scratch,
) -> TrialOut<'s> {
    let r = model.receivers();
    let mut group = Group::new(k, r, &mut scratch.group);
    let mut rounds = 0u64;
    loop {
        // `k` before anything was sent (the data), the worst receiver's
        // deficit afterwards (parities).
        let burst = group.need();
        if burst == 0 {
            break;
        }
        rounds += 1;
        for _ in 0..burst {
            model.sample_lost(*now, &mut scratch.lost);
            *now += cfg.delta;
            group.packet(&scratch.lost);
        }
        *now += cfg.feedback_delay;
    }
    let (tx, unneeded) = group.finish();
    TrialOut {
        m_values: scratch.one_m_value(tx as f64 / k as f64),
        rounds: rounds as f64,
        unneeded: Some(unneeded as f64 / r as f64),
    }
}

#[cfg(test)]
/// Dense oracle of [`integrated_1_trial`]: one pass over all `R` receivers
/// per packet, on buffers of its own (it takes from `scratch` only the
/// `m_values` it lends out).
pub(crate) fn integrated_1_trial_dense<'s, M: LossModel>(
    cfg: &SimConfig,
    k: usize,
    model: &mut M,
    now: &mut f64,
    scratch: &'s mut Scratch,
) -> TrialOut<'s> {
    let r = model.receivers();
    let mut lost = vec![false; r];
    let mut have = vec![0usize; r];
    let mut remaining = r;
    let mut tx = 0u64;
    while remaining > 0 {
        tx += 1;
        assert!(tx <= MAX_TX_PER_GROUP, "loss model never delivers packets");
        model.sample(*now, &mut lost);
        *now += cfg.delta;
        for rc in 0..r {
            // Departed receivers (have >= k) no longer listen — by
            // construction integrated FEC 1 has zero unnecessary
            // receptions (the paper's Section 2.1 bullet 3).
            if have[rc] < k && !lost[rc] {
                have[rc] += 1;
                if have[rc] == k {
                    remaining -= 1;
                }
            }
        }
    }
    TrialOut {
        m_values: scratch.one_m_value(tx as f64 / k as f64),
        rounds: 1.0,
        unneeded: None, // departed receivers hear nothing
    }
}

#[cfg(test)]
/// Dense oracle of [`integrated_2_trial`].
pub(crate) fn integrated_2_trial_dense<'s, M: LossModel>(
    cfg: &SimConfig,
    k: usize,
    model: &mut M,
    now: &mut f64,
    scratch: &'s mut Scratch,
) -> TrialOut<'s> {
    let r = model.receivers();
    let mut lost = vec![false; r];
    let mut have = vec![0usize; r];
    let mut tx = 0u64;
    let mut rounds = 0u64;
    let mut unneeded = 0u64;
    loop {
        // How many packets does the worst receiver still need?
        let need = have.iter().map(|&h| k - h.min(k)).max().unwrap_or(0);
        if need == 0 {
            break;
        }
        rounds += 1;
        // Send `k` in round 1 (data), `need` parities afterwards.
        let burst = if rounds == 1 { k } else { need };
        for _ in 0..burst {
            tx += 1;
            assert!(tx <= MAX_TX_PER_GROUP, "loss model never delivers packets");
            model.sample(*now, &mut lost);
            *now += cfg.delta;
            for rc in 0..r {
                if !lost[rc] {
                    if have[rc] < k {
                        have[rc] += 1;
                    } else {
                        // Completed receivers still on the group hear
                        // repair parities they cannot use.
                        unneeded += 1;
                    }
                }
            }
        }
        *now += cfg.feedback_delay;
    }
    TrialOut {
        m_values: scratch.one_m_value(tx as f64 / k as f64),
        rounds: rounds as f64,
        unneeded: Some(unneeded as f64 / r as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::SimResult;
    use crate::runner::{run_env, LossEnv, Scheme};
    use pm_analysis::{integrated, rounds, Population};
    use pm_loss::IndependentLoss;

    fn integrated_1(cfg: &SimConfig, k: usize, env: LossEnv, r: usize, seed: u64) -> SimResult {
        run_env(cfg, Scheme::Integrated1 { k }, env, r, seed)
    }

    fn integrated_2(cfg: &SimConfig, k: usize, env: LossEnv, r: usize, seed: u64) -> SimResult {
        run_env(cfg, Scheme::Integrated2 { k }, env, r, seed)
    }

    #[test]
    fn lossless_is_one() {
        let cfg = SimConfig::paper_timing(50);
        let env = LossEnv::Independent { p: 0.0 };
        assert_eq!(integrated_1(&cfg, 7, env, 8, 1).mean_transmissions, 1.0);
        let res = integrated_2(&cfg, 7, env, 8, 1);
        assert_eq!(res.mean_transmissions, 1.0);
        assert_eq!(res.mean_rounds, 1.0);
    }

    #[test]
    fn both_variants_match_lower_bound_under_independent_loss() {
        // With memoryless loss the two schedules are statistically
        // identical and equal the Eq. (6) lower bound.
        let (k, p, r) = (7usize, 0.05, 16usize);
        let cfg = SimConfig::paper_timing(6000);
        let analytic = integrated::lower_bound(k, 0, &Population::homogeneous(p, r as u64));
        let env = LossEnv::Independent { p };
        let r1 = integrated_1(&cfg, k, env, r, 3);
        assert!(
            (r1.mean_transmissions - analytic).abs() < 5.0 * r1.stderr.max(0.01),
            "int1 {} vs analytic {analytic}",
            r1.mean_transmissions
        );
        let r2 = integrated_2(&cfg, k, env, r, 4);
        assert!(
            (r2.mean_transmissions - analytic).abs() < 5.0 * r2.stderr.max(0.01),
            "int2 {} vs analytic {analytic}",
            r2.mean_transmissions
        );
    }

    #[test]
    fn rounds_match_appendix_bound() {
        // E[T] from the simulation should not exceed the Eq. (17) upper
        // bound (which assumes per-receiver parity counts) by more than
        // noise, and should be at least 1.
        let (k, p, r) = (20usize, 0.05, 8usize);
        let cfg = SimConfig::paper_timing(4000);
        let res = integrated_2(&cfg, k, LossEnv::Independent { p }, r, 9);
        let bound = rounds::expected_rounds(k, &Population::homogeneous(p, r as u64));
        assert!(res.mean_rounds >= 1.0);
        assert!(
            res.mean_rounds <= bound + 0.05,
            "sim rounds {} exceed bound {bound}",
            res.mean_rounds
        );
    }

    #[test]
    fn burst_loss_favours_interleaved_variant_at_small_k() {
        // Fig. 16: at k = 7 under bursty loss, integrated FEC 2 (rounds
        // spaced by T) beats integrated FEC 1 (parities back-to-back inside
        // the burst).
        let cfg = SimConfig::paper_timing(4000);
        let r = 16;
        let env = LossEnv::Burst {
            p: 0.03,
            mean_burst: 2.5,
        };
        let v1 = integrated_1(&cfg, 7, env, r, 21).mean_transmissions;
        let v2 = integrated_2(&cfg, 7, env, r, 21).mean_transmissions;
        assert!(v2 < v1, "int2 {v2} should beat int1 {v1} under burst loss");
    }

    #[test]
    fn large_k_is_burst_resistant() {
        // Fig. 16's other message: k = 100 needs no interleaving — both
        // variants land close together and close to 1.
        let cfg = SimConfig::paper_timing(800);
        let r = 16;
        let env = LossEnv::Burst {
            p: 0.01,
            mean_burst: 2.0,
        };
        let v1 = integrated_1(&cfg, 100, env, r, 31).mean_transmissions;
        let v2 = integrated_2(&cfg, 100, env, r, 31).mean_transmissions;
        assert!(v1 < 1.2 && v2 < 1.2, "int1={v1} int2={v2}");
        assert!(
            (v1 - v2).abs() < 0.05,
            "variants should nearly coincide: {v1} vs {v2}"
        );
    }

    #[test]
    fn int1_trial_reports_no_unneeded() {
        let mut m = IndependentLoss::new(4, 0.0, 1);
        let mut now = 0.0;
        let mut scratch = Scratch::default();
        let out = integrated_1_trial(
            &SimConfig::paper_timing(1),
            7,
            &mut m,
            &mut now,
            &mut scratch,
        );
        assert_eq!(out.m_values, [1.0]);
        assert_eq!(out.unneeded, None, "int1 cannot waste receptions");
    }
}
