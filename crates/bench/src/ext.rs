//! Extension studies beyond the paper's figures — the ablations DESIGN.md
//! commits to. Each is built like a paper figure (series over a swept
//! parameter) and ships through the same `figures` binary under ids
//! `extA`..`extD` and `extF`.

use pm_analysis::endhost::{np_rates, NpOptions};
use pm_analysis::{integrated, CostModel, Population};
use pm_loss::{GilbertLoss, LossModel};
use pm_net::suppression::NakSuppressor;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::common::{receiver_grid, Figure, Quality, Series};

/// extA — bandwidth cost of proactive parities: `E[M]` vs `R` for
/// `a = 0..4` proactive parities (k = 7, p = 0.01). Proactive parities
/// trade bandwidth at small `R` for fewer feedback rounds; the penalty
/// vanishes as `R` grows (the parities would have been demanded anyway).
pub fn ext_proactive(quality: Quality) -> Figure {
    let grid = receiver_grid(quality);
    let series = [0usize, 1, 2, 4]
        .iter()
        .map(|&a| {
            let pts = grid
                .iter()
                .map(|&r| {
                    (
                        r as f64,
                        integrated::lower_bound(7, a, &Population::homogeneous(0.01, r)),
                    )
                })
                .collect();
            Series::new(format!("a = {a}"), pts)
        })
        .collect();
    Figure {
        id: "extA".into(),
        title: "proactive parities: bandwidth vs latency trade (k = 7, p = 0.01)".into(),
        x_label: "receivers R".into(),
        y_label: "transmissions E[M]".into(),
        log_x: true,
        series,
        notes: vec!["extension: Eq. (4)-(6) swept over the proactive count a".into()],
    }
}

/// extB — interleaving depth vs block-failure probability under burst
/// loss: an FEC block (7+1) transmitted with its packets spaced
/// `depth * delta` apart (the effect of interleaving `depth` blocks)
/// recovers more often as `depth` grows; by `depth ~ 8` the Markov chain
/// has decorrelated and the iid failure rate is restored.
pub fn ext_interleave(quality: Quality) -> Figure {
    let trials = match quality {
        Quality::Quick => 10_000,
        Quality::Full => 100_000,
    };
    let (k, h, p, b, delta) = (7usize, 1usize, 0.05, 3.0, 0.04);
    let mut series_pts = Vec::new();
    for depth in [1usize, 2, 4, 8, 16] {
        let mut model = GilbertLoss::new(1, p, b, delta, 0xE1 + depth as u64);
        let spacing = delta * depth as f64;
        let mut fails = 0u64;
        let mut lost = Vec::new();
        for t in 0..trials {
            let t0 = t as f64 * (k + h + 4) as f64 * spacing;
            let mut received = 0;
            for slot in 0..(k + h) {
                if !model.sample_one(t0 + slot as f64 * spacing, 0, &mut lost) {
                    received += 1;
                }
            }
            if received < k {
                fails += 1;
            }
        }
        series_pts.push((depth as f64, fails as f64 / trials as f64));
    }
    // The iid baseline for reference.
    let iid: f64 = {
        let n = k + h;
        1.0 - (0..=h)
            .map(|j| {
                let c = (0..j).fold(1.0, |acc, i| acc * (n - i) as f64 / (i + 1) as f64);
                c * p.powi(j as i32) * (1.0 - p).powi((n - j) as i32)
            })
            .sum::<f64>()
    };
    Figure {
        id: "extB".into(),
        title: "interleaving depth vs FEC-block failure under burst loss (7+1, b = 3)".into(),
        x_label: "interleave depth".into(),
        y_label: "P(block unrecoverable)".into(),
        log_x: false,
        series: vec![
            Series::new("burst loss", series_pts),
            Series::new("iid reference", vec![(1.0, iid), (16.0, iid)]),
        ],
        notes: vec![format!(
            "extension: Section 4.2's interleaving argument quantified; {} trials",
            trials
        )],
    }
}

/// extC — NAK aggregation ablation (Section 5.1's aside): NP processing
/// rates with one NAK per round vs one per missing packet.
pub fn ext_nak_aggregation(quality: Quality) -> Figure {
    let grid = receiver_grid(quality);
    let cost = CostModel::paper_defaults();
    let mk = |per_packet: bool, side: fn(pm_analysis::endhost::Rates) -> f64| -> Vec<(f64, f64)> {
        grid.iter()
            .map(|&r| {
                let rates = np_rates(
                    20,
                    0.01,
                    r,
                    &cost,
                    NpOptions {
                        nak_per_packet: per_packet,
                        ..Default::default()
                    },
                );
                (r as f64, side(rates) / 1e3)
            })
            .collect()
    };
    Figure {
        id: "extC".into(),
        title: "NAK aggregation ablation: per-round vs per-packet feedback (NP, k = 20)".into(),
        x_label: "receivers R".into(),
        y_label: "processing rate [pkts/msec]".into(),
        log_x: true,
        series: vec![
            Series::new("sender, per-round NAK", mk(false, |r| r.sender)),
            Series::new("sender, per-packet NAK", mk(true, |r| r.sender)),
            Series::new("receiver, per-round NAK", mk(false, |r| r.receiver)),
            Series::new("receiver, per-packet NAK", mk(true, |r| r.receiver)),
        ],
        notes: vec!["extension: the paper reports 'only a minor effect' — quantified here".into()],
    }
}

/// extD — suppression slot-width sweep: how many NAKs actually reach the
/// sender per poll as the slot `Ts` varies, for a 100-receiver population
/// with a `nak_delay` propagation lag between a NAK firing and others
/// hearing it. Too-small slots fire before damping can act (feedback
/// implosion); larger slots converge to ~1 NAK per poll at a latency
/// cost.
pub fn ext_slot_sweep(quality: Quality) -> Figure {
    let polls = match quality {
        Quality::Quick => 40,
        Quality::Full => 400,
    };
    let receivers = 100usize;
    let propagation = 0.002; // seconds from one receiver's NAK to the rest
    let mut rng = ChaCha8Rng::seed_from_u64(0xD0);
    let mut pts_naks = Vec::new();
    let mut pts_delay = Vec::new();
    for slot_ms in [0.5f64, 1.0, 2.0, 5.0, 10.0, 20.0] {
        let slot = slot_ms / 1000.0;
        let mut fired_total = 0u64;
        let mut first_delay_total = 0.0f64;
        for poll in 0..polls {
            // Each receiver needs 1..=5 packets of a k=20 round.
            let mut pop: Vec<NakSuppressor> = (0..receivers)
                .map(|i| NakSuppressor::new(slot, poll as u64 * 100 + i as u64))
                .collect();
            for s in pop.iter_mut() {
                let needed = 1 + (rng.random::<u32>() % 5) as u16;
                s.on_poll(0, 1, 20, needed, 0.0);
            }
            // Event-driven: fire in deadline order; damping reaches the
            // others `propagation` later.
            let mut fired: Vec<(f64, u16)> = Vec::new();
            loop {
                let next = pop
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| s.next_deadline().map(|d| (d, i)))
                    .min_by(|a, b| a.0.total_cmp(&b.0));
                let Some((t, i)) = next else { break };
                // Apply damping from NAKs whose propagation completed.
                for &(ft, m) in &fired {
                    if ft + propagation <= t {
                        for s in pop.iter_mut() {
                            s.on_nak_heard(0, m);
                        }
                    }
                }
                for due in pop[i].take_due(t) {
                    fired.push((t, due.needed));
                }
            }
            fired_total += fired.len() as u64;
            if let Some(&(t, _)) = fired.first() {
                first_delay_total += t;
            }
        }
        pts_naks.push((slot_ms, fired_total as f64 / polls as f64));
        pts_delay.push((slot_ms, first_delay_total / polls as f64 * 1000.0));
    }
    Figure {
        id: "extD".into(),
        title: "NAK suppression slot sweep (100 receivers, 2 ms propagation)".into(),
        x_label: "slot width Ts [ms]".into(),
        y_label: "NAKs per poll / first-NAK delay [ms]".into(),
        log_x: false,
        series: vec![
            Series::new("NAKs reaching sender", pts_naks),
            Series::new("first-NAK delay [ms]", pts_delay),
        ],
        notes: vec![
            "extension: the 'slot size Ts needs to be chosen appropriately' remark, quantified"
                .into(),
        ],
    }
}

/// extF — the real NP implementation at scale: achieved E\[M\] and NAKs
/// reaching the sender per transmission group, from actual `NpSender`/
/// `NpReceiver` machines on one `pm_mux::Mux` over a virtual clock, each
/// receiver behind a seeded `FaultyTransport::drop_only(p)`. The analytical
/// bound rides along for comparison — the implementation should hug it.
pub fn ext_protocol_scale(quality: Quality) -> Figure {
    use pm_core::{CompletionPolicy, NpConfig, NpReceiver, NpSender, RuntimeConfig};
    use pm_mux::{drive_session, Mux, MuxConfig, VirtualClock};
    use pm_net::{
        FaultConfig, FaultyTransport, MemHub, Message, PollTransport, TranscriptTransport,
    };

    let (k, p, rt) = (20usize, 0.01, RuntimeConfig::default());
    let (rs, groups): (&[usize], usize) = match quality {
        Quality::Quick => (&[4, 16, 64], 6),
        Quality::Full => (&[4, 16, 64, 256, 1024], 25),
    };
    let (mut em_pts, mut nak_pts, mut bound_pts) = (Vec::new(), Vec::new(), Vec::new());
    for &r in rs {
        let mut cfg = NpConfig::small(CompletionPolicy::KnownReceivers(r as u32));
        cfg.k = k;
        cfg.h = 255 - k;
        cfg.payload_len = 8;
        cfg.nak_slot = 0.002;
        cfg.round_timeout = 0.05;
        let sender = NpSender::new(0xF00D, &vec![0xA5; k * 8 * groups], cfg).expect("config");
        let hub = MemHub::new();
        let mut sender_tp = TranscriptTransport::new(hub.join());
        let log = sender_tp.transcript();
        let lossy =
            |i: u64| FaultyTransport::new(hub.join(), FaultConfig::drop_only(p), 0xE0 ^ (i << 8));
        let mut endpoints: Vec<_> = (0..r as u64).map(lossy).collect();
        let receivers = endpoints.iter_mut().zip(0..).map(|(tp, i)| {
            let machine = NpReceiver::new(i, 0xF00D, 0.002, 0xE0 + i as u64);
            (machine, tp as &mut dyn PollTransport)
        });
        let mut mux = Mux::new(MuxConfig::default(), VirtualClock::new());
        let (sent, received) = drive_session(&mut mux, rt, (sender, &mut sender_tp), receivers);
        assert!(received.iter().all(|rep| rep.is_ok()), "a receiver failed");
        let c = sent.expect("session completes").counters;
        let nak = |m: &Message| matches!(m, Message::Nak { .. });
        let naks = log.lock().unwrap().received_messages().filter(nak).count();
        let bound = integrated::lower_bound(k, 0, &Population::homogeneous(p, r as u64));
        let em = c.packets_sent() as f64 / c.data_sent.max(1) as f64;
        em_pts.push((r as f64, em));
        nak_pts.push((r as f64, naks as f64 / groups as f64));
        bound_pts.push((r as f64, bound));
    }
    Figure {
        id: "extF".into(),
        title: format!(
            "real NP implementation at scale (Mux on a virtual clock, k = {k}, p = {p}, {groups} groups)"
        ),
        x_label: "receivers R".into(),
        y_label: "E[M] / NAKs per group".into(),
        log_x: true,
        series: vec![
            Series::new("implementation E[M]", em_pts),
            Series::new("Eq. (6) bound", bound_pts),
            Series::new("NAKs per group at sender", nak_pts),
        ],
        notes: vec!["extension: sans-io machines on the one driver; no threads involved".into()],
    }
}

/// Extension-figure registry, like [`crate::all_figures`].
pub fn extension_figures() -> Vec<(&'static str, crate::FigureFn)> {
    vec![
        ("extA", ext_proactive as crate::FigureFn),
        ("extB", ext_interleave),
        ("extC", ext_nak_aggregation),
        ("extD", ext_slot_sweep),
        ("extF", ext_protocol_scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_scale_hugs_the_bound() {
        let fig = ext_protocol_scale(Quality::Quick);
        let em = fig.series_named("implementation E[M]").unwrap();
        let bound = fig.series_named("Eq. (6) bound").unwrap();
        for (&(r, m), &(_, b)) in em.points.iter().zip(&bound.points) {
            assert!(m >= 1.0 && m < b * 1.4, "R={r}: E[M]={m} vs bound {b}");
        }
        // Feedback stays tiny per group even as R grows.
        let naks = fig.series_named("NAKs per group at sender").unwrap();
        assert!(naks.last_y().unwrap() < 6.0, "NAKs/group {:?}", naks.points);
    }

    #[test]
    fn all_extensions_generate() {
        for (id, f) in extension_figures() {
            let fig = f(Quality::Quick);
            assert!(!fig.series.is_empty(), "{id}");
            for s in &fig.series {
                for &(x, y) in &s.points {
                    assert!(x.is_finite() && y.is_finite(), "{id}/{}", s.label);
                }
            }
        }
    }

    #[test]
    fn proactive_penalty_shrinks_with_r() {
        let fig = ext_proactive(Quality::Full);
        let a0 = fig.series_named("a = 0").unwrap();
        let a4 = fig.series_named("a = 4").unwrap();
        let gap_small = a4.points[0].1 - a0.points[0].1;
        let gap_large = a4.last_y().unwrap() - a0.last_y().unwrap();
        assert!(
            gap_small > 0.4,
            "at R=1 four parities cost ~4/7: {gap_small}"
        );
        assert!(
            gap_large < gap_small / 2.0,
            "penalty must shrink: {gap_large} vs {gap_small}"
        );
    }

    #[test]
    fn interleaving_restores_iid_failure_rate() {
        let fig = ext_interleave(Quality::Quick);
        let burst = fig.series_named("burst loss").unwrap();
        let iid = fig.series_named("iid reference").unwrap().points[0].1;
        let depth1 = burst.points[0].1;
        let depth16 = burst.last_y().unwrap();
        assert!(
            depth1 > iid * 1.3,
            "no interleaving is clearly worse: {depth1} vs iid {iid}"
        );
        assert!(
            (depth16 - iid).abs() / iid < 0.35,
            "deep interleaving approaches iid: {depth16} vs {iid}"
        );
        // Monotone improvement.
        for w in burst.points.windows(2) {
            assert!(w[1].1 <= w[0].1 * 1.1, "deeper should not be worse: {w:?}");
        }
    }

    #[test]
    fn nak_aggregation_is_minor() {
        let fig = ext_nak_aggregation(Quality::Full);
        let per_round = fig
            .series_named("receiver, per-round NAK")
            .unwrap()
            .last_y()
            .unwrap();
        let per_packet = fig
            .series_named("receiver, per-packet NAK")
            .unwrap()
            .last_y()
            .unwrap();
        let rel = (per_round - per_packet).abs() / per_round;
        assert!(rel < 0.15, "paper: 'only a minor effect'; got {rel}");
        assert!(per_round >= per_packet - 1e-12, "aggregation can only help");
    }

    #[test]
    fn slot_sweep_shows_the_tradeoff() {
        let fig = ext_slot_sweep(Quality::Quick);
        let naks = fig.series_named("NAKs reaching sender").unwrap();
        let first = naks.points[0].1;
        let last = naks.last_y().unwrap();
        assert!(
            first > last,
            "tiny slots imply more NAKs: {first} -> {last}"
        );
        // With ~20 same-demand receivers sharing the earliest slot and a
        // 2 ms propagation delay, a handful of NAKs always escape before
        // damping lands; wide slots cut the implosion by >3x but cannot
        // reach exactly one.
        assert!(
            last < first / 3.0,
            "wide slots should cut NAKs >3x: {first} -> {last}"
        );
        assert!(
            last <= 4.5,
            "wide slots land near a handful of NAKs: {last}"
        );
        let delay = fig.series_named("first-NAK delay [ms]").unwrap();
        assert!(
            delay.last_y().unwrap() > delay.points[0].1,
            "wider slots pay in latency"
        );
    }
}
