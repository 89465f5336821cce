//! One run of one workload: warm up, repeat for the time given, reduce
//! the repetitions to the metrics, check the outputs.
//!
//! With tracing off the run reports the end-to-end metrics, measured on
//! the bare program. With tracing on it reports the per-layer metrics:
//! standalone replays first, then pairs of an untraced and a traced
//! repetition with the same inputs, whose difference is the tracing
//! overhead.

use std::time::{Duration, Instant};

use pm_analysis::{integrated, nofec, Population};

use crate::host::{self, CpuSample};
use crate::layers;
use crate::protocol::{self, derive, Rep};
use crate::sim;
use crate::spec::{
    Body, NetKind, Proto, ProtoSpec, SimSpec, Workload, E2E, EM_TOLERANCE, PER_LAYER,
};
use crate::stats::{self, Quartiles};
use crate::trace::{self, Kind, Off, TraceData, Traced, KINDS};

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Fixed repetition count, overriding the time budget.
    pub reps: Option<usize>,
    /// Where the traced repetition's spans are written.
    pub trace_dir: std::path::PathBuf,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Quartiles over the run's repetitions, for metrics that are a
    /// median of per-repetition values.
    pub over_reps: Option<Quartiles>,
}

pub struct Output {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Why `correct` is false.
    pub problems: Vec<String>,
    pub reps: usize,
    /// Human-readable extras printed above the metrics.
    pub notes: Vec<String>,
}

const STREAM_REP: u64 = 5;
const WARMUP_REP: u64 = u64::MAX;

/// Inputs change from repetition to repetition (all derived from the one
/// seed), so `em` and the session times pool independent loss patterns.
fn rep_seed(seed: u64, rep: u64) -> u64 {
    derive(seed, STREAM_REP, rep)
}

/// How long to keep repeating.
struct Budget {
    deadline: Instant,
    fixed: Option<usize>,
    min_reps: usize,
}

impl Budget {
    fn new(seconds: f64, fixed: Option<usize>, min_reps: usize) -> Budget {
        Budget {
            deadline: Instant::now() + Duration::from_secs_f64(seconds.max(0.0)),
            fixed,
            min_reps,
        }
    }

    fn more(&self, done: usize) -> bool {
        match self.fixed {
            Some(n) => done < n,
            None => done < self.min_reps || Instant::now() < self.deadline,
        }
    }
}

/// One repetition's timings.
struct Timing {
    setup_s: f64,
    wall_s: f64,
    cpu: CpuSample,
    deliveries: u64,
    /// Wall-clock session times of the repetition, ms. Where a single
    /// session's end cannot be seen on the wall clock -- under the virtual
    /// clock and in the simulator -- the one entry is the whole batch.
    session_ms: Vec<f64>,
    /// Sender-side session times on the virtual clock, ms (exact and
    /// repeatable for a seed); empty on the wall clock.
    virtual_ms: Vec<f64>,
}

impl Timing {
    fn cpu_ns_per_pkt(&self) -> f64 {
        self.cpu.cpu_ns() / self.deliveries as f64
    }
}

/// Per-repetition samples the end-to-end metrics are reduced from. Every
/// timing metric is the plain median over the run's repetitions of that
/// repetition's own value; nothing is taken out of a wall time.
#[derive(Default)]
struct Samples {
    reps: Vec<Timing>,
    cpu: CpuSample,
    deliveries: u64,
    em_num: f64,
    em_den: f64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Samples {
    fn push_timing(&mut self, t: Timing) {
        self.cpu.add(&t.cpu);
        self.deliveries += t.deliveries;
        self.reps.push(t);
    }

    fn push_protocol(&mut self, spec: &ProtoSpec, rep: &Rep) {
        let (session_ms, virtual_ms) = match spec.net {
            NetKind::Mem => (vec![rep.wall_s * 1e3], rep.session_ms.clone()),
            NetKind::Farm => (rep.session_ms.clone(), Vec::new()),
        };
        self.push_timing(Timing {
            setup_s: rep.setup_s,
            wall_s: rep.wall_s,
            cpu: rep.cpu,
            deliveries: rep.deliveries,
            session_ms,
            virtual_ms,
        });
        self.em_num += rep.sender.packets_sent() as f64;
        self.em_den += rep.sender.data_sent as f64;
        self.attempted += rep.sessions;
        self.failed += rep.failed_sessions;
        if let Some(why) = &rep.failure {
            if self.problems.len() < 5 {
                self.problems.push(why.clone());
            }
        }
    }

    fn push_sim(&mut self, rep: &sim::SimRep) {
        self.push_timing(Timing {
            setup_s: rep.setup_s,
            wall_s: rep.wall_s,
            cpu: rep.cpu,
            deliveries: rep.deliveries,
            session_ms: vec![rep.wall_s * 1e3],
            virtual_ms: Vec::new(),
        });
        self.em_num += rep.result.mean_transmissions;
        self.em_den += 1.0;
        self.attempted += rep.result.trials as u64;
    }

    fn em(&self) -> f64 {
        ratio(self.em_num, self.em_den)
    }

    /// One value per repetition that delivered something (all of them,
    /// unless a session failed).
    fn per_rep(&self, f: impl Fn(&Timing) -> f64) -> Vec<f64> {
        self.reps
            .iter()
            .filter(|t| t.deliveries > 0)
            .map(f)
            .collect()
    }

    /// Deliveries per second of timed-region wall, repetition by
    /// repetition.
    fn goodput(&self) -> Vec<f64> {
        self.per_rep(|t| t.deliveries as f64 / t.wall_s)
    }

    fn cpu_ns_per_pkt(&self) -> Vec<f64> {
        self.per_rep(Timing::cpu_ns_per_pkt)
    }

    /// Session times pooled over repetitions.
    fn session_ms(&self) -> Vec<f64> {
        self.reps
            .iter()
            .flat_map(|t| t.session_ms.iter().copied())
            .collect()
    }

    fn e2e_metrics(&self) -> Vec<Metric> {
        let setup: Vec<f64> = self.reps.iter().map(|t| t.setup_s).collect();
        let user = self.per_rep(|t| t.cpu_ns_per_pkt() * t.cpu.user_frac());
        let sessions = self.session_ms();
        let session_means: Vec<f64> = self
            .reps
            .iter()
            .map(|t| ratio(t.session_ms.iter().sum(), t.session_ms.len() as f64))
            .collect();
        let over_reps = |v: &[f64]| (stats::median(v), stats::quartiles(v));
        let values = [
            over_reps(&setup),
            over_reps(&self.goodput()),
            over_reps(&self.cpu_ns_per_pkt()),
            over_reps(&user),
            (self.em(), None),
            (
                ratio(sessions.iter().sum(), sessions.len() as f64),
                stats::quartiles(&session_means),
            ),
            (host::peak_rss_mib(), None),
        ];
        E2E.iter()
            .zip(values)
            .map(|(m, (value, over_reps))| Metric {
                name: m.name,
                unit: m.unit,
                value,
                over_reps,
            })
            .collect()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The analytical E[M] at the workload's (k, h, p, R).
fn predicted_em(spec: &ProtoSpec) -> f64 {
    let pop = Population::homogeneous(spec.loss, u64::from(spec.receivers));
    match spec.proto {
        Proto::Np => integrated::finite(spec.k, spec.h, 0, &pop),
        Proto::N2 => nofec::expected_transmissions(&pop),
    }
}

fn em_deviation(measured: f64, predicted: f64) -> f64 {
    if predicted == 0.0 {
        0.0
    } else {
        (measured / predicted - 1.0).abs()
    }
}

/// `em` is checked against the analysis where it repeats exactly for a
/// seed: on the virtual clock. On real UDP a kernel drop moves it.
fn check_em(name: &str, measured: f64, predicted: f64, problems: &mut Vec<String>) {
    let dev = em_deviation(measured, predicted);
    if dev > EM_TOLERANCE {
        problems.push(format!(
            "{name}: measured E[M] {measured:.5} is {:.1}% from the analysis ({predicted:.5}); tolerance {:.0}%",
            dev * 100.0,
            EM_TOLERANCE * 100.0
        ));
    }
}

fn finish(samples: Samples, metrics: Vec<Metric>, reps: usize, notes: Vec<String>) -> Output {
    let mut problems = samples.problems;
    if samples.failed > 0 {
        problems.push(format!(
            "{} of {} sessions did not end clean and verified",
            samples.failed, samples.attempted
        ));
    }
    Output {
        correct: problems.is_empty(),
        attempted: samples.attempted.max(1),
        failed: samples.failed,
        metrics,
        problems,
        reps,
        notes,
    }
}

pub fn run(opts: &Options) -> Result<Output, String> {
    match (opts.workload.body, opts.trace) {
        (Body::Protocol(spec), false) => protocol_e2e(opts, &spec),
        (Body::Protocol(spec), true) => protocol_layers(opts, &spec),
        (Body::Sim(spec), false) => sim_e2e(opts, &spec),
        (Body::Sim(spec), true) => sim_layers(opts, &spec),
    }
}

/// On the real socket at p = 0 nothing may be lost: a repair there means
/// the kernel dropped a datagram, and refused traffic means the hub did.
/// Either makes the run incorrect (and `em`, CPU and goodput meaningless).
#[derive(Default)]
struct LosslessFarm {
    repairs: u64,
    refused: u64,
}

impl LosslessFarm {
    fn add(&mut self, spec: &ProtoSpec, rep: &Rep) {
        if spec.net == NetKind::Farm && spec.loss == 0.0 {
            self.repairs += rep.sender.repairs_sent;
            if let Some(f) = rep.farm {
                self.refused += f.unknown_session + f.queue_overflow + f.foreign;
            }
        }
    }

    fn check(&self, problems: &mut Vec<String>) {
        if self.repairs > 0 {
            problems.push(format!(
                "{} repairs at p=0: the kernel dropped datagrams",
                self.repairs
            ));
        }
        if self.refused > 0 {
            problems.push(format!(
                "the farm hub refused {} datagrams at p=0",
                self.refused
            ));
        }
    }
}

fn protocol_e2e(opts: &Options, spec: &ProtoSpec) -> Result<Output, String> {
    // Untimed warm-up: lazy GF tables, SIMD dispatch, allocator arenas.
    protocol::run_rep(spec, rep_seed(opts.seed, WARMUP_REP), &Off)?;
    let budget = Budget::new(opts.seconds, opts.reps, 3);
    let mut samples = Samples::default();
    let mut lossless = LosslessFarm::default();
    let mut reps = 0usize;
    while budget.more(reps) {
        let rep = protocol::run_rep(spec, rep_seed(opts.seed, reps as u64), &Off)?;
        lossless.add(spec, &rep);
        samples.push_protocol(spec, &rep);
        reps += 1;
    }
    lossless.check(&mut samples.problems);
    let predicted = predicted_em(spec);
    let mut notes = vec![format!(
        "E[M] measured {:.5}, analysis {:.5} (deviation {:.2}%)",
        samples.em(),
        predicted,
        em_deviation(samples.em(), predicted) * 100.0
    )];
    match spec.net {
        NetKind::Mem => check_em(
            opts.workload.name,
            samples.em(),
            predicted,
            &mut samples.problems,
        ),
        NetKind::Farm => {
            notes.push("UDP traffic crosses the host loopback, not a link".to_string());
        }
    }
    notes.push(format!(
        "goodput {:.2} MiB/s of payload, counted once per session",
        goodput_mib_s(spec, &samples)
    ));
    let metrics = samples.e2e_metrics();
    Ok(finish(samples, metrics, reps, notes))
}

/// `goodput_pkt_s` restated in payload bytes, counted once per session.
fn goodput_mib_s(spec: &ProtoSpec, samples: &Samples) -> f64 {
    stats::median(&samples.goodput()) * spec.payload_len as f64
        / f64::from(spec.receivers)
        / (1024.0 * 1024.0)
}

/// Repeat the simulator workload; returns the samples, the repetition
/// count and the analytical E[M] its set-up evaluates.
fn sim_reps(
    opts: &Options,
    spec: &SimSpec,
    min_reps: usize,
) -> Result<(Samples, usize, f64), String> {
    let warm = sim::run_rep(spec, rep_seed(opts.seed, WARMUP_REP));
    sim::check_parallel_identity(spec, rep_seed(opts.seed, WARMUP_REP), &warm.result)?;
    let budget = Budget::new(opts.seconds, opts.reps, min_reps);
    let mut samples = Samples::default();
    let mut reps = 0usize;
    while budget.more(reps) {
        samples.push_sim(&sim::run_rep(spec, rep_seed(opts.seed, reps as u64)));
        reps += 1;
    }
    check_em(
        opts.workload.name,
        samples.em(),
        warm.em_pred,
        &mut samples.problems,
    );
    Ok((samples, reps, warm.em_pred))
}

fn sim_e2e(opts: &Options, spec: &SimSpec) -> Result<Output, String> {
    let (samples, reps, predicted) = sim_reps(opts, spec, 3)?;
    let notes = vec![
        format!(
            "E[M] simulated {:.5}, analysis {:.5} (deviation {:.2}%)",
            samples.em(),
            predicted,
            em_deviation(samples.em(), predicted) * 100.0
        ),
        format!(
            "{:.0} trials/s; serial result bit-identical to {} workers",
            stats::median(&samples.goodput()) / (spec.k * spec.receivers) as f64,
            host::nproc().min(2)
        ),
    ];
    let metrics = samples.e2e_metrics();
    Ok(finish(samples, metrics, reps, notes))
}

/// Per-layer values by name; anything not set reports 0 (the layer did
/// not run on this workload).
struct LayerValues(Vec<(&'static str, f64)>);

impl LayerValues {
    fn new() -> LayerValues {
        LayerValues(Vec::with_capacity(PER_LAYER.len()))
    }

    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|m| m.name == name), "unknown {name}");
        debug_assert!(self.0.iter().all(|(n, _)| *n != name), "{name} set twice");
        self.0
            .push((name, if value.is_finite() { value } else { 0.0 }));
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|m| Metric {
                name: m.name,
                unit: m.unit,
                value: self.get(m.name),
                over_reps: None,
            })
            .collect()
    }
}

/// The replays that depend on nothing a workload does. They run once per
/// result set, in the traced run of the simulator workload (which has no
/// mux to trace), and read 0 everywhere else.
fn standalone(seed: u64, v: &mut LayerValues) -> Result<(), String> {
    v.set("rse.encode_mib_s.k7h1", layers::rse_encode_mib_s(7, 1));
    v.set(
        "rse.encode_mib_s.k100h16",
        layers::rse_encode_mib_s(100, 16),
    );
    v.set(
        "rse.decode_mib_s.k100l10",
        layers::rse_decode_mib_s(100, 10),
    );
    let (active, scalar) = layers::gf_mul_add_gib_s();
    v.set("gf.mul_add_gib_s", active);
    v.set("gf.mul_add_scalar_gib_s", scalar);
    let (null, ring) = layers::obs_emit_ns();
    v.set("obs.null_emit_ns", null);
    v.set("obs.ring_emit_ns", ring);
    v.set("wheel.insert_fire_ns", layers::wheel_insert_fire_ns());
    v.set(
        "mux.farm_us_per_session_256",
        layers::farm_us_per_session(256),
    );
    v.set(
        "mux.farm_us_per_session_1024",
        layers::farm_us_per_session(1024),
    );
    v.set("loss.sample_ns_per_rcv", layers::loss_sample_ns_per_rcv());
    v.set("analysis.em_eval_us", layers::analysis_em_eval_us());
    let (trial_us, speedup) = layers::sim_trial_us_and_speedup(seed)?;
    v.set("sim.trial_us", trial_us);
    v.set("par.speedup_w2", speedup);
    Ok(())
}

/// Sums over the traced repetitions of a run.
#[derive(Default)]
struct TraceSums {
    aggs: [trace::Agg; KINDS.len()],
    /// Estimated time inside all calls of each name (exact where every
    /// call was timed), summed repetition by repetition.
    est_ns: [f64; KINDS.len()],
    counts: trace::BoundaryCounts,
    turn_us: Vec<f64>,
    reps: u64,
}

impl TraceSums {
    fn add(&mut self, data: &TraceData) {
        for kind in KINDS {
            let (s, a) = (&mut self.aggs[kind as usize], data.agg(kind));
            s.calls += a.calls;
            s.spans += a.spans;
            s.span_ns += a.span_ns;
            s.self_ns += a.self_ns;
            self.est_ns[kind as usize] += a.est_total_ns();
        }
        let (s, c) = (&mut self.counts, &data.counts);
        s.recv_nonempty += c.recv_nonempty;
        s.transmits += c.transmits;
        s.naks_handled += c.naks_handled;
        s.cache_hits += c.cache_hits;
        s.cache_misses += c.cache_misses;
        self.turn_us
            .extend(data.turn_ns.iter().map(|ns| f64::from(*ns) / 1e3));
        self.reps += 1;
    }

    fn total_ns(&self, kind: Kind) -> f64 {
        self.est_ns[kind as usize]
    }

    /// Calls across the boundary (exact).
    fn count(&self, kind: Kind) -> f64 {
        self.aggs[kind as usize].calls as f64
    }

    fn spans(&self) -> f64 {
        self.aggs.iter().map(|a| a.spans as f64).sum()
    }
}

fn protocol_layers(opts: &Options, spec: &ProtoSpec) -> Result<Output, String> {
    protocol::run_rep(spec, rep_seed(opts.seed, WARMUP_REP), &Off)?;
    let budget = Budget::new(opts.seconds, opts.reps, 2);
    let mut v = LayerValues::new();
    // The one replay that depends on the workload: its packet size.
    let (enc, dec) = layers::wire_ns(spec.payload_len);
    v.set("wire.encode_ns_per_pkt", enc);
    v.set("wire.decode_ns_per_pkt", dec);

    let traced = Traced::new();
    let mut samples = Samples::default();
    let mut lossless = LosslessFarm::default();
    let mut counts = Counts::default();
    let mut traced_deliveries = 0u64;
    let mut sums = TraceSums::default();
    let (mut plain_wall, mut overhead) = (Vec::new(), Vec::new());
    let mut last_trace = None;
    let mut reps = 0usize;
    while budget.more(reps) {
        let seed = rep_seed(opts.seed, reps as u64);
        let plain = protocol::run_rep(spec, seed, &Off)?;
        trace::start();
        let rep = protocol::run_rep(spec, seed, &traced);
        let data = trace::finish().ok_or("the tracer lost its data")?;
        let rep = rep?;
        lossless.add(spec, &plain);
        lossless.add(spec, &rep);
        // Delivered bytes need no comparing: both sides were verified
        // against the same payload.
        if spec.net == NetKind::Mem
            && (plain.sender != rep.sender || plain.receivers != rep.receivers)
        {
            samples.problems.push(format!(
                "repetition {reps}: the traced run diverged from its untraced twin"
            ));
        }
        // Same inputs on both sides of a pair, so on the wall-clock
        // workloads the loss pattern's timer waits cancel.
        plain_wall.push(plain.wall_s);
        overhead.push(rep.wall_s / plain.wall_s - 1.0);
        samples.push_protocol(spec, &plain);
        samples.failed += rep.failed_sessions;
        samples.attempted += rep.sessions;
        if let Some(why) = &rep.failure {
            samples.problems.push(format!("traced: {why}"));
        }
        counts.add(&rep);
        traced_deliveries += rep.deliveries;
        sums.add(&data);
        last_trace = Some(data);
        reps += 1;
    }

    // --- the budget: where the traced wall time went ---
    let wall = sums.total_ns(Kind::Run);
    let deliveries = traced_deliveries as f64;
    let n = sums.reps as f64;
    let enc = traced.encode_ns.snapshot();
    let dec = traced.decode_ns.snapshot();
    let (enc_ns, dec_ns) = (enc.sum as f64, dec.sum as f64);
    let net_send = sums.total_ns(Kind::NetSend);
    let net_recv = sums.total_ns(Kind::NetPollRecv);
    let sender =
        (sums.total_ns(Kind::SenderNextStep) + sums.total_ns(Kind::SenderHandle) - enc_ns).max(0.0);
    const HANDLES: [Kind; 3] = [
        Kind::ReceiverHandle,
        Kind::ReceiverHandleRepair,
        Kind::ReceiverHandleCtl,
    ];
    let receiver_handle: f64 = HANDLES.iter().map(|k| sums.total_ns(*k)).sum();
    let receiver = (receiver_handle + sums.total_ns(Kind::ReceiverOnTimer) - dec_ns).max(0.0);
    let idle = sums.total_ns(Kind::ClockAdvance);
    let rse = enc_ns + dec_ns;
    let mux_self = (wall - net_send - net_recv - sender - receiver - idle - rse).max(0.0);
    let ms = |ns: f64| ns / 1e6 / n;

    v.set("trace.wall_ms", ms(wall));
    v.set("trace.untraced_wall_ms", stats::median(&plain_wall) * 1e3);
    v.set("trace.overhead_frac", stats::median(&overhead));
    v.set("trace.spans", sums.spans() / n);

    v.set("share.mux", ratio(mux_self, wall));
    v.set("share.idle", ratio(idle, wall));
    v.set("share.net_send", ratio(net_send, wall));
    v.set("share.net_recv", ratio(net_recv, wall));
    v.set("share.core_sender", ratio(sender, wall));
    v.set("share.core_receiver", ratio(receiver, wall));
    v.set("share.rse", ratio(rse, wall));

    v.set("mux.self_total_ms", ms(mux_self));
    v.set("mux.idle_total_ms", ms(idle));
    v.set("net.send_total_ms", ms(net_send));
    v.set("net.recv_total_ms", ms(net_recv));
    v.set("core.sender_total_ms", ms(sender));
    v.set("core.receiver_total_ms", ms(receiver));
    v.set("rse.encode_total_ms", ms(enc_ns));
    v.set("rse.decode_total_ms", ms(dec_ns));

    v.set("mux.self_us_per_pkt", ratio(mux_self, deliveries) / 1e3);
    v.set("mux.turns", sums.count(Kind::Turn) / n);
    v.set(
        "mux.turn_us_p50",
        stats::percentile_unguarded(&mut sums.turn_us, 50.0),
    );
    v.set(
        "mux.turn_us_p99",
        stats::percentile_unguarded(&mut sums.turn_us, 99.0),
    );
    let drives = traced.registry.histogram("mux.session_drives").snapshot();
    v.set("mux.drives_per_pkt", ratio(drives.sum as f64, deliveries));
    v.set("mux.idle_frac", ratio(idle, wall));
    v.set("mux.naps", sums.count(Kind::ClockAdvance) / n);

    let (sends, recvs) = (sums.count(Kind::NetSend), sums.count(Kind::NetPollRecv));
    v.set("net.send_us_per_call", ratio(net_send, sends) / 1e3);
    v.set("net.send_calls", sends / n);
    v.set("net.recv_us_per_call", ratio(net_recv, recvs) / 1e3);
    v.set("net.recv_calls", recvs / n);
    let empty = recvs - sums.counts.recv_nonempty as f64;
    v.set("net.recv_empty_frac", ratio(empty, recvs));
    // Datagrams the real transport took and gave back; what is missing
    // and not in the hub's refused-traffic counters, the kernel dropped.
    let refused =
        (counts.farm.unknown_session + counts.farm.queue_overflow + counts.farm.foreign) as f64;
    lossless.check(&mut samples.problems);
    if spec.net == NetKind::Farm {
        let lost = (sends - (recvs - empty) - refused).max(0.0);
        if spec.loss == 0.0 && lost > 0.0 {
            samples.problems.push(format!(
                "{lost} of {sends} datagrams sent at p=0 never came back from the socket"
            ));
        }
        v.set("farm.kernel_drop_frac", ratio(lost, sends));
        v.set("farm.unknown_drops", counts.farm.unknown_session as f64 / n);
        v.set("farm.queue_overflow", counts.farm.queue_overflow as f64 / n);
    }
    let (snd, rcv) = (&counts.sender, &counts.receivers);
    let offered = snd.packets_sent() as f64 * f64::from(spec.receivers);
    v.set(
        "fault.drop_frac",
        (1.0 - ratio(rcv.packets_received as f64, offered)).max(0.0),
    );

    v.set(
        "core.sender_step_us_per_pkt",
        ratio(
            sums.total_ns(Kind::SenderNextStep),
            sums.counts.transmits as f64,
        ) / 1e3,
    );
    v.set(
        "core.sender_handle_us_per_nak",
        ratio(
            (sums.total_ns(Kind::SenderHandle) - enc_ns).max(0.0),
            sums.counts.naks_handled as f64,
        ) / 1e3,
    );
    v.set(
        "core.recv_handle_us_per_pkt",
        ratio(
            (receiver_handle - dec_ns).max(0.0),
            HANDLES.iter().map(|k| sums.count(*k)).sum(),
        ) / 1e3,
    );
    v.set(
        "core.recv_timer_us_per_call",
        ratio(
            sums.total_ns(Kind::ReceiverOnTimer),
            sums.count(Kind::ReceiverOnTimer),
        ) / 1e3,
    );
    let groups = (u64::from(spec.sessions) * u64::from(spec.groups)) as f64 * n;
    v.set(
        "core.naks_sent_per_tg",
        ratio(rcv.feedback_sent as f64, groups),
    );
    v.set(
        "core.naks_suppressed_frac",
        ratio(
            rcv.feedback_suppressed as f64,
            (rcv.feedback_suppressed + rcv.feedback_sent) as f64,
        ),
    );
    v.set(
        "core.unneeded_rx_frac",
        ratio(rcv.unneeded_receptions as f64, rcv.packets_received as f64),
    );
    v.set(
        "core.parities_per_tg",
        ratio(snd.parities_encoded as f64, groups),
    );
    v.set(
        "core.decoded_pkts_per_tg",
        ratio(rcv.packets_decoded as f64, groups),
    );
    v.set(
        "core.sender_state_b_per_rcv",
        traced
            .registry
            .gauge("sender.state_bytes_per_receiver")
            .get() as f64,
    );
    v.set("core.feedback_sent", rcv.feedback_sent as f64 / n);
    v.set("core.repairs_sent", snd.repairs_sent as f64 / n);
    v.set("core.timers_fired", (snd.timers + rcv.timers) as f64 / n);
    v.set("rse.parities_encoded", snd.parities_encoded as f64 / n);
    v.set("rse.packets_decoded", rcv.packets_decoded as f64 / n);
    v.set(
        "rse.encode_us_per_parity",
        ratio(enc_ns, enc.count as f64) / 1e3,
    );
    v.set(
        "rse.decode_us_per_pkt",
        ratio(dec_ns, rcv.packets_decoded as f64) / 1e3,
    );
    v.set(
        "rse.decode_cache_hit_frac",
        ratio(
            sums.counts.cache_hits as f64,
            (sums.counts.cache_hits + sums.counts.cache_misses) as f64,
        ),
    );

    let predicted = predicted_em(spec);
    v.set("analysis.em_pred", predicted);
    v.set(
        "analysis.em_dev_frac",
        em_deviation(samples.em(), predicted),
    );
    if spec.net == NetKind::Mem {
        check_em(
            opts.workload.name,
            samples.em(),
            predicted,
            &mut samples.problems,
        );
    }

    // --- from the untraced twins ---
    host_metrics(&samples, &mut v);
    v.set("host.goodput_mib_s", goodput_mib_s(spec, &samples));

    let mut notes = vec![budget_table(opts.workload.name, &v)];
    if let Some(data) = last_trace {
        notes.push(write_trace(opts, &data)?);
    }
    let metrics = v.metrics();
    Ok(finish(samples, metrics, reps, notes))
}

/// What the host charged the untraced repetitions, and the session-time
/// percentiles the end-to-end mean does not show.
fn host_metrics(samples: &Samples, v: &mut LayerValues) {
    let cpu_ns = stats::median(&samples.cpu_ns_per_pkt());
    v.set(
        "host.sys_us_per_pkt",
        cpu_ns * (1.0 - samples.cpu.user_frac()) / 1e3,
    );
    v.set(
        "host.minflt_per_kpkt",
        ratio(samples.cpu.minflt as f64 * 1e3, samples.deliveries as f64),
    );
    let virtual_ms: Vec<f64> = samples
        .reps
        .iter()
        .flat_map(|t| t.virtual_ms.iter().copied())
        .collect();
    v.set(
        "core.session_virtual_ms",
        ratio(virtual_ms.iter().sum(), virtual_ms.len() as f64),
    );
    let sessions = samples.session_ms();
    v.set("host.session_ms_p50", stats::median(&sessions));
    v.set(
        "host.session_ms_p95",
        stats::percentile(&sessions, 95.0).unwrap_or(0.0),
    );
}

/// Receiver/sender work counters and refused farm traffic, summed over
/// the traced repetitions.
#[derive(Default)]
struct Counts {
    sender: pm_core::CostCounters,
    receivers: pm_core::CostCounters,
    farm: pm_net::FarmStats,
}

impl Counts {
    fn add(&mut self, rep: &Rep) {
        self.sender.merge(&rep.sender);
        self.receivers.merge(&rep.receivers);
        if let Some(f) = rep.farm {
            self.farm.unknown_session += f.unknown_session;
            self.farm.queue_overflow += f.queue_overflow;
            self.farm.foreign += f.foreign;
        }
    }
}

/// The per-workload budget: shares of the traced wall time by layer.
/// `share.mux` is the remainder, so the column sums to 1 by construction.
const BUDGET_ROWS: [(&str, &str); 7] = [
    ("share.net_send", "net.send_total_ms"),
    ("share.net_recv", "net.recv_total_ms"),
    ("share.core_sender", "core.sender_total_ms"),
    ("share.core_receiver", "core.receiver_total_ms"),
    ("share.rse", ""),
    ("share.idle", "mux.idle_total_ms"),
    ("share.mux", "mux.self_total_ms"),
];

fn budget_table(workload: &str, v: &LayerValues) -> String {
    let mut out = format!(
        "budget of {workload}: traced wall {:.1} ms per repetition (untraced {:.1} ms, overhead {:+.1}%)\n",
        v.get("trace.wall_ms"),
        v.get("trace.untraced_wall_ms"),
        v.get("trace.overhead_frac") * 100.0
    );
    let mut sum = 0.0;
    for (share, total) in BUDGET_ROWS {
        let ms = if total.is_empty() {
            v.get("rse.encode_total_ms") + v.get("rse.decode_total_ms")
        } else {
            v.get(total)
        };
        sum += v.get(share);
        out.push_str(&format!(
            "  {share:<20} {:>6.1}%  {ms:>9.2} ms\n",
            v.get(share) * 100.0
        ));
    }
    out.push_str(&format!("  {:<20} {:>6.1}%", "sum", sum * 100.0));
    out
}

fn write_trace(opts: &Options, data: &TraceData) -> Result<String, String> {
    std::fs::create_dir_all(&opts.trace_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.trace_dir.display()))?;
    let path = opts
        .trace_dir
        .join(format!("trace-{}.jsonl", opts.workload.name));
    std::fs::write(&path, data.to_jsonl(opts.workload.name))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(format!(
        "spans of the last traced repetition written to {}",
        path.display()
    ))
}

/// The simulator has no mux to wrap: its traced run is the standalone
/// replays (before the time budget starts) and its own repetitions, and
/// every metric taken from a traced mux reads 0.
fn sim_layers(opts: &Options, spec: &SimSpec) -> Result<Output, String> {
    let mut v = LayerValues::new();
    standalone(opts.seed, &mut v)?;
    let (samples, reps, predicted) = sim_reps(opts, spec, 2)?;
    v.set("analysis.em_pred", predicted);
    v.set(
        "analysis.em_dev_frac",
        em_deviation(samples.em(), predicted),
    );
    host_metrics(&samples, &mut v);
    v.set("trace.untraced_wall_ms", v.get("host.session_ms_p50"));
    let metrics = v.metrics();
    Ok(finish(samples, metrics, reps, Vec::new()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;

    fn options(name: &str, trace: bool) -> Options {
        Options {
            workload: workload(name).expect("known workload").quick(),
            seed: 4,
            seconds: 1.0,
            trace,
            reps: Some(2),
            trace_dir: std::env::temp_dir().join("pm-e2e-bench-test"),
        }
    }

    fn value(out: &Output, name: &str) -> f64 {
        out.metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} not reported"))
            .value
    }

    #[test]
    fn end_to_end_run_reports_every_metric_and_none_is_zero() {
        for name in ["mem_codec_k100", "sim_fec2_r4096"] {
            let out = run(&options(name, false)).expect("runs");
            assert!(out.correct, "{name}: {:?}", out.problems);
            assert_eq!(out.failed, 0);
            let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
            let expected: Vec<&str> = E2E.iter().map(|m| m.name).collect();
            assert_eq!(names, expected, "{name}");
            for m in &out.metrics {
                assert!(
                    m.value > 0.0 && m.value.is_finite(),
                    "{name}: {} = {}",
                    m.name,
                    m.value
                );
            }
            assert!(value(&out, "user_ns_per_pkt") <= value(&out, "cpu_ns_per_pkt"));
        }
    }

    /// The budget accounts for all of the traced wall time: `share.mux`
    /// is the remainder, so the shares add up to one.
    #[test]
    fn traced_run_reports_every_layer_metric_and_shares_sum_to_one() {
        let out = run(&options("mem_codec_k100", true)).expect("runs");
        assert!(out.correct, "{:?}", out.problems);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, expected);
        let sum: f64 = BUDGET_ROWS
            .iter()
            .map(|(share, _)| value(&out, share))
            .sum();
        assert!((sum - 1.0).abs() <= 0.02, "shares sum to {sum}");
        assert!(
            value(&out, "share.rse") > 0.05,
            "the codec runs on this workload"
        );
        assert!(value(&out, "share.mux") > 0.0);
        assert!(value(&out, "trace.spans") > 0.0);
        let trace = options("mem_codec_k100", true)
            .trace_dir
            .join("trace-mem_codec_k100.jsonl");
        let text = std::fs::read_to_string(trace).expect("trace written");
        assert!(text.lines().count() > 100);
    }
}
