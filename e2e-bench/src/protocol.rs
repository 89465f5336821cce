//! One repetition of a protocol workload: whole NP/N2 sessions through
//! machine -> pm-rse -> wire v2 -> `MemHub` or one loopback `FarmHub`
//! socket -> `Mux` -> receivers, every receiver's bytes checked against
//! the payload.
//!
//! Closed batch load: every session of the repetition is registered
//! before the timed region starts and there is no arrival process.

use std::time::{Duration, Instant};

use pm_core::config::{CompletionPolicy, NpConfig};
use pm_core::n2::{N2Receiver, N2Sender};
use pm_core::receiver::NpReceiver;
use pm_core::runtime::RuntimeConfig;
use pm_core::sender::NpSender;
use pm_core::CostCounters;
use pm_mux::{Mux, MuxClock, MuxConfig, SessionOutcome, VirtualClock, WallClock};
use pm_net::farm::FarmEndpoint;
use pm_net::mem::MemEndpoint;
use pm_net::{
    FarmHub, FarmRole, FarmStats, MemHub, Message, NetError, PollTransport, Token, Transport,
};

use crate::host::CpuSample;
use crate::spec::{NetKind, Proto, ProtoSpec};
use crate::trace::Instr;

/// splitmix64 over `(seed, stream, index)`: every derived seed -- payload
/// bytes, each endpoint's loss pattern, each receiver's NAK jitter -- comes from
/// the one `--seed`, and the program under test sees only the results.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    mix64(
        seed.wrapping_add(stream.wrapping_mul(GOLDEN))
            .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03)),
    )
}

/// The splitmix64 increment and output function. The benchmark keeps its
/// own copy rather than call `pm_par::splitmix64`: inputs must not change
/// when the code under test does.
pub const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const STREAM_PAYLOAD: u64 = 1;
const STREAM_FAULT: u64 = 2;
const STREAM_JITTER: u64 = 3;
const STREAM_SENDER: u64 = 4;

/// `len` pseudo-random payload bytes.
pub fn payload(seed: u64, len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    let mut state = seed;
    for chunk in out.chunks_mut(8) {
        state = state.wrapping_add(GOLDEN);
        let bytes = mix64(state).to_le_bytes();
        chunk.copy_from_slice(&bytes[..chunk.len()]);
    }
    out
}

/// Where a repetition's endpoints come from.
pub trait Net {
    type Ep: PollTransport + 'static;
    /// The sending half of `session` (called once, before its receivers).
    fn sender(&mut self, session: u32) -> Self::Ep;
    /// Receiver `index` of `session`.
    fn receiver(&mut self, session: u32, index: u32) -> Self::Ep;
    /// Refused-traffic counters, for nets that keep them.
    fn farm_stats(&self) -> Option<FarmStats> {
        None
    }
}

/// One `MemHub` per session.
#[derive(Default)]
pub struct MemNet {
    current: Option<(u32, MemHub)>,
}

impl Net for MemNet {
    type Ep = MemEndpoint;

    fn sender(&mut self, session: u32) -> MemEndpoint {
        let hub = MemHub::new();
        let ep = hub.join();
        self.current = Some((session, hub));
        ep
    }

    fn receiver(&mut self, session: u32, _index: u32) -> MemEndpoint {
        match &self.current {
            Some((s, hub)) if *s == session => hub.join(),
            _ => unreachable!("receivers are added right after their session's sender"),
        }
    }
}

/// Every session on one loopback UDP socket, demultiplexed by session id.
pub struct FarmNet {
    hub: FarmHub,
}

impl FarmNet {
    pub fn bind() -> Result<FarmNet, String> {
        FarmHub::loopback()
            .map(|hub| FarmNet { hub })
            .map_err(|e| format!("cannot bind the loopback farm socket: {e}"))
    }

    fn endpoint(&self, session: u32, role: FarmRole) -> FarmEndpoint {
        self.hub
            .endpoint(session, role)
            .expect("each (session, role) half is registered once")
    }
}

impl Net for FarmNet {
    type Ep = FarmEndpoint;

    fn sender(&mut self, session: u32) -> FarmEndpoint {
        self.endpoint(session, FarmRole::Sender)
    }

    fn receiver(&mut self, session: u32, index: u32) -> FarmEndpoint {
        assert_eq!(index, 0, "a farm session has one receiver half");
        self.endpoint(session, FarmRole::Receiver)
    }

    fn farm_stats(&self) -> Option<FarmStats> {
        Some(self.hub.stats())
    }
}

/// Independent receive-side loss with probability `p`: every message the
/// inner endpoint hands over is dropped or passed on a draw from the
/// endpoint's own splitmix64 stream, so the loss pattern is an input made
/// from `--seed`. Every endpoint of every workload sits behind one (p = 0
/// draws nothing), outside the tracing wrapper: `net.*` spans time the real
/// transport and the datagrams it delivered, not the injected drops.
///
/// `pm_net::FaultyTransport` is not used: it has no `poll_recv` of its own,
/// so the mux would reach the endpoints through `recv_timeout(ZERO)` and
/// two clock reads per poll -- measured +80 % CPU per delivery on
/// `mem_bare_r1` and +9 % on `udp_farm_r1` -- and no workload would run
/// the endpoints' native `poll_recv`.
pub struct Lossy<T> {
    inner: T,
    p: f64,
    state: u64,
}

impl<T> Lossy<T> {
    fn new(inner: T, p: f64, seed: u64) -> Lossy<T> {
        assert!((0.0..1.0).contains(&p), "p must be a probability below 1");
        Lossy {
            inner,
            p,
            state: seed,
        }
    }

    fn drops(&mut self) -> bool {
        if self.p == 0.0 {
            return false;
        }
        self.state = self.state.wrapping_add(GOLDEN);
        // 53 random bits as a uniform number in [0, 1).
        ((mix64(self.state) >> 11) as f64) < self.p * (1u64 << 53) as f64
    }

    fn filter(
        &mut self,
        mut recv: impl FnMut(&mut T) -> Result<Option<Message>, NetError>,
    ) -> Result<Option<Message>, NetError> {
        loop {
            match recv(&mut self.inner)? {
                Some(_) if self.drops() => continue,
                other => return Ok(other),
            }
        }
    }
}

impl<T: Transport> Transport for Lossy<T> {
    fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        self.inner.send(msg)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, NetError> {
        self.filter(|t| t.recv_timeout(timeout))
    }
}

impl<T: PollTransport> PollTransport for Lossy<T> {
    fn poll_recv(&mut self) -> Result<Option<Message>, NetError> {
        self.filter(T::poll_recv)
    }
}

/// What one repetition measured and verified.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu: CpuSample,
    /// Source data packets x receivers, over clean-and-verified sessions.
    pub deliveries: u64,
    /// Sender-side session times, ms (clock of the workload).
    pub session_ms: Vec<f64>,
    pub sessions: u64,
    pub failed_sessions: u64,
    /// First failure, for the error message.
    pub failure: Option<String>,
    pub sender: CostCounters,
    pub receivers: CostCounters,
    pub farm: Option<FarmStats>,
}

#[cfg(test)]
impl Rep {
    /// Packets multicast per source data packet.
    pub fn em(&self) -> f64 {
        if self.sender.data_sent == 0 {
            0.0
        } else {
            self.sender.packets_sent() as f64 / self.sender.data_sent as f64
        }
    }
}

enum Slot {
    Sender(usize),
    Receiver(usize),
}

fn np_config(spec: &ProtoSpec, seed: u64, session: u32) -> NpConfig {
    NpConfig {
        k: spec.k,
        h: spec.h,
        proactive_parity: 0,
        adaptive_parity: false,
        payload_len: spec.payload_len,
        nak_slot: 0.002,
        round_timeout: 0.200,
        preencode: false,
        completion: CompletionPolicy::KnownReceivers(spec.receivers),
        announce_interval: 0.050,
        seed: derive(seed, STREAM_SENDER, u64::from(session)),
    }
}

fn runtime_config(spec: &ProtoSpec) -> RuntimeConfig {
    RuntimeConfig {
        packet_spacing: spec.pacing,
        stall_timeout: Duration::from_secs(30),
        complete_linger: Duration::from_millis(50),
        ..RuntimeConfig::default()
    }
}

/// The mux of a repetition: the net's endpoint inside the tracing wrapper
/// inside the loss injector, under the (metered) clock.
type RepMux<N, C, I> = Mux<Lossy<<I as Instr>::Tx<<N as Net>::Ep>>, <I as Instr>::Clk<C>>;

/// Set up, run and verify one repetition on `net` under `clock`.
fn rep_on<N: Net, C: MuxClock, I: Instr>(
    spec: &ProtoSpec,
    seed: u64,
    mut net: N,
    clock: C,
    instr: &I,
    started: Instant,
) -> Rep {
    // --- set-up (timed as setup_s) ---
    let rt = runtime_config(spec);
    let mut mux: RepMux<N, C, I> = Mux::new(MuxConfig::default(), instr.clk(clock));
    if let Some(reg) = instr.registry() {
        mux.bind_metrics(reg);
    }
    let timers = instr.codec_timers();
    let mut payloads = Vec::with_capacity(spec.sessions as usize);
    let mut slots: Vec<Option<Slot>> = Vec::new();
    let mut note = |token: Token, slot: Slot| {
        if slots.len() <= token.slot() {
            slots.resize_with(token.slot() + 1, || None);
        }
        slots[token.slot()] = Some(slot);
    };
    for i in 0..spec.sessions {
        let session = i + 1;
        let data = payload(
            derive(seed, STREAM_PAYLOAD, u64::from(session)),
            spec.session_bytes(),
        );
        let cfg = np_config(spec, seed, session);
        let nak_slot = cfg.nak_slot;
        // A `Mux` takes one transport type: the sender's endpoint is
        // wrapped too, and drops nothing.
        let ep = Lossy::new(instr.tx(net.sender(session), session), 0.0, 0);
        let token = match spec.proto {
            Proto::Np => {
                let mut s = NpSender::new(session, &data, cfg).expect("workload config is valid");
                if let Some((enc, _)) = &timers {
                    s.set_encode_timer(enc.clone());
                }
                mux.add_sender(instr.snd(s, session), ep, rt)
            }
            Proto::N2 => {
                let s = N2Sender::new(session, &data, cfg).expect("workload config is valid");
                mux.add_sender(instr.snd(s, session), ep, rt)
            }
        };
        note(token, Slot::Sender(i as usize));
        for r in 0..spec.receivers {
            let endpoint = (u64::from(session) << 32) | u64::from(r);
            let jitter = derive(seed, STREAM_JITTER, endpoint);
            let ep = Lossy::new(
                instr.tx(net.receiver(session, r), session),
                spec.loss,
                derive(seed, STREAM_FAULT, endpoint),
            );
            let token = match spec.proto {
                Proto::Np => {
                    let mut m = NpReceiver::new(r + 1, session, nak_slot, jitter);
                    if let Some((_, dec)) = &timers {
                        m.set_decode_timer(dec.clone());
                    }
                    mux.add_receiver(instr.rcv(m, session), ep, rt)
                }
                Proto::N2 => {
                    let m = N2Receiver::new(r + 1, session, nak_slot, jitter);
                    mux.add_receiver(instr.rcv(m, session), ep, rt)
                }
            };
            note(token, Slot::Receiver(i as usize));
        }
        payloads.push(data);
    }
    let setup_s = started.elapsed().as_secs_f64();

    // --- timed region ---
    let cpu0 = CpuSample::now();
    let t0 = Instant::now();
    let outcomes = instr.drive(&mut mux);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu = CpuSample::now().since(&cpu0);

    // --- verification (untimed) ---
    let mut rep = Rep {
        setup_s,
        wall_s,
        cpu,
        sessions: u64::from(spec.sessions),
        farm: net.farm_stats(),
        ..Rep::default()
    };
    let mut bad = vec![false; spec.sessions as usize];
    let mut seen = vec![0u32; spec.sessions as usize];
    let fail = |rep: &mut Rep, bad: &mut Vec<bool>, i: usize, why: String| {
        bad[i] = true;
        rep.failure.get_or_insert(why);
    };
    for (token, outcome) in &outcomes {
        let Some(slot) = slots.get(token.slot()).and_then(Option::as_ref) else {
            rep.failure
                .get_or_insert(format!("outcome for unknown token {token:?}"));
            continue;
        };
        match (slot, outcome) {
            (Slot::Sender(i), SessionOutcome::Sender(Ok(report))) => {
                seen[*i] += 1;
                rep.sender.merge(&report.counters);
                rep.session_ms.push(report.elapsed.as_secs_f64() * 1e3);
                if report.is_degraded() || report.completed.len() != spec.receivers as usize {
                    fail(
                        &mut rep,
                        &mut bad,
                        *i,
                        format!(
                            "session {}: {} of {} receivers done, {} evicted",
                            i + 1,
                            report.completed.len(),
                            spec.receivers,
                            report.evicted
                        ),
                    );
                }
            }
            (Slot::Receiver(i), SessionOutcome::Receiver(Ok(report))) => {
                seen[*i] += 1;
                rep.receivers.merge(&report.counters);
                if report.data != payloads[*i] {
                    fail(
                        &mut rep,
                        &mut bad,
                        *i,
                        format!(
                            "session {}: a receiver's bytes differ from the payload",
                            i + 1
                        ),
                    );
                }
            }
            (Slot::Sender(i) | Slot::Receiver(i), other) => {
                let why = match other.err() {
                    Some(e) => format!("session {}: {e}", i + 1),
                    None => format!("session {}: shed or mismatched outcome", i + 1),
                };
                fail(&mut rep, &mut bad, *i, why);
            }
        }
    }
    for (i, n) in seen.iter().enumerate() {
        if *n != spec.receivers + 1 && !bad[i] {
            fail(
                &mut rep,
                &mut bad,
                i,
                format!(
                    "session {}: {n} of {} endpoints reported",
                    i + 1,
                    spec.receivers + 1
                ),
            );
        }
    }
    rep.failed_sessions = bad.iter().filter(|b| **b).count() as u64;
    let clean = rep.sessions - rep.failed_sessions;
    rep.deliveries = clean * u64::from(spec.groups) * spec.k as u64 * u64::from(spec.receivers);
    rep
}

/// One repetition of `spec` with inputs derived from `seed`.
pub fn run_rep<I: Instr>(spec: &ProtoSpec, seed: u64, instr: &I) -> Result<Rep, String> {
    let started = Instant::now();
    Ok(match spec.net {
        NetKind::Mem => {
            let (net, clock) = (MemNet::default(), VirtualClock::new());
            rep_on(spec, seed, net, clock, instr, started)
        }
        NetKind::Farm => {
            let (net, clock) = (FarmNet::bind()?, WallClock::new());
            rep_on(spec, seed, net, clock, instr, started)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{workload, Body};
    use crate::trace::{self, Kind, Off, Traced};

    fn small(name: &str) -> ProtoSpec {
        let Body::Protocol(mut p) = workload(name).expect("known workload").body else {
            panic!("{name} is a protocol workload");
        };
        p.groups = (p.groups / 8).max(2);
        p.sessions = p.sessions.min(2);
        p
    }

    #[test]
    fn payload_is_a_pure_function_of_the_seed() {
        assert_eq!(payload(7, 1001), payload(7, 1001));
        assert_ne!(payload(7, 1001), payload(8, 1001));
        assert_ne!(derive(1, 2, 3), derive(1, 3, 2));
    }

    /// The wrappers are transparent: a traced and an untraced repetition
    /// of a virtual-clock workload with the same seed send the same
    /// packets, take the same virtual time and deliver the same bytes
    /// (every receiver's output is checked against the one payload).
    #[test]
    fn traced_and_untraced_repetitions_agree() {
        for name in ["mem_fanout_r64", "mem_codec_k100", "mem_n2_r64"] {
            let spec = small(name);
            let plain = run_rep(&spec, 11, &Off).expect("runs");
            trace::start();
            let traced = run_rep(&spec, 11, &Traced::new()).expect("runs");
            let data = trace::finish().expect("collected");
            assert_eq!(plain.failed_sessions, 0, "{name}: {:?}", plain.failure);
            assert_eq!(traced.failed_sessions, 0, "{name}: {:?}", traced.failure);
            assert_eq!(plain.sender, traced.sender, "{name}");
            assert_eq!(plain.receivers, traced.receivers, "{name}");
            assert_eq!(plain.em(), traced.em(), "{name}");
            assert_eq!(plain.session_ms, traced.session_ms, "{name}");
            assert!(plain.em() > 1.0, "{name}: loss was injected");
            assert_eq!(data.agg(Kind::Run).spans, 1);
            // The counts taken at the boundaries are the machines' own.
            assert_eq!(
                data.agg(Kind::ReceiverHandle).calls + data.agg(Kind::ReceiverHandleRepair).calls,
                plain.receivers.packets_received,
                "{name}: every packet a receiver counted crossed its handle boundary"
            );
            assert!(data.agg(Kind::NetSend).calls > plain.sender.packets_sent());
        }
    }

    /// The injector drops at the asked rate, the same messages for the
    /// same seed, and nothing at p = 0.
    #[test]
    fn lossy_drops_a_seeded_share_of_what_arrives() {
        let survivors = |p: f64, seed: u64| -> Vec<u32> {
            let hub = MemHub::new();
            let mut tx = hub.join();
            let mut rx = Lossy::new(hub.join(), p, seed);
            for session in 0..4000 {
                tx.send(&Message::Fin { session }).expect("sends");
            }
            let mut got = Vec::new();
            while let Some(Message::Fin { session }) = rx.poll_recv().expect("polls") {
                got.push(session);
            }
            got
        };
        assert_eq!(survivors(0.0, 1).len(), 4000);
        let kept = survivors(0.3, 1);
        assert!((2650..=2950).contains(&kept.len()), "{} kept", kept.len());
        assert_eq!(kept, survivors(0.3, 1));
        assert_ne!(kept, survivors(0.3, 2));
    }

    #[test]
    fn a_different_seed_changes_the_loss_pattern() {
        let spec = small("mem_fanout_r64");
        let a = run_rep(&spec, 1, &Off).expect("runs");
        let b = run_rep(&spec, 2, &Off).expect("runs");
        assert_ne!(a.receivers, b.receivers);
        assert_eq!(a.failed_sessions + b.failed_sessions, 0);
    }
}
