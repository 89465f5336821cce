//! The benchmark's definition: the seven workloads, the end-to-end metrics
//! with their regression bounds, and every per-layer metric with the layer
//! it belongs to and the end-to-end metric it should move. `BENCHMARK.json`
//! at the repository root repeats the names, units, directions and bounds;
//! a test here holds the two together.

use std::time::Duration;

/// Which machine pair drives a protocol workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    /// `NpSender`/`NpReceiver`: parity repair (hybrid ARQ).
    Np,
    /// `N2Sender`/`N2Receiver`: per-packet NAK and retransmission.
    N2,
}

/// What carries the datagrams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetKind {
    /// One `MemHub` per session under a `VirtualClock`.
    Mem,
    /// Every session on ONE `FarmHub::loopback()` socket under a
    /// `WallClock`. Traffic crosses the host loopback, not a link.
    Farm,
}

/// A protocol workload: whole sessions through the whole stack.
#[derive(Debug, Clone, Copy)]
pub struct ProtoSpec {
    pub proto: Proto,
    pub k: usize,
    pub h: usize,
    pub payload_len: usize,
    pub receivers: u32,
    /// Independent receive-side drop probability at every receiver.
    pub loss: f64,
    pub net: NetKind,
    pub pacing: Duration,
    pub sessions: u32,
    /// Full transmission groups per session: a session carries exactly
    /// `groups * k * payload_len` bytes, so no group is short and the
    /// analysis applies to every group alike.
    pub groups: u32,
}

impl ProtoSpec {
    pub fn session_bytes(&self) -> usize {
        self.groups as usize * self.k * self.payload_len
    }
}

/// The Monte-Carlo simulator workload.
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    pub k: usize,
    pub loss: f64,
    pub receivers: usize,
    pub trials: usize,
}

#[derive(Debug, Clone, Copy)]
pub enum Body {
    Protocol(ProtoSpec),
    Sim(SimSpec),
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub body: Body,
}

impl Workload {
    /// The same workload at a quarter of the size (`--quick`, smoke only).
    pub fn quick(mut self) -> Workload {
        match &mut self.body {
            Body::Protocol(p) => p.groups = (p.groups / 4).max(1),
            Body::Sim(s) => s.trials = (s.trials / 4).max(8),
        }
        self
    }
}

const PACING_FAST: Duration = Duration::from_micros(50);
/// `RuntimeConfig::default().packet_spacing`.
const PACING_DEFAULT: Duration = Duration::from_micros(200);

const FANOUT: ProtoSpec = ProtoSpec {
    proto: Proto::Np,
    k: 7,
    h: 248,
    payload_len: 1024,
    receivers: 64,
    loss: 0.01,
    net: NetKind::Mem,
    pacing: PACING_FAST,
    sessions: 4,
    groups: 32,
};

/// Sized on the reference host (2 vCPU Xeon 2.1 GHz, AVX2) so that one
/// repetition's timed region is 0.3-0.4 s: a ten-second run then holds
/// twenty-three to thirty-seven repetitions and its medians are steady.
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "mem_bare_r1",
        why: "bare forwarding at the smallest packet (P=256, R=1, p=0): no parity is ever encoded, so wire, MemHub, mux turn and machine steps are all of the cost",
        body: Body::Protocol(ProtoSpec {
            proto: Proto::Np,
            k: 7,
            h: 248,
            payload_len: 256,
            receivers: 1,
            loss: 0.0,
            net: NetKind::Mem,
            pacing: PACING_FAST,
            sessions: 16,
            groups: 1024,
        }),
    },
    Workload {
        name: "mem_fanout_r64",
        why: "the paper's many-receiver case (NP k=7, R=64, p=0.01): receiver machines, NAK slotting and hub fan-out do 64x the sender's work; E[M] is checked against the analysis",
        body: Body::Protocol(FANOUT),
    },
    Workload {
        name: "mem_codec_k100",
        why: "large k under heavy loss (NP k=100, R=8, p=0.10): about 16 parities and 10 reconstructions per group make pm-rse/pm-simd the largest share",
        body: Body::Protocol(ProtoSpec {
            proto: Proto::Np,
            k: 100,
            h: 155,
            payload_len: 1024,
            receivers: 8,
            loss: 0.10,
            net: NetKind::Mem,
            pacing: PACING_FAST,
            sessions: 2,
            groups: 16,
        }),
    },
    Workload {
        name: "mem_n2_r64",
        why: "mem_fanout_r64 with N2Sender/N2Receiver: the same mux and net layers under per-packet NAK and retransmission, no codec; shows a change that helps NP at ARQ's expense",
        body: Body::Protocol(ProtoSpec {
            proto: Proto::N2,
            ..FANOUT
        }),
    },
    Workload {
        name: "udp_farm_r1",
        why: "real syscalls (NP k=7, R=1, p=0, 64 sessions on ONE loopback FarmHub socket, wall clock): send_to/recv_from, the copy into Bytes, demux by session id",
        body: Body::Protocol(ProtoSpec {
            proto: Proto::Np,
            k: 7,
            h: 248,
            payload_len: 1024,
            receivers: 1,
            loss: 0.0,
            net: NetKind::Farm,
            pacing: PACING_FAST,
            sessions: 64,
            groups: 96,
        }),
    },
    Workload {
        name: "udp_paced_r1",
        why: "latency, not throughput (NP k=20, p=0.05, 32 sessions, 200us pacing on one FarmHub): mostly idle, so it measures timer accuracy and repair-round latency and catches spinning",
        body: Body::Protocol(ProtoSpec {
            proto: Proto::Np,
            k: 20,
            h: 235,
            payload_len: 1024,
            receivers: 1,
            loss: 0.05,
            net: NetKind::Farm,
            pacing: PACING_DEFAULT,
            sessions: 32,
            groups: 13,
        }),
    },
    Workload {
        name: "sim_fec2_r4096",
        why: "the other user, regenerating the paper's figures (run_env, Integrated2 k=7, p=0.01, R=4096, serial): pm-sim/pm-loss/pm-par/pm-analysis and none of the protocol stack",
        body: Body::Sim(SimSpec {
            k: 7,
            loss: 0.01,
            receivers: 4096,
            trials: 1000,
        }),
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a user of the system sees. Every
/// workload reports every one of them, so each is defined for the
/// simulator too (see README.md for the two readings).
///
/// One bound per metric is all `BENCHMARK.json` can hold. The timing and
/// memory bounds are the contract's maximum, 0.25: run-to-run spreads on
/// the reference host are 2-10 %, but its speed drifts by up to a third
/// over a quarter of an hour (README.md, "Steadiness"), and a tighter
/// bound would reject unchanged code. `em` repeats to 0.2 % and is held
/// to 0.01.
#[derive(Debug, Clone, Copy)]
pub struct E2eMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

pub const E2E: [E2eMetric; 7] = [
    E2eMetric {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "set-up wall time of one repetition, median over repetitions: payload generation, machine construction incl. split, hub/socket bind, Mux::add_* (sim: config and the analytical prediction)",
    },
    E2eMetric {
        name: "goodput_pkt_s",
        unit: "pkt/s",
        better: Better::Higher,
        bound: 0.25,
        what: "deliveries per second of timed-region wall, median over repetitions; a delivery is one source data packet verified byte-exact at one receiver (sim: one simulated source packet at one simulated receiver)",
    },
    E2eMetric {
        name: "cpu_ns_per_pkt",
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
        what: "on-CPU time (user+system) of the timed region per delivery, median over repetitions",
    },
    E2eMetric {
        name: "user_ns_per_pkt",
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
        what: "user-mode part of it (each repetition's utime/stime tick split of /proc/self/stat applied to its exact scheduler total), median over repetitions",
    },
    E2eMetric {
        name: "em",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.01,
        what: "E[M]: packets multicast (data + repairs) per source data packet, summed over sessions (sim: mean_transmissions)",
    },
    E2eMetric {
        name: "session_ms_mean",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "mean wall-clock session time, start to all receivers DONE at the sender, over sessions and repetitions; on mem_* (virtual clock, where no single session's end shows on the wall clock) and the sim, the time of the whole batch",
    },
    E2eMetric {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        what: "VmHWM at workload end",
    },
];

/// A per-layer metric: work, time or waste of one crate, from the traced
/// repetition or a standalone replay. No bound.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub layer: &'static str,
    /// The end-to-end metric (and workload) it should move.
    pub moves: &'static str,
}

const fn lm(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

use Better::{Higher, Lower};

const MUX_BARE: &str = "cpu_ns_per_pkt on mem_bare_r1; ~0 on mem_codec_k100";
const MUX_IDLE: &str = "session_ms_mean and goodput_pkt_s on udp_paced_r1; 0 on mem_*";
const NET_IO: &str =
    "cpu_ns_per_pkt and goodput_pkt_s on udp_farm_r1 and mem_fanout_r64; small on mem_codec_k100";
const NET_WIRE: &str = "user_ns_per_pkt on mem_bare_r1";
const NET_FARM: &str = "em on udp_farm_r1";
const CORE_SND: &str = "cpu_ns_per_pkt on mem_bare_r1";
const CORE_RCV: &str = "cpu_ns_per_pkt on mem_fanout_r64 and mem_n2_r64";
const CORE_CNT: &str = "em and core.session_virtual_ms on mem_fanout_r64 vs mem_n2_r64";
const RSE: &str =
    "cpu_ns_per_pkt and goodput_pkt_s on mem_codec_k100; ~0 on mem_bare_r1 and mem_n2_r64";
const RSE_KERNEL: &str = "share.rse on mem_codec_k100";
const OBS: &str = "user_ns_per_pkt on mem_bare_r1";
const SIM: &str = "goodput_pkt_s on sim_fec2_r4096; runs on no protocol workload";
const HOST: &str = "cpu_ns_per_pkt on udp_farm_r1 and mem_bare_r1";

pub const PER_LAYER: [LayerMetric; 77] = [
    // pm-mux
    lm("mux.self_us_per_pkt", "us", Lower, "pm-mux", MUX_BARE),
    lm("share.mux", "ratio", Lower, "pm-mux", MUX_BARE),
    lm("mux.turns", "count", Lower, "pm-mux", MUX_BARE),
    lm("mux.turn_us_p50", "us", Lower, "pm-mux", MUX_BARE),
    lm("mux.turn_us_p99", "us", Lower, "pm-mux", MUX_BARE),
    lm("mux.drives_per_pkt", "ratio", Lower, "pm-mux", MUX_BARE),
    lm("mux.idle_frac", "ratio", Lower, "pm-mux", MUX_IDLE),
    lm("share.idle", "ratio", Lower, "pm-mux", MUX_IDLE),
    lm("mux.naps", "count", Lower, "pm-mux", MUX_IDLE),
    lm("wheel.insert_fire_ns", "ns", Lower, "pm-mux", MUX_BARE),
    lm(
        "mux.farm_us_per_session_256",
        "us",
        Lower,
        "pm-mux",
        MUX_BARE,
    ),
    lm(
        "mux.farm_us_per_session_1024",
        "us",
        Lower,
        "pm-mux",
        MUX_BARE,
    ),
    // pm-net
    lm("net.send_us_per_call", "us", Lower, "pm-net", NET_IO),
    lm("net.send_calls", "count", Lower, "pm-net", NET_IO),
    lm("share.net_send", "ratio", Lower, "pm-net", NET_IO),
    lm("net.recv_us_per_call", "us", Lower, "pm-net", NET_IO),
    lm("net.recv_calls", "count", Lower, "pm-net", NET_IO),
    lm("share.net_recv", "ratio", Lower, "pm-net", NET_IO),
    lm("net.recv_empty_frac", "ratio", Lower, "pm-net", NET_IO),
    lm("wire.encode_ns_per_pkt", "ns", Lower, "pm-net", NET_WIRE),
    lm("wire.decode_ns_per_pkt", "ns", Lower, "pm-net", NET_WIRE),
    lm("farm.kernel_drop_frac", "ratio", Lower, "pm-net", NET_FARM),
    lm("farm.unknown_drops", "count", Lower, "pm-net", NET_FARM),
    lm("farm.queue_overflow", "count", Lower, "pm-net", NET_FARM),
    lm(
        "fault.drop_frac",
        "ratio",
        Lower,
        "pm-net",
        "em wherever p > 0",
    ),
    // pm-core
    lm(
        "core.sender_step_us_per_pkt",
        "us",
        Lower,
        "pm-core",
        CORE_SND,
    ),
    lm(
        "core.sender_handle_us_per_nak",
        "us",
        Lower,
        "pm-core",
        CORE_SND,
    ),
    lm("share.core_sender", "ratio", Lower, "pm-core", CORE_SND),
    lm(
        "core.recv_handle_us_per_pkt",
        "us",
        Lower,
        "pm-core",
        CORE_RCV,
    ),
    lm(
        "core.recv_timer_us_per_call",
        "us",
        Lower,
        "pm-core",
        CORE_RCV,
    ),
    lm("share.core_receiver", "ratio", Lower, "pm-core", CORE_RCV),
    lm("core.naks_sent_per_tg", "ratio", Lower, "pm-core", CORE_CNT),
    lm(
        "core.naks_suppressed_frac",
        "ratio",
        Higher,
        "pm-core",
        CORE_CNT,
    ),
    lm("core.unneeded_rx_frac", "ratio", Lower, "pm-core", CORE_CNT),
    lm("core.parities_per_tg", "ratio", Lower, "pm-core", CORE_CNT),
    lm(
        "core.decoded_pkts_per_tg",
        "ratio",
        Lower,
        "pm-core",
        CORE_CNT,
    ),
    lm(
        "core.sender_state_b_per_rcv",
        "B",
        Lower,
        "pm-core",
        "peak_rss_mib on mem_fanout_r64",
    ),
    lm(
        "core.session_virtual_ms",
        "ms",
        Lower,
        "pm-core",
        "mean sender-side session time on the virtual clock, exact for a seed (0 on udp_*): moves with the repair rounds, not with CPU",
    ),
    // pm-rse / pm-simd / pm-gf
    lm("rse.encode_us_per_parity", "us", Lower, "pm-rse", RSE),
    lm("rse.decode_us_per_pkt", "us", Lower, "pm-rse", RSE),
    lm("share.rse", "ratio", Lower, "pm-rse", RSE),
    lm("rse.decode_cache_hit_frac", "ratio", Higher, "pm-rse", RSE),
    lm(
        "rse.encode_mib_s.k7h1",
        "MiB/s",
        Higher,
        "pm-rse",
        RSE_KERNEL,
    ),
    lm(
        "rse.encode_mib_s.k100h16",
        "MiB/s",
        Higher,
        "pm-rse",
        RSE_KERNEL,
    ),
    lm(
        "rse.decode_mib_s.k100l10",
        "MiB/s",
        Higher,
        "pm-rse",
        RSE_KERNEL,
    ),
    lm("gf.mul_add_gib_s", "GiB/s", Higher, "pm-simd", RSE_KERNEL),
    lm(
        "gf.mul_add_scalar_gib_s",
        "GiB/s",
        Higher,
        "pm-gf",
        RSE_KERNEL,
    ),
    // pm-obs and the benchmark's own tracing
    lm("obs.null_emit_ns", "ns", Lower, "pm-obs", OBS),
    lm("obs.ring_emit_ns", "ns", Lower, "pm-obs", OBS),
    lm(
        "trace.overhead_frac",
        "ratio",
        Lower,
        "benchmark",
        "none: traced wall over untraced wall, minus 1",
    ),
    lm(
        "trace.spans",
        "count",
        Lower,
        "benchmark",
        "none: spans the traced repetition closed",
    ),
    // pm-sim / pm-loss / pm-par / pm-analysis
    lm("sim.trial_us", "us", Lower, "pm-sim", SIM),
    lm("loss.sample_ns_per_rcv", "ns", Lower, "pm-loss", SIM),
    lm("par.speedup_w2", "ratio", Higher, "pm-par", SIM),
    lm("analysis.em_eval_us", "us", Lower, "pm-analysis", SIM),
    lm(
        "analysis.em_pred",
        "ratio",
        Lower,
        "pm-analysis",
        "backs the correctness check on em",
    ),
    lm(
        "analysis.em_dev_frac",
        "ratio",
        Lower,
        "pm-analysis",
        "backs the correctness check on em",
    ),
    // host
    lm("host.sys_us_per_pkt", "us", Lower, "host", HOST),
    lm("host.minflt_per_kpkt", "ratio", Lower, "host", HOST),
    lm(
        "host.session_ms_p50",
        "ms",
        Lower,
        "host",
        "median of the times session_ms_mean averages (two modes wherever a recovery timer fires)",
    ),
    lm(
        "host.session_ms_p95",
        "ms",
        Lower,
        "host",
        "their tail; 0 when fewer than 10 samples lie beyond it",
    ),
    lm(
        "host.goodput_mib_s",
        "MiB/s",
        Higher,
        "host",
        "goodput_pkt_s restated in payload bytes counted once per session; 0 on the sim",
    ),
    // traced repetition, raw: the table the shares are computed from
    lm(
        "trace.wall_ms",
        "ms",
        Lower,
        "benchmark",
        "none: traced timed region",
    ),
    lm(
        "trace.untraced_wall_ms",
        "ms",
        Lower,
        "benchmark",
        "none: its untraced twin",
    ),
    lm("net.send_total_ms", "ms", Lower, "pm-net", NET_IO),
    lm("net.recv_total_ms", "ms", Lower, "pm-net", NET_IO),
    lm("core.sender_total_ms", "ms", Lower, "pm-core", CORE_SND),
    lm("core.receiver_total_ms", "ms", Lower, "pm-core", CORE_RCV),
    lm("rse.encode_total_ms", "ms", Lower, "pm-rse", RSE),
    lm("rse.decode_total_ms", "ms", Lower, "pm-rse", RSE),
    lm("mux.self_total_ms", "ms", Lower, "pm-mux", MUX_BARE),
    lm("mux.idle_total_ms", "ms", Lower, "pm-mux", MUX_IDLE),
    lm("core.feedback_sent", "count", Lower, "pm-core", CORE_CNT),
    lm("core.repairs_sent", "count", Lower, "pm-core", CORE_CNT),
    lm("core.timers_fired", "count", Lower, "pm-core", CORE_CNT),
    lm("rse.parities_encoded", "count", Lower, "pm-rse", RSE),
    lm("rse.packets_decoded", "count", Lower, "pm-rse", RSE),
];

/// Pinned tolerance of measured `em` against `pm_analysis::integrated`
/// on the virtual-clock NP workloads and the simulator (see README.md for
/// the measured deviations it was pinned from).
pub const EM_TOLERANCE: f64 = 0.05;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in E2E {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128);
        let setup = E2E.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(E2E.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` is the contract the driver reads; this table is
    /// what the binary reports. They must say the same thing.
    #[test]
    fn benchmark_json_matches_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = serde_json::from_str(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            let mut out = Vec::new();
            let mut i = 0;
            while let Some(item) = json[key].get_index(i) {
                out.push(item["name"].as_str().expect("name").to_string());
                i += 1;
            }
            out
        };
        let ours: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(names("workloads"), ours);
        let ours: Vec<String> = E2E.iter().map(|m| m.name.to_string()).collect();
        assert_eq!(names("end_to_end"), ours);
        let ours: Vec<String> = PER_LAYER.iter().map(|m| m.name.to_string()).collect();
        assert_eq!(names("per_layer"), ours);
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert_eq!(json["workloads"][i]["why"].as_str(), Some(w.why));
        }
        for (i, m) in E2E.iter().enumerate() {
            let j = &json["end_to_end"][i];
            assert_eq!(j["unit"].as_str(), Some(m.unit), "{}", m.name);
            assert_eq!(j["better"].as_str(), Some(m.better.as_str()), "{}", m.name);
            assert_eq!(j["bound"].as_f64(), Some(m.bound), "{}", m.name);
        }
        for (i, m) in PER_LAYER.iter().enumerate() {
            let j = &json["per_layer"][i];
            assert_eq!(j["unit"].as_str(), Some(m.unit), "{}", m.name);
            assert_eq!(j["better"].as_str(), Some(m.better.as_str()), "{}", m.name);
        }
    }
}
