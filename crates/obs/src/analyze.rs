//! Offline trace analytics — the library behind the `obs-analyze` binary.
//!
//! [`analyze_trace`] replays a validated JSONL trace into per-session
//! measurements of exactly the figures the paper argues in: measured
//! E[M] (transmissions per distinct data packet), per-receiver completion
//! fairness (Jain's index over completion times), feedback bandwidth
//! (NAK + DONE messages per second), and stall/linger timelines. The
//! `obs-analyze --compare-analysis` mode feeds
//! [`SessionAnalysis::measured_em`] back against the `pm-analysis`
//! analytical engine at the trace's recorded `(k, h, R, p)` — the
//! end-to-end check that the live protocol reproduces the paper's curves
//! rather than just the simulator.

use std::collections::{BTreeMap, BTreeSet};

use crate::check::{validate_trace, Census, TraceError};

/// The `(k, h, R, p)` a trace's `session_config` event recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionConfigInfo {
    /// Data packets per transmission group.
    pub k: u32,
    /// Parity budget per group.
    pub h: u32,
    /// Receiver population.
    pub receivers: u32,
    /// Configured packet-loss probability.
    pub loss: f64,
    /// Codec kernel backend the producer reported ("scalar", "avx2",
    /// "gfni", "neon"), absent in traces predating the field.
    pub backend: Option<String>,
}

/// Everything measured about one session in a trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SessionAnalysis {
    /// Recorded protocol geometry, when the trace carries a
    /// `session_config` event.
    pub config: Option<SessionConfigInfo>,
    /// Distinct `(group, index)` data packets the sender transmitted.
    pub data_packets: u64,
    /// Total data transmissions (originals + retransmitted originals).
    pub data_tx: u64,
    /// Total parity transmissions.
    pub parity_tx: u64,
    /// NAK messages (max of sent/received counts — a trace may carry one
    /// side, the other, or both; max avoids double-counting).
    nak_sent: u64,
    nak_recv: u64,
    /// Repair rounds the sender opened.
    pub repair_rounds: u64,
    /// First DONE time per receiver (sent or received, whichever the
    /// trace carries first).
    pub done_times: BTreeMap<u32, f64>,
    /// Earliest event time for the session.
    pub first_t: f64,
    /// Latest event time for the session.
    pub last_t: f64,
    /// A `transfer_complete` event was seen.
    pub completed: bool,
    /// A `mux_session_shed` event named this session: the multiplexer
    /// removed it mid-flight under sustained overload.
    pub shed: bool,
    events: u64,
}

impl SessionAnalysis {
    /// NAK messages attributed to the session.
    pub fn naks(&self) -> u64 {
        self.nak_sent.max(self.nak_recv)
    }

    /// Session duration in trace seconds.
    pub fn duration(&self) -> f64 {
        (self.last_t - self.first_t).max(0.0)
    }

    /// Events attributed to the session.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Measured E[M]: total transmissions per distinct data packet —
    /// the live counterpart of the paper's expected transmissions figure.
    /// `None` until at least one data packet was sent.
    pub fn measured_em(&self) -> Option<f64> {
        if self.data_packets == 0 {
            None
        } else {
            Some((self.data_tx + self.parity_tx) as f64 / self.data_packets as f64)
        }
    }

    /// Jain's fairness index over per-receiver completion times:
    /// `(Σx)² / (n·Σx²)`, 1.0 when every receiver finishes together.
    /// `None` without any DONE events.
    pub fn fairness(&self) -> Option<f64> {
        if self.done_times.is_empty() {
            return None;
        }
        let n = self.done_times.len() as f64;
        let sum: f64 = self.done_times.values().sum();
        let sum_sq: f64 = self.done_times.values().map(|t| t * t).sum();
        if sum_sq == 0.0 {
            // Everyone finished at t=0 — perfectly fair.
            return Some(1.0);
        }
        Some(sum * sum / (n * sum_sq))
    }

    /// The session's verdict as the trace tells it: `"shed"` when the
    /// multiplexer removed it under overload, `"clean"` when a
    /// `transfer_complete` landed, `"incomplete"` otherwise (the trace
    /// alone cannot distinguish a typed error from a still-running
    /// session — the driver's report ledger carries that split).
    pub fn verdict(&self) -> &'static str {
        if self.shed {
            "shed"
        } else if self.completed {
            "clean"
        } else {
            "incomplete"
        }
    }

    /// Feedback messages (NAKs + DONEs) per second of session time.
    /// `None` for zero-duration sessions.
    pub fn feedback_bandwidth(&self) -> Option<f64> {
        let d = self.duration();
        if d <= 0.0 {
            None
        } else {
            Some((self.naks() + self.done_times.len() as u64) as f64 / d)
        }
    }
}

/// One incident on the trace timeline: a stall or linger, or one of the
/// multiplexer's overload-control events (admission refusal, overload
/// episode boundaries, a session shed).
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// Trace time of the event.
    pub t: f64,
    /// `"stall_timeout"`, `"linger_expired"`, `"mux_admission_rejected"`,
    /// `"mux_overload"`, `"mux_overload_cleared"`, or
    /// `"mux_session_shed"`.
    pub kind: String,
    /// Role string when the event carried one.
    pub role: Option<String>,
    /// Seconds waited before the incident fired (stall/linger only).
    pub waited_secs: f64,
    /// Rolling mux utilization the event reported (overload family only).
    pub utilization: Option<f64>,
    /// The session the incident named, when the event carried one.
    pub session: Option<u32>,
}

/// Event types that land on the incident timeline.
const INCIDENT_KINDS: [&str; 6] = [
    "stall_timeout",
    "linger_expired",
    "mux_admission_rejected",
    "mux_overload",
    "mux_overload_cleared",
    "mux_session_shed",
];

/// Full analysis of one JSONL trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceAnalysis {
    /// Total valid event lines.
    pub events: u64,
    /// Per-event-type line counts (same as `obs-check`).
    pub census: Census,
    /// Per-session measurements, keyed by session id.
    pub sessions: BTreeMap<u32, SessionAnalysis>,
    /// Stall/linger incidents in trace order.
    pub incidents: Vec<Incident>,
    /// Latest event time in the whole trace.
    pub last_t: f64,
}

impl TraceAnalysis {
    /// The single session of a single-session trace, if there is exactly
    /// one.
    pub fn sole_session(&self) -> Option<(u32, &SessionAnalysis)> {
        if self.sessions.len() == 1 {
            self.sessions.iter().next().map(|(id, s)| (*id, s))
        } else {
            None
        }
    }

    /// Sessions a `mux_session_shed` event named — the trace-side shed
    /// ledger. Reconciles exactly against the census count of
    /// `mux_session_shed` lines, the shed incidents on the timeline, and
    /// (end to end) the driver's `Mux::shed_count()`.
    pub fn shed_sessions(&self) -> u64 {
        self.sessions.values().filter(|s| s.shed).count() as u64
    }
}

fn num(v: &serde::Value, key: &str) -> Option<f64> {
    v.get(key).and_then(|x| x.as_f64())
}

fn num_u64(v: &serde::Value, key: &str) -> Option<u64> {
    num(v, key)
        .filter(|n| *n >= 0.0 && n.is_finite())
        .map(|n| n as u64)
}

fn num_u32(v: &serde::Value, key: &str) -> Option<u32> {
    num_u64(v, key).map(|n| n as u32)
}

/// Validate and analyze the text of a JSONL trace.
///
/// # Errors
/// Any [`TraceError`] the validator reports — analysis never runs over an
/// invalid trace.
pub fn analyze_trace(text: &str) -> Result<TraceAnalysis, TraceError> {
    let census = validate_trace(text)?;
    let events = census.values().sum();

    let mut sessions: BTreeMap<u32, SessionAnalysis> = BTreeMap::new();
    let mut seen_data: BTreeMap<u32, BTreeSet<(u64, u64)>> = BTreeMap::new();
    let mut incidents = Vec::new();
    let mut last_t = 0.0f64;

    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        // Already validated above; skip anything that won't re-parse.
        let Ok(v) = serde_json::from_str(line) else {
            continue;
        };
        let (Some(t), Some(ty)) = (num(&v, "t"), v.get("type").and_then(|x| x.as_str())) else {
            continue;
        };
        let ty = ty.to_string();
        if t > last_t {
            last_t = t;
        }

        if INCIDENT_KINDS.contains(&ty.as_str()) {
            incidents.push(Incident {
                t,
                kind: ty.clone(),
                role: v.get("role").and_then(|r| r.as_str()).map(str::to_string),
                waited_secs: num(&v, "waited_secs").unwrap_or(0.0),
                utilization: num(&v, "utilization"),
                session: num_u32(&v, "session"),
            });
            // A shed names a real session and counts toward its timeline;
            // the rest either carry no session or (admission refusals) a
            // prospective slot label that never ran.
            if ty != "mux_session_shed" {
                continue;
            }
        }

        let Some(session) = num_u32(&v, "session") else {
            continue;
        };
        let s = sessions.entry(session).or_insert_with(|| SessionAnalysis {
            first_t: t,
            last_t: t,
            ..Default::default()
        });
        s.events += 1;
        if t < s.first_t {
            s.first_t = t;
        }
        if t > s.last_t {
            s.last_t = t;
        }

        match ty.as_str() {
            "session_config" => {
                if let (Some(k), Some(h), Some(receivers), Some(loss)) = (
                    num_u32(&v, "k"),
                    num_u32(&v, "h"),
                    num_u32(&v, "receivers"),
                    num(&v, "loss"),
                ) {
                    s.config = Some(SessionConfigInfo {
                        k,
                        h,
                        receivers,
                        loss,
                        backend: v
                            .get("backend")
                            .and_then(|b| b.as_str())
                            .map(str::to_string),
                    });
                }
            }
            "data_sent" => {
                s.data_tx += 1;
                if let (Some(g), Some(i)) = (num_u64(&v, "group"), num_u64(&v, "index")) {
                    if seen_data.entry(session).or_default().insert((g, i)) {
                        s.data_packets += 1;
                    }
                } else {
                    s.data_packets += 1;
                }
            }
            "parity_sent" => s.parity_tx += 1,
            "nak_sent" => s.nak_sent += 1,
            "nak_recv" => s.nak_recv += 1,
            "repair_round" => s.repair_rounds += 1,
            "done_sent" | "done_recv" => {
                if let Some(receiver) = num_u32(&v, "receiver") {
                    s.done_times.entry(receiver).or_insert(t);
                }
            }
            "transfer_complete" => s.completed = true,
            "mux_session_shed" => s.shed = true,
            _ => {}
        }
    }

    Ok(TraceAnalysis {
        events,
        census,
        sessions,
        incidents,
        last_t,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(t: f64, ty: &str, rest: &str) -> String {
        if rest.is_empty() {
            format!("{{\"t\": {t}, \"type\": \"{ty}\"}}")
        } else {
            format!("{{\"t\": {t}, \"type\": \"{ty}\", {rest}}}")
        }
    }

    #[test]
    fn measures_em_from_distinct_data_packets() {
        let mut trace = String::new();
        trace.push_str(&line(
            0.0,
            "session_config",
            "\"session\": 1, \"k\": 4, \"h\": 2, \"receivers\": 3, \"loss\": 0.1, \
             \"backend\": \"avx2\"",
        ));
        trace.push('\n');
        // 4 distinct data packets, one retransmitted, plus 2 parities:
        // E[M] = (5 + 2) / 4 = 1.75.
        for i in 0..4 {
            trace.push_str(&line(
                0.1 * (i + 1) as f64,
                "data_sent",
                &format!("\"session\": 1, \"group\": 0, \"index\": {i}"),
            ));
            trace.push('\n');
        }
        trace.push_str(&line(
            0.5,
            "data_sent",
            "\"session\": 1, \"group\": 0, \"index\": 2",
        ));
        trace.push('\n');
        for i in 4..6 {
            trace.push_str(&line(
                0.6,
                "parity_sent",
                &format!("\"session\": 1, \"group\": 0, \"index\": {i}"),
            ));
            trace.push('\n');
        }
        let a = analyze_trace(&trace).unwrap();
        let (id, s) = a.sole_session().unwrap();
        assert_eq!(id, 1);
        assert_eq!(s.data_packets, 4);
        assert_eq!(s.data_tx, 5);
        assert_eq!(s.parity_tx, 2);
        assert!((s.measured_em().unwrap() - 1.75).abs() < 1e-12);
        let cfg = s.config.clone().unwrap();
        assert_eq!((cfg.k, cfg.h, cfg.receivers), (4, 2, 3));
        assert!((cfg.loss - 0.1).abs() < 1e-12);
        assert_eq!(cfg.backend.as_deref(), Some("avx2"));
    }

    #[test]
    fn fairness_is_one_for_simultaneous_finishers() {
        let mut trace = String::new();
        for r in 0..3 {
            trace.push_str(&line(
                2.0,
                "done_recv",
                &format!("\"session\": 1, \"receiver\": {r}"),
            ));
            trace.push('\n');
        }
        let a = analyze_trace(&trace).unwrap();
        let s = &a.sessions[&1];
        assert!((s.fairness().unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(s.done_times.len(), 3);
    }

    #[test]
    fn fairness_drops_for_stragglers() {
        let mut trace = String::new();
        for (r, t) in [(0u32, 1.0), (1, 1.0), (2, 10.0)] {
            trace.push_str(&line(
                t,
                "done_recv",
                &format!("\"session\": 1, \"receiver\": {r}"),
            ));
            trace.push('\n');
        }
        let a = analyze_trace(&trace).unwrap();
        let f = a.sessions[&1].fairness().unwrap();
        assert!(f < 0.6, "straggler should hurt fairness, got {f}");
    }

    #[test]
    fn naks_take_max_of_sides_and_incidents_are_collected() {
        let mut trace = String::new();
        for i in 0..4 {
            trace.push_str(&line(
                0.1 * (i + 1) as f64,
                "nak_sent",
                "\"session\": 1, \"group\": 0, \"needed\": 1, \"round\": 0",
            ));
            trace.push('\n');
        }
        for i in 0..3 {
            trace.push_str(&line(
                0.1 * (i + 1) as f64 + 0.01,
                "nak_recv",
                "\"session\": 1, \"group\": 0, \"needed\": 1, \"round\": 0",
            ));
            trace.push('\n');
        }
        trace.push_str(&line(
            5.0,
            "stall_timeout",
            "\"role\": \"sender\", \"waited_secs\": 4.5",
        ));
        trace.push('\n');
        let a = analyze_trace(&trace).unwrap();
        assert_eq!(a.sessions[&1].naks(), 4);
        assert_eq!(a.incidents.len(), 1);
        assert_eq!(a.incidents[0].kind, "stall_timeout");
        assert_eq!(a.incidents[0].role.as_deref(), Some("sender"));
        assert!((a.incidents[0].waited_secs - 4.5).abs() < 1e-12);
    }

    #[test]
    fn overload_incidents_and_shed_verdicts_reconcile() {
        let mut trace = String::new();
        // Session 1 completes; session 2 is shed mid-flight; session 7 is
        // refused admission (its id is a prospective slot label and must
        // NOT materialize as a session).
        trace.push_str(&line(
            0.1,
            "data_sent",
            "\"session\": 1, \"group\": 0, \"index\": 0",
        ));
        trace.push('\n');
        trace.push_str(&line(
            0.2,
            "transfer_complete",
            "\"session\": 1, \"bytes\": 128",
        ));
        trace.push('\n');
        trace.push_str(&line(
            0.3,
            "data_sent",
            "\"session\": 2, \"group\": 0, \"index\": 0",
        ));
        trace.push('\n');
        trace.push_str(&line(
            0.4,
            "mux_overload",
            "\"active\": 2, \"utilization\": 0.93",
        ));
        trace.push('\n');
        trace.push_str(&line(
            0.5,
            "mux_admission_rejected",
            "\"session\": 7, \"role\": \"sender\", \"active\": 2, \"utilization\": 0.93",
        ));
        trace.push('\n');
        trace.push_str(&line(
            0.6,
            "mux_session_shed",
            "\"session\": 2, \"role\": \"receiver\", \"active\": 1, \"drives\": 5, \
             \"utilization\": 0.95",
        ));
        trace.push('\n');
        trace.push_str(&line(
            0.7,
            "mux_overload_cleared",
            "\"active\": 1, \"utilization\": 0.41",
        ));
        trace.push('\n');
        let a = analyze_trace(&trace).unwrap();

        // All four overload events land on the incident timeline, in order.
        let kinds: Vec<&str> = a.incidents.iter().map(|i| i.kind.as_str()).collect();
        assert_eq!(
            kinds,
            [
                "mux_overload",
                "mux_admission_rejected",
                "mux_session_shed",
                "mux_overload_cleared"
            ]
        );
        assert_eq!(a.incidents[1].session, Some(7));
        assert_eq!(a.incidents[2].session, Some(2));
        assert_eq!(a.incidents[2].role.as_deref(), Some("receiver"));
        assert!((a.incidents[2].utilization.unwrap() - 0.95).abs() < 1e-12);

        // Verdicts: 1 clean, 2 shed; the refused session never exists.
        assert_eq!(a.sessions[&1].verdict(), "clean");
        assert_eq!(a.sessions[&2].verdict(), "shed");
        assert!(!a.sessions.contains_key(&7));

        // Reconciliation: ledger == census == timeline.
        assert_eq!(a.shed_sessions(), 1);
        assert_eq!(a.census.get("mux_session_shed").copied(), Some(1));
        assert_eq!(
            a.incidents
                .iter()
                .filter(|i| i.kind == "mux_session_shed")
                .count(),
            1
        );
    }

    #[test]
    fn invalid_trace_is_rejected() {
        assert!(analyze_trace("not json\n").is_err());
        assert!(analyze_trace("").is_err());
    }
}
