//! End-host processing accounting.
//!
//! Section 5 of the paper compares N2 and NP by the *processing work* each
//! packet causes at the end hosts. The state machines increment these
//! counters as they run, and [`CostCounters::processing_time`] prices them
//! with the paper's cost table, giving a measured counterpart to the
//! analytical rates of `pm_analysis::endhost`. Session reports carry the
//! counters; only this module's tests call the pricing.

use pm_analysis::CostModel;
use pm_obs::MetricsRegistry;

/// Event counters for one protocol endpoint (sender or receiver).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostCounters {
    /// Data packets multicast (first transmissions).
    pub data_sent: u64,
    /// Parity packets multicast (NP) or retransmitted originals (N2).
    pub repairs_sent: u64,
    /// Packets received and processed.
    pub packets_received: u64,
    /// Parity packets encoded (each costs `k * c_e`).
    pub parities_encoded: u64,
    /// Data packets reconstructed by decoding (each costs `k * c_d`).
    pub packets_decoded: u64,
    /// NAKs/polls transmitted.
    pub feedback_sent: u64,
    /// NAKs/polls received and processed.
    pub feedback_received: u64,
    /// NAKs suppressed by damping (scheduled but never sent).
    pub feedback_suppressed: u64,
    /// Timer events fired or cancelled.
    pub timers: u64,
    /// Duplicate/unneeded packet receptions (discarded).
    pub unneeded_receptions: u64,
}

impl CostCounters {
    /// Total packets multicast.
    pub fn packets_sent(&self) -> u64 {
        self.data_sent + self.repairs_sent
    }

    /// Price the counted work with a cost table; returns seconds of
    /// processing. `k` is the group size (encode/decode cost scales with
    /// it, Eqs. (15)–(16)).
    pub fn processing_time(&self, k: usize, cost: &CostModel) -> f64 {
        self.packets_sent() as f64 * cost.send_packet
            + self.packets_received as f64 * cost.recv_packet
            + self.parities_encoded as f64 * k as f64 * cost.encode_const
            + self.packets_decoded as f64 * k as f64 * cost.decode_const
            + self.feedback_sent as f64 * cost.recv_nak_send
            + self.feedback_received as f64 * cost.recv_nak_other
            + self.timers as f64 * cost.recv_timer
    }

    /// Processing rate in packets/second for a transfer of
    /// `data_packets` useful packets: the measured analogue of the paper's
    /// `Lambda`.
    ///
    /// Returns `f64::INFINITY` when no work was recorded.
    pub fn processing_rate(&self, data_packets: u64, k: usize, cost: &CostModel) -> f64 {
        let t = self.processing_time(k, cost);
        if t <= 0.0 {
            f64::INFINITY
        } else {
            data_packets as f64 / t
        }
    }

    /// Publish the counters into a [`MetricsRegistry`] under
    /// `<prefix>.<field>` names (e.g. `sender.data_sent`). Registry
    /// counters are monotone, so this `add`s the current values — call it
    /// once per endpoint at session end.
    pub fn register_into(&self, reg: &MetricsRegistry, prefix: &str) {
        let fields: [(&str, u64); 10] = [
            ("data_sent", self.data_sent),
            ("repairs_sent", self.repairs_sent),
            ("packets_received", self.packets_received),
            ("parities_encoded", self.parities_encoded),
            ("packets_decoded", self.packets_decoded),
            ("feedback_sent", self.feedback_sent),
            ("feedback_received", self.feedback_received),
            ("feedback_suppressed", self.feedback_suppressed),
            ("timers", self.timers),
            ("unneeded_receptions", self.unneeded_receptions),
        ];
        for (name, value) in fields {
            reg.counter(&format!("{prefix}.{name}")).add(value);
        }
    }

    /// Merge another endpoint's counters (e.g. summing across receivers).
    pub fn merge(&mut self, other: &CostCounters) {
        self.data_sent += other.data_sent;
        self.repairs_sent += other.repairs_sent;
        self.packets_received += other.packets_received;
        self.parities_encoded += other.parities_encoded;
        self.packets_decoded += other.packets_decoded;
        self.feedback_sent += other.feedback_sent;
        self.feedback_received += other.feedback_received;
        self.feedback_suppressed += other.feedback_suppressed;
        self.timers += other.timers;
        self.unneeded_receptions += other.unneeded_receptions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pricing_matches_hand_computation() {
        let c = CostCounters {
            data_sent: 10,
            repairs_sent: 2,
            packets_received: 0,
            parities_encoded: 2,
            packets_decoded: 0,
            feedback_sent: 0,
            feedback_received: 3,
            feedback_suppressed: 1,
            timers: 4,
            unneeded_receptions: 0,
        };
        let cost = CostModel::paper_defaults();
        let t = c.processing_time(20, &cost);
        let expect = 12.0 * cost.send_packet
            + 2.0 * 20.0 * cost.encode_const
            + 3.0 * cost.recv_nak_other
            + 4.0 * cost.recv_timer;
        assert!((t - expect).abs() < 1e-12);
        assert!(c.processing_rate(10, 20, &cost) > 0.0);
    }

    #[test]
    fn empty_counters_are_free() {
        let c = CostCounters::default();
        assert_eq!(c.processing_time(7, &CostModel::paper_defaults()), 0.0);
        assert_eq!(
            c.processing_rate(5, 7, &CostModel::paper_defaults()),
            f64::INFINITY
        );
    }

    #[test]
    fn register_into_publishes_all_fields() {
        let c = CostCounters {
            data_sent: 10,
            feedback_suppressed: 3,
            ..Default::default()
        };
        let reg = MetricsRegistry::new();
        c.register_into(&reg, "sender");
        assert_eq!(reg.counter("sender.data_sent").get(), 10);
        assert_eq!(reg.counter("sender.feedback_suppressed").get(), 3);
        assert_eq!(reg.counter("sender.timers").get(), 0);
        let text = reg.render_text();
        assert!(text.contains("sender.data_sent"));
    }

    #[test]
    fn merge_adds() {
        let mut a = CostCounters {
            data_sent: 1,
            feedback_sent: 2,
            ..Default::default()
        };
        let b = CostCounters {
            data_sent: 3,
            timers: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.data_sent, 4);
        assert_eq!(a.feedback_sent, 2);
        assert_eq!(a.timers, 5);
    }
}
