//! Sliding-window telemetry over the event stream.
//!
//! A [`WindowTelemetry`] recorder folds the typed event vocabulary into
//! ring-of-buckets counters keyed by the **session clock** — the `t`
//! passed to [`crate::Obs::emit`] — never a wall clock, so the same trace
//! yields byte-identical windows whether it was produced under
//! `VirtualClock`, `WallClock`, or replayed offline. Per-session and
//! farm-wide [`WindowSet`]s produce the live rates the paper argues in:
//! goodput, NAK rate, repair ratio, and the running E[M] estimator
//! (transmissions per delivered data packet).
//!
//! Windows are mergeable: two [`WindowedCounter`]s built from disjoint
//! event streams combine commutatively bucket-by-bucket, so multi-worker
//! farms can keep thread-local windows and fold them without ordering
//! sensitivity (pinned by `merge_is_commutative` below).

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::event::Event;

/// Geometry of a sliding window: `buckets` ring slots of `bucket_secs`
/// each, so the window spans `bucket_secs * buckets` seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowConfig {
    /// Width of one bucket in session-clock seconds.
    pub bucket_secs: f64,
    /// Number of ring slots.
    pub buckets: usize,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig {
            bucket_secs: 1.0,
            buckets: 8,
        }
    }
}

impl WindowConfig {
    /// Window span in seconds.
    pub fn span_secs(&self) -> f64 {
        self.bucket_secs * self.buckets as f64
    }

    fn bucket_of(&self, t: f64) -> u64 {
        if t <= 0.0 || !t.is_finite() {
            0
        } else {
            (t / self.bucket_secs) as u64
        }
    }
}

/// A ring of counting buckets indexed by absolute bucket number.
///
/// `record(t, n)` adds `n` to the bucket containing `t`; `windowed(now)`
/// sums the buckets inside the window ending at `now` without mutating
/// anything, so reads at different `now` values are pure functions of the
/// recorded history. The ring only remembers the last `buckets` slots —
/// recording forward evicts stale slots lazily.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedCounter {
    cfg: WindowConfig,
    /// Slot `i` holds the count for absolute bucket `abs` where
    /// `abs % len == i` and `abs` is within `len` of `head`.
    counts: Vec<u64>,
    /// Absolute bucket numbers for each slot (u64::MAX = empty).
    slots: Vec<u64>,
    /// Highest absolute bucket seen so far.
    head: u64,
    /// Lifetime total, across all buckets ever.
    total: u64,
}

const EMPTY_SLOT: u64 = u64::MAX;

impl WindowedCounter {
    /// An empty counter with the given geometry.
    pub fn new(cfg: WindowConfig) -> Self {
        WindowedCounter {
            cfg,
            counts: vec![0; cfg.buckets.max(1)],
            slots: vec![EMPTY_SLOT; cfg.buckets.max(1)],
            head: 0,
            total: 0,
        }
    }

    /// Add `n` to the bucket containing session time `t`.
    pub fn record(&mut self, t: f64, n: u64) {
        let abs = self.cfg.bucket_of(t);
        let len = self.counts.len() as u64;
        // Events older than the ring can remember are folded into the
        // lifetime total only.
        if abs + len <= self.head.max(len) && self.head >= len {
            self.total += n;
            return;
        }
        let i = (abs % len) as usize;
        if self.slots[i] != abs {
            self.slots[i] = abs;
            self.counts[i] = 0;
        }
        self.counts[i] += n;
        self.total += n;
        if abs > self.head {
            self.head = abs;
        }
    }

    /// Sum of the buckets inside the window ending at `now`.
    pub fn windowed(&self, now: f64) -> u64 {
        let end = self.cfg.bucket_of(now);
        let len = self.counts.len() as u64;
        let start = end.saturating_sub(len - 1);
        let mut sum = 0;
        for (i, &abs) in self.slots.iter().enumerate() {
            if abs != EMPTY_SLOT && abs >= start && abs <= end {
                sum += self.counts[i];
            }
        }
        sum
    }

    /// Events per second over the window ending at `now`.
    pub fn rate(&self, now: f64) -> f64 {
        let span = self.cfg.span_secs();
        if span <= 0.0 {
            0.0
        } else {
            self.windowed(now) as f64 / span
        }
    }

    /// Lifetime total across all buckets ever recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fold `other` into `self`. Merging is commutative and associative
    /// for counters with the same geometry: buckets align by absolute
    /// index, heads take the max, and slots evicted from either ring are
    /// preserved only in the lifetime total (exactly as if the combined
    /// stream had been recorded into one counter in any order).
    pub fn merge(&mut self, other: &WindowedCounter) {
        assert_eq!(
            self.cfg, other.cfg,
            "cannot merge windows with different geometry"
        );
        let len = self.counts.len() as u64;
        let head = self.head.max(other.head);
        let start = head.saturating_sub(len - 1);
        for (i, &abs) in other.slots.iter().enumerate() {
            if abs == EMPTY_SLOT || abs < start {
                continue;
            }
            let j = (abs % len) as usize;
            if self.slots[j] != abs {
                if self.slots[j] != EMPTY_SLOT && self.slots[j] > abs {
                    // Our slot is fresher; other's stale bucket only
                    // survives in the total.
                    continue;
                }
                self.slots[j] = abs;
                self.counts[j] = 0;
            }
            self.counts[j] += other.counts[i];
        }
        // Drop our own slots that fell out of the merged window.
        for j in 0..self.slots.len() {
            if self.slots[j] != EMPTY_SLOT && self.slots[j] < start {
                self.slots[j] = EMPTY_SLOT;
                self.counts[j] = 0;
            }
        }
        self.head = head;
        self.total += other.total;
    }
}

/// All the windows for one scope (a session, or the whole farm).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSet {
    cfg: WindowConfig,
    /// Original data-packet transmissions.
    pub data_sent: WindowedCounter,
    /// Parity/repair transmissions.
    pub parity_sent: WindowedCounter,
    /// NAKs observed (sent or received — whichever side we instrument).
    pub naks: WindowedCounter,
    /// Repair rounds opened.
    pub repairs: WindowedCounter,
    /// Data packets delivered to the application (receives + codec
    /// recoveries).
    pub goodput: WindowedCounter,
    /// Corrupt datagrams dropped.
    pub corrupt: WindowedCounter,
    /// Cumulative receivers evicted (not windowed — an eviction is forever).
    pub evicted: u64,
    /// Last observed timer-wheel depth, keyed by sample time (ties keep
    /// the larger sample so merging stays commutative).
    pub wheel_depth: (f64, u64),
    /// Latest session-clock time observed.
    pub last_t: f64,
}

impl WindowSet {
    /// An empty set with the given geometry.
    pub fn new(cfg: WindowConfig) -> Self {
        WindowSet {
            cfg,
            data_sent: WindowedCounter::new(cfg),
            parity_sent: WindowedCounter::new(cfg),
            naks: WindowedCounter::new(cfg),
            repairs: WindowedCounter::new(cfg),
            goodput: WindowedCounter::new(cfg),
            corrupt: WindowedCounter::new(cfg),
            evicted: 0,
            wheel_depth: (-1.0, 0),
            last_t: 0.0,
        }
    }

    /// Fold one event into the windows.
    pub fn observe(&mut self, t: f64, event: &Event) {
        if t > self.last_t {
            self.last_t = t;
        }
        match event {
            Event::DataSent { .. } => self.data_sent.record(t, 1),
            Event::ParitySent { .. } => self.parity_sent.record(t, 1),
            Event::NakSent { .. } | Event::NakRecv { .. } => self.naks.record(t, 1),
            Event::RepairRound { .. } => self.repairs.record(t, 1),
            Event::DataRecv { .. } => self.goodput.record(t, 1),
            Event::GroupDecoded { recovered, .. } if *recovered > 0 => {
                self.goodput.record(t, *recovered);
            }
            Event::CorruptDropped { .. } => self.corrupt.record(t, 1),
            Event::ReceiverEvicted { evicted, .. } => {
                self.evicted += u64::from(*evicted);
            }
            _ => {}
        }
    }

    /// Record a timer-wheel depth sample at session time `t`.
    pub fn sample_wheel_depth(&mut self, t: f64, depth: u64) {
        let (t0, d0) = self.wheel_depth;
        if t > t0 || (t == t0 && depth > d0) {
            self.wheel_depth = (t, depth);
        }
        if t > self.last_t {
            self.last_t = t;
        }
    }

    /// Snapshot the derived rates at session time `now`.
    pub fn snapshot(&self, now: f64) -> WindowSnapshot {
        let data = self.data_sent.windowed(now);
        let parity = self.parity_sent.windowed(now);
        let tx = data + parity;
        WindowSnapshot {
            t: now,
            goodput_pps: self.goodput.rate(now),
            nak_rate: self.naks.rate(now),
            repair_rate: self.repairs.rate(now),
            repair_ratio: if tx == 0 {
                0.0
            } else {
                parity as f64 / tx as f64
            },
            live_em: if data == 0 {
                0.0
            } else {
                tx as f64 / data as f64
            },
            corrupt_rate: self.corrupt.rate(now),
            evicted: self.evicted,
            wheel_depth: if self.wheel_depth.0 < 0.0 {
                0
            } else {
                self.wheel_depth.1
            },
            data_sent_total: self.data_sent.total(),
            parity_sent_total: self.parity_sent.total(),
            goodput_total: self.goodput.total(),
            naks_total: self.naks.total(),
        }
    }

    /// Fold `other` into `self` (commutative for same-geometry sets).
    pub fn merge(&mut self, other: &WindowSet) {
        self.data_sent.merge(&other.data_sent);
        self.parity_sent.merge(&other.parity_sent);
        self.naks.merge(&other.naks);
        self.repairs.merge(&other.repairs);
        self.goodput.merge(&other.goodput);
        self.corrupt.merge(&other.corrupt);
        self.evicted += other.evicted;
        let (t, d) = other.wheel_depth;
        if t >= 0.0 {
            self.sample_wheel_depth(t, d);
        }
        if other.last_t > self.last_t {
            self.last_t = other.last_t;
        }
    }

    /// Latest session-clock time this set has seen.
    pub fn last_t(&self) -> f64 {
        self.last_t
    }
}

/// Derived rates over one window, pure function of (events, now).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSnapshot {
    /// Session-clock time the snapshot was taken at.
    pub t: f64,
    /// Data packets delivered per second.
    pub goodput_pps: f64,
    /// NAKs per second.
    pub nak_rate: f64,
    /// Repair rounds per second.
    pub repair_rate: f64,
    /// Parity share of all transmissions in the window.
    pub repair_ratio: f64,
    /// Live E[M] estimator: (data + parity) / data over the window.
    pub live_em: f64,
    /// Corrupt datagrams dropped per second.
    pub corrupt_rate: f64,
    /// Cumulative receivers evicted.
    pub evicted: u64,
    /// Last sampled timer-wheel depth.
    pub wheel_depth: u64,
    /// Lifetime data transmissions.
    pub data_sent_total: u64,
    /// Lifetime parity transmissions.
    pub parity_sent_total: u64,
    /// Lifetime delivered data packets.
    pub goodput_total: u64,
    /// Lifetime NAKs.
    pub naks_total: u64,
}

impl WindowSnapshot {
    /// Render as `name value` pairs for the exporter, prefixed with
    /// `prefix` (e.g. `"farm"` or `"session_3"`).
    pub fn gauges(&self, prefix: &str) -> Vec<(String, f64)> {
        vec![
            (format!("{prefix}.window.goodput_pps"), self.goodput_pps),
            (format!("{prefix}.window.nak_rate"), self.nak_rate),
            (format!("{prefix}.window.repair_rate"), self.repair_rate),
            (format!("{prefix}.window.repair_ratio"), self.repair_ratio),
            (format!("{prefix}.window.live_em"), self.live_em),
            (format!("{prefix}.window.corrupt_rate"), self.corrupt_rate),
            (format!("{prefix}.evicted_total"), self.evicted as f64),
            (format!("{prefix}.wheel_depth"), self.wheel_depth as f64),
            (
                format!("{prefix}.data_sent_total"),
                self.data_sent_total as f64,
            ),
            (
                format!("{prefix}.parity_sent_total"),
                self.parity_sent_total as f64,
            ),
            (format!("{prefix}.goodput_total"), self.goodput_total as f64),
            (format!("{prefix}.naks_total"), self.naks_total as f64),
        ]
    }
}

struct TelemetryInner {
    farm: WindowSet,
    sessions: BTreeMap<u32, WindowSet>,
}

/// A [`crate::Recorder`] that maintains farm-wide and per-session
/// [`WindowSet`]s from the live event stream.
///
/// Attribution uses [`Event::session`]: events carrying a session id feed
/// both that session's windows and the farm windows; unattributed events
/// (transport-level `Net*`, codec cache, resilience) feed the farm only.
/// Tee it next to the trace recorder with [`crate::Obs::tee`].
pub struct WindowTelemetry {
    cfg: WindowConfig,
    inner: Mutex<TelemetryInner>,
}

impl WindowTelemetry {
    /// Empty telemetry with the given window geometry.
    pub fn new(cfg: WindowConfig) -> Self {
        WindowTelemetry {
            cfg,
            inner: Mutex::new(TelemetryInner {
                farm: WindowSet::new(cfg),
                sessions: BTreeMap::new(),
            }),
        }
    }

    /// The window geometry.
    pub fn config(&self) -> WindowConfig {
        self.cfg
    }

    /// Snapshot the farm-wide windows at the latest observed time.
    pub fn farm_snapshot(&self) -> WindowSnapshot {
        let inner = self.inner.lock().expect("telemetry poisoned");
        inner.farm.snapshot(inner.farm.last_t())
    }

    /// Snapshot one session's windows at its latest observed time.
    pub fn session_snapshot(&self, session: u32) -> Option<WindowSnapshot> {
        let inner = self.inner.lock().expect("telemetry poisoned");
        inner.sessions.get(&session).map(|s| s.snapshot(s.last_t()))
    }

    /// Record a timer-wheel depth sample (farm scope) at session time `t`.
    pub fn set_wheel_depth(&self, t: f64, depth: u64) {
        let mut inner = self.inner.lock().expect("telemetry poisoned");
        inner.farm.sample_wheel_depth(t, depth);
    }

    /// Drop a finished session's windows (its history stays in the farm
    /// set). Returns the final snapshot if the session existed.
    pub fn retire_session(&self, session: u32) -> Option<WindowSnapshot> {
        let mut inner = self.inner.lock().expect("telemetry poisoned");
        inner
            .sessions
            .remove(&session)
            .map(|s| s.snapshot(s.last_t()))
    }

    /// All gauges for the exporter: farm first, then per-session in id
    /// order — a deterministic rendering of the current state.
    pub fn export_gauges(&self) -> Vec<(String, f64)> {
        let inner = self.inner.lock().expect("telemetry poisoned");
        let mut out = inner.farm.snapshot(inner.farm.last_t()).gauges("farm");
        for (id, set) in &inner.sessions {
            out.extend(set.snapshot(set.last_t()).gauges(&format!("session_{id}")));
        }
        out
    }

    /// Fold another telemetry instance into this one (worker fan-in).
    pub fn merge(&self, other: &WindowTelemetry) {
        let other_inner = other.inner.lock().expect("telemetry poisoned");
        let mut inner = self.inner.lock().expect("telemetry poisoned");
        inner.farm.merge(&other_inner.farm);
        for (id, set) in &other_inner.sessions {
            let cfg = self.cfg;
            inner
                .sessions
                .entry(*id)
                .or_insert_with(|| WindowSet::new(cfg))
                .merge(set);
        }
    }
}

impl crate::Recorder for WindowTelemetry {
    fn record(&self, t: f64, event: &Event) {
        let mut inner = self.inner.lock().expect("telemetry poisoned");
        inner.farm.observe(t, event);
        if let Some(session) = event.session() {
            let cfg = self.cfg;
            inner
                .sessions
                .entry(session)
                .or_insert_with(|| WindowSet::new(cfg))
                .observe(t, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn cfg(bucket_secs: f64, buckets: usize) -> WindowConfig {
        WindowConfig {
            bucket_secs,
            buckets,
        }
    }

    #[test]
    fn windowed_counter_slides() {
        let mut c = WindowedCounter::new(cfg(1.0, 4));
        c.record(0.5, 1);
        c.record(1.5, 2);
        c.record(2.5, 3);
        assert_eq!(c.windowed(2.5), 6);
        // Window [2..5] still covers buckets 2 and 1? end=5, start=2: only
        // bucket 2 and 3 (empty) remain.
        assert_eq!(c.windowed(5.0), 3);
        assert_eq!(c.windowed(10.0), 0);
        assert_eq!(c.total(), 6);
    }

    #[test]
    fn windowed_counter_reads_are_pure() {
        let mut c = WindowedCounter::new(cfg(0.5, 8));
        for i in 0..20 {
            c.record(i as f64 * 0.25, 1);
        }
        let a = c.windowed(4.75);
        let b = c.windowed(4.75);
        assert_eq!(a, b);
        // Reading at an earlier `now` does not mutate state either.
        let _ = c.windowed(1.0);
        assert_eq!(c.windowed(4.75), a);
    }

    #[test]
    fn stale_events_fold_into_total_only() {
        let mut c = WindowedCounter::new(cfg(1.0, 2));
        c.record(10.0, 5);
        c.record(0.5, 7); // far behind the ring
        assert_eq!(c.total(), 12);
        assert_eq!(c.windowed(10.0), 5);
    }

    #[test]
    fn merge_is_commutative() {
        // Build two counters from interleaved halves of one stream and
        // check merge order does not matter.
        let events: Vec<(f64, u64)> = (0..40).map(|i| (i as f64 * 0.3, (i % 3) + 1)).collect();
        let mut a = WindowedCounter::new(cfg(1.0, 4));
        let mut b = WindowedCounter::new(cfg(1.0, 4));
        for (i, &(t, n)) in events.iter().enumerate() {
            if i % 2 == 0 {
                a.record(t, n);
            } else {
                b.record(t, n);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);

        // And the merged result matches a single counter fed everything.
        let mut single = WindowedCounter::new(cfg(1.0, 4));
        for &(t, n) in &events {
            single.record(t, n);
        }
        assert_eq!(ab.total(), single.total());
        assert_eq!(ab.windowed(12.0), single.windowed(12.0));
    }

    #[test]
    fn window_set_computes_live_em() {
        let mut s = WindowSet::new(cfg(1.0, 8));
        for i in 0..20 {
            s.observe(
                i as f64 * 0.1,
                &Event::DataSent {
                    session: 1,
                    group: 0,
                    index: i as u16,
                },
            );
        }
        for i in 0..4 {
            s.observe(
                2.0 + i as f64 * 0.1,
                &Event::ParitySent {
                    session: 1,
                    group: 0,
                    index: 20 + i as u16,
                },
            );
        }
        let snap = s.snapshot(3.0);
        assert!((snap.live_em - 24.0 / 20.0).abs() < 1e-12);
        assert!((snap.repair_ratio - 4.0 / 24.0).abs() < 1e-12);
        assert_eq!(snap.data_sent_total, 20);
        assert_eq!(snap.parity_sent_total, 4);
    }

    #[test]
    fn goodput_counts_recoveries() {
        let mut s = WindowSet::new(WindowConfig::default());
        s.observe(
            0.1,
            &Event::DataRecv {
                session: 1,
                group: 0,
                index: 0,
            },
        );
        s.observe(
            0.2,
            &Event::GroupDecoded {
                session: 1,
                group: 0,
                recovered: 3,
            },
        );
        let snap = s.snapshot(0.2);
        assert_eq!(snap.goodput_total, 4);
    }

    #[test]
    fn telemetry_routes_by_session() {
        let tel = WindowTelemetry::new(WindowConfig::default());
        tel.record(
            0.1,
            &Event::DataSent {
                session: 3,
                group: 0,
                index: 0,
            },
        );
        tel.record(
            0.2,
            &Event::DataSent {
                session: 9,
                group: 0,
                index: 0,
            },
        );
        tel.record(
            0.3,
            &Event::CorruptDropped { total: 1 }, // unattributed -> farm only
        );
        assert!(tel.session_snapshot(9).is_some());
        assert_eq!(tel.farm_snapshot().data_sent_total, 2);
        assert_eq!(tel.session_snapshot(3).unwrap().data_sent_total, 1);
        assert!(tel.farm_snapshot().corrupt_rate > 0.0);
        assert!(tel.session_snapshot(3).unwrap().corrupt_rate == 0.0);
    }

    #[test]
    fn telemetry_merge_matches_single_stream() {
        let mk = |parity: bool| {
            let tel = WindowTelemetry::new(WindowConfig::default());
            for i in 0..10 {
                let t = i as f64 * 0.2;
                if parity {
                    tel.record(
                        t,
                        &Event::ParitySent {
                            session: 1,
                            group: 0,
                            index: i as u16,
                        },
                    );
                } else {
                    tel.record(
                        t,
                        &Event::DataSent {
                            session: 1,
                            group: 0,
                            index: i as u16,
                        },
                    );
                }
            }
            tel
        };
        let a = mk(false);
        let b = mk(true);
        a.merge(&b);
        let snap = a.session_snapshot(1).unwrap();
        assert_eq!(snap.data_sent_total, 10);
        assert_eq!(snap.parity_sent_total, 10);
        assert!((snap.live_em - 2.0).abs() < 1e-12);
    }

    #[test]
    fn wheel_depth_keeps_latest_sample() {
        let mut s = WindowSet::new(WindowConfig::default());
        s.sample_wheel_depth(1.0, 5);
        s.sample_wheel_depth(2.0, 3);
        s.sample_wheel_depth(2.0, 2); // same t, smaller -> ignored
        assert_eq!(s.snapshot(2.0).wheel_depth, 3);
        let mut other = WindowSet::new(WindowConfig::default());
        other.sample_wheel_depth(1.5, 9);
        s.merge(&other);
        assert_eq!(s.snapshot(2.0).wheel_depth, 3); // 2.0 beats 1.5
    }
}
