//! Recorders and the [`Obs`] handle.
//!
//! The fast-path contract: instrumented code holds an [`Obs`] and calls
//! [`Obs::emit`] with a *closure* that builds the event. When the handle
//! wraps the [`NullRecorder`], `emit` is a single predictable branch on a
//! cached bool — the closure never runs, the event is never constructed,
//! the [`Stamp`] is never read (no clock, for a `&Stopwatch`), and no
//! virtual dispatch happens (verified at ≤ a few ns/event by the `obs`
//! bench in `pm-bench`).

use std::collections::VecDeque;
use std::fmt;
use std::io::Write;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::event::Event;

/// An event sink. Implementations must be cheap and non-blocking enough to
/// sit on protocol hot paths (or advertise themselves disabled).
pub trait Recorder: Send + Sync {
    /// Record one event at session-relative time `t` (seconds).
    fn record(&self, t: f64, event: &Event);

    /// False when recording is a no-op; [`Obs`] caches this at
    /// construction so disabled recorders cost one branch per emit.
    fn is_enabled(&self) -> bool {
        true
    }
}

/// The compile-away fast path: records nothing, reports itself disabled.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn record(&self, _t: f64, _event: &Event) {}
    fn is_enabled(&self) -> bool {
        false
    }
}

/// A cheap-to-clone handle to a recorder. This is what instrumented types
/// store; `Obs::null()` is the default everywhere, so observability is
/// strictly opt-in.
#[derive(Clone)]
pub struct Obs {
    enabled: bool,
    rec: Arc<dyn Recorder>,
}

impl Obs {
    /// A handle to the shared [`NullRecorder`] (no allocation after the
    /// first call).
    pub fn null() -> Self {
        static NULL: OnceLock<Arc<NullRecorder>> = OnceLock::new();
        Obs {
            enabled: false,
            rec: NULL.get_or_init(|| Arc::new(NullRecorder)).clone(),
        }
    }

    /// Wrap a recorder; its `is_enabled` answer is cached here.
    pub fn new(rec: Arc<dyn Recorder>) -> Self {
        Obs {
            enabled: rec.is_enabled(),
            rec,
        }
    }

    /// True when emitted events actually reach a sink.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Emit an event at time `t`. The stamp is read and the closure runs
    /// only when a real recorder is attached — the null path is one
    /// branch, and a `&Stopwatch` stamp reads no clock on it.
    #[inline]
    pub fn emit(&self, t: impl Stamp, make: impl FnOnce() -> Event) {
        if self.enabled {
            self.rec.record(t.seconds(), &make());
        }
    }

    /// A handle that records to both this handle's sink and `extra`.
    ///
    /// Composition point for the telemetry layer: wrap a session's trace
    /// recorder with a flight recorder without the instrumented code
    /// knowing. When this handle is the null one, the result records to
    /// `extra` alone (no dead tee branch).
    pub fn tee(&self, extra: Arc<dyn Recorder>) -> Obs {
        if self.enabled {
            Obs::new(Arc::new(TeeRecorder {
                a: self.rec.clone(),
                b: extra,
            }))
        } else {
            Obs::new(extra)
        }
    }
}

/// Fan-out recorder behind [`Obs::tee`]: every event goes to both sinks,
/// `a` first.
struct TeeRecorder {
    a: Arc<dyn Recorder>,
    b: Arc<dyn Recorder>,
}

impl Recorder for TeeRecorder {
    fn record(&self, t: f64, event: &Event) {
        self.a.record(t, event);
        self.b.record(t, event);
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::null()
    }
}

/// A thread-local staging buffer for events produced off the recording
/// thread.
///
/// Shared recorders serialize every [`Recorder::record`] call (the JSONL
/// and ring recorders take a mutex). A parallel simulation emitting from
/// many workers would contend on that lock and interleave events from
/// unrelated trials. An `EventBuffer` fixes both: workers stage events
/// locally with [`EventBuffer::emit`] (same closure fast-path contract as
/// [`Obs::emit`] — nothing is built when the target is disabled) and call
/// [`EventBuffer::flush_to`] at a *trial boundary*, which replays the
/// batch into the shared recorder back-to-back. Traces therefore
/// interleave at trial granularity, never mid-trial, which is the
/// invariant `obs-check`ed multi-threaded traces rely on.
///
/// ```
/// use std::sync::Arc;
/// use pm_obs::{Event, EventBuffer, Obs, RingRecorder};
/// let ring = Arc::new(RingRecorder::new(8));
/// let obs = Obs::new(ring.clone());
/// let mut buf = EventBuffer::for_obs(&obs);
/// buf.emit(0.1, || Event::FinSent { session: 1 });
/// assert!(ring.is_empty()); // staged, not yet recorded
/// buf.flush_to(&obs);
/// assert_eq!(ring.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct EventBuffer {
    enabled: bool,
    buf: Vec<(f64, Event)>,
}

impl EventBuffer {
    /// A buffer gated on `obs`'s enabled flag: when `obs` is the null
    /// handle, [`EventBuffer::emit`] never constructs events, so hot
    /// loops cost one branch exactly as with [`Obs::emit`].
    pub fn for_obs(obs: &Obs) -> Self {
        EventBuffer {
            enabled: obs.enabled(),
            buf: Vec::new(),
        }
    }

    /// Stage one event at time `t`. The closure runs only when the buffer
    /// was created for an enabled recorder.
    #[inline]
    pub fn emit(&mut self, t: f64, make: impl FnOnce() -> Event) {
        if self.enabled {
            self.buf.push((t, make()));
        }
    }

    /// Events currently staged.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Replay every staged event into `obs` in emission order and clear
    /// the buffer (its capacity is kept for the next trial).
    pub fn flush_to(&mut self, obs: &Obs) {
        for (t, ev) in self.buf.drain(..) {
            obs.emit(t, || ev);
        }
    }
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.enabled)
            .finish()
    }
}

/// Writes one JSON object per line (`{"t":..,"type":..,..}`) to any
/// writer. Wrap the writer in a `BufWriter` for file traces and call
/// [`JsonlRecorder::flush`] when the run ends.
pub struct JsonlRecorder<W: Write + Send> {
    w: Mutex<W>,
}

impl<W: Write + Send> JsonlRecorder<W> {
    /// Record to `w`.
    pub fn new(w: W) -> Self {
        JsonlRecorder { w: Mutex::new(w) }
    }

    /// Flush buffered lines through to the underlying writer.
    pub fn flush(&self) {
        if let Ok(mut w) = self.w.lock() {
            let _ = w.flush();
        }
    }
}

impl JsonlRecorder<std::io::BufWriter<std::fs::File>> {
    /// Create (truncating) a trace file at `path`.
    ///
    /// # Errors
    /// Propagates file-creation errors.
    pub fn create(path: &str) -> std::io::Result<Self> {
        Ok(JsonlRecorder::new(std::io::BufWriter::new(
            std::fs::File::create(path)?,
        )))
    }
}

impl<W: Write + Send> Recorder for JsonlRecorder<W> {
    fn record(&self, t: f64, event: &Event) {
        let line = serde_json::to_string(&event.to_json(t)).expect("event JSON never fails");
        if let Ok(mut w) = self.w.lock() {
            let _ = writeln!(w, "{line}");
        }
    }
}

/// A bounded in-memory recorder — a test's trace, or a session's flight
/// ring (see [`crate::Postmortem::from_ring`]): keeps the most recent
/// `capacity` events (older ones are counted, then discarded).
pub struct RingRecorder {
    capacity: usize,
    buf: Mutex<VecDeque<(f64, Event)>>,
    evicted: std::sync::atomic::AtomicU64,
}

impl RingRecorder {
    /// A ring holding up to `capacity` events.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        RingRecorder {
            capacity,
            buf: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            evicted: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Snapshot of the retained `(t, event)` pairs, oldest first.
    pub fn events(&self) -> Vec<(f64, Event)> {
        self.buf
            .lock()
            .map(|b| b.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.buf.lock().map(|b| b.len()).unwrap_or(0)
    }

    /// True when nothing has been recorded (or everything evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events discarded because the ring was full.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl Recorder for RingRecorder {
    fn record(&self, t: f64, event: &Event) {
        if let Ok(mut b) = self.buf.lock() {
            if b.len() == self.capacity {
                b.pop_front();
                self.evicted
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            b.push_back((t, event.clone()));
        }
    }
}

/// An event's time as [`Obs::emit`] takes it: read only when the event is
/// recorded. A sans-io machine passes the `f64` seconds it was handed; a
/// transport passes its `&Stopwatch`, so a disabled handle reads no clock.
pub trait Stamp {
    /// The time in seconds.
    fn seconds(self) -> f64;
}

impl Stamp for f64 {
    #[inline]
    fn seconds(self) -> f64 {
        self
    }
}

impl Stamp for &Stopwatch {
    #[inline]
    #[expect(
        clippy::disallowed_methods,
        reason = "the one lazy read: emit calls this only for an enabled recorder"
    )]
    fn seconds(self) -> f64 {
        self.now()
    }
}

/// Wall-clock epoch translating `Instant`s into the `f64` seconds the
/// event vocabulary uses. Transports that have no caller-supplied clock
/// stamp events with a `Stopwatch` started at construction, passed to
/// [`Obs::emit`] by reference (see [`Stamp`]).
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    epoch: Instant,
}

impl Stopwatch {
    /// Start counting now.
    #[expect(
        clippy::disallowed_methods,
        reason = "the stopwatch is the wall-clock source for transports without a session clock"
    )]
    pub fn start() -> Self {
        Stopwatch {
            epoch: Instant::now(),
        }
    }

    /// Seconds since the epoch (a `clock_gettime`). To stamp an event,
    /// pass `&stopwatch` to [`Obs::emit`] instead: this eager read is a
    /// disallowed method outside the wall-clock owners.
    #[expect(
        clippy::disallowed_methods,
        reason = "the stopwatch is the wall-clock source for transports without a session clock"
    )]
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Stopwatch::start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u16) -> Event {
        Event::DataSent {
            session: 1,
            group: 0,
            index: i,
        }
    }

    #[test]
    fn null_recorder_never_builds_events() {
        let obs = Obs::null();
        assert!(!obs.enabled());
        let mut built = false;
        obs.emit(0.0, || {
            built = true;
            ev(0)
        });
        assert!(!built, "closure must not run on the null path");
    }

    #[test]
    fn ring_keeps_most_recent() {
        let ring = Arc::new(RingRecorder::new(3));
        let obs = Obs::new(ring.clone());
        assert!(obs.enabled());
        for i in 0..5 {
            obs.emit(i as f64, || ev(i));
        }
        let events = ring.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].1, ev(2));
        assert_eq!(events[2].1, ev(4));
        assert_eq!(ring.evicted(), 2);
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let rec = Arc::new(JsonlRecorder::new(Vec::<u8>::new()));
        let obs = Obs::new(rec.clone());
        obs.emit(0.5, || ev(3));
        obs.emit(1.5, || Event::FinSent { session: 9 });
        let bytes = rec.w.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let v0 = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(v0["type"], "data_sent");
        assert_eq!(v0["t"], 0.5);
        let v1 = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(v1["type"], "fin_sent");
        assert_eq!(v1["session"], 9);
    }

    #[test]
    fn buffer_stages_then_flushes_in_order() {
        let ring = Arc::new(RingRecorder::new(8));
        let obs = Obs::new(ring.clone());
        let mut buf = EventBuffer::for_obs(&obs);
        for i in 0..4 {
            buf.emit(i as f64, || ev(i));
        }
        assert_eq!(buf.len(), 4);
        assert!(ring.is_empty(), "nothing recorded before the flush");
        buf.flush_to(&obs);
        assert!(buf.is_empty());
        let events = ring.events();
        assert_eq!(events.len(), 4);
        for (i, (t, e)) in events.iter().enumerate() {
            assert_eq!(*t, i as f64);
            assert_eq!(*e, ev(i as u16));
        }
    }

    #[test]
    fn buffer_for_null_obs_never_builds() {
        let mut buf = EventBuffer::for_obs(&Obs::null());
        let mut built = false;
        buf.emit(0.0, || {
            built = true;
            ev(0)
        });
        assert!(!built, "closure must not run for a disabled target");
        assert!(buf.is_empty());
        buf.flush_to(&Obs::null()); // no-op, must not panic
    }

    #[test]
    fn buffer_is_reusable_across_flushes() {
        let ring = Arc::new(RingRecorder::new(8));
        let obs = Obs::new(ring.clone());
        let mut buf = EventBuffer::for_obs(&obs);
        buf.emit(1.0, || ev(1));
        buf.flush_to(&obs);
        buf.emit(2.0, || ev(2));
        buf.flush_to(&obs);
        assert_eq!(ring.len(), 2);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test reads the stopwatch it checks"
    )]
    fn stopwatch_is_monotone() {
        let sw = Stopwatch::start();
        let a = sw.now();
        let b = sw.now();
        assert!(b >= a && a >= 0.0);
    }

    /// A stamp that counts how often it is read.
    struct Counting<'a>(&'a std::cell::Cell<u32>);

    impl Stamp for Counting<'_> {
        fn seconds(self) -> f64 {
            self.0.set(self.0.get() + 1);
            0.25
        }
    }

    #[test]
    fn disabled_obs_never_reads_the_stamp() {
        let reads = std::cell::Cell::new(0);
        let obs = Obs::null();
        for i in 0..3 {
            obs.emit(Counting(&reads), || ev(i));
        }
        obs.emit(&Stopwatch::start(), || ev(3));
        assert_eq!(reads.get(), 0, "a disabled handle reads no clock");
    }

    #[test]
    fn enabled_obs_reads_the_stamp_once_per_emit() {
        let reads = std::cell::Cell::new(0);
        let ring = Arc::new(RingRecorder::new(8));
        let obs = Obs::new(ring.clone());
        for i in 0..3 {
            obs.emit(Counting(&reads), || ev(i));
        }
        assert_eq!(reads.get(), 3);
        obs.emit(&Stopwatch::start(), || ev(3));
        let events = ring.events();
        assert!(events[..3].iter().all(|(t, _)| *t == 0.25));
        assert!(events[3].0 >= 0.0, "a stopwatch stamp is its elapsed time");
    }
}
