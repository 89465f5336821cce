//! The traced repetition: spans recorded from outside the program.
//!
//! The benchmark owns every object it hands to `Mux` -- transports,
//! machines, the clock -- and `Mux` reaches them only through public
//! traits (`PollTransport`, `SenderMachine`/`ReceiverMachine`,
//! `MuxClock`). Wrapping each of them therefore times every call that
//! crosses a layer boundary without touching a file of the repository.
//!
//! An [`Instr`] decides what a repetition is built from: [`Off`] passes
//! the bare objects through (the end-to-end metrics are measured on those),
//! [`Traced`] wraps them. The run is single-threaded, so the tracer is a
//! thread-local: the wrappers carry no handle and stay `Send`.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use pm_core::error::ProtocolError;
use pm_core::n2::N2Receiver;
use pm_core::receiver::{NpReceiver, ReceiverAction};
use pm_core::runtime::{ReceiverMachine, SenderMachine};
use pm_core::sender::SenderStep;
use pm_core::CostCounters;
use pm_mux::{Mux, MuxClock, SessionOutcome};
use pm_net::{Message, NetError, PollTransport, Token, Transport};
use pm_obs::{Histogram, MetricsRegistry};

use crate::protocol::{mix64, GOLDEN};

/// Span names, one per boundary the wrappers sit on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Run,
    Turn,
    NetSend,
    NetPollRecv,
    SenderNextStep,
    SenderHandle,
    /// `handle` of a data packet (`index < k`): stored, nothing decoded.
    ReceiverHandle,
    /// `handle` of a parity packet (`index >= k`): the arrival that can
    /// complete a group with losses, so where decoder construction and
    /// decoding happen.
    ReceiverHandleRepair,
    /// `handle` of anything else: polls, announces, FIN, and the NAKs of
    /// other receivers overheard for suppression.
    ReceiverHandleCtl,
    ReceiverOnTimer,
    ClockAdvance,
}

pub const KINDS: [Kind; 11] = [
    Kind::Run,
    Kind::Turn,
    Kind::NetSend,
    Kind::NetPollRecv,
    Kind::SenderNextStep,
    Kind::SenderHandle,
    Kind::ReceiverHandle,
    Kind::ReceiverHandleRepair,
    Kind::ReceiverHandleCtl,
    Kind::ReceiverOnTimer,
    Kind::ClockAdvance,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Run => "run",
            Kind::Turn => "mux.turn",
            Kind::NetSend => "net.send",
            Kind::NetPollRecv => "net.poll_recv",
            Kind::SenderNextStep => "core.sender.next_step",
            Kind::SenderHandle => "core.sender.handle",
            Kind::ReceiverHandle => "core.receiver.handle",
            Kind::ReceiverHandleRepair => "core.receiver.handle_repair",
            Kind::ReceiverHandleCtl => "core.receiver.handle_ctl",
            Kind::ReceiverOnTimer => "core.receiver.on_timer",
            Kind::ClockAdvance => "clock.advance_to",
        }
    }

    /// Whether calls of this name are timed by sample once past
    /// [`EXACT_FIRST`]. Names whose calls cost much the same each time
    /// are; the ones with a heavy tail -- a parity that completes a
    /// decode, or makes a receiver build its decoder, costs a thousand
    /// times the median packet -- and the rare ones are always timed.
    fn sampled(self) -> bool {
        !matches!(
            self,
            Kind::Run | Kind::Turn | Kind::ReceiverHandleRepair | Kind::ClockAdvance
        )
    }
}

/// One finished span. `parent` is the id of the innermost span open when
/// this one began (0 = none); `session` is the identifier spans of one
/// session share (0 for the run, turns and the clock).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub kind: Kind,
    pub session: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals of one repetition. Every call across a boundary is
/// counted. Of a sampled name (see [`Kind::sampled`]) the first
/// [`EXACT_FIRST`] calls are all timed and of the calls after them one in
/// [`SAMPLE_EVERY`] on average, at random gaps: two clock reads and a record cost
/// about 100 ns, as much as the cheapest calls themselves.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Calls across the boundary, timed or not.
    pub calls: u64,
    /// Calls that were timed: the spans.
    pub spans: u64,
    /// Nanoseconds inside the spans.
    pub span_ns: u64,
    /// `span_ns` minus the part child spans cover.
    pub self_ns: u64,
    /// Spans taken after the first `EXACT_FIRST` calls, and their time.
    pub tail_spans: u64,
    pub tail_ns: u64,
}

impl Agg {
    /// Time inside all `calls`: exact over the head, and over the tail
    /// the sampled spans scaled to the tail's call count.
    pub fn est_total_ns(&self) -> f64 {
        let head_ns = (self.span_ns - self.tail_ns) as f64;
        let tail_calls = self.calls.saturating_sub(EXACT_FIRST);
        if self.tail_spans == 0 {
            head_ns
        } else {
            head_ns + self.tail_ns as f64 * tail_calls as f64 / self.tail_spans as f64
        }
    }
}

/// Calls of a sampled name timed without exception at the start of a
/// repetition, so that a name with few calls is measured, not estimated.
pub const EXACT_FIRST: u64 = 2_048;
/// After that, one call in this many is timed, on average.
pub const SAMPLE_EVERY: u64 = 32;

struct Open {
    id: u32,
    kind: Kind,
    session: u32,
    start_ns: u64,
    child_ns: u64,
    tail: bool,
}

/// Full span records kept per repetition; every span beyond this still
/// lands in the per-name aggregates.
pub const FULL_RECORDS: usize = 100_000;

/// Counts taken at the same boundaries as the spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct BoundaryCounts {
    /// `poll_recv` calls that returned a datagram or a receive error; the
    /// rest of the calls came back empty. (The rarer outcome is the one
    /// counted: on `mem_bare_r1` six polls in seven are empty.)
    pub recv_nonempty: u64,
    /// `next_step` calls that returned a message to transmit.
    pub transmits: u64,
    /// Sender `handle` calls carrying a NAK.
    pub naks_handled: u64,
    /// Inverse-cache hits/misses summed over receivers at their end.
    pub cache_hits: u64,
    pub cache_misses: u64,
}

/// Everything one traced repetition recorded.
pub struct TraceData {
    pub spans: Vec<Span>,
    pub aggs: [Agg; KINDS.len()],
    pub turn_ns: Vec<u32>,
    pub counts: BoundaryCounts,
}

impl TraceData {
    pub fn agg(&self, kind: Kind) -> Agg {
        self.aggs[kind as usize]
    }

    /// One JSON object per line: a header, the per-name aggregates, then
    /// the full records.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let total: u64 = self.aggs.iter().map(|a| a.spans).sum();
        let _ = writeln!(
            out,
            "{{\"trace\":\"{workload}\",\"spans_total\":{total},\"spans_recorded\":{},\"exact_first\":{EXACT_FIRST},\"then_one_in\":{SAMPLE_EVERY}}}",
            self.spans.len()
        );
        for kind in KINDS {
            let a = self.agg(kind);
            let _ = writeln!(
                out,
                "{{\"agg\":\"{}\",\"calls\":{},\"spans\":{},\"span_ns\":{},\"self_ns\":{},\"est_total_ns\":{:.0}}}",
                kind.name(),
                a.calls,
                a.spans,
                a.span_ns,
                a.self_ns,
                a.est_total_ns()
            );
        }
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"session\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                s.kind.name(),
                s.session,
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

struct Tracer {
    epoch: Instant,
    stack: Vec<Open>,
    next_id: u32,
    /// State of the sampling draw. Random, not every n-th call:
    /// a k=7 group is seven packets and a poll, a period of eight.
    rng: u64,
    /// Calls of each sampled name still to let pass untimed.
    skip: [u64; KINDS.len()],
    data: TraceData,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            stack: Vec::with_capacity(8),
            next_id: 1,
            rng: GOLDEN,
            skip: [0; KINDS.len()],
            data: TraceData {
                spans: Vec::with_capacity(FULL_RECORDS),
                aggs: [Agg::default(); KINDS.len()],
                turn_ns: Vec::with_capacity(1 << 16),
                counts: BoundaryCounts::default(),
            },
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Count one call of `kind`; open a span for it if it is to be timed.
    fn begin(&mut self, kind: Kind, session: u32) -> bool {
        let agg = &mut self.data.aggs[kind as usize];
        agg.calls += 1;
        let tail = agg.calls > EXACT_FIRST && kind.sampled();
        if tail {
            // Skip a random number of calls between timed ones, uniform on
            // 0..=2(SAMPLE_EVERY-1): one call in SAMPLE_EVERY on average,
            // and an untimed call costs a decrement.
            let skip = &mut self.skip[kind as usize];
            if *skip > 0 {
                *skip -= 1;
                return false;
            }
            self.rng = self.rng.wrapping_add(GOLDEN);
            *skip = mix64(self.rng) % (2 * SAMPLE_EVERY - 1);
        }
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        let start_ns = self.now_ns();
        self.stack.push(Open {
            id,
            kind,
            session,
            start_ns,
            child_ns: 0,
            tail,
        });
        true
    }

    /// Close the innermost span; returns its duration.
    fn end(&mut self) -> u64 {
        let end_ns = self.now_ns();
        let Some(open) = self.stack.pop() else {
            return 0;
        };
        let dur = end_ns.saturating_sub(open.start_ns);
        let agg = &mut self.data.aggs[open.kind as usize];
        agg.spans += 1;
        agg.span_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        if open.tail {
            agg.tail_spans += 1;
            agg.tail_ns += dur;
        }
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => 0,
        };
        if self.data.spans.len() < FULL_RECORDS {
            self.data.spans.push(Span {
                id: open.id,
                parent,
                kind: open.kind,
                session: open.session,
                start_ns: open.start_ns,
                end_ns,
            });
        }
        if open.kind == Kind::Turn {
            self.data.turn_ns.push(dur.min(u64::from(u32::MAX)) as u32);
        }
        dur
    }
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Start collecting on this thread (drops anything collected before).
pub fn start() {
    TRACER.with(|t| *t.borrow_mut() = Some(Tracer::new()));
}

/// Stop collecting and hand back what was recorded.
pub fn finish() -> Option<TraceData> {
    TRACER.with(|t| t.borrow_mut().take().map(|tr| tr.data))
}

fn with_tracer<R: Default>(f: impl FnOnce(&mut Tracer) -> R) -> R {
    TRACER.with(|t| t.borrow_mut().as_mut().map(f).unwrap_or_default())
}

/// Count a call of `kind` and, when it is one of the timed ones, record
/// `f` as a span.
fn spanned<R>(kind: Kind, session: u32, f: impl FnOnce() -> R) -> R {
    let timed = with_tracer(|t| t.begin(kind, session));
    let r = f();
    if timed {
        with_tracer(Tracer::end);
    }
    r
}

fn count(f: impl FnOnce(&mut BoundaryCounts)) {
    with_tracer(|t| f(&mut t.data.counts));
}

/// `net.send` / `net.poll_recv` spans around any poll transport.
pub struct TracedTransport<T> {
    inner: T,
    session: u32,
}

impl<T: PollTransport> Transport for TracedTransport<T> {
    fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        spanned(Kind::NetSend, self.session, || self.inner.send(msg))
    }

    /// The mux only polls; the blocking receive is here because the trait
    /// demands it.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, NetError> {
        self.received(|t| t.recv_timeout(timeout))
    }
}

impl<T: PollTransport> TracedTransport<T> {
    fn received(
        &mut self,
        recv: impl FnOnce(&mut T) -> Result<Option<Message>, NetError>,
    ) -> Result<Option<Message>, NetError> {
        let r = spanned(Kind::NetPollRecv, self.session, || recv(&mut self.inner));
        if !matches!(r, Ok(None)) {
            count(|c| c.recv_nonempty += 1);
        }
        r
    }
}

impl<T: PollTransport> PollTransport for TracedTransport<T> {
    fn poll_recv(&mut self) -> Result<Option<Message>, NetError> {
        self.received(T::poll_recv)
    }
}

/// `core.sender.*` spans around a sender machine.
pub struct TracedSender<M> {
    inner: M,
    session: u32,
}

impl<M: SenderMachine> SenderMachine for TracedSender<M> {
    fn next_step(&mut self, now: f64) -> SenderStep {
        let step = spanned(Kind::SenderNextStep, self.session, || {
            self.inner.next_step(now)
        });
        if matches!(step, SenderStep::Transmit(_)) {
            count(|c| c.transmits += 1);
        }
        step
    }

    fn handle(&mut self, msg: &Message, now: f64) -> Result<(), ProtocolError> {
        if matches!(msg, Message::Nak { .. } | Message::NakPacket { .. }) {
            count(|c| c.naks_handled += 1);
        }
        spanned(Kind::SenderHandle, self.session, || {
            self.inner.handle(msg, now)
        })
    }

    fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }
    fn counters(&self) -> &CostCounters {
        self.inner.counters()
    }
    fn done_count(&self) -> usize {
        self.inner.done_count()
    }
    fn done_ids(&self) -> Vec<u32> {
        self.inner.done_ids()
    }
    fn outstanding(&self) -> u32 {
        self.inner.outstanding()
    }
    fn evict_outstanding(&mut self) -> u32 {
        self.inner.evict_outstanding()
    }
    fn state_bytes(&self) -> usize {
        self.inner.state_bytes()
    }
}

/// Receiver machines whose decoders keep an inverse cache report its
/// hit/miss counts; the others report none.
pub trait DecodeCache {
    fn cache_hits_misses(&self) -> (u64, u64);
}

impl DecodeCache for NpReceiver {
    fn cache_hits_misses(&self) -> (u64, u64) {
        let s = self.decode_cache_stats();
        (s.hits, s.misses)
    }
}

impl DecodeCache for N2Receiver {
    fn cache_hits_misses(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// `core.receiver.*` spans around a receiver machine. Its decoders'
/// cache counts are read when the mux retires (drops) the machine.
pub struct TracedReceiver<M: DecodeCache> {
    inner: M,
    session: u32,
}

impl<M: DecodeCache> Drop for TracedReceiver<M> {
    fn drop(&mut self) {
        let (hits, misses) = self.inner.cache_hits_misses();
        count(|c| {
            c.cache_hits += hits;
            c.cache_misses += misses;
        });
    }
}

impl<M: ReceiverMachine + DecodeCache> ReceiverMachine for TracedReceiver<M> {
    fn handle(&mut self, msg: &Message, now: f64) -> Result<Vec<ReceiverAction>, ProtocolError> {
        let kind = match msg {
            Message::Packet { index, k, .. } if index >= k => Kind::ReceiverHandleRepair,
            Message::Packet { .. } => Kind::ReceiverHandle,
            _ => Kind::ReceiverHandleCtl,
        };
        spanned(kind, self.session, || self.inner.handle(msg, now))
    }

    fn on_timer(&mut self, now: f64) -> Vec<ReceiverAction> {
        spanned(Kind::ReceiverOnTimer, self.session, || {
            self.inner.on_timer(now)
        })
    }

    fn next_deadline(&self) -> Option<f64> {
        self.inner.next_deadline()
    }
    fn is_complete(&self) -> bool {
        self.inner.is_complete()
    }
    fn fin_seen(&self) -> bool {
        self.inner.fin_seen()
    }
    fn take_data(&self) -> Result<Vec<u8>, ProtocolError> {
        self.inner.take_data()
    }
    fn counters(&self) -> &CostCounters {
        self.inner.counters()
    }
}

/// `clock.advance_to` spans: the only place the mux waits, so the span
/// total is the run's idle time and the span count its naps.
pub struct MeteredClock<C> {
    inner: C,
}

impl<C: MuxClock> MuxClock for MeteredClock<C> {
    fn now(&self) -> f64 {
        self.inner.now()
    }

    fn advance_to(&mut self, deadline: f64) {
        spanned(Kind::ClockAdvance, 0, || self.inner.advance_to(deadline));
    }
}

/// What a repetition is built from: the bare objects, or wrapped ones.
pub trait Instr {
    type Tx<T: PollTransport + 'static>: PollTransport + 'static;
    type Snd<M: SenderMachine + 'static>: SenderMachine + 'static;
    type Rcv<M: ReceiverMachine + DecodeCache + 'static>: ReceiverMachine + 'static;
    type Clk<C: MuxClock>: MuxClock;

    fn tx<T: PollTransport + 'static>(&self, t: T, session: u32) -> Self::Tx<T>;
    fn snd<M: SenderMachine + 'static>(&self, m: M, session: u32) -> Self::Snd<M>;
    fn rcv<M: ReceiverMachine + DecodeCache + 'static>(&self, m: M, session: u32) -> Self::Rcv<M>;
    fn clk<C: MuxClock>(&self, c: C) -> Self::Clk<C>;

    /// Encode/decode latency histograms to install on NP machines.
    fn codec_timers(&self) -> Option<(Histogram, Histogram)>;

    /// Registry for the mux's own gauges and histograms.
    fn registry(&self) -> Option<&MetricsRegistry>;

    /// Drive every session to its end: the timed region.
    fn drive<T: PollTransport, C: MuxClock>(
        &self,
        mux: &mut Mux<T, C>,
    ) -> Vec<(Token, SessionOutcome)>;
}

/// Tracing off: the program as its users run it.
pub struct Off;

impl Instr for Off {
    type Tx<T: PollTransport + 'static> = T;
    type Snd<M: SenderMachine + 'static> = M;
    type Rcv<M: ReceiverMachine + DecodeCache + 'static> = M;
    type Clk<C: MuxClock> = C;

    fn tx<T: PollTransport + 'static>(&self, t: T, _session: u32) -> T {
        t
    }
    fn snd<M: SenderMachine + 'static>(&self, m: M, _session: u32) -> M {
        m
    }
    fn rcv<M: ReceiverMachine + DecodeCache + 'static>(&self, m: M, _session: u32) -> M {
        m
    }
    fn clk<C: MuxClock>(&self, c: C) -> C {
        c
    }
    fn codec_timers(&self) -> Option<(Histogram, Histogram)> {
        None
    }
    fn registry(&self) -> Option<&MetricsRegistry> {
        None
    }
    fn drive<T: PollTransport, C: MuxClock>(
        &self,
        mux: &mut Mux<T, C>,
    ) -> Vec<(Token, SessionOutcome)> {
        mux.run()
    }
}

/// Tracing on: every object wrapped, the mux driven turn by turn under a
/// root `run` span, pm-rse timed through the public codec histograms.
pub struct Traced {
    pub encode_ns: Histogram,
    pub decode_ns: Histogram,
    pub registry: MetricsRegistry,
}

impl Traced {
    pub fn new() -> Traced {
        Traced {
            encode_ns: Histogram::new(),
            decode_ns: Histogram::new(),
            registry: MetricsRegistry::new(),
        }
    }
}

impl Instr for Traced {
    type Tx<T: PollTransport + 'static> = TracedTransport<T>;
    type Snd<M: SenderMachine + 'static> = TracedSender<M>;
    type Rcv<M: ReceiverMachine + DecodeCache + 'static> = TracedReceiver<M>;
    type Clk<C: MuxClock> = MeteredClock<C>;

    fn tx<T: PollTransport + 'static>(&self, t: T, session: u32) -> TracedTransport<T> {
        TracedTransport { inner: t, session }
    }
    fn snd<M: SenderMachine + 'static>(&self, m: M, session: u32) -> TracedSender<M> {
        TracedSender { inner: m, session }
    }
    fn rcv<M: ReceiverMachine + DecodeCache + 'static>(
        &self,
        m: M,
        session: u32,
    ) -> TracedReceiver<M> {
        TracedReceiver { inner: m, session }
    }
    fn clk<C: MuxClock>(&self, c: C) -> MeteredClock<C> {
        MeteredClock { inner: c }
    }
    fn codec_timers(&self) -> Option<(Histogram, Histogram)> {
        Some((self.encode_ns.clone(), self.decode_ns.clone()))
    }
    fn registry(&self) -> Option<&MetricsRegistry> {
        Some(&self.registry)
    }
    fn drive<T: PollTransport, C: MuxClock>(
        &self,
        mux: &mut Mux<T, C>,
    ) -> Vec<(Token, SessionOutcome)> {
        spanned(Kind::Run, 0, || {
            while !mux.is_empty() {
                spanned(Kind::Turn, 0, || mux.turn_once());
            }
        });
        mux.take_outcomes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children_and_parents_link() {
        start();
        spanned(Kind::Run, 0, || {
            spanned(Kind::Turn, 0, || {
                spanned(Kind::NetSend, 7, || {
                    std::thread::sleep(Duration::from_millis(2))
                });
                spanned(Kind::NetPollRecv, 7, || ());
            });
        });
        let data = finish().expect("collected");
        assert!(finish().is_none(), "finish drains");
        assert_eq!(data.spans.len(), 4);
        let by = |k: Kind| *data.spans.iter().find(|s| s.kind == k).unwrap();
        let (run, turn, send) = (by(Kind::Run), by(Kind::Turn), by(Kind::NetSend));
        assert_eq!(run.parent, 0);
        assert_eq!(turn.parent, run.id);
        assert_eq!(send.parent, turn.id);
        assert_eq!(send.session, 7);
        // Each level's self time excludes what its children cover, so the
        // self times add up to the root's duration exactly.
        let self_sum: u64 = KINDS.iter().map(|k| data.agg(*k).self_ns).sum();
        assert_eq!(self_sum, data.agg(Kind::Run).span_ns);
        assert!(data.agg(Kind::NetSend).self_ns >= 2_000_000);
        assert!(data.agg(Kind::Turn).self_ns < data.agg(Kind::Turn).span_ns);
        assert_eq!(
            data.agg(Kind::NetSend).est_total_ns(),
            data.agg(Kind::NetSend).span_ns as f64
        );
        assert_eq!(data.turn_ns.len(), 1);
        let text = data.to_jsonl("t");
        assert_eq!(text.lines().count(), 1 + KINDS.len() + 4);
        for line in text.lines() {
            serde_json::from_str(line).expect("every line is JSON");
        }
    }

    #[test]
    fn wrappers_are_inert_without_a_tracer() {
        assert!(finish().is_none());
        assert_eq!(spanned(Kind::Turn, 0, || 5), 5);
    }

    /// Past the exact head, every call is still counted, about one in
    /// `SAMPLE_EVERY` is timed, and the estimate scales the timed ones up.
    #[test]
    fn hot_names_are_counted_exactly_and_timed_by_sample() {
        start();
        let calls = EXACT_FIRST + 80_000;
        spanned(Kind::Run, 0, || {
            for _ in 0..calls {
                spanned(Kind::NetPollRecv, 1, || std::hint::black_box(1));
            }
        });
        let data = finish().expect("collected");
        let a = data.agg(Kind::NetPollRecv);
        assert_eq!(a.calls, calls);
        assert_eq!(a.spans, EXACT_FIRST + a.tail_spans);
        let expected = 80_000 / SAMPLE_EVERY;
        assert!(
            a.tail_spans > expected * 9 / 10 && a.tail_spans < expected * 11 / 10,
            "{} tail spans for {expected} expected",
            a.tail_spans
        );
        let mean_ns = a.span_ns as f64 / a.spans as f64;
        let est = a.est_total_ns();
        assert!(
            est > a.span_ns as f64 && est < mean_ns * calls as f64 * 3.0,
            "estimate {est} from {} ns over {} spans",
            a.span_ns,
            a.spans
        );
        assert_eq!(data.agg(Kind::Run).spans, 1);
    }
}
