//! The multiplexer proper: N sessions, one thread, zero blocking waits.
//!
//! Every wait a session needs — packet pacing, retry backoff, machine
//! wakeups, the receiver poll cadence — is a [`TimerWheel`] entry keyed by
//! `(session, kind, generation)`. Stall, linger and eviction deadlines are
//! not timers but checks made on every drive pass, so a session pinned in
//! back-to-back transmits meets them as promptly as an idle one.
//!
//! A receiver is driven on *change*, not on arrival: its machine absorbs
//! every datagram, but a drive pass follows only when that left something
//! to send, a FIN to act on, or a NAK due before the Wake already armed
//! (`SessionState::wake_at`). Everything else — most of what a receiver
//! in a large group hears is other receivers' feedback — waits for that
//! Wake, which is never further off than `RECEIVER_WAIT_CEIL`.
//!
//! Every datagram a session sends — a sender's `Transmit`, a receiver's
//! queued feedback, a parked retry — goes through one function,
//! `transmit`, which alone decides what counts as progress and when a
//! failure parks the message on a `Retry` timer.
//!
//! The run loop is three strokes per turn: sweep the socket set
//! ([`PollSet::poll_round`] — fairness-bounded, round-robin), fire due
//! timers ([`TimerWheel::advance`] — deadline order, FIFO within a tick),
//! and only when *both* came up empty, advance the clock to the next
//! deadline. A hostile session can therefore cost its neighbors at most
//! its own bounded slice of each sweep — never a blocking wait.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use pm_core::error::ProtocolError;
use pm_core::receiver::ReceiverAction;
use pm_core::runtime::{
    absorb_feedback, error_outcome, ReceiverMachine, ReceiverReport, ResilienceCore, RuntimeConfig,
    SenderMachine, SessionReport,
};
use pm_core::sender::SenderStep;
use pm_net::{Message, NetError, PollSet, PollTransport, Token};
use pm_obs::{
    Counter, Event, Gauge, Histogram, MetricsRegistry, Obs, Outcome, Postmortem, Recorder,
    RingRecorder, Role,
};

use crate::clock::MuxClock;
use crate::overload::{AdmissionError, OverloadConfig, OverloadPolicy, OverloadSignal};
use crate::wheel::TimerWheel;

/// Ceiling on a sender machine's requested `WaitUntil`: an idle sender is
/// re-driven — and its stall deadline re-checked — at least this often,
/// whatever wakeup (`NaN`, `+inf`) the machine asked for.
const SENDER_WAIT_CEIL: Duration = Duration::from_millis(50);
/// Ceiling on the receiver drive cadence: the interval at which a receiver
/// with no NAK timer pending still gets its FIN/linger/stall checks.
const RECEIVER_WAIT_CEIL: Duration = Duration::from_millis(20);

/// [`TICK`] in nanoseconds: every delay becomes ticks by one `u64` division.
const TICK_NS: u64 = 50_000;
/// Timer-wheel granularity, 50 µs. Deadlines round up to the next tick, so
/// this bounds both scheduling error and the idle nap length.
pub const TICK: Duration = Duration::from_nanos(TICK_NS);
const TICK_SECS: f64 = TICK.as_secs_f64();
/// Datagrams drained per endpoint per sweep — the fairness bound: a
/// flooding session yields the sweep after this many datagrams.
const POLL_BUDGET: usize = 32;

/// Tuning knobs of a [`Mux`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MuxConfig {
    /// When set, every session gets a flight-recorder [`RingRecorder`] of
    /// this capacity (0 means 1): its driver lifecycle and I/O events are
    /// retained, and a session ending degraded or errored leaves a
    /// [`Postmortem`] (attached to the degraded [`SessionReport`],
    /// collected via [`Mux::take_postmortems`] otherwise).
    pub flight_capacity: Option<usize>,
    /// When set, the mux runs under admission control and load shedding:
    /// per-turn budget accounting feeds an [`OverloadPolicy`], admission
    /// via [`Mux::try_add_sender`] / [`Mux::try_add_receiver`] is refused
    /// past the high-water mark, and sustained saturation sheds sessions
    /// with typed [`SessionOutcome::Shed`] outcomes.
    pub overload: Option<OverloadConfig>,
}

/// Which of a session's schedulable waits a timer entry represents.
///
/// Stall, linger and eviction are *not* timer kinds — they are deadline
/// checks made on every drive pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum TimerKind {
    /// Inter-packet pacing gap after a successful transmit (sender).
    Pace,
    /// Machine-requested wakeup (`WaitUntil` for senders, the NAK/poll
    /// cadence for receivers).
    Wake,
    /// Retry backoff for a parked transmission.
    Retry,
}

/// Wheel key: token + kind + arming generation. Cancellation is lazy — a
/// fired entry whose generation no longer matches the session's current
/// one for that kind is simply stale and ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct TimerKey {
    token: Token,
    kind: TimerKind,
    generation: u64,
}

/// The protocol machine a session wraps.
enum Engine {
    Sender(Box<dyn SenderMachine>),
    Receiver(Box<dyn ReceiverMachine>),
}

/// A message for [`transmit`], and — parked in `SessionState::pending` —
/// one that hit a transient I/O failure and is waiting out its retry
/// backoff. While parked, the session transmits nothing else, so its
/// datagrams keep their order; it keeps *receiving* (`on_io` runs
/// regardless), so a flaky uplink cannot starve the feedback path.
struct PendingSend {
    msg: Message,
    /// Retries already spent on this message.
    attempt: u32,
    /// Keep-alive re-announces are not progress: if they were, a sender
    /// with zero receivers would re-announce forever instead of stalling.
    keepalive: bool,
}

/// Per-session driver state: the machine, its clocks and its parked work.
struct SessionState {
    token: Token,
    rt: RuntimeConfig,
    engine: Engine,
    res: ResilienceCore,
    /// Mux-clock time this session was added; machine time is relative
    /// to it, so every session starts at its own `t = 0` whenever it
    /// joins.
    started: f64,
    /// Stall/linger clock (absolute mux time).
    last_progress: f64,
    /// Eviction clock (absolute mux time). Stricter than the stall
    /// clock: it resets only on receiver liveness (see
    /// [`absorb_feedback`]), never on our own transmissions — or a sender
    /// that transmits continuously could never evict.
    last_liveness: f64,
    /// Last event that counted as progress (`Stalled` context).
    last_event: Option<Event>,
    pending: Option<PendingSend>,
    /// Receiver-side transmissions queued behind a parked retry.
    outbound: VecDeque<Message>,
    gen_pace: u64,
    gen_wake: u64,
    gen_retry: u64,
    /// Wheel tick of the live (current-generation) Wake entry. A receiver
    /// that is not parked on a retry always has one, no later than
    /// `RECEIVER_WAIT_CEIL` ahead — which is what lets `on_io` leave a
    /// receiver alone when a datagram changed nothing about its schedule.
    wake_at: u64,
    /// True while a sender sits in `WaitUntil` with a Wake armed — the
    /// only state where fresh feedback warrants an immediate re-drive.
    wait_armed: bool,
    /// Drive passes consumed (the fairness unit).
    drives: u64,
    evicted_total: u32,
    /// The mux obs teed with this session's flight ring (or a plain
    /// clone of it when flight recording is off) — every session-scoped
    /// lifecycle/resilience event goes through here so the ring sees it.
    obs: Obs,
    /// Bounded event history for postmortems, when enabled.
    flight: Option<Arc<RingRecorder>>,
}

impl SessionState {
    fn role(&self) -> Role {
        match self.engine {
            Engine::Sender(_) => Role::Sender,
            Engine::Receiver(_) => Role::Receiver,
        }
    }

    /// This session's outcome when it ends on `e`.
    fn failed(&self, e: ProtocolError) -> SessionOutcome {
        match self.engine {
            Engine::Sender(_) => SessionOutcome::Sender(Err(e)),
            Engine::Receiver(_) => SessionOutcome::Receiver(Err(e)),
        }
    }

    fn generation(&self, kind: TimerKind) -> u64 {
        match kind {
            TimerKind::Pace => self.gen_pace,
            TimerKind::Wake => self.gen_wake,
            TimerKind::Retry => self.gen_retry,
        }
    }

    fn generation_mut(&mut self, kind: TimerKind) -> &mut u64 {
        match kind {
            TimerKind::Pace => &mut self.gen_pace,
            TimerKind::Wake => &mut self.gen_wake,
            TimerKind::Retry => &mut self.gen_retry,
        }
    }
}

/// How a multiplexed session ended.
#[derive(Debug)]
pub enum SessionOutcome {
    /// A sender session's result.
    Sender(Result<SessionReport, ProtocolError>),
    /// A receiver session's result.
    Receiver(Result<ReceiverReport, ProtocolError>),
    /// The session was shed by the overload policy: removed mid-flight,
    /// deliberately, to keep the rest of the farm on schedule. Not an
    /// error — graceful degradation with a typed report.
    Shed(ShedReport),
}

/// What the mux knows about a session it shed. The session never reached
/// a protocol outcome, so this carries the driver-side facts instead:
/// who it was, how far it got, and the overload that claimed it.
#[derive(Debug)]
pub struct ShedReport {
    /// Sender or receiver side.
    pub role: Role,
    /// The mux slot the session occupied.
    pub session: u32,
    /// Session-relative runtime at the moment of shedding.
    pub elapsed: Duration,
    /// Drive passes consumed before shedding (the fairness unit; the
    /// victim policy prefers the fewest).
    pub drives: u64,
    /// The rolling utilization estimate that sustained the overload.
    pub utilization: f64,
    /// The session's flight-recorder postmortem, when
    /// [`MuxConfig::flight_capacity`] is set.
    pub postmortem: Option<Postmortem>,
}

impl SessionOutcome {
    /// True when the session completed without a fatal error. A shed
    /// session did not complete: `false`, though [`Self::err`] is `None`
    /// too — shedding is its own third state.
    pub fn is_ok(&self) -> bool {
        match self {
            SessionOutcome::Sender(r) => r.is_ok(),
            SessionOutcome::Receiver(r) => r.is_ok(),
            SessionOutcome::Shed(_) => false,
        }
    }

    /// True when the overload policy shed this session.
    pub fn is_shed(&self) -> bool {
        matches!(self, SessionOutcome::Shed(_))
    }

    /// The shed report, if the overload policy shed this session.
    pub fn shed_report(&self) -> Option<&ShedReport> {
        match self {
            SessionOutcome::Shed(r) => Some(r),
            _ => None,
        }
    }

    /// The sender report, if this was a successful sender session.
    pub fn sender_report(&self) -> Option<&SessionReport> {
        match self {
            SessionOutcome::Sender(Ok(r)) => Some(r),
            _ => None,
        }
    }

    /// The receiver report, if this was a successful receiver session.
    pub fn receiver_report(&self) -> Option<&ReceiverReport> {
        match self {
            SessionOutcome::Receiver(Ok(r)) => Some(r),
            _ => None,
        }
    }

    /// The fatal error, if the session failed. Shed sessions carry no
    /// error: they were removed by policy, not by failure.
    pub fn err(&self) -> Option<&ProtocolError> {
        match self {
            SessionOutcome::Sender(Err(e)) | SessionOutcome::Receiver(Err(e)) => Some(e),
            _ => None,
        }
    }
}

/// Gauges and histograms a mux maintains when bound to a registry.
#[derive(Debug, Clone)]
pub struct MuxMetrics {
    /// `mux.active_sessions` — sessions currently live.
    pub active_sessions: Gauge,
    /// `mux.timer_wheel_depth` — pending timer entries after each turn.
    pub wheel_depth: Gauge,
    /// `mux.session_queue_depth` — datagrams drained from one endpoint in
    /// one sweep (per-session backlog distribution).
    pub queue_depth: Histogram,
    /// `mux.session_drives` — drive passes per finished session (the
    /// fairness histogram: under a fair mux, peer sessions draw similar
    /// counts).
    pub session_drives: Histogram,
    /// `sender.state_bytes_per_receiver` — sender-side per-receiver state
    /// footprint at completion (the paper's scalability argument: NP keeps
    /// this constant as `R` grows). Set when a sender session finishes.
    pub sender_state_bytes: Gauge,
    /// `mux.shed_sessions` — sessions the overload policy has shed.
    pub shed_sessions: Counter,
    /// `mux.admission_rejected` — sessions refused at admission.
    pub admission_rejected: Counter,
    /// `mux.utilization_permille` — the rolling poll-budget utilization
    /// estimate, in thousandths (gauges are integral).
    pub utilization_permille: Gauge,
}

impl MuxMetrics {
    /// Create (or re-attach to) the mux instrument family in `reg`.
    pub fn register(reg: &MetricsRegistry) -> Self {
        MuxMetrics {
            active_sessions: reg.gauge("mux.active_sessions"),
            wheel_depth: reg.gauge("mux.timer_wheel_depth"),
            queue_depth: reg.histogram("mux.session_queue_depth"),
            session_drives: reg.histogram("mux.session_drives"),
            sender_state_bytes: reg.gauge("sender.state_bytes_per_receiver"),
            shed_sessions: reg.counter("mux.shed_sessions"),
            admission_rejected: reg.counter("mux.admission_rejected"),
            utilization_permille: reg.gauge("mux.utilization_permille"),
        }
    }
}

/// What to do after the session-local part of an I/O event is absorbed.
#[expect(
    clippy::large_enum_variant,
    reason = "Finish carries a session's outcome once per lifetime, never hot enough to box"
)]
enum AfterIo {
    Nothing,
    Finish(SessionOutcome),
    DriveSender,
    DriveReceiver,
}

/// What became of a [`transmit`].
enum Flush {
    /// It went out.
    Clear,
    /// A transient failure parked a message; a Retry timer is armed.
    Parked,
    /// A fatal transport failure.
    Fatal(ProtocolError),
}

/// Event-driven session multiplexer: drives any number of concurrent
/// sender/receiver machines on the calling thread.
///
/// ```text
/// loop {                       // Mux::run
///     sockets.poll_round()     // fair I/O sweep   -> on_io per datagram
///     wheel.advance(now)       // due timers       -> drive / retry
///     if idle { clock.advance_to(next deadline) }  // the ONLY wait
/// }
/// ```
pub struct Mux<T: PollTransport, C: MuxClock> {
    cfg: MuxConfig,
    clock: C,
    wheel: TimerWheel<TimerKey>,
    sockets: PollSet<T>,
    /// Dense session table indexed by `Token::slot`.
    sessions: Vec<Option<SessionState>>,
    live: usize,
    obs: Obs,
    metrics: Option<MuxMetrics>,
    outcomes: Vec<(Token, SessionOutcome)>,
    postmortems: Vec<(Token, Postmortem)>,
    io_sink: Vec<(Token, Result<Message, NetError>)>,
    fired: Vec<(u64, TimerKey)>,
    /// Admission control + shedding, when [`MuxConfig::overload`] is set.
    policy: Option<OverloadPolicy>,
    /// Drive passes taken this turn (half of the turn budget; datagrams
    /// drained are the other half).
    turn_drives: usize,
    /// Sessions shed over this mux's lifetime (the reconciliation ledger
    /// count, mirrored by the `mux.shed_sessions` counter and the
    /// `mux_session_shed` trace census).
    shed_total: u64,
}

impl<T: PollTransport, C: MuxClock> Mux<T, C> {
    /// An empty mux over `clock`.
    pub fn new(cfg: MuxConfig, clock: C) -> Self {
        Mux {
            cfg,
            clock,
            wheel: TimerWheel::new(),
            sockets: PollSet::new(),
            sessions: Vec::new(),
            live: 0,
            obs: Obs::null(),
            metrics: None,
            outcomes: Vec::new(),
            postmortems: Vec::new(),
            io_sink: Vec::new(),
            fired: Vec::new(),
            policy: cfg.overload.map(OverloadPolicy::new),
            turn_drives: 0,
            shed_total: 0,
        }
    }

    /// Emit runtime lifecycle events to `obs`.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Maintain mux gauges/histograms in `reg`.
    pub fn bind_metrics(&mut self, reg: &MetricsRegistry) {
        let m = MuxMetrics::register(reg);
        m.active_sessions.set(self.live as i64);
        self.metrics = Some(m);
    }

    /// Postmortems of sessions that ended with an error since the last
    /// call (degraded sender sessions carry theirs on the
    /// [`SessionReport`] instead). Empty unless
    /// [`MuxConfig::flight_capacity`] is set.
    pub fn take_postmortems(&mut self) -> Vec<(Token, Postmortem)> {
        std::mem::take(&mut self.postmortems)
    }

    /// Sessions currently live.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no session is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Pending timer entries (the wheel-depth gauge, readable directly).
    pub fn wheel_depth(&self) -> usize {
        self.wheel.len()
    }

    /// The mux clock, for inspection.
    pub fn clock(&self) -> &C {
        &self.clock
    }

    /// The rolling utilization estimate (0.0 when overload control is
    /// off — an unbudgeted mux never reports pressure).
    pub fn utilization(&self) -> f64 {
        self.policy
            .as_ref()
            .map_or(0.0, OverloadPolicy::utilization)
    }

    /// True while the overload policy is in a declared overload episode.
    pub fn overloaded(&self) -> bool {
        self.policy.as_ref().is_some_and(OverloadPolicy::overloaded)
    }

    /// Sessions shed over this mux's lifetime.
    pub fn shed_count(&self) -> u64 {
        self.shed_total
    }

    /// Admission-checked [`Mux::add_sender`]: refused with a typed
    /// [`AdmissionError`] (and a `mux_admission_rejected` event) when the
    /// overload policy says the mux cannot take more work. Without an
    /// [`MuxConfig::overload`] config, admission always succeeds.
    ///
    /// # Errors
    /// [`AdmissionError`] past the high-water mark or the session cap.
    pub fn try_add_sender<M: SenderMachine + 'static>(
        &mut self,
        machine: M,
        transport: T,
        rt: RuntimeConfig,
    ) -> Result<Token, AdmissionError> {
        self.admit(Role::Sender)?;
        Ok(self.add_sender(machine, transport, rt))
    }

    /// Admission-checked [`Mux::add_receiver`]; see [`Mux::try_add_sender`].
    ///
    /// # Errors
    /// [`AdmissionError`] past the high-water mark or the session cap.
    pub fn try_add_receiver<M: ReceiverMachine + 'static>(
        &mut self,
        machine: M,
        transport: T,
        rt: RuntimeConfig,
    ) -> Result<Token, AdmissionError> {
        self.admit(Role::Receiver)?;
        Ok(self.add_receiver(machine, transport, rt))
    }

    fn admit(&mut self, role: Role) -> Result<(), AdmissionError> {
        let Some(policy) = &self.policy else {
            return Ok(());
        };
        match policy.admit(self.live) {
            Ok(()) => Ok(()),
            Err(e) => {
                let active = self.live as u32;
                let utilization = policy.utilization();
                // The refused session never got a slot; label the event
                // with the next fresh one as a prospective id.
                let session = self.sessions.len() as u32;
                self.obs
                    .emit(self.clock.now(), || Event::MuxAdmissionRejected {
                        session,
                        role,
                        active,
                        utilization,
                    });
                if let Some(m) = &self.metrics {
                    m.admission_rejected.inc();
                }
                Err(e)
            }
        }
    }

    /// Add a sender session; it is driven from the next turn on.
    pub fn add_sender<M: SenderMachine + 'static>(
        &mut self,
        machine: M,
        transport: T,
        rt: RuntimeConfig,
    ) -> Token {
        self.add_session(
            Engine::Sender(Box::new(machine)),
            transport,
            rt,
            TimerKind::Pace,
        )
    }

    /// Add a receiver session; it is driven from the next turn on.
    pub fn add_receiver<M: ReceiverMachine + 'static>(
        &mut self,
        machine: M,
        transport: T,
        rt: RuntimeConfig,
    ) -> Token {
        self.add_session(
            Engine::Receiver(Box::new(machine)),
            transport,
            rt,
            TimerKind::Wake,
        )
    }

    fn add_session(
        &mut self,
        engine: Engine,
        transport: T,
        rt: RuntimeConfig,
        first: TimerKind,
    ) -> Token {
        let token = self.sockets.register(transport);
        let slot = token.slot();
        if self.sessions.len() <= slot {
            self.sessions.resize_with(slot + 1, || None);
        }
        let now_abs = self.clock.now();
        let (obs, flight) = match self.cfg.flight_capacity {
            Some(cap) => {
                let ring = Arc::new(RingRecorder::new(cap.max(1)));
                (self.obs.tee(ring.clone()), Some(ring))
            }
            None => (self.obs.clone(), None),
        };
        let mut sess = SessionState {
            token,
            rt,
            res: ResilienceCore::new(rt.resilience),
            engine,
            started: now_abs,
            last_progress: now_abs,
            last_liveness: now_abs,
            last_event: None,
            pending: None,
            outbound: VecDeque::new(),
            gen_pace: 0,
            gen_wake: 0,
            gen_retry: 0,
            wake_at: 0,
            wait_armed: false,
            drives: 0,
            evicted_total: 0,
            obs,
            flight,
        };
        let role = sess.role();
        // First drive is due immediately: the entry lands in the wheel's
        // due queue and fires on the next advance, before time moves.
        let at = self.wheel.now();
        arm_at(&mut self.wheel, &mut sess, first, at);
        self.sessions[slot] = Some(sess);
        self.live += 1;
        let active = self.live as u32;
        self.obs.emit(now_abs, || Event::MuxSessionAdded {
            session: slot as u32,
            role,
            active,
        });
        if let Some(m) = &self.metrics {
            m.active_sessions.set(self.live as i64);
        }
        token
    }

    /// Drive every session to its end and return the outcomes in
    /// completion order, tagged by token.
    pub fn run(&mut self) -> Vec<(Token, SessionOutcome)> {
        while self.live > 0 {
            self.turn();
        }
        std::mem::take(&mut self.outcomes)
    }

    /// One scheduler turn, for callers that interleave driving with their
    /// own work (churn harnesses adding and removing sessions mid-run).
    /// Outcomes accumulate; drain them with [`Mux::take_outcomes`].
    pub fn turn_once(&mut self) {
        self.turn();
    }

    /// Outcomes of sessions finished since the last call (or since the
    /// last [`Mux::run`], which drains them itself).
    pub fn take_outcomes(&mut self) -> Vec<(Token, SessionOutcome)> {
        std::mem::take(&mut self.outcomes)
    }

    /// One scheduler turn: I/O sweep, due timers, then — only if both
    /// were empty — one bounded clock advance toward the next deadline.
    fn turn(&mut self) {
        self.turn_drives = 0;
        // 1. Fair I/O sweep over every live endpoint.
        let mut sink = std::mem::take(&mut self.io_sink);
        sink.clear();
        let got = self.sockets.poll_round(POLL_BUDGET, &mut sink);
        if let Some(m) = &self.metrics {
            // poll_round drains each endpoint contiguously, so run
            // lengths are per-session backlog depths.
            let mut run = 0u64;
            let mut cur: Option<Token> = None;
            for (tok, _) in &sink {
                if cur == Some(*tok) {
                    run += 1;
                } else {
                    if cur.is_some() {
                        m.queue_depth.record(run);
                    }
                    cur = Some(*tok);
                    run = 1;
                }
            }
            if cur.is_some() {
                m.queue_depth.record(run);
            }
        }
        for (token, outcome) in sink.drain(..) {
            self.on_io(token, outcome);
        }
        self.io_sink = sink;

        // 2. Fire timers due at the current tick.
        let now_tick = Self::tick_of(self.clock.now());
        let mut fired = std::mem::take(&mut self.fired);
        fired.clear();
        self.wheel.advance(now_tick, &mut fired);
        let n_fired = fired.len();
        for (_, key) in fired.drain(..) {
            self.on_fired(key);
        }
        self.fired = fired;

        // Budget accounting: how much of this turn's capacity (datagrams
        // per sweep, drive passes per turn) the population consumed,
        // folded into the policy's rolling estimate.
        let io_capacity = (self.live.max(1) * POLL_BUDGET) as f64;
        let turn_drives = self.turn_drives;
        let signal = self.policy.as_mut().map(|policy| {
            let io_frac = got as f64 / io_capacity;
            let drive_frac = turn_drives as f64 / policy.config().drive_budget.max(1) as f64;
            (
                policy.observe(io_frac.max(drive_frac)),
                policy.utilization(),
            )
        });
        if let Some((signal, utilization)) = signal {
            let now_abs = self.clock.now();
            let active = self.live as u32;
            match signal {
                OverloadSignal::Nominal => {}
                OverloadSignal::Entered => {
                    self.obs.emit(now_abs, || Event::MuxOverload {
                        active,
                        utilization,
                    });
                }
                OverloadSignal::Cleared => {
                    self.obs.emit(now_abs, || Event::MuxOverloadCleared {
                        active,
                        utilization,
                    });
                }
                OverloadSignal::Shedding => self.shed_victims(utilization),
            }
            if let Some(m) = &self.metrics {
                m.utilization_permille.set((utilization * 1000.0) as i64);
            }
        }

        // 3. Quiescent: advance time toward the next deadline. This is
        // the only place the mux waits, and it waits for the *earliest*
        // deadline across every session — never for one session's sake.
        // `next_deadline` is exact, so the turn after the jump fires that
        // entry, and the advance goes *to* the deadline, not a tick past
        // it: under a `WallClock` that difference is a real oversleep on
        // every idle nap.
        if got == 0 && n_fired == 0 && self.live > 0 {
            let now = self.clock.now();
            let target = match self.wheel.next_deadline() {
                Some(t) => {
                    let deadline = t as f64 * TICK_SECS;
                    if deadline > now {
                        deadline
                    } else {
                        now + TICK_SECS
                    }
                }
                None => now + TICK_SECS,
            };
            self.clock.advance_to(target);
        }

        if let Some(m) = &self.metrics {
            m.wheel_depth.set(self.wheel.len() as i64);
        }
    }

    /// Seconds-to-tick, rounded to nearest: round-tripping a tick through
    /// `f64` seconds and back must be the identity, or a virtual clock
    /// that jumped to "tick 100 exactly" could land on tick 99 and strand
    /// the wheel one tick short of its deadline forever.
    fn tick_of(secs: f64) -> u64 {
        let t = secs / TICK_SECS;
        if t.is_finite() && t > 0.0 {
            t.round() as u64
        } else {
            0
        }
    }

    /// Absorb one datagram (or per-endpoint receive error) for a session.
    fn on_io(&mut self, token: Token, outcome: Result<Message, NetError>) {
        let now_abs = self.clock.now();
        let wheel_now = self.wheel.now();
        let after = {
            let Some(sess) = self
                .sessions
                .get_mut(token.slot())
                .and_then(|s| s.as_mut())
                .filter(|s| s.token == token)
            else {
                // Session already finished this sweep; late datagrams for
                // a retired slot are dropped, as a closed socket would.
                return;
            };
            let now_rel = now_abs - sess.started;
            match sess.res.absorb_recv(outcome.map(Some), now_rel, &sess.obs) {
                // Quarantine or fatal transport error: abort with the
                // typed error and no session_end event.
                Err(e) => AfterIo::Finish(sess.failed(e)),
                // Recoverable damage absorbed: counted, not progress.
                Ok(None) => AfterIo::Nothing,
                Ok(Some(msg)) => {
                    sess.last_progress = now_abs;
                    sess.last_event = Some(Event::NetRecv {
                        kind: msg.obs_kind(),
                    });
                    if let Some(ring) = &sess.flight {
                        ring.record(
                            now_rel,
                            &Event::NetRecv {
                                kind: msg.obs_kind(),
                            },
                        );
                    }
                    match &mut sess.engine {
                        Engine::Sender(machine) => {
                            match absorb_feedback(machine.as_mut(), &msg, now_rel) {
                                Err(e) => AfterIo::Finish(SessionOutcome::Sender(Err(e))),
                                Ok(lively) => {
                                    if lively {
                                        sess.last_liveness = now_abs;
                                    }
                                    // Feedback while parked in WaitUntil
                                    // may change the machine's plan (a NAK
                                    // wants repairs *now*): cancel the
                                    // armed Wake and re-drive immediately.
                                    // The generation bump is what prevents
                                    // the stale Wake from later double-
                                    // driving alongside the new schedule.
                                    if sess.wait_armed && sess.pending.is_none() {
                                        sess.gen_wake += 1;
                                        sess.wait_armed = false;
                                        AfterIo::DriveSender
                                    } else {
                                        AfterIo::Nothing
                                    }
                                }
                            }
                        }
                        Engine::Receiver(machine) => match machine.handle(&msg, now_rel) {
                            Err(e) => AfterIo::Finish(SessionOutcome::Receiver(Err(e))),
                            Ok(actions) => {
                                for action in actions {
                                    if let ReceiverAction::Send(m) = action {
                                        sess.outbound.push_back(m);
                                    }
                                }
                                // Drive on change, not on arrival: only
                                // something to send, a FIN to act on, or a
                                // NAK due before the live Wake needs a
                                // pass now. Otherwise that Wake fires on
                                // time and does every check a pass here
                                // would have (linger and stall cannot
                                // trip the moment a datagram arrived).
                                let wake_moved_up = machine.next_deadline().is_some_and(|d| {
                                    receiver_wake_tick(wheel_now, Some(d), now_rel) < sess.wake_at
                                });
                                if !sess.outbound.is_empty() || machine.fin_seen() || wake_moved_up
                                {
                                    AfterIo::DriveReceiver
                                } else {
                                    AfterIo::Nothing
                                }
                            }
                        },
                    }
                }
            }
        };
        match after {
            AfterIo::Nothing => {}
            AfterIo::Finish(o) => self.finish(token, o),
            AfterIo::DriveSender => self.drive_sender_session(token),
            AfterIo::DriveReceiver => self.drive_receiver_session(token),
        }
    }

    /// Dispatch one fired timer entry, dropping stale generations.
    fn on_fired(&mut self, key: TimerKey) {
        let Some(is_sender) = self
            .sessions
            .get(key.token.slot())
            .and_then(|s| s.as_ref())
            .filter(|s| s.token == key.token && s.generation(key.kind) == key.generation)
            .map(|s| matches!(s.engine, Engine::Sender(_)))
        else {
            return; // lazily cancelled or session gone
        };
        match key.kind {
            TimerKind::Retry => self.fire_retry(key.token),
            TimerKind::Pace | TimerKind::Wake => {
                if is_sender {
                    self.drive_sender_session(key.token);
                } else {
                    self.drive_receiver_session(key.token);
                }
            }
        }
    }

    /// One sender drive pass: evict if due, ask the machine for its next
    /// step, act on it. Exits after arming exactly one of Pace/Wake/Retry,
    /// or finishes the session.
    fn drive_sender_session(&mut self, token: Token) {
        let now_abs = self.clock.now();
        let Mux {
            sessions,
            sockets,
            wheel,
            metrics,
            turn_drives,
            ..
        } = self;
        let outcome = 'drive: {
            let Some(sess) = sessions
                .get_mut(token.slot())
                .and_then(|s| s.as_mut())
                .filter(|s| s.token == token)
            else {
                break 'drive None;
            };
            if sess.pending.is_some() {
                break 'drive None; // parked on a retry; Retry timer owns us
            }
            sess.drives += 1;
            *turn_drives += 1;
            let obs = &sess.obs;
            loop {
                let now_rel = now_abs - sess.started;
                let Engine::Sender(machine) = &mut sess.engine else {
                    break 'drive None;
                };
                // Graceful degradation, checked on every drive — not only
                // when the machine goes idle: a sender pinned in
                // back-to-back transmits evicts exactly as promptly as an
                // idle one.
                if let Some(deadline) = sess.rt.resilience.eviction_timeout {
                    let quiet = now_abs - sess.last_liveness;
                    if quiet > deadline.as_secs_f64()
                        && machine.outstanding() > 0
                        && machine.done_count() > 0
                    {
                        let evicted = machine.evict_outstanding();
                        if evicted > 0 {
                            sess.evicted_total += evicted;
                            let completed = machine.done_count() as u32;
                            obs.emit(now_rel, || Event::ReceiverEvicted { evicted, completed });
                            sess.last_progress = now_abs;
                            sess.last_liveness = now_abs;
                            continue;
                        }
                    }
                }
                match machine.next_step(now_rel) {
                    SenderStep::Finished => {
                        let end = if sess.evicted_total > 0 {
                            Outcome::Degraded
                        } else {
                            Outcome::Completed
                        };
                        obs.emit(now_rel, || Event::SessionEnd {
                            role: Role::Sender,
                            outcome: end,
                        });
                        if let Some(m) = metrics.as_ref() {
                            let done = machine.done_count().max(1);
                            m.sender_state_bytes
                                .set((machine.state_bytes() / done) as i64);
                        }
                        break 'drive Some(SessionOutcome::Sender(Ok(SessionReport {
                            counters: *machine.counters(),
                            elapsed: elapsed_of(now_rel),
                            completed: machine.done_ids(),
                            evicted: sess.evicted_total,
                            corrupt_dropped: sess.res.corrupt_dropped(),
                            send_retries: sess.res.send_retries(),
                            postmortem: None,
                        })));
                    }
                    SenderStep::Transmit(msg) => {
                        let keepalive = matches!(msg, Message::Announce { .. });
                        let send = PendingSend {
                            msg,
                            attempt: 0,
                            keepalive,
                        };
                        sess.wait_armed = false;
                        break 'drive match transmit(sess, sockets, wheel, now_abs, send) {
                            Flush::Clear => {
                                let spacing = sess.rt.packet_spacing;
                                arm(wheel, sess, TimerKind::Pace, spacing);
                                None
                            }
                            Flush::Parked => None,
                            Flush::Fatal(e) => Some(SessionOutcome::Sender(Err(e))),
                        };
                    }
                    SenderStep::WaitUntil(t) => {
                        let idle = now_abs - sess.last_progress;
                        if idle > sess.rt.stall_timeout.as_secs_f64() {
                            obs.emit(now_rel, || Event::StallTimeout {
                                role: Role::Sender,
                                waited_secs: idle,
                            });
                            obs.emit(now_rel, || Event::SessionEnd {
                                role: Role::Sender,
                                outcome: Outcome::Stalled,
                            });
                            break 'drive Some(SessionOutcome::Sender(Err(
                                ProtocolError::Stalled {
                                    waited_secs: idle,
                                    last_progress: sess.last_event.clone(),
                                },
                            )));
                        }
                        let wait = wait_ticks(t - now_rel, SENDER_WAIT_CEIL);
                        let at = wheel.now().saturating_add(wait);
                        sess.wait_armed = true;
                        arm_at(wheel, sess, TimerKind::Wake, at);
                        break 'drive None;
                    }
                }
            }
        };
        if let Some(o) = outcome {
            self.finish(token, o);
        }
    }

    /// One receiver drive pass: fire machine timers, flush outbound,
    /// run the end-of-session checks, re-arm the poll cadence.
    fn drive_receiver_session(&mut self, token: Token) {
        let now_abs = self.clock.now();
        let Mux {
            sessions,
            sockets,
            wheel,
            turn_drives,
            ..
        } = self;
        let outcome = 'drive: {
            let Some(sess) = sessions
                .get_mut(token.slot())
                .and_then(|s| s.as_mut())
                .filter(|s| s.token == token)
            else {
                break 'drive None;
            };
            if sess.pending.is_some() {
                break 'drive None; // parked on a retry; Retry timer owns us
            }
            sess.drives += 1;
            *turn_drives += 1;
            let now_rel = now_abs - sess.started;
            let actions = {
                let Engine::Receiver(machine) = &mut sess.engine else {
                    break 'drive None;
                };
                machine.on_timer(now_rel)
            };
            for action in actions {
                if let ReceiverAction::Send(m) = action {
                    sess.outbound.push_back(m);
                }
            }
            // Flush in order, parking on the first transient failure.
            while let Some(msg) = sess.outbound.pop_front() {
                let send = PendingSend {
                    msg,
                    attempt: 0,
                    keepalive: false,
                };
                match transmit(sess, sockets, wheel, now_abs, send) {
                    Flush::Clear => {}
                    Flush::Parked => break 'drive None,
                    Flush::Fatal(e) => break 'drive Some(SessionOutcome::Receiver(Err(e))),
                }
            }
            if let Some(done) = receiver_checks(sess, now_abs) {
                break 'drive Some(done);
            }
            let deadline = {
                let Engine::Receiver(machine) = &sess.engine else {
                    break 'drive None;
                };
                machine.next_deadline()
            };
            let at = receiver_wake_tick(wheel.now(), deadline, now_rel);
            arm_at(wheel, sess, TimerKind::Wake, at);
            None
        };
        if let Some(o) = outcome {
            self.finish(token, o);
        }
    }

    /// A Retry timer fired: re-attempt the parked transmission.
    fn fire_retry(&mut self, token: Token) {
        let now_abs = self.clock.now();
        let after = {
            let Mux {
                sessions,
                sockets,
                wheel,
                ..
            } = self;
            let Some(sess) = sessions
                .get_mut(token.slot())
                .and_then(|s| s.as_mut())
                .filter(|s| s.token == token)
            else {
                return;
            };
            let Some(pending) = sess.pending.take() else {
                return;
            };
            match transmit(sess, sockets, wheel, now_abs, pending) {
                Flush::Clear => match sess.engine {
                    Engine::Sender(_) => {
                        // The send finally landed: resume pacing from
                        // here.
                        let spacing = sess.rt.packet_spacing;
                        arm(wheel, sess, TimerKind::Pace, spacing);
                        AfterIo::Nothing
                    }
                    Engine::Receiver(_) => AfterIo::DriveReceiver,
                },
                Flush::Parked => AfterIo::Nothing,
                Flush::Fatal(e) => AfterIo::Finish(sess.failed(e)),
            }
        };
        match after {
            AfterIo::Nothing => {}
            AfterIo::Finish(o) => self.finish(token, o),
            AfterIo::DriveReceiver => self.drive_receiver_session(token),
            AfterIo::DriveSender => self.drive_sender_session(token),
        }
    }

    /// Shed up to `max_shed_per_turn` victims by the policy's
    /// deterministic priority: newest session first, then fewest drives,
    /// then the seeded tie-break. Each victim ends with a typed
    /// [`SessionOutcome::Shed`] carrying its runtime facts (and its
    /// postmortem, attached in [`Mux::finish`] when flight recording is
    /// on) — never a stall, never a panic.
    fn shed_victims(&mut self, utilization: f64) {
        let Some(policy) = &self.policy else {
            return;
        };
        let quota = policy.config().max_shed_per_turn.min(self.live);
        if quota == 0 {
            return;
        }
        let mut candidates: Vec<((u64, u64, u64), Token)> = self
            .sessions
            .iter()
            .flatten()
            .map(|s| {
                (
                    policy.victim_key(s.token.slot(), s.started, s.drives),
                    s.token,
                )
            })
            .collect();
        // Larger key = higher victim priority.
        candidates.sort_by(|a, b| b.cmp(a));
        let victims: Vec<Token> = candidates.into_iter().take(quota).map(|(_, t)| t).collect();
        for token in victims {
            self.shed(token, utilization);
        }
    }

    fn shed(&mut self, token: Token, utilization: f64) {
        let now_abs = self.clock.now();
        let Some(sess) = self
            .sessions
            .get(token.slot())
            .and_then(|s| s.as_ref())
            .filter(|s| s.token == token)
        else {
            return;
        };
        let role = sess.role();
        let drives = sess.drives;
        let slot = token.slot() as u32;
        let report = ShedReport {
            role,
            session: slot,
            elapsed: elapsed_of(now_abs - sess.started),
            drives,
            utilization,
            postmortem: None,
        };
        self.shed_total += 1;
        if let Some(m) = &self.metrics {
            m.shed_sessions.inc();
        }
        let active = (self.live - 1) as u32;
        self.obs.emit(now_abs, || Event::MuxSessionShed {
            session: slot,
            role,
            active,
            drives,
            utilization,
        });
        self.finish(token, SessionOutcome::Shed(report));
    }

    /// Retire a session: drop its transport, record its outcome, emit the
    /// lifecycle event, and freeze a postmortem when the flight ring is on
    /// and the ending warrants one. Outstanding wheel entries die by
    /// staleness.
    fn finish(&mut self, token: Token, mut outcome: SessionOutcome) {
        let slot = token.slot();
        let Some(entry) = self.sessions.get_mut(slot) else {
            return;
        };
        let Some(sess) = entry.take() else {
            return;
        };
        if sess.token != token {
            *entry = Some(sess);
            return;
        }
        drop(self.sockets.deregister(token));
        self.live -= 1;
        let now_abs = self.clock.now();
        let role = sess.role();
        let drives = sess.drives;
        let active = self.live as u32;
        if let Some(ring) = &sess.flight {
            let freeze = |outcome: &str| {
                Postmortem::from_ring(ring, role.as_str(), outcome, Some(slot as u32))
            };
            match &mut outcome {
                // Degraded-but-ok sender: the artifact travels on the
                // report.
                SessionOutcome::Sender(Ok(report)) if report.is_degraded() => {
                    report.postmortem = Some(freeze("degraded"));
                }
                // Errored either side: no report to carry it — ledger it
                // for `take_postmortems`.
                SessionOutcome::Sender(Err(e)) | SessionOutcome::Receiver(Err(e)) => {
                    self.postmortems.push((token, freeze(error_outcome(e))));
                }
                // Shed: the typed report is the carrier, like a degraded
                // sender's — the caller gets the artifact with the verdict.
                SessionOutcome::Shed(report) => {
                    report.postmortem = Some(freeze("shed"));
                }
                _ => {}
            }
        }
        self.obs.emit(now_abs, || Event::MuxSessionEnded {
            session: slot as u32,
            role,
            active,
            drives,
        });
        if let Some(m) = &self.metrics {
            m.active_sessions.set(self.live as i64);
            m.session_drives.record(drives);
        }
        self.outcomes.push((token, outcome));
    }
}

/// Session-relative seconds → report duration, total over hostile floats.
fn elapsed_of(now_rel: f64) -> Duration {
    if now_rel.is_finite() && now_rel > 0.0 {
        Duration::try_from_secs_f64(now_rel).unwrap_or_default()
    } else {
        Duration::ZERO
    }
}

/// Ceil a delay to whole ticks, at least one: a timer never fires early,
/// and "now" is never a valid future deadline.
fn ticks_for(delay: Duration) -> u64 {
    let ticks = match u64::try_from(delay.as_nanos()) {
        Ok(ns) => ns.div_ceil(TICK_NS),
        // Past 584 years: the wide division, saturating.
        Err(_) => u64::try_from(delay.as_nanos().div_ceil(u128::from(TICK_NS))).unwrap_or(u64::MAX),
    };
    ticks.max(1)
}

/// Ticks to wait for a machine's wake-up `delta_secs` away: the wait is
/// [`clamp_wait`](pm_core::runtime::clamp_wait)`(delta_secs, TICK, ceil)`,
/// total over every float, and a delta the clamp sends to either bound
/// skips the `Duration`.
fn wait_ticks(delta_secs: f64, ceil: Duration) -> u64 {
    if delta_secs.is_nan() || delta_secs <= 0.0 {
        1
    } else if delta_secs >= ceil.as_secs_f64() {
        ticks_for(ceil)
    } else {
        ticks_for(Duration::from_secs_f64(delta_secs).min(ceil))
    }
}

/// The tick a receiver's Wake belongs at: its earliest NAK `deadline`
/// (session-relative seconds), or the check cadence when it has none.
fn receiver_wake_tick(wheel_now: u64, deadline: Option<f64>, now_rel: f64) -> u64 {
    let wait = match deadline {
        Some(d) => wait_ticks(d - now_rel, RECEIVER_WAIT_CEIL),
        None => ticks_for(RECEIVER_WAIT_CEIL),
    };
    wheel_now.saturating_add(wait)
}

/// Arm (or re-arm) `kind` for `sess` at `delay` from now. Bumping the
/// generation first makes any previously armed entry of the same kind
/// stale — cancellation without touching the wheel.
fn arm(
    wheel: &mut TimerWheel<TimerKey>,
    sess: &mut SessionState,
    kind: TimerKind,
    delay: Duration,
) {
    let at = wheel.now().saturating_add(ticks_for(delay));
    arm_at(wheel, sess, kind, at);
}

fn arm_at(wheel: &mut TimerWheel<TimerKey>, sess: &mut SessionState, kind: TimerKind, at: u64) {
    if kind == TimerKind::Wake {
        sess.wake_at = at;
    }
    let generation = sess.generation_mut(kind);
    *generation += 1;
    let generation = *generation;
    wheel.insert(
        at,
        TimerKey {
            token: sess.token,
            kind,
            generation,
        },
    );
}

/// Hand one message to the session's transport: the mux's only send.
///
/// A landed send is progress (the stall clock, the `Stalled` context and
/// the flight ring) unless it is a keep-alive. A transient I/O failure
/// with retries left parks the message and arms `Retry`; any other
/// failure is fatal.
fn transmit<T: PollTransport>(
    sess: &mut SessionState,
    sockets: &mut PollSet<T>,
    wheel: &mut TimerWheel<TimerKey>,
    now_abs: f64,
    send: PendingSend,
) -> Flush {
    let sent = match sockets.get_mut(sess.token) {
        Some(transport) => transport.send(&send.msg),
        None => Err(NetError::Closed),
    };
    let now_rel = now_abs - sess.started;
    match sent {
        Ok(()) => {
            if !send.keepalive {
                let event = Event::NetSent {
                    kind: send.msg.obs_kind(),
                };
                if let Some(ring) = &sess.flight {
                    ring.record(now_rel, &event);
                }
                sess.last_progress = now_abs;
                sess.last_event = Some(event);
            }
            Flush::Clear
        }
        Err(NetError::Io(_)) if send.attempt < sess.res.policy().send_retries => {
            let attempt = send.attempt + 1;
            let backoff = sess.res.retry_backoff(attempt, now_rel, &sess.obs);
            sess.pending = Some(PendingSend { attempt, ..send });
            arm(wheel, sess, TimerKind::Retry, backoff);
            Flush::Parked
        }
        Err(e) => Flush::Fatal(e.into()),
    }
}

/// A receiver's end-of-drive checks: FIN, linger, stall.
fn receiver_checks(sess: &mut SessionState, now_abs: f64) -> Option<SessionOutcome> {
    let obs = &sess.obs;
    let now_rel = now_abs - sess.started;
    let corrupt_dropped = sess.res.corrupt_dropped();
    let Engine::Receiver(machine) = &sess.engine else {
        return None;
    };
    if machine.fin_seen() {
        return Some(if machine.is_complete() {
            obs.emit(now_rel, || Event::SessionEnd {
                role: Role::Receiver,
                outcome: Outcome::Completed,
            });
            SessionOutcome::Receiver(finish_receiver(machine.as_ref(), now_rel, corrupt_dropped))
        } else {
            obs.emit(now_rel, || Event::SessionEnd {
                role: Role::Receiver,
                outcome: Outcome::SenderGone,
            });
            SessionOutcome::Receiver(Err(ProtocolError::SenderGone { groups_missing: 1 }))
        });
    }
    let idle = now_abs - sess.last_progress;
    if machine.is_complete() && idle > sess.rt.complete_linger.as_secs_f64() {
        // FIN was lost but the data is whole; stop lingering.
        obs.emit(now_rel, || Event::LingerExpired { waited_secs: idle });
        obs.emit(now_rel, || Event::SessionEnd {
            role: Role::Receiver,
            outcome: Outcome::Completed,
        });
        return Some(SessionOutcome::Receiver(finish_receiver(
            machine.as_ref(),
            now_rel,
            corrupt_dropped,
        )));
    }
    if idle > sess.rt.stall_timeout.as_secs_f64() {
        obs.emit(now_rel, || Event::StallTimeout {
            role: Role::Receiver,
            waited_secs: idle,
        });
        obs.emit(now_rel, || Event::SessionEnd {
            role: Role::Receiver,
            outcome: Outcome::Stalled,
        });
        return Some(SessionOutcome::Receiver(Err(ProtocolError::Stalled {
            waited_secs: idle,
            last_progress: sess.last_event.clone(),
        })));
    }
    None
}

fn finish_receiver(
    machine: &dyn ReceiverMachine,
    now_rel: f64,
    corrupt_dropped: u64,
) -> Result<ReceiverReport, ProtocolError> {
    Ok(ReceiverReport {
        data: machine.payload()?,
        counters: *machine.counters(),
        elapsed: elapsed_of(now_rel),
        corrupt_dropped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use pm_core::config::{CompletionPolicy, NpConfig};
    use pm_core::n2::{N2Receiver, N2Sender};
    use pm_core::receiver::NpReceiver;
    use pm_core::sender::NpSender;
    use pm_core::Payload;
    use pm_net::{MemHub, Transport};
    use pm_obs::{MetricsRegistry, RingRecorder};
    use std::sync::Arc;

    fn np_config(receivers: u32) -> NpConfig {
        let mut cfg = NpConfig::small(CompletionPolicy::KnownReceivers(receivers));
        cfg.nak_slot = 0.001;
        cfg
    }

    fn rt() -> RuntimeConfig {
        RuntimeConfig {
            stall_timeout: Duration::from_secs(5),
            ..RuntimeConfig::default()
        }
    }

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 % 251) as u8).collect()
    }

    fn mux() -> Mux<pm_net::mem::MemEndpoint, VirtualClock> {
        Mux::new(MuxConfig::default(), VirtualClock::new())
    }

    /// One sender and one receiver on a fresh hub, run to the end; checks
    /// the delivered bytes and returns the sender's report.
    fn lossless_pair<S, R>(sender: S, receiver: R, data: &[u8]) -> SessionReport
    where
        S: SenderMachine + 'static,
        R: ReceiverMachine + 'static,
    {
        let hub = MemHub::new();
        let mut m = mux();
        m.add_sender(sender, hub.join(), rt());
        m.add_receiver(receiver, hub.join(), rt());
        let mut sent = None;
        for (_, outcome) in m.run() {
            match outcome {
                SessionOutcome::Receiver(Ok(rep)) => assert_eq!(rep.data, data),
                SessionOutcome::Sender(Ok(rep)) => sent = Some(rep),
                other => panic!("session failed: {other:?}"),
            }
        }
        assert!(m.is_empty());
        sent.expect("sender outcome")
    }

    #[test]
    fn np_and_n2_pairs_transfer_bytes_in_virtual_time() {
        let data = payload(3000);
        let np = lossless_pair(
            NpSender::new(1, &data, np_config(1)).unwrap(),
            NpReceiver::new(7, 1, 0.001, 42),
            &data,
        );
        assert_eq!(np.completed, vec![7]);
        assert_eq!(np.evicted, 0);
        assert!(np.counters.data_sent > 0);
        assert_eq!(np.counters.repairs_sent, 0, "lossless needs no parities");
        let n2 = lossless_pair(
            N2Sender::new(2, &data, np_config(1)).unwrap(),
            N2Receiver::new(8, 2, 0.001, 4),
            &data,
        );
        assert_eq!(n2.completed, vec![8]);
        assert_eq!(n2.counters.repairs_sent, 0, "nothing to retransmit");
    }

    #[test]
    fn many_concurrent_sessions_complete_on_one_thread() {
        let mut m = mux();
        let mut want = Vec::new();
        for i in 0..8u32 {
            let hub = MemHub::new();
            let data = payload(1200 + 97 * i as usize);
            m.add_sender(
                NpSender::new(i, &data, np_config(1)).unwrap(),
                hub.join(),
                rt(),
            );
            let r_tok = m.add_receiver(
                NpReceiver::new(100 + i, i, 0.001, i as u64),
                hub.join(),
                rt(),
            );
            want.push((r_tok, data));
        }
        let outcomes = m.run();
        assert_eq!(outcomes.len(), 16);
        for (tok, out) in &outcomes {
            assert!(out.is_ok(), "session failed: {:?}", out.err());
            if let Some(rep) = out.receiver_report() {
                let (_, data) = want.iter().find(|(t, _)| t == tok).unwrap();
                assert_eq!(&rep.data, data);
            }
        }
    }

    #[test]
    fn virtual_runs_are_deterministic() {
        let run = || {
            let hub = MemHub::new();
            let mut m = mux();
            let data = payload(2048);
            m.add_sender(
                NpSender::new(9, &data, np_config(1)).unwrap(),
                hub.join(),
                rt(),
            );
            m.add_receiver(NpReceiver::new(3, 9, 0.001, 7), hub.join(), rt());
            let outcomes = m.run();
            let clock_end = m.clock().now();
            let reports: Vec<String> = outcomes
                .iter()
                .map(|(t, o)| format!("{t:?}={o:?}"))
                .collect();
            (reports, clock_end.to_bits())
        };
        assert_eq!(run(), run(), "same inputs, same virtual schedule");
    }

    #[test]
    fn orphan_receiver_stalls_in_zero_wall_time() {
        let hub = MemHub::new();
        let mut m = mux();
        let cfg = RuntimeConfig {
            stall_timeout: Duration::from_secs(3600), // an hour, virtually
            ..RuntimeConfig::default()
        };
        m.add_receiver(NpReceiver::new(1, 1, 0.001, 0), hub.join(), cfg);
        let outcomes = m.run();
        assert_eq!(outcomes.len(), 1);
        match &outcomes[0].1 {
            SessionOutcome::Receiver(Err(ProtocolError::Stalled { waited_secs, .. })) => {
                assert!(*waited_secs > 3600.0);
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
        // The virtual clock covered the whole hour by jumping.
        assert!(m.clock().now() > 3600.0);
    }

    #[test]
    fn orphan_sender_stalls_because_keepalive_announces_are_not_progress() {
        let hub = MemHub::new();
        let mut m = mux();
        let cfg = RuntimeConfig {
            stall_timeout: Duration::from_millis(150),
            ..RuntimeConfig::default()
        };
        let sender = NpSender::new(3, &payload(500), np_config(1)).unwrap();
        m.add_sender(sender, hub.join(), cfg);
        match m.run().pop() {
            Some((
                _,
                SessionOutcome::Sender(Err(ProtocolError::Stalled { last_progress, .. })),
            )) => {
                // The sender kept re-announcing until the end, yet the last
                // thing that counted was a data-path transmission.
                assert!(
                    matches!(last_progress, Some(Event::NetSent { kind }) if kind != pm_obs::MsgKind::Announce),
                    "last progress was {last_progress:?}"
                );
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn quarantine_trips_on_relentless_corruption() {
        // Every datagram the receiver pulls is ours but damaged: after
        // `corrupt_quarantine` drops the session aborts with the typed
        // error instead of absorbing forever.
        let hub = MemHub::new();
        let feeder = hub.join();
        let mut m = mux();
        let mut cfg = rt();
        cfg.resilience.corrupt_quarantine = 5;
        m.add_receiver(NpReceiver::new(1, 1, 0.001, 5), hub.join(), cfg);
        let mut raw = Message::Fin { session: 1 }.encode().to_vec();
        let last = raw.len() - 1;
        raw[last] ^= 0xFF;
        for _ in 0..8 {
            feeder.send_raw(bytes::Bytes::from(raw.clone()));
        }
        match m.run().pop() {
            Some((
                _,
                SessionOutcome::Receiver(Err(ProtocolError::Quarantined { corrupt_dropped })),
            )) => {
                assert_eq!(corrupt_dropped, 5);
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
    }

    #[test]
    fn sender_evicts_silent_receiver_and_degrades() {
        // Two receivers announced, one alive: with an eviction deadline
        // the sender completes for the responsive one and reports the
        // straggler instead of stalling out.
        let hub = MemHub::new();
        let mut m = mux();
        let data = payload(1500);
        let mut cfg = rt();
        cfg.resilience.eviction_timeout = Some(Duration::from_millis(250));
        let s_tok = m.add_sender(
            NpSender::new(5, &data, np_config(2)).unwrap(),
            hub.join(),
            cfg,
        );
        m.add_receiver(NpReceiver::new(7, 5, 0.001, 3), hub.join(), rt());
        for (tok, out) in m.run() {
            if tok == s_tok {
                let session = out.sender_report().expect("degraded is not an error");
                assert!(session.is_degraded());
                assert_eq!(session.evicted, 1);
                assert_eq!(session.completed, vec![7]);
            } else {
                assert_eq!(out.receiver_report().expect("receiver ok").data, data);
            }
        }
    }

    /// A sender machine that transmits a poll on every drive (it never
    /// yields `WaitUntil`), ignores NAKs, and finishes once `target`
    /// distinct receivers reported `Done` — or once eviction lowered the
    /// target to the ones that did.
    struct Spinner {
        session: u32,
        target: u32,
        done: std::collections::BTreeSet<u32>,
        fin_sent: bool,
        counters: pm_core::CostCounters,
    }

    impl SenderMachine for Spinner {
        fn next_step(&mut self, _now: f64) -> SenderStep {
            if self.fin_sent {
                return SenderStep::Finished;
            }
            let session = self.session;
            if self.outstanding() == 0 {
                self.fin_sent = true;
                return SenderStep::Transmit(Message::Fin { session });
            }
            SenderStep::Transmit(Message::Poll {
                session,
                group: 0,
                sent: 1,
                round: 1,
            })
        }
        fn handle(&mut self, msg: &Message, _now: f64) -> Result<(), ProtocolError> {
            if let Message::Done { session, receiver } = *msg {
                if session == self.session {
                    self.counters.feedback_received += 1;
                    self.done.insert(receiver);
                }
            }
            Ok(())
        }
        fn is_finished(&self) -> bool {
            self.fin_sent
        }
        fn counters(&self) -> &pm_core::CostCounters {
            &self.counters
        }
        fn done_count(&self) -> usize {
            self.done.len()
        }
        fn done_ids(&self) -> Vec<u32> {
            self.done.iter().copied().collect()
        }
        fn outstanding(&self) -> u32 {
            self.target.saturating_sub(self.done.len() as u32)
        }
        fn evict_outstanding(&mut self) -> u32 {
            let evicted = self.outstanding();
            self.target -= evicted;
            evicted
        }
        fn state_bytes(&self) -> usize {
            0
        }
    }

    #[test]
    fn continuous_sender_evicts_dead_receiver_under_nak_storm() {
        // A sender that never yields `WaitUntil` needs the eviction check
        // on every drive pass; and one that ignores NAKs must not count a
        // NAK storm as liveness. One receiver reports Done, the other
        // never does: the session must end degraded, not spin forever.
        let hub = MemHub::new();
        let mut feeder = hub.join();
        let session = 77;
        let rt = RuntimeConfig {
            packet_spacing: Duration::from_micros(20),
            stall_timeout: Duration::from_secs(20),
            complete_linger: Duration::from_millis(100),
            resilience: pm_core::ResiliencePolicy {
                eviction_timeout: Some(Duration::from_millis(200)),
                ..Default::default()
            },
        };
        let mut m = mux();
        let sender = Spinner {
            session,
            target: 2,
            done: Default::default(),
            fin_sent: false,
            counters: Default::default(),
        };
        m.add_sender(sender, hub.join(), rt);
        feeder
            .send(&Message::Done {
                session,
                receiver: 1,
            })
            .unwrap();
        let nak = Message::Nak {
            session,
            group: 0,
            needed: 1,
            round: 1,
        };
        // A NAK every other turn: a turn that drains a datagram does not
        // advance the virtual clock, so the storm must leave gaps.
        let mut storm = true;
        while !m.is_empty() {
            if storm {
                feeder.send(&nak).unwrap();
            }
            storm = !storm;
            m.turn_once();
            assert!(m.clock().now() < 10.0, "sender never evicted");
        }
        match m.take_outcomes().pop() {
            Some((_, SessionOutcome::Sender(Ok(report)))) => {
                assert!(report.is_degraded());
                assert_eq!(report.evicted, 1);
                assert_eq!(report.completed, vec![1]);
            }
            other => panic!("expected degraded completion, got {other:?}"),
        }
    }

    /// A sender machine that plays a fixed script of steps and counts
    /// every message handed to it as feedback.
    struct Scripted {
        steps: std::vec::IntoIter<SenderStep>,
        finished: bool,
        counters: pm_core::CostCounters,
    }

    impl Scripted {
        fn new(steps: Vec<SenderStep>) -> Self {
            Scripted {
                steps: steps.into_iter(),
                finished: false,
                counters: Default::default(),
            }
        }
    }

    impl SenderMachine for Scripted {
        fn next_step(&mut self, _now: f64) -> SenderStep {
            let step = self.steps.next().unwrap_or(SenderStep::Finished);
            self.finished |= matches!(step, SenderStep::Finished);
            step
        }
        fn handle(&mut self, _msg: &Message, _now: f64) -> Result<(), ProtocolError> {
            self.counters.feedback_received += 1;
            Ok(())
        }
        fn is_finished(&self) -> bool {
            self.finished
        }
        fn counters(&self) -> &pm_core::CostCounters {
            &self.counters
        }
        fn done_count(&self) -> usize {
            0
        }
        fn done_ids(&self) -> Vec<u32> {
            Vec::new()
        }
        fn outstanding(&self) -> u32 {
            0
        }
        fn evict_outstanding(&mut self) -> u32 {
            0
        }
        fn state_bytes(&self) -> usize {
            0
        }
    }

    #[test]
    fn hostile_wakeup_times_delay_a_session_but_never_panic_it() {
        let hub = MemHub::new();
        let mut m = mux();
        let machine = Scripted::new(vec![
            SenderStep::WaitUntil(f64::NAN),
            SenderStep::WaitUntil(f64::INFINITY),
        ]);
        m.add_sender(machine, hub.join(), rt());
        match m.run().pop() {
            Some((_, SessionOutcome::Sender(Ok(report)))) => {
                assert_eq!(report.completed, Vec::<u32>::new());
                // NaN wakes at the floor, +inf at the ceiling — not never.
                assert!(report.elapsed <= SENDER_WAIT_CEIL + 2 * TICK);
            }
            other => panic!("hostile wakeups must not abort: {other:?}"),
        }
    }

    /// A transport whose first `fail_sends` sends fail transiently, and
    /// whose queued datagrams arrive only once a send has been attempted —
    /// i.e. during the backoff.
    struct Flaky {
        fail_sends: u32,
        sends_seen: u32,
        incoming: VecDeque<Message>,
        /// `sends_seen` at each delivery.
        delivered_at: Vec<u32>,
        /// The sends that landed, in order.
        sent: Vec<Message>,
    }

    impl Flaky {
        /// Failing the first `fail_sends` sends; `incoming` is delivered
        /// from the start.
        fn delivering(fail_sends: u32, incoming: Vec<Message>) -> Self {
            Flaky {
                fail_sends,
                sends_seen: 1,
                incoming: incoming.into(),
                delivered_at: Vec::new(),
                sent: Vec::new(),
            }
        }
    }

    impl Transport for Flaky {
        fn send(&mut self, msg: &Message) -> Result<(), NetError> {
            self.sends_seen += 1;
            if self.fail_sends > 0 {
                self.fail_sends -= 1;
                return Err(NetError::Io(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "flaky uplink",
                )));
            }
            self.sent.push(msg.clone());
            Ok(())
        }
        fn recv_timeout(&mut self, _timeout: Duration) -> Result<Option<Message>, NetError> {
            self.poll_recv()
        }
    }

    impl PollTransport for Flaky {
        fn poll_recv(&mut self) -> Result<Option<Message>, NetError> {
            if self.sends_seen == 0 {
                return Ok(None);
            }
            let msg = self.incoming.pop_front();
            if msg.is_some() {
                self.delivered_at.push(self.sends_seen);
            }
            Ok(msg)
        }
    }

    fn flaky_mux<'a>() -> Mux<&'a mut Flaky, VirtualClock> {
        Mux::new(MuxConfig::default(), VirtualClock::new())
    }

    #[test]
    fn send_backoff_keeps_receiving() {
        // Two transient send failures: the session retries to success, and
        // the datagrams that arrive during the backoff windows reach the
        // machine then — not after the send finally lands.
        let session = 9;
        let mut tp = Flaky {
            fail_sends: 2,
            sends_seen: 0,
            incoming: VecDeque::from([
                Message::Nak {
                    session,
                    group: 0,
                    needed: 2,
                    round: 1,
                },
                Message::Done {
                    session,
                    receiver: 4,
                },
            ]),
            delivered_at: Vec::new(),
            sent: Vec::new(),
        };
        let mut cfg = rt();
        cfg.resilience.retry_backoff_cap = Duration::from_millis(4);
        let mut m = flaky_mux();
        let machine = Scripted::new(vec![SenderStep::Transmit(Message::Fin { session })]);
        m.add_sender(machine, &mut tp, cfg);
        let report = match m.run().pop() {
            Some((_, SessionOutcome::Sender(Ok(report)))) => report,
            other => panic!("retries must succeed: {other:?}"),
        };
        assert_eq!(report.send_retries, 2);
        assert_eq!(report.counters.feedback_received, 2);
        assert_eq!(tp.sends_seen, 3, "two failures then success");
        assert_eq!(tp.delivered_at, [1, 1], "absorbed while parked");
    }

    #[test]
    fn lifecycle_events_and_metrics_are_maintained() {
        let rec = Arc::new(RingRecorder::new(65536));
        let reg = MetricsRegistry::new();
        let hub = MemHub::new();
        let mut m = mux().with_obs(Obs::new(rec.clone()));
        m.bind_metrics(&reg);
        let data = payload(900);
        m.add_sender(
            NpSender::new(2, &data, np_config(1)).unwrap(),
            hub.join(),
            rt(),
        );
        m.add_receiver(NpReceiver::new(5, 2, 0.001, 1), hub.join(), rt());
        let outcomes = m.run();
        assert!(outcomes.iter().all(|(_, o)| o.is_ok()));

        let metrics = m.metrics.as_ref().unwrap();
        assert_eq!(metrics.active_sessions.get(), 0, "all sessions retired");
        let drives = metrics.session_drives.snapshot();
        assert_eq!(drives.count, 2, "one fairness sample per session");
        assert!(drives.max >= 1);

        let events = rec.events();
        let added = events
            .iter()
            .filter(|(_, e)| matches!(e, Event::MuxSessionAdded { .. }))
            .count();
        let ended: Vec<_> = events
            .iter()
            .filter_map(|(_, e)| match e {
                Event::MuxSessionEnded { drives, .. } => Some(*drives),
                _ => None,
            })
            .collect();
        assert_eq!(added, 2);
        assert_eq!(ended.len(), 2);
        assert!(ended.iter().all(|&d| d >= 1), "every session was driven");
        assert!(
            events
                .iter()
                .any(|(_, e)| matches!(e, Event::SessionEnd { .. })),
            "driver lifecycle events flow through the mux obs"
        );
    }

    #[test]
    fn stale_timers_are_lazily_cancelled() {
        // A session that ends leaves entries in the wheel; they must fire
        // into the void, not into a recycled slot.
        let hub = MemHub::new();
        let mut m = mux();
        let data = payload(500);
        m.add_sender(
            NpSender::new(4, &data, np_config(1)).unwrap(),
            hub.join(),
            rt(),
        );
        m.add_receiver(NpReceiver::new(8, 4, 0.001, 3), hub.join(), rt());
        let first = m.run();
        assert!(first.iter().all(|(_, o)| o.is_ok()));

        // Immediately reuse the mux (and its retired slots) for a second
        // wave; stale generations from wave one must not disturb it.
        let hub2 = MemHub::new();
        let data2 = payload(700);
        m.add_sender(
            NpSender::new(6, &data2, np_config(1)).unwrap(),
            hub2.join(),
            rt(),
        );
        m.add_receiver(NpReceiver::new(9, 6, 0.001, 4), hub2.join(), rt());
        let second = m.run();
        assert_eq!(second.len(), 2);
        for (_, out) in &second {
            assert!(out.is_ok(), "wave two failed: {:?}", out.err());
            if let Some(rep) = out.receiver_report() {
                assert_eq!(rep.data, data2);
            }
        }
    }

    // ------------------------------------------------- drive on change

    /// Drive passes a live session has consumed so far.
    fn drives_of<T: PollTransport>(m: &Mux<T, VirtualClock>, token: Token) -> u64 {
        live(m, token).drives
    }

    fn live<T: PollTransport>(m: &Mux<T, VirtualClock>, token: Token) -> &SessionState {
        m.sessions[token.slot()].as_ref().expect("live session")
    }

    /// Round one of a two-group NP transfer, as the sender would emit it:
    /// `A d d d d P(0) A d d d d P(1)`.
    fn two_group_schedule(session: u32) -> Vec<Message> {
        let mut cfg = np_config(1);
        cfg.k = 4;
        cfg.payload_len = 64;
        let mut tx = NpSender::new(session, &payload(8 * 64), cfg).unwrap();
        let mut out = Vec::new();
        while let SenderStep::Transmit(m) = tx.next_step(0.0) {
            out.push(m);
        }
        assert_eq!(out.len(), 12);
        out
    }

    /// An NP receiver that has heard the announce, alone in its mux, one
    /// turn in: the registration drive is behind it and its Wake sits a
    /// full `RECEIVER_WAIT_CEIL` ahead.
    fn settled_receiver(
        session: u32,
    ) -> (
        Mux<pm_net::mem::MemEndpoint, VirtualClock>,
        pm_net::mem::MemEndpoint,
        Token,
        Vec<Message>,
    ) {
        let hub = MemHub::new();
        let mut feeder = hub.join();
        let mut m = mux();
        let tok = m.add_receiver(NpReceiver::new(1, session, 0.001, 3), hub.join(), rt());
        let schedule = two_group_schedule(session);
        feeder.send(&schedule[0]).unwrap();
        m.turn_once();
        assert_eq!(drives_of(&m, tok), 1, "the registration drive");
        (m, feeder, tok, schedule)
    }

    #[test]
    fn datagrams_that_change_nothing_cost_no_drive_and_no_wheel_entry() {
        let session = 5;
        let (mut m, mut feeder, tok, schedule) = settled_receiver(session);
        // Group 0 and its poll: decoded, nothing to NAK, nothing to send.
        for msg in &schedule[1..6] {
            feeder.send(msg).unwrap();
        }
        m.turn_once();
        let noise = [
            Message::Done {
                session,
                receiver: 99,
            },
            Message::Nak {
                session,
                group: 0,
                needed: 2,
                round: 1,
            },
            schedule[2].clone(), // data of the decoded group
            schedule[5].clone(), // its poll, again
        ];
        for _ in 0..3 {
            for i in 0..30 {
                feeder.send(&noise[i % noise.len()]).unwrap();
            }
            m.turn_once();
        }
        assert_eq!(drives_of(&m, tok), 1, "96 datagrams, none changed a thing");
        assert!(m.wheel_depth() <= 2, "depth {}", m.wheel_depth());
        assert_eq!(m.clock().now(), 0.0, "busy turns do not move the clock");
    }

    #[test]
    fn each_schedule_change_still_drives_the_receiver_in_the_same_turn() {
        let session = 6;

        // Something to send: the last data packet completes the transfer
        // and its `Done` leaves in the turn that delivered the packet.
        let (mut m, mut feeder, tok, schedule) = settled_receiver(session);
        for msg in &schedule[1..11] {
            feeder.send(msg).unwrap();
        }
        m.turn_once();
        assert_eq!(drives_of(&m, tok), 2);
        let done = Message::Done {
            session,
            receiver: 1,
        };
        assert_eq!(feeder.poll_recv().unwrap(), Some(done));

        // FIN: the session ends in the turn that delivered it.
        feeder.send(&Message::Fin { session }).unwrap();
        m.turn_once();
        let outcomes = m.take_outcomes();
        assert!(matches!(
            outcomes.as_slice(),
            [(t, SessionOutcome::Receiver(Ok(_)))] if *t == tok
        ));

        // A NAK due before the live Wake: 3 of 4 packets, then the poll —
        // the deadline lands inside 4 slots (4 ms), the Wake sat at 20 ms.
        let (mut m, mut feeder, tok, schedule) = settled_receiver(session);
        let ceiling = live(&m, tok).wake_at;
        for msg in schedule[1..4].iter().chain(&schedule[5..6]) {
            feeder.send(msg).unwrap();
        }
        m.turn_once();
        assert_eq!(drives_of(&m, tok), 2);
        let armed = live(&m, tok).wake_at;
        assert!(armed < ceiling, "Wake moved up: {armed} vs {ceiling}");
        // ...and the NAK goes out in exactly that tick.
        while feeder.poll_recv().unwrap().is_none() {
            m.turn_once();
        }
        assert_eq!(m.wheel.now(), armed);

        // A parked retry: the failed `Done` owns the session until the
        // Retry timer lands it, and that turn drives the receiver on (the
        // Wake a parked session lacks is armed again).
        let mut tp = Flaky::delivering(1, two_group_schedule(session));
        let mut m = flaky_mux();
        let tok = m.add_receiver(NpReceiver::new(1, session, 0.001, 3), &mut tp, rt());
        m.turn_once();
        assert!(live(&m, tok).pending.is_some(), "Done parked");
        let parked_drives = drives_of(&m, tok);
        while live(&m, tok).pending.is_some() {
            m.turn_once();
        }
        assert_eq!(drives_of(&m, tok), parked_drives + 1);
        assert!(live(&m, tok).wake_at > m.wheel.now(), "Wake re-armed");
        drop(m);
        assert_eq!(tp.sends_seen, 3, "one failure, then the Done went out");
    }

    /// A receiver machine with one scripted NAK: any `Poll` schedules it
    /// for `nak_at`, and `on_timer` sends it, then `after`, once that time
    /// has come.
    struct OneNak {
        nak_at: f64,
        pending: bool,
        after: Vec<Message>,
        counters: pm_core::CostCounters,
    }

    impl OneNak {
        fn new(nak_at: f64, after: Vec<Message>) -> Self {
            OneNak {
                nak_at,
                pending: false,
                after,
                counters: Default::default(),
            }
        }
    }

    const ONE_NAK: Message = Message::Nak {
        session: 1,
        group: 0,
        needed: 1,
        round: 1,
    };

    const ONE_POLL: Message = Message::Poll {
        session: 1,
        group: 0,
        sent: 4,
        round: 1,
    };

    impl ReceiverMachine for OneNak {
        fn handle(
            &mut self,
            msg: &Message,
            _now: f64,
        ) -> Result<Vec<ReceiverAction>, ProtocolError> {
            self.pending |= matches!(msg, Message::Poll { .. });
            Ok(Vec::new())
        }
        fn on_timer(&mut self, now: f64) -> Vec<ReceiverAction> {
            if !self.pending || now < self.nak_at {
                return Vec::new();
            }
            self.pending = false;
            std::iter::once(ONE_NAK)
                .chain(self.after.drain(..))
                .map(ReceiverAction::Send)
                .collect()
        }
        fn next_deadline(&self) -> Option<f64> {
            self.pending.then_some(self.nak_at)
        }
        fn is_complete(&self) -> bool {
            false
        }
        fn fin_seen(&self) -> bool {
            false
        }
        fn take_data(&self) -> Result<Vec<u8>, ProtocolError> {
            self.payload().map(|p| p.to_vec())
        }
        fn payload(&self) -> Result<Payload, ProtocolError> {
            Ok(Payload::new(Vec::new(), 0))
        }
        fn counters(&self) -> &pm_core::CostCounters {
            &self.counters
        }
    }

    #[test]
    fn a_nak_due_on_the_armed_tick_is_sent_in_that_tick_without_a_drive() {
        let hub = MemHub::new();
        let mut feeder = hub.join();
        let mut m = mux();
        let nak_at = RECEIVER_WAIT_CEIL.as_secs_f64();
        let tok = m.add_receiver(OneNak::new(nak_at, Vec::new()), hub.join(), rt());
        m.turn_once();
        let armed = live(&m, tok).wake_at;
        assert_eq!(
            armed as f64 * TICK_SECS,
            nak_at,
            "Wake sits on the deadline"
        );
        feeder.send(&ONE_POLL).unwrap();
        m.turn_once();
        assert_eq!(drives_of(&m, tok), 1, "not earlier than the Wake: no drive");
        assert_eq!(live(&m, tok).wake_at, armed);
        while feeder.poll_recv().unwrap().is_none() {
            m.turn_once();
        }
        assert_eq!(
            m.wheel.now(),
            armed,
            "sent by the Wake that was already armed"
        );
        assert_eq!(drives_of(&m, tok), 2);
    }

    // ------------------------------------------------- transient send failures

    #[test]
    fn a_parked_nak_goes_out_before_the_done_queued_behind_it() {
        let done = Message::Done {
            session: 1,
            receiver: 1,
        };
        let mut tp = Flaky::delivering(1, vec![ONE_POLL]);
        let mut m = flaky_mux();
        let tok = m.add_receiver(OneNak::new(0.002, vec![done.clone()]), &mut tp, rt());
        while live(&m, tok).pending.is_none() {
            m.turn_once();
        }
        assert_eq!(live(&m, tok).outbound.front(), Some(&done), "queued behind");
        while live(&m, tok).pending.is_some() {
            m.turn_once();
        }
        assert!(
            live(&m, tok).outbound.is_empty(),
            "flushed in the same turn"
        );
        assert_eq!(live(&m, tok).res.send_retries(), 1);
        drop(m);
        assert_eq!(tp.sent, [ONE_NAK, done]);
        assert_eq!(tp.sends_seen, 1 + 3, "one failure, then both landed");
    }

    #[test]
    fn exhausted_retries_end_either_side_with_the_io_error() {
        let attempts = 1 + rt().resilience.send_retries;
        let mut tp = Flaky::delivering(u32::MAX, Vec::new());
        let mut m = flaky_mux();
        let fin = SenderStep::Transmit(Message::Fin { session: 1 });
        m.add_sender(Scripted::new(vec![fin]), &mut tp, rt());
        let outcome = m.run().pop();
        assert!(
            matches!(
                outcome,
                Some((
                    _,
                    SessionOutcome::Sender(Err(ProtocolError::Net(NetError::Io(_))))
                ))
            ),
            "{outcome:?}"
        );
        drop(m);
        assert_eq!(tp.sends_seen, 1 + attempts);

        let mut tp = Flaky::delivering(u32::MAX, vec![ONE_POLL]);
        let mut m = flaky_mux();
        m.add_receiver(OneNak::new(0.002, Vec::new()), &mut tp, rt());
        let outcome = m.run().pop();
        assert!(
            matches!(
                outcome,
                Some((
                    _,
                    SessionOutcome::Receiver(Err(ProtocolError::Net(NetError::Io(_))))
                ))
            ),
            "{outcome:?}"
        );
        drop(m);
        assert_eq!(tp.sends_seen, 1 + attempts);
        assert!(tp.sent.is_empty());
    }

    #[test]
    fn a_keepalive_that_lands_on_a_retry_is_still_not_progress() {
        // An orphan sender whose only transmission is an announce: the
        // first attempt fails, the retry lands, and the session must still
        // stall with nothing counted as progress.
        let announce = pm_core::SessionPlan::new(1, 0, 1, 0, 16)
            .unwrap()
            .announce();
        let mut steps = vec![SenderStep::Transmit(announce)];
        steps.extend((0..8).map(|_| SenderStep::WaitUntil(f64::INFINITY)));
        let cfg = RuntimeConfig {
            stall_timeout: Duration::from_millis(150),
            ..RuntimeConfig::default()
        };
        let mut tp = Flaky::delivering(1, Vec::new());
        let mut m = flaky_mux();
        m.add_sender(Scripted::new(steps), &mut tp, cfg);
        match m.run().pop() {
            Some((
                _,
                SessionOutcome::Sender(Err(ProtocolError::Stalled { last_progress, .. })),
            )) => assert!(last_progress.is_none(), "{last_progress:?}"),
            other => panic!("expected Stalled, got {other:?}"),
        }
        drop(m);
        assert_eq!(tp.sends_seen, 1 + 2, "one failure, then the retry landed");
        assert_eq!(tp.sent.len(), 1);
    }

    /// The tick arithmetic as it was, over `Duration` and `u128`.
    mod oracle {
        use std::time::Duration;

        use pm_core::runtime::clamp_wait;

        use super::super::RECEIVER_WAIT_CEIL;

        pub fn ticks_for(tick: Duration, delay: Duration) -> u64 {
            let t = tick.as_nanos().max(1);
            let ticks = delay.as_nanos().div_ceil(t).max(1);
            u64::try_from(ticks).unwrap_or(u64::MAX)
        }

        pub fn receiver_wake_tick(
            wheel_now: u64,
            deadline: Option<f64>,
            now_rel: f64,
            tick: Duration,
        ) -> u64 {
            let wait = match deadline {
                Some(d) => clamp_wait(d - now_rel, tick, RECEIVER_WAIT_CEIL),
                None => RECEIVER_WAIT_CEIL,
            };
            wheel_now.saturating_add(ticks_for(tick, wait))
        }
    }

    /// Any `f64` bit pattern (NaN, both infinities, negatives, subnormals,
    /// huge values) as often as an ordinary delay of up to a second.
    fn any_secs() -> impl proptest::strategy::Strategy<Value = f64> {
        use proptest::prelude::*;
        prop_oneof![any::<u64>().prop_map(f64::from_bits), 0.0..1.0f64]
    }

    proptest::proptest! {
        #[test]
        fn u64_ticks_agree_with_the_duration_oracle(
            delay_secs in proptest::prop_oneof![0u64..4, proptest::prelude::any::<u64>()],
            delay_nanos in 0u32..1_000_000_000,
            delta in any_secs(),
            now_rel in any_secs(),
            wheel_now in proptest::prelude::any::<u64>(),
            has_deadline in proptest::prelude::any::<bool>(),
        ) {
            use pm_core::runtime::clamp_wait;
            use proptest::prop_assert_eq;
            let delay = Duration::new(delay_secs, delay_nanos);
            prop_assert_eq!(ticks_for(delay), oracle::ticks_for(TICK, delay));
            for ceil in [SENDER_WAIT_CEIL, RECEIVER_WAIT_CEIL] {
                let want = oracle::ticks_for(TICK, clamp_wait(delta, TICK, ceil));
                prop_assert_eq!(wait_ticks(delta, ceil), want);
            }
            let deadline = has_deadline.then_some(delta);
            prop_assert_eq!(
                receiver_wake_tick(wheel_now, deadline, now_rel),
                oracle::receiver_wake_tick(wheel_now, deadline, now_rel, TICK)
            );
        }
    }
}
