//! The ready-set sweep: a `PollSet` polls only the tokens that may yield.
//!
//! * A fan-out farm of `mem_fanout_r64`'s shape (NP k = 7, R = 64,
//!   p = 0.01, 4 sessions × 32 groups) on the virtual clock: almost every
//!   endpoint poll delivers a datagram, and the mux takes exactly the
//!   turns the every-endpoint sweep took.
//! * A publish wakes a parked token, from another thread too, and a wake
//!   that lands during the poll that parks is kept.
//! * Parking leaves one waker per idle endpoint however often it is
//!   polled, and a departing endpoint wakes the parked ones, so that a
//!   parked token sees its own endpoint `Closed`.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use parity_multicast::mux::{Mux, MuxConfig, SessionOutcome, VirtualClock};
use parity_multicast::net::mem::MemEndpoint;
use parity_multicast::net::{
    poll, FarmHub, FarmRole, FaultConfig, FaultyTransport, MemHub, Message, NetError, PollSet,
    PollTransport, Transport,
};
use parity_multicast::protocol::runtime::RuntimeConfig;
use parity_multicast::protocol::{CompletionPolicy, NpConfig, NpReceiver, NpSender};

/// Endpoint polls and the empty ones among them, over a whole farm.
#[derive(Default)]
struct Polls {
    calls: AtomicU64,
    empty: AtomicU64,
}

/// A pass-through wrapper that counts its inner endpoint's polls.
struct Counting<T> {
    inner: T,
    polls: Arc<Polls>,
}

impl<T: PollTransport> Transport for Counting<T> {
    fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        self.inner.send(msg)
    }
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, NetError> {
        poll::wait_recv(self, timeout)
    }
}

impl<T: PollTransport> PollTransport for Counting<T> {
    fn poll_recv(&mut self) -> Result<Option<Message>, NetError> {
        let got = self.inner.poll_recv();
        self.polls.calls.fetch_add(1, Ordering::Relaxed);
        if matches!(got, Ok(None)) {
            self.polls.empty.fetch_add(1, Ordering::Relaxed);
        }
        got
    }
}

const SESSIONS: u32 = 4;
const RECEIVERS: u32 = 64;
const GROUPS: usize = 32;
const K: usize = 7;
const PACKET: usize = 1024;

/// Turns the fan-out farm below takes. The sweep that polled every live
/// endpoint took exactly these; a ready-set sweep skips only polls that
/// would have found nothing, so it must take the same.
const FANOUT_TURNS: u64 = 1_994;

fn fanout_cfg(session: u32) -> NpConfig {
    NpConfig {
        k: K,
        h: 248,
        proactive_parity: 0,
        adaptive_parity: false,
        payload_len: PACKET,
        nak_slot: 0.002,
        round_timeout: 0.200,
        preencode: false,
        completion: CompletionPolicy::KnownReceivers(RECEIVERS),
        announce_interval: 0.050,
        seed: 0x5eed_0000 + u64::from(session),
    }
}

#[test]
fn a_fanout_farm_polls_almost_only_endpoints_with_something_to_read() {
    let polls = Arc::new(Polls::default());
    let rt = RuntimeConfig {
        packet_spacing: Duration::from_micros(50),
        stall_timeout: Duration::from_secs(30),
        complete_linger: Duration::from_millis(50),
        ..RuntimeConfig::default()
    };
    let wrap = |ep: MemEndpoint, cfg: FaultConfig, seed: u64| {
        let counted = Counting {
            inner: ep,
            polls: polls.clone(),
        };
        FaultyTransport::new(counted, cfg, seed)
    };
    let mut mux = Mux::new(MuxConfig::default(), VirtualClock::new());
    let mut hubs = Vec::new();
    let data = common::payload(GROUPS * K * PACKET);
    for session in 1..=SESSIONS {
        let hub = MemHub::new();
        let sender = NpSender::new(session, &data, fanout_cfg(session)).expect("valid config");
        let seed = u64::from(session) << 32;
        mux.add_sender(sender, wrap(hub.join(), FaultConfig::none(), seed), rt);
        for r in 0..RECEIVERS {
            let machine = NpReceiver::new(r + 1, session, 0.002, seed | u64::from(r));
            let ep = wrap(
                hub.join(),
                FaultConfig::drop_only(0.01),
                seed | 0x100 | u64::from(r),
            );
            mux.add_receiver(machine, ep, rt);
        }
        hubs.push(hub);
    }
    let mut turns = 0u64;
    while !mux.is_empty() {
        mux.turn_once();
        turns += 1;
    }
    for (_, outcome) in mux.take_outcomes() {
        match outcome {
            SessionOutcome::Sender(Ok(report)) => {
                assert_eq!(report.completed.len(), RECEIVERS as usize);
            }
            SessionOutcome::Receiver(Ok(report)) => assert!(report.data == data),
            other => panic!("a session failed: {other:?}"),
        }
    }
    let calls = polls.calls.load(Ordering::Relaxed);
    let empty = polls.empty.load(Ordering::Relaxed);
    let delivered = calls - empty;
    let per_packet = empty as f64 / delivered as f64;
    eprintln!("turns {turns}, polls {calls}, empty {empty} ({per_packet:.4} per delivered)");
    assert!(
        per_packet <= 0.05,
        "{empty} empty polls for {delivered} delivered datagrams"
    );
    assert_eq!(turns, FANOUT_TURNS, "the sweep changed the schedule");
    assert!(hubs.iter().all(|hub| hub.retained() == 0));
}

/// Sweep `set` once with a generous budget; how many datagrams it got.
fn sweep<T: PollTransport>(set: &mut PollSet<T>) -> usize {
    let mut sink = Vec::new();
    let got = set.poll_ready(32, &mut sink);
    assert!(sink.iter().all(|(_, r)| r.is_ok()));
    got
}

#[test]
fn a_publish_from_another_thread_wakes_a_parked_token() {
    let hub = MemHub::new();
    let mut set = PollSet::new();
    set.register(hub.join());
    assert_eq!(sweep(&mut set), 0);
    assert_eq!(hub.parked(), 1, "the empty poll parked");
    assert_eq!(sweep(&mut set), 0, "and is not polled again");
    let mut tx = hub.join();
    // A second thread because the wake under test crosses threads: a
    // publish on the mux's own thread never reaches a parked waker late.
    std::thread::spawn(move || tx.send(&Message::Fin { session: 1 }).unwrap())
        .join()
        .unwrap();
    assert_eq!(sweep(&mut set), 1, "the other thread's publish woke it");
    assert_eq!(hub.parked(), 1);
}

#[test]
fn a_token_parking_while_another_thread_publishes_loses_no_wake_up() {
    const N: u64 = 20_000;
    let hub = MemHub::new();
    let mut set = PollSet::new();
    let token = set.register(hub.join());
    assert_eq!(sweep(&mut set), 0);
    let mut tx = hub.join();
    let sent = Arc::new(AtomicU64::new(0));
    let publisher = {
        let sent = sent.clone();
        // A second thread because the race under test needs a publish that
        // lands while the token parks, which one thread cannot interleave.
        std::thread::spawn(move || {
            for i in 0..N {
                tx.send(&Message::Fin { session: i as u32 }).unwrap();
                sent.store(i + 1, Ordering::Release);
                for _ in 0..i % 64 {
                    std::hint::spin_loop();
                }
            }
        })
    };
    let mut got = 0;
    let mut round = 0u64;
    while got < N {
        round += 1;
        if round.is_multiple_of(2) {
            // Ready the token as a send would: a poll at the tail where
            // it parked before takes the lock-free path, racing the
            // publisher.
            set.get_mut(token).unwrap();
            got += sweep(&mut set) as u64;
            continue;
        }
        // A datagram whose send had returned before this sweep began
        // has woken the token: a sweep that then finds nothing while one
        // is unread has lost that wake-up. (A datagram may also be read
        // before its send is counted.)
        let published = sent.load(Ordering::Acquire);
        let swept = sweep(&mut set) as u64;
        assert!(
            swept > 0 || published <= got,
            "lost wake-up: {} sent, {got} read, token parked",
            published
        );
        got += swept;
    }
    publisher.join().unwrap();
    assert_eq!(got, N);
    assert_eq!(sweep(&mut set), 0);
    assert_eq!(hub.retained(), 0);
}

/// Parks on its inner endpoint, then has `feeder` publish before the poll
/// returns: the wake lands after the sweep took the word's wakes and
/// before the set parks the slot.
struct PublishDuringPoll {
    inner: MemEndpoint,
    feeder: MemEndpoint,
    armed: bool,
}

impl Transport for PublishDuringPoll {
    fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        self.inner.send(msg)
    }
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, NetError> {
        poll::wait_recv(self, timeout)
    }
}

impl PollTransport for PublishDuringPoll {
    fn poll_recv(&mut self) -> Result<Option<Message>, NetError> {
        let got = self.inner.poll_recv();
        if std::mem::take(&mut self.armed) {
            self.feeder.send(&Message::Fin { session: 7 })?;
        }
        got
    }
}

#[test]
fn a_wake_during_the_poll_that_parks_is_kept() {
    let hub = MemHub::new();
    let mut set = PollSet::new();
    let token = set.register(PublishDuringPoll {
        inner: hub.join(),
        feeder: hub.join(),
        armed: false,
    });
    assert_eq!(sweep(&mut set), 0, "parked, nothing published");
    assert_eq!(sweep(&mut set), 0);
    set.get_mut(token).unwrap().armed = true;
    assert_eq!(sweep(&mut set), 0, "this poll parked before the publish");
    assert_eq!(sweep(&mut set), 1, "the publish during it woke the token");
    assert_eq!(sweep(&mut set), 0);
}

/// Holds one message back from each poll that yields, as a reordering
/// decorator might, and says so with `keep_ready` when `keep` is set.
struct HoldOne {
    inner: MemEndpoint,
    held: Option<Message>,
    keep: bool,
}

impl Transport for HoldOne {
    fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        self.inner.send(msg)
    }
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, NetError> {
        poll::wait_recv(self, timeout)
    }
}

impl PollTransport for HoldOne {
    fn poll_recv(&mut self) -> Result<Option<Message>, NetError> {
        let got = match self.inner.poll_recv()? {
            Some(msg) => self.held.replace(msg),
            None => self.held.take(),
        };
        if self.keep && self.held.is_some() {
            poll::keep_ready();
        }
        Ok(got)
    }
}

#[test]
fn a_wrapper_holding_data_stays_ready_only_through_keep_ready() {
    for keep in [true, false] {
        let hub = MemHub::new();
        let mut tx = hub.join();
        let mut set = PollSet::new();
        set.register(HoldOne {
            inner: hub.join(),
            held: None,
            keep,
        });
        tx.send(&Message::Fin { session: 1 }).unwrap();
        // The one poll reads the log's last entry and parks, with it held.
        assert_eq!(sweep(&mut set), 0);
        let later = sweep(&mut set);
        assert_eq!(later, usize::from(keep), "keep_ready = {keep}");
    }
}

#[test]
fn an_idle_endpoint_holds_one_waker_and_a_dropped_one_none_after_a_publish() {
    let hub = MemHub::new();
    let (mut tx, mut rx) = (hub.join(), hub.join());
    let mut set = PollSet::new();
    let token = set.register(hub.join());
    for i in 0..10_000u32 {
        // `get_mut`, the mux's send path, readies the token, so every
        // sweep polls it again; now and then it sends, and its own
        // publish takes its waker.
        let ep = set.get_mut(token).unwrap();
        if i % 1_000 == 0 {
            ep.send(&Message::Fin { session: i }).unwrap();
        }
        assert_eq!(sweep(&mut set), 0);
        assert!(
            hub.parked() <= 1,
            "{} wakers for one endpoint",
            hub.parked()
        );
    }
    assert_eq!(hub.parked(), 1);
    for ep in [&mut tx, &mut rx] {
        assert_eq!(std::iter::from_fn(|| ep.poll_recv().unwrap()).count(), 10);
    }
    drop(set.deregister(token));
    assert_eq!(hub.parked(), 0, "the endpoint's leave woke its waker");
    tx.send(&Message::Fin { session: 1 }).unwrap();
    assert_eq!(hub.parked(), 0);
    assert_eq!(rx.poll_recv().unwrap(), Some(Message::Fin { session: 1 }));
    assert_eq!(hub.retained(), 0);
}

/// A hub endpoint that a `PollSet` polls through one handle and another
/// handle makes leave, as a session's owner might.
struct Handle(Arc<Mutex<MemEndpoint>>);

impl Transport for Handle {
    fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        self.0.lock().unwrap().send(msg)
    }
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, NetError> {
        poll::wait_recv(self, timeout)
    }
}

impl PollTransport for Handle {
    fn poll_recv(&mut self) -> Result<Option<Message>, NetError> {
        self.0.lock().unwrap().poll_recv()
    }
}

#[test]
fn a_parked_endpoint_that_leaves_is_polled_and_reads_closed() {
    let hub = MemHub::new();
    let ep = Arc::new(Mutex::new(hub.join()));
    let mut set = PollSet::new();
    let token = set.register(Handle(ep.clone()));
    assert_eq!(sweep(&mut set), 0);
    assert_eq!(hub.parked(), 1, "parked at the tail");
    ep.lock().unwrap().leave();
    assert_eq!(hub.parked(), 0, "the leave woke it");
    let mut sink = Vec::new();
    assert_eq!(set.poll_ready(1, &mut sink), 1);
    assert!(
        matches!(sink[..], [(t, Err(NetError::Closed))] if t == token),
        "{sink:?}"
    );
}

/// Socket-fed endpoints never park, so a sweep polls them every time; a
/// hub endpoint polled outside a `PollSet` leaves no waker.
#[test]
fn only_a_hub_endpoint_polled_by_a_poll_set_parks() {
    let polls = Arc::new(Polls::default());
    let farm = FarmHub::loopback().expect("loopback farm socket");
    let hub = MemHub::new();
    let mut set = PollSet::new();
    let mut mem = PollSet::new();
    set.register(Counting {
        inner: farm.endpoint(1, FarmRole::Receiver).unwrap(),
        polls: polls.clone(),
    });
    mem.register(Counting {
        inner: hub.join(),
        polls: polls.clone(),
    });
    for _ in 0..10 {
        assert_eq!(sweep(&mut set), 0);
    }
    assert_eq!(polls.calls.load(Ordering::Relaxed), 10, "the farm endpoint");
    for _ in 0..10 {
        assert_eq!(sweep(&mut mem), 0);
    }
    assert_eq!(
        polls.calls.load(Ordering::Relaxed),
        11,
        "one hub poll, parked"
    );
    let mut direct = hub.join();
    for _ in 0..100 {
        assert_eq!(direct.poll_recv().unwrap(), None);
    }
    assert_eq!(hub.parked(), 1, "only the swept endpoint's waker");
}
