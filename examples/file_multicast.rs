//! Reliable file transfer over **real UDP multicast** with protocol NP.
//!
//! One thread plays the sender and any number of receivers on the same
//! multicast group (239.255.42.99:47999 by default), with optional
//! receive-side fault injection so the parity-repair path actually runs.
//! Falls back to the in-memory hub when the host has no multicast support.
//!
//! ```sh
//! # generate-and-send 1 MiB to 4 receivers with 15% injected loss
//! cargo run --example file_multicast -- --size 1048576 --receivers 4 --drop 0.15
//! # or transfer a real file
//! cargo run --example file_multicast -- --file /path/to/file --receivers 2
//! # with a JSONL event trace and a metrics dump
//! cargo run --example file_multicast -- --trace transfer.jsonl --metrics
//! # hostile-network drill: byte-level chaos at every receiver
//! cargo run --example file_multicast -- --chaos heavy --receivers 3
//! # farm mode: 32 concurrent sessions on ONE driver thread (pm-mux)
//! cargo run --example file_multicast -- --sessions 32 --size 65536
//! # real-UDP farm: every session shares ONE socket, demuxed by session id
//! cargo run --example file_multicast -- --sessions 256 --udp-farm --size 8192
//! # watch it live: Prometheus-text metrics on http://127.0.0.1:9898/metrics
//! cargo run --example file_multicast -- --sessions 16 --export 127.0.0.1:9898
//! ```

use std::net::{Ipv4Addr, SocketAddrV4};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parity_multicast::mux::{drive_session, Mux, MuxClock, MuxConfig, SessionOutcome, WallClock};
use parity_multicast::net::udp::UdpHub;
use parity_multicast::net::{
    ChaosPreset, FarmHub, FarmRole, FaultConfig, FaultyTransport, MemHub, PollTransport,
};
use parity_multicast::obs::{
    render_prometheus, Counter, Event, ExportServer, JsonlRecorder, MetricsRegistry, Obs, Recorder,
    SnapshotFile, WindowConfig, WindowTelemetry,
};
use parity_multicast::protocol::runtime::RuntimeConfig;
use parity_multicast::protocol::{
    CompletionPolicy, NpConfig, NpReceiver, NpSender, ResiliencePolicy,
};

struct Args {
    size: usize,
    file: Option<String>,
    receivers: u32,
    drop: f64,
    k: usize,
    port: u16,
    adaptive: bool,
    trace: Option<String>,
    metrics: bool,
    chaos: Option<ChaosPreset>,
    sessions: u32,
    udp_farm: bool,
    export: Option<String>,
    export_file: Option<String>,
    export_hold: f64,
}

fn parse_args() -> Args {
    let mut args = Args {
        size: 262_144,
        file: None,
        receivers: 3,
        drop: 0.10,
        k: 20,
        port: 47999,
        adaptive: false,
        trace: None,
        metrics: false,
        chaos: None,
        sessions: 1,
        udp_farm: false,
        export: None,
        export_file: None,
        export_hold: 0.0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--size" => args.size = val().parse().expect("--size takes bytes"),
            "--file" => args.file = Some(val()),
            "--receivers" => args.receivers = val().parse().expect("--receivers takes a count"),
            "--drop" => args.drop = val().parse().expect("--drop takes a probability"),
            "--k" => args.k = val().parse().expect("--k takes a group size"),
            "--port" => args.port = val().parse().expect("--port takes a port"),
            "--adaptive" => args.adaptive = true,
            "--trace" => args.trace = Some(val()),
            "--metrics" => args.metrics = true,
            "--chaos" => {
                let preset = val();
                args.chaos =
                    Some(ChaosPreset::parse(&preset).unwrap_or_else(|| {
                        panic!("--chaos takes light|heavy|blackout, got {preset}")
                    }));
            }
            "--sessions" => args.sessions = val().parse().expect("--sessions takes a count"),
            "--udp-farm" => args.udp_farm = true,
            "--export" => args.export = Some(val()),
            "--export-file" => args.export_file = Some(val()),
            "--export-hold" => {
                args.export_hold = val().parse().expect("--export-hold takes seconds");
            }
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

/// Farm mode (`--sessions N`): N independent sender/receiver sessions,
/// every one driven by a single event-driven multiplexer (`pm-mux`) on the
/// calling thread — no per-session threads, all waiting pooled in one
/// timer wheel. Each session gets its own in-memory group; the drop/chaos
/// profile wraps each receiver's endpoint so the repair path runs.
fn run_farm(
    args: &Args,
    data: &[u8],
    obs: &Obs,
    registry: &MetricsRegistry,
    telemetry: Option<&Arc<WindowTelemetry>>,
) {
    println!(
        "farm mode: {} sessions ({} endpoints) on one driver thread",
        args.sessions,
        2 * args.sessions
    );
    // `--udp-farm`: every endpoint shares ONE real non-blocking UDP
    // socket; the hub demultiplexes arriving datagrams by the wire
    // session id (and direction), counting strays instead of crashing.
    let farm = args.udp_farm.then(|| {
        let hub = FarmHub::loopback()
            .expect("udp farm socket")
            .with_obs(obs.clone());
        match hub.local_addr() {
            Ok(addr) => println!("udp farm: shared socket at {addr}"),
            Err(_) => println!("udp farm: shared socket"),
        }
        hub
    });
    let fault = match args.chaos {
        Some(preset) => Some(preset.fault_config()),
        None if args.drop > 0.0 => Some(FaultConfig::drop_only(args.drop)),
        None => None,
    };
    let mut cfg = NpConfig::small(CompletionPolicy::KnownReceivers(1));
    cfg.k = args.k;
    cfg.h = 255 - args.k;
    cfg.payload_len = 1024;
    cfg.nak_slot = 0.002;
    cfg.round_timeout = 0.2;
    cfg.adaptive_parity = args.adaptive;
    let rt = RuntimeConfig {
        packet_spacing: Duration::from_micros(100),
        stall_timeout: Duration::from_secs(15),
        complete_linger: Duration::from_millis(300),
        resilience: ResiliencePolicy {
            eviction_timeout: args.chaos.map(|_| Duration::from_secs(2)),
            ..ResiliencePolicy::default()
        },
    };

    let mut mux: Mux<Box<dyn PollTransport>, WallClock> =
        Mux::new(MuxConfig::default(), WallClock::new()).with_obs(obs.clone());
    mux.bind_metrics(registry);
    if let Some(tel) = telemetry {
        mux.bind_telemetry(tel.clone());
    }
    let loss = fault.map_or(0.0, |f| f.drop);
    for i in 0..args.sessions {
        let session = 0xF000 + i;
        obs.emit(0.0, || Event::SessionConfig {
            session,
            k: cfg.k as u32,
            h: cfg.h as u32,
            receivers: 1,
            loss,
            backend: pm_simd::backend_name(),
        });
        let (sender_tp, receiver_inner): (Box<dyn PollTransport>, Box<dyn PollTransport>) =
            match &farm {
                Some(hub) => (
                    Box::new(
                        hub.endpoint(session, FarmRole::Sender)
                            .expect("farm sender"),
                    ),
                    Box::new(
                        hub.endpoint(session, FarmRole::Receiver)
                            .expect("farm receiver"),
                    ),
                ),
                None => {
                    let hub = MemHub::new();
                    (Box::new(hub.join()), Box::new(hub.join()))
                }
            };
        let sender = NpSender::new(session, data, cfg.clone()).expect("valid sender config");
        mux.add_sender(sender, sender_tp, rt);
        let receiver_tp: Box<dyn PollTransport> = match fault {
            Some(f) => Box::new(FaultyTransport::new(receiver_inner, f, 0xBEEF + i as u64)),
            None => receiver_inner,
        };
        mux.add_receiver(
            NpReceiver::new(i, session, 0.002, i as u64),
            receiver_tp,
            rt,
        );
    }
    let outcomes = mux.run();
    let wall = mux.clock().now();

    let mut ok = true;
    let mut completed = 0usize;
    for (tok, out) in &outcomes {
        match out {
            SessionOutcome::Receiver(Ok(rep)) => {
                let good = rep.data == data;
                ok &= good;
                completed += 1;
                if !good {
                    println!("receiver {tok:?}: CORRUPT");
                }
            }
            SessionOutcome::Sender(Ok(_)) => completed += 1,
            SessionOutcome::Receiver(Err(e)) | SessionOutcome::Sender(Err(e)) => {
                // A typed failure: expected under chaos, fatal otherwise.
                ok &= args.chaos.is_some();
                println!("session {tok:?}: FAILED — {e}");
            }
            SessionOutcome::Shed(rep) => {
                // Graceful degradation under overload, not a failure —
                // but this farm runs without an overload policy, so a
                // shed here is as fatal as a typed error.
                ok &= args.chaos.is_some();
                println!(
                    "session {tok:?}: SHED at utilization {:.2} after {} drives",
                    rep.utilization, rep.drives
                );
            }
        }
    }
    let drives = registry.histogram("mux.session_drives").snapshot();
    let mean_drives = drives.sum as f64 / drives.count.max(1) as f64;
    println!(
        "farm: {completed}/{} sessions completed in {wall:.2}s wall on one driver thread; \
         drives/session mean {mean_drives:.0} max {} (fair when close)",
        outcomes.len(),
        drives.max,
    );
    if let Some(hub) = &farm {
        let stats = hub.stats();
        println!(
            "udp farm: {} unknown-session drops, {} queue overflows, {} foreign datagrams",
            stats.unknown_session, stats.queue_overflow, stats.foreign,
        );
    }
    assert!(ok, "a farm session failed outside chaos mode");
    if args.metrics {
        eprintln!("\n{}", registry.render_text());
    }
}

/// Transport factory abstracting UDP vs in-memory fallback.
enum Net {
    Udp(UdpHub),
    Mem(MemHub),
}

impl Net {
    fn endpoint(&self, obs: Obs) -> Box<dyn PollTransport> {
        match self {
            Net::Udp(hub) => Box::new(hub.endpoint().expect("udp endpoint").with_obs(obs)),
            Net::Mem(hub) => Box::new(hub.join().with_obs(obs)),
        }
    }
}

/// Decode-cache totals counted off the event stream: a driver consumes its
/// receiver machine, so `decode_cache_stats()` is out of reach afterwards.
struct CacheCensus {
    hits: Counter,
    misses: Counter,
}

impl Recorder for CacheCensus {
    fn record(&self, _t: f64, event: &Event) {
        match event {
            Event::DecodeCacheHit { .. } => self.hits.inc(),
            Event::DecodeCacheMiss { .. } => self.misses.inc(),
            _ => {}
        }
    }
}

fn main() {
    let args = parse_args();
    let trace_rec = args
        .trace
        .as_deref()
        .map(|path| Arc::new(JsonlRecorder::create(path).expect("cannot open trace file")));
    let obs = match &trace_rec {
        Some(rec) => Obs::new(rec.clone()),
        None => Obs::null(),
    };
    let registry = Arc::new(MetricsRegistry::new());
    let encode_ns = registry.histogram("rse.encode_ns");
    let decode_ns = registry.histogram("rse.decode_ns");

    // Live telemetry (`--export` / `--export-file`): a windowed-rate
    // aggregator teed into the event stream before any machine is built,
    // so every session's events flow through it from the first packet.
    let telemetry = (args.export.is_some() || args.export_file.is_some())
        .then(|| Arc::new(WindowTelemetry::new(WindowConfig::default())));
    let obs = match &telemetry {
        Some(tel) => obs.tee(tel.clone()),
        None => obs,
    };
    // Only for `--metrics`: a live recorder makes every emit build its event.
    let obs = if args.metrics {
        obs.tee(Arc::new(CacheCensus {
            hits: registry.counter("rse.decode_cache_hits"),
            misses: registry.counter("rse.decode_cache_misses"),
        }))
    } else {
        obs
    };
    let exporter = args.export.as_deref().map(|addr| {
        let reg = registry.clone();
        let tel = telemetry.clone().expect("--export implies telemetry");
        let server =
            ExportServer::serve(addr, move || render_prometheus(&reg, &tel.export_gauges()))
                .expect("cannot bind --export address");
        println!("exporter: http://{}/metrics", server.local_addr());
        server
    });
    let snap_stop = Arc::new(AtomicBool::new(false));
    let snap_thread = args.export_file.clone().map(|path| {
        let stop = snap_stop.clone();
        let reg = registry.clone();
        let tel = telemetry.clone().expect("--export-file implies telemetry");
        std::thread::Builder::new()
            .name("snapshot-writer".into())
            .spawn(move || {
                let mut snap = SnapshotFile::new(path, 1.0);
                let mut now = 0.0f64;
                while !stop.load(Ordering::Relaxed) {
                    let body = render_prometheus(&reg, &tel.export_gauges());
                    snap.tick(now, &body).expect("snapshot write");
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "the snapshot file is rewritten every 250 ms of wall time"
                    )]
                    std::thread::sleep(Duration::from_millis(250));
                    now += 0.25;
                }
                // Final snapshot so the file reflects transfer completion.
                let body = render_prometheus(&reg, &tel.export_gauges());
                snap.write(&body).expect("snapshot write");
            })
            .expect("spawn snapshot writer")
    });
    let data = match &args.file {
        Some(path) => std::fs::read(path).expect("readable input file"),
        None => {
            // Deterministic pseudo-file so receivers can be verified.
            (0..args.size)
                .map(|i| (i.wrapping_mul(2654435761) >> 7) as u8)
                .collect()
        }
    };
    if args.sessions > 1 {
        run_farm(&args, &data, &obs, &registry, telemetry.as_ref());
        finish_export(args.export_hold, exporter, &snap_stop, snap_thread);
        if let Some(rec) = &trace_rec {
            rec.flush();
            eprintln!("trace written to {}", args.trace.as_deref().unwrap());
        }
        return;
    }
    match args.chaos {
        Some(preset) => println!(
            "transferring {} bytes to {} receivers (k = {}, chaos preset: {})",
            data.len(),
            args.receivers,
            args.k,
            preset.name(),
        ),
        None => println!(
            "transferring {} bytes to {} receivers (k = {}, injected loss {:.0}%)",
            data.len(),
            args.receivers,
            args.k,
            args.drop * 100.0
        ),
    }

    let group = SocketAddrV4::new(Ipv4Addr::new(239, 255, 42, 99), args.port);
    let net = match UdpHub::join(group) {
        Ok(hub) => {
            println!("using UDP multicast group {group}");
            Net::Udp(hub)
        }
        Err(e) => {
            println!("UDP multicast unavailable ({e}); using the in-memory hub");
            Net::Mem(MemHub::new())
        }
    };

    let mut cfg = NpConfig::small(CompletionPolicy::KnownReceivers(args.receivers));
    cfg.k = args.k;
    cfg.h = 255 - args.k; // full parity budget: the sender never runs dry
    cfg.payload_len = 1024;
    cfg.nak_slot = 0.002;
    cfg.round_timeout = 0.2;
    // Extension: learn the proactive parity count from measured round-1
    // demand (visible when pacing is slow enough for feedback to overlap
    // transmission).
    cfg.adaptive_parity = args.adaptive;
    let rt = RuntimeConfig {
        packet_spacing: Duration::from_micros(100),
        stall_timeout: Duration::from_secs(15),
        complete_linger: Duration::from_millis(300),
        resilience: ResiliencePolicy {
            // Under chaos a receiver may die inside a blackout window; let
            // the sender complete for the responsive population instead of
            // stalling out.
            eviction_timeout: args.chaos.map(|_| Duration::from_secs(2)),
            ..ResiliencePolicy::default()
        },
    };

    let session = 0xF11E;
    // The chaos preset replaces the plain drop profile at every receiver.
    let fault = match args.chaos {
        Some(preset) => preset.fault_config(),
        None => FaultConfig::drop_only(args.drop),
    };
    obs.emit(0.0, || Event::SessionConfig {
        session,
        k: cfg.k as u32,
        h: cfg.h as u32,
        receivers: args.receivers,
        loss: fault.drop,
        backend: pm_simd::backend_name(),
    });
    let mut receiver_tps: Vec<_> = (0..args.receivers)
        .map(|id| {
            FaultyTransport::new(net.endpoint(obs.clone()), fault, 0xBEEF + id as u64)
                .with_obs(obs.clone())
        })
        .collect();
    let mut sender_tp = net.endpoint(obs.clone());
    let mut sender = NpSender::new(session, &data, cfg)
        .expect("valid sender config")
        .with_obs(obs.clone());
    sender.set_encode_timer(encode_ns);
    // The sender and every receiver on one mux, on this thread. The mux is
    // built here for `bind_metrics`: it publishes
    // `sender.state_bytes_per_receiver` when the session ends — the paper's
    // scalability argument in one number (sender-side state per receiver
    // stays flat as R grows).
    let mut mux = Mux::new(MuxConfig::default(), WallClock::new()).with_obs(obs.clone());
    mux.bind_metrics(&registry);
    let (sent, received) = drive_session(
        &mut mux,
        rt,
        (sender, &mut sender_tp as &mut dyn PollTransport),
        receiver_tps.iter_mut().zip(0..).map(|(tp, id)| {
            let mut machine = NpReceiver::new(id, session, 0.002, id as u64).with_obs(obs.clone());
            machine.set_decode_timer(decode_ns.clone());
            (machine, tp as &mut dyn PollTransport)
        }),
    );
    let report = sent.expect("send failed");

    let mut ok = true;
    let mut merged = parity_multicast::protocol::CostCounters::default();
    for (id, (outcome, tp)) in received.into_iter().zip(&receiver_tps).enumerate() {
        // Under chaos a receiver failing is a reportable outcome, not a
        // crash.
        let fs = tp.stats();
        match outcome {
            Ok(r) => {
                merged.merge(&r.counters);
                let good = r.data == data;
                ok &= good;
                println!(
                    "receiver {id}: {} — {} pkts in, {} repaired by decode, {} unneeded, \
                     {} corrupt dropped, {:.2}s",
                    if good { "OK" } else { "CORRUPT" },
                    r.counters.packets_received,
                    r.counters.packets_decoded,
                    r.counters.unneeded_receptions,
                    r.corrupt_dropped,
                    r.elapsed.as_secs_f64(),
                );
            }
            Err(e) => {
                // A typed failure: expected under chaos, fatal otherwise.
                ok &= args.chaos.is_some();
                println!("receiver {id}: FAILED — {e}");
            }
        }
        if args.chaos.is_some() {
            println!(
                "    faults at receiver {id}: {} dropped, {} corrupted, {} truncated, \
                 {} garbage, {} in blackout",
                fs.dropped,
                fs.corrupted,
                fs.truncated,
                fs.garbage_injected,
                fs.blackout_recv + fs.blackout_send,
            );
        }
    }
    let c = report.counters;
    let m = (c.data_sent + c.repairs_sent) as f64 / c.data_sent.max(1) as f64;
    println!(
        "sender: {} data + {} parities in {:.2}s; E[M] = {m:.3}; {} NAKs, {} parities encoded",
        c.data_sent,
        c.repairs_sent,
        report.elapsed.as_secs_f64(),
        c.feedback_received,
        c.parities_encoded,
    );
    println!(
        "session: {} — completed {:?}, {} evicted, {} corrupt dropped, {} send retries",
        if report.is_degraded() {
            "DEGRADED"
        } else {
            "complete"
        },
        report.completed,
        report.evicted,
        report.corrupt_dropped,
        report.send_retries,
    );
    assert!(ok, "a receiver completed with corrupt data");
    if args.chaos.is_some() {
        println!("chaos drill finished: every surviving receiver verified byte-identical");
    } else {
        println!("transfer verified on all receivers");
    }

    if args.metrics {
        report.counters.register_into(&registry, "sender");
        merged.register_into(&registry, "receiver");
        eprintln!("\n{}", registry.render_text());
    }
    finish_export(args.export_hold, exporter, &snap_stop, snap_thread);
    if let Some(rec) = &trace_rec {
        rec.flush();
        eprintln!("trace written to {}", args.trace.as_deref().unwrap());
    }
}

/// Tear down the live-telemetry side cars: optionally hold the HTTP
/// exporter open (`--export-hold`) so a scraper can observe the final
/// gauges, then stop the listener and the snapshot writer.
fn finish_export(
    hold: f64,
    exporter: Option<ExportServer>,
    snap_stop: &AtomicBool,
    snap_thread: Option<std::thread::JoinHandle<()>>,
) {
    if let Some(server) = exporter {
        if hold > 0.0 {
            println!("holding exporter open for {hold:.1}s");
            #[expect(
                clippy::disallowed_methods,
                reason = "holds the exporter's TCP listener open for scrapers"
            )]
            std::thread::sleep(Duration::from_secs_f64(hold));
        }
        drop(server); // Drop stops the listener thread.
    }
    snap_stop.store(true, Ordering::Relaxed);
    if let Some(handle) = snap_thread {
        handle.join().expect("snapshot writer");
    }
}
