//! Gateway scenarios shared by the integration tests: each drives a
//! fresh [`ReactorServer`] over in-memory transports and checks its
//! decisions against direct `AuthService` ingestion
//! ([`direct_decisions`]) seeded the same way. The tests call them with
//! different seeds, codecs, epochs and admission limits.

// Each test crate uses only some of these scenarios.
#![allow(dead_code)]

use std::io;
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use piano::core::error::PianoError;
use piano::net::fault::{FaultPlan, FaultyTransport};
use piano::net::fixtures::{direct_decisions, feed_recording, hub_recording_reactor};
use piano::net::transport::{memory_hub, Listener, MemoryListener, MemoryStream};
use piano::net::{FeedHandle, ReactorServer, ResilientFeed, RetryPolicy, ServerConfig};
use piano::prelude::*;

/// A gateway at a 1.0 m threshold, its session randomness seeded with
/// `seed`, with `tweak` applied to the default config.
pub fn reactor_server(seed: u64, tweak: impl FnOnce(&mut ServerConfig)) -> ReactorServer {
    let mut cfg = ServerConfig::default();
    tweak(&mut cfg);
    ReactorServer::new(
        ShardedAuthService::new(PianoConfig::with_threshold(1.0), 1),
        ChaCha8Rng::seed_from_u64(seed),
        cfg,
    )
}

pub fn action_config(server: &ReactorServer) -> ActionConfig {
    server
        .service()
        .with_default(|s| s.config().action.clone())
        .expect("the service exists")
}

/// Registers every accepted connection with the reactor until the hub
/// closes — resumed connections arrive at unpredictable times, so the
/// fixed-count accept pattern does not fit fault runs.
pub fn spawn_register_loop(server: &ReactorServer, mut listener: MemoryListener) {
    let server = server.clone();
    std::thread::spawn(move || {
        while let Ok(conn) = listener.accept_conn() {
            server.register(conn);
        }
    });
}

/// Runs `feeds` concurrent clients through a fresh reactor with
/// `codec`, returning decisions in handshake order.
pub fn fleet_decisions(seed: u64, feeds: usize, codec: WireCodec) -> Vec<AuthDecision> {
    let server = reactor_server(seed, |_| {});
    let reactor = server.start();
    let decisions = epoch_decisions(&server, feeds, codec);
    assert_eq!(server.session_ids().len(), feeds);

    let stats = server.stats();
    assert_eq!(stats.connections, feeds as u64);
    assert_eq!(stats.connections_dropped, 0);
    assert_eq!(stats.sessions_decided, feeds as u64);
    assert_eq!(stats.busy_replies, stats.credit_replies);
    match codec {
        WireCodec::Raw => assert_eq!(stats.wire_audio_bytes, stats.raw_audio_bytes),
        WireCodec::I16Delta => assert!(
            stats.compression_ratio() >= 3.5,
            "fleet compression only {:.2}x",
            stats.compression_ratio()
        ),
    }
    assert!(
        server.peak_conn_bytes() > 0,
        "footprint accounting saw the fleet"
    );

    server.shutdown();
    reactor.join().expect("reactor thread");
    decisions
}

/// One authentication epoch of `feeds` concurrent clients with `codec`
/// on a started `server`: sequential handshakes, concurrent streams, one
/// hub scan. Returns decisions in handshake order, each checked against
/// the outcome the reactor recorded for that feed's session.
pub fn epoch_decisions(
    server: &ReactorServer,
    feeds: usize,
    codec: WireCodec,
) -> Vec<AuthDecision> {
    let (connector, mut listener) = memory_hub();
    let config = action_config(server);

    // Handshakes run sequentially (`FeedHandle::connect` blocks on the
    // Accept) so session randomness binds to feed index exactly as in
    // the direct run; streaming is fully concurrent on the client side.
    let mut handles = Vec::with_capacity(feeds);
    for _ in 0..feeds {
        let transport = connector.connect().expect("hub open");
        let conn = listener.accept_conn().expect("accept");
        server.register(conn);
        handles.push(FeedHandle::connect(transport, &[codec]).expect("handshake"));
    }
    let clients: Vec<_> = handles
        .into_iter()
        .map(|mut feed| {
            let config = config.clone();
            std::thread::spawn(move || {
                assert_eq!(feed.codec(), codec, "reactor honors the offer");
                let rec = feed_recording(feed.challenge(), &config);
                feed.send_recording(&rec, 1_024, 4).expect("stream");
                feed.finish().expect("stream end");
                feed.await_decision().expect("verdict")
            })
        })
        .collect();

    assert_eq!(server.wait_for_reports(feeds), feeds, "every feed reports");
    // The zero-copy scan entry point: the reactor borrows this shared
    // recording instead of cloning the waveform into its inbox.
    let hub: std::sync::Arc<[f64]> = hub_recording_reactor(server).into();
    assert_eq!(
        server.scan_and_decide_arc(hub, 16_384),
        feeds,
        "every session decides"
    );
    let decisions: Vec<AuthDecision> = clients
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();

    // The verdict each client received is the one the reactor recorded
    // for that feed's session: the epoch's ids are the last `feeds`.
    let ids = server.session_ids();
    assert!(ids.len() >= feeds);
    let outcomes = server.outcomes();
    for (id, decision) in ids[ids.len() - feeds..].iter().zip(&decisions) {
        let recorded = outcomes.iter().find(|(oid, _)| oid == id).map(|(_, d)| d);
        assert_eq!(recorded, Some(decision), "outcome mismatch for {id:?}");
    }
    decisions
}

/// Four feeds resume through the reactor's suspension registry after
/// scripted cuts, and still decide byte for byte as direct ingestion.
pub fn survivable_faults_match_direct(seed: u64) {
    const FEEDS: usize = 4;
    let baseline = direct_decisions(seed, FEEDS);

    let server = reactor_server(seed, |cfg| {
        cfg.resume_window = Duration::from_secs(10);
    });
    let reactor = server.start();
    let (connector, listener) = memory_hub();
    spawn_register_loop(&server, listener);
    let config = action_config(&server);

    // Sequential handshakes on fault-wrapped transports (no plan cuts
    // the handshake itself, so session randomness binds to feed order
    // exactly as in the direct run), then script per-feed cuts relative
    // to the bytes each link has actually seen.
    let mut fleet = Vec::with_capacity(FEEDS);
    for i in 0..FEEDS {
        let plan = match i {
            // Feed 0 runs clean; feed 1 loses its write direction in the
            // middle of an audio batch; feed 2 loses its read direction
            // just past the handshake; feed 3 suffers seeded
            // segmentation + latency chaos, no cuts.
            0 => FaultPlan::clean(seed),
            1 => FaultPlan::clean(seed + 1).with_write_disconnect(4_000),
            2 => FaultPlan::clean(seed + 2),
            _ => FaultPlan::chaos(seed + 3),
        };
        let t = FaultyTransport::new(connector.connect().expect("hub open"), plan);
        let mut handle =
            FeedHandle::connect(t, &[WireCodec::I16Delta]).expect("faulty handshake survives");
        if i == 2 {
            let seen = handle.transport_mut().read_bytes();
            handle.transport_mut().set_read_disconnect(seen + 10);
        }
        let connector = connector.clone();
        let mut redials = 0u64;
        let dial = move || -> io::Result<FaultyTransport<MemoryStream>> {
            redials += 1;
            Ok(FaultyTransport::new(
                connector.connect()?,
                FaultPlan::clean(seed ^ redials),
            ))
        };
        fleet.push(ResilientFeed::adopt(
            handle,
            dial,
            RetryPolicy {
                jitter_seed: seed + i as u64,
                ..RetryPolicy::default()
            },
        ));
    }

    let clients: Vec<_> = fleet
        .into_iter()
        .map(|mut feed| {
            let config = config.clone();
            std::thread::spawn(move || {
                let rec = feed_recording(feed.handle().challenge(), &config);
                feed.send_recording(&rec, 1_024, 4)
                    .expect("stream survives faults");
                let decision = feed
                    .finish_and_await(Duration::from_secs(60))
                    .expect("verdict survives faults");
                (decision, feed.stats())
            })
        })
        .collect();

    assert_eq!(
        server
            .wait_for_reports_timeout(FEEDS, Duration::from_secs(60))
            .expect("every feed reports despite faults"),
        FEEDS
    );
    let hub = hub_recording_reactor(&server);
    assert_eq!(server.scan_and_decide(&hub, 16_384), FEEDS);

    let results: Vec<(AuthDecision, piano::net::FeedStats)> =
        clients.into_iter().map(|t| t.join().unwrap()).collect();
    let decisions: Vec<AuthDecision> = results.iter().map(|(d, _)| d.clone()).collect();
    assert_eq!(
        decisions, baseline,
        "faulted reactor fleet diverged from the direct run"
    );

    let client_resumes: u64 = results.iter().map(|(_, s)| s.resumes).sum();
    assert!(
        client_resumes >= 2,
        "both cut feeds resumed: {client_resumes}"
    );
    let stats = server.stats();
    assert!(
        stats.resumes >= 2,
        "the reactor acked the resumes: {}",
        stats.resumes
    );
    assert!(
        stats.connections_suspended >= 1,
        "a mid-stream loss suspended: {}",
        stats.connections_suspended
    );
    assert_eq!(
        stats.drops.total(),
        stats.connections_dropped,
        "per-cause drops account for every drop"
    );
    assert_eq!(stats.sessions_decided, FEEDS as u64);
    server.shutdown();
    reactor.join().expect("reactor thread");
}

/// A feed that goes silent mid-stream is dropped under
/// `DropCause::Timeout` within its idle deadline, while three healthy
/// feeds still decide as direct ingestion.
pub fn stalled_feed_times_out_alone(seed: u64) {
    const GOOD: usize = 3;
    let baseline = direct_decisions(seed, GOOD);

    let server = reactor_server(seed, |cfg| {
        cfg.idle_timeout = Duration::from_millis(200);
    });
    let reactor = server.start();
    let (connector, mut listener) = memory_hub();
    let config = action_config(&server);

    // Healthy feeds handshake first (their session randomness matches
    // the 3-feed baseline); the staller connects last.
    let mut handles = Vec::new();
    for _ in 0..GOOD + 1 {
        let transport = connector.connect().unwrap();
        let conn = listener.accept_conn().unwrap();
        server.register(conn);
        handles.push(FeedHandle::connect(transport, &[WireCodec::I16Delta]).unwrap());
    }
    let mut stalled = handles.pop().unwrap();
    stalled.send_batch(&[vec![0.25; 512]]).unwrap();
    // ... and then nothing: the connection stays open but silent.

    let clients: Vec<_> = handles
        .into_iter()
        .map(|mut feed| {
            let config = config.clone();
            std::thread::spawn(move || {
                let rec = feed_recording(feed.challenge(), &config);
                feed.send_recording(&rec, 1_024, 4).unwrap();
                feed.finish().unwrap();
                feed.await_decision().unwrap()
            })
        })
        .collect();

    let waited = Instant::now();
    let reported = server
        .wait_for_reports_timeout(GOOD + 1, Duration::from_secs(30))
        .expect("the stalled feed's drop unblocks the wait");
    assert_eq!(reported, GOOD, "only healthy feeds report");
    assert!(
        waited.elapsed() < Duration::from_secs(10),
        "the timer wheel fired the idle watchdog promptly"
    );

    let hub = hub_recording_reactor(&server);
    assert_eq!(server.scan_and_decide(&hub, 16_384), GOOD);
    let decisions: Vec<AuthDecision> = clients.into_iter().map(|t| t.join().unwrap()).collect();
    assert_eq!(decisions, baseline, "healthy feeds unaffected by the stall");

    let stats = server.stats();
    assert_eq!(stats.connections_dropped, 1, "only the staller dropped");
    assert_eq!(stats.drops.get(DropCause::Timeout), 1, "under Timeout");
    drop(stalled);
    server.shutdown();
    reactor.join().expect("reactor thread");
}

/// With `slots` admission slots filled, the next `Hello` is shed with a
/// typed `PianoError::Overloaded` hint; `feeds - slots` retrying clients
/// are admitted as slots free up at report time, and every feed grants.
pub fn shedding_recovers(seed: u64, slots: usize, feeds: usize) {
    assert!(feeds > slots, "some feeds must queue behind the slots");
    let server = reactor_server(seed, |cfg| {
        cfg.max_active_feeds = slots;
        cfg.retry_after_ms = 10;
    });
    let reactor = server.start();
    let (connector, listener) = memory_hub();
    spawn_register_loop(&server, listener);
    let config = action_config(&server);

    // Fill every admission slot.
    let admitted: Vec<_> = (0..slots)
        .map(|_| FeedHandle::connect(connector.connect().unwrap(), &[WireCodec::I16Delta]).unwrap())
        .collect();

    // The next Hello is shed with a typed, hint-carrying error — before
    // any session state was allocated.
    match FeedHandle::connect(connector.connect().unwrap(), &[WireCodec::I16Delta]) {
        Err(PianoError::Overloaded { retry_after_ms }) => assert_eq!(retry_after_ms, 10),
        other => panic!("expected Overloaded, got {other:?}"),
    }

    // Stream the admitted feeds; retrying clients are admitted as the
    // slots free up at report time.
    let mut clients: Vec<_> = admitted
        .into_iter()
        .map(|mut feed| {
            let config = config.clone();
            std::thread::spawn(move || {
                let rec = feed_recording(feed.challenge(), &config);
                feed.send_recording(&rec, 1_024, 4).unwrap();
                feed.finish().unwrap();
                feed.await_decision().unwrap()
            })
        })
        .collect();
    for i in 0..feeds - slots {
        let connector = connector.clone();
        let config = config.clone();
        clients.push(std::thread::spawn(move || {
            let dial = move || connector.connect();
            let mut feed = ResilientFeed::connect(
                dial,
                &[WireCodec::I16Delta],
                RetryPolicy {
                    max_attempts: 50,
                    jitter_seed: seed + i as u64,
                    ..RetryPolicy::default()
                },
            )
            .expect("admitted once the backlog drains");
            assert!(feed.stats().sheds_seen > 0 || feed.stats().retries == 0);
            let rec = feed_recording(feed.handle().challenge(), &config);
            feed.send_recording(&rec, 1_024, 4).unwrap();
            feed.finish_and_await(Duration::from_secs(60)).unwrap()
        }));
    }

    assert_eq!(
        server
            .wait_for_reports_timeout(feeds, Duration::from_secs(60))
            .expect("every feed admitted and reported"),
        feeds
    );
    let hub = hub_recording_reactor(&server);
    assert_eq!(server.scan_and_decide(&hub, 16_384), feeds);
    for c in clients {
        assert!(c.join().unwrap().is_granted(), "every feed granted");
    }
    let stats = server.stats();
    assert!(stats.connections_shed >= 1, "the probe was shed");
    assert_eq!(stats.connections_dropped, 0, "shedding is not dropping");
    server.shutdown();
    reactor.join().expect("reactor thread");
}
