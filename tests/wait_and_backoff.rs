//! Regression pins for the two blocking-wait bugs this layer shipped
//! with:
//!
//! * **Client double-sleep on shed:** `ResilientFeed::connect` used to
//!   sleep the server's `Retry` hint *and then* the jittered backoff on
//!   the same failed attempt — and honored the hint uncapped, so a
//!   hostile or misconfigured server could stall a client for an hour.
//!   Every failed attempt now sleeps exactly once — for a shed, the
//!   longer of the hint and the jittered backoff, so repeated sheds
//!   still back off — and a shed hint is clamped to
//!   [`RetryPolicy::max_delay`]. `FeedStats::backoff_total`
//!   records every slept interval, which is what makes the "exactly
//!   once" property assertable.
//! * **Server resume-attach busy-poll:** a `Resume` probe racing the
//!   suspension of the connection it resumes used to spin on the
//!   registry at a fixed tick. The gateway now parks the probe as a
//!   connection state that the losing connection's teardown adopts
//!   directly, so the attach is prompt, and an unmatched probe is
//!   rejected by its handshake deadline on the timer wheel without
//!   overshoot.

use std::io;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use piano::core::error::PianoError;
use piano::net::fixtures::{direct_decisions, feed_recording, hub_recording_reactor};
use piano::net::transport::{
    memory_hub, memory_pair, Listener, MemoryConnector, MemoryStream, Transport,
};
use piano::net::{FeedHandle, ReactorServer, ResilientFeed, RetryPolicy, ServerConfig};
use piano::prelude::*;

const SEED: u64 = 0xBACC0FF;

/// A running gateway behind an in-memory hub whose every connection is
/// registered with it: the returned connector dials the gateway, and the
/// handle joins its reactor thread after `shutdown`.
fn gateway(
    tweak: impl FnOnce(&mut ServerConfig),
) -> (ReactorServer, MemoryConnector, JoinHandle<()>) {
    let mut cfg = ServerConfig::default();
    tweak(&mut cfg);
    let server = ReactorServer::new(
        ShardedAuthService::new(PianoConfig::with_threshold(1.0), 1),
        ChaCha8Rng::seed_from_u64(SEED),
        cfg,
    );
    let reactor = server.start();
    let (connector, mut listener) = memory_hub();
    let registrar = server.clone();
    std::thread::spawn(move || {
        while let Ok(conn) = listener.accept_conn() {
            registrar.register(conn);
        }
    });
    (server, connector, reactor)
}

/// A transport whose peer immediately answers the handshake with a
/// `Retry` carrying `hint_ms`. The peer end is returned too — drop it
/// early and the client's `Hello` write dies before the shed is read.
fn shed_transport(hint_ms: u64) -> (MemoryStream, MemoryStream) {
    let (client, mut server) = memory_pair();
    server
        .write_all(
            &Message::Retry {
                retry_after_ms: hint_ms,
            }
            .encode_framed(),
        )
        .expect("scripted shed");
    (client, server)
}

#[test]
fn shed_sleeps_once_with_the_hint_clamped() {
    // First dial: a scripted shed advertising a one-HOUR hint. Second
    // dial: a real server. The clamp (max_delay = 200 ms) and the
    // single-sleep rule mean the whole connect finishes in ~200 ms with
    // backoff_total exactly equal to the clamped hint — the pre-fix code
    // would have slept 1 h (uncapped hint), or hint + jittered backoff
    // (double sleep), both visible here as a bigger backoff_total.
    let (server, connector, reactor) = gateway(|_| {});

    let (shed_client, _shed_peer) = shed_transport(3_600_000);
    let mut scripted = vec![shed_client];
    let dial = move || -> io::Result<MemoryStream> {
        match scripted.pop() {
            Some(t) => Ok(t),
            None => connector.connect(),
        }
    };
    let policy = RetryPolicy {
        max_attempts: 3,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(200),
        jitter_seed: SEED,
    };
    let started = Instant::now();
    let feed = ResilientFeed::connect(dial, &[WireCodec::Raw], policy).expect("admitted");
    let elapsed = started.elapsed();

    assert!(
        elapsed >= Duration::from_millis(190),
        "the clamped hint was slept: {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "a shed must cost one clamped sleep, not the raw hint: {elapsed:?}"
    );
    let stats = feed.stats();
    assert_eq!(stats.sheds_seen, 1, "one shed absorbed");
    assert_eq!(stats.retries, 1, "one retry for one failed attempt");
    assert_eq!(
        stats.backoff_total,
        Duration::from_millis(200),
        "exactly one sleep, exactly the clamped hint"
    );
    server.shutdown();
    reactor.join().expect("reactor thread");
}

#[test]
fn repeated_sheds_back_off_past_a_short_hint() {
    // Four scripted sheds with a 1 ms hint, then a real server. Each shed
    // attempt still sleeps once, but for the longer of the hint and the
    // jittered exponential backoff: 8·j + 16·j + 32·j + 64·j ms with
    // j ∈ [0.5, 1.0). Sleeping the bare hint would total 4 ms, so a
    // client shed by a full server would exhaust its attempts at the
    // hint's fixed pace instead of backing off.
    let (server, connector, reactor) = gateway(|_| {});

    let (mut scripted, peers): (Vec<_>, Vec<_>) = (0..4).map(|_| shed_transport(1)).unzip();
    let dial = move || -> io::Result<MemoryStream> {
        match scripted.pop() {
            Some(t) => Ok(t),
            None => connector.connect(),
        }
    };
    let policy = RetryPolicy {
        max_attempts: 5,
        base_delay: Duration::from_millis(8),
        max_delay: Duration::from_secs(1),
        jitter_seed: SEED + 2,
    };
    let feed = ResilientFeed::connect(dial, &[WireCodec::Raw], policy).expect("admitted");
    let stats = feed.stats();
    assert_eq!(stats.sheds_seen, 4, "four sheds absorbed");
    assert_eq!(stats.retries, 4, "one retry per failed attempt");
    assert!(
        stats.backoff_total >= Duration::from_millis(60)
            && stats.backoff_total < Duration::from_millis(120),
        "backoff_total {:?} outside the exponential-backoff bounds",
        stats.backoff_total
    );
    drop(peers);
    server.shutdown();
    reactor.join().expect("reactor thread");
}

#[test]
fn transport_failures_sleep_one_jittered_backoff_each() {
    let (server, connector, reactor) = gateway(|_| {});

    let mut failures = 2u32;
    let dial = move || -> io::Result<MemoryStream> {
        if failures > 0 {
            failures -= 1;
            return Err(io::Error::new(io::ErrorKind::ConnectionRefused, "down"));
        }
        connector.connect()
    };
    let policy = RetryPolicy {
        max_attempts: 4,
        base_delay: Duration::from_millis(4),
        max_delay: Duration::from_millis(100),
        jitter_seed: SEED + 1,
    };
    let feed = ResilientFeed::connect(dial, &[WireCodec::Raw], policy).expect("admitted");
    let stats = feed.stats();
    assert_eq!(stats.retries, 2);
    assert_eq!(stats.sheds_seen, 0);
    // Two jittered exponential sleeps: 4 ms·j + 8 ms·j with j ∈
    // [0.5, 1.0) — one sleep per attempt, never more.
    assert!(
        stats.backoff_total >= Duration::from_millis(6)
            && stats.backoff_total < Duration::from_millis(12),
        "backoff_total {:?} outside one-sleep-per-attempt bounds",
        stats.backoff_total
    );
    server.shutdown();
    reactor.join().expect("reactor thread");
}

#[test]
fn exhausted_attempts_surface_the_shed_without_sleeping() {
    // max_attempts = 0: the first failure is final, and no time is spent
    // sleeping a hint that will never be used.
    let (shed_client, _shed_peer) = shed_transport(44);
    let mut scripted = vec![shed_client];
    let dial = move || -> io::Result<MemoryStream> {
        Ok(scripted.pop().expect("single scripted attempt"))
    };
    let started = Instant::now();
    match ResilientFeed::connect(
        dial,
        &[WireCodec::Raw],
        RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        },
    ) {
        Err(PianoError::Overloaded { retry_after_ms }) => assert_eq!(retry_after_ms, 44),
        Err(other) => panic!("expected Overloaded, got {other:?}"),
        Ok(_) => panic!("no attempts left, connect must fail"),
    }
    assert!(
        started.elapsed() < Duration::from_millis(100),
        "a final failure must not sleep first"
    );
}

#[test]
fn resume_probe_racing_the_suspension_attaches_promptly() {
    // The probe arrives while the connection it resumes is still
    // attached; the suspension lands 150 ms later. The gateway must hand
    // the suspended feed to the parked probe immediately — and the
    // resumed stream must still conclude with a verdict.
    let baseline = direct_decisions(SEED, 1);
    let (server, connector, reactor) = gateway(|cfg| {
        cfg.resume_window = Duration::from_secs(10);
    });
    let config = server
        .service()
        .with_default(|s| s.config().action.clone())
        .expect("shard 0 exists");

    let mut feed = FeedHandle::connect(connector.connect().unwrap(), &[WireCodec::I16Delta])
        .expect("handshake");
    let session = feed.session();
    let codec = feed.codec();
    let rec = feed_recording(feed.challenge(), &config);
    let chunks: Vec<Vec<f64>> = rec.chunks(1_024).map(<[f64]>::to_vec).collect();
    feed.send_batch(&chunks[0..4]).expect("first batch");

    // The probe dials and parks at the gateway: its session is not
    // suspended yet.
    let probe_transport = connector.connect().unwrap();
    let probe = std::thread::spawn(move || {
        let resumed = FeedHandle::resume(probe_transport, session, 4, codec);
        (resumed, Instant::now())
    });
    std::thread::sleep(Duration::from_millis(150));

    // Now cut the original transport: the gateway suspends the feed and
    // hands it straight to the parked probe.
    let cut_at = Instant::now();
    drop(feed.into_transport());
    let (resumed, attached_at) = probe.join().expect("probe thread");
    let (mut handle, ack_seq, ended) = resumed.expect("prompt attach");
    assert!(!ended, "the stream was cut mid-flight");
    assert!(ack_seq <= 4, "server cursor never exceeds what was sent");
    assert!(
        attached_at.duration_since(cut_at) < Duration::from_secs(2),
        "attach after {:?} — the parked probe polled instead of waking",
        attached_at.duration_since(cut_at)
    );

    // Replay from the server's cursor and finish: the resumed feed
    // decides exactly like an unbroken one.
    for batch in chunks[ack_seq as usize..].chunks(4) {
        handle.send_batch(batch).expect("replayed batch");
    }
    handle.finish().expect("stream end");
    assert_eq!(server.wait_for_reports(1), 1);
    let hub = hub_recording_reactor(&server);
    assert_eq!(server.scan_and_decide(&hub, 16_384), 1);
    assert_eq!(
        vec![handle.await_decision().expect("verdict")],
        baseline,
        "the resumed feed decides like direct ingestion"
    );

    let stats = server.stats();
    assert_eq!(stats.resumes, 1, "the probe's attach was acked");
    assert_eq!(stats.connections_suspended, 1);
    assert_eq!(stats.connections_dropped, 0, "a resumed feed is no drop");
    server.shutdown();
    reactor.join().expect("reactor thread");
}

#[test]
fn unknown_session_resume_rejects_at_the_handshake_deadline() {
    // No suspension ever arrives: the probe must be rejected when the
    // handshake deadline lapses — promptly after it, not on some coarser
    // polling grid, and never before it.
    let (server, connector, reactor) = gateway(|cfg| {
        cfg.resume_window = Duration::from_secs(5);
        cfg.handshake_timeout = Duration::from_millis(300);
    });

    let started = Instant::now();
    let err = FeedHandle::resume(connector.connect().unwrap(), 0xDEAD_BEEF, 0, WireCodec::Raw)
        .expect_err("unknown session");
    let elapsed = started.elapsed();
    assert!(
        matches!(err, PianoError::Transport(_)),
        "rejection closes the connection: {err:?}"
    );
    assert!(
        elapsed >= Duration::from_millis(290),
        "rejected {elapsed:?} in — before the handshake deadline"
    );
    assert!(
        elapsed < Duration::from_millis(1_500),
        "rejected {elapsed:?} in — the deadline overshot"
    );
    server.shutdown();
    reactor.join().expect("reactor thread");
}
