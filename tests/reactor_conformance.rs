//! Gateway conformance: [`ReactorServer`] must decide exactly as direct
//! `AuthService` ingestion of the same quantized recordings does.
//!
//! * **Fleet conformance:** decisions for 100 concurrent feeds ingested
//!   through the reactor — codec off and i16-delta — are identical to
//!   feeding the same quantized recordings into an `AuthService`
//!   directly.
//! * **Fault conformance:** a survivable-fault schedule (write cut, read
//!   cut, chaos), with clients resuming through the reactor's suspension
//!   registry, still matches the direct baseline byte for byte. A feed
//!   whose connection closes after its report redials and is adopted at
//!   once, before the host scans.
//! * Shedding stays typed (`PianoError::Overloaded` + hint) and a
//!   retrying client is admitted when the backlog drains; a stalled
//!   feed times out alone under `DropCause::Timeout` within its idle
//!   deadline; the `_timeout` wait returns typed errors.
//!
//! The scenarios live in `tests/support`; `tests/fault_injection.rs` and
//! `tests/net_transport.rs` run them under other seeds, epochs, codecs
//! and admission limits.

mod support;

use std::time::{Duration, Instant};

use piano::core::error::PianoError;
use piano::net::fixtures::{direct_decisions, feed_recording, hub_recording_reactor};
use piano::net::transport::{memory_hub, Transport};
use piano::net::FeedHandle;
use piano::prelude::*;

use support::{
    action_config, fleet_decisions, reactor_server, shedding_recovers, spawn_register_loop,
    stalled_feed_times_out_alone, survivable_faults_match_direct,
};

const SEED: u64 = 0xF1EE7;

/// The environment-codec fleet's seed.
const ENV_SEED: u64 = 0xF1EE8;

#[test]
fn reactor_fleet_runs_under_the_env_selected_codec() {
    // The CI matrix sets PIANO_WIRE_CODEC ∈ {off, i16-delta}; a small
    // fleet negotiates whatever the environment selected. Its seed
    // differs from `net_transport`'s run of the same scenario.
    let decisions = fleet_decisions(ENV_SEED, 3, WireCodec::from_env());
    assert!(decisions.iter().all(AuthDecision::is_granted));
    assert_eq!(decisions, direct_decisions(ENV_SEED, 3));
}

#[test]
fn reactor_decisions_match_direct_ingestion_for_100_feeds() {
    const FEEDS: usize = 100;
    let direct = direct_decisions(SEED, FEEDS);
    for d in &direct {
        match d {
            AuthDecision::Granted { distance_m } => {
                assert!(
                    (distance_m - 0.5).abs() < 0.1,
                    "direct distance {distance_m}"
                )
            }
            other => panic!("direct path denied: {other:?}"),
        }
    }
    let raw = fleet_decisions(SEED, FEEDS, WireCodec::Raw);
    let compressed = fleet_decisions(SEED, FEEDS, WireCodec::I16Delta);
    assert_eq!(raw, direct, "codec-off reactor diverged from direct");
    assert_eq!(compressed, direct, "i16-delta reactor diverged from direct");
}

#[test]
fn reactor_survivable_faults_yield_byte_identical_decisions() {
    survivable_faults_match_direct(SEED);
}

#[test]
fn reactor_stalled_feed_times_out_alone_within_the_deadline() {
    stalled_feed_times_out_alone(SEED);
}

#[test]
fn reactor_shedding_is_typed_and_recoverable() {
    shedding_recovers(SEED, 1, 3);
}

#[test]
fn reactor_timeout_wait_is_typed() {
    let server = reactor_server(SEED, |_| {});
    match server.wait_for_reports_timeout(1, Duration::from_millis(50)) {
        Err(PianoError::Timeout(_)) => {}
        other => panic!("expected Timeout, got {other:?}"),
    }
}

#[test]
fn reactor_sees_a_hangup_behind_a_partial_frame_in_the_same_edge() {
    // A peer that writes a final partial frame and dies delivers BOTH
    // edges — bytes and EOF — under one readiness token. The reactor's
    // read loop used to stop at the short read, miss the close, and
    // leave the feed parked until the idle timer (which *drops* instead
    // of suspending, stranding any resume probe). The suspension must
    // land promptly and the resumed stream must still conclude.
    let server = reactor_server(SEED, |cfg| {
        cfg.resume_window = Duration::from_secs(10);
        cfg.idle_timeout = Duration::from_secs(10);
    });
    let reactor = server.start();
    let (connector, listener) = memory_hub();
    spawn_register_loop(&server, listener);
    let config = action_config(&server);

    let mut feed = FeedHandle::connect(connector.connect().unwrap(), &[WireCodec::I16Delta])
        .expect("handshake");
    let session = feed.session();
    let codec = feed.codec();
    let rec = feed_recording(feed.challenge(), &config);
    let chunks: Vec<Vec<f64>> = rec.chunks(1_024).map(<[f64]>::to_vec).collect();
    feed.send_batch(&chunks[0..4]).expect("first batch");

    // Let the reactor drain the batch completely: a non-empty backlog
    // would keep the connection runnable and hand the next turn a free
    // `try_read` that notices the close anyway. The miss needs an
    // otherwise-parked connection.
    std::thread::sleep(Duration::from_millis(300));

    // Two bytes of a frame header, then hang up — back to back, so the
    // write and the close coalesce into one wake on the reactor side.
    let mut t = feed.into_transport();
    t.write_all(&[0x00, 0x01]).expect("partial frame prefix");
    let cut_at = Instant::now();
    drop(t);

    let (mut handle, ack_seq, ended) =
        FeedHandle::resume(connector.connect().unwrap(), session, 4, codec)
            .expect("prompt resume — the reactor noticed the hangup");
    assert!(!ended, "the stream was cut mid-flight");
    assert!(
        cut_at.elapsed() < Duration::from_secs(2),
        "attach after {:?} — the EOF behind the partial frame was missed",
        cut_at.elapsed()
    );
    assert!(ack_seq <= 4, "server cursor never exceeds what was sent");

    for batch in chunks[ack_seq as usize..].chunks(4) {
        handle.send_batch(batch).expect("replayed batch");
    }
    handle.finish().expect("stream end");
    assert_eq!(server.wait_for_reports(1), 1);
    let hub = hub_recording_reactor(&server);
    assert_eq!(server.scan_and_decide(&hub, 16_384), 1);
    assert!(handle.await_decision().expect("verdict").is_granted());

    let stats = server.stats();
    assert_eq!(stats.resumes, 1, "the probe's attach was acked");
    assert_eq!(stats.connections_suspended, 1);
    assert_eq!(stats.connections_dropped, 0, "a resumed feed is no drop");
    server.shutdown();
    reactor.join().expect("reactor thread");
}

#[test]
fn reactor_adopts_a_resume_after_the_feed_closed_awaiting_its_verdict() {
    // A client whose read side dies after its report redials at once.
    // The reactor must notice the close of the parked connection,
    // suspend the reported feed, and adopt the `Resume` — not leave the
    // probe to wait out its handshake deadline while the old connection
    // still looks alive.
    const WAIT: Duration = Duration::from_secs(30);
    let baseline = direct_decisions(SEED, 1);
    let server = reactor_server(SEED, |cfg| {
        cfg.resume_window = Duration::from_secs(10);
    });
    let reactor = server.start();
    let (connector, listener) = memory_hub();
    spawn_register_loop(&server, listener);
    let config = action_config(&server);

    let mut feed = FeedHandle::connect(connector.connect().unwrap(), &[WireCodec::I16Delta])
        .expect("handshake");
    let (session, codec) = (feed.session(), feed.codec());
    let rec = feed_recording(feed.challenge(), &config);
    feed.send_recording(&rec, 1_024, 4).expect("stream");
    feed.finish().expect("stream end");
    assert_eq!(server.wait_for_reports_timeout(1, WAIT).expect("report"), 1);
    let next_seq = feed.next_seq();
    drop(feed.into_transport());

    let redialed = Instant::now();
    let (mut handle, ack_seq, ended) =
        FeedHandle::resume(connector.connect().unwrap(), session, next_seq, codec)
            .expect("the redial is adopted");
    assert!(ended, "the server holds the whole stream");
    assert_eq!(ack_seq, next_seq);
    assert!(
        redialed.elapsed() < Duration::from_secs(5),
        "adopted after {:?} — the probe waited out its handshake deadline",
        redialed.elapsed()
    );
    let stats = server.stats();
    assert_eq!(stats.resumes, 1, "adopted before the host scans");
    assert_eq!(stats.connections_suspended, 1);

    let hub = hub_recording_reactor(&server);
    assert_eq!(server.scan_and_decide(&hub, 16_384), 1);
    let verdict = handle.await_decision_timeout(WAIT).expect("verdict");
    assert_eq!(
        vec![verdict],
        baseline,
        "the resumed feed decides as direct"
    );
    assert_eq!(
        server.stats().connections_dropped,
        0,
        "a resumed feed is no drop"
    );
    assert_eq!(server.service().session_count(), 0, "its session closed");
    server.shutdown();
    reactor.join().expect("reactor thread");
}
