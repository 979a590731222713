//! Chaos conformance for the transport layer: seeded faults must never
//! change *what* the fleet decides, only *how* the bytes got there.
//!
//! * **Survivable schedules** (short reads/writes, latency, mid-stream
//!   disconnects with resume enabled) yield
//!   decisions byte-identical to direct `AuthService` ingestion — the
//!   resume protocol replays exactly the samples the gateway never
//!   accepted.
//! * **Unsurvivable schedules** (a stalled feed under a gateway with no
//!   resume window) drop only the afflicted feed, within its idle
//!   deadline, under the right [`DropCause`]; healthy feeds' decisions
//!   still match the direct baseline.
//! * **Overload shedding** with two admission slots turns excess
//!   `Hello`s into typed [`PianoError::Overloaded`] retry hints, and
//!   retrying clients are admitted once the backlog drains.
//! * The client's `_timeout` API variants return typed
//!   [`PianoError::Timeout`] instead of blocking forever, and a client
//!   that gives up is counted as a `DropCause::Disconnect`.
//! * A proptest sweeps [`FaultPlan::chaos`] seeds: segmentation and
//!   latency chaos alone (no cuts) never changes decisions against
//!   direct `AuthService` ingestion.
//!
//! The first three scenarios live in `tests/support`, shared with
//! `tests/reactor_conformance.rs`, which runs them under another seed
//! (and the shedding scenario with one admission slot).

mod support;

use std::time::Duration;

use proptest::prelude::*;

use piano::core::error::PianoError;
use piano::net::fault::{FaultPlan, FaultyTransport};
use piano::net::fixtures::{direct_decisions, feed_recording, hub_recording_reactor};
use piano::net::transport::{memory_hub, Listener};
use piano::net::{FeedHandle, ReactorServer};
use piano::prelude::*;

use support::{
    action_config, reactor_server, shedding_recovers, stalled_feed_times_out_alone,
    survivable_faults_match_direct,
};

const SEED: u64 = 0xFA17;

fn fresh_server() -> ReactorServer {
    reactor_server(SEED, |_| {})
}

#[test]
fn survivable_faults_yield_byte_identical_decisions() {
    survivable_faults_match_direct(SEED);
}

#[test]
fn stalled_feed_times_out_alone_within_the_deadline() {
    stalled_feed_times_out_alone(SEED);
}

#[test]
fn overload_shedding_is_typed_and_recoverable() {
    shedding_recovers(SEED, 2, 4);
}

#[test]
fn timeout_variants_return_typed_errors() {
    let server = fresh_server();
    let reactor = server.start();
    let (connector, mut listener) = memory_hub();
    let transport = connector.connect().unwrap();
    server.register(listener.accept_conn().unwrap());
    let mut feed = FeedHandle::connect(transport, &[WireCodec::Raw]).unwrap();
    match feed.await_decision_timeout(Duration::from_millis(80)) {
        Err(PianoError::Timeout(_)) => {}
        other => panic!("expected Timeout, got {other:?}"),
    }
    // Disconnect mid-stream: with no resume window the gateway drops the
    // feed, and the drop unblocks the report wait.
    drop(feed);
    assert_eq!(server.wait_for_reports(1), 0, "the feed never reported");
    let stats = server.stats();
    assert_eq!(stats.connections_dropped, 1);
    assert_eq!(stats.drops.get(DropCause::Disconnect), 1);
    server.shutdown();
    reactor.join().expect("reactor thread");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Segmentation and latency chaos alone — arbitrary short reads and
    // writes on both directions, per-op delays, no cuts — must never
    // change a decision: framing reassembles any byte-stream slicing.
    #[test]
    fn chaos_segmentation_never_changes_decisions(seed in proptest::prelude::any::<u64>()) {
        const FEEDS: usize = 2;
        let baseline = direct_decisions(SEED, FEEDS);
        let server = fresh_server();
        let reactor = server.start();
        let (connector, mut listener) = memory_hub();
        let config = action_config(&server);
        let mut handles = Vec::with_capacity(FEEDS);
        for i in 0..FEEDS {
            let t = FaultyTransport::new(
                connector.connect().expect("hub open"),
                FaultPlan::chaos(seed ^ i as u64),
            );
            server.register(listener.accept_conn().expect("accept"));
            handles.push(
                FeedHandle::connect(t, &[WireCodec::I16Delta]).expect("chaos handshake"),
            );
        }
        let clients: Vec<_> = handles
            .into_iter()
            .map(|mut feed| {
                let config = config.clone();
                std::thread::spawn(move || {
                    let rec = feed_recording(feed.challenge(), &config);
                    feed.send_recording(&rec, 1_024, 4).expect("stream");
                    feed.finish().expect("stream end");
                    feed.await_decision().expect("verdict")
                })
            })
            .collect();
        prop_assert_eq!(
            server
                .wait_for_reports_timeout(FEEDS, Duration::from_secs(60))
                .expect("reports"),
            FEEDS
        );
        let hub = hub_recording_reactor(&server);
        prop_assert_eq!(server.scan_and_decide(&hub, 16_384), FEEDS);
        let decisions: Vec<AuthDecision> =
            clients.into_iter().map(|t| t.join().unwrap()).collect();
        server.shutdown();
        reactor.join().expect("reactor thread");
        prop_assert_eq!(decisions, baseline);
    }
}
