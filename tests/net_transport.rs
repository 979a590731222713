//! End-to-end transport conformance: the byte-stream layer must move
//! audio without changing results.
//!
//! * Framed messages survive any segmentation of a real transport's byte
//!   stream (threads, partial reads — not just the sans-IO reader).
//! * **Long-lived server conformance:** 100 feeds served as three
//!   epochs on one server, codecs alternating, decide exactly as three
//!   direct-ingestion epochs on one `AuthService` with one continued
//!   RNG, and each epoch leaves no session open
//!   (`tests/reactor_conformance.rs` runs 100 feeds in one epoch per
//!   codec); so does a small fleet under the environment-selected
//!   codec.
//! * A connection that loses framing, or ignores `Busy` past the hard
//!   limit, is dropped alone: its cause is counted and every other feed
//!   still decides exactly as direct `AuthService` ingestion does.
//! * A loopback-TCP smoke runs the same stack over real sockets — which
//!   the reactor serves in probe mode, having no readiness signal for
//!   them — auto-skipping where binding 127.0.0.1 fails.

mod support;

use std::thread::JoinHandle;

use piano::core::wire::{FrameReader, Message, WireCodec};
use piano::net::fixtures::{
    direct_decisions, direct_epoch_decisions, feed_recording, hub_recording_reactor,
};
use piano::net::transport::{memory_hub, memory_pair, tcp_loopback, Listener, Transport};
use piano::net::{FeedHandle, ReactorServer};
use piano::prelude::*;

use support::{action_config, epoch_decisions, fleet_decisions, reactor_server};

const SEED: u64 = 0xF1EE7;

fn fresh_server(high_water: usize, drain_chunk: usize) -> ReactorServer {
    reactor_server(SEED, |cfg| {
        cfg.high_water = high_water;
        cfg.drain_chunk = drain_chunk;
    })
}

/// Streams the feed's fixture recording on its own thread and returns
/// the verdict it receives.
fn spawn_client<T: Transport + Send + 'static>(
    mut feed: FeedHandle<T>,
    config: &ActionConfig,
) -> JoinHandle<AuthDecision> {
    let config = config.clone();
    std::thread::spawn(move || {
        let rec = feed_recording(feed.challenge(), &config);
        feed.send_recording(&rec, 1_024, 4).expect("stream");
        feed.finish().expect("stream end");
        feed.await_decision().expect("verdict")
    })
}

#[test]
fn framed_stream_survives_any_transport_segmentation() {
    // One thread writes a frame stream in awkward slices; the peer
    // reassembles. Every message must arrive intact and in order.
    let msgs: Vec<Message> = (0..40)
        .map(|i| match i % 4 {
            0 => Message::AudioChunk {
                session: 9,
                seq: i as u32,
                samples: vec![i as f64; 100 + i].into(),
            },
            1 => Message::AudioBatchI16 {
                session: 9,
                start_seq: i as u32,
                chunks: vec![(0..50 + i).map(|j| (j * 31) as i16).collect::<Vec<i16>>()].into(),
            },
            2 => Message::Busy {
                session: 9,
                buffered_samples: i as u64,
                high_water: 1,
            },
            _ => Message::StreamEnd { session: i as u64 },
        })
        .collect();
    let stream: Vec<u8> = msgs.iter().flat_map(|m| m.encode_framed()).collect();
    let (mut client, mut server) = memory_pair();
    let writer = {
        let stream = stream.clone();
        std::thread::spawn(move || {
            // Deterministically awkward slice lengths: 1, 2, …, 17, 1, …
            let mut pos = 0;
            let mut step = 1;
            while pos < stream.len() {
                let end = (pos + step).min(stream.len());
                client.write_all(&stream[pos..end]).unwrap();
                pos = end;
                step = step % 17 + 1;
            }
            client
        })
    };
    let mut reader = FrameReader::new();
    let mut got = Vec::new();
    let mut buf = [0u8; 97];
    while got.len() < msgs.len() {
        let n = server.read_some(&mut buf).unwrap();
        assert!(n > 0, "stream ended early");
        reader.push(&buf[..n]);
        while let Some(m) = reader.next_frame().unwrap() {
            got.push(m);
        }
    }
    assert_eq!(got, msgs);
    drop(writer.join().unwrap());
}

#[test]
fn fleet_runs_under_the_env_selected_codec() {
    // The CI matrix sets PIANO_WIRE_CODEC ∈ {off, i16-delta}; this fleet
    // negotiates whatever the environment selected, so the suite's wire
    // traffic genuinely differs between matrix entries.
    let decisions = fleet_decisions(SEED, 3, WireCodec::from_env());
    assert_eq!(decisions, direct_decisions(SEED, 3));
}

#[test]
fn server_loop_decisions_match_direct_ingestion_for_100_feeds() {
    // 100 feeds as three epochs on one long-lived server.
    const EPOCHS: [usize; 3] = [34, 33, 33];
    let direct = direct_epoch_decisions(SEED, &EPOCHS);
    assert!(direct.iter().flatten().all(AuthDecision::is_granted));
    let server = reactor_server(SEED, |_| {});
    let reactor = server.start();
    for (epoch, (&feeds, direct)) in EPOCHS.iter().zip(&direct).enumerate() {
        let codec = if epoch % 2 == 0 {
            WireCodec::Raw
        } else {
            WireCodec::I16Delta
        };
        let decisions = epoch_decisions(&server, feeds, codec);
        assert_eq!(&decisions, direct, "epoch {epoch} ({codec:?}) diverged");
        assert_eq!(
            server.service().session_count(),
            0,
            "epoch {epoch} left sessions open"
        );
    }
    let stats = server.stats();
    assert_eq!(stats.connections, 100);
    assert_eq!(stats.connections_dropped, 0);
    assert_eq!(stats.sessions_decided, 100);
    assert_eq!(server.session_ids().len(), 100);
    server.shutdown();
    reactor.join().expect("reactor thread");
}

#[test]
fn poisoned_connection_is_dropped_alone() {
    const GOOD: usize = 3;
    let baseline = direct_decisions(SEED, GOOD);
    let server = fresh_server(6_000, 2_048);
    let reactor = server.start();
    let (connector, mut listener) = memory_hub();
    let config = action_config(&server);

    // Healthy feeds handshake first, so their session randomness matches
    // the direct baseline; the malicious client connects last.
    let mut handles = Vec::new();
    for _ in 0..GOOD + 1 {
        let transport = connector.connect().unwrap();
        server.register(listener.accept_conn().unwrap());
        handles.push(FeedHandle::connect(transport, &[WireCodec::I16Delta]).unwrap());
    }
    let mut bad = handles.pop().unwrap();
    let bad_thread = std::thread::spawn(move || {
        // One honest batch, then an oversized length prefix — the
        // receiver's reader poisons and the connection is dropped.
        bad.send_batch(&[vec![1.0; 512]]).unwrap();
        bad.into_transport()
            .write_all(&u32::MAX.to_le_bytes())
            .unwrap();
    });
    let good: Vec<_> = handles
        .into_iter()
        .map(|feed| spawn_client(feed, &config))
        .collect();

    bad_thread.join().unwrap();
    // The dropped connection counts toward the wait, so waiting on the
    // full connection count cannot hang; only the healthy feeds report.
    assert_eq!(server.wait_for_reports(GOOD + 1), GOOD);
    let hub = hub_recording_reactor(&server);
    assert_eq!(server.scan_and_decide(&hub, 16_384), GOOD);
    let decisions: Vec<AuthDecision> = good.into_iter().map(|t| t.join().unwrap()).collect();
    assert_eq!(
        decisions, baseline,
        "healthy feeds unaffected by the poison"
    );
    let stats = server.stats();
    assert_eq!(stats.connections, (GOOD + 1) as u64);
    assert_eq!(stats.connections_dropped, 1);
    assert_eq!(stats.drops.get(DropCause::Framing), 1, "under Framing");
    assert_eq!(stats.sessions_decided, GOOD as u64);
    server.shutdown();
    reactor.join().expect("reactor thread");
}

#[test]
fn sender_ignoring_busy_past_the_hard_limit_is_dropped() {
    // A tiny high-water mark and a drain rate of one sample per turn: the
    // rogue sender outruns the scan and blows through the hard limit,
    // while a credit-paced feed on the same server still decides.
    let baseline = direct_decisions(SEED, 1);
    let server = fresh_server(500, 1);
    let reactor = server.start();
    let (connector, mut listener) = memory_hub();
    let config = action_config(&server);

    let transport = connector.connect().unwrap();
    server.register(listener.accept_conn().unwrap());
    let healthy = spawn_client(
        FeedHandle::connect(transport, &[WireCodec::Raw]).unwrap(),
        &config,
    );

    let transport = connector.connect().unwrap();
    server.register(listener.accept_conn().unwrap());
    let feed = FeedHandle::connect(transport, &[WireCodec::Raw]).unwrap();
    let session = feed.session();
    // Bypass the handle's pacing: write max-size batches directly,
    // never reading Busy.
    let mut t = feed.into_transport();
    let chunk = vec![1.0f64; piano::core::wire::MAX_AUDIO_CHUNK_SAMPLES];
    let mut seq = 0u32;
    let sent = loop {
        let msg = Message::AudioBatch {
            session,
            start_seq: seq,
            chunks: vec![chunk.clone(); 4].into(),
        };
        seq += 4;
        if t.write_all(&msg.encode_framed()).is_err() {
            // The server dropped us: the pipe is closed.
            break seq;
        }
        if seq > 64 {
            break seq; // plenty past the hard limit either way
        }
    };
    assert!(sent > 4, "more than one batch went out");

    assert_eq!(
        server.wait_for_reports(2),
        1,
        "only the healthy feed reports"
    );
    let hub = hub_recording_reactor(&server);
    assert_eq!(server.scan_and_decide(&hub, 16_384), 1);
    assert_eq!(vec![healthy.join().unwrap()], baseline);
    let stats = server.stats();
    assert_eq!(stats.connections_dropped, 1, "only the rogue dropped");
    assert_eq!(stats.drops.get(DropCause::Overrun), 1, "under Overrun");
    drop(t);
    server.shutdown();
    reactor.join().expect("reactor thread");
}

#[test]
fn tcp_loopback_smoke_or_skip() {
    let Some((mut listener, addr)) = tcp_loopback() else {
        eprintln!("skipping: loopback TCP unavailable in this environment");
        return;
    };
    const FEEDS: usize = 2;
    let baseline = direct_decisions(SEED, FEEDS);
    let server = fresh_server(6_000, 2_048);
    let reactor = server.start();
    let config = action_config(&server);
    let mut clients = Vec::new();
    for _ in 0..FEEDS {
        let transport = std::net::TcpStream::connect(addr).expect("connect loopback");
        server.register(listener.accept_conn().expect("accept loopback"));
        let feed = FeedHandle::connect(transport, &[WireCodec::I16Delta]).expect("handshake");
        clients.push(spawn_client(feed, &config));
    }
    assert_eq!(server.wait_for_reports(FEEDS), FEEDS);
    let hub = hub_recording_reactor(&server);
    assert_eq!(server.scan_and_decide(&hub, 16_384), FEEDS);
    let decisions: Vec<AuthDecision> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    assert_eq!(decisions, baseline, "TCP transport diverged from direct");
    assert_eq!(server.stats().connections_dropped, 0);
    server.shutdown();
    reactor.join().expect("reactor thread");
}
