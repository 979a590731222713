//! Fleet-scale wire ingestion over **real endpoints**: hundreds of
//! client feeds and one gateway server moving framed, codec-compressed
//! audio through actual byte streams.
//!
//! ```text
//! cargo run --release --example fleet_ingest            # 200 feeds, in-memory
//! PIANO_FLEET_FEEDS=500 cargo run --release --example fleet_ingest
//! PIANO_WIRE_CODEC=off  cargo run --release --example fleet_ingest
//! PIANO_NET_TCP=1       cargo run --release --example fleet_ingest   # loopback sockets
//! PIANO_NET_FAULT_SEED=0xFA17 cargo run --release --example fleet_ingest  # chaos mode
//! cargo run --release --example fleet_ingest -- --faults             # chaos, default seed
//! PIANO_NET_RECHALLENGE=1 \
//!                       cargo run --release --example fleet_ingest   # standing rounds
//! ```
//!
//! The scenario: a gateway authenticates every user in a building at
//! once. Each user's *thin* vouching wearable cannot run Algorithm 1
//! itself, so it connects to the gateway (`FeedHandle`), negotiates the
//! audio codec (`PIANO_WIRE_CODEC`, default i16-delta — ≈5× fewer wire
//! bytes), receives the Step II challenge, and streams its quantized
//! microphone recording as length-prefixed batches, pausing on `Busy`
//! and resuming on `Credit`. The gateway ([`ReactorServer`]) drives
//! every connection's state machine — `FrameReader` → `IngestFeed` →
//! voucher session — from ONE event-loop thread and routes every Step V
//! report into one `AuthService`. The gateway's own microphone carries
//! every session's reference signals; ONE scan pass over it serves all
//! sessions of the epoch, after which the reactor delivers each verdict
//! back over its connection.
//!
//! Transport: a deterministic in-memory duplex by default; set
//! `PIANO_NET_TCP=1` to run the same stack over loopback TCP sockets,
//! which the reactor polls in probe mode (falls back to in-memory where
//! binding 127.0.0.1 fails).
//!
//! **Chaos mode** (`PIANO_NET_FAULT_SEED=<seed>` or `--faults`): every
//! client link is wrapped in a seeded [`FaultyTransport`] — arbitrary
//! read/write segmentation and latency on all feeds, plus mid-stream
//! disconnect cuts (write-side and read-side) on half of them. Clients
//! run behind [`ResilientFeed`], so cut links redial with jittered
//! backoff and resume their wire session into the gateway's 10 s resume
//! window; the run asserts the fleet still reaches 100% granted verdicts
//! with no `protocol` drop (a redial after a lost verdict is adopted at
//! once) and prints the per-cause drop and resilience counters.
//!
//! **Re-challenge mode** (`PIANO_NET_RECHALLENGE=1`): granted feeds
//! stay connected after their verdict and the gateway re-verifies the
//! whole standing fleet over those live connections — two wire
//! re-challenge rounds (`Recheck` → `RecheckAudio` → `RecheckVerdict`),
//! each an epoch with fresh signals and a fresh hub scan, before `end_standing`
//! closes the fleet. Composes with chaos mode (cut feeds answer their
//! rounds on the resumed link).

use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use piano::core::wire::WireCodec;
use piano::net::fixtures::{
    feed_recording, hub_recording_reactor, recheck_recording, FEED_REC_LEN,
};
use piano::net::transport::{memory_hub, tcp_loopback, Listener, MemoryStream, Transport};
use piano::net::{
    FaultPlan, FaultyTransport, FeedHandle, FeedStats, ReactorServer, ResilientFeed, RetryPolicy,
    ServerConfig,
};
use piano::prelude::*;

/// Wire re-challenge rounds the standing epilogue runs
/// (`PIANO_NET_RECHALLENGE=1`).
const RECHECK_ROUNDS: u32 = 2;

/// Generous bound for fleet-scale waits (chaos latency included).
const FLEET_WAIT: Duration = Duration::from_secs(120);

/// A client thread's result: its verdict, plus the resilience counters
/// of a chaos-mode feed.
type Client = JoinHandle<(AuthDecision, Option<FeedStats>)>;

fn main() {
    let feeds: usize = std::env::var("PIANO_FLEET_FEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    let codec = WireCodec::from_env();
    let rechallenge = std::env::var("PIANO_NET_RECHALLENGE")
        .map(|v| v == "1")
        .unwrap_or(false);
    let use_tcp = std::env::var("PIANO_NET_TCP")
        .map(|v| v == "1")
        .unwrap_or(false);
    let fault_seed = std::env::var("PIANO_NET_FAULT_SEED")
        .ok()
        .and_then(|v| {
            let v = v.trim();
            v.strip_prefix("0x")
                .map(|h| u64::from_str_radix(h, 16).ok())
                .unwrap_or_else(|| v.parse().ok())
        })
        .or_else(|| std::env::args().any(|a| a == "--faults").then_some(0xFA17));

    let server = ReactorServer::new(
        ShardedAuthService::new(PianoConfig::with_threshold(1.0), 1),
        ChaCha8Rng::seed_from_u64(0xF1EE7),
        ServerConfig {
            // Cut links resume into a window; clean runs have none, so a
            // lost transport is a counted drop.
            resume_window: if fault_seed.is_some() {
                Duration::from_secs(10)
            } else {
                Duration::ZERO
            },
            standing: rechallenge,
            ..ServerConfig::default()
        },
    );
    let action = server
        .service()
        .with_default(|s| s.config().action.clone())
        .expect("the service exists");
    println!(
        "fleet gateway{}: {feeds} feeds, codec {codec:?}, one reactor thread",
        if fault_seed.is_some() { " (CHAOS)" } else { "" },
    );
    let reactor = server.start();

    let t_start = Instant::now();
    // Pick the transport: seeded faulty links in chaos mode, loopback TCP
    // when asked for (and available), the in-memory duplex otherwise.
    let clients = match (fault_seed, use_tcp.then(tcp_loopback).flatten()) {
        (Some(seed), _) => {
            println!("transport: in-memory duplex wrapped in seeded FaultyTransport");
            chaos_clients(&server, seed, feeds, codec, &action, rechallenge)
        }
        (None, Some((listener, addr))) => {
            println!("transport: loopback TCP on {addr}");
            spawn_register_loop(&server, listener);
            clean_clients(feeds, codec, &action, rechallenge, || {
                std::net::TcpStream::connect(addr).expect("connect loopback")
            })
        }
        (None, None) => {
            if use_tcp {
                println!("transport: loopback TCP unavailable, using in-memory duplex");
            } else {
                println!("transport: in-memory duplex");
            }
            let (connector, listener) = memory_hub();
            spawn_register_loop(&server, listener);
            clean_clients(feeds, codec, &action, rechallenge, || {
                connector.connect().expect("memory hub open")
            })
        }
    };
    println!(
        "opened {feeds} sessions ({} signatures, one coarse pass per tick)",
        feeds * 2
    );

    // Wait until every feed streamed its recording and reported (a
    // dropped feed counts toward the wait, so this cannot hang), then
    // scan the gateway's own microphone once for the whole fleet —
    // handed to the reactor by refcount, not by copy.
    let reported = server
        .wait_for_reports_timeout(feeds, FLEET_WAIT)
        .expect("fleet reports");
    assert_eq!(reported, feeds, "every feed reports");
    let hub: std::sync::Arc<[f64]> = hub_recording_reactor(&server).into();
    let decided = server.scan_and_decide_arc(std::sync::Arc::clone(&hub), 16_384);
    assert_eq!(decided, feeds, "every session decides");
    // The codec compresses the authentication stream; re-check audio
    // rides raw frames, so the saving is judged before the rounds.
    let epoch_compression = server.stats().compression_ratio();
    if rechallenge {
        drive_recheck_rounds(&server, feeds);
    }

    let mut granted = 0usize;
    let (mut retries, mut resumes, mut backoff) = (0u64, 0u64, Duration::ZERO);
    for t in clients {
        let (decision, s) = t.join().expect("client thread");
        match decision {
            AuthDecision::Granted { distance_m } => {
                assert!((distance_m - 0.5).abs() < 0.1, "distance {distance_m} m");
                granted += 1;
            }
            other => panic!("expected grant, got {other:?}"),
        }
        if let Some(s) = s {
            retries += s.retries;
            resumes += s.resumes;
            backoff += s.backoff_total;
        }
    }
    let elapsed = t_start.elapsed().as_secs_f64();
    server.shutdown();
    reactor.join().expect("reactor thread");

    let stats = server.stats();
    println!("\n--- service stats ---\n{stats}");
    assert_eq!(stats.busy_replies, stats.credit_replies);
    if codec == WireCodec::I16Delta {
        assert!(
            epoch_compression >= 3.5,
            "codec ratio {epoch_compression:.2} over the authentication stream"
        );
    }
    if fault_seed.is_some() {
        println!(
            "client resilience: {retries} failed redials, {resumes} resumes, \
             {:.1} ms total backoff",
            backoff.as_secs_f64() * 1e3
        );
        let cut_feeds = feeds.div_ceil(4) + (feeds + 2) / 4; // i%4 == 0 and == 1
        assert!(
            stats.resumes as usize >= cut_feeds,
            "every cut feed resumed: {} < {cut_feeds}",
            stats.resumes
        );
        assert!(stats.connections_suspended >= 1, "cuts suspended streams");
        assert_eq!(
            stats.drops.total(),
            stats.connections_dropped,
            "per-cause drops account for every drop"
        );
        assert_eq!(
            stats.drops.get(DropCause::Protocol),
            0,
            "every redial was adopted by its suspended feed"
        );
    } else {
        assert!(
            stats.busy_replies > 0,
            "the sweep must exercise the Busy path"
        );
        assert_eq!(stats.connections_dropped, 0);
    }
    println!(
        "\n{granted}/{feeds} sessions granted at ≈0.50 m in {elapsed:.2} s on ONE reactor \
         thread ({:.0} session·samples/s, peak {} B resident per connection)",
        (feeds * hub.len()) as f64 / elapsed,
        server.peak_conn_bytes()
    );
    println!(
        "audio scanned: {:.1} s hub + {:.1} s per feed = {:.1} M samples total",
        hub.len() as f64 / 44_100.0,
        FEED_REC_LEN as f64 / 44_100.0,
        (hub.len() + feeds * FEED_REC_LEN) as f64 / 1e6
    );
}

/// Registers every connection `listener` accepts with the reactor —
/// resumed connections dial back at unpredictable times, so this is a
/// loop, not a fixed count.
fn spawn_register_loop<L: Listener + 'static>(server: &ReactorServer, mut listener: L) {
    let server = server.clone();
    std::thread::spawn(move || {
        while let Ok(conn) = listener.accept_conn() {
            server.register(conn);
        }
    });
}

/// Connects `feeds` clean clients through `connect` (handshakes in
/// order, so session randomness binds to feed order and the run is
/// reproducible) and spawns one client thread per feed.
fn clean_clients<T: Transport + Send + 'static>(
    feeds: usize,
    codec: WireCodec,
    action: &ActionConfig,
    rechallenge: bool,
    connect: impl Fn() -> T,
) -> Vec<Client> {
    let handles: Vec<FeedHandle<T>> = (0..feeds)
        .map(|_| FeedHandle::connect(connect(), &[codec]).expect("handshake"))
        .collect();
    handles
        .into_iter()
        .map(|mut feed| {
            let action = action.clone();
            std::thread::spawn(move || {
                // The wearable reconstructs both signals from the Step II
                // challenge, "hears" them 5 871 samples apart (0.50 m),
                // and streams what its 16-bit mic captured.
                let rec = feed_recording(feed.challenge(), &action);
                feed.send_recording(&rec, 1_024, 4).expect("stream");
                feed.finish().expect("stream end");
                let decision = feed.await_decision().expect("verdict");
                if rechallenge && decision.is_granted() {
                    answer_recheck_rounds(&mut feed, &action);
                }
                (decision, None)
            })
        })
        .collect()
}

/// Chaos mode's clients: the same fleet over seeded faulty links. Half
/// the feeds suffer a mid-stream disconnect (alternating write-side and
/// read-side cuts); the rest run under segmentation/latency chaos. Cuts
/// are scripted to land only past the handshake, so session randomness
/// still binds to feed order.
fn chaos_clients(
    server: &ReactorServer,
    seed: u64,
    feeds: usize,
    codec: WireCodec,
    action: &ActionConfig,
    rechallenge: bool,
) -> Vec<Client> {
    println!(
        "chaos schedule: fault seed {seed:#x}, {} feed(s) scheduled for mid-stream cuts",
        feeds - feeds / 2
    );
    let (connector, listener) = memory_hub();
    spawn_register_loop(server, listener);
    let mut fleet = Vec::with_capacity(feeds);
    for i in 0..feeds {
        let fseed = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let plan = match i % 4 {
            0 => FaultPlan::clean(fseed).with_write_disconnect(4_000 + 512 * (i as u64 % 7)),
            1 => FaultPlan::clean(fseed), // read-side cut scripted below
            _ => FaultPlan::chaos(fseed), // segmentation + latency, no cuts
        };
        let t = FaultyTransport::new(connector.connect().expect("hub open"), plan);
        let mut handle = FeedHandle::connect(t, &[codec]).expect("faulty handshake");
        if i % 4 == 1 {
            let seen = handle.transport_mut().read_bytes();
            handle
                .transport_mut()
                .set_read_disconnect(seen + 10 + (i as u64 % 40));
        }
        let connector = connector.clone();
        let mut redials = 0u64;
        let dial = move || -> std::io::Result<FaultyTransport<MemoryStream>> {
            redials += 1;
            Ok(FaultyTransport::new(
                connector.connect()?,
                FaultPlan::clean(fseed ^ redials),
            ))
        };
        fleet.push(ResilientFeed::adopt(
            handle,
            dial,
            RetryPolicy {
                jitter_seed: fseed,
                ..RetryPolicy::default()
            },
        ));
    }
    fleet
        .into_iter()
        .map(|mut feed| {
            let action = action.clone();
            std::thread::spawn(move || {
                let rec = feed_recording(feed.handle().challenge(), &action);
                feed.send_recording(&rec, 1_024, 4)
                    .expect("stream survives faults");
                let decision = feed
                    .finish_and_await(FLEET_WAIT)
                    .expect("verdict survives faults");
                if rechallenge && decision.is_granted() {
                    // Rounds run on the live (possibly resumed) link,
                    // past the scripted cuts.
                    answer_recheck_rounds(feed.handle_mut(), &action);
                }
                (decision, Some(feed.stats()))
            })
        })
        .collect()
}

/// Client half of the re-challenge epilogue: answers [`RECHECK_ROUNDS`]
/// wire re-check rounds with the granted 0.50 m geometry, then expects
/// `end_standing` to close the connection.
fn answer_recheck_rounds<T: Transport>(feed: &mut FeedHandle<T>, action: &ActionConfig) {
    for round in 1..=RECHECK_ROUNDS {
        let recheck = feed.await_recheck(FLEET_WAIT).expect("re-challenge");
        let rec = recheck_recording(&recheck, action);
        feed.answer_recheck(round, &rec, 1_024)
            .expect("round answer");
        let verdict = feed
            .await_recheck_verdict(round, FLEET_WAIT)
            .expect("round verdict");
        assert!(
            verdict.is_granted(),
            "standing round {round} verdict {verdict:?}"
        );
    }
    assert!(
        feed.await_recheck(FLEET_WAIT).is_err(),
        "standing service ends with a close"
    );
}

/// Host half of the re-challenge epilogue: every round re-challenges
/// the whole standing fleet over its live connections (fresh per-round
/// sessions, fresh signals) and scans one fresh hub take.
fn drive_recheck_rounds(server: &ReactorServer, feeds: usize) {
    let standing = server
        .wait_for_standing(feeds, FLEET_WAIT)
        .expect("granted feeds park standing");
    assert_eq!(standing, feeds, "every granted feed parks standing");
    println!("\nre-challenge epilogue: {feeds} standing feeds, {RECHECK_ROUNDS} wire rounds");
    for round in 1..=u64::from(RECHECK_ROUNDS) {
        server.begin_recheck_round();
        let ready = server
            .wait_for_recheck_reports(feeds, FLEET_WAIT)
            .expect("round reports");
        assert_eq!(ready, feeds, "round {round}: every standing feed answers");
        let hub: std::sync::Arc<[f64]> = hub_recording_reactor(server).into();
        let decided = server.recheck_scan_and_decide_arc(hub, 16_384);
        assert_eq!(decided, feeds, "round {round}: every re-check decides");
        println!("  round {round}: {decided}/{feeds} standing sessions re-verified");
    }
    server.end_standing();
}
