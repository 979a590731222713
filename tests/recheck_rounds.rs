//! Standing-session wire re-challenge conformance: a granted feed stays
//! connected and is re-verified over its live connection, round after
//! round, with no reconnect and no new wire session.
//!
//! * A re-check round that replays the original 0.50 m geometry grants
//!   again at ≈0.50 m. (Bit-exact batched-vs-sequential conformance is
//!   pinned in `piano_core::continuum` where both paths consume the same
//!   signal draws; over the wire every round carries *fresh* random
//!   signals, so distances agree to the geometry's tolerance, not to the
//!   bit.)
//! * A round answered from too far away is denied *for that feed only*,
//!   the denial does not tear the standing connection down, and the
//!   other feeds' verdicts are untouched.
//! * Re-check audio is accounted like stream audio: every round grows
//!   `frames_decoded` by the frames the clients wrote, and the server's
//!   wire (and raw) byte counts agree with the clients'.
//! * `end_standing` closes every parked connection; clients observe the
//!   close as a transport error on their next re-challenge wait.
//! * All of the above hold for a codec-off main stream and for an
//!   i16-delta one.
//! * Every session closes once its verdict is written: after the last
//!   round the service holds none.

use std::time::Duration;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use piano::core::error::PianoError;
use piano::net::fixtures::{
    embed, feed_recording, hub_recording_reactor, hub_recording_sharded, recheck_recording,
    FEED_REC_LEN, FEED_SA_OFFSET,
};
use piano::net::quantize_samples;
use piano::net::transport::{memory_hub, Listener};
use piano::net::{FeedHandle, ReactorServer, ServerConfig};
use piano::prelude::*;

const SEED: u64 = 0x057A_D1A6;
const FEEDS: usize = 3;
const ROUNDS: u32 = 2;
const WAIT: Duration = Duration::from_secs(30);

/// An `S_V` placement that ranges ≈1.56 m under the hub's 6 000-sample
/// geometry — past the 1.0 m threshold, so the round must deny.
const FAR_SV_OFFSET: usize = FEED_SA_OFFSET + 5_600;

/// Re-check audio chunk length, and the frames one round's answer
/// writes: the recording's chunks plus the empty `done` frame.
const RECHECK_CHUNK: usize = 1_024;
const FRAMES_PER_ANSWER: u64 = FEED_REC_LEN.div_ceil(RECHECK_CHUNK) as u64 + 1;

/// Granted connections park in the reactor's `Standing` phase
/// (re-challenge deadlines on the timer wheel, no thread per feed),
/// answer every round over the live connection, and close cleanly on
/// `end_standing`.
#[test]
fn reactor_standing_feeds_survive_rechallenge_rounds() {
    standing_rounds(WireCodec::Raw);
}

/// The same rounds behind an i16-delta main stream: re-check audio
/// keeps its raw framing.
#[test]
fn standing_feeds_survive_rechallenge_rounds() {
    standing_rounds(WireCodec::I16Delta);
}

/// Runs `FEEDS` standing feeds negotiating `codec` through the main
/// epoch and `ROUNDS` re-challenge rounds, each its own epoch.
fn standing_rounds(codec: WireCodec) {
    let server = ReactorServer::new(
        ShardedAuthService::new(PianoConfig::with_threshold(1.0), 1),
        ChaCha8Rng::seed_from_u64(SEED),
        ServerConfig {
            standing: true,
            ..ServerConfig::default()
        },
    );
    let reactor = server.start();
    let (connector, mut listener) = memory_hub();
    let config = server
        .service()
        .with_default(|s| s.config().action.clone())
        .expect("the service exists");

    let mut handles = Vec::with_capacity(FEEDS);
    for _ in 0..FEEDS {
        let transport = connector.connect().expect("hub open");
        let conn = listener.accept_conn().expect("accept");
        server.register(conn);
        handles.push(FeedHandle::connect(transport, &[codec]).expect("handshake"));
    }
    let client_threads: Vec<_> = handles
        .into_iter()
        .enumerate()
        .map(|(i, mut feed)| {
            let config = config.clone();
            std::thread::spawn(move || {
                let rec = feed_recording(feed.challenge(), &config);
                feed.send_recording(&rec, 1_024, 4).expect("stream");
                feed.finish().expect("stream end");
                let original = feed.await_decision().expect("verdict");
                assert!(original.is_granted(), "feed {i} grants in the main epoch");

                let mut verdicts = Vec::new();
                let mut round_bytes = Vec::new();
                for round in 1..=ROUNDS {
                    let recheck = feed.await_recheck(WAIT).expect("re-challenge");
                    let Message::Recheck {
                        round: r, sa, sv, ..
                    } = &recheck
                    else {
                        panic!("await_recheck returned {recheck:?}");
                    };
                    assert_eq!(*r, round, "rounds arrive in order");
                    // Feed 0 answers the final round from too far away;
                    // everyone else replays the granted geometry.
                    let rec = if i == 0 && round == ROUNDS {
                        let wave_a = sa.reconstruct(&config).expect("spec").waveform();
                        let wave_v = sv.reconstruct(&config).expect("spec").waveform();
                        let mut far = vec![0.0f64; FEED_REC_LEN];
                        embed(&mut far, &wave_a, FEED_SA_OFFSET, 0.3);
                        embed(&mut far, &wave_v, FAR_SV_OFFSET, 0.4);
                        quantize_samples(&far)
                    } else {
                        recheck_recording(&recheck, &config)
                    };
                    let before = feed.wire_audio_bytes();
                    feed.answer_recheck(round, &rec, RECHECK_CHUNK)
                        .expect("answer");
                    round_bytes.push(feed.wire_audio_bytes() - before);
                    verdicts.push(
                        feed.await_recheck_verdict(round, WAIT)
                            .expect("round verdict"),
                    );
                }
                // The server ended standing service: the connection
                // closes instead of opening round ROUNDS+1.
                let closed = feed.await_recheck(WAIT);
                assert!(
                    matches!(closed, Err(PianoError::Transport(_))),
                    "standing end surfaces as a transport close, got {closed:?}"
                );
                (verdicts, round_bytes)
            })
        })
        .collect();

    assert_eq!(server.wait_for_reports(FEEDS), FEEDS);
    let hub = hub_recording_reactor(&server);
    assert_eq!(server.scan_and_decide(&hub, 16_384), FEEDS);

    assert_eq!(
        server.wait_for_standing(FEEDS, WAIT).expect("feeds park"),
        FEEDS
    );
    // Per-round server-side audio accounting, compared below with what
    // the clients wrote.
    let mut server_rounds = Vec::new();
    for _ in 0..ROUNDS {
        let before = server.stats();
        server.begin_recheck_round();
        let ready = server
            .wait_for_recheck_reports(FEEDS, WAIT)
            .expect("round reports");
        assert_eq!(ready, FEEDS, "every standing feed answers each round");
        let ids = server.recheck_session_ids();
        assert_eq!(ids.len(), FEEDS);
        let hub = hub_recording_sharded(server.service(), &ids);
        assert_eq!(server.recheck_scan_and_decide(&hub, 16_384), FEEDS);
        let after = server.stats();
        assert_eq!(
            after.frames_decoded - before.frames_decoded,
            FEEDS as u64 * FRAMES_PER_ANSWER,
            "every re-check frame written is decoded and counted"
        );
        assert_eq!(
            after.raw_audio_bytes - before.raw_audio_bytes,
            after.wire_audio_bytes - before.wire_audio_bytes,
            "re-check audio rides the raw framing"
        );
        server_rounds.push(after.wire_audio_bytes - before.wire_audio_bytes);
    }
    server.end_standing();

    let results: Vec<(Vec<AuthDecision>, Vec<u64>)> = client_threads
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();
    for (r, &server_bytes) in server_rounds.iter().enumerate() {
        let client_bytes: u64 = results.iter().map(|(_, bytes)| bytes[r]).sum();
        assert_eq!(
            server_bytes,
            client_bytes,
            "round {}: server and clients disagree on re-check wire bytes",
            r + 1
        );
    }
    for (i, (verdicts, _)) in results.iter().enumerate() {
        assert_eq!(verdicts.len(), ROUNDS as usize);
        for (r, verdict) in verdicts.iter().enumerate() {
            if i == 0 && r + 1 == ROUNDS as usize {
                assert!(
                    matches!(verdict, AuthDecision::Denied { .. }),
                    "feed 0 answered round {ROUNDS} from ~1.56 m, got {verdict:?}"
                );
                continue;
            }
            let AuthDecision::Granted { distance_m } = verdict else {
                panic!("feed {i} round {} grants, got {verdict:?}", r + 1)
            };
            assert!(
                (distance_m - 0.50).abs() < 0.1,
                "feed {i}: round {} ranged {distance_m} m, expected ≈0.50",
                r + 1
            );
        }
    }

    // Neither the denied round nor the clean standing teardown is a
    // fault: no drop was counted, and no session — first authentication
    // or per-round — survived its verdict.
    assert_eq!(server.stats().connections_dropped, 0);
    assert_eq!(
        server.service().session_count(),
        0,
        "sessions are closed once their verdicts are written"
    );
    server.shutdown();
    reactor.join().expect("reactor thread");
}
