//! End-to-end decision invariance across DSP backends.
//!
//! The kernel-level contract (`tests/simd_equivalence.rs`) is that every
//! SIMD backend is bit-identical to scalar; this suite closes the loop at
//! the system level: the streaming-equivalence scenario and the
//! net-transport conformance scenario, forced to each available backend
//! via `simd::set_backend` (the programmatic equivalent of running the
//! process under `PIANO_DSP_SIMD=<name>`, which the CI matrix also does),
//! must produce **identical** early-detection events, `finish()` scan
//! results, and grant/deny decisions to the scalar run.
//!
//! Backend forcing is process-global, so every test here serializes on
//! one lock and restores the environment's choice before releasing it.

use std::sync::{Arc, Mutex, OnceLock};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use piano::core::detect::{Detector, ScanResult, SignalSignature};
use piano::core::stream::StreamEvent;
use piano::core::wire::WireCodec;
use piano::dsp::simd::{self, DspBackend};
use piano::net::fixtures::{direct_decisions, feed_recording, hub_recording_reactor};
use piano::net::transport::{memory_hub, Listener};
use piano::net::{FeedHandle, ReactorServer, ServerConfig};
use piano::prelude::*;

/// Serializes backend forcing across this binary's test threads.
fn backend_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Runs `scenario` once per available backend (scalar first) and returns
/// `(backend, result)` pairs, restoring the env-selected backend after.
fn per_backend<T>(scenario: impl Fn() -> T) -> Vec<(DspBackend, T)> {
    let _guard = backend_lock().lock().expect("backend lock");
    let mut runs = Vec::new();
    simd::set_backend(DspBackend::Scalar).expect("scalar always available");
    runs.push((DspBackend::Scalar, scenario()));
    for backend in simd::available_backends() {
        if backend == DspBackend::Scalar {
            continue;
        }
        simd::set_backend(backend).expect("listed as available");
        assert_eq!(simd::active_backend(), backend);
        runs.push((backend, scenario()));
    }
    simd::reset_backend_from_env();
    runs
}

/// The streaming-equivalence scenario: two signatures embedded in a noisy
/// recording, streamed in audio-callback chunks. Returns everything the
/// stream produced: provisional events and the exact finish result.
fn streaming_scenario() -> (Vec<StreamEvent>, ScanResult) {
    let cfg = ActionConfig::default();
    let detector = Arc::new(Detector::new(&cfg));
    let mut rng = ChaCha8Rng::seed_from_u64(0xDEC1DE);
    let sa = ReferenceSignal::random(&cfg, &mut rng);
    let sv = ReferenceSignal::random(&cfg, &mut rng);
    let mut rec: Vec<f64> = (0..cfg.recording_len())
        .map(|_| rng.gen_range(-0.01..0.01))
        .collect();
    for (i, &v) in sa.waveform().iter().enumerate() {
        rec[23_017 + i] += 0.35 * v;
    }
    for (i, &v) in sv.waveform().iter().enumerate() {
        rec[51_234 + i] += 0.3 * v;
    }
    let sigs = vec![
        SignalSignature::of(&sa, &cfg),
        SignalSignature::of(&sv, &cfg),
    ];
    let mut stream = StreamingDetector::new(detector, sigs);
    let mut events = Vec::new();
    for chunk in rec.chunks(1_024) {
        events.extend(stream.push(chunk));
    }
    (events, stream.finish())
}

/// Session randomness of the transport scenario's gateway.
const SEED: u64 = 0xF1EE7;

/// The net-transport conformance scenario: `feeds` concurrent clients
/// over the in-memory transport into one `ReactorServer`, hub scanned
/// once. Returns decisions in handshake order.
fn transport_scenario(feeds: usize, codec: WireCodec) -> Vec<AuthDecision> {
    let server = ReactorServer::new(
        ShardedAuthService::new(PianoConfig::with_threshold(1.0), 1),
        ChaCha8Rng::seed_from_u64(SEED),
        ServerConfig::default(),
    );
    let reactor = server.start();
    let (connector, mut listener) = memory_hub();
    let config = server
        .service()
        .with_default(|s| s.config().action.clone())
        .expect("shard 0 exists");

    let mut handles = Vec::with_capacity(feeds);
    for _ in 0..feeds {
        let transport = connector.connect().expect("hub open");
        server.register(listener.accept_conn().expect("accept"));
        handles.push(FeedHandle::connect(transport, &[codec]).expect("handshake"));
    }
    let client_threads: Vec<_> = handles
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

    assert_eq!(server.wait_for_reports(feeds), feeds, "every feed reports");
    let hub = hub_recording_reactor(&server);
    assert_eq!(server.scan_and_decide(&hub, 16_384), feeds);
    let decisions: Vec<AuthDecision> = client_threads
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();
    server.shutdown();
    reactor.join().expect("reactor thread");
    decisions
}

#[test]
fn streaming_events_and_finish_are_identical_on_every_backend() {
    let runs = per_backend(streaming_scenario);
    let (_, (ref scalar_events, ref scalar_finish)) = runs[0];
    assert!(
        scalar_events
            .iter()
            .any(|e| matches!(e, StreamEvent::EarlyDetection { .. })),
        "scenario must exercise provisional detections"
    );
    assert!(scalar_finish.detections.iter().all(|d| d.is_found()));
    for (backend, (events, finish)) in &runs[1..] {
        assert_eq!(events, scalar_events, "{backend}: early events diverged");
        assert_eq!(finish, scalar_finish, "{backend}: finish() diverged");
    }
}

#[test]
fn transport_decisions_are_identical_on_every_backend() {
    for codec in [WireCodec::Raw, WireCodec::I16Delta] {
        let runs = per_backend(|| (transport_scenario(8, codec), direct_decisions(SEED, 8)));
        let (_, (ref scalar, _)) = runs[0];
        assert_eq!(scalar.len(), 8);
        assert!(
            scalar.iter().all(|d| d.is_granted()),
            "the 0.50 m fixture geometry must grant under every codec"
        );
        for (backend, (decisions, direct)) in &runs {
            assert_eq!(
                decisions, direct,
                "{backend}/{codec:?}: transport diverged from direct ingestion"
            );
            assert_eq!(
                decisions, scalar,
                "{backend}/{codec:?}: decisions diverged from scalar"
            );
        }
    }
}
