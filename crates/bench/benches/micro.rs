//! Micro-benchmarks of the computational hot paths: the 4096-point FFT
//! (real-input vs the retained padded reference), Algorithm 2's normalized
//! power (dense and sparse), the full Algorithm 1 scan (dense and sparse),
//! signal synthesis, and the channel renderer.
//!
//! Emits `BENCH_micro.json` in the workspace root with every measurement
//! plus the headline speedup ratios, so the perf trajectory is archived
//! per commit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use piano_core::config::ActionConfig;
use piano_core::detect::{Detector, ScanMode, SignalSignature};
use piano_core::signal::ReferenceSignal;
use piano_core::stream::StreamingDetector;
use piano_dsp::fft::{fft_real_padded, FftPlan, RealFftPlan};
use piano_dsp::simd::{self, DspBackend};
use piano_dsp::sparse::{GoertzelBank, SlidingDft};
use piano_dsp::Complex64;

/// Counts allocator calls and requested bytes so `measure_alloc` can
/// report the ingest path's heap traffic (the `alloc` summary block).
/// Pass-through otherwise; criterion timings are unaffected beyond two
/// relaxed atomic increments per allocation.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn bench_micro(c: &mut Criterion) {
    let config = ActionConfig::default();
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let signal = ReferenceSignal::random(&config, &mut rng);
    let signature = SignalSignature::of(&signal, &config);
    let detector = Detector::new(&config);

    // FFT 4096 — the unit the paper's compute budget counts. The padded
    // complex transform is the pre-optimization reference; the real-input
    // plan is what the detector actually runs.
    let plan = FftPlan::new(4096);
    let wave = signal.waveform();
    c.bench_function("fft_4096_naive", |b| {
        b.iter_batched(
            || {
                wave.iter()
                    .map(|&x| Complex64::from_real(x))
                    .collect::<Vec<_>>()
            },
            |mut buf| plan.forward_reference(&mut buf),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("fft_4096_naive_one_shot", |b| {
        b.iter(|| fft_real_padded(&wave))
    });
    let real_plan = RealFftPlan::new(4096);
    c.bench_function("fft_4096", |b| {
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        b.iter(|| real_plan.power_into(&wave, &mut scratch, &mut out))
    });

    // SIMD naive-vs-optimized pairs: the same three kernels pinned to the
    // scalar reference and to the active (best) backend. On hardware with
    // no SIMD backend the pairs coincide — the ratio reads 1.0 and the
    // scalar path is what ships.
    let active = simd::active_backend();
    c.bench_function("fft_4096_scalar", |b| {
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        b.iter(|| real_plan.power_into_with(&wave, &mut scratch, &mut out, DspBackend::Scalar))
    });
    c.bench_function("fft_4096_simd", |b| {
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        b.iter(|| real_plan.power_into_with(&wave, &mut scratch, &mut out, active))
    });
    let sliding_rec = &recording_for_sliding(&wave);
    for (id, backend) in [
        ("sliding_dft_scalar", DspBackend::Scalar),
        ("sliding_dft_simd", active),
    ] {
        c.bench_function(id, |b| {
            let mut sliding = SlidingDft::new(4096, 10, sliding_bench_bins());
            sliding.init_with(&sliding_rec[..4096], backend);
            let mut j = 0usize;
            b.iter(|| slide_once(&mut sliding, sliding_rec, &mut j, backend))
        });
    }
    let goertzel_bank = goertzel_bench_bank();
    for (id, backend) in [
        ("goertzel_bank_scalar", DspBackend::Scalar),
        ("goertzel_bank_simd", active),
    ] {
        c.bench_function(id, |b| {
            let mut powers = Vec::new();
            b.iter(|| goertzel_bank.powers_into_with(&wave, &mut powers, backend))
        });
    }

    // Algorithm 2 on a precomputed spectrum, dense and sparse.
    let spectrum = detector.window_spectrum(&wave);
    c.bench_function("norm_power_algorithm2", |b| {
        b.iter(|| detector.norm_power(&spectrum, &signature))
    });
    c.bench_function("norm_power_algorithm2_sparse_one_shot", |b| {
        b.iter(|| detector.norm_power_sparse(&wave, &signature))
    });

    // Algorithm 1 over a realistic 2 s recording with the signal embedded.
    let mut recording = vec![0.0; (2.0 * config.sample_rate) as usize];
    for (i, &v) in wave.iter().enumerate() {
        recording[30_000 + i] = 0.25 * v;
    }
    let mut group = c.benchmark_group("detection");
    group.sample_size(20);
    group.bench_function("algorithm1_scan_2s_naive", |b| {
        b.iter(|| detector.detect_many_mode(&recording, &[&signature], ScanMode::Dense))
    });
    group.bench_function("algorithm1_scan_2s", |b| {
        b.iter(|| detector.detect_many(&recording, &[&signature]))
    });

    // Streaming scans over the same recording. `stream_scan_2s` consumes
    // the whole buffer in audio-callback chunks and finishes (equivalent
    // result to `algorithm1_scan_2s`); `stream_to_decision` stops at the
    // first provisional detection — the latency-to-decision a live device
    // experiences, reached well before `recording_len()` samples.
    let shared = Arc::new(detector.clone());
    group.bench_function("stream_scan_2s", |b| {
        b.iter(|| {
            let mut s = StreamingDetector::new(Arc::clone(&shared), vec![signature.clone()]);
            for chunk in recording.chunks(1024) {
                let _ = s.push(chunk);
            }
            s.finish()
        })
    });
    group.bench_function("stream_to_decision", |b| {
        b.iter(|| {
            let mut s = StreamingDetector::new(Arc::clone(&shared), vec![signature.clone()]);
            for chunk in recording.chunks(1024) {
                if !s.push(chunk).is_empty() {
                    break;
                }
            }
            s.samples_consumed()
        })
    });
    group.finish();

    // Samples-to-decision for the summary (deterministic, measured once).
    let samples_to_decision = {
        let mut s = StreamingDetector::new(Arc::clone(&shared), vec![signature.clone()]);
        let mut at = recording.len();
        for chunk in recording.chunks(1024) {
            if !s.push(chunk).is_empty() {
                at = s.samples_consumed();
                break;
            }
        }
        at
    };

    // Fleet ingestion throughput (measured once, in the summary): many
    // sessions on one AuthService sharing a single scan group over one
    // hub stream.
    let fleet = measure_fleet_ingest(16);

    // Wire-transport ingestion (measured once, in the summary): the same
    // fleet shape moved through piano-net's in-memory transport with the
    // i16-delta codec — bytes/s over the wire plus the compression ratio.
    let net = measure_net_ingest(16);

    // Fault recovery (measured once, in the summary): the same wire
    // fleet with half the links cut mid-stream; clients redial and
    // resume, and the block records the recovery cost.
    let fault = measure_fault_recovery(8);

    // Continuous re-verification (measured once, in the summary): one
    // timer-wheel arm per standing session at fleet scale, swept to
    // exhaustion, with the per-op cost pinned at two populations so the
    // O(1) claim is measured rather than asserted.
    let continuous = measure_continuous(1 << 20);

    // Heap traffic of a standing feed (measured once, in the summary):
    // the pooled zero-copy ingest chain against the same frames decoded
    // without a pool — bytes per session and allocations per frame.
    let alloc = measure_alloc();

    // Per-backend kernel speedups (measured once, in the summary): every
    // available DSP backend against the scalar reference.
    let simd_speedups = measure_simd(&wave);

    // Step I synthesis.
    c.bench_function("reference_signal_synthesis", |b| {
        b.iter(|| signal.waveform())
    });

    // Channel render: one recording with one emission in an office.
    c.bench_function("acoustic_render_1s", |b| {
        use piano_acoustics::field::Emission;
        use piano_acoustics::*;
        b.iter_batched(
            || {
                let mut field = AcousticField::new(Environment::office(), 3);
                field.emit(Emission {
                    waveform: wave.clone(),
                    start_world_s: 0.2,
                    sample_interval_s: 1.0 / 44_100.0,
                    position: Position::ORIGIN,
                });
                field
            },
            |mut field| {
                field.render_recording(
                    &MicrophoneModel::phone(1),
                    &DeviceClock::ideal(),
                    Position::new(1.0, 0.0, 0.0),
                    0.0,
                    44_100,
                    44_100.0,
                )
            },
            BatchSize::SmallInput,
        )
    });

    export_summary(
        c,
        samples_to_decision,
        recording.len(),
        &fleet,
        &net,
        &fault,
        &continuous,
        &alloc,
        &simd_speedups,
    );
}

/// One deterministic heap-traffic measurement for the summary block.
struct AllocIngest {
    /// Frames in the measured steady-state window (warmup excluded).
    frames_per_session: usize,
    /// Heap bytes requested across the window, pooled vs unpooled chain.
    bytes_per_session_pooled: u64,
    bytes_per_session_unpooled: u64,
    /// Mean allocator calls per ingested frame.
    allocs_per_frame_pooled: f64,
    allocs_per_frame_unpooled: f64,
    /// `unpooled / pooled` bytes — the headline the pool exists for.
    /// A zero-alloc pooled window divides by 1 and reads as the full
    /// unpooled byte count.
    reduction_ratio: f64,
}

/// Drives identical pre-encoded frames (raw chunks and i16 batches,
/// silence — the standing-feed regime between challenges) through
/// `FrameReader → IngestFeed → StreamingDetector` twice: once on the
/// pooled zero-copy path, once decoding into fresh `Vec`s. Counts
/// allocator traffic over a steady-state window after a warmup that
/// fills the pool, the scan scratch, and the ring's first compaction.
fn measure_alloc() -> AllocIngest {
    use piano_core::pool::FramePool;
    use piano_core::wire::{FrameReader, IngestFeed, Message};

    const SESSION: u64 = 0xA110C;
    const CHUNK: usize = 1_024;
    const WARMUP_FRAMES: usize = 96;
    const MEASURED_FRAMES: usize = 64;

    let cfg = ActionConfig::default();
    let detector = Arc::new(Detector::new(&cfg));
    let mut rng = ChaCha8Rng::seed_from_u64(0xA110C);
    let sig = SignalSignature::of(&ReferenceSignal::random(&cfg, &mut rng), &cfg);

    let mut frames = Vec::with_capacity(WARMUP_FRAMES + MEASURED_FRAMES);
    let mut seq = 0u32;
    for i in 0..WARMUP_FRAMES + MEASURED_FRAMES {
        let msg = if i % 2 == 0 {
            let m = Message::AudioChunk {
                session: SESSION,
                seq,
                samples: vec![0.0; CHUNK].into(),
            };
            seq += 1;
            m
        } else {
            let m = Message::AudioBatchI16 {
                session: SESSION,
                start_seq: seq,
                chunks: vec![vec![0i16; CHUNK / 2]; 2].into(),
            };
            seq += 2;
            m
        };
        frames.push(msg.encode_framed());
    }

    // (calls, bytes) over the measured window for one ingest chain.
    let run = |pool: Option<FramePool>| -> (u64, u64) {
        let mut det = StreamingDetector::new(Arc::clone(&detector), vec![sig.clone()]);
        let mut reader = FrameReader::new();
        let mut feed = IngestFeed::new(SESSION, 1 << 16);
        if let Some(pool) = pool {
            reader.set_pool(pool.clone());
            feed.set_pool(pool);
        }
        let mut ingest = |frame: &[u8], reader: &mut FrameReader, feed: &mut IngestFeed| {
            reader.push(frame);
            while let Some(msg) = reader.next_frame().expect("clean stream") {
                feed.accept(&msg).expect("in-order audio");
            }
            feed.drain_pending(usize::MAX, |chunk| {
                let _ = det.push(chunk);
            });
        };
        for frame in &frames[..WARMUP_FRAMES] {
            ingest(frame, &mut reader, &mut feed);
        }
        let calls = ALLOC_CALLS.load(Ordering::Relaxed);
        let bytes = ALLOC_BYTES.load(Ordering::Relaxed);
        for frame in &frames[WARMUP_FRAMES..] {
            ingest(frame, &mut reader, &mut feed);
        }
        (
            ALLOC_CALLS.load(Ordering::Relaxed) - calls,
            ALLOC_BYTES.load(Ordering::Relaxed) - bytes,
        )
    };

    let (unpooled_calls, unpooled_bytes) = run(None);
    let (pooled_calls, pooled_bytes) = run(Some(FramePool::new()));
    AllocIngest {
        frames_per_session: MEASURED_FRAMES,
        bytes_per_session_pooled: pooled_bytes,
        bytes_per_session_unpooled: unpooled_bytes,
        allocs_per_frame_pooled: pooled_calls as f64 / MEASURED_FRAMES as f64,
        allocs_per_frame_unpooled: unpooled_calls as f64 / MEASURED_FRAMES as f64,
        reduction_ratio: unpooled_bytes as f64 / (pooled_bytes.max(1)) as f64,
    }
}

/// One deterministic fleet-ingest measurement for the summary block.
struct FleetIngest {
    sessions: usize,
    hub_samples: usize,
    elapsed_s: f64,
    /// sessions × hub samples scanned per wall-clock second.
    session_samples_per_s: f64,
    all_granted: bool,
}

/// Opens `sessions` streaming sessions in one scan group, lays every
/// session's signal pair out in one hub recording, streams it through the
/// service in audio-callback chunks, and times session conclusion
/// (mirrors `examples/fleet_ingest.rs` at bench scale).
fn measure_fleet_ingest(sessions: usize) -> FleetIngest {
    use piano_core::piano::PianoConfig;
    use piano_core::stream::{AuthService, AuthSession};
    use piano_core::wire::Message;

    const STRIDE: usize = 12_288;
    let mut rng = ChaCha8Rng::seed_from_u64(0xF1EE7);
    let mut service = AuthService::new(PianoConfig::with_threshold(1.0));
    let mut ids = Vec::with_capacity(sessions);
    let mut hub = vec![0.0f64; sessions * STRIDE + 16_384];
    let mut reports = Vec::with_capacity(sessions);
    for i in 0..sessions {
        let id = service.open_session(false, &mut rng);
        let challenge = service.poll_transmit(id).expect("challenge queued");
        let mut voucher = AuthSession::voucher_with(Arc::clone(service.detector()));
        voucher.handle_message(challenge).expect("valid challenge");
        let wave_a = service
            .session(id)
            .and_then(|s| s.playback_waveform())
            .expect("S_A known");
        let wave_v = voucher.playback_waveform().expect("S_V known");
        let base = i * STRIDE;
        for (j, &v) in wave_a.iter().enumerate() {
            hub[base + 2_000 + j] += 0.4 * v;
        }
        for (j, &v) in wave_v.iter().enumerate() {
            hub[base + 8_000 + j] += 0.3 * v;
        }
        // The voucher heard the pair 5 871 samples apart ⇒ d ≈ 0.50 m.
        reports.push(Message::TimeDiffReport {
            session: voucher.session_id(),
            vouch_diff_samples: Some(5_871.0),
        });
        ids.push(id);
    }

    let start = std::time::Instant::now();
    for (id, report) in ids.iter().zip(reports) {
        service
            .handle_message(*id, report)
            .expect("report accepted");
    }
    // ~0.37 s ticks of the hub recording.
    for chunk in hub.chunks(16_384) {
        let _ = service.push_audio(chunk);
    }
    let _ = service.finish_audio();
    let all_granted = ids.iter().all(|id| {
        matches!(
            service.decision(*id),
            Some(piano_core::piano::AuthDecision::Granted { .. })
        )
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    FleetIngest {
        sessions,
        hub_samples: hub.len(),
        elapsed_s,
        session_samples_per_s: (sessions * hub.len()) as f64 / elapsed_s,
        all_granted,
    }
}

/// One deterministic wire-ingest measurement for the summary block.
struct NetIngest {
    feeds: usize,
    wire_audio_bytes: u64,
    raw_audio_bytes: u64,
    compression_ratio: f64,
    elapsed_s: f64,
    /// Post-codec bytes moved per wall-clock second.
    wire_bytes_per_s: f64,
    /// Pre-codec (raw-equivalent) audio bytes ingested per second.
    raw_bytes_per_s: f64,
    all_granted: bool,
    /// Measured peak resident bytes per reactor connection (state +
    /// frame-reader buffer + peak sample backlog).
    per_conn_bytes_reactor: u64,
    /// A thread-per-connection model's cost for the same connection
    /// (arithmetic): identical state plus what each serving thread would
    /// add privately.
    per_conn_bytes_threaded: u64,
    /// Connections fitting in 1 GiB under each model, and the ratio —
    /// the headline the reactor exists for.
    conn_ceiling_reactor: u64,
    conn_ceiling_threaded: u64,
    conn_ceiling_ratio: f64,
}

/// Streams `feeds` voucher recordings through the `piano-net`
/// `ReactorServer` over the in-memory transport with the i16-delta
/// codec, scans the hub once for every session, and reports wire
/// throughput, compression, and the per-connection memory model
/// (mirrors `examples/fleet_ingest.rs` at bench scale).
fn measure_net_ingest(feeds: usize) -> NetIngest {
    use piano_core::piano::{AuthDecision, PianoConfig};
    use piano_core::stream::ShardedAuthService;
    use piano_core::wire::WireCodec;
    use piano_net::fixtures::{feed_recording, hub_recording_reactor};
    use piano_net::transport::{memory_hub, Listener};
    use piano_net::{FeedHandle, ReactorServer, ServerConfig};

    let server = ReactorServer::new(
        ShardedAuthService::new(PianoConfig::with_threshold(1.0), 1),
        ChaCha8Rng::seed_from_u64(0xF1EE7),
        ServerConfig::default(),
    );
    let action = server
        .service()
        .with_default(|s| s.config().action.clone())
        .expect("shard 0 exists");
    let loop_thread = server.start();
    let (connector, mut listener) = memory_hub();

    let start = std::time::Instant::now();
    let mut handles = Vec::with_capacity(feeds);
    for _ in 0..feeds {
        let transport = connector.connect().expect("hub open");
        server.register(listener.accept_conn().expect("accept"));
        handles.push(FeedHandle::connect(transport, &[WireCodec::I16Delta]).expect("handshake"));
    }
    let clients: Vec<_> = handles
        .into_iter()
        .map(|mut feed| {
            let action = action.clone();
            std::thread::spawn(move || {
                let rec = feed_recording(feed.challenge(), &action);
                feed.send_recording(&rec, 1_024, 4).expect("stream");
                feed.finish().expect("stream end");
                feed.await_decision().expect("verdict")
            })
        })
        .collect();
    server.wait_for_reports(feeds);
    let hub = hub_recording_reactor(&server);
    server.scan_and_decide_arc(hub.into(), 16_384);
    let all_granted = clients
        .into_iter()
        .all(|t| matches!(t.join().expect("client"), AuthDecision::Granted { .. }));
    let elapsed_s = start.elapsed().as_secs_f64();
    server.shutdown();
    loop_thread.join().expect("reactor thread");
    let stats = server.stats();
    let per_conn_bytes_reactor = server.peak_conn_bytes().max(1);

    // What a thread-per-connection model would spend on the same
    // connection: the identical protocol state, plus a private 64 KiB
    // read buffer and the 2 MiB default stack of its serving thread.
    const THREAD_STACK_BYTES: u64 = 2 * 1024 * 1024;
    const PRIVATE_READ_BUF_BYTES: u64 = 64 * 1024;
    let per_conn_bytes_threaded =
        per_conn_bytes_reactor + PRIVATE_READ_BUF_BYTES + THREAD_STACK_BYTES;
    const GIB: u64 = 1 << 30;
    let conn_ceiling_reactor = GIB / per_conn_bytes_reactor;
    let conn_ceiling_threaded = (GIB / per_conn_bytes_threaded).max(1);

    NetIngest {
        feeds,
        wire_audio_bytes: stats.wire_audio_bytes,
        raw_audio_bytes: stats.raw_audio_bytes,
        compression_ratio: stats.compression_ratio(),
        elapsed_s,
        wire_bytes_per_s: stats.wire_audio_bytes as f64 / elapsed_s,
        raw_bytes_per_s: stats.raw_audio_bytes as f64 / elapsed_s,
        all_granted,
        per_conn_bytes_reactor,
        per_conn_bytes_threaded,
        conn_ceiling_reactor,
        conn_ceiling_threaded,
        conn_ceiling_ratio: conn_ceiling_reactor as f64 / conn_ceiling_threaded as f64,
    }
}

/// One deterministic fault-recovery measurement for the summary block.
struct FaultRecovery {
    feeds: usize,
    /// Feeds whose link is deliberately cut mid-stream.
    cut_feeds: usize,
    /// Server-acked `Resume` handshakes across the run.
    resumes: u64,
    /// Client redial attempts that themselves failed before succeeding.
    client_retries: u64,
    /// Mean client backoff spent per successful resume.
    resume_latency_ms: f64,
    elapsed_s: f64,
    all_granted: bool,
}

/// Runs the `measure_net_ingest` fleet shape with half the links cut
/// mid-stream by a seeded `FaultyTransport` (the rest run under
/// segmentation/latency chaos). Clients redial through `ResilientFeed`
/// against a server with a resume window; the block records what the
/// recovery cost and that decisions still all landed.
fn measure_fault_recovery(feeds: usize) -> FaultRecovery {
    use piano_core::piano::{AuthDecision, PianoConfig};
    use piano_core::stream::ShardedAuthService;
    use piano_core::wire::WireCodec;
    use piano_net::fixtures::{feed_recording, hub_recording_reactor};
    use piano_net::transport::{memory_hub, Listener, MemoryStream};
    use piano_net::{
        FaultPlan, FaultyTransport, FeedHandle, ReactorServer, ResilientFeed, RetryPolicy,
        ServerConfig,
    };
    use std::time::Duration;

    const SEED: u64 = 0xFA17;
    let server = ReactorServer::new(
        ShardedAuthService::new(PianoConfig::with_threshold(1.0), 1),
        ChaCha8Rng::seed_from_u64(0xF1EE7),
        ServerConfig {
            resume_window: Duration::from_secs(10),
            ..ServerConfig::default()
        },
    );
    let action = server
        .service()
        .with_default(|s| s.config().action.clone())
        .expect("shard 0 exists");
    let loop_thread = server.start();
    let (connector, mut listener) = memory_hub();
    {
        let server = server.clone();
        std::thread::spawn(move || {
            while let Ok(conn) = listener.accept_conn() {
                server.register(conn);
            }
        });
    }

    let start = std::time::Instant::now();
    let mut fleet = Vec::with_capacity(feeds);
    for i in 0..feeds {
        let fseed = SEED ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let plan = if i % 2 == 0 {
            FaultPlan::clean(fseed).with_write_disconnect(4_000 + 512 * (i as u64 % 7))
        } else {
            FaultPlan::chaos(fseed)
        };
        let t = FaultyTransport::new(connector.connect().expect("hub open"), plan);
        let handle = FeedHandle::connect(t, &[WireCodec::I16Delta]).expect("handshake");
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
    let clients: Vec<_> = fleet
        .into_iter()
        .map(|mut feed| {
            let action = action.clone();
            std::thread::spawn(move || {
                let rec = feed_recording(feed.handle().challenge(), &action);
                feed.send_recording(&rec, 1_024, 4).expect("stream");
                let decision = feed
                    .finish_and_await(Duration::from_secs(60))
                    .expect("verdict");
                (decision, feed.stats())
            })
        })
        .collect();
    server
        .wait_for_reports_timeout(feeds, Duration::from_secs(60))
        .expect("reports despite faults");
    let hub = hub_recording_reactor(&server);
    server.scan_and_decide_arc(hub.into(), 16_384);
    let mut all_granted = true;
    let (mut retries, mut resumes, mut backoff) = (0u64, 0u64, Duration::ZERO);
    for t in clients {
        let (decision, s) = t.join().expect("client");
        all_granted &= matches!(decision, AuthDecision::Granted { .. });
        retries += s.retries;
        resumes += s.resumes;
        backoff += s.backoff_total;
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    server.shutdown();
    loop_thread.join().expect("reactor thread");
    FaultRecovery {
        feeds,
        cut_feeds: feeds.div_ceil(2),
        resumes,
        client_retries: retries,
        resume_latency_ms: if resumes > 0 {
            backoff.as_secs_f64() * 1e3 / resumes as f64
        } else {
            0.0
        },
        elapsed_s,
        all_granted,
    }
}

/// One deterministic standing-fleet measurement for the summary block.
struct ContinuousStanding {
    /// Standing sessions armed on one wheel (the headline population).
    sessions: usize,
    /// Mean cost of arming one session's next re-check deadline.
    insert_ns: f64,
    /// Mean cost per fired deadline across the full sweep (cascades
    /// included — this is the amortized figure the wheel advertises).
    advance_ns: f64,
    /// Deadlines that fired during the sweep (must equal `sessions`).
    fired: usize,
    /// Per-op cost at `sessions` over the same cost at `sessions / 8`.
    /// ≈1.0 is the measured O(1) claim; a comparison-based scheduler's
    /// log-factor would push this ratio visibly above 1.
    o1_insert_ratio: f64,
    o1_advance_ratio: f64,
    all_fired: bool,
}

/// Arms one `piano_core::continuum::TickWheel` entry per standing
/// session — phases spread uniformly over one base re-check period and
/// jittered by the risk policy's own seeded stream, the shape a settled
/// fleet presents — then sweeps the whole horizon in one-second
/// advances. Runs at `sessions / 8` first so the summary can report the
/// per-op cost *ratio* between the two populations: constant-time ops
/// hold it near 1.0 regardless of fleet size.
fn measure_continuous(sessions: usize) -> ContinuousStanding {
    use piano_core::continuum::{RiskPolicy, TickWheel};

    // 100 ms wheel resolution, the reactor's deadline granularity.
    const TICKS_PER_S: u64 = 10;
    let policy = RiskPolicy::default();
    let time_population = |n: usize| -> (f64, f64, usize) {
        let mut wheel: TickWheel<u64> = TickWheel::new();
        let t = std::time::Instant::now();
        for k in 0..n as u64 {
            let phase = policy.base_period_s * (k as f64 / n as f64);
            let deadline_s = phase + policy.base_period_s * policy.jitter(k, 0);
            wheel.insert((deadline_s * TICKS_PER_S as f64) as u64, k);
        }
        let insert_ns = t.elapsed().as_secs_f64() * 1e9 / n as f64;
        // Deadlines top out under 2.05 × base period; 2.2 × covers them.
        let horizon = (2.2 * policy.base_period_s) as u64 * TICKS_PER_S;
        let t = std::time::Instant::now();
        let mut fired = 0usize;
        let mut now = 0u64;
        while now <= horizon && fired < n {
            now += TICKS_PER_S;
            fired += wheel.advance(now).len();
        }
        let advance_ns = t.elapsed().as_secs_f64() * 1e9 / fired.max(1) as f64;
        (insert_ns, advance_ns, fired)
    };

    let (small_insert, small_advance, _) = time_population(sessions / 8);
    let (insert_ns, advance_ns, fired) = time_population(sessions);
    ContinuousStanding {
        sessions,
        insert_ns,
        advance_ns,
        fired,
        o1_insert_ratio: insert_ns / small_insert,
        o1_advance_ratio: advance_ns / small_advance,
        all_fired: fired == sessions,
    }
}

/// A deterministic recording long enough for thousands of 10-sample
/// fine-scan slides: the reference waveform tiled with varying gain.
fn recording_for_sliding(wave: &[f64]) -> Vec<f64> {
    let len = 4096 + 10 * 4096;
    (0..len)
        .map(|i| wave[i % wave.len()] * (0.2 + 0.8 * ((i / wave.len()) % 7) as f64 / 7.0))
        .collect()
}

/// The detector's fine-scan shape: ~30 candidate clusters × (2θ+1)
/// tracked bins. Shared by the criterion pairs and `measure_simd` so the
/// `criterion` and `per_backend` ratios in the JSON `simd` block measure
/// the same workload.
fn sliding_bench_bins() -> Vec<usize> {
    (0..330).map(|i| (37 * i + 13) % 4096).collect()
}

/// The sparse one-shot shape: a 64-bin bank over one 4096 window.
/// Shared by the criterion pairs and `measure_simd` (see
/// [`sliding_bench_bins`]).
fn goertzel_bench_bank() -> GoertzelBank {
    GoertzelBank::new(4096, (0..64).map(|i| (61 * i + 7) % 4096).collect())
}

/// One nominal 10-sample fine-scan slide over `rec`, wrapping at the end.
fn slide_once(sliding: &mut SlidingDft, rec: &[f64], j: &mut usize, backend: DspBackend) {
    if *j + 10 + 4096 > rec.len() {
        *j = 0;
    }
    sliding.advance_with(&rec[*j..*j + 10], &rec[*j + 4096..*j + 4096 + 10], backend);
    *j += 10;
}

/// One backend's deterministically measured speedups over scalar.
struct SimdBackendSpeedups {
    backend: DspBackend,
    fft_4096: f64,
    sliding_dft: f64,
    goertzel_bank: f64,
}

/// Times the three dispatched kernels under every available backend
/// against the scalar reference (same run, same inputs, `Instant`-timed
/// like the fleet measurements). Scalar itself is included as the 1.0×
/// floor so the JSON block always exists, even on SIMD-less hardware.
fn measure_simd(wave: &[f64]) -> Vec<SimdBackendSpeedups> {
    let real_plan = RealFftPlan::new(4096);
    let sliding_rec = recording_for_sliding(wave);
    let bank = goertzel_bench_bank();

    let time_backend = |backend: DspBackend| -> (f64, f64, f64) {
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        // Warm up plans/caches, then time each kernel.
        real_plan.power_into_with(wave, &mut scratch, &mut out, backend);
        let t = std::time::Instant::now();
        for _ in 0..300 {
            real_plan.power_into_with(wave, &mut scratch, &mut out, backend);
        }
        let fft_s = t.elapsed().as_secs_f64();

        let mut sliding = SlidingDft::new(4096, 10, sliding_bench_bins());
        sliding.init_with(&sliding_rec[..4096], backend);
        let t = std::time::Instant::now();
        let mut j = 0usize;
        for _ in 0..4000 {
            slide_once(&mut sliding, &sliding_rec, &mut j, backend);
        }
        let sliding_s = t.elapsed().as_secs_f64();

        let mut powers = Vec::new();
        let t = std::time::Instant::now();
        for _ in 0..100 {
            bank.powers_into_with(wave, &mut powers, backend);
        }
        let goertzel_s = t.elapsed().as_secs_f64();
        (fft_s, sliding_s, goertzel_s)
    };

    let (fft_ref, sliding_ref, goertzel_ref) = time_backend(DspBackend::Scalar);
    simd::available_backends()
        .into_iter()
        .map(|backend| {
            let (fft_s, sliding_s, goertzel_s) = if backend == DspBackend::Scalar {
                (fft_ref, sliding_ref, goertzel_ref)
            } else {
                time_backend(backend)
            };
            SimdBackendSpeedups {
                backend,
                fft_4096: fft_ref / fft_s,
                sliding_dft: sliding_ref / sliding_s,
                goertzel_bank: goertzel_ref / goertzel_s,
            }
        })
        .collect()
}

/// Writes `BENCH_micro.json` with raw measurements and headline speedups.
#[allow(clippy::too_many_arguments)]
fn export_summary(
    c: &Criterion,
    samples_to_decision: usize,
    recording_len: usize,
    fleet: &FleetIngest,
    net: &NetIngest,
    fault: &FaultRecovery,
    continuous: &ContinuousStanding,
    alloc: &AllocIngest,
    simd_speedups: &[SimdBackendSpeedups],
) {
    // Workspace root, two levels up from this crate's manifest.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels under the workspace root")
        .to_path_buf();
    let path = &root.join("BENCH_micro.json");
    if let Err(e) = c.export_json(path) {
        eprintln!("warning: could not write {}: {e}", path.display());
        return;
    }
    let median = |id: &str| {
        c.results()
            .iter()
            .find(|r| r.id == id)
            .map(|r| r.median_ns)
            .unwrap_or(f64::NAN)
    };
    let fft_speedup = median("fft_4096_naive") / median("fft_4096");
    let simd_fft = median("fft_4096_scalar") / median("fft_4096_simd");
    let simd_sliding = median("sliding_dft_scalar") / median("sliding_dft_simd");
    let simd_goertzel = median("goertzel_bank_scalar") / median("goertzel_bank_simd");
    let scan_speedup =
        median("detection/algorithm1_scan_2s_naive") / median("detection/algorithm1_scan_2s");
    let decision_speedup =
        median("detection/algorithm1_scan_2s") / median("detection/stream_to_decision");
    println!("fft_4096 speedup over naive: {fft_speedup:.2}x");
    println!(
        "simd backend {}: fft_4096 {simd_fft:.2}x, sliding_dft {simd_sliding:.2}x, \
         goertzel_bank {simd_goertzel:.2}x over scalar",
        piano_dsp::simd::active_backend()
    );
    println!("algorithm1_scan_2s speedup over naive: {scan_speedup:.2}x");
    println!(
        "streaming decision after {samples_to_decision}/{recording_len} samples, \
         {decision_speedup:.2}x faster than the full-buffer scan"
    );
    println!(
        "fleet ingest: {} sessions × {} hub samples in {:.3} s \
         ({:.0} session·samples/s, all granted: {})",
        fleet.sessions,
        fleet.hub_samples,
        fleet.elapsed_s,
        fleet.session_samples_per_s,
        fleet.all_granted
    );
    println!(
        "net ingest: {} feeds over the in-memory transport in {:.3} s \
         ({:.2} MiB/s on the wire, {:.2}x i16-delta compression, all granted: {})",
        net.feeds,
        net.elapsed_s,
        net.wire_bytes_per_s / (1024.0 * 1024.0),
        net.compression_ratio,
        net.all_granted
    );
    println!(
        "fault recovery: {} feeds, {} cut mid-stream, {} resumes \
         ({:.1} ms mean backoff) in {:.3} s, all granted: {}",
        fault.feeds,
        fault.cut_feeds,
        fault.resumes,
        fault.resume_latency_ms,
        fault.elapsed_s,
        fault.all_granted
    );
    println!(
        "continuous standing: {} sessions armed at {:.0} ns/insert, swept at \
         {:.0} ns/fire (per-op vs ⅛ population: insert {:.2}x, advance {:.2}x, \
         all fired: {})",
        continuous.sessions,
        continuous.insert_ns,
        continuous.advance_ns,
        continuous.o1_insert_ratio,
        continuous.o1_advance_ratio,
        continuous.all_fired
    );
    println!(
        "alloc discipline: pooled ingest {} B/session ({:.2} allocs/frame) vs \
         unpooled {} B/session ({:.2} allocs/frame) over {} frames — {:.1}x fewer bytes",
        alloc.bytes_per_session_pooled,
        alloc.allocs_per_frame_pooled,
        alloc.bytes_per_session_unpooled,
        alloc.allocs_per_frame_unpooled,
        alloc.frames_per_session,
        alloc.reduction_ratio
    );
    // Per-backend block: deterministic speedups vs scalar, one entry per
    // available backend (scalar reads 1.0 by construction).
    let simd_json = {
        let active = piano_dsp::simd::active_backend();
        let available: Vec<String> = simd_speedups
            .iter()
            .map(|s| format!("\"{}\"", s.backend))
            .collect();
        let per_backend: Vec<String> = simd_speedups
            .iter()
            .map(|s| {
                format!(
                    "\"{}\": {{\"fft_4096\": {:.3}, \"sliding_dft\": {:.3}, \
                     \"goertzel_bank\": {:.3}}}",
                    s.backend, s.fft_4096, s.sliding_dft, s.goertzel_bank
                )
            })
            .collect();
        format!(
            "{{\"active\": \"{active}\", \"available\": [{}], \
             \"criterion\": {{\"fft_4096\": {simd_fft:.3}, \
             \"sliding_dft\": {simd_sliding:.3}, \
             \"goertzel_bank\": {simd_goertzel:.3}}}, \
             \"per_backend\": {{{}}}}}",
            available.join(", "),
            per_backend.join(", ")
        )
    };
    // Splice the headline ratios into the top-level JSON object — strip
    // exactly the final closing brace, never more.
    if let Ok(text) = std::fs::read_to_string(path) {
        if let Some(body) = text.trim_end().strip_suffix('}') {
            let patched = format!(
                "{body},  \"speedups\": {{\"fft_4096_vs_naive\": {fft_speedup:.3}, \
                 \"algorithm1_scan_2s_vs_naive\": {scan_speedup:.3}, \
                 \"stream_to_decision_vs_full_scan\": {decision_speedup:.3}}},\n  \
                 \"streaming\": {{\"samples_to_decision\": {samples_to_decision}, \
                 \"recording_len\": {recording_len}, \
                 \"decision_before_full_buffer\": {}}},\n  \
                 \"fleet_ingest\": {{\"sessions\": {}, \"hub_samples\": {}, \
                 \"cores\": {}, \"elapsed_s\": {:.4}, \
                 \"session_samples_per_s\": {:.0}, \"all_granted\": {}}},\n  \
                 \"net_ingest\": {{\"feeds\": {}, \"wire_audio_bytes\": {}, \
                 \"raw_audio_bytes\": {}, \"compression_ratio\": {:.3}, \
                 \"elapsed_s\": {:.4}, \"wire_bytes_per_s\": {:.0}, \
                 \"raw_bytes_per_s\": {:.0}, \"all_granted\": {}, \
                 \"per_conn_bytes_reactor\": {}, \
                 \"per_conn_bytes_threaded\": {}, \
                 \"conn_ceiling_reactor\": {}, \
                 \"conn_ceiling_threaded\": {}, \
                 \"conn_ceiling_ratio\": {:.2}}},\n  \
                 \"fault_recovery\": {{\"feeds\": {}, \"cut_feeds\": {}, \
                 \"resumes\": {}, \"client_retries\": {}, \
                 \"resume_latency_ms\": {:.3}, \"elapsed_s\": {:.4}, \
                 \"all_granted\": {}}},\n  \
                 \"continuous\": {{\"sessions\": {}, \"insert_ns\": {:.1}, \
                 \"advance_ns\": {:.1}, \"fired\": {}, \
                 \"o1_insert_ratio\": {:.3}, \"o1_advance_ratio\": {:.3}, \
                 \"all_fired\": {}}},\n  \
                 \"alloc\": {{\"frames_per_session\": {}, \
                 \"bytes_per_session_pooled\": {}, \
                 \"bytes_per_session_unpooled\": {}, \
                 \"allocs_per_frame_pooled\": {:.3}, \
                 \"allocs_per_frame_unpooled\": {:.3}, \
                 \"reduction_ratio\": {:.2}}},\n  \
                 \"simd\": {simd_json}\n}}\n",
                samples_to_decision < recording_len,
                fleet.sessions,
                fleet.hub_samples,
                std::thread::available_parallelism().map_or(1, |p| p.get()),
                fleet.elapsed_s,
                fleet.session_samples_per_s,
                fleet.all_granted,
                net.feeds,
                net.wire_audio_bytes,
                net.raw_audio_bytes,
                net.compression_ratio,
                net.elapsed_s,
                net.wire_bytes_per_s,
                net.raw_bytes_per_s,
                net.all_granted,
                net.per_conn_bytes_reactor,
                net.per_conn_bytes_threaded,
                net.conn_ceiling_reactor,
                net.conn_ceiling_threaded,
                net.conn_ceiling_ratio,
                fault.feeds,
                fault.cut_feeds,
                fault.resumes,
                fault.client_retries,
                fault.resume_latency_ms,
                fault.elapsed_s,
                fault.all_granted,
                continuous.sessions,
                continuous.insert_ns,
                continuous.advance_ns,
                continuous.fired,
                continuous.o1_insert_ratio,
                continuous.o1_advance_ratio,
                continuous.all_fired,
                alloc.frames_per_session,
                alloc.bytes_per_session_pooled,
                alloc.bytes_per_session_unpooled,
                alloc.allocs_per_frame_pooled,
                alloc.allocs_per_frame_unpooled,
                alloc.reduction_ratio
            );
            let _ = std::fs::write(path, patched);
        }
    }
}

criterion_group!(benches, bench_micro);
criterion_main!(benches);
