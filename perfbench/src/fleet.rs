//! `fleet`: repeated authentication epochs through `ReactorServer` —
//! the serving path.
//!
//! An epoch is 64 feeds: handshake, credit-paced streaming, `StreamEnd`,
//! one hub scan, verdicts. One client thread multiplexes the epoch's
//! feeds round-robin; the host thread (this one) makes the
//! `wait_for_reports_timeout` and `scan_and_decide_arc` calls. Each epoch
//! runs on a fresh server, because one `ReactorServer` serves only one
//! authentication epoch (see the README). The traced run alternates
//! untraced and traced epochs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use piano_core::config::ActionConfig;
use piano_core::detect::Detector;
use piano_core::piano::{AuthDecision, DenialReason, PianoConfig};
use piano_core::pool::FramePool;
use piano_core::stream::{AuthSession, ShardedAuthService};
use piano_core::wire::{FrameReader, Message, SignalSpec, WireCodec};
use piano_net::codec::encode_audio_batch;
use piano_net::fixtures::{
    embed, feed_recording, hub_recording_reactor, hub_recording_sharded, recheck_recording,
    FEED_REC_LEN, FEED_SA_OFFSET, FEED_SV_OFFSET, HUB_SV_OFFSET,
};
use piano_net::transport::{memory_hub, Listener, MemoryStream};
use piano_net::{quantize_samples, FeedHandle, ReactorServer, ServerConfig};

use crate::checks::{self, FeedVerdict, TAU_M};
use crate::report::{peak_rss_mib, secs_since, Metrics, Report};
use crate::stats::{median, Latency};
use crate::trace::{span, Tracer};
use crate::Args;

/// Feeds per epoch (and standing feeds in `standing`).
pub const FEEDS: usize = 64;
/// Samples per audio chunk and chunks per batch frame: a 16 384-sample
/// recording streams as four frames.
pub const CHUNK: usize = 1_024;
pub const CHUNKS_PER_BATCH: usize = 4;
/// Hub samples per scan tick.
pub const HUB_TICK: usize = 16_384;
/// Bound on every blocking wait, so a stuck run fails instead of hanging.
pub const WAIT: Duration = Duration::from_secs(30);
/// Far feeds stand this far apart, drawn uniformly per feed.
pub const FAR_RANGE_M: (f64, f64) = (1.4, 1.6);

/// The tail percentile: p99 needs 1 000 feeds, and a run measures
/// about 3 000.
const TAIL_PER_MILLE: u64 = 990;

/// What the benchmark places for one feed.
#[derive(Clone, Copy, Debug)]
pub struct FeedPlan {
    pub codec: WireCodec,
    /// Samples from `S_A` to `S_V` in the voucher's recording.
    pub feed_gap: usize,
    /// Eq. 3 on `feed_gap` and the hub's gap.
    pub expected_m: f64,
}

const HUB_GAP: usize = HUB_SV_OFFSET - FEED_SA_OFFSET;
const NEAR_GAP: usize = FEED_SV_OFFSET - FEED_SA_OFFSET;

fn plan_with_gap(codec: WireCodec, feed_gap: usize, config: &ActionConfig) -> FeedPlan {
    FeedPlan {
        codec,
        feed_gap,
        expected_m: checks::eq3_distance_m(
            HUB_GAP,
            feed_gap,
            config.sample_rate,
            config.assumed_speed_of_sound,
        ),
    }
}

/// The fixture geometry: ≈ 0.50 m.
pub fn near_plan(codec: WireCodec, config: &ActionConfig) -> FeedPlan {
    plan_with_gap(codec, NEAR_GAP, config)
}

/// `S_V` moved so that Eq. 3 gives a distance drawn from `FAR_RANGE_M`.
pub fn far_plan(codec: WireCodec, config: &ActionConfig, rng: &mut ChaCha8Rng) -> FeedPlan {
    let d = rng.gen_range(FAR_RANGE_M.0..FAR_RANGE_M.1);
    let shift = (2.0 * d * config.sample_rate / config.assumed_speed_of_sound).round() as usize;
    plan_with_gap(codec, HUB_GAP - shift, config)
}

/// `n` feeds, exactly `far` of them far and one in four offering only
/// the raw codec, at seeded positions.
pub fn plan_feeds(
    n: usize,
    far: usize,
    config: &ActionConfig,
    rng: &mut ChaCha8Rng,
) -> Vec<FeedPlan> {
    let mut far: Vec<bool> = (0..n).map(|i| i < far).collect();
    let mut raw: Vec<bool> = (0..n).map(|i| i < n / 4).collect();
    far.shuffle(rng);
    raw.shuffle(rng);
    far.iter()
        .zip(&raw)
        .map(|(&far, &raw)| {
            let codec = if raw {
                WireCodec::Raw
            } else {
                WireCodec::I16Delta
            };
            if far {
                far_plan(codec, config, rng)
            } else {
                near_plan(codec, config)
            }
        })
        .collect()
}

/// The two signals a challenge (`ReferenceSignals`) or re-challenge
/// (`Recheck`) carries.
pub fn signals(msg: &Message) -> (SignalSpec, SignalSpec) {
    match msg {
        Message::ReferenceSignals { sa, sv, .. } | Message::Recheck { sa, sv, .. } => {
            (sa.clone(), sv.clone())
        }
        other => panic!("no signals in {other:?}"),
    }
}

/// The voucher's recording answering `challenge` under `plan`: the
/// fixture recording for near feeds, the fixture layout with `S_V`
/// moved for far ones. i16-quantized either way, as a 16-bit microphone
/// delivers it.
pub fn recording(challenge: &Message, plan: &FeedPlan, config: &ActionConfig) -> Vec<f64> {
    match challenge {
        Message::Recheck { .. } if plan.feed_gap == NEAR_GAP => {
            return recheck_recording(challenge, config)
        }
        _ if plan.feed_gap == NEAR_GAP => return feed_recording(challenge, config),
        _ => {}
    }
    let (sa, sv) = signals(challenge);
    let wave_a = sa.reconstruct(config).expect("valid spec").waveform();
    let wave_v = sv.reconstruct(config).expect("valid spec").waveform();
    let mut rec = vec![0.0f64; FEED_REC_LEN];
    embed(&mut rec, &wave_a, FEED_SA_OFFSET, 0.3);
    embed(&mut rec, &wave_v, FEED_SA_OFFSET + plan.feed_gap, 0.4);
    quantize_samples(&rec)
}

/// A recording cut into the batches the client sends.
pub fn batches(rec: &[f64]) -> Vec<Vec<Vec<f64>>> {
    rec.chunks(CHUNK)
        .map(<[f64]>::to_vec)
        .collect::<Vec<_>>()
        .chunks(CHUNKS_PER_BATCH)
        .map(<[Vec<f64>]>::to_vec)
        .collect()
}

fn service() -> ShardedAuthService {
    ShardedAuthService::new(PianoConfig::with_threshold(TAU_M), 1)
}

/// The server every workload runs on: one shard, τ = 1 m.
pub fn server(seed: u64, standing: bool) -> ReactorServer {
    ReactorServer::new(
        service(),
        ChaCha8Rng::seed_from_u64(seed),
        ServerConfig {
            standing,
            ..ServerConfig::default()
        },
    )
}

pub fn action_config(server: &ReactorServer) -> ActionConfig {
    server
        .service()
        .with_default(|s| s.config().action.clone())
        .expect("shard 0 exists")
}

/// Direct `ShardedAuthService` ingestion of the sessions a server opens,
/// with the server's seed, in the server's opening order — the
/// conformance oracle of `tests/reactor_conformance.rs`. Its sessions
/// draw the same signals as the server's, so its verdicts are what the
/// server must deliver.
pub struct Oracle {
    service: ShardedAuthService,
    rng: ChaCha8Rng,
    detector: Arc<Detector>,
}

impl Oracle {
    pub fn new(server_seed: u64) -> Self {
        let service = service();
        let detector = service
            .with_default(|s| Arc::clone(s.detector()))
            .expect("shard 0 exists");
        Oracle {
            service,
            rng: ChaCha8Rng::seed_from_u64(server_seed),
            detector,
        }
    }

    /// Opens one session per feed, as the server did, and checks that it
    /// draws the signals `received[i]` the feed got over the wire. With
    /// `scan`, also replays each feed's voucher session on
    /// `recordings[i]` and routes its report, builds the hub recording,
    /// checks it equals the server's `hub`, scans it and returns the
    /// verdicts. Closes the sessions either way.
    pub fn decide(
        &mut self,
        received: &[(SignalSpec, SignalSpec)],
        recordings: &[Vec<f64>],
        hub: &[f64],
        scan: bool,
        tr: Option<&Tracer>,
        op_base: u64,
    ) -> Result<Option<Vec<AuthDecision>>, String> {
        let mut ids = Vec::with_capacity(received.len());
        let mut challenges = Vec::with_capacity(received.len());
        for (i, got) in received.iter().enumerate() {
            let id = self.service.open_session(false, &mut self.rng);
            let challenge = self.service.poll_transmit(id).expect("challenge queued");
            if &signals(&challenge) != got {
                return Err(format!(
                    "feed {i}: the oracle drew other signals than the server"
                ));
            }
            ids.push(id);
            challenges.push(challenge);
        }
        if !scan {
            for id in ids {
                self.service.close_session(id);
            }
            return Ok(None);
        }
        for (i, ((&id, challenge), rec)) in ids.iter().zip(&challenges).zip(recordings).enumerate()
        {
            let op = op_base + i as u64 + 1;
            let report = replay_voucher(challenge, rec, &self.detector, tr, op);
            self.service
                .handle_message(id, report)
                .map_err(|e| format!("feed {i}: oracle refused the report: {e}"))?;
        }
        let own_hub = hub_recording_sharded(&self.service, &ids);
        if own_hub[..] != hub[..] {
            return Err("the oracle's hub recording differs from the server's".into());
        }
        span(tr, "service.hub_scan", op_base + 1, 0, || {
            for chunk in own_hub.chunks(HUB_TICK) {
                let _ = self.service.push_audio(chunk);
            }
            let _ = self.service.finish_audio();
        });
        let decisions = ids
            .iter()
            .map(|&id| {
                self.service.decision(id).unwrap_or(AuthDecision::Denied {
                    reason: DenialReason::ProtocolFailure("oracle session undecided".into()),
                })
            })
            .collect();
        for id in ids {
            self.service.close_session(id);
        }
        Ok(Some(decisions))
    }
}

/// A voucher session replayed on one recording, as the reactor runs one
/// per feed: the challenge, the coarse pass and early refinement
/// (`push_audio`), the fine scan (`finish_audio`). Returns its report.
pub fn replay_voucher(
    challenge: &Message,
    rec: &[f64],
    detector: &Arc<Detector>,
    tr: Option<&Tracer>,
    op: u64,
) -> Message {
    let mut voucher = AuthSession::voucher_with(Arc::clone(detector));
    span(tr, "protocol.handle", op, 0, || {
        voucher.handle_message(challenge.clone())
    })
    .expect("the oracle's own challenge is valid");
    span(tr, "detect.push", op, 0, || {
        for chunk in rec.chunks(CHUNK) {
            let _ = voucher.push_audio(chunk);
        }
    });
    span(tr, "detect.finish", op, 0, || voucher.finish_audio());
    if let Some(t) = tr {
        t.add("detect.scan_ffts", voucher.scan_ffts() as f64);
    }
    voucher.poll_transmit().expect("a finished voucher reports")
}

/// The codec encode of one feed's batches, then a pooled decode of the
/// same framed bytes.
fn replay_wire(
    codec: WireCodec,
    session: u64,
    rec: &[f64],
    pool: &FramePool,
    tr: &Tracer,
    op: u64,
) {
    let batches = batches(rec);
    let msgs: Vec<Message> = tr.time("codec.encode", op, 0, || {
        let mut seq = 0u32;
        batches
            .iter()
            .map(|b| {
                let m = encode_audio_batch(codec, session, seq, b);
                seq += b.len() as u32;
                m
            })
            .collect()
    });
    tr.add("codec.frames", msgs.len() as f64);
    let framed: Vec<u8> = msgs.iter().flat_map(Message::encode_framed).collect();
    replay_decode(&framed, pool, tr, op);
}

/// Decodes framed bytes through a `FrameReader` drawing on `pool`, as
/// the reactor does, counting the frames.
pub fn replay_decode(framed: &[u8], pool: &FramePool, tr: &Tracer, op: u64) {
    let frames = tr.time("wire.decode", op, 0, || {
        let mut reader = FrameReader::with_pool(pool.clone());
        reader.push(framed);
        let mut frames = 0usize;
        while let Ok(Some(msg)) = reader.next_frame() {
            std::hint::black_box(&msg);
            frames += 1;
        }
        frames
    });
    tr.add("wire.frames", frames as f64);
}

/// One epoch's results.
pub struct Epoch {
    pub feeds: Vec<FeedHandle<MemoryStream>>,
    pub received: Vec<(SignalSpec, SignalSpec)>,
    pub recordings: Vec<Vec<f64>>,
    pub hub: Arc<[f64]>,
    pub decisions: Vec<AuthDecision>,
    /// `StreamEnd` write to `Decision` read, per feed.
    pub latencies_ms: Vec<f64>,
    /// Wall time of the timed phases: the handshakes, and streaming
    /// through the last verdict.
    pub timed_s: f64,
}

/// Runs one epoch of `plans.len()` feeds through a started `server`.
/// Spans go to `tr` when tracing, with operation ids from `op_base + 1`.
pub fn run_epoch(
    server: &ReactorServer,
    plans: &[FeedPlan],
    tr: Option<&Tracer>,
    op_base: u64,
) -> Result<Epoch, String> {
    let config = action_config(server);
    let n = plans.len();
    let (connector, mut listener) = memory_hub();

    // Timed: the handshakes, one feed after another, so session
    // randomness binds to feed order.
    let t_handshakes = Instant::now();
    let mut feeds = Vec::with_capacity(n);
    for (i, plan) in plans.iter().enumerate() {
        let feed = span(tr, "client.handshake", op_base + i as u64 + 1, 0, || {
            let transport = connector.connect()?;
            server.register(listener.accept_conn()?);
            FeedHandle::connect(transport, &[plan.codec]).map_err(std::io::Error::other)
        })
        .map_err(|e| format!("handshake {i}: {e}"))?;
        feeds.push(feed);
    }
    let handshakes_s = secs_since(t_handshakes);

    // Untimed: the inputs.
    let received: Vec<_> = feeds.iter().map(|f| signals(f.challenge())).collect();
    let recordings: Vec<Vec<f64>> = feeds
        .iter()
        .zip(plans)
        .map(|(f, p)| recording(f.challenge(), p, &config))
        .collect();
    let cut: Vec<_> = recordings.iter().map(|r| batches(r)).collect();
    let hub: Arc<[f64]> = hub_recording_reactor(server).into();

    // Timed: streaming through verdicts.
    let t_stream = Instant::now();
    let (client, host) = std::thread::scope(|scope| {
        let client = scope.spawn(|| stream_and_collect(&mut feeds, &cut, tr, op_base));
        let host = (|| {
            let reported = server
                .wait_for_reports_timeout(n, WAIT)
                .map_err(|e| format!("report wait: {e}"))?;
            let t_reports = Instant::now();
            let decided = server.scan_and_decide_arc(Arc::clone(&hub), HUB_TICK);
            let t_scanned = Instant::now();
            if reported != n || decided != n {
                return Err(format!(
                    "{reported} of {n} feeds reported, {decided} decided"
                ));
            }
            Ok((t_reports, t_scanned))
        })();
        (client.join().expect("client thread panicked"), host)
    });
    let stream_s = secs_since(t_stream);
    let (stream_ends, reads, decisions) = client?;
    let (t_reports, t_scanned) = host?;

    if let Some(tr) = tr {
        let last_end = *stream_ends.iter().max().expect("feeds");
        let first_read = *reads.iter().min().expect("feeds");
        let last_read = *reads.iter().max().expect("feeds");
        tr.record("reactor.report_wait", op_base + 1, 0, last_end, t_reports);
        tr.record("reactor.scan", op_base + 1, 0, t_reports, t_scanned);
        // The reactor writes the verdicts before the scan call returns,
        // so delivery is timed from the first verdict read to the last,
        // and what the clients still read after the return is its own
        // span.
        tr.record("reactor.delivery", op_base + 1, 0, first_read, last_read);
        tr.record("reactor.after_scan", op_base + 1, 0, t_scanned, last_read);
        tr.add("reactor.hub_samples", hub.len() as f64);
    }
    let latencies_ms = stream_ends
        .iter()
        .zip(&reads)
        .map(|(&s, &r)| (r - s).as_secs_f64() * 1e3)
        .collect();
    Ok(Epoch {
        feeds,
        received,
        recordings,
        hub,
        decisions,
        latencies_ms,
        timed_s: handshakes_s + stream_s,
    })
}

type ClientTimes = (Vec<Instant>, Vec<Instant>, Vec<AuthDecision>);

/// The client thread: batches round-robin across the feeds (each send
/// honors its feed's credit), then every `StreamEnd`, then every verdict.
fn stream_and_collect(
    feeds: &mut [FeedHandle<MemoryStream>],
    cut: &[Vec<Vec<Vec<f64>>>],
    tr: Option<&Tracer>,
    op_base: u64,
) -> Result<ClientTimes, String> {
    let rounds = cut.iter().map(Vec::len).max().unwrap_or(0);
    for b in 0..rounds {
        for (i, feed) in feeds.iter_mut().enumerate() {
            if let Some(batch) = cut[i].get(b) {
                span(tr, "client.stream", op_base + i as u64 + 1, 0, || {
                    feed.send_batch(batch)
                })
                .map_err(|e| format!("feed {i} stream: {e}"))?;
            }
        }
    }
    let mut ends = Vec::with_capacity(feeds.len());
    for (i, feed) in feeds.iter_mut().enumerate() {
        ends.push(Instant::now());
        feed.finish().map_err(|e| format!("feed {i} end: {e}"))?;
    }
    let mut reads = Vec::with_capacity(feeds.len());
    let mut decisions = Vec::with_capacity(feeds.len());
    for (i, feed) in feeds.iter_mut().enumerate() {
        let d = feed
            .await_decision_timeout(WAIT)
            .map_err(|e| format!("feed {i} verdict: {e}"))?;
        reads.push(Instant::now());
        decisions.push(d);
    }
    if let Some(tr) = tr {
        for feed in feeds.iter() {
            tr.add("client.busy_pauses", feed.busy_seen() as f64);
            tr.add("client.wire_bytes", feed.wire_audio_bytes() as f64);
        }
    }
    Ok((ends, reads, decisions))
}

/// The verdicts of one epoch or round next to their placements.
pub fn verdicts(plans: &[FeedPlan], decisions: &[AuthDecision]) -> Vec<FeedVerdict> {
    plans
        .iter()
        .zip(decisions)
        .map(|(p, d)| FeedVerdict {
            expected_m: p.expected_m,
            decision: d.clone(),
        })
        .collect()
}

/// Which verdicts count as operations, and how many are left out. A
/// verdict right for its placement counts. A wrong one that direct
/// ingestion (`direct`) gives too is the program's own mislocation (see
/// the README) and is left out of the operations. A wrong one without
/// direct ingestion to explain it, and any divergence from direct
/// ingestion, go to `problems`.
pub fn sort_verdicts(
    verdicts: &[FeedVerdict],
    direct: Option<&[AuthDecision]>,
    problems: &mut Vec<String>,
) -> (Vec<bool>, usize) {
    let reactor: Vec<AuthDecision> = verdicts.iter().map(|v| v.decision.clone()).collect();
    if let Some(direct) = direct {
        problems.extend(checks::check_conformance(&reactor, direct));
    }
    let mut left_out = 0;
    let counted = verdicts
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let Some(p) = checks::verdict_problem(v, TAU_M) else {
                return true;
            };
            if direct.is_some_and(|d| d[i] == v.decision) {
                eprintln!("left out, direct ingestion mislocates it too: feed {i}: {p}");
                left_out += 1;
            } else {
                problems.push(format!("feed {i}: {p}"));
            }
            false
        })
        .collect();
    (counted, left_out)
}

/// Whether an epoch or round needs the oracle's verdicts: always when
/// traced (its replays are the detect and service layers' spans),
/// otherwise only to explain a wrong verdict.
pub fn needs_oracle(verdicts: &[FeedVerdict], traced: bool) -> bool {
    traced
        || verdicts
            .iter()
            .any(|v| checks::verdict_problem(v, TAU_M).is_some())
}

pub fn run(args: &Args, process_start: Instant) -> Result<Report, String> {
    let tracer = args.trace.then(Tracer::new);
    let tr = tracer.as_ref();
    let mut problems = Vec::new();
    let mut left_out = 0;

    // Set-up: one warm-up epoch on a seed no timed epoch uses, checked
    // like the rest.
    run_one(
        crate::mix(args.seed, u64::MAX),
        None,
        0,
        &mut problems,
        &mut left_out,
    )?;
    let setup_s = secs_since(process_start);

    let mut latencies = Vec::new();
    let mut traced_latencies = Vec::new();
    let mut layer_sums = Vec::new();
    let mut timed_s = 0.0;
    let (mut ops, mut traced_ops) = (0u64, 0u64);
    let start = Instant::now();
    let mut epoch = 0u64;
    // A traced run needs one untraced and one traced epoch at least.
    let min_epochs = if tr.is_some() { 2 } else { 1 };
    while epoch < min_epochs || secs_since(start) < args.seconds {
        let traced = tr.filter(|_| epoch % 2 == 1);
        let seed = crate::mix(args.seed, epoch);
        let (out, counted) = run_one(seed, traced, traced_ops, &mut problems, &mut left_out)?;
        let kept = out
            .latencies_ms
            .iter()
            .zip(&counted)
            .filter(|(_, &c)| c)
            .map(|(&l, _)| l);
        let n = counted.iter().filter(|&&c| c).count() as u64;
        if let Some(t) = traced {
            traced_latencies.extend(kept);
            layer_sums.push(
                t.last_ms("reactor.report_wait")
                    + t.last_ms("reactor.scan")
                    + t.last_ms("reactor.after_scan"),
            );
            traced_ops += n;
        } else {
            latencies.extend(kept);
            timed_s += out.timed_s;
            ops += n;
        }
        epoch += 1;
    }
    problems.extend(checks::check_left_out(left_out, ops + traced_ops));
    for p in &problems {
        eprintln!("fleet check failed: {p}");
    }
    let lat = Latency::of(&latencies, TAIL_PER_MILLE);
    eprintln!(
        "fleet: {epoch} epochs, {ops} untraced feeds, {left_out} left out, tail = p{} over {} samples",
        lat.tail_per_mille as f64 / 10.0,
        lat.samples
    );
    let mut metrics = Metrics::default();
    match tr {
        None => {
            metrics.put("ops_per_s", ops as f64 / timed_s, "op/s");
            metrics.put("latency_p50_ms", lat.p50, "ms");
            metrics.put("latency_tail_ms", lat.tail, "ms");
            metrics.put("setup_s", setup_s, "s");
            metrics.put(
                "peak_rss_mib",
                peak_rss_mib().ok_or("no VmHWM in /proc/self/status")?,
                "MiB",
            );
        }
        Some(t) => {
            t.write_jsonl(&crate::span_path(args))
                .map_err(|e| format!("writing spans: {e}"))?;
            crate::put_layers(&mut metrics, t, traced_ops as f64);
            crate::put_reconciliation(
                &mut metrics,
                lat.p50,
                median(&traced_latencies),
                median(&layer_sums),
            );
        }
    }
    Ok(Report {
        correct: problems.is_empty(),
        attempted: ops + traced_ops,
        failed: 0,
        metrics,
    })
}

/// One epoch on a fresh server seeded `seed`, with its checks appended
/// to `problems`. Returns the epoch and which feeds count.
fn run_one(
    seed: u64,
    tr: Option<&Tracer>,
    op_base: u64,
    problems: &mut Vec<String>,
    left_out: &mut usize,
) -> Result<(Epoch, Vec<bool>), String> {
    let server = server(seed, false);
    let reactor = server.start();
    let config = action_config(&server);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x00F1_EE70);
    let plans = plan_feeds(FEEDS, FEEDS / 4, &config, &mut rng);
    let result = run_epoch(&server, &plans, tr, op_base);
    let stats = server.stats();
    let peak_conn_bytes = server.peak_conn_bytes();
    server.shutdown();
    reactor.join().map_err(|_| "reactor thread panicked")?;
    let epoch = result?;

    let client_bytes = epoch.feeds.iter().map(FeedHandle::wire_audio_bytes).sum();
    problems.extend(checks::check_accounting(&stats, client_bytes, FEEDS as u64));
    let verdicts = verdicts(&plans, &epoch.decisions);
    let direct = if needs_oracle(&verdicts, tr.is_some()) {
        let (received, recordings) = (&epoch.received, &epoch.recordings);
        Oracle::new(seed).decide(received, recordings, &epoch.hub, true, tr, op_base)?
    } else {
        None
    };
    let (counted, wrong) = sort_verdicts(&verdicts, direct.as_deref(), problems);
    *left_out += wrong;
    if let Some(tr) = tr {
        tr.add("reactor.frames_decoded", stats.frames_decoded as f64);
        tr.add("reactor.busy_replies", stats.busy_replies as f64);
        tr.raise("reactor.peak_conn_bytes", peak_conn_bytes as f64);
        let pool = FramePool::new();
        for (i, (plan, feed)) in plans.iter().zip(&epoch.feeds).enumerate() {
            let op = op_base + i as u64 + 1;
            replay_wire(
                plan.codec,
                feed.session(),
                &epoch.recordings[i],
                &pool,
                tr,
                op,
            );
        }
    }
    Ok((epoch, counted))
}
