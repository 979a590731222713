//! `standing`: one long-lived `ReactorServer` whose 64 granted feeds
//! answer repeated wire re-challenge rounds — `begin_recheck_round` →
//! `RecheckAudio` → `recheck_scan_and_decide_arc` → `RecheckVerdict`.
//!
//! Set-up authenticates the standing fleet in one epoch. In every round
//! eight feeds, drawn per round, answer from about 1.5 m and must be
//! denied without losing their connection. The traced run alternates
//! untraced and traced rounds.

use std::sync::{mpsc, Arc};
use std::time::Instant;

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use piano_core::config::ActionConfig;
use piano_core::piano::AuthDecision;
use piano_core::pool::FramePool;
use piano_core::wire::{Message, SignalSpec, WireCodec};
use piano_net::fixtures::hub_recording_sharded;
use piano_net::transport::MemoryStream;
use piano_net::{FeedHandle, ReactorServer};

use crate::checks;
use crate::fleet::{self, FeedPlan, Oracle, CHUNK, FEEDS, HUB_TICK, WAIT};
use crate::report::{peak_rss_mib, secs_since, Metrics, Report};
use crate::stats::{median, Latency};
use crate::trace::{span, Tracer};
use crate::Args;

/// The tail percentile: p99 needs 1 000 re-verifications, and a run
/// measures about 3 000.
const TAIL_PER_MILLE: u64 = 990;

/// Feeds answering from afar in each round.
const FAR_PER_ROUND: usize = FEEDS / 8;

pub fn run(args: &Args, process_start: Instant) -> Result<Report, String> {
    let tracer = args.trace.then(Tracer::new);
    let tr = tracer.as_ref();
    let server_seed = crate::mix(args.seed, 0);
    let server = fleet::server(server_seed, true);
    let reactor = server.start();
    let result = serve(&server, server_seed, args, process_start, tr);
    server.end_standing();
    server.shutdown();
    reactor.join().map_err(|_| "reactor thread panicked")?;
    let (mut report, layer_inputs) = result?;
    if let (Some(t), Some((untraced_p50, traced_p50, layer_sum, ops))) = (tr, layer_inputs) {
        t.write_jsonl(&crate::span_path(args))
            .map_err(|e| format!("writing spans: {e}"))?;
        crate::put_layers(&mut report.metrics, t, ops);
        crate::put_reconciliation(&mut report.metrics, untraced_p50, traced_p50, layer_sum);
    }
    Ok(report)
}

/// Untraced median, traced median, median layer sum, traced operations.
type LayerInputs = (f64, f64, f64, f64);

fn serve(
    server: &ReactorServer,
    server_seed: u64,
    args: &Args,
    process_start: Instant,
    tr: Option<&Tracer>,
) -> Result<(Report, Option<LayerInputs>), String> {
    let config = fleet::action_config(server);
    let mut problems = Vec::new();
    let mut left_out = 0;
    // Mirrors every session the server opens, set-up and rounds alike.
    let mut oracle = Oracle::new(server_seed);

    // Set-up: authenticate the standing fleet, all near. A feed the
    // program itself mislocates here is denied and does not stand.
    let mut rng = ChaCha8Rng::seed_from_u64(crate::mix(args.seed, 1));
    let plans = fleet::plan_feeds(FEEDS, 0, &config, &mut rng);
    let epoch = fleet::run_epoch(server, &plans, None, 0)?;
    let verdicts = fleet::verdicts(&plans, &epoch.decisions);
    let scan = fleet::needs_oracle(&verdicts, false);
    let direct = oracle.decide(
        &epoch.received,
        &epoch.recordings,
        &epoch.hub,
        scan,
        None,
        0,
    )?;
    let (_, wrong) = fleet::sort_verdicts(&verdicts, direct.as_deref(), &mut problems);
    left_out += wrong;
    let mut feeds: Vec<FeedHandle<MemoryStream>> = epoch
        .feeds
        .into_iter()
        .zip(&epoch.decisions)
        .filter(|(_, d)| d.is_granted())
        .map(|(f, _)| f)
        .collect();
    let standing = feeds.len();
    server
        .wait_for_standing(standing, WAIT)
        .map_err(|e| format!("standing fleet: {e}"))?;
    let setup_s = secs_since(process_start);

    let mut latencies = Vec::new();
    let mut traced_latencies = Vec::new();
    let mut layer_sums = Vec::new();
    let mut timed_s = 0.0;
    let (mut ops, mut traced_ops) = (0u64, 0u64);
    let mut sessions_after_round_1 = None;
    let start = Instant::now();
    let mut round = 0u64;
    // A traced run needs one untraced and one traced round at least.
    let min_rounds = if tr.is_some() { 2 } else { 1 };
    while round < min_rounds || secs_since(start) < args.seconds {
        round += 1;
        let traced = tr.filter(|_| round.is_multiple_of(2));
        let mut rng = ChaCha8Rng::seed_from_u64(crate::mix(args.seed, 1 + round));
        let mut far: Vec<bool> = (0..standing).map(|i| i < FAR_PER_ROUND).collect();
        far.shuffle(&mut rng);
        let plans: Vec<FeedPlan> = far
            .iter()
            .map(|&f| {
                if f {
                    fleet::far_plan(WireCodec::Raw, &config, &mut rng)
                } else {
                    fleet::near_plan(WireCodec::Raw, &config)
                }
            })
            .collect();
        let before = server.stats();
        let out = run_round(server, &mut feeds, &plans, &config, traced, traced_ops)?;
        let after = server.stats();
        let sessions = server.service().session_count();
        let baseline = *sessions_after_round_1.get_or_insert(sessions);
        for p in checks::check_round(out.decisions.len(), standing, sessions, baseline) {
            problems.push(format!("round {round}: {p}"));
        }
        if after.connections_dropped != 0 {
            problems.push(format!(
                "round {round}: {} standing connections dropped",
                after.connections_dropped
            ));
        }
        let verdicts = fleet::verdicts(&plans, &out.decisions);
        let scan = fleet::needs_oracle(&verdicts, traced.is_some());
        let (received, recordings) = (&out.received, &out.recordings);
        let direct = oracle.decide(received, recordings, &out.hub, scan, traced, traced_ops)?;
        let (counted, wrong) = fleet::sort_verdicts(&verdicts, direct.as_deref(), &mut problems);
        left_out += wrong;
        let kept = out
            .latencies_ms
            .iter()
            .zip(&counted)
            .filter(|(_, &c)| c)
            .map(|(&l, _)| l);
        let n = counted.iter().filter(|&&c| c).count() as u64;
        match traced {
            Some(t) => {
                t.add(
                    "reactor.frames_decoded",
                    (after.frames_decoded - before.frames_decoded) as f64,
                );
                t.add(
                    "reactor.busy_replies",
                    (after.busy_replies - before.busy_replies) as f64,
                );
                t.raise("reactor.peak_conn_bytes", server.peak_conn_bytes() as f64);
                replay_frames(&out, &feeds, t, traced_ops);
                traced_latencies.extend(kept);
                layer_sums.push(
                    t.last_ms("reactor.recheck_report_wait")
                        + t.last_ms("reactor.recheck_scan")
                        + t.last_ms("reactor.after_scan"),
                );
                traced_ops += n;
            }
            None => {
                latencies.extend(kept);
                timed_s += out.timed_s;
                ops += n;
            }
        }
    }
    problems.extend(checks::check_left_out(left_out, ops + traced_ops));
    for p in &problems {
        eprintln!("standing check failed: {p}");
    }
    let lat = Latency::of(&latencies, TAIL_PER_MILLE);
    eprintln!(
        "standing: {standing} feeds, {round} rounds, {ops} untraced re-verifications, \
         {left_out} left out, tail = p{} over {} samples",
        lat.tail_per_mille as f64 / 10.0,
        lat.samples
    );
    let mut metrics = Metrics::default();
    let layer_inputs = match tr {
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
            None
        }
        Some(_) => Some((
            lat.p50,
            median(&traced_latencies),
            median(&layer_sums),
            traced_ops as f64,
        )),
    };
    let report = Report {
        correct: problems.is_empty(),
        attempted: ops + traced_ops,
        failed: 0,
        metrics,
    };
    Ok((report, layer_inputs))
}

/// One round's results.
struct Round {
    received: Vec<(SignalSpec, SignalSpec)>,
    round: u32,
    recordings: Vec<Vec<f64>>,
    hub: Arc<[f64]>,
    decisions: Vec<AuthDecision>,
    /// Last `RecheckAudio` write to `RecheckVerdict` read, per feed.
    latencies_ms: Vec<f64>,
    timed_s: f64,
}

/// One re-challenge round. The client thread reads every feed's
/// re-challenge, builds its answers (untimed), then answers and reads
/// the verdicts; this thread opens the round, builds the hub recording
/// (untimed), waits for the reports and runs the scan.
fn run_round(
    server: &ReactorServer,
    feeds: &mut [FeedHandle<MemoryStream>],
    plans: &[FeedPlan],
    config: &ActionConfig,
    tr: Option<&Tracer>,
    op_base: u64,
) -> Result<Round, String> {
    let n = feeds.len();
    let (received_tx, received_rx) = mpsc::channel::<()>();
    let (go_tx, go_rx) = mpsc::channel::<()>();
    let busy_before: u64 = feeds.iter().map(|f| f.busy_seen()).sum();
    let t_open = Instant::now();
    let round = u32::try_from(server.begin_recheck_round()).map_err(|e| e.to_string())?;

    let client_feeds = &mut *feeds;
    let (client, host) = std::thread::scope(|scope| {
        let client = scope.spawn(move || -> Result<_, String> {
            let feeds = client_feeds;
            let mut rechecks = Vec::with_capacity(n);
            for (i, feed) in feeds.iter_mut().enumerate() {
                let m = feed
                    .await_recheck(WAIT)
                    .map_err(|e| format!("feed {i} re-challenge: {e}"))?;
                rechecks.push(m);
            }
            let t_received = Instant::now();
            received_tx.send(()).map_err(|e| e.to_string())?;
            // Untimed: the answers.
            let recordings: Vec<Vec<f64>> = rechecks
                .iter()
                .zip(plans)
                .map(|(m, p)| fleet::recording(m, p, config))
                .collect();
            go_rx
                .recv()
                .map_err(|_| "host gave up before the answers")?;
            let t_go = Instant::now();
            let mut sent = Vec::with_capacity(n);
            for (i, (feed, rec)) in feeds.iter_mut().zip(&recordings).enumerate() {
                span(tr, "client.stream", op_base + i as u64 + 1, 0, || {
                    feed.answer_recheck(round, rec, CHUNK)
                })
                .map_err(|e| format!("feed {i} answer: {e}"))?;
                sent.push(Instant::now());
            }
            let mut reads = Vec::with_capacity(n);
            let mut decisions = Vec::with_capacity(n);
            for (i, feed) in feeds.iter_mut().enumerate() {
                let d = feed
                    .await_recheck_verdict(round, WAIT)
                    .map_err(|e| format!("feed {i} round verdict: {e}"))?;
                reads.push(Instant::now());
                decisions.push(d);
            }
            Ok((
                rechecks, recordings, t_received, t_go, sent, reads, decisions,
            ))
        });
        let host = (|| -> Result<_, String> {
            received_rx
                .recv()
                .map_err(|_| "client gave up before the answers")?;
            // Untimed: the round's hub recording, in opening order.
            let ids = server.recheck_session_ids();
            let hub: Arc<[f64]> = hub_recording_sharded(server.service(), &ids).into();
            go_tx.send(()).map_err(|e| e.to_string())?;
            let reported = server
                .wait_for_recheck_reports(n, WAIT)
                .map_err(|e| format!("re-check reports: {e}"))?;
            let t_reports = Instant::now();
            let decided = server.recheck_scan_and_decide_arc(Arc::clone(&hub), HUB_TICK);
            let t_scanned = Instant::now();
            if reported != n || decided != n {
                return Err(format!(
                    "round {round}: {reported} of {n} feeds reported, {decided} decided"
                ));
            }
            Ok((hub, t_reports, t_scanned))
        })();
        (client.join().expect("client thread panicked"), host)
    });
    let (rechecks, recordings, t_received, t_go, sent, reads, decisions) = client?;
    let (hub, t_reports, t_scanned) = host?;
    let busy_after: u64 = feeds.iter().map(|f| f.busy_seen()).sum();

    let last_read = *reads.iter().max().expect("feeds");
    if let Some(t) = tr {
        let last_sent = *sent.iter().max().expect("feeds");
        t.record("reactor.recheck_open", op_base + 1, 0, t_open, t_received);
        t.record(
            "reactor.recheck_report_wait",
            op_base + 1,
            0,
            last_sent,
            t_reports,
        );
        t.record("reactor.recheck_scan", op_base + 1, 0, t_reports, t_scanned);
        let first_read = *reads.iter().min().expect("feeds");
        t.record(
            "reactor.recheck_delivery",
            op_base + 1,
            0,
            first_read,
            last_read,
        );
        t.record("reactor.after_scan", op_base + 1, 0, t_scanned, last_read);
        t.add("reactor.hub_samples", hub.len() as f64);
        t.add("client.busy_pauses", (busy_after - busy_before) as f64);
    }
    Ok(Round {
        received: rechecks.iter().map(fleet::signals).collect(),
        round,
        recordings,
        hub,
        decisions,
        latencies_ms: sent
            .iter()
            .zip(&reads)
            .map(|(&s, &r)| (r - s).as_secs_f64() * 1e3)
            .collect(),
        timed_s: (t_received - t_open).as_secs_f64() + (last_read - t_go).as_secs_f64(),
    })
}

/// The traced round's wire replay, outside every timed interval: the
/// `RecheckAudio` frames each feed wrote, decoded through a pooled
/// `FrameReader`.
fn replay_frames(round: &Round, feeds: &[FeedHandle<MemoryStream>], tr: &Tracer, op_base: u64) {
    let pool = FramePool::new();
    for (i, (feed, rec)) in feeds.iter().zip(&round.recordings).enumerate() {
        let chunks = rec.chunks(CHUNK).map(|c| (c.to_vec(), false));
        let mut framed = Vec::new();
        for (seq, (samples, done)) in chunks.chain([(Vec::new(), true)]).enumerate() {
            let msg = Message::RecheckAudio {
                session: feed.session(),
                round: round.round,
                seq: seq as u32,
                done,
                samples,
            };
            framed.extend(msg.encode_framed());
        }
        tr.add("client.wire_bytes", framed.len() as f64);
        fleet::replay_decode(&framed, &pool, tr, op_base + i as u64 + 1);
    }
}
