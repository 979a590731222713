//! `trial`: serial protocol trials through `piano_eval::trials::run_trial`
//! — the evaluation path, where the acoustic render does most of the work.
//!
//! A round is four trials, one per case: office and street (the quietest
//! and loudest environments of Fig. 1) at 0.5 m and 1.5 m, τ = 1 m. Every
//! run attempts whole rounds. The traced run alternates each untraced
//! `run_trial` with a layer-by-layer replay of the same trial index.

use std::sync::Arc;
use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use piano_acoustics::{AcousticField, Environment, Position};
use piano_bluetooth::{BluetoothLink, PairingRegistry, SecureChannel};
use piano_core::action::DistanceEstimate;
use piano_core::detect::Detector;
use piano_core::device::Device;
use piano_core::error::PianoError;
use piano_core::stream::AuthSession;
use piano_core::wire::Message;
use piano_eval::trials::{run_trial, TrialOutcome, TrialSetup};

use crate::checks::{self, TrialRecord};
use crate::report::{peak_rss_mib, secs_since, Metrics, Report};
use crate::stats::{median, Latency};
use crate::trace::Tracer;
use crate::Args;

/// The four cases of a round: environment name, true distance.
const CASES: [(&str, f64); 4] = [
    ("office", 0.5),
    ("office", 1.5),
    ("street", 0.5),
    ("street", 1.5),
];

/// The tail percentile: p90 needs 100 trials, and a run measures about
/// 150.
const TAIL_PER_MILLE: u64 = 900;

fn environment(name: &str) -> Environment {
    match name {
        "office" => Environment::office(),
        _ => Environment::street(),
    }
}

/// One `TrialSetup` per case, each with its own base seed drawn from
/// the run's seed.
fn setups(seed: u64) -> Vec<(&'static str, TrialSetup)> {
    CASES
        .iter()
        .enumerate()
        .map(|(i, &(env, d))| {
            let base = crate::mix(seed, i as u64);
            (env, TrialSetup::new(environment(env), d, base))
        })
        .collect()
}

pub fn run(args: &Args, process_start: Instant) -> Result<Report, String> {
    let cases = setups(args.seed);
    // Warm-up round on seeds no timed trial uses: first-touch page
    // faults and allocator growth land in set-up, not in the first
    // latency sample.
    for (_, setup) in &cases {
        let mut warm = setup.clone();
        warm.base_seed = !warm.base_seed;
        run_trial(&warm, 0);
    }
    let setup_s = secs_since(process_start);

    let tracer = args.trace.then(Tracer::new);
    let mut records = Vec::new();
    let mut latencies_ms = Vec::new();
    let mut replay_ms = Vec::new();
    let mut replay_layer_sums = Vec::new();
    let mut mismatches = Vec::new();
    let start = Instant::now();
    let mut round = 0u64;
    while round == 0 || secs_since(start) < args.seconds {
        for (env, setup) in &cases {
            let t = Instant::now();
            let outcome = run_trial(setup, round);
            latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            records.push(TrialRecord { env, outcome });
            if let Some(tr) = &tracer {
                let op = records.len() as u64;
                let (replayed, total_ms, layer_sum_ms) = replay_trial(setup, round, tr, op);
                replay_ms.push(total_ms);
                replay_layer_sums.push(layer_sum_ms);
                if !checks::bit_identical(&outcome, &replayed) {
                    mismatches.push(format!(
                        "{env} @ {} m, index {round}: run_trial {:?}, replay {:?}",
                        setup.distance_m, outcome.estimate_m, replayed.estimate_m
                    ));
                }
            }
        }
        round += 1;
    }
    let wall_s = secs_since(start);

    let failed = records
        .iter()
        .filter(|r| r.outcome.estimate_m.is_none())
        .count() as u64;
    let mut problems = checks::check_trials(&records, checks::TAU_M);
    problems.extend(mismatches);
    for p in &problems {
        eprintln!("trial check failed: {p}");
    }

    let lat = Latency::of(&latencies_ms, TAIL_PER_MILLE);
    let mae_cm = |env| checks::mean_abs_error(&records, env).map_or(0.0, |(m, _)| m * 100.0);
    eprintln!(
        "trial: {} trials in {round} rounds, tail = p{} over {} samples, \
         mean absolute error office {:.1} cm, street {:.1} cm",
        records.len(),
        lat.tail_per_mille as f64 / 10.0,
        lat.samples,
        mae_cm("office"),
        mae_cm("street"),
    );
    let mut metrics = Metrics::default();
    match &tracer {
        None => {
            // In the traced run, replays share the wall clock, so
            // throughput is only meaningful untraced.
            metrics.put("ops_per_s", records.len() as f64 / wall_s, "op/s");
            metrics.put("latency_p50_ms", lat.p50, "ms");
            metrics.put("latency_tail_ms", lat.tail, "ms");
            metrics.put("setup_s", setup_s, "s");
            metrics.put(
                "peak_rss_mib",
                peak_rss_mib().ok_or("no VmHWM in /proc/self/status")?,
                "MiB",
            );
        }
        Some(tr) => {
            tr.write_jsonl(&crate::span_path(args))
                .map_err(|e| format!("writing spans: {e}"))?;
            crate::put_layers(&mut metrics, tr, replay_ms.len() as f64);
            crate::put_reconciliation(
                &mut metrics,
                lat.p50,
                median(&replay_ms),
                median(&replay_layer_sums),
            );
        }
    }
    Ok(Report {
        correct: problems.is_empty(),
        attempted: records.len() as u64,
        failed,
        metrics,
    })
}

/// `run_trial` for one index, replayed call by call with a span around
/// each layer's call: the seed derivation and set-up of
/// `piano_eval::trials`, then the six steps of
/// `piano_core::action::run_session_pair`. Returns the outcome, the
/// whole replay's milliseconds and the sum of its layer spans.
fn replay_trial(setup: &TrialSetup, index: u64, tr: &Tracer, op: u64) -> (TrialOutcome, f64, f64) {
    let root = tr.reserve();
    let t0 = Instant::now();
    let detector = tr.time("detect.plan", op, root, || {
        Arc::new(Detector::new(&setup.action))
    });
    let seed = setup
        .base_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0x0123_4567_89AB_CDEF) ^ index);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut field = AcousticField::new(setup.environment.clone(), seed ^ 0x00FF_00FF);
    let mut link = BluetoothLink::new();
    let mut registry = PairingRegistry::new();
    let auth = Device::phone(1, Position::ORIGIN, seed.wrapping_add(0xA));
    let vouch = Device::phone(
        2,
        Position::new(setup.distance_m, 0.0, 0.0),
        seed.wrapping_add(0xB),
    );
    registry.pair(auth.id, vouch.id, &mut rng);

    let estimate = session_pair(
        &detector, &mut field, &mut link, &registry, &auth, &vouch, &mut rng, tr, op, root,
    );
    let end = Instant::now();
    tr.record_as(root, "trial", op, 0, t0, end);
    let layer_sum = tr.children_ms(root);
    let estimate_m = match estimate {
        Ok(DistanceEstimate::Measured(d)) => Some(d),
        _ => None,
    };
    let outcome = TrialOutcome {
        true_distance_m: setup.distance_m,
        estimate_m,
    };
    (outcome, (end - t0).as_secs_f64() * 1e3, layer_sum)
}

#[allow(clippy::too_many_arguments)]
fn session_pair(
    detector: &Arc<Detector>,
    field: &mut AcousticField,
    link: &mut BluetoothLink,
    registry: &PairingRegistry,
    auth: &Device,
    vouch: &Device,
    rng: &mut ChaCha8Rng,
    tr: &Tracer,
    op: u64,
    root: u64,
) -> Result<DistanceEstimate, PianoError> {
    let config = detector.config().clone();
    let now_world_s = 0.0;
    let key = registry.key_for(auth.id, vouch.id)?;

    // Step I: the authenticator draws the randomized signals.
    let mut session_a = tr.time("protocol.session", op, root, || {
        AuthSession::authenticator_with(Arc::clone(detector), f64::INFINITY, rng)
    });
    let session = session_a.session_id();
    let mut chan_auth = SecureChannel::new(key, session << 8);
    let mut chan_vouch = SecureChannel::new(key, (session << 8) | 0x80);

    // Step II: the challenge crosses the Bluetooth link.
    let msg = session_a
        .poll_transmit()
        .expect("authenticator queues its challenge at construction");
    let frame = tr.time("protocol.seal", op, root, || chan_auth.seal(&msg.encode()));
    let arrival_s = tr.time("protocol.transmit", op, root, || {
        link.transmit(now_world_s, &auth.position, &vouch.position, &frame)
    })?;
    let opened = tr.time("protocol.open", op, root, || chan_vouch.open(&frame))?;
    let mut session_v = AuthSession::voucher_with(Arc::clone(detector));
    tr.time("protocol.handle", op, root, || {
        session_v.handle_message(Message::decode(&opened)?)
    })?;

    // Step III: both devices record while S_A and S_V play.
    let start_cmd = arrival_s;
    tr.time("acoustics.play", op, root, || {
        auth.play(
            field,
            &session_a
                .playback_waveform()
                .expect("authenticator knows S_A"),
            start_cmd + config.play_offset_auth_s,
            config.sample_rate,
            rng,
        );
        vouch.play(
            field,
            &session_v
                .playback_waveform()
                .expect("challenged voucher knows S_V"),
            start_cmd + config.play_offset_vouch_s,
            config.sample_rate,
            rng,
        );
    });
    tr.add("acoustics.emissions", field.emission_count() as f64);
    let (rec_auth, _) = tr.time("acoustics.render", op, root, || {
        auth.record(
            field,
            start_cmd,
            config.recording_duration_s,
            config.sample_rate,
            rng,
        )
    });
    tr.add("acoustics.emissions", field.emission_count() as f64);
    let (rec_vouch, _) = tr.time("acoustics.render", op, root, || {
        vouch.record(
            field,
            start_cmd,
            config.recording_duration_s,
            config.sample_rate,
            rng,
        )
    });

    // Step IV: each session scans its own recording.
    tr.time("detect.push", op, root, || {
        session_a.push_audio(rec_auth.samples())
    });
    tr.time("detect.finish", op, root, || session_a.finish_audio());
    tr.time("detect.push", op, root, || {
        session_v.push_audio(rec_vouch.samples())
    });
    tr.time("detect.finish", op, root, || session_v.finish_audio());
    tr.add(
        "detect.scan_ffts",
        (session_a.scan_ffts() + session_v.scan_ffts()) as f64,
    );

    // Step V: the voucher's report crosses back.
    let report = session_v
        .poll_transmit()
        .expect("finished voucher queues its report");
    let report_frame = tr.time("protocol.seal", op, root, || {
        chan_vouch.seal(&report.encode())
    });
    tr.time("protocol.transmit", op, root, || {
        link.transmit(
            start_cmd + config.recording_duration_s,
            &vouch.position,
            &auth.position,
            &report_frame,
        )
    })?;
    let report_opened = tr.time("protocol.open", op, root, || chan_auth.open(&report_frame))?;
    tr.time("protocol.handle", op, root, || {
        session_a.handle_message(Message::decode(&report_opened)?)
    })?;
    tr.add("protocol.bluetooth_bytes", link.total_bytes() as f64);

    // Step VI: Eq. 3.
    Ok(session_a
        .estimate()
        .expect("report + locations decide the session"))
}
