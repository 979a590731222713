//! Correctness checks on the program's outputs. Each check compares
//! against a computation made independently of the program (Eq. 3 on
//! the sample offsets the benchmark placed, ground-truth distances,
//! direct service ingestion) or against a property the method must have.
//! A check returns the list of problems it found; empty means correct.

use piano_core::action::DistanceEstimate;
use piano_core::piano::{AuthDecision, DenialReason};
use piano_core::stream::{decision_from_estimate, ServiceStats};
use piano_eval::trials::TrialOutcome;

/// The grant threshold τ of every workload, in meters.
pub const TAU_M: f64 = 1.0;

/// How far a reported distance may sit from Eq. 3 on the offsets the
/// benchmark placed: the detector's fine step and the i16 quantization
/// move the estimate by centimeters, and 10 cm is still far from τ.
pub const DISTANCE_TOL_M: f64 = 0.1;

/// Bounds on the mean absolute error per environment: the paper's Fig. 1
/// band (office 5–7 cm, street 10–15 cm), widened by half the band's
/// bottom below and half its top above — the margin the README derives.
pub const MAE_BAND_M: [(&str, f64, f64); 2] = [
    ("office", 0.05 * 0.5, 0.07 * 1.5),
    ("street", 0.10 * 0.5, 0.15 * 1.5),
];

/// Eq. 3: the distance two devices stand apart when the hub hears the
/// two signals `hub_gap` samples apart and the voucher `feed_gap`.
pub fn eq3_distance_m(hub_gap: usize, feed_gap: usize, sample_rate: f64, speed: f64) -> f64 {
    0.5 * (hub_gap as f64 - feed_gap as f64) / sample_rate * speed
}

/// One trial of the `trial` workload.
#[derive(Clone, Copy, Debug)]
pub struct TrialRecord {
    pub env: &'static str,
    pub outcome: TrialOutcome,
}

/// Every trial measured a distance, every decision under τ matches the
/// ground truth, and the mean absolute error per environment stays
/// within its band.
pub fn check_trials(records: &[TrialRecord], tau_m: f64) -> Vec<String> {
    let mut problems = Vec::new();
    for r in records {
        let truth = r.outcome.true_distance_m;
        let Some(d) = r.outcome.estimate_m else {
            problems.push(format!("{} @ {truth} m: no distance measured", r.env));
            continue;
        };
        let granted = decision_from_estimate(DistanceEstimate::Measured(d), tau_m).is_granted();
        if granted != (truth <= tau_m) {
            problems.push(format!(
                "{} @ {truth} m: estimate {d:.3} m {} under τ = {tau_m} m",
                r.env,
                if granted { "granted" } else { "denied" }
            ));
        }
    }
    for (env, low, high) in MAE_BAND_M {
        let Some((mae, n)) = mean_abs_error(records, env) else {
            continue;
        };
        if !(low..=high).contains(&mae) {
            problems.push(format!(
                "{env}: mean absolute error {:.1} cm over {n} trials outside {:.1}–{:.1} cm",
                mae * 100.0,
                low * 100.0,
                high * 100.0
            ));
        }
    }
    problems
}

/// The mean absolute error of `env`'s measured trials, and their count.
pub fn mean_abs_error(records: &[TrialRecord], env: &str) -> Option<(f64, usize)> {
    let errors: Vec<f64> = records
        .iter()
        .filter(|r| r.env == env)
        .filter_map(|r| r.outcome.abs_error_m())
        .collect();
    (!errors.is_empty()).then(|| {
        (
            errors.iter().sum::<f64>() / errors.len() as f64,
            errors.len(),
        )
    })
}

/// Two trial outcomes agree bit for bit.
pub fn bit_identical(a: &TrialOutcome, b: &TrialOutcome) -> bool {
    a.true_distance_m.to_bits() == b.true_distance_m.to_bits()
        && a.estimate_m.map(f64::to_bits) == b.estimate_m.map(f64::to_bits)
}

/// One feed's verdict next to what the benchmark placed.
#[derive(Clone, Debug)]
pub struct FeedVerdict {
    /// Eq. 3 on the offsets the benchmark placed.
    pub expected_m: f64,
    pub decision: AuthDecision,
}

/// What is wrong with one verdict, if anything: a near feed (Eq. 3 under
/// τ) must be granted and a far one denied as too far, each at a
/// distance within [`DISTANCE_TOL_M`] of Eq. 3.
pub fn verdict_problem(v: &FeedVerdict, tau_m: f64) -> Option<String> {
    let near = v.expected_m <= tau_m;
    let measured = match (&v.decision, near) {
        (AuthDecision::Granted { distance_m }, true) => Some(*distance_m),
        (
            AuthDecision::Denied {
                reason: DenialReason::TooFar { distance_m },
            },
            false,
        ) => Some(*distance_m),
        _ => None,
    };
    match measured {
        Some(d) if (d - v.expected_m).abs() <= DISTANCE_TOL_M => None,
        _ => Some(format!(
            "placed at {:.3} m ({}), got {:?}",
            v.expected_m,
            if near { "near" } else { "far" },
            v.decision
        )),
    }
}

/// The server's counters agree with what the clients saw: wire bytes
/// match the clients' sum, every `Busy` was answered by a `Credit`, no
/// connection was dropped, and every feed's session decided.
pub fn check_accounting(stats: &ServiceStats, client_wire_bytes: u64, feeds: u64) -> Vec<String> {
    let mut problems = Vec::new();
    if stats.wire_audio_bytes != client_wire_bytes {
        problems.push(format!(
            "server counted {} wire audio bytes, clients sent {client_wire_bytes}",
            stats.wire_audio_bytes
        ));
    }
    if stats.busy_replies != stats.credit_replies {
        problems.push(format!(
            "{} Busy replies but {} Credit replies",
            stats.busy_replies, stats.credit_replies
        ));
    }
    if stats.connections_dropped != 0 {
        problems.push(format!("{} connections dropped", stats.connections_dropped));
    }
    if stats.sessions_decided < feeds {
        problems.push(format!(
            "{} of {feeds} sessions decided",
            stats.sessions_decided
        ));
    }
    problems
}

/// Reactor verdicts equal direct ingestion of the same samples.
pub fn check_conformance(reactor: &[AuthDecision], direct: &[AuthDecision]) -> Vec<String> {
    if reactor.len() != direct.len() {
        return vec![format!(
            "{} reactor verdicts, {} direct",
            reactor.len(),
            direct.len()
        )];
    }
    reactor
        .iter()
        .zip(direct)
        .enumerate()
        .filter(|(_, (r, d))| r != d)
        .map(|(i, (r, d))| format!("feed {i}: reactor {r:?}, direct {d:?}"))
        .collect()
}

/// One re-verification round returned a verdict for every standing
/// feed, and per-round sessions do not pile up: the service holds no
/// more sessions after this round than after round 1.
pub fn check_round(
    verdicts: usize,
    standing: usize,
    sessions: usize,
    sessions_after_round_1: usize,
) -> Vec<String> {
    let mut problems = Vec::new();
    if verdicts != standing {
        problems.push(format!("{verdicts} verdicts for {standing} standing feeds"));
    }
    if sessions > sessions_after_round_1 {
        problems.push(format!(
            "{sessions} service sessions, {sessions_after_round_1} after round 1"
        ));
    }
    problems
}

/// Largest share of a run's operations that may be left out because
/// direct ingestion mislocates them too (about 1 in 1 000, see the
/// README): a change that makes mislocation common fails the run
/// instead of quietly shrinking it.
pub const MAX_LEFT_OUT_SHARE: f64 = 0.01;

/// The left-out operations stay a small share of the run.
pub fn check_left_out(left_out: usize, counted: u64) -> Vec<String> {
    let total = left_out as f64 + counted as f64;
    if left_out as f64 > MAX_LEFT_OUT_SHARE * total {
        vec![format!(
            "{left_out} of {total} operations mislocated by direct ingestion too"
        )]
    } else {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trial(env: &'static str, truth: f64, estimate: Option<f64>) -> TrialRecord {
        TrialRecord {
            env,
            outcome: TrialOutcome {
                true_distance_m: truth,
                estimate_m: estimate,
            },
        }
    }

    fn good_trials() -> Vec<TrialRecord> {
        vec![
            trial("office", 0.5, Some(0.53)),
            trial("office", 1.5, Some(1.46)),
            trial("street", 0.5, Some(0.62)),
            trial("street", 1.5, Some(1.41)),
        ]
    }

    #[test]
    fn eq3_on_the_fixture_offsets_is_half_a_meter() {
        let d = eq3_distance_m(6_000, 5_871, 44_100.0, 343.0);
        assert!((d - 0.5017).abs() < 1e-4, "{d}");
    }

    #[test]
    fn good_trials_pass() {
        assert!(check_trials(&good_trials(), TAU_M).is_empty());
    }

    #[test]
    fn a_wrong_decision_fails() {
        let mut t = good_trials();
        t[1].outcome.estimate_m = Some(0.99);
        let problems = check_trials(&t, TAU_M);
        assert!(problems[0].contains("granted"), "{problems:?}");
    }

    #[test]
    fn a_missing_distance_fails() {
        let mut t = good_trials();
        t[2].outcome.estimate_m = None;
        assert_eq!(check_trials(&t, TAU_M).len(), 1);
    }

    #[test]
    fn an_error_outside_the_band_fails() {
        // Every decision still right, but the office error is 20 cm.
        let t = vec![
            trial("office", 0.5, Some(0.7)),
            trial("office", 1.5, Some(1.3)),
        ];
        let problems = check_trials(&t, TAU_M);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].starts_with("office"), "{problems:?}");
        // A street channel that stopped adding error is as wrong.
        let exact = vec![
            trial("street", 0.5, Some(0.5)),
            trial("street", 1.5, Some(1.5)),
        ];
        assert_eq!(check_trials(&exact, TAU_M).len(), 1);
    }

    #[test]
    fn a_perturbed_trial_estimate_is_not_bit_identical() {
        let a = good_trials()[0].outcome;
        let mut b = a;
        assert!(bit_identical(&a, &b));
        b.estimate_m = b.estimate_m.map(|d| d + f64::EPSILON);
        assert!(!bit_identical(&a, &b));
        b.estimate_m = None;
        assert!(!bit_identical(&a, &b));
    }

    fn near(d: f64) -> FeedVerdict {
        FeedVerdict {
            expected_m: 0.5017,
            decision: AuthDecision::Granted { distance_m: d },
        }
    }

    fn far(d: f64) -> FeedVerdict {
        FeedVerdict {
            expected_m: 1.5,
            decision: AuthDecision::Denied {
                reason: DenialReason::TooFar { distance_m: d },
            },
        }
    }

    fn wrong(v: &FeedVerdict) -> bool {
        verdict_problem(v, TAU_M).is_some()
    }

    #[test]
    fn right_verdicts_pass() {
        assert!(!wrong(&near(0.49)));
        assert!(!wrong(&far(1.52)));
    }

    #[test]
    fn a_flipped_far_verdict_fails() {
        let flipped = FeedVerdict {
            expected_m: 1.5,
            decision: AuthDecision::Granted { distance_m: 1.5 },
        };
        assert!(wrong(&flipped));
    }

    #[test]
    fn a_denied_near_feed_or_a_wrong_distance_fails() {
        let denied = FeedVerdict {
            expected_m: 0.5017,
            decision: AuthDecision::Denied {
                reason: DenialReason::ProtocolFailure("undecided".into()),
            },
        };
        assert!(wrong(&denied));
        assert!(wrong(&near(0.75)));
        assert!(wrong(&near(-13.3)));
        assert!(wrong(&far(1.2)));
    }

    fn clean_stats() -> ServiceStats {
        ServiceStats {
            connections: 4,
            wire_audio_bytes: 1_000,
            busy_replies: 3,
            credit_replies: 3,
            sessions_decided: 4,
            ..ServiceStats::default()
        }
    }

    #[test]
    fn accounting_checks_each_counter() {
        assert!(check_accounting(&clean_stats(), 1_000, 4).is_empty());
        assert_eq!(check_accounting(&clean_stats(), 999, 4).len(), 1);
        let mut s = clean_stats();
        s.credit_replies = 2;
        assert_eq!(check_accounting(&s, 1_000, 4).len(), 1);
        let mut s = clean_stats();
        s.connections_dropped = 1;
        assert_eq!(check_accounting(&s, 1_000, 4).len(), 1);
        assert_eq!(check_accounting(&clean_stats(), 1_000, 5).len(), 1);
    }

    #[test]
    fn a_diverging_reactor_verdict_fails_conformance() {
        let direct = vec![near(0.5).decision, far(1.5).decision];
        assert!(check_conformance(&direct, &direct).is_empty());
        let mut reactor = direct.clone();
        reactor[1] = AuthDecision::Granted { distance_m: 1.5 };
        assert_eq!(check_conformance(&reactor, &direct).len(), 1);
        assert_eq!(check_conformance(&reactor[..1], &direct).len(), 1);
    }

    #[test]
    fn a_dropped_standing_verdict_fails() {
        assert!(check_round(64, 64, 64, 64).is_empty());
        assert_eq!(check_round(63, 64, 64, 64).len(), 1);
    }

    #[test]
    fn piling_up_sessions_fail() {
        assert!(check_round(64, 64, 60, 64).is_empty());
        assert_eq!(check_round(64, 64, 128, 64).len(), 1);
    }

    #[test]
    fn left_out_operations_stay_rare() {
        assert!(check_left_out(0, 2_000).is_empty());
        assert!(check_left_out(20, 1_980).is_empty());
        assert_eq!(check_left_out(21, 1_979).len(), 1);
        assert_eq!(check_left_out(1, 0).len(), 1);
    }
}
