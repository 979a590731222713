//! Experiment E10 — Sec. V guessing probabilities.
//!
//! Quantifies the sampler gap derived in the `piano_core::signal` docs:
//! the paper's claimed `1/(2^N−2)` single-guess probability holds for
//! uniform-subset sampling but not for its own two-stage construction,
//! and the replay probability is the square of the single-guess
//! probability (the paper's `1/2^(N+1)` appears to be an algebra slip).
//! Monte-Carlo estimates at a small grid size validate the closed forms.

use serde::Serialize;

use piano_attacks::analysis::{
    collision_probability, monte_carlo_collision, paper_claimed_replay, paper_claimed_single_guess,
    replay_success_probability,
};
use piano_core::signal::SignalSampler;

use crate::report::Table;

/// One sampler's row of the analysis.
#[derive(Clone, Debug, Serialize)]
pub struct GuessingRow {
    /// Sampler label.
    pub sampler: String,
    /// Exact single-guess collision probability at N = 30.
    pub single_exact: f64,
    /// Exact replay (two-guess) probability at N = 30.
    pub replay_exact: f64,
    /// Monte-Carlo single-guess estimate at N = 6 (validation).
    pub mc_small_n: f64,
    /// Exact single-guess at N = 6 (validation target).
    pub exact_small_n: f64,
}

/// Full E10 result.
#[derive(Clone, Debug, Serialize)]
pub struct GuessingResult {
    /// Per-sampler rows.
    pub rows: Vec<GuessingRow>,
    /// The paper's claimed single-guess probability at N = 30.
    pub paper_single: f64,
    /// The paper's claimed replay probability at N = 30.
    pub paper_replay: f64,
}

/// Runs E10 (`mc_trials` Monte-Carlo draws at N = 6 per sampler).
pub fn run(mc_trials: usize, seed: u64) -> GuessingResult {
    let rows = [SignalSampler::TwoStage, SignalSampler::UniformSubset]
        .into_iter()
        .map(|sampler| GuessingRow {
            sampler: format!("{sampler:?}"),
            single_exact: collision_probability(sampler, 30),
            replay_exact: replay_success_probability(sampler, 30),
            mc_small_n: monte_carlo_collision(sampler, 6, mc_trials, seed),
            exact_small_n: collision_probability(sampler, 6),
        })
        .collect();
    GuessingResult {
        rows,
        paper_single: paper_claimed_single_guess(30),
        paper_replay: paper_claimed_replay(30),
    }
}

impl GuessingResult {
    /// Renders the analysis.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Sec. V — guessing probabilities (N = 30 candidates)",
            &[
                "sampler",
                "P(guess one)",
                "P(replay)",
                "MC @N=6",
                "exact @N=6",
            ],
        );
        for r in &self.rows {
            t.push_row(vec![
                r.sampler.clone(),
                format!("{:.3e}", r.single_exact),
                format!("{:.3e}", r.replay_exact),
                format!("{:.4}", r.mc_small_n),
                format!("{:.4}", r.exact_small_n),
            ]);
        }
        t.push_row(vec![
            "paper claims".into(),
            format!("{:.3e}", self.paper_single),
            format!("{:.3e}", self.paper_replay),
            "—".into(),
            "—".into(),
        ]);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analysis_is_consistent() {
        let r = run(20_000, 3);
        assert_eq!(r.rows.len(), 2);
        for row in &r.rows {
            let rel = (row.mc_small_n - row.exact_small_n).abs() / row.exact_small_n;
            assert!(
                rel < 0.25,
                "{}: MC {} vs exact {}",
                row.sampler,
                row.mc_small_n,
                row.exact_small_n
            );
        }
        // The uniform-subset row matches the paper's single-guess claim.
        let uniform = r
            .rows
            .iter()
            .find(|r| r.sampler.contains("Uniform"))
            .unwrap();
        assert!((uniform.single_exact - r.paper_single).abs() < 1e-15);
        let _ = r.table();
    }
}
