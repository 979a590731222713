//! Order statistics for latency samples, and the tail-percentile rule.

/// Percentiles the tail rule may report, in per mille, highest first.
const TAIL_LADDER_PER_MILLE: [u64; 5] = [999, 990, 950, 900, 750];

/// Samples that must lie beyond a percentile before it counts as a tail.
const MIN_BEYOND: usize = 10;

/// Fewer samples than this and the tail is reported as the median: no
/// percentile above it would have ten samples beyond it.
const MIN_TAIL_SAMPLES: usize = 40;

/// The nearest-rank percentile of `sorted` (ascending), `per_mille` in
/// 0..=1000: the smallest sample with at least that share of the
/// samples at or below it. Integer arithmetic, so `p·n` never rounds up
/// through a floating-point error.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], per_mille: u64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len() as u64;
    let rank = (per_mille * n).div_ceil(1000).max(1);
    sorted[(rank - 1) as usize]
}

/// Samples strictly above the nearest-rank `per_mille` percentile.
pub fn beyond(n: usize, per_mille: u64) -> usize {
    let rank = (per_mille * n as u64).div_ceil(1000).max(1) as usize;
    n.saturating_sub(rank)
}

/// The highest percentile (per mille) up to `max_per_mille` with at
/// least ten samples beyond it, or the median (500) when fewer than
/// forty samples exist. Each workload fixes its `max_per_mille` to what
/// its usual sample count supports, so the reported percentile does not
/// hop between runs whose counts differ by a few samples.
pub fn tail_per_mille(n: usize, max_per_mille: u64) -> u64 {
    if n < MIN_TAIL_SAMPLES {
        return 500;
    }
    TAIL_LADDER_PER_MILLE
        .into_iter()
        .filter(|&pm| pm <= max_per_mille)
        .find(|&pm| beyond(n, pm) >= MIN_BEYOND)
        .unwrap_or(500)
}

/// Median and tail of a latency sample, with the tail's percentile.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Latency {
    pub p50: f64,
    pub tail: f64,
    pub tail_per_mille: u64,
    pub samples: usize,
}

impl Latency {
    /// The median and the tail (see [`tail_per_mille`]) of `samples`.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn of(samples: &[f64], max_per_mille: u64) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let pm = tail_per_mille(sorted.len(), max_per_mille);
        Latency {
            p50: percentile(&sorted, 500),
            tail: percentile(&sorted, pm),
            tail_per_mille: pm,
            samples: sorted.len(),
        }
    }
}

/// The median of `values` (nearest rank), or 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 500)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), 50.0);
        assert_eq!(percentile(&v, 900), 90.0);
        assert_eq!(percentile(&v, 990), 99.0);
        assert_eq!(percentile(&v, 1000), 100.0);
        assert_eq!(percentile(&v, 0), 1.0);
        assert_eq!(percentile(&[7.0], 990), 7.0);
        // 0.9·10 is 9.000000000000002 in f64; the integer rank is 9.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 900), 9.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        let t = |n| tail_per_mille(n, 999);
        assert_eq!(t(39), 500, "under forty: median only");
        assert_eq!(t(40), 750);
        assert_eq!(t(99), 750);
        assert_eq!(t(100), 900);
        assert_eq!(t(199), 900);
        assert_eq!(t(200), 950);
        assert_eq!(t(999), 950);
        assert_eq!(t(1_000), 990);
        assert_eq!(t(10_000), 999);
        for n in [40, 77, 100, 150, 640, 1_000, 1_920, 5_000, 20_000] {
            assert!(beyond(n, t(n)) >= MIN_BEYOND, "n = {n}");
        }
    }

    #[test]
    fn tail_rule_stops_at_the_workload_cap() {
        assert_eq!(tail_per_mille(150, 900), 900);
        assert_eq!(tail_per_mille(250, 900), 900);
        assert_eq!(tail_per_mille(20_000, 990), 990);
        assert_eq!(tail_per_mille(800, 990), 950, "too few for the cap");
    }

    #[test]
    fn latency_summary_sorts_its_input() {
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        v.reverse();
        let l = Latency::of(&v, 999);
        assert_eq!(l.p50, 100.0);
        assert_eq!(l.tail_per_mille, 950);
        assert_eq!(l.tail, 190.0);
        assert_eq!(l.samples, 200);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
