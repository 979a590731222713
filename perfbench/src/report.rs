//! The result line: one JSON object, the last line of standard output.

use std::time::Instant;

/// Metrics in the order they are printed: name, value, unit.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        // An empty f64 sum is -0.0; print it as 0.
        self.0.push((name, value + 0.0, unit));
    }
}

/// What one run reports.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Report {
    /// The JSON line. A non-finite value cannot be written as JSON, so
    /// it marks the run incorrect and prints as -1.
    pub fn to_json(&self) -> String {
        let mut correct = self.correct;
        let fields: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    *value
                } else {
                    correct = false;
                    -1.0
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        )
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`), or `None`
/// where `/proc/self/status` does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Seconds since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_four_keys() {
        let mut metrics = Metrics::default();
        metrics.put("latency_p50_ms", 1.25, "ms");
        metrics.put("setup_s", 0.5, "s");
        let r = Report {
            correct: true,
            attempted: 8,
            failed: 0,
            metrics,
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 8, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn non_finite_values_make_the_run_incorrect() {
        let mut metrics = Metrics::default();
        metrics.put("ops_per_s", f64::NAN, "op/s");
        let r = Report {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics,
        };
        assert!(r.to_json().starts_with("{\"correct\": false"));
    }
}
