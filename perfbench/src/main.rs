//! The PIANO end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <trial|fleet|standing> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for `--seconds` seconds of measurement, checks the
//! program's outputs, and prints one JSON line as the last line of
//! standard output: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a traced run with `--trace 1` (which also writes
//! its spans to `.bench_out/`). See `README.md` for the workloads and
//! metrics.

mod checks;
mod fleet;
mod report;
mod standing;
mod stats;
mod trace;
mod trial;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::{Metrics, Report};
use trace::Tracer;

/// The environment the benchmark pins before anything reads it: one
/// scan worker, so runs on a shared 2-core machine do not depend on how
/// many cores happen to be free, and the best SIMD backend the CPU has.
const PINNED_ENV: [(&str, &str); 2] = [("PIANO_SCAN_WORKERS", "1"), ("PIANO_DSP_SIMD", "auto")];

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Workload {
    Trial,
    Fleet,
    Standing,
}

/// The command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(match value.as_str() {
                        "trial" => Workload::Trial,
                        "fleet" => Workload::Fleet,
                        "standing" => Workload::Standing,
                        other => return Err(format!("unknown workload {other:?}")),
                    })
                }
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds {s} outside (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    }
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
        })
    }

    fn name(&self) -> &'static str {
        match self.workload {
            Workload::Trial => "trial",
            Workload::Fleet => "fleet",
            Workload::Standing => "standing",
        }
    }
}

/// A 64-bit mix of the run seed and a stream index (SplitMix64), so
/// each input stream of a run draws from its own seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every per-layer metric, in one fixed order, from the spans and counts
/// of a traced run over `ops` operations. A layer the workload never
/// calls reads 0.
pub fn put_layers(m: &mut Metrics, tr: &Tracer, ops: f64) {
    let per_op = |v: f64| if ops > 0.0 { v / ops } else { 0.0 };
    let mean_ms = |name: &str| match tr.count(name) {
        0 => 0.0,
        n => tr.total_ms(name) / n as f64,
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    m.put(
        "acoustics.render_ms",
        per_op(tr.total_ms("acoustics.render")),
        "ms",
    );
    m.put(
        "acoustics.play_ms",
        per_op(tr.total_ms("acoustics.play")),
        "ms",
    );
    m.put(
        "acoustics.emissions_per_render",
        ratio(
            tr.sum("acoustics.emissions"),
            tr.count("acoustics.render") as f64,
        ),
        "count",
    );
    m.put("detect.plan_ms", per_op(tr.total_ms("detect.plan")), "ms");
    m.put("detect.push_ms", per_op(tr.total_ms("detect.push")), "ms");
    m.put(
        "detect.finish_ms",
        per_op(tr.total_ms("detect.finish")),
        "ms",
    );
    m.put(
        "detect.scan_ffts",
        per_op(tr.sum("detect.scan_ffts")),
        "count",
    );
    m.put("protocol.ms", per_op(tr.layer_ms("protocol")), "ms");
    m.put(
        "protocol.bluetooth_bytes",
        per_op(tr.sum("protocol.bluetooth_bytes")),
        "B",
    );
    m.put("client.handshake_ms", mean_ms("client.handshake"), "ms");
    m.put(
        "client.stream_ms",
        per_op(tr.total_ms("client.stream")),
        "ms",
    );
    m.put(
        "client.busy_pauses",
        per_op(tr.sum("client.busy_pauses")),
        "count",
    );
    m.put(
        "client.wire_bytes_per_feed",
        per_op(tr.sum("client.wire_bytes")),
        "B",
    );
    m.put(
        "codec.encode_us_per_frame",
        ratio(tr.total_ms("codec.encode") * 1e3, tr.sum("codec.frames")),
        "us",
    );
    m.put(
        "wire.decode_us_per_frame",
        ratio(tr.total_ms("wire.decode") * 1e3, tr.sum("wire.frames")),
        "us",
    );
    m.put(
        "reactor.report_wait_ms",
        mean_ms("reactor.report_wait"),
        "ms",
    );
    m.put("reactor.scan_ms", mean_ms("reactor.scan"), "ms");
    m.put("reactor.delivery_ms", mean_ms("reactor.delivery"), "ms");
    m.put(
        "reactor.recheck_open_ms",
        mean_ms("reactor.recheck_open"),
        "ms",
    );
    m.put(
        "reactor.recheck_report_wait_ms",
        mean_ms("reactor.recheck_report_wait"),
        "ms",
    );
    m.put(
        "reactor.recheck_scan_ms",
        mean_ms("reactor.recheck_scan"),
        "ms",
    );
    m.put(
        "reactor.recheck_delivery_ms",
        mean_ms("reactor.recheck_delivery"),
        "ms",
    );
    m.put(
        "reactor.peak_conn_bytes",
        tr.sum("reactor.peak_conn_bytes"),
        "B",
    );
    m.put(
        "reactor.frames_decoded",
        per_op(tr.sum("reactor.frames_decoded")),
        "count",
    );
    m.put(
        "reactor.busy_replies",
        per_op(tr.sum("reactor.busy_replies")),
        "count",
    );
    m.put(
        "reactor.hub_samples",
        per_op(tr.sum("reactor.hub_samples")),
        "count",
    );
    m.put("service.hub_scan_ms", mean_ms("service.hub_scan"), "ms");
}

/// The traced run next to the untraced one: the untraced median, the
/// traced median of the same operations, the median sum of the layer
/// spans, and the tracing overhead.
pub fn put_reconciliation(m: &mut Metrics, untraced_p50: f64, traced_p50: f64, layer_sum: f64) {
    m.put("trace.untraced_p50_ms", untraced_p50, "ms");
    m.put("trace.traced_p50_ms", traced_p50, "ms");
    m.put("trace.layer_sum_ms", layer_sum, "ms");
    m.put(
        "trace.overhead_pct",
        (traced_p50 / untraced_p50 - 1.0) * 100.0,
        "%",
    );
}

fn main() -> ExitCode {
    // Set-up time counts from here, the process's first instruction of
    // its own.
    let process_start = Instant::now();
    for (key, value) in PINNED_ENV {
        std::env::set_var(key, value);
    }
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: workload {} seed {} for {} s, trace {}; {} cores, SIMD {:?}",
        args.name(),
        args.seed,
        args.seconds,
        args.trace,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        piano_dsp::simd::active_backend()
    );
    let result = match args.workload {
        Workload::Trial => trial::run(&args, process_start),
        Workload::Fleet => fleet::run(&args, process_start),
        Workload::Standing => standing::run(&args, process_start),
    };
    let report: Report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Where a traced run writes its spans, relative to the working
/// directory (the checkout's root).
pub fn span_path(args: &Args) -> PathBuf {
    PathBuf::from(".bench_out").join(format!("spans-{}-{}.jsonl", args.name(), args.seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse("--workload fleet --seed 7 --seconds 20 --trace 1").expect("valid");
        assert_eq!(a.workload, Workload::Fleet);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse("--workload nope --seed 1 --seconds 1").is_err());
        assert!(parse("--workload trial --seconds 1").is_err());
        assert!(parse("--workload trial --seed 1 --seconds 0").is_err());
        assert!(parse("--workload trial --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload trial --seed 1 --seconds").is_err());
    }

    #[test]
    fn seed_streams_differ() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(5, 3), mix(5, 3));
    }
}
