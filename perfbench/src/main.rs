//! The repository benchmark: one workload per process, timed end to end
//! (`--trace 0`) or broken into a per-layer ledger (`--trace 1`).
//!
//! Usage: `autograph-perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1> [--out-dir DIR]`. Prints every metric with its unit,
//! then, as the last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. See `perfbench/BENCHMARK.md`.

mod kernels;
mod rnn;
mod serve;
mod stage;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The repeated set-up at the start of a run: `count` set-ups, whose
/// median is `setup_s`. The count is fixed per workload rather than
/// bounded by time, so a run does the same set-up work on a fast host
/// and a slow one (and peak RSS does not depend on the host's speed).
pub struct SetupLoop {
    started: Instant,
    seconds: f64,
    count: usize,
}

impl SetupLoop {
    /// Start the set-up of a run of `seconds`.
    pub fn start(seconds: f64, count: usize) -> SetupLoop {
        SetupLoop {
            started: Instant::now(),
            seconds,
            count,
        }
    }

    /// Whether the loop may stop after timing `times`.
    pub fn done(&self, times: &[f64]) -> bool {
        times.len() >= self.count
    }

    /// Seconds left of the run for the timed loop: what set-up did not
    /// use, but never less than half the run.
    pub fn rest(&self) -> f64 {
        rest_of_run(self.seconds, self.started.elapsed().as_secs_f64())
    }
}

fn rest_of_run(seconds: f64, setup_elapsed: f64) -> f64 {
    (seconds - setup_elapsed).max(seconds / 2.0)
}

pub const WORKLOADS: [&str; 4] = ["rnn_small", "rnn_paper", "serve_mix", "stage_corpus"];

/// End-to-end metrics, printed by every workload's timed run.
const END_TO_END: [&str; 5] = ["setup_s", "peak_rss_mb", "rate_per_s", "p50_ms", "tail_ms"];

/// Per-layer metrics, printed by every workload's traced run.
const PER_LAYER: [&str; 48] = [
    "graph.nodes_executed_per_call",
    "graph.evals_per_call.const",
    "graph.overhead_us_per_step",
    "graph.self_ms_per_call.matmul",
    "graph.self_ms_per_call.fused",
    "graph.self_ms_per_call.tanh",
    "graph.self_ms_per_call.const",
    "graph.self_ms_per_call.while",
    "graph.plan_build_ms",
    "tensor.matmul_gflops.xw",
    "tensor.matmul_gflops.hw",
    "tensor.matmul_flops_per_call",
    "tensor.matmul_bytes_per_call",
    "tensor.tanh_ns_per_elem",
    "tensor.allocs_per_call",
    "tensor.alloc_bytes_per_call",
    "tensor.peak_bytes",
    "serve.decode_us.scalar",
    "serve.decode_us.vec256",
    "serve.decode_us.predict",
    "serve.encode_us",
    "serve.queue_wait_mean_ms",
    "serve.run_mean_ms",
    "serve.batch_size_mean",
    "serve.shed_frac",
    "loadgen.late_p99_ms",
    "pylang.parse_ms",
    "transforms.convert_ms",
    "runtime.stage_ms",
    "graph.optimize_ms",
    "graph.shapes_ms",
    "transforms.convert_us_per_line.small",
    "transforms.convert_us_per_line.large",
    "graph.nodes_staged",
    "graph.nodes_optimized",
    "planstore.load_ms",
    "planstore.artifact_bytes",
    "planstore.hit_rate",
    "ref.official_call_ms",
    "ref.eager_call_ms",
    "ref.interp_call_ms",
    "ref.peak_gflops",
    "ref.direct_run_us.score",
    "ref.direct_run_us.predict",
    "trace.overhead_frac",
    "trace.home.graph",
    "trace.home.serve",
    "trace.home.stage",
];

/// Named metric values with their units.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    /// Take every metric of `other` this set does not have yet.
    fn fill_from(&mut self, other: Metrics) {
        for (k, v) in other.0 {
            self.0.entry(k).or_insert(v);
        }
    }
}

/// What one run did.
pub struct Outcome {
    /// Operations whose result was checked (calls, requests, stagings).
    pub attempted: u64,
    /// Of those, how many failed or returned wrong outputs.
    pub failed: u64,
    pub metrics: Metrics,
}

/// Derive an independent stream seed from the run seed.
pub fn mix(seed: u64, a: usize, b: usize) -> u64 {
    let mut z = seed
        .wrapping_add((a as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((b as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) | 1
}

/// Peak resident set size of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {name}"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    let num = |name: &str| -> Result<f64, String> {
        get(name)?
            .parse::<f64>()
            .map_err(|e| format!("{name}: {e}"))
    };
    Ok(Args {
        workload,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: num("--seconds")?,
        trace: num("--trace")? != 0.0,
        out_dir: get("--out-dir").map_or_else(|_| PathBuf::from(".bench_build"), PathBuf::from),
    })
}

/// The traced run. The workload's own ledger gets most of the time; any
/// per-layer metric its traffic does not exercise is measured on that
/// layer's home workload (`rnn_small`, `serve_mix`, `stage_corpus`) in a
/// shorter ledger, so every traced run reports the full ledger.
fn traced(a: &Args, tracer: &mut trace::Tracer) -> Outcome {
    let own = a.seconds * 0.6;
    let home = a.seconds * 0.15;
    let mut out = match a.workload.as_str() {
        "rnn_small" => rnn::ledger(&rnn::SMALL, a.seed, own, tracer),
        "rnn_paper" => rnn::ledger(&rnn::PAPER, a.seed, own, tracer),
        "serve_mix" => serve::ledger(a.seed, own, tracer),
        _ => stage::ledger(a.seed, own, &a.out_dir, tracer),
    };
    // (flag, the metric that marks the home's ledger as the workload's
    // own, every metric that ledger provides that may still be missing)
    let homes: [(&str, &[&str]); 3] = [
        (
            "trace.home.graph",
            &["graph.nodes_executed_per_call", "ref.eager_call_ms"],
        ),
        ("trace.home.serve", &["serve.encode_us"]),
        ("trace.home.stage", &["pylang.parse_ms"]),
    ];
    for (flag, probes) in homes {
        let from_home = !out.metrics.0.contains_key(probes[0]);
        if probes.iter().any(|p| !out.metrics.0.contains_key(*p)) {
            let h = tracer.span("home_ledger", |t| match flag {
                "trace.home.graph" => rnn::ledger(&rnn::SMALL, a.seed, home, t),
                "trace.home.serve" => serve::ledger(a.seed, home, t),
                _ => stage::ledger(a.seed, home, &a.out_dir, t),
            });
            out.attempted += h.attempted;
            out.failed += h.failed;
            // the workload's own figures, trace overhead included, win
            out.metrics.fill_from(h.metrics);
        }
        out.metrics
            .set(flag, f64::from(u8::from(from_home)), "count");
    }
    out.metrics
        .set("ref.peak_gflops", kernels::peak_gflops(), "GFLOP/s");
    out
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: autograph-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out-dir DIR]", WORKLOADS.join("|"));
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&a.out_dir) {
        eprintln!("error: cannot create {}: {e}", a.out_dir.display());
        return ExitCode::from(2);
    }
    let (out, names): (Outcome, &[&str]) = if a.trace {
        let mut tracer = trace::Tracer::new();
        let out = traced(&a, &mut tracer);
        let path = a
            .out_dir
            .join(format!("trace-{}-{}.json", a.workload, a.seed));
        if let Err(e) = tracer.write_chrome(&path) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
        eprintln!(
            "{:<36} {:>8} {:>12} {:>12}",
            "span", "calls", "total_ms", "self_ms"
        );
        for (name, (total, self_ns, calls)) in tracer.totals() {
            eprintln!(
                "{name:<36} {calls:>8} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                self_ns as f64 / 1e6
            );
        }
        eprintln!("wrote spans to {}", path.display());
        (out, &PER_LAYER)
    } else {
        let mut out = match a.workload.as_str() {
            "rnn_small" => rnn::run(&rnn::SMALL, a.seed, a.seconds),
            "rnn_paper" => rnn::run(&rnn::PAPER, a.seed, a.seconds),
            "serve_mix" => serve::run(a.seed, a.seconds),
            _ => stage::run(a.seed, a.seconds, &a.out_dir),
        };
        out.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
        (out, &END_TO_END)
    };
    let missing: Vec<&&str> = names
        .iter()
        .filter(|n| !out.metrics.0.contains_key(**n))
        .collect();
    if !missing.is_empty() {
        eprintln!("error: metrics missing: {missing:?}");
        return ExitCode::from(1);
    }

    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "workload {}  seed {}  seconds {}  trace {}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    println!("  {:<40} {error_rate:>16} ratio", "error_rate");
    let mut json = Vec::new();
    for name in names {
        let (v, unit) = out.metrics.0[*name];
        if !v.is_finite() {
            eprintln!("error: metric {name} is not finite ({v})");
            return ExitCode::from(1);
        }
        println!("  {name:<40} {v:>16.6} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        json.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::rest_of_run;

    #[test]
    fn timed_loop_gets_what_set_up_left_but_at_least_half_the_run() {
        assert_eq!(rest_of_run(30.0, 6.0), 24.0);
        assert_eq!(rest_of_run(30.0, 20.0), 15.0);
    }
}
