//! `rnn_small` and `rnn_paper`: the Table 1 dynamic RNN, converted and
//! staged once, then called through `Session::run` on the bytecode VM.
//!
//! `rnn_small` (hidden 16, feat 8, one thread) is overhead-bound: VM
//! dispatch, session entry and allocation dominate and kernels are
//! tiny. `rnn_paper` (hidden 256, feat 64, seq 64, batch 32, two
//! threads) is kernel-bound: matmul and tanh dominate. A gain in one
//! layer that costs the other shows up across the pair.

use crate::kernels;
use crate::stats::{median, percentile, windowed_percentile};
use crate::trace::Tracer;
use crate::{mix, Metrics, Outcome, SetupLoop};
use autograph_graph::{ExecMode, Graph, NodeId, Session};
use autograph_models::rnn::{self, RnnInputs, RnnWeights};
use autograph_tensor::{Rng64, Tensor};
use std::time::Instant;

/// One RNN workload's fixed shape and threading.
pub struct RnnCfg {
    pub hidden: usize,
    pub feat: usize,
    /// `(batch, seq)` cells the call stream draws from, equally often.
    pub cells: &'static [(usize, usize)],
    /// Session and kernel-pool threads.
    pub threads: usize,
    /// Distinct seeded inputs per cell.
    pub variants: usize,
    /// Calls per cell in one timed round (a round is the unit the
    /// throughput median is taken over).
    pub round_reps: usize,
    /// Whether to time the unconverted interpreter (slow at paper scale).
    pub eager_ref: bool,
    /// Set-ups per run.
    pub setups: usize,
}

pub const SMALL: RnnCfg = RnnCfg {
    hidden: 16,
    feat: 8,
    cells: &[(2, 16), (4, 16), (8, 16), (2, 32), (4, 32), (8, 32)],
    threads: 1,
    variants: 4,
    round_reps: 4,
    eager_ref: true,
    setups: 100,
};

pub const PAPER: RnnCfg = RnnCfg {
    hidden: 256,
    feat: 64,
    cells: &[(32, 64)],
    threads: 2,
    variants: 2,
    round_reps: 1,
    eager_ref: false,
    setups: 40,
};

/// Calls per window of the windowed p90 (10 samples beyond it).
const TAIL_WINDOW: usize = 100;

/// Output tolerance against the `rnn::official` reference.
const TOL: f32 = 1e-5;

struct Case {
    batch: usize,
    inp: RnnInputs,
    feeds: [(&'static str, Tensor); 3],
    want: (Tensor, Tensor),
}

struct Bench {
    weights: RnnWeights,
    /// `cases[cell][variant]`.
    cases: Vec<Vec<Case>>,
    sess: Session,
    outputs: Vec<NodeId>,
    graph: Graph,
    setup_s: Vec<f64>,
    plan_build_ms: Vec<f64>,
}

fn prepare(cfg: &RnnCfg, seed: u64, setup: &SetupLoop) -> Bench {
    if cfg.threads > 1 {
        autograph_par::configure(cfg.threads);
    }
    let weights = RnnWeights::new(cfg.feat, cfg.hidden, mix(seed, 1, 0));
    let cases: Vec<Vec<Case>> = cfg
        .cells
        .iter()
        .enumerate()
        .map(|(ci, &(batch, seq))| {
            (0..cfg.variants)
                .map(|v| {
                    let inp = rnn::inputs(batch, seq, cfg.feat, cfg.hidden, mix(seed, 2 + ci, v));
                    let want = rnn::official(&weights, &inp).expect("official reference");
                    let feeds = [
                        ("input_data", inp.input_data.clone()),
                        ("initial_state", inp.initial_state.clone()),
                        ("sequence_len", inp.sequence_len.clone()),
                    ];
                    Case {
                        batch,
                        inp,
                        feeds,
                        want,
                    }
                })
                .collect()
        })
        .collect();

    // set-up: load + convert + stage the source, open a session and make
    // its first call (plan build + VM lowering); the last one is kept
    let mut setup_s = Vec::new();
    let mut plan_build_ms = Vec::new();
    let mut kept = None;
    while !setup.done(&setup_s) {
        let t0 = Instant::now();
        let mut rt = rnn::runtime(&weights, true).expect("load RNN source");
        let staged = rnn::stage_autograph(&mut rt).expect("stage RNN");
        let mut sess = Session::new(staged.graph);
        sess.set_exec_mode(ExecMode::Vm).set_threads(cfg.threads);
        sess.run(&cases[0][0].feeds, &staged.outputs)
            .expect("first RNN call");
        setup_s.push(t0.elapsed().as_secs_f64());
        plan_build_ms.push(sess.stats().total_build_ns() as f64 / 1e6);
        kept = Some((sess, staged.outputs));
    }
    let (sess, outputs) = kept.expect("at least one set-up");
    let graph = sess.graph().clone();
    Bench {
        weights,
        cases,
        sess,
        outputs,
        graph,
        setup_s,
        plan_build_ms,
    }
}

fn close(got: &Tensor, want: &Tensor) -> bool {
    got.shape() == want.shape()
        && match (got.as_f32(), want.as_f32()) {
            (Ok(g), Ok(w)) => g.iter().zip(w).all(|(a, b)| (a - b).abs() <= TOL),
            _ => false,
        }
}

fn correct(out: &Result<Vec<Tensor>, autograph_graph::GraphError>, case: &Case) -> bool {
    matches!(out, Ok(o) if o.len() == 2 && close(&o[0], &case.want.0) && close(&o[1], &case.want.1))
}

fn shuffle(order: &mut [usize], rng: &mut Rng64) {
    for i in (1..order.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
}

/// The timed run: a seeded stream of calls, every cell equally often in
/// each round, every output checked against the reference.
pub fn run(cfg: &RnnCfg, seed: u64, seconds: f64) -> Outcome {
    let setup = SetupLoop::start(seconds, cfg.setups);
    let mut b = prepare(cfg, seed, &setup);
    let seconds = setup.rest();
    let mut rng = Rng64::new(mix(seed, 100, 0));
    let mut order: Vec<usize> = (0..cfg.cells.len())
        .flat_map(|c| std::iter::repeat_n(c, cfg.round_reps))
        .collect();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut call_ms = Vec::new();
    let mut round_rates = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        shuffle(&mut order, &mut rng);
        let (mut round_s, mut examples) = (0.0, 0usize);
        for &ci in &order {
            let case = &b.cases[ci][rng.next_below(cfg.variants as u64) as usize];
            let t = Instant::now();
            let out = b.sess.run(&case.feeds, &b.outputs);
            let dt = t.elapsed().as_secs_f64();
            attempted += 1;
            if !correct(&out, case) {
                failed += 1;
            }
            call_ms.push(dt * 1e3);
            round_s += dt;
            examples += case.batch;
        }
        round_rates.push(examples as f64 / round_s);
    }
    let mut m = Metrics::default();
    m.set("setup_s", median(&b.setup_s).unwrap_or(0.0), "s");
    m.set("rate_per_s", median(&round_rates).unwrap_or(0.0), "1/s");
    m.set("p50_ms", percentile(&call_ms, 50.0).unwrap_or(0.0), "ms");
    m.set(
        "tail_ms",
        windowed_percentile(&call_ms, 90.0, TAIL_WINDOW).unwrap_or(0.0),
        "ms",
    );
    Outcome {
        attempted,
        failed,
        metrics: m,
    }
}

/// Per-cell medians of one call kind, in seconds.
fn cell_medians(samples: &[Vec<f64>]) -> Vec<f64> {
    samples.iter().map(|s| median(s).unwrap_or(0.0)).collect()
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// The traced run's per-layer ledger for this RNN workload. Untraced
/// reference timings first, then the same calls with session reporting
/// and benchmark spans on, then the kernels alone at the cells' shapes.
pub fn ledger(cfg: &RnnCfg, seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let mut b = prepare(cfg, seed, &SetupLoop::start(seconds, cfg.setups));
    let ncell = cfg.cells.len();
    let (mut attempted, mut failed) = (0u64, 0u64);

    // untraced: AutoGraph VM, Official, Interp and (small only) Eager,
    // interleaved per cell so drift hits every configuration alike
    let mut interp = Session::new(b.graph.clone());
    interp
        .set_exec_mode(ExecMode::Interp)
        .set_threads(cfg.threads);
    let mut eager_rt = cfg
        .eager_ref
        .then(|| rnn::runtime(&b.weights, false).expect("load eager RNN"));
    let (mut ag, mut off, mut itp, mut eag) = (
        vec![Vec::new(); ncell],
        vec![Vec::new(); ncell],
        vec![Vec::new(); ncell],
        vec![Vec::new(); ncell],
    );
    let phase = seconds * 0.4;
    let t_phase = Instant::now();
    let mut k = 0usize;
    while k < 3 * ncell || t_phase.elapsed().as_secs_f64() < phase {
        let ci = k % ncell;
        let case = &b.cases[ci][(k / ncell) % cfg.variants];
        k += 1;
        let t = Instant::now();
        let out = b.sess.run(&case.feeds, &b.outputs);
        ag[ci].push(t.elapsed().as_secs_f64());
        attempted += 1;
        failed += u64::from(!correct(&out, case));
        let t = Instant::now();
        let _ = rnn::official(&b.weights, &case.inp).expect("official run");
        off[ci].push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let out = interp.run(&case.feeds, &b.outputs);
        itp[ci].push(t.elapsed().as_secs_f64());
        attempted += 1;
        failed += u64::from(!correct(&out, case));
        if let Some(rt) = eager_rt.as_mut() {
            let t = Instant::now();
            let _ = rnn::run_eager(rt, &case.inp).expect("eager run");
            eag[ci].push(t.elapsed().as_secs_f64());
        }
    }
    let (ag, off, itp, eag) = (
        cell_medians(&ag),
        cell_medians(&off),
        cell_medians(&itp),
        cell_medians(&eag),
    );

    // traced: session reporting (per-node costs + tensor ledger) and a
    // benchmark span around every call, each traced call right after an
    // untraced one on the same input so the overhead pairs up; the VM's
    // code path is the same either way
    let mut nodes = 0;
    let (mut plain, mut traced) = (vec![Vec::new(); ncell], vec![Vec::new(); ncell]);
    let (mut calls, mut const_evals, mut while_ns, mut const_ns) = (0u64, 0u64, 0u64, 0u64);
    let (mut allocs, mut alloc_bytes, mut peak_bytes) = (0u64, 0u64, 0u64);
    let t_phase = Instant::now();
    let mut k = 0usize;
    while k < 3 * ncell || t_phase.elapsed().as_secs_f64() < phase {
        let ci = k % ncell;
        let case = &b.cases[ci][(k / ncell) % cfg.variants];
        k += 1;
        b.sess.set_reporting(false);
        let t = Instant::now();
        let out = b.sess.run(&case.feeds, &b.outputs);
        plain[ci].push(t.elapsed().as_secs_f64());
        attempted += 1;
        failed += u64::from(!correct(&out, case));
        b.sess.set_reporting(true);
        let nodes_before = b.sess.stats().nodes_executed;
        let (sess, outputs) = (&mut b.sess, &b.outputs);
        let t = Instant::now();
        let out = tracer.span("session.run", |_| sess.run(&case.feeds, outputs));
        traced[ci].push(t.elapsed().as_secs_f64());
        nodes += b.sess.stats().nodes_executed - nodes_before;
        attempted += 1;
        failed += u64::from(!correct(&out, case));
        let rep = b.sess.last_report().expect("reporting is on");
        calls += 1;
        for c in &rep.node_costs {
            match c.op {
                "const" => {
                    const_evals += c.evals;
                    const_ns += c.self_ns;
                }
                "while" => while_ns += c.self_ns,
                _ => {}
            }
        }
        allocs += rep.mem.allocs;
        alloc_bytes += rep.mem.allocated_bytes;
        peak_bytes = peak_bytes.max(rep.mem.peak_bytes);
    }
    let (plain, traced) = (cell_medians(&plain), cell_medians(&traced));

    // kernels alone at each cell's shapes
    let (h, f) = (cfg.hidden, cfg.feat);
    let (mut xw_s, mut hw_s, mut xw_fl, mut hw_fl) = (0.0, 0.0, 0.0, 0.0);
    let (mut mm_ms, mut tanh_ms, mut fused_ms, mut tanh_ns) = (vec![], vec![], vec![], vec![]);
    let (mut mm_flops, mut mm_bytes) = (vec![], vec![]);
    for (ci, &(batch, seq)) in cfg.cells.iter().enumerate() {
        let kseed = mix(seed, 200 + ci, 0);
        let xw = tracer.span("tensor.matmul", |_| {
            kernels::matmul_secs(batch, f, h, kseed)
        });
        let hw = tracer.span("tensor.matmul", |_| {
            kernels::matmul_secs(batch, h, h, kseed)
        });
        let th = tracer.span("tensor.tanh", |_| kernels::tanh_secs(batch * h, kseed));
        let fu = tracer.span("tensor.fused", |_| {
            kernels::fused_cell_secs(batch, h, kseed)
        });
        xw_s += xw;
        hw_s += hw;
        xw_fl += kernels::matmul_flops(batch, f, h);
        hw_fl += kernels::matmul_flops(batch, h, h);
        let steps = seq as f64;
        mm_ms.push((xw + hw) * steps * 1e3);
        tanh_ms.push(th * steps * 1e3);
        fused_ms.push(fu * steps * 1e3);
        tanh_ns.push(th * 1e9 / (batch * h) as f64);
        mm_flops.push(
            steps * (kernels::matmul_flops(batch, f, h) + kernels::matmul_flops(batch, h, h)),
        );
        mm_bytes.push(
            steps * (kernels::matmul_bytes(batch, f, h) + kernels::matmul_bytes(batch, h, h)),
        );
    }

    let per_step_us: Vec<f64> = cfg
        .cells
        .iter()
        .enumerate()
        .map(|(ci, &(_, seq))| (ag[ci] - off[ci]) * 1e6 / seq as f64)
        .collect();
    let overhead: Vec<f64> = traced
        .iter()
        .zip(&plain)
        .map(|(t, u)| t / u - 1.0)
        .collect();
    let n = calls.max(1) as f64;
    let mut m = Metrics::default();
    m.set("graph.nodes_executed_per_call", nodes as f64 / n, "count");
    m.set(
        "graph.evals_per_call.const",
        const_evals as f64 / n,
        "count",
    );
    m.set("graph.overhead_us_per_step", mean(&per_step_us), "us");
    // kernel-alone estimates: the VM times only top-level plan nodes, so
    // ops inside the loop body have no graph self-time of their own
    m.set("graph.self_ms_per_call.matmul", mean(&mm_ms), "ms");
    m.set("graph.self_ms_per_call.fused", mean(&fused_ms), "ms");
    m.set("graph.self_ms_per_call.tanh", mean(&tanh_ms), "ms");
    m.set(
        "graph.self_ms_per_call.const",
        const_ns as f64 / n / 1e6,
        "ms",
    );
    m.set(
        "graph.self_ms_per_call.while",
        while_ns as f64 / n / 1e6,
        "ms",
    );
    m.set(
        "graph.plan_build_ms",
        median(&b.plan_build_ms).unwrap_or(0.0),
        "ms",
    );
    m.set("tensor.matmul_gflops.xw", xw_fl / xw_s / 1e9, "GFLOP/s");
    m.set("tensor.matmul_gflops.hw", hw_fl / hw_s / 1e9, "GFLOP/s");
    m.set("tensor.matmul_flops_per_call", mean(&mm_flops), "count");
    m.set("tensor.matmul_bytes_per_call", mean(&mm_bytes), "bytes");
    m.set("tensor.tanh_ns_per_elem", mean(&tanh_ns), "ns");
    m.set("tensor.allocs_per_call", allocs as f64 / n, "count");
    m.set(
        "tensor.alloc_bytes_per_call",
        alloc_bytes as f64 / n,
        "bytes",
    );
    m.set("tensor.peak_bytes", peak_bytes as f64, "bytes");
    m.set("ref.official_call_ms", mean(&off) * 1e3, "ms");
    m.set("ref.interp_call_ms", mean(&itp) * 1e3, "ms");
    if cfg.eager_ref {
        m.set("ref.eager_call_ms", mean(&eag) * 1e3, "ms");
    }
    m.set("trace.overhead_frac", mean(&overhead), "ratio");
    Outcome {
        attempted,
        failed,
        metrics: m,
    }
}
