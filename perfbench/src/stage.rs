//! `stage_corpus`: cold staging of a seeded corpus into a fresh on-disk
//! plan store, then warm restaging of it from a fresh `PlanStore`. The
//! corpus is the Table 1 RNN source (weights as module constants), the
//! three `examples/explain` programs, both functions of
//! `examples/serve/mlp.pylite`, and two straight-line elementwise
//! functions of ~125 and ~1000 lines. Without this workload the staging
//! layers would show only inside a millisecond `setup_s`.

use crate::stats::{median, windowed_percentile};
use crate::trace::Tracer;
use crate::{mix, Metrics, Outcome, SetupLoop};
use autograph_graph::{CompiledUnit, Graph, OpKind, Session};
use autograph_planstore::{PlanStore, VERSION_TAG};
use autograph_runtime::runtime::GraphArg;
use autograph_runtime::{compile_cached_with, CompiledFunction, Runtime, Value};
use autograph_tensor::{Rng64, Tensor};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Line counts of the two straight-line corpus functions.
pub const SMALL_LINES: usize = 125;
pub const LARGE_LINES: usize = 1000;
const TOL: f32 = 1e-5;
/// Cold corpus stagings per run; their median is `setup_s`.
const SETUPS: usize = 15;
/// Warm passes per window of the windowed p90 (10 samples beyond it).
const TAIL_WINDOW: usize = 100;

struct Entry {
    label: &'static str,
    src: String,
    func: &'static str,
    args: &'static [&'static str],
    inputs: Vec<Tensor>,
}

/// A straight-line chain of elementwise ops feeding a short `while`
/// loop, in the style of the repository's staging benchmark; constants
/// are drawn from the seed.
fn straight_src(lines: usize, rng: &mut Rng64) -> String {
    let mut src = String::from("def f(x):\n    acc = x * 1.0001\n");
    for i in 0..lines {
        let c = 1.0 + rng.next_below(7) as f64 * 1e-4;
        match i % 3 {
            0 => src.push_str(&format!("    acc = tf.tanh(acc * {c:.4}) + 0.125\n")),
            1 => src.push_str(&format!("    acc = acc + tf.sigmoid(acc) * {c:.4}\n")),
            _ => src.push_str(&format!("    acc = acc * {c:.4} - 0.0625\n")),
        }
    }
    src.push_str(
        "    i = tf.constant(0.0)\n    while i < 8.0:\n        acc = acc * 0.999 + 0.001\n        i = i + 1.0\n    return tf.reduce_sum(acc)\n",
    );
    src
}

fn literal(t: &Tensor) -> String {
    let data = t.as_f32().expect("f32 weights");
    let row = |r: &[f32]| {
        let v: Vec<String> = r.iter().map(|x| format!("{x:.6}")).collect();
        format!("[{}]", v.join(", "))
    };
    match t.shape() {
        [_, cols] => {
            let rows: Vec<String> = data.chunks(*cols).map(row).collect();
            format!("[{}]", rows.join(", "))
        }
        _ => row(data),
    }
}

/// The RNN source with seeded weights bound as module constants, so the
/// source alone stages (the plan cache keys on source text).
fn rnn_src(rng: &mut Rng64) -> String {
    let (feat, hidden) = (8, 16);
    let w = autograph_models::rnn::RnnWeights::new(feat, hidden, rng.next_u64());
    format!(
        "wx = tf.constant({})\nwh = tf.constant({})\nb = tf.constant({})\n\n{}",
        literal(&w.wx),
        literal(&w.wh),
        literal(&w.b),
        autograph_models::rnn::DYNAMIC_RNN_SRC
    )
}

fn corpus(seed: u64) -> Vec<Entry> {
    let mut rng = Rng64::new(mix(seed, 500, 0));
    let vec4 = |rng: &mut Rng64| rng.normal_tensor(&[4], 1.0);
    let mat4 = |rng: &mut Rng64| rng.normal_tensor(&[4, 4], 0.5);
    let inp = autograph_models::rnn::inputs(4, 8, 8, 16, rng.next_u64());
    let mlp = crate::serve::MLP_SRC.to_string();
    vec![
        Entry {
            label: "rnn",
            src: rnn_src(&mut rng),
            func: "dynamic_rnn",
            args: &["input_data", "initial_state", "sequence_len"],
            inputs: vec![inp.input_data, inp.initial_state, inp.sequence_len],
        },
        Entry {
            label: "explain_fused_elementwise",
            src: include_str!("../../examples/explain/fused_elementwise.pylite").to_string(),
            func: "f",
            args: &["x"],
            inputs: vec![vec4(&mut rng)],
        },
        Entry {
            label: "explain_mlp_matmul",
            src: include_str!("../../examples/explain/mlp_matmul.pylite").to_string(),
            func: "f",
            args: &["x", "w1", "w2"],
            inputs: vec![mat4(&mut rng), mat4(&mut rng), mat4(&mut rng)],
        },
        Entry {
            label: "explain_rnn_loop",
            src: include_str!("../../examples/explain/rnn_loop.pylite").to_string(),
            func: "f",
            args: &["x"],
            inputs: vec![vec4(&mut rng)],
        },
        Entry {
            label: "serve_predict",
            src: mlp.clone(),
            func: "predict",
            args: &["x"],
            inputs: vec![rng.normal_tensor(&[1, 4], 1.0)],
        },
        Entry {
            label: "serve_score",
            src: mlp,
            func: "score",
            args: &["x"],
            inputs: vec![rng.normal_tensor(&[8], 1.0)],
        },
        Entry {
            label: "straight_small",
            src: straight_src(SMALL_LINES, &mut rng),
            func: "f",
            args: &["x"],
            inputs: vec![vec4(&mut rng)],
        },
        Entry {
            label: "straight_large",
            src: straight_src(LARGE_LINES, &mut rng),
            func: "f",
            args: &["x"],
            inputs: vec![vec4(&mut rng)],
        },
    ]
}

/// The unconverted eager interpreter's outputs: the reference staged
/// results are checked against.
fn eager(e: &Entry) -> Vec<Tensor> {
    let mut rt = Runtime::load(&e.src, false).expect("eager load");
    let args = e.inputs.iter().cloned().map(Value::tensor).collect();
    let out = rt.call(e.func, args).expect("eager call");
    let items = match out {
        Value::Tuple(items) => (*items).clone(),
        single => vec![single],
    };
    items
        .iter()
        .map(|v| v.as_eager_tensor().expect("tensor output"))
        .collect()
}

fn close(got: &[Tensor], want: &[Tensor]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            g.shape() == w.shape()
                && match (g.as_f32(), w.as_f32()) {
                    (Ok(g), Ok(w)) => g
                        .iter()
                        .zip(w)
                        .all(|(a, b)| (a - b).abs() <= TOL * b.abs().max(1.0)),
                    _ => false,
                }
        })
}

fn bitwise(got: &[Tensor], want: &[Tensor]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            g.shape() == w.shape()
                && match (g.as_f32(), w.as_f32()) {
                    (Ok(g), Ok(w)) => g.iter().zip(w).all(|(a, b)| a.to_bits() == b.to_bits()),
                    _ => false,
                }
        })
}

/// Stage every corpus entry through the plan cache. Returns the
/// functions and the pass's wall time.
fn pass(corpus: &[Entry], store: Option<&PlanStore>) -> (Vec<CompiledFunction>, Vec<bool>, f64) {
    let t0 = Instant::now();
    let mut funcs = Vec::with_capacity(corpus.len());
    let mut hits = Vec::with_capacity(corpus.len());
    for e in corpus {
        let art = compile_cached_with(&e.src, e.func, e.args, store, VERSION_TAG)
            .unwrap_or_else(|err| panic!("staging {} failed: {err}", e.label));
        hits.push(art.from_cache);
        funcs.push(art.func);
    }
    (funcs, hits, t0.elapsed().as_secs_f64())
}

fn call_all(funcs: &mut [CompiledFunction], corpus: &[Entry]) -> Vec<Option<Vec<Tensor>>> {
    funcs
        .iter_mut()
        .zip(corpus)
        .map(|(f, e)| f.call(&e.inputs).ok())
        .collect()
}

struct StoreDir(PathBuf);

impl StoreDir {
    fn fresh(out_dir: &Path, tag: &str) -> StoreDir {
        let dir = out_dir.join(format!("planstore-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        StoreDir(dir)
    }
    fn open(&self) -> PlanStore {
        PlanStore::open(&self.0).expect("open plan store")
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The timed run. Set-up is the cold staging of the whole corpus into a
/// fresh store (the one-time cost), repeated as `SetupLoop` asks; the
/// timed loop restages the corpus warm from a fresh `PlanStore` each
/// pass, the cost every later process start pays.
pub fn run(seed: u64, seconds: f64, out_dir: &Path) -> Outcome {
    let setup = SetupLoop::start(seconds, SETUPS);
    let corpus = corpus(seed);
    let want: Vec<Vec<Tensor>> = corpus.iter().map(eager).collect();
    let (mut attempted, mut failed) = (0u64, 0u64);

    let mut cold_s = Vec::new();
    let mut kept = None;
    while !setup.done(&cold_s) {
        let rep = cold_s.len();
        let dir = StoreDir::fresh(out_dir, &format!("cold{rep}"));
        let store = dir.open();
        let (mut funcs, hits, secs) = pass(&corpus, Some(&store));
        cold_s.push(secs);
        let outs = call_all(&mut funcs, &corpus);
        for ((o, w), hit) in outs.iter().zip(&want).zip(&hits) {
            attempted += 1;
            failed += u64::from(*hit || !o.as_ref().is_some_and(|o| close(o, w)));
        }
        kept = Some((dir, outs));
    }
    let (dir, cold_outs) = kept.expect("at least one set-up");

    let seconds = setup.rest();
    let mut warm_s = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let store = dir.open();
        let (mut funcs, hits, _) = pass(&corpus, Some(&store));
        warm_s.push(t0.elapsed().as_secs_f64());
        let outs = call_all(&mut funcs, &corpus);
        for ((o, c), hit) in outs.iter().zip(&cold_outs).zip(&hits) {
            attempted += 1;
            let same = matches!((o, c), (Some(o), Some(c)) if bitwise(o, c));
            failed += u64::from(!hit || !same);
        }
    }
    drop(dir);

    let mut m = Metrics::default();
    m.set("setup_s", median(&cold_s).unwrap_or(0.0), "s");
    // functions restaged over all warm time, apart from the median pass
    m.set(
        "rate_per_s",
        (corpus.len() * warm_s.len()) as f64 / warm_s.iter().sum::<f64>(),
        "1/s",
    );
    m.set("p50_ms", median(&warm_s).unwrap_or(0.0) * 1e3, "ms");
    m.set(
        "tail_ms",
        windowed_percentile(&warm_s, 90.0, TAIL_WINDOW).unwrap_or(0.0) * 1e3,
        "ms",
    );
    Outcome {
        attempted,
        failed,
        metrics: m,
    }
}

/// Nodes in a graph, its control-flow subgraphs included.
fn count_nodes(g: &Graph) -> usize {
    g.nodes
        .iter()
        .map(|n| {
            1 + match &n.op {
                OpKind::While { cond_g, body_g, .. } => {
                    count_nodes(&cond_g.graph) + count_nodes(&body_g.graph)
                }
                OpKind::Cond { then_g, else_g } => {
                    count_nodes(&then_g.graph) + count_nodes(&else_g.graph)
                }
                _ => 0,
            }
        })
        .sum()
}

/// Per-phase seconds of one traced cold pass, summed over the corpus.
#[derive(Default)]
struct Phases {
    parse: f64,
    convert: f64,
    convert_small: f64,
    convert_large: f64,
    stage: f64,
    optimize: f64,
    shapes: f64,
    pipeline: f64,
    nodes_staged: usize,
    nodes_optimized: usize,
}

fn timed<T>(tracer: &mut Tracer, name: &'static str, acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = tracer.span(name, |_| f());
    *acc += t.elapsed().as_secs_f64();
    out
}

/// The cold pipeline with a span around each public call: the same
/// calls `compile_cached_with` makes without a store, then parse and
/// convert alone (they run inside `Runtime::load` and cannot be timed
/// apart there).
fn traced_pass(corpus: &[Entry], tracer: &mut Tracer) -> Phases {
    let mut p = Phases::default();
    let t0 = Instant::now();
    for e in corpus {
        tracer.span("stage.function", |tr| {
            let mut load = 0.0;
            let mut rt = timed(tr, "runtime.load", &mut load, || {
                Runtime::load(&e.src, true).expect("load")
            });
            let args = e
                .args
                .iter()
                .map(|a| GraphArg::Placeholder((*a).to_string()))
                .collect();
            let staged = timed(tr, "runtime.stage_to_graph", &mut p.stage, || {
                rt.stage_to_graph(e.func, args).expect("stage")
            });
            let (graph, outputs, _) = timed(tr, "graph.optimize", &mut p.optimize, || {
                autograph_graph::optimize::optimize(&staged.graph, &staged.outputs)
            });
            timed(tr, "graph.shapes.validate", &mut p.shapes, || {
                autograph_graph::shapes::validate(&graph).expect("shapes")
            });
            p.nodes_staged += count_nodes(&staged.graph);
            p.nodes_optimized += count_nodes(&graph);
            let mut unused = 0.0;
            timed(tr, "graph.compile", &mut unused, || {
                let unit = CompiledUnit::build(graph, outputs).expect("build");
                let mut sess = Session::new(unit.graph.clone());
                sess.install_compiled(&unit).expect("install");
            });
        });
    }
    p.pipeline = t0.elapsed().as_secs_f64();
    for e in corpus {
        let module = timed(tracer, "pylang.parse_module", &mut p.parse, || {
            autograph_pylang::parse_module(&e.src).expect("parse")
        });
        let mut conv = 0.0;
        timed(tracer, "transforms.convert_module", &mut conv, || {
            autograph_transforms::convert_module(module, &Default::default()).expect("convert")
        });
        p.convert += conv;
        match e.label {
            "straight_small" => p.convert_small = conv,
            "straight_large" => p.convert_large = conv,
            _ => {}
        }
    }
    p
}

/// The traced run's staging ledger.
pub fn ledger(seed: u64, seconds: f64, out_dir: &Path, tracer: &mut Tracer) -> Outcome {
    let corpus = corpus(seed);
    let (mut attempted, mut failed) = (0u64, 0u64);

    // plan store: one cold pass writes, one warm pass from a fresh
    // PlanStore reads
    let dir = StoreDir::fresh(out_dir, "ledger");
    pass(&corpus, Some(&dir.open()));
    let store = dir.open();
    let (funcs, hits, _) = tracer.span("planstore.warm_pass", |_| pass(&corpus, Some(&store)));
    let (mut load_ns, mut bytes, mut n_hit, mut n_miss) = (0u64, 0u64, 0u64, 0u64);
    for (f, hit) in funcs.iter().zip(&hits) {
        let s = f.stats();
        load_ns += s.plan_store_load_ns;
        bytes += s.plan_store_bytes;
        n_hit += s.plan_store_hits;
        n_miss += s.plan_store_misses;
        attempted += 1;
        failed += u64::from(!hit);
    }
    drop(dir);

    // alternate untraced and traced cold passes
    let (mut plain, mut phases) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while phases.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (_, _, secs) = pass(&corpus, None);
        plain.push(secs);
        phases.push(traced_pass(&corpus, tracer));
    }
    let med = |f: &dyn Fn(&Phases) -> f64| {
        let v: Vec<f64> = phases.iter().map(f).collect();
        median(&v).unwrap_or(0.0)
    };
    let last = phases.last().expect("at least one traced pass");
    let mut m = Metrics::default();
    m.set("pylang.parse_ms", med(&|p| p.parse) * 1e3, "ms");
    m.set("transforms.convert_ms", med(&|p| p.convert) * 1e3, "ms");
    m.set("runtime.stage_ms", med(&|p| p.stage) * 1e3, "ms");
    m.set("graph.optimize_ms", med(&|p| p.optimize) * 1e3, "ms");
    m.set("graph.shapes_ms", med(&|p| p.shapes) * 1e3, "ms");
    m.set(
        "transforms.convert_us_per_line.small",
        med(&|p| p.convert_small) * 1e6 / SMALL_LINES as f64,
        "us",
    );
    m.set(
        "transforms.convert_us_per_line.large",
        med(&|p| p.convert_large) * 1e6 / LARGE_LINES as f64,
        "us",
    );
    m.set("graph.nodes_staged", last.nodes_staged as f64, "count");
    m.set(
        "graph.nodes_optimized",
        last.nodes_optimized as f64,
        "count",
    );
    m.set("planstore.load_ms", load_ns as f64 / 1e6, "ms");
    m.set("planstore.artifact_bytes", bytes as f64, "bytes");
    m.set(
        "planstore.hit_rate",
        n_hit as f64 / (n_hit + n_miss).max(1) as f64,
        "ratio",
    );
    m.set(
        "trace.overhead_frac",
        med(&|p| p.pipeline) / median(&plain).unwrap_or(1.0) - 1.0,
        "ratio",
    );
    Outcome {
        attempted,
        failed,
        metrics: m,
    }
}
