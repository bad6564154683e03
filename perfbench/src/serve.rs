//! `serve_mix`: an in-process `Server` over `examples/serve/mlp.pylite`,
//! configured as the repository's CI serves it (2 workers, `score`
//! batchable up to 8, trace sampling off), driven open-loop from 2
//! keep-alive connections by a seeded mix of `score` with scalar bodies,
//! `score` with 256-element bodies and `predict` with `[1,4]` bodies, at
//! a ladder of fixed absolute rates. HTTP, JSON, admission and batching
//! do the work; the graph runs are tiny.

use crate::stats::{goodput_rung, median, percentile, Rung, Sent};
use crate::trace::Tracer;
use crate::{mix, Metrics, Outcome, SetupLoop};
use autograph_serve::client::{wait_ready, Client};
use autograph_serve::{ModelRegistry, RegistryConfig, Server, ServerConfig};
use autograph_tensor::{Rng64, Tensor};
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

pub const MLP_SRC: &str = include_str!("../../examples/serve/mlp.pylite");

/// Client connections, each sending its share of the schedule in order.
pub const CONNS: usize = 2;
/// Arrival rates of the ladder, requests per second: 1000 up to ~4200 in
/// 10% steps, which brackets the two-connection capacity of a quiet
/// 2-vCPU host.
pub const LADDER: &[f64] = &[
    1000.0, 1100.0, 1210.0, 1331.0, 1464.0, 1611.0, 1772.0, 1949.0, 2144.0, 2358.0, 2594.0, 2853.0,
    3138.0, 3452.0, 3797.0, 4177.0,
];
/// The rung whose p50 and p99 are reported.
pub const MIDDLE: usize = LADDER.len() / 2;
/// The p99 latency limit goodput is judged against.
pub const LIMIT_S: f64 = 0.005;
/// A rung counts only if the generator itself was at most this late at
/// p99 (it cannot be trusted to have offered the rate otherwise).
pub const MAX_LATE_S: f64 = 0.001;
/// A connection that falls this far behind its schedule stops sending;
/// the rest of its share counts as misses.
const GIVE_UP_S: f64 = 0.5;
/// Mix weights: scalar `score`, 256-element `score`, `[1,4]` `predict`.
const MIX: [u64; 3] = [4, 3, 3];
const POOL: usize = 16;
const TOL: f32 = 1e-5;

const W1: [[f32; 4]; 4] = [
    [0.5, -0.3, 0.8, 0.1],
    [0.2, 0.7, -0.4, 0.3],
    [-0.6, 0.1, 0.5, -0.2],
    [0.4, -0.1, 0.2, 0.6],
];
const B1: [f32; 4] = [0.1, -0.2, 0.05, 0.3];
const W2: [[f32; 2]; 4] = [[0.3, -0.5], [0.8, 0.2], [-0.1, 0.4], [0.6, -0.3]];
const B2: [f32; 2] = [0.05, -0.1];

/// `score` in plain Rust, independent of the graph stack.
fn score_ref(x: f32) -> f32 {
    (x * 1.7 - 0.2).tanh() * 0.5 + 0.5
}

/// `predict` in plain Rust.
fn predict_ref(x: [f32; 4]) -> Vec<f32> {
    let mut h = [0.0f32; 4];
    for (j, hj) in h.iter_mut().enumerate() {
        let s: f32 = (0..4).map(|k| x[k] * W1[k][j]).sum();
        *hj = (s + B1[j]).max(0.0);
    }
    (0..2)
        .map(|j| (0..4).map(|k| h[k] * W2[k][j]).sum::<f32>() + B2[j])
        .collect()
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Scalar,
    Vec256,
    Predict,
}

const KINDS: [Kind; 3] = [Kind::Scalar, Kind::Vec256, Kind::Predict];

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Scalar => "scalar",
            Kind::Vec256 => "vec256",
            Kind::Predict => "predict",
        }
    }
    fn function(self) -> &'static str {
        match self {
            Kind::Predict => "predict",
            _ => "score",
        }
    }
}

struct Req {
    kind: Kind,
    body: String,
    want: Vec<f32>,
    /// The response tensor, for timing the encoder alone.
    out: Tensor,
}

fn tensor_json(shape: &[usize], data: &[f32]) -> String {
    let dims: Vec<String> = shape.iter().map(usize::to_string).collect();
    let vals: Vec<String> = data.iter().map(f32::to_string).collect();
    format!(
        "{{\"dtype\":\"f32\",\"shape\":[{}],\"data\":[{}]}}",
        dims.join(","),
        vals.join(",")
    )
}

/// A seeded pool of request bodies per kind, with expected outputs.
fn pool(seed: u64) -> Vec<Req> {
    let mut rng = Rng64::new(mix(seed, 300, 0));
    let mut reqs = Vec::new();
    for kind in KINDS {
        for _ in 0..POOL {
            let (body, want, shape) = match kind {
                Kind::Scalar => {
                    let x = rng.next_normal();
                    (format!("{{\"args\":[{x}]}}"), vec![score_ref(x)], vec![])
                }
                Kind::Vec256 => {
                    let xs: Vec<f32> = (0..256).map(|_| rng.next_normal()).collect();
                    let body = format!("{{\"args\":[{}]}}", tensor_json(&[256], &xs));
                    (body, xs.iter().map(|&x| score_ref(x)).collect(), vec![256])
                }
                Kind::Predict => {
                    let x = [(); 4].map(|_| rng.next_normal());
                    let body = format!("{{\"args\":[{}]}}", tensor_json(&[1, 4], &x));
                    (body, predict_ref(x), vec![1, 2])
                }
            };
            let out = Tensor::from_vec(want.clone(), &shape).expect("output shape");
            reqs.push(Req {
                kind,
                body,
                want,
                out,
            });
        }
    }
    reqs
}

/// The seeded request sequence for one rung: indices into the pool.
fn sequence(seed: u64, rung: usize, n: usize) -> Vec<usize> {
    let mut rng = Rng64::new(mix(seed, 400 + rung, 0));
    let total: u64 = MIX.iter().sum();
    (0..n)
        .map(|_| {
            let mut pick = rng.next_below(total) as u64;
            let mut kind = 0;
            while pick >= MIX[kind] {
                pick -= MIX[kind];
                kind += 1;
            }
            kind * POOL + rng.next_below(POOL as u64) as usize
        })
        .collect()
}

/// The `data` array of the first tensor in a response body.
fn data_values(body: &str) -> Option<Vec<f32>> {
    let start = body.find("\"data\":[")? + "\"data\":[".len();
    let end = start + body[start..].find(']')?;
    body[start..end]
        .split(',')
        .map(|v| v.trim().parse::<f32>().ok())
        .collect()
}

fn correct(status: u16, body: &[u8], want: &[f32]) -> bool {
    if !(200..300).contains(&status) {
        return false;
    }
    let got = std::str::from_utf8(body).ok().and_then(data_values);
    got.is_some_and(|g| {
        g.len() == want.len()
            && g.iter()
                .zip(want)
                .all(|(a, b)| (a - b).abs() <= TOL * b.abs().max(1.0))
    })
}

fn start_server() -> (Server, SocketAddr) {
    let registry = ModelRegistry::load(
        MLP_SRC,
        &RegistryConfig {
            batch_fns: Some(vec!["score".to_string()]),
            ..RegistryConfig::default()
        },
    )
    .expect("load mlp.pylite");
    let server = Server::start(
        registry,
        ServerConfig {
            workers: 2,
            queue_depth: 64,
            max_batch: 8,
            default_deadline: Duration::from_millis(5000),
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let addr = server.addr();
    assert!(
        wait_ready(&addr.to_string(), Duration::from_secs(10)),
        "server did not become ready"
    );
    (server, addr)
}

/// Server set-ups per run.
const SETUPS: usize = 100;

/// Set up the server repeatedly (staging anew each time) and
/// keep the last one.
fn setup(setup: &SetupLoop) -> (Server, SocketAddr, Vec<f64>) {
    let mut times = Vec::new();
    let mut kept: Option<(Server, SocketAddr)> = None;
    while !setup.done(&times) {
        if let Some((s, _)) = kept.take() {
            s.shutdown(Duration::from_secs(5));
        }
        autograph_serve::reset_stage_memo();
        let t0 = Instant::now();
        let started = start_server();
        times.push(t0.elapsed().as_secs_f64());
        kept = Some(started);
    }
    let (s, a) = kept.expect("at least one set-up");
    (s, a, times)
}

/// What one connection sent, and when each request was on the wire.
type ConnLog = (Vec<Sent>, Vec<(Instant, Instant)>);

/// Offer `rate` requests per second for `seconds`, open-loop: request
/// `i` is due at `i / rate` and goes out on connection `i % CONNS` as
/// soon as it is due and that connection is free. Returns the rung and
/// the send/receive instants of every request.
fn run_rung(
    addr: SocketAddr,
    reqs: &[Req],
    seq: &[usize],
    rate: f64,
    seconds: f64,
) -> (Rung, Vec<(Instant, Instant)>) {
    let n = seq.len();
    let origin = Instant::now() + Duration::from_millis(20);
    let per_conn: Vec<ConnLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect to server");
                    let mut sent = Vec::new();
                    let mut spans = Vec::new();
                    let mut conn_free = 0.0f64;
                    for i in (c..n).step_by(CONNS) {
                        let due = i as f64 / rate;
                        let now = at(origin, Instant::now());
                        if now - due > GIVE_UP_S {
                            break;
                        }
                        if due > now {
                            std::thread::sleep(Duration::from_secs_f64(due - now));
                        }
                        let req = &reqs[seq[i]];
                        let t_sent = Instant::now();
                        let resp = client.run(req.kind.function(), &req.body, None);
                        let t_done = Instant::now();
                        let ok = resp
                            .as_ref()
                            .is_ok_and(|r| correct(r.status, &r.body, &req.want));
                        let done = at(origin, t_done);
                        sent.push(Sent {
                            due,
                            conn_free,
                            sent: at(origin, t_sent),
                            done: resp.is_ok().then_some(done),
                            ok,
                        });
                        spans.push((t_sent, t_done));
                        conn_free = done;
                        if resp.is_err() {
                            // the connection is gone; the rest are misses
                            break;
                        }
                    }
                    (sent, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut sent = Vec::new();
    let mut spans = Vec::new();
    for (s, sp) in per_conn {
        sent.extend(s);
        spans.extend(sp);
    }
    (Rung::from_sent(rate, seconds, n, &sent), spans)
}

/// Signed seconds from `origin` to `t`.
fn at(origin: Instant, t: Instant) -> f64 {
    if t >= origin {
        (t - origin).as_secs_f64()
    } else {
        -(origin - t).as_secs_f64()
    }
}

fn rung_requests(rate: f64, seconds: f64) -> usize {
    (rate * seconds).round().max(1.0) as usize
}

/// The timed run: every rung of the ladder in ascending order.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let reqs = pool(seed);
    let setup_loop = SetupLoop::start(seconds, SETUPS);
    let (server, addr, setup_s) = setup(&setup_loop);
    let per_rung = setup_loop.rest() / LADDER.len() as f64;
    let mut rungs = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (ri, &rate) in LADDER.iter().enumerate() {
        let seq = sequence(seed, ri, rung_requests(rate, per_rung));
        let (rung, _) = run_rung(addr, &reqs, &seq, rate, per_rung);
        if ri == MIDDLE {
            // per body kind, so the gap between kinds is visible
            for (ki, kind) in KINDS.iter().enumerate() {
                let lat: Vec<f64> = seq
                    .iter()
                    .zip(&rung.latencies)
                    .filter(|(q, _)| **q / POOL == ki)
                    .map(|(_, l)| *l)
                    .collect();
                eprintln!(
                    "  {:<8} p50 {:.3} ms  p99 {:.3} ms  ({} requests)",
                    kind.name(),
                    percentile(&lat, 50.0).unwrap_or(0.0) * 1e3,
                    percentile(&lat, 99.0).unwrap_or(0.0) * 1e3,
                    lat.len()
                );
            }
        }
        attempted += rung.sent() as u64;
        failed += rung.failed as u64;
        eprintln!(
            "rung {rate:>6.0}/s  sent {:>6}/{:<6} failed {}  p50 {:.3} ms  p99 {:.3} ms  late p99 {:.3} ms  goodput {:.1}/s",
            rung.sent(),
            rung.latencies.len(),
            rung.failed,
            rung.latency_pct(50.0) * 1e3,
            rung.latency_pct(99.0) * 1e3,
            rung.lateness_pct(99.0) * 1e3,
            rung.goodput(LIMIT_S),
        );
        rungs.push(rung);
    }
    server.shutdown(Duration::from_secs(5));
    let mid = &rungs[MIDDLE];
    let mut m = Metrics::default();
    m.set("setup_s", median(&setup_s).unwrap_or(0.0), "s");
    m.set(
        "rate_per_s",
        goodput_rung(&rungs, LIMIT_S, MAX_LATE_S).map_or(0.0, |r| r.goodput(LIMIT_S)),
        "1/s",
    );
    m.set("p50_ms", mid.latency_pct(50.0) * 1e3, "ms");
    m.set("tail_ms", mid.latency_pct(99.0) * 1e3, "ms");
    Outcome {
        attempted,
        failed,
        metrics: m,
    }
}

/// Sum of every sample of `name` (any labels) in a Prometheus text
/// document.
fn prom_sum(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            let metric = key.split('{').next()?;
            (metric == name).then(|| value.parse::<f64>().ok())?
        })
        .sum()
}

fn scrape(addr: SocketAddr) -> String {
    let mut c = Client::connect(addr).expect("connect for /metrics");
    let resp = c.request("GET", "/metrics", "", "").expect("GET /metrics");
    assert_eq!(resp.status, 200, "/metrics answered {}", resp.status);
    resp.text()
}

/// Mean of a histogram between two scrapes, from its `_sum`/`_count`.
fn hist_mean(before: &str, after: &str, name: &str) -> f64 {
    let d = |suffix: &str| {
        let n = format!("{name}{suffix}");
        prom_sum(after, &n) - prom_sum(before, &n)
    };
    d("_sum") / d("_count").max(1.0)
}

/// The traced run's serving ledger: the middle rung with `/metrics`
/// scraped around it, then the JSON codec and direct `CompiledFunction`
/// calls alone.
pub fn ledger(seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let reqs = pool(seed);
    let (server, addr, _) = setup(&SetupLoop::start(seconds, SETUPS));
    let rate = LADDER[MIDDLE];
    let rung_s = seconds * 0.7;
    let seq = sequence(seed, MIDDLE, rung_requests(rate, rung_s));
    let before = scrape(addr);
    let (traced, spans) = run_rung(addr, &reqs, &seq, rate, rung_s);
    let after = scrape(addr);
    server.shutdown(Duration::from_secs(5));
    // request spans are built after the rung from the instants the load
    // generator takes on every request anyway
    for (s, e) in &spans {
        tracer.push("serve.request", *s, *e);
    }
    let attempted = traced.sent() as u64;
    let failed = traced.failed as u64;

    let delta = |name: &str| prom_sum(&after, name) - prom_sum(&before, name);
    let ok = (traced.sent() - traced.failed) as f64;
    let (batches, members) = (
        delta("autograph_batches_total"),
        delta("autograph_batch_members_total"),
    );
    let runs = batches + (ok - members);

    let mut m = Metrics::default();
    m.set(
        "serve.queue_wait_mean_ms",
        hist_mean(&before, &after, "autograph_queue_wait_seconds") * 1e3,
        "ms",
    );
    m.set(
        "serve.run_mean_ms",
        hist_mean(&before, &after, "autograph_run_seconds") * 1e3,
        "ms",
    );
    m.set("serve.batch_size_mean", ok / runs.max(1.0), "count");
    m.set(
        "serve.shed_frac",
        delta("autograph_shed_total") / traced.latencies.len() as f64,
        "ratio",
    );
    m.set("loadgen.late_p99_ms", traced.lateness_pct(99.0) * 1e3, "ms");

    // the codec alone, per body kind
    let weights: u64 = MIX.iter().sum();
    let mut encode_us = 0.0;
    for (ki, kind) in KINDS.iter().enumerate() {
        let req = &reqs[ki * POOL];
        let dec = tracer.span("serve.json.parse_run_request", |_| {
            crate::kernels::time_per_call(5, 0.004, || {
                black_box(autograph_serve::json::parse_run_request(&req.body).expect("decode"));
            })
        });
        m.set(&format!("serve.decode_us.{}", kind.name()), dec * 1e6, "us");
        let enc = tracer.span("serve.json.outputs_body", |_| {
            crate::kernels::time_per_call(5, 0.004, || {
                black_box(autograph_serve::json::outputs_body(std::slice::from_ref(
                    &req.out,
                )));
            })
        });
        encode_us += enc * 1e6 * MIX[ki] as f64 / weights as f64;
    }
    m.set("serve.encode_us", encode_us, "us");

    // the same functions called directly, outside the server
    let mut rt = autograph_runtime::Runtime::load(MLP_SRC, true).expect("load mlp.pylite");
    for kind in [Kind::Scalar, Kind::Predict] {
        // the pool holds `POOL` requests per kind, in `KINDS` order
        let req = &reqs[kind as usize * POOL];
        let mut f = rt.compile(kind.function(), &["x"]).expect("compile");
        let arg = autograph_serve::json::parse_run_request(&req.body).expect("decode");
        let secs = tracer.span("runtime.CompiledFunction.call", |_| {
            crate::kernels::time_per_call(5, 0.004, || {
                black_box(f.call(&arg).expect("direct call"));
            })
        });
        m.set(
            &format!("ref.direct_run_us.{}", kind.function()),
            secs * 1e6,
            "us",
        );
    }
    // serve tracing is out of band (see the spans above): nothing is
    // added to the request path
    m.set("trace.overhead_frac", 0.0, "ratio");
    Outcome {
        attempted,
        failed,
        metrics: m,
    }
}
