//! Kernel floors and cost figures, timed from outside the graph: the
//! measured multiply-add peak of this build, and `Tensor::matmul`,
//! `Tensor::tanh` and a fused add-add-tanh kernel at a workload's
//! shapes. FLOP and byte counts are computed from tensor
//! sizes, not measured.

use autograph_tensor::fused::{FusedArena, FusedOp, FusedSpec};
use autograph_tensor::{Rng64, Tensor};
use std::hint::black_box;
use std::time::Instant;

/// Median seconds per call of `f`, over `batches` batches each sized to
/// last about `batch_s` seconds.
pub fn time_per_call(batches: usize, batch_s: f64, mut f: impl FnMut()) -> f64 {
    // size a batch from a short calibration run
    let t0 = Instant::now();
    let mut n = 0u64;
    while t0.elapsed().as_secs_f64() < batch_s / 4.0 || n == 0 {
        f();
        n += 1;
    }
    let per = t0.elapsed().as_secs_f64() / n as f64;
    let reps = ((batch_s / per).ceil() as u64).max(1);
    let mut samples = Vec::with_capacity(batches);
    for _ in 0..batches {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() / reps as f64);
    }
    crate::stats::median(&samples).unwrap_or(per)
}

/// Peak multiply-add rate of this build, GFLOP/s: 64 independent
/// `acc = acc * m + a` chains (vectorized by the compiler), 2 FLOPs each.
pub fn peak_gflops() -> f64 {
    const LANES: usize = 64;
    const ITERS: usize = 4096;
    let mut acc = [1.0f32; LANES];
    let secs = time_per_call(7, 0.01, || {
        let (m, a) = (black_box(0.999_99f32), black_box(1e-6f32));
        for _ in 0..ITERS {
            for x in acc.iter_mut() {
                *x = *x * m + a;
            }
        }
        black_box(&mut acc);
    });
    (2 * LANES * ITERS) as f64 / secs / 1e9
}

/// FLOPs of an `[m,k] x [k,n]` product.
pub fn matmul_flops(m: usize, k: usize, n: usize) -> f64 {
    2.0 * (m * k * n) as f64
}

/// Bytes an `[m,k] x [k,n]` f32 product must at least read and write.
pub fn matmul_bytes(m: usize, k: usize, n: usize) -> f64 {
    4.0 * (m * k + k * n + m * n) as f64
}

/// Seconds per `Tensor::matmul` of `[m,k] x [k,n]`.
pub fn matmul_secs(m: usize, k: usize, n: usize, seed: u64) -> f64 {
    let mut rng = Rng64::new(seed);
    let a = rng.normal_tensor(&[m, k], 1.0);
    let b = rng.normal_tensor(&[k, n], 0.3);
    time_per_call(5, 0.004, || {
        black_box(a.matmul(&b).expect("matmul"));
    })
}

/// Seconds per `Tensor::tanh` over `n` elements.
pub fn tanh_secs(n: usize, seed: u64) -> f64 {
    let x = Rng64::new(seed).normal_tensor(&[n], 1.0);
    time_per_call(5, 0.004, || {
        black_box(x.tanh().expect("tanh"));
    })
}

/// Seconds per fused `tanh(a + b + bias)` over `[rows, cols]`: a spec
/// built here to match the RNN cell's elementwise tail. The compiled
/// program's fused groups are not public, so it is not checked against
/// what the bytecode VM actually fuses.
pub fn fused_cell_secs(rows: usize, cols: usize, seed: u64) -> f64 {
    let mut rng = Rng64::new(seed);
    let a = rng.normal_tensor(&[rows, cols], 1.0);
    let b = rng.normal_tensor(&[rows, cols], 1.0);
    let bias = rng.normal_tensor(&[cols], 0.1);
    let spec = FusedSpec::new(
        vec![
            FusedOp::Input(0),
            FusedOp::Input(1),
            FusedOp::Add,
            FusedOp::Input(2),
            FusedOp::Add,
            FusedOp::Tanh,
        ],
        3,
    )
    .expect("valid fused program");
    let mut arena = FusedArena::new();
    let inputs: [&Tensor; 3] = [&a, &b, &bias];
    time_per_call(5, 0.004, || {
        black_box(spec.try_eval(&inputs, &mut arena).expect("eligible inputs"));
    })
}
