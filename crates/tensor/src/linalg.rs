//! Matrix multiplication and axis permutation.

use crate::{DType, Data, Result, Tensor, TensorError};

impl Tensor {
    /// Matrix product of two rank-2 f32 tensors (or batched rank-3, where
    /// the leading dimension is the batch).
    ///
    /// # Errors
    ///
    /// Fails when dtypes are not f32-compatible, ranks are unsupported, or
    /// inner dimensions disagree.
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor> {
        if self.dtype() == DType::Bool || rhs.dtype() == DType::Bool {
            return Err(TensorError::DTypeMismatch {
                op: "matmul",
                got: DType::Bool,
                expected: DType::F32,
            });
        }
        let a = self.cast(DType::F32);
        let b = rhs.cast(DType::F32);
        match (a.rank(), b.rank()) {
            (2, 2) => {
                let (m, k) = (a.shape()[0], a.shape()[1]);
                let (k2, n) = (b.shape()[0], b.shape()[1]);
                if k != k2 {
                    return Err(TensorError::IncompatibleShapes {
                        op: "matmul",
                        detail: format!("{:?} x {:?}", a.shape(), b.shape()),
                    });
                }
                let mut out = vec![0.0f32; m * n];
                matmul_2d(a.as_f32()?, b.as_f32()?, m, k, n, &mut out);
                Ok(Tensor::from_data(Data::F32(out), &[m, n]))
            }
            (3, 3) => {
                let (bt, m, k) = (a.shape()[0], a.shape()[1], a.shape()[2]);
                let (bt2, k2, n) = (b.shape()[0], b.shape()[1], b.shape()[2]);
                if bt != bt2 || k != k2 {
                    return Err(TensorError::IncompatibleShapes {
                        op: "matmul",
                        detail: format!("{:?} x {:?}", a.shape(), b.shape()),
                    });
                }
                let av = a.as_f32()?;
                let bv = b.as_f32()?;
                let mut out = vec![0.0f32; bt * m * n];
                for i in 0..bt {
                    matmul_2d(
                        &av[i * m * k..(i + 1) * m * k],
                        &bv[i * k * n..(i + 1) * k * n],
                        m,
                        k,
                        n,
                        &mut out[i * m * n..(i + 1) * m * n],
                    );
                }
                Ok(Tensor::from_data(Data::F32(out), &[bt, m, n]))
            }
            (ra, _) => Err(TensorError::RankMismatch {
                op: "matmul",
                got: ra,
                expected: "2 (or batched 3)",
            }),
        }
    }

    /// Permute dimensions. `perm` must be a permutation of `0..rank`.
    ///
    /// # Errors
    ///
    /// Fails when `perm` is not a valid permutation of the tensor's axes.
    pub fn transpose(&self, perm: &[usize]) -> Result<Tensor> {
        if perm.len() != self.rank() {
            return Err(TensorError::RankMismatch {
                op: "transpose",
                got: perm.len(),
                expected: "same as tensor rank",
            });
        }
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            if p >= perm.len() || seen[p] {
                return Err(TensorError::InvalidArgument {
                    op: "transpose",
                    detail: format!("{perm:?} is not a permutation"),
                });
            }
            seen[p] = true;
        }
        let in_shape = self.shape();
        let out_shape: Vec<usize> = perm.iter().map(|&p| in_shape[p]).collect();
        let in_strides = crate::Shape::new(in_shape).strides();
        let out_strides: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();
        let n = self.num_elements();

        fn permute<T: Copy>(
            v: &[T],
            n: usize,
            out_shape: &[usize],
            out_strides: &[usize],
        ) -> Vec<T> {
            let mut out = Vec::with_capacity(n);
            let rank = out_shape.len();
            let mut coords = vec![0usize; rank];
            for _ in 0..n {
                let mut src = 0;
                for d in 0..rank {
                    src += coords[d] * out_strides[d];
                }
                out.push(v[src]);
                for d in (0..rank).rev() {
                    coords[d] += 1;
                    if coords[d] < out_shape[d] {
                        break;
                    }
                    coords[d] = 0;
                }
            }
            out
        }

        let data = match self.data() {
            Data::F32(v) => Data::F32(permute(v, n, &out_shape, &out_strides)),
            Data::I64(v) => Data::I64(permute(v, n, &out_shape, &out_strides)),
            Data::Bool(v) => Data::Bool(permute(v, n, &out_shape, &out_strides)),
        };
        Ok(Tensor::from_data(data, &out_shape))
    }

    /// Rank-2 transpose shorthand (`transpose(&[1, 0])`); identity on rank
    /// 0/1.
    ///
    /// # Errors
    ///
    /// Fails for rank > 2.
    pub fn t(&self) -> Result<Tensor> {
        match self.rank() {
            0 | 1 => Ok(self.clone()),
            2 => self.transpose(&[1, 0]),
            r => Err(TensorError::RankMismatch {
                op: "t",
                got: r,
                expected: "<= 2",
            }),
        }
    }
}

/// Flop threshold (2*m*k*n) below which splitting a matmul across the
/// worker pool costs more than it saves.
const MATMUL_PAR_MIN_FLOPS: usize = 1 << 18;

/// Rows of one register tile of the matmul kernel.
const MR: usize = 4;
/// Columns of one register tile of the matmul kernel.
const NR: usize = 16;

/// `out = a · b` for row-major (m,k) × (k,n) into `out`, which must hold
/// `m * n` zeros. Rows go in blocks of `MR` through the register-tiled
/// kernel; the rows past the last full block go through `matmul_row`.
/// Large products split across the shared worker pool by blocks, each
/// written by exactly one thread with the operations of the sequential
/// loop, so the result is bitwise independent of the thread count.
fn matmul_2d(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    let split = autograph_par::threads() > 1 && 2 * m * k * n >= MATMUL_PAR_MIN_FLOPS;
    matmul_blocks(Kernel::best(), split, a, b, k, n, out);
}

/// The body of `matmul_2d` with the kernel and the split chosen by the
/// caller; `m` is `out.len() / n`.
fn matmul_blocks(
    kernel: Kernel,
    split: bool,
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    if k == 0 || n == 0 {
        return;
    }
    let m = out.len() / n;
    let block = |blk: usize, oblk: &mut [f32]| {
        let ablk = &a[blk * MR * k..m.min((blk + 1) * MR) * k];
        if ablk.len() == MR * k {
            kernel.run(ablk, b, k, n, oblk);
        } else {
            for (arow, orow) in ablk.chunks_exact(k).zip(oblk.chunks_exact_mut(n)) {
                matmul_row(arow, b, n, 0, orow);
            }
        }
    };
    if split {
        // blocks are disjoint slices of `out`; share the base pointer as
        // an integer because raw pointers are not Sync
        let out_addr = out.as_mut_ptr() as usize;
        autograph_par::parallel_for(m.div_ceil(MR), 1, &|blocks| {
            for blk in blocks {
                let rows = blk * MR..m.min((blk + 1) * MR);
                // SAFETY: each block index lands in exactly one chunk, so
                // the row ranges are disjoint, lie within the `m * n`
                // elements of `out`, and none of them outlives `out`.
                let oblk = unsafe {
                    std::slice::from_raw_parts_mut(
                        (out_addr as *mut f32).add(rows.start * n),
                        rows.len() * n,
                    )
                };
                block(blk, oblk);
            }
        });
    } else {
        for (blk, oblk) in out.chunks_mut(MR * n).enumerate() {
            block(blk, oblk);
        }
    }
}

/// One compiled body of the `MR`-row block kernel. It only ever holds a
/// body this CPU can run: the baseline one, or one whose target features
/// were detected at runtime.
#[derive(Clone, Copy)]
struct Kernel(unsafe fn(&[f32], &[f32], usize, usize, &mut [f32]));

impl Kernel {
    const BASELINE: Kernel = Kernel(block_body);

    /// The AVX2 body, when this CPU has AVX2.
    fn avx2() -> Option<Kernel> {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            return Some(Kernel(block_avx2));
        }
        None
    }

    /// The widest body this CPU can run.
    fn best() -> Kernel {
        Self::avx2().unwrap_or(Self::BASELINE)
    }

    fn run(self, a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
        // SAFETY: a `Kernel` holds only bodies whose target features this
        // CPU has (see `avx2`).
        unsafe { (self.0)(a, b, k, n, out) }
    }
}

/// `block_body` compiled with AVX2 enabled. Only for CPUs that have it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn block_avx2(a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    block_body(a, b, k, n, out);
}

/// One block: `out` (`MR` rows of n) = `a` (`MR` rows of k) · `b`. Every
/// output element gets exactly the operations `matmul_row` gives it: it
/// starts at +0.0 and, for ascending `p` with `a[i][p] != 0.0`, adds the
/// product `a[i][p] * b[p][j]` (a multiply, then an add; never fused).
/// Only the order across elements differs: an `MR` × `NR` tile of sums
/// stays in registers for the whole `p` loop. Columns past the last full
/// tile take the row loop.
#[inline(always)]
fn block_body(a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    let rows: [&[f32]; MR] = std::array::from_fn(|r| &a[r * k..(r + 1) * k]);
    let nfull = n - n % NR;
    for j0 in (0..nfull).step_by(NR) {
        let mut acc = [[0.0f32; NR]; MR];
        for p in 0..k {
            let bp = &b[p * n + j0..p * n + j0 + NR];
            for (acc, row) in acc.iter_mut().zip(&rows) {
                let av = row[p];
                if av != 0.0 {
                    for (c, &bv) in acc.iter_mut().zip(bp) {
                        *c += av * bv;
                    }
                }
            }
        }
        for (orow, acc) in out.chunks_exact_mut(n).zip(&acc) {
            orow[j0..j0 + NR].copy_from_slice(acc);
        }
    }
    if nfull < n {
        for (arow, orow) in rows.iter().zip(out.chunks_exact_mut(n)) {
            matmul_row(arow, b, n, nfull, &mut orow[nfull..]);
        }
    }
}

/// Columns `j0..n` of one output row: `orow += arow · b[.., j0..]`,
/// skipping zero multiplicands.
#[inline(always)]
fn matmul_row(arow: &[f32], b: &[f32], n: usize, j0: usize, orow: &mut [f32]) {
    for (p, &av) in arow.iter().enumerate() {
        if av == 0.0 {
            continue;
        }
        let brow = &b[p * n + j0..(p + 1) * n];
        for (o, &bv) in orow.iter_mut().zip(brow) {
            *o += av * bv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_2x2() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_f32().unwrap(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rect() {
        // (1,3) x (3,2)
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[1, 2]);
        assert_eq!(c.as_f32().unwrap(), &[4.0, 5.0]);
    }

    #[test]
    fn matmul_batched() {
        let a = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 2.0], &[2, 2, 2]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0], &[2, 2, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 2, 2]);
        assert_eq!(
            c.as_f32().unwrap(),
            &[1.0, 2.0, 3.0, 4.0, 2.0, 4.0, 6.0, 8.0]
        );
    }

    #[test]
    fn matmul_inner_mismatch() {
        let a = Tensor::zeros(DType::F32, &[2, 3]);
        let b = Tensor::zeros(DType::F32, &[4, 2]);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matmul_rank_and_dtype_errors() {
        let v = Tensor::zeros(DType::F32, &[3]);
        assert!(v.matmul(&v).is_err());
        let b = Tensor::from_vec_bool(vec![true; 4], &[2, 2]).unwrap();
        assert!(b.matmul(&b).is_err());
    }

    #[test]
    fn matmul_promotes_i64() {
        let a = Tensor::from_vec_i64(vec![1, 2, 3, 4], &[2, 2]).unwrap();
        let c = a.matmul(&a).unwrap();
        assert_eq!(c.dtype(), DType::F32);
        assert_eq!(c.as_f32().unwrap(), &[7.0, 10.0, 15.0, 22.0]);
    }

    #[test]
    fn transpose_2d() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let t = a.t().unwrap();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.as_f32().unwrap(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn transpose_3d_102() {
        // the dynamic_rnn transpose: (batch, time, feat) -> (time, batch, feat)
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[2, 3, 2]).unwrap();
        let t = a.transpose(&[1, 0, 2]).unwrap();
        assert_eq!(t.shape(), &[3, 2, 2]);
        assert_eq!(
            t.as_f32().unwrap(),
            &[0.0, 1.0, 6.0, 7.0, 2.0, 3.0, 8.0, 9.0, 4.0, 5.0, 10.0, 11.0]
        );
    }

    #[test]
    fn transpose_validates_perm() {
        let a = Tensor::zeros(DType::F32, &[2, 3]);
        assert!(a.transpose(&[0, 0]).is_err());
        assert!(a.transpose(&[0]).is_err());
        assert!(a.transpose(&[0, 2]).is_err());
    }

    /// The scalar i-k-j loop every matmul kernel must match bit for bit:
    /// each output starts at +0.0 and adds `a * b` for ascending `p`,
    /// skipping zero multiplicands.
    fn reference_matmul(av: &[f32], bv: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut want = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let a = av[i * k + p];
                if a == 0.0 {
                    continue;
                }
                for j in 0..n {
                    want[i * n + j] += a * bv[p * n + j];
                }
            }
        }
        want
    }

    /// Bit equality, except that any NaN matches any NaN. Rust leaves
    /// unspecified which payload a NaN computed from two NaN operands
    /// carries; the compiler's operand order picks it, and it differs
    /// between builds of the same loop (inf − inf then + NaN gives
    /// 0xffc00000 from the row loop built with optimizations, 0x7fc00000
    /// without).
    fn assert_bitwise(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (idx, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: element {idx}: {g} ({:#x}) vs {w} ({:#x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    #[test]
    fn matmul_parallel_bitwise_matches_sequential() {
        // large enough to clear MATMUL_PAR_MIN_FLOPS (2*64^3 = 524288)
        let (m, k, n) = (64usize, 64usize, 64usize);
        let av: Vec<f32> = (0..m * k)
            .map(|i| ((i * 37 % 101) as f32) * 0.13 - 5.0)
            .collect();
        let bv: Vec<f32> = (0..k * n)
            .map(|i| ((i * 53 % 97) as f32) * 0.11 - 4.0)
            .collect();
        let want = reference_matmul(&av, &bv, m, k, n);
        autograph_par::configure(4);
        let at = Tensor::from_vec(av, &[m, k]).unwrap();
        let bt = Tensor::from_vec(bv, &[k, n]).unwrap();
        let got = at.matmul(&bt).unwrap();
        assert_bitwise(got.as_f32().unwrap(), &want, "64x64x64");
    }

    /// Finite values with zeros and -0.0 planted in `a` (on every row, so
    /// in full tiles and in the rows past them) and infinities and NaNs
    /// planted in `b`: in a column of every tile, in the last column (past
    /// the last full tile unless `n % NR == 0`) and where an inf − inf
    /// NaN meets a planted NaN.
    fn edge_inputs(m: usize, k: usize, n: usize) -> (Vec<f32>, Vec<f32>) {
        let av = (0..m * k)
            .map(|x| {
                let (i, p) = (x / k, x % k);
                if (i + p) % 5 == 0 {
                    0.0
                } else if (3 * i + p) % 7 == 2 {
                    -0.0
                } else {
                    ((x * 37 % 101) as f32) * 0.13 - 6.5
                }
            })
            .collect();
        let bv = (0..k * n)
            .map(|x| {
                let (p, j) = (x / n, x % n);
                match (p, j % NR, j + 1 == n) {
                    (p, 3, _) if p == k / 2 => f32::INFINITY,
                    (p, 3, _) if p == k / 3 => f32::NEG_INFINITY,
                    (p, 9, _) if p == k - 1 => f32::NAN,
                    (0, _, true) => f32::INFINITY,
                    (1, _, true) => f32::NEG_INFINITY,
                    (2, _, true) => f32::NAN,
                    _ => ((x * 53 % 97) as f32) * 0.11 - 5.0,
                }
            })
            .collect();
        (av, bv)
    }

    /// Every compiled kernel body, with the pool split on and off, matches
    /// the scalar loop bit for bit on shapes around the tile edges. The
    /// unsplit run is what a pool of one thread does; the split run goes
    /// through a pool of four.
    #[test]
    fn matmul_kernels_bitwise_match_reference_on_tile_edges() {
        autograph_par::configure(4);
        let mut kernels = vec![("baseline", Kernel::BASELINE)];
        kernels.extend(Kernel::avx2().map(|k| ("avx2", k)));
        for m in [1, 3, 4, 5, 31, 32, 33] {
            for n in [1, 15, 16, 17, 255, 256, 257] {
                for k in [1, 8, 64, 256] {
                    let (av, bv) = edge_inputs(m, k, n);
                    let want = reference_matmul(&av, &bv, m, k, n);
                    for &(name, kernel) in &kernels {
                        for split in [false, true] {
                            let mut got = vec![0.0f32; m * n];
                            matmul_blocks(kernel, split, &av, &bv, k, n, &mut got);
                            let what = format!("{name} split={split} {m}x{k}x{n}");
                            assert_bitwise(&got, &want, &what);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_vec((0..24).map(|x| x as f32).collect(), &[2, 3, 4]).unwrap();
        let t = a.transpose(&[2, 0, 1]).unwrap();
        let back = t.transpose(&[1, 2, 0]).unwrap();
        assert_eq!(back.as_f32().unwrap(), a.as_f32().unwrap());
    }
}
