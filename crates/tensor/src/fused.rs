//! Fused elementwise kernels: tiled evaluation of a chain of
//! elementwise ops, the execution substrate for the graph VM's fusion
//! tier.
//!
//! A [`FusedSpec`] is a small postfix (stack) program over up to
//! [`FUSED_MAX_INPUTS`] input tensors whose steps are drawn from the
//! closed set of elementwise ops in [`FusedOp`]. Evaluating the spec
//! computes, for every output element, exactly the same chain of `f32`
//! operations — in the same order, with no reassociation — that the
//! op-by-op kernels in [`crate::ops`]/[`crate::nn`] would compute, so the
//! result is **bitwise identical** to unfused execution. The win is
//! structural: one output allocation instead of one per chain link, no
//! intermediate `Arc`/ledger traffic, and one cache-friendly pass.
//!
//! ## Tiles
//!
//! The output is evaluated a tile of [`TILE`] consecutive elements at a
//! time. For each tile the postfix program is walked once, and each step
//! runs as a tight loop over the whole tile: an `Input` step loads the
//! tile's operand values (a copy, a fill, or a broadcast gather by
//! [`BroadcastMap::walk`] — no div/mod per element), a unary step maps a
//! stack slot in place, a binary step combines two slots. Stack slot 0 is
//! the output tile itself, so the final value lands in place. Tiling only
//! changes *when* an element's steps run relative to other elements',
//! never which `f32` operations it sees or in what order, so every
//! element is still bitwise equal to op-by-op execution; large outputs
//! additionally split across the worker pool in disjoint chunks, which
//! cannot change any element either.
//!
//! ## Legality (what may be fused)
//!
//! * only the ops enumerated in [`FusedOp`] — pure, elementwise,
//!   `f32 → f32`, with per-element semantics copied verbatim from the
//!   scalar bodies of the unfused kernels;
//! * all inputs must be `f32` tensors (integer operands take different
//!   per-op paths — `i64` wrapping arithmetic, `div` promotion — which a
//!   fused `f32` loop cannot reproduce), and their shapes must broadcast
//!   through the program without error;
//! * the program must be a tree (each intermediate consumed once), so
//!   per-element evaluation never recomputes divergent state.
//!
//! Eligibility is a *runtime* property of the actual inputs
//! ([`FusedSpec::plan`]): the caller plans per execution and falls back
//! to op-by-op dispatch — which reproduces error messages, integer
//! semantics and observability exactly — when no plan exists.
//!
//! ## Buffer reuse
//!
//! [`FusedArena`] is a small free-list of `f32` buffers. Executors feed
//! it the buffers of dead intermediates (via
//! [`crate::Tensor::into_f32_buffer`]) and fused evaluation draws output
//! buffers from it, so loop-carried temporaries recycle their
//! allocations across iterations instead of round-tripping the system
//! allocator. The memory ledger stays exact: reclaiming records a free,
//! wrapping a recycled buffer into a tensor records a fresh allocation.
//! The arena also keeps the sequential path's tile scratch.

use crate::shape::BroadcastMap;
use crate::{DType, Data, Tensor};

/// Maximum number of distinct input tensors a fused program may read.
pub const FUSED_MAX_INPUTS: usize = 64;
/// Maximum number of postfix steps in a fused program.
pub const FUSED_MAX_OPS: usize = 64;
/// Maximum operand-stack depth a fused program may need.
pub const FUSED_MAX_STACK: usize = 16;
/// Output elements evaluated per pass over the postfix program: small
/// enough that a full operand stack of tiles stays in L1, large enough
/// that the per-step dispatch amortizes to nothing.
pub const TILE: usize = 256;

/// One step of a fused elementwise postfix program.
///
/// Binary steps pop the right operand first (`a ○ b` is emitted as
/// `…a…, …b…, Op`). The per-element semantics of each op are exactly the
/// scalar bodies used by the unfused `f32` kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedOp {
    /// Push element of input `i` (broadcast-mapped to the output index).
    Input(u8),
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b`
    Div,
    /// `(a / b).floor()`
    FloorDiv,
    /// `a.rem_euclid(b)`
    Mod,
    /// `a.powf(b)`
    Pow,
    /// `a.max(b)`
    Maximum,
    /// `a.min(b)`
    Minimum,
    /// `-a`
    Neg,
    /// `a.abs()`
    Abs,
    /// `a.sqrt()`
    Sqrt,
    /// `a.exp()`
    Exp,
    /// `a.ln()`
    Log,
    /// `a * a`
    Square,
    /// `a.tanh()`
    Tanh,
    /// `1 / (1 + (-a).exp())`
    Sigmoid,
    /// `a.max(0.0)`
    Relu,
}

#[inline(always)]
fn map1(a: &mut [f32], f: impl Fn(f32) -> f32) {
    for x in a {
        *x = f(*x);
    }
}

#[inline(always)]
fn map2(a: &mut [f32], b: &[f32], f: impl Fn(f32, f32) -> f32) {
    for (x, &y) in a.iter_mut().zip(b) {
        *x = f(*x, y);
    }
}

impl FusedOp {
    /// How many operands the step pops (0 for `Input`).
    pub fn arity(&self) -> usize {
        match self {
            FusedOp::Input(_) => 0,
            FusedOp::Neg
            | FusedOp::Abs
            | FusedOp::Sqrt
            | FusedOp::Exp
            | FusedOp::Log
            | FusedOp::Square
            | FusedOp::Tanh
            | FusedOp::Sigmoid
            | FusedOp::Relu => 1,
            _ => 2,
        }
    }

    /// Apply a unary step in place over a tile.
    fn apply1(&self, a: &mut [f32]) {
        match self {
            FusedOp::Neg => map1(a, |x| -x),
            FusedOp::Abs => map1(a, f32::abs),
            FusedOp::Sqrt => map1(a, f32::sqrt),
            FusedOp::Exp => map1(a, f32::exp),
            FusedOp::Log => map1(a, f32::ln),
            FusedOp::Square => map1(a, |x| x * x),
            FusedOp::Tanh => map1(a, f32::tanh),
            FusedOp::Sigmoid => map1(a, |x| 1.0 / (1.0 + (-x).exp())),
            FusedOp::Relu => map1(a, |x| x.max(0.0)),
            _ => a.fill(f32::NAN),
        }
    }

    /// Apply a binary step over a tile: `a[j] = a[j] ○ b[j]`.
    fn apply2(&self, a: &mut [f32], b: &[f32]) {
        match self {
            FusedOp::Add => map2(a, b, |x, y| x + y),
            FusedOp::Sub => map2(a, b, |x, y| x - y),
            FusedOp::Mul => map2(a, b, |x, y| x * y),
            FusedOp::Div => map2(a, b, |x, y| x / y),
            FusedOp::FloorDiv => map2(a, b, |x, y| (x / y).floor()),
            FusedOp::Mod => map2(a, b, f32::rem_euclid),
            FusedOp::Pow => map2(a, b, f32::powf),
            FusedOp::Maximum => map2(a, b, f32::max),
            FusedOp::Minimum => map2(a, b, f32::min),
            _ => a.fill(f32::NAN),
        }
    }
}

/// A validated fused elementwise program: a postfix op sequence over
/// `num_inputs` tensors that leaves exactly one value on the stack.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedSpec {
    ops: Vec<FusedOp>,
    num_inputs: usize,
    /// Deepest operand stack the program reaches (tile slots needed).
    depth: usize,
    /// Bit `i` set when input slot `i` is pushed by some step.
    used: u64,
}

/// How a fused input is read for a tile of output elements.
enum Source<'a> {
    /// Input shape equals the output shape: a contiguous copy.
    Dense(&'a [f32]),
    /// Single-element input: one value for every output element.
    Scalar(f32),
    /// General broadcast: gathered by a strided walk.
    Broadcast(&'a [f32], BroadcastMap),
    /// A slot no step pushes.
    Unused,
}

/// A fused program bound to concrete inputs: the output shape and how
/// each input is read are resolved once, so evaluation does no shape
/// work. Built by [`FusedSpec::plan`]; consumed by [`FusedPlan::eval`].
pub struct FusedPlan<'a> {
    spec: &'a FusedSpec,
    sources: Vec<Source<'a>>,
    shape: Vec<usize>,
}

/// Broadcast `shape` into the running joint shape `acc` in place;
/// `None` when a dimension pair is incompatible.
fn broadcast_into(acc: &mut Vec<usize>, shape: &[usize]) -> Option<()> {
    if shape.len() > acc.len() {
        let grow = shape.len() - acc.len();
        acc.splice(0..0, std::iter::repeat_n(1, grow));
    }
    let offset = acc.len() - shape.len();
    for (a, &d) in acc[offset..].iter_mut().zip(shape) {
        if *a == 1 {
            *a = d;
        } else if d != 1 && d != *a {
            return None;
        }
    }
    Some(())
}

impl FusedSpec {
    /// Validate and build a spec. Returns `None` when the program is
    /// malformed (stack underflow, >1 final value, unused inputs
    /// indexed out of range) or exceeds the size limits.
    pub fn new(ops: Vec<FusedOp>, num_inputs: usize) -> Option<FusedSpec> {
        if num_inputs > FUSED_MAX_INPUTS || ops.is_empty() || ops.len() > FUSED_MAX_OPS {
            return None;
        }
        let (mut depth, mut max_depth, mut used) = (0usize, 0usize, 0u64);
        for op in &ops {
            match op {
                FusedOp::Input(i) => {
                    if *i as usize >= num_inputs {
                        return None;
                    }
                    used |= 1 << i;
                    depth += 1;
                }
                other => {
                    let k = other.arity();
                    if depth < k {
                        return None;
                    }
                    depth = depth - k + 1;
                }
            }
            if depth > FUSED_MAX_STACK {
                return None;
            }
            max_depth = max_depth.max(depth);
        }
        if depth != 1 {
            return None;
        }
        Some(FusedSpec {
            ops,
            num_inputs,
            depth: max_depth,
            used,
        })
    }

    /// The postfix steps.
    pub fn ops(&self) -> &[FusedOp] {
        &self.ops
    }

    /// Number of input slots the program reads.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Bind the program to `inputs`: right input count, all `f32`, and
    /// every step broadcasts — `None` otherwise, and the caller must
    /// dispatch op-by-op (which then reproduces the exact error).
    ///
    /// Elementwise broadcasting composes, so every step of the tree
    /// broadcasts exactly when the shapes of all the inputs it pushes
    /// broadcast jointly, and that joint shape is the output shape: one
    /// fold over the pushed inputs replaces a per-step simulation.
    pub fn plan<'a>(&'a self, inputs: &[&'a Tensor]) -> Option<FusedPlan<'a>> {
        if inputs.len() != self.num_inputs || inputs.iter().any(|t| t.dtype() != DType::F32) {
            return None;
        }
        let pushed = |i: usize| self.used & (1 << i) != 0;
        let mut shape = Vec::new();
        for (i, t) in inputs.iter().enumerate() {
            if pushed(i) {
                broadcast_into(&mut shape, t.shape())?;
            }
        }
        let mut sources = Vec::with_capacity(inputs.len());
        for (i, t) in inputs.iter().enumerate() {
            let v = t.as_f32().ok()?;
            sources.push(if !pushed(i) {
                Source::Unused
            } else if t.shape() == shape.as_slice() {
                Source::Dense(v)
            } else if let [x] = v {
                Source::Scalar(*x)
            } else {
                Source::Broadcast(v, BroadcastMap::new(t.shape(), &shape))
            });
        }
        Some(FusedPlan {
            spec: self,
            sources,
            shape,
        })
    }

    /// Whether this program can run fused over these inputs (see
    /// [`FusedSpec::plan`]).
    pub fn eligible(&self, inputs: &[&Tensor]) -> bool {
        self.plan(inputs).is_some()
    }

    /// Plan and evaluate in one call, drawing the output buffer from
    /// `arena`. Returns `None` when no plan exists — no side effects in
    /// that case.
    pub fn try_eval(&self, inputs: &[&Tensor], arena: &mut FusedArena) -> Option<Tensor> {
        Some(self.plan(inputs)?.eval(arena))
    }
}

impl FusedPlan<'_> {
    /// Evaluate the program tile by tile, drawing the output buffer from
    /// `arena`. Large outputs split across the worker pool in disjoint
    /// chunks, each with its own tile scratch.
    pub fn eval(self, arena: &mut FusedArena) -> Tensor {
        let n = self.shape.iter().product();
        let width = TILE.min(n);
        let scratch_len = (self.spec.depth - 1) * width;
        let mut out = arena.take(n);
        out.resize(n, 0.0);
        if n >= FUSED_PAR_MIN && autograph_par::threads() > 1 {
            let out_addr = out.as_mut_ptr() as usize;
            autograph_par::parallel_for(n, 4096, &|range| {
                // SAFETY: `out` holds `n` initialized elements and is not
                // touched again until `parallel_for` returns; its ranges
                // lie within `0..n` and are disjoint, so no two of these
                // slices overlap.
                let chunk = unsafe {
                    std::slice::from_raw_parts_mut(
                        (out_addr as *mut f32).add(range.start),
                        range.len(),
                    )
                };
                let mut scratch = vec![0.0; scratch_len];
                self.eval_range(range.start, chunk, &mut scratch, width);
            });
        } else {
            self.eval_range(0, &mut out, arena.scratch(scratch_len), width);
        }
        Tensor::from_data(Data::F32(out), &self.shape)
    }

    /// Evaluate output elements `start..start + out.len()` into `out`.
    fn eval_range(&self, start: usize, out: &mut [f32], scratch: &mut [f32], width: usize) {
        for (t, tile) in out.chunks_mut(TILE).enumerate() {
            self.eval_tile(start + t * TILE, tile, scratch, width);
        }
    }

    /// One pass over the postfix program for one tile. Stack slot 0 is
    /// `out`; slot `k > 0` is `scratch[(k - 1) * width..]`.
    fn eval_tile(&self, start: usize, out: &mut [f32], scratch: &mut [f32], width: usize) {
        let len = out.len();
        let mut top = 0;
        for op in &self.spec.ops {
            match op {
                FusedOp::Input(s) => {
                    let dst = if top == 0 {
                        &mut *out
                    } else {
                        &mut scratch[(top - 1) * width..][..len]
                    };
                    match &self.sources[*s as usize] {
                        Source::Dense(v) => dst.copy_from_slice(&v[start..start + len]),
                        Source::Scalar(x) => dst.fill(*x),
                        Source::Broadcast(v, m) => m.walk(start, len).gather(v, dst),
                        Source::Unused => unreachable!("FusedSpec::new records every pushed slot"),
                    }
                    top += 1;
                }
                other if other.arity() == 1 => {
                    let a = if top == 1 {
                        &mut *out
                    } else {
                        &mut scratch[(top - 2) * width..][..len]
                    };
                    other.apply1(a);
                }
                other => {
                    // operands in slots top-2 (a, written) and top-1 (b)
                    let (a, b) = if top == 2 {
                        (&mut *out, &scratch[..len])
                    } else {
                        let (lo, hi) = scratch.split_at_mut((top - 2) * width);
                        (&mut lo[(top - 3) * width..][..len], &hi[..len])
                    };
                    other.apply2(a, b);
                    top -= 1;
                }
            }
        }
    }
}

/// Same threshold as the elementwise kernels in [`crate::ops`]: below
/// this many output elements a parallel split costs more than it saves.
const FUSED_PAR_MIN: usize = 1 << 15;

/// Buffers the arena will hold at most (beyond that, freed buffers just
/// drop), and the largest buffer worth keeping.
const ARENA_MAX_BUFS: usize = 16;
const ARENA_MAX_ELEMS: usize = 1 << 22;

/// A small free-list of `f32` buffers for fused outputs: dead
/// intermediates donate their allocations ([`FusedArena::give`]) and
/// fused evaluation reuses them ([`FusedArena::take`]), so loop-carried
/// temporaries stop hitting the allocator once the loop warms up.
#[derive(Debug, Default)]
pub struct FusedArena {
    free: Vec<Vec<f32>>,
    /// Tile scratch for sequential evaluation, grown (and zero-filled)
    /// only when a deeper or wider program needs more.
    scratch: Vec<f32>,
}

impl FusedArena {
    /// A fresh, empty arena.
    pub fn new() -> FusedArena {
        FusedArena::default()
    }

    /// An empty buffer with capacity for at least `n` elements —
    /// recycled when a donated buffer is large enough, freshly allocated
    /// otherwise.
    pub fn take(&mut self, n: usize) -> Vec<f32> {
        for i in 0..self.free.len() {
            if self.free[i].capacity() >= n {
                let mut buf = self.free.swap_remove(i);
                buf.clear();
                return buf;
            }
        }
        Vec::with_capacity(n)
    }

    /// Donate a dead buffer for reuse. Oversized buffers and donations
    /// beyond the arena's capacity are simply dropped.
    pub fn give(&mut self, buf: Vec<f32>) {
        if buf.capacity() == 0 || buf.capacity() > ARENA_MAX_ELEMS {
            return;
        }
        if self.free.len() >= ARENA_MAX_BUFS {
            // keep the larger buffer: evict the smallest held one
            if let Some((idx, _)) = self
                .free
                .iter()
                .enumerate()
                .min_by_key(|(_, b)| b.capacity())
            {
                if self.free[idx].capacity() < buf.capacity() {
                    self.free[idx] = buf;
                }
            }
            return;
        }
        self.free.push(buf);
    }

    /// At least `len` elements of reusable tile scratch.
    fn scratch(&mut self, len: usize) -> &mut [f32] {
        if self.scratch.len() < len {
            self.scratch.resize(len, 0.0);
        }
        &mut self.scratch[..len]
    }

    /// Number of buffers currently held.
    pub fn held(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>, shape: &[usize]) -> Tensor {
        Tensor::from_vec(v, shape).unwrap()
    }

    /// add → mul → tanh over same-shape inputs matches op-by-op bitwise.
    #[test]
    fn fused_chain_matches_op_by_op_bitwise() {
        let a = t(vec![0.1, -2.5, 3.7, 0.0], &[4]);
        let b = t(vec![1.5, 0.25, -1.0, 9.0], &[4]);
        let c = t(vec![2.0, -0.5, 0.75, 1.25], &[4]);
        // tanh((a + b) * c)
        let spec = FusedSpec::new(
            vec![
                FusedOp::Input(0),
                FusedOp::Input(1),
                FusedOp::Add,
                FusedOp::Input(2),
                FusedOp::Mul,
                FusedOp::Tanh,
            ],
            3,
        )
        .unwrap();
        let mut arena = FusedArena::new();
        assert!(spec.eligible(&[&a, &b, &c]));
        let fused = spec.try_eval(&[&a, &b, &c], &mut arena).unwrap();
        let reference = a.add(&b).unwrap().mul(&c).unwrap().tanh().unwrap();
        assert_eq!(
            fused.as_f32().unwrap(),
            reference.as_f32().unwrap(),
            "fused result must be bitwise identical"
        );
        assert_eq!(fused.shape(), reference.shape());
    }

    #[test]
    fn broadcast_scalar_and_row() {
        let m = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let row = t(vec![10.0, 20.0, 30.0], &[3]);
        let s = Tensor::scalar_f32(0.5);
        // (m + row) * s
        let spec = FusedSpec::new(
            vec![
                FusedOp::Input(0),
                FusedOp::Input(1),
                FusedOp::Add,
                FusedOp::Input(2),
                FusedOp::Mul,
            ],
            3,
        )
        .unwrap();
        let mut arena = FusedArena::new();
        let got = spec.try_eval(&[&m, &row, &s], &mut arena).unwrap();
        let want = m.add(&row).unwrap().mul(&s).unwrap();
        assert_eq!(got.as_f32().unwrap(), want.as_f32().unwrap());
        assert_eq!(got.shape(), &[2, 3]);
    }

    #[test]
    fn ineligible_inputs_are_refused_without_side_effects() {
        let spec =
            FusedSpec::new(vec![FusedOp::Input(0), FusedOp::Input(1), FusedOp::Add], 2).unwrap();
        let mut arena = FusedArena::new();
        // i64 input
        let i = Tensor::from_vec_i64(vec![1, 2], &[2]).unwrap();
        let f = t(vec![1.0, 2.0], &[2]);
        assert!(!spec.eligible(&[&i, &f]));
        assert!(spec.try_eval(&[&i, &f], &mut arena).is_none());
        // broadcast mismatch
        let a = t(vec![1.0, 2.0], &[2]);
        let b = t(vec![1.0, 2.0, 3.0], &[3]);
        assert!(!spec.eligible(&[&a, &b]));
        assert!(spec.try_eval(&[&a, &b], &mut arena).is_none());
        // wrong arity
        assert!(!spec.eligible(&[&a]));
    }

    #[test]
    fn malformed_programs_rejected() {
        // empty
        assert!(FusedSpec::new(vec![], 0).is_none());
        // stack underflow
        assert!(FusedSpec::new(vec![FusedOp::Input(0), FusedOp::Add], 1).is_none());
        // two values left
        assert!(FusedSpec::new(vec![FusedOp::Input(0), FusedOp::Input(0)], 1).is_none());
        // input slot out of range
        assert!(FusedSpec::new(vec![FusedOp::Input(3)], 1).is_none());
        // too deep
        let mut deep = vec![FusedOp::Input(0); FUSED_MAX_STACK + 1];
        for _ in 0..FUSED_MAX_STACK {
            deep.push(FusedOp::Add);
        }
        assert!(FusedSpec::new(deep, 1).is_none());
    }

    #[test]
    fn arena_recycles_buffers() {
        let mut arena = FusedArena::new();
        let mut buf = Vec::with_capacity(128);
        buf.push(1.0f32);
        let cap = buf.capacity();
        arena.give(buf);
        assert_eq!(arena.held(), 1);
        let reused = arena.take(64);
        assert!(reused.is_empty());
        assert!(reused.capacity() >= 64);
        assert_eq!(reused.capacity(), cap, "the donated buffer came back");
        assert_eq!(arena.held(), 0);
        // too-small held buffers are skipped
        arena.give(Vec::with_capacity(8));
        let fresh = arena.take(1024);
        assert!(fresh.capacity() >= 1024);
        assert_eq!(arena.held(), 1, "small buffer stays for a later fit");
    }

    #[test]
    fn arena_reuse_through_tensor_roundtrip() {
        let mut arena = FusedArena::new();
        let spec = FusedSpec::new(vec![FusedOp::Input(0), FusedOp::Sqrt], 1).unwrap();
        let a = t(vec![4.0, 9.0, 16.0, 25.0], &[4]);
        let out = spec.try_eval(&[&a], &mut arena).unwrap();
        assert_eq!(out.as_f32().unwrap(), &[2.0, 3.0, 4.0, 5.0]);
        // sole owner: the buffer is reclaimable and feeds the next eval
        let buf = out.into_f32_buffer().unwrap();
        arena.give(buf);
        let out2 = spec.try_eval(&[&a], &mut arena).unwrap();
        assert_eq!(out2.as_f32().unwrap(), &[2.0, 3.0, 4.0, 5.0]);
        assert_eq!(arena.held(), 0, "recycled buffer was taken");
    }

    const BINARY: [FusedOp; 9] = [
        FusedOp::Add,
        FusedOp::Sub,
        FusedOp::Mul,
        FusedOp::Div,
        FusedOp::FloorDiv,
        FusedOp::Mod,
        FusedOp::Pow,
        FusedOp::Maximum,
        FusedOp::Minimum,
    ];
    const UNARY: [FusedOp; 9] = [
        FusedOp::Neg,
        FusedOp::Abs,
        FusedOp::Sqrt,
        FusedOp::Exp,
        FusedOp::Log,
        FusedOp::Square,
        FusedOp::Tanh,
        FusedOp::Sigmoid,
        FusedOp::Relu,
    ];

    /// The op-by-op kernel a fused step stands for.
    fn kernel(op: FusedOp, a: &Tensor, b: &Tensor) -> Tensor {
        match op {
            FusedOp::Add => a.add(b),
            FusedOp::Sub => a.sub(b),
            FusedOp::Mul => a.mul(b),
            FusedOp::Div => a.div(b),
            FusedOp::FloorDiv => a.floordiv(b),
            FusedOp::Mod => a.rem(b),
            FusedOp::Pow => a.pow(b),
            FusedOp::Maximum => a.maximum(b),
            FusedOp::Minimum => a.minimum(b),
            FusedOp::Neg => a.neg(),
            FusedOp::Abs => a.abs(),
            FusedOp::Sqrt => a.sqrt(),
            FusedOp::Exp => a.exp(),
            FusedOp::Log => a.log(),
            FusedOp::Square => a.square(),
            FusedOp::Tanh => a.tanh(),
            FusedOp::Sigmoid => a.sigmoid(),
            FusedOp::Relu => a.relu(),
            FusedOp::Input(_) => unreachable!("not a kernel"),
        }
        .unwrap()
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_f32().unwrap().iter().map(|x| x.to_bits()).collect()
    }

    fn assert_fused_eq(spec: &FusedSpec, inputs: &[&Tensor], want: &Tensor, what: &str) {
        let got = spec.try_eval(inputs, &mut FusedArena::new()).unwrap();
        assert_eq!(got.shape(), want.shape(), "{what}");
        assert_eq!(bits(&got), bits(want), "{what}");
    }

    /// Every op, at lengths on both sides of the tile and chunk
    /// boundaries and past the parallel threshold (with the worker pool
    /// on, so the chunked path runs), and with row, column, scalar and
    /// middle-axis broadcasts on either operand: fused is bitwise equal
    /// to op-by-op.
    #[test]
    fn tiled_eval_matches_op_by_op_bitwise() {
        autograph_par::configure(4);
        let mut rng = crate::Rng64::new(13);
        let mut tensor = |shape: &[usize]| rng.uniform_tensor(shape, -3.0, 3.0);
        let lens = [
            0,
            1,
            TILE - 1,
            TILE,
            TILE + 1,
            4095,
            4097,
            FUSED_PAR_MIN + 3,
        ];
        for n in lens {
            let (a, b) = (tensor(&[n]), tensor(&[n]));
            for op in UNARY {
                let spec = FusedSpec::new(vec![FusedOp::Input(0), op], 1).unwrap();
                let want = kernel(op, &a, &a);
                assert_fused_eq(&spec, &[&a], &want, &format!("{op:?} n={n}"));
            }
            for op in BINARY {
                let spec =
                    FusedSpec::new(vec![FusedOp::Input(0), FusedOp::Input(1), op], 2).unwrap();
                let want = kernel(op, &a, &b);
                assert_fused_eq(&spec, &[&a, &b], &want, &format!("{op:?} n={n}"));
            }
        }
        let full = tensor(&[33, 100]);
        let mid = tensor(&[2, 700, 3]);
        let cases = [
            (full.clone(), tensor(&[100]), "row"),
            (full.clone(), tensor(&[33, 1]), "column"),
            (full, tensor(&[]), "scalar"),
            (mid, tensor(&[2, 1, 3]), "middle axis"),
        ];
        for (x, y, kind) in &cases {
            for op in BINARY {
                let spec =
                    FusedSpec::new(vec![FusedOp::Input(0), FusedOp::Input(1), op], 2).unwrap();
                let want = kernel(op, x, y);
                assert_fused_eq(&spec, &[x, y], &want, &format!("{op:?} {kind}"));
                let want = kernel(op, y, x);
                assert_fused_eq(&spec, &[y, x], &want, &format!("{op:?} {kind} swapped"));
            }
            // a deeper stack: tanh(x * y + sigmoid(y) - x)
            let spec = FusedSpec::new(
                vec![
                    FusedOp::Input(0),
                    FusedOp::Input(1),
                    FusedOp::Mul,
                    FusedOp::Input(1),
                    FusedOp::Sigmoid,
                    FusedOp::Input(0),
                    FusedOp::Sub,
                    FusedOp::Add,
                    FusedOp::Tanh,
                ],
                2,
            )
            .unwrap();
            let want = x.mul(y).unwrap();
            let want = want.add(&y.sigmoid().unwrap().sub(x).unwrap()).unwrap();
            assert_fused_eq(&spec, &[x, y], &want.tanh().unwrap(), kind);
        }
    }

    #[test]
    fn empty_tensors_fuse() {
        let spec = FusedSpec::new(vec![FusedOp::Input(0), FusedOp::Relu], 1).unwrap();
        let mut arena = FusedArena::new();
        let e = t(vec![], &[0]);
        let out = spec.try_eval(&[&e], &mut arena).unwrap();
        assert_eq!(out.num_elements(), 0);
        assert_eq!(out.shape(), &[0]);
    }
}
