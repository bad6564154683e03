//! Shapes, strides and NumPy-style broadcasting.

use crate::{Result, TensorError};

/// A tensor shape: the extent of each dimension, outermost first.
///
/// A scalar has the empty shape `[]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape(pub Vec<usize>);

impl Shape {
    /// Construct from a slice of dimension extents.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (1 for scalars).
    pub fn num_elements(&self) -> usize {
        self.0.iter().product()
    }

    /// Dimension extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Row-major strides (in elements) for this shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![0; self.0.len()];
        let mut acc = 1;
        for (i, &d) in self.0.iter().enumerate().rev() {
            strides[i] = acc;
            acc *= d;
        }
        strides
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }
}

/// Compute the broadcast of two shapes per NumPy rules.
///
/// Dimensions are aligned from the right; each pair must be equal or one of
/// them must be 1.
///
/// # Errors
///
/// Returns [`TensorError::BroadcastMismatch`] when a dimension pair is
/// incompatible.
pub fn broadcast_shapes(lhs: &[usize], rhs: &[usize]) -> Result<Vec<usize>> {
    let rank = lhs.len().max(rhs.len());
    let mut out = vec![0; rank];
    for i in 0..rank {
        let l = if i < rank - lhs.len() {
            1
        } else {
            lhs[i - (rank - lhs.len())]
        };
        let r = if i < rank - rhs.len() {
            1
        } else {
            rhs[i - (rank - rhs.len())]
        };
        out[i] = if l == r {
            l
        } else if l == 1 {
            r
        } else if r == 1 {
            l
        } else {
            return Err(TensorError::BroadcastMismatch {
                lhs: lhs.to_vec(),
                rhs: rhs.to_vec(),
            });
        };
    }
    Ok(out)
}

/// Index mapping used by broadcast kernels: maps a flat index in the
/// output shape to a flat index in a (possibly lower-rank, broadcast)
/// input shape. [`BroadcastMap::map`] does it for one index with a
/// div/mod per dimension; [`BroadcastMap::walk`] does it for a run of
/// consecutive output indices with an odometer and no division.
#[derive(Debug, Clone)]
pub struct BroadcastMap {
    /// For each output dimension, the input stride (0 where broadcast).
    strides: Vec<usize>,
    out_shape: Vec<usize>,
}

impl BroadcastMap {
    /// Build a map from `in_shape` broadcast up to `out_shape`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are not broadcast-compatible; callers are
    /// expected to have validated with [`broadcast_shapes`] first.
    pub fn new(in_shape: &[usize], out_shape: &[usize]) -> Self {
        let rank = out_shape.len();
        let offset = rank - in_shape.len();
        let in_strides = Shape::new(in_shape).strides();
        let mut strides = vec![0; rank];
        for i in 0..rank {
            if i >= offset {
                let d = in_shape[i - offset];
                assert!(
                    d == out_shape[i] || d == 1,
                    "shape {in_shape:?} does not broadcast to {out_shape:?}"
                );
                strides[i] = if d == 1 { 0 } else { in_strides[i - offset] };
            }
        }
        BroadcastMap {
            strides,
            out_shape: out_shape.to_vec(),
        }
    }

    /// Whether the map is the identity (no broadcasting happened).
    pub fn is_identity(&self) -> bool {
        self.strides == Shape::new(&self.out_shape).strides() || self.out_shape.is_empty()
    }

    /// Map a flat output index to the flat input index.
    #[inline]
    pub fn map(&self, mut flat: usize) -> usize {
        let mut idx = 0;
        for i in (0..self.out_shape.len()).rev() {
            let d = self.out_shape[i];
            let coord = flat % d;
            flat /= d;
            idx += coord * self.strides[i];
        }
        idx
    }

    /// Walk the input indices of the `len` consecutive output indices
    /// starting at flat output index `start`. Only the start position
    /// costs a div/mod per dimension; every later step is an odometer
    /// increment.
    pub fn walk(&self, start: usize, len: usize) -> BroadcastWalk<'_> {
        let rank = self.out_shape.len();
        let mut coord = if rank <= INLINE_RANK {
            Coords::Inline([0; INLINE_RANK])
        } else {
            Coords::Heap(vec![0; rank])
        };
        let (mut flat, mut idx) = (start, 0);
        let dims = self.out_shape.iter().zip(&self.strides);
        for (c, (&d, &s)) in coord.as_mut(rank).iter_mut().zip(dims).rev() {
            // a zero-extent output has no elements to walk
            if d > 0 {
                *c = flat % d;
                flat /= d;
                idx += *c * s;
            }
        }
        BroadcastWalk {
            map: self,
            coord,
            idx,
            remaining: len,
        }
    }
}

/// Output ranks up to this keep the walker's coordinates inline (no heap
/// allocation); higher ranks spill to a `Vec`.
const INLINE_RANK: usize = 8;

#[derive(Debug, Clone)]
enum Coords {
    Inline([usize; INLINE_RANK]),
    Heap(Vec<usize>),
}

impl Coords {
    #[inline]
    fn as_mut(&mut self, rank: usize) -> &mut [usize] {
        match self {
            Coords::Inline(c) => &mut c[..rank],
            Coords::Heap(c) => c,
        }
    }
}

/// A strided odometer over a [`BroadcastMap`]: yields the flat input
/// index of each consecutive output index, carrying into outer
/// dimensions only when the innermost one wraps. Built by
/// [`BroadcastMap::walk`].
#[derive(Debug, Clone)]
pub struct BroadcastWalk<'a> {
    map: &'a BroadcastMap,
    coord: Coords,
    /// Input index of the current output position.
    idx: usize,
    remaining: usize,
}

impl BroadcastWalk<'_> {
    /// Step `k` output positions forward along the innermost dimension
    /// (`k` must not pass its end), carrying outward when it wraps.
    #[inline]
    fn advance(&mut self, k: usize) {
        let rank = self.map.out_shape.len();
        let (dims, strides) = (&self.map.out_shape, &self.map.strides);
        let coord = self.coord.as_mut(rank);
        let mut d = rank;
        let mut step = k;
        while d > 0 {
            d -= 1;
            coord[d] += step;
            self.idx += step * strides[d];
            if coord[d] < dims[d] {
                return;
            }
            // wrapped: rewind this dimension and carry one into the next
            self.idx -= dims[d] * strides[d];
            coord[d] = 0;
            step = 1;
        }
    }

    /// Fill `dst` with the broadcast source elements of the next
    /// `dst.len()` output positions, a run along the innermost dimension
    /// at a time (a fill, a copy, or a strided gather).
    pub fn gather<T: Copy>(&mut self, src: &[T], dst: &mut [T]) {
        assert!(
            dst.len() <= self.remaining,
            "gather past the end of the walk"
        );
        self.remaining -= dst.len();
        let Some(last) = self.map.out_shape.len().checked_sub(1) else {
            dst.fill(src[self.idx]);
            return;
        };
        let (dim, stride) = (self.map.out_shape[last], self.map.strides[last]);
        let mut j = 0;
        while j < dst.len() {
            let run = (dim - self.coord.as_mut(last + 1)[last]).min(dst.len() - j);
            let out = &mut dst[j..j + run];
            match stride {
                0 => out.fill(src[self.idx]),
                1 => out.copy_from_slice(&src[self.idx..self.idx + run]),
                s => {
                    for (k, o) in out.iter_mut().enumerate() {
                        *o = src[self.idx + k * s];
                    }
                }
            }
            self.advance(run);
            j += run;
        }
    }
}

impl Iterator for BroadcastWalk<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let idx = self.idx;
        self.advance(1);
        Some(idx)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(&[]).strides(), Vec::<usize>::new());
        assert_eq!(Shape::new(&[5]).strides(), vec![1]);
    }

    #[test]
    fn num_elements() {
        assert_eq!(Shape::new(&[]).num_elements(), 1);
        assert_eq!(Shape::new(&[2, 3]).num_elements(), 6);
        assert_eq!(Shape::new(&[0, 3]).num_elements(), 0);
    }

    #[test]
    fn broadcast_basic() {
        assert_eq!(broadcast_shapes(&[2, 3], &[3]).unwrap(), vec![2, 3]);
        assert_eq!(broadcast_shapes(&[2, 1], &[1, 3]).unwrap(), vec![2, 3]);
        assert_eq!(broadcast_shapes(&[], &[4]).unwrap(), vec![4]);
        assert_eq!(broadcast_shapes(&[7], &[]).unwrap(), vec![7]);
    }

    #[test]
    fn broadcast_mismatch() {
        assert!(broadcast_shapes(&[2, 3], &[4]).is_err());
        assert!(broadcast_shapes(&[2], &[3]).is_err());
    }

    #[test]
    fn broadcast_map_scalar() {
        let m = BroadcastMap::new(&[], &[2, 2]);
        for i in 0..4 {
            assert_eq!(m.map(i), 0);
        }
    }

    #[test]
    fn broadcast_map_row() {
        // [3] broadcast to [2,3]: output (i,j) -> input j
        let m = BroadcastMap::new(&[3], &[2, 3]);
        assert_eq!(
            (0..6).map(|i| m.map(i)).collect::<Vec<_>>(),
            vec![0, 1, 2, 0, 1, 2]
        );
    }

    #[test]
    fn broadcast_map_col() {
        // [2,1] broadcast to [2,3]: output (i,j) -> input i
        let m = BroadcastMap::new(&[2, 1], &[2, 3]);
        assert_eq!(
            (0..6).map(|i| m.map(i)).collect::<Vec<_>>(),
            vec![0, 0, 0, 1, 1, 1]
        );
    }

    /// The walker yields exactly what `map` does, from any start offset,
    /// both per element and through `gather`.
    #[test]
    fn walk_matches_map_on_random_shapes() {
        let mut rng = crate::Rng64::new(0x5eed);
        let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
        for case in 0..400 {
            let rank = pick(5);
            let out: Vec<usize> = (0..rank).map(|_| 1 + pick(4)).collect();
            // drop leading dims, then broadcast some of the rest to 1
            let drop = pick(rank + 1);
            let input: Vec<usize> = out[drop..]
                .iter()
                .map(|&d| if pick(3) == 0 { 1 } else { d })
                .collect();
            let m = BroadcastMap::new(&input, &out);
            let n: usize = out.iter().product();
            let src: Vec<usize> = (0..input.iter().product()).collect();
            let start = pick(n + 1);
            let want: Vec<usize> = (start..n).map(|i| m.map(i)).collect();
            let walked: Vec<usize> = m.walk(start, n - start).collect();
            assert_eq!(
                walked, want,
                "case {case}: {input:?} -> {out:?} from {start}"
            );
            let mut gathered = vec![usize::MAX; n - start];
            m.walk(start, n - start).gather(&src, &mut gathered);
            assert_eq!(gathered, want, "gather case {case}");
        }
    }

    #[test]
    fn walk_handles_high_rank_and_empty_outputs() {
        let out = [2, 1, 3, 1, 2, 1, 2, 1, 2, 3];
        let input = [3, 1, 1, 1, 2, 1, 2, 1];
        let m = BroadcastMap::new(&input, &out);
        let n: usize = out.iter().product();
        let want: Vec<usize> = (0..n).map(|i| m.map(i)).collect();
        assert_eq!(m.walk(0, n).collect::<Vec<_>>(), want);
        let empty = BroadcastMap::new(&[3], &[0, 3]);
        assert_eq!(empty.walk(0, 0).count(), 0);
        let scalar = BroadcastMap::new(&[], &[]);
        assert_eq!(scalar.walk(0, 1).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn identity_detection() {
        assert!(BroadcastMap::new(&[2, 3], &[2, 3]).is_identity());
        assert!(!BroadcastMap::new(&[1, 3], &[2, 3]).is_identity());
    }
}
