//! Batch-reduce GEMM microkernels.
//!
//! The batch-reduce GEMM (brgemm) interface follows LIBXSMM/TPP and the
//! paper: given a *batch* of A and B tiles, multiply each pair and sum
//! the products into one C tile:
//!
//! ```text
//! C[0:MB, 0:NB] += sum_{b in 0..BS} A_b[0:MB, 0:KB] x B_b[0:KB, 0:NB]
//! ```
//!
//! Tiles are addressed as offsets into a backing buffer (the template's
//! `A_addr[0..BS] = &A[...]` address arrays). The A tile is row-major
//! `[MB, KB]`; the B tile uses the blocked weight layout `[NB, KB]`
//! (n-major panels, so each output column's operand is contiguous).
//!
//! C accumulation is `+=`: the caller zeroes C once per k-loop, exactly
//! as the template's `C'[...] = 0` statement does.
//!
//! The kernels themselves live in [`crate::arch`]: one generic
//! register-tiled batch-reduce body per dtype, instantiated per backend
//! (scalar / AVX2 / AVX-512). A body keeps each register block of C
//! live across the whole batch, so C is read and written once per call.
//! The [`Kernels`] methods here are its checked front-ends.

use crate::arch::{Family, Kernels};

/// Tile geometry for one brgemm call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrgemmShape {
    /// Rows of the C tile (and of each A tile).
    pub m: usize,
    /// Columns of the C tile (and panels of each B tile).
    pub n: usize,
    /// Reduction extent of each tile pair.
    pub k: usize,
}

impl BrgemmShape {
    /// Create a shape.
    pub fn new(m: usize, n: usize, k: usize) -> Self {
        BrgemmShape { m, n, k }
    }

    /// Elements in an A tile.
    pub fn a_len(self) -> usize {
        self.m * self.k
    }

    /// Elements in a B tile.
    pub fn b_len(self) -> usize {
        self.n * self.k
    }

    /// Elements in the C tile.
    pub fn c_len(self) -> usize {
        self.m * self.n
    }
}

/// What every brgemm entry establishes before it enters an unsafe body
/// that computes the first `rows` rows of the C tile: equal batch sizes,
/// `rows` within the tile height, a C of exactly `rows * n` elements,
/// and every full-height A tile and B tile inside its buffer.
///
/// # Panics
///
/// Panics if any of those does not hold.
fn check_batch<A, B, C>(
    shape: BrgemmShape,
    rows: usize,
    a_buf: &[A],
    a_offs: &[usize],
    b_buf: &[B],
    b_offs: &[usize],
    c: &[C],
) {
    let BrgemmShape { m, n, .. } = shape;
    assert!(rows <= m, "m_valid {rows} exceeds tile height {m}");
    assert_eq!(a_offs.len(), b_offs.len(), "batch sizes must match");
    assert_eq!(c.len(), rows * n, "C tile must be m*n");
    let fits = |off: usize, tile: usize, len: usize| off <= len && tile <= len - off;
    for (&ao, &bo) in a_offs.iter().zip(b_offs) {
        assert!(
            fits(ao, shape.a_len(), a_buf.len()),
            "A tile at {ao} overruns its buffer of {}",
            a_buf.len()
        );
        assert!(
            fits(bo, shape.b_len(), b_buf.len()),
            "B tile at {bo} overruns its buffer of {}",
            b_buf.len()
        );
    }
}

impl Kernels {
    /// f32 batch-reduce GEMM over the first `rows` rows of the tile:
    /// `C[0:rows, 0:n] += sum_b A_b x B_b`.
    ///
    /// `a_offs`/`b_offs` give the start of each tile in its buffer; the
    /// batch size is `a_offs.len()`. `rows == shape.m` is the full tile;
    /// fewer is the m-tail of a ragged shape — the A tiles keep their
    /// full `[m, k]` footprint in memory (only the valid rows are read),
    /// `c` is the `rows * n` prefix, and the result is bit-identical to
    /// the row prefix of the full call. Counted as
    /// [`Family::BrgemmF32`] or, when clamped, [`Family::TailF32`]; a
    /// zero-height call does nothing and is not counted.
    ///
    /// # Panics
    ///
    /// Panics if `rows > shape.m`, the offset arrays differ in length,
    /// any tile overruns its buffer, or `c` is not exactly `rows * n`
    /// elements.
    #[allow(clippy::too_many_arguments)]
    pub fn brgemm_f32(
        &self,
        shape: BrgemmShape,
        rows: usize,
        a_buf: &[f32],
        a_offs: &[usize],
        b_buf: &[f32],
        b_offs: &[usize],
        c: &mut [f32],
    ) {
        check_batch(shape, rows, a_buf, a_offs, b_buf, b_offs, c);
        if rows == 0 {
            return;
        }
        self.record(if rows < shape.m {
            Family::TailF32
        } else {
            Family::BrgemmF32
        });
        // SAFETY: `kernels` verified the CPU supports this table's ISA,
        // and `check_batch` established the body's extents.
        unsafe { (self.table.brgemm_f32)(rows, shape.n, shape.k, a_buf, a_offs, b_buf, b_offs, c) };
    }

    /// Int8 batch-reduce GEMM: u8 activations × i8 weights accumulated
    /// in i32, uncompensated (zero-point correction is applied by the
    /// epilogue). `rows` clamps the tile height as in
    /// [`Kernels::brgemm_f32`]; counted as [`Family::BrgemmU8I8`] or
    /// [`Family::TailU8I8`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Kernels::brgemm_f32`].
    #[allow(clippy::too_many_arguments)]
    pub fn brgemm_u8i8(
        &self,
        shape: BrgemmShape,
        rows: usize,
        a_buf: &[u8],
        a_offs: &[usize],
        b_buf: &[i8],
        b_offs: &[usize],
        c: &mut [i32],
    ) {
        check_batch(shape, rows, a_buf, a_offs, b_buf, b_offs, c);
        if rows == 0 {
            return;
        }
        self.record(if rows < shape.m {
            Family::TailU8I8
        } else {
            Family::BrgemmU8I8
        });
        // SAFETY: as in `brgemm_f32`.
        unsafe {
            (self.table.brgemm_u8i8)(rows, shape.n, shape.k, a_buf, a_offs, b_buf, b_offs, c)
        };
    }

    /// One f32 tile product `C[m,n] += A[m,k] × B[n,k]` (B panel-major):
    /// a batch of one over the leading `m * n` elements of `c`.
    ///
    /// # Panics
    ///
    /// Panics if any slice is shorter than its `m`/`n`/`k` extent.
    pub fn gemm_f32(&self, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        self.brgemm_f32(
            BrgemmShape::new(m, n, k),
            m,
            a,
            &[0],
            b,
            &[0],
            &mut c[..m * n],
        );
    }

    /// One u8×i8 tile product into i32: a batch of one.
    ///
    /// # Panics
    ///
    /// Panics if any slice is shorter than its `m`/`n`/`k` extent.
    pub fn gemm_u8i8(&self, m: usize, n: usize, k: usize, a: &[u8], b: &[i8], c: &mut [i32]) {
        self.brgemm_u8i8(
            BrgemmShape::new(m, n, k),
            m,
            a,
            &[0],
            b,
            &[0],
            &mut c[..m * n],
        );
    }
}

/// Reference (scalar, obviously-correct) versions used in tests.
pub mod scalar {
    use super::BrgemmShape;

    /// Scalar f32 brgemm with identical semantics to a full-height
    /// [`crate::arch::Kernels::brgemm_f32`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as the optimized kernel.
    pub fn brgemm_f32(
        shape: BrgemmShape,
        a_buf: &[f32],
        a_offs: &[usize],
        b_buf: &[f32],
        b_offs: &[usize],
        c: &mut [f32],
    ) {
        let BrgemmShape { m, n, k } = shape;
        assert_eq!(a_offs.len(), b_offs.len());
        assert_eq!(c.len(), m * n);
        for (&ao, &bo) in a_offs.iter().zip(b_offs) {
            for i in 0..m {
                for j in 0..n {
                    let mut s = 0f32;
                    for l in 0..k {
                        s += a_buf[ao + i * k + l] * b_buf[bo + j * k + l];
                    }
                    c[i * n + j] += s;
                }
            }
        }
    }

    /// Scalar int8 brgemm with identical semantics to a full-height
    /// [`crate::arch::Kernels::brgemm_u8i8`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as the optimized kernel.
    pub fn brgemm_u8i8(
        shape: BrgemmShape,
        a_buf: &[u8],
        a_offs: &[usize],
        b_buf: &[i8],
        b_offs: &[usize],
        c: &mut [i32],
    ) {
        let BrgemmShape { m, n, k } = shape;
        assert_eq!(a_offs.len(), b_offs.len());
        assert_eq!(c.len(), m * n);
        for (&ao, &bo) in a_offs.iter().zip(b_offs) {
            for i in 0..m {
                for j in 0..n {
                    let mut s = 0i32;
                    for l in 0..k {
                        s += a_buf[ao + i * k + l] as i32 * b_buf[bo + j * k + l] as i32;
                    }
                    c[i * n + j] += s;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_f32(n: usize, rng: &mut StdRng) -> Vec<f32> {
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    /// Full-height call on the process-default backend.
    fn brgemm_f32(
        shape: BrgemmShape,
        a_buf: &[f32],
        a_offs: &[usize],
        b_buf: &[f32],
        b_offs: &[usize],
        c: &mut [f32],
    ) {
        Kernels::default().brgemm_f32(shape, shape.m, a_buf, a_offs, b_buf, b_offs, c);
    }

    fn brgemm_u8i8(
        shape: BrgemmShape,
        a_buf: &[u8],
        a_offs: &[usize],
        b_buf: &[i8],
        b_offs: &[usize],
        c: &mut [i32],
    ) {
        Kernels::default().brgemm_u8i8(shape, shape.m, a_buf, a_offs, b_buf, b_offs, c);
    }

    #[test]
    fn brgemm_f32_matches_scalar() {
        let mut rng = StdRng::seed_from_u64(1);
        let shape = BrgemmShape::new(6, 5, 17);
        let bs = 3;
        let a_buf = rand_f32(bs * shape.a_len(), &mut rng);
        let b_buf = rand_f32(bs * shape.b_len(), &mut rng);
        let a_offs: Vec<usize> = (0..bs).map(|i| i * shape.a_len()).collect();
        let b_offs: Vec<usize> = (0..bs).map(|i| i * shape.b_len()).collect();
        let mut c1 = vec![0f32; shape.c_len()];
        let mut c2 = vec![0f32; shape.c_len()];
        brgemm_f32(shape, &a_buf, &a_offs, &b_buf, &b_offs, &mut c1);
        scalar::brgemm_f32(shape, &a_buf, &a_offs, &b_buf, &b_offs, &mut c2);
        for (x, y) in c1.iter().zip(&c2) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn brgemm_f32_accumulates() {
        let shape = BrgemmShape::new(1, 1, 2);
        let a = vec![1.0f32, 2.0];
        let b = vec![3.0f32, 4.0];
        let mut c = vec![10.0f32];
        brgemm_f32(shape, &a, &[0], &b, &[0], &mut c);
        assert_eq!(c[0], 10.0 + 11.0);
    }

    #[test]
    fn brgemm_f32_batch_reduces() {
        // two identical tile pairs -> double the single product
        let shape = BrgemmShape::new(2, 2, 4);
        let mut rng = StdRng::seed_from_u64(2);
        let a = rand_f32(shape.a_len(), &mut rng);
        let b = rand_f32(shape.b_len(), &mut rng);
        let mut c1 = vec![0f32; 4];
        brgemm_f32(shape, &a, &[0], &b, &[0], &mut c1);
        let mut c2 = vec![0f32; 4];
        brgemm_f32(shape, &a, &[0, 0], &b, &[0, 0], &mut c2);
        for (x, y) in c1.iter().zip(&c2) {
            assert!((2.0 * x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn brgemm_u8i8_matches_scalar() {
        let mut rng = StdRng::seed_from_u64(3);
        let shape = BrgemmShape::new(4, 7, 13);
        let bs = 2;
        let a_buf: Vec<u8> = (0..bs * shape.a_len())
            .map(|_| rng.gen_range(0..32))
            .collect();
        let b_buf: Vec<i8> = (0..bs * shape.b_len())
            .map(|_| rng.gen_range(-16..16))
            .collect();
        let a_offs: Vec<usize> = (0..bs).map(|i| i * shape.a_len()).collect();
        let b_offs: Vec<usize> = (0..bs).map(|i| i * shape.b_len()).collect();
        let mut c1 = vec![0i32; shape.c_len()];
        let mut c2 = vec![0i32; shape.c_len()];
        brgemm_u8i8(shape, &a_buf, &a_offs, &b_buf, &b_offs, &mut c1);
        scalar::brgemm_u8i8(shape, &a_buf, &a_offs, &b_buf, &b_offs, &mut c2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn brgemm_u8i8_exact_value() {
        // 1x1 tile, k=3: [1,2,3] . [4,-5,6] = 4 - 10 + 18 = 12
        let shape = BrgemmShape::new(1, 1, 3);
        let mut c = vec![0i32];
        brgemm_u8i8(shape, &[1, 2, 3], &[0], &[4, -5, 6], &[0], &mut c);
        assert_eq!(c[0], 12);
    }

    #[test]
    #[should_panic(expected = "batch sizes must match")]
    fn mismatched_batch_panics() {
        let shape = BrgemmShape::new(1, 1, 1);
        let mut c = vec![0f32];
        brgemm_f32(shape, &[1.0], &[0, 0], &[1.0], &[0], &mut c);
    }

    #[test]
    #[should_panic(expected = "C tile must be m*n")]
    fn wrong_c_size_panics() {
        let shape = BrgemmShape::new(2, 2, 1);
        let mut c = vec![0f32; 3];
        brgemm_f32(shape, &[1.0, 1.0], &[0], &[1.0, 1.0], &[0], &mut c);
    }

    #[test]
    #[should_panic(expected = "overruns its buffer")]
    fn overrunning_tile_panics() {
        // The second A tile starts one element too late to fit.
        let shape = BrgemmShape::new(2, 2, 2);
        let mut c = vec![0f32; 4];
        brgemm_f32(shape, &[1.0; 8], &[0, 5], &[1.0; 8], &[0, 4], &mut c);
    }

    #[test]
    fn empty_batch_is_noop() {
        let shape = BrgemmShape::new(2, 2, 2);
        let mut c = vec![5.0f32; 4];
        brgemm_f32(shape, &[], &[], &[], &[], &mut c);
        assert!(c.iter().all(|&x| x == 5.0));
    }

    #[test]
    fn odd_k_sizes_handled() {
        // k not a multiple of the unroll width
        for k in [1usize, 3, 7, 9, 15] {
            let mut rng = StdRng::seed_from_u64(k as u64);
            let shape = BrgemmShape::new(3, 2, k);
            let a = rand_f32(shape.a_len(), &mut rng);
            let b = rand_f32(shape.b_len(), &mut rng);
            let mut c1 = vec![0f32; 6];
            let mut c2 = vec![0f32; 6];
            brgemm_f32(shape, &a, &[0], &b, &[0], &mut c1);
            scalar::brgemm_f32(shape, &a, &[0], &b, &[0], &mut c2);
            for (x, y) in c1.iter().zip(&c2) {
                assert!((x - y).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn f32_m_tail_matches_full_prefix() {
        // a clamped call over m_valid rows == the full call's first
        // m_valid rows, bit-exact (same per-row reduction order).
        let mut rng = StdRng::seed_from_u64(7);
        let shape = BrgemmShape::new(8, 6, 24);
        let bs = 3;
        let a = rand_f32(bs * shape.a_len(), &mut rng);
        let b = rand_f32(bs * shape.b_len(), &mut rng);
        let a_offs: Vec<usize> = (0..bs).map(|i| i * shape.a_len()).collect();
        let b_offs: Vec<usize> = (0..bs).map(|i| i * shape.b_len()).collect();
        let mut full = vec![0f32; shape.c_len()];
        brgemm_f32(shape, &a, &a_offs, &b, &b_offs, &mut full);
        for m_valid in [0usize, 1, 3, 5, 8] {
            let mut tail = vec![0f32; m_valid * shape.n];
            Kernels::default().brgemm_f32(shape, m_valid, &a, &a_offs, &b, &b_offs, &mut tail);
            assert_eq!(tail, full[..m_valid * shape.n]);
        }
    }

    #[test]
    fn u8i8_m_tail_matches_scalar() {
        let mut rng = StdRng::seed_from_u64(9);
        let shape = BrgemmShape::new(5, 7, 13);
        let bs = 2;
        let a: Vec<u8> = (0..bs * shape.a_len())
            .map(|_| rng.gen_range(0..64))
            .collect();
        let b: Vec<i8> = (0..bs * shape.b_len())
            .map(|_| rng.gen_range(-32..32))
            .collect();
        let a_offs: Vec<usize> = (0..bs).map(|i| i * shape.a_len()).collect();
        let b_offs: Vec<usize> = (0..bs).map(|i| i * shape.b_len()).collect();
        let mut full = vec![0i32; shape.c_len()];
        scalar::brgemm_u8i8(shape, &a, &a_offs, &b, &b_offs, &mut full);
        let m_valid = 3;
        let mut tail = vec![0i32; m_valid * shape.n];
        Kernels::default().brgemm_u8i8(shape, m_valid, &a, &a_offs, &b, &b_offs, &mut tail);
        assert_eq!(tail, full[..m_valid * shape.n]);
    }

    #[test]
    #[should_panic(expected = "m_valid")]
    fn overlong_tail_panics() {
        let shape = BrgemmShape::new(2, 2, 2);
        let mut c = vec![0f32; 6];
        Kernels::default().brgemm_f32(shape, 3, &[0.0; 8], &[0], &[0.0; 8], &[0], &mut c);
    }
}
