//! Edge-tile ("tail") microkernel variants for ragged shapes.
//!
//! When a matmul dimension is not a multiple of its tile size, the last
//! row/column of tiles is *partial*: only `m % MB` rows (or `n % NB`
//! columns) hold live data. The template runs those tiles one way,
//! pad-and-go, and this module supplies its kernels: the pack stage
//! zero-fills the tile up to full size ([`pack_pad_2d`]), the
//! steady-state full-tile brgemm runs unchanged, and the output store
//! clips the dead rows/columns back off ([`store_clamped_2d`]).
//!
//! The brgemm itself can also be clamped to a valid row count
//! ([`crate::Kernels::brgemm_f32`] / [`crate::Kernels::brgemm_u8i8`]
//! with `rows < m`, bit-identical to the row prefix of the full call).
//! No lowering emits such a call; the kernel-level differentials
//! exercise it.
//!
//! All kernels here are *masked-store* shaped: they never write outside
//! the valid window of the destination, so a caller can alias the
//! padded region with neighbouring data (the plan executor relies on
//! this when the output buffer has exactly the logical extent).

/// Pack a `rows_valid × cols_valid` window of a strided source into a
/// dense `rows × cols` tile, zero-filling the padded remainder.
///
/// `src` addresses element `(r, c)` of the window at
/// `r * src_row_stride + c * src_col_stride`. The destination tile is
/// written in full — valid data in the top-left window, `zero`
/// elsewhere — so downstream full-tile kernels see no garbage.
///
/// # Panics
///
/// Panics if the window exceeds the tile, `dst` is not `rows * cols`
/// elements, or the strided source window overruns `src`.
#[allow(clippy::too_many_arguments)]
pub fn pack_pad_2d<T: Copy>(
    src: &[T],
    src_row_stride: usize,
    src_col_stride: usize,
    dst: &mut [T],
    rows: usize,
    cols: usize,
    rows_valid: usize,
    cols_valid: usize,
    zero: T,
) {
    assert!(
        rows_valid <= rows && cols_valid <= cols,
        "window exceeds tile"
    );
    assert_eq!(dst.len(), rows * cols, "dst tile must be rows*cols");
    for r in 0..rows_valid {
        let drow = &mut dst[r * cols..r * cols + cols];
        for (c, d) in drow[..cols_valid].iter_mut().enumerate() {
            *d = src[r * src_row_stride + c * src_col_stride];
        }
        for d in &mut drow[cols_valid..] {
            *d = zero;
        }
    }
    for d in &mut dst[rows_valid * cols..] {
        *d = zero;
    }
}

/// Masked store: copy the valid `rows_valid × cols_valid` window of a
/// dense `rows × cols` tile into a strided destination, leaving
/// everything outside the window untouched.
///
/// This is the inverse of [`pack_pad_2d`]: `dst` addresses element
/// `(r, c)` at `r * dst_row_stride + c * dst_col_stride`, and the
/// padded rows/columns of `src` are never read.
///
/// # Panics
///
/// Panics if the window exceeds the tile, `src` is smaller than the
/// window it is read from, or the strided destination window overruns
/// `dst`.
#[allow(clippy::too_many_arguments)]
pub fn store_clamped_2d<T: Copy>(
    src: &[T],
    dst: &mut [T],
    dst_row_stride: usize,
    dst_col_stride: usize,
    rows: usize,
    cols: usize,
    rows_valid: usize,
    cols_valid: usize,
) {
    assert!(
        rows_valid <= rows && cols_valid <= cols,
        "window exceeds tile"
    );
    for r in 0..rows_valid {
        let srow = &src[r * cols..r * cols + cols_valid];
        for (c, &s) in srow.iter().enumerate() {
            dst[r * dst_row_stride + c * dst_col_stride] = s;
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

    #[test]
    fn pack_pad_zero_fills_remainder() {
        // 3x2 valid window of a 5-col row-major source into a 4x4 tile
        let src: Vec<f32> = (0..15).map(|x| x as f32 + 1.0).collect();
        let mut dst = vec![f32::NAN; 16];
        pack_pad_2d(&src, 5, 1, &mut dst, 4, 4, 3, 2, 0.0);
        #[rustfmt::skip]
        let want = vec![
            1.0, 2.0, 0.0, 0.0,
            6.0, 7.0, 0.0, 0.0,
            11.0, 12.0, 0.0, 0.0,
            0.0, 0.0, 0.0, 0.0,
        ];
        assert_eq!(dst, want);
    }

    #[test]
    fn store_clamped_roundtrips_pack_pad() {
        // pack a ragged window, store it back: outside the window the
        // destination is untouched, inside it round-trips exactly.
        let mut rng = StdRng::seed_from_u64(11);
        let (rows, cols, rv, cv) = (6usize, 8usize, 4usize, 5usize);
        let src = rand_f32(rv * 16, &mut rng);
        let mut tile = vec![0f32; rows * cols];
        pack_pad_2d(&src, 16, 1, &mut tile, rows, cols, rv, cv, 0.0);
        let mut out = vec![-9.0f32; rv * 16];
        store_clamped_2d(&tile, &mut out, 16, 1, rows, cols, rv, cv);
        for r in 0..rv {
            for c in 0..16 {
                if c < cv {
                    assert_eq!(out[r * 16 + c], src[r * 16 + c]);
                } else {
                    assert_eq!(out[r * 16 + c], -9.0, "pad column leaked");
                }
            }
        }
    }
}
