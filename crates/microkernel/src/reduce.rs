//! Reduction kernels for standalone row reductions (an unfused softmax's
//! max and sum run inside [`crate::RowChain`] instead). Slice reductions
//! are [`Kernels`] methods that run on the handle's backend; lane-width
//! accumulators mean the f32 summation order differs across backends
//! (within the 1e-5 cross-ISA tolerance), but is fixed for one handle.

use crate::arch::{Family, Kernels};

/// Row reduction flavour (fused reduction post-ops, row-chain stages).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Row-wise sum.
    Sum,
    /// Row-wise max.
    Max,
}

impl Kernels {
    /// Maximum of a slice; `-inf` for an empty slice.
    pub fn reduce_max(&self, xs: &[f32]) -> f32 {
        self.record(Family::Reduce);
        // SAFETY: `kernels` verified CPU support.
        unsafe { (self.table.reduce_max)(xs) }
    }

    /// Sum of a slice (lane-width accumulators reduced once at the end).
    pub fn reduce_sum(&self, xs: &[f32]) -> f32 {
        self.record(Family::Reduce);
        // SAFETY: `kernels` verified CPU support.
        unsafe { (self.table.reduce_sum)(xs) }
    }

    /// Row-wise max of a `[rows, cols]` tile into `out[rows]`, counted
    /// as one call.
    ///
    /// # Panics
    ///
    /// Panics if `tile.len() != rows * cols` or `out.len() != rows`.
    pub fn reduce_rows_max(&self, tile: &[f32], rows: usize, cols: usize, out: &mut [f32]) {
        assert_eq!(tile.len(), rows * cols);
        assert_eq!(out.len(), rows);
        self.record(Family::Reduce);
        for (o, row) in out.iter_mut().zip(tile.chunks_exact(cols)) {
            // SAFETY: `kernels` verified CPU support.
            *o = unsafe { (self.table.reduce_max)(row) };
        }
    }

    /// Row-wise sum of a `[rows, cols]` tile into `out[rows]`, counted
    /// as one call.
    ///
    /// # Panics
    ///
    /// Panics if `tile.len() != rows * cols` or `out.len() != rows`.
    pub fn reduce_rows_sum(&self, tile: &[f32], rows: usize, cols: usize, out: &mut [f32]) {
        assert_eq!(tile.len(), rows * cols);
        assert_eq!(out.len(), rows);
        self.record(Family::Reduce);
        for (o, row) in out.iter_mut().zip(tile.chunks_exact(cols)) {
            // SAFETY: `kernels` verified CPU support.
            *o = unsafe { (self.table.reduce_sum)(row) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_and_sum() {
        let (k, xs) = (Kernels::default(), [1.0f32, -2.0, 5.0, 3.0]);
        assert_eq!(k.reduce_max(&xs), 5.0);
        assert_eq!(k.reduce_sum(&xs), 7.0);
    }

    #[test]
    fn empty_slices() {
        assert_eq!(Kernels::default().reduce_max(&[]), f32::NEG_INFINITY);
        assert_eq!(Kernels::default().reduce_sum(&[]), 0.0);
    }

    #[test]
    fn sum_matches_naive_on_odd_lengths() {
        for n in [1usize, 3, 5, 7, 13] {
            let xs: Vec<f32> = (0..n).map(|i| i as f32 + 0.5).collect();
            let naive: f32 = xs.iter().sum();
            assert!((Kernels::default().reduce_sum(&xs) - naive).abs() < 1e-5);
        }
    }

    #[test]
    fn row_reductions() {
        let tile = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut out = [0f32; 2];
        Kernels::default().reduce_rows_max(&tile, 2, 3, &mut out);
        assert_eq!(out, [3.0, 6.0]);
        Kernels::default().reduce_rows_sum(&tile, 2, 3, &mut out);
        assert_eq!(out, [6.0, 15.0]);
    }
}
