//! Reduction kernels for fused reduction post-ops (softmax's max and
//! sum, bias gradients, etc.). Slice reductions are [`Kernels`] methods
//! that run on the handle's backend; lane-width accumulators mean the
//! f32 summation order differs across backends (within the 1e-5
//! cross-ISA tolerance), but is fixed for one handle.

use crate::arch::{Family, Kernels};

/// Elementwise running maximum: `acc[i] = max(acc[i], xs[i])`.
///
/// Used for the *partial* half of a split reduction post-op (the paper's
/// two-anchor reduction: partials at anchor #1, final at #2/#3).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn accumulate_max(acc: &mut [f32], xs: &[f32]) {
    assert_eq!(acc.len(), xs.len());
    for (a, &x) in acc.iter_mut().zip(xs) {
        if x > *a {
            *a = x;
        }
    }
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

    /// Elementwise running sum: `acc[i] += xs[i]`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn accumulate_sum(&self, acc: &mut [f32], xs: &[f32]) {
        assert_eq!(acc.len(), xs.len());
        self.record(Family::Reduce);
        // SAFETY: lengths asserted equal above.
        unsafe { (self.table.acc_add)(xs, acc) };
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
    fn running_accumulators() {
        let mut mx = vec![f32::NEG_INFINITY; 3];
        accumulate_max(&mut mx, &[1.0, 5.0, -1.0]);
        accumulate_max(&mut mx, &[2.0, 3.0, -2.0]);
        assert_eq!(mx, vec![2.0, 5.0, -1.0]);
        let mut s = vec![0f32; 3];
        Kernels::default().accumulate_sum(&mut s, &[1.0, 2.0, 3.0]);
        Kernels::default().accumulate_sum(&mut s, &[1.0, 2.0, 3.0]);
        assert_eq!(s, vec![2.0, 4.0, 6.0]);
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
