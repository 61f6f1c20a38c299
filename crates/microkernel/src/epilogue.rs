//! Int8 epilogue kernels: the compiled form of the paper's transformed
//! quantization equation, applied to a brgemm accumulator tile after the
//! k-reduction completes.
//!
//! ```text
//! C = (acc_i32 - a_z * comp[n]) * (a_s * b_s) [+ bias]  (dequantized f32)
//! out_u8 = clamp(round(C / c_s) + c_z)                  (requantized)
//! ```

use crate::arch::{Family, Kernels};

impl Kernels {
    /// Dequantize an i32 accumulator tile `[m, n]` into f32, applying
    /// the zero-point compensation `comp[n]` and the combined scale.
    ///
    /// # Panics
    ///
    /// Panics if `acc.len() != m * n`, `out.len() != m * n`, or
    /// `comp.len() != n`.
    #[allow(clippy::too_many_arguments)]
    pub fn dequant_acc(
        &self,
        acc: &[i32],
        m: usize,
        n: usize,
        comp: &[i32],
        a_zero: i32,
        scale: f32,
        out: &mut [f32],
    ) {
        assert_eq!(acc.len(), m * n);
        assert_eq!(out.len(), m * n);
        assert_eq!(comp.len(), n);
        self.record(Family::Epilogue);
        // SAFETY: extents asserted; `kernels` verified CPU support.
        // Every lane op here is elementwise-identical to the scalar
        // expression, so the result is bit-exact across backends.
        unsafe { (self.table.dequant)(acc, m, n, comp, a_zero, scale, out) };
    }

    /// Like [`Kernels::dequant_acc`] but also adds a per-column f32
    /// bias.
    ///
    /// # Panics
    ///
    /// Panics on any length mismatch.
    #[allow(clippy::too_many_arguments)]
    pub fn dequant_acc_bias(
        &self,
        acc: &[i32],
        m: usize,
        n: usize,
        comp: &[i32],
        a_zero: i32,
        scale: f32,
        bias: &[f32],
        out: &mut [f32],
    ) {
        assert_eq!(bias.len(), n);
        self.dequant_acc(acc, m, n, comp, a_zero, scale, out);
        for orow in out.chunks_exact_mut(n) {
            for (o, &b) in orow.iter_mut().zip(bias) {
                *o += b;
            }
        }
    }

    /// Requantize an f32 tile to u8 with round-to-nearest (ties away
    /// from zero) and saturation; NaN maps to the zero point. Every
    /// backend returns exactly `requant_one` of each element. Not
    /// counted: [`Family::Epilogue`] counts dequantizations.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn requant_u8(&self, xs: &[f32], inv_scale: f32, zero_point: i32, out: &mut [u8]) {
        assert_eq!(xs.len(), out.len());
        // The vector bodies add the zero point in f32, which is the
        // scalar expression only while the zero point is exact there
        // (|zp| <= 2^24; a u8 zero point is 0..=255). Anything else
        // takes the definition.
        if zero_point as f32 as i64 != zero_point as i64 {
            for (o, &x) in out.iter_mut().zip(xs) {
                *o = requant_one(x, inv_scale, zero_point);
            }
            return;
        }
        // SAFETY: lengths and zero-point exactness checked above;
        // `kernels` verified CPU support.
        unsafe { (self.table.requant_u8)(xs, inv_scale, zero_point, out) };
    }
}

/// The requantization of one element, and its definition. The add
/// saturates: a product beyond the i64 range (±inf included) must
/// saturate the u8 on its own side whatever the zero point, not wrap
/// (release) or panic (debug).
#[inline]
pub(crate) fn requant_one(x: f32, inv_scale: f32, zero_point: i32) -> u8 {
    let q = ((x * inv_scale).round() as i64).saturating_add(zero_point as i64);
    q.clamp(0, 255) as u8
}

/// Widen an i32 tile to f32.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn i32_to_f32(src: &[i32], out: &mut [f32]) {
    assert_eq!(src.len(), out.len());
    for (o, &s) in out.iter_mut().zip(src) {
        *o = s as f32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dequant_applies_compensation() {
        // acc = raw u8*i8 sums; comp corrects for a_z
        let acc = [10i32, 20, 30, 40];
        let comp = [1i32, 2];
        let mut out = [0f32; 4];
        Kernels::default().dequant_acc(&acc, 2, 2, &comp, 3, 0.5, &mut out);
        assert_eq!(
            out,
            [
                (10 - 3) as f32 * 0.5,
                (20 - 6) as f32 * 0.5,
                (30 - 3) as f32 * 0.5,
                (40 - 6) as f32 * 0.5
            ]
        );
    }

    #[test]
    fn dequant_bias_adds_columnwise() {
        let acc = [0i32; 4];
        let comp = [0i32; 2];
        let bias = [1.0f32, -1.0];
        let mut out = [0f32; 4];
        Kernels::default().dequant_acc_bias(&acc, 2, 2, &comp, 0, 1.0, &bias, &mut out);
        assert_eq!(out, [1.0, -1.0, 1.0, -1.0]);
    }

    #[test]
    fn requant_saturates_and_rounds() {
        let xs = [0.26f32, -5.0, 1e9];
        let mut out = [0u8; 3];
        Kernels::default().requant_u8(&xs, 4.0, 10, &mut out); // scale 0.25
        assert_eq!(out, [11, 0, 255]);
    }

    #[test]
    fn requant_matches_quant_module() {
        // differential check against gc-tensor's scalar quantizer semantics
        let p_scale = 0.1f32;
        let zp = 7;
        let xs: Vec<f32> = (-20..20).map(|i| i as f32 * 0.07).collect();
        let mut out = vec![0u8; xs.len()];
        Kernels::default().requant_u8(&xs, 1.0 / p_scale, zp, &mut out);
        for (&o, &x) in out.iter().zip(&xs) {
            let expect = ((x / p_scale).round() as i64 + zp as i64).clamp(0, 255) as u8;
            // multiply-by-reciprocal may differ from division by one ulp
            // exactly at rounding boundaries; allow off-by-one there.
            assert!(
                (o as i64 - expect as i64).abs() <= 1,
                "x={x} got {o} want {expect}"
            );
        }
    }

    #[test]
    fn widening() {
        let mut f = [0f32; 2];
        i32_to_f32(&[-7, 9], &mut f);
        assert_eq!(f, [-7.0, 9.0]);
    }
}
