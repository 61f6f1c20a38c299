//! Quantization math used by the low-precision conversion pass.
//!
//! The paper's asymmetric dynamic quantization case:
//!
//! ```text
//! C = Quantize(Dequantize(A, a_s, a_z) x Dequantize(B, b_s), c_s, c_z)
//!   = (A x_int8 B * (a_s * b_s) + (a_z * I x B * b_s)) * c_s + c_z
//! ```
//!
//! where the `a_z * I x B` term is the *compensation* over the constant
//! weight, precomputed once by constant-weight preprocessing.

/// Affine quantization parameters: `real = scale * (quant - zero_point)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Scale factor.
    pub scale: f32,
    /// Zero point (in the quantized domain).
    pub zero_point: i32,
}

impl QuantParams {
    /// Create parameters from scale and zero point.
    pub fn new(scale: f32, zero_point: i32) -> Self {
        QuantParams { scale, zero_point }
    }

    /// Symmetric parameters (zero point 0).
    pub fn symmetric(scale: f32) -> Self {
        QuantParams {
            scale,
            zero_point: 0,
        }
    }
}

impl Default for QuantParams {
    fn default() -> Self {
        QuantParams::symmetric(1.0)
    }
}

/// Dequantize one u8 activation value.
pub fn dequantize_u8(q: u8, p: QuantParams) -> f32 {
    p.scale * (q as i32 - p.zero_point) as f32
}

/// Dequantize one i8 weight value (symmetric: zero point ignored by
/// convention for weights, matching the paper's `Dequantize(B, b_s)`).
pub fn dequantize_i8(q: i8, scale: f32) -> f32 {
    scale * q as f32
}

/// Quantize one f32 value to u8 with round-to-nearest and saturation.
pub fn quantize_u8(x: f32, p: QuantParams) -> u8 {
    let q = (x / p.scale).round() as i64 + p.zero_point as i64;
    q.clamp(0, 255) as u8
}

/// Quantize one f32 value to i8 with round-to-nearest and saturation.
pub fn quantize_i8(x: f32, scale: f32) -> i8 {
    let q = (x / scale).round() as i64;
    q.clamp(-128, 127) as i8
}

/// Quantize an f32 slice into u8s.
pub fn quantize_slice_u8(xs: &[f32], p: QuantParams, out: &mut [u8]) {
    assert_eq!(xs.len(), out.len());
    for (o, &x) in out.iter_mut().zip(xs) {
        *o = quantize_u8(x, p);
    }
}

/// Dequantize a u8 slice into f32s.
pub fn dequantize_slice_u8(qs: &[u8], p: QuantParams, out: &mut [f32]) {
    assert_eq!(qs.len(), out.len());
    for (o, &q) in out.iter_mut().zip(qs) {
        *o = dequantize_u8(q, p);
    }
}

/// Per-column compensation for an i8 weight matrix `B[K, N]` in plain
/// row-major layout: `comp[n] = sum_k B[k, n]`.
///
/// The int8 matmul computes `sum_k A[m,k] * B[k,n]` with raw u8 `A`
/// values; the true product needs `(A[m,k] - a_z)`, so the corrected
/// result is `acc[m,n] - a_z * comp[n]`. Constant-weight preprocessing
/// computes `comp` once.
pub fn weight_compensation(b: &[i8], k: usize, n: usize) -> Vec<i32> {
    assert_eq!(b.len(), k * n, "weight buffer must be K*N");
    let mut comp = vec![0i32; n];
    for row in b.chunks_exact(n) {
        for (c, &v) in comp.iter_mut().zip(row) {
            *c += v as i32;
        }
    }
    comp
}

/// Apply the paper's full requantization equation to one i32 accumulator:
///
/// `out = clamp(round(((acc - a_z*comp) * a_s * b_s [+bias]) * inv(c_s)) + c_z)`
///
/// `bias` is an optional f32 bias added in the dequantized domain.
#[allow(clippy::too_many_arguments)]
pub fn requantize_acc(
    acc: i32,
    comp: i32,
    a: QuantParams,
    b_scale: f32,
    bias: f32,
    c: QuantParams,
) -> u8 {
    let corrected = acc - a.zero_point * comp;
    let real = corrected as f32 * (a.scale * b_scale) + bias;
    quantize_u8(real, c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_round_trips_within_scale() {
        let p = QuantParams::new(0.1, 128);
        for &x in &[-3.0f32, -0.05, 0.0, 0.04, 2.7] {
            let q = quantize_u8(x, p);
            let y = dequantize_u8(q, p);
            assert!((x - y).abs() <= 0.05 + 1e-6, "x={x} y={y}");
        }
    }

    #[test]
    fn quantize_saturates() {
        let p = QuantParams::new(0.1, 0);
        assert_eq!(quantize_u8(1e9, p), 255);
        assert_eq!(quantize_u8(-1e9, p), 0);
        assert_eq!(quantize_i8(1e9, 0.1), 127);
        assert_eq!(quantize_i8(-1e9, 0.1), -128);
    }

    #[test]
    fn symmetric_zero_point_is_zero() {
        let p = QuantParams::symmetric(0.5);
        assert_eq!(p.zero_point, 0);
        assert_eq!(dequantize_u8(4, p), 2.0);
    }

    #[test]
    fn compensation_is_column_sums() {
        // B[2, 3]
        let b = [1i8, 2, 3, 4, 5, 6];
        let comp = weight_compensation(&b, 2, 3);
        assert_eq!(comp, vec![5, 7, 9]);
    }

    #[test]
    fn requantize_matches_dequantized_compute() {
        // A scalar "matmul" with K=2: A=[a0,a1] u8, B=[b0,b1] i8.
        let a_p = QuantParams::new(0.2, 3);
        let b_s = 0.5f32;
        let c_p = QuantParams::new(0.25, 10);
        let a_q = [7u8, 1u8];
        let b_q = [2i8, -3i8];
        // reference: dequantize, multiply-accumulate, quantize
        let real: f32 = a_q
            .iter()
            .zip(&b_q)
            .map(|(&a, &b)| dequantize_u8(a, a_p) * dequantize_i8(b, b_s))
            .sum();
        let expected = quantize_u8(real, c_p);
        // int8 path: raw accumulate + compensation
        let acc: i32 = a_q
            .iter()
            .zip(&b_q)
            .map(|(&a, &b)| a as i32 * b as i32)
            .sum();
        let comp: i32 = b_q.iter().map(|&b| b as i32).sum();
        let got = requantize_acc(acc, comp, a_p, b_s, 0.0, c_p);
        assert_eq!(got, expected);
    }

    #[test]
    fn slice_helpers_match_scalar() {
        let p = QuantParams::new(0.1, 5);
        let xs = [0.3f32, -0.2, 1.0];
        let mut qs = [0u8; 3];
        quantize_slice_u8(&xs, p, &mut qs);
        for (q, &x) in qs.iter().zip(&xs) {
            assert_eq!(*q, quantize_u8(x, p));
        }
        let mut ys = [0f32; 3];
        dequantize_slice_u8(&qs, p, &mut ys);
        for (y, &q) in ys.iter().zip(&qs) {
            assert_eq!(*y, dequantize_u8(q, p));
        }
    }
}
