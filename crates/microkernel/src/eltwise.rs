//! Vectorized elementwise kernels.
//!
//! Fusible OPs lowered into a template anchor become loops whose
//! innermost dimension is executed by one of these slice kernels — the
//! reproduction's stand-in for the vectorized code the JIT emits. The
//! hottest kernels (relu, exp, add, mul, accumulate) are [`Kernels`]
//! methods that run, and are counted, on the handle's explicit-SIMD
//! backend; the rest are scalar loops LLVM autovectorizes, the same on
//! every handle. The vector `exp` is a polynomial within 2 ulp of
//! [`UnaryOp::apply`]'s libm `expf`, not bit-identical to it.

use crate::arch::{Family, Kernels};

/// Unary elementwise operations available to fused post-ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// `max(x, 0)`
    Relu,
    /// GELU, tanh approximation.
    Gelu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Natural exponential.
    Exp,
    /// Square `x * x`.
    Square,
    /// Negation.
    Neg,
    /// Identity (copy).
    Identity,
}

impl UnaryOp {
    /// Apply to one scalar.
    pub fn apply(self, x: f32) -> f32 {
        match self {
            UnaryOp::Relu => x.max(0.0),
            UnaryOp::Gelu => gelu_scalar(x),
            UnaryOp::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            UnaryOp::Tanh => x.tanh(),
            UnaryOp::Exp => x.exp(),
            UnaryOp::Square => x * x,
            UnaryOp::Neg => -x,
            UnaryOp::Identity => x,
        }
    }
}

#[inline]
fn gelu_scalar(x: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + 0.044_715 * x * x * x)).tanh())
}

/// Binary elementwise operations available to fused post-ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Maximum.
    Max,
    /// Minimum.
    Min,
}

impl BinaryOp {
    /// Apply to two scalars.
    pub fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mul => a * b,
            BinaryOp::Div => a / b,
            BinaryOp::Max => a.max(b),
            BinaryOp::Min => a.min(b),
        }
    }
}

impl Kernels {
    /// Apply a unary op over `src` into `dst`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn unary(&self, op: UnaryOp, src: &[f32], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len());
        match op {
            // Relu is the hottest post-op: explicit SIMD.
            UnaryOp::Relu => {
                self.record(Family::Eltwise);
                // SAFETY: lengths asserted equal; `kernels` verified
                // CPU support.
                unsafe { (self.table.relu)(src, dst) };
            }
            UnaryOp::Exp => {
                self.record(Family::Eltwise);
                // SAFETY: lengths asserted equal; `kernels` verified CPU
                // support.
                unsafe { (self.table.exp)(src.as_ptr(), dst.as_mut_ptr(), dst.len()) };
            }
            UnaryOp::Identity => dst.copy_from_slice(src),
            UnaryOp::Square => {
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d = s * s;
                }
            }
            UnaryOp::Neg => {
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d = -s;
                }
            }
            _ => {
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d = op.apply(s);
                }
            }
        }
    }

    /// Apply a unary op in place.
    pub fn unary_inplace(&self, op: UnaryOp, buf: &mut [f32]) {
        match op {
            UnaryOp::Relu => {
                self.record(Family::Eltwise);
                // SAFETY: `kernels` verified CPU support.
                unsafe { (self.table.relu_inplace)(buf) };
            }
            UnaryOp::Exp => {
                self.record(Family::Eltwise);
                // SAFETY: `kernels` verified CPU support; the body allows
                // `src == dst`.
                unsafe { (self.table.exp)(buf.as_ptr(), buf.as_mut_ptr(), buf.len()) };
            }
            UnaryOp::Identity => {}
            _ => {
                for x in buf.iter_mut() {
                    *x = op.apply(*x);
                }
            }
        }
    }

    /// `dst = max(src, 0)`: [`Kernels::unary`] with [`UnaryOp::Relu`].
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn relu(&self, src: &[f32], dst: &mut [f32]) {
        self.unary(UnaryOp::Relu, src, dst);
    }

    /// Apply a binary op elementwise: `dst[i] = op(a[i], b[i])`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn binary(&self, op: BinaryOp, a: &[f32], b: &[f32], dst: &mut [f32]) {
        assert_eq!(a.len(), dst.len());
        assert_eq!(b.len(), dst.len());
        // Add and Mul dominate fused binary post-ops: explicit SIMD.
        let kernel = match op {
            BinaryOp::Add => self.table.binary_add,
            BinaryOp::Mul => self.table.binary_mul,
            _ => {
                for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                    *d = op.apply(x, y);
                }
                return;
            }
        };
        self.record(Family::Eltwise);
        // SAFETY: lengths asserted equal above.
        unsafe { kernel(a, b, dst) };
    }

    /// `dst = a + b` elementwise: [`Kernels::binary`] with
    /// [`BinaryOp::Add`].
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn binary_add(&self, a: &[f32], b: &[f32], dst: &mut [f32]) {
        self.binary(BinaryOp::Add, a, b, dst);
    }
}

/// `dst[i] = op(a[i], scalar)` — binary with a broadcast scalar rhs.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn binary_scalar(op: BinaryOp, a: &[f32], scalar: f32, dst: &mut [f32]) {
    assert_eq!(a.len(), dst.len());
    match op {
        BinaryOp::Add => {
            for (d, &x) in dst.iter_mut().zip(a) {
                *d = x + scalar;
            }
        }
        BinaryOp::Mul => {
            for (d, &x) in dst.iter_mut().zip(a) {
                *d = x * scalar;
            }
        }
        BinaryOp::Div => {
            let inv = 1.0 / scalar;
            for (d, &x) in dst.iter_mut().zip(a) {
                *d = x * inv;
            }
        }
        _ => {
            for (d, &x) in dst.iter_mut().zip(a) {
                *d = op.apply(x, scalar);
            }
        }
    }
}

/// Zero a buffer (the template's `C' = 0`).
pub fn zero(buf: &mut [f32]) {
    buf.fill(0.0);
}

/// Zero an i32 accumulator buffer.
pub fn zero_i32(buf: &mut [i32]) {
    buf.fill(0);
}

/// Copy `src` into `dst`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn copy(src: &[f32], dst: &mut [f32]) {
    dst.copy_from_slice(src);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_kernel() {
        let src = [-1.0f32, 2.0, -3.0, 4.0];
        let mut dst = [0f32; 4];
        Kernels::default().relu(&src, &mut dst);
        assert_eq!(dst, [0.0, 2.0, 0.0, 4.0]);
    }

    #[test]
    fn unary_matches_scalar_apply() {
        let src: Vec<f32> = (-8..8).map(|i| i as f32 * 0.3).collect();
        for op in [
            UnaryOp::Relu,
            UnaryOp::Gelu,
            UnaryOp::Sigmoid,
            UnaryOp::Tanh,
            UnaryOp::Exp,
            UnaryOp::Square,
            UnaryOp::Neg,
            UnaryOp::Identity,
        ] {
            let mut dst = vec![0f32; src.len()];
            Kernels::default().unary(op, &src, &mut dst);
            for (d, &s) in dst.iter().zip(&src) {
                // the vector exp is within 2 ulp of libm's
                let ulps = (d.to_bits() as i64 - op.apply(s).to_bits() as i64).abs();
                assert!(ulps <= if op == UnaryOp::Exp { 2 } else { 0 }, "{op:?}");
            }
        }
    }

    #[test]
    fn unary_inplace_matches_out_of_place() {
        let src: Vec<f32> = (-5..5).map(|i| i as f32).collect();
        for op in [UnaryOp::Relu, UnaryOp::Exp, UnaryOp::Identity] {
            let mut a = src.clone();
            Kernels::default().unary_inplace(op, &mut a);
            let mut b = vec![0f32; src.len()];
            Kernels::default().unary(op, &src, &mut b);
            assert_eq!(a, b, "{op:?}");
        }
    }

    #[test]
    fn binary_kernels() {
        let a = [1.0f32, 2.0, 3.0];
        let b = [4.0f32, 5.0, 6.0];
        let mut d = [0f32; 3];
        let k = Kernels::default();
        k.binary_add(&a, &b, &mut d);
        assert_eq!(d, [5.0, 7.0, 9.0]);
        k.binary(BinaryOp::Div, &a, &b, &mut d);
        assert_eq!(d, [0.25, 0.4, 0.5]);
        k.binary(BinaryOp::Max, &a, &b, &mut d);
        assert_eq!(d, [4.0, 5.0, 6.0]);
    }

    #[test]
    fn binary_scalar_div_uses_reciprocal_consistently() {
        let a = [2.0f32, 4.0];
        let mut d = [0f32; 2];
        binary_scalar(BinaryOp::Div, &a, 2.0, &mut d);
        assert_eq!(d, [1.0, 2.0]);
        binary_scalar(BinaryOp::Sub, &a, 1.0, &mut d);
        assert_eq!(d, [1.0, 3.0]);
    }

    #[test]
    fn zero_and_copy() {
        let mut buf = [1.0f32, 2.0];
        zero(&mut buf);
        assert_eq!(buf, [0.0, 0.0]);
        copy(&[3.0, 4.0], &mut buf);
        assert_eq!(buf, [3.0, 4.0]);
        let mut acc = [5i32, 6];
        zero_i32(&mut acc);
        assert_eq!(acc, [0, 0]);
    }

    #[test]
    #[should_panic]
    fn length_mismatch_panics() {
        let mut d = [0f32; 2];
        Kernels::default().unary(UnaryOp::Relu, &[1.0, 2.0, 3.0], &mut d);
    }
}
