//! The elementwise op vocabulary and two standalone slice kernels.
//!
//! [`UnaryOp`] and [`BinaryOp`] name the elementwise steps of a row chain
//! (`crate::chain`), the one kernel every compiled f32 elementwise op
//! runs through; [`UnaryOp::apply`] / [`BinaryOp::apply`] define them on
//! one scalar. [`Kernels::relu`] and [`Kernels::binary_add`] are plain
//! slice kernels on the handle's explicit-SIMD backend, kept as the
//! microkernel layer's streaming-bandwidth probes.

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
    /// `dst = max(src, 0)`, counted as one eltwise call.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn relu(&self, src: &[f32], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len());
        self.record(Family::Eltwise);
        // SAFETY: lengths asserted equal; `kernels` verified CPU support.
        unsafe { (self.table.relu)(src, dst) };
    }

    /// `dst = a + b` elementwise, counted as one eltwise call.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn binary_add(&self, a: &[f32], b: &[f32], dst: &mut [f32]) {
        assert_eq!(a.len(), dst.len());
        assert_eq!(b.len(), dst.len());
        self.record(Family::Eltwise);
        // SAFETY: lengths asserted equal; `kernels` verified CPU support.
        unsafe { (self.table.binary_add)(a, b, dst) };
    }
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
    fn binary_add_kernel() {
        let mut d = [0f32; 3];
        Kernels::default().binary_add(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &mut d);
        assert_eq!(d, [5.0, 7.0, 9.0]);
    }

    #[test]
    fn scalar_apply_defines_the_ops() {
        assert_eq!(UnaryOp::Neg.apply(2.0), -2.0);
        assert_eq!(UnaryOp::Identity.apply(3.0), 3.0);
        assert_eq!(BinaryOp::Div.apply(1.0, 4.0), 0.25);
        assert_eq!(BinaryOp::Max.apply(1.0, 4.0), 4.0);
    }

    #[test]
    #[should_panic]
    fn length_mismatch_panics() {
        let mut d = [0f32; 2];
        Kernels::default().relu(&[1.0, 2.0, 3.0], &mut d);
    }
}
