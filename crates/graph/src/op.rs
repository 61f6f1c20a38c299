//! Graph IR operations.
//!
//! Following the paper, OPs are classified as:
//!
//! - **Complex** — high-level framework ops (softmax, batchnorm, bias)
//!   that the decomposition pass breaks into basic ops;
//! - **Tunable** — compute-intensive ops lowered by instantiating a
//!   microkernel-based template (matmul, quantized matmul);
//! - **Fusible** — elementwise / broadcast / reduction / data-movement
//!   ops that can be fused into a Tunable OP's anchors.

use gc_tensor::{DataType, Layout, QuantParams};
use std::fmt;

/// Unary elementwise op kinds (all Fusible).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryKind {
    /// Rectified linear unit.
    Relu,
    /// GELU (tanh approximation).
    Gelu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Natural exponential.
    Exp,
    /// Square.
    Square,
    /// Negation.
    Neg,
    /// Identity / copy.
    Identity,
}

/// Binary elementwise op kinds (all Fusible; rhs broadcasts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryKind {
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

impl BinaryKind {
    /// Whether `a op b == b op a`.
    pub fn commutes(self) -> bool {
        matches!(
            self,
            BinaryKind::Add | BinaryKind::Mul | BinaryKind::Max | BinaryKind::Min
        )
    }
}

/// Reduction kinds over the last axis (keepdim), Fusible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceKind {
    /// Sum.
    Sum,
    /// Maximum.
    Max,
}

/// The paper's OP categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpCategory {
    /// Lowered via a parameterized template (compute-intensive).
    Tunable,
    /// Fusable into a Tunable OP's anchor points.
    Fusible,
    /// Must be decomposed into basic ops before optimization.
    Complex,
}

/// Operation kind, including any attributes.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    // ---- Tunable ----
    /// `C[..., M, N] = A[..., M, K] x B[..., K, N]` in f32.
    MatMul,
    /// Int8 matmul produced by low-precision conversion:
    /// u8 activations × i8 weights with fused requantization epilogue.
    QuantizedMatMul {
        /// Activation quantization parameters.
        a_params: QuantParams,
        /// Weight scale (symmetric).
        b_scale: f32,
        /// Output quantization parameters; `None` leaves f32 output.
        out_params: Option<QuantParams>,
    },

    // ---- Fusible ----
    /// Unary elementwise.
    Unary(UnaryKind),
    /// Binary elementwise; the second input broadcasts (right-aligned).
    Binary(BinaryKind),
    /// Reduction over the last axis, keeping the axis with extent 1.
    Reduce(ReduceKind),
    /// Copy into a different memory layout.
    Reorder {
        /// Destination layout.
        target: Layout,
    },
    /// Transpose of the last two axes.
    Transpose,
    /// f32 → quantized int.
    Quantize {
        /// Target type (`U8` or `I8`).
        dtype: DataType,
        /// Quantization parameters.
        params: QuantParams,
    },
    /// Quantized int → f32.
    Dequantize {
        /// Quantization parameters.
        params: QuantParams,
    },
    /// Elementwise type cast.
    TypeCast {
        /// Destination type.
        to: DataType,
    },

    // ---- Complex ----
    /// Softmax over the last axis.
    Softmax,
    /// Masked single-query attention against a KV cache (one decode
    /// step): inputs `[q [B, 1, D], k_cache [B, C, D], v_cache
    /// [B, C, D], mask [B, 1, C]]`, output `[B, 1, D]` =
    /// `softmax(q x k^T / sqrt(D) + mask) x v`. Cache slots past the
    /// session's valid length are masked with a large negative value so
    /// one capacity bucket `C` serves every position below it.
    DecodeAttention,
    /// Inference batch-norm `gamma * (x - mean) / sqrt(var + eps) + beta`,
    /// inputs: `[x, gamma, beta, mean, var]`.
    BatchNormInference {
        /// Numerical-stability epsilon.
        epsilon: f32,
    },
    /// Bias addition (row-vector add, framework-level op).
    BiasAdd,
}

impl OpKind {
    /// The paper's category of this op kind.
    pub fn category(&self) -> OpCategory {
        match self {
            OpKind::MatMul | OpKind::QuantizedMatMul { .. } => OpCategory::Tunable,
            OpKind::Unary(_)
            | OpKind::Binary(_)
            | OpKind::Reduce(_)
            | OpKind::Reorder { .. }
            | OpKind::Transpose
            | OpKind::Quantize { .. }
            | OpKind::Dequantize { .. }
            | OpKind::TypeCast { .. } => OpCategory::Fusible,
            OpKind::Softmax
            | OpKind::DecodeAttention
            | OpKind::BatchNormInference { .. }
            | OpKind::BiasAdd => OpCategory::Complex,
        }
    }

    /// Short mnemonic used by the printer.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            OpKind::MatMul => "matmul",
            OpKind::QuantizedMatMul { .. } => "qmatmul",
            OpKind::Unary(UnaryKind::Relu) => "relu",
            OpKind::Unary(UnaryKind::Gelu) => "gelu",
            OpKind::Unary(UnaryKind::Sigmoid) => "sigmoid",
            OpKind::Unary(UnaryKind::Tanh) => "tanh",
            OpKind::Unary(UnaryKind::Exp) => "exp",
            OpKind::Unary(UnaryKind::Square) => "square",
            OpKind::Unary(UnaryKind::Neg) => "neg",
            OpKind::Unary(UnaryKind::Identity) => "identity",
            OpKind::Binary(BinaryKind::Add) => "add",
            OpKind::Binary(BinaryKind::Sub) => "sub",
            OpKind::Binary(BinaryKind::Mul) => "mul",
            OpKind::Binary(BinaryKind::Div) => "div",
            OpKind::Binary(BinaryKind::Max) => "max",
            OpKind::Binary(BinaryKind::Min) => "min",
            OpKind::Reduce(ReduceKind::Sum) => "reduce_sum",
            OpKind::Reduce(ReduceKind::Max) => "reduce_max",
            OpKind::Reorder { .. } => "reorder",
            OpKind::Transpose => "transpose",
            OpKind::Quantize { .. } => "quantize",
            OpKind::Dequantize { .. } => "dequantize",
            OpKind::TypeCast { .. } => "typecast",
            OpKind::Softmax => "softmax",
            OpKind::DecodeAttention => "decode_attention",
            OpKind::BatchNormInference { .. } => "batchnorm",
            OpKind::BiasAdd => "bias_add",
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Execution stage of an op after constant-weight preprocessing: ops in
/// the `Init` stage run once, on first execution, over runtime constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Stage {
    /// Runs on every execution.
    #[default]
    Main,
    /// Runs only on the first execution (constant preprocessing).
    Init,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories() {
        assert_eq!(OpKind::MatMul.category(), OpCategory::Tunable);
        assert_eq!(
            OpKind::Unary(UnaryKind::Relu).category(),
            OpCategory::Fusible
        );
        assert_eq!(OpKind::Softmax.category(), OpCategory::Complex);
        assert_eq!(OpKind::BiasAdd.category(), OpCategory::Complex);
        assert_eq!(
            OpKind::Reorder {
                target: Layout::Plain
            }
            .category(),
            OpCategory::Fusible
        );
    }

    #[test]
    fn mnemonics_are_distinct_for_common_ops() {
        let kinds = [
            OpKind::MatMul,
            OpKind::Unary(UnaryKind::Relu),
            OpKind::Binary(BinaryKind::Add),
            OpKind::Reduce(ReduceKind::Sum),
            OpKind::Softmax,
        ];
        let mut seen = std::collections::HashSet::new();
        for k in &kinds {
            assert!(seen.insert(k.mnemonic()));
        }
    }

    #[test]
    fn default_stage_is_main() {
        assert_eq!(Stage::default(), Stage::Main);
    }
}
