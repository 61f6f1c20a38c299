//! Template-based lowering for the oneDNN Graph Compiler reproduction.
//!
//! This crate turns a partitioned Graph IR into an executable Tensor IR
//! module, following the paper's approach of *expert templates plus
//! heuristics* rather than general loop transformation:
//!
//! - [`params`] / [`heuristic`] — the Figure-2 template parameters
//!   (`MPN/NPN/MB/NB/KB/BS`) and the cost-model search that picks them;
//! - [`anchors`] — the Figure-3 anchor cost table driving where fused
//!   pre-ops and post-ops commit;
//! - [`template`] — the matmul template itself: multi-core / single-core
//!   kernel loops around the batch-reduce GEMM microkernel, with fused
//!   pack pre-ops, int8 epilogue, staged post-ops with split reductions,
//!   and layout-aware output writes;
//! - [`standalone`] — unfused Fusible-OP lowering (also used for the
//!   constant-weight init functions);
//! - [`lower_graph`] — the driver: layout negotiation between chained
//!   matmuls, synthesized weight-prepack / compensation init functions,
//!   coarse-group function merging.

#![warn(missing_docs)]

pub mod anchors;
pub mod heuristic;
pub mod lower_graph;
pub mod params;
pub mod standalone;
pub mod template;

pub use heuristic::{
    choose_params, choose_params_ranked, Constraints, ParamChoice, ParamLog, ParamOverrides,
    SearchStats,
};
pub use lower_graph::{lower_partitions, LowerError, LowerOptions, Lowered};
pub use params::{MatmulParams, MatmulProblem};
pub use template::{lower_matmul, LoweredMatmul, MatmulSpec, PostOpSpec};

/// Largest divisor of `dim` that is at most `cap` (at least 1).
pub fn largest_divisor_at_most(dim: usize, cap: usize) -> usize {
    (1..=cap.min(dim))
        .rev()
        .find(|d| dim.is_multiple_of(*d))
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    #[test]
    fn largest_divisor() {
        assert_eq!(super::largest_divisor_at_most(512, 32), 32);
        assert_eq!(super::largest_divisor_at_most(479, 64), 1);
        assert_eq!(super::largest_divisor_at_most(48, 32), 24);
        assert_eq!(super::largest_divisor_at_most(5, 10), 5);
    }
}
