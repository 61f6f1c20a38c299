//! Compilation options: every optimization in the paper has a switch so
//! the benchmark harness can reproduce the paper's ablations (the "middle
//! setting" of Figure 8 disables coarse-grain fusion, etc.).

use gc_graph::FusionOptions;
use gc_lowering::anchors::{PackPlacement, PostOpAnchor};
use gc_machine::MachineDescriptor;

/// Options for [`crate::Compiler`].
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Target machine model.
    pub machine: MachineDescriptor,
    /// Fine-grain fusion limits (set `.enabled = false` to disable).
    pub fusion: FusionOptions,
    /// Coarse-grain fusion (merge fused-op parallel loops).
    pub coarse_fusion: bool,
    /// Low-precision conversion (int8 legalization).
    pub low_precision: bool,
    /// Constant-weight preprocessing (init-stage marking + caching).
    pub constant_weights: bool,
    /// Keep activations blocked between chained matmuls.
    pub propagate_layouts: bool,
    /// Tensor-size optimization at the Tensor IR level.
    pub shrink_tensors: bool,
    /// Memory-buffer reuse at the Tensor IR level.
    pub reuse_buffers: bool,
    /// Function-local buffer merging at the Tensor IR level (the
    /// within-function half of memory-buffer reuse).
    pub reuse_locals: bool,
    /// Force a post-op anchor (ablation; None = cost model).
    pub forced_post_anchor: Option<PostOpAnchor>,
    /// Force the activation pack placement (ablation; None = cost
    /// model).
    pub forced_pack: Option<PackPlacement>,
    /// Use the primitives-library kernel menu instead of the compiler
    /// heuristic (the baseline runs through this).
    pub library_params: bool,
    /// Worker threads for execution (None = host parallelism).
    pub threads: Option<usize>,
    /// Checked execution: assert at runtime that every evaluated plan
    /// offset lands in-bounds (debug mode; costs address-arithmetic
    /// work per intrinsic, off by default).
    pub checked: bool,
    /// Allow ragged (non-divisor) `MB`/`NB` for blocked-weight matmuls:
    /// m/n edge tiles are zero-padded at pack time and the clamped
    /// output store drops the pad. Off = divisor-only blocking of m and
    /// n (ablation: a prime m or n degenerates to a block of 1 or the
    /// whole axis). `KB` divides k either way.
    pub ragged: bool,
    /// Measured-tuning database. When set, compilation looks up the
    /// graph's [`crate::tune::TuneKey`] and — on a hit — warm-starts
    /// lowering with the recorded parameters, skipping the analytic
    /// search at every recorded choice point. A miss compiles
    /// analytically as usual (nothing is written back; populating the
    /// database is the tuner's job).
    pub tuning: Option<std::sync::Arc<crate::tune::TuningDb>>,
    /// When set, lowering appends every template-parameter decision it
    /// makes (problem, constraints, chosen params) to this log.
    /// Observability for the tuner and tests; does not affect the
    /// compiled plan and is deliberately excluded from plan-cache
    /// fingerprints.
    pub param_log: Option<gc_lowering::ParamLog>,
}

impl CompileOptions {
    /// Full optimization for a machine.
    pub fn new(machine: MachineDescriptor) -> Self {
        CompileOptions {
            machine,
            fusion: FusionOptions::default(),
            coarse_fusion: true,
            low_precision: true,
            constant_weights: true,
            propagate_layouts: true,
            shrink_tensors: true,
            reuse_buffers: true,
            reuse_locals: true,
            forced_post_anchor: None,
            forced_pack: None,
            library_params: false,
            threads: None,
            checked: false,
            ragged: true,
            tuning: None,
            param_log: None,
        }
    }

    /// The paper's Figure-8 "middle setting": coarse-grain fusion
    /// disabled, everything else on.
    pub fn without_coarse_fusion(machine: MachineDescriptor) -> Self {
        CompileOptions {
            coarse_fusion: false,
            ..CompileOptions::new(machine)
        }
    }

    /// All fusion off (every op lowered standalone).
    pub fn unfused(machine: MachineDescriptor) -> Self {
        CompileOptions {
            fusion: FusionOptions::disabled(),
            coarse_fusion: false,
            propagate_layouts: false,
            ..CompileOptions::new(machine)
        }
    }
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions::new(MachineDescriptor::xeon_8358())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let o = CompileOptions::default();
        assert!(o.coarse_fusion && o.fusion.enabled);
        assert!(!o.checked && o.reuse_locals);
        let m = CompileOptions::without_coarse_fusion(MachineDescriptor::xeon_8358());
        assert!(!m.coarse_fusion && m.fusion.enabled);
        let u = CompileOptions::unfused(MachineDescriptor::xeon_8358());
        assert!(!u.fusion.enabled && !u.propagate_layouts);
    }
}
