//! The compilation pipeline: Graph IR optimization → fusion → lowering.

use crate::options::CompileOptions;
use crate::CoreError;
use gc_graph::passes::coarse_fusion::coarse_fuse;
use gc_graph::passes::constant_fold::ConstantFold;
use gc_graph::passes::constant_weight::ConstantWeight;
use gc_graph::passes::cse::CommonSubexpressionElimination;
use gc_graph::passes::dce::DeadCodeElimination;
use gc_graph::passes::decompose::Decompose;
use gc_graph::passes::low_precision::LowPrecision;
use gc_graph::passes::PassManager;
use gc_graph::{CoarseGroups, Graph, Partitioning};
use gc_lowering::{lower_partitions, LowerOptions, Lowered, SearchStats};

/// What the Graph IR stage decided (surfaced for tests, benches and the
/// ablation harness).
#[derive(Debug, Clone)]
pub struct CompileReport {
    /// Number of main-stage fused ops.
    pub partitions: usize,
    /// Number of init-stage (constant preprocessing) partitions.
    pub init_partitions: usize,
    /// Coarse-fusion groups with more than one member.
    pub merged_groups: usize,
    /// Post-ops fused across all partitions.
    pub fused_post_ops: usize,
    /// Live graph ops after optimization.
    pub graph_ops: usize,
    /// Tunable partitions in the plan whose chosen parameters tile the
    /// m or n axis raggedly (pack-time padding / edge tiles).
    pub ragged_partitions: usize,
    /// True iff lowering warm-started from a tuning-database record
    /// (measured parameter overrides).
    pub tuned: bool,
    /// Template-parameter search work of the lowering
    /// (`group_profitable`'s and `plan_tunable`'s queries).
    pub search: SearchStats,
}

/// Run the Graph IR pass pipeline in the paper's order: decompose →
/// general cleanups → low-precision conversion → constant-weight
/// preprocessing → fusion.
///
/// # Errors
///
/// Propagates pass errors (e.g. non-constant batchnorm statistics).
pub fn optimize_graph(graph: &mut Graph, opts: &CompileOptions) -> Result<(), CoreError> {
    graph.validate()?;
    let mut pm = PassManager::new();
    // Low-precision conversion must see the original quantize/dequantize
    // pattern, so constant folding (which would fold `dequantize(w)`
    // into an f32 weight) only runs afterwards.
    pm.add(Decompose)
        .add(CommonSubexpressionElimination)
        .add(DeadCodeElimination);
    if opts.low_precision {
        pm.add(LowPrecision);
    }
    pm.add(CommonSubexpressionElimination)
        .add(ConstantFold::default())
        .add(DeadCodeElimination);
    if opts.constant_weights {
        pm.add(ConstantWeight);
    }
    pm.run_to_fixpoint(graph, 8)?;
    Ok(())
}

/// Partition the optimized graph (fine-grain fusion) and group for
/// coarse-grain fusion.
///
/// # Errors
///
/// Propagates graph traversal errors.
pub fn partition_graph(
    graph: &Graph,
    opts: &CompileOptions,
) -> Result<(Partitioning, CoarseGroups), CoreError> {
    let parts = gc_graph::passes::fusion::fuse(graph, &opts.fusion)?;
    let groups = coarse_fuse(graph, &parts, opts.coarse_fusion)?;
    Ok((parts, groups))
}

/// [`lower_for`] the process-default kernel backend — the one an engine
/// built without an explicit `Kernels` handle runs on.
///
/// # Errors
///
/// Propagates lowering errors.
pub fn lower(
    graph: &Graph,
    parts: &Partitioning,
    groups: &CoarseGroups,
    opts: &CompileOptions,
) -> Result<(Lowered, CompileReport), CoreError> {
    let isa = gc_microkernel::arch::active_isa().name();
    lower_for(graph, parts, groups, opts, isa)
}

/// Lower the partitioned graph to an executable Tensor IR module for an
/// engine whose kernels run on `isa`: the tuning database is consulted
/// under that backend's [`crate::TuneKey`], never the calling thread's.
///
/// # Errors
///
/// Propagates lowering errors.
pub fn lower_for(
    graph: &Graph,
    parts: &Partitioning,
    groups: &CoarseGroups,
    opts: &CompileOptions,
    isa: &str,
) -> Result<(Lowered, CompileReport), CoreError> {
    // Tuning-database warm start: a hit supplies measured parameter
    // overrides for the choice points it recorded.
    let tuned: Option<crate::tune::TunedRecord> = match &opts.tuning {
        Some(db) => crate::tune::TuneKey::for_graph(graph, opts, isa)
            .ok()
            .and_then(|k| db.lookup(&k)),
        None => None,
    };
    let lower_opts = LowerOptions {
        machine: opts.machine.clone(),
        propagate_layouts: opts.propagate_layouts,
        shrink_tensors: opts.shrink_tensors,
        reuse_buffers: opts.reuse_buffers,
        reuse_locals: opts.reuse_locals,
        forced_post_anchor: opts.forced_post_anchor,
        forced_pack: opts.forced_pack,
        library_params: opts.library_params,
        ragged: opts.ragged,
        overrides: tuned.as_ref().map(|r| r.overrides()).unwrap_or_default(),
        param_log: opts.param_log.clone(),
    };
    let lowered = lower_partitions(graph, parts, groups, &lower_opts)?;
    let report = CompileReport {
        partitions: parts.parts.len(),
        init_partitions: parts.init_parts.len(),
        merged_groups: lowered.merged_groups,
        fused_post_ops: parts.parts.iter().map(|p| p.post_ops.len()).sum(),
        graph_ops: graph.live_ops().count(),
        ragged_partitions: lowered.ragged_partitions,
        tuned: tuned.is_some(),
        search: lowered.search,
    };
    Ok((lowered, report))
}
