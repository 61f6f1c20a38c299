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
use std::cell::Cell;

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
    /// Tunable partitions in the final plan whose chosen parameters
    /// tile some axis raggedly (pack-time padding / edge tiles). Zero
    /// when the ragged-vs-exact gate kept the divisor-only plan.
    pub ragged_partitions: usize,
    /// True iff the final plan came out of a ragged-*enabled* lowering
    /// (the divisor-only re-lowering, if the gate ran one, lost). This
    /// is the knob setting a warm start must replay to reproduce the
    /// plan — distinct from `ragged_partitions`, since a ragged-enabled
    /// lowering can happen to choose all-divisor tiles.
    pub ragged_kept: bool,
    /// True iff lowering warm-started from a tuning-database record
    /// (pinned schedule decisions, no projection gates).
    pub tuned: bool,
    /// How many times the graph was lowered (1–4): the merged-vs-split
    /// and ragged-vs-exact projection gates each lower it again to
    /// compare, and a tuned warm start skips both.
    pub lowerings: usize,
    /// Template-parameter search work summed over every lowering,
    /// including the ones the gates discarded.
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
    // overrides plus (once tuned, not during trials) the pinned
    // merged-vs-split and ragged-vs-exact decisions, so the projection
    // gates below — each of which lowers the graph a second time — are
    // skipped entirely.
    let tuned: Option<crate::tune::TunedRecord> = match &opts.tuning {
        Some(db) => crate::tune::TuneKey::for_graph(graph, opts, isa)
            .ok()
            .and_then(|k| db.lookup(&k)),
        None => None,
    };
    let overrides = tuned.as_ref().map(|r| r.overrides()).unwrap_or_default();
    // Pins only apply where the corresponding gate could run at all:
    // with the knob off, the baseline path never double-lowers, and
    // honoring a pin would produce a structurally different plan than
    // an untuned compile with the same options.
    let pin_merge = tuned
        .as_ref()
        .and_then(|r| r.merge_coarse)
        .filter(|_| opts.coarse_fusion);
    let pin_ragged = tuned
        .as_ref()
        .and_then(|r| r.ragged)
        .filter(|_| opts.ragged);

    let singletons = || gc_graph::CoarseGroups {
        groups: groups
            .groups
            .iter()
            .flat_map(|g| g.iter().map(|&pi| vec![pi]).collect::<Vec<_>>())
            .collect(),
    };

    let lowerings = Cell::new(0usize);
    let search = Cell::new(SearchStats::default());
    let lower_with = |groups: &CoarseGroups, lower_opts: &LowerOptions| {
        let lowered = lower_partitions(graph, parts, groups, lower_opts)?;
        lowerings.set(lowerings.get() + 1);
        let mut total = search.get();
        total += lowered.search;
        search.set(total);
        Ok::<Lowered, CoreError>(lowered)
    };

    // One coarse-gated lowering under a given ragged setting: lower,
    // then validate coarse-grain fusion against the performance
    // projector — if merging the loops projects slower than leaving
    // the fused ops separate (the analytic model is only a shortlist),
    // keep the unmerged lowering. A pinned decision replaces the gate
    // with a single lowering of the recorded shape.
    let lower_once = |ragged: bool| -> Result<Lowered, CoreError> {
        let lower_opts = LowerOptions {
            machine: opts.machine.clone(),
            merge_coarse_groups: opts.coarse_fusion,
            propagate_layouts: opts.propagate_layouts,
            shrink_tensors: opts.shrink_tensors,
            reuse_buffers: opts.reuse_buffers,
            reuse_locals: opts.reuse_locals,
            validate: opts.validate,
            forced_post_anchor: opts.forced_post_anchor,
            forced_pack: opts.forced_pack,
            library_params: opts.library_params,
            ragged,
            overrides: overrides.clone(),
            param_log: opts.param_log.clone(),
        };
        match pin_merge {
            Some(true) => return lower_with(groups, &lower_opts),
            Some(false) => return lower_with(&singletons(), &lower_opts),
            None => {}
        }
        let mut lowered = lower_with(groups, &lower_opts)?;
        if opts.coarse_fusion && lowered.merged_groups > 0 {
            let split = lower_with(&singletons(), &lower_opts)?;
            let merged_proj = gc_tir::sim::project(&lowered.module, &opts.machine, 1);
            let split_proj = gc_tir::sim::project(&split.module, &opts.machine, 1);
            if split_proj.cycles < merged_proj.cycles {
                lowered = split;
            }
        }
        Ok(lowered)
    };
    let (lowered, ragged_kept) = match pin_ragged {
        Some(r) => (lower_once(r)?, r),
        None => {
            let mut ragged_kept = opts.ragged;
            let mut lowered = lower_once(opts.ragged)?;
            // Ragged blocking is gated the same way as coarse fusion:
            // the heuristic's analytic model favors dense microkernel
            // tiles, but pack-time padding streams extra bytes — on
            // memory-bound shapes the exact divisor-only plan can win.
            // Re-lower with ragged off and keep whichever the projector
            // prefers.
            if opts.ragged && lowered.ragged_partitions > 0 {
                let exact = lower_once(false)?;
                let ragged_proj = gc_tir::sim::project(&lowered.module, &opts.machine, 1);
                let exact_proj = gc_tir::sim::project(&exact.module, &opts.machine, 1);
                if exact_proj.cycles < ragged_proj.cycles {
                    lowered = exact;
                    ragged_kept = false;
                }
            }
            (lowered, ragged_kept)
        }
    };
    let report = CompileReport {
        partitions: parts.parts.len(),
        init_partitions: parts.init_parts.len(),
        merged_groups: lowered.merged_groups,
        fused_post_ops: parts.parts.iter().map(|p| p.post_ops.len()).sum(),
        graph_ops: graph.live_ops().count(),
        ragged_partitions: lowered.ragged_partitions,
        ragged_kept,
        tuned: tuned.is_some(),
        lowerings: lowerings.get(),
        search: search.get(),
    };
    Ok((lowered, report))
}
