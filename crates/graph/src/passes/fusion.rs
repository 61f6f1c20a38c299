//! Fine-grain fusion: group a Tunable OP with adjacent Fusible OPs into
//! a Fused OP.
//!
//! "The fine-grain fusion optimization grows a sequence of post-ops
//! using a simple heuristic to decide whether the fusion is profitable.
//! [...] The heuristic simply sets a limit of operations [...] the
//! heuristic fusion optimization also monitors the total additional
//! memory being accessed."
//!
//! The result is a [`Partitioning`]: every live Main-stage op belongs to
//! exactly one [`FusedOp`]; Init-stage ops (constant-weight
//! preprocessing) form their own single-op partitions executed once.

use crate::error::{GraphError, Result};
use crate::graph::{Graph, LtId, Op, OpId, Property};
use crate::op::{OpCategory, OpKind, Stage};
use gc_tensor::DataType;
use std::collections::{HashMap, HashSet};

/// Most side inputs (non-chain operands, scalar constants included) a
/// post-op chain may read. Every fused chain lowers to one fixed
/// row-chain program (`gc_microkernel::RowChain`), which has room for
/// two.
pub const MAX_CHAIN_SIDE_INPUTS: usize = 2;
/// Most ops a post-op chain may hold (the row-chain program's step
/// capacity).
pub const MAX_CHAIN_OPS: usize = 12;

/// Limits for the fine-grain fusion heuristic.
#[derive(Debug, Clone, Copy)]
pub struct FusionOptions {
    /// Master switch; disabled leaves every op standalone.
    pub enabled: bool,
    /// Maximum fused post-ops per Tunable OP.
    pub max_post_ops: usize,
    /// Maximum reorder ops in the post-op sequence.
    pub max_reorders: usize,
    /// Maximum reduction ops in the post-op sequence (softmax needs 2:
    /// max and sum).
    pub max_reductions: usize,
    /// Cap on extra memory touched by post-op side operands, to bound
    /// interference with the Tunable OP's cache behaviour.
    pub max_extra_operand_bytes: usize,
}

impl Default for FusionOptions {
    fn default() -> Self {
        FusionOptions {
            enabled: true,
            max_post_ops: 12,
            max_reorders: 1,
            max_reductions: 2,
            max_extra_operand_bytes: 8 << 20,
        }
    }
}

impl FusionOptions {
    /// Options with fusion switched off entirely.
    pub fn disabled() -> Self {
        FusionOptions {
            enabled: false,
            ..FusionOptions::default()
        }
    }
}

/// A group of ops lowered together through one template instantiation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusedOp {
    /// The Tunable op anchoring the group, if any.
    pub tunable: Option<OpId>,
    /// Data-movement ops fused before the microkernel (pre-ops).
    pub pre_ops: Vec<OpId>,
    /// Fusible ops fused after the k-reduction (post-ops), topo-sorted.
    pub post_ops: Vec<OpId>,
    /// Execution stage.
    pub stage: Stage,
}

impl FusedOp {
    /// All member ops in execution order.
    pub fn ops(&self) -> Vec<OpId> {
        let mut v = self.pre_ops.clone();
        v.extend(self.tunable);
        v.extend(self.post_ops.iter().copied());
        v
    }

    /// The unique escaping output tensor of the group.
    ///
    /// # Panics
    ///
    /// Panics if the group does not have exactly one escaping tensor
    /// (the fusion algorithm guarantees it does).
    pub fn output(&self, g: &Graph) -> LtId {
        let escapes = escaping_tensors(g, &self.ops());
        assert_eq!(
            escapes.len(),
            1,
            "fused op must have exactly one escaping tensor"
        );
        escapes[0]
    }

    /// External input tensors (read but not produced by the group).
    pub fn external_inputs(&self, g: &Graph) -> Vec<LtId> {
        let ops = self.ops();
        let produced: HashSet<LtId> = ops
            .iter()
            .flat_map(|&id| g.op(id).outputs.iter().copied())
            .collect();
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for &id in &ops {
            for &i in &g.op(id).inputs {
                if !produced.contains(&i) && seen.insert(i) {
                    out.push(i);
                }
            }
        }
        out
    }
}

/// Tensors produced inside `ops` that are consumed outside or are graph
/// outputs.
fn escaping_tensors(g: &Graph, ops: &[OpId]) -> Vec<LtId> {
    let in_part: HashSet<OpId> = ops.iter().copied().collect();
    let mut escapes = Vec::new();
    for &id in ops {
        for &o in &g.op(id).outputs {
            let outside = g.consumers(o).iter().any(|c| !in_part.contains(c));
            if outside || g.outputs().contains(&o) {
                escapes.push(o);
            }
        }
    }
    escapes
}

/// The partitioning of a graph into fused ops.
#[derive(Debug, Clone, Default)]
pub struct Partitioning {
    /// Init-stage partitions (constant preprocessing, run once), in
    /// topological order.
    pub init_parts: Vec<FusedOp>,
    /// Main-stage partitions in topological (execution) order.
    pub parts: Vec<FusedOp>,
}

impl Partitioning {
    /// Index of the main partition containing `op`, if any.
    pub fn part_of(&self, op: OpId) -> Option<usize> {
        self.parts.iter().position(|p| p.ops().contains(&op))
    }
}

/// Whether `target` is reachable from any op in `from` by following
/// consumer edges.
fn reaches(g: &Graph, from: &HashSet<OpId>, target: OpId) -> bool {
    let mut stack: Vec<OpId> = from.iter().copied().collect();
    let mut seen: HashSet<OpId> = from.clone();
    while let Some(id) = stack.pop() {
        if id == target {
            return true;
        }
        for &o in &g.op(id).outputs {
            for c in g.consumers(o) {
                if seen.insert(c) {
                    stack.push(c);
                }
            }
        }
    }
    false
}

/// Run fine-grain fusion and return the partitioning.
///
/// # Errors
///
/// Returns an error if the graph is invalid (cycles, unknown ids).
pub fn fuse(g: &Graph, opts: &FusionOptions) -> Result<Partitioning> {
    let order = g.topo_order()?;
    let mut assigned: HashSet<OpId> = HashSet::new();
    let mut parts = Vec::new();
    let mut init_parts = Vec::new();

    // Init-stage ops: one partition each, in topo order.
    for &id in &order {
        if g.op(id).stage == Stage::Init {
            assigned.insert(id);
            init_parts.push(FusedOp {
                tunable: None,
                pre_ops: vec![id],
                post_ops: vec![],
                stage: Stage::Init,
            });
        }
    }

    if opts.enabled {
        for &id in &order {
            if assigned.contains(&id) || g.op(id).kind.category() != OpCategory::Tunable {
                continue;
            }
            let part = grow_partition(g, id, &assigned, opts)?;
            assigned.extend(part.ops());
            parts.push(part);
        }
    } else {
        for &id in &order {
            if assigned.contains(&id) || g.op(id).kind.category() != OpCategory::Tunable {
                continue;
            }
            assigned.insert(id);
            parts.push(FusedOp {
                tunable: Some(id),
                pre_ops: vec![],
                post_ops: vec![],
                stage: Stage::Main,
            });
        }
    }

    // A row reduction nothing absorbed anchors a standalone reducing
    // chain (an unfused softmax), lowered as one row-chain primitive.
    if opts.enabled {
        for &id in &order {
            if assigned.contains(&id) || !matches!(g.op(id).kind, OpKind::Reduce(_)) {
                continue;
            }
            if let Some(part) = grow_row_chain(g, id, &order, &assigned) {
                assigned.extend(part.ops());
                parts.push(part);
            }
        }
    }

    // Remaining Main-stage ops: standalone partitions.
    for &id in &order {
        if !assigned.contains(&id) {
            assigned.insert(id);
            parts.push(FusedOp {
                tunable: None,
                pre_ops: vec![],
                post_ops: vec![id],
                stage: Stage::Main,
            });
        }
    }

    // Order main partitions by their *data dependencies*: a partition
    // may absorb a post-op whose side operand is produced by a textually
    // later partition (e.g. add(matmul1, matmul2)), so sorting by op
    // index is not enough.
    let produced_by: HashMap<LtId, usize> = parts
        .iter()
        .enumerate()
        .flat_map(|(pi, p)| {
            p.ops()
                .into_iter()
                .flat_map(|o| g.op(o).outputs.clone())
                .map(move |t| (t, pi))
        })
        .collect();
    let n = parts.len();
    let mut indegree = vec![0usize; n];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (pi, p) in parts.iter().enumerate() {
        for inp in p.external_inputs(g) {
            if let Some(&src) = produced_by.get(&inp) {
                if src != pi {
                    indegree[pi] += 1;
                    dependents[src].push(pi);
                }
            }
        }
    }
    // Kahn's algorithm, preferring lower original index for stability.
    let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
        .filter(|&i| indegree[i] == 0)
        .map(std::cmp::Reverse)
        .collect();
    let mut order_idx = Vec::with_capacity(n);
    while let Some(std::cmp::Reverse(i)) = ready.pop() {
        order_idx.push(i);
        for &d in &dependents[i] {
            indegree[d] -= 1;
            if indegree[d] == 0 {
                ready.push(std::cmp::Reverse(d));
            }
        }
    }
    if order_idx.len() != n {
        return Err(GraphError::Pass {
            pass: "fusion".to_string(),
            message: "partition dependency cycle".to_string(),
        });
    }
    let mut slots: Vec<Option<FusedOp>> = parts.into_iter().map(Some).collect();
    let parts: Vec<FusedOp> = order_idx
        .into_iter()
        .map(|i| slots[i].take().expect("each partition placed once"))
        .collect();
    let _ = order;

    Ok(Partitioning { init_parts, parts })
}

fn grow_partition(
    g: &Graph,
    tunable: OpId,
    globally_assigned: &HashSet<OpId>,
    opts: &FusionOptions,
) -> Result<Partitioning1> {
    let mut in_part: HashSet<OpId> = HashSet::new();
    in_part.insert(tunable);

    // ---- pre-ops: immediate data-movement producers of the tunable's
    // inputs, single-consumer, Main stage.
    let mut pre_ops = Vec::new();
    for &inp in &g.op(tunable).inputs {
        if let Some(p) = g.producer(inp) {
            let pop = g.op(p);
            let movement = matches!(pop.kind, OpKind::Reorder { .. } | OpKind::Transpose);
            if movement
                && pop.stage == Stage::Main
                && !globally_assigned.contains(&p)
                && g.consumers(inp).len() == 1
                && !g.outputs().contains(&inp)
            {
                pre_ops.push(p);
                in_part.insert(p);
            }
        }
    }

    // ---- post-ops: greedy, one row chain from the tunable's output.
    let anchor = g.op(tunable).outputs[0];
    let mut post_ops: Vec<OpId> = Vec::new();
    let mut current = anchor;
    let mut stat: Option<LtId> = None;
    let mut n_reorders = 0usize;
    let mut n_reductions = 0usize;
    let mut n_side = 0usize;
    let mut extra_bytes = 0usize;
    let order = g.topo_order()?;

    'grow: loop {
        for &cand in &order {
            if in_part.contains(&cand) || globally_assigned.contains(&cand) {
                continue;
            }
            let op = g.op(cand);
            if op.stage != Stage::Main {
                continue;
            }
            // it must extend the chain: read the running value
            let Some(side) = chain_side(op, current) else {
                continue;
            };
            // limits
            if post_ops.len() + 1 > opts.max_post_ops {
                break 'grow;
            }
            let is_reorder = matches!(op.kind, OpKind::Reorder { .. });
            let is_reduction = matches!(op.kind, OpKind::Reduce(_));
            if is_reorder && n_reorders + 1 > opts.max_reorders {
                continue;
            }
            if is_reduction && n_reductions + 1 > opts.max_reductions {
                continue;
            }
            // a side input other than the latest row stat must exist
            // before this fused op runs (its producer must not depend on
            // us) and broadcast onto the chain the way a row chain reads
            let mut cand_extra = 0usize;
            let mut cand_side = 0usize;
            if let Some(rhs) = side.filter(|&rhs| Some(rhs) != stat) {
                let late = g.producer(rhs).is_some_and(|p| reaches(g, &in_part, p));
                if late || side_shape(g, anchor, rhs).is_none() {
                    continue;
                }
                cand_side = 1;
                if g.tensor(rhs).property != Property::Constant {
                    cand_extra = g.desc(rhs).size_bytes();
                }
            }
            if extra_bytes + cand_extra > opts.max_extra_operand_bytes {
                continue;
            }
            // the chain must fit one row-chain program
            if n_side + cand_side > MAX_CHAIN_SIDE_INPUTS || post_ops.len() + 1 > MAX_CHAIN_OPS {
                continue;
            }
            // absorb
            in_part.insert(cand);
            post_ops.push(cand);
            if is_reduction {
                stat = Some(op.outputs[0]);
            } else {
                current = op.outputs[0];
            }
            n_reorders += usize::from(is_reorder);
            n_reductions += usize::from(is_reduction);
            n_side += cand_side;
            extra_bytes += cand_extra;
            continue 'grow;
        }
        break;
    }

    // ---- enforce the single-escape invariant by rolling back.
    loop {
        let mut all_ops = pre_ops.clone();
        all_ops.push(tunable);
        all_ops.extend(post_ops.iter().copied());
        let escapes = escaping_tensors(g, &all_ops);
        if escapes.len() <= 1 {
            break;
        }
        let dropped = post_ops.pop().ok_or_else(|| GraphError::Pass {
            pass: "fusion".to_string(),
            message: "tunable op with multiple escaping outputs".to_string(),
        })?;
        in_part.remove(&dropped);
    }

    Ok(FusedOp {
        tunable: Some(tunable),
        pre_ops,
        post_ops,
        stage: Stage::Main,
    })
}

/// The standalone reducing chain seeded at row reduction `seed`: from
/// the reduction's input (the anchor), the ops that each extend the
/// chain ([`chain_side`]) — unaries and binaries (whose other input is a
/// side operand of a [`side_shape`] or the latest reduction's stat)
/// update its running value, reductions read it — within the
/// [`MAX_CHAIN_OPS`] / [`MAX_CHAIN_SIDE_INPUTS`] budget, trimmed from the
/// end until the running value is the group's only escaping tensor.
/// `None` when no such chain exists (the reduction's stat itself
/// escapes, say).
fn grow_row_chain(
    g: &Graph,
    seed: OpId,
    order: &[OpId],
    assigned: &HashSet<OpId>,
) -> Option<FusedOp> {
    let anchor = g.op(seed).inputs[0];
    let a = g.desc(anchor);
    if a.dtype() != DataType::F32 || !a.layout().is_plain() {
        return None;
    }
    let start = order.iter().position(|&id| id == seed)?;
    let mut ops: Vec<OpId> = Vec::new();
    let mut current = anchor;
    let mut stat: Option<LtId> = None;
    let mut n_side = 0usize;
    for &id in &order[start..] {
        let op = g.op(id);
        if assigned.contains(&id) || op.stage != Stage::Main || ops.len() == MAX_CHAIN_OPS {
            continue;
        }
        let side = match (&op.kind, chain_side(op, current)) {
            (OpKind::Reduce(_) | OpKind::Unary(_) | OpKind::Binary(_), Some(side)) => side,
            _ => continue,
        };
        if let Some(rhs) = side.filter(|&rhs| Some(rhs) != stat) {
            // a side operand must exist before the chain runs
            let chain: HashSet<OpId> = ops.iter().copied().collect();
            let late = g.producer(rhs).is_some_and(|p| reaches(g, &chain, p));
            if rhs == anchor
                || late
                || n_side == MAX_CHAIN_SIDE_INPUTS
                || side_shape(g, anchor, rhs).is_none()
            {
                continue;
            }
            n_side += 1;
        }
        if matches!(op.kind, OpKind::Reduce(_)) {
            stat = Some(op.outputs[0]);
        } else {
            current = op.outputs[0];
        }
        ops.push(id);
    }
    // trim until the running value alone escapes
    while !ops.is_empty() {
        let value = ops
            .iter()
            .rev()
            .map(|&id| g.op(id))
            .find(|op| !matches!(op.kind, OpKind::Reduce(_)))
            .map(|op| op.outputs[0]);
        if value.is_some_and(|v| escaping_tensors(g, &ops) == [v]) {
            break;
        }
        ops.pop();
    }
    let reduces = ops
        .iter()
        .any(|&id| matches!(g.op(id).kind, OpKind::Reduce(_)));
    reduces.then(|| FusedOp {
        tunable: None,
        pre_ops: vec![],
        post_ops: ops,
        stage: Stage::Main,
    })
}

/// The side input `op` reads when it extends a row chain whose running
/// value is `value`: `Some(None)` for an op that reads the value alone
/// (a unary, a row reduction, a u8 quantize, a reorder to plain),
/// `Some(Some(rhs))` for a binary that takes the value as its lhs — or as
/// its rhs when the operation commutes — and `None` for an op a row chain
/// cannot run at this point.
pub fn chain_side(op: &Op, value: LtId) -> Option<Option<LtId>> {
    let reads_value = op.inputs.first() == Some(&value);
    match op.kind {
        OpKind::Binary(_) if reads_value => Some(Some(op.inputs[1])),
        OpKind::Binary(b) if op.inputs[1] == value && b.commutes() => Some(Some(op.inputs[0])),
        OpKind::Unary(_) | OpKind::Reduce(_) if reads_value => Some(None),
        OpKind::Quantize {
            dtype: DataType::U8,
            ..
        } if reads_value => Some(None),
        OpKind::Reorder { ref target } if reads_value && target.is_plain() => Some(None),
        _ => None,
    }
}

/// How a binary's side operand broadcasts onto a row chain's anchor
/// `[lead.., M, N]` — see [`side_shape`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SideShape {
    /// A compile-time f32 scalar (any volume-1 constant), a constant of
    /// the program.
    Scalar(f32),
    /// One value per column: `[N]` (leading 1s allowed) or, with
    /// `batch_indexed`, one such row per leading index, `[lead.., 1, N]`.
    RowVec {
        /// The operand carries the anchor's leading dims.
        batch_indexed: bool,
    },
    /// The anchor's shape.
    Full,
    /// One value per row, `[lead.., M, 1]` (keepdim row stats).
    ColVec,
}

/// The one rule that classifies `rhs` as a side operand of a row chain
/// over `anchor`, by right-aligned shape (leading 1s ignored), checked in
/// this order: a constant scalar, a row vector, a batch-indexed row
/// vector, the anchor's shape, a column vector. `None` for any other
/// broadcast (`[M, N]` over a batch, say), a non-f32 operand, or a
/// non-plain layout — fusion leaves such a binary unfused, and lowering
/// refuses it.
pub fn side_shape(g: &Graph, anchor: LtId, rhs: LtId) -> Option<SideShape> {
    let (a, r) = (g.desc(anchor), g.desc(rhs));
    if r.dtype() != DataType::F32 {
        return None;
    }
    if r.volume() == 1 {
        if let Some(v) = g.const_value(rhs) {
            return Some(SideShape::Scalar(v.f32_slice().ok()?[0]));
        }
    }
    if !a.layout().is_plain() || !r.layout().is_plain() {
        return None;
    }
    // both shapes as [lead.., m, n], the operand's padded to the
    // anchor's rank with leading 1s
    let strip = |s: &[usize]| -> Vec<usize> { s.iter().copied().skip_while(|&d| d == 1).collect() };
    let (sa, sr) = (strip(a.shape()), strip(r.shape()));
    let rank = sa.len().max(sr.len()).max(2);
    let pad = |s: Vec<usize>| -> Vec<usize> {
        let mut p = vec![1; rank - s.len()];
        p.extend(s);
        p
    };
    let (sa, sr) = (pad(sa), pad(sr));
    let (lead, m, n) = (&sa[..rank - 2], sa[rank - 2], sa[rank - 1]);
    let (r_lead, r_m, r_n) = (&sr[..rank - 2], sr[rank - 2], sr[rank - 1]);
    let ones = |s: &[usize]| s.iter().all(|&d| d == 1);
    if r_n == n && r_m == 1 && ones(r_lead) {
        Some(SideShape::RowVec {
            batch_indexed: false,
        })
    } else if r_n == n && r_m == 1 && r_lead == lead {
        Some(SideShape::RowVec {
            batch_indexed: true,
        })
    } else if sr == sa {
        Some(SideShape::Full)
    } else if r_n == 1 && r_m == m && r_lead == lead {
        Some(SideShape::ColVec)
    } else {
        None
    }
}

// `grow_partition` returns a FusedOp; alias kept for readability above.
type Partitioning1 = FusedOp;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{BinaryKind, UnaryKind};
    use crate::passes::decompose::Decompose;
    use crate::passes::Pass;
    use gc_tensor::{DataType, Tensor, TensorDesc};

    fn mlp_graph() -> (Graph, LtId) {
        let mut g = Graph::new();
        let x = g.add_input(TensorDesc::new([32, 64], DataType::F32), "x");
        let w = g.add_constant(Tensor::random(&[64, 32], DataType::F32, 1), "w");
        let b = g.add_constant(Tensor::random(&[32], DataType::F32, 2), "b");
        let mm = g.add_op(OpKind::MatMul, &[x, w]).unwrap();
        let add = g.add_op(OpKind::Binary(BinaryKind::Add), &[mm, b]).unwrap();
        let relu = g.add_op(OpKind::Unary(UnaryKind::Relu), &[add]).unwrap();
        g.mark_output(relu);
        (g, relu)
    }

    #[test]
    fn fuses_matmul_bias_relu() {
        let (g, out) = mlp_graph();
        let parts = fuse(&g, &FusionOptions::default()).unwrap();
        assert_eq!(parts.parts.len(), 1);
        let p = &parts.parts[0];
        assert!(p.tunable.is_some());
        assert_eq!(p.post_ops.len(), 2);
        assert_eq!(p.output(&g), out);
    }

    #[test]
    fn disabled_fusion_leaves_ops_standalone() {
        let (g, _) = mlp_graph();
        let parts = fuse(&g, &FusionOptions::disabled()).unwrap();
        assert_eq!(parts.parts.len(), 3);
    }

    #[test]
    fn post_op_limit_respected() {
        let (g, _) = mlp_graph();
        let opts = FusionOptions {
            max_post_ops: 1,
            ..FusionOptions::default()
        };
        let parts = fuse(&g, &opts).unwrap();
        // matmul+add fused, relu standalone
        assert_eq!(parts.parts.len(), 2);
        assert_eq!(parts.parts[0].post_ops.len(), 1);
    }

    #[test]
    fn softmax_chain_fully_fused_into_matmul() {
        // the MHA pattern: matmul -> softmax (decomposed)
        let mut g = Graph::new();
        let q = g.add_input(TensorDesc::new([2, 16, 16], DataType::F32), "q");
        let k = g.add_input(TensorDesc::new([2, 16, 16], DataType::F32), "k");
        let s = g.add_op(OpKind::MatMul, &[q, k]).unwrap();
        let sm = g.add_op(OpKind::Softmax, &[s]).unwrap();
        g.mark_output(sm);
        Decompose.run(&mut g).unwrap();
        let parts = fuse(&g, &FusionOptions::default()).unwrap();
        assert_eq!(parts.parts.len(), 1, "{:?}", parts.parts);
        let p = &parts.parts[0];
        // 5 decomposed softmax ops all fused as post-ops
        assert_eq!(p.post_ops.len(), 5);
        let reductions = p
            .post_ops
            .iter()
            .filter(|&&o| matches!(g.op(o).kind, OpKind::Reduce(_)))
            .count();
        assert_eq!(reductions, 2);
    }

    #[test]
    fn reduction_limit_blocks_softmax() {
        let mut g = Graph::new();
        let q = g.add_input(TensorDesc::new([2, 16, 16], DataType::F32), "q");
        let k = g.add_input(TensorDesc::new([2, 16, 16], DataType::F32), "k");
        let s = g.add_op(OpKind::MatMul, &[q, k]).unwrap();
        let sm = g.add_op(OpKind::Softmax, &[s]).unwrap();
        g.mark_output(sm);
        Decompose.run(&mut g).unwrap();
        let opts = FusionOptions {
            max_reductions: 0,
            ..FusionOptions::default()
        };
        let parts = fuse(&g, &opts).unwrap();
        // matmul alone (escape invariant rolls dependent eltwise back
        // too), softmax ops standalone
        assert!(parts.parts.len() > 1);
        assert!(parts.parts[0].post_ops.is_empty());
    }

    #[test]
    fn unfused_softmax_is_one_standalone_chain() {
        // the baseline's envelope: no reductions on the matmul, so the
        // decomposed softmax is left over — and grouped as one chain
        let mut g = Graph::new();
        let q = g.add_input(TensorDesc::new([2, 16, 16], DataType::F32), "q");
        let k = g.add_input(TensorDesc::new([2, 16, 16], DataType::F32), "k");
        let s = g.add_op(OpKind::MatMul, &[q, k]).unwrap();
        let sm = g.add_op(OpKind::Softmax, &[s]).unwrap();
        let out = g.add_op(OpKind::MatMul, &[sm, q]).unwrap();
        g.mark_output(out);
        Decompose.run(&mut g).unwrap();
        let opts = FusionOptions {
            max_reductions: 0,
            ..FusionOptions::default()
        };
        let parts = fuse(&g, &opts).unwrap();
        assert_eq!(parts.parts.len(), 3, "{:?}", parts.parts);
        let chain = &parts.parts[1];
        assert!(chain.tunable.is_none());
        assert_eq!(chain.post_ops.len(), 5);
        assert_eq!(chain.output(&g), sm_output(&g, &parts.parts[2]));
        // with fusion off every op stays on its own
        assert_eq!(fuse(&g, &FusionOptions::disabled()).unwrap().parts.len(), 7);
    }

    /// The tensor the second matmul of `part` reads as its lhs.
    fn sm_output(g: &Graph, part: &FusedOp) -> LtId {
        g.op(part.tunable.unwrap()).inputs[0]
    }

    #[test]
    fn chain_reads_at_most_two_side_inputs() {
        // matmul -> + a -> + b -> + c -> softmax: the third side input
        // would not fit one row-chain program, so it (and the softmax
        // after it) stays off the matmul, elementwise as it is
        let mut g = Graph::new();
        let x = g.add_input(TensorDesc::new([16, 16], DataType::F32), "x");
        let w = g.add_input(TensorDesc::new([16, 16], DataType::F32), "w");
        let mut cur = g.add_op(OpKind::MatMul, &[x, w]).unwrap();
        for name in ["a", "b", "c"] {
            let v = g.add_input(TensorDesc::new([16], DataType::F32), name);
            cur = g
                .add_op(OpKind::Binary(BinaryKind::Add), &[cur, v])
                .unwrap();
        }
        let sm = g.add_op(OpKind::Softmax, &[cur]).unwrap();
        g.mark_output(sm);
        Decompose.run(&mut g).unwrap();
        let parts = fuse(&g, &FusionOptions::default()).unwrap();
        let mm = parts.parts.iter().find(|p| p.tunable.is_some()).unwrap();
        assert_eq!(mm.post_ops.len(), 2, "the first two adds only");
        assert!(parts.parts.len() > 1);
    }

    #[test]
    fn init_ops_form_init_partitions() {
        let mut g = Graph::new();
        let w = g.add_constant(Tensor::random(&[16, 16], DataType::F32, 3), "w");
        let wr = g
            .add_op(
                OpKind::Reorder {
                    target: gc_tensor::Layout::blocked_b(2, 4, 4),
                },
                &[w],
            )
            .unwrap();
        let x = g.add_input(TensorDesc::new([16, 16], DataType::F32), "x");
        let mm = g.add_op(OpKind::MatMul, &[x, wr]).unwrap();
        g.mark_output(mm);
        crate::passes::constant_weight::ConstantWeight
            .run(&mut g)
            .unwrap();
        let parts = fuse(&g, &FusionOptions::default()).unwrap();
        assert_eq!(parts.init_parts.len(), 1);
        assert_eq!(parts.parts.len(), 1);
        assert_eq!(parts.init_parts[0].stage, Stage::Init);
    }

    #[test]
    fn pre_op_reorder_absorbed() {
        let mut g = Graph::new();
        let x = g.add_input(TensorDesc::new([16, 16], DataType::F32), "x");
        let xr = g
            .add_op(
                OpKind::Reorder {
                    target: gc_tensor::Layout::blocked_a(2, 4, 4),
                },
                &[x],
            )
            .unwrap();
        let w = g.add_constant(Tensor::random(&[16, 16], DataType::F32, 4), "w");
        let mm = g.add_op(OpKind::MatMul, &[xr, w]).unwrap();
        g.mark_output(mm);
        let parts = fuse(&g, &FusionOptions::default()).unwrap();
        assert_eq!(parts.parts.len(), 1);
        assert_eq!(parts.parts[0].pre_ops.len(), 1);
    }

    #[test]
    fn external_operand_counts_against_budget() {
        // binary add with a big variable mask tensor
        let mut g = Graph::new();
        let x = g.add_input(TensorDesc::new([32, 64], DataType::F32), "x");
        let w = g.add_constant(Tensor::random(&[64, 32], DataType::F32, 1), "w");
        let mask = g.add_input(TensorDesc::new([32, 32], DataType::F32), "mask");
        let mm = g.add_op(OpKind::MatMul, &[x, w]).unwrap();
        let add = g
            .add_op(OpKind::Binary(BinaryKind::Add), &[mm, mask])
            .unwrap();
        g.mark_output(add);
        // budget too small: add not fused
        let opts = FusionOptions {
            max_extra_operand_bytes: 64,
            ..FusionOptions::default()
        };
        let parts = fuse(&g, &opts).unwrap();
        assert_eq!(parts.parts.len(), 2);
        // default budget: fused
        let parts = fuse(&g, &FusionOptions::default()).unwrap();
        assert_eq!(parts.parts.len(), 1);
    }

    #[test]
    fn external_inputs_listed_once() {
        let (g, _) = mlp_graph();
        let parts = fuse(&g, &FusionOptions::default()).unwrap();
        let ins = parts.parts[0].external_inputs(&g);
        assert_eq!(ins.len(), 3); // x, w, bias
    }

    #[test]
    fn two_matmul_chain_gives_two_parts() {
        let mut g = Graph::new();
        let x = g.add_input(TensorDesc::new([32, 64], DataType::F32), "x");
        let w1 = g.add_constant(Tensor::random(&[64, 32], DataType::F32, 1), "w1");
        let w2 = g.add_constant(Tensor::random(&[32, 16], DataType::F32, 2), "w2");
        let m1 = g.add_op(OpKind::MatMul, &[x, w1]).unwrap();
        let r1 = g.add_op(OpKind::Unary(UnaryKind::Relu), &[m1]).unwrap();
        let m2 = g.add_op(OpKind::MatMul, &[r1, w2]).unwrap();
        g.mark_output(m2);
        let parts = fuse(&g, &FusionOptions::default()).unwrap();
        assert_eq!(parts.parts.len(), 2);
        // relu went to the first matmul as a post-op
        assert_eq!(parts.parts[0].post_ops.len(), 1);
        assert!(parts.parts[1].post_ops.is_empty());
    }

    #[test]
    fn side_shape_classifies_by_right_aligned_shape() {
        let mut g = Graph::new();
        let anchor = g.add_input(TensorDesc::new([4, 4, 8], DataType::F32), "a");
        let input = |g: &mut Graph, shape: &[usize]| {
            g.add_input(TensorDesc::new(shape.to_vec(), DataType::F32), "r")
        };
        let row = |batch_indexed| Some(SideShape::RowVec { batch_indexed });
        let cases: [(&[usize], Option<SideShape>); 9] = [
            (&[8], row(false)),
            (&[1, 1, 8], row(false)),
            (&[4, 1, 8], row(true)),
            (&[4, 4, 8], Some(SideShape::Full)),
            (&[1, 4, 4, 8], Some(SideShape::Full)),
            (&[4, 4, 1], Some(SideShape::ColVec)),
            // [M, N] over the batch: as many elements as one row per
            // batch index (B == M), yet neither
            (&[4, 8], None),
            // keepdim stats without the batch
            (&[4, 1], None),
            // a scalar that is not a constant
            (&[1], None),
        ];
        for (shape, want) in cases {
            let r = input(&mut g, shape);
            assert_eq!(side_shape(&g, anchor, r), want, "{shape:?}");
        }
        let k = g.add_constant(Tensor::scalar_f32(2.5), "k");
        assert_eq!(side_shape(&g, anchor, k), Some(SideShape::Scalar(2.5)));
        // at rows == cols a row vector and a column vector have the same
        // volume; the shape tells them apart
        let square = g.add_input(TensorDesc::new([8, 8], DataType::F32), "sq");
        let (rv, cv) = (input(&mut g, &[1, 8]), input(&mut g, &[8, 1]));
        assert_eq!(side_shape(&g, square, rv), row(false));
        assert_eq!(side_shape(&g, square, cv), Some(SideShape::ColVec));
    }

    #[test]
    fn binary_fuses_only_with_the_chain_value_as_lhs_or_commuting() {
        // r op matmul: the matmul's output is the rhs
        for (kind, fuses) in [
            (BinaryKind::Sub, false),
            (BinaryKind::Div, false),
            (BinaryKind::Add, true),
            (BinaryKind::Mul, true),
        ] {
            let mut g = Graph::new();
            let x = g.add_input(TensorDesc::new([16, 32], DataType::F32), "x");
            let w = g.add_input(TensorDesc::new([32, 8], DataType::F32), "w");
            let r = g.add_input(TensorDesc::new([16, 8], DataType::F32), "r");
            let mm = g.add_op(OpKind::MatMul, &[x, w]).unwrap();
            let out = g.add_op(OpKind::Binary(kind), &[r, mm]).unwrap();
            g.mark_output(out);
            let parts = fuse(&g, &FusionOptions::default()).unwrap();
            assert_eq!(parts.parts.len(), if fuses { 1 } else { 2 }, "{kind:?}");
        }
    }

    #[test]
    fn unreadable_side_operand_stays_unfused() {
        // matmul [B, M, N] + y [M, N]: no row chain reads y
        let mut g = Graph::new();
        let x = g.add_input(TensorDesc::new([4, 4, 16], DataType::F32), "x");
        let w = g.add_input(TensorDesc::new([4, 16, 8], DataType::F32), "w");
        let y = g.add_input(TensorDesc::new([4, 8], DataType::F32), "y");
        let mm = g.add_op(OpKind::MatMul, &[x, w]).unwrap();
        let out = g.add_op(OpKind::Binary(BinaryKind::Add), &[mm, y]).unwrap();
        g.mark_output(out);
        let parts = fuse(&g, &FusionOptions::default()).unwrap();
        assert_eq!(parts.parts.len(), 2);
        assert!(parts.parts[0].post_ops.is_empty());
    }
}
