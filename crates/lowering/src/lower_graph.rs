//! Lowering a partitioned Graph IR into a Tensor IR module.
//!
//! This is where the Graph IR decisions (fusion membership, coarse
//! groups, constant-weight staging) meet the templates:
//!
//! - every Tunable partition is lowered through the matmul template with
//!   heuristic parameters;
//! - **layout negotiation** realizes layout propagation: a matmul chain
//!   keeps intermediate activations in blocked layout by constraining
//!   the consumer's `KB`/`MB` to the producer's `NB`/`MB`;
//! - constant weights get synthesized *init functions* (prepack into the
//!   blocked weight layout, int8 compensation) producing persistent
//!   globals, run once at first execution;
//! - coarse-fusion groups are lowered into a single function whose
//!   adjacent parallel loops the Tensor IR merge pass then fuses;
//! - everything else lowers through the standalone op lowering.

use crate::heuristic::{search, Constraints, SearchStats};
use crate::params::MatmulProblem;
use crate::standalone::{binary_op, lower_reorder, lower_row_chain, lower_standalone, unary_op};
use crate::template::{
    lower_matmul, AInput, BInput, Int8Spec, MatmulSpec, OutLayout, ParamRole, PostOpSpec,
};
use gc_graph::passes::fusion::{chain_side, side_shape, SideShape};
use gc_graph::{
    CoarseGroups, FusedOp, Graph, LtId, OpId, OpKind, Partitioning, Property, ReduceKind,
};
use gc_machine::MachineDescriptor;
use gc_tensor::{DataType, Layout, Tensor};
use gc_tir::passes::{
    check_func_reuse, check_module_reuse, merge_parallel_loops, reuse_func_locals,
    reuse_module_scratch, shrink_locals, validate_func, validate_module,
};
use gc_tir::{
    BufDecl, BufId, Call, Expr, Func, GlobalDecl, GlobalKind, Intrinsic, Module, Op, Operand, Stmt,
};
use std::collections::HashMap;
use std::fmt;

/// Error produced during lowering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError(pub String);

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lowering error: {}", self.0)
    }
}

impl std::error::Error for LowerError {}

fn err(msg: impl Into<String>) -> LowerError {
    LowerError(msg.into())
}

/// Options controlling lowering (the ablation knobs).
#[derive(Debug, Clone)]
pub struct LowerOptions {
    /// Target machine (drives every heuristic).
    pub machine: MachineDescriptor,
    /// Keep intermediate activations blocked between chained matmuls
    /// (layout propagation).
    pub propagate_layouts: bool,
    /// Run the tensor-size optimization.
    pub shrink_tensors: bool,
    /// Run module-level scratch-buffer reuse.
    pub reuse_buffers: bool,
    /// Run function-local buffer merging (the within-function half of
    /// memory-buffer reuse).
    pub reuse_locals: bool,
    /// Force the post-op anchor (ablation).
    pub forced_post_anchor: Option<crate::anchors::PostOpAnchor>,
    /// Force the A-pack placement (ablation).
    pub forced_pack: Option<crate::anchors::PackPlacement>,
    /// Choose template parameters from the primitives library's fixed
    /// kernel menu instead of the compiler heuristic (baseline mode).
    pub library_params: bool,
    /// Allow ragged (non-divisor) `MB`/`NB` for blocked-weight matmuls:
    /// both edges are zero-padded at pack time and the clamped output
    /// store drops the pad. Off = the heuristic only considers exact
    /// divisors of m and n (ablation). `KB` always divides k.
    pub ragged: bool,
    /// Measured-tuning overrides: exact `(problem, constraints)` pairs
    /// whose parameters replace the analytic choice. Overrides that
    /// fail [`crate::MatmulParams::validate`] for their problem are ignored
    /// (the analytic choice stands), so a stale database can never
    /// produce an unlowereable plan.
    pub overrides: crate::heuristic::ParamOverrides,
    /// When set, every parameter decision (problem, constraints, chosen
    /// params — after overrides) is appended here. The tuning
    /// orchestrator reads the log to learn which decisions a graph
    /// actually exercises; keys recorded here are exactly the keys
    /// `overrides` is consulted with.
    pub param_log: Option<crate::heuristic::ParamLog>,
}

impl LowerOptions {
    /// Defaults for a machine: everything enabled.
    pub fn new(machine: MachineDescriptor) -> Self {
        LowerOptions {
            machine,
            propagate_layouts: true,
            shrink_tensors: true,
            reuse_buffers: true,
            reuse_locals: true,
            forced_post_anchor: None,
            forced_pack: None,
            library_params: false,
            ragged: true,
            overrides: crate::heuristic::ParamOverrides::default(),
            param_log: None,
        }
    }
}

/// Result of lowering: the module plus the data the engine needs to
/// seed weight globals.
#[derive(Debug, Clone)]
pub struct Lowered {
    /// The compiled Tensor IR module.
    pub module: Module,
    /// Initial contents of `Weight` globals (plain weights and constant
    /// operands), by global index.
    pub weight_seeds: Vec<(usize, Tensor)>,
    /// Number of merged coarse groups (diagnostics).
    pub merged_groups: usize,
    /// Number of tunable partitions whose chosen params tile the m or
    /// n axis raggedly (pack-time padding / edge tiles in play).
    pub ragged_partitions: usize,
    /// Work the template-parameter searches of this lowering did
    /// (`group_profitable`'s and `plan_tunable`'s; tuned overrides and
    /// the library menu run none).
    pub search: SearchStats,
}

struct Builder<'g> {
    graph: &'g Graph,
    opts: &'g LowerOptions,
    module: Module,
    global_of: HashMap<LtId, usize>,
    weight_seeds: Vec<(usize, Tensor)>,
    /// memoized prepacked weights: (weight ltid, kb, nb) -> persistent
    prepacked: HashMap<(LtId, usize, usize), usize>,
    /// memoized compensation vectors: (weight ltid, kb, nb) -> persistent
    comps: HashMap<(LtId, usize, usize), usize>,
    search: SearchStats,
}

/// Per-part lowering decisions.
#[derive(Debug, Clone)]
struct PartPlan {
    spec: MatmulSpec,
    /// LtId bound to each template param role (None for synthesized
    /// comp / prepacked-weight params).
    binds: Vec<Bind>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bind {
    Tensor(LtId),
    PrepackedWeight(LtId),
    Comp(LtId),
}

/// Lower a partitioned graph.
///
/// # Errors
///
/// Returns an error for graphs using unsupported shapes/patterns.
pub fn lower_partitions(
    graph: &Graph,
    parts: &Partitioning,
    groups: &CoarseGroups,
    opts: &LowerOptions,
) -> Result<Lowered, LowerError> {
    // a tensor that is simultaneously a graph input and a graph output
    // would need aliased Input/Output globals; reject it explicitly
    // rather than silently dropping the output
    if let Some(lt) = graph.outputs().iter().find(|o| graph.inputs().contains(o)) {
        return Err(err(format!(
            "graph output t{} is also a graph input; insert an Identity op",
            lt.0
        )));
    }
    let mut b = Builder {
        graph,
        opts,
        module: Module::new(),
        global_of: HashMap::new(),
        weight_seeds: Vec::new(),
        prepacked: HashMap::new(),
        comps: HashMap::new(),
        search: SearchStats::default(),
    };

    // -- graph-level init ops (constant-weight preprocessing the user's
    // graph already contains)
    for init in &parts.init_parts {
        b.lower_init_op(init)?;
    }

    // -- plan tunable parts (params + layout negotiation), in order.
    // Groups whose shared decomposition would be unprofitable are split
    // back into singletons first (the heuristic side of coarse fusion).
    let groups = {
        let mut out: Vec<Vec<usize>> = Vec::new();
        for group in &groups.groups {
            if group.len() > 1
                && !group_profitable(&opts.machine, graph, parts, group, &mut b.search)
            {
                out.extend(group.iter().map(|&pi| vec![pi]));
            } else {
                out.push(group.clone());
            }
        }
        gc_graph::CoarseGroups { groups: out }
    };
    let groups = &groups;
    let mut plans: HashMap<usize, PartPlan> = HashMap::new();
    for (gi, group) in groups.groups.iter().enumerate() {
        let grouped = group.len() > 1;
        let mut group_mb: Option<usize> = None;
        let mut group_tasks: Option<usize> = None;
        for (pos, &pi) in group.iter().enumerate() {
            let part = &parts.parts[pi];
            if part.tunable.is_none() {
                continue;
            }
            let prev = if pos > 0 {
                plans.get(&group[pos - 1])
            } else {
                None
            };
            let plan = b.plan_tunable(
                parts,
                pi,
                part,
                grouped,
                &mut group_mb,
                &mut group_tasks,
                prev,
                &plans,
            )?;
            plans.insert(pi, plan);
        }
        let _ = gi;
    }

    // -- mark producers whose consumers read blocked output
    // (done inside plan_tunable via `prev`); now fix each producer's
    // OutLayout if its single consumer plans to read it blocked.
    let mut blocked_outputs: HashMap<usize, (usize, usize)> = HashMap::new(); // part -> (mb, nb)
    for (&pi, plan) in &plans {
        if plan.spec.a_input == AInput::Blocked {
            // find producer part of the A tensor
            let a_lt = plan
                .binds
                .iter()
                .zip(&plan_roles(plan))
                .find_map(|(b_, r)| match (b_, r) {
                    (Bind::Tensor(lt), ParamRole::A) => Some(*lt),
                    _ => None,
                })
                .expect("A bind");
            if let Some(prod_op) = graph.producer(a_lt) {
                if let Some(ppi) = parts.part_of(prod_op) {
                    blocked_outputs.insert(ppi, (plan.spec.params.mb, plan.spec.params.kb));
                    let _ = pi;
                }
            }
        }
    }
    for (pi, (mb, kb)) in blocked_outputs {
        if let Some(plan) = plans.get_mut(&pi) {
            assert_eq!(plan.spec.params.mb, mb, "negotiated MB mismatch");
            assert_eq!(plan.spec.params.nb, kb, "negotiated NB mismatch");
            plan.spec.out = OutLayout::BlockedMbNb;
        }
    }

    let ragged_partitions = plans
        .values()
        .filter(|p| {
            let (prob, par) = (&p.spec.problem, &p.spec.params);
            par.ragged_m(prob.m) || par.ragged_n(prob.n)
        })
        .count();

    // -- lower main partitions group by group
    let mut merged_groups = 0usize;
    for group in &groups.groups {
        let all_tunable = group.iter().all(|pi| plans.contains_key(pi));
        if group.len() > 1 && all_tunable {
            merged_groups += 1;
            b.lower_group(parts, group, &plans)?;
        } else {
            for &pi in group {
                let part = &parts.parts[pi];
                if let Some(plan) = plans.get(&pi) {
                    b.lower_single_tunable(parts, pi, part, plan)?;
                } else {
                    b.lower_standalone_part(part)?;
                }
            }
        }
    }

    // -- Tensor IR optimizations. Each pass is followed by the
    // validator, so a miscompile aborts lowering with an error naming
    // the guilty pass instead of producing a module that silently
    // computes garbage. The buffer-reuse passes additionally get a
    // before/after shadow check proving no read was rewritten onto a
    // slot whose live range it overlaps.
    for f in &mut b.module.funcs {
        if opts.shrink_tensors {
            let _ = shrink_locals(f);
            validate_func(f).map_err(|e| {
                err(format!(
                    "validator after shrink_locals in `{}`: {e}",
                    f.name
                ))
            })?;
        }
        if opts.reuse_locals {
            let before = f.clone();
            let _ = reuse_func_locals(f);
            check_func_reuse(&before, f)
                .and_then(|()| validate_func(f))
                .map_err(|e| {
                    err(format!(
                        "validator after reuse_func_locals in `{}`: {e}",
                        f.name
                    ))
                })?;
        }
    }
    if opts.reuse_buffers {
        let before = b.module.clone();
        let _ = reuse_module_scratch(&mut b.module);
        check_module_reuse(&before, &b.module)
            .and_then(|()| validate_module(&b.module))
            .map_err(|e| err(format!("validator after reuse_module_scratch: {e}")))?;
    }
    validate_module(&b.module).map_err(|e| err(format!("validator after lowering: {e}")))?;
    b.module
        .validate()
        .map_err(|e| err(format!("module validation: {e}")))?;

    Ok(Lowered {
        module: b.module,
        weight_seeds: b.weight_seeds,
        merged_groups,
        ragged_partitions,
        search: b.search,
    })
}

fn plan_roles(plan: &PartPlan) -> Vec<ParamRole> {
    // binds are stored parallel to the lowered roles; recompute roles
    // from the spec the same way lower_matmul does.
    let mut roles = vec![ParamRole::A, ParamRole::B];
    if plan.spec.int8.is_some() {
        roles.push(ParamRole::Comp);
    }
    if plan.spec.bias {
        roles.push(ParamRole::Bias);
    }
    for (i, po) in plan.spec.post_ops.iter().enumerate() {
        if po.takes_param() {
            roles.push(ParamRole::PostOperand(i));
        }
    }
    roles.push(ParamRole::Out);
    roles
}

impl Builder<'_> {
    fn desc(&self, lt: LtId) -> &gc_tensor::TensorDesc {
        self.graph.desc(lt)
    }

    fn global_for(&mut self, lt: LtId) -> usize {
        if let Some(&g) = self.global_of.get(&lt) {
            return g;
        }
        let t = self.graph.tensor(lt);
        let kind = if let Some(pos) = self.graph.inputs().iter().position(|&i| i == lt) {
            GlobalKind::Input(pos)
        } else if let Some(pos) = self.graph.outputs().iter().position(|&o| o == lt) {
            GlobalKind::Output(pos)
        } else if t.property == Property::Constant && self.graph.const_value(lt).is_some() {
            GlobalKind::Weight
        } else if t.property == Property::Constant {
            GlobalKind::Persistent
        } else {
            GlobalKind::Scratch
        };
        let g = self.module.add_global(GlobalDecl {
            dtype: t.desc.dtype(),
            elems: t.desc.volume(),
            kind,
            name: t.name.clone(),
        });
        if kind == GlobalKind::Weight {
            self.weight_seeds
                .push((g, self.graph.const_value(lt).unwrap().clone()));
        }
        self.global_of.insert(lt, g);
        g
    }

    /// Persistent blocked weight for `(w, kb, nb)`, creating the prepack
    /// init call on first use.
    fn prepacked_weight(&mut self, w: LtId, kb: usize, nb: usize) -> Result<usize, LowerError> {
        if let Some(&g) = self.prepacked.get(&(w, kb, nb)) {
            return Ok(g);
        }
        let desc = self.desc(w).clone();
        if !desc.layout().is_plain() {
            return Err(err("weights must arrive in plain layout"));
        }
        let plain_g = self.global_for(w);
        let layout = Layout::blocked_b(desc.rank(), kb, nb);
        let func = lower_reorder(&desc, &layout, &format!("prepack_w{}", w.0));
        // pack-time padding: the blocked buffer holds whole NB panels
        // even when NB does not divide N (pad is zero)
        let shape = desc.shape();
        let (k, n) = (shape[shape.len() - 2], shape[shape.len() - 1]);
        let wbatch = desc.volume() / (k * n);
        let padded = wbatch * k * n.div_ceil(nb) * nb;
        let persistent = self.module.add_global(GlobalDecl {
            dtype: desc.dtype(),
            elems: padded,
            kind: GlobalKind::Persistent,
            name: format!("{}_blocked", self.graph.tensor(w).name),
        });
        let fi = self.module.add_func(func);
        self.module.init_calls.push(Call {
            func: fi,
            args: vec![plain_g, persistent],
        });
        self.prepacked.insert((w, kb, nb), persistent);
        Ok(persistent)
    }

    /// Persistent compensation vector for an int8 weight, from its
    /// prepacked blocked form.
    fn compensation(&mut self, w: LtId, kb: usize, nb: usize) -> Result<usize, LowerError> {
        if let Some(&g) = self.comps.get(&(w, kb, nb)) {
            return Ok(g);
        }
        let blocked = self.prepacked_weight(w, kb, nb)?;
        let desc = self.desc(w);
        let shape = desc.shape();
        let (k, n) = (shape[shape.len() - 2], shape[shape.len() - 1]);
        // sized to the padded weight: one i32 per packed column; pad
        // columns hold zero-weight sums, i.e. zero
        let (k_tiles, n_tiles) = (k / kb, n.div_ceil(nb));
        let n_pad = n_tiles * nb;
        let comp_g = self.module.add_global(GlobalDecl {
            dtype: DataType::I32,
            elems: n_pad,
            kind: GlobalKind::Persistent,
            name: format!("{}_comp", self.graph.tensor(w).name),
        });
        // comp[n] = sum_k B[k, n], computed from blocked tiles
        let mut f = Func {
            name: format!("comp_w{}", w.0),
            params: vec![
                BufDecl::new(DataType::I8, k * n_pad, "wb"),
                BufDecl::new(DataType::I32, n_pad, "comp"),
            ],
            locals: vec![],
            var_count: 0,
            body: vec![],
        };
        let kt = f.fresh_var();
        let nt = f.fresh_var();
        f.body.push(Stmt::Op(Intrinsic::new(
            Op::ZeroI32 { len: n_pad },
            [Operand::new(BufId::Param(1), 0usize)],
            [],
        )));
        f.body.push(Stmt::loop_(
            kt,
            k_tiles,
            vec![Stmt::loop_(
                nt,
                n_tiles,
                vec![Stmt::Op(Intrinsic::new(
                    Op::CompAccumulate { nb, kb },
                    [
                        Operand::new(
                            BufId::Param(0),
                            Expr::v(kt)
                                .mul(Expr::from(n_tiles))
                                .add(Expr::v(nt))
                                .mul(Expr::from(nb * kb)),
                        ),
                        Operand::new(BufId::Param(1), Expr::v(nt).mul(Expr::from(nb))),
                    ],
                    [],
                ))],
            )],
        ));
        let fi = self.module.add_func(f);
        self.module.init_calls.push(Call {
            func: fi,
            args: vec![blocked, comp_g],
        });
        self.comps.insert((w, kb, nb), comp_g);
        Ok(comp_g)
    }

    fn lower_init_op(&mut self, init: &FusedOp) -> Result<(), LowerError> {
        let op_id = init.pre_ops[0];
        let call = if is_f32_elementwise(&self.graph.op(op_id).kind) {
            self.lower_row_chain(init, "init")?
        } else {
            self.lower_standalone_op(op_id, "init")?
        };
        self.module.init_calls.push(call);
        Ok(())
    }

    /// Build the spec + binds for one tunable partition.
    #[allow(clippy::too_many_arguments)]
    fn plan_tunable(
        &mut self,
        parts: &Partitioning,
        _pi: usize,
        part: &FusedOp,
        grouped: bool,
        group_mb: &mut Option<usize>,
        group_tasks: &mut Option<usize>,
        prev_in_group: Option<&PartPlan>,
        all_plans: &HashMap<usize, PartPlan>,
    ) -> Result<PartPlan, LowerError> {
        let graph = self.graph;
        let machine = &self.opts.machine;
        let t_op = graph.op(part.tunable.unwrap());

        // --- operand sources, redirected through fused pre-ops
        let mut a_src = t_op.inputs[0];
        let mut b_src = t_op.inputs[1];
        let mut b_transposed = false;
        for &pre in &part.pre_ops {
            let p = graph.op(pre);
            let out = p.outputs[0];
            if out == a_src {
                match p.kind {
                    OpKind::Reorder { .. } => a_src = p.inputs[0],
                    _ => return Err(err("unsupported pre-op on activation")),
                }
            } else if out == b_src {
                match p.kind {
                    OpKind::Transpose => {
                        b_src = p.inputs[0];
                        b_transposed = true;
                    }
                    OpKind::Reorder { .. } => b_src = p.inputs[0],
                    _ => return Err(err("unsupported pre-op on rhs")),
                }
            }
        }

        // --- problem sizes
        let a_desc = graph.desc(a_src).clone();
        let out_lt = part.output(graph);
        let out_desc = graph.desc(out_lt).clone();
        let shape = out_desc.shape();
        let rank = shape.len();
        let (m, n) = (shape[rank - 2], shape[rank - 1]);
        let k = *a_desc.shape().last().unwrap();
        let batch: usize = shape[..rank - 2].iter().product();
        let (int8, elem_bytes) = match &t_op.kind {
            OpKind::MatMul => (None, 4),
            OpKind::QuantizedMatMul {
                a_params, b_scale, ..
            } => (
                Some(Int8Spec {
                    a_zero: a_params.zero_point,
                    scale: a_params.scale * b_scale,
                }),
                1,
            ),
            other => return Err(err(format!("{other} is not a tunable op"))),
        };
        let problem = MatmulProblem::batched(batch, m, n, k, elem_bytes);

        // --- post-op translation
        let (post_ops, operand_binds) = self.translate_post_ops(&part.post_ops, t_op.outputs[0])?;
        // quantize, if present, must be last (output write handles it)
        if let Some(qpos) = post_ops
            .iter()
            .position(|p| matches!(p, PostOpSpec::Quantize { .. }))
        {
            if qpos + 1 != post_ops.len() {
                return Err(err("fused quantize must be the final post-op"));
            }
        }
        let has_reduce = post_ops
            .iter()
            .any(|p| matches!(p, PostOpSpec::ReduceRow(_)));

        // --- rhs arrival (decided early: ragged tiling requires a
        // blocked constant weight, so the constraints depend on it)
        let b_is_const = graph.tensor(b_src).property == Property::Constant;
        let b_input = if b_is_const && graph.const_value(b_src).is_some() {
            BInput::BlockedWeight
        } else {
            BInput::PlainInLoop {
                transposed: b_transposed,
            }
        };

        // --- constraints (grouping + layout negotiation)
        let mut constraints = Constraints {
            full_n_per_task: has_reduce || grouped,
            ..Constraints::default()
        };
        // Edge-tile (ragged) eligibility: only the prepacked blocked-
        // weight path has pad-to-tile storage, and only operand shapes
        // that never read past the logical edge survive a pad. Grouped
        // members share fixed decompositions, so they stay exact.
        // full and column-vector operands are sized to the logical m
        let has_full = post_ops.iter().any(|p| {
            matches!(
                p,
                PostOpSpec::BinaryFull { .. } | PostOpSpec::BinaryColVec { .. }
            )
        });
        let has_rowvec = post_ops
            .iter()
            .any(|p| matches!(p, PostOpSpec::BinaryRowVec { .. }));
        let ragged_ok =
            self.opts.ragged && matches!(b_input, BInput::BlockedWeight) && !has_reduce && !grouped;
        constraints.allow_ragged_m = ragged_ok && !has_full;
        constraints.allow_ragged_n = ragged_ok && !has_full && !has_rowvec;
        if grouped {
            if group_mb.is_none() {
                let (mb, tasks) = group_decomposition(machine, batch, m);
                *group_mb = Some(mb);
                *group_tasks = Some(tasks);
            }
            constraints.fixed_mb = *group_mb;
            constraints.fixed_tasks = *group_tasks;
        }
        // chained producer: previous member of the group, or (when
        // layout propagation is on) any tunable part producing our A
        let chained_prev: Option<&PartPlan> = if let Some(p) = prev_in_group {
            Some(p)
        } else if self.opts.propagate_layouts {
            graph
                .producer(a_src)
                .and_then(|po| parts.part_of(po))
                .and_then(|ppi| all_plans.get(&ppi))
                .filter(|_p| {
                    // single consumer and shapes chain directly
                    graph.consumers(a_src).len() == 1
                })
        } else {
            None
        };
        // Layout propagation is cost-driven: reading the producer's
        // blocked output pins MB/KB to the producer's MB/NB, which can
        // force a poor tiling. Compare against free parameters plus the
        // fused pack's streaming cost and keep the cheaper option.
        let mut searched = SearchStats::default();
        let mut pick = |c: &Constraints| {
            // Measured-tuning override: exact (problem, constraints)
            // match only, and only if the tuned params still tile this
            // problem — a stale database entry falls back to the
            // analytic choice silently. A hit skips the search.
            let tuned = self.opts.overrides.get(&problem, c);
            let chosen = match tuned.filter(|p| p.validate(&problem).is_ok()) {
                Some(p) => p,
                None if self.opts.library_params => {
                    crate::heuristic::choose_params_library(machine, &problem, c)
                }
                None => {
                    let (p, stats) = search(machine, &problem, c);
                    searched += stats;
                    p
                }
            };
            if let Some(log) = &self.opts.param_log {
                log.lock().unwrap().push(crate::heuristic::ParamChoice {
                    problem,
                    constraints: *c,
                    params: chosen,
                });
            }
            chosen
        };
        let p_plain = pick(&constraints);
        let pack_cost = gc_machine::cost::stream_cycles(
            machine,
            2.0 * (problem.batch * problem.m * problem.k * problem.elem_bytes) as f64,
        ) / machine.cores as f64;
        let cost_plain = crate::heuristic::estimate_cycles(machine, &problem, &p_plain) + pack_cost;
        let (a_input, params) = match chained_prev {
            Some(prev) if self.opts.propagate_layouts => {
                let mut blocked = constraints;
                blocked.fixed_mb = Some(prev.spec.params.mb);
                blocked.fixed_kb = Some(prev.spec.params.nb);
                // the blocked-A chain reads the producer's exact tiles;
                // no clamped packs exist on that path
                blocked.allow_ragged_m = false;
                blocked.allow_ragged_n = false;
                // pinned MB/KB may be infeasible together with a fixed
                // group task count; fall back to plain if so
                let feasible = problem.m.is_multiple_of(prev.spec.params.mb)
                    && problem.k.is_multiple_of(prev.spec.params.nb);
                if feasible {
                    let p_blocked = pick(&blocked);
                    let cost_blocked =
                        crate::heuristic::estimate_cycles(machine, &problem, &p_blocked);
                    // the blocked read needs the producer's exact tiles: a
                    // choice that does not honour the pins (the library
                    // menu ignores them) reads plain
                    let pinned =
                        p_blocked.mb == prev.spec.params.mb && p_blocked.kb == prev.spec.params.nb;
                    if pinned && cost_blocked <= cost_plain {
                        (AInput::Blocked, p_blocked)
                    } else {
                        (AInput::Plain, p_plain)
                    }
                } else {
                    (AInput::Plain, p_plain)
                }
            }
            _ => (AInput::Plain, p_plain),
        };
        self.search += searched;

        let spec = MatmulSpec {
            problem,
            params,
            int8,
            bias: false,
            a_input,
            b_input,
            post_ops,
            out: OutLayout::Plain, // may be upgraded to blocked later
            out_dtype: out_desc.dtype(),
            forced_post_anchor: self.opts.forced_post_anchor,
            forced_pack: self.opts.forced_pack,
        };

        // --- binds, in role order
        let mut binds = vec![Bind::Tensor(a_src)];
        binds.push(match b_input {
            BInput::BlockedWeight => Bind::PrepackedWeight(b_src),
            BInput::PlainInLoop { .. } => Bind::Tensor(b_src),
        });
        if spec.int8.is_some() {
            binds.push(Bind::Comp(b_src));
        }
        for (idx, lt) in &operand_binds {
            let _ = idx;
            binds.push(Bind::Tensor(*lt));
        }
        binds.push(Bind::Tensor(out_lt));

        Ok(PartPlan { spec, binds })
    }

    /// Translate fused graph ops into template post-ops. `chain_in` is the
    /// value the chain starts from (the matmul's output, or a standalone
    /// chain's anchor), against which [`side_shape`] classifies every side
    /// operand. Returns the post-ops and, for each one that reads a side
    /// operand, `(post-op index, tensor)`.
    ///
    /// # Errors
    ///
    /// An op that does not extend the chain ([`chain_side`]), or a side
    /// operand no row chain reads (`[M, N]` broadcast over a batch, say);
    /// fusion never groups either, so only a standalone op meets this.
    #[allow(clippy::type_complexity)]
    fn translate_post_ops(
        &self,
        ops: &[OpId],
        chain_in: LtId,
    ) -> Result<(Vec<PostOpSpec>, Vec<(usize, LtId)>), LowerError> {
        let graph = self.graph;
        let mut post_ops = Vec::new();
        let mut current = chain_in;
        let mut stat: Option<LtId> = None;
        let mut operand_binds: Vec<(usize, LtId)> = Vec::new();
        for &po_id in ops {
            let po = graph.op(po_id);
            let idx = post_ops.len();
            let side = chain_side(po, current)
                .ok_or_else(|| err(format!("{} does not extend its row chain", po.kind)))?;
            match &po.kind {
                OpKind::Unary(u) => post_ops.push(PostOpSpec::Unary(unary_op(*u))),
                OpKind::Binary(bk) => {
                    let op = binary_op(*bk);
                    let rhs = side.expect("a binary reads a side input");
                    let spec = if Some(rhs) == stat {
                        PostOpSpec::BinaryColStat { op }
                    } else {
                        match side_shape(graph, chain_in, rhs) {
                            Some(SideShape::Scalar(v)) => PostOpSpec::BinaryScalarConst(op, v),
                            Some(SideShape::RowVec { batch_indexed }) => {
                                PostOpSpec::BinaryRowVec { op, batch_indexed }
                            }
                            Some(SideShape::Full) => PostOpSpec::BinaryFull { op },
                            Some(SideShape::ColVec) => PostOpSpec::BinaryColVec { op },
                            None => {
                                return Err(err(format!(
                                    "{}: cannot broadcast operand {:?} onto {:?} in a row chain",
                                    po.kind,
                                    graph.desc(rhs).shape(),
                                    graph.desc(chain_in).shape()
                                )))
                            }
                        }
                    };
                    if spec.takes_param() {
                        operand_binds.push((idx, rhs));
                    }
                    post_ops.push(spec);
                }
                OpKind::Reduce(rk) => {
                    let op = match rk {
                        ReduceKind::Sum => gc_tir::ReduceOp::Sum,
                        ReduceKind::Max => gc_tir::ReduceOp::Max,
                    };
                    post_ops.push(PostOpSpec::ReduceRow(op));
                }
                OpKind::Quantize { params, .. } => post_ops.push(PostOpSpec::Quantize {
                    scale: params.scale,
                    zero_point: params.zero_point,
                }),
                // a reorder to plain: plain output is the default
                _ => {}
            }
            if matches!(po.kind, OpKind::Reduce(_)) {
                stat = Some(po.outputs[0]);
            } else {
                current = po.outputs[0];
            }
        }
        Ok((post_ops, operand_binds))
    }

    fn resolve_bind(&mut self, bind: Bind, spec: &MatmulSpec) -> Result<usize, LowerError> {
        match bind {
            Bind::Tensor(lt) => Ok(self.global_for(lt)),
            Bind::PrepackedWeight(w) => self.prepacked_weight(w, spec.params.kb, spec.params.nb),
            Bind::Comp(w) => self.compensation(w, spec.params.kb, spec.params.nb),
        }
    }

    fn lower_single_tunable(
        &mut self,
        _parts: &Partitioning,
        pi: usize,
        _part: &FusedOp,
        plan: &PartPlan,
    ) -> Result<(), LowerError> {
        let lowered = lower_matmul(&self.opts.machine, &plan.spec, &format!("fused_op_{pi}"));
        let mut args = Vec::with_capacity(plan.binds.len());
        for &bind in &plan.binds {
            args.push(self.resolve_bind(bind, &plan.spec)?);
        }
        debug_assert_eq!(args.len(), lowered.func.params.len());
        let fi = self.module.add_func(lowered.func);
        self.module.main_calls.push(Call { func: fi, args });
        Ok(())
    }

    /// Lower a coarse group into a single function, then merge its
    /// parallel loops.
    fn lower_group(
        &mut self,
        parts: &Partitioning,
        group: &[usize],
        plans: &HashMap<usize, PartPlan>,
    ) -> Result<(), LowerError> {
        // intermediates: tensors produced and consumed inside the group
        let mut internal: Vec<LtId> = Vec::new();
        for (i, &pi) in group.iter().enumerate() {
            if i + 1 == group.len() {
                break;
            }
            let out = parts.parts[pi].output(self.graph);
            internal.push(out);
        }

        let mut combined = Func {
            name: format!("group_{}", group[0]),
            params: vec![],
            locals: vec![],
            var_count: 0,
            body: vec![],
        };
        let mut args: Vec<usize> = Vec::new();
        let mut global_to_param: HashMap<usize, usize> = HashMap::new();
        let mut internal_local: HashMap<LtId, usize> = HashMap::new();

        for &pi in group {
            let plan = &plans[&pi];
            let lowered = lower_matmul(&self.opts.machine, &plan.spec, &format!("fused_op_{pi}"));
            let f = lowered.func;
            let var_off = combined.var_count;
            combined.var_count += f.var_count;
            // map this member's params (may itself append `inter_*`
            // locals, so the member-local offset is computed after)
            let mut param_map: Vec<BufId> = Vec::with_capacity(f.params.len());
            for (j, decl) in f.params.iter().enumerate() {
                let bind = plan.binds[j];
                let as_internal = match bind {
                    Bind::Tensor(lt) if internal.contains(&lt) => Some(lt),
                    _ => None,
                };
                if let Some(lt) = as_internal {
                    let l = *internal_local.entry(lt).or_insert_with(|| {
                        combined.locals.push(BufDecl::new(
                            decl.dtype,
                            decl.elems,
                            format!("inter_{}", lt.0),
                        ));
                        combined.locals.len() - 1
                    });
                    param_map.push(BufId::Local(l));
                } else {
                    let g = self.resolve_bind(bind, &plan.spec)?;
                    let p = *global_to_param.entry(g).or_insert_with(|| {
                        combined.params.push(decl.clone());
                        args.push(g);
                        combined.params.len() - 1
                    });
                    param_map.push(BufId::Param(p));
                }
            }
            let local_off = combined.locals.len();
            for l in &f.locals {
                combined.locals.push(l.clone());
            }
            for stmt in f.body {
                combined
                    .body
                    .push(remap_stmt(stmt, &param_map, local_off, var_off));
            }
        }

        let _ = merge_parallel_loops(&mut combined);
        validate_func(&combined).map_err(|e| {
            err(format!(
                "validator after merge_parallel_loops in `{}`: {e}",
                combined.name
            ))
        })?;
        let fi = self.module.add_func(combined);
        self.module.main_calls.push(Call { func: fi, args });
        Ok(())
    }

    fn lower_standalone_part(&mut self, part: &FusedOp) -> Result<(), LowerError> {
        if part.post_ops.len() > 1 || is_f32_elementwise(&self.graph.op(part.post_ops[0]).kind) {
            let call = self.lower_row_chain(part, "op")?;
            self.module.main_calls.push(call);
            return Ok(());
        }
        let call = self.lower_standalone_op(part.post_ops[0], "op")?;
        self.module.main_calls.push(call);
        Ok(())
    }

    /// One op outside any partition through [`lower_standalone`].
    fn lower_standalone_op(&mut self, op_id: OpId, prefix: &str) -> Result<Call, LowerError> {
        let op = self.graph.op(op_id);
        let in_descs: Vec<_> = op.inputs.iter().map(|&i| self.graph.desc(i)).collect();
        let out = op.outputs[0];
        let func = lower_standalone(
            &op.kind,
            &in_descs,
            self.graph.desc(out),
            &format!("{prefix}_{}", op.kind.mnemonic()),
        );
        let n_params = func.params.len();
        let fi = self.module.add_func(func);
        let mut args: Vec<usize> = op.inputs.iter().map(|&i| self.global_for(i)).collect();
        args.push(self.global_for(out));
        if args.len() != n_params {
            return Err(err(format!(
                "standalone op {} arity mismatch ({} args, {} params)",
                op.kind.mnemonic(),
                args.len(),
                n_params
            )));
        }
        Ok(Call { func: fi, args })
    }

    /// A standalone chain — a reducing chain fusion grouped
    /// (`grow_row_chain`), or one f32 unary or binary — as one row-chain
    /// function from the chain's anchor (its first op's `inputs[0]`) to
    /// its output.
    fn lower_row_chain(&mut self, part: &FusedOp, prefix: &str) -> Result<Call, LowerError> {
        let ops = part.ops();
        let first = self.graph.op(ops[0]);
        let anchor = first.inputs[0];
        let name = match ops[..] {
            [_] => format!("{prefix}_{}", first.kind.mnemonic()),
            _ => format!("{prefix}_row_chain"),
        };
        let out_lt = part.output(self.graph);
        let shape = self.desc(out_lt).shape().to_vec();
        let n = shape.last().copied().unwrap_or(1);
        let m = shape.len().checked_sub(2).map_or(1, |i| shape[i]);
        let batch = self.desc(out_lt).volume() / (m * n).max(1);
        let (post_ops, binds) = self.translate_post_ops(&ops, anchor)?;
        let func = lower_row_chain(&post_ops, batch, m, n, &name);
        let mut args = vec![self.global_for(anchor)];
        args.extend(binds.into_iter().map(|(_, lt)| self.global_for(lt)));
        args.push(self.global_for(out_lt));
        let fi = self.module.add_func(func);
        Ok(Call { func: fi, args })
    }
}

/// Whether a standalone op of this kind lowers to a row chain (every
/// f32 unary and binary does; shape inference makes them f32).
fn is_f32_elementwise(kind: &OpKind) -> bool {
    matches!(kind, OpKind::Unary(_) | OpKind::Binary(_))
}

/// Extract the matmul problem of a tunable partition (for group
/// profitability analysis; mirrors `plan_tunable`'s size derivation).
/// Returns `(problem, has_reduce)`.
fn part_problem(graph: &Graph, part: &FusedOp) -> Option<(MatmulProblem, bool)> {
    let t_op = graph.op(part.tunable?);
    let mut a_src = t_op.inputs[0];
    for &pre in &part.pre_ops {
        let p = graph.op(pre);
        if p.outputs[0] == a_src {
            a_src = p.inputs[0];
        }
    }
    let out_lt = part.output(graph);
    let shape = graph.desc(out_lt).shape().to_vec();
    let rank = shape.len();
    if rank < 2 {
        return None;
    }
    let (m, n) = (shape[rank - 2], shape[rank - 1]);
    let k = *graph.desc(a_src).shape().last()?;
    let batch: usize = shape[..rank - 2].iter().product();
    let elem = match &t_op.kind {
        OpKind::QuantizedMatMul { .. } => 1,
        _ => 4,
    };
    let has_reduce = part
        .post_ops
        .iter()
        .any(|&o| matches!(graph.op(o).kind, OpKind::Reduce(_)));
    Some((MatmulProblem::batched(batch, m, n, k, elem), has_reduce))
}

/// Decide whether merging a coarse group is profitable: the shared
/// row-only decomposition can force poor tilings or leave cores idle
/// for tiny batches, in which case the group is split.
fn group_profitable(
    machine: &MachineDescriptor,
    graph: &Graph,
    parts: &Partitioning,
    group: &[usize],
    stats: &mut SearchStats,
) -> bool {
    let mut probs = Vec::new();
    for &pi in group {
        match part_problem(graph, &parts.parts[pi]) {
            Some(pr) => probs.push(pr),
            None => return false,
        }
    }
    let (batch, m) = (probs[0].0.batch, probs[0].0.m);
    let (mb_g, tasks_g) = group_decomposition(machine, batch, m);
    let mut merged = 0.0;
    let mut free = 0.0;
    for (prob, has_reduce) in &probs {
        let gc = Constraints {
            full_n_per_task: true,
            fixed_mb: Some(mb_g),
            fixed_tasks: Some(tasks_g),
            ..Constraints::default()
        };
        let fc = Constraints {
            full_n_per_task: *has_reduce,
            ..Constraints::default()
        };
        let (pg, sg) = search(machine, prob, &gc);
        let (pf, sf) = search(machine, prob, &fc);
        *stats += sg;
        *stats += sf;
        merged += crate::heuristic::estimate_cycles(machine, prob, &pg);
        free += crate::heuristic::estimate_cycles(machine, prob, &pf);
    }
    // merging removes the inter-op barriers
    let barrier_savings = (group.len() - 1) as f64 * gc_machine::cost::barrier_cycles(machine);
    merged <= free + barrier_savings
}

/// Pick the shared (MB, task-count) decomposition for a coarse group:
/// row-only parallelism sized to the machine.
///
/// The tile keeps `MB >= 4` whenever 4 divides m, even if that leaves
/// fewer row-tasks than cores. Shrinking MB to 1 or 2 only to manufacture
/// row-tasks would leave most of the microkernel's 2–4-row register tile
/// empty and multiply the per-call overhead of every member; a group
/// whose shared decomposition still loses to free per-member parameters
/// is split by `group_profitable`.
fn group_decomposition(machine: &MachineDescriptor, batch: usize, m: usize) -> (usize, usize) {
    if batch >= machine.cores {
        // batch parallelism suffices; keep comfortable tiles
        return (crate::largest_divisor_at_most(m, 32), batch);
    }
    let want_mpn = machine.cores.div_ceil(batch);
    let mb_floor = if m.is_multiple_of(4) { 4 } else { 1 };
    // choose mb as large as possible while still allowing >= want_mpn
    // row-tasks (or as many as m allows)
    let mut best = (
        mb_floor,
        batch * crate::largest_divisor_at_most(m / mb_floor, want_mpn),
    );
    for mb in (mb_floor..=32).rev() {
        if !m.is_multiple_of(mb) {
            continue;
        }
        let m_tiles = m / mb;
        // mpn = largest divisor of m_tiles <= want_mpn
        let mpn = (1..=m_tiles.min(want_mpn))
            .rev()
            .find(|d| m_tiles.is_multiple_of(*d))
            .unwrap_or(1);
        let tasks = batch * mpn;
        let better = tasks >= best.1 || (tasks == best.1 && mb > best.0);
        if better {
            best = (mb, tasks);
            if mpn == want_mpn {
                break;
            }
        }
    }
    best
}

fn remap_stmt(s: Stmt, param_map: &[BufId], local_off: usize, var_off: usize) -> Stmt {
    match s {
        Stmt::For {
            var,
            extent,
            parallel,
            body,
        } => Stmt::For {
            var: gc_tir::VarId(var.0 + var_off),
            extent,
            parallel,
            body: body
                .into_iter()
                .map(|b| remap_stmt(b, param_map, local_off, var_off))
                .collect(),
        },
        Stmt::Op(mut i) => {
            i.map_exprs(|e| shift_vars(e, var_off));
            for o in &mut i.operands {
                o.buf = match o.buf {
                    BufId::Param(p) => param_map[p],
                    BufId::Local(l) => BufId::Local(l + local_off),
                };
            }
            Stmt::Op(i)
        }
    }
}

fn shift_vars(e: &Expr, off: usize) -> Expr {
    match e {
        Expr::Const(_) => e.clone(),
        Expr::Var(v) => Expr::Var(gc_tir::VarId(v.0 + off)),
        Expr::Add(a, b) => Expr::Add(Box::new(shift_vars(a, off)), Box::new(shift_vars(b, off))),
        Expr::Mul(a, b) => Expr::Mul(Box::new(shift_vars(a, off)), Box::new(shift_vars(b, off))),
        Expr::Div(a, b) => Expr::Div(Box::new(shift_vars(a, off)), Box::new(shift_vars(b, off))),
        Expr::Rem(a, b) => Expr::Rem(Box::new(shift_vars(a, off)), Box::new(shift_vars(b, off))),
    }
}
