//! Multi-core performance projection.
//!
//! The paper evaluates on a 32-core Xeon 8358; this container has one
//! core. The projector replays a compiled module's memory trace through
//! `gc-machine`'s cache simulator and charges compute cycles per
//! intrinsic from the analytical model, projecting what the code would
//! cost on the target machine:
//!
//! - a parallel loop simulates one representative iteration and scales
//!   by `ceil(extent / cores)` (template decompositions give every core
//!   a statistically identical slice), plus one barrier;
//! - per intrinsic, memory and compute overlap: the charge is
//!   `max(compute, memory)` — the roofline behaviour real kernels show;
//! - every entry call costs one dispatch overhead (the framework API
//!   cost the compiled partition amortizes over the whole subgraph).

use crate::expr::VarId;
use crate::ir::{BufId, Func, Intrinsic, Module, Op, Stmt, MAX_CLAMPS};
use crate::visit::accesses_of;
use gc_machine::{cost, CacheHierarchy, MachineDescriptor};
use std::collections::HashMap;

/// Result of projecting one module execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Projection {
    /// Total projected cycles for one execution (main stage).
    pub cycles: f64,
    /// Compute-bound portion.
    pub compute_cycles: f64,
    /// Memory-bound portion.
    pub memory_cycles: f64,
    /// Synchronization (barriers) portion.
    pub sync_cycles: f64,
    /// Dispatch-overhead portion.
    pub dispatch_cycles: f64,
    /// Cycles per function, in call order.
    pub per_call: Vec<f64>,
}

impl Projection {
    /// Projected milliseconds on `machine`.
    pub fn millis(&self, machine: &MachineDescriptor) -> f64 {
        machine.cycles_to_ms(self.cycles)
    }
}

struct SimCtx<'a> {
    machine: &'a MachineDescriptor,
    cache: CacheHierarchy,
    /// base synthetic address per (call-scope buffer)
    param_base: Vec<u64>,
    local_base: Vec<u64>,
    elem_size: HashMap<(usize, bool), usize>,
    compute: f64,
    memory: f64,
}

const GLOBAL_REGION: u64 = 1 << 32;
const LOCAL_REGION: u64 = 1 << 44;

/// Project the cost of one full execution of the module's main calls.
///
/// `dispatch_count` is the number of user-visible API calls this module
/// corresponds to (1 for a compiled partition; the baseline executor
/// passes one per primitive).
pub fn project(module: &Module, machine: &MachineDescriptor, dispatch_count: usize) -> Projection {
    let mut proj = Projection::default();
    // assign synthetic base addresses to globals
    let mut global_base = Vec::with_capacity(module.globals.len());
    let mut cursor = GLOBAL_REGION;
    for g in &module.globals {
        global_base.push(cursor);
        cursor += align64((g.elems * g.dtype.size_bytes()) as u64) + 64;
    }
    // Locals live in a shared (arena-like) region reused across calls.
    let mut cache = CacheHierarchy::for_core(machine);
    for call in &module.main_calls {
        let func = &module.funcs[call.func];
        let mut local_base = Vec::with_capacity(func.locals.len());
        let mut lcur = LOCAL_REGION;
        for l in &func.locals {
            local_base.push(lcur);
            lcur += align64((l.elems * l.dtype.size_bytes()) as u64) + 64;
        }
        let mut elem_size = HashMap::new();
        for (i, p) in func.params.iter().enumerate() {
            elem_size.insert((i, true), p.dtype.size_bytes());
        }
        for (i, l) in func.locals.iter().enumerate() {
            elem_size.insert((i, false), l.dtype.size_bytes());
        }
        let mut ctx = SimCtx {
            machine,
            cache,
            param_base: call.args.iter().map(|&a| global_base[a]).collect(),
            local_base,
            elem_size,
            compute: 0.0,
            memory: 0.0,
        };
        let mut vars = vec![0i64; func.var_count];
        let mut sync = 0.0;
        let cycles = sim_stmts(&func.body, func, &mut ctx, &mut vars, &mut sync);
        proj.per_call.push(cycles + sync);
        proj.cycles += cycles + sync;
        proj.compute_cycles += ctx.compute;
        proj.memory_cycles += ctx.memory;
        proj.sync_cycles += sync;
        cache = ctx.cache;
    }
    let disp = cost::dispatch_cycles(machine) * dispatch_count as f64;
    proj.dispatch_cycles = disp;
    proj.cycles += disp;
    proj
}

fn align64(x: u64) -> u64 {
    (x + 63) & !63
}

fn sim_stmts(
    stmts: &[Stmt],
    func: &Func,
    ctx: &mut SimCtx<'_>,
    vars: &mut Vec<i64>,
    sync: &mut f64,
) -> f64 {
    let mut cycles = 0.0;
    for s in stmts {
        cycles += sim_stmt(s, func, ctx, vars, sync);
    }
    cycles
}

fn sim_stmt(
    stmt: &Stmt,
    func: &Func,
    ctx: &mut SimCtx<'_>,
    vars: &mut Vec<i64>,
    sync: &mut f64,
) -> f64 {
    match stmt {
        Stmt::For {
            var,
            extent,
            parallel,
            body,
        } => {
            if var.0 >= vars.len() {
                vars.resize(var.0 + 1, 0);
            }
            if *parallel {
                // one representative iteration, scaled by waves
                set(vars, *var, 0);
                let one = sim_stmts(body, func, ctx, vars, sync);
                let waves = extent.div_ceil(ctx.machine.cores);
                *sync += cost::barrier_cycles(ctx.machine);
                if waves > 1 {
                    // the representative core worked through other
                    // tasks' data after iteration 0; whatever locality
                    // iteration 0 built is gone
                    ctx.cache.evict_contents();
                } else {
                    // single wave: the core ran exactly one task, but
                    // after the barrier the runtime reassigns tasks to
                    // whichever core frees up first, so private-cache
                    // (L1/L2) locality does not survive into the next
                    // parallel region. The shared LLC does — this is
                    // the cross-layer reuse term that separates a
                    // merged schedule (producer tile consumed inside
                    // the same region, register/L1 hot) from a split
                    // one (re-read through the LLC after the barrier).
                    ctx.cache.evict_private_contents();
                }
                one * waves as f64
            } else {
                let mut total = 0.0;
                for i in 0..*extent {
                    set(vars, *var, i as i64);
                    total += sim_stmts(body, func, ctx, vars, sync);
                }
                total
            }
        }
        Stmt::Op(i) => sim_intrinsic(i, ctx, vars),
    }
}

fn set(vars: &mut [i64], var: VarId, v: i64) {
    vars[var.0] = v;
}

fn sim_intrinsic(i: &Intrinsic, ctx: &mut SimCtx<'_>, vars: &[i64]) -> f64 {
    // The sim has concrete loop indices, so it evaluates the clamps and
    // replays the exact windows this call touches: the static envelope
    // the validator sees (the whole logical region, clamp bases
    // excluded) would wildly overstate edge-tile cache traffic.
    let mut bases = [0usize; MAX_CLAMPS];
    for (slot, c) in bases.iter_mut().zip(&i.clamps) {
        *slot = c.eval(vars).max(0) as usize;
    }
    // memory: replay every access through the cache hierarchy
    let mut mem = 0u64;
    for a in accesses_of(i, &i.op.desc(Some(&bases))) {
        let (base, es) = match a.buf {
            BufId::Param(p) => (ctx.param_base[p], ctx.elem_size[&(p, true)]),
            BufId::Local(l) => (ctx.local_base[l], ctx.elem_size[&(l, false)]),
        };
        let off = a.offset.eval(vars).max(0) as u64;
        mem += ctx
            .cache
            .access(base + off * es as u64, (a.len * es) as u64);
    }
    let comp = compute_cycles(&i.op, ctx.machine);
    ctx.compute += comp;
    ctx.memory += mem as f64;
    comp.max(mem as f64)
}

/// Compute-side cycles of one call from the analytical model.
fn compute_cycles(op: &Op, machine: &MachineDescriptor) -> f64 {
    let lanes = machine.f32_lanes() as f64;
    let brgemm = |g: &crate::ir::Brgemm, elem_bytes: usize| {
        let eff = cost::microkernel_efficiency(machine, g.m, g.n, g.k, g.batch, elem_bytes);
        let flops = 2.0 * (g.m * g.n * g.k * g.batch) as f64;
        cost::compute_cycles(machine, flops, elem_bytes, eff)
    };
    // strided gathers/scatters don't vectorize as well; the padded
    // variant still touches every dst element (zero fill)
    let copy = |g: &crate::ir::Copy2D| {
        let per = if g.col_stride == 1 { 1.0 } else { 4.0 };
        per * (g.rows * g.cols) as f64 / lanes
    };
    match op {
        Op::BrgemmF32(g) => brgemm(g, 4),
        Op::BrgemmU8I8(g) => brgemm(g, 1),
        // vectorized elementwise: ~1 op per element
        Op::QuantU8 { len, .. }
        | Op::DequantU8 { len, .. }
        | Op::DequantI8 { len, .. }
        | Op::CastI32F32 { len }
        | Op::FillF32 { len, .. }
        | Op::ZeroI32 { len } => *len as f64 / lanes,
        Op::ReduceRows { rows, cols, .. } => (rows * cols) as f64 / lanes,
        Op::DequantAcc { rows, cols, .. } => 2.0 * (rows * cols) as f64 / lanes,
        Op::Pack2D(g) | Op::Unpack2D(g) | Op::Pack2DPad { g, .. } | Op::Unpack2DClamp { g, .. } => {
            copy(g)
        }
        Op::CompAccumulate { nb, kb } => (nb * kb) as f64 / 16.0,
        // one vector op per element per step (a storing chain with no
        // steps is a copy)
        Op::RowChain(c) => (c.elems() * c.steps().len().max(1)) as f64 / lanes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::ir::{BufDecl, Call, GlobalDecl, GlobalKind, View};
    use gc_microkernel::UnaryOp;
    use gc_tensor::DataType;

    fn relu_module(elems: usize, parallel: bool, chunks: usize) -> Module {
        let mut f = Func {
            name: "relu".into(),
            params: vec![
                BufDecl::new(DataType::F32, elems, "in"),
                BufDecl::new(DataType::F32, elems, "out"),
            ],
            locals: vec![],
            var_count: 0,
            body: vec![],
        };
        let v = f.fresh_var();
        let per = elems / chunks;
        f.body.push(Stmt::For {
            var: v,
            extent: chunks,
            parallel,
            body: vec![Stmt::Op(Intrinsic::new(
                crate::ir::unary_chain(UnaryOp::Relu, per),
                [
                    View::new(BufId::Param(0), Expr::v(v).mul(Expr::from(per)), per),
                    View::new(BufId::Param(1), Expr::v(v).mul(Expr::from(per)), per),
                ],
                [],
            ))],
        });
        let mut m = Module::new();
        let fi = m.add_func(f);
        m.add_global(GlobalDecl {
            dtype: DataType::F32,
            elems,
            kind: GlobalKind::Input(0),
            name: "in".into(),
        });
        m.add_global(GlobalDecl {
            dtype: DataType::F32,
            elems,
            kind: GlobalKind::Output(0),
            name: "out".into(),
        });
        m.main_calls.push(Call {
            func: fi,
            args: vec![0, 1],
        });
        m
    }

    #[test]
    fn parallel_projection_is_faster() {
        let machine = MachineDescriptor::xeon_8358();
        let serial = project(&relu_module(1 << 20, false, 64), &machine, 1);
        let parallel = project(&relu_module(1 << 20, true, 64), &machine, 1);
        assert!(
            parallel.cycles < serial.cycles / 4.0,
            "parallel {} vs serial {}",
            parallel.cycles,
            serial.cycles
        );
    }

    #[test]
    fn dispatch_overhead_scales_with_count() {
        let machine = MachineDescriptor::xeon_8358();
        let m = relu_module(1 << 12, false, 4);
        let one = project(&m, &machine, 1);
        let five = project(&m, &machine, 5);
        let d = cost::dispatch_cycles(&machine);
        assert!((five.cycles - one.cycles - 4.0 * d).abs() < 1e-6);
    }

    #[test]
    fn bigger_work_costs_more() {
        let machine = MachineDescriptor::xeon_8358();
        let small = project(&relu_module(1 << 12, false, 4), &machine, 1);
        let big = project(&relu_module(1 << 18, false, 4), &machine, 1);
        assert!(big.cycles > small.cycles);
    }

    #[test]
    fn barrier_counted_per_parallel_loop() {
        let machine = MachineDescriptor::xeon_8358();
        let p = project(&relu_module(1 << 12, true, 4), &machine, 1);
        assert!((p.sync_cycles - cost::barrier_cycles(&machine)).abs() < 1e-9);
    }

    #[test]
    fn brgemm_compute_dominates_for_large_tiles() {
        let machine = MachineDescriptor::xeon_8358();
        let mut f = Func {
            name: "mm".into(),
            params: vec![
                BufDecl::new(DataType::F32, 64 * 64, "a"),
                BufDecl::new(DataType::F32, 64 * 64, "b"),
                BufDecl::new(DataType::F32, 64 * 64, "c"),
            ],
            locals: vec![],
            var_count: 0,
            body: vec![Stmt::Op(Intrinsic::new(
                Op::BrgemmF32(crate::ir::Brgemm {
                    m: 64,
                    n: 64,
                    k: 64,
                    batch: 1,
                    a_stride: 0,
                    b_stride: 0,
                }),
                [
                    View::new(BufId::Param(0), 0usize, 64 * 64),
                    View::new(BufId::Param(1), 0usize, 64 * 64),
                    View::new(BufId::Param(2), 0usize, 64 * 64),
                ],
                [],
            ))],
        };
        f.var_count = 0;
        let mut m = Module::new();
        let fi = m.add_func(f);
        for n in ["a", "b", "c"] {
            m.add_global(GlobalDecl {
                dtype: DataType::F32,
                elems: 64 * 64,
                kind: GlobalKind::Scratch,
                name: n.into(),
            });
        }
        m.main_calls.push(Call {
            func: fi,
            args: vec![0, 1, 2],
        });
        let p = project(&m, &machine, 0);
        assert!(p.compute_cycles > 0.0);
        assert!(p.cycles >= p.compute_cycles.max(p.memory_cycles));
    }
}
