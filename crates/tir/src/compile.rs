//! Plan compilation: Tensor IR functions → flat execution plans.
//!
//! [`compile_module`] lowers every function of a [`Module`] into the
//! [`crate::plan`] representation, performing at build time the work the
//! interpreter repeats per iteration:
//!
//! - **offset strength reduction** — every [`Expr`] offset is reduced to
//!   `base + Σ stride_v · var_v` when affine, or a flat postfix program
//!   when it contains `div`/`rem`;
//! - **bounds hoisting** — interval analysis over loop extents proves
//!   each view access in bounds for *all* iterations, so the compiled
//!   path does no per-access checking (a dtype mismatch or unprovable
//!   bound rejects the function instead);
//! - **brgemm table precomputation** — batch-offset tables depend only
//!   on static strides, so they are materialized once per op;
//! - **grain selection** — each parallel loop stores the chunk size the
//!   pool should dispatch, computed from the thread count;
//! - **dispatch-worthiness** — a parallel loop whose *total* work (from
//!   the static shapes of every op it encloses) is smaller than the cost
//!   of waking the pool is demoted to a serial loop. The interpreter
//!   discovers loop bodies one iteration at a time and cannot make this
//!   call;
//! - **global roles** — from the operand roles of every call, no call
//!   may write a global its stage only reads: an input, a `Weight`, or
//!   in the main stage a constant (a `Persistent` global, or any global
//!   an init call writes). Executions then bind those globals to shared
//!   buffers instead of private copies;
//! - **written-before-read locals** — a local whose every read element
//!   is provably written earlier in the same call is not zeroed per
//!   call.
//!
//! A rejected function keeps its `Reject` reason in the plan, and a
//! compiled executable refuses to run a module with one (or with a call
//! that breaks a global's role): nothing leaves the compiled path
//! silently. Lowered modules pass the validator first, which checks
//! dtypes, arity and bounds with the same descriptors and interval
//! tracker as the builder.

use crate::bounds::VarScope;
use crate::expr::{Expr, VarId};
use crate::ir::{BufId, Footprint, Func, GlobalKind, Intrinsic, Module, Role, Stmt};
use crate::plan::{
    OffsetOp, PInstr, POperand, Plan, PlanFunc, PlanLocal, PlanOffset, PlanOp, PlanStats,
    RoleReject, MAX_PROG_STACK, MAX_VARS,
};
use crate::visit::visit_intrinsics;
use gc_tensor::DataType;

/// Compile every function of `module`; `threads` sizes parallel-loop
/// grains (pass the executing pool's thread count).
pub fn compile_module(module: &Module, threads: usize) -> Plan {
    let mut stats = PlanStats::default();
    let writes: Vec<Box<[bool]>> = module.funcs.iter().map(written_params).collect();
    let funcs = module
        .funcs
        .iter()
        .map(|f| match FuncBuilder::new(f, threads.max(1)).build() {
            Ok((instrs, fs)) => {
                stats.compiled_funcs += 1;
                stats.hoisted_bounds += fs.hoisted_bounds;
                stats.linear_offsets += fs.linear_offsets;
                stats.program_offsets += fs.program_offsets;
                stats.brgemm_tables += fs.brgemm_tables;
                stats.serialized_loops += fs.serialized_loops;
                let locals: Box<[PlanLocal]> = f
                    .locals
                    .iter()
                    .zip(written_first(f))
                    .map(|(d, written_first)| PlanLocal {
                        dtype: d.dtype,
                        elems: d.elems,
                        written_first,
                    })
                    .collect();
                stats.zeroed_locals += locals.iter().filter(|l| !l.written_first).count();
                Ok(PlanFunc {
                    instrs,
                    params: f.params.iter().map(|d| (d.dtype, d.elems)).collect(),
                    locals,
                })
            }
            Err(r) => {
                stats.interpreted_funcs += 1;
                Err(r)
            }
        })
        .collect();
    Plan {
        funcs,
        roles: check_roles(module, &writes),
        writes: writes.into_boxed_slice(),
        stats,
    }
}

/// Per parameter of `f`: whether some op writes it (a `Write` or
/// `Accumulate` operand role).
pub(crate) fn written_params(f: &Func) -> Box<[bool]> {
    let mut writes = vec![false; f.params.len()];
    visit_intrinsics(&f.body, &mut |i| {
        for (o, spec) in i.operands.iter().zip(i.op.desc(None).operands()) {
            if let (BufId::Param(p), Role::Write | Role::Accumulate) = (o.buf, spec.role) {
                writes[p] = true;
            }
        }
    });
    writes.into_boxed_slice()
}

/// Per global of `module`: whether some init call writes it, given the
/// per-function parameter flags of [`written_params`]. Such a global is
/// an init product, a constant of the main stage, whatever its kind.
pub(crate) fn init_products(module: &Module, writes: &[Box<[bool]>]) -> Vec<bool> {
    let mut products = vec![false; module.globals.len()];
    for c in &module.init_calls {
        for (&global, &w) in c.args.iter().zip(writes[c.func].iter()) {
            products[global] |= w;
        }
    }
    products
}

/// The first call (init calls, then main calls) that writes a global
/// its stage may only read. Inputs and `Weight`s are read-only in both
/// stages: executions read them in place from the caller's and the
/// executable's tensors. `Persistent` globals and every global an init
/// call writes are the init stage's product and read-only in the main
/// stage, where every execution shares one copy.
fn check_roles(module: &Module, writes: &[Box<[bool]>]) -> Result<(), RoleReject> {
    let init = module.init_calls.len();
    let products = init_products(module, writes);
    for (call, c) in module
        .init_calls
        .iter()
        .chain(&module.main_calls)
        .enumerate()
    {
        for (&global, &w) in c.args.iter().zip(writes[c.func].iter()) {
            let main = call >= init;
            let why = match module.globals[global].kind {
                _ if !w => continue,
                GlobalKind::Input(_) => Reject::WritesInput,
                GlobalKind::Weight => Reject::WritesConstant,
                GlobalKind::Persistent if main => Reject::WritesConstant,
                _ if main && products[global] => Reject::WritesConstant,
                _ => continue,
            };
            return Err(RoleReject { call, global, why });
        }
    }
    Ok(())
}

/// An affine offset with each variable resolved to the loop that binds
/// it: `(constant, [(loop, coefficient)])`.
type BoundOffset = (i64, Vec<(usize, i64)>);

/// One operand of an op on a local, in program order.
struct LocalAccess {
    /// Index of the op in program order.
    op: usize,
    role: Role,
    dense: bool,
    span: usize,
    /// Enclosing loops, outermost first (indices into the loop table).
    loops: Vec<usize>,
    /// `None` when the offset is not affine in bound variables.
    offset: Option<BoundOffset>,
}

/// Per local of `f`: whether every element a call reads was written
/// earlier in the same call, so the call need not zero the local first.
///
/// The proof starts from the local's first access in program order,
/// which must be the op's only operand on the local, a `Write` of a
/// dense window. It then climbs that op's enclosing loops, innermost
/// first, keeping the window one iteration of the current loop has
/// written. At each loop, every other access inside the loop's body must
/// lie inside the window of the same iteration. Leaving the loop, the
/// window stays as it was when it does not move with the loop variable
/// (or the loop runs once), and grows to `extent` windows when
/// consecutive iterations tile it; any other loop, including one that
/// runs no iteration, ends the climb. The accesses outside every
/// climbed loop must lie inside the final window. Every step is a
/// sufficient condition: an unproven local is zeroed as before.
pub(crate) fn written_first(f: &Func) -> Vec<bool> {
    let mut loops: Vec<(VarId, usize)> = Vec::new();
    let mut accesses: Vec<Vec<LocalAccess>> = f.locals.iter().map(|_| Vec::new()).collect();
    let mut scope = VarScope::new(f.var_count);
    collect_local_accesses(
        &f.body,
        &mut Vec::new(),
        &mut loops,
        &mut scope,
        &mut accesses,
        &mut 0,
    );
    accesses
        .iter()
        .map(|acc| acc.is_empty() || proves_written_first(acc, &loops))
        .collect()
}

/// Every access to a local in `stmts`, in program order. `stack` holds
/// the enclosing loops (indices into `loops`) and `scope` their ranges.
fn collect_local_accesses(
    stmts: &[Stmt],
    stack: &mut Vec<usize>,
    loops: &mut Vec<(VarId, usize)>,
    scope: &mut VarScope,
    out: &mut [Vec<LocalAccess>],
    ops: &mut usize,
) {
    for s in stmts {
        match s {
            Stmt::For {
                var,
                extent,
                parallel,
                body,
            } => {
                stack.push(loops.len());
                loops.push((*var, *extent));
                let saved = scope.enter(*var, *extent);
                collect_local_accesses(body, stack, loops, scope, out, ops);
                if let Some(saved) = saved {
                    scope.exit(*var, *extent, *parallel, saved);
                }
                stack.pop();
            }
            Stmt::Op(i) => {
                for (o, spec) in i.operands.iter().zip(i.op.desc(None).operands()) {
                    if let BufId::Local(local) = o.buf {
                        let offset = linearize(&o.offset, scope).and_then(|(base, terms)| {
                            let bound = terms.into_iter().map(|(v, c)| {
                                let uid =
                                    stack.iter().rev().find(|&&u| loops[u].0 .0 == v as usize)?;
                                Some((*uid, c))
                            });
                            Some((base, bound.collect::<Option<Vec<_>>>()?))
                        });
                        out[local].push(LocalAccess {
                            op: *ops,
                            role: spec.role,
                            dense: matches!(spec.footprint, Footprint::Dense(_)),
                            span: spec.footprint.span(),
                            loops: stack.clone(),
                            offset,
                        });
                    }
                }
                *ops += 1;
            }
        }
    }
}

/// The climb [`written_first`] documents, over one local's accesses in
/// program order.
fn proves_written_first(acc: &[LocalAccess], loops: &[(VarId, usize)]) -> bool {
    let first = &acc[0];
    let only_operand = acc.get(1).is_none_or(|a| a.op != first.op);
    let (true, true, Role::Write, Some((base, terms))) =
        (only_operand, first.dense, first.role, &first.offset)
    else {
        return false;
    };
    let (mut terms, mut width) = (terms.clone(), first.span as i128);
    let mut done = vec![false; acc.len()];
    done[0] = true;
    for &lp in first.loops.iter().rev() {
        for (a, d) in acc.iter().zip(done.iter_mut()) {
            if !*d && a.loops.contains(&lp) {
                if !inside(a, *base, &terms, width, loops) {
                    return false;
                }
                *d = true;
            }
        }
        let extent = loops[lp].1 as i128;
        let coef = terms.iter().find(|t| t.0 == lp).map_or(0, |t| t.1 as i128);
        terms.retain(|t| t.0 != lp);
        if extent == 0 {
            return false;
        } else if coef == width && extent > 1 {
            width *= extent;
        } else if coef != 0 && extent > 1 {
            return false;
        }
    }
    acc.iter()
        .zip(&done)
        .all(|(a, &d)| d || inside(a, *base, &terms, width, loops))
}

/// Whether access `a` stays inside the window `[base + Σ terms, + width)`
/// for every value of the loop variables only `a` depends on. The
/// window's own loops enclose `a` too, so their variables are shared.
fn inside(
    a: &LocalAccess,
    base: i64,
    terms: &[(usize, i64)],
    width: i128,
    loops: &[(VarId, usize)],
) -> bool {
    let Some((a_base, a_terms)) = &a.offset else {
        return false;
    };
    let mut diff: Vec<(usize, i128)> = a_terms.iter().map(|&(l, c)| (l, c as i128)).collect();
    for &(l, c) in terms {
        match diff.iter_mut().find(|d| d.0 == l) {
            Some(d) => d.1 -= c as i128,
            None => diff.push((l, -(c as i128))),
        }
    }
    let (mut lo, mut hi) = (
        *a_base as i128 - base as i128,
        *a_base as i128 - base as i128,
    );
    for (l, c) in diff {
        let top = loops[l].1.saturating_sub(1) as i128 * c;
        if c > 0 {
            hi += top;
        } else {
            lo += top;
        }
    }
    lo >= 0 && hi + a.span as i128 <= width
}

/// Why the plan builder rejected a function. Internal: the engine names
/// it in the error a compiled executable returns, and tests assert on
/// specific reasons.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Reject {
    /// More scalar variables than the fixed scratch holds, or a loop
    /// binding a variable the function never declared.
    TooManyVars,
    /// An offset's range could not be bounded (or overflowed i64).
    Unbounded,
    /// A proven-possible out-of-range access (negative offset or
    /// overrun) — the interpreter's debug assertions would fire too.
    OutOfBounds,
    /// Buffer dtype disagrees with the intrinsic's access type.
    DtypeMismatch,
    /// A postfix offset program exceeded the fixed stack.
    ProgramTooDeep,
    /// Operand or clamp count disagrees with the op's descriptor.
    Arity,
    /// A call writes an execution input, which executions read in place
    /// from the caller's tensor.
    WritesInput,
    /// A call writes a constant: a `Weight` in either stage, or in the
    /// main stage a `Persistent` global or one an init call writes.
    /// Executions share one copy.
    WritesConstant,
}

struct FuncStats {
    hoisted_bounds: usize,
    linear_offsets: usize,
    program_offsets: usize,
    brgemm_tables: usize,
    serialized_loops: usize,
}

/// Minimum total work (in [`op_units`]) a parallel loop must enclose
/// for pool dispatch to pay for itself. Below this, waking worker
/// threads and the closing barrier cost more than the loop body — the
/// loop is emitted serial. Calibrated against the pool's wake+barrier
/// latency (tens of microseconds) at roughly one unit per element-op.
const PARALLEL_MIN_UNITS: u64 = 1 << 18;

struct FuncBuilder<'f> {
    func: &'f Func,
    threads: usize,
    /// Variable intervals at the emission point.
    scope: VarScope,
    stats: FuncStats,
}

impl<'f> FuncBuilder<'f> {
    fn new(func: &'f Func, threads: usize) -> Self {
        FuncBuilder {
            func,
            threads,
            scope: VarScope::new(func.var_count),
            stats: FuncStats {
                hoisted_bounds: 0,
                linear_offsets: 0,
                program_offsets: 0,
                brgemm_tables: 0,
                serialized_loops: 0,
            },
        }
    }

    fn build(mut self) -> Result<(Box<[PInstr]>, FuncStats), Reject> {
        if self.func.var_count > MAX_VARS {
            return Err(Reject::TooManyVars);
        }
        let mut instrs = Vec::new();
        self.emit_stmts(&self.func.body, &mut instrs)?;
        Ok((instrs.into_boxed_slice(), self.stats))
    }

    fn emit_stmts(&mut self, stmts: &[Stmt], out: &mut Vec<PInstr>) -> Result<(), Reject> {
        for s in stmts {
            match s {
                Stmt::For {
                    var,
                    extent,
                    parallel,
                    body,
                } => {
                    let header = out.len();
                    // Placeholder patched once the body length is known.
                    out.push(PInstr::For {
                        var: var.0 as u32,
                        extent: *extent,
                        body_end: 0,
                    });
                    let saved = self.scope.enter(*var, *extent).ok_or(Reject::TooManyVars)?;
                    self.emit_stmts(body, out)?;
                    self.scope.exit(*var, *extent, *parallel, saved);
                    let body_end = out.len();
                    let dispatch = *parallel
                        && self.threads > 1
                        && *extent as u64 * range_units(out, header + 1, body_end)
                            >= PARALLEL_MIN_UNITS;
                    if *parallel && !dispatch {
                        self.stats.serialized_loops += 1;
                    }
                    out[header] = if dispatch {
                        PInstr::ParFor {
                            var: var.0 as u32,
                            extent: *extent,
                            body_end,
                            grain: (*extent / (self.threads * 4)).max(1),
                        }
                    } else {
                        PInstr::For {
                            var: var.0 as u32,
                            extent: *extent,
                            body_end,
                        }
                    };
                }
                Stmt::Op(intr) => {
                    let op = self.compile_intrinsic(intr)?;
                    out.push(PInstr::Op(op));
                }
            }
        }
        Ok(())
    }

    /// Buffer declaration for a [`BufId`]: `(flat index, dtype, elems)`.
    fn buf_decl(&self, id: BufId) -> (u32, DataType, usize) {
        match id {
            BufId::Param(i) => {
                let d = &self.func.params[i];
                // Module validation guarantees every bound global has at
                // least the parameter's declared elems, so the declared
                // size is the safe hoisting bound.
                (i as u32, d.dtype, d.elems)
            }
            BufId::Local(i) => {
                let d = &self.func.locals[i];
                ((self.func.params.len() + i) as u32, d.dtype, d.elems)
            }
        }
    }

    /// Compile an offset expression and prove `0 <= offset` and
    /// `offset + span <= elems` for all iterations.
    fn compile_offset(
        &mut self,
        offset: &Expr,
        span: usize,
        elems: usize,
    ) -> Result<PlanOffset, Reject> {
        let (lo, hi) = self.scope.interval(offset).ok_or(Reject::Unbounded)?;
        if lo < 0 || (hi as i128) + (span as i128) > elems as i128 {
            return Err(Reject::OutOfBounds);
        }
        self.stats.hoisted_bounds += 1;
        self.reduce_offset(offset)
    }

    /// Strength-reduce an already-bounded expression to a
    /// [`PlanOffset`].
    fn reduce_offset(&mut self, offset: &Expr) -> Result<PlanOffset, Reject> {
        let compiled = match linearize(offset, &self.scope) {
            Some((base, terms)) => {
                self.stats.linear_offsets += 1;
                if terms.is_empty() {
                    PlanOffset::Const(base)
                } else {
                    PlanOffset::Linear {
                        base,
                        terms: terms.into_boxed_slice(),
                    }
                }
            }
            None => {
                let mut ops = Vec::new();
                emit_program(offset, &mut ops, 0)?;
                self.stats.program_offsets += 1;
                PlanOffset::Program(ops.into_boxed_slice())
            }
        };
        Ok(compiled)
    }

    /// Compile an axis-clamp base expression. The only static
    /// requirement is non-negativity: the upper side is enforced by the
    /// runtime clamp against the logical extent, and the buffer span is
    /// proven separately from the base-excluded offset.
    fn compile_clamp_base(&mut self, base: &Expr) -> Result<PlanOffset, Reject> {
        let (lo, _) = self.scope.interval(base).ok_or(Reject::Unbounded)?;
        if lo < 0 {
            return Err(Reject::OutOfBounds);
        }
        self.reduce_offset(base)
    }

    /// Compile one intrinsic from its descriptor: operand arity and
    /// dtypes, every operand's static span proven in bounds, clamp
    /// bases proven non-negative, brgemm tables materialized.
    fn compile_intrinsic(&mut self, intr: &Intrinsic) -> Result<PlanOp, Reject> {
        let desc = intr.op.desc(None);
        let specs = desc.operands();
        if !desc.fits(intr) {
            return Err(Reject::Arity);
        }
        let dtypes = intr.operands.iter().map(|o| self.buf_decl(o.buf).1);
        if !desc.dtypes_ok(dtypes) {
            return Err(Reject::DtypeMismatch);
        }
        let mut operands = std::array::from_fn(|_| POperand {
            buf: 0,
            offset: PlanOffset::Const(0),
            span: 0,
        });
        for ((slot, o), spec) in operands.iter_mut().zip(&intr.operands).zip(specs) {
            let (buf, _, elems) = self.buf_decl(o.buf);
            let span = spec.footprint.span();
            *slot = POperand {
                buf,
                offset: self.compile_offset(&o.offset, span, elems)?,
                span,
            };
        }
        let mut clamps = std::array::from_fn(|_| PlanOffset::Const(0));
        for (slot, base) in clamps.iter_mut().zip(&intr.clamps) {
            *slot = self.compile_clamp_base(base)?;
        }
        let tables = desc.tables();
        self.stats.brgemm_tables += tables.iter().filter(|t| !t.is_empty()).count();
        Ok(PlanOp {
            op: intr.op,
            n_operands: specs.len() as u8,
            n_clamps: intr.clamps.len() as u8,
            operands,
            clamps,
            tables,
        })
    }
}

/// Per-op fixed cost in units — covers offset evaluation and the call
/// into the microkernel, so loops of many tiny ops still register.
const OP_OVERHEAD_UNITS: u64 = 64;

/// Static work estimate for one compiled op, in element-op units.
fn op_units(op: &PlanOp) -> u64 {
    OP_OVERHEAD_UNITS + op.op.desc(None).work()
}

/// Total work of `instrs[start..end]` for one pass, multiplying nested
/// loop bodies by their extents.
fn range_units(instrs: &[PInstr], start: usize, end: usize) -> u64 {
    let mut units = 0u64;
    let mut pc = start;
    while pc < end {
        match &instrs[pc] {
            PInstr::For {
                extent, body_end, ..
            }
            | PInstr::ParFor {
                extent, body_end, ..
            } => {
                units = units.saturating_add((*extent as u64).saturating_mul(range_units(
                    instrs,
                    pc + 1,
                    *body_end,
                )));
                pc = *body_end;
            }
            PInstr::Op(op) => {
                units = units.saturating_add(op_units(op));
                pc += 1;
            }
        }
    }
    units
}

/// Affine decomposition: `Some((base, terms))` with `terms` sorted by
/// variable, or `None` for non-affine expressions. A division or
/// remainder by a positive constant `c` is affine where the loop ranges
/// in `scope` settle it: by 1 it is the numerator (or 0); a numerator
/// that stays within one multiple of `c` (`lo / c == hi / c`, as
/// `x / 32` with `x` in `0..32`) makes the quotient that multiple `q`
/// and the remainder the numerator minus `q * c`.
fn linearize(e: &Expr, scope: &VarScope) -> Option<(i64, Vec<(u32, i64)>)> {
    type Terms = std::collections::BTreeMap<u32, i64>;
    fn go(e: &Expr, scope: &VarScope) -> Option<(i64, Terms)> {
        match e {
            Expr::Const(c) => Some((*c, Terms::new())),
            Expr::Var(VarId(v)) => Some((0, Terms::from([(*v as u32, 1)]))),
            Expr::Add(a, b) => {
                let (ca, mut ma) = go(a, scope)?;
                let (cb, mb) = go(b, scope)?;
                for (v, s) in mb {
                    *ma.entry(v).or_insert(0) += s;
                }
                Some((ca + cb, ma))
            }
            Expr::Mul(a, b) => {
                let (ca, ma) = go(a, scope)?;
                let (cb, mb) = go(b, scope)?;
                if mb.is_empty() {
                    Some((ca * cb, ma.into_iter().map(|(v, s)| (v, s * cb)).collect()))
                } else if ma.is_empty() {
                    Some((ca * cb, mb.into_iter().map(|(v, s)| (v, s * ca)).collect()))
                } else {
                    None // variable × variable: not affine
                }
            }
            Expr::Div(a, b) | Expr::Rem(a, b) => {
                let div = matches!(e, Expr::Div(..));
                let Expr::Const(c) = **b else { return None };
                if c == 1 {
                    return if div {
                        go(a, scope)
                    } else {
                        Some((0, Terms::new()))
                    };
                }
                let (lo, hi) = scope.interval(a)?;
                if c <= 0 || lo < 0 || lo / c != hi / c {
                    return None;
                }
                let q = lo / c;
                if div {
                    Some((q, Terms::new()))
                } else {
                    go(a, scope).map(|(ca, ma)| (ca - q * c, ma))
                }
            }
        }
    }
    let (base, terms) = go(e, scope)?;
    Some((base, terms.into_iter().filter(|&(_, s)| s != 0).collect()))
}

/// Emit a postfix program for `e`, whose value lands at stack height
/// `depth`; rejects a program deeper than the fixed evaluation stack.
fn emit_program(e: &Expr, ops: &mut Vec<OffsetOp>, depth: usize) -> Result<(), Reject> {
    if depth + 1 > MAX_PROG_STACK {
        return Err(Reject::ProgramTooDeep);
    }
    match e {
        Expr::Const(c) => ops.push(OffsetOp::PushC(*c)),
        Expr::Var(VarId(v)) => ops.push(OffsetOp::PushV(*v as u32)),
        Expr::Add(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) | Expr::Rem(a, b) => {
            emit_program(a, ops, depth)?;
            emit_program(b, ops, depth + 1)?;
            ops.push(match e {
                Expr::Add(..) => OffsetOp::Add,
                Expr::Mul(..) => OffsetOp::Mul,
                Expr::Div(..) => OffsetOp::Div,
                _ => OffsetOp::Rem,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::interval;
    use crate::ir::{BufDecl, Op, View};

    fn v(i: usize) -> Expr {
        Expr::v(VarId(i))
    }

    /// Loop ranges with variable `i` bound to `0..extents[i]`.
    fn scope(extents: &[usize]) -> VarScope {
        let mut s = VarScope::new(extents.len());
        for (i, &e) in extents.iter().enumerate() {
            s.enter(VarId(i), e);
        }
        s
    }

    #[test]
    fn linearize_affine() {
        // 3 + v0 * 8 + v1 * 2
        let e = Expr::c(3)
            .add(v(0).mul(Expr::c(8)))
            .add(v(1).mul(Expr::c(2)));
        let (base, terms) = linearize(&e, &scope(&[8, 4])).unwrap();
        assert_eq!(base, 3);
        assert_eq!(terms, vec![(0, 8), (1, 2)]);
    }

    #[test]
    fn linearize_merges_repeated_vars() {
        // v0 * 4 + v0 -> stride 5
        let e = v(0).mul(Expr::c(4)).add(v(0));
        let (base, terms) = linearize(&e, &scope(&[8])).unwrap();
        assert_eq!((base, terms), (0, vec![(0, 5)]));
    }

    #[test]
    fn linearize_rejects_div_and_var_products() {
        let s = scope(&[8, 4]);
        assert!(linearize(&Expr::Div(Box::new(v(0)), Box::new(Expr::c(2))), &s).is_none());
        assert!(linearize(&v(0).mul(v(1)), &s).is_none());
    }

    #[test]
    fn linearize_folds_div_rem_the_loop_ranges_settle() {
        let div = |a: Expr, c: i64| Expr::Div(Box::new(a), Box::new(Expr::c(c)));
        let rem = |a: Expr, c: i64| Expr::Rem(Box::new(a), Box::new(Expr::c(c)));
        let s = scope(&[32, 4]);
        // by 1: the numerator, and 0
        assert_eq!(
            linearize(&div(v(0), 1).add(rem(v(0), 1).add(v(1))), &s),
            Some((0, vec![(0, 1), (1, 1)]))
        );
        // v0 in 0..32: v0 / 32 is 0, v0 % 32 is v0, nested too
        assert_eq!(linearize(&div(v(0), 32), &s), Some((0, vec![])));
        assert_eq!(
            linearize(&rem(rem(v(0), 32), 32), &s),
            Some((0, vec![(0, 1)]))
        );
        // 64 + v1 in 64..68: quotient 2, remainder v1
        let shifted = Expr::c(64).add(v(1));
        assert_eq!(linearize(&div(shifted.clone(), 32), &s), Some((2, vec![])));
        assert_eq!(linearize(&rem(shifted, 32), &s), Some((0, vec![(1, 1)])));
        // crossing a multiple of the divisor, or a variable divisor: not
        // affine
        assert!(linearize(&div(v(0), 16), &s).is_none());
        assert!(linearize(&Expr::Rem(Box::new(v(1)), Box::new(v(0))), &s).is_none());
    }

    #[test]
    fn div_under_a_matching_parallel_range_compiles_affine() {
        // parallel v0 in 0..32: (v0 / 32) * 64 + (v0 % 32) * 4
        let off = Expr::Div(Box::new(v(0)), Box::new(Expr::c(32)))
            .mul(Expr::c(64))
            .add(Expr::Rem(Box::new(v(0)), Box::new(Expr::c(32))).mul(Expr::c(4)));
        let mut f = simple_func(off, 128, 32);
        let Stmt::For { parallel, .. } = &mut f.body[0] else {
            panic!()
        };
        *parallel = true;
        let (pf, fs) = FuncBuilder::new(&f, 1).build().unwrap();
        assert_eq!((fs.program_offsets, fs.linear_offsets), (0, 2));
        let PInstr::Op(op) = &pf[1] else {
            panic!("expected compiled unary");
        };
        assert!(matches!(
            &op.operands()[0].offset,
            PlanOffset::Linear { base: 0, terms } if terms.as_ref() == [(0, 4)]
        ));
        // v0 / 32 over 0..2048 takes 64 values: still a program
        let wide = simple_func(
            Expr::Div(Box::new(v(0)), Box::new(Expr::c(32))).mul(Expr::c(4)),
            256,
            2048,
        );
        let (_, fs) = FuncBuilder::new(&wide, 1).build().unwrap();
        assert_eq!((fs.program_offsets, fs.linear_offsets), (2, 0));
    }

    #[test]
    fn interval_affine_and_divrem() {
        let hi = vec![(0i64, 7i64), (0, 3)];
        // v0 * 8 + v1 in [0, 59]
        let e = v(0).mul(Expr::c(8)).add(v(1));
        assert_eq!(interval(&e, &hi), Some((0, 59)));
        // v0 / 2 in [0, 3]
        let d = Expr::Div(Box::new(v(0)), Box::new(Expr::c(2)));
        assert_eq!(interval(&d, &hi), Some((0, 3)));
        // v0 % 3 in [0, 2]
        let r = Expr::Rem(Box::new(v(0)), Box::new(Expr::c(3)));
        assert_eq!(interval(&r, &hi), Some((0, 2)));
        // division by zero constant is rejected
        let z = Expr::Div(Box::new(v(0)), Box::new(Expr::c(0)));
        assert_eq!(interval(&z, &hi), None);
    }

    #[test]
    fn batch_table_layout() {
        use crate::ir::Footprint::Tiles;
        let tiles = Tiles {
            count: 3,
            stride: 10,
            len: 4,
        };
        assert_eq!(tiles.tile_offsets().as_ref(), &[0, 10, 20]);
        assert_eq!(tiles.span(), 24);
        let none = Tiles {
            count: 0,
            stride: 10,
            len: 4,
        };
        assert!(none.tile_offsets().is_empty());
        assert_eq!(none.span(), 0);
    }

    fn simple_func(offset: Expr, elems: usize, extent: usize) -> Func {
        // for v0 in 0..extent { relu(in[offset..offset+4] -> out[same]) }
        Func {
            name: "f".into(),
            params: vec![
                BufDecl::new(DataType::F32, elems, "in"),
                BufDecl::new(DataType::F32, elems, "out"),
            ],
            locals: vec![],
            var_count: 1,
            body: vec![Stmt::loop_(
                VarId(0),
                extent,
                vec![Stmt::Op(Intrinsic::new(
                    crate::ir::unary_chain(gc_microkernel::UnaryOp::Relu, 4),
                    [
                        View::new(BufId::Param(0), offset.clone(), 4),
                        View::new(BufId::Param(1), offset, 4),
                    ],
                    [],
                ))],
            )],
        }
    }

    #[test]
    fn compiles_in_bounds_loop() {
        let f = simple_func(v(0).mul(Expr::c(4)), 32, 8);
        let (pf, fs) = FuncBuilder::new(&f, 4).build().unwrap();
        assert_eq!(pf.len(), 2); // For + Op
        assert_eq!(fs.hoisted_bounds, 2);
        assert_eq!(fs.linear_offsets, 2);
    }

    #[test]
    fn rejects_out_of_bounds_loop() {
        // extent 9 -> max offset 32, 32 + 4 > 32
        let f = simple_func(v(0).mul(Expr::c(4)), 32, 9);
        assert_eq!(
            FuncBuilder::new(&f, 4).build().err(),
            Some(Reject::OutOfBounds)
        );
    }

    #[test]
    fn rejects_dtype_mismatch() {
        let mut f = simple_func(Expr::c(0), 32, 1);
        f.params[0].dtype = DataType::I8; // Unary needs F32
        assert_eq!(
            FuncBuilder::new(&f, 4).build().err(),
            Some(Reject::DtypeMismatch)
        );
    }

    #[test]
    fn compiles_div_rem_offset_as_program() {
        // offset = (v0 / 2) * 8 + (v0 % 2) * 4 — stays within [0, 28]
        let off = Expr::Div(Box::new(v(0)), Box::new(Expr::c(2)))
            .mul(Expr::c(8))
            .add(Expr::Rem(Box::new(v(0)), Box::new(Expr::c(2))).mul(Expr::c(4)));
        let f = simple_func(off, 32, 7);
        let (pf, fs) = FuncBuilder::new(&f, 4).build().unwrap();
        assert_eq!(fs.program_offsets, 2);
        assert_eq!(fs.linear_offsets, 0);
        // evaluate the compiled offset across the loop and compare with
        // the source expression
        let PInstr::Op(compiled) = &pf[1] else {
            panic!("expected compiled unary");
        };
        let src = &compiled.operands()[0];
        let mut vars = [0i64; MAX_VARS];
        for i in 0..7 {
            vars[0] = i;
            let want = f.body.iter().find_map(|s| match s {
                Stmt::For { body, .. } => match &body[0] {
                    Stmt::Op(i) => Some(i.operands[0].offset.eval(&vars[..1])),
                    _ => None,
                },
                _ => None,
            });
            assert_eq!(src.offset.eval(&vars) as i64, want.unwrap());
        }
    }

    #[test]
    fn parallel_loop_gets_grain() {
        // Big enough (4096 iters x ~68 units) to stay dispatched.
        let mut f = simple_func(v(0).mul(Expr::c(4)), 16384, 4096);
        let Stmt::For { parallel, .. } = &mut f.body[0] else {
            panic!()
        };
        *parallel = true;
        let (pf, fs) = FuncBuilder::new(&f, 4).build().unwrap();
        let PInstr::ParFor { grain, extent, .. } = &pf[0] else {
            panic!("expected ParFor");
        };
        assert_eq!(*extent, 4096);
        assert_eq!(*grain, 256); // 4096 / (4 threads * 4)
        assert_eq!(fs.serialized_loops, 0);
    }

    #[test]
    fn tiny_parallel_loop_is_serialized() {
        // 128 iterations of a 4-element relu: far below the dispatch
        // threshold, so the loop must come out serial.
        let mut f = simple_func(v(0).mul(Expr::c(4)), 512, 128);
        let Stmt::For { parallel, .. } = &mut f.body[0] else {
            panic!()
        };
        *parallel = true;
        let (pf, fs) = FuncBuilder::new(&f, 4).build().unwrap();
        assert!(matches!(pf[0], PInstr::For { .. }));
        assert_eq!(fs.serialized_loops, 1);
        // On one thread every parallel loop is serial regardless of size.
        let big = {
            let mut f = simple_func(v(0).mul(Expr::c(4)), 16384, 4096);
            let Stmt::For { parallel, .. } = &mut f.body[0] else {
                panic!()
            };
            *parallel = true;
            f
        };
        let (pf1, _) = FuncBuilder::new(&big, 1).build().unwrap();
        assert!(matches!(pf1[0], PInstr::For { .. }));
    }

    #[test]
    fn module_compile_counts_rejections() {
        let good = simple_func(v(0).mul(Expr::c(4)), 32, 8);
        let bad = simple_func(v(0).mul(Expr::c(4)), 32, 9);
        let mut m = Module::new();
        m.add_func(good);
        m.add_func(bad);
        let plan = compile_module(&m, 4);
        assert!(plan.func(0).is_some());
        assert!(plan.func(1).is_none());
        assert_eq!(plan.funcs[1].as_ref().err(), Some(&Reject::OutOfBounds));
        assert_eq!(plan.stats().compiled_funcs, 1);
        assert_eq!(plan.stats().interpreted_funcs, 1);
    }

    /// `f(out)` with one 64-element f32 local, from a body builder.
    fn with_local(var_count: usize, body: Vec<Stmt>) -> Func {
        Func {
            name: "f".into(),
            params: vec![BufDecl::new(DataType::F32, 64, "out")],
            locals: vec![BufDecl::new(DataType::F32, 64, "tmp")],
            var_count,
            body,
        }
    }

    fn fill(offset: Expr, len: usize) -> Stmt {
        Stmt::Op(Intrinsic::new(
            Op::FillF32 { len, value: 1.0 },
            [View::new(BufId::Local(0), offset, len)],
            [],
        ))
    }

    fn relu(src: (BufId, Expr), dst: (BufId, Expr), len: usize) -> Stmt {
        Stmt::Op(Intrinsic::new(
            crate::ir::unary_chain(gc_microkernel::UnaryOp::Relu, len),
            [View::new(src.0, src.1, len), View::new(dst.0, dst.1, len)],
            [],
        ))
    }

    const L: BufId = BufId::Local(0);
    const OUT: BufId = BufId::Param(0);

    #[test]
    fn written_first_proves_per_iteration_and_tiled_windows() {
        // the window one iteration writes, read in the same iteration
        let per_iteration = with_local(
            1,
            vec![Stmt::parallel(
                VarId(0),
                4,
                vec![
                    fill(v(0).mul(Expr::c(16)), 16),
                    relu((L, v(0).mul(Expr::c(16))), (OUT, v(0).mul(Expr::c(16))), 16),
                ],
            )],
        );
        assert_eq!(written_first(&per_iteration), [true]);
        // consecutive iterations tile the local, read whole afterwards,
        // through a loop that runs once
        let tiled = with_local(
            2,
            vec![
                Stmt::loop_(
                    VarId(1),
                    1,
                    vec![Stmt::loop_(
                        VarId(0),
                        4,
                        vec![fill(v(0).mul(Expr::c(16)).add(v(1)), 16)],
                    )],
                ),
                relu((L, Expr::c(0)), (OUT, Expr::c(0)), 64),
            ],
        );
        assert_eq!(written_first(&tiled), [true]);
        // a local nobody touches needs no zeroing either
        assert_eq!(written_first(&with_local(0, vec![])), [true]);
        // a merged group's intermediate addressed through a division and
        // a remainder by 1: ((v0 / 1) * 4 + (v0 % 1) + v1) * 4
        let by_one = |v0: Expr, v1: Expr| {
            Expr::Div(Box::new(v0.clone()), Box::new(Expr::c(1)))
                .mul(Expr::c(4))
                .add(Expr::Rem(Box::new(v0), Box::new(Expr::c(1))).add(v1))
                .mul(Expr::c(4))
        };
        let merged = with_local(
            2,
            vec![Stmt::parallel(
                VarId(0),
                4,
                vec![
                    Stmt::loop_(VarId(1), 4, vec![fill(by_one(v(0), v(1)), 4)]),
                    relu(
                        (L, by_one(v(0), Expr::c(0))),
                        (OUT, v(0).mul(Expr::c(16))),
                        16,
                    ),
                ],
            )],
        );
        assert_eq!(written_first(&merged), [true]);
    }

    #[test]
    fn written_first_rejects_what_it_cannot_prove() {
        let read_first = with_local(
            0,
            vec![
                relu((L, Expr::c(0)), (OUT, Expr::c(0)), 64),
                fill(Expr::c(0), 64),
            ],
        );
        let partial = with_local(
            0,
            vec![
                fill(Expr::c(0), 32),
                relu((L, Expr::c(0)), (OUT, Expr::c(0)), 64),
            ],
        );
        let never_runs = with_local(
            1,
            vec![
                Stmt::loop_(VarId(0), 0, vec![fill(Expr::c(0), 64)]),
                relu((L, Expr::c(0)), (OUT, Expr::c(0)), 64),
            ],
        );
        let in_place = with_local(0, vec![relu((L, Expr::c(0)), (L, Expr::c(0)), 64)]);
        let gaps = with_local(
            1,
            vec![
                Stmt::loop_(VarId(0), 2, vec![fill(v(0).mul(Expr::c(32)), 16)]),
                relu((L, Expr::c(0)), (OUT, Expr::c(0)), 64),
            ],
        );
        let other_iteration = with_local(
            1,
            vec![Stmt::loop_(
                VarId(0),
                4,
                vec![
                    fill(v(0).mul(Expr::c(16)), 16),
                    relu((L, Expr::c(0)), (OUT, Expr::c(0)), 16),
                ],
            )],
        );
        // covers the local, but through a quotient the ranges do not settle
        let div_offset = with_local(
            1,
            vec![
                Stmt::loop_(
                    VarId(0),
                    4,
                    vec![fill(
                        Expr::Div(Box::new(v(0)), Box::new(Expr::c(2))).mul(Expr::c(32)),
                        32,
                    )],
                ),
                relu((L, Expr::c(0)), (OUT, Expr::c(0)), 64),
            ],
        );
        for (name, f) in [
            ("read first", read_first),
            ("partial write", partial),
            ("loop that never runs", never_runs),
            ("in-place first access", in_place),
            ("windows with gaps", gaps),
            ("another iteration's window", other_iteration),
            ("non-affine offset", div_offset),
        ] {
            assert_eq!(written_first(&f), [false], "{name}");
        }
    }
}
