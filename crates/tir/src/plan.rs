//! Flat execution plans: the compiled form of Tensor IR functions.
//!
//! The interpreter in [`crate::exec`] re-derives everything on every
//! visit of every statement: view offsets re-walk [`crate::expr::Expr`]
//! trees, brgemm calls rebuild their batch-offset tables, every slice is
//! re-bounds-checked, and each parallel iteration clones the variable
//! environment. A [`Plan`] performs that work once, at compile time —
//! the reproduction's stand-in for the original system's LLVM `-O3`
//! pipeline hoisting loop-invariant address arithmetic:
//!
//! - view offsets are strength-reduced to linear form
//!   `base + Σ stride_v · var_v` (non-affine `div`/`rem` offsets fall
//!   back to a tiny postfix program evaluated on a fixed stack);
//! - brgemm batch-offset tables — loop-invariant by construction, since
//!   tile strides are static — are computed once per op and shared by
//!   every call;
//! - buffer bounds are verified against loop extents at plan-build time
//!   (interval analysis), so steady-state execution does no checking;
//! - parallel loops dispatch contiguous index chunks to the pool, each
//!   chunk copying one fixed-size variable scratch instead of cloning a
//!   heap `Vec` per iteration.
//!
//! A function the builder cannot prove safe (too many variables, offsets
//! it cannot bound) has no plan ([`Plan::func`] returns `None`), and a
//! compiled [`crate::Executable`] refuses to run its module with an error
//! naming the function and the builder's reason.

use crate::compile::Reject;
use crate::ir::{Op, MAX_CLAMPS, MAX_OPERANDS};
use crate::kernel::{run_op, RawBuf, Resolved};
use gc_microkernel::Kernels;
use gc_runtime::ThreadPool;
use gc_tensor::{DataType, Storage};
use std::marker::PhantomData;

/// Maximum scalar variables a compiled function may use; the per-chunk
/// variable scratch is a stack array of this size.
pub const MAX_VARS: usize = 64;

/// Maximum operand-stack depth of a postfix offset program.
pub const MAX_PROG_STACK: usize = 8;

/// Options controlling how a compiled plan is executed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecOptions {
    /// Verify, at every intrinsic, that each evaluated offset is
    /// non-negative and that the span the kernel will touch fits the
    /// buffer — the dynamic counterpart of the bounds the plan builder
    /// proved statically. A violation panics with the buffer slot and
    /// the offending offset instead of silently reading garbage.
    ///
    /// Costs one predictable branch per view resolution when off (the
    /// default); roughly doubles address-arithmetic work when on.
    pub checked: bool,
}

impl ExecOptions {
    /// Options with runtime bounds checking enabled.
    pub fn checked() -> ExecOptions {
        ExecOptions { checked: true }
    }
}

/// One postfix instruction of a non-affine offset program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffsetOp {
    /// Push a constant.
    PushC(i64),
    /// Push a variable's current value.
    PushV(u32),
    /// Pop two, push their sum.
    Add,
    /// Pop two, push their product.
    Mul,
    /// Pop two, push the truncating quotient.
    Div,
    /// Pop two, push the remainder.
    Rem,
}

/// A compiled view offset.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOffset {
    /// Loop-invariant offset.
    Const(i64),
    /// Affine offset `base + Σ terms[i].1 * vars[terms[i].0]`.
    Linear {
        /// Constant part.
        base: i64,
        /// `(variable, stride)` pairs.
        terms: Box<[(u32, i64)]>,
    },
    /// Non-affine offset as a postfix program (div/rem by constants).
    Program(Box<[OffsetOp]>),
}

#[inline]
fn eval_program(ops: &[OffsetOp], vars: &[i64; MAX_VARS]) -> i64 {
    let mut stack = [0i64; MAX_PROG_STACK];
    let mut sp = 0usize;
    for op in ops {
        match op {
            OffsetOp::PushC(c) => {
                stack[sp] = *c;
                sp += 1;
            }
            OffsetOp::PushV(v) => {
                stack[sp] = vars[*v as usize];
                sp += 1;
            }
            OffsetOp::Add => {
                sp -= 1;
                stack[sp - 1] += stack[sp];
            }
            OffsetOp::Mul => {
                sp -= 1;
                stack[sp - 1] *= stack[sp];
            }
            OffsetOp::Div => {
                sp -= 1;
                stack[sp - 1] /= stack[sp];
            }
            OffsetOp::Rem => {
                sp -= 1;
                stack[sp - 1] %= stack[sp];
            }
        }
    }
    stack[0]
}

impl PlanOffset {
    /// Evaluate against the current variable values.
    ///
    /// The plan builder proves every offset's interval lower bound is
    /// `>= 0` before emitting it, so the `usize` conversions cannot
    /// wrap for a well-formed plan; the debug assertions catch a
    /// miscompiled plan before it turns into a silent wild read.
    #[inline]
    pub fn eval(&self, vars: &[i64; MAX_VARS]) -> usize {
        match self {
            PlanOffset::Const(c) => {
                debug_assert!(*c >= 0, "const plan offset is negative: {c}");
                *c as usize
            }
            PlanOffset::Linear { base, terms } => {
                let mut s = *base;
                for &(v, stride) in terms.iter() {
                    s += vars[v as usize] * stride;
                }
                debug_assert!(s >= 0, "linear plan offset evaluated negative: {s}");
                s as usize
            }
            PlanOffset::Program(ops) => {
                let s = eval_program(ops, vars);
                debug_assert!(s >= 0, "program plan offset evaluated negative: {s}");
                s as usize
            }
        }
    }

    /// Evaluate without converting to `usize`: checked execution wants
    /// to see a negative offset as itself, not wrapped to a huge index.
    #[inline]
    pub fn eval_signed(&self, vars: &[i64; MAX_VARS]) -> i64 {
        match self {
            PlanOffset::Const(c) => *c,
            PlanOffset::Linear { base, terms } => {
                let mut s = *base;
                for &(v, stride) in terms.iter() {
                    s += vars[v as usize] * stride;
                }
                s
            }
            PlanOffset::Program(ops) => eval_program(ops, vars),
        }
    }
}

/// A compiled operand: flat buffer slot, compiled offset, and the span
/// the plan builder proved in bounds (checked execution re-verifies it
/// per call).
#[derive(Debug, Clone, PartialEq)]
pub struct POperand {
    /// Index into the call frame's flat buffer table (params then
    /// locals).
    pub buf: u32,
    /// Compiled element offset.
    pub offset: PlanOffset,
    /// Elements the kernel may touch from the offset (the descriptor's
    /// static span).
    pub span: usize,
}

/// A compiled intrinsic: the IR's [`Op`] unchanged, every operand
/// offset and clamp base strength-reduced, the brgemm batch tables
/// precomputed. Operands sit inline (no pointer chase per dispatched
/// op); slots past the op's operand count are unused.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanOp {
    /// Kind and static attributes.
    pub op: Op,
    pub(crate) n_operands: u8,
    pub(crate) n_clamps: u8,
    pub(crate) operands: [POperand; MAX_OPERANDS],
    pub(crate) clamps: [PlanOffset; MAX_CLAMPS],
    /// Tile offsets relative to the operand base for operands 0 and 1,
    /// one per batch element (empty unless the op is a brgemm).
    pub(crate) tables: [Box<[usize]>; 2],
}

impl PlanOp {
    /// The compiled operands, in the op's operand order.
    pub fn operands(&self) -> &[POperand] {
        &self.operands[..self.n_operands as usize]
    }

    /// The compiled axis-clamp bases.
    pub fn clamps(&self) -> &[PlanOffset] {
        &self.clamps[..self.n_clamps as usize]
    }
}

/// One flat-plan instruction. Loop bodies are the instruction range
/// `(header + 1)..body_end`.
// `Op` dominates plan streams; boxing it would put a pointer chase on
// every dispatched intrinsic to shrink the rare loop headers.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum PInstr {
    /// Serial counted loop.
    For {
        /// Loop variable (index into the variable scratch).
        var: u32,
        /// Static trip count.
        extent: usize,
        /// One past the last body instruction.
        body_end: usize,
    },
    /// Parallel counted loop with a precomputed chunk grain.
    ParFor {
        /// Loop variable.
        var: u32,
        /// Static trip count.
        extent: usize,
        /// One past the last body instruction.
        body_end: usize,
        /// Contiguous iterations per dispatched chunk.
        grain: usize,
    },
    /// A compiled intrinsic.
    Op(PlanOp),
}

/// A compiled function: flat instruction array plus frame layout.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanFunc {
    pub(crate) instrs: Box<[PInstr]>,
    /// Per parameter, the dtype and element count a call must bind to
    /// it.
    pub(crate) params: Box<[(DataType, usize)]>,
    /// Local temporaries, in order.
    pub(crate) locals: Box<[PlanLocal]>,
}

/// A compiled function's local temporary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PlanLocal {
    pub(crate) dtype: DataType,
    pub(crate) elems: usize,
    /// The builder proved that every element a call reads was written
    /// earlier in the same call, so the call need not zero it (see
    /// [`crate::compile`]).
    pub(crate) written_first: bool,
}

/// Counters describing what the plan builder achieved; used by tests to
/// verify that hot-path work was actually hoisted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Functions compiled to plans.
    pub compiled_funcs: usize,
    /// Functions the builder rejected; a compiled executable with any
    /// refuses to run.
    pub interpreted_funcs: usize,
    /// View bounds checks verified at build time (none remain at run
    /// time).
    pub hoisted_bounds: usize,
    /// Offsets strength-reduced to `Const` or `Linear` form.
    pub linear_offsets: usize,
    /// Non-affine offsets compiled to postfix programs.
    pub program_offsets: usize,
    /// brgemm batch-offset tables precomputed.
    pub brgemm_tables: usize,
    /// Parallel loops demoted to serial because their total work is
    /// below the dispatch-worthiness threshold.
    pub serialized_loops: usize,
    /// Locals of compiled functions the builder could not prove written
    /// before they are read; every call zeroes these.
    pub zeroed_locals: usize,
}

/// A call that writes a global its stage may only read: an input, a
/// `Weight`, or (in the main stage) a `Persistent` constant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RoleReject {
    /// Index into the init calls followed by the main calls.
    pub(crate) call: usize,
    /// The global written.
    pub(crate) global: usize,
    pub(crate) why: Reject,
}

/// A compiled module: per module function its [`PlanFunc`] or the
/// reason the builder rejected it, the check of every call against its
/// globals' roles, which parameters each function writes, plus build
/// statistics.
#[derive(Debug, Clone)]
pub struct Plan {
    pub(crate) funcs: Vec<Result<PlanFunc, Reject>>,
    pub(crate) roles: Result<(), RoleReject>,
    /// Per module function (compiled or not), per parameter: whether
    /// some op writes it (a `Write` or `Accumulate` operand role). Both
    /// executors check their bindings against it.
    pub(crate) writes: Box<[Box<[bool]>]>,
    pub(crate) stats: PlanStats,
}

impl Plan {
    /// The compiled form of function `idx`, if the builder succeeded.
    pub fn func(&self, idx: usize) -> Option<&PlanFunc> {
        self.funcs.get(idx).and_then(|f| f.as_ref().ok())
    }

    /// Per parameter of function `idx`: whether some op writes it.
    pub(crate) fn writes(&self, idx: usize) -> &[bool] {
        &self.writes[idx]
    }

    /// Build statistics.
    pub fn stats(&self) -> PlanStats {
        self.stats
    }
}

/// One execution's binding of a module's globals, in declaration order:
/// each global is bound either to a buffer the calls only read (a
/// constant or an input, borrowed shared) or to one they may write (an
/// output or scratch, borrowed exclusively). Nothing is copied; the
/// binding holds one pointer per global.
#[derive(Debug, Default)]
pub struct Globals<'a> {
    bufs: Vec<RawBuf>,
    _borrows: PhantomData<&'a mut Storage>,
}

impl<'a> Globals<'a> {
    /// An empty binding with room for `n` globals.
    pub fn with_capacity(n: usize) -> Self {
        Globals {
            bufs: Vec::with_capacity(n),
            _borrows: PhantomData,
        }
    }

    /// Every global writable: an owned set of buffers, one per global.
    pub fn owned(globals: &'a mut [Storage]) -> Self {
        let mut g = Globals::with_capacity(globals.len());
        for s in globals {
            g.write(s);
        }
        g
    }

    /// Bind the next global to a buffer the calls only read.
    pub fn read(&mut self, storage: &'a Storage) {
        self.bufs.push(RawBuf::of_shared(storage, false));
    }

    /// Bind the next global to a buffer the calls may write.
    pub fn write(&mut self, storage: &'a mut Storage) {
        self.bufs.push(RawBuf::of(storage, false));
    }

    /// The buffer bound to global `g`.
    pub(crate) fn buf(&self, g: usize) -> RawBuf {
        self.bufs[g]
    }
}

/// Reusable per-engine execution scratch: preallocated local storages
/// and the flat buffer table. Steady-state plan execution allocates
/// nothing: the table is reused, and the locals are allocated once and
/// zeroed per call only where the builder could not prove them written
/// before they are read.
#[derive(Debug, Default)]
pub struct PlanScratch {
    /// Per module-function local storages (allocated once).
    locals: Vec<Vec<Storage>>,
    bufs: Vec<RawBuf>,
}

impl PlanScratch {
    /// Preallocate locals for every compiled function of `plan`.
    pub fn for_plan(plan: &Plan) -> PlanScratch {
        let locals = plan
            .funcs
            .iter()
            .map(|f| match f {
                Ok(pf) => pf
                    .locals
                    .iter()
                    .map(|l| Storage::zeros(l.dtype, l.elems))
                    .collect(),
                Err(_) => Vec::new(),
            })
            .collect();
        PlanScratch {
            locals,
            bufs: Vec::new(),
        }
    }
}

fn zero_storage(s: &mut Storage) {
    match s {
        Storage::F32(v) => v.fill(0.0),
        Storage::Bf16(v) => v.fill(0),
        Storage::U8(v) => v.fill(0),
        Storage::I8(v) => v.fill(0),
        Storage::I32(v) => v.fill(0),
        Storage::I64(v) => v.fill(0),
    }
}

/// Fill a local the builder proved written before read with values no
/// correct plan may observe: NaN for floats, `0xA5` bytes for integers.
/// Checked execution does this before every call, so a wrong proof shows
/// up in the differential tests instead of reading stale data.
fn poison_storage(s: &mut Storage) {
    match s {
        Storage::F32(v) => v.fill(f32::NAN),
        Storage::Bf16(v) => v.fill(0x7FC0),
        Storage::U8(v) => v.fill(0xA5),
        Storage::I8(v) => v.fill(0xA5u8 as i8),
        Storage::I32(v) => v.fill(i32::from_ne_bytes([0xA5; 4])),
        Storage::I64(v) => v.fill(i64::from_ne_bytes([0xA5; 8])),
    }
}

/// Execute one compiled call: bind `args` (global indices into
/// `globals`) to the function's parameters, zero the locals it may read
/// before writing, run the instruction stream with every kernel on
/// `kernels`' backend.
///
/// # Panics
///
/// Panics if `func_idx` has no compiled plan, or if a global in `args`
/// does not fit its parameter: another dtype, fewer elements, or bound
/// read-only to a parameter the function writes. A compiled
/// [`crate::Executable`] checks its whole plan and every call's roles
/// before running any call and returns an error instead, so it never
/// gets here.
#[allow(clippy::too_many_arguments)]
pub fn run_plan_call(
    plan: &Plan,
    func_idx: usize,
    args: &[usize],
    globals: &mut Globals<'_>,
    pool: &ThreadPool,
    scratch: &mut PlanScratch,
    opts: ExecOptions,
    kernels: Kernels,
) {
    let pf = plan
        .func(func_idx)
        .expect("run_plan_call on a function the plan builder rejected");
    scratch.bufs.clear();
    assert_eq!(args.len(), pf.params.len(), "function {func_idx}: arity");
    let writes = plan.writes(func_idx);
    for ((&a, &(dtype, elems)), &writes) in args.iter().zip(pf.params.iter()).zip(writes) {
        let buf = globals.buf(a);
        assert!(
            buf.can_bind(dtype, elems, writes),
            "function {func_idx} cannot bind global {a} ({buf:?}) to its {dtype} x{elems} \
             parameter (written: {writes})"
        );
        scratch.bufs.push(buf.checked(opts.checked));
    }
    let locals = &mut scratch.locals[func_idx];
    for (s, l) in locals.iter_mut().zip(pf.locals.iter()) {
        if !l.written_first {
            zero_storage(s);
        } else if opts.checked {
            poison_storage(s);
        }
        scratch.bufs.push(RawBuf::of(s, opts.checked));
    }
    let ctx = Ctx {
        bufs: &scratch.bufs,
        pool,
        checked: opts.checked,
        kernels,
    };
    let mut vars = [0i64; MAX_VARS];
    run_range(&pf.instrs, 0, pf.instrs.len(), &ctx, &mut vars);
}

#[derive(Clone, Copy)]
struct Ctx<'a> {
    bufs: &'a [RawBuf],
    pool: &'a ThreadPool,
    checked: bool,
    kernels: Kernels,
}

impl Ctx<'_> {
    #[inline]
    fn resolve(&self, o: &POperand, vars: &[i64; MAX_VARS]) -> Resolved<'_> {
        let buf = &self.bufs[o.buf as usize];
        if self.checked {
            return (buf, check_offset(o, buf, vars));
        }
        (buf, o.offset.eval(vars))
    }

    /// Evaluate an axis-clamp base (a scalar index, not a buffer
    /// offset); must be non-negative for a well-formed plan.
    #[inline]
    fn clamp_base(&self, off: &PlanOffset, vars: &[i64; MAX_VARS]) -> usize {
        let s = off.eval_signed(vars);
        if self.checked {
            assert!(s >= 0, "checked exec: clamp base evaluated negative ({s})");
        } else {
            debug_assert!(s >= 0, "clamp base evaluated negative ({s})");
        }
        s.max(0) as usize
    }

    /// Resolve the op's operands and clamp bases into stack arrays and
    /// hand them to the shared kernel dispatch.
    #[inline]
    fn dispatch(&self, p: &PlanOp, vars: &[i64; MAX_VARS]) {
        let mut operands = [(RawBuf::NULL, 0usize); MAX_OPERANDS];
        for (slot, o) in operands.iter_mut().zip(p.operands()) {
            *slot = self.resolve(o, vars);
        }
        let mut bases = [0usize; MAX_CLAMPS];
        for (slot, c) in bases.iter_mut().zip(p.clamps()) {
            *slot = self.clamp_base(c, vars);
        }
        run_op(&p.op, &operands, &bases, &p.tables, self.kernels);
    }
}

/// Checked-mode offset resolution: panic (rather than wrap or read out
/// of bounds) when an evaluated offset escapes its buffer.
#[cold]
fn check_offset(o: &POperand, buf: &RawBuf, vars: &[i64; MAX_VARS]) -> usize {
    let (slot, span) = (o.buf, o.span);
    let s = o.offset.eval_signed(vars);
    assert!(
        s >= 0,
        "checked exec: offset of buffer slot {slot} evaluated negative ({s})"
    );
    let off = s as usize;
    let end = off
        .checked_add(span)
        .unwrap_or_else(|| panic!("checked exec: offset {off} + span {span} overflows"));
    assert!(
        end <= buf.elems(),
        "checked exec: access [{off}, {end}) escapes buffer slot {slot} ({} elems)",
        buf.elems()
    );
    off
}

fn run_range(
    instrs: &[PInstr],
    mut pc: usize,
    end: usize,
    ctx: &Ctx<'_>,
    vars: &mut [i64; MAX_VARS],
) {
    while pc < end {
        match &instrs[pc] {
            PInstr::For {
                var,
                extent,
                body_end,
            } => {
                for i in 0..*extent {
                    vars[*var as usize] = i as i64;
                    run_range(instrs, pc + 1, *body_end, ctx, vars);
                }
                pc = *body_end;
            }
            PInstr::ParFor {
                var,
                extent,
                body_end,
                grain,
            } => {
                let extent = *extent;
                if ctx.pool.threads() > 1 && extent > 1 {
                    let var = *var as usize;
                    let body_end = *body_end;
                    // One stack copy of the variable scratch per chunk —
                    // this replaces the interpreter's per-iteration
                    // `Vec` clone.
                    let proto: [i64; MAX_VARS] = *vars;
                    ctx.pool
                        .parallel_for_grained(extent, *grain, |start, stop| {
                            let mut my_vars = proto;
                            for i in start..stop {
                                my_vars[var] = i as i64;
                                run_range(instrs, pc + 1, body_end, ctx, &mut my_vars);
                            }
                        });
                } else {
                    for i in 0..extent {
                        vars[*var as usize] = i as i64;
                        run_range(instrs, pc + 1, *body_end, ctx, vars);
                    }
                }
                pc = *body_end;
            }
            PInstr::Op(op) => {
                ctx.dispatch(op, vars);
                pc += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_offset_evals() {
        let vars = [0i64; MAX_VARS];
        assert_eq!(PlanOffset::Const(17).eval(&vars), 17);
    }

    #[test]
    fn linear_offset_evals() {
        let mut vars = [0i64; MAX_VARS];
        vars[2] = 3;
        vars[5] = 7;
        let off = PlanOffset::Linear {
            base: 10,
            terms: vec![(2, 100), (5, 2)].into_boxed_slice(),
        };
        assert_eq!(off.eval(&vars), 10 + 300 + 14);
    }

    #[test]
    fn program_offset_evals_div_rem() {
        // (v0 / 3) * 8 + (v0 % 3)
        let mut vars = [0i64; MAX_VARS];
        vars[0] = 7;
        let prog = PlanOffset::Program(
            vec![
                OffsetOp::PushV(0),
                OffsetOp::PushC(3),
                OffsetOp::Div,
                OffsetOp::PushC(8),
                OffsetOp::Mul,
                OffsetOp::PushV(0),
                OffsetOp::PushC(3),
                OffsetOp::Rem,
                OffsetOp::Add,
            ]
            .into_boxed_slice(),
        );
        assert_eq!(prog.eval(&vars), (7 / 3) * 8 + (7 % 3));
    }
}
