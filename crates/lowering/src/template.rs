//! The microkernel-based matmul template (paper Figures 2–4).
//!
//! One instantiation lowers a Fused OP — a (possibly batched, possibly
//! int8) matmul plus its fused pre-ops and post-ops — into one Tensor IR
//! function:
//!
//! ```text
//! parallel loop t in 0..batch*MPN*NPN {          // multi-core kernel
//!   (batch_idx, mpi, npi) = decompose(t)
//!   [anchor#2: pack task's B slice / A slice]
//!   loop msi in 0..MSN {                         // single-core kernel
//!     C'[nsi,:,:] = 0
//!     loop kchunk in 0..KSN/BS {
//!       [anchor#4: pack A chunk]                 // Figure 4 pre-op
//!       loop nsi in 0..NSN {
//!         C'[nsi] += batch_reduce_gemm(A tiles, B tiles, BS)
//!       }
//!     }
//!     [anchor#1 post-ops: int8 epilogue per column tile, one row-chain
//!      call over all of them, and the output write — which a chain into
//!      a blocked f32 output does itself]          // Figure 4 post-ops
//!   }
//! }
//! ```

use crate::anchors::{choose_a_pack, PackPlacement, PostOpAnchor};
use crate::params::{MatmulParams, MatmulProblem};
use gc_machine::MachineDescriptor;
use gc_microkernel::{BinaryOp, UnaryOp};
use gc_tensor::DataType;
use gc_tir::ir::{Brgemm, Copy2D, RowChain};
use gc_tir::{BufDecl, BufId, Expr, Func, Intrinsic, Op, Operand, ReduceOp, Stmt, VarId, View};

/// Int8 epilogue attributes (from the low-precision conversion).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Int8Spec {
    /// Activation zero point.
    pub a_zero: i32,
    /// Combined scale `a_s * b_s`.
    pub scale: f32,
}

/// How the activation operand arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AInput {
    /// Already blocked `[.., M/MB, K/KB, MB, KB]` matching the params.
    Blocked,
    /// Plain row-major; the template fuses the pack as a pre-op.
    Plain,
}

/// How the weight/rhs operand arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BInput {
    /// Preprocessed blocked weight `[K/KB, N/NB, NB, KB]` (runtime
    /// constant; shared across the batch).
    BlockedWeight,
    /// Plain, batched, variable rhs (MHA); packed per task as a fused
    /// pre-op. `transposed` means the logical rhs is the transpose of
    /// the buffer (`Q x K^T` — the fused transpose is free inside the
    /// pack).
    PlainInLoop {
        /// Whether the rhs buffer holds `B^T` rather than `B`.
        transposed: bool,
    },
}

/// Output placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutLayout {
    /// Blocked `[.., M/MB, N/NB, MB, NB]` matching the params.
    BlockedMbNb,
    /// Plain row-major (unpack fused as the final post-op).
    Plain,
}

/// One fused post-op, in tile form.
#[derive(Debug, Clone, PartialEq)]
pub enum PostOpSpec {
    /// Elementwise unary.
    Unary(UnaryOp),
    /// Elementwise binary with a compile-time scalar rhs.
    BinaryScalarConst(BinaryOp, f32),
    /// Binary with a `[N]` (or batch-indexed `[.., N]`) vector operand,
    /// broadcast over rows; the operand is a function parameter.
    BinaryRowVec {
        /// Operation.
        op: BinaryOp,
        /// Operand carries leading batch dims (offset by batch index).
        batch_indexed: bool,
    },
    /// Binary with a full-shape plain operand parameter.
    BinaryFull {
        /// Operation.
        op: BinaryOp,
    },
    /// Binary with a `[.., M, 1]` operand parameter (one value per row),
    /// broadcast over columns.
    BinaryColVec {
        /// Operation.
        op: BinaryOp,
    },
    /// Row reduction along n (softmax max/sum); its result feeds later
    /// [`PostOpSpec::BinaryColStat`] ops. Requires `npn == 1`.
    ReduceRow(ReduceOp),
    /// Binary whose rhs is the most recent reduction's per-row result.
    BinaryColStat {
        /// Operation.
        op: BinaryOp,
    },
    /// Final requantization to u8.
    Quantize {
        /// Scale.
        scale: f32,
        /// Zero point.
        zero_point: i32,
    },
}

impl PostOpSpec {
    /// Whether this op consumes an extra function parameter.
    pub fn takes_param(&self) -> bool {
        matches!(
            self,
            PostOpSpec::BinaryRowVec { .. }
                | PostOpSpec::BinaryFull { .. }
                | PostOpSpec::BinaryColVec { .. }
        )
    }
}

/// Complete specification of one Fused OP to lower.
#[derive(Debug, Clone, PartialEq)]
pub struct MatmulSpec {
    /// Problem sizes.
    pub problem: MatmulProblem,
    /// Template parameters.
    pub params: MatmulParams,
    /// Int8 epilogue (None = f32 matmul).
    pub int8: Option<Int8Spec>,
    /// Bias added right after the (de-quantized) accumulator, length
    /// `[N]`, as a function parameter.
    pub bias: bool,
    /// Activation arrival.
    pub a_input: AInput,
    /// Rhs arrival.
    pub b_input: BInput,
    /// Fused post-ops, in order.
    pub post_ops: Vec<PostOpSpec>,
    /// Output placement.
    pub out: OutLayout,
    /// Output dtype (`F32`, or `U8` when the chain ends in Quantize).
    pub out_dtype: DataType,
    /// Post-op anchor (None = cost-model choice).
    pub forced_post_anchor: Option<PostOpAnchor>,
    /// A-pack anchor (None = cost-model choice).
    pub forced_pack: Option<PackPlacement>,
}

/// Role of each function parameter, in declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamRole {
    /// Activation input.
    A,
    /// Rhs input.
    B,
    /// Int8 compensation vector `[N]` (i32).
    Comp,
    /// Bias vector `[N]`.
    Bias,
    /// Extra operand of post-op `i`.
    PostOperand(usize),
    /// Output.
    Out,
}

/// A lowered template: the function plus its parameter roles.
#[derive(Debug, Clone)]
pub struct LoweredMatmul {
    /// The Tensor IR function.
    pub func: Func,
    /// Role of each parameter.
    pub roles: Vec<ParamRole>,
}

struct Ctx {
    // sizes
    m: usize,
    n: usize,
    k: usize,
    batch: usize,
    p: MatmulParams,
    msn: usize,
    nsn: usize,
    kch: usize,
    m_tiles: usize,
    n_tiles: usize,
    k_tiles: usize,
    tasks_per_mat: usize,
    total_tasks: usize,
    int8: Option<Int8Spec>,
    // edge-tile state: which axes have a partial (padded) edge tile.
    // Tile counts above are ceil-based, so when a flag is set the
    // corresponding `*_tiles * block` exceeds the logical size. k has
    // no edge tile (`KB` divides k).
    ragged_m: bool,
    ragged_n: bool,
}

impl Ctx {
    fn new(prob: &MatmulProblem, p: MatmulParams, int8: Option<Int8Spec>) -> Self {
        Ctx {
            m: prob.m,
            n: prob.n,
            k: prob.k,
            batch: prob.batch,
            p,
            msn: p.msn(prob.m),
            nsn: p.nsn(prob.n),
            kch: p.k_chunks(prob.k),
            m_tiles: p.m_tiles(prob.m),
            n_tiles: p.n_tiles(prob.n),
            k_tiles: p.ksn(prob.k),
            tasks_per_mat: p.tasks(),
            total_tasks: prob.batch * p.tasks(),
            int8,
            ragged_m: p.ragged_m(prob.m),
            ragged_n: p.ragged_n(prob.n),
        }
    }
}

/// Lower one [`MatmulSpec`] into a Tensor IR function.
///
/// # Panics
///
/// Panics if the params do not validate against the problem, or a
/// reduction post-op is used with `npn != 1`.
pub fn lower_matmul(machine: &MachineDescriptor, spec: &MatmulSpec, name: &str) -> LoweredMatmul {
    spec.params
        .validate(&spec.problem)
        .expect("params must tile the problem");
    let has_reduce = spec
        .post_ops
        .iter()
        .any(|p| matches!(p, PostOpSpec::ReduceRow(_)));
    assert!(
        !has_reduce || spec.params.npn == 1,
        "row reductions require npn == 1"
    );

    let p = spec.params;
    let prob = spec.problem;
    let ctx = Ctx::new(&prob, p, spec.int8);
    if ctx.ragged_m || ctx.ragged_n {
        // Edge tiles exist only on the padded-blocked-weight fast path:
        // B must already be zero-padded to whole NB panels (the
        // pack-time padding done by the weight prepack), A is packed
        // through the zero-filling Pack2DPad, and the plain output is
        // written through the clamped unpack, which discards the pad
        // rows/columns of C. Every other combination still requires
        // exact divisibility.
        assert!(
            matches!(spec.b_input, BInput::BlockedWeight),
            "ragged shapes require a prepacked (pad-to-tile) blocked weight"
        );
        assert!(
            matches!(spec.a_input, AInput::Plain),
            "ragged shapes require a plain activation input"
        );
        assert!(
            !has_reduce,
            "ragged shapes do not support reduction post-ops"
        );
        assert_eq!(
            spec.out,
            OutLayout::Plain,
            "ragged m/n edges require a plain output layout"
        );
        assert!(
            !spec.post_ops.iter().any(|q| matches!(
                q,
                PostOpSpec::BinaryFull { .. } | PostOpSpec::BinaryColVec { .. }
            )),
            "full-tensor and column-vector post-ops cannot read past the logical edge"
        );
    }
    if ctx.ragged_n {
        assert!(
            !spec.bias
                && !spec
                    .post_ops
                    .iter()
                    .any(|q| matches!(q, PostOpSpec::BinaryRowVec { .. })),
            "row-vector operands are sized [N] and cannot cover a padded n edge"
        );
    }

    let acc_dtype = if spec.int8.is_some() {
        DataType::I32
    } else {
        DataType::F32
    };
    let in_dtype = if spec.int8.is_some() {
        DataType::U8
    } else {
        DataType::F32
    };
    let w_dtype = if spec.int8.is_some() {
        DataType::I8
    } else {
        DataType::F32
    };

    let (params, roles) = build_params(spec, &ctx);

    let mut func = Func {
        name: name.to_string(),
        params,
        locals: vec![],
        var_count: 0,
        body: vec![],
    };
    let param_of = |role: ParamRole| -> BufId {
        BufId::Param(roles.iter().position(|&r| r == role).expect("role"))
    };

    // ---- locals
    let post_anchor = spec
        .forced_post_anchor
        .unwrap_or_else(|| crate::anchors::choose_post_anchor(machine, &p, &prob));
    // m-tiles buffered before post-processing: 1 for P1, MSN for P2
    let buf_msn = match post_anchor {
        PostOpAnchor::P1 => 1,
        _ => ctx.msn,
    };
    let tile = p.mb * p.nb;
    let cprime = func.add_local(BufDecl::new(
        acc_dtype,
        ctx.total_tasks * buf_msn * ctx.nsn * tile,
        "cprime",
    ));
    let cpf = if spec.int8.is_some() {
        func.add_local(BufDecl::new(
            DataType::F32,
            ctx.total_tasks * buf_msn * ctx.nsn * tile,
            "cprime_f32",
        ))
    } else {
        cprime
    };
    let pack_place = match spec.a_input {
        AInput::Plain => Some(
            spec.forced_pack
                .unwrap_or_else(|| choose_a_pack(machine, &p, &prob)),
        ),
        AInput::Blocked => None,
    };
    let aprime = pack_place.map(|pp| {
        let elems = match pp {
            PackPlacement::PerKChunk => ctx.total_tasks * p.bs * p.mb * p.kb,
            PackPlacement::PerTask => ctx.total_tasks * ctx.msn * ctx.k_tiles * p.mb * p.kb,
        };
        func.add_local(BufDecl::new(in_dtype, elems, "aprime"))
    });
    let bprime = match spec.b_input {
        BInput::PlainInLoop { .. } => Some(func.add_local(BufDecl::new(
            w_dtype,
            ctx.total_tasks * ctx.k_tiles * ctx.nsn * p.nb * p.kb,
            "bprime",
        ))),
        BInput::BlockedWeight => None,
    };
    // scratch tile for quantize-then-unpack
    let needs_qtile = spec.out_dtype == DataType::U8 && spec.out == OutLayout::Plain;
    let qtile = if needs_qtile {
        Some(func.add_local(BufDecl::new(DataType::U8, ctx.total_tasks * tile, "qtile")))
    } else {
        None
    };

    // ---- variables
    let t = func.fresh_var();
    let msi = func.fresh_var();
    let kchunk = func.fresh_var();
    let nsi = func.fresh_var();
    let bsi = func.fresh_var();
    let nsi2 = func.fresh_var(); // post-processing sweeps

    let e = ExprBuilder {
        ctx: &ctx,
        t,
        msi,
        kchunk,
        nsi,
    };

    // ---- body
    let mut task_body: Vec<Stmt> = Vec::new();

    // anchor #2: pack the task's B slice (MHA in-loop rhs)
    if let Some(bp) = bprime {
        let transposed = matches!(spec.b_input, BInput::PlainInLoop { transposed: true });
        task_body.push(e.pack_b_per_task(param_of(ParamRole::B), bp, transposed));
    }
    // anchor #2 variant for A (PerTask pack)
    if let (Some(ap), Some(PackPlacement::PerTask)) = (aprime, pack_place) {
        task_body.push(e.pack_a_per_task(param_of(ParamRole::A), ap, msi, kchunk));
    }

    // ---- single-core kernel: loop msi
    let mut msi_body: Vec<Stmt> = Vec::new();

    // zero accumulators for this m-tile
    let acc_view_all = |e: &ExprBuilder<'_>| {
        View::new(
            cprime,
            e.cprime_base(buf_msn).mul(Expr::from(ctx.nsn * tile)),
            ctx.nsn * tile,
        )
    };
    msi_body.push(zero_acc(spec.int8.is_some(), acc_view_all(&e)));

    // k loop with anchor #4 pack and nsi brgemm loop
    let mut kchunk_body: Vec<Stmt> = Vec::new();
    if let (Some(ap), Some(PackPlacement::PerKChunk)) = (aprime, pack_place) {
        kchunk_body.push(e.pack_a_per_chunk(param_of(ParamRole::A), ap, bsi));
    }
    // brgemm over nsi
    let a_view_stride = match (spec.a_input, pack_place) {
        (AInput::Blocked, _) => {
            let off = e.a_blocked_tile_base().mul(Expr::from(p.mb * p.kb));
            (
                View::new(param_of(ParamRole::A), off, p.mb * p.kb),
                p.mb * p.kb,
            )
        }
        (AInput::Plain, Some(PackPlacement::PerKChunk)) => (
            View::new(
                aprime.unwrap(),
                Expr::v(t).mul(Expr::from(p.bs * p.mb * p.kb)),
                p.mb * p.kb,
            ),
            p.mb * p.kb,
        ),
        (AInput::Plain, Some(PackPlacement::PerTask)) => {
            // [task][msi][k_tile][MB*KB]
            let off = Expr::v(t)
                .mul(Expr::from(ctx.msn * ctx.k_tiles))
                .add(Expr::v(msi).mul(Expr::from(ctx.k_tiles)))
                .add(Expr::v(kchunk).mul(Expr::from(p.bs)))
                .mul(Expr::from(p.mb * p.kb));
            (View::new(aprime.unwrap(), off, p.mb * p.kb), p.mb * p.kb)
        }
        (AInput::Plain, None) => unreachable!(),
    };
    let (b_view, b_stride) = match spec.b_input {
        BInput::BlockedWeight => {
            // [K/KB, N/NB, NB, KB]: tile(kt, npsi)
            let off = Expr::v(kchunk)
                .mul(Expr::from(p.bs))
                .mul(Expr::from(ctx.n_tiles))
                .add(e.npsi(nsi))
                .mul(Expr::from(p.nb * p.kb));
            (
                View::new(param_of(ParamRole::B), off, p.nb * p.kb),
                ctx.n_tiles * p.nb * p.kb,
            )
        }
        BInput::PlainInLoop { .. } => {
            // bprime: [task][k_tile][nsi][NB*KB]
            let off = Expr::v(t)
                .mul(Expr::from(ctx.k_tiles * ctx.nsn))
                .add(Expr::v(kchunk).mul(Expr::from(p.bs * ctx.nsn)))
                .add(Expr::v(nsi))
                .mul(Expr::from(p.nb * p.kb));
            (
                View::new(bprime.unwrap(), off, p.nb * p.kb),
                ctx.nsn * p.nb * p.kb,
            )
        }
    };
    let c_tile_view = View::new(
        cprime,
        e.cprime_base(buf_msn)
            .mul(Expr::from(ctx.nsn))
            .add(Expr::v(nsi))
            .mul(Expr::from(tile)),
        tile,
    );
    let g = Brgemm {
        m: p.mb,
        n: p.nb,
        k: p.kb,
        batch: p.bs,
        a_stride: a_view_stride.1,
        b_stride,
    };
    let operands = [a_view_stride.0, b_view, c_tile_view];
    let brgemm = brgemm_op(spec.int8.is_some(), g, operands);
    kchunk_body.push(Stmt::loop_(nsi, ctx.nsn, vec![Stmt::Op(brgemm)]));
    msi_body.push(Stmt::loop_(kchunk, ctx.kch, kchunk_body));

    // ---- post-op anchor #1 (or buffered for #2): emitted per m-tile
    if post_anchor == PostOpAnchor::P1 {
        msi_body.extend(emit_post_ops(
            spec, &ctx, &e, &param_of, cprime, cpf, qtile, nsi2, buf_msn,
        ));
    }

    task_body.push(Stmt::loop_(msi, ctx.msn, msi_body));

    // anchor #2/#3 post-ops: process all buffered m-tiles after the msi
    // loop (ablation path)
    if post_anchor != PostOpAnchor::P1 {
        let mut per_msi =
            emit_post_ops(spec, &ctx, &e, &param_of, cprime, cpf, qtile, nsi2, buf_msn);
        let mut body = Vec::new();
        body.append(&mut per_msi);
        task_body.push(Stmt::loop_(msi, ctx.msn, body));
    }

    func.body
        .push(Stmt::parallel(t, ctx.total_tasks, task_body));

    LoweredMatmul { func, roles }
}

/// Declare the template function's parameters.
fn build_params(spec: &MatmulSpec, ctx: &Ctx) -> (Vec<BufDecl>, Vec<ParamRole>) {
    let in_dtype = if spec.int8.is_some() {
        DataType::U8
    } else {
        DataType::F32
    };
    let w_dtype = if spec.int8.is_some() {
        DataType::I8
    } else {
        DataType::F32
    };
    let mut params = Vec::new();
    let mut roles = Vec::new();
    params.push(BufDecl::new(in_dtype, ctx.batch * ctx.m * ctx.k, "A"));
    roles.push(ParamRole::A);
    let b_elems = match spec.b_input {
        // Prepacked blocked weight is padded to whole NB panels at pack
        // time; for exactly-tiled shapes this is just k * n.
        BInput::BlockedWeight => ctx.k * ctx.n_tiles * ctx.p.nb,
        BInput::PlainInLoop { .. } => ctx.batch * ctx.k * ctx.n,
    };
    params.push(BufDecl::new(w_dtype, b_elems, "B"));
    roles.push(ParamRole::B);
    if spec.int8.is_some() {
        // Compensation follows the padded weight: one i32 per packed
        // column, zero in the pad region.
        params.push(BufDecl::new(DataType::I32, ctx.n_tiles * ctx.p.nb, "comp"));
        roles.push(ParamRole::Comp);
    }
    if spec.bias {
        params.push(BufDecl::new(DataType::F32, ctx.n, "bias"));
        roles.push(ParamRole::Bias);
    }
    for (i, po) in spec.post_ops.iter().enumerate() {
        match po {
            PostOpSpec::BinaryRowVec { batch_indexed, .. } => {
                let elems = if *batch_indexed {
                    ctx.batch * ctx.n
                } else {
                    ctx.n
                };
                params.push(BufDecl::new(DataType::F32, elems, format!("opnd{i}")));
                roles.push(ParamRole::PostOperand(i));
            }
            PostOpSpec::BinaryFull { .. } => {
                params.push(BufDecl::new(
                    DataType::F32,
                    ctx.batch * ctx.m * ctx.n,
                    format!("opnd{i}"),
                ));
                roles.push(ParamRole::PostOperand(i));
            }
            PostOpSpec::BinaryColVec { .. } => {
                params.push(BufDecl::new(
                    DataType::F32,
                    ctx.batch * ctx.m,
                    format!("opnd{i}"),
                ));
                roles.push(ParamRole::PostOperand(i));
            }
            _ => {}
        }
    }
    params.push(BufDecl::new(
        spec.out_dtype,
        ctx.batch * ctx.m * ctx.n,
        "OUT",
    ));
    roles.push(ParamRole::Out);
    (params, roles)
}

/// Emits the post-op pipeline for the current m-tile: the int8
/// epilogue (bias folded in) per column tile, the chain as one
/// [`emit_row_chain`] call over all of them (the f32 bias its first
/// step), and the output write per column tile — unless the output is
/// blocked f32, which the chain stores itself (with no steps, it is the
/// copy).
#[allow(clippy::too_many_arguments)]
fn emit_post_ops(
    spec: &MatmulSpec,
    ctx: &Ctx,
    e: &ExprBuilder<'_>,
    param_of: &dyn Fn(ParamRole) -> BufId,
    cprime: BufId,
    cpf: BufId,
    qtile: Option<BufId>,
    nsi2: VarId,
    buf_msn: usize,
) -> Vec<Stmt> {
    let p = ctx.p;
    let tile = p.mb * p.nb;
    let mut stmts = Vec::new();

    let cpf_tile = |nv: VarId| {
        View::new(
            cpf,
            e.cprime_base(buf_msn)
                .mul(Expr::from(ctx.nsn))
                .add(Expr::v(nv))
                .mul(Expr::from(tile)),
            tile,
        )
    };

    // int8 epilogue (+ bias folded in)
    if let Some(int8) = ctx.int8 {
        let acc_tile = View::new(
            cprime,
            e.cprime_base(buf_msn)
                .mul(Expr::from(ctx.nsn))
                .add(Expr::v(nsi2))
                .mul(Expr::from(tile)),
            tile,
        );
        let comp_view = View::new(
            param_of(ParamRole::Comp),
            e.npsi(nsi2).mul(Expr::from(p.nb)),
            p.nb,
        );
        let mut operands = vec![acc_tile, comp_view, cpf_tile(nsi2)];
        if spec.bias {
            operands.push(View::new(
                param_of(ParamRole::Bias),
                e.npsi(nsi2).mul(Expr::from(p.nb)),
                p.nb,
            ));
        }
        let dequant = Op::DequantAcc {
            rows: p.mb,
            cols: p.nb,
            a_zero: int8.a_zero,
            scale: int8.scale,
            bias: spec.bias,
        };
        stmts.push(Stmt::loop_(
            nsi2,
            ctx.nsn,
            vec![Stmt::Op(Intrinsic::new(dequant, operands, []))],
        ));
    }

    let quant = spec.post_ops.iter().find_map(|po| match po {
        PostOpSpec::Quantize { scale, zero_point } => Some((*scale, *zero_point)),
        _ => None,
    });
    let store = spec.out == OutLayout::BlockedMbNb && quant.is_none();
    let bias = spec.bias && ctx.int8.is_none();
    let (chain, side) = row_chain_program(bias, &spec.post_ops, p.mb, p.nb, ctx.nsn, ctx.n, store);
    if store || !chain.steps().is_empty() {
        stmts.push(emit_row_chain(ctx, e, param_of, cpf, buf_msn, chain, side));
    }
    if !store {
        let write = emit_out_write(spec, ctx, e, param_of, cpf_tile(nsi2), quant, qtile, nsi2);
        stmts.push(Stmt::loop_(nsi2, ctx.nsn, write));
    }
    stmts
}

/// How a row chain's side operand reads its post-op operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SideKind {
    /// One value per column (`[N]`, or `[.., 1, N]` indexed by batch).
    RowVec {
        /// Operand carries leading batch dims.
        batch_indexed: bool,
    },
    /// A plain operand of the output's shape.
    Full,
    /// One value per row (`[.., M, 1]`).
    ColVec,
}

/// One side operand of a row chain: the parameter that supplies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SideOperand {
    /// The bias, or a post-op's [`ParamRole::PostOperand`].
    pub(crate) role: ParamRole,
    /// How it is read.
    pub(crate) kind: SideKind,
}

/// The [`RowChain`] program of a post-op chain over
/// `rows x (tiles x cols)` — with `bias`, a bias add first — and its side
/// operands in program order; full-shape operands are rows of `ld`
/// elements. A trailing quantize is not a step: the output write applies
/// it.
///
/// # Panics
///
/// Panics if the chain does not fit one program; fusion bounds chains
/// so that it does.
pub(crate) fn row_chain_program(
    bias: bool,
    post_ops: &[PostOpSpec],
    rows: usize,
    cols: usize,
    tiles: usize,
    ld: usize,
    store: bool,
) -> (RowChain, Vec<SideOperand>) {
    let mut chain = RowChain::new(rows, cols, tiles, store);
    let mut side = Vec::new();
    if bias {
        let kind = SideKind::RowVec {
            batch_indexed: false,
        };
        let role = ParamRole::Bias;
        side.push(SideOperand { role, kind });
        chain.row_vec(BinaryOp::Add).expect("a bias add fits");
    }
    for (post_op, po) in post_ops.iter().enumerate() {
        let role = ParamRole::PostOperand(post_op);
        let mut read = |kind| side.push(SideOperand { role, kind });
        let fits = match *po {
            // an identity is no step (alone, the chain is a copy)
            PostOpSpec::Unary(UnaryOp::Identity) => Some(()),
            PostOpSpec::Unary(op) => chain.unary(op),
            PostOpSpec::BinaryScalarConst(op, s) => chain.scalar(op, s),
            PostOpSpec::BinaryRowVec { op, batch_indexed } => {
                read(SideKind::RowVec { batch_indexed });
                chain.row_vec(op)
            }
            PostOpSpec::BinaryFull { op } => {
                read(SideKind::Full);
                chain.full(op, ld)
            }
            PostOpSpec::BinaryColVec { op } => {
                read(SideKind::ColVec);
                chain.col_vec(op)
            }
            PostOpSpec::BinaryColStat { op } => chain.stat(op),
            PostOpSpec::ReduceRow(op) => chain.reduce(op),
            PostOpSpec::Quantize { .. } => Some(()),
        };
        fits.expect("post-op chain exceeds a row-chain program (fusion bounds it)");
    }
    (chain, side)
}

// fusion's chain budget must fit a row-chain program
const _: () = {
    use gc_graph::passes::fusion::{MAX_CHAIN_OPS, MAX_CHAIN_SIDE_INPUTS};
    use gc_microkernel::chain::{MAX_BUFFERS, MAX_CONSTS, MAX_STEPS};
    assert!(MAX_CHAIN_OPS <= MAX_STEPS);
    assert!(MAX_CHAIN_SIDE_INPUTS <= MAX_CONSTS);
    // the tile, every side operand and a destination
    assert!(MAX_CHAIN_SIDE_INPUTS + 2 <= MAX_BUFFERS);
};

/// A post-op chain as one [`Op::RowChain`] over the m-tile's `nsn`
/// column tiles, reading the task's column slice of its side operands
/// (a full-shape one in rows of `n`) and, with `store` (a blocked f32
/// output), writing the output itself.
fn emit_row_chain(
    ctx: &Ctx,
    e: &ExprBuilder<'_>,
    param_of: &dyn Fn(ParamRole) -> BufId,
    cpf: BufId,
    buf_msn: usize,
    chain: RowChain,
    side: Vec<SideOperand>,
) -> Stmt {
    let p = ctx.p;
    let tile = p.mb * p.nb;
    let block = e.cprime_base(buf_msn).mul(Expr::from(ctx.nsn * tile));
    let col0 = e.npi().mul(Expr::from(ctx.nsn * p.nb));
    let mut operands = vec![Operand::new(cpf, block)];
    for s in side {
        let offset = match s.kind {
            SideKind::RowVec {
                batch_indexed: true,
            } => e.batch_idx().mul(Expr::from(ctx.n)).add(col0.clone()),
            SideKind::RowVec {
                batch_indexed: false,
            } => col0.clone(),
            // plain [.., M, N]: the m-tile's rows from the slice's column
            SideKind::Full => e
                .batch_idx()
                .mul(Expr::from(ctx.m))
                .add(e.mpsi(e.msi).mul(Expr::from(p.mb)))
                .mul(Expr::from(ctx.n))
                .add(col0.clone()),
            // [.., M, 1]: the m-tile's rows
            SideKind::ColVec => e
                .batch_idx()
                .mul(Expr::from(ctx.m))
                .add(e.mpsi(e.msi).mul(Expr::from(p.mb))),
        };
        operands.push(Operand::new(param_of(s.role), offset));
    }
    if chain.stores() {
        let out = e
            .batch_idx()
            .mul(Expr::from(ctx.m_tiles))
            .add(e.mpsi(e.msi))
            .mul(Expr::from(ctx.n_tiles * tile))
            .add(e.npi().mul(Expr::from(ctx.nsn * tile)));
        operands.push(Operand::new(param_of(ParamRole::Out), out));
    }
    Stmt::Op(Intrinsic::new(Op::RowChain(chain), operands, []))
}

/// The per-tile output write of a chain that does not store: the
/// requantization to u8, then for a plain output the unpack.
#[allow(clippy::too_many_arguments)]
fn emit_out_write(
    spec: &MatmulSpec,
    ctx: &Ctx,
    e: &ExprBuilder<'_>,
    param_of: &dyn Fn(ParamRole) -> BufId,
    src_tile: View,
    quant: Option<(f32, i32)>,
    qtile: Option<BufId>,
    nsi2: VarId,
) -> Vec<Stmt> {
    let p = ctx.p;
    let tile = p.mb * p.nb;
    let out = param_of(ParamRole::Out);
    let Some((scale, zero_point)) = quant else {
        // f32 reaches here only for a plain output
        return vec![Stmt::Op(unpack_out_tile(ctx, e, src_tile, out, nsi2))];
    };
    let quantize = |dst: View| {
        let op = Op::QuantU8 {
            len: tile,
            scale,
            zero_point,
        };
        Stmt::Op(Intrinsic::new(op, [src_tile, dst], []))
    };
    match spec.out {
        OutLayout::BlockedMbNb => {
            let off = e
                .batch_idx()
                .mul(Expr::from(ctx.m_tiles))
                .add(e.mpsi(e.msi))
                .mul(Expr::from(ctx.n_tiles))
                .add(e.npsi(nsi2))
                .mul(Expr::from(tile));
            vec![quantize(View::new(out, off, tile))]
        }
        OutLayout::Plain => {
            let qt = qtile.expect("qtile allocated for plain u8 output");
            let qview = View::new(qt, Expr::v(e.t).mul(Expr::from(tile)), tile);
            vec![
                quantize(qview.clone()),
                Stmt::Op(unpack_out_tile(ctx, e, qview, out, nsi2)),
            ]
        }
    }
}

/// The plain-layout output store for the current tile: the exact
/// [`Op::Unpack2D`] when the shape tiles evenly, the clamped
/// [`Op::Unpack2DClamp`] (which skips pad rows/columns) when the
/// m or n edge is ragged.
fn unpack_out_tile(
    ctx: &Ctx,
    e: &ExprBuilder<'_>,
    src: View,
    out: BufId,
    nsi2: VarId,
) -> Intrinsic {
    let p = ctx.p;
    let batch_off = e.batch_idx().mul(Expr::from(ctx.m * ctx.n));
    let g = Copy2D {
        rows: p.mb,
        cols: p.nb,
        row_stride: ctx.n,
        col_stride: 1,
    };
    let (row_base, col_base) = (
        e.mpsi(e.msi).mul(Expr::from(p.mb)),
        e.npsi(nsi2).mul(Expr::from(p.nb)),
    );
    if ctx.ragged_m || ctx.ragged_n {
        Intrinsic::new(
            Op::Unpack2DClamp {
                g,
                row_logical: ctx.m,
                col_logical: ctx.n,
            },
            [src.into(), Operand::new(out, batch_off)],
            [row_base, col_base],
        )
    } else {
        let dst_off = batch_off.add(row_base.mul(Expr::from(ctx.n))).add(col_base);
        Intrinsic::new(
            Op::Unpack2D(g),
            [src.into(), Operand::new(out, dst_off)],
            [],
        )
    }
}

/// Zero an accumulator window of the matmul's accumulation type.
fn zero_acc(int8: bool, dst: View) -> Stmt {
    let op = if int8 {
        Op::ZeroI32 { len: dst.len }
    } else {
        Op::FillF32 {
            len: dst.len,
            value: 0.0,
        }
    };
    Stmt::Op(Intrinsic::new(op, [dst], []))
}

/// The batch-reduce GEMM over operands `[a, b, c]` in the matmul's
/// precision. A ragged edge tile runs full-size: its A rows are
/// zero-padded at pack time.
fn brgemm_op(int8: bool, g: Brgemm, operands: [View; 3]) -> Intrinsic {
    let op = if int8 {
        Op::BrgemmU8I8(g)
    } else {
        Op::BrgemmF32(g)
    };
    Intrinsic::new(op, operands, [])
}

/// Pack one `[MB, KB]` tile of the plain row-major `[.., M, K]` A
/// operand (shapes that tile evenly).
fn pack_a(ctx: &Ctx, src: Operand, dst: View) -> Intrinsic {
    let g = Copy2D {
        rows: ctx.p.mb,
        cols: ctx.p.kb,
        row_stride: ctx.k,
        col_stride: 1,
    };
    Intrinsic::new(Op::Pack2D(g), [src, dst.into()], [])
}

/// Index-expression helpers shared by the emission code.
struct ExprBuilder<'c> {
    ctx: &'c Ctx,
    t: VarId,
    msi: VarId,
    kchunk: VarId,
    nsi: VarId,
}

impl ExprBuilder<'_> {
    fn batch_idx(&self) -> Expr {
        Expr::v(self.t).div(Expr::from(self.ctx.tasks_per_mat))
    }

    fn task_in_mat(&self) -> Expr {
        Expr::v(self.t).rem(Expr::from(self.ctx.tasks_per_mat))
    }

    fn mpi(&self) -> Expr {
        self.task_in_mat().div(Expr::from(self.ctx.p.npn))
    }

    fn npi(&self) -> Expr {
        self.task_in_mat().rem(Expr::from(self.ctx.p.npn))
    }

    /// Global m-tile index of the current msi.
    fn mpsi(&self, msi: VarId) -> Expr {
        self.mpi().mul(Expr::from(self.ctx.msn)).add(Expr::v(msi))
    }

    /// Global n-tile index for an nsi-like variable.
    fn npsi(&self, nv: VarId) -> Expr {
        self.npi().mul(Expr::from(self.ctx.nsn)).add(Expr::v(nv))
    }

    /// Base index (in m-tile units) of cprime for the current (t, msi):
    /// `t * buf_msn + (msi % buf_msn)` — with `buf_msn == 1` the msi
    /// term vanishes.
    fn cprime_base(&self, buf_msn: usize) -> Expr {
        if buf_msn == 1 {
            Expr::v(self.t)
        } else {
            Expr::v(self.t)
                .mul(Expr::from(buf_msn))
                .add(Expr::v(self.msi))
        }
    }

    /// A blocked tile base (in tiles) for brgemm's first tile at
    /// (batch, mpsi, kchunk*BS).
    fn a_blocked_tile_base(&self) -> Expr {
        self.batch_idx()
            .mul(Expr::from(self.ctx.m_tiles))
            .add(self.mpsi(self.msi))
            .mul(Expr::from(self.ctx.k_tiles))
            .add(Expr::v(self.kchunk).mul(Expr::from(self.ctx.p.bs)))
    }

    /// The A-pack intrinsic for tile (row_base, col_base) of the plain
    /// `[M, K]` operand: the exact [`Op::Pack2D`] when the shape
    /// tiles evenly, the zero-filling [`Op::Pack2DPad`] when the
    /// m edge is ragged. Clamp bases carry the tile origin in axis
    /// units; the batch term stays in the flat offset.
    fn pack_a_tile(&self, a: BufId, dst: View, row_base: Expr, col_base: Expr) -> Intrinsic {
        let p = self.ctx.p;
        let batch_off = self.batch_idx().mul(Expr::from(self.ctx.m * self.ctx.k));
        if self.ctx.ragged_m {
            let g = Copy2D {
                rows: p.mb,
                cols: p.kb,
                row_stride: self.ctx.k,
                col_stride: 1,
            };
            Intrinsic::new(
                Op::Pack2DPad {
                    g,
                    row_logical: self.ctx.m,
                    col_logical: self.ctx.k,
                },
                [Operand::new(a, batch_off), dst.into()],
                [row_base, col_base],
            )
        } else {
            let src_off = batch_off
                .add(row_base.mul(Expr::from(self.ctx.k)))
                .add(col_base);
            pack_a(self.ctx, Operand::new(a, src_off), dst)
        }
    }

    /// Pack one BS-chunk of plain A into aprime (anchor #4).
    fn pack_a_per_chunk(&self, a: BufId, aprime: BufId, bsi: VarId) -> Stmt {
        let p = self.ctx.p;
        let row_base = self.mpsi(self.msi).mul(Expr::from(p.mb));
        let col_base = Expr::v(self.kchunk)
            .mul(Expr::from(p.bs))
            .add(Expr::v(bsi))
            .mul(Expr::from(p.kb));
        let dst = View::new(
            aprime,
            Expr::v(self.t)
                .mul(Expr::from(p.bs))
                .add(Expr::v(bsi))
                .mul(Expr::from(p.mb * p.kb)),
            p.mb * p.kb,
        );
        Stmt::loop_(
            bsi,
            p.bs,
            vec![Stmt::Op(self.pack_a_tile(a, dst, row_base, col_base))],
        )
    }

    /// Pack the task's whole A slice at task start (anchor #2).
    fn pack_a_per_task(&self, a: BufId, aprime: BufId, msi: VarId, kt: VarId) -> Stmt {
        let p = self.ctx.p;
        let row_base = self.mpsi(msi).mul(Expr::from(p.mb));
        let col_base = Expr::v(kt).mul(Expr::from(p.kb));
        let dst = View::new(
            aprime,
            Expr::v(self.t)
                .mul(Expr::from(self.ctx.msn * self.ctx.k_tiles))
                .add(Expr::v(msi).mul(Expr::from(self.ctx.k_tiles)))
                .add(Expr::v(kt))
                .mul(Expr::from(p.mb * p.kb)),
            p.mb * p.kb,
        );
        Stmt::loop_(
            msi,
            self.ctx.msn,
            vec![Stmt::loop_(
                kt,
                self.ctx.k_tiles,
                vec![Stmt::Op(self.pack_a_tile(a, dst, row_base, col_base))],
            )],
        )
    }

    /// Pack the task's B slice into `[k_tile][nsi][NB*KB]` panels
    /// (anchor #2; fuses an optional transpose for free).
    fn pack_b_per_task(&self, b: BufId, bprime: BufId, transposed: bool) -> Stmt {
        let p = self.ctx.p;
        let (kt, nv) = (self.kchunk, self.nsi);
        // element (n, k) of tile (kt, npsi):
        //   plain B[.., K, N]:  src[(kt*KB + k) * N + npsi*NB + n]
        //   transposed (buffer holds B^T = [.., N, K]):
        //                       src[(npsi*NB + n) * K + kt*KB + k]
        let (row_stride, col_stride, base) = if transposed {
            (
                self.ctx.k, // n advances rows of B^T
                1,          // k advances columns
                self.batch_idx()
                    .mul(Expr::from(self.ctx.k * self.ctx.n))
                    .add(self.npsi(nv).mul(Expr::from(p.nb * self.ctx.k)))
                    .add(Expr::v(kt).mul(Expr::from(p.kb))),
            )
        } else {
            (
                1,          // n advances columns of B
                self.ctx.n, // k advances rows
                self.batch_idx()
                    .mul(Expr::from(self.ctx.k * self.ctx.n))
                    .add(Expr::v(kt).mul(Expr::from(p.kb * self.ctx.n)))
                    .add(self.npsi(nv).mul(Expr::from(p.nb))),
            )
        };
        let dst = View::new(
            bprime,
            Expr::v(self.t)
                .mul(Expr::from(self.ctx.k_tiles * self.ctx.nsn))
                .add(Expr::v(kt).mul(Expr::from(self.ctx.nsn)))
                .add(Expr::v(nv))
                .mul(Expr::from(p.nb * p.kb)),
            p.nb * p.kb,
        );
        Stmt::loop_(
            kt,
            self.ctx.k_tiles,
            vec![Stmt::loop_(
                nv,
                self.ctx.nsn,
                vec![Stmt::Op(Intrinsic::new(
                    Op::Pack2D(Copy2D {
                        rows: p.nb,
                        cols: p.kb,
                        row_stride,
                        col_stride,
                    }),
                    [Operand::new(b, base), dst.into()],
                    [],
                ))],
            )],
        )
    }
}
