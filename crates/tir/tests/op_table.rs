//! Table-driven differential over every intrinsic kind.
//!
//! Each case is a one-op function. It runs on the interpreter, on the
//! compiled plan and on the checked plan, which must agree bit for bit
//! on every buffer — once per kernel backend the CPU supports, each
//! handed to the executors as a `Kernels` handle and compared against
//! the scalar one (integer, copy and fill kinds bit for bit, f32
//! arithmetic to 1e-5); and because the validator, the plan builder and
//! checked execution all trust the spans of `Op::desc`, each case also
//! pins them from both sides:
//!
//! - **guarded layout** — every operand sits `GUARD` elements into its
//!   buffer with `GUARD` more after its descriptor span. After a run,
//!   nothing outside a write/accumulate span may have changed, so no
//!   read-only operand changed and no kernel wrote past what its
//!   descriptor claims;
//! - **exact layout** — every buffer is exactly its operand's span. The
//!   validator and the plan builder must accept it, checked execution
//!   (hard asserts on every slice the kernels take) must run it, and a
//!   buffer one element shorter must be rejected.
//!
//! What this cannot see is a kernel computing the wrong values in all
//! three executors at once — they share `run_op`. Kernel semantics are
//! checked against `gc_tensor::reference` and `gc-baseline` by the
//! template, ragged and workload differentials.

use gc_microkernel::{kernels, BinaryOp, Isa, Kernels, UnaryOp};
use gc_runtime::ThreadPool;
use gc_tensor::{DataType, Storage};
use gc_tir::exec::run_module;
use gc_tir::ir::{Brgemm, Copy2D, ElemType, Role, RowChain};
use gc_tir::plan::{run_plan_call, Globals, PlanScratch};
use gc_tir::{
    compile_module, validate_module, BufDecl, BufId, Call, ExecOptions, Expr, Func, GlobalDecl,
    GlobalKind, Intrinsic, Module, Op, Operand, ReduceOp, Stmt,
};
use std::collections::BTreeSet;

const GUARD: usize = 5;

/// Every intrinsic kind. A new `Op` variant stops [`kind`] compiling:
/// name it there, list it here, and give it cases in [`cases`] — the
/// coverage test fails until it has one.
const KINDS: [&str; 16] = [
    "BrgemmF32",
    "BrgemmU8I8",
    "FillF32",
    "ZeroI32",
    "Pack2D",
    "Unpack2D",
    "Pack2DPad",
    "Unpack2DClamp",
    "ReduceRows",
    "DequantAcc",
    "QuantU8",
    "DequantU8",
    "DequantI8",
    "CompAccumulate",
    "CastI32F32",
    "RowChain",
];

fn kind(op: &Op) -> &'static str {
    match op {
        Op::BrgemmF32(_) => "BrgemmF32",
        Op::BrgemmU8I8(_) => "BrgemmU8I8",
        Op::FillF32 { .. } => "FillF32",
        Op::ZeroI32 { .. } => "ZeroI32",
        Op::Pack2D(_) => "Pack2D",
        Op::Unpack2D(_) => "Unpack2D",
        Op::Pack2DPad { .. } => "Pack2DPad",
        Op::Unpack2DClamp { .. } => "Unpack2DClamp",
        Op::ReduceRows { .. } => "ReduceRows",
        Op::DequantAcc { .. } => "DequantAcc",
        Op::QuantU8 { .. } => "QuantU8",
        Op::DequantU8 { .. } => "DequantU8",
        Op::DequantI8 { .. } => "DequantI8",
        Op::CompAccumulate { .. } => "CompAccumulate",
        Op::CastI32F32 { .. } => "CastI32F32",
        Op::RowChain(_) => "RowChain",
    }
}

/// What a case's written operand must look like afterwards, beyond
/// "identical in all three executors".
#[derive(Clone, Copy, PartialEq)]
enum Expect {
    /// No extra claim.
    Any,
    /// The write span is untouched (a clamp with nothing available).
    Untouched,
    /// The write span is all zeros (a padded pack of nothing).
    Zeroed,
}

struct Case {
    name: String,
    op: Op,
    /// Buffer each operand lives in; operands sharing an index alias
    /// the same window (the in-place modes).
    bufs: Vec<usize>,
    /// Constant clamp bases.
    clamps: Vec<i64>,
    /// Element type of `ElemType::Copied` operands.
    copied: DataType,
    expect: Expect,
}

fn case(name: &str, op: Op, bufs: &[usize]) -> Case {
    Case {
        name: name.to_string(),
        op,
        bufs: bufs.to_vec(),
        clamps: vec![],
        copied: DataType::F32,
        expect: Expect::Any,
    }
}

fn cases() -> Vec<Case> {
    let g = Brgemm {
        m: 4,
        n: 3,
        k: 5,
        batch: 2,
        a_stride: 23,
        b_stride: 17,
    };
    let rows_of = Copy2D {
        rows: 4,
        cols: 4,
        row_stride: 10,
        col_stride: 1,
    };
    let transposed = Copy2D {
        rows: 3,
        cols: 4,
        row_stride: 1,
        col_stride: 5,
    };
    let mut v = vec![
        case("brgemm f32", Op::BrgemmF32(g), &[0, 1, 2]),
        case("brgemm u8i8", Op::BrgemmU8I8(g), &[0, 1, 2]),
        case("fill", Op::FillF32 { len: 7, value: 1.5 }, &[0]),
        case("zero", Op::ZeroI32 { len: 7 }, &[0]),
        case("pack rows", Op::Pack2D(rows_of), &[0, 1]),
        Case {
            copied: DataType::U8,
            ..case("pack transposed u8", Op::Pack2D(transposed), &[0, 1])
        },
        case("unpack rows", Op::Unpack2D(rows_of), &[0, 1]),
        Case {
            copied: DataType::I32,
            ..case("unpack transposed i32", Op::Unpack2D(transposed), &[0, 1])
        },
    ];
    // clamps: logical 6 against a tile of 4 gives avail 4 / 2 / 0 at
    // bases 0 / 4 / 8
    for (mode, base, expect_skip) in [("full", 0, false), ("partial", 4, false), ("zero", 8, true)]
    {
        let name = |what: &str| format!("{what} avail {mode}");
        v.push(Case {
            clamps: vec![base, base],
            copied: DataType::I8,
            expect: if expect_skip {
                Expect::Zeroed
            } else {
                Expect::Any
            },
            ..case(
                &name("pack pad"),
                Op::Pack2DPad {
                    g: rows_of,
                    row_logical: 6,
                    col_logical: 6,
                },
                &[0, 1],
            )
        });
        v.push(Case {
            clamps: vec![base, base],
            expect: if expect_skip {
                Expect::Untouched
            } else {
                Expect::Any
            },
            ..case(
                &name("unpack clamp"),
                Op::Unpack2DClamp {
                    g: rows_of,
                    row_logical: 6,
                    col_logical: 6,
                },
                &[0, 1],
            )
        });
    }
    let reduce = |op| Op::ReduceRows {
        op,
        rows: 3,
        cols: 4,
    };
    let dequant_acc = |bias| Op::DequantAcc {
        rows: 3,
        cols: 4,
        a_zero: 3,
        scale: 0.125,
        bias,
    };
    v.extend([
        case("reduce sum", reduce(ReduceOp::Sum), &[0, 1]),
        case("reduce max", reduce(ReduceOp::Max), &[0, 1]),
        case("dequant acc", dequant_acc(false), &[0, 1, 2]),
        case("dequant acc bias", dequant_acc(true), &[0, 1, 2, 3]),
        case(
            "quant u8",
            Op::QuantU8 {
                len: 9,
                scale: 0.25,
                zero_point: 7,
            },
            &[0, 1],
        ),
        case(
            "dequant u8",
            Op::DequantU8 {
                len: 9,
                scale: 0.25,
                zero_point: 7,
            },
            &[0, 1],
        ),
        case("dequant i8", Op::DequantI8 { len: 9, scale: 0.5 }, &[0, 1]),
        case(
            "comp accumulate",
            Op::CompAccumulate { nb: 3, kb: 5 },
            &[0, 1],
        ),
        case("cast", Op::CastI32F32 { len: 9 }, &[0, 1]),
    ]);
    v.extend(row_chain_cases());
    v
}

/// Row chains over a 3-row block of two 5-column tiles (odd widths, so
/// every backend runs its tail path), each once in place and once
/// storing to a separate destination: a fused softmax, every other step
/// kind, a first pass with no steps (a standalone softmax) reading a
/// full operand of wider rows, a chain that ends in a reduction, a chain
/// with no steps (storing, the copy into a blocked output) and a
/// standalone softmax's subtract and divide by column vectors (one value
/// per row, `rows != cols`). Then the shapes standalone ops lower to: a
/// one-step chain over one row of 9, and column vectors over a square
/// 4 x 4 block (`rows == cols`, where a row vector and a column vector
/// have the same length).
fn row_chain_cases() -> Vec<Case> {
    type Build = fn(&mut RowChain) -> Option<()>;
    let col_vec: Build = |c| {
        c.col_vec(BinaryOp::Sub)?;
        c.unary(UnaryOp::Exp)?;
        c.col_vec(BinaryOp::Div)
    };
    let programs: [(&str, Build); 6] = [
        ("softmax", |c| {
            c.scalar(BinaryOp::Div, 1.5)?;
            c.row_vec(BinaryOp::Add)?;
            c.reduce(ReduceOp::Max)?;
            c.stat(BinaryOp::Sub)?;
            c.unary(UnaryOp::Exp)?;
            c.reduce(ReduceOp::Sum)?;
            c.stat(BinaryOp::Div)
        }),
        ("every step", |c| {
            c.full(BinaryOp::Sub, 10)?;
            for op in [UnaryOp::Neg, UnaryOp::Square, UnaryOp::Tanh, UnaryOp::Gelu] {
                c.unary(op)?;
            }
            c.scalar(BinaryOp::Mul, 0.75)?;
            c.reduce(ReduceOp::Sum)?;
            c.stat(BinaryOp::Max)?;
            c.row_vec(BinaryOp::Min)?;
            c.unary(UnaryOp::Sigmoid)?;
            c.reduce(ReduceOp::Max)?;
            c.stat(BinaryOp::Mul)
        }),
        ("empty first pass", |c| {
            c.reduce(ReduceOp::Max)?;
            c.stat(BinaryOp::Sub)?;
            c.unary(UnaryOp::Relu)?;
            c.full(BinaryOp::Div, 13)
        }),
        ("ends in a reduction", |c| {
            c.unary(UnaryOp::Exp)?;
            c.reduce(ReduceOp::Sum)
        }),
        ("with no steps", |_| Some(())),
        ("col vec", col_vec),
    ];
    let one_step: Build = |c| c.unary(UnaryOp::Relu);
    let geometries = programs
        .into_iter()
        .map(|(name, build)| (name, [3, 5, 2], build))
        .chain([
            ("one step 1x9", [1, 9, 1], one_step),
            ("col vec 4x4", [4, 4, 1], col_vec),
        ]);
    let mut v = Vec::new();
    for (name, [rows, cols, tiles], build) in geometries {
        for store in [false, true] {
            let mut c = RowChain::new(rows, cols, tiles, store);
            build(&mut c).expect("program fits");
            let bufs: Vec<usize> = (0..c.buffers()).collect();
            let mode = if store { "storing" } else { "in place" };
            v.push(case(
                &format!("row chain {name} {mode}"),
                Op::RowChain(c),
                &bufs,
            ));
        }
    }
    v
}

/// Deterministic, NaN-free fill: small positive f32s (safe under exp,
/// div and max), small integers elsewhere.
fn fill(dtype: DataType, len: usize, salt: usize) -> Storage {
    let x = |i: usize| (i * 7 + salt * 13) % 11;
    match dtype {
        DataType::F32 => Storage::F32((0..len).map(|i| 0.25 + x(i) as f32 * 0.125).collect()),
        DataType::U8 => Storage::U8((0..len).map(|i| x(i) as u8 + 1).collect()),
        DataType::I8 => Storage::I8((0..len).map(|i| x(i) as i8 - 5).collect()),
        DataType::I32 => Storage::I32((0..len).map(|i| x(i) as i32 * 3 - 9).collect()),
        other => panic!("no intrinsic operates on {other}"),
    }
}

fn bits(s: &Storage) -> Vec<u64> {
    (0..s.len()).map(|i| s.get_as_f64(i).to_bits()).collect()
}

/// The case as a one-op module: operand `k` at offset `lead` of buffer
/// `bufs[k]`, each buffer sized `lead + span + trail - shrink` for the
/// widest operand in it.
fn build(c: &Case, lead: usize, trail: usize, shrink: usize) -> (Module, Vec<Storage>) {
    let desc = c.op.desc(None);
    let n_bufs = c.bufs.iter().max().unwrap() + 1;
    let mut decls: Vec<Option<(DataType, usize)>> = vec![None; n_bufs];
    for (spec, &b) in desc.operands().iter().zip(&c.bufs) {
        let dtype = match spec.dtype {
            ElemType::Is(dt) => dt,
            ElemType::Copied => c.copied,
        };
        let elems = lead + spec.footprint.span() + trail - shrink;
        let slot = decls[b].get_or_insert((dtype, elems));
        assert_eq!(
            slot.0, dtype,
            "{}: aliased operands disagree on dtype",
            c.name
        );
        slot.1 = slot.1.max(elems);
    }
    let decls: Vec<(DataType, usize)> = decls.into_iter().map(Option::unwrap).collect();
    let func = Func {
        name: "one_op".into(),
        params: decls
            .iter()
            .enumerate()
            .map(|(i, &(dt, n))| BufDecl::new(dt, n, format!("b{i}")))
            .collect(),
        locals: vec![],
        var_count: 0,
        body: vec![Stmt::Op(Intrinsic::new(
            c.op,
            c.bufs.iter().map(|&b| Operand::new(BufId::Param(b), lead)),
            c.clamps.iter().map(|&b| Expr::c(b)),
        ))],
    };
    let mut m = Module::new();
    let f = m.add_func(func);
    let mut globals = Vec::new();
    for (i, &(dtype, elems)) in decls.iter().enumerate() {
        m.add_global(GlobalDecl {
            dtype,
            elems,
            // not Scratch: the module validator would (rightly) object to
            // reading scratch no earlier call wrote
            kind: GlobalKind::Weight,
            name: format!("g{i}"),
        });
        globals.push(fill(dtype, elems, i));
    }
    m.main_calls.push(Call {
        func: f,
        args: (0..decls.len()).collect(),
    });
    (m, globals)
}

/// Run on the interpreter, the plan and the checked plan of backend
/// `k`; all buffers must agree bit for bit. Returns the common result.
fn run_on(name: &str, m: &Module, init: &[Storage], k: Kernels) -> Vec<Storage> {
    let pool = ThreadPool::new(1);
    let mut interp = init.to_vec();
    run_module(m, &mut interp, &pool, true, ExecOptions::default(), k).expect("globals match");

    let plan = compile_module(m, 1);
    assert!(plan.func(0).is_some(), "{name}: plan builder rejected it");
    for opts in [ExecOptions::default(), ExecOptions::checked()] {
        let mut globals = init.to_vec();
        let mut scratch = PlanScratch::for_plan(&plan);
        let args = &m.main_calls[0].args;
        run_plan_call(
            &plan,
            0,
            args,
            &mut Globals::owned(&mut globals),
            &pool,
            &mut scratch,
            opts,
            k,
        );
        for (b, (got, want)) in globals.iter().zip(&interp).enumerate() {
            assert_eq!(
                bits(got),
                bits(want),
                "{name}: plan (checked={}) and interpreter differ in buffer {b} on {}",
                opts.checked,
                k.isa()
            );
        }
    }
    interp
}

/// [`run_on`] every backend the CPU supports, each against the scalar
/// result: bit for bit, except that f32 arithmetic (lane-width reduction
/// order, FMA contraction) may differ by 1e-5. Returns the scalar
/// result.
fn run_all(c: &Case, m: &Module, init: &[Storage]) -> Vec<Storage> {
    let moves_data = matches!(
        c.op,
        Op::FillF32 { .. }
            | Op::Pack2D(_)
            | Op::Unpack2D(_)
            | Op::Pack2DPad { .. }
            | Op::Unpack2DClamp { .. }
    );
    let scalar = run_on(&c.name, m, init, kernels(Isa::Scalar));
    for isa in [Isa::Avx2, Isa::Avx512]
        .into_iter()
        .filter(|i| i.supported())
    {
        let got = run_on(&c.name, m, init, kernels(isa));
        for (b, (g, w)) in got.iter().zip(&scalar).enumerate() {
            let exact = moves_data || g.dtype() != DataType::F32;
            for i in 0..w.len() {
                let (x, y) = (g.get_as_f64(i), w.get_as_f64(i));
                let tol = if exact { 0.0 } else { 1e-5 * y.abs().max(1.0) };
                assert!(
                    x.to_bits() == y.to_bits() || (x - y).abs() <= tol,
                    "{}: buffer {b} element {i}: {isa} {x} vs scalar {y}",
                    c.name
                );
            }
        }
    }
    scalar
}

#[test]
fn every_kind_has_a_case() {
    let covered: BTreeSet<&str> = cases().iter().map(|c| kind(&c.op)).collect();
    let all: BTreeSet<&str> = KINDS.into_iter().collect();
    assert_eq!(covered, all);
}

#[test]
fn executors_agree_and_stay_inside_descriptor_spans() {
    for c in cases() {
        let desc = c.op.desc(None);
        let (m, init) = build(&c, GUARD, GUARD, 0);
        validate_module(&m).unwrap_or_else(|e| panic!("{}: {e}", c.name));
        let after = run_all(&c, &m, &init);

        // per buffer: the element ranges some operand may write
        let mut writable = vec![Vec::new(); init.len()];
        for (spec, &b) in desc.operands().iter().zip(&c.bufs) {
            if spec.role != Role::Read {
                writable[b].push(GUARD..GUARD + spec.footprint.span());
            }
        }
        for (b, (before, after)) in init.iter().zip(&after).enumerate() {
            let (before, after) = (bits(before), bits(after));
            for i in 0..before.len() {
                let in_span = writable[b].iter().any(|r| r.contains(&i));
                assert!(
                    in_span || before[i] == after[i],
                    "{}: buffer {b} element {i} changed outside every write span",
                    c.name
                );
                if in_span && c.expect != Expect::Any {
                    let want = match c.expect {
                        Expect::Zeroed => 0f64.to_bits(),
                        _ => before[i],
                    };
                    assert_eq!(after[i], want, "{}: buffer {b} element {i}", c.name);
                }
            }
        }
    }
}

#[test]
fn descriptor_spans_are_what_the_bounds_checks_enforce() {
    for c in cases() {
        // exact fit: accepted, and checked execution finds every slice
        // the kernels take inside its buffer
        let (m, init) = build(&c, 0, 0, 0);
        validate_module(&m).unwrap_or_else(|e| panic!("{} exact fit: {e}", c.name));
        run_all(&c, &m, &init);
        // one element short: the validator and the plan builder refuse
        let (short, _) = build(&c, 0, 0, 1);
        assert!(
            validate_module(&short).is_err(),
            "{}: validator accepted a buffer one element short of the span",
            c.name
        );
        assert!(
            compile_module(&short, 1).func(0).is_none(),
            "{}: plan builder accepted a buffer one element short of the span",
            c.name
        );
    }
}

/// The template's fused chain on a task that owns one of `NPN` column
/// slices of the output: each call reads the bias and a full-shape
/// residual from its slice's first column (the residual in rows of the
/// whole width) and stores `relu(c + bias + residual)` into its slice of
/// the blocked output. On the interpreter, the plan and the checked plan
/// of the scalar and the detected backend, bit for bit against the
/// values computed here.
#[test]
fn row_chain_reads_its_column_slice_of_side_operands() {
    const NPN: usize = 2;
    let (rows, cols, tiles) = (3, 5, 2);
    let (block, width) = (rows * cols * tiles, cols * tiles);
    let ld = NPN * width;
    let mut c = RowChain::new(rows, cols, tiles, true);
    c.row_vec(BinaryOp::Add).unwrap();
    c.full(BinaryOp::Add, ld).unwrap();
    c.unary(UnaryOp::Relu).unwrap();
    let slice = |elems: usize| Expr::v(gc_tir::VarId(0)).mul(Expr::from(elems));
    let func = Func {
        name: "column_slices".into(),
        params: vec![
            BufDecl::new(DataType::F32, NPN * block, "c"),
            BufDecl::new(DataType::F32, ld, "bias"),
            BufDecl::new(DataType::F32, rows * ld, "residual"),
            BufDecl::new(DataType::F32, NPN * block, "out"),
        ],
        locals: vec![],
        var_count: 1,
        body: vec![Stmt::parallel(
            gc_tir::VarId(0),
            NPN,
            vec![Stmt::Op(Intrinsic::new(
                Op::RowChain(c),
                [
                    Operand::new(BufId::Param(0), slice(block)),
                    Operand::new(BufId::Param(1), slice(width)),
                    Operand::new(BufId::Param(2), slice(width)),
                    Operand::new(BufId::Param(3), slice(block)),
                ],
                [],
            ))],
        )],
    };
    let mut m = Module::new();
    let f = m.add_func(func);
    let sizes = [NPN * block, ld, rows * ld, NPN * block];
    for (i, &elems) in sizes.iter().enumerate() {
        let kind = if i == 3 {
            GlobalKind::Scratch
        } else {
            GlobalKind::Weight
        };
        m.add_global(GlobalDecl {
            dtype: DataType::F32,
            elems,
            kind,
            name: format!("g{i}"),
        });
    }
    m.main_calls.push(Call {
        func: f,
        args: vec![0, 1, 2, 3],
    });
    let vals = |len: usize, salt: usize| -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 7 + salt * 13) % 11) as f32 * 0.25 - 1.25)
            .collect()
    };
    let (cv, bias, res) = (vals(sizes[0], 0), vals(sizes[1], 1), vals(sizes[2], 2));
    // blocked [slice][tile][row][col]; the side operands' column is
    // slice * width + tile * cols + col
    let mut want = vec![0.0f32; NPN * block];
    for s in 0..NPN {
        for t in 0..tiles {
            for r in 0..rows {
                for j in 0..cols {
                    let at = s * block + (t * rows + r) * cols + j;
                    let col = s * width + t * cols + j;
                    want[at] = (cv[at] + bias[col] + res[r * ld + col]).max(0.0);
                }
            }
        }
    }
    let init: Vec<Storage> = [cv, bias, res, vec![0.0; NPN * block]]
        .into_iter()
        .map(Storage::F32)
        .collect();
    validate_module(&m).expect("validates");
    for isa in [Isa::Scalar, gc_microkernel::arch::detected_isa()] {
        let got = run_on("column slices", &m, &init, kernels(isa));
        assert_eq!(
            bits(&got[3]),
            bits(&Storage::F32(want.clone())),
            "column slices on {isa}"
        );
    }
}
