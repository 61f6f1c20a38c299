//! Ragged-shape template tests: drive every M/N residue class modulo
//! the block sizes through pack → brgemm → unpack (edge tiles are
//! zero-padded at pack time and the clamped unpack drops the pad rows
//! and columns), with k depths that leave a remainder to the brgemm body's vector width; check int8 stays
//! bit-exact between the interpreter and the checked plan executor, and
//! prove the validator rejects an edge tile that would overrun logical
//! bounds.

use gc_lowering::template::{AInput, BInput, Int8Spec, OutLayout, PostOpSpec};
use gc_lowering::{lower_matmul, MatmulParams, MatmulProblem, MatmulSpec};
use gc_machine::MachineDescriptor;
use gc_runtime::ThreadPool;
use gc_tensor::{reference, reorder, DataType, Layout, Storage, Tensor};
use gc_tir::ir::Copy2D;
use gc_tir::plan::{run_plan_call, Globals, PlanScratch};
use gc_tir::{
    compile_module, validate_module, BufDecl, BufId, Call, ExecOptions, Expr, Func, GlobalDecl,
    GlobalKind, Intrinsic, Module, Op, Operand, Stmt,
};

fn machine() -> MachineDescriptor {
    MachineDescriptor::xeon_8358()
}

fn default_spec(problem: MatmulProblem, params: MatmulParams) -> MatmulSpec {
    MatmulSpec {
        problem,
        params,
        int8: None,
        bias: false,
        a_input: AInput::Plain,
        b_input: BInput::BlockedWeight,
        post_ops: vec![],
        out: OutLayout::Plain,
        out_dtype: DataType::F32,
        forced_post_anchor: None,
        forced_pack: None,
    }
}

/// Build the module a lowered template runs in: one scratch global per
/// parameter, one main call.
fn build_module(spec: &MatmulSpec) -> (Module, usize) {
    let lowered = lower_matmul(&machine(), spec, "t");
    let mut m = Module::new();
    let decls = lowered.func.params.clone();
    let fi = m.add_func(lowered.func);
    for (i, d) in decls.iter().enumerate() {
        m.add_global(GlobalDecl {
            dtype: d.dtype,
            elems: d.elems,
            kind: GlobalKind::Scratch,
            name: format!("g{i}"),
        });
    }
    m.main_calls.push(Call {
        func: fi,
        args: (0..decls.len()).collect(),
    });
    m.validate().expect("module validates");
    (m, fi)
}

fn run(spec: &MatmulSpec, tensors: Vec<Storage>) -> Vec<Storage> {
    let (m, _) = build_module(spec);
    let mut globals = tensors;
    assert_eq!(globals.len(), m.globals.len(), "one storage per param");
    gc_tir::exec::run_module(
        &m,
        &mut globals,
        &ThreadPool::new(2),
        true,
        Default::default(),
        Default::default(),
    )
    .expect("run");
    globals
}

/// Zero-pad a plain `[k, n]` f32 weight to ceil-of-block extents — the
/// logical image of what the padded prepack path produces.
fn pad_f32(w: &Tensor, k: usize, n: usize, kp: usize, np: usize) -> Tensor {
    let s = w.f32_slice().unwrap();
    let mut out = vec![0.0f32; kp * np];
    for r in 0..k {
        out[r * np..r * np + n].copy_from_slice(&s[r * n..(r + 1) * n]);
    }
    Tensor::from_vec_f32(&[kp, np], out).unwrap()
}

fn pad_i8(w: &Tensor, k: usize, n: usize, kp: usize, np: usize) -> Tensor {
    let s = w.i8_slice().unwrap();
    let mut out = vec![0i8; kp * np];
    for r in 0..k {
        out[r * np..r * np + n].copy_from_slice(&s[r * n..(r + 1) * n]);
    }
    Tensor::from_vec_i8(&[kp, np], out).unwrap()
}

/// Padded blocked weight: what the constant-fold prepack emits for a
/// ragged `[k, n]` weight with `[kb, nb]` blocks.
fn padded_blocked_f32(w: &Tensor, k: usize, n: usize, kb: usize, nb: usize) -> Storage {
    let padded = pad_f32(w, k, n, k.div_ceil(kb) * kb, n.div_ceil(nb) * nb);
    reorder::reorder(&padded, Layout::blocked_b(2, kb, nb))
        .unwrap()
        .into_storage()
}

fn padded_blocked_i8(w: &Tensor, k: usize, n: usize, kb: usize, nb: usize) -> (Storage, Vec<i32>) {
    let (kp, np) = (k.div_ceil(kb) * kb, n.div_ceil(nb) * nb);
    let padded = pad_i8(w, k, n, kp, np);
    // Pad rows are zero, so the compensation over the padded weight
    // equals the logical column sums (zeros in the pad columns).
    let comp = gc_tensor::quant::weight_compensation(padded.i8_slice().unwrap(), kp, np);
    let blocked = reorder::reorder(&padded, Layout::blocked_b(2, kb, nb))
        .unwrap()
        .into_storage();
    (blocked, comp)
}

fn max_diff(a: &Storage, want: &Tensor) -> f64 {
    let n = want.desc().volume();
    (0..n)
        .map(|i| (a.get_as_f64(i) - want.storage().get_as_f64(i)).abs())
        .fold(0.0, f64::max)
}

/// Every residue class of m, n modulo the 8-element blocks (9..=16
/// covers residues 1..=7 and the exact case), with k = 9..=16 taken as
/// one whole-depth block. The A/B edge tiles are zero-filled at pack
/// time; the result must match the naive reference within 1e-5.
#[test]
fn f32_residue_sweep_pads_edge_tiles() {
    let (mb, nb) = (8, 8);
    for m in 9..=16 {
        for n in 9..=16 {
            for k in 9..=16 {
                let p = MatmulParams {
                    mpn: 1,
                    npn: 1,
                    mb,
                    nb,
                    kb: k,
                    bs: 1,
                };
                let prob = MatmulProblem::new(m, n, k, 4);
                let spec = default_spec(prob, p);
                let a = Tensor::random(&[m, k], DataType::F32, (m * 289 + n * 17 + k) as u64);
                let w = Tensor::random(&[k, n], DataType::F32, (n * 289 + k * 17 + m) as u64);
                let want = reference::matmul_f32(&a, &w).unwrap();
                let out = run(
                    &spec,
                    vec![
                        a.storage().clone(),
                        padded_blocked_f32(&w, k, n, k, nb),
                        Storage::F32(vec![0.0; m * n]),
                    ],
                );
                let d = max_diff(&out[2], &want);
                assert!(d < 1e-5, "m={m} n={n} k={k}: max diff {d}");
            }
        }
    }
}

/// Ragged shapes on a batched problem with multiple k-chunks: the
/// accumulate path (beta=1 brgemm over chunk 2..) must also see only
/// full, zero-padded tiles.
#[test]
fn f32_ragged_batched_multi_chunk() {
    let (m, n, k, batch) = (13, 21, 32, 3);
    let p = MatmulParams {
        mpn: 2,
        npn: 3,
        mb: 4,
        nb: 8,
        kb: 8,
        bs: 2,
    };
    let prob = MatmulProblem::batched(batch, m, n, k, 4);
    let spec = default_spec(prob, p);
    let a = Tensor::random(&[batch, m, k], DataType::F32, 5);
    let w = Tensor::random(&[k, n], DataType::F32, 6);
    let wrep = {
        let s = w.f32_slice().unwrap();
        let mut v = Vec::with_capacity(batch * k * n);
        for _ in 0..batch {
            v.extend_from_slice(s);
        }
        Tensor::from_vec_f32(&[batch, k, n], v).unwrap()
    };
    let want = reference::matmul_f32(&a, &wrep).unwrap();
    let out = run(
        &spec,
        vec![
            a.storage().clone(),
            padded_blocked_f32(&w, k, n, 8, 8),
            Storage::F32(vec![0.0; batch * m * n]),
        ],
    );
    let d = max_diff(&out[2], &want);
    assert!(d < 1e-5, "max diff {d}");
}

/// int8 with zero-point compensation on a ragged m/n shape with an odd
/// depth (k = 15, one whole-depth block): padded A rows and B columns
/// are zero, comp over the padded weight equals the logical column
/// sums, and the clamped unpack discards the pad rows/cols — so the
/// result must be exactly the interpreter's, bit for bit, under checked
/// plan execution.
#[test]
fn int8_ragged_plan_matches_interpreter_bitexact() {
    let (m, n, k) = (13, 11, 15);
    let (a_s, b_s, a_zero) = (0.1f32, 0.05f32, 7);
    let p = MatmulParams {
        mpn: 1,
        npn: 1,
        mb: 8,
        nb: 8,
        kb: k,
        bs: 1,
    };
    let prob = MatmulProblem::new(m, n, k, 1);
    let mut spec = default_spec(prob, p);
    spec.int8 = Some(Int8Spec {
        a_zero,
        scale: a_s * b_s,
    });
    spec.post_ops = vec![PostOpSpec::Quantize {
        scale: 0.07,
        zero_point: 11,
    }];
    spec.out_dtype = DataType::U8;

    let a = Tensor::random(&[m, k], DataType::U8, 21);
    let w = Tensor::random(&[k, n], DataType::I8, 22);
    let (wb, comp) = padded_blocked_i8(&w, k, n, p.kb, p.nb);
    let inputs = vec![
        a.storage().clone(),
        wb,
        Storage::I32(comp),
        Storage::U8(vec![0; m * n]),
    ];

    // Interpreter.
    let interp = run(&spec, inputs.clone());

    // Checked plan executor on the same module.
    let (module, fi) = build_module(&spec);
    let plan = compile_module(&module, 1);
    assert!(
        plan.func(fi).is_some(),
        "ragged template must compile to a plan"
    );
    let pool = ThreadPool::new(1);
    let mut globals = inputs;
    let mut scratch = PlanScratch::for_plan(&plan);
    run_plan_call(
        &plan,
        fi,
        &module.main_calls[0].args,
        &mut Globals::owned(&mut globals),
        &pool,
        &mut scratch,
        ExecOptions::checked(),
        Default::default(),
    );

    match (&interp[3], &globals[3]) {
        (Storage::U8(a), Storage::U8(b)) => {
            assert_eq!(a, b, "interpreter vs checked plan differ")
        }
        _ => panic!("output dtype changed"),
    }

    // And both agree with the dequantized reference to one ulp of
    // the output quantization grid.
    let a_f = reference::dequantize(&a, gc_tensor::QuantParams::new(a_s, a_zero)).unwrap();
    let w_f = reference::dequantize(&w, gc_tensor::QuantParams::symmetric(b_s)).unwrap();
    let mm = reference::matmul_f32(&a_f, &w_f).unwrap();
    let want =
        reference::quantize(&mm, DataType::U8, gc_tensor::QuantParams::new(0.07, 11)).unwrap();
    for i in 0..m * n {
        let d = (interp[3].get_as_f64(i) - want.storage().get_as_f64(i)).abs();
        assert!(d <= 1.0, "elem {i}: off by {d}");
    }
}

/// The validator must reject an edge tile whose clamp claims a logical
/// extent larger than the destination buffer: the worst-case span of an
/// `Unpack2DClamp` is computed from the *logical* extents, so a clamp
/// that could reach past the buffer end is a hard error, not a runtime
/// surprise.
#[test]
fn validator_rejects_overrunning_edge_tile() {
    let build = |dst_elems: usize| {
        let func = Func {
            name: "edge".into(),
            params: vec![
                BufDecl::new(DataType::F32, 64, "tile"),
                BufDecl::new(DataType::F32, dst_elems, "out"),
            ],
            locals: vec![],
            var_count: 0,
            body: vec![Stmt::Op(Intrinsic::new(
                Op::Unpack2DClamp {
                    g: Copy2D {
                        rows: 8,
                        cols: 8,
                        row_stride: 8,
                        col_stride: 1,
                    },
                    // Claims the logical array is 8x8 rows x cols: the
                    // clamped store may reach element 7*8 + 7 = 63.
                    row_logical: 8,
                    col_logical: 8,
                },
                [
                    Operand::new(BufId::Param(0), 0usize),
                    Operand::new(BufId::Param(1), 0usize),
                ],
                [Expr::c(0), Expr::c(0)],
            ))],
        };
        let mut m = Module::new();
        let g0 = m.add_global(GlobalDecl {
            dtype: DataType::F32,
            elems: 64,
            kind: GlobalKind::Input(0),
            name: "tile".into(),
        });
        let g1 = m.add_global(GlobalDecl {
            dtype: DataType::F32,
            elems: dst_elems,
            kind: GlobalKind::Scratch,
            name: "out".into(),
        });
        let f = m.add_func(func);
        m.main_calls.push(Call {
            func: f,
            args: vec![g0, g1],
        });
        m
    };
    // A destination exactly covering the logical extents is fine...
    let ok = validate_module(&build(64));
    assert!(ok.is_ok(), "exact-fit edge tile rejected: {ok:?}");
    // ...but one element short means the worst-case edge tile could
    // write out of bounds, and interval analysis must reject it.
    let err = validate_module(&build(63));
    assert!(err.is_err(), "overrunning edge tile accepted: {err:?}");
}
