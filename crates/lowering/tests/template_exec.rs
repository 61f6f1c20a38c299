//! Direct template tests: instantiate `lower_matmul` with hand-picked
//! parameters and execute the resulting function, checking against the
//! naive reference. This exercises every template axis independently of
//! the graph pipeline: A blocked/plain, B weight/in-loop(/transposed),
//! int8 epilogue, bias, each post-op kind, both output layouts, both
//! post-op anchors, and both pack placements.

use gc_lowering::anchors::{PackPlacement, PostOpAnchor};
use gc_lowering::template::{AInput, BInput, Int8Spec, OutLayout, ParamRole, PostOpSpec};
use gc_lowering::{lower_matmul, MatmulParams, MatmulProblem, MatmulSpec};
use gc_machine::MachineDescriptor;
use gc_microkernel::{BinaryOp, UnaryOp};
use gc_runtime::ThreadPool;
use gc_tensor::{reference, reorder, DataType, Layout, Storage, Tensor};
use gc_tir::{Call, GlobalDecl, GlobalKind, Module, ReduceOp};

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

/// Execute a lowered template on the given tensors (B already in the
/// layout the spec expects) and return the flat output.
fn run(spec: &MatmulSpec, tensors: Vec<Storage>) -> Vec<Storage> {
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
    let mut globals = tensors;
    assert_eq!(globals.len(), decls.len(), "one storage per param");
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

fn blocked_weight(w: &Tensor, kb: usize, nb: usize) -> Storage {
    let b = reorder::reorder(w, Layout::blocked_b(2, kb, nb)).unwrap();
    b.into_storage()
}

fn max_diff(a: &Storage, want: &Tensor) -> f64 {
    let n = want.desc().volume();
    (0..n)
        .map(|i| (a.get_as_f64(i) - want.storage().get_as_f64(i)).abs())
        .fold(0.0, f64::max)
}

#[test]
fn f32_plain_in_plain_out() {
    let (m, n, k) = (16, 24, 32);
    let p = MatmulParams {
        mpn: 2,
        npn: 3,
        mb: 4,
        nb: 8,
        kb: 16,
        bs: 2,
    };
    let prob = MatmulProblem::new(m, n, k, 4);
    let spec = default_spec(prob, p);
    let a = Tensor::random(&[m, k], DataType::F32, 1);
    let w = Tensor::random(&[k, n], DataType::F32, 2);
    let want = reference::matmul_f32(&a, &w).unwrap();
    let out = run(
        &spec,
        vec![
            a.storage().clone(),
            blocked_weight(&w, p.kb, p.nb),
            Storage::F32(vec![0.0; m * n]),
        ],
    );
    assert!(max_diff(&out[2], &want) < 1e-4);
}

#[test]
fn f32_every_post_op_kind_chained() {
    // matmul -> *2.0 -> +rowvec -> relu, blocked out
    let (m, n, k) = (8, 16, 8);
    let p = MatmulParams {
        mpn: 1,
        npn: 1,
        mb: 4,
        nb: 8,
        kb: 8,
        bs: 1,
    };
    let prob = MatmulProblem::new(m, n, k, 4);
    let mut spec = default_spec(prob, p);
    spec.post_ops = vec![
        PostOpSpec::BinaryScalarConst(BinaryOp::Mul, 2.0),
        PostOpSpec::BinaryRowVec {
            op: BinaryOp::Add,
            batch_indexed: false,
        },
        PostOpSpec::Unary(UnaryOp::Relu),
    ];
    spec.out = OutLayout::BlockedMbNb;
    let lowered = lower_matmul(&machine(), &spec, "t");
    assert_eq!(
        lowered.roles,
        vec![
            ParamRole::A,
            ParamRole::B,
            ParamRole::PostOperand(1),
            ParamRole::Out
        ]
    );
    let a = Tensor::random(&[m, k], DataType::F32, 3);
    let w = Tensor::random(&[k, n], DataType::F32, 4);
    let bias = Tensor::random(&[n], DataType::F32, 5);
    let mm = reference::matmul_f32(&a, &w).unwrap();
    let scaled = reference::binary(
        reference::BinaryKind::Mul,
        &mm,
        &Tensor::from_vec_f32(&[1], vec![2.0]).unwrap(),
    )
    .unwrap();
    let biased = reference::bias_add(&scaled, &bias).unwrap();
    let want_plain = reference::relu(&biased).unwrap();
    let want = reorder::reorder(&want_plain, Layout::blocked_a(2, p.mb, p.nb)).unwrap();
    let out = run(
        &spec,
        vec![
            a.storage().clone(),
            blocked_weight(&w, p.kb, p.nb),
            bias.storage().clone(),
            Storage::F32(vec![0.0; m * n]),
        ],
    );
    // compare in storage order against the blocked want
    let n_el = m * n;
    let ws = want.f32_slice().unwrap();
    for (i, &w) in ws.iter().enumerate().take(n_el) {
        assert!((out[3].get_as_f64(i) - w as f64).abs() < 1e-4, "elem {i}");
    }
}

#[test]
fn f32_bias_slot() {
    let (m, n, k) = (8, 8, 8);
    let p = MatmulParams {
        mpn: 1,
        npn: 1,
        mb: 8,
        nb: 8,
        kb: 8,
        bs: 1,
    };
    let mut spec = default_spec(MatmulProblem::new(m, n, k, 4), p);
    spec.bias = true;
    let a = Tensor::random(&[m, k], DataType::F32, 6);
    let w = Tensor::random(&[k, n], DataType::F32, 7);
    let bias = Tensor::random(&[n], DataType::F32, 8);
    let want = reference::bias_add(&reference::matmul_f32(&a, &w).unwrap(), &bias).unwrap();
    let out = run(
        &spec,
        vec![
            a.storage().clone(),
            blocked_weight(&w, p.kb, p.nb),
            bias.storage().clone(),
            Storage::F32(vec![0.0; m * n]),
        ],
    );
    assert!(max_diff(&out[3], &want) < 1e-4);
}

#[test]
fn int8_epilogue_with_quantized_output() {
    let (m, n, k) = (8, 8, 16);
    let p = MatmulParams {
        mpn: 2,
        npn: 1,
        mb: 4,
        nb: 8,
        kb: 8,
        bs: 2,
    };
    let prob = MatmulProblem::new(m, n, k, 1);
    let mut spec = default_spec(prob, p);
    let (a_zero, a_s, b_s) = (5, 0.1f32, 0.2f32);
    spec.int8 = Some(Int8Spec {
        a_zero,
        scale: a_s * b_s,
    });
    spec.post_ops = vec![PostOpSpec::Quantize {
        scale: 0.05,
        zero_point: 9,
    }];
    spec.out_dtype = DataType::U8;

    let a = Tensor::random(&[m, k], DataType::U8, 9);
    let w = Tensor::random(&[k, n], DataType::I8, 10);
    // compensation vector
    let comp = gc_tensor::quant::weight_compensation(w.i8_slice().unwrap(), k, n);
    // reference: dequantize -> matmul -> quantize
    let a_f = reference::dequantize(&a, gc_tensor::QuantParams::new(a_s, a_zero)).unwrap();
    let w_f = reference::dequantize(&w, gc_tensor::QuantParams::symmetric(b_s)).unwrap();
    let mm = reference::matmul_f32(&a_f, &w_f).unwrap();
    let want =
        reference::quantize(&mm, DataType::U8, gc_tensor::QuantParams::new(0.05, 9)).unwrap();
    let out = run(
        &spec,
        vec![
            a.storage().clone(),
            blocked_weight(&w, p.kb, p.nb),
            Storage::I32(comp),
            Storage::U8(vec![0; m * n]),
        ],
    );
    for i in 0..m * n {
        let d = (out[3].get_as_f64(i) - want.storage().get_as_f64(i)).abs();
        assert!(d <= 1.0, "elem {i}: {d}");
    }
}

#[test]
fn batched_in_loop_rhs_with_transpose() {
    // Q x K^T with K provided untransposed (the MHA pre-op pattern)
    let (bh, s, d) = (3, 8, 16);
    let p = MatmulParams {
        mpn: 2,
        npn: 1,
        mb: 4,
        nb: 8,
        kb: 8,
        bs: 1,
    };
    let prob = MatmulProblem::batched(bh, s, s, d, 4);
    let mut spec = default_spec(prob, p);
    spec.b_input = BInput::PlainInLoop { transposed: true };
    let q = Tensor::random(&[bh, s, d], DataType::F32, 11);
    let kt_src = Tensor::random(&[bh, s, d], DataType::F32, 12);
    let k_t = reorder::transpose_last2(&kt_src).unwrap();
    let want = reference::matmul_f32(&q, &k_t).unwrap();
    let out = run(
        &spec,
        vec![
            q.storage().clone(),
            kt_src.storage().clone(),
            Storage::F32(vec![0.0; bh * s * s]),
        ],
    );
    assert!(max_diff(&out[2], &want) < 1e-4);
}

#[test]
fn split_reduction_softmax_post_ops() {
    let (m, n, k) = (8, 16, 8);
    let p = MatmulParams {
        mpn: 2,
        npn: 1,
        mb: 4,
        nb: 4,
        kb: 8,
        bs: 1,
    };
    let mut spec = default_spec(MatmulProblem::new(m, n, k, 4), p);
    spec.post_ops = vec![
        PostOpSpec::ReduceRow(ReduceOp::Max),
        PostOpSpec::BinaryColStat { op: BinaryOp::Sub },
        PostOpSpec::Unary(UnaryOp::Exp),
        PostOpSpec::ReduceRow(ReduceOp::Sum),
        PostOpSpec::BinaryColStat { op: BinaryOp::Div },
    ];
    let a = Tensor::random(&[m, k], DataType::F32, 13);
    let w = Tensor::random(&[k, n], DataType::F32, 14);
    let want = reference::softmax_last_axis(&reference::matmul_f32(&a, &w).unwrap()).unwrap();
    let out = run(
        &spec,
        vec![
            a.storage().clone(),
            blocked_weight(&w, p.kb, p.nb),
            Storage::F32(vec![0.0; m * n]),
        ],
    );
    assert!(max_diff(&out[2], &want) < 1e-5);
}

#[test]
fn both_post_anchors_agree() {
    let (m, n, k) = (16, 16, 16);
    let p = MatmulParams {
        mpn: 1,
        npn: 1,
        mb: 4,
        nb: 8,
        kb: 8,
        bs: 2,
    };
    let a = Tensor::random(&[m, k], DataType::F32, 15);
    let w = Tensor::random(&[k, n], DataType::F32, 16);
    let mut outs = Vec::new();
    for anchor in [PostOpAnchor::P1, PostOpAnchor::P2] {
        let mut spec = default_spec(MatmulProblem::new(m, n, k, 4), p);
        spec.post_ops = vec![PostOpSpec::Unary(UnaryOp::Gelu)];
        spec.forced_post_anchor = Some(anchor);
        let out = run(
            &spec,
            vec![
                a.storage().clone(),
                blocked_weight(&w, p.kb, p.nb),
                Storage::F32(vec![0.0; m * n]),
            ],
        );
        outs.push(out[2].as_slice::<f32>().unwrap().to_vec());
    }
    assert_eq!(outs[0], outs[1]);
}

#[test]
fn both_pack_placements_agree() {
    let (m, n, k) = (16, 8, 32);
    let p = MatmulParams {
        mpn: 2,
        npn: 1,
        mb: 8,
        nb: 8,
        kb: 8,
        bs: 2,
    };
    let a = Tensor::random(&[m, k], DataType::F32, 17);
    let w = Tensor::random(&[k, n], DataType::F32, 18);
    let mut outs = Vec::new();
    for pack in [PackPlacement::PerTask, PackPlacement::PerKChunk] {
        let mut spec = default_spec(MatmulProblem::new(m, n, k, 4), p);
        spec.forced_pack = Some(pack);
        let out = run(
            &spec,
            vec![
                a.storage().clone(),
                blocked_weight(&w, p.kb, p.nb),
                Storage::F32(vec![0.0; m * n]),
            ],
        );
        outs.push(out[2].as_slice::<f32>().unwrap().to_vec());
    }
    assert_eq!(outs[0], outs[1]);
    let want = reference::matmul_f32(&a, &w).unwrap();
    for (x, y) in outs[0].iter().zip(want.f32_slice().unwrap()) {
        assert!((x - y).abs() < 1e-4);
    }
}

#[test]
fn blocked_a_input_matches_plain() {
    let (m, n, k) = (16, 16, 16);
    let p = MatmulParams {
        mpn: 2,
        npn: 2,
        mb: 4,
        nb: 8,
        kb: 8,
        bs: 1,
    };
    let a = Tensor::random(&[m, k], DataType::F32, 19);
    let w = Tensor::random(&[k, n], DataType::F32, 20);
    let want = reference::matmul_f32(&a, &w).unwrap();

    let mut spec = default_spec(MatmulProblem::new(m, n, k, 4), p);
    spec.a_input = AInput::Blocked;
    let a_blocked = reorder::reorder(&a, Layout::blocked_a(2, p.mb, p.kb)).unwrap();
    let out = run(
        &spec,
        vec![
            a_blocked.into_storage(),
            blocked_weight(&w, p.kb, p.nb),
            Storage::F32(vec![0.0; m * n]),
        ],
    );
    assert!(max_diff(&out[2], &want) < 1e-4);
}

#[test]
fn full_shape_binary_operand() {
    let (m, n, k) = (8, 8, 8);
    let p = MatmulParams {
        mpn: 1,
        npn: 1,
        mb: 4,
        nb: 8,
        kb: 8,
        bs: 1,
    };
    let mut spec = default_spec(MatmulProblem::new(m, n, k, 4), p);
    spec.post_ops = vec![PostOpSpec::BinaryFull { op: BinaryOp::Add }];
    let a = Tensor::random(&[m, k], DataType::F32, 21);
    let w = Tensor::random(&[k, n], DataType::F32, 22);
    let other = Tensor::random(&[m, n], DataType::F32, 23);
    let want = reference::binary(
        reference::BinaryKind::Add,
        &reference::matmul_f32(&a, &w).unwrap(),
        &other,
    )
    .unwrap();
    let out = run(
        &spec,
        vec![
            a.storage().clone(),
            blocked_weight(&w, p.kb, p.nb),
            other.storage().clone(),
            Storage::F32(vec![0.0; m * n]),
        ],
    );
    assert!(max_diff(&out[3], &want) < 1e-4);
}
