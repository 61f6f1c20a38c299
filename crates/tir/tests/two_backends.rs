//! The kernel backend is a field of the engine, not state of the thread:
//! one thread drives a scalar and a best-ISA [`Executable`] of the same
//! module alternately on one shared pool, and every execution's kernel
//! calls — the caller's chunks and the pool worker's — are counted
//! against its own engine's ISA only.
//!
//! This file holds a single test on purpose: the dispatch counters are
//! process-wide, and alone in its process the test can assert exact
//! deltas.

use gc_microkernel::arch::{detected_isa, dispatch_report, kernels, Family, Isa};
use gc_microkernel::UnaryOp;
use gc_runtime::ThreadPool;
use gc_tensor::{DataType, Storage, Tensor, TensorDesc};
use gc_tir::ir::{Brgemm, RowChain};
use gc_tir::{
    BufDecl, BufId, Call, Engine, Executable, Expr, Func, GlobalDecl, GlobalKind, Intrinsic,
    Module, Op, Stmt, VarId, View,
};
use std::sync::Arc;

/// Row blocks, then the brgemm tile `M x N x KB` and its batch size.
const BLOCKS: usize = 2;
const M: usize = 8;
const N: usize = 16;
const KB: usize = 37;
const BS: usize = 2;

/// `q = quant_u8(relu(dequant(A x B)))` over `BLOCKS` row blocks in a
/// parallel loop: per block one u8×i8 brgemm of `BS` tile pairs, one
/// dequantize epilogue, one in-place relu, one requantize. Every step is
/// bit-exact across backends.
fn int8_module() -> (Module, Vec<(usize, Tensor)>) {
    let (a_len, b_len, c_len) = (BLOCKS * BS * M * KB, BS * N * KB, BLOCKS * M * N);
    let mut m = Module::new();
    let mut global = |dtype, elems, kind, name: &str| {
        m.add_global(GlobalDecl {
            dtype,
            elems,
            kind,
            name: name.into(),
        })
    };
    let g_a = global(DataType::U8, a_len, GlobalKind::Input(0), "a");
    let g_b = global(DataType::I8, b_len, GlobalKind::Weight, "b");
    let g_comp = global(DataType::I32, N, GlobalKind::Weight, "comp");
    let g_q = global(DataType::U8, c_len, GlobalKind::Output(0), "q");

    let i = VarId(0);
    let at = |stride: usize| Expr::v(i).mul(Expr::c(stride as i64));
    let (acc, deq) = (BufId::Local(0), BufId::Local(1));
    let tile = M * N;
    let mut relu_in_place = RowChain::new(M, N, 1, false);
    relu_in_place.unary(UnaryOp::Relu).unwrap();
    let block = vec![
        Stmt::Op(Intrinsic::new(
            Op::ZeroI32 { len: tile },
            [View::new(acc, at(tile), tile)],
            [],
        )),
        Stmt::Op(Intrinsic::new(
            Op::BrgemmU8I8(Brgemm {
                m: M,
                n: N,
                k: KB,
                batch: BS,
                a_stride: M * KB,
                b_stride: N * KB,
            }),
            [
                View::new(BufId::Param(0), at(BS * M * KB), BS * M * KB),
                View::new(BufId::Param(1), 0usize, b_len),
                View::new(acc, at(tile), tile),
            ],
            [],
        )),
        Stmt::Op(Intrinsic::new(
            Op::DequantAcc {
                rows: M,
                cols: N,
                a_zero: 3,
                scale: 0.0173,
                bias: false,
            },
            [
                View::new(acc, at(tile), tile),
                View::new(BufId::Param(2), 0usize, N),
                View::new(deq, at(tile), tile),
            ],
            [],
        )),
        Stmt::Op(Intrinsic::new(
            Op::RowChain(relu_in_place),
            [View::new(deq, at(tile), tile)],
            [],
        )),
        Stmt::Op(Intrinsic::new(
            Op::QuantU8 {
                len: tile,
                scale: 0.31,
                zero_point: 7,
            },
            [
                View::new(deq, at(tile), tile),
                View::new(BufId::Param(3), at(tile), tile),
            ],
            [],
        )),
    ];
    let f = m.add_func(Func {
        name: "int8_blocks".into(),
        params: vec![
            BufDecl::new(DataType::U8, a_len, "a"),
            BufDecl::new(DataType::I8, b_len, "b"),
            BufDecl::new(DataType::I32, N, "comp"),
            BufDecl::new(DataType::U8, c_len, "q"),
        ],
        locals: vec![
            BufDecl::new(DataType::I32, c_len, "acc"),
            BufDecl::new(DataType::F32, c_len, "deq"),
        ],
        var_count: 1,
        body: vec![Stmt::For {
            var: i,
            extent: BLOCKS,
            parallel: true,
            body: block,
        }],
    });
    m.main_calls.push(Call {
        func: f,
        args: vec![g_a, g_b, g_comp, g_q],
    });
    m.validate().expect("module validates");

    let weight = |storage: Storage| {
        let desc = TensorDesc::new(vec![storage.len()], storage.dtype());
        Tensor::from_parts(desc, storage).expect("weight tensor")
    };
    let b = Storage::I8((0..b_len).map(|x| (x * 7 % 23) as i8 - 11).collect());
    let comp = Storage::I32((0..N).map(|x| x as i32 * 5 - 30).collect());
    (m, vec![(g_b, weight(b)), (g_comp, weight(comp))])
}

#[test]
fn two_backends_alternate_on_one_thread_and_one_pool() {
    let pool = Arc::new(ThreadPool::new(2));
    let build = |isa: Isa| -> Executable {
        let (module, seeds) = int8_module();
        let engine = Engine::new(Arc::clone(&pool)).with_kernels(kernels(isa));
        engine.build(module, seeds, 1)
    };
    let exes = [Isa::Scalar, detected_isa()].map(|isa| (isa, build(isa)));
    let a = Storage::U8(
        (0..BLOCKS * BS * M * KB)
            .map(|x| (x * 13 % 251) as u8)
            .collect(),
    );
    let a = Tensor::from_parts(TensorDesc::new(vec![a.len()], DataType::U8), a).unwrap();

    let mut outputs: Vec<Vec<u8>> = Vec::new();
    for round in 0..3 {
        for (isa, exe) in &exes {
            let before = dispatch_report();
            let (outs, _) = exe.execute(std::slice::from_ref(&a)).expect("execute");
            let after = dispatch_report();
            // one brgemm, one dequantize, one relu per block — all of
            // them, and nothing else, on this engine's own backend
            for family in [Family::BrgemmU8I8, Family::Epilogue, Family::Reduce] {
                let got = after.calls_for_family(family) - before.calls_for_family(family);
                assert_eq!(got, BLOCKS as u64, "round {round}: {isa} engine, {family}");
            }
            for other in [Isa::Scalar, Isa::Avx2, Isa::Avx512] {
                let want = if other == *isa { 3 * BLOCKS as u64 } else { 0 };
                let got = after.calls_for_isa(other) - before.calls_for_isa(other);
                assert_eq!(got, want, "round {round}: {isa} engine, calls on {other}");
            }
            outputs.push(outs[0].storage().as_slice::<u8>().unwrap().to_vec());
        }
    }
    assert!(outputs[0].iter().any(|&q| q != 7), "relu zeroed everything");
    assert!(outputs[0].contains(&7), "relu clamped nothing");
    for out in &outputs[1..] {
        assert_eq!(out, &outputs[0], "int8 outputs differ between backends");
    }
}
