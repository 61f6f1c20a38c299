//! Differential tests for ragged (non-divisor) shapes through the full
//! compiler: the heuristic is free to pick non-divisor blockings, so
//! pack-time padding / edge-tile kernels must round-trip
//! pack → execute → unpack exactly like the naive reference, and the
//! checked plan executor must agree with the interpreter bit for bit.

use gc_bench::workloads::{random_inputs, reference_eval};
use gc_core::{CompileOptions, Compiler};
use gc_graph::{Graph, OpKind, UnaryKind};
use gc_machine::MachineDescriptor;
use gc_tensor::{DataType, QuantParams, Tensor, TensorDesc};
use proptest::prelude::*;

fn compile_opts() -> CompileOptions {
    let mut o = CompileOptions::new(MachineDescriptor::xeon_8358());
    o.threads = Some(1);
    o
}

/// Dims that hit every small residue class and a few just past block
/// boundaries (the heuristic picks blocks from powers of two and
/// divisors, so 9..=33 sweeps M%MR, N%NR, K%KB over realistic tiles).
fn ragged_dim() -> impl Strategy<Value = usize> {
    prop_oneof![9usize..=33, Just(63), Just(65)]
}

fn matmul_graph(m: usize, n: usize, k: usize, relu: bool, seed: u64) -> Graph {
    let mut g = Graph::new();
    let x = g.add_input(TensorDesc::new([m, k], DataType::F32), "x");
    let w = g.add_constant(Tensor::random(&[k, n], DataType::F32, seed), "w");
    let mut out = g.add_op(OpKind::MatMul, &[x, w]).unwrap();
    if relu {
        out = g.add_op(OpKind::Unary(UnaryKind::Relu), &[out]).unwrap();
    }
    g.mark_output(out);
    g
}

fn int8_graph(m: usize, n: usize, k: usize, a_zero: i32, seed: u64) -> Graph {
    let mut g = Graph::new();
    let a = g.add_input(TensorDesc::new([m, k], DataType::U8), "a");
    let b = g.add_constant(Tensor::random(&[k, n], DataType::I8, seed), "b");
    let af = g
        .add_op(
            OpKind::Dequantize {
                params: QuantParams::new(0.05, a_zero),
            },
            &[a],
        )
        .unwrap();
    let bf = g
        .add_op(
            OpKind::Dequantize {
                params: QuantParams::symmetric(0.1),
            },
            &[b],
        )
        .unwrap();
    let mm = g.add_op(OpKind::MatMul, &[af, bf]).unwrap();
    g.mark_output(mm);
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// pack → execute → unpack over ragged shapes equals the reference
    /// within 1e-5 (f32). The validator runs after every lowering pass,
    /// so a passing compile also certifies the chosen plan is
    /// validator-clean.
    #[test]
    fn ragged_f32_matches_reference(
        m in ragged_dim(),
        n in ragged_dim(),
        k in ragged_dim(),
        relu in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let g = matmul_graph(m, n, k, relu, seed);
        let inputs = random_inputs(&g, seed + 1);
        let want = reference_eval(&g, &inputs);
        let compiled = Compiler::new(compile_opts())
            .compile(matmul_graph(m, n, k, relu, seed))
            .unwrap();
        let (outs, _) = compiled.execute(&inputs).unwrap();
        for i in 0..want[0].desc().volume() {
            let a = outs[0].storage().get_as_f64(i);
            let b = want[0].storage().get_as_f64(i);
            prop_assert!((a - b).abs() < 1e-5, "elem {i}: {a} vs {b} (m={m} n={n} k={k})");
        }
    }

    /// The checked plan executor and the tree-walking interpreter must
    /// produce bit-identical outputs on ragged shapes — for f32 and for
    /// the compensated-int8 path, whose padded weight tiles and comp
    /// vector must contribute exactly zero for pad rows/cols.
    #[test]
    fn ragged_checked_plan_matches_interpreter_bitexact(
        m in ragged_dim(),
        n in ragged_dim(),
        k in ragged_dim(),
        int8 in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let build = || if int8 {
            int8_graph(m, n, k, (seed % 16) as i32, seed)
        } else {
            matmul_graph(m, n, k, false, seed)
        };
        let inputs = random_inputs(&build(), seed + 3);

        let mut plan_opts = compile_opts();
        plan_opts.checked = true;
        let compiled = Compiler::new(plan_opts).compile(build()).unwrap();
        let (plan, _) = compiled.execute(&inputs).unwrap();
        let (interp, _) = compiled.executable().reference().execute(&inputs).unwrap();

        let (a, b) = (interp[0].f32_slice().unwrap(), plan[0].f32_slice().unwrap());
        for i in 0..a.len() {
            prop_assert!(
                a[i].to_bits() == b[i].to_bits(),
                "elem {i}: interp {} vs checked plan {} (m={m} n={n} k={k} int8={int8})",
                a[i], b[i]
            );
        }
    }
}

/// Largest relative error of `g`'s compiled output against the
/// reference, on inputs from `seed`.
fn max_rel_err(compiled: &gc_core::CompiledPartition, g: &Graph, seed: u64) -> f64 {
    let inputs = random_inputs(g, seed);
    let want = reference_eval(g, &inputs);
    let (outs, _) = compiled.execute(&inputs).unwrap();
    (0..want[0].desc().volume())
        .map(|i| {
            let a = outs[0].storage().get_as_f64(i);
            let b = want[0].storage().get_as_f64(i);
            (a - b).abs() / b.abs().max(1.0)
        })
        .fold(0.0, f64::max)
}

/// Table 1's irregular reduction dim: k = 479 is prime, so the k
/// blocking is KB = 479, one whole-depth tile. The compile must stay
/// validator-clean and exact.
#[test]
fn table1_prime_k479_is_validator_clean_and_exact() {
    let (m, n, k) = (64, 256, 479);
    let compiled = Compiler::new(compile_opts())
        .compile(matmul_graph(m, n, k, false, 42))
        .unwrap();
    // k=479 accumulation chains: allow reassociation error but nothing
    // structural (a misplaced tile would be off by whole products).
    let err = max_rel_err(&compiled, &matmul_graph(m, n, k, false, 42), 43);
    assert!(err < 1e-4, "max relative error {err}");
}

/// A prime k above the tile menu's 1024 cap: the whole depth stays a
/// candidate, so the chosen KB is k itself rather than 1, and the plan
/// is validator-clean and exact.
#[test]
fn prime_k1031_keeps_a_deep_block_and_is_exact() {
    use std::sync::{Arc, Mutex};
    let (m, n, k) = (64, 256, 1031);
    let log: gc_lowering::ParamLog = Arc::new(Mutex::new(Vec::new()));
    let mut o = compile_opts();
    o.param_log = Some(log.clone());
    let compiled = Compiler::new(o)
        .compile(matmul_graph(m, n, k, false, 44))
        .unwrap();
    gc_tir::validate_module(compiled.executable().module()).unwrap();
    let chosen = log.lock().unwrap().clone();
    assert!(!chosen.is_empty());
    for c in &chosen {
        assert_eq!(c.problem.k, k);
        assert!(c.params.kb > 1, "{c:?}");
    }
    let err = max_rel_err(&compiled, &matmul_graph(m, n, k, false, 44), 45);
    assert!(err < 1e-4, "max relative error {err}");
}
