//! End-to-end check that the second machine preset is a real compile
//! target, not just a cost-model toy: MLP_1 compiled for the
//! AArch64-ish preset must pass the TIR validator (validation is on by
//! default), lower to different template parameters than the Xeon
//! preset, and still execute correctly on the host.

use gc_core::{CompileOptions, Compiler};
use gc_graph::{Graph, OpKind, UnaryKind};
use gc_lowering::ParamLog;
use gc_machine::MachineDescriptor;
use gc_tensor::{DataType, Tensor, TensorDesc};
use std::sync::{Arc, Mutex};

/// MLP_1 (Table 1): 13 -> 512 -> 256 -> 128, relu between layers.
fn mlp1(batch: usize) -> Graph {
    let layers = [13usize, 512, 256, 128];
    let mut g = Graph::new();
    let mut cur = g.add_input(TensorDesc::new([batch, layers[0]], DataType::F32), "x");
    for (i, w) in layers.windows(2).enumerate() {
        let weight = g.add_constant(
            Tensor::random(&[w[0], w[1]], DataType::F32, 7 + i as u64),
            &format!("w{i}"),
        );
        let mm = g.add_op(OpKind::MatMul, &[cur, weight]).unwrap();
        cur = if i + 2 < layers.len() {
            g.add_op(OpKind::Unary(UnaryKind::Relu), &[mm]).unwrap()
        } else {
            mm
        };
    }
    g.mark_output(cur);
    g
}

fn compile_logged(
    machine: MachineDescriptor,
    graph: &Graph,
) -> (gc_core::CompiledPartition, Vec<gc_lowering::ParamChoice>) {
    let log: ParamLog = Arc::new(Mutex::new(Vec::new()));
    let mut o = CompileOptions::new(machine);
    o.threads = Some(1);
    o.param_log = Some(log.clone());
    let compiled = Compiler::new(o).compile(graph.clone()).unwrap();
    let choices = log.lock().unwrap().clone();
    (compiled, choices)
}

#[test]
fn aarch64_preset_compiles_validator_clean_and_diverges() {
    let g = mlp1(32);
    let (xeon_exe, xeon_choices) = compile_logged(MachineDescriptor::xeon_8358(), &g);
    let (arm_exe, arm_choices) = compile_logged(MachineDescriptor::aarch64_small(), &g);

    // Both compiles made choices and passed the (default-on) validator.
    assert!(!xeon_choices.is_empty());
    assert!(!arm_choices.is_empty());

    // The plans must be genuinely different: either the machines chose
    // different schedule structures outright (different choice-point
    // sets), or at least one shared choice point picked different
    // microkernel tile parameters.
    let diverged = xeon_choices.len() != arm_choices.len()
        || xeon_choices.iter().zip(&arm_choices).any(|(x, a)| {
            (x.params.mb, x.params.nb, x.params.kb) != (a.params.mb, a.params.nb, a.params.kb)
        });
    assert!(
        diverged,
        "xeon and aarch64 presets lowered MLP_1 identically:\n{xeon_choices:?}\n{arm_choices:?}"
    );

    // Both plans execute on the host and agree numerically: plan shape
    // is machine-specific, results are not.
    let x = Tensor::random(&[32, 13], DataType::F32, 42);
    let (out_x, _) = xeon_exe.execute(std::slice::from_ref(&x)).unwrap();
    let (out_a, _) = arm_exe.execute(std::slice::from_ref(&x)).unwrap();
    assert_eq!(out_x.len(), 1);
    let (fx, fa) = (out_x[0].f32_slice().unwrap(), out_a[0].f32_slice().unwrap());
    assert_eq!(fx.len(), fa.len());
    for (i, (a, b)) in fx.iter().zip(fa).enumerate() {
        let tol = 1e-4f32.max(b.abs() * 1e-5);
        assert!((a - b).abs() <= tol, "output {i}: {a} vs {b}");
    }
}
