//! Pass-ablation differential fuzzing: run the paper's workloads through
//! the full pipeline with each optimization pass individually disabled
//! and compare every variant against an all-optimizations-off reference
//! (unfused, interpreted, no TIR passes). Because exactly one pass
//! differs per variant, a disagreement names the guilty pass in the
//! assertion message instead of presenting an undebuggable
//! "full pipeline is wrong somewhere".
//!
//! Quantized outputs must match the reference bit-for-bit (integer
//! accumulation is exact, so no optimization may change a single bit);
//! f32 outputs get a tolerance because blocking changes the summation
//! order. A `checked` variant additionally runs every plan offset
//! through runtime bounds assertions.

use gc_core::{CompileOptions, CompiledPartition, Compiler};
use gc_graph::Graph;
use gc_machine::MachineDescriptor;
use gc_tensor::{Storage, Tensor};
use gc_tir::Executable;

use gc_bench::workloads::{self, mlp1_layers, MhaConfig};

fn machine() -> MachineDescriptor {
    MachineDescriptor::xeon_8358()
}

/// Everything off: no fine- or coarse-grain fusion, no layout
/// propagation, no TIR buffer passes, no constant-weight folding; the
/// reference then runs this compile's `Executable::reference()`, the
/// tree-walking interpreter instead of compiled plans. Low-precision
/// legalization stays on so int8 graphs compute in int8 in both arms
/// and can be compared bit-for-bit.
fn reference_opts(threads: usize) -> CompileOptions {
    let mut o = CompileOptions::unfused(machine());
    o.shrink_tensors = false;
    o.reuse_buffers = false;
    o.reuse_locals = false;
    o.constant_weights = false;
    o.threads = Some(threads);
    o
}

fn full_opts(threads: usize) -> CompileOptions {
    let mut o = CompileOptions::new(machine());
    o.threads = Some(threads);
    o
}

/// The ablation matrix: the full pipeline, the full pipeline under
/// checked execution, and the full pipeline with exactly one pass
/// disabled per entry. If "full" disagrees with the reference but
/// "without-X" agrees, X is the miscompiling pass. [`ablate`] also runs
/// the full pipeline's module on the interpreter ("full-interpreted").
fn ablations(threads: usize) -> Vec<(&'static str, CompileOptions)> {
    let base = full_opts(threads);
    let mut m = vec![("full", base.clone())];
    m.push(("full-checked", {
        let mut o = base.clone();
        o.checked = true;
        o
    }));
    m.push(("without-fine-fusion", {
        let mut o = base.clone();
        o.fusion = gc_graph::FusionOptions::disabled();
        o
    }));
    m.push(("without-coarse-fusion", {
        let mut o = base.clone();
        o.coarse_fusion = false;
        o
    }));
    m.push(("without-layout-propagation", {
        let mut o = base.clone();
        o.propagate_layouts = false;
        o
    }));
    m.push(("without-shrink-tensors", {
        let mut o = base.clone();
        o.shrink_tensors = false;
        o
    }));
    m.push(("without-reuse-buffers", {
        let mut o = base.clone();
        o.reuse_buffers = false;
        o
    }));
    m.push(("without-reuse-locals", {
        let mut o = base.clone();
        o.reuse_locals = false;
        o
    }));
    m.push(("without-constant-weights", {
        let mut o = base;
        o.constant_weights = false;
        o
    }));
    m
}

fn compare_outputs(name: &str, got: &[Tensor], want: &[Tensor], f32_tol: f32) {
    assert_eq!(got.len(), want.len(), "[{name}] output count");
    for (oi, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        match (g.storage(), w.storage()) {
            (Storage::F32(g), Storage::F32(w)) => {
                assert_eq!(g.len(), w.len(), "[{name}] out {oi} length");
                for (ei, (&x, &y)) in g.iter().zip(w.iter()).enumerate() {
                    assert!(
                        (x - y).abs() <= f32_tol * (1.0 + y.abs()),
                        "[{name}] out {oi}[{ei}]: {x} vs {y}"
                    );
                }
            }
            // quantized / integer outputs: a single flipped bit is a
            // miscompile, no tolerance
            (Storage::U8(g), Storage::U8(w)) => assert_eq!(g, w, "[{name}] out {oi} (u8)"),
            (Storage::I8(g), Storage::I8(w)) => assert_eq!(g, w, "[{name}] out {oi} (i8)"),
            (Storage::I32(g), Storage::I32(w)) => assert_eq!(g, w, "[{name}] out {oi} (i32)"),
            (g, w) => panic!("[{name}] out {oi}: dtype mismatch {g:?} vs {w:?}"),
        }
    }
}

fn compile(opts: CompileOptions, g: Graph) -> CompiledPartition {
    Compiler::new(opts).compile(g).expect("compile")
}

/// Run `build()`'s graph through the reference and every ablation and
/// compare. Two rounds each so the init-cached steady state is covered.
fn ablate(build: impl Fn() -> Graph, threads: usize, f32_tol: f32) {
    let unfused = compile(reference_opts(threads), build());
    let inputs: Vec<Tensor> = unfused
        .input_descs()
        .iter()
        .enumerate()
        .map(|(i, d)| Tensor::random(d.shape(), d.dtype(), 71 + i as u64))
        .collect();
    let (want, _) = unfused
        .executable()
        .reference()
        .execute(&inputs)
        .expect("reference execute");
    let check = |name: &str, exe: &Executable| {
        for round in 0..2 {
            let (got, _) = exe
                .execute(&inputs)
                .unwrap_or_else(|e| panic!("[{name}] round {round} failed: {e}"));
            compare_outputs(name, &got, &want, f32_tol);
        }
    };
    for (name, opts) in ablations(threads) {
        let variant = compile(opts, build());
        check(name, variant.executable());
        if name == "full" {
            check("full-interpreted", &variant.executable().reference());
        }
    }
}

#[test]
fn mlp_f32_survives_every_ablation() {
    ablate(|| workloads::mlp_f32(16, &mlp1_layers(), 3), 2, 1e-4);
}

#[test]
fn mlp_int8_bit_exact_under_every_ablation() {
    // quantized output: every variant must match the all-off reference
    // bit-for-bit (f32_tol only applies to float outputs, of which the
    // int8 MLP has none)
    ablate(|| workloads::mlp_int8(16, &mlp1_layers(), 6), 2, 0.0);
}

fn tiny_mha() -> MhaConfig {
    MhaConfig {
        name: "tiny",
        seq: 16,
        hidden: 64,
        heads: 4,
    }
}

#[test]
fn mha_f32_survives_every_ablation() {
    ablate(|| workloads::mha_f32(2, &tiny_mha()).0, 2, 1e-4);
}

#[test]
fn matmul_relu_f32_survives_every_ablation() {
    ablate(
        || workloads::single_matmul(32, 48, 13, workloads::Precision::F32, 9),
        1,
        1e-4,
    );
}

#[test]
fn matmul_int8_bit_exact_under_every_ablation() {
    ablate(
        || workloads::single_matmul(32, 64, 16, workloads::Precision::Int8, 2),
        1,
        0.0,
    );
}

/// A deliberately under-sized local buffer — the forged output of a
/// buggy tensor-shrink pass — must be rejected by the same validator
/// the lowering pipeline runs after `shrink_locals`, with the access
/// that escapes named in the error.
#[test]
fn corrupted_shrink_is_rejected() {
    use gc_tir::validate_module;
    let compiled = compile(full_opts(1), workloads::mlp_f32(16, &mlp1_layers(), 3));
    let mut module = compiled.executable().module().clone();
    validate_module(&module).expect("lowered module is validator-clean");
    let f = module
        .funcs
        .iter_mut()
        .find(|f| f.locals.iter().any(|l| l.elems > 1))
        .expect("a lowered func with a sized local buffer");
    let name = f.name.clone();
    let l = f.locals.iter_mut().find(|l| l.elems > 1).unwrap();
    l.elems = 1;
    let e = validate_module(&module).expect_err("under-sized local must be rejected");
    let msg = e.to_string();
    assert!(
        msg.contains("can reach element") || msg.contains("out-of-bounds"),
        "error must name the escaping access, got: {msg}"
    );
    assert!(
        msg.contains(&name),
        "error must name the function, got: {msg}"
    );
}

/// A forged buffer-reuse rewrite that redirects a read onto a different
/// global — the observable symptom of merging two buffers with
/// overlapping live ranges — must be rejected by the before/after
/// dataflow check the pipeline runs after `reuse_module_scratch`.
#[test]
fn rewired_buffer_reuse_is_rejected() {
    use gc_tir::passes::check_module_reuse;
    use gc_tir::visit::intrinsic_accesses;
    use gc_tir::{BufId, Func, GlobalKind, Stmt};

    fn read_params(f: &Func) -> Vec<bool> {
        fn go(stmts: &[Stmt], reads: &mut Vec<bool>) {
            for s in stmts {
                match s {
                    Stmt::For { body, .. } => go(body, reads),
                    Stmt::Op(i) => {
                        for a in intrinsic_accesses(i) {
                            if let BufId::Param(p) = a.buf {
                                if !a.write {
                                    reads[p] = true;
                                }
                            }
                        }
                    }
                }
            }
        }
        let mut reads = vec![false; f.params.len()];
        go(&f.body, &mut reads);
        reads
    }

    // coarse fusion off so the MLP stays a chain of calls linked by
    // scratch activations (a single merged call has no cross-call reads
    // to rewire)
    let mut opts = full_opts(1);
    opts.coarse_fusion = false;
    let compiled = compile(opts, workloads::mlp_f32(16, &mlp1_layers(), 3));
    let before = compiled.executable().module().clone();
    check_module_reuse(&before, &before).expect("identity rewrite is clean");

    let mut after = before.clone();
    let input_g = after
        .globals
        .iter()
        .position(|g| matches!(g.kind, GlobalKind::Input(_)))
        .expect("module has an input global");
    let mut rewired = false;
    'calls: for ci in (0..after.main_calls.len()).rev() {
        let fi = after.main_calls[ci].func;
        let reads = read_params(&after.funcs[fi]);
        for (p, read) in reads.iter().enumerate() {
            let g = after.main_calls[ci].args[p];
            if *read && after.globals[g].kind == GlobalKind::Scratch {
                after.main_calls[ci].args[p] = input_g;
                rewired = true;
                break 'calls;
            }
        }
    }
    assert!(rewired, "expected a call reading a scratch activation");
    let e = check_module_reuse(&before, &after).expect_err("rewired read must be rejected");
    assert!(
        e.to_string().contains("overlapped live ranges"),
        "error must blame the reuse rewrite, got: {e}"
    );
}
