//! Ad-hoc breakdown of steady-state execute() time for MLP_1 b1.
//! Run: cargo run --release -p gc-bench --example profile_plan

use gc_bench::workloads::{self, random_inputs};
use gc_core::{CompileOptions, Compiler};
use gc_machine::MachineDescriptor;
use std::time::Instant;

fn main() {
    let graph = workloads::mlp_f32(1, &workloads::mlp1_layers(), 1);
    let inputs = random_inputs(&graph, 3);

    // per-main-call breakdown on the raw plan path (zero weights; same
    // compute shape)
    {
        let mut opts = CompileOptions::new(MachineDescriptor::xeon_8358());
        opts.threads = Some(1);
        let exe = Compiler::new(opts).compile(graph.clone()).expect("compile");
        let module = exe.executable().module();
        let plan = gc_tir::compile_module(module, 1);
        let pool = gc_runtime::ThreadPool::new(1);
        let mut storages: Vec<gc_tensor::Storage> = module
            .globals
            .iter()
            .map(|g| gc_tensor::Storage::zeros(g.dtype, g.elems))
            .collect();
        let mut globals = gc_tir::plan::Globals::owned(&mut storages);
        let mut scratch = gc_tir::plan::PlanScratch::for_plan(&plan);
        for call in &module.main_calls {
            gc_tir::plan::run_plan_call(
                &plan,
                call.func,
                &call.args,
                &mut globals,
                &pool,
                &mut scratch,
                gc_tir::ExecOptions::default(),
                Default::default(),
            );
        }
        let n = 2000;
        for call in &module.main_calls {
            let t0 = Instant::now();
            for _ in 0..n {
                gc_tir::plan::run_plan_call(
                    &plan,
                    call.func,
                    &call.args,
                    &mut globals,
                    &pool,
                    &mut scratch,
                    gc_tir::ExecOptions::default(),
                    Default::default(),
                );
            }
            let per = t0.elapsed() / n;
            let f = &module.funcs[call.func];
            println!(
                "  func {:<28} {:>10?}/call  locals={}B",
                f.name,
                per,
                f.local_bytes()
            );
        }
    }
    for threads in [1usize, 4] {
        let mut opts = CompileOptions::new(MachineDescriptor::xeon_8358());
        opts.threads = Some(threads);
        let exe = Compiler::new(opts).compile(graph.clone()).expect("compile");
        exe.execute(&inputs).expect("warm-up");
        let n = 2000;
        let t0 = Instant::now();
        for _ in 0..n {
            exe.execute(&inputs).expect("exec");
        }
        let per = t0.elapsed() / n;
        println!(
            "t{threads}: {:?}/call   stats={:?}",
            per,
            exe.executable().plan_stats()
        );
    }
}
