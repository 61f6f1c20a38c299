//! Steady-state plan execution must not touch the heap: offsets, brgemm
//! tables, and bounds were all resolved at plan-build time, locals are
//! allocated once per execution state (and zeroed in place only where
//! the builder could not prove them written first), and parallel chunks
//! copy a stack array. A steady-state `Executable::execute` allocates
//! only its outputs plus a constant: constants and inputs are read in
//! place, never copied. Verified with a counting global allocator.
//!
//! Single test function on purpose — the counter is process-global, so
//! concurrent tests would pollute the deltas. The libtest harness's own
//! main thread allocates concurrently with the test body (channel and
//! timeout bookkeeping), so the counter only counts the one thread that
//! registered itself — plan execution dispatches *work* to the pool,
//! but every allocation we guard against (task publication, interpreter
//! fallbacks) happens on the calling thread.

use gc_runtime::ThreadPool;
use gc_tensor::{DataType, Storage, Tensor};
use gc_tir::compile::compile_module;
use gc_tir::expr::Expr;
use gc_tir::ir::{
    Brgemm, BufDecl, BufId, Call, Func, GlobalDecl, GlobalKind, Intrinsic, Module, Op, RowChain,
    Stmt, View,
};
use gc_tir::plan::{run_plan_call, Globals, PlanScratch};
use gc_tir::{ExecOptions, Executable, VarId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// `pthread_self()` of the thread whose allocations are counted (0 =
/// nobody yet). Thread identity must come from something that neither
/// allocates nor touches Rust TLS — `std::thread::current()` does both
/// on first use, which would recurse into the allocator.
static MEASURED: AtomicU64 = AtomicU64::new(0);

unsafe extern "C" {
    fn pthread_self() -> u64;
}

fn counted_thread() -> bool {
    // SAFETY: pthread_self has no preconditions.
    MEASURED.load(Ordering::Relaxed) == unsafe { pthread_self() }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        if counted_thread() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(l) }
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        if counted_thread() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(p, l, new_size) }
    }
}

#[global_allocator]
static A: Counting = Counting;

/// A function touching the allocation-prone interpreter paths: a
/// parallel loop (the interpreter clones its variable `Vec` per
/// iteration), brgemm (the interpreter rebuilds offset tables per
/// call), and a local temporary (the interpreter allocates it per
/// call). Tiles are 16x16x128 so the loop clears the plan builder's
/// dispatch-worthiness threshold even at extent 16 — a smaller body
/// would be demoted to a serial loop and never hit the pool.
fn test_module(extent: usize) -> Module {
    let m_tile = 16usize;
    let n_tile = 16usize;
    let k = 128usize;
    let mut module = Module::new();
    let g_a = module.add_global(GlobalDecl {
        dtype: DataType::F32,
        elems: extent * m_tile * k,
        kind: GlobalKind::Input(0),
        name: "a".into(),
    });
    let g_b = module.add_global(GlobalDecl {
        dtype: DataType::F32,
        elems: n_tile * k,
        kind: GlobalKind::Weight,
        name: "b".into(),
    });
    let g_c = module.add_global(GlobalDecl {
        dtype: DataType::F32,
        elems: extent * m_tile * n_tile,
        kind: GlobalKind::Output(0),
        name: "c".into(),
    });
    let v = VarId(0);
    let func = Func {
        name: "pargemm".into(),
        params: vec![
            BufDecl::new(DataType::F32, extent * m_tile * k, "a"),
            BufDecl::new(DataType::F32, n_tile * k, "b"),
            BufDecl::new(DataType::F32, extent * m_tile * n_tile, "c"),
        ],
        locals: vec![BufDecl::new(DataType::F32, m_tile * n_tile, "tmp")],
        var_count: 1,
        body: vec![Stmt::For {
            var: v,
            extent,
            parallel: true,
            body: vec![
                Stmt::Op(Intrinsic::new(
                    Op::BrgemmF32(Brgemm {
                        m: m_tile,
                        n: n_tile,
                        k,
                        batch: 1,
                        a_stride: 0,
                        b_stride: 0,
                    }),
                    [
                        View::new(
                            BufId::Param(0),
                            Expr::v(v).mul(Expr::c((m_tile * k) as i64)),
                            m_tile * k,
                        ),
                        View::new(BufId::Param(1), Expr::c(0), n_tile * k),
                        View::new(BufId::Local(0), Expr::c(0), m_tile * n_tile),
                    ],
                    [],
                )),
                Stmt::Op(Intrinsic::new(
                    Op::RowChain({
                        let mut relu = RowChain::new(1, m_tile * n_tile, 1, true);
                        relu.unary(gc_microkernel::UnaryOp::Relu).unwrap();
                        relu
                    }),
                    [
                        View::new(BufId::Local(0), Expr::c(0), m_tile * n_tile),
                        View::new(
                            BufId::Param(2),
                            Expr::v(v).mul(Expr::c((m_tile * n_tile) as i64)),
                            m_tile * n_tile,
                        ),
                    ],
                    [],
                )),
            ],
        }],
    };
    let f = module.add_func(func);
    module.main_calls.push(Call {
        func: f,
        args: vec![g_a, g_b, g_c],
    });
    module.validate().unwrap();
    module
}

fn globals_for(module: &Module) -> Vec<Storage> {
    module
        .globals
        .iter()
        .map(|g| Storage::zeros(g.dtype, g.elems))
        .collect()
}

/// Allocation delta of each of `calls` steady-state calls, counting
/// only the calling thread (see module docs). Callers still assert on
/// the per-call *minimum*: the caller participates in its own parallel
/// regions, and a rare OS-level wake path on re-entry may allocate.
fn allocs_per_call(
    module: &Module,
    pool: &ThreadPool,
    globals: &mut [Storage],
    scratch: &mut PlanScratch,
    plan: &gc_tir::Plan,
    calls: usize,
) -> Vec<u64> {
    let call = &module.main_calls[0];
    let (opts, kernels) = (ExecOptions::default(), Default::default());
    let mut globals = Globals::owned(globals);
    let mut run = || {
        run_plan_call(
            plan,
            call.func,
            &call.args,
            &mut globals,
            pool,
            scratch,
            opts,
            kernels,
        )
    };
    // warm-up: first call may grow the scratch buffer table
    run();
    (0..calls)
        .map(|_| {
            let before = ALLOCS.load(Ordering::Relaxed);
            run();
            ALLOCS.load(Ordering::Relaxed) - before
        })
        .collect()
}

#[test]
fn steady_state_plan_execution_does_not_allocate() {
    // Count this thread (and only this thread) from here on.
    // SAFETY: pthread_self has no preconditions.
    MEASURED.store(unsafe { pthread_self() }, Ordering::Relaxed);

    // Single-threaded: parallel loops inline, so steady state must be
    // exactly allocation-free.
    let module = test_module(64);
    let plan = compile_module(&module, 1);
    assert_eq!(plan.stats().interpreted_funcs, 0, "{:?}", plan.stats());
    let pool = ThreadPool::new(1);
    let mut globals = globals_for(&module);
    let mut scratch = PlanScratch::for_plan(&plan);
    let allocs = allocs_per_call(&module, &pool, &mut globals, &mut scratch, &plan, 16);
    assert!(
        allocs.iter().all(|&a| a == 0),
        "steady-state single-threaded plan execution allocated: {allocs:?}"
    );

    // Multi-threaded: the pool publishes one Arc'd task per parallel
    // region, but the per-iteration cost must be zero — the allocation
    // count cannot grow with the loop extent.
    let pool = ThreadPool::new(4);
    let small = test_module(16);
    let large = test_module(256);
    let plan_small = compile_module(&small, 4);
    let plan_large = compile_module(&large, 4);
    assert!(
        plan_small.stats().serialized_loops == 0 && plan_large.stats().serialized_loops == 0,
        "both loops must stay dispatched for this comparison to mean anything"
    );
    let mut g_small = globals_for(&small);
    let mut g_large = globals_for(&large);
    let mut s_small = PlanScratch::for_plan(&plan_small);
    let mut s_large = PlanScratch::for_plan(&plan_large);
    let calls = 16;
    let a_small = allocs_per_call(
        &small,
        &pool,
        &mut g_small,
        &mut s_small,
        &plan_small,
        calls,
    );
    let a_large = allocs_per_call(
        &large,
        &pool,
        &mut g_large,
        &mut s_large,
        &plan_large,
        calls,
    );
    let min_small = *a_small.iter().min().unwrap();
    let min_large = *a_large.iter().min().unwrap();
    assert_eq!(
        min_small, min_large,
        "per-call allocation count must be independent of the parallel extent \
         (16 iters: {a_small:?}, 256 iters: {a_large:?})"
    );
    assert!(
        min_large <= 1,
        "at most one task publication per parallel region, got {min_large} per call"
    );

    // A whole steady-state execution: the binding table, the output
    // buffer, the tensor it moves into (its `Arc` and shape) and the
    // returned `Vec`s. Copying the weight, the blocked constant the
    // init stage folds from it, or the input would add to this.
    let module = with_prepack(test_module(64));
    let exe = Executable::new(
        module.clone(),
        vec![(1, Tensor::random(&[128 * 16], DataType::F32, 1))],
        Arc::new(ThreadPool::new(1)),
        1,
    );
    let x = Tensor::random(&[64 * 16 * 128], DataType::F32, 2);
    let inputs = std::slice::from_ref(&x);
    let (first, _) = exe.execute(inputs).unwrap();
    let per_call: Vec<u64> = (0..16)
        .map(|_| {
            let before = ALLOCS.load(Ordering::Relaxed);
            let (outs, _) = exe.execute(inputs).unwrap();
            let delta = ALLOCS.load(Ordering::Relaxed) - before;
            assert_eq!(outs[0].f32_slice(), first[0].f32_slice());
            delta
        })
        .collect();
    let outputs = 1;
    assert!(
        per_call.iter().all(|&a| a <= 3 * outputs + 3),
        "steady-state execute allocated more than its outputs: {per_call:?}"
    );
}

/// `module` with its weight prepacked by an init call into a
/// `Persistent` global the main call reads instead.
fn with_prepack(mut module: Module) -> Module {
    let (g_w, elems) = (1, module.globals[1].elems);
    let g_packed = module.add_global(GlobalDecl {
        dtype: DataType::F32,
        elems,
        kind: GlobalKind::Persistent,
        name: "b_packed".into(),
    });
    let copy = module.add_func(Func {
        name: "prepack".into(),
        params: vec![
            BufDecl::new(DataType::F32, elems, "w"),
            BufDecl::new(DataType::F32, elems, "packed"),
        ],
        locals: vec![],
        var_count: 0,
        body: vec![Stmt::Op(Intrinsic::new(
            // the zero-step storing chain: a copy
            Op::RowChain(RowChain::new(1, elems, 1, true)),
            [
                View::new(BufId::Param(0), Expr::c(0), elems),
                View::new(BufId::Param(1), Expr::c(0), elems),
            ],
            [],
        ))],
    });
    module.init_calls.push(Call {
        func: copy,
        args: vec![g_w, g_packed],
    });
    module.main_calls[0].args[1] = g_packed;
    module.validate().unwrap();
    module
}
