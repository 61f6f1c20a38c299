//! The traced run: per-layer metrics, each obtained by timing calls into
//! one crate's public functions and by reading the counters those
//! crates already export. End-to-end metrics never come from here.
//!
//! Every workload has a *core graph* — what its engine executes in
//! steady state (the workload's own graph; MLP_1 at the 2-row bucket for
//! serving; a 64-row decode step at the widest capacity, 128). [`core_probes`]
//! compiles it stage by stage under spans, executes it traced and
//! untraced, and runs the isolated probes (interpreter, 2-thread pool,
//! baseline, microkernels, runtime). The two serving workloads add their
//! own request-level numbers on top.

use crate::graphs::{compare_tensor, DecodeF32, Mismatch};
use crate::harness::{compile_options, summarize, time_ops, timed_ms, RunConfig, Window};
use crate::metrics::Metrics;
use crate::stats::{median, percentile_sorted, tail_percentile};
use crate::trace::{Recorder, NO_OP};
use crate::workloads::{
    decode_round, decode_steps, load_decode, on_callers, open_sessions, serve_config,
    serve_request, DecodeData, ServeData, ATTENTION_TOL, DECODE_MAX_CAPACITY, DECODE_SESSIONS,
    DIRECT, MLP_TOL, SERVE_CALLERS,
};
use gc_baseline::{Baseline, BaselineOptions};
use gc_core::{pipeline, CompileOptions, Compiler};
use gc_graph::Graph;
use gc_lowering::{MatmulParams, ParamChoice, ParamLog};
use gc_microkernel::arch::{self, Family, Kernels};
use gc_runtime::ThreadPool;
use gc_serve::Model;
use gc_tensor::Tensor;
use gc_tir::{engine_totals, ExecMode, Executable};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What the traced run of one workload produced.
#[derive(Debug)]
pub struct TracedRun {
    /// Every per-layer metric; 0 where the layer is not on the path.
    pub metrics: Metrics,
    /// Ops attempted (oracle checks and probe executions included).
    pub attempted: u64,
    /// Ops that errored or failed the oracle check.
    pub failed: u64,
    /// Fingerprint of every weight and input.
    pub input_hash: u64,
    /// The spans, to be written to `out/<workload>.trace.json`.
    pub trace: Recorder,
}

/// The graph a workload's engine executes in steady state, with inputs
/// and oracle outputs.
struct Core {
    graph: Box<dyn Fn() -> Graph>,
    ring: Vec<Vec<Tensor>>,
    expected: Vec<Tensor>,
    tol: f32,
    /// `(batch, m, n, k)` of every matmul in one execution.
    matmuls: Vec<(usize, usize, usize, usize)>,
    int8: bool,
}

/// Counts of attempted and failed ops, threaded through the probes.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Count one op; a failure is also reported on stderr, by name.
    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {what} errored or missed the oracle");
        }
    }
}

fn p50(values: &[f64]) -> f64 {
    median(values).unwrap_or(0.0)
}

/// Call `f` `reps` times (once at least); returns each call's wall time
/// in ms and the last call's result.
fn repeat_timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (Vec<f64>, T) {
    let (first_ms, mut last) = timed_ms(&mut f);
    let mut ms = vec![first_ms];
    for _ in 1..reps {
        let (next_ms, next) = timed_ms(&mut f);
        ms.push(next_ms);
        last = next;
    }
    (ms, last)
}

/// Share of the timed window each sub-measurement of the traced run gets.
fn share(cfg: &RunConfig, divisor: u32) -> Duration {
    cfg.window() / divisor
}

/// Set the harness metrics from an untraced and a traced latency sample
/// of the same op (ms each).
fn set_bench(m: &mut Metrics, untraced: &mut [f64], traced: &[f64]) {
    untraced.sort_by(f64::total_cmp);
    let base = percentile_sorted(untraced, 50.0).unwrap_or(0.0);
    m.set("bench.samples", untraced.len() as f64);
    m.set("bench.timed_window_s", untraced.iter().sum::<f64>() / 1e3);
    m.set(
        "bench.latency_ms_p95",
        tail_percentile(untraced, 95.0).unwrap_or(0.0),
    );
    m.set(
        "bench.latency_ms_p99",
        tail_percentile(untraced, 99.0).unwrap_or(0.0),
    );
    if base > 0.0 {
        m.set("bench.trace_overhead_share", p50(traced) / base - 1.0);
    }
}

/// One checked execution of the core graph on `exe`, under a
/// `tir.execute` span when a recorder is given. Returns the wall time in
/// ms — of `execute` plus, when traced, recording the span; never of the
/// oracle comparison — and the execution's statistics.
fn execute_checked(
    core: &Core,
    exe: &Executable,
    i: usize,
    mut rec: Option<&mut Recorder>,
    tally: &mut Tally,
) -> (f64, Option<gc_runtime::ExecStats>) {
    let slot = i % core.ring.len();
    let t0 = Instant::now();
    let span = rec
        .as_mut()
        .map(|r| r.start("tir.execute", "gc-tir", i as u64));
    let result = exe.execute(&core.ring[slot]);
    if let (Some(r), Some(id)) = (rec, span) {
        r.end(id);
    }
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let ok = result
        .as_ref()
        .is_ok_and(|(outs, _)| compare_tensor(&outs[0], &core.expected[slot], core.tol).ok());
    tally.check("core graph execute", ok);
    (ms, result.ok().map(|(_, stats)| stats))
}

/// Compile, execute and probe the core graph.
fn core_probes(
    core: &Core,
    cfg: &RunConfig,
    rec: &mut Recorder,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let pool = Arc::new(ThreadPool::new(1));
    let machine = compile_options().machine;
    let reps = if cfg.quick { 1 } else { 3 };

    // -- staged compile: each stage's public entry point under a span
    let log: ParamLog = Arc::new(Mutex::new(Vec::new()));
    let opts = CompileOptions {
        param_log: Some(Arc::clone(&log)),
        ..compile_options()
    };
    // (span, metric) per stage of the pipeline
    const STAGES: [(&str, &str); 4] = [
        ("graph.optimize", "graph.optimize_ms"),
        ("graph.partition", "graph.partition_ms"),
        ("lowering.lower", "lowering.lower_ms"),
        ("tir.plan_build", "tir.plan_build_ms"),
    ];
    let mut stage_ms: [Vec<f64>; 4] = Default::default();
    let mut last = None;
    for _ in 0..reps {
        log.lock().expect("param log").clear();
        let mut graph = (core.graph)();
        let compile = rec.start("core.compile", "gc-core", NO_OP);
        rec.span("graph.optimize", "gc-graph", NO_OP, |_| {
            pipeline::optimize_graph(&mut graph, &opts)
        })
        .map_err(|e| e.to_string())?;
        let (parts, groups) = rec
            .span("graph.partition", "gc-graph", NO_OP, |_| {
                pipeline::partition_graph(&graph, &opts)
            })
            .map_err(|e| e.to_string())?;
        let (lowered, report) = rec
            .span("lowering.lower", "gc-lowering", NO_OP, |_| {
                pipeline::lower(&graph, &parts, &groups, &opts)
            })
            .map_err(|e| e.to_string())?;
        let (module, seeds) = (lowered.module.clone(), lowered.weight_seeds.clone());
        let exe = rec.span("tir.plan_build", "gc-tir", NO_OP, |_| {
            Executable::with_mode(module, seeds, Arc::clone(&pool), 1, ExecMode::Compiled)
        });
        rec.end(compile);
        for (ms, (span, _)) in stage_ms.iter_mut().zip(STAGES) {
            ms.push(rec.last_ms(span).expect("span just closed"));
        }
        last = Some((lowered, report, exe));
    }
    let (lowered, report, exe) = last.expect("at least one compile");
    for (ms, (_, metric)) in stage_ms.iter().zip(STAGES) {
        m.set(metric, p50(ms));
    }
    m.set("graph.ops_after", report.graph_ops as f64);
    m.set("graph.partitions", report.partitions as f64);
    m.set("graph.fused_post_ops", report.fused_post_ops as f64);
    m.set("graph.merged_groups", report.merged_groups as f64);
    m.set(
        "lowering.ragged_partitions",
        report.ragged_partitions as f64,
    );
    let choices: Vec<ParamChoice> = log.lock().expect("param log").clone();
    m.set("lowering.param_choices", choices.len() as f64);

    // -- the facade: compile in one call, then the first execution
    let (compile_ms, facade) = repeat_timed(reps, || {
        Compiler::new(compile_options()).compile((core.graph)())
    });
    m.set("core.compile_ms_p50", p50(&compile_ms));
    let facade = facade.map_err(|e| e.to_string())?;
    let (first_ms, first) = timed_ms(|| facade.execute(&core.ring[0]));
    let (_, first_stats) = first.map_err(|e| e.to_string())?;
    m.set("core.first_exec_ms", first_ms);
    m.set("tir.init_ms", first_stats.init_wall.as_secs_f64() * 1e3);
    drop(facade);

    // -- projection: what each projection gate in lowering pays
    let (project_ms, projection) = repeat_timed(reps, || {
        rec.span("tir.project", "gc-tir", NO_OP, |_| exe.project(&machine))
    });
    m.set("tir.project_ms", p50(&project_ms));
    let projected_ms = projection.millis(&machine);
    m.set("machine.projected_ms", projected_ms);

    let plan = exe.plan_stats();
    m.set("tir.compiled_funcs", plan.compiled_funcs as f64);
    m.set("tir.interpreted_funcs", plan.interpreted_funcs as f64);
    m.set("tir.serialized_loops", plan.serialized_loops as f64);
    m.set("tir.program_offsets", plan.program_offsets as f64);

    // -- correctness: one result per input set against the naive oracle
    let states_before = engine_totals().exec_states;
    let mut oracle = Mismatch::default();
    for (inputs, want) in core.ring.iter().zip(&core.expected) {
        let (outs, _) = exe.execute(inputs).map_err(|e| e.to_string())?;
        let cmp = compare_tensor(&outs[0], want, core.tol);
        tally.check("core graph oracle comparison", cmp.ok());
        oracle.merge(cmp);
    }
    m.set("tensor.max_abs_err", oracle.max_abs_err);
    m.set("tensor.mismatched_elems", oracle.mismatched as f64);

    // -- steady state, untraced then traced
    for i in 0..cfg.at_least(5) {
        execute_checked(core, &exe, i, None, tally);
    }
    let mut untraced = time_ops(share(cfg, 8), cfg.at_least(5), |i| {
        execute_checked(core, &exe, i, None, tally).0
    });

    let kernels_before = arch::dispatch_report();
    let engine_before = engine_totals();
    let (barriers_before, chunks_before) = (pool.barrier_count(), pool.chunk_count());
    let mut stats = None;
    let traced = time_ops(share(cfg, 4), cfg.at_least(5), |i| {
        let (ms, op_stats) = execute_checked(core, &exe, i, Some(&mut *rec), tally);
        stats = op_stats.or(stats.take());
        ms
    });
    let traced_ops = traced.len() as u64;
    let kernels_after = arch::dispatch_report();
    let engine_after = engine_totals();
    let per_op = |delta: u64| delta as f64 / traced_ops as f64;
    for (family, name) in [
        (Family::BrgemmF32, "microkernel.calls_per_op.brgemm_f32"),
        (Family::BrgemmU8I8, "microkernel.calls_per_op.brgemm_u8i8"),
        (Family::TailF32, "microkernel.calls_per_op.tail_f32"),
        (Family::TailU8I8, "microkernel.calls_per_op.tail_u8i8"),
        (Family::Eltwise, "microkernel.calls_per_op.eltwise"),
        (Family::Reduce, "microkernel.calls_per_op.reduce"),
        (Family::Epilogue, "microkernel.calls_per_op.epilogue"),
    ] {
        let delta =
            kernels_after.calls_for_family(family) - kernels_before.calls_for_family(family);
        m.set(name, per_op(delta));
    }
    m.set(
        "tir.plan_dispatches_per_op",
        per_op(engine_after.plan_dispatches - engine_before.plan_dispatches),
    );
    m.set(
        "tir.exec_states",
        (engine_after.exec_states - states_before) as f64,
    );
    m.set(
        "runtime.barriers_per_op",
        per_op(pool.barrier_count() - barriers_before),
    );
    m.set(
        "runtime.chunks_per_op",
        per_op(pool.chunk_count() - chunks_before),
    );
    if let Some(s) = stats {
        m.set("tir.barriers_per_op", s.barriers as f64);
        m.set("tir.func_calls_per_op", s.func_calls as f64);
        m.set("tir.peak_temp_bytes", s.peak_temp_bytes as f64);
    }
    set_bench(m, &mut untraced, &traced);
    let exec_ms = p50(&untraced);
    m.set("tir.exec_ms_p50", exec_ms);
    if exec_ms > 0.0 {
        m.set("machine.projected_over_wall", projected_ms / exec_ms);
    }

    // -- the same module on the tree-walking interpreter (the oracle path)
    let probe = share(cfg, 8);
    let interp = Executable::with_mode(
        lowered.module.clone(),
        lowered.weight_seeds.clone(),
        Arc::clone(&pool),
        1,
        ExecMode::Interpret,
    );
    execute_checked(core, &interp, 0, None, tally); // init stage
    let interp_ms = p50(&time_ops(probe, cfg.at_least(3), |i| {
        execute_checked(core, &interp, i, None, tally).0
    }));
    m.set("tir.interp_exec_ms_p50", interp_ms);
    if exec_ms > 0.0 {
        m.set("tir.plan_speedup_vs_interp", interp_ms / exec_ms);
    }
    drop(interp);

    // -- the same module planned for a 2-thread pool (informative only
    //    on a shared host)
    let pool2 = Arc::new(ThreadPool::new(2));
    let wide = Executable::with_mode(
        lowered.module.clone(),
        lowered.weight_seeds.clone(),
        Arc::clone(&pool2),
        1,
        ExecMode::Compiled,
    );
    execute_checked(core, &wide, 0, None, tally);
    let t2_ms = p50(&time_ops(probe, cfg.at_least(5), |i| {
        execute_checked(core, &wide, i, None, tally).0
    }));
    m.set("tir.exec_ms_p50_t2", t2_ms);
    if t2_ms > 0.0 {
        m.set("tir.parallel_efficiency_t2", exec_ms / (2.0 * t2_ms));
    }
    drop(wide);

    // -- the primitives-library baseline, interleaved with the plan so
    //    both see the same machine state (the paper's Fig. 8 ratio)
    let baseline_options = BaselineOptions {
        threads: Some(1),
        ..BaselineOptions::new(machine.clone())
    };
    let (build_ms, baseline) = timed_ms(|| Baseline::new(baseline_options).build((core.graph)()));
    let baseline = baseline.map_err(|e| e.to_string())?;
    m.set("baseline.build_ms", build_ms);
    m.set("baseline.primitives", baseline.primitive_count() as f64);
    let base_ok = baseline
        .execute(&core.ring[0])
        .is_ok_and(|(outs, _)| compare_tensor(&outs[0], &core.expected[0], core.tol).ok());
    tally.check("baseline oracle comparison", base_ok);
    let (mut plan_ms, mut base_ms) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while plan_ms.len() < cfg.at_least(3) || started.elapsed() < probe * 2 {
        let inputs = &core.ring[plan_ms.len() % core.ring.len()];
        let (a, plan_out) = timed_ms(|| exe.execute(inputs));
        let (b, base_out) = timed_ms(|| baseline.execute(inputs));
        tally.check("plan execute beside the baseline", plan_out.is_ok());
        tally.check("baseline execute", base_out.is_ok());
        plan_ms.push(a);
        base_ms.push(b);
    }
    m.set("baseline.exec_ms_p50", p50(&base_ms));
    if p50(&plan_ms) > 0.0 {
        m.set("baseline.speedup", p50(&base_ms) / p50(&plan_ms));
    }
    drop(baseline);

    // -- microkernels and runtime in isolation
    let kernels = arch::kernels(arch::active_isa());
    let gemm_ms = gemm_replay_ms(&kernels, core, &choices, probe, cfg.at_least(3));
    let flops: f64 = core
        .matmuls
        .iter()
        .map(|&(b, mm, n, k)| 2.0 * (b * mm * n * k) as f64)
        .sum();
    m.set("microkernel.gemm_isolated_ms", gemm_ms);
    if gemm_ms > 0.0 && exec_ms > 0.0 {
        m.set("microkernel.gemm_gflops", flops / gemm_ms / 1e6);
        m.set("microkernel.gemm_share", gemm_ms / exec_ms);
        m.set("tir.non_kernel_share", 1.0 - gemm_ms / exec_ms);
    }
    slice_kernel_probes(&kernels, cfg, m);
    runtime_probes(&pool, &pool2, cfg, m);
    Ok(())
}

/// Tile sizes `(mb, nb, k per call)` for a matmul problem: what lowering
/// last chose for it — one brgemm call reduces `bs` k-tiles of `kb` —
/// else a plain default (and a note, so a silent drift is visible).
fn tile_for(
    choices: &[ParamChoice],
    problem: (usize, usize, usize, usize),
) -> (usize, usize, usize) {
    let (b, m, n, k) = problem;
    let chosen: Option<MatmulParams> = choices
        .iter()
        .rev()
        .find(|c| (c.problem.batch, c.problem.m, c.problem.n, c.problem.k) == (b, m, n, k))
        .map(|c| c.params);
    match chosen {
        Some(p) => (
            p.mb.clamp(1, m),
            p.nb.clamp(1, n),
            (p.kb * p.bs).clamp(1, k),
        ),
        None => {
            eprintln!(
                "note: no lowering choice logged for matmul {problem:?}; replaying 32x32x64 tiles"
            );
            (m.min(32), n.min(32), k.min(64))
        }
    }
}

/// Replay the core graph's matmuls through the active backend's tile
/// kernels alone — the tile sizes lowering chose, one call per
/// batch-reduce group, operands laid out tile-major so weights stream
/// through the cache as they do in the plan — and return the median wall
/// time of one full replay in ms.
fn gemm_replay_ms(
    kernels: &Kernels,
    core: &Core,
    choices: &[ParamChoice],
    budget: Duration,
    min_replays: usize,
) -> f64 {
    struct Replay {
        tiles: (usize, usize, usize),
        counts: (usize, usize, usize, usize),
    }
    let replays: Vec<Replay> = core
        .matmuls
        .iter()
        .map(|&(b, m, n, k)| {
            let (mb, nb, kb) = tile_for(choices, (b, m, n, k));
            Replay {
                tiles: (mb, nb, kb),
                counts: (b, m.div_ceil(mb), n.div_ceil(nb), k.div_ceil(kb)),
            }
        })
        .collect();
    let size = |f: &dyn Fn(&Replay) -> usize| replays.iter().map(f).max().unwrap_or(0);
    let a_len = size(&|r| r.counts.0 * r.counts.1 * r.counts.3 * r.tiles.0 * r.tiles.2);
    let b_len = size(&|r| r.counts.0 * r.counts.2 * r.counts.3 * r.tiles.1 * r.tiles.2);
    let c_len = size(&|r| r.counts.0 * r.counts.1 * r.counts.2 * r.tiles.0 * r.tiles.1);
    let (a_f, b_f, mut c_f) = (vec![0.5f32; a_len], vec![0.25f32; b_len], vec![0f32; c_len]);
    let (a_q, b_q, mut c_q) = (vec![3u8; a_len], vec![-2i8; b_len], vec![0i32; c_len]);
    let ms = time_ops(budget, min_replays, |_| {
        let t0 = Instant::now();
        for r in &replays {
            let ((mb, nb, kb), (batch, mt, nt, kt)) = (r.tiles, r.counts);
            for t in 0..batch {
                for i in 0..mt {
                    for j in 0..nt {
                        let c_at = ((t * mt + i) * nt + j) * mb * nb;
                        for l in 0..kt {
                            let a_at = ((t * mt + i) * kt + l) * mb * kb;
                            let b_at = ((t * nt + j) * kt + l) * nb * kb;
                            if core.int8 {
                                kernels.gemm_u8i8(
                                    mb,
                                    nb,
                                    kb,
                                    &a_q[a_at..],
                                    &b_q[b_at..],
                                    &mut c_q[c_at..],
                                );
                            } else {
                                kernels.gemm_f32(
                                    mb,
                                    nb,
                                    kb,
                                    &a_f[a_at..],
                                    &b_f[b_at..],
                                    &mut c_f[c_at..],
                                );
                            }
                        }
                    }
                }
            }
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        // accumulators grow across replays; reset so f32 never overflows
        black_box((&mut c_f, &mut c_q));
        c_f.fill(0.0);
        c_q.fill(0);
        ms
    });
    p50(&ms)
}

/// Streaming kernels on 256 KiB slices; bytes are computed from the
/// slice sizes (reads plus writes), not measured.
fn slice_kernel_probes(kernels: &Kernels, cfg: &RunConfig, m: &mut Metrics) {
    const ELEMS: usize = 64 * 1024; // 256 KiB of f32
    let calls = cfg.count(2000);
    let a: Vec<f32> = (0..ELEMS).map(|i| (i % 17) as f32 - 8.0).collect();
    let b = vec![1.5f32; ELEMS];
    let mut dst = vec![0f32; ELEMS];
    let gbps = |slices: usize, f: &mut dyn FnMut()| {
        let per_batch: Vec<f64> = (0..5)
            .map(|_| timed_ms(|| (0..calls).for_each(|_| f())).0)
            .collect();
        (slices * ELEMS * 4 * calls) as f64 / p50(&per_batch) / 1e6
    };
    m.set(
        "microkernel.relu_gbps",
        gbps(2, &mut || kernels.relu(black_box(&a), black_box(&mut dst))),
    );
    m.set(
        "microkernel.binary_add_gbps",
        gbps(3, &mut || {
            kernels.binary_add(black_box(&a), black_box(&b), black_box(&mut dst))
        }),
    );
    m.set(
        "microkernel.reduce_sum_gbps",
        gbps(1, &mut || {
            black_box(kernels.reduce_sum(black_box(&a)));
        }),
    );
    m.set(
        "microkernel.reduce_max_gbps",
        gbps(1, &mut || {
            black_box(kernels.reduce_max(black_box(&a)));
        }),
    );
}

/// Cost of an empty parallel region on a 1- and a 2-thread pool, and of
/// creating and dropping a pool.
fn runtime_probes(pool1: &ThreadPool, pool2: &ThreadPool, cfg: &RunConfig, m: &mut Metrics) {
    let calls = cfg.count(2000);
    let region_us = |pool: &ThreadPool| {
        let per_batch: Vec<f64> = (0..7)
            .map(|_| {
                timed_ms(|| {
                    (0..calls).for_each(|_| {
                        pool.parallel_for(64, |i| {
                            black_box(i);
                        })
                    })
                })
                .0
            })
            .collect();
        p50(&per_batch) * 1e3 / calls as f64
    };
    m.set("runtime.parallel_for_us_t1", region_us(pool1));
    m.set("runtime.parallel_for_us_t2", region_us(pool2));
    let spawn: Vec<f64> = (0..cfg.count(2000).min(20))
        .map(|_| timed_ms(|| drop(ThreadPool::new(2))).0 * 1e3)
        .collect();
    m.set("runtime.pool_spawn_us", p50(&spawn));
}

// ------------------------------------------------------------- workloads

fn traced_direct(name: &str, cfg: &RunConfig) -> Option<Result<TracedRun, String>> {
    let spec = DIRECT.iter().find(|s| s.name == name)?;
    let data = Arc::new(spec.data(cfg.seed));
    let core = Core {
        expected: data.oracles(),
        ring: data.input_sets(),
        tol: data.tolerance(),
        matmuls: data.matmuls(),
        int8: data.is_int8(),
        graph: {
            let data = Arc::clone(&data);
            Box::new(move || data.graph())
        },
    };
    let mut run = TracedRun {
        metrics: Metrics::per_layer_zeroed(),
        attempted: 0,
        failed: 0,
        input_hash: data.input_hash(),
        trace: Recorder::new(),
    };
    let mut tally = Tally::default();
    Some(
        core_probes(&core, cfg, &mut run.trace, &mut run.metrics, &mut tally).map(|()| {
            run.attempted = tally.attempted;
            run.failed = tally.failed;
            run
        }),
    )
}

fn traced_serve(cfg: &RunConfig) -> Result<TracedRun, String> {
    let data = ServeData::generate(cfg.seed);
    // core graph: MLP_1 at the 2-row bucket a full batch executes
    let pairs = data.mlp.inputs.len() / SERVE_CALLERS;
    let stack = |rows: &[&[f32]], width: usize| {
        Tensor::from_vec_f32(&[rows.len(), width], rows.concat()).expect("stacked rows")
    };
    let core = Core {
        ring: (0..pairs)
            .map(|p| {
                let rows: Vec<&[f32]> = (0..SERVE_CALLERS)
                    .map(|c| {
                        data.mlp.inputs[p * SERVE_CALLERS + c]
                            .f32_slice()
                            .expect("f32")
                    })
                    .collect();
                vec![stack(&rows, rows[0].len())]
            })
            .collect(),
        expected: (0..pairs)
            .map(|p| {
                let rows: Vec<&[f32]> = (0..SERVE_CALLERS)
                    .map(|c| data.expected[p * SERVE_CALLERS + c].as_slice())
                    .collect();
                stack(&rows, rows[0].len())
            })
            .collect(),
        tol: MLP_TOL,
        matmuls: data.mlp.matmuls(SERVE_CALLERS),
        int8: false,
        graph: {
            let mlp = data.mlp.clone();
            Box::new(move || mlp.graph(SERVE_CALLERS))
        },
    };
    let mut rec = Recorder::new();
    let mut m = Metrics::per_layer_zeroed();
    let mut tally = Tally::default();
    core_probes(&core, cfg, &mut rec, &mut m, &mut tally)?;

    // -- the serving path itself
    let model = rec
        .span("serve.load", "gc-serve", NO_OP, |_| {
            Model::load(data.mlp.graph(1), serve_config())
        })
        .map_err(|e| e.to_string())?;
    m.set(
        "serve.load_ms",
        rec.last_ms("serve.load").expect("span just closed"),
    );
    rec.span("serve.bucket_compile", "gc-serve", NO_OP, |_| {
        model.executable_for_units(SERVE_CALLERS)
    })
    .map_err(|e| e.to_string())?;
    m.set(
        "serve.bucket_compile_ms",
        rec.last_ms("serve.bucket_compile")
            .expect("span just closed"),
    );
    let lookups = cfg.count(1000);
    let hit_us: Vec<f64> = (0..7)
        .map(|_| {
            let (ms, ()) = timed_ms(|| {
                for _ in 0..lookups {
                    black_box(model.executable_for_units(SERVE_CALLERS).is_ok());
                }
            });
            ms * 1e3 / lookups as f64
        })
        .collect();
    m.set("serve.plan_cache_hit_us", p50(&hit_us));

    let session = model.session();
    let warmup = cfg.count(2000);
    on_callers(|c| {
        for i in 0..warmup {
            serve_request(&session, &data, c, i);
        }
    });

    let windows = on_callers(|c| {
        let mut window = Window::new(share(cfg, 8), 256);
        window.open();
        for i in 0.. {
            let (t0, t1, ok, _) = serve_request(&session, &data, c, i);
            if !window.record(t0, t1, ok) {
                break;
            }
        }
        window
    });
    let untraced = summarize(&windows, 1.0);
    tally.attempted += untraced.attempted;
    tally.failed += untraced.failed;

    // traced: one `serve.infer` span per request; its queue-wait and
    // execute children are rebuilt from the `ExecStats` the call returns
    struct Req {
        latency_us: f64,
        queue_us: f64,
        exec_us: f64,
        ok: bool,
    }
    let length = share(cfg, 4);
    let lanes = on_callers(|c| {
        let mut lane = rec.sibling(c as u64 + 1);
        let mut reqs = Vec::new();
        let started = Instant::now();
        for i in 0.. {
            let op = (i * SERVE_CALLERS + c) as u64;
            let span = lane.start("serve.infer", "gc-serve", op);
            let (t0, t1, ok, stats) = serve_request(&session, &data, c, i);
            let (start_ns, _) = lane.end(span);
            let stats = stats.unwrap_or_default();
            let (queue_ns, exec_ns) = (
                stats.queue_wait.as_nanos() as u64,
                stats.wall.as_nanos() as u64,
            );
            lane.add_child(
                span,
                "serve.queue_wait",
                "gc-serve",
                op,
                start_ns,
                start_ns + queue_ns,
            );
            lane.add_child(
                span,
                "tir.execute",
                "gc-tir",
                op,
                start_ns + queue_ns,
                start_ns + queue_ns + exec_ns,
            );
            reqs.push(Req {
                latency_us: (t1 - t0).as_secs_f64() * 1e6,
                queue_us: queue_ns as f64 / 1e3,
                exec_us: exec_ns as f64 / 1e3,
                ok,
            });
            if started.elapsed() >= length {
                break;
            }
        }
        (lane, reqs)
    });
    let mut reqs = Vec::new();
    for (lane, lane_reqs) in lanes {
        rec.merge(lane);
        reqs.extend(lane_reqs);
    }
    reqs.iter().for_each(|r| tally.check("serve request", r.ok));
    let column = |f: &dyn Fn(&Req) -> f64| reqs.iter().map(f).collect::<Vec<f64>>();
    m.set("serve.queue_wait_us_p50", p50(&column(&|r| r.queue_us)));
    m.set("serve.batch_exec_us_p50", p50(&column(&|r| r.exec_us)));
    m.set(
        "serve.overhead_us_p50",
        p50(&column(&|r| {
            (r.latency_us - r.queue_us - r.exec_us).max(0.0)
        })),
    );
    m.set("bench.samples", untraced.samples as f64);
    m.set("bench.timed_window_s", untraced.window_s);
    m.set("bench.latency_ms_p95", untraced.p95_ms.unwrap_or(0.0));
    m.set("bench.latency_ms_p99", untraced.p99_ms.unwrap_or(0.0));
    if untraced.p50_ms > 0.0 {
        let traced_p50_ms = p50(&column(&|r| r.latency_us)) / 1e3;
        m.set(
            "bench.trace_overhead_share",
            traced_p50_ms / untraced.p50_ms - 1.0,
        );
    }

    let stats = model.stats();
    let (rows, padded) = stats
        .buckets
        .iter()
        .fold((0u64, 0u64), |(r, p), b| (r + b.rows, p + b.padded_rows));
    m.set(
        "serve.coalesce_ratio",
        stats.coalesce_ratio().unwrap_or(0.0),
    );
    m.set("serve.batches", stats.batches as f64);
    m.set("serve.busy_rejections", stats.busy_rejections as f64);
    if stats.batches > 0 {
        m.set("serve.batch_rows_mean", rows as f64 / stats.batches as f64);
    }
    if rows + padded > 0 {
        m.set(
            "serve.padded_rows_share",
            padded as f64 / (rows + padded) as f64,
        );
    }
    if stats.requests > 0 {
        m.set(
            "serve.fast_path_share",
            stats.fast_path as f64 / stats.requests as f64,
        );
    }
    Ok(TracedRun {
        metrics: m,
        attempted: tally.attempted,
        failed: tally.failed,
        input_hash: data.input_hash(),
        trace: rec,
    })
}

/// Capacity bucket a session is in while it runs step `step`.
fn capacity_at(step: usize) -> usize {
    (step + 1).next_power_of_two().max(16)
}

/// Drives session sets through the decode scheduler round by round.
struct RoundDriver<'a> {
    model: &'a gc_serve::DecodeModel,
    data: &'a DecodeData,
    steps: usize,
    /// Time to open one session, per set opened, in us.
    open_us: Vec<f64>,
}

impl RoundDriver<'_> {
    fn open_set(&mut self) -> Result<Vec<gc_serve::DecodeSession>, String> {
        let (ms, sessions) = timed_ms(|| open_sessions(self.model));
        self.open_us.push(ms * 1e3 / DECODE_SESSIONS as f64);
        sessions
    }

    /// Run rounds for `length` (one at least), each under a
    /// `serve.decode_round` span when a recorder is given. Returns
    /// `(step, latency in ms)` per round.
    fn rounds(
        &mut self,
        length: Duration,
        mut rec: Option<&mut Recorder>,
        tally: &mut Tally,
    ) -> Result<Vec<(usize, f64)>, String> {
        let mut lat = Vec::new();
        let started = Instant::now();
        loop {
            let sessions = self.open_set()?;
            for step in 0..self.steps {
                let span = rec
                    .as_mut()
                    .map(|r| r.start("serve.decode_round", "gc-serve", lat.len() as u64));
                let (t0, t1, ok) = decode_round(&sessions, self.data, step);
                if let (Some(r), Some(id)) = (rec.as_mut(), span) {
                    r.end(id);
                }
                tally.check(&format!("decode round at step {step}"), ok);
                lat.push((step, (t1 - t0).as_secs_f64() * 1e3));
                if started.elapsed() >= length {
                    return Ok(lat);
                }
            }
        }
    }
}

fn traced_decode(cfg: &RunConfig) -> Result<TracedRun, String> {
    let steps = decode_steps(cfg);
    let data = DecodeData::generate(cfg.seed, steps);
    // core graph: a full-occupancy step at the widest capacity bucket
    let cap = DECODE_MAX_CAPACITY;
    let rows = DECODE_SESSIONS * crate::graphs::DECODE_HEADS;
    let gathered = DecodeF32::gathered_step(DECODE_SESSIONS, cap, cfg.seed);
    let core = Core {
        expected: vec![DecodeF32::gathered_oracle(&gathered)],
        ring: vec![gathered.to_vec()],
        tol: ATTENTION_TOL,
        matmuls: data.tokens.matmuls(cap),
        int8: false,
        graph: Box::new(move || DecodeF32::template(rows, cap)),
    };
    let mut rec = Recorder::new();
    let mut m = Metrics::per_layer_zeroed();
    let mut tally = Tally::default();
    core_probes(&core, cfg, &mut rec, &mut m, &mut tally)?;

    // -- the decode scheduler itself
    let model = rec.span("serve.load", "gc-serve", NO_OP, |_| load_decode())?;
    m.set(
        "serve.load_ms",
        rec.last_ms("serve.load").expect("span just closed"),
    );
    let mut driver = RoundDriver {
        model: &model,
        data: &data,
        steps,
        open_us: Vec::new(),
    };

    // cold set: the first round at each capacity compiles that bucket
    let sessions = driver.open_set()?;
    let mut bucket_compile_ms = 0.0;
    for step in 0..steps {
        let (t0, t1, ok) = decode_round(&sessions, &data, step);
        tally.check(&format!("cold decode round at step {step}"), ok);
        if step == 0 || capacity_at(step) != capacity_at(step - 1) {
            bucket_compile_ms += (t1 - t0).as_secs_f64() * 1e3;
        }
    }
    m.set("serve.bucket_compile_ms", bucket_compile_ms);
    drop(sessions);

    let untraced = driver.rounds(share(cfg, 8), None, &mut tally)?;
    let traced = driver.rounds(share(cfg, 4), Some(&mut rec), &mut tally)?;
    let mut untraced_ms: Vec<f64> = untraced.iter().map(|&(_, ms)| ms).collect();
    let traced_ms: Vec<f64> = traced.iter().map(|&(_, ms)| ms).collect();
    set_bench(&mut m, &mut untraced_ms, &traced_ms);
    for (bucket, name) in [
        (16, "serve.decode_step_us_p50.cap16"),
        (32, "serve.decode_step_us_p50.cap32"),
        (64, "serve.decode_step_us_p50.cap64"),
        (128, "serve.decode_step_us_p50.cap128"),
    ] {
        let at: Vec<f64> = traced
            .iter()
            .filter(|&&(step, _)| capacity_at(step) == bucket)
            .map(|&(_, ms)| ms * 1e3)
            .collect();
        m.set(name, p50(&at));
    }
    m.set("serve.session_open_us", p50(&driver.open_us));

    let stats = model.stats();
    m.set(
        "serve.decode_coalesce_ratio",
        stats.decode_coalesce_ratio().unwrap_or(0.0),
    );
    m.set("serve.decode_iterations", stats.decode_iterations() as f64);
    let iterations: u64 = stats.decode_occupancy.iter().sum();
    if iterations > 0 {
        // bin b holds iterations whose occupancy was in [b/10, (b+1)/10)
        let weighted: u64 = stats
            .decode_occupancy
            .iter()
            .enumerate()
            .map(|(bin, &n)| bin as u64 * n)
            .sum();
        m.set(
            "serve.decode_occupancy_mean",
            weighted as f64 / (10 * iterations) as f64,
        );
    }
    Ok(TracedRun {
        metrics: m,
        attempted: tally.attempted,
        failed: tally.failed,
        input_hash: data.input_hash(),
        trace: rec,
    })
}

/// Run the traced side of workload `name`.
///
/// # Errors
///
/// Returns a message for an unknown name or a failed set-up.
pub fn run_traced(name: &str, cfg: &RunConfig) -> Result<TracedRun, String> {
    if let Some(run) = traced_direct(name, cfg) {
        return run;
    }
    match name {
        "serve_mlp1_rows1_c2" => traced_serve(cfg),
        "decode_f32_s16" => traced_decode(cfg),
        other => Err(format!("unknown workload {other}")),
    }
}
