//! Serving-runtime integration tests: concurrent execution safety of a
//! shared `Executable`, and dynamically batched + padded execution
//! against unbatched compilation on the paper's Table-1 MLP workloads
//! (int8 bitwise-exact, f32 to 1e-5).

use gc_bench::workloads;
use gc_core::{CompileOptions, Compiler};
use gc_machine::MachineDescriptor;
use gc_runtime::ThreadPool;
use gc_serve::{BucketSnapshot, Model, PlanCache, ServeConfig};
use gc_tensor::{Storage, Tensor};
use gc_tir::InitCache;
use std::sync::Arc;
use std::time::Duration;

fn options(threads: usize) -> CompileOptions {
    CompileOptions {
        threads: Some(threads),
        ..CompileOptions::new(MachineDescriptor::xeon_8358())
    }
}

fn serve_config(threads: usize) -> ServeConfig {
    ServeConfig {
        compile: options(threads),
        // Private caches: keep this test hermetic under parallel runs.
        plan_cache: Some(Arc::new(PlanCache::new())),
        init_cache: Some(Arc::new(InitCache::new())),
        ..ServeConfig::default()
    }
}

fn assert_storage_close(got: &Storage, want: &Storage, tol: f32, what: &str) {
    match (got, want) {
        (Storage::F32(g), Storage::F32(w)) => {
            assert_eq!(g.len(), w.len(), "{what}: length");
            for (ei, (&x, &y)) in g.iter().zip(w.iter()).enumerate() {
                if tol == 0.0 {
                    assert_eq!(x.to_bits(), y.to_bits(), "{what}[{ei}]: {x:?} != {y:?}");
                } else {
                    assert!(
                        (x - y).abs() <= tol * (1.0 + y.abs()),
                        "{what}[{ei}]: {x} vs {y}"
                    );
                }
            }
        }
        (g, w) => assert_eq!(g, w, "{what}: non-f32 outputs must be bitwise equal"),
    }
}

/// Satellite: 8 threads hammer one shared `Executable`; every output
/// must bit-match the serial run of the same input.
#[test]
fn concurrent_execute_stress_bitmatches_serial() {
    let g = workloads::mlp_f32(8, &workloads::mlp1_layers(), 42);
    let engine = gc_tir::Engine::new(Arc::new(ThreadPool::new(2)));
    let arts = Compiler::new(options(2))
        .compile_artifacts(g, &engine)
        .expect("compile");
    let exe = Arc::new(arts.exe);

    // Serial references, one distinct input per future thread.
    let inputs: Vec<Tensor> = (0..8)
        .map(|t| Tensor::random(&[8, 13], gc_tensor::DataType::F32, 1000 + t))
        .collect();
    let expected: Vec<Vec<Tensor>> = inputs
        .iter()
        .map(|x| exe.execute(std::slice::from_ref(x)).expect("serial").0)
        .collect();

    let mut handles = Vec::new();
    for t in 0..8 {
        let exe = Arc::clone(&exe);
        let x = inputs[t].clone();
        let want: Vec<Vec<u32>> = expected[t]
            .iter()
            .map(|o| o.f32_slice().unwrap().iter().map(|v| v.to_bits()).collect())
            .collect();
        handles.push(std::thread::spawn(move || {
            for round in 0..10 {
                let (outs, _) = exe.execute(std::slice::from_ref(&x)).expect("execute");
                for (oi, (o, w)) in outs.iter().zip(&want).enumerate() {
                    let got: Vec<u32> =
                        o.f32_slice().unwrap().iter().map(|v| v.to_bits()).collect();
                    assert_eq!(&got, w, "thread {t} round {round} output {oi}");
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("stress thread");
    }
    // The state pool grew to at most the observed concurrency.
    assert!(exe.pooled_states() <= 8);
    // One executable, one init, no matter how many threads ran it.
    assert_eq!(exe.init_runs(), 1);
}

/// Run `rows`-row requests through a serving model built on a 1-row
/// template and compare each against an unbatched compile at the exact
/// request shape.
fn batched_vs_unbatched(
    template: gc_graph::Graph,
    build_rows: impl Fn(usize) -> gc_graph::Graph,
    rows_list: &[usize],
    tol: f32,
) {
    let model = Model::load(template, serve_config(2)).expect("load model");
    let session = model.session();
    for &rows in rows_list {
        let unbatched = Compiler::new(options(2))
            .compile(build_rows(rows))
            .expect("unbatched compile");
        let inputs: Vec<Tensor> = unbatched
            .input_descs()
            .iter()
            .enumerate()
            .map(|(i, d)| Tensor::random(d.shape(), d.dtype(), 70 + rows as u64 + i as u64))
            .collect();
        let (want, _) = unbatched.execute(&inputs).expect("unbatched execute");
        let (got, stats) = session.infer_with_stats(&inputs).expect("batched infer");
        // rows pads up to the next power of two inside the batcher
        assert_eq!(stats.batch_rows, rows.next_power_of_two() as u64);
        assert_eq!(got.len(), want.len());
        // A request that exactly fills its bucket compiles the same
        // graph the unbatched path does, so it must be bitwise equal.
        // A padded bucket may pick different kernel blocking (another
        // accumulation order), so f32 gets the caller's tolerance.
        let effective_tol = if rows.is_power_of_two() { 0.0 } else { tol };
        for (oi, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.desc().volume(), w.desc().volume());
            assert_storage_close(
                g.storage(),
                w.storage(),
                effective_tol,
                &format!("rows {rows} output {oi}"),
            );
        }
    }
    let snap = model.stats();
    assert_eq!(snap.requests, rows_list.len() as u64);
    assert!(snap.buckets.iter().any(|b| b.padded_rows > 0));
}

/// Satellite: batched + padded f32 execution matches unbatched on the
/// MLP_1 progression — bitwise at bucket-exact sizes, to a small
/// accumulation-order tolerance when padding changes the blocking.
#[test]
fn batched_matches_unbatched_f32_mlp1() {
    let layers = workloads::mlp1_layers();
    batched_vs_unbatched(
        workloads::mlp_f32(1, &layers, 7),
        |rows| workloads::mlp_f32(rows, &workloads::mlp1_layers(), 7),
        &[1, 3, 4, 5],
        5e-5,
    );
}

/// Satellite: batched + padded int8 execution is bitwise exact vs
/// unbatched on MLP_1.
#[test]
fn batched_matches_unbatched_int8_mlp1() {
    let layers = workloads::mlp1_layers();
    batched_vs_unbatched(
        workloads::mlp_int8(1, &layers, 11),
        |rows| workloads::mlp_int8(rows, &workloads::mlp1_layers(), 11),
        &[2, 3],
        0.0,
    );
}

/// Satellite: the deeper MLP_2 progression, int8, padded bucket.
#[test]
fn batched_matches_unbatched_int8_mlp2() {
    let layers = workloads::mlp2_layers();
    batched_vs_unbatched(
        workloads::mlp_int8(1, &layers, 23),
        |rows| workloads::mlp_int8(rows, &workloads::mlp2_layers(), 23),
        &[3],
        0.0,
    );
}

/// Requests of 3, 2 and 2 rows fill a 7-unit window and run as one
/// batch padded to 8 units. Each request reads its own span of the one
/// output: it bit-matches an unbatched compile at its own row count.
#[test]
fn mixed_size_requests_share_one_padded_batch() {
    let layers = workloads::mlp1_layers();
    let mut cfg = serve_config(2);
    cfg.max_batch = 7;
    // The window closes by fill, never by timer.
    cfg.max_delay = Duration::from_secs(30);
    cfg.fast_path = false;
    let model = Model::load(workloads::mlp_int8(1, &layers, 31), cfg).expect("load model");
    let handles: Vec<_> = [3usize, 2, 2]
        .into_iter()
        .enumerate()
        .map(|(t, rows)| {
            let session = model.session();
            std::thread::spawn(move || {
                let unbatched = Compiler::new(options(2))
                    .compile(workloads::mlp_int8(rows, &workloads::mlp1_layers(), 31))
                    .expect("unbatched compile");
                let inputs: Vec<Tensor> = unbatched
                    .input_descs()
                    .iter()
                    .map(|d| Tensor::random(d.shape(), d.dtype(), 90 + t as u64))
                    .collect();
                let (want, _) = unbatched.execute(&inputs).expect("unbatched execute");
                let (got, stats) = session.infer_with_stats(&inputs).expect("batched infer");
                (rows, want, got, stats)
            })
        })
        .collect();
    for h in handles {
        let (rows, want, got, stats) = h.join().expect("client thread");
        assert_eq!(stats.batch_rows, 8, "rows {rows}");
        assert_eq!(got.len(), want.len());
        for (oi, (g, w)) in got.iter().zip(&want).enumerate() {
            // Unbatched outputs may come back layout-flattened.
            assert_eq!(g.desc().volume(), w.desc().volume());
            assert_storage_close(
                g.storage(),
                w.storage(),
                0.0,
                &format!("rows {rows} output {oi}"),
            );
        }
    }
    let snap = model.stats();
    assert_eq!((snap.requests, snap.batches), (3, 1));
    assert_eq!(
        snap.buckets,
        vec![BucketSnapshot {
            units: 8,
            batches: 1,
            requests: 3,
            rows: 7,
            padded_rows: 1,
        }]
    );
}

/// Two models loaded from identical graphs share one compiled
/// executable and one folded-constant set, end to end.
#[test]
fn sessions_share_compiled_plan_and_folds() {
    let cfg = serve_config(2);
    let layers = workloads::mlp1_layers();
    let m1 = Model::load(workloads::mlp_f32(4, &layers, 5), cfg.clone()).expect("m1");
    let m2 = Model::load(workloads::mlp_f32(4, &layers, 5), cfg.clone()).expect("m2");
    let e1 = m1.executable_for_units(4).expect("e1");
    let e2 = m2.executable_for_units(4).expect("e2");
    assert!(
        Arc::ptr_eq(&e1, &e2),
        "same graph must share one executable"
    );

    let x = Tensor::random(&[4, 13], gc_tensor::DataType::F32, 3);
    let a = m1
        .session()
        .infer(std::slice::from_ref(&x))
        .expect("m1 infer");
    let b = m2
        .session()
        .infer(std::slice::from_ref(&x))
        .expect("m2 infer");
    assert_storage_close(a[0].storage(), b[0].storage(), 0.0, "shared plan output");
    assert_eq!(cfg.init_cache.unwrap().compute_count(), 1);
    assert_eq!(cfg.plan_cache.unwrap().misses(), 1);
}

/// A model loaded with a tuning database warm-starts its bucket
/// compiles: the serve-side compile makes the exact same parameter
/// decisions as a direct tuned compile of the same graph, and a model
/// loaded with a different-content database gets its own plan-cache
/// entry (no stale-plan aliasing).
#[test]
fn serve_warm_starts_from_tuning_database() {
    use gc_core::{tune_graph, TuneConfig, TuningDb};
    use std::sync::Mutex;

    let batch = 16;
    let layers = workloads::mlp1_layers();
    let graph = workloads::mlp_f32(batch, &layers, 7);
    let opts = options(1);

    let db = Arc::new(TuningDb::in_memory());
    let cfg = TuneConfig {
        top_k: 3,
        max_trials: 8,
        wall_reps: 1,
    };
    let report = tune_graph(&graph, &opts, &db, &cfg).expect("tune");
    assert!(!report.warm_start);

    // Reference: a direct tuned compile's parameter decisions.
    let direct_log: gc_lowering::ParamLog = Arc::new(Mutex::new(Vec::new()));
    let mut direct_opts = opts.clone();
    direct_opts.tuning = Some(db.clone());
    direct_opts.param_log = Some(direct_log.clone());
    let direct = Compiler::new(direct_opts)
        .compile(graph.clone())
        .expect("direct compile");
    assert!(direct.report().tuned, "direct compile must hit the record");

    // Serve: loading the model compiles the template-sized bucket (16
    // units = the tuned shape) through the plan cache; with the
    // database attached that compile must warm-start.
    let shared_cache = Arc::new(PlanCache::new());
    let serve_log: gc_lowering::ParamLog = Arc::new(Mutex::new(Vec::new()));
    let mut sc = serve_config(1).with_tuning(db.clone());
    sc.plan_cache = Some(shared_cache.clone());
    sc.compile.param_log = Some(serve_log.clone());
    let model = Model::load(graph.clone(), sc).expect("load tuned");
    let x = Tensor::random(&[batch, layers[0]], gc_tensor::DataType::F32, 3);
    let tuned_out = model
        .session()
        .infer(std::slice::from_ref(&x))
        .expect("tuned infer");

    let serve_choices = serve_log.lock().unwrap().clone();
    let direct_choices = direct_log.lock().unwrap().clone();
    assert!(!serve_choices.is_empty());
    assert_eq!(
        serve_choices, direct_choices,
        "serve bucket compile must replay the tuned decisions"
    );

    // Same graph, same shared cache, no database: the untuned model
    // must get its own plan-cache entry, not the tuned model's plan.
    let mut plain_cfg = serve_config(1);
    plain_cfg.plan_cache = Some(shared_cache.clone());
    let plain = Model::load(graph, plain_cfg).expect("load untuned");
    let plain_out = plain
        .session()
        .infer(std::slice::from_ref(&x))
        .expect("plain infer");
    assert_eq!(
        shared_cache.misses(),
        2,
        "tuned and untuned configurations must not share a plan entry"
    );
    assert_storage_close(
        tuned_out[0].storage(),
        plain_out[0].storage(),
        1e-4,
        "tuned vs untuned output",
    );
}
