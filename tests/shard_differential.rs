//! Sharded-vs-serial differential tests (DESIGN.md "Sharded
//! execution"): a model serving through engine shards must agree with
//! the unbatched single-engine compile of the same request — bitwise
//! for int8 (integer accumulation is order-independent), to a small
//! accumulation-order tolerance for f32 (each shard pads its slice to
//! its own bucket, so kernel blocking may differ). Also covers ragged
//! uneven splits across heterogeneous shards, panic isolation, and
//! tuning-database warm starts keyed by the shard engine's ISA.

use gc_bench::workloads;
use gc_core::{CompileOptions, Compiler};
use gc_machine::MachineDescriptor;
use gc_serve::{EngineShard, Model, PlanCache, ServeConfig, ShardConfig, ShardSpec, StatsSnapshot};
use gc_tensor::Storage;
use gc_tir::InitCache;
use std::sync::Arc;

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

fn sharded_config(threads: usize, shards: usize, min_units: usize) -> ServeConfig {
    let mut sc = ShardConfig::uniform(shards);
    sc.min_units_per_shard = min_units;
    ServeConfig {
        sharding: Some(sc),
        ..serve_config(threads)
    }
}

fn assert_storage_close(got: &Storage, want: &Storage, tol: f32, what: &str) {
    match (got, want) {
        (Storage::F32(g), Storage::F32(w)) => {
            assert_eq!(g.len(), w.len(), "{what}: length");
            for (ei, (&x, &y)) in g.iter().zip(w.iter()).enumerate() {
                assert!(
                    (x - y).abs() <= tol * (1.0 + y.abs()),
                    "{what}[{ei}]: {x} vs {y}"
                );
            }
        }
        (g, w) => assert_eq!(g, w, "{what}: non-f32 outputs must be bitwise equal"),
    }
}

/// Run `rows`-row requests through a sharded model built on a 1-row
/// template and compare each against (a) the same model served
/// *serially* (unsharded, same pipeline — the ISSUE's serial ≡ sharded
/// contract, `serial_tol`) and (b) a raw unbatched single-engine
/// compile at the exact request shape (`unbatched_tol`; looser for f32
/// because bucketing changes kernel blocking). Returns the sharded
/// model's final stats.
fn sharded_vs_serial(
    template: gc_graph::Graph,
    build_rows: impl Fn(usize) -> gc_graph::Graph,
    rows_list: &[usize],
    config: ServeConfig,
    serial_tol: f32,
    unbatched_tol: f32,
) -> StatsSnapshot {
    let shard_count = config.sharding.as_ref().map_or(0, |s| s.shards.len());
    let serial = Model::load(
        template.clone(),
        ServeConfig {
            sharding: None,
            ..config.clone()
        },
    )
    .expect("load serial model");
    let model = Model::load(template, config).expect("load sharded model");
    let session = model.session();
    let serial_session = serial.session();
    for &rows in rows_list {
        let g = build_rows(rows);
        let inputs = workloads::random_inputs(&g, 70 + rows as u64);
        let unbatched = Compiler::new(options(1)).compile(g).expect("unbatched");
        let (want, _) = unbatched.execute(&inputs).expect("unbatched execute");
        let serial_out = serial_session.infer(&inputs).expect("serial infer");
        let got = session.infer(&inputs).expect("sharded infer");
        assert_eq!(got.len(), want.len());
        assert_eq!(got.len(), serial_out.len());
        for (oi, ((g, s), w)) in got.iter().zip(&serial_out).zip(&want).enumerate() {
            assert_eq!(g.desc().volume(), w.desc().volume());
            assert_storage_close(
                g.storage(),
                s.storage(),
                serial_tol,
                &format!("rows {rows} output {oi} (vs serial)"),
            );
            assert_storage_close(
                g.storage(),
                w.storage(),
                unbatched_tol,
                &format!("rows {rows} output {oi} (vs unbatched)"),
            );
        }
    }
    let snap = model.stats();
    assert_eq!(snap.shards.len(), shard_count);
    assert_eq!(snap.requests, rows_list.len() as u64);
    // Every unit served went through some shard, and at least one batch
    // was big enough to scatter.
    let shard_units: u64 = snap.shards.iter().map(|s| s.units).sum();
    let total_units: u64 = rows_list.iter().map(|&r| r as u64).sum();
    assert_eq!(shard_units, total_units, "{snap}");
    assert!(snap.scattered_batches > 0, "{snap}");
    snap
}

/// Tentpole: sharded f32 serving agrees with the serial (unsharded)
/// model and with a raw unbatched compile to the repo's standard 5e-5
/// relative tolerance, across bucket-exact, padded, and ragged
/// (uneven-split) request sizes. The bound cannot be tighter: the
/// lowering heuristic picks `kb`/`bs` per padded-bucket `m`, so a
/// serial bucket of 4 and shard buckets of 2|1 group the K reduction
/// differently — a few-ULP f32 summation-order difference over
/// MLP-sized K. The exactness guarantee lives in the int8 tests below,
/// where accumulation is integer and order-independent.
#[test]
fn sharded_matches_serial_f32_mlp1() {
    let layers = workloads::mlp1_layers();
    sharded_vs_serial(
        workloads::mlp_f32(1, &layers, 7),
        |rows| workloads::mlp_f32(rows, &workloads::mlp1_layers(), 7),
        // 11 over 2 shards splits 6|5 — a ragged, uneven scatter.
        &[1, 3, 5, 8, 11],
        sharded_config(2, 2, 1),
        5e-5,
        5e-5,
    );
}

/// Tentpole: the int8 pipeline is bitwise exact under sharding — no
/// tolerance, any split.
#[test]
fn sharded_matches_serial_int8_mlp1() {
    let layers = workloads::mlp1_layers();
    sharded_vs_serial(
        workloads::mlp_int8(1, &layers, 11),
        |rows| workloads::mlp_int8(rows, &workloads::mlp1_layers(), 11),
        &[2, 3, 8, 11],
        sharded_config(2, 2, 1),
        0.0,
        0.0,
    );
}

/// Ragged splits across a *heterogeneous* fleet: shards of different
/// widths, one forced to the scalar backend — mixed ISAs in one
/// process must still agree with the single-engine result.
#[test]
fn ragged_split_across_heterogeneous_shards() {
    let layers = workloads::mlp1_layers();
    let sc = ShardConfig {
        shards: vec![
            ShardSpec {
                threads: 2,
                ..ShardSpec::default()
            },
            ShardSpec {
                threads: 1,
                isa: Some(gc_microkernel::Isa::Scalar),
                ..ShardSpec::default()
            },
        ],
        min_units_per_shard: 1,
    };
    let config = ServeConfig {
        sharding: Some(sc),
        ..serve_config(3)
    };
    sharded_vs_serial(
        workloads::mlp_int8(1, &layers, 31),
        |rows| workloads::mlp_int8(rows, &workloads::mlp1_layers(), 31),
        &[3, 7, 11],
        config,
        0.0, // int8: exact even across backends
        0.0,
    );
}

/// `ServeConfig::with_shards(n)` divides the model's thread budget
/// evenly: four threads over two shards is two each, and an 8-row
/// request (at the default scatter threshold) splits across both and
/// bit-matches the unsharded model.
#[test]
fn with_shards_splits_the_thread_budget_evenly() {
    let layers = workloads::mlp1_layers();
    let snap = sharded_vs_serial(
        workloads::mlp_int8(1, &layers, 13),
        |rows| workloads::mlp_int8(rows, &workloads::mlp1_layers(), 13),
        &[8],
        serve_config(4).with_shards(2),
        0.0,
        0.0,
    );
    let threads: Vec<u64> = snap.shards.iter().map(|s| s.threads).collect();
    assert_eq!(threads, [2, 2], "{snap}");
}

/// A budget smaller than the shard count still gives every shard one
/// thread.
#[test]
fn with_shards_gives_every_shard_at_least_one_thread() {
    let model = Model::load(
        workloads::mlp_int8(1, &workloads::mlp1_layers(), 13),
        serve_config(2).with_shards(4),
    )
    .expect("load");
    let snap = model.stats();
    let threads: Vec<u64> = snap.shards.iter().map(|s| s.threads).collect();
    assert_eq!(threads, [1, 1, 1, 1], "{snap}");
}

/// Panic isolation: a job that panics on one shard fails only its own
/// waiter — the shard's executor survives, later jobs run, and the
/// panic is counted. (Inside a model, `run_batch` turns that failure
/// into an error for exactly the waiters of the panicking batch.)
#[test]
fn shard_panic_fails_only_its_own_waiters() {
    let shard = EngineShard::new(0, &ShardSpec::default(), 1).expect("shard");
    let before = shard.run(|| 1).wait().expect("job before panic");
    let bad = shard.run(|| -> i32 { panic!("injected failure") });
    let after = shard.run(|| 2);
    assert!(bad.wait().is_err(), "panicking job must fail its waiter");
    assert_eq!(after.wait().expect("job after panic"), 2);
    assert_eq!(before, 1);
    assert_eq!(shard.stats().panics(), 1);
}

/// A model keeps serving after its fleet absorbed a panic elsewhere:
/// load a sharded model, hammer it, and confirm no request is lost and
/// the queue drains (the waiter-fanout guarantee under shard errors).
#[test]
fn sharded_model_serves_concurrent_requests() {
    let layers = workloads::mlp1_layers();
    let model = Arc::new(
        Model::load(
            workloads::mlp_f32(1, &layers, 3),
            ServeConfig {
                fast_path: false, // force everything through the batcher
                ..sharded_config(2, 2, 1)
            },
        )
        .expect("load"),
    );
    let mut handles = Vec::new();
    for t in 0..4 {
        let session = model.session();
        let layers = layers.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..8 {
                let rows = 1 + ((t + i) % 5) as usize;
                let g = workloads::mlp_f32(rows, &layers, 3);
                let inputs = workloads::random_inputs(&g, 900 + t * 100 + i);
                let outs = session.infer(&inputs).expect("infer");
                assert_eq!(outs[0].desc().shape()[0], rows);
            }
        }));
    }
    for h in handles {
        h.join().expect("client thread");
    }
    let snap = model.stats();
    assert_eq!(snap.requests, 32);
    assert_eq!(snap.queue_depth, 0);
}

/// A shard's plans are compiled on the loader thread but *for* the
/// shard's engine, so they warm-start from tuning records measured on
/// that engine's ISA and from no others: a scalar shard on a SIMD host
/// ignores a record keyed under the host's default backend (a) and
/// replays one keyed under `scalar` (b).
#[test]
fn scalar_shard_warm_starts_only_from_scalar_tuning_records() {
    use gc_core::{TuneKey, TunedRecord, TuningDb};
    use gc_lowering::{choose_params_ranked, ParamChoice, ParamLog};
    use gc_microkernel::{arch::active_isa, Isa};
    use std::sync::Mutex;

    if active_isa() == Isa::Scalar {
        return; // the default backend *is* scalar: one key, nothing to mix
    }
    let graph = workloads::mlp_f32(16, &workloads::mlp1_layers(), 7);
    // What a model with one 1-thread scalar shard logs while it loads
    // (the eager warm compiles the template-sized bucket on the shard).
    let served = |db: Option<Arc<TuningDb>>| -> Vec<ParamChoice> {
        let log: ParamLog = Arc::new(Mutex::new(Vec::new()));
        let mut config = serve_config(1);
        config.compile.tuning = db;
        config.compile.param_log = Some(log.clone());
        config.sharding = Some(ShardConfig {
            shards: vec![ShardSpec {
                threads: 1,
                isa: Some(Isa::Scalar),
                ..ShardSpec::default()
            }],
            min_units_per_shard: 1,
        });
        Model::load(graph.clone(), config).expect("load");
        let choices = log.lock().unwrap().clone();
        assert!(!choices.is_empty());
        choices
    };
    let analytic = served(None);

    // A marker record: the analytic runner-up at every choice point.
    let opts = options(1);
    let point = |c: &ParamChoice| (c.problem, c.constraints);
    let mut marker: Vec<ParamChoice> = Vec::new();
    for c in &analytic {
        if marker.iter().any(|m| point(m) == point(c)) {
            continue;
        }
        let ranked = choose_params_ranked(&opts.machine, &c.problem, &c.constraints, 2);
        if let Some(&params) = ranked.get(1) {
            marker.push(ParamChoice { params, ..*c });
        }
    }
    assert!(!marker.is_empty(), "no choice point has a runner-up");
    let db_keyed_under = |isa: &str| {
        let mut optimized = graph.clone();
        gc_core::pipeline::optimize_graph(&mut optimized, &opts).unwrap();
        let db = Arc::new(TuningDb::in_memory());
        db.insert(
            TuneKey::for_graph(&optimized, &opts, isa).unwrap(),
            TunedRecord {
                choices: marker.clone(),
                projected_cycles: 0.0,
                wall_ns: 0,
            },
        );
        Some(db)
    };

    // (a) measured on the default backend: not this shard's business
    assert_eq!(served(db_keyed_under(active_isa().name())), analytic);
    // (b) measured on scalar: replayed wherever the record has the
    // point (downstream points' constraints move with the new params)
    let warm = served(db_keyed_under("scalar"));
    assert!(warm.iter().any(|c| marker.contains(c)), "record ignored");
    for c in &warm {
        if let Some(m) = marker.iter().find(|m| point(m) == point(c)) {
            assert_eq!(c.params, m.params, "analytic choice at a tuned point");
        }
    }
}
