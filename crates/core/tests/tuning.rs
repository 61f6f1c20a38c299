//! Tuning-database round trip: tune → serialize to disk → reload →
//! warm-start. The warm-started compile must make bit-identical
//! template-parameter selections (checked through [`ParamLog`]) and the
//! second `tune_graph` call must run zero measured trials.

use gc_core::{tune_graph, CompileOptions, Compiler, TuneConfig, TuningDb};
use gc_graph::{Graph, OpKind, UnaryKind};
use gc_lowering::ParamLog;
use gc_machine::MachineDescriptor;
use gc_tensor::{DataType, Tensor, TensorDesc};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// MLP_1 at batch 16 (13×512×256×128, final layer linear) — small
/// enough to tune in a test, rich enough to have several choice points.
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

fn opts() -> CompileOptions {
    let mut o = CompileOptions::new(MachineDescriptor::xeon_8358());
    o.threads = Some(1);
    o
}

fn quick() -> TuneConfig {
    TuneConfig {
        top_k: 3,
        max_trials: 8,
        wall_reps: 1,
    }
}

/// A scratch file path unique to this test run; removed on drop.
struct TmpDb(PathBuf);

impl TmpDb {
    fn new(tag: &str) -> TmpDb {
        TmpDb(std::env::temp_dir().join(format!("gc-tunedb-{tag}-{}", std::process::id())))
    }
}

impl Drop for TmpDb {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn logged_compile(
    graph: &Graph,
    db: &Arc<TuningDb>,
) -> (gc_core::CompileReport, Vec<gc_lowering::ParamChoice>, f64) {
    let log: ParamLog = Arc::new(Mutex::new(Vec::new()));
    let mut o = opts();
    o.tuning = Some(db.clone());
    o.param_log = Some(log.clone());
    let compiled = Compiler::new(o).compile(graph.clone()).unwrap();
    let cycles = compiled.project().cycles;
    let report = compiled.report().clone();
    let choices = log.lock().unwrap().clone();
    (report, choices, cycles)
}

#[test]
fn tune_serialize_reload_warm_starts_bit_identically() {
    let g = mlp1(16);
    let tmp = TmpDb::new("roundtrip");
    let db = Arc::new(TuningDb::open(&tmp.0).unwrap());

    // Cold tune: measures trials, lands a record, never regresses the
    // analytic baseline (the analytic plan is trial zero).
    let r1 = tune_graph(&g, &opts(), &db, &quick()).unwrap();
    assert!(!r1.warm_start);
    assert!(r1.choice_points > 0, "MLP has matmul choice points");
    assert!(r1.trials > 0, "cold tuning must measure candidates");
    assert!(r1.best_cycles <= r1.analytic_cycles);
    assert_eq!(db.len(), 1);
    db.save().unwrap();

    // Reference: what a tuned compile against the live database picks.
    let (rep_live, log_live, cycles_live) = logged_compile(&g, &db);
    assert!(rep_live.tuned);
    assert!(!log_live.is_empty());
    assert_eq!(cycles_live.to_bits(), r1.best_cycles.to_bits());

    // Reload from disk into a fresh database: same content, and a
    // warm-started compile replays the exact same parameter decisions.
    let db2 = Arc::new(TuningDb::open(&tmp.0).unwrap());
    assert_eq!(db2.len(), 1);
    assert_eq!(db2.fingerprint(), db.fingerprint());
    let (rep_warm, log_warm, cycles_warm) = logged_compile(&g, &db2);
    assert!(rep_warm.tuned);
    assert_eq!(cycles_warm.to_bits(), cycles_live.to_bits());
    assert_eq!(log_warm.len(), log_live.len());
    for (a, b) in log_warm.iter().zip(&log_live) {
        assert_eq!(a, b, "warm-started choice differs from tuned choice");
    }

    // Second tune against the reloaded database: zero re-measurement.
    let r2 = tune_graph(&g, &opts(), &db2, &quick()).unwrap();
    assert!(r2.warm_start);
    assert_eq!(r2.trials, 0);
    assert_eq!(r2.key, r1.key);
    assert_eq!(r2.best_cycles.to_bits(), r1.best_cycles.to_bits());
}

#[test]
fn untuned_compile_is_unaffected_by_unrelated_records() {
    // A database holding records for *other* keys must leave compilation
    // byte-for-byte analytic: lookups miss, no overrides apply.
    let g = mlp1(16);
    let other = mlp1(64); // different shape bucket → different key
    let db = Arc::new(TuningDb::in_memory());
    tune_graph(&other, &opts(), &db, &quick()).unwrap();

    let log_plain: ParamLog = Arc::new(Mutex::new(Vec::new()));
    let mut o = opts();
    o.param_log = Some(log_plain.clone());
    let plain = Compiler::new(o).compile(g.clone()).unwrap();

    let (rep, log_db, cycles_db) = logged_compile(&g, &db);
    assert!(!rep.tuned, "miss must not mark the compile tuned");
    assert_eq!(cycles_db.to_bits(), plain.project().cycles.to_bits());
    let plain_choices = log_plain.lock().unwrap().clone();
    assert_eq!(log_db, plain_choices);
}

/// `ParamOverrides` is consulted *before* the analytic search: a
/// compile whose every choice point has a tuned entry runs no search
/// at all (coarse fusion off, so `group_profitable` — which prices
/// grouped against free decompositions and is not a choice point —
/// asks nothing either), and logs the choices an untuned compile makes.
#[test]
fn fully_overridden_compile_runs_no_search() {
    use gc_core::{TuneKey, TunedRecord};
    let g = mlp1(16);
    let mut base = opts();
    base.coarse_fusion = false;

    let cold_log: ParamLog = Arc::new(Mutex::new(Vec::new()));
    let mut cold_opts = base.clone();
    cold_opts.param_log = Some(cold_log.clone());
    let cold = Compiler::new(cold_opts).compile(g.clone()).unwrap();
    let cold_report = cold.report().clone();
    let choices = cold_log.lock().unwrap().clone();
    assert!(cold_report.search.queries >= choices.len() && !choices.is_empty());
    assert!(cold_report.search.scored > 0);

    let key = {
        let mut og = g.clone();
        gc_core::pipeline::optimize_graph(&mut og, &base).unwrap();
        TuneKey::for_graph(&og, &base, gc_microkernel::arch::active_isa().name()).unwrap()
    };
    let record = |choices: Vec<gc_lowering::ParamChoice>| TunedRecord {
        choices,
        projected_cycles: 0.0,
        wall_ns: 0,
    };
    let warm_compile = |rec: TunedRecord| {
        let db = Arc::new(TuningDb::in_memory());
        db.insert(key, rec);
        let log: ParamLog = Arc::new(Mutex::new(Vec::new()));
        let mut o = base.clone();
        o.tuning = Some(db);
        o.param_log = Some(log.clone());
        let report = Compiler::new(o)
            .compile(g.clone())
            .unwrap()
            .report()
            .clone();
        let logged = log.lock().unwrap().clone();
        (report, logged)
    };

    let (warm, warm_log) = warm_compile(record(choices.clone()));
    assert!(warm.tuned);
    assert_eq!(
        warm.search,
        Default::default(),
        "override hits still searched"
    );
    assert!(!warm_log.is_empty());
    for c in &warm_log {
        assert!(choices.contains(c), "warm start chose {c:?}");
    }

    // A stale entry (its params no longer tile the problem) falls back
    // to the analytic choice at that point — and only there.
    let mut stale = choices.clone();
    stale[0].params.mpn = stale[0].problem.m + 1;
    assert!(stale[0].params.validate(&stale[0].problem).is_err());
    let (fell_back, stale_log) = warm_compile(record(stale));
    assert_eq!(stale_log, warm_log);
    let hits_at_stale_point = warm_log
        .iter()
        .filter(|c| (c.problem, c.constraints) == (choices[0].problem, choices[0].constraints))
        .count();
    assert_eq!(fell_back.search.queries, hits_at_stale_point);
}

#[test]
fn tuning_beats_or_matches_analytic_on_mlp1() {
    // The acceptance workload: measured tuning on MLP_1 must find a
    // plan the projector scores at least as fast as the analytic one
    // (on this shape it finds a strictly faster plan).
    let g = mlp1(16);
    let db = Arc::new(TuningDb::in_memory());
    let r = tune_graph(&g, &opts(), &db, &TuneConfig::default()).unwrap();
    assert!(
        r.speedup() >= 1.0,
        "tuning regressed: {:.0} → {:.0}",
        r.analytic_cycles,
        r.best_cycles
    );
}

#[test]
fn tune_keys_never_mix_isa_variants() {
    // Warm starts carry wall-clock winners; a measurement taken on a
    // scalar engine must never replay onto an AVX2/AVX-512 one. Every
    // ISA name must land in its own key, and the default ISA's key must
    // be exactly what the default engine (`tune_graph`, `compile`) uses.
    use gc_core::{TuneKey, TunedRecord};
    let mut g = mlp1(16);
    let o = opts();
    gc_core::pipeline::optimize_graph(&mut g, &o).unwrap();
    let keys: Vec<TuneKey> = ["scalar", "avx2", "avx512"]
        .iter()
        .map(|isa| TuneKey::for_graph(&g, &o, isa).unwrap())
        .collect();
    for i in 0..keys.len() {
        for j in i + 1..keys.len() {
            assert_ne!(keys[i].machine, keys[j].machine, "{i} vs {j}");
        }
        // same graph/shape/threads — only the machine hash moves
        assert_eq!(keys[i].graph, keys[0].graph);
        assert_eq!(keys[i].shape_bucket, keys[0].shape_bucket);
        assert_eq!(keys[i].threads, keys[0].threads);
    }
    let active = gc_microkernel::arch::active_isa().name();
    let db = Arc::new(TuningDb::in_memory());
    let record = TunedRecord {
        choices: vec![],
        projected_cycles: 1.0,
        wall_ns: 1,
    };
    db.insert(TuneKey::for_graph(&g, &o, active).unwrap(), record);
    let live = tune_graph(&mlp1(16), &o, &db, &TuneConfig::default()).unwrap();
    assert!(
        live.warm_start,
        "the default engine must key under the process default ISA"
    );
    assert_eq!(live.key, TuneKey::for_graph(&g, &o, active).unwrap());
}

#[test]
fn scalar_engine_warm_starts_only_from_scalar_tuning_records() {
    // `compile_artifacts` keys its tuning lookup under the ISA of the
    // engine it compiles for, not the process default: a scalar engine
    // ignores records measured on the default backend and replays
    // records measured on scalar.
    use gc_core::{TuneKey, TunedRecord};
    use gc_lowering::{choose_params_ranked, ParamChoice};
    use gc_microkernel::arch::{active_isa, kernels};
    use gc_microkernel::Isa;
    use gc_runtime::ThreadPool;
    use gc_tir::Engine;

    if active_isa() == Isa::Scalar {
        return; // the default backend *is* scalar: one key, nothing to mix
    }
    let graph = mlp1(16);
    let engine = Engine::new(Arc::new(ThreadPool::new(1))).with_kernels(kernels(Isa::Scalar));
    let compiled = |db: Option<Arc<TuningDb>>| -> Vec<ParamChoice> {
        let log: ParamLog = Arc::new(Mutex::new(Vec::new()));
        let mut o = opts();
        o.tuning = db;
        o.param_log = Some(log.clone());
        Compiler::new(o)
            .compile_artifacts(graph.clone(), &engine)
            .expect("compile");
        let choices = log.lock().unwrap().clone();
        assert!(!choices.is_empty());
        choices
    };
    let analytic = compiled(None);

    // A marker record: the analytic runner-up at every choice point.
    let o = opts();
    let point = |c: &ParamChoice| (c.problem, c.constraints);
    let mut marker: Vec<ParamChoice> = Vec::new();
    for c in &analytic {
        if marker.iter().any(|m| point(m) == point(c)) {
            continue;
        }
        let ranked = choose_params_ranked(&o.machine, &c.problem, &c.constraints, 2);
        if let Some(&params) = ranked.get(1) {
            marker.push(ParamChoice { params, ..*c });
        }
    }
    assert!(!marker.is_empty(), "no choice point has a runner-up");
    let db_keyed_under = |isa: &str| {
        let mut optimized = graph.clone();
        gc_core::pipeline::optimize_graph(&mut optimized, &o).unwrap();
        let db = Arc::new(TuningDb::in_memory());
        db.insert(
            TuneKey::for_graph(&optimized, &o, isa).unwrap(),
            TunedRecord {
                choices: marker.clone(),
                projected_cycles: 0.0,
                wall_ns: 0,
            },
        );
        Some(db)
    };

    // (a) measured on the default backend: not this engine's business
    assert_eq!(compiled(db_keyed_under(active_isa().name())), analytic);
    // (b) measured on scalar: replayed wherever the record has the
    // point (downstream points' constraints move with the new params)
    let warm = compiled(db_keyed_under("scalar"));
    assert!(warm.iter().any(|c| marker.contains(c)), "record ignored");
    for c in &warm {
        if let Some(m) = marker.iter().find(|m| point(m) == point(c)) {
            assert_eq!(c.params, m.params, "analytic choice at a tuned point");
        }
    }
}
