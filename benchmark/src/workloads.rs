//! The six workloads' untraced runs: set-up repetitions, oracle check,
//! timed window. Every caller is closed-loop — it waits for its reply
//! before sending the next op — and the engine has one thread.

use crate::graphs::{
    compare_f32, compare_tensor, DecodeF32, InputHash, MhaF32, Mismatch, MlpF32, MlpInt8,
    DECODE_HEADS, MHA1_HEADS, MHA1_HIDDEN, MHA1_SEQ, MLP1_LAYERS, MLP2_LAYERS,
};
use crate::harness::{compile_options, peak_rss_mb, summarize, RunConfig, Summary, Window};
use crate::stats::median;
use gc_core::Compiler;
use gc_graph::Graph;
use gc_serve::{DecodeConfig, DecodeModel, DecodeSession, Model, PlanCache, ServeConfig, Session};
use gc_tensor::Tensor;
use gc_tir::InitCache;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Blocking callers of the serving workload (= `nproc` of the sizing
/// host, so callers and the dispatcher do not oversubscribe it further).
pub const SERVE_CALLERS: usize = 2;
/// Sessions decoding side by side in the decode workload.
pub const DECODE_SESSIONS: usize = 16;
/// Steps each decode session runs; capacity grows 16 -> 128 on the way.
///
/// 96, not 128: a round's cost doubles with each capacity bucket, and
/// with 128 steps exactly half of all rounds run at capacity 128, which
/// puts the median round latency on the edge between two buckets where
/// it flips with noise. With 96 steps the buckets hold 16/16/32/32
/// rounds and the median sits in the middle of the capacity-64 rounds.
pub const DECODE_STEPS: usize = 96;
/// Largest KV-cache capacity a session reaches.
pub const DECODE_MAX_CAPACITY: usize = 128;

/// Absolute f32 tolerances against the naive oracle — the ones the
/// repo's tier-1 tests use for the same graphs. Int8 must match exactly.
pub const MLP_TOL: f32 = 1e-2;
/// See [`MLP_TOL`].
pub const ATTENTION_TOL: f32 = 1e-3;

/// What the untraced run of one workload measured.
#[derive(Debug, Clone)]
pub struct EndToEndRun {
    /// Median wall time of one full set-up, s.
    pub setup_s: f64,
    /// Median compile/load -> first result, ms.
    pub cold_start_ms: f64,
    /// The timed window.
    pub summary: Summary,
    /// `VmHWM` at the end of the run, MiB.
    pub peak_rss_mb: f64,
    /// Fingerprint of every weight and input.
    pub input_hash: u64,
    /// Oracle comparison of one result per distinct shape.
    pub oracle: Mismatch,
}

impl EndToEndRun {
    /// Ops attempted, the oracle checks included.
    pub fn attempted(&self) -> u64 {
        self.summary.attempted + 1
    }

    /// Ops failed, a failed oracle check included.
    pub fn failed(&self) -> u64 {
        self.summary.failed + u64::from(!self.oracle.ok())
    }
}

/// Set a workload up from scratch, repeatedly (see
/// [`RunConfig::another_setup`]). `once` builds one fresh instance and
/// returns it with its cold-start time in ms; the whole call is one
/// set-up. Returns the last instance, the median set-up time in s and the
/// median cold start in ms.
fn set_up<I>(
    cfg: &RunConfig,
    mut once: impl FnMut() -> Result<(I, f64), String>,
) -> Result<(I, f64, f64), String> {
    let (mut setups, mut colds) = (Vec::new(), Vec::new());
    let mut instance = None;
    while cfg.another_setup(&setups) {
        drop(instance.take()); // the previous instance's teardown is not this one's set-up
        let t0 = Instant::now();
        let (fresh, cold_ms) = once()?;
        setups.push(t0.elapsed().as_secs_f64());
        colds.push(cold_ms);
        instance = Some(fresh);
    }
    Ok((
        instance.expect("at least one set-up"),
        median(&setups).expect("set-ups ran"),
        median(&colds).expect("set-ups ran"),
    ))
}

/// The graph, inputs and oracle of a workload that executes one compiled
/// partition directly.
#[derive(Debug, Clone)]
pub enum DirectData {
    /// f32 MLP.
    MlpF32(MlpF32),
    /// Quantized MLP.
    MlpInt8(MlpInt8),
    /// f32 attention.
    Mha(MhaF32),
}

impl DirectData {
    /// The graph to compile.
    pub fn graph(&self) -> Graph {
        match self {
            DirectData::MlpF32(d) => d.graph(d.batch),
            DirectData::MlpInt8(d) => d.graph(d.batch),
            DirectData::Mha(d) => d.graph(),
        }
    }

    /// Every input set, each in graph-input order; the op loop cycles
    /// through them.
    pub fn input_sets(&self) -> Vec<Vec<Tensor>> {
        match self {
            DirectData::MlpF32(d) => d.inputs.iter().map(|x| vec![x.clone()]).collect(),
            DirectData::MlpInt8(d) => d.inputs.iter().map(|x| vec![x.clone()]).collect(),
            DirectData::Mha(d) => d.inputs.iter().map(|set| set.to_vec()).collect(),
        }
    }

    /// The naive oracle's output for every input set.
    pub fn oracles(&self) -> Vec<Tensor> {
        match self {
            DirectData::MlpF32(d) => d.inputs.iter().map(|x| d.oracle(x)).collect(),
            DirectData::MlpInt8(d) => d.inputs.iter().map(|x| d.oracle(x)).collect(),
            DirectData::Mha(d) => d.inputs.iter().map(|set| d.oracle(set)).collect(),
        }
    }

    /// Absolute tolerance of the oracle comparison.
    pub fn tolerance(&self) -> f32 {
        match self {
            DirectData::MlpF32(_) => MLP_TOL,
            DirectData::MlpInt8(_) => 0.0,
            DirectData::Mha(_) => ATTENTION_TOL,
        }
    }

    /// Matmul problems `(batch, m, n, k)` of one execution.
    pub fn matmuls(&self) -> Vec<(usize, usize, usize, usize)> {
        match self {
            DirectData::MlpF32(d) => d.matmuls(d.batch),
            DirectData::MlpInt8(d) => d.matmuls(d.batch),
            DirectData::Mha(d) => d.matmuls(),
        }
    }

    /// Whether the matmuls run as u8 x i8.
    pub fn is_int8(&self) -> bool {
        matches!(self, DirectData::MlpInt8(_))
    }

    /// Fingerprint of every weight and input.
    pub fn input_hash(&self) -> u64 {
        let mut h = InputHash::default();
        match self {
            DirectData::MlpF32(d) => d.hash_into(&mut h),
            DirectData::MlpInt8(d) => d.hash_into(&mut h),
            DirectData::Mha(d) => d.hash_into(&mut h),
        }
        h.finish()
    }
}

/// A workload that compiles one graph and calls `execute` in a loop.
#[derive(Debug, Clone, Copy)]
pub struct DirectSpec {
    /// Workload name.
    pub name: &'static str,
    /// Rows one op completes (batch rows, or MHA sequences).
    pub rows_per_op: usize,
    /// Warm-up executions in each set-up.
    pub warmup_ops: usize,
    /// Ops between throughput marks.
    pub mark_every: u64,
}

/// The four direct workloads.
pub const DIRECT: [DirectSpec; 4] = [
    DirectSpec {
        name: "mlp2_f32_b128",
        rows_per_op: 128,
        warmup_ops: 8,
        mark_every: 1,
    },
    DirectSpec {
        name: "mlp2_int8_b128",
        rows_per_op: 128,
        warmup_ops: 2,
        mark_every: 1,
    },
    DirectSpec {
        name: "mha1_f32_b4",
        rows_per_op: 4,
        warmup_ops: 16,
        mark_every: 1,
    },
    DirectSpec {
        name: "mlp1_f32_b1",
        rows_per_op: 1,
        warmup_ops: 2000,
        mark_every: 256,
    },
];

impl DirectSpec {
    /// Generate the workload's weights and inputs from `seed`.
    pub fn data(&self, seed: u64) -> DirectData {
        match self.name {
            "mlp2_f32_b128" => DirectData::MlpF32(MlpF32::generate(&MLP2_LAYERS, 128, 2, seed)),
            "mlp2_int8_b128" => DirectData::MlpInt8(MlpInt8::generate(&MLP2_LAYERS, 128, 2, seed)),
            "mha1_f32_b4" => DirectData::Mha(MhaF32::generate(
                4,
                MHA1_SEQ,
                MHA1_HIDDEN,
                MHA1_HEADS,
                2,
                seed,
            )),
            "mlp1_f32_b1" => DirectData::MlpF32(MlpF32::generate(&MLP1_LAYERS, 1, 16, seed)),
            other => unreachable!("{other} is not a direct workload"),
        }
    }
}

/// `Compiler::compile` -> `CompiledPartition::execute`.
///
/// # Errors
///
/// Returns the compiler's or executor's message; an op that fails inside
/// the timed window is counted, not returned.
pub fn run_direct(spec: &DirectSpec, cfg: &RunConfig) -> Result<EndToEndRun, String> {
    let data = spec.data(cfg.seed);
    let ring = data.input_sets();
    let warmup = cfg.count(spec.warmup_ops);

    let (part, setup_s, cold_start_ms) = set_up(cfg, || {
        let graph = data.graph();
        let t_cold = Instant::now();
        let part = Compiler::new(compile_options())
            .compile(graph)
            .map_err(|e| e.to_string())?;
        part.execute(&ring[0]).map_err(|e| e.to_string())?;
        let cold_ms = t_cold.elapsed().as_secs_f64() * 1e3;
        for i in 0..warmup {
            part.execute(&ring[i % ring.len()])
                .map_err(|e| e.to_string())?;
        }
        Ok((part, cold_ms))
    })?;

    // One oracle comparison per input set; the window then checks every
    // op against the oracle's output for its set.
    let expected = data.oracles();
    let tol = data.tolerance();
    let mut oracle = Mismatch::default();
    for (inputs, want) in ring.iter().zip(&expected) {
        let (outs, _) = part.execute(inputs).map_err(|e| e.to_string())?;
        oracle.merge(compare_tensor(&outs[0], want, tol));
    }

    let mut window = Window::new(cfg.window(), spec.mark_every);
    window.open();
    for i in 0.. {
        let slot = i % ring.len();
        let t0 = Instant::now();
        let result = part.execute(&ring[slot]);
        let t1 = Instant::now();
        let ok = result.is_ok_and(|(outs, _)| compare_tensor(&outs[0], &expected[slot], tol).ok());
        if !window.record(t0, t1, ok) {
            break;
        }
    }
    Ok(EndToEndRun {
        setup_s,
        cold_start_ms,
        summary: summarize(&[window], spec.rows_per_op as f64),
        peak_rss_mb: peak_rss_mb(),
        input_hash: data.input_hash(),
        oracle,
    })
}

// ------------------------------------------------------------------ serve

/// Distinct 1-row requests the serving callers cycle through.
const SERVE_RING: usize = 64;
/// Warm-up requests per caller in each set-up.
const SERVE_WARMUP: usize = 1000;

/// The serving workload's requests and their expected outputs.
#[derive(Debug, Clone)]
pub struct ServeData {
    /// MLP_1 weights; `inputs` holds the 1-row requests.
    pub mlp: MlpF32,
    /// Oracle output `[128]` per request.
    pub expected: Vec<Vec<f32>>,
}

impl ServeData {
    /// Generate requests from `seed` and evaluate the oracle on each.
    pub fn generate(seed: u64) -> ServeData {
        let mlp = MlpF32::generate(&MLP1_LAYERS, 1, SERVE_RING, seed);
        let expected = mlp
            .inputs
            .iter()
            .map(|x| mlp.oracle(x).f32_slice().expect("f32 oracle").to_vec())
            .collect();
        ServeData { mlp, expected }
    }

    /// Fingerprint of the weights and requests.
    pub fn input_hash(&self) -> u64 {
        let mut h = InputHash::default();
        self.mlp.hash_into(&mut h);
        h.finish()
    }
}

/// `ServeConfig` of the serving workload: every request goes through the
/// batcher (`fast_path = false`), batches fill at two rows, caches are
/// private to the instance so each set-up compiles from scratch.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        compile: compile_options(),
        max_batch: SERVE_CALLERS,
        fast_path: false,
        plan_cache: Some(Arc::new(PlanCache::new())),
        init_cache: Some(Arc::new(InitCache::new())),
        ..ServeConfig::default()
    }
}

/// One caller's loop body: request `i` of caller `caller`, checked
/// against the oracle. Returns `(start, end, ok, stats)`.
pub fn serve_request(
    session: &Session,
    data: &ServeData,
    caller: usize,
    i: usize,
) -> (Instant, Instant, bool, Option<gc_runtime::ExecStats>) {
    let slot = (i * SERVE_CALLERS + caller) % data.mlp.inputs.len();
    let t0 = Instant::now();
    let result = session.infer_with_stats(std::slice::from_ref(&data.mlp.inputs[slot]));
    let t1 = Instant::now();
    match result {
        Ok((outs, stats)) => {
            let ok = outs[0]
                .f32_slice()
                .is_ok_and(|got| compare_f32(got, &data.expected[slot], MLP_TOL).ok());
            (t0, t1, ok, Some(stats))
        }
        Err(_) => (t0, t1, false, None),
    }
}

/// Run `per_caller(caller)` on [`SERVE_CALLERS`] threads released
/// together, and collect what each returns.
pub fn on_callers<T: Send>(per_caller: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let gate = Barrier::new(SERVE_CALLERS);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..SERVE_CALLERS)
            .map(|c| {
                let (gate, per_caller) = (&gate, &per_caller);
                s.spawn(move || {
                    gate.wait();
                    per_caller(c)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    })
}

/// `Model::load` -> `Session::infer_with_stats` from two blocking callers.
///
/// # Errors
///
/// Returns the loader's message.
pub fn run_serve(cfg: &RunConfig) -> Result<EndToEndRun, String> {
    let data = ServeData::generate(cfg.seed);
    let warmup = cfg.count(SERVE_WARMUP);

    let mut oracle = Mismatch::default();
    let (model, setup_s, cold_start_ms) = set_up(cfg, || {
        let graph = data.mlp.graph(1);
        let t_cold = Instant::now();
        let model = Model::load(graph, serve_config()).map_err(|e| e.to_string())?;
        let session = model.session();
        // first result: both callers at once, as in steady state, so the
        // batch fills and no coalescing timer is part of the number
        let first = on_callers(|c| serve_request(&session, &data, c, 0).2);
        let cold_ms = t_cold.elapsed().as_secs_f64() * 1e3;
        on_callers(|c| {
            for i in 1..=warmup {
                serve_request(&session, &data, c, i);
            }
        });
        oracle.mismatched += first.iter().filter(|ok| !**ok).count();
        Ok((model, cold_ms))
    })?;
    let session = model.session();

    let windows = on_callers(|c| {
        let mut window = Window::new(cfg.window(), 256);
        window.open();
        for i in 0.. {
            let (t0, t1, ok, _) = serve_request(&session, &data, c, i);
            if !window.record(t0, t1, ok) {
                break;
            }
        }
        window
    });
    Ok(EndToEndRun {
        setup_s,
        cold_start_ms,
        summary: summarize(&windows, 1.0),
        peak_rss_mb: peak_rss_mb(),
        input_hash: data.input_hash(),
        oracle,
    })
}

// ----------------------------------------------------------------- decode

/// The decode workload's token rows and expected outputs.
#[derive(Debug, Clone)]
pub struct DecodeData {
    /// Token rows per `(session, step)`.
    pub tokens: DecodeF32,
    /// Oracle output per `(session, step)`.
    pub expected: Vec<Vec<Vec<f32>>>,
}

impl DecodeData {
    /// Generate token streams from `seed` and evaluate the oracle.
    pub fn generate(seed: u64, steps: usize) -> DecodeData {
        let tokens = DecodeF32::generate(DECODE_SESSIONS, steps, seed);
        let expected = tokens.oracle();
        DecodeData { tokens, expected }
    }

    /// Fingerprint of every token row.
    pub fn input_hash(&self) -> u64 {
        let mut h = InputHash::default();
        self.tokens.hash_into(&mut h);
        h.finish()
    }
}

/// Steps per session set: all 128, or in quick mode just enough to cross
/// from the first capacity bucket into the second.
pub fn decode_steps(cfg: &RunConfig) -> usize {
    if cfg.quick {
        20
    } else {
        DECODE_STEPS
    }
}

/// `DecodeConfig` of the decode workload: a round's 16 steps fill the
/// batch, capacities run 16 -> 128, caches are private to the instance.
///
/// `max_delay` is raised from the default 500 us to 50 ms so the
/// coalescing window always closes by fill: with the default, a generator
/// thread descheduled mid-round on a busy host lets the timer fire, the
/// scheduler runs a partial batch at another row bucket, compiles a plan
/// for it, and peak RSS and latency then depend on how busy the host was
/// (+22 % RSS between two sets of runs).
pub fn decode_config() -> DecodeConfig {
    DecodeConfig {
        compile: compile_options(),
        max_batch: DECODE_SESSIONS,
        max_delay: Duration::from_millis(50),
        min_capacity: 16,
        max_capacity: DECODE_MAX_CAPACITY,
        plan_cache: Some(Arc::new(PlanCache::new())),
        init_cache: Some(Arc::new(InitCache::new())),
        ..DecodeConfig::default()
    }
}

/// Load the decode model on the benchmark's own template builder.
///
/// # Errors
///
/// Returns the loader's message.
pub fn load_decode() -> Result<DecodeModel, String> {
    DecodeModel::load(DecodeF32::template, DECODE_HEADS, decode_config()).map_err(|e| e.to_string())
}

/// Open one session per token stream.
///
/// # Errors
///
/// Returns the model's refusal.
pub fn open_sessions(model: &DecodeModel) -> Result<Vec<DecodeSession>, String> {
    (0..DECODE_SESSIONS)
        .map(|_| model.session().map_err(|e| e.to_string()))
        .collect()
}

/// One round: every session submits step `step`, then all wait. The op
/// of the decode workload. Returns `(start, end, ok)`.
pub fn decode_round(
    sessions: &[DecodeSession],
    data: &DecodeData,
    step: usize,
) -> (Instant, Instant, bool) {
    let t0 = Instant::now();
    let futures: Vec<_> = sessions
        .iter()
        .zip(&data.tokens.rows)
        .map(|(s, rows)| {
            let [q, k, v] = &rows[step];
            s.decode_step(q, k, v)
        })
        .collect();
    let outs: Vec<_> = futures
        .into_iter()
        .map(|f| f.and_then(gc_serve::StepFuture::wait))
        .collect();
    let t1 = Instant::now();
    let ok = outs.iter().zip(&data.expected).all(|(out, want)| {
        out.as_ref().is_ok_and(|t| {
            t.f32_slice()
                .is_ok_and(|got| compare_f32(got, &want[step], ATTENTION_TOL).ok())
        })
    });
    (t0, t1, ok)
}

/// `DecodeModel::load` -> 16 sessions stepped in rounds from one thread.
///
/// # Errors
///
/// Returns the loader's message.
pub fn run_decode(cfg: &RunConfig) -> Result<EndToEndRun, String> {
    let steps = decode_steps(cfg);
    let data = DecodeData::generate(cfg.seed, steps);

    let mut oracle = Mismatch::default();
    let (model, setup_s, cold_start_ms) = set_up(cfg, || {
        let t_cold = Instant::now();
        let model = load_decode()?;
        let sessions = open_sessions(&model)?;
        let mut all_ok = decode_round(&sessions, &data, 0).2;
        let cold_ms = t_cold.elapsed().as_secs_f64() * 1e3;
        // the rest of the set walks every capacity bucket, compiling
        // each bucket's plan before the timed window
        for step in 1..steps {
            all_ok &= decode_round(&sessions, &data, step).2;
        }
        oracle.mismatched += usize::from(!all_ok);
        Ok((model, cold_ms))
    })?;

    let mut window = Window::new(cfg.window(), 1);
    window.open();
    'sets: loop {
        let sessions = open_sessions(&model)?;
        for step in 0..steps {
            let (t0, t1, ok) = decode_round(&sessions, &data, step);
            if !window.record(t0, t1, ok) {
                break 'sets;
            }
        }
    }
    Ok(EndToEndRun {
        setup_s,
        cold_start_ms,
        summary: summarize(&[window], DECODE_SESSIONS as f64),
        peak_rss_mb: peak_rss_mb(),
        input_hash: data.input_hash(),
        oracle,
    })
}

/// Fingerprint of the inputs workload `name` generates from `cfg.seed`.
#[cfg(test)]
pub fn input_hash(name: &str, cfg: &RunConfig) -> u64 {
    match DIRECT.iter().find(|s| s.name == name) {
        Some(spec) => spec.data(cfg.seed).input_hash(),
        None if name == "serve_mlp1_rows1_c2" => ServeData::generate(cfg.seed).input_hash(),
        None => DecodeData::generate(cfg.seed, decode_steps(cfg)).input_hash(),
    }
}

/// Run the untraced side of workload `name`.
///
/// # Errors
///
/// Returns a message for an unknown name or a failed set-up.
pub fn run_end_to_end(name: &str, cfg: &RunConfig) -> Result<EndToEndRun, String> {
    if let Some(spec) = DIRECT.iter().find(|s| s.name == name) {
        return run_direct(spec, cfg);
    }
    match name {
        "serve_mlp1_rows1_c2" => run_serve(cfg),
        "decode_f32_s16" => run_decode(cfg),
        other => Err(format!("unknown workload {other}")),
    }
}
