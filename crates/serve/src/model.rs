//! The Model / Session serving API: whole requests, batched.
//!
//! [`Model::load`] fingerprints the graph and compiles through the
//! process-wide plan cache; [`Session::infer`] either executes
//! synchronously (idle model, no queue hop) or submits to the model's
//! batcher, which coalesces same-model requests up to `max_batch`
//! units (the scheduling protocol lives in `batcher.rs`; this file
//! supplies the batch function). A batch is padded to one power-of-two
//! unit bucket, executed once on the model's engine, and each
//! request's rows are copied back out.
//!
//! # Batching units
//!
//! A model's *template* graph fixes the shape contract. Each variable
//! input `i` has a per-unit row multiplier `k_i = dim0_i /
//! template_units`; a request carrying `u` units must present input
//! `i` with leading dimension `k_i * u` and identical trailing
//! dimensions. By default `template_units` is input 0's leading
//! dimension, making one unit of work one template row.

use crate::batch::{copy_elems, slice_elems};
use crate::batcher::{Batcher, Limits, Queued, Work};
use crate::cache::{CachedPlan, PlanCache, PlanKey, Plans};
use crate::rebatch::{rebatch, validate_template};
use crate::stats::{ModelStats, StatsSnapshot};
use crate::ServeError;
use gc_core::CompileOptions;
use gc_graph::{graph_fingerprint, Graph};
use gc_runtime::ExecStats;
use gc_tensor::{Storage, Tensor, TensorDesc};
use gc_tir::{Executable, InitCache};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration for [`Model::load`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Compiler options (machine, fusion switches, threads, checked).
    pub compile: CompileOptions,
    /// Coalescing cap: a dispatched batch carries at most this many
    /// units (a single larger request still executes alone).
    pub max_batch: usize,
    /// How long the batcher holds the oldest queued request open for
    /// coalescing before executing what it has.
    pub max_delay: Duration,
    /// Bounded queue capacity in *requests*; enqueueing past it fails
    /// with [`ServeError::Busy`].
    pub queue_cap: usize,
    /// Batching unit in template rows (`None` = input 0's leading dim).
    pub template_units: Option<usize>,
    /// Serve a request synchronously on an idle model, bypassing the
    /// queue (best idle latency). Disable to force every request
    /// through the batcher — maximum coalescing under sustained load.
    pub fast_path: bool,
    /// Plan cache override (`None` = the process-wide cache).
    pub plan_cache: Option<Arc<PlanCache>>,
    /// Folded-constant cache override (`None` = the process-wide one).
    pub init_cache: Option<Arc<InitCache>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            compile: CompileOptions::default(),
            max_batch: 32,
            max_delay: Duration::from_micros(500),
            queue_cap: 256,
            template_units: None,
            fast_path: true,
            plan_cache: None,
            init_cache: None,
        }
    }
}

impl ServeConfig {
    /// Debug knob: serve through checked execution, asserting at
    /// runtime that every plan offset the compiled code evaluates
    /// lands in-bounds. Slower; use to pin down a suspected
    /// miscompile in production shapes. Checked and unchecked
    /// configurations get distinct plan-cache entries, so flipping
    /// this never reuses a plan compiled under the other setting.
    pub fn checked(mut self) -> Self {
        self.compile.checked = true;
        self
    }

    /// Serve with a measured-tuning database: every bucket compile
    /// warm-starts from tuned records where the database has one.
    /// Databases with different contents key distinct plan-cache
    /// entries (the options fingerprint hashes the database content),
    /// so refreshing the database and reloading a model never reuses a
    /// stale plan.
    pub fn with_tuning(mut self, db: Arc<gc_core::TuningDb>) -> Self {
        self.compile.tuning = Some(db);
        self
    }
}

struct Request {
    inputs: Vec<Tensor>,
    units: usize,
}

/// What a request resolves to: shaped outputs and the stats of the
/// batch it rode in.
type Inferred = (Vec<Tensor>, ExecStats);

impl Work for Request {
    type Output = Inferred;
    type Group = ();

    fn units(&self) -> usize {
        self.units
    }

    fn group(&self) {}
}

struct ModelInner {
    graph: Graph,
    graph_hash: u64,
    opts_hash: u64,
    config: ServeConfig,
    template_units: usize,
    /// Per-input row multiplier `k_i` (rows per unit).
    unit_dims: Vec<usize>,
    /// Template (pre-optimization) input descriptors for validation.
    template_descs: Vec<TensorDesc>,
    plans: Plans,
    inflight: AtomicUsize,
    stats: ModelStats,
}

/// A loaded, servable model. Owns the batcher thread; dropping the
/// model (or calling [`Model::shutdown`]) drains the queue, then every
/// later request fails with [`ServeError::Closed`].
pub struct Model {
    inner: Arc<ModelInner>,
    batcher: Arc<Batcher<Request>>,
}

/// A cheap handle for submitting requests to a [`Model`]. Clone one per
/// client thread.
#[derive(Clone)]
pub struct Session {
    inner: Arc<ModelInner>,
    batcher: Arc<Batcher<Request>>,
}

impl Model {
    /// Validate, fingerprint, and compile `graph` for serving.
    ///
    /// Compilation goes through the process-wide plan cache: loading a
    /// structurally identical graph (same weights, options, pool
    /// width) returns the same shared executables, and constant-weight
    /// folding runs at most once per (model, bucket) process-wide.
    /// The bucket a full-template-sized request needs is compiled
    /// eagerly so load surfaces compile errors and first-request
    /// latency stays low; other buckets compile on demand.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidModel`] if the graph violates the
    /// batching contract (see [`crate::rebatch::validate_template`])
    /// and [`ServeError::Compile`] if compilation fails.
    pub fn load(graph: Graph, config: ServeConfig) -> Result<Model, ServeError> {
        let template_units = match config.template_units {
            Some(u) => u,
            None => graph
                .inputs()
                .first()
                .map(|&i| graph.desc(i).shape().first().copied().unwrap_or(0))
                .unwrap_or(0),
        };
        validate_template(&graph, template_units)?;
        if config.max_batch == 0 || config.queue_cap == 0 {
            return Err(ServeError::InvalidModel(
                "max_batch and queue_cap must be > 0".into(),
            ));
        }
        let graph_hash = graph_fingerprint(&graph)?;
        let plans = Plans::new(
            config.compile.threads,
            config.plan_cache.as_ref(),
            config.init_cache.as_ref(),
        );
        let opts_hash = plans.opts_hash(&config.compile);
        let unit_dims: Vec<usize> = graph
            .inputs()
            .iter()
            .map(|&i| graph.desc(i).shape()[0] / template_units)
            .collect();
        let template_descs: Vec<TensorDesc> = graph
            .inputs()
            .iter()
            .map(|&i| graph.desc(i).clone())
            .collect();
        let limits = Limits {
            max_batch: config.max_batch,
            max_delay: config.max_delay,
            queue_cap: config.queue_cap,
        };
        let inner = Arc::new(ModelInner {
            graph,
            graph_hash,
            opts_hash,
            template_units,
            unit_dims,
            template_descs,
            plans,
            config,
            inflight: AtomicUsize::new(0),
            stats: ModelStats::new(),
        });
        // Eager warm: compile what a full-template-sized request needs
        // so load surfaces compile errors and first-request latency
        // stays low.
        plan_for(&inner, inner.template_units.next_power_of_two())?;
        let batcher = Batcher::spawn("gc-serve-dispatch", limits, {
            let inner = Arc::clone(&inner);
            move |batch: &[Queued<Request>]| {
                let started = Instant::now();
                let reqs: Vec<&Request> = batch.iter().map(|q| &q.work).collect();
                let mut results = execute(&inner, &reqs)?;
                for ((_, stats), q) in results.iter_mut().zip(batch) {
                    stats.queue_wait = started.duration_since(q.enqueued_at);
                }
                Ok(results)
            }
        });
        Ok(Model { inner, batcher })
    }

    /// A new request handle.
    pub fn session(&self) -> Session {
        Session {
            inner: Arc::clone(&self.inner),
            batcher: Arc::clone(&self.batcher),
        }
    }

    /// Point-in-time serving statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.batcher.stamp(self.inner.stats.snapshot())
    }

    /// The canonical graph fingerprint this model is cached under.
    pub fn graph_hash(&self) -> u64 {
        self.inner.graph_hash
    }

    /// The batching unit, in template rows.
    pub fn template_units(&self) -> usize {
        self.inner.template_units
    }

    /// The compiled executable serving bucket `units`, compiling it on
    /// a cache miss (diagnostics and cache-sharing tests; the serving
    /// path uses the same lookup).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Compile`] if the bucket fails to compile.
    pub fn executable_for_units(&self, units: usize) -> Result<Arc<Executable>, ServeError> {
        Ok(Arc::clone(&plan_for(&self.inner, units)?.exe))
    }

    /// Stop accepting requests, drain what's queued, and join the
    /// batcher thread. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        self.batcher.shutdown();
    }
}

impl Drop for Model {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Model")
            .field("graph_hash", &self.inner.graph_hash)
            .field("template_units", &self.inner.template_units)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Run one inference request; blocks until the result is ready.
    ///
    /// Input `i` must match the model's input `i` in dtype and
    /// trailing dimensions, with leading dimension `k_i * u` for a
    /// request-wide unit count `u` (see the module docs). Outputs come
    /// back shaped, in graph-output order.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidRequest`] on signature mismatch,
    /// [`ServeError::Busy`] when the queue is full,
    /// [`ServeError::Closed`] after shutdown, and
    /// [`ServeError::Compile`]/[`ServeError::Exec`] from the pipeline.
    pub fn infer(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, ServeError> {
        self.infer_with_stats(inputs).map(|(outs, _)| outs)
    }

    /// [`Session::infer`], plus per-request [`ExecStats`] with
    /// `queue_wait` and `batch_rows` filled in by the batcher.
    ///
    /// # Errors
    ///
    /// See [`Session::infer`].
    pub fn infer_with_stats(
        &self,
        inputs: &[Tensor],
    ) -> Result<(Vec<Tensor>, ExecStats), ServeError> {
        let t0 = Instant::now();
        let inner = &self.inner;
        let units = validate_request(inner, inputs)?;
        let req = Request {
            inputs: inputs.to_vec(),
            units,
        };

        // Fast path: idle model, nothing queued — execute synchronously
        // on the caller thread, no queue hop, no batcher wakeup.
        if self.batcher.is_empty()?
            && inner.config.fast_path
            && inner.inflight.load(Ordering::Relaxed) == 0
        {
            let mut out = execute(inner, &[&req])?;
            let result = out.pop().expect("one request in, one result out");
            inner.stats.record_fast_path(t0.elapsed());
            return Ok(result);
        }

        let result = self.batcher.submit(req)?.wait();
        if result.is_ok() {
            inner.stats.record_request_latency(t0.elapsed());
        }
        result
    }

    /// Point-in-time serving statistics for the underlying model.
    pub fn stats(&self) -> StatsSnapshot {
        self.batcher.stamp(self.inner.stats.snapshot())
    }
}

/// Check a request against the template signature; returns its units.
fn validate_request(inner: &ModelInner, inputs: &[Tensor]) -> Result<usize, ServeError> {
    if inputs.len() != inner.template_descs.len() {
        return Err(ServeError::InvalidRequest(format!(
            "expected {} inputs, got {}",
            inner.template_descs.len(),
            inputs.len()
        )));
    }
    let k0 = inner.unit_dims[0];
    let rows0 = inputs[0].desc().shape().first().copied().unwrap_or(0);
    if k0 == 0 || rows0 == 0 || rows0 % k0 != 0 {
        return Err(ServeError::InvalidRequest(format!(
            "input 0 leading dim {rows0} is not a positive multiple of {k0}"
        )));
    }
    let units = rows0 / k0;
    for (i, (t, want)) in inputs.iter().zip(&inner.template_descs).enumerate() {
        let got = t.desc();
        if got.dtype() != want.dtype() {
            return Err(ServeError::InvalidRequest(format!(
                "input {i} expects {:?}, got {:?}",
                want.dtype(),
                got.dtype()
            )));
        }
        if got.shape().is_empty() || got.shape()[1..] != want.shape()[1..] {
            return Err(ServeError::InvalidRequest(format!(
                "input {i} expects trailing dims {:?}, got shape {:?}",
                &want.shape()[1..],
                got.shape()
            )));
        }
        if got.shape()[0] != inner.unit_dims[i] * units {
            return Err(ServeError::InvalidRequest(format!(
                "input {i} expects leading dim {} for {units} units, got {}",
                inner.unit_dims[i] * units,
                got.shape()[0]
            )));
        }
    }
    Ok(units)
}

/// Look up (or compile) the plan serving bucket `units`.
fn plan_for(inner: &ModelInner, units: usize) -> Result<Arc<CachedPlan>, ServeError> {
    let key = PlanKey {
        graph: inner.graph_hash,
        units: units as u64,
        opts: inner.opts_hash,
        threads: inner.plans.engine.threads() as u64,
    };
    inner.plans.plan(key, &inner.config.compile, || {
        rebatch(&inner.graph, inner.template_units, units)
    })
}

/// The padded inputs of a `bucket`-unit batch: per model input, a
/// zeroed tensor into which every request is copied at its unit
/// offset. Requests lie back to back in unit order.
fn gather(inner: &ModelInner, reqs: &[&Request], bucket: usize) -> Result<Vec<Tensor>, ServeError> {
    let mut inputs = Vec::with_capacity(inner.template_descs.len());
    for (i, desc) in inner.template_descs.iter().enumerate() {
        let unit_vol = desc.volume() / inner.template_units;
        let mut padded = Storage::zeros(desc.dtype(), bucket * unit_vol);
        let mut off = 0;
        for r in reqs {
            copy_elems(
                r.inputs[i].storage(),
                0,
                &mut padded,
                off * unit_vol,
                r.units * unit_vol,
            )?;
            off += r.units;
        }
        let mut shape = desc.shape().to_vec();
        shape[0] = inner.unit_dims[i] * bucket;
        inputs.push(
            Tensor::from_parts(TensorDesc::new(shape, desc.dtype()), padded)
                .map_err(|e| ServeError::Exec(e.to_string()))?,
        );
    }
    Ok(inputs)
}

/// The mirror of [`gather`]: the request covering unit `span` of the
/// batch output `out`, shaped from the plan's descriptor `desc` of that
/// output (executed tensors may come back layout-flattened). Padding
/// units are never read.
fn scatter(
    out: &Tensor,
    desc: &TensorDesc,
    bucket: usize,
    span: &Range<usize>,
) -> Result<Tensor, ServeError> {
    if desc.shape().is_empty() || !desc.shape()[0].is_multiple_of(bucket) {
        return Err(ServeError::Exec(format!(
            "output {desc} does not scale with the batch"
        )));
    }
    let unit_vol = desc.volume() / bucket;
    let mut shape = desc.shape().to_vec();
    shape[0] = shape[0] / bucket * span.len();
    slice_elems(
        out,
        span.start * unit_vol,
        span.len() * unit_vol,
        TensorDesc::new(shape, desc.dtype()),
    )
}

/// Execute `reqs` as one batch and return each request's outputs.
///
/// The batch is padded to one power-of-two bucket and runs once on the
/// model's engine: inputs are written once, from the requests straight
/// into the padded tensors, and each request's outputs are read once,
/// from its span of the batch output. Every request gets the batch's
/// [`ExecStats`] with `batch_rows` covering the padded bucket;
/// `queue_wait` is the caller's business.
fn execute(inner: &ModelInner, reqs: &[&Request]) -> Result<Vec<Inferred>, ServeError> {
    let units: usize = reqs.iter().map(|r| r.units).sum();
    let bucket = units.next_power_of_two();
    let plan = plan_for(inner, bucket)?;
    let inputs = gather(inner, reqs, bucket)?;
    inner.inflight.fetch_add(1, Ordering::SeqCst);
    let ran = plan.exe.execute(&inputs);
    inner.inflight.fetch_sub(1, Ordering::SeqCst);
    let (outs, mut stats) = ran?;
    stats.batch_rows = (inner.unit_dims[0] * bucket) as u64;

    let mut results = Vec::with_capacity(reqs.len());
    let mut off = 0;
    for r in reqs {
        let span = off..off + r.units;
        let outs = outs
            .iter()
            .zip(&plan.output_descs)
            .map(|(out, desc)| scatter(out, desc, bucket, &span))
            .collect::<Result<Vec<_>, _>>()?;
        results.push((outs, stats.clone()));
        off += r.units;
    }
    inner.stats.record_batch(
        bucket as u64,
        reqs.len() as u64,
        units as u64,
        (bucket - units) as u64,
    );
    Ok(results)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gc_graph::{OpKind, UnaryKind};
    use gc_tensor::DataType;

    pub(crate) fn mlp_graph(batch: usize, seed: u64) -> Graph {
        let mut g = Graph::new();
        let x = g.add_input(TensorDesc::new([batch, 16], DataType::F32), "x");
        let w1 = g.add_constant(Tensor::random(&[16, 32], DataType::F32, seed), "w1");
        let h = g.add_op(OpKind::MatMul, &[x, w1]).unwrap();
        let h = g.add_op(OpKind::Unary(UnaryKind::Relu), &[h]).unwrap();
        let w2 = g.add_constant(Tensor::random(&[32, 8], DataType::F32, seed + 1), "w2");
        let y = g.add_op(OpKind::MatMul, &[h, w2]).unwrap();
        g.mark_output(y);
        g
    }

    pub(crate) fn config_with_private_caches(threads: usize) -> ServeConfig {
        ServeConfig {
            compile: CompileOptions {
                threads: Some(threads),
                ..CompileOptions::default()
            },
            plan_cache: Some(Arc::new(PlanCache::new())),
            init_cache: Some(Arc::new(InitCache::new())),
            ..ServeConfig::default()
        }
    }

    #[test]
    fn fast_path_inference_works() {
        let model = Model::load(mlp_graph(4, 1), config_with_private_caches(1)).unwrap();
        let s = model.session();
        let x = Tensor::random(&[4, 16], DataType::F32, 9);
        let (outs, stats) = s.infer_with_stats(&[x]).unwrap();
        assert_eq!(outs[0].desc().shape(), &[4, 8]);
        assert_eq!(stats.queue_wait, Duration::ZERO);
        // template_units defaults to 4 (one unit = one row), so a
        // 4-row request is 4 units in a 4-unit bucket: 4 rows.
        assert_eq!(stats.batch_rows, 4);
        let snap = model.stats();
        assert_eq!(snap.requests, 1);
        assert_eq!(snap.fast_path, 1);
    }

    #[test]
    fn two_models_same_graph_share_executables_and_folds() {
        let mut cfg = config_with_private_caches(1);
        cfg.template_units = Some(1);
        let m1 = Model::load(mlp_graph(4, 2), cfg.clone()).unwrap();
        let m2 = Model::load(mlp_graph(4, 2), cfg.clone()).unwrap();
        assert_eq!(m1.graph_hash(), m2.graph_hash());
        let e1 = m1.executable_for_units(4).unwrap();
        let e2 = m2.executable_for_units(4).unwrap();
        assert!(Arc::ptr_eq(&e1, &e2));

        // Run both models once: one init, total, across both sessions.
        let x = Tensor::random(&[4, 16], DataType::F32, 5);
        let a = m1.session().infer(std::slice::from_ref(&x)).unwrap();
        let b = m2.session().infer(&[x]).unwrap();
        assert_eq!(a[0].f32_slice().unwrap(), b[0].f32_slice().unwrap());
        let ic = cfg.init_cache.as_ref().unwrap();
        assert_eq!(ic.compute_count(), 1);
    }

    #[test]
    fn different_weights_do_not_share() {
        let cfg = config_with_private_caches(1);
        let m1 = Model::load(mlp_graph(4, 3), cfg.clone()).unwrap();
        let m2 = Model::load(mlp_graph(4, 4), cfg).unwrap();
        assert_ne!(m1.graph_hash(), m2.graph_hash());
        let e1 = m1.executable_for_units(4).unwrap();
        let e2 = m2.executable_for_units(4).unwrap();
        assert!(!Arc::ptr_eq(&e1, &e2));
    }

    #[test]
    fn batched_requests_complete_and_coalesce() {
        let mut cfg = config_with_private_caches(2);
        cfg.template_units = Some(1);
        cfg.max_delay = Duration::from_millis(5);
        let model = Model::load(mlp_graph(1, 5), cfg).unwrap();
        let mut handles = Vec::new();
        for t in 0..8 {
            let s = model.session();
            handles.push(std::thread::spawn(move || {
                let x = Tensor::random(&[1, 16], DataType::F32, 100 + t);
                (x.clone(), s.infer(&[x]).unwrap())
            }));
        }
        // Serial reference through a fresh single-request model.
        let reference = Model::load(mlp_graph(1, 5), config_with_private_caches(2)).unwrap();
        let rs = reference.session();
        for h in handles {
            let (x, outs) = h.join().unwrap();
            let want = rs.infer(&[x]).unwrap();
            let got = outs[0].f32_slice().unwrap();
            let exp = want[0].f32_slice().unwrap();
            for (g, e) in got.iter().zip(exp) {
                assert!((g - e).abs() <= 1e-5, "batched {g} vs serial {e}");
            }
        }
        let snap = model.stats();
        assert_eq!(snap.requests, 8);
        assert_eq!(snap.queue_depth, 0);
    }

    #[test]
    fn busy_when_queue_full() {
        // Two callers fill the queue (a long coalescing window keeps
        // the batcher from draining it); the third bounces with Busy.
        let mut cfg = config_with_private_caches(1);
        cfg.template_units = Some(1);
        cfg.fast_path = false;
        cfg.queue_cap = 2;
        cfg.max_delay = Duration::from_secs(30);
        cfg.max_batch = 64;
        let model = Model::load(mlp_graph(1, 6), cfg).unwrap();
        let queued: Vec<_> = (0..2)
            .map(|seed| {
                let s = model.session();
                std::thread::spawn(move || {
                    s.infer(&[Tensor::random(&[1, 16], DataType::F32, seed)])
                })
            })
            .collect();
        while model.stats().queue_depth < 2 {
            std::thread::yield_now();
        }
        let x = Tensor::random(&[1, 16], DataType::F32, 9);
        match model.session().infer(&[x]) {
            Err(ServeError::Busy { queued, cap }) => assert_eq!((queued, cap), (2, 2)),
            other => panic!("expected Busy, got {other:?}"),
        }
        assert_eq!(model.stats().busy_rejections, 1);
        // Shutdown drains the queued requests and joins cleanly.
        model.shutdown();
        assert_eq!(model.stats().queue_depth, 0);
        for h in queued {
            let outs = h.join().unwrap().unwrap();
            assert_eq!(outs[0].desc().shape(), &[1, 8]);
        }
    }

    #[test]
    fn shutdown_then_closed() {
        let mut cfg = config_with_private_caches(1);
        cfg.template_units = Some(2);
        let model = Model::load(mlp_graph(2, 7), cfg).unwrap();
        let s = model.session();
        model.shutdown();
        model.shutdown(); // idempotent
        let x = Tensor::random(&[2, 16], DataType::F32, 3);
        assert!(matches!(s.infer(&[x]), Err(ServeError::Closed)));
    }

    #[test]
    fn invalid_requests_rejected() {
        let model = Model::load(mlp_graph(4, 8), config_with_private_caches(1)).unwrap();
        let s = model.session();
        // wrong trailing dim
        let bad = Tensor::random(&[4, 8], DataType::F32, 1);
        assert!(matches!(
            s.infer(&[bad]),
            Err(ServeError::InvalidRequest(_))
        ));
        // wrong input count
        assert!(matches!(s.infer(&[]), Err(ServeError::InvalidRequest(_))));
        // leading dim not a multiple of k0 = 4 (template_units defaults
        // to input 0's leading dim... which makes k0 = 1, so use a
        // model with explicit coarser units)
        let mut cfg = config_with_private_caches(1);
        cfg.template_units = Some(2); // k0 = 2
        let model2 = Model::load(mlp_graph(4, 8), cfg).unwrap();
        let odd = Tensor::random(&[3, 16], DataType::F32, 1);
        assert!(matches!(
            model2.session().infer(&[odd]),
            Err(ServeError::InvalidRequest(_))
        ));
    }

    #[test]
    fn fast_path_can_be_disabled() {
        let mut cfg = config_with_private_caches(1);
        cfg.template_units = Some(1);
        cfg.fast_path = false;
        cfg.max_delay = Duration::from_micros(50);
        let model = Model::load(mlp_graph(1, 12), cfg).unwrap();
        let s = model.session();
        let x = Tensor::random(&[1, 16], DataType::F32, 4);
        let outs = s.infer(&[x]).unwrap();
        assert_eq!(outs[0].desc().shape(), &[1, 8]);
        let snap = model.stats();
        assert_eq!(snap.fast_path, 0); // went through the dispatcher
        assert_eq!(snap.requests, 1);
    }

    #[test]
    fn oversized_request_executes_alone() {
        let mut cfg = config_with_private_caches(1);
        cfg.template_units = Some(1);
        cfg.max_batch = 4;
        let model = Model::load(mlp_graph(1, 9), cfg).unwrap();
        let s = model.session();
        let x = Tensor::random(&[16, 16], DataType::F32, 11);
        let (outs, stats) = s.infer_with_stats(&[x]).unwrap();
        assert_eq!(outs[0].desc().shape(), &[16, 8]);
        assert_eq!(stats.batch_rows, 16);
    }
}
