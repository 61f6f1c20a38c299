//! KV-cache autoregressive decode serving with continuous batching.
//!
//! The [`crate::Model`] batcher coalesces whole *requests*; decode
//! workloads need something finer. An autoregressive session produces
//! one token per step against a growing per-session KV cache, so the
//! unit of batching is the *step*. A [`DecodeModel`] is the second
//! instantiation of the serving runtime's batcher (`batcher.rs` holds
//! the protocol): its work item is one session's pending step, its
//! group is the step's cache-capacity bucket, and its batch function is
//! one *iteration* — gather the sessions' caches into one batched
//! tensor, execute a single compiled plan, hand each session's output
//! row back to its [`StepFuture`]. Sessions join and leave between
//! iterations — nothing is pinned to a batch.
//!
//! # Template contract
//!
//! A decode model is loaded from a *template builder*, a closure
//! `Fn(rows, cap) -> Graph` producing the per-step graph at a given
//! row count (`sessions x heads`) and cache capacity. The graph must
//! take exactly four inputs, in order:
//!
//! 1. `q    [rows, 1, head_dim]` — the step's query rows,
//! 2. `k_cache [rows, cap, head_dim]` — gathered K caches,
//! 3. `v_cache [rows, cap, head_dim]` — gathered V caches,
//! 4. `mask [rows, 1, cap]` f32 — per-row validity mask,
//!
//! and produce one output `[rows, 1, head_dim]`. The runtime owns the
//! mask: slot `j` gets `0.0` while `j` is below the session's length
//! and a large negative number past it, so one capacity bucket serves
//! every position below it. `gc_bench::workloads::decode_f32` /
//! `decode_int8` are the canonical builders.
//!
//! # Capacity buckets and plan identity
//!
//! Session caches live at power-of-two capacities from
//! [`DecodeConfig::min_capacity`] up to [`DecodeConfig::max_capacity`];
//! a cache doubles (zero-padded) when its length hits its capacity.
//! One compiled plan serves a whole `(capacity, session-slots)` bucket
//! through the masking, so plan count grows with the *log* of the
//! sequence length. Plans are compiled through the process-wide
//! [`PlanCache`] keyed by the built graph's canonical fingerprint, and
//! folded constants share the engine [`gc_tir::InitCache`] identity at
//! the same `(graph, bucket, options, threads)` granularity as the
//! request batcher — per bucket, because folded buffers are
//! bucket-shaped (see DESIGN.md on why cross-bucket fold sharing would
//! be unsound).

use crate::batch::{copy_elems, slice_elems};
use crate::batcher::{Batcher, Limits, Queued, Ticket, Work};
use crate::cache::{CachedPlan, PlanCache, PlanKey, Plans};
use crate::stats::{ModelStats, StatsSnapshot};
use crate::ServeError;
use gc_core::CompileOptions;
use gc_graph::{graph_fingerprint, Graph};
use gc_tensor::{DataType, Storage, Tensor, TensorDesc};
use gc_tir::InitCache;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Mask value for cache slots at or past a session's length. Finite
/// (not `-inf`) so `exp(masked - max)` underflows to exactly `0.0`
/// without ever producing `inf - inf = NaN` in the softmax chain.
pub const MASKED: f32 = -1.0e30;

/// Configuration for [`DecodeModel::load`].
#[derive(Debug, Clone)]
pub struct DecodeConfig {
    /// Compiler options (machine, fusion switches, threads).
    pub compile: CompileOptions,
    /// Most decode steps (sessions) coalesced into one iteration.
    pub max_batch: usize,
    /// How long the scheduler holds the oldest pending step open for
    /// coalescing before executing what it has.
    pub max_delay: Duration,
    /// Smallest cache-capacity bucket (rounded up to a power of two).
    pub min_capacity: usize,
    /// Hard cap on session sequence length (rounded up to a power of
    /// two). A step past it fails with [`ServeError::InvalidRequest`].
    pub max_capacity: usize,
    /// Most concurrently live sessions; [`DecodeModel::session`] fails
    /// with [`ServeError::Busy`] at the bound. Also the bound on queued
    /// steps, which one step in flight per session already implies.
    pub max_sessions: usize,
    /// Plan cache override (`None` = the process-wide cache).
    pub plan_cache: Option<Arc<PlanCache>>,
    /// Folded-constant cache override (`None` = the process-wide one).
    pub init_cache: Option<Arc<InitCache>>,
}

impl Default for DecodeConfig {
    fn default() -> Self {
        DecodeConfig {
            compile: CompileOptions::default(),
            max_batch: 64,
            max_delay: Duration::from_micros(500),
            min_capacity: 16,
            max_capacity: 1024,
            max_sessions: 4096,
            plan_cache: None,
            init_cache: None,
        }
    }
}

/// The per-step graph factory. `rows` is `sessions x heads`, `cap` the
/// cache capacity; see the module docs for the input contract.
pub type TemplateBuilder = dyn Fn(usize, usize) -> Graph + Send + Sync;

type StepResult = Result<Tensor, ServeError>;

/// The awaitable half of one decode step.
///
/// [`Session-decode_step`](DecodeSession::decode_step) returns
/// immediately with one of these; the caller can keep issuing work for
/// other sessions (that is what lets thousands of sessions stay in
/// flight) and [`StepFuture::wait`] when it needs the output row.
#[derive(Debug)]
pub struct StepFuture {
    ticket: Arc<Ticket<Tensor>>,
}

impl StepFuture {
    /// Block until the step completes; returns the attention output
    /// rows `[heads, 1, head_dim]`.
    ///
    /// # Errors
    ///
    /// Propagates the scheduler's error for the batch this step rode
    /// in ([`ServeError::Compile`], [`ServeError::Exec`]) or
    /// [`ServeError::Closed`] if the model shut down first.
    pub fn wait(self) -> StepResult {
        self.ticket.wait()
    }

    /// Non-blocking poll: `None` while the step is still in flight.
    pub fn try_wait(&self) -> Option<StepResult> {
        self.ticket.try_take()
    }
}

/// One session's KV state. `k`/`v` are `[heads, cap, head_dim]` with
/// positions `len..` zeroed — the invariant that makes an append a
/// plain row write and a capacity change a prefix copy.
struct SessionState {
    k: Tensor,
    v: Tensor,
    len: usize,
    cap: usize,
    /// A step is pending or executing; one in flight per session.
    busy: bool,
}

struct SessionShared {
    state: Mutex<SessionState>,
}

/// One session's queued step. Dropping it — resolved, refused at
/// submit, or stranded by a dying scheduler — is what clears the
/// session's `busy` flag, which is why the batcher drops work before
/// it wakes the waiter: a caller woken by step *t* must be able to
/// submit step *t+1*.
struct PendingStep {
    session: Arc<SessionShared>,
    q: Tensor,
    /// Valid length at execution time (set at enqueue, after append).
    len: usize,
    cap: usize,
}

impl Work for PendingStep {
    type Output = Tensor;
    type Group = usize;

    fn units(&self) -> usize {
        1
    }

    fn group(&self) -> usize {
        self.cap
    }
}

impl Drop for PendingStep {
    fn drop(&mut self) {
        // Runs on unwind paths too: never panic on a poisoned session.
        self.session
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .busy = false;
    }
}

struct DecodeInner {
    builder: Box<TemplateBuilder>,
    config: DecodeConfig,
    heads: usize,
    head_dim: usize,
    q_dtype: DataType,
    kv_dtype: DataType,
    min_capacity: usize,
    max_capacity: usize,
    opts_hash: u64,
    plans: Plans,
    live_sessions: AtomicUsize,
    stats: ModelStats,
}

/// A loaded autoregressive decode model: per-session KV caches, a
/// continuous-batching scheduler thread, and capacity-bucketed plan
/// compilation. Dropping the model (or [`DecodeModel::shutdown`])
/// drains pending steps, then later steps fail with
/// [`ServeError::Closed`].
pub struct DecodeModel {
    inner: Arc<DecodeInner>,
    batcher: Arc<Batcher<PendingStep>>,
}

/// One autoregressive session: owns a growing KV cache and submits one
/// decode step at a time. Dropping it frees its [`DecodeConfig`]
/// session slot; any in-flight step still completes (the scheduler
/// keeps the cache alive until the future resolves).
pub struct DecodeSession {
    inner: Arc<DecodeInner>,
    batcher: Arc<Batcher<PendingStep>>,
    shared: Arc<SessionShared>,
}

impl DecodeModel {
    /// Validate the template builder and start the scheduler.
    ///
    /// The builder is probed at the smallest bucket to pin the
    /// signature (dtypes, `heads`, `head_dim`) and verify the
    /// row-independence contract; the probe bucket's plan is compiled
    /// eagerly so load surfaces compile errors.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidModel`] when the built graph violates the
    /// decode contract, [`ServeError::Compile`] when the probe bucket
    /// fails to compile.
    pub fn load(
        builder: impl Fn(usize, usize) -> Graph + Send + Sync + 'static,
        heads: usize,
        config: DecodeConfig,
    ) -> Result<DecodeModel, ServeError> {
        if heads == 0 {
            return Err(ServeError::InvalidModel("heads must be > 0".into()));
        }
        if config.max_batch == 0 || config.max_sessions == 0 {
            return Err(ServeError::InvalidModel(
                "max_batch and max_sessions must be > 0".into(),
            ));
        }
        let min_capacity = config.min_capacity.max(1).next_power_of_two();
        let max_capacity = config.max_capacity.max(1).next_power_of_two();
        if min_capacity > max_capacity {
            return Err(ServeError::InvalidModel(format!(
                "min_capacity {min_capacity} exceeds max_capacity {max_capacity}"
            )));
        }
        let probe = builder(heads, min_capacity);
        let (q_dtype, kv_dtype, head_dim) = validate_decode_template(&probe, heads, min_capacity)?;
        let plans = Plans::new(
            config.compile.threads,
            config.plan_cache.as_ref(),
            config.init_cache.as_ref(),
        );
        let opts_hash = plans.opts_hash(&config.compile);
        let limits = Limits {
            max_batch: config.max_batch,
            max_delay: config.max_delay,
            queue_cap: config.max_sessions,
        };
        let inner = Arc::new(DecodeInner {
            builder: Box::new(builder),
            heads,
            head_dim,
            q_dtype,
            kv_dtype,
            min_capacity,
            max_capacity,
            opts_hash,
            plans,
            config,
            live_sessions: AtomicUsize::new(0),
            stats: ModelStats::new(),
        });
        decode_plan(&inner, heads, min_capacity)?;
        let batcher = Batcher::spawn("gc-serve-decode", limits, {
            let inner = Arc::clone(&inner);
            let mut plans = PlanMemo::new();
            move |steps: &[Queued<PendingStep>]| execute_iteration(&inner, &mut plans, steps)
        });
        Ok(DecodeModel { inner, batcher })
    }

    /// Open a new session with an empty cache at the smallest capacity.
    ///
    /// # Errors
    ///
    /// [`ServeError::Busy`] at the [`DecodeConfig::max_sessions`]
    /// bound, [`ServeError::Closed`] after shutdown.
    pub fn session(&self) -> Result<DecodeSession, ServeError> {
        let inner = &self.inner;
        self.batcher.is_empty()?; // `Closed` after shutdown
        let mut live = inner.live_sessions.load(Ordering::Relaxed);
        loop {
            if live >= inner.config.max_sessions {
                return Err(ServeError::Busy {
                    queued: live,
                    cap: inner.config.max_sessions,
                });
            }
            match inner.live_sessions.compare_exchange(
                live,
                live + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => live = seen,
            }
        }
        let cap = inner.min_capacity;
        let vol = inner.heads * cap * inner.head_dim;
        Ok(DecodeSession {
            inner: Arc::clone(inner),
            batcher: Arc::clone(&self.batcher),
            shared: Arc::new(SessionShared {
                state: Mutex::new(SessionState {
                    k: zero_cache(inner, cap, vol),
                    v: zero_cache(inner, cap, vol),
                    len: 0,
                    cap,
                    busy: false,
                }),
            }),
        })
    }

    /// Point-in-time statistics (decode buckets + occupancy included).
    pub fn stats(&self) -> StatsSnapshot {
        self.batcher.stamp(self.inner.stats.snapshot())
    }

    /// Sessions currently open.
    pub fn live_sessions(&self) -> usize {
        self.inner.live_sessions.load(Ordering::Relaxed)
    }

    /// Stop accepting steps, drain what's pending, join the scheduler.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        self.batcher.shutdown();
    }
}

impl Drop for DecodeModel {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for DecodeModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodeModel")
            .field("heads", &self.inner.heads)
            .field("head_dim", &self.inner.head_dim)
            .field("live_sessions", &self.live_sessions())
            .finish_non_exhaustive()
    }
}

fn zero_cache(inner: &DecodeInner, cap: usize, vol: usize) -> Tensor {
    Tensor::from_parts(
        TensorDesc::new([inner.heads, cap, inner.head_dim], inner.kv_dtype),
        Storage::zeros(inner.kv_dtype, vol),
    )
    .expect("zeroed cache tensor")
}

impl DecodeSession {
    /// Submit one decode step: append `k_row`/`v_row` (each
    /// `[heads, 1, head_dim]`) to this session's cache at the next
    /// position, then schedule masked attention of `q_row` against the
    /// cache. Returns immediately with a [`StepFuture`].
    ///
    /// The cache write happens *now*, in place, on the caller thread —
    /// position `len` of every head's `[cap, head_dim]` block is a
    /// plain row memcpy because positions `>= len` are zero by
    /// invariant. The cache doubles in place when full, up to
    /// [`DecodeConfig::max_capacity`].
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidRequest`] on a shape/dtype mismatch, a step
    /// already in flight for this session, or a session at max
    /// capacity; [`ServeError::Closed`] after shutdown;
    /// [`ServeError::Busy`] when more steps are queued than
    /// [`DecodeConfig::max_sessions`] (sessions dropped with their last
    /// step still pending).
    pub fn decode_step(
        &self,
        q_row: &Tensor,
        k_row: &Tensor,
        v_row: &Tensor,
    ) -> Result<StepFuture, ServeError> {
        let inner = &self.inner;
        let row_shape = [inner.heads, 1, inner.head_dim];
        for (name, t, dt) in [
            ("q", q_row, inner.q_dtype),
            ("k", k_row, inner.kv_dtype),
            ("v", v_row, inner.kv_dtype),
        ] {
            if t.desc().shape() != row_shape || t.desc().dtype() != dt {
                return Err(ServeError::InvalidRequest(format!(
                    "{name} row expects {:?} {:?}, got {}",
                    row_shape,
                    dt,
                    t.desc()
                )));
            }
        }
        let (len, cap) = {
            let mut s = self.shared.state.lock().unwrap();
            if s.busy {
                return Err(ServeError::InvalidRequest(
                    "a decode step is already in flight for this session".into(),
                ));
            }
            if s.len == inner.max_capacity {
                return Err(ServeError::InvalidRequest(format!(
                    "session is at max capacity {}",
                    inner.max_capacity
                )));
            }
            if s.len == s.cap {
                grow_cache(inner, &mut s);
            }
            let (pos, cap) = (s.len, s.cap);
            append_row(&mut s.k, k_row, pos, cap, inner)?;
            append_row(&mut s.v, v_row, pos, cap, inner)?;
            s.len += 1;
            s.busy = true;
            (s.len, s.cap)
        };
        // From here the step owns the busy flag (cleared on its drop).
        let ticket = self.batcher.submit(PendingStep {
            session: Arc::clone(&self.shared),
            q: q_row.clone(),
            len,
            cap,
        })?;
        Ok(StepFuture { ticket })
    }

    /// Tokens appended so far.
    pub fn len(&self) -> usize {
        self.shared.state.lock().unwrap().len
    }

    /// Whether no step has run yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current cache capacity bucket.
    pub fn capacity(&self) -> usize {
        self.shared.state.lock().unwrap().cap
    }
}

impl Drop for DecodeSession {
    fn drop(&mut self) {
        self.inner.live_sessions.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Double the session's cache capacity, copying each head's used
/// prefix into the wider layout (positions past `len` stay zero).
fn grow_cache(inner: &DecodeInner, s: &mut SessionState) {
    let new_cap = (s.cap * 2).min(inner.max_capacity);
    let d = inner.head_dim;
    let vol = inner.heads * new_cap * d;
    for old in [&mut s.k, &mut s.v] {
        let mut wide = Storage::zeros(inner.kv_dtype, vol);
        for h in 0..inner.heads {
            copy_elems(
                old.storage(),
                h * s.cap * d,
                &mut wide,
                h * new_cap * d,
                s.len * d,
            )
            .expect("cache grow copy");
        }
        *old = Tensor::from_parts(
            TensorDesc::new([inner.heads, new_cap, d], inner.kv_dtype),
            wide,
        )
        .expect("grown cache tensor");
    }
    s.cap = new_cap;
}

/// Write `row [heads, 1, d]` at position `pos` of every head's
/// `[cap, d]` block, in place.
fn append_row(
    cache: &mut Tensor,
    row: &Tensor,
    pos: usize,
    cap: usize,
    inner: &DecodeInner,
) -> Result<(), ServeError> {
    let d = inner.head_dim;
    let dst = cache.make_mut();
    for h in 0..inner.heads {
        copy_elems(row.storage(), h * d, dst, h * cap * d + pos * d, d)?;
    }
    Ok(())
}

/// Check a built template graph against the decode contract; returns
/// `(q_dtype, kv_dtype, head_dim)`.
fn validate_decode_template(
    g: &Graph,
    rows: usize,
    cap: usize,
) -> Result<(DataType, DataType, usize), ServeError> {
    g.validate()
        .map_err(|e| ServeError::InvalidModel(format!("decode template: {e}")))?;
    if g.inputs().len() != 4 {
        return Err(ServeError::InvalidModel(format!(
            "decode template must take [q, k_cache, v_cache, mask], got {} inputs",
            g.inputs().len()
        )));
    }
    let desc = |i: usize| g.desc(g.inputs()[i]).clone();
    let (q, k, v, m) = (desc(0), desc(1), desc(2), desc(3));
    let head_dim = *q
        .shape()
        .last()
        .ok_or_else(|| ServeError::InvalidModel("decode template q input is rank-0".into()))?;
    if q.shape() != [rows, 1, head_dim] {
        return Err(ServeError::InvalidModel(format!(
            "q input must be [{rows}, 1, head_dim], got {q}"
        )));
    }
    if k.shape() != [rows, cap, head_dim] || v.shape() != k.shape() || v.dtype() != k.dtype() {
        return Err(ServeError::InvalidModel(format!(
            "k/v cache inputs must both be [{rows}, {cap}, {head_dim}], got {k} / {v}"
        )));
    }
    if m.shape() != [rows, 1, cap] || m.dtype() != DataType::F32 {
        return Err(ServeError::InvalidModel(format!(
            "mask input must be f32 [{rows}, 1, {cap}], got {m}"
        )));
    }
    if g.outputs().len() != 1 {
        return Err(ServeError::InvalidModel(format!(
            "decode template must have 1 output, got {}",
            g.outputs().len()
        )));
    }
    let out = g.desc(g.outputs()[0]);
    if out.shape() != [rows, 1, head_dim] {
        return Err(ServeError::InvalidModel(format!(
            "decode template output must be [{rows}, 1, {head_dim}], got {out}"
        )));
    }
    // The scheduler concatenates sessions along dim 0; the template
    // must not mix rows across that axis.
    crate::rebatch::check_row_independence(g)?;
    Ok((q.dtype(), k.dtype(), head_dim))
}

/// Look up (or build + compile) the plan for `rows` total head-rows at
/// capacity `cap`.
fn decode_plan(
    inner: &DecodeInner,
    rows: usize,
    cap: usize,
) -> Result<Arc<CachedPlan>, ServeError> {
    let g = (inner.builder)(rows, cap);
    // Re-check the contract at this bucket: the builder is caller code
    // and nothing forces it to scale coherently.
    validate_decode_template(&g, rows, cap)?;
    let key = PlanKey {
        graph: graph_fingerprint(&g)?,
        units: rows as u64,
        opts: inner.opts_hash,
        threads: inner.plans.engine.threads() as u64,
    };
    inner.plans.plan(key, &inner.config.compile, || Ok(g))
}

/// Per-scheduler memo of resolved plans. The process-wide
/// [`PlanCache`] already dedupes compiles, but a hit there still costs
/// building and fingerprinting the template graph; the scheduler runs
/// every iteration, so it keeps its own `(rows, cap) -> plan` map.
type PlanMemo = HashMap<(usize, usize), Arc<CachedPlan>>;

/// Execute one coalesced iteration: `steps` is one batch from the
/// batcher, so all at one capacity. This is the only place a decode
/// batch meets the engine.
fn execute_iteration(
    inner: &DecodeInner,
    plans: &mut PlanMemo,
    steps: &[Queued<PendingStep>],
) -> Result<Vec<Tensor>, ServeError> {
    let cap = steps[0].work.cap;
    let sessions = steps.len();
    let session_slots = sessions.next_power_of_two();
    let (heads, d) = (inner.heads, inner.head_dim);
    let rows = session_slots * heads;
    let plan = match plans.get(&(rows, cap)) {
        Some(p) => Arc::clone(p),
        None => {
            let p = decode_plan(inner, rows, cap)?;
            plans.insert((rows, cap), Arc::clone(&p));
            p
        }
    };

    // Gather: q rows, session caches, and the runtime-owned mask. The
    // padding slots keep zero caches/queries and a mask that admits
    // only position 0, so their softmax is well-defined (selects a
    // zero V row) and they cannot produce NaN.
    let mut q_st = Storage::zeros(inner.q_dtype, rows * d);
    let mut k_st = Storage::zeros(inner.kv_dtype, rows * cap * d);
    let mut v_st = Storage::zeros(inner.kv_dtype, rows * cap * d);
    let mut mask = vec![0f32; rows * cap];
    for (i, p) in steps.iter().map(|s| &s.work).enumerate() {
        copy_elems(p.q.storage(), 0, &mut q_st, i * heads * d, heads * d)?;
        {
            let s = p.session.state.lock().unwrap();
            if s.cap != cap {
                return Err(ServeError::Exec(format!(
                    "session capacity changed mid-flight: {} vs batch {}",
                    s.cap, cap
                )));
            }
            copy_elems(
                s.k.storage(),
                0,
                &mut k_st,
                i * heads * cap * d,
                heads * cap * d,
            )?;
            copy_elems(
                s.v.storage(),
                0,
                &mut v_st,
                i * heads * cap * d,
                heads * cap * d,
            )?;
        }
        for h in 0..heads {
            let row = (i * heads + h) * cap;
            for j in p.len..cap {
                mask[row + j] = MASKED;
            }
        }
    }
    for slot_row in sessions * heads..rows {
        let row = slot_row * cap;
        for j in 1..cap {
            mask[row + j] = MASKED;
        }
    }
    let batched = vec![
        Tensor::from_parts(TensorDesc::new([rows, 1, d], inner.q_dtype), q_st)
            .map_err(|e| ServeError::Exec(e.to_string()))?,
        Tensor::from_parts(TensorDesc::new([rows, cap, d], inner.kv_dtype), k_st)
            .map_err(|e| ServeError::Exec(e.to_string()))?,
        Tensor::from_parts(TensorDesc::new([rows, cap, d], inner.kv_dtype), v_st)
            .map_err(|e| ServeError::Exec(e.to_string()))?,
        Tensor::from_vec_f32(&[rows, 1, cap], mask).map_err(|e| ServeError::Exec(e.to_string()))?,
    ];
    let (outs, _stats) = plan.exe.execute(&batched)?;
    inner.stats.record_decode_iteration(
        cap as u64,
        rows as u64,
        sessions as u64,
        session_slots as u64,
    );

    // Scatter: session i owns head-rows [i*heads, (i+1)*heads).
    let out = &outs[0];
    let out_dt = out.desc().dtype();
    let per_session = heads * d;
    let mut per_step = Vec::with_capacity(sessions);
    for i in 0..sessions {
        per_step.push(slice_elems(
            out,
            i * per_session,
            per_session,
            TensorDesc::new([heads, 1, d], out_dt),
        )?);
    }
    Ok(per_step)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_machine::MachineDescriptor;

    fn decode_graph(rows: usize, cap: usize, d: usize) -> Graph {
        use gc_graph::OpKind;
        let mut g = Graph::new();
        let q = g.add_input(TensorDesc::new([rows, 1, d], DataType::F32), "q");
        let k = g.add_input(TensorDesc::new([rows, cap, d], DataType::F32), "k_cache");
        let v = g.add_input(TensorDesc::new([rows, cap, d], DataType::F32), "v_cache");
        let m = g.add_input(TensorDesc::new([rows, 1, cap], DataType::F32), "mask");
        let out = g.add_op(OpKind::DecodeAttention, &[q, k, v, m]).unwrap();
        g.mark_output(out);
        g
    }

    fn config() -> DecodeConfig {
        DecodeConfig {
            compile: CompileOptions {
                threads: Some(1),
                ..CompileOptions::new(MachineDescriptor::xeon_8358())
            },
            min_capacity: 4,
            max_capacity: 16,
            max_delay: Duration::from_micros(100),
            plan_cache: Some(Arc::new(PlanCache::new())),
            init_cache: Some(Arc::new(InitCache::new())),
            ..DecodeConfig::default()
        }
    }

    fn rows(heads: usize, d: usize, seed: u64) -> Tensor {
        Tensor::random(&[heads, 1, d], DataType::F32, seed)
    }

    #[test]
    fn single_session_decodes_and_grows() {
        let (heads, d) = (2, 8);
        let model = DecodeModel::load(move |r, c| decode_graph(r, c, d), heads, config()).unwrap();
        let s = model.session().unwrap();
        assert_eq!(s.capacity(), 4);
        for t in 0..6 {
            let out = s
                .decode_step(
                    &rows(heads, d, t),
                    &rows(heads, d, 100 + t),
                    &rows(heads, d, 200 + t),
                )
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(out.desc().shape(), &[heads, 1, d]);
            assert!(out.f32_slice().unwrap().iter().all(|x| x.is_finite()));
        }
        assert_eq!(s.len(), 6);
        assert_eq!(s.capacity(), 8); // grew across the 4-bucket boundary
        let snap = model.stats();
        assert_eq!(snap.decode_steps(), 6);
        assert!(!snap.decode_buckets.is_empty());
    }

    #[test]
    fn first_step_matches_v_row() {
        // One token in the cache: probs = softmax([q.k/sqrt(d)]) = [1]
        // over a single unmasked slot, so the output is exactly V row 0.
        let (heads, d) = (3, 16);
        let model = DecodeModel::load(move |r, c| decode_graph(r, c, d), heads, config()).unwrap();
        let s = model.session().unwrap();
        let v = rows(heads, d, 7);
        let out = s
            .decode_step(&rows(heads, d, 1), &rows(heads, d, 2), &v)
            .unwrap()
            .wait()
            .unwrap();
        let (got, want) = (out.f32_slice().unwrap(), v.f32_slice().unwrap());
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() <= 1e-6, "{g} vs {w}");
        }
    }

    #[test]
    fn one_step_in_flight_per_session() {
        let (heads, d) = (1, 4);
        let mut cfg = config();
        cfg.max_delay = Duration::from_secs(1); // hold the batch open
        let model = DecodeModel::load(move |r, c| decode_graph(r, c, d), heads, cfg).unwrap();
        let s = model.session().unwrap();
        let fut = s
            .decode_step(&rows(heads, d, 1), &rows(heads, d, 2), &rows(heads, d, 3))
            .unwrap();
        assert!(matches!(
            s.decode_step(&rows(heads, d, 4), &rows(heads, d, 5), &rows(heads, d, 6)),
            Err(ServeError::InvalidRequest(_))
        ));
        fut.wait().unwrap();
        // After completion the session accepts the next step.
        s.decode_step(&rows(heads, d, 4), &rows(heads, d, 5), &rows(heads, d, 6))
            .unwrap()
            .wait()
            .unwrap();
    }

    #[test]
    fn session_cap_and_closed() {
        let (heads, d) = (1, 4);
        let mut cfg = config();
        cfg.max_sessions = 2;
        let model = DecodeModel::load(move |r, c| decode_graph(r, c, d), heads, cfg).unwrap();
        let s1 = model.session().unwrap();
        let _s2 = model.session().unwrap();
        assert!(matches!(model.session(), Err(ServeError::Busy { .. })));
        drop(s1);
        let _s3 = model.session().unwrap();
        model.shutdown();
        assert!(matches!(model.session(), Err(ServeError::Closed)));
        assert!(matches!(
            _s3.decode_step(&rows(heads, d, 1), &rows(heads, d, 2), &rows(heads, d, 3)),
            Err(ServeError::Closed)
        ));
    }

    #[test]
    fn max_capacity_is_enforced() {
        let (heads, d) = (1, 4);
        let mut cfg = config();
        cfg.min_capacity = 2;
        cfg.max_capacity = 4;
        let model = DecodeModel::load(move |r, c| decode_graph(r, c, d), heads, cfg).unwrap();
        let s = model.session().unwrap();
        for t in 0..4 {
            s.decode_step(&rows(heads, d, t), &rows(heads, d, t), &rows(heads, d, t))
                .unwrap()
                .wait()
                .unwrap();
        }
        assert!(matches!(
            s.decode_step(&rows(heads, d, 9), &rows(heads, d, 9), &rows(heads, d, 9)),
            Err(ServeError::InvalidRequest(_))
        ));
    }

    #[test]
    fn rejects_bad_templates() {
        let (heads, d) = (2, 8);
        // Wrong input count.
        let e = DecodeModel::load(
            move |r, c| {
                let mut g = decode_graph(r, c, d);
                g.add_input(TensorDesc::new([r, 1, d], DataType::F32), "extra");
                g
            },
            heads,
            config(),
        );
        assert!(matches!(e, Err(ServeError::InvalidModel(_))));
        // Builder that ignores its capacity parameter.
        let e = DecodeModel::load(move |r, _c| decode_graph(r, 4, d), heads, {
            let mut c = config();
            c.min_capacity = 8;
            c
        });
        assert!(matches!(e, Err(ServeError::InvalidModel(_))));
    }

    #[test]
    fn concurrent_sessions_coalesce() {
        let (heads, d) = (2, 8);
        let mut cfg = config();
        cfg.max_delay = Duration::from_millis(5);
        let model =
            Arc::new(DecodeModel::load(move |r, c| decode_graph(r, c, d), heads, cfg).unwrap());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let m = Arc::clone(&model);
            handles.push(std::thread::spawn(move || {
                let s = m.session().unwrap();
                for step in 0..3 {
                    s.decode_step(
                        &rows(heads, d, t * 10 + step),
                        &rows(heads, d, 1000 + t * 10 + step),
                        &rows(heads, d, 2000 + t * 10 + step),
                    )
                    .unwrap()
                    .wait()
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = model.stats();
        assert_eq!(snap.decode_steps(), 24);
        // With 8 threads stepping concurrently, at least some
        // iterations must have coalesced more than one session.
        assert!(snap.decode_iterations() < 24, "{snap}");
    }

    /// Regression: the coalescing window is anchored at each step's own
    /// enqueue time. The scheduler used to open a fresh `max_delay`
    /// window every time round, so a step queued behind another
    /// capacity group waited two windows.
    #[test]
    fn steps_behind_another_capacity_group_share_the_window() {
        let (heads, d) = (1, 4);
        let delay = Duration::from_millis(300);
        let mut cfg = config();
        cfg.min_capacity = 2;
        cfg.max_batch = 64;
        // Warm the cap-2 and cap-4 plans through a fast sibling model
        // on the same plan cache, so no compile lands in the window.
        {
            let warm =
                DecodeModel::load(move |r, c| decode_graph(r, c, d), heads, cfg.clone()).unwrap();
            let s = warm.session().unwrap();
            for t in 0..3 {
                s.decode_step(&rows(heads, d, t), &rows(heads, d, t), &rows(heads, d, t))
                    .unwrap()
                    .wait()
                    .unwrap();
            }
            assert_eq!(s.capacity(), 4);
        }
        cfg.max_delay = delay;
        let model = DecodeModel::load(move |r, c| decode_graph(r, c, d), heads, cfg).unwrap();
        let (small, large) = (model.session().unwrap(), model.session().unwrap());
        for t in 0..2 {
            large
                .decode_step(&rows(heads, d, t), &rows(heads, d, t), &rows(heads, d, t))
                .unwrap()
                .wait()
                .unwrap();
        }
        // `small` steps at capacity 2, `large` grows to 4 on this step.
        let t0 = std::time::Instant::now();
        let first = small
            .decode_step(&rows(heads, d, 7), &rows(heads, d, 8), &rows(heads, d, 9))
            .unwrap();
        let second = large
            .decode_step(&rows(heads, d, 7), &rows(heads, d, 8), &rows(heads, d, 9))
            .unwrap();
        assert_eq!((small.capacity(), large.capacity()), (2, 4));
        first.wait().unwrap();
        second.wait().unwrap();
        let waited = t0.elapsed();
        assert!(waited >= delay, "window closed early: {waited:?}");
        assert!(waited < delay * 3 / 2, "second group waited {waited:?}");
        assert_eq!(model.stats().decode_iterations(), 4);
    }

    /// Regression: the plan key's options digest is the shared
    /// `options_fingerprint`, not a hash of the options' `Debug` string
    /// — which printed a tuning database as a pointer-shaped struct and
    /// included the decision log's contents.
    #[test]
    fn equal_tuning_databases_and_a_filled_param_log_share_plans() {
        use gc_core::{TuneKey, TunedRecord, TuningDb};
        let (heads, d) = (2, 8);
        let db = || {
            let db = TuningDb::in_memory();
            for graph in 0..8 {
                db.insert(
                    TuneKey {
                        graph,
                        shape_bucket: 2,
                        machine: 3,
                        threads: 0,
                    },
                    TunedRecord {
                        choices: vec![],
                        projected_cycles: 1.0,
                        wall_ns: 1,
                    },
                );
            }
            Arc::new(db)
        };
        let (db_a, db_b) = (db(), db());
        assert!(!Arc::ptr_eq(&db_a, &db_b));
        assert_eq!(db_a.fingerprint(), db_b.fingerprint());
        let log = Arc::new(Mutex::new(Vec::new()));
        let cache = Arc::new(PlanCache::new());
        let cfg = |db| {
            let mut cfg = config();
            cfg.compile.tuning = Some(db);
            cfg.compile.param_log = Some(Arc::clone(&log));
            cfg.plan_cache = Some(Arc::clone(&cache));
            cfg
        };
        let load = |db| DecodeModel::load(move |r, c| decode_graph(r, c, d), heads, cfg(db));
        let _a = load(Arc::clone(&db_a)).unwrap();
        assert_eq!((cache.misses(), cache.hits()), (1, 0));
        assert!(!log.lock().unwrap().is_empty(), "the compile logs choices");
        let _b = load(db_a).unwrap();
        assert_eq!(cache.misses(), 1, "the log's contents are not identity");
        let _c = load(db_b).unwrap();
        assert_eq!(cache.misses(), 1, "equal content, same plan");
        assert!(cache.hits() >= 2);
    }
}
