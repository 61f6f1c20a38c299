//! Engine shards: scatter-execute-fuse serving across independent
//! engines in one process.
//!
//! One [`EngineShard`] bundles a private [`gc_tir::Engine`] (its own
//! [`ThreadPool`], exec-state checkout pool and kernel backend — a
//! shard's ISA is its engine's `Kernels` handle, so heterogeneous shards
//! mix ISAs in one process by construction), an optional pinned core
//! range, and a dedicated executor thread that runs submitted jobs with
//! panic isolation: a job that unwinds fails only its own waiter — the
//! shard keeps serving.
//!
//! A [`ShardPlan`] decides how a batch meets the shards: large batches
//! are *scattered* — split into contiguous unit ranges, one per shard,
//! executed concurrently, then *fused* (partial outputs merged back
//! into one batch, per-shard counters folded into the model's
//! [`crate::StatsSnapshot`]); small batches are routed whole to one
//! shard round-robin, which is also how several models share a shard
//! fleet. The full lifecycle and the shard-count decision table are in
//! DESIGN.md, section "Sharded execution".

use crate::cache::options_fingerprint;
use crate::hash::{combine, Fnv1a};
use crate::stats::ShardStats;
use crate::ServeError;
use gc_core::CompileOptions;
use gc_microkernel::{arch, Isa, Kernels};
use gc_runtime::{affinity, ThreadPool, WorkerSetup};
use gc_tir::Engine;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// How many real units a shard must receive, at minimum, before a
/// batch is worth scattering (below `shards × this`, the whole batch is
/// routed to a single shard). Overridable via
/// [`ShardConfig::min_units_per_shard`].
pub const DEFAULT_MIN_UNITS_PER_SHARD: usize = 4;

/// Spec for one engine shard.
#[derive(Debug, Clone, Default)]
pub struct ShardSpec {
    /// Pool width; `0` = an even share of the model's thread budget.
    pub threads: usize,
    /// Kernel backend of this shard's engine — every plan compiled for
    /// the shard runs, and is keyed, on it; `None` takes the process
    /// default ([`arch::active_isa`]). Must be supported by the CPU
    /// ([`Isa::supported`]) or load fails.
    pub isa: Option<Isa>,
    /// Core range to pin this shard's threads to (best-effort; see
    /// [`gc_runtime::affinity`]). `None` = unpinned.
    pub cores: Option<Range<usize>>,
}

/// Sharding layout for [`crate::ServeConfig::sharding`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// One spec per shard, in shard-id order. Must be non-empty.
    pub shards: Vec<ShardSpec>,
    /// Scatter threshold; see [`DEFAULT_MIN_UNITS_PER_SHARD`].
    pub min_units_per_shard: usize,
}

impl ShardConfig {
    /// `n` identical shards, each with an even share of the thread
    /// budget, no pinning, the default kernel backend.
    pub fn uniform(n: usize) -> ShardConfig {
        ShardConfig {
            shards: vec![ShardSpec::default(); n],
            min_units_per_shard: DEFAULT_MIN_UNITS_PER_SHARD,
        }
    }
}

type Job = Box<dyn FnOnce() + Send>;

/// One engine shard: a private engine (pool + exec-state checkout
/// pool + counters) behind a dedicated executor thread.
///
/// Jobs submitted through [`EngineShard::run`] execute on the executor
/// thread, which participates in the shard pool's parallel loops
/// (caller-runs model) — so it receives the same per-thread setup as
/// the pool's workers: the core pin. Different shards run concurrently;
/// jobs on one shard run in submission order.
pub struct EngineShard {
    id: usize,
    engine: Engine,
    stats: Arc<ShardStats>,
    tx: Option<mpsc::Sender<Job>>,
    executor: Option<JoinHandle<()>>,
}

impl EngineShard {
    /// Spawn a shard from `spec`. `default_threads` is the pool width
    /// used when `spec.threads == 0` (an even share of the model's
    /// budget).
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidModel`] if the spec requests an ISA the CPU
    /// does not support, zero threads with a zero default, or an
    /// empty/out-of-range core range.
    pub fn new(
        id: usize,
        spec: &ShardSpec,
        default_threads: usize,
    ) -> Result<EngineShard, ServeError> {
        let threads = if spec.threads > 0 {
            spec.threads
        } else {
            default_threads
        };
        if threads == 0 {
            return Err(ServeError::InvalidModel(format!(
                "shard {id}: zero threads"
            )));
        }
        let kernels = match spec.isa {
            Some(isa) if !isa.supported() => {
                return Err(ServeError::InvalidModel(format!(
                    "shard {id}: ISA {} not supported on this CPU (detected {})",
                    isa.name(),
                    arch::detected_isa().name()
                )));
            }
            Some(isa) => arch::kernels(isa),
            None => Kernels::default(),
        };
        if let Some(c) = &spec.cores {
            if c.is_empty() || c.end > affinity::MAX_PINNABLE_CORE + 1 {
                return Err(ServeError::InvalidModel(format!(
                    "shard {id}: invalid core range {c:?}"
                )));
            }
        }
        let cores: Option<Vec<usize>> = spec.cores.clone().map(Iterator::collect);

        let setup_cores = cores.clone();
        let setup: WorkerSetup = Arc::new(move |_worker| {
            if let Some(c) = &setup_cores {
                let _ = affinity::pin_current_thread(c);
            }
        });
        let pool = Arc::new(ThreadPool::with_worker_setup(threads, setup));
        let engine = Engine::new(pool).with_kernels(kernels);

        let (tx, rx) = mpsc::channel::<Job>();
        let (pin_tx, pin_rx) = mpsc::channel();
        let executor = std::thread::Builder::new()
            .name(format!("gc-shard-{id}"))
            .spawn(move || {
                // Same setup as the pool workers: the executor is the
                // caller-participant in every parallel loop it runs.
                let pinned = cores.as_deref().is_some_and(affinity::pin_current_thread);
                let _ = pin_tx.send(pinned);
                for job in rx {
                    job();
                }
            })
            .expect("spawn shard executor");
        let pinned = pin_rx.recv().unwrap_or(false);
        let stats = Arc::new(ShardStats::new(id, threads, kernels.isa().name(), pinned));
        Ok(EngineShard {
            id,
            engine,
            stats,
            tx: Some(tx),
            executor: Some(executor),
        })
    }

    /// Shard index within its model.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Pool width.
    pub fn threads(&self) -> usize {
        self.engine.threads()
    }

    /// The backend this shard's engine runs every plan on.
    pub fn isa(&self) -> Isa {
        self.engine.kernels().isa()
    }

    /// [`Isa::name`] of [`Self::isa`] (what plan and tuning keys hash).
    pub fn isa_name(&self) -> &'static str {
        self.isa().name()
    }

    /// The shard's private thread pool (compile bucket plans against
    /// it).
    pub fn pool(&self) -> &Arc<ThreadPool> {
        self.engine.pool()
    }

    /// The shard's engine instance: compile bucket plans *for* it
    /// (`Compiler::compile_artifacts`) and they run on its pool and
    /// backend and count into its [`gc_tir::EngineTotals`].
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The shard's live serving counters.
    pub fn stats(&self) -> &Arc<ShardStats> {
        &self.stats
    }

    /// Submit `job` to the shard's executor; returns a handle to wait
    /// on. A panicking job fails only its own handle (recorded in the
    /// shard's panic counter) — the executor survives and later jobs
    /// run normally.
    pub fn run<T, F>(&self, job: F) -> ShardJob<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (tx, rx) = mpsc::channel();
        let stats = Arc::clone(&self.stats);
        let id = self.id;
        let wrapped: Job = Box::new(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            if result.is_err() {
                stats.record_panic();
            }
            let _ = tx.send(
                result.map_err(|_| ServeError::Exec(format!("job panicked on engine shard {id}"))),
            );
        });
        self.tx
            .as_ref()
            .expect("executor alive until drop")
            .send(wrapped)
            .expect("executor alive until drop");
        ShardJob { rx }
    }
}

impl Drop for EngineShard {
    fn drop(&mut self) {
        // Closing the channel ends the executor's job loop.
        drop(self.tx.take());
        if let Some(h) = self.executor.take() {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for EngineShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineShard")
            .field("id", &self.id)
            .field("threads", &self.threads())
            .field("isa", &self.isa_name())
            .finish_non_exhaustive()
    }
}

/// Handle to one job submitted via [`EngineShard::run`].
#[derive(Debug)]
pub struct ShardJob<T> {
    rx: mpsc::Receiver<Result<T, ServeError>>,
}

impl<T> ShardJob<T> {
    /// Block until the job finishes.
    ///
    /// # Errors
    ///
    /// [`ServeError::Exec`] if the job panicked (or the executor is
    /// gone).
    pub fn wait(self) -> Result<T, ServeError> {
        self.rx
            .recv()
            .unwrap_or_else(|_| Err(ServeError::Exec("engine shard executor is gone".into())))
    }
}

/// How one batch of `total_units` meets the shard fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardPlan {
    /// Route the whole batch to this shard (too small to scatter).
    Single(usize),
    /// Scatter: contiguous unit ranges `(shard id, units)`, covering
    /// `0..total_units` in order, one entry per shard.
    Scatter(Vec<(usize, Range<usize>)>),
}

impl ShardPlan {
    /// Partition `total_units` across `shards` shards.
    ///
    /// Batches under `shards × min_units_per_shard` units are routed
    /// whole to shard `route % shards` (callers pass a round-robin
    /// counter, which is also the multi-model placement story: each
    /// small batch — possibly of a different model — lands on the next
    /// shard). Larger batches split into near-equal contiguous ranges,
    /// the remainder spread one unit each over the leading shards.
    ///
    /// # Panics
    ///
    /// If `shards == 0`.
    pub fn partition(
        total_units: usize,
        shards: usize,
        min_units_per_shard: usize,
        route: usize,
    ) -> ShardPlan {
        assert!(shards > 0, "partition over zero shards");
        if shards == 1 || total_units < shards * min_units_per_shard.max(1) {
            return ShardPlan::Single(route % shards);
        }
        let base = total_units / shards;
        let rem = total_units % shards;
        let mut parts = Vec::with_capacity(shards);
        let mut off = 0;
        for s in 0..shards {
            let len = base + usize::from(s < rem);
            parts.push((s, off..off + len));
            off += len;
        }
        ShardPlan::Scatter(parts)
    }
}

/// A model's shard fleet plus the routing state the batcher needs.
pub(crate) struct ShardRuntime {
    pub(crate) shards: Vec<EngineShard>,
    pub(crate) min_units_per_shard: usize,
    /// Per-shard `PlanKey::opts` component: the compile-options
    /// fingerprint under the shard engine's ISA, combined with the
    /// fleet topology hash (so shard count and layout key plans).
    pub(crate) opts_hash: Vec<u64>,
    rr: AtomicUsize,
}

impl ShardRuntime {
    /// Spawn the fleet `config` lays out for a model compiled with
    /// `compile`, whose `threads` (or the host width when unset) is the
    /// *total* budget: auto-width specs get an even share.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidModel`] for an empty fleet or a spec
    /// [`EngineShard::new`] rejects.
    pub(crate) fn spawn(
        config: &ShardConfig,
        compile: &CompileOptions,
    ) -> Result<ShardRuntime, ServeError> {
        if config.shards.is_empty() {
            return Err(ServeError::InvalidModel(
                "sharding configured with zero shards".into(),
            ));
        }
        let total = compile.threads.filter(|&t| t > 0).unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
        let per_shard = (total / config.shards.len()).max(1);
        let shards: Vec<EngineShard> = config
            .shards
            .iter()
            .enumerate()
            .map(|(id, spec)| EngineShard::new(id, spec, per_shard))
            .collect::<Result<_, _>>()?;
        // The fleet topology keys plans: resharding a model (count,
        // widths, or backends) must never reuse plans compiled for
        // another layout.
        let mut topo = Fnv1a::new();
        topo.write_u64(shards.len() as u64);
        for s in &shards {
            topo.write_u64(s.threads() as u64);
            topo.write_str(s.isa_name());
        }
        let topo = topo.finish();
        let opts_hash = shards
            .iter()
            .map(|s| combine(&[options_fingerprint(compile, s.isa_name()), topo]))
            .collect();
        Ok(ShardRuntime {
            shards,
            min_units_per_shard: config.min_units_per_shard,
            opts_hash,
            rr: AtomicUsize::new(0),
        })
    }

    /// Plan the next batch, advancing the round-robin route.
    pub(crate) fn plan(&self, total_units: usize) -> ShardPlan {
        ShardPlan::partition(
            total_units,
            self.shards.len(),
            self.min_units_per_shard,
            self.rr.fetch_add(1, Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_splits_evenly_with_ragged_remainder() {
        match ShardPlan::partition(11, 4, 1, 0) {
            ShardPlan::Scatter(parts) => {
                assert_eq!(parts, vec![(0, 0..3), (1, 3..6), (2, 6..9), (3, 9..11)]);
            }
            other => panic!("expected scatter, got {other:?}"),
        }
    }

    #[test]
    fn small_batches_route_whole_round_robin() {
        // 6 units over 2 shards at min 4/shard: below the 8-unit
        // threshold, so the whole batch goes to route % shards.
        assert_eq!(ShardPlan::partition(6, 2, 4, 0), ShardPlan::Single(0));
        assert_eq!(ShardPlan::partition(6, 2, 4, 1), ShardPlan::Single(1));
        assert_eq!(ShardPlan::partition(6, 2, 4, 2), ShardPlan::Single(0));
        // At exactly shards × min, scattering kicks in.
        assert!(matches!(
            ShardPlan::partition(8, 2, 4, 0),
            ShardPlan::Scatter(_)
        ));
    }

    #[test]
    fn one_shard_always_routes_single() {
        assert_eq!(ShardPlan::partition(1 << 20, 1, 1, 7), ShardPlan::Single(0));
    }

    #[test]
    fn shard_runs_jobs_in_order_and_returns_values() {
        let shard = EngineShard::new(0, &ShardSpec::default(), 2).unwrap();
        let a = shard.run(|| 40 + 2);
        let b = shard.run(|| "done");
        assert_eq!(a.wait().unwrap(), 42);
        assert_eq!(b.wait().unwrap(), "done");
        assert_eq!(shard.threads(), 2);
    }

    #[test]
    fn panic_fails_only_its_own_job() {
        let shard = EngineShard::new(3, &ShardSpec::default(), 1).unwrap();
        let bad = shard.run(|| panic!("injected"));
        let good = shard.run(|| 7);
        let err = bad.wait().unwrap_err();
        assert!(
            matches!(&err, ServeError::Exec(m) if m.contains("shard 3")),
            "{err:?}"
        );
        // The shard survived: the next job runs normally and the panic
        // is on the books.
        assert_eq!(good.wait().unwrap(), 7);
        assert_eq!(shard.stats().panics(), 1);
    }

    #[test]
    fn spec_isa_becomes_the_engines_backend() {
        let shard = EngineShard::new(
            0,
            &ShardSpec {
                isa: Some(Isa::Scalar),
                ..ShardSpec::default()
            },
            1,
        )
        .unwrap();
        assert_eq!(shard.isa(), Isa::Scalar);
        assert_eq!(shard.engine().kernels().isa(), Isa::Scalar);
        assert_eq!(shard.isa_name(), "scalar");
        let dflt = EngineShard::new(1, &ShardSpec::default(), 1).unwrap();
        assert_eq!(dflt.isa(), Kernels::default().isa());
    }

    #[test]
    fn unsupported_spec_is_rejected_at_construction() {
        if Isa::Avx512.supported() {
            return; // can't name an unsupported ISA on this host
        }
        let err = EngineShard::new(
            0,
            &ShardSpec {
                isa: Some(Isa::Avx512),
                ..ShardSpec::default()
            },
            1,
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::InvalidModel(_)));
    }

    #[test]
    fn zero_threads_rejected() {
        assert!(EngineShard::new(0, &ShardSpec::default(), 0).is_err());
    }
}
