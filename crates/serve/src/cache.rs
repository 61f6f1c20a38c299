//! Process-wide compiled-plan cache and shared execution resources.
//!
//! The cache key is the full identity of a compiled artifact:
//! canonical graph fingerprint (weights included — they are baked into
//! the executable), shape bucket, a fingerprint of the compile options
//! (which covers dtype legalization, checked execution, the
//! active kernel ISA and the tuning-database contents), and the thread
//! count (plan decisions depend on the pool width). Loading the same
//! model twice — or the same model in two processes' worth of sessions
//! — compiles once and shares one [`Arc<Executable>`]. The engine's
//! [`InitCache`] is keyed by the same identity ([`PlanKey::digest`]),
//! so every session of one (model, bucket) folds weights once, while
//! distinct buckets fold separately — their global buffers are
//! bucket-shaped, so sharing across buckets would be incorrect.
//!
//! The plan cache is LRU-bounded ([`DEFAULT_PLAN_CAPACITY`] completed
//! plans, or [`PlanCache::with_capacity`]) so long-lived processes
//! that churn through model variants cannot grow it without bound.

use crate::ServeError;
use gc_core::{CompileOptions, Compiler};
use gc_graph::{combine, Fnv1a, Graph};
use gc_runtime::ThreadPool;
use gc_tensor::TensorDesc;
use gc_tir::{Engine, Executable, InitCache};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Identity of one compiled plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Canonical graph fingerprint ([`gc_graph::graph_fingerprint`]).
    pub graph: u64,
    /// Shape bucket, in batching units.
    pub units: u64,
    /// Fingerprint of the [`gc_core::CompileOptions`] in effect.
    pub opts: u64,
    /// Worker threads the embedded pool runs.
    pub threads: u64,
}

impl PlanKey {
    /// Collapse to one `u64` covering every field: the engine-level
    /// [`InitCache`] key, so each (graph, bucket, options, width) folds
    /// its weights once however many executables share it.
    pub fn digest(&self) -> u64 {
        combine(&[self.graph, self.units, self.opts, self.threads])
    }
}

/// The [`PlanKey::opts`] digest of `opts` for plans compiled for an
/// engine whose kernels run on backend `isa`: every plan is keyed under
/// the ISA that runs it.
pub(crate) fn options_fingerprint(opts: &CompileOptions, isa: &str) -> u64 {
    // Exhaustive destructuring: adding a knob to CompileOptions fails
    // to compile here, forcing a decision on whether (and how) the new
    // knob enters the fingerprint. Hashing the options' Debug string
    // instead silently misses knobs whose Debug form is not
    // value-bearing — a shared tuning database prints as a
    // pointer-shaped struct, so two databases with different tuned
    // entries would alias and two equal ones would not share — and
    // drags in `param_log`'s contents.
    let CompileOptions {
        machine,
        fusion,
        coarse_fusion,
        low_precision,
        constant_weights,
        propagate_layouts,
        shrink_tensors,
        reuse_buffers,
        reuse_locals,
        forced_post_anchor,
        forced_pack,
        library_params,
        threads: _, // part of the plan key already; `None` resolves to
        // a host-dependent width, so it must not enter this fingerprint
        checked,
        ragged,
        tuning,
        param_log: _, // observability hook; never affects the plan
    } = opts;
    let mut h = Fnv1a::new();
    h.write_str(&format!("{machine:?}"));
    h.write_str(&format!("{fusion:?}"));
    for flag in [
        coarse_fusion,
        low_precision,
        constant_weights,
        propagate_layouts,
        shrink_tensors,
        reuse_buffers,
        reuse_locals,
        library_params,
        checked,
        ragged,
    ] {
        h.write(&[u8::from(*flag)]);
    }
    h.write_str(&format!("{forced_post_anchor:?}"));
    h.write_str(&format!("{forced_pack:?}"));
    // content fingerprint, not identity: two Arcs to equal databases
    // share plans, two databases with different records never do
    match tuning {
        Some(db) => h.write_u64(db.fingerprint()),
        None => h.write_str("untuned"),
    }
    // The microkernel backend the plan dispatches on: plans cached
    // under one ISA (e.g. a GC_FORCE_ISA=scalar run sharing a plan
    // store) must never alias plans for another.
    h.write_str(" isa=");
    h.write_str(isa);
    h.finish()
}

/// One cached compilation product.
#[derive(Debug)]
pub struct CachedPlan {
    /// The shared executable.
    pub exe: Arc<Executable>,
    /// Post-optimization input descriptors (graph-input order).
    pub input_descs: Vec<TensorDesc>,
    /// Post-optimization output descriptors (graph-output order).
    pub output_descs: Vec<TensorDesc>,
}

/// One per-key cell: the compiled plan once ready, plus a lock that
/// serializes compile attempts for this key only.
#[derive(Debug, Default)]
struct PlanEntry {
    plan: OnceLock<Arc<CachedPlan>>,
    compiling: Mutex<()>,
    /// Logical-clock stamp of the last hit or compile (LRU ordering).
    last_used: AtomicU64,
}

/// Default [`PlanCache`] capacity: generous — a plan is a few KB of
/// TIR, and capacity-bucketed decode at 1024 positions with 64-way
/// batching is only ~7x7 plans per model — but finite, so a workload
/// that churns through model variants (tests, notebook sessions,
/// per-tenant graphs) cannot grow the process-wide cache without
/// bound.
pub const DEFAULT_PLAN_CAPACITY: usize = 256;

/// A keyed cache of compiled plans with hit/miss accounting and an
/// LRU bound on completed plans.
///
/// Eviction only ever removes *completed* entries: an entry whose
/// compile is in flight holds waiters on its per-key lock and is never
/// dropped out from under them. The bound is therefore on completed
/// plans; transient overshoot equals the number of concurrent
/// first-compiles.
#[derive(Debug)]
pub struct PlanCache {
    map: Mutex<HashMap<PlanKey, Arc<PlanEntry>>>,
    capacity: usize,
    /// Monotone logical clock stamping `PlanEntry::last_used`.
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::with_capacity(DEFAULT_PLAN_CAPACITY)
    }
}

impl PlanCache {
    /// An empty cache with the default capacity.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// An empty cache holding at most `capacity` completed plans
    /// (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        PlanCache {
            map: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn touch(&self, entry: &PlanEntry) {
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        // fetch_max, not store: two threads can draw clock ticks in one
        // order and reach this line in the other, and a plain store
        // would leave the *older* tick as the entry's stamp — making a
        // hot, just-hit entry look stale to the LRU victim scan.
        entry.last_used.fetch_max(now, Ordering::Relaxed);
    }

    /// Evict least-recently-used *completed* entries until at most
    /// `capacity` remain. Called with a fresh map lock after an
    /// insert; in-flight compiles are exempt.
    fn evict_over_capacity(&self) {
        let mut map = self.map.lock().unwrap();
        loop {
            let completed = map.values().filter(|e| e.plan.get().is_some()).count();
            if completed <= self.capacity {
                return;
            }
            let victim = map
                .iter()
                .filter(|(_, e)| e.plan.get().is_some())
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    map.remove(&k);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => return,
            }
        }
    }

    /// Return the plan for `key`, compiling it with `compile` on first
    /// use. The map lock is only held for the entry lookup; `compile`
    /// runs under a per-key lock, so concurrent loads of the *same*
    /// model compile exactly once while lookups and compiles of every
    /// other key proceed unstalled (this runs on the request path — a
    /// first-touch of a new bucket must not freeze other models'
    /// traffic for the duration of a compile).
    ///
    /// # Errors
    ///
    /// Propagates `compile`'s error; failures are not cached — the
    /// next caller of the same key retries.
    pub fn get_or_compile(
        &self,
        key: PlanKey,
        compile: impl FnOnce() -> Result<CachedPlan, ServeError>,
    ) -> Result<Arc<CachedPlan>, ServeError> {
        let entry = Arc::clone(self.map.lock().unwrap().entry(key).or_default());
        if let Some(p) = entry.plan.get() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.touch(&entry);
            return Ok(Arc::clone(p));
        }
        // Serialize compiles of this key only; recover from a previous
        // compiler panic (poison) by retrying.
        let _compiling = entry
            .compiling
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(p) = entry.plan.get() {
            // Someone else finished while we waited for the key lock.
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.touch(&entry);
            return Ok(Arc::clone(p));
        }
        let plan = Arc::new(compile()?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let _ = entry.plan.set(Arc::clone(&plan));
        self.touch(&entry);
        self.evict_over_capacity();
        Ok(plan)
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (= compilations) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Completed plans dropped by the LRU bound so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Most completed plans this cache retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Plans currently cached (keys whose compile has completed).
    pub fn len(&self) -> usize {
        self.map
            .lock()
            .unwrap()
            .values()
            .filter(|e| e.plan.get().is_some())
            .count()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached plan (tests / model reload).
    pub fn clear(&self) {
        self.map.lock().unwrap().clear();
    }
}

/// The process-wide plan cache [`crate::Model::load`] uses by default.
pub fn plan_cache() -> Arc<PlanCache> {
    static CACHE: OnceLock<Arc<PlanCache>> = OnceLock::new();
    Arc::clone(CACHE.get_or_init(|| Arc::new(PlanCache::new())))
}

/// The process-wide folded-constant cache. Keyed by the [`PlanKey`]
/// digest — graph, bucket, options, threads — so every session of one
/// (model, bucket) folds its weights exactly once, even across
/// distinct `Executable` instances. Distinct buckets fold separately:
/// the folded global set is bucket-shaped.
pub fn init_cache() -> Arc<InitCache> {
    static CACHE: OnceLock<Arc<InitCache>> = OnceLock::new();
    Arc::clone(CACHE.get_or_init(|| Arc::new(InitCache::new())))
}

/// A pool registry for the serving path: one [`ThreadPool`] per worker
/// count, shared by every model compiled at that width. `0` means host
/// parallelism.
pub fn shared_pool(threads: usize) -> Arc<ThreadPool> {
    static POOLS: OnceLock<Mutex<HashMap<usize, Arc<ThreadPool>>>> = OnceLock::new();
    let pools = POOLS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = pools.lock().unwrap();
    Arc::clone(map.entry(threads).or_insert_with(|| {
        Arc::new(if threads == 0 {
            ThreadPool::with_host_parallelism()
        } else {
            ThreadPool::new(threads)
        })
    }))
}

/// One model's way to its plans: the caches it compiles through and the
/// engine (a shared pool, the default kernel backend) its plans run on.
pub(crate) struct Plans {
    cache: Arc<PlanCache>,
    init_cache: Arc<InitCache>,
    pub(crate) engine: Engine,
}

impl Plans {
    /// Resolve a config's overrides (`None` = the process-wide cache,
    /// `threads` `None` = host parallelism).
    pub(crate) fn new(
        threads: Option<usize>,
        plan_cache: Option<&Arc<PlanCache>>,
        init_cache: Option<&Arc<InitCache>>,
    ) -> Plans {
        Plans {
            cache: plan_cache.map_or_else(self::plan_cache, Arc::clone),
            init_cache: init_cache.map_or_else(self::init_cache, Arc::clone),
            engine: Engine::new(shared_pool(threads.unwrap_or(0))),
        }
    }

    /// [`options_fingerprint`] of `opts` under the engine's ISA.
    pub(crate) fn opts_hash(&self, opts: &CompileOptions) -> u64 {
        options_fingerprint(opts, self.engine.kernels().isa().name())
    }

    /// The plan under `key`, compiling `graph()` with `opts` for the
    /// engine on a miss. Folded constants go through the init cache
    /// under [`PlanKey::digest`].
    pub(crate) fn plan(
        &self,
        key: PlanKey,
        opts: &CompileOptions,
        graph: impl FnOnce() -> Result<Graph, ServeError>,
    ) -> Result<Arc<CachedPlan>, ServeError> {
        self.cache.get_or_compile(key, || {
            let arts = Compiler::new(opts.clone()).compile_artifacts(graph()?, &self.engine)?;
            let exe = arts
                .exe
                .with_init_cache(Arc::clone(&self.init_cache), key.digest());
            Ok(CachedPlan {
                exe: Arc::new(exe),
                input_descs: arts.input_descs,
                output_descs: arts.output_descs,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::{config_with_private_caches, mlp_graph};
    use crate::Model;
    use gc_tensor::{DataType, Tensor};

    fn dummy_plan() -> CachedPlan {
        use gc_core::{CompileOptions, Compiler};
        use gc_graph::OpKind;
        let mut g = Graph::new();
        let x = g.add_input(TensorDesc::new([2, 4], DataType::F32), "x");
        let w = g.add_constant(Tensor::random(&[4, 2], DataType::F32, 3), "w");
        let y = g.add_op(OpKind::MatMul, &[x, w]).unwrap();
        g.mark_output(y);
        let opts = CompileOptions {
            threads: Some(1),
            ..CompileOptions::default()
        };
        let arts = Compiler::new(opts)
            .compile_artifacts(g, &Engine::new(shared_pool(1)))
            .unwrap();
        CachedPlan {
            exe: Arc::new(arts.exe),
            input_descs: arts.input_descs,
            output_descs: arts.output_descs,
        }
    }

    #[test]
    fn hit_returns_pointer_equal_plan() {
        let cache = PlanCache::new();
        let key = PlanKey {
            graph: 1,
            units: 4,
            opts: 2,
            threads: 1,
        };
        let a = cache.get_or_compile(key, || Ok(dummy_plan())).unwrap();
        let b = cache
            .get_or_compile(key, || panic!("must not recompile"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&a.exe, &b.exe));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
    }

    #[test]
    fn different_bucket_misses() {
        let cache = PlanCache::new();
        let k4 = PlanKey {
            graph: 1,
            units: 4,
            opts: 2,
            threads: 1,
        };
        let k8 = PlanKey { units: 8, ..k4 };
        let a = cache.get_or_compile(k4, || Ok(dummy_plan())).unwrap();
        let b = cache.get_or_compile(k8, || Ok(dummy_plan())).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 2, 2));
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = PlanCache::new();
        let key = PlanKey {
            graph: 9,
            units: 1,
            opts: 0,
            threads: 1,
        };
        let e = cache.get_or_compile(key, || Err(ServeError::Compile("boom".into())));
        assert!(e.is_err());
        assert_eq!(cache.len(), 0);
        let ok = cache.get_or_compile(key, || Ok(dummy_plan()));
        assert!(ok.is_ok());
    }

    #[test]
    fn same_key_compiles_once_under_contention() {
        use std::sync::atomic::AtomicUsize;
        let cache = Arc::new(PlanCache::new());
        let key = PlanKey {
            graph: 5,
            units: 4,
            opts: 0,
            threads: 1,
        };
        let compiles = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let compiles = Arc::clone(&compiles);
                std::thread::spawn(move || {
                    cache
                        .get_or_compile(key, || {
                            compiles.fetch_add(1, Ordering::SeqCst);
                            Ok(dummy_plan())
                        })
                        .unwrap()
                })
            })
            .collect();
        let plans: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(compiles.load(Ordering::SeqCst), 1);
        for p in &plans[1..] {
            assert!(Arc::ptr_eq(&plans[0], p));
        }
    }

    #[test]
    fn concurrent_churn_keeps_lru_accounting_consistent() {
        // Stress the LRU under contention: several threads churn
        // through a keyspace larger than capacity while all of them
        // keep re-touching one shared hot key. Guards the audit
        // invariants: completed plans never exceed capacity (beyond
        // in-flight compiles), every eviction is counted exactly once
        // (len == misses - evictions), and a continuously-touched
        // entry's stamp stays fresh enough to survive the churn —
        // which is what `touch`'s fetch_max (not store) buys under
        // racing stamp updates.
        let cache = Arc::new(PlanCache::with_capacity(8));
        let hot = PlanKey {
            graph: 0,
            units: 4,
            opts: 0,
            threads: 1,
        };
        cache.get_or_compile(hot, || Ok(dummy_plan())).unwrap();
        let threads = 4;
        let per_thread = 32;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        let cold = PlanKey {
                            graph: 1 + (t * per_thread + i) as u64,
                            ..hot
                        };
                        cache.get_or_compile(cold, || Ok(dummy_plan())).unwrap();
                        cache
                            .get_or_compile(hot, || panic!("hot key must stay resident"))
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(cache.len() <= cache.capacity());
        assert_eq!(
            cache.len() as u64,
            cache.misses() - cache.evictions(),
            "every eviction must be counted exactly once"
        );
        assert_eq!(
            cache.misses(),
            1 + (threads * per_thread) as u64,
            "each cold key compiles exactly once; the hot key never recompiles"
        );
    }

    #[test]
    fn compiles_do_not_serialize_across_keys() {
        // Key A's compile blocks until key B's get_or_compile has
        // completed; under a cache-wide compile lock this deadlocks.
        use std::sync::mpsc;
        let cache = Arc::new(PlanCache::new());
        let ka = PlanKey {
            graph: 6,
            units: 4,
            opts: 0,
            threads: 1,
        };
        let kb = PlanKey { graph: 7, ..ka };
        let (entered_tx, entered_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel();
        let c2 = Arc::clone(&cache);
        let h = std::thread::spawn(move || {
            c2.get_or_compile(ka, || {
                entered_tx.send(()).unwrap();
                done_rx.recv().unwrap();
                Ok(dummy_plan())
            })
        });
        entered_rx.recv().unwrap();
        cache.get_or_compile(kb, || Ok(dummy_plan())).unwrap();
        done_tx.send(()).unwrap();
        h.join().unwrap().unwrap();
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = PlanCache::with_capacity(2);
        let key = |g: u64| PlanKey {
            graph: g,
            units: 4,
            opts: 0,
            threads: 1,
        };
        cache.get_or_compile(key(1), || Ok(dummy_plan())).unwrap();
        cache.get_or_compile(key(2), || Ok(dummy_plan())).unwrap();
        // Touch key 1 so key 2 becomes the LRU victim.
        cache.get_or_compile(key(1), || panic!("cached")).unwrap();
        cache.get_or_compile(key(3), || Ok(dummy_plan())).unwrap();
        assert_eq!((cache.len(), cache.evictions()), (2, 1));
        // Key 1 survived; key 2 was evicted and recompiles.
        cache.get_or_compile(key(1), || panic!("cached")).unwrap();
        let recompiled = std::sync::atomic::AtomicUsize::new(0);
        cache
            .get_or_compile(key(2), || {
                recompiled.fetch_add(1, Ordering::SeqCst);
                Ok(dummy_plan())
            })
            .unwrap();
        assert_eq!(recompiled.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn capacity_has_a_floor_of_one() {
        let cache = PlanCache::with_capacity(0);
        assert_eq!(cache.capacity(), 1);
        let k = PlanKey {
            graph: 1,
            units: 1,
            opts: 0,
            threads: 1,
        };
        cache.get_or_compile(k, || Ok(dummy_plan())).unwrap();
        cache.get_or_compile(k, || panic!("cached")).unwrap();
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn default_capacity_is_generous() {
        assert_eq!(PlanCache::new().capacity(), DEFAULT_PLAN_CAPACITY);
    }

    #[test]
    fn shared_pool_is_shared_per_width() {
        let a = shared_pool(2);
        let b = shared_pool(2);
        let c = shared_pool(3);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(a.threads(), 2);
        assert_eq!(c.threads(), 3);
    }

    #[test]
    fn plan_key_digest_is_injective_over_fields() {
        let k = PlanKey {
            graph: 1,
            units: 2,
            opts: 3,
            threads: 4,
        };
        assert_ne!(k.digest(), PlanKey { graph: 2, ..k }.digest());
        assert_ne!(k.digest(), PlanKey { units: 3, ..k }.digest());
        assert_ne!(k.digest(), PlanKey { opts: 4, ..k }.digest());
        assert_ne!(k.digest(), PlanKey { threads: 5, ..k }.digest());
    }

    /// Plan-cache and tuning-database identities are persistent: a
    /// refactor that moves either orphans every stored entry. Adding or
    /// removing a hashed `CompileOptions` knob moves the options
    /// fingerprint, and its pin is updated with the knob; the tune key
    /// hashes only the machine and the ISA, so no options change may
    /// move it. The [`PlanKey`] digest keys the folded-constant cache.
    #[test]
    fn plan_and_tune_key_identities_are_pinned() {
        let opts = CompileOptions::new(gc_machine::MachineDescriptor::xeon_8358());
        assert_eq!(options_fingerprint(&opts, "scalar"), 0xac06_cb57_d753_8221);
        let plan_key = PlanKey {
            graph: 1,
            units: 2,
            opts: 3,
            threads: 4,
        };
        assert_eq!(plan_key.digest(), 0x898f_7e1c_e696_4921);
        let mut g = mlp_graph(16, 1);
        gc_core::pipeline::optimize_graph(&mut g, &opts).unwrap();
        let key = gc_core::TuneKey::for_graph(&g, &opts, "scalar").unwrap();
        assert_eq!(key.machine, 0xa029_fb7b_a4de_1579);
        assert_eq!((key.shape_bucket, key.threads), (16, 0));
    }

    /// [`options_fingerprint`] under the process-default kernel backend.
    fn fingerprint(opts: &CompileOptions) -> u64 {
        options_fingerprint(opts, gc_microkernel::Kernels::default().isa().name())
    }

    #[test]
    fn options_fingerprint_sees_every_knob() {
        use gc_core::TuningDb;
        use gc_lowering::anchors::{PackPlacement, PostOpAnchor};
        use gc_machine::MachineDescriptor;

        let base = CompileOptions::default();
        let fp = fingerprint(&base);
        // Every public knob, toggled one at a time, must move the
        // fingerprint — with the two deliberate exceptions asserted at
        // the bottom. A knob missing here is a knob someone added to
        // CompileOptions: extend both this list and (by the compile
        // error it just produced) options_fingerprint itself.
        let variants: Vec<(&str, CompileOptions)> = vec![
            (
                "machine",
                CompileOptions {
                    machine: MachineDescriptor::small_generic(),
                    ..base.clone()
                },
            ),
            (
                "fusion",
                CompileOptions {
                    fusion: gc_graph::FusionOptions::disabled(),
                    ..base.clone()
                },
            ),
            (
                "coarse_fusion",
                CompileOptions {
                    coarse_fusion: false,
                    ..base.clone()
                },
            ),
            (
                "low_precision",
                CompileOptions {
                    low_precision: false,
                    ..base.clone()
                },
            ),
            (
                "constant_weights",
                CompileOptions {
                    constant_weights: false,
                    ..base.clone()
                },
            ),
            (
                "propagate_layouts",
                CompileOptions {
                    propagate_layouts: false,
                    ..base.clone()
                },
            ),
            (
                "shrink_tensors",
                CompileOptions {
                    shrink_tensors: false,
                    ..base.clone()
                },
            ),
            (
                "reuse_buffers",
                CompileOptions {
                    reuse_buffers: false,
                    ..base.clone()
                },
            ),
            (
                "reuse_locals",
                CompileOptions {
                    reuse_locals: false,
                    ..base.clone()
                },
            ),
            (
                "forced_post_anchor",
                CompileOptions {
                    forced_post_anchor: Some(PostOpAnchor::P2),
                    ..base.clone()
                },
            ),
            (
                "forced_pack",
                CompileOptions {
                    forced_pack: Some(PackPlacement::PerTask),
                    ..base.clone()
                },
            ),
            (
                "library_params",
                CompileOptions {
                    library_params: true,
                    ..base.clone()
                },
            ),
            (
                "checked",
                CompileOptions {
                    checked: true,
                    ..base.clone()
                },
            ),
            (
                "ragged",
                CompileOptions {
                    ragged: false,
                    ..base.clone()
                },
            ),
            (
                "tuning",
                CompileOptions {
                    tuning: Some(Arc::new(TuningDb::in_memory())),
                    ..base.clone()
                },
            ),
        ];
        for (name, v) in &variants {
            assert_ne!(
                fingerprint(v),
                fp,
                "toggling {name} must change the options fingerprint"
            );
        }
        // Two tuning databases with *different contents* must not alias.
        let db = Arc::new(TuningDb::in_memory());
        db.insert(
            gc_core::TuneKey {
                graph: 1,
                shape_bucket: 2,
                machine: 3,
                threads: 0,
            },
            gc_core::TunedRecord {
                choices: vec![],
                projected_cycles: 1.0,
                wall_ns: 1,
            },
        );
        assert_ne!(
            fingerprint(&CompileOptions {
                tuning: Some(db),
                ..base.clone()
            }),
            fingerprint(&CompileOptions {
                tuning: Some(Arc::new(TuningDb::in_memory())),
                ..base.clone()
            }),
        );
        // Deliberate exceptions: the pool width is part of the plan key
        // itself, and the decision log is pure observability.
        assert_eq!(
            fingerprint(&CompileOptions {
                threads: Some(7),
                ..base.clone()
            }),
            fp
        );
        assert_eq!(
            fingerprint(&CompileOptions {
                param_log: Some(Arc::new(std::sync::Mutex::new(Vec::new()))),
                ..base.clone()
            }),
            fp
        );
    }

    #[test]
    fn checked_serving_bitmatches_and_gets_own_plan_cache_entry() {
        let cfg = config_with_private_caches(1);
        let checked_cfg = cfg.clone().checked();
        assert_ne!(
            fingerprint(&cfg.compile),
            fingerprint(&checked_cfg.compile),
            "checked mode must key its own plan-cache entries"
        );
        let plain = Model::load(mlp_graph(4, 1), cfg).unwrap();
        let checked = Model::load(mlp_graph(4, 1), checked_cfg).unwrap();
        let x = Tensor::random(&[4, 16], DataType::F32, 9);
        let a = plain.session().infer(std::slice::from_ref(&x)).unwrap();
        let b = checked.session().infer(&[x]).unwrap();
        assert_eq!(a[0].f32_slice().unwrap(), b[0].f32_slice().unwrap());
    }
}
