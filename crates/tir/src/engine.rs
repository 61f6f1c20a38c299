//! The compiled-partition execution engine.
//!
//! An [`Executable`] owns a compiled [`Module`] plus everything needed
//! to run it: its weight tensors, the constants the init stage folds
//! from them ("these runtime constants only be executed once in the
//! first execution"), its thread pool, and execution statistics.
//! Engines are **first-class values**, not a process singleton: an
//! [`Engine`] bundles one thread pool and one microkernel backend
//! ([`Kernels`]) with an execution policy and per-instance counters, and
//! any number of them coexist in a process (the `two_backends` test runs
//! a scalar engine beside the default).
//!
//! Both stages run on the compiled [`Plan`]. A module with a function the
//! plan builder rejected is refused with an error, never interpreted; the
//! tree-walking interpreter ([`crate::exec`]) is the test oracle
//! [`Executable::reference`] builds.
//!
//! # Memory model
//!
//! The plan builder checks every call against the roles of the globals
//! it binds, so no call writes a global its stage only reads. An
//! execution then binds each global by role ([`Globals`]) and copies
//! none of them:
//! - **constants** are read in place, one copy per executable: a
//!   `Weight` from the executable's own weight tensor, a `Persistent`
//!   global (or any other global an init call writes) from the init
//!   stage's product, which an [`InitCache`] shares between the
//!   executables of one model;
//! - **inputs** are read in place from the caller's tensors (the init
//!   stage reads the first call's the same way);
//! - **outputs** are allocated per call and moved into the returned
//!   tensors; an output the init stage computes is a constant, and each
//!   call returns a copy of it;
//! - **scratch** globals and the plan's locals live in an execution
//!   state.
//!
//! # Concurrency
//!
//! [`Executable::execute`] is safe to call from many threads at once
//! (`Executable` is `Send + Sync`, statically asserted below). The
//! engine keeps a checkout pool of execution states, each holding only
//! scratch, so concurrent calls never share mutable memory; the
//! constants they share are read-only after the one-time init stage,
//! which runs under a [`std::sync::OnceLock`]. The idle pool is capped
//! at the thread pool's worker count. Results are bit-identical to
//! serial runs: a plan's parallel chunks each compute a deterministic,
//! disjoint region regardless of which worker claims them.

use crate::compile::{compile_module, init_products};
use crate::exec::{run_func, ExecError};
use crate::ir::{Call, GlobalKind, Module};
use crate::plan::{run_plan_call, ExecOptions, Globals, Plan, PlanScratch, PlanStats};
use crate::sim::{project, Projection};
use gc_machine::MachineDescriptor;
use gc_microkernel::Kernels;
use gc_runtime::{ConstantCache, ExecStats, ThreadPool};
use gc_tensor::{Storage, Tensor, TensorDesc};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A live set of engine execution counters. One instance is process
/// wide (backing [`engine_totals`], kept for whole-process
/// observability); every [`Engine`] value carries its own in addition,
/// so a process holding several engines gets per-instance totals.
/// Monotonic; tests must assert on deltas, not absolute values, because
/// the test harness runs in parallel.
#[derive(Debug, Default)]
pub struct EngineCounters {
    executions: AtomicU64,
    plan_dispatches: AtomicU64,
    init_runs: AtomicU64,
    exec_states: AtomicU64,
}

impl EngineCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot the current values.
    pub fn totals(&self) -> EngineTotals {
        EngineTotals {
            executions: self.executions.load(Ordering::Relaxed),
            plan_dispatches: self.plan_dispatches.load(Ordering::Relaxed),
            init_runs: self.init_runs.load(Ordering::Relaxed),
            exec_states: self.exec_states.load(Ordering::Relaxed),
        }
    }
}

/// The process-wide counter instance (every executable increments it,
/// instrumented or not).
static GLOBAL_COUNTERS: EngineCounters = EngineCounters {
    executions: AtomicU64::new(0),
    plan_dispatches: AtomicU64::new(0),
    init_runs: AtomicU64::new(0),
    exec_states: AtomicU64::new(0),
};

/// A snapshot of engine counters — process-wide from
/// [`engine_totals`], per-instance from [`Engine::totals`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineTotals {
    /// Completed [`Executable::execute`] calls.
    pub executions: u64,
    /// Main-stage calls dispatched through compiled plans.
    pub plan_dispatches: u64,
    /// Init stages actually computed (constant-cache hits excluded).
    pub init_runs: u64,
    /// Execution states materialized (peak concurrency × executables).
    pub exec_states: u64,
}

/// Read the process-wide engine counters (the sum over every engine
/// instance and standalone executable in the process).
pub fn engine_totals() -> EngineTotals {
    GLOBAL_COUNTERS.totals()
}

/// A first-class engine instance: a thread pool and a kernel backend
/// plus the execution options and counters for everything built on it.
///
/// Historically the pool/options pair was threaded through every
/// [`Executable`] constructor by hand and observability was process
/// wide only. `Engine` names that bundle so several instances can
/// coexist deliberately in one process, each with its own pool, its
/// own ISA, its own exec-state checkout pools (via the executables it
/// builds), and its own totals. Construction is cheap beyond the pool
/// itself; clone the `Arc`s freely.
#[derive(Clone)]
pub struct Engine {
    pool: Arc<ThreadPool>,
    kernels: Kernels,
    exec_options: ExecOptions,
    counters: Arc<EngineCounters>,
}

impl Engine {
    /// An engine instance on `pool` with the process-default kernel
    /// backend, default (compiled, unchecked) execution policy and
    /// fresh counters.
    pub fn new(pool: Arc<ThreadPool>) -> Self {
        Engine {
            pool,
            kernels: Kernels::default(),
            exec_options: ExecOptions::default(),
            counters: Arc::new(EngineCounters::new()),
        }
    }

    /// Set the kernel backend executables built by this engine run on.
    pub fn with_kernels(mut self, kernels: Kernels) -> Self {
        self.kernels = kernels;
        self
    }

    /// Set the plan-execution options for executables built by this
    /// engine.
    pub fn with_exec_options(mut self, opts: ExecOptions) -> Self {
        self.exec_options = opts;
        self
    }

    /// The engine's thread pool.
    pub fn pool(&self) -> &Arc<ThreadPool> {
        &self.pool
    }

    /// The kernel backend everything built on this engine runs on —
    /// also the ISA its plan-cache and tuning-database keys carry.
    pub fn kernels(&self) -> Kernels {
        self.kernels
    }

    /// Cores this engine keeps busy (its pool's width).
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// This instance's counters (for attaching to executables compiled
    /// elsewhere; see [`Executable::with_counters`]).
    pub fn counters(&self) -> &Arc<EngineCounters> {
        &self.counters
    }

    /// Snapshot this instance's counters — only work executed through
    /// executables built by (or instrumented with) this engine.
    pub fn totals(&self) -> EngineTotals {
        self.counters.totals()
    }

    /// Wrap a lowered module into a compiled [`Executable`] running on
    /// this engine: its pool, its kernels, its options, its counters.
    pub fn build(
        &self,
        module: Module,
        weight_seeds: Vec<(usize, Tensor)>,
        dispatch_count: usize,
    ) -> Executable {
        Executable::new(module, weight_seeds, Arc::clone(&self.pool), dispatch_count)
            .with_exec_options(self.exec_options)
            .with_kernels(self.kernels)
            .with_counters(Arc::clone(&self.counters))
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("threads", &self.pool.threads())
            .field("isa", &self.kernels.isa())
            .finish()
    }
}

/// Which executor runs both stages of an [`Executable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Flat execution plans compiled at construction. A module with a
    /// function the plan builder rejected is refused at execute.
    Compiled,
    /// The tree-walking interpreter for every call — the oracle
    /// differential tests compare against (see
    /// [`Executable::reference`]).
    Interpret,
}

/// Where an execution binds one global (see the module docs).
#[derive(Debug, Clone, Copy)]
enum Source {
    /// A `Weight`, read in place from `weight_seeds[i]`.
    Seed(usize),
    /// The i-th constant the init stage produces: a `Persistent` global,
    /// a `Weight` without a seed (zeros), or a scratch global an init
    /// call writes.
    Constant(usize),
    /// Output `.0`, which an init call writes: constant `.1`, copied into
    /// the returned tensor by every call.
    InitOutput(usize, usize),
    /// The caller's i-th input, read in place.
    Input(usize),
    /// The i-th output, allocated per call and moved out.
    Output(usize),
    /// The execution state's next scratch buffer.
    Scratch,
}

/// One checked-out execution context. It holds only scratch: one buffer
/// per `Scratch` global no init call writes, in declaration order, and
/// the plan's locals.
/// States are pooled, so a steady-state execution allocates only its
/// outputs.
struct ExecState {
    globals: Vec<Storage>,
    scratch: PlanScratch,
}

/// A shared cache of init-stage products, keyed by the caller (e.g. a
/// model's graph hash + shape bucket): the constants one init stage
/// folds, in declaration order. Distinct `Executable`s of the same
/// logical model fold them once and read one copy.
pub type InitCache = ConstantCache<Vec<Storage>>;

/// A compiled, executable partition.
pub struct Executable {
    module: Module,
    weight_seeds: Vec<(usize, Tensor)>,
    pool: Arc<ThreadPool>,
    /// Number of user-visible API calls this module replaces (1 for a
    /// compiled partition, one per primitive for the baseline).
    dispatch_count: usize,
    plan: Plan,
    mode: ExecMode,
    exec_options: ExecOptions,
    /// The backend every kernel of this executable runs on — both
    /// stages and pool workers included — whichever thread calls
    /// [`Self::execute`].
    kernels: Kernels,
    /// Optional cross-executable init cache (see [`InitCache`]).
    init_cache: Option<(Arc<InitCache>, u64)>,
    /// How each global is bound, in declaration order.
    sources: Box<[Source]>,
    /// `(input slot, global)`, in slot order.
    inputs: Box<[(usize, usize)]>,
    /// What [`Self::check_plan`] reports; `execute` refuses to run on an
    /// error.
    ready: Result<(), ExecError>,
    /// The statistics that depend only on the module, reported by every
    /// execution.
    module_stats: ExecStats,
    /// The init stage's constants, once the first execution folded them.
    constants: OnceLock<Arc<Vec<Storage>>>,
    /// Idle execution states; `execute` pops one (or builds a fresh one)
    /// and pushes it back when done, up to `max_idle_states`.
    states: Mutex<Vec<ExecState>>,
    /// Idle-pool bound: the embedded pool's worker count. Callers beyond
    /// it are serialized on the thread pool anyway, so a state kept for
    /// each would only pin its scratch (megabytes of locals on the
    /// larger plans) for the process lifetime; they build a state
    /// instead.
    max_idle_states: usize,
    init_runs: AtomicU64,
    /// Per-engine-instance counters, incremented alongside the
    /// process-wide ones when set (see [`Engine`]).
    counters: Option<Arc<EngineCounters>>,
}

// `Executable` must stay shareable across serving threads; this fails
// to compile if a field ever loses `Send + Sync`.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = _assert_send_sync::<Executable>();

impl std::fmt::Debug for Executable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executable")
            .field("funcs", &self.module.funcs.len())
            .field("globals", &self.module.globals.len())
            .field("dispatch_count", &self.dispatch_count)
            .finish()
    }
}

impl Executable {
    /// Wrap a lowered module, compiling its execution plan.
    pub fn new(
        module: Module,
        weight_seeds: Vec<(usize, Tensor)>,
        pool: Arc<ThreadPool>,
        dispatch_count: usize,
    ) -> Self {
        Self::with_mode(
            module,
            weight_seeds,
            pool,
            dispatch_count,
            ExecMode::Compiled,
        )
    }

    /// Wrap a lowered module with an explicit execution mode. The plan
    /// is compiled either way (it is cheap and [`Self::plan_stats`]
    /// stays meaningful); `mode` selects the executor of both stages.
    /// Each seed binds a `Weight` global. Runs on the process-default
    /// kernel backend unless [`Self::with_kernels`] says otherwise.
    pub fn with_mode(
        module: Module,
        weight_seeds: Vec<(usize, Tensor)>,
        pool: Arc<ThreadPool>,
        dispatch_count: usize,
        mode: ExecMode,
    ) -> Self {
        let plan = compile_module(&module, pool.threads());
        let ready = refusal(&module, &plan, mode);
        let mut seed_of = vec![None; module.globals.len()];
        for (k, (gi, _)) in weight_seeds.iter().enumerate() {
            seed_of[*gi] = Some(k);
        }
        let products = init_products(&module, &plan.writes);
        let mut constants = 0;
        let mut next_constant = || {
            constants += 1;
            constants - 1
        };
        let sources: Box<[Source]> = (module.globals.iter().zip(seed_of).zip(products))
            .map(|((g, seed), product)| match (g.kind, seed, product) {
                (GlobalKind::Weight, Some(k), _) => Source::Seed(k),
                (GlobalKind::Weight | GlobalKind::Persistent, ..)
                | (GlobalKind::Scratch, _, true) => Source::Constant(next_constant()),
                (GlobalKind::Input(i), ..) => Source::Input(i),
                (GlobalKind::Output(i), _, true) => Source::InitOutput(i, next_constant()),
                (GlobalKind::Output(i), _, false) => Source::Output(i),
                (GlobalKind::Scratch, _, false) => Source::Scratch,
            })
            .collect();
        let mut inputs: Vec<(usize, usize)> = (sources.iter().enumerate())
            .filter_map(|(gi, s)| match *s {
                Source::Input(i) => Some((i, gi)),
                _ => None,
            })
            .collect();
        inputs.sort_unstable();
        let module_stats = module_stats(&module);
        let max_idle_states = pool.threads().max(1);
        Executable {
            module,
            weight_seeds,
            pool,
            dispatch_count,
            plan,
            mode,
            exec_options: ExecOptions::default(),
            kernels: Kernels::default(),
            init_cache: None,
            sources,
            inputs: inputs.into_boxed_slice(),
            ready,
            module_stats,
            constants: OnceLock::new(),
            states: Mutex::new(Vec::new()),
            max_idle_states,
            init_runs: AtomicU64::new(0),
            counters: None,
        }
    }

    /// Run on `kernels`' backend (normally an [`Engine`]'s, via
    /// [`Engine::build`]).
    pub fn with_kernels(mut self, kernels: Kernels) -> Self {
        self.kernels = kernels;
        self
    }

    /// Attach per-instance [`EngineCounters`] (normally an [`Engine`]'s,
    /// via [`Engine::build`]): every execution increments them alongside
    /// the process-wide totals.
    pub fn with_counters(mut self, counters: Arc<EngineCounters>) -> Self {
        self.counters = Some(counters);
        self
    }

    /// Bump one counter on the process-wide instance and, when
    /// instrumented, the owning engine's.
    #[inline]
    fn count(&self, field: impl Fn(&EngineCounters) -> &AtomicU64) {
        field(&GLOBAL_COUNTERS).fetch_add(1, Ordering::Relaxed);
        if let Some(c) = &self.counters {
            field(c).fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Route the one-time init stage through a shared [`InitCache`]
    /// under `key`: if another executable with the same key already
    /// folded its constants, this one reads that copy instead of
    /// computing its own. Must be set before the first execution.
    pub fn with_init_cache(mut self, cache: Arc<InitCache>, key: u64) -> Self {
        self.init_cache = Some((cache, key));
        self
    }

    /// The underlying module (diagnostics, projection).
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Set the plan-execution options (e.g. [`ExecOptions::checked`]
    /// for bounds-asserting debug runs). Applies to every subsequent
    /// `execute` call.
    pub fn with_exec_options(mut self, opts: ExecOptions) -> Self {
        self.exec_options = opts;
        self
    }

    /// The active execution mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// The test oracle for this executable: the same module, weight
    /// seeds, pool, kernels and exec options, running both stages on
    /// the tree-walking interpreter ([`ExecMode::Interpret`]). It runs
    /// its own init stage, with no init cache and no engine counters.
    pub fn reference(&self) -> Executable {
        Executable::with_mode(
            self.module.clone(),
            self.weight_seeds.clone(),
            Arc::clone(&self.pool),
            self.dispatch_count,
            ExecMode::Interpret,
        )
        .with_exec_options(self.exec_options)
        .with_kernels(self.kernels)
    }

    /// Whether the plan builder accepted the module: compiled every
    /// function (in [`ExecMode::Compiled`]) and found no call writing a
    /// global its stage only reads (in either mode). Decided once, when
    /// the executable is built.
    ///
    /// # Errors
    ///
    /// The error the executable returns instead of running: it names
    /// the first rejected function or call and the builder's reason.
    pub fn check_plan(&self) -> Result<(), ExecError> {
        self.ready.clone()
    }

    /// The active plan-execution options.
    pub fn exec_options(&self) -> ExecOptions {
        self.exec_options
    }

    /// What the plan builder achieved for this module.
    pub fn plan_stats(&self) -> PlanStats {
        self.plan.stats()
    }

    /// Number of framework API calls this executable stands for.
    pub fn dispatch_count(&self) -> usize {
        self.dispatch_count
    }

    /// How many times the init stage actually ran (stays 1 without an
    /// [`InitCache`]; 0 when a shared cache already held the result).
    pub fn init_runs(&self) -> u64 {
        self.init_runs.load(Ordering::Relaxed)
    }

    /// Idle pooled execution states (diagnostics; the peak number of
    /// concurrent `execute` calls observed so far, capped at the pool's
    /// worker count).
    pub fn pooled_states(&self) -> usize {
        self.states.lock().expect("state pool poisoned").len()
    }

    /// Expected input descriptors, in order.
    pub fn input_descs(&self) -> Vec<(usize, gc_tensor::DataType)> {
        self.inputs
            .iter()
            .map(|&(_, gi)| (self.module.globals[gi].elems, self.module.globals[gi].dtype))
            .collect()
    }

    /// Run one call on this executable's executor: its plan, or the
    /// interpreter in [`ExecMode::Interpret`].
    fn run_call(&self, call: &Call, globals: &mut Globals<'_>, scratch: &mut PlanScratch) {
        match self.mode {
            ExecMode::Compiled => run_plan_call(
                &self.plan,
                call.func,
                &call.args,
                globals,
                &self.pool,
                scratch,
                self.exec_options,
                self.kernels,
            ),
            ExecMode::Interpret => run_func(
                &self.module.funcs[call.func],
                self.plan.writes(call.func),
                call,
                globals,
                &self.pool,
                self.exec_options,
                self.kernels,
            ),
        }
    }

    /// Run the init stage and return the constants it produces, in
    /// [`Source::Constant`] and [`Source::InitOutput`] order. Weights and
    /// the first call's inputs (runtime constants arrive with them) are
    /// read in place; an output or scratch global no init call writes is
    /// a temporary.
    fn run_init(&self, inputs: &[Tensor]) -> Vec<Storage> {
        let owned = |s: &Source| !matches!(s, Source::Seed(_) | Source::Input(_));
        let mut buffers: Vec<Storage> = self
            .sources
            .iter()
            .zip(&self.module.globals)
            .filter(|(s, _)| owned(s))
            .map(|(_, g)| Storage::zeros(g.dtype, g.elems))
            .collect();
        {
            let mut globals = Globals::with_capacity(self.sources.len());
            let mut buffer = buffers.iter_mut();
            for s in self.sources.iter() {
                match *s {
                    Source::Seed(k) => globals.read(self.weight_seeds[k].1.storage()),
                    Source::Input(i) => globals.read(inputs[i].storage()),
                    _ => globals.write(buffer.next().expect("a buffer per owned global")),
                }
            }
            let mut scratch = PlanScratch::for_plan(&self.plan);
            for call in &self.module.init_calls {
                self.run_call(call, &mut globals, &mut scratch);
            }
        }
        self.init_runs.fetch_add(1, Ordering::Relaxed);
        self.count(|c| &c.init_runs);
        let kept = self.sources.iter().filter(|s| owned(s));
        buffers
            .into_iter()
            .zip(kept)
            .filter_map(|(b, s)| {
                matches!(s, Source::Constant(_) | Source::InitOutput(..)).then_some(b)
            })
            .collect()
    }

    /// Bind every global for one main-stage execution.
    fn bind<'a>(
        &'a self,
        inputs: &'a [Tensor],
        constants: &'a [Storage],
        scratch: &'a mut [Storage],
        outputs: &'a mut [(usize, Storage)],
    ) -> Globals<'a> {
        let mut globals = Globals::with_capacity(self.sources.len());
        let (mut scratch, mut outputs) = (scratch.iter_mut(), outputs.iter_mut());
        for s in self.sources.iter() {
            match *s {
                Source::Seed(k) => globals.read(self.weight_seeds[k].1.storage()),
                Source::Constant(k) | Source::InitOutput(_, k) => globals.read(&constants[k]),
                Source::Input(i) => globals.read(inputs[i].storage()),
                Source::Output(_) => {
                    globals.write(&mut outputs.next().expect("a buffer per output").1);
                }
                Source::Scratch => globals.write(scratch.next().expect("a buffer per scratch")),
            }
        }
        globals
    }

    /// Check `inputs` against the compiled descriptors.
    fn check_inputs(&self, inputs: &[Tensor]) -> Result<(), ExecError> {
        for &(i, gi) in self.inputs.iter() {
            let g = &self.module.globals[gi];
            let t = inputs
                .get(i)
                .ok_or_else(|| ExecError(format!("missing input {i} ({})", g.name)))?;
            if t.desc().dtype() != g.dtype || t.desc().volume() != g.elems {
                return Err(ExecError(format!(
                    "input {i} ({}) expects {} x{}, got {} x{}",
                    g.name,
                    g.dtype,
                    g.elems,
                    t.desc().dtype(),
                    t.desc().volume()
                )));
            }
        }
        let n_inputs = self.inputs.last().map_or(0, |&(i, _)| i + 1);
        if inputs.len() != n_inputs {
            return Err(ExecError(format!(
                "{} inputs provided, partition expects {n_inputs}",
                inputs.len()
            )));
        }
        Ok(())
    }

    /// Execute on `inputs` (one tensor per graph input, in order).
    /// Returns the outputs in graph-output order plus statistics.
    ///
    /// Safe to call concurrently from multiple threads; see the module
    /// docs for the memory model.
    ///
    /// # Errors
    ///
    /// Returns an error when inputs disagree with the compiled
    /// descriptors, or when the plan builder refused the module (see
    /// [`Self::check_plan`]).
    pub fn execute(&self, inputs: &[Tensor]) -> Result<(Vec<Tensor>, ExecStats), ExecError> {
        let wall0 = Instant::now();
        if let Err(e) = &self.ready {
            return Err(e.clone());
        }
        self.check_inputs(inputs)?;

        // One-time init: the first caller computes (or fetches from the
        // shared init cache) the constants; concurrent callers block in
        // `get_or_init` until they are ready.
        let mut init_wall = Duration::ZERO;
        let constants = self.constants.get_or_init(|| {
            let init0 = Instant::now();
            let constants = match &self.init_cache {
                Some((cache, key)) => cache.get_or_init(*key, || self.run_init(inputs)),
                None => Arc::new(self.run_init(inputs)),
            };
            init_wall = init0.elapsed();
            constants
        });

        // Check out a private execution state (build one when none is
        // idle — happens once per concurrency level).
        let mut state = {
            let mut pool = self.states.lock().expect("state pool poisoned");
            pool.pop()
        }
        .unwrap_or_else(|| {
            self.count(|c| &c.exec_states);
            ExecState {
                globals: (self.sources.iter().zip(&self.module.globals))
                    .filter(|(s, _)| matches!(s, Source::Scratch))
                    .map(|(_, g)| Storage::zeros(g.dtype, g.elems))
                    .collect(),
                scratch: PlanScratch::for_plan(&self.plan),
            }
        });
        let mut outputs: Vec<(usize, Storage)> = (self.sources.iter().zip(&self.module.globals))
            .filter_map(|(s, g)| match *s {
                Source::Output(i) => Some((i, Storage::zeros(g.dtype, g.elems))),
                _ => None,
            })
            .collect();

        // Main stage. A plan dispatch is counted before it runs, so one
        // that panics is still seen.
        {
            let mut globals = self.bind(inputs, constants, &mut state.globals, &mut outputs);
            for call in &self.module.main_calls {
                if self.mode == ExecMode::Compiled {
                    self.count(|c| &c.plan_dispatches);
                }
                self.run_call(call, &mut globals, &mut state.scratch);
            }
        }

        outputs.extend(self.sources.iter().filter_map(|s| match *s {
            Source::InitOutput(i, k) => Some((i, constants[k].clone())),
            _ => None,
        }));

        // Return the state to the idle pool for the next call; beyond
        // the cap, drop it.
        {
            let mut idle = self.states.lock().expect("state pool poisoned");
            if idle.len() < self.max_idle_states {
                idle.push(state);
            }
        }
        self.count(|c| &c.executions);

        outputs.sort_unstable_by_key(|&(i, _)| i);
        let outs = outputs
            .into_iter()
            .map(|(i, s)| {
                let desc = TensorDesc::new(vec![s.len()], s.dtype());
                Tensor::from_parts(desc, s).map_err(|e| ExecError(format!("output {i}: {e}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let stats = ExecStats {
            wall: wall0.elapsed(),
            init_wall,
            ..self.module_stats.clone()
        };
        Ok((outs, stats))
    }

    /// Project one steady-state execution (init excluded) on `machine`.
    pub fn project(&self, machine: &MachineDescriptor) -> Projection {
        project(&self.module, machine, self.dispatch_count)
    }
}

/// What [`Executable::check_plan`] reports for `module` in `mode`.
fn refusal(module: &Module, plan: &Plan, mode: ExecMode) -> Result<(), ExecError> {
    if mode == ExecMode::Compiled {
        for (f, planned) in module.funcs.iter().zip(&plan.funcs) {
            if let Err(why) = planned {
                return Err(ExecError(format!(
                    "function `{}` has no execution plan (rejected: {why:?})",
                    f.name
                )));
            }
        }
    }
    plan.roles.clone().map_err(|r| {
        let call = (module.init_calls.iter().chain(&module.main_calls))
            .nth(r.call)
            .expect("a rejected call exists");
        ExecError(format!(
            "call {} to `{}` writes global `{}` (rejected: {:?})",
            r.call, module.funcs[call.func].name, module.globals[r.global].name, r.why
        ))
    })
}

/// The statistics every execution of `module` reports unchanged.
fn module_stats(module: &Module) -> ExecStats {
    // Barriers are counted structurally (every executed parallel region
    // ends in one), so the number is meaningful even when the host pool
    // degenerates to a single thread.
    let barriers = module
        .main_calls
        .iter()
        .map(|c| parallel_regions(&module.funcs[c.func].body, 1))
        .sum();
    let scratch_bytes: usize = module
        .globals
        .iter()
        .filter(|g| g.kind == GlobalKind::Scratch)
        .map(|g| g.elems * g.dtype.size_bytes())
        .sum();
    let local_bytes = module
        .funcs
        .iter()
        .map(crate::ir::Func::local_bytes)
        .max()
        .unwrap_or(0);
    ExecStats {
        barriers,
        func_calls: module.main_calls.len() as u64,
        peak_temp_bytes: scratch_bytes + local_bytes,
        ..ExecStats::default()
    }
}

fn parallel_regions(stmts: &[crate::ir::Stmt], mult: u64) -> u64 {
    use crate::ir::Stmt;
    let mut n = 0;
    for s in stmts {
        if let Stmt::For {
            extent,
            parallel,
            body,
            ..
        } = s
        {
            if *parallel {
                n += mult;
            } else {
                n += parallel_regions(body, mult * *extent as u64);
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::ir::{BufDecl, BufId, Call, Func, GlobalDecl, Intrinsic, Stmt, View};
    use gc_microkernel::UnaryOp;
    use gc_tensor::DataType;

    /// out = relu(in) with a persistent "processed weight" that the
    /// init stage computes as square(weight).
    fn demo_module() -> (Module, Vec<(usize, Tensor)>) {
        let mut m = Module::new();
        let g_in = m.add_global(GlobalDecl {
            dtype: DataType::F32,
            elems: 8,
            kind: GlobalKind::Input(0),
            name: "x".into(),
        });
        let g_w = m.add_global(GlobalDecl {
            dtype: DataType::F32,
            elems: 8,
            kind: GlobalKind::Weight,
            name: "w".into(),
        });
        let g_wp = m.add_global(GlobalDecl {
            dtype: DataType::F32,
            elems: 8,
            kind: GlobalKind::Persistent,
            name: "w_processed".into(),
        });
        let g_out = m.add_global(GlobalDecl {
            dtype: DataType::F32,
            elems: 8,
            kind: GlobalKind::Output(0),
            name: "y".into(),
        });
        let square = Func {
            name: "init_square".into(),
            params: vec![
                BufDecl::new(DataType::F32, 8, "in"),
                BufDecl::new(DataType::F32, 8, "out"),
            ],
            locals: vec![],
            var_count: 0,
            body: vec![Stmt::Op(Intrinsic::new(
                crate::ir::unary_chain(UnaryOp::Square, 8),
                [
                    View::new(BufId::Param(0), Expr::c(0), 8),
                    View::new(BufId::Param(1), Expr::c(0), 8),
                ],
                [],
            ))],
        };
        let addw = Func {
            name: "main_add".into(),
            params: vec![
                BufDecl::new(DataType::F32, 8, "x"),
                BufDecl::new(DataType::F32, 8, "w"),
                BufDecl::new(DataType::F32, 8, "y"),
            ],
            locals: vec![],
            var_count: 0,
            body: vec![Stmt::Op(Intrinsic::new(
                crate::ir::add_chain(8, true),
                [
                    View::new(BufId::Param(0), Expr::c(0), 8),
                    View::new(BufId::Param(1), Expr::c(0), 8),
                    View::new(BufId::Param(2), Expr::c(0), 8),
                ],
                [],
            ))],
        };
        let f_init = m.add_func(square);
        let f_main = m.add_func(addw);
        m.init_calls.push(Call {
            func: f_init,
            args: vec![g_w, g_wp],
        });
        m.main_calls.push(Call {
            func: f_main,
            args: vec![g_in, g_wp, g_out],
        });
        m.validate().unwrap();
        let w = Tensor::from_vec_f32(&[8], vec![1., 2., 3., 4., 5., 6., 7., 8.]).unwrap();
        (m, vec![(g_w, w)])
    }

    #[test]
    fn init_runs_once_and_results_are_cached() {
        let (m, seeds) = demo_module();
        let exe = Executable::new(m, seeds, Arc::new(ThreadPool::new(1)), 1);
        let x = Tensor::from_vec_f32(&[8], vec![0.5; 8]).unwrap();
        let (out1, s1) = exe.execute(std::slice::from_ref(&x)).unwrap();
        let (out2, s2) = exe.execute(&[x]).unwrap();
        assert_eq!(exe.init_runs(), 1);
        assert!(s1.init_wall > std::time::Duration::ZERO);
        assert_eq!(s2.init_wall, std::time::Duration::ZERO);
        // y = x + w^2
        let want: Vec<f32> = (1..=8).map(|i| 0.5 + (i * i) as f32).collect();
        assert_eq!(out1[0].f32_slice().unwrap(), want.as_slice());
        assert_eq!(out2[0].f32_slice().unwrap(), want.as_slice());
    }

    #[test]
    fn rejects_bad_inputs() {
        let (m, seeds) = demo_module();
        let exe = Executable::new(m, seeds, Arc::new(ThreadPool::new(1)), 1);
        assert!(exe.execute(&[]).is_err());
        let wrong = Tensor::zeros(&[4], DataType::F32);
        assert!(exe.execute(&[wrong]).is_err());
        let wrong_dt = Tensor::zeros(&[8], DataType::I8);
        assert!(exe.execute(&[wrong_dt]).is_err());
    }

    #[test]
    fn projection_is_positive_and_counts_dispatch() {
        let (m, seeds) = demo_module();
        let exe = Executable::new(m, seeds, Arc::new(ThreadPool::new(1)), 3);
        let machine = MachineDescriptor::xeon_8358();
        let p = exe.project(&machine);
        assert!(p.cycles > 0.0);
        assert_eq!(
            p.dispatch_cycles,
            3.0 * gc_machine::cost::dispatch_cycles(&machine)
        );
    }

    #[test]
    fn input_descs_reported() {
        let (m, seeds) = demo_module();
        let exe = Executable::new(m, seeds, Arc::new(ThreadPool::new(1)), 1);
        assert_eq!(exe.input_descs(), vec![(8, DataType::F32)]);
    }

    #[test]
    fn concurrent_execute_bitmatches_serial() {
        let (m, seeds) = demo_module();
        let exe = Arc::new(Executable::new(m, seeds, Arc::new(ThreadPool::new(2)), 1));
        let reference: Arc<Vec<Vec<f32>>> = Arc::new(
            (0..4)
                .map(|t| {
                    let x = Tensor::from_vec_f32(&[8], vec![t as f32; 8]).unwrap();
                    let (out, _) = exe.execute(&[x]).unwrap();
                    out[0].f32_slice().unwrap().to_vec()
                })
                .collect(),
        );
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let exe = Arc::clone(&exe);
                let reference = Arc::clone(&reference);
                std::thread::spawn(move || {
                    let x = Tensor::from_vec_f32(&[8], vec![t as f32; 8]).unwrap();
                    for _ in 0..50 {
                        let (out, _) = exe.execute(std::slice::from_ref(&x)).unwrap();
                        assert_eq!(out[0].f32_slice().unwrap(), reference[t].as_slice());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(exe.init_runs(), 1);
        assert!(exe.pooled_states() >= 1);
    }

    #[test]
    fn idle_state_pool_is_bounded() {
        let (m, seeds) = demo_module();
        let exe = Arc::new(Executable::new(m, seeds, Arc::new(ThreadPool::new(1)), 1));
        let handles: Vec<_> = (0..6)
            .map(|t| {
                let exe = Arc::clone(&exe);
                std::thread::spawn(move || {
                    let x = Tensor::from_vec_f32(&[8], vec![t as f32; 8]).unwrap();
                    exe.execute(&[x]).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Worker count is 1, so at most one idle state is retained no
        // matter how many callers ran concurrently.
        assert!(exe.pooled_states() <= 1);
        let x = Tensor::from_vec_f32(&[8], vec![0.5; 8]).unwrap();
        exe.execute(&[x]).unwrap();
    }

    #[test]
    fn shared_init_cache_folds_constants_once() {
        let cache: Arc<InitCache> = Arc::new(InitCache::new());
        let (m1, seeds1) = demo_module();
        let (m2, seeds2) = demo_module();
        let exe1 = Executable::new(m1, seeds1, Arc::new(ThreadPool::new(1)), 1)
            .with_init_cache(Arc::clone(&cache), 99);
        let exe2 = Executable::new(m2, seeds2, Arc::new(ThreadPool::new(1)), 1)
            .with_init_cache(Arc::clone(&cache), 99);
        let x = Tensor::from_vec_f32(&[8], vec![0.5; 8]).unwrap();
        let (o1, _) = exe1.execute(std::slice::from_ref(&x)).unwrap();
        let (o2, _) = exe2.execute(std::slice::from_ref(&x)).unwrap();
        assert_eq!(o1[0].f32_slice().unwrap(), o2[0].f32_slice().unwrap());
        // exactly one init computation across both executables, and
        // one constant buffer both read
        assert_eq!(cache.compute_count(), 1);
        assert_eq!(exe1.init_runs() + exe2.init_runs(), 1);
        assert!(Arc::ptr_eq(
            exe1.constants.get().unwrap(),
            exe2.constants.get().unwrap()
        ));
    }

    #[test]
    fn checked_execution_bitmatches_default() {
        let (m, seeds) = demo_module();
        let plain = Executable::new(m, seeds, Arc::new(ThreadPool::new(1)), 1);
        let (m2, seeds2) = demo_module();
        let checked = Executable::new(m2, seeds2, Arc::new(ThreadPool::new(1)), 1)
            .with_exec_options(ExecOptions::checked());
        assert!(checked.exec_options().checked);
        let x = Tensor::from_vec_f32(&[8], vec![0.5; 8]).unwrap();
        let (a, _) = plain.execute(std::slice::from_ref(&x)).unwrap();
        let (b, _) = checked.execute(&[x]).unwrap();
        assert_eq!(a[0].f32_slice().unwrap(), b[0].f32_slice().unwrap());
    }

    #[test]
    fn engine_instances_count_independently() {
        let a = Engine::new(Arc::new(ThreadPool::new(1)));
        let b = Engine::new(Arc::new(ThreadPool::new(2)));
        let (m, seeds) = demo_module();
        let exe_a = a.build(m, seeds, 1);
        let (m2, seeds2) = demo_module();
        let exe_b = b.build(m2, seeds2, 1);
        let x = Tensor::from_vec_f32(&[8], vec![0.5; 8]).unwrap();
        let global_before = engine_totals();
        exe_a.execute(std::slice::from_ref(&x)).unwrap();
        exe_a.execute(std::slice::from_ref(&x)).unwrap();
        exe_b.execute(&[x]).unwrap();
        // Per-instance counters see only their own engine's work; the
        // process-wide totals see all of it.
        assert_eq!(a.totals().executions, 2);
        assert_eq!(b.totals().executions, 1);
        assert_eq!(a.totals().init_runs, 1);
        assert_eq!(b.totals().init_runs, 1);
        assert!(engine_totals().executions >= global_before.executions + 3);
        assert_eq!(b.threads(), 2);
    }

    #[test]
    fn engine_policy_applies_to_built_executables() {
        let eng =
            Engine::new(Arc::new(ThreadPool::new(1))).with_exec_options(ExecOptions::checked());
        let (m, seeds) = demo_module();
        let exe = eng.build(m, seeds, 1);
        assert_eq!(exe.mode(), ExecMode::Compiled);
        assert!(exe.exec_options().checked);
        let x = Tensor::from_vec_f32(&[8], vec![0.5; 8]).unwrap();
        exe.execute(&[x]).unwrap();
        assert_eq!(eng.totals().plan_dispatches, 1);
    }

    /// The oracle runs both stages on the interpreter with the
    /// executable's own options, outside the engine's counters, and
    /// agrees with the plans bit for bit.
    #[test]
    fn reference_interprets_both_stages_and_bitmatches() {
        let eng =
            Engine::new(Arc::new(ThreadPool::new(1))).with_exec_options(ExecOptions::checked());
        let (m, seeds) = demo_module();
        let exe = eng.build(m, seeds, 1);
        let oracle = exe.reference();
        assert_eq!(oracle.mode(), ExecMode::Interpret);
        assert_eq!(oracle.exec_options(), exe.exec_options());
        let x = Tensor::from_vec_f32(&[8], vec![0.5; 8]).unwrap();
        let (a, _) = exe.execute(std::slice::from_ref(&x)).unwrap();
        let (b, _) = oracle.execute(std::slice::from_ref(&x)).unwrap();
        let bits = |t: &Tensor| -> Vec<u32> {
            t.f32_slice().unwrap().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&a[0]), bits(&b[0]));
        assert_eq!(oracle.init_runs(), 1);
        assert_eq!(eng.totals().executions, 1);
        assert_eq!(eng.totals().plan_dispatches, 1);

        // An init function with more variables than a plan frame holds
        // has no plan: the compiled executable refuses it, the oracle
        // interprets it.
        let (mut m, seeds) = demo_module();
        m.funcs[m.init_calls[0].func].var_count = crate::plan::MAX_VARS + 1;
        let exe = Executable::new(m, seeds, Arc::new(ThreadPool::new(1)), 1);
        let err = exe.execute(std::slice::from_ref(&x)).unwrap_err();
        assert!(err.0.contains("init_square"), "{err}");
        let (out, _) = exe.reference().execute(&[x]).unwrap();
        assert_eq!(bits(&out[0]), bits(&a[0]));
    }

    /// relu over `elems` f32 in steps of 4, one step too many: the last
    /// iteration reads past the end, so the plan builder rejects it
    /// (`Reject::OutOfBounds`).
    fn overrun_func(elems: usize) -> Func {
        use crate::expr::VarId;
        let v = VarId(0);
        let step = Expr::v(v).mul(Expr::c(4));
        Func {
            name: "overrun".into(),
            params: vec![
                BufDecl::new(DataType::F32, elems, "in"),
                BufDecl::new(DataType::F32, elems, "out"),
            ],
            locals: vec![],
            var_count: 1,
            body: vec![Stmt::loop_(
                v,
                elems / 4 + 1,
                vec![Stmt::Op(Intrinsic::new(
                    crate::ir::unary_chain(UnaryOp::Relu, 4),
                    [
                        View::new(BufId::Param(0), step.clone(), 4),
                        View::new(BufId::Param(1), step, 4),
                    ],
                    [],
                ))],
            )],
        }
    }

    /// A function the plan builder rejects has no static bounds proof.
    /// A compiled executable returns an error naming it instead of
    /// running anything: no interpreter fallback, no panic.
    #[test]
    fn rejected_function_is_an_error_not_a_fallback() {
        let mut m = Module::new();
        let g_in = m.add_global(GlobalDecl {
            dtype: DataType::F32,
            elems: 32,
            kind: GlobalKind::Input(0),
            name: "x".into(),
        });
        let g_out = m.add_global(GlobalDecl {
            dtype: DataType::F32,
            elems: 32,
            kind: GlobalKind::Output(0),
            name: "y".into(),
        });
        let f = m.add_func(overrun_func(32));
        m.main_calls.push(Call {
            func: f,
            args: vec![g_in, g_out],
        });
        let eng = Engine::new(Arc::new(ThreadPool::new(1)));
        let exe = eng.build(m, vec![], 1);
        assert_eq!(exe.plan_stats().interpreted_funcs, 1);
        let x = Tensor::from_vec_f32(&[32], vec![1.0; 32]).unwrap();
        let err = exe.execute(&[x]).unwrap_err();
        assert!(err.0.contains("overrun"), "{err}");
        assert!(err.0.contains("OutOfBounds"), "{err}");
        assert_eq!(exe.check_plan(), Err(err));
        assert_eq!(eng.totals().plan_dispatches, 0);
        assert_eq!(eng.totals().executions, 0);
    }

    /// The init stage runs on plans too: a rejected init function is the
    /// same error, and the init stage never starts.
    #[test]
    fn rejected_init_function_is_an_error() {
        let (mut m, seeds) = demo_module();
        let fi = m.init_calls[0].func;
        m.funcs[fi] = overrun_func(8);
        let eng = Engine::new(Arc::new(ThreadPool::new(1)));
        let exe = eng.build(m, seeds, 1);
        assert_eq!(exe.plan_stats().interpreted_funcs, 1);
        let x = Tensor::from_vec_f32(&[8], vec![0.5; 8]).unwrap();
        let err = exe.execute(&[x]).unwrap_err();
        assert!(err.0.contains("overrun"), "{err}");
        assert_eq!(exe.init_runs(), 0);
        assert_eq!(eng.totals().plan_dispatches, 0);
    }

    #[test]
    fn engine_totals_monotonic() {
        let before = engine_totals();
        let (m, seeds) = demo_module();
        let exe = Executable::new(m, seeds, Arc::new(ThreadPool::new(1)), 1);
        let x = Tensor::from_vec_f32(&[8], vec![0.5; 8]).unwrap();
        exe.execute(&[x]).unwrap();
        let after = engine_totals();
        assert!(after.executions > before.executions);
        assert!(after.init_runs > before.init_runs);
        assert!(after.exec_states > before.exec_states);
        assert!(after.plan_dispatches > before.plan_dispatches);
    }

    /// relu from `in` into `out`: a call binding a global to `out`
    /// writes it.
    fn relu_into(elems: usize) -> Func {
        Func {
            name: "relu_into".into(),
            params: vec![
                BufDecl::new(DataType::F32, elems, "in"),
                BufDecl::new(DataType::F32, elems, "out"),
            ],
            locals: vec![],
            var_count: 0,
            body: vec![Stmt::Op(Intrinsic::new(
                crate::ir::unary_chain(UnaryOp::Relu, elems),
                [
                    View::new(BufId::Param(0), Expr::c(0), elems),
                    View::new(BufId::Param(1), Expr::c(0), elems),
                ],
                [],
            ))],
        }
    }

    /// A call writing a global its stage only reads is a typed
    /// rejection: execute (on the plan and on the oracle) returns it
    /// before running anything.
    #[test]
    fn writes_to_read_only_globals_are_rejected() {
        let cases = [
            (GlobalKind::Weight, false, "WritesConstant"),
            (GlobalKind::Persistent, false, "WritesConstant"),
            (GlobalKind::Input(1), false, "WritesInput"),
            (GlobalKind::Weight, true, "WritesConstant"),
            (GlobalKind::Input(1), true, "WritesInput"),
        ];
        for (kind, init, why) in cases {
            let (mut m, seeds) = demo_module();
            let target = m.add_global(GlobalDecl {
                dtype: DataType::F32,
                elems: 8,
                kind,
                name: "target".into(),
            });
            let f = m.add_func(relu_into(8));
            let call = Call {
                func: f,
                args: vec![0, target],
            };
            if init {
                m.init_calls.push(call);
            } else {
                m.main_calls.push(call);
            }
            let eng = Engine::new(Arc::new(ThreadPool::new(1)));
            let exe = eng.build(m, seeds, 1);
            let x = Tensor::from_vec_f32(&[8], vec![0.5; 8]).unwrap();
            let err = exe.execute(&[x.clone(), x.clone()]).unwrap_err();
            assert!(err.0.contains(why), "{kind:?}: {err}");
            assert!(
                err.0.contains("`relu_into` writes global `target`"),
                "{err}"
            );
            assert_eq!(exe.check_plan(), Err(err.clone()));
            assert_eq!(exe.reference().execute(&[x.clone(), x]).unwrap_err(), err);
            assert_eq!(exe.init_runs(), 0);
            assert_eq!(eng.totals().plan_dispatches, 0);
        }
    }

    /// A scratch or output global an init call writes is an init
    /// product: a constant every call reads, the output copied out by
    /// every call, and a main-stage write to either is rejected.
    #[test]
    fn init_written_globals_are_constants() {
        // `demo_module` with `w^2` in a scratch global, plus an output
        // `z = relu(w)` only the init stage computes
        let build = || {
            let (mut m, seeds) = demo_module();
            let wp = m.init_calls[0].args[1];
            m.globals[wp].kind = GlobalKind::Scratch;
            let z = m.add_global(GlobalDecl {
                dtype: DataType::F32,
                elems: 8,
                kind: GlobalKind::Output(1),
                name: "z".into(),
            });
            let f = m.add_func(relu_into(8));
            m.init_calls.push(Call {
                func: f,
                args: vec![m.init_calls[0].args[0], z],
            });
            m.validate().unwrap();
            (m, seeds, f, [wp, z])
        };
        let (m, seeds, _, products) = build();
        let exe = Executable::new(m, seeds, Arc::new(ThreadPool::new(1)), 1);
        let oracle = exe.reference();
        let mut firsts = Vec::new();
        for x in [0.5, -1.0] {
            let x = Tensor::from_vec_f32(&[8], vec![x; 8]).unwrap();
            let (outs, _) = exe.execute(std::slice::from_ref(&x)).unwrap();
            let (want, _) = oracle.execute(std::slice::from_ref(&x)).unwrap();
            assert!(outs
                .iter()
                .zip(&want)
                .all(|(a, b)| a.storage() == b.storage()));
            let y: Vec<f32> = (1..=8)
                .map(|i| x.f32_slice().unwrap()[0] + (i * i) as f32)
                .collect();
            let z: Vec<f32> = (1..=8).map(|i| i as f32).collect();
            assert_eq!(outs[0].f32_slice().unwrap(), y.as_slice());
            assert_eq!(outs[1].f32_slice().unwrap(), z.as_slice());
            firsts.push(outs);
        }
        assert_eq!(firsts[0][1].storage(), firsts[1][1].storage());
        assert_eq!(exe.init_runs(), 1);
        assert!(exe
            .states
            .lock()
            .unwrap()
            .iter()
            .all(|s| s.globals.is_empty()));

        // a main call writing the scratch product, then the output one
        for global in products {
            let (mut m, seeds, f, _) = build();
            m.main_calls.push(Call {
                func: f,
                args: vec![0, global],
            });
            let exe = Executable::new(m, seeds, Arc::new(ThreadPool::new(1)), 1);
            let err = exe.check_plan().unwrap_err();
            assert!(err.0.contains("WritesConstant"), "global {global}: {err}");
        }
    }

    /// `demo_module` with its sum going through a scratch global:
    /// `s = x + w^2; y = relu(s)`.
    fn scratch_module() -> (Module, Vec<(usize, Tensor)>) {
        let (mut m, seeds) = demo_module();
        let s = m.add_global(GlobalDecl {
            dtype: DataType::F32,
            elems: 8,
            kind: GlobalKind::Scratch,
            name: "s".into(),
        });
        let y = m.main_calls[0].args[2];
        m.main_calls[0].args[2] = s;
        let f = m.add_func(relu_into(8));
        m.main_calls.push(Call {
            func: f,
            args: vec![s, y],
        });
        m.validate().unwrap();
        (m, seeds)
    }

    /// Execution states hold scratch and nothing else: no weight, no
    /// constant, no input and no output buffer.
    #[test]
    fn pooled_states_hold_only_scratch() {
        let (m, seeds) = scratch_module();
        let exe = Arc::new(Executable::new(m, seeds, Arc::new(ThreadPool::new(2)), 1));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let exe = Arc::clone(&exe);
                std::thread::spawn(move || {
                    let x = Tensor::from_vec_f32(&[8], vec![t as f32 - 2.0; 8]).unwrap();
                    for _ in 0..20 {
                        let (out, _) = exe.execute(std::slice::from_ref(&x)).unwrap();
                        let want = (1..=8).map(|i| (t as f32 - 2.0 + (i * i) as f32).max(0.0));
                        assert!(out[0].f32_slice().unwrap().iter().copied().eq(want));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let states = exe.states.lock().unwrap();
        assert!(!states.is_empty());
        for state in states.iter() {
            // one buffer: the scratch global `s`
            assert_eq!(state.globals.len(), 1);
            assert_eq!(state.globals[0].size_bytes(), 8 * 4);
        }
    }

    /// Inputs are read in place and outputs moved out: the caller's
    /// tensors are bit-unchanged after a call, and a call's outputs are
    /// unchanged by the next call.
    #[test]
    fn inputs_stay_unchanged_and_outputs_are_moved_out() {
        let (m, seeds) = scratch_module();
        let exe = Executable::new(m, seeds, Arc::new(ThreadPool::new(1)), 1);
        let bits = |t: &Tensor| -> Vec<u32> {
            t.f32_slice().unwrap().iter().map(|v| v.to_bits()).collect()
        };
        let x1 = Tensor::from_vec_f32(&[8], vec![-3.5; 8]).unwrap();
        let x2 = Tensor::from_vec_f32(&[8], vec![0.25; 8]).unwrap();
        let (x1_bits, x2_bits) = (bits(&x1), bits(&x2));
        let (out1, _) = exe.execute(std::slice::from_ref(&x1)).unwrap();
        let out1_bits = bits(&out1[0]);
        let (out2, _) = exe.execute(std::slice::from_ref(&x2)).unwrap();
        assert_eq!(bits(&x1), x1_bits);
        assert_eq!(bits(&x2), x2_bits);
        assert_eq!(bits(&out1[0]), out1_bits);
        assert_ne!(bits(&out2[0]), out1_bits);
    }

    /// The statistics that depend only on the module are computed once,
    /// at build, and keep the values per-call computation reported.
    #[test]
    fn module_stats_are_computed_once_with_unchanged_values() {
        let (m, seeds) = demo_module();
        let exe = Executable::new(m, seeds, Arc::new(ThreadPool::new(1)), 1);
        let x = Tensor::from_vec_f32(&[8], vec![0.5; 8]).unwrap();
        let (_, first) = exe.execute(std::slice::from_ref(&x)).unwrap();
        let (_, second) = exe.execute(&[x]).unwrap();
        for s in [first, second] {
            assert_eq!((s.barriers, s.func_calls, s.peak_temp_bytes), (0, 1, 0));
        }
        // scratch bytes plus the largest function's locals; one barrier
        // per executed parallel region
        let (mut m, seeds) = scratch_module();
        let v = crate::expr::VarId(0);
        m.funcs[1].var_count = 1;
        m.funcs[1]
            .locals
            .push(BufDecl::new(DataType::F32, 16, "tmp"));
        m.funcs[1].body = vec![Stmt::loop_(
            v,
            3,
            vec![Stmt::parallel(v, 2, std::mem::take(&mut m.funcs[1].body))],
        )];
        let exe = Executable::new(m, seeds, Arc::new(ThreadPool::new(1)), 1);
        let s = exe.module_stats.clone();
        assert_eq!(
            (s.barriers, s.func_calls, s.peak_temp_bytes),
            (3, 2, 32 + 64)
        );
    }

    /// A local the builder cannot prove written first is still zeroed
    /// per call; one it can prove is poisoned in checked execution and
    /// never observed. Both agree with the interpreter, which allocates
    /// every local zeroed.
    #[test]
    fn locals_are_zeroed_unless_proven_written_first() {
        // `y = relu(acc + x)` where `acc += x` accumulates into a local
        // nobody initialized: the call must see zeros.
        let (mut m, seeds) = demo_module();
        let main = m.main_calls[0].func;
        let f = &mut m.funcs[main];
        f.locals = vec![
            BufDecl::new(DataType::F32, 8, "acc"),
            BufDecl::new(DataType::F32, 8, "tmp"),
        ];
        let view = |b, len| View::new(b, Expr::c(0), len);
        let op = |op, views: Vec<View>| Stmt::Op(Intrinsic::new(op, views, []));
        let add = crate::ir::add_chain(8, true);
        f.body = vec![
            op(
                crate::ir::add_chain(8, false),
                vec![view(BufId::Local(0), 8), view(BufId::Param(0), 8)],
            ),
            op(
                crate::ir::unary_chain(UnaryOp::Relu, 8),
                vec![view(BufId::Local(0), 8), view(BufId::Local(1), 8)],
            ),
            op(
                add,
                vec![
                    view(BufId::Local(1), 8),
                    view(BufId::Param(1), 8),
                    view(BufId::Param(2), 8),
                ],
            ),
        ];
        let plan = compile_module(&m, 1);
        let proven: Vec<bool> = plan
            .func(main)
            .unwrap()
            .locals
            .iter()
            .map(|l| l.written_first)
            .collect();
        assert_eq!(proven, [false, true]);
        assert_eq!(plan.stats().zeroed_locals, 1);
        let x = Tensor::from_vec_f32(&[8], (0..8).map(|i| i as f32 - 4.0).collect()).unwrap();
        let want: Vec<f32> = (1..=8)
            .map(|i| ((i - 5) as f32).max(0.0) + (i * i) as f32)
            .collect();
        for opts in [ExecOptions::default(), ExecOptions::checked()] {
            let exe = Executable::new(m.clone(), seeds.clone(), Arc::new(ThreadPool::new(1)), 1)
                .with_exec_options(opts);
            for exe in [exe.reference(), exe] {
                for _ in 0..2 {
                    let (out, _) = exe.execute(std::slice::from_ref(&x)).unwrap();
                    assert_eq!(out[0].f32_slice().unwrap(), want.as_slice());
                }
            }
        }
    }
}
