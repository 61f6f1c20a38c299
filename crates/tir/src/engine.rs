//! The compiled-partition execution engine.
//!
//! An [`Executable`] owns a compiled [`Module`] plus everything needed
//! to run it: seeded weight globals, the cached persistent state
//! produced by the init stage ("these runtime constants only be
//! executed once in the first execution"), its thread pool, and
//! execution statistics. Engines are **first-class values**, not a
//! process singleton: an [`Engine`] bundles one thread pool and one
//! microkernel backend ([`Kernels`]) with an execution policy and
//! per-instance counters, and any number of them coexist in a process
//! (the `two_backends` test runs a scalar engine beside the default).
//!
//! Both stages run on the compiled [`Plan`]. A module with a function the
//! plan builder rejected is refused with an error, never interpreted; the
//! tree-walking interpreter ([`crate::exec`]) is the test oracle
//! [`Executable::reference`] builds.
//!
//! # Concurrency
//!
//! [`Executable::execute`] is safe to call from many threads at once
//! (`Executable` is `Send + Sync`, statically asserted below). The
//! engine keeps a checkout pool of execution states — each holding its
//! own copy of the global buffers and plan scratch — so concurrent
//! calls never share mutable memory; the one-time init stage runs
//! under a [`std::sync::OnceLock`], and every state is cloned from the
//! initialized template. The idle pool is capped at the thread pool's
//! worker count so a concurrency burst does not pin
//! weights-times-concurrency of memory forever. Results are bit-identical to serial runs: a
//! plan's parallel chunks each compute a deterministic, disjoint
//! region regardless of which worker claims them.

use crate::compile::compile_module;
use crate::exec::{run_func, ExecError};
use crate::ir::{Call, GlobalKind, Module};
use crate::plan::{run_plan_call, ExecOptions, Plan, PlanScratch, PlanStats};
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

/// The init-stage product shared by every execution state: the global
/// buffers after weight seeding and one-time constant preprocessing.
/// `init_wall` is reported once, by the caller that ran (or fetched)
/// the init stage.
struct InitTemplate {
    globals: Arc<Vec<Storage>>,
}

/// One checked-out execution context: a private copy of the globals
/// (inputs are copied into place per call; outputs and scratch are
/// overwritten) plus the reusable plan-execution scratch. States are
/// pooled, so steady-state execution allocates nothing.
struct ExecState {
    globals: Vec<Storage>,
    scratch: PlanScratch,
}

/// A shared, persistent-globals cache for init-stage results, keyed by
/// the caller (e.g. a model's graph hash + shape bucket). Lets distinct
/// `Executable`s of the same logical model reuse one folded-constant
/// computation.
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
    template: OnceLock<InitTemplate>,
    /// Idle execution states; `execute` pops one (or clones a fresh one
    /// from the template) and pushes it back when done. Bounded by
    /// `max_idle_states`: each state carries a full copy of the global
    /// buffers (weights included), so retaining one per peak-concurrent
    /// caller would pin roughly weights × concurrency of memory for the
    /// process lifetime. Excess states are dropped on return; callers
    /// beyond the pool width pay a template clone instead — they are
    /// serialized on the thread pool anyway.
    states: Mutex<Vec<ExecState>>,
    /// Idle-pool bound: the embedded pool's worker count.
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
    /// Runs on the process-default kernel backend unless
    /// [`Self::with_kernels`] says otherwise.
    pub fn with_mode(
        module: Module,
        weight_seeds: Vec<(usize, Tensor)>,
        pool: Arc<ThreadPool>,
        dispatch_count: usize,
        mode: ExecMode,
    ) -> Self {
        let plan = compile_module(&module, pool.threads());
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
            template: OnceLock::new(),
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
    /// folded its constants, this one reuses the processed globals
    /// instead of recomputing them. Must be set before the first
    /// execution.
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

    /// Whether the plan builder compiled every function of the module.
    ///
    /// # Errors
    ///
    /// The error a compiled executable returns instead of running: it
    /// names the first rejected function and the builder's reason.
    pub fn check_plan(&self) -> Result<(), ExecError> {
        for (f, planned) in self.module.funcs.iter().zip(&self.plan.funcs) {
            if let Err(why) = planned {
                return Err(ExecError(format!(
                    "function `{}` has no execution plan (rejected: {why:?})",
                    f.name
                )));
            }
        }
        Ok(())
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
        let mut ins: Vec<(usize, usize, gc_tensor::DataType)> = self
            .module
            .globals
            .iter()
            .filter_map(|g| match g.kind {
                GlobalKind::Input(i) => Some((i, g.elems, g.dtype)),
                _ => None,
            })
            .collect();
        ins.sort();
        ins.into_iter().map(|(_, e, d)| (e, d)).collect()
    }

    /// Run one call on this executable's executor: its plan, or the
    /// interpreter in [`ExecMode::Interpret`].
    fn run_call(&self, call: &Call, globals: &mut [Storage], scratch: &mut PlanScratch) {
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
                call,
                globals,
                &self.pool,
                self.exec_options,
                self.kernels,
            ),
        }
    }

    /// Run the init stage from scratch: allocate globals, seed weights,
    /// install the first call's inputs (runtime constants arrive with
    /// them), and execute the init calls.
    fn build_init_globals(&self, inputs: &[Tensor]) -> Vec<Storage> {
        let mut globals: Vec<Storage> = self
            .module
            .globals
            .iter()
            .map(|g| Storage::zeros(g.dtype, g.elems))
            .collect();
        for (gi, t) in &self.weight_seeds {
            globals[*gi] = t.storage().clone();
        }
        install_inputs(&self.module, &mut globals, inputs);
        let mut scratch = PlanScratch::for_plan(&self.plan);
        for call in &self.module.init_calls {
            self.run_call(call, &mut globals, &mut scratch);
        }
        self.init_runs.fetch_add(1, Ordering::Relaxed);
        self.count(|c| &c.init_runs);
        globals
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
    /// descriptors, or, in [`ExecMode::Compiled`], when the plan builder
    /// rejected a function (see [`Self::check_plan`]).
    pub fn execute(&self, inputs: &[Tensor]) -> Result<(Vec<Tensor>, ExecStats), ExecError> {
        let mut stats = ExecStats::default();
        let wall0 = Instant::now();
        if self.mode == ExecMode::Compiled {
            self.check_plan()?;
        }

        // validate inputs against the compiled descriptors
        let mut n_inputs = 0usize;
        for g in &self.module.globals {
            if let GlobalKind::Input(i) = g.kind {
                n_inputs = n_inputs.max(i + 1);
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
        }
        if inputs.len() != n_inputs {
            return Err(ExecError(format!(
                "{} inputs provided, partition expects {n_inputs}",
                inputs.len()
            )));
        }

        // One-time init: the first caller computes (or fetches from the
        // shared init cache) the seeded + preprocessed globals template;
        // concurrent callers block in `get_or_init` until it is ready.
        let mut init_wall = Duration::ZERO;
        let template = self.template.get_or_init(|| {
            let init0 = Instant::now();
            let globals = match &self.init_cache {
                Some((cache, key)) => cache.get_or_init(*key, || self.build_init_globals(inputs)),
                None => Arc::new(self.build_init_globals(inputs)),
            };
            init_wall = init0.elapsed();
            InitTemplate { globals }
        });
        stats.init_wall = init_wall;

        // Check out a private execution state (clone the template when
        // none is idle — happens once per concurrency level).
        // Accumulating buffers are explicitly zeroed by the lowered code
        // (FillF32 / ZeroI32 ahead of every k-loop), so stale scratch
        // contents from a previous call are never observed.
        let mut state = {
            let mut pool = self.states.lock().expect("state pool poisoned");
            pool.pop()
        }
        .unwrap_or_else(|| {
            self.count(|c| &c.exec_states);
            ExecState {
                globals: (*template.globals).clone(),
                scratch: PlanScratch::for_plan(&self.plan),
            }
        });
        let globals = &mut state.globals;
        install_inputs(&self.module, globals, inputs);

        // Main stage. A plan dispatch is counted before it runs, so one
        // that panics is still seen.
        for call in &self.module.main_calls {
            if self.mode == ExecMode::Compiled {
                self.count(|c| &c.plan_dispatches);
            }
            self.run_call(call, globals, &mut state.scratch);
        }

        // collect outputs
        let mut outs: Vec<(usize, Tensor)> = Vec::new();
        for (gi, g) in self.module.globals.iter().enumerate() {
            if let GlobalKind::Output(i) = g.kind {
                let desc = TensorDesc::new(vec![g.elems], g.dtype);
                let t = Tensor::from_parts(desc, globals[gi].clone())
                    .map_err(|e| ExecError(format!("output {i}: {e}")))?;
                outs.push((i, t));
            }
        }
        outs.sort_by_key(|(i, _)| *i);

        // Return the state to the idle pool for the next call; beyond
        // the cap, drop it — a retained state pins a full copy of the
        // globals (weights included) for the process lifetime.
        {
            let mut idle = self.states.lock().expect("state pool poisoned");
            if idle.len() < self.max_idle_states {
                idle.push(state);
            }
        }
        self.count(|c| &c.executions);

        stats.wall = wall0.elapsed();
        // Barriers are counted structurally (every executed parallel
        // region ends in one), so the number is meaningful even when
        // the host pool degenerates to a single thread.
        stats.barriers = self
            .module
            .main_calls
            .iter()
            .map(|c| parallel_regions(&self.module.funcs[c.func].body, 1))
            .sum();
        stats.func_calls = self.module.main_calls.len() as u64;
        stats.peak_temp_bytes = self
            .module
            .globals
            .iter()
            .filter(|g| g.kind == GlobalKind::Scratch)
            .map(|g| g.elems * g.dtype.size_bytes())
            .sum::<usize>()
            + self
                .module
                .funcs
                .iter()
                .map(crate::ir::Func::local_bytes)
                .max()
                .unwrap_or(0);
        Ok((outs.into_iter().map(|(_, t)| t).collect(), stats))
    }

    /// Project one steady-state execution (init excluded) on `machine`.
    pub fn project(&self, machine: &MachineDescriptor) -> Projection {
        project(&self.module, machine, self.dispatch_count)
    }
}

/// Copy the call's input tensors into their persistent global slots.
/// Inputs were already validated against the descriptors, so the
/// in-place `copy_from` cannot panic.
fn install_inputs(module: &Module, globals: &mut [Storage], inputs: &[Tensor]) {
    for (gi, g) in module.globals.iter().enumerate() {
        if let GlobalKind::Input(i) = g.kind {
            globals[gi].copy_from(inputs[i].storage());
        }
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
    use crate::ir::{BufDecl, BufId, Call, Func, GlobalDecl, Intrinsic, Op, Stmt, View};
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
                Op::Unary {
                    op: UnaryOp::Square,
                    len: 8,
                },
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
                Op::Binary {
                    op: gc_microkernel::BinaryOp::Add,
                    len: 8,
                },
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
        // exactly one init computation across both executables
        assert_eq!(cache.compute_count(), 1);
        assert_eq!(exe1.init_runs() + exe2.init_runs(), 1);
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
                    Op::Unary {
                        op: UnaryOp::Relu,
                        len: 4,
                    },
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
}
