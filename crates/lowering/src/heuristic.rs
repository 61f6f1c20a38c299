//! The expert-tuned parameter heuristic.
//!
//! "For a given output matrix size, it first proposes single-core kernel
//! size options, a set of [MPN, NPN], which can use all cores with good
//! load balance. It further proposes microkernel size options, a set of
//! [MB, NB, KB, BS], which ensure good microkernel performance. Then the
//! heuristic picks a pair of these sizes [...] based on a cost model
//! which considers multi-core load balancing and single-core kernel
//! efficiency."
//!
//! The search is an exact branch-and-bound ([`choose_params`]) over a
//! two-level enumeration — microkernel tiles, then the parallel
//! decompositions of each — that [`choose_params_ranked`] walks
//! unpruned; DESIGN.md "Parameter search" has the bound and why it is
//! admissible.

use crate::params::{divisors, MatmulParams, MatmulProblem};
use gc_machine::{cost, MachineDescriptor};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Constraints the surrounding graph imposes on the decomposition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Constraints {
    /// Force `NPN = 1` (reduction post-ops along n, or membership in a
    /// coarse-fusion group whose members must share a row-only task
    /// decomposition).
    pub full_n_per_task: bool,
    /// Force a specific `MB` so chained fused ops share blocking.
    pub fixed_mb: Option<usize>,
    /// Force a specific `KB` (layout propagation: a chained matmul reads
    /// its producer's blocked output, so `KB` must equal the producer's
    /// `NB`).
    pub fixed_kb: Option<usize>,
    /// Force a specific task count (coarse-fusion groups share one
    /// parallel loop, so every member must decompose into the same
    /// number of tasks).
    pub fixed_tasks: Option<usize>,
    /// Permit `MB` that does not divide m: the edge row of tiles is
    /// zero-padded at pack time and the clamped output store drops the
    /// pad rows. Only safe when the lowering context can emit clamped
    /// packs/stores (plain A input, plain output).
    pub allow_ragged_m: bool,
    /// Permit `NB` that does not divide n (pad-and-go only: the
    /// prepacked weight and the int8 compensation are padded to whole
    /// `NB` panels; the clamped output store drops the pad columns).
    pub allow_ragged_n: bool,
}

/// One recorded template-parameter decision: the problem, the
/// constraints the surrounding graph imposed, and the parameters the
/// search (or a tuned override) settled on. `(problem, constraints)`
/// is the stable identity of a choice point — it is what the tuning
/// database keys overrides by, and what [`ParamLog`] records so a
/// warm-started compile can be checked for bit-identical selections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamChoice {
    /// The matmul problem at this choice point.
    pub problem: MatmulProblem,
    /// The constraints in effect when the choice was made.
    pub constraints: Constraints,
    /// The parameters chosen.
    pub params: MatmulParams,
}

/// A shared, thread-safe recorder of every parameter decision lowering
/// makes (observability hook for the tuning orchestrator and tests).
pub type ParamLog = Arc<Mutex<Vec<ParamChoice>>>;

/// Measured-tuning overrides: winners keyed by the exact
/// `(problem, constraints)` choice point they were measured under.
/// Lowering consults this map before running the analytic search, so a
/// tuned compile reproduces the measured parameters without
/// re-measuring anything.
#[derive(Debug, Clone, Default)]
pub struct ParamOverrides {
    map: HashMap<(MatmulProblem, Constraints), MatmulParams>,
}

impl ParamOverrides {
    /// An empty override set.
    pub fn new() -> Self {
        ParamOverrides::default()
    }

    /// Register (or replace) the override for one choice point.
    pub fn insert(
        &mut self,
        problem: MatmulProblem,
        constraints: Constraints,
        params: MatmulParams,
    ) {
        self.map.insert((problem, constraints), params);
    }

    /// The override for a choice point, if any.
    pub fn get(&self, problem: &MatmulProblem, constraints: &Constraints) -> Option<MatmulParams> {
        self.map.get(&(*problem, *constraints)).copied()
    }

    /// Number of overridden choice points.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no overrides are registered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// The canonical tie-break key: under equal projected cost the search
/// prefers the lexicographically smallest `(mb, nb, kb, bs, mpn, npn)`
/// tuple, making selection independent of candidate enumeration order
/// (and therefore stable across refactors of the search loops — a
/// requirement for persistent tuning-database keys).
fn canonical_key(p: &MatmulParams) -> (usize, usize, usize, usize, usize, usize) {
    (p.mb, p.nb, p.kb, p.bs, p.mpn, p.npn)
}

/// Deterministic total order on scored candidates: `f64::total_cmp` on
/// cost (no incomparable NaN holes), then the canonical parameter key.
fn scored_cmp(a: &(f64, MatmulParams), b: &(f64, MatmulParams)) -> Ordering {
    a.0.total_cmp(&b.0)
        .then_with(|| canonical_key(&a.1).cmp(&canonical_key(&b.1)))
}

/// Fold one scored candidate into the running best under [`scored_cmp`].
fn fold_best(best: &mut Option<(f64, MatmulParams)>, c: f64, p: MatmulParams) {
    match best {
        Some(b) if scored_cmp(b, &(c, p)) != Ordering::Greater => {}
        _ => *best = Some((c, p)),
    }
}

/// Deterministic counts of the work one or more parameter searches did
/// (no timing). A *tile* is one `(mb, nb, kb, bs)` microkernel shape;
/// each tile fans out into `(mpn, npn)` decompositions, and
/// only those are *scored* with the full cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Branch-and-bound searches run.
    pub queries: usize,
    /// Tiles enumerated.
    pub tiles: usize,
    /// Tiles skipped because their lower bound exceeded the incumbent.
    pub tiles_pruned: usize,
    /// Candidates scored with the full cost model.
    pub scored: usize,
}

impl std::ops::AddAssign for SearchStats {
    fn add_assign(&mut self, o: SearchStats) {
        self.queries += o.queries;
        self.tiles += o.tiles;
        self.tiles_pruned += o.tiles_pruned;
        self.scored += o.scored;
    }
}

/// Pick template parameters for `problem` on `machine`.
///
/// The returned parameters always validate against the problem.
/// Selection is a deterministic total order: candidates are compared by
/// [`estimate_cycles`] under `f64::total_cmp`, with cost ties broken on
/// the canonical `(mb, nb, kb, bs, mpn, npn)` parameter tuple — the
/// result never depends on enumeration order, and is exactly the head
/// of [`choose_params_ranked`].
pub fn choose_params(
    machine: &MachineDescriptor,
    problem: &MatmulProblem,
    constraints: &Constraints,
) -> MatmulParams {
    search(machine, problem, constraints).0
}

/// Relative slack on the prune test. The bound and the cost it bounds
/// are the same real-valued terms rounded along different paths (about
/// five operations each), so the computed bound can exceed the computed
/// cost of a candidate it truly bounds by a few ulps; a tile is pruned
/// only when its bound clears the incumbent by more than that.
const BOUND_SLACK: f64 = 1.0 - 16.0 * f64::EPSILON;

/// Exact branch-and-bound over the candidate space of
/// [`for_each_tile`]: a tile whose [`TileCost::lower_bound`] is
/// *strictly* greater than the incumbent's cost cannot hold the argmin
/// nor tie with it, so skipping it leaves the `(cost, canonical key)`
/// minimum — what the exhaustive walk of [`choose_params_ranked`]
/// returns — unchanged.
pub(crate) fn search(
    machine: &MachineDescriptor,
    problem: &MatmulProblem,
    constraints: &Constraints,
) -> (MatmulParams, SearchStats) {
    let mut best: Option<(f64, MatmulParams)> = None;
    let mut stats = SearchStats {
        queries: 1,
        ..SearchStats::default()
    };
    for_each_tile(machine, problem, constraints, &mut |tile| {
        stats.tiles += 1;
        let cost = TileCost::new(machine, problem, tile.mb, tile.nb, tile.kb, tile.bs);
        if let Some((incumbent, _)) = best {
            if cost.lower_bound(machine, problem) * BOUND_SLACK > incumbent {
                stats.tiles_pruned += 1;
                return;
            }
        }
        tile.for_each_decomposition(machine, problem, constraints, &mut |p| {
            stats.scored += 1;
            fold_best(&mut best, cost.cycles(machine, problem, &p), p);
        });
    });
    let p = best
        .expect("at least the all-ones decomposition is valid")
        .1;
    debug_assert!(p.validate(problem).is_ok());
    (p, stats)
}

/// The ranked top-`k` candidates for `problem`, cheapest first.
///
/// This is the cost-model *pruning* half of measured autotuning: the
/// analytic model shortlists `k` plausible instantiations, and the
/// tuning orchestrator re-scores the shortlist on the cache simulator
/// and wall clock. It walks every candidate unpruned, which also makes
/// it the differential oracle for the branch-and-bound:
/// `choose_params` is exactly the head of this list. The ordering is
/// the same deterministic total order `choose_params` uses, so rank 0
/// is stable across runs.
pub fn choose_params_ranked(
    machine: &MachineDescriptor,
    problem: &MatmulProblem,
    constraints: &Constraints,
    k: usize,
) -> Vec<MatmulParams> {
    let mut scored: Vec<(f64, MatmulParams)> = Vec::new();
    for_each_candidate(machine, problem, constraints, &mut |p| {
        scored.push((estimate_cycles(machine, problem, &p), p));
    });
    scored.sort_by(scored_cmp);
    scored.dedup_by(|a, b| a.1 == b.1);
    scored.truncate(k);
    scored.into_iter().map(|(_, p)| p).collect()
}

/// Enumerate every valid instantiation for `problem` under
/// `constraints`, calling `f` on each: the unpruned walk of the
/// two-level enumerator [`search`] branches and bounds over.
fn for_each_candidate(
    machine: &MachineDescriptor,
    problem: &MatmulProblem,
    constraints: &Constraints,
    f: &mut impl FnMut(MatmulParams),
) {
    for_each_tile(machine, problem, constraints, &mut |tile| {
        tile.for_each_decomposition(machine, problem, constraints, f);
    });
}

/// One block-size candidate along an axis, with everything the inner
/// loops need about it computed once per query.
struct AxisBlock {
    block: usize,
    /// Divisors of the whole-or-padded tile count, ascending: the
    /// parallel-decomposition (and, along k, batch-size) candidates.
    divs: Vec<usize>,
}

/// The blocks to try along one axis ([`tile_candidates`]). A `fixed`
/// block replaces the menu: it is the only candidate, and only if the
/// menu holds it or it divides `dim`.
fn axis_blocks(
    dim: usize,
    prefer: &[usize],
    ragged: bool,
    whole_max: usize,
    fixed: Option<usize>,
) -> Vec<AxisBlock> {
    let mut blocks = tile_candidates(dim, prefer, ragged, whole_max);
    if let Some(f) = fixed {
        let feasible = blocks.contains(&f) || dim.is_multiple_of(f);
        blocks.clear();
        if feasible {
            blocks.push(f);
        }
    }
    blocks
        .into_iter()
        .map(|block| AxisBlock {
            block,
            divs: divisors(dim.div_ceil(block)),
        })
        .collect()
}

/// The tile level of the enumeration: one microkernel shape
/// `(mb, nb, kb, bs)` plus the decomposition ranges it admits.
struct Tile<'a> {
    mb: usize,
    nb: usize,
    kb: usize,
    bs: usize,
    /// `MPN` candidates (divisors of the m-tile count).
    mpns: &'a [usize],
    /// `NPN` candidates (divisors of the n-tile count; just `1` under
    /// `full_n_per_task`).
    npns: &'a [usize],
}

/// Enumerate the `(mb, nb, kb, bs)` tiles for `problem`, with the
/// constraints applied by construction: `fixed_mb` / `fixed_kb` pin an
/// axis to one block and `full_n_per_task` pins `NPN` to 1.
fn for_each_tile(
    machine: &MachineDescriptor,
    problem: &MatmulProblem,
    constraints: &Constraints,
    f: &mut impl FnMut(&Tile<'_>),
) {
    let ms = axis_blocks(
        problem.m,
        &[64, 48, 32, 16, 8, 4, 2, 1],
        constraints.allow_ragged_m,
        1024,
        constraints.fixed_mb,
    );
    // nb candidates are lane-aligned for the target machine: whole
    // multiples of the SIMD width first (4/3/2/1 registers of columns),
    // then the generic power-of-two ladder. On a 16-lane AVX-512
    // machine the multiples are 64/48/32/16 — exactly the head of the
    // generic list — while a 4-lane NEON machine also proposes 12,
    // keeping the register tile dense at narrow widths.
    let lanes = machine.f32_lanes().max(1);
    let mut n_prefer: Vec<usize> = [4usize, 3, 2, 1].iter().map(|&r| r * lanes).collect();
    for &b in &[64, 48, 32, 16, 8, 4, 2, 1] {
        if !n_prefer.contains(&b) {
            n_prefer.push(b);
        }
    }
    let ns = axis_blocks(problem.n, &n_prefer, constraints.allow_ragged_n, 1024, None);
    // KB always divides k, and the whole depth stays on the menu at any
    // size: the k-vectorised brgemm body finishes any depth with one
    // masked step, so a prime k never degenerates to KB = 1.
    let ks = axis_blocks(
        problem.k,
        &[256, 128, 64, 32, 16, 8, 4, 2, 1],
        false,
        usize::MAX,
        constraints.fixed_kb,
    );

    for m in &ms {
        for n in &ns {
            let npns = if constraints.full_n_per_task {
                &n.divs[..n.divs.len().min(1)]
            } else {
                &n.divs[..]
            };
            for k in &ks {
                for &bs in k.divs.iter().take_while(|&&bs| bs <= 8) {
                    f(&Tile {
                        mb: m.block,
                        nb: n.block,
                        kb: k.block,
                        bs,
                        mpns: &m.divs,
                        npns,
                    });
                }
            }
        }
    }
}

impl Tile<'_> {
    /// The decomposition level: every `(mpn, npn)` this tile admits.
    /// `fixed_tasks` solves for `NPN` instead of walking the
    /// `MPN x NPN` grid for matches.
    fn for_each_decomposition(
        &self,
        machine: &MachineDescriptor,
        problem: &MatmulProblem,
        constraints: &Constraints,
        f: &mut impl FnMut(MatmulParams),
    ) {
        for &mpn in self.mpns {
            let solved;
            let npns = match constraints.fixed_tasks {
                Some(ft) => {
                    let per_npn = problem.batch * mpn;
                    if !ft.is_multiple_of(per_npn) || !self.npns.contains(&(ft / per_npn)) {
                        continue;
                    }
                    solved = [ft / per_npn];
                    &solved[..]
                }
                None => self.npns,
            };
            for &npn in npns {
                let tasks = problem.batch * mpn * npn;
                if constraints.fixed_tasks.is_none()
                    && tasks > 4 * machine.cores
                    && tasks > problem.batch
                {
                    // npn ascends, so every later one oversubscribes too
                    break;
                }
                f(MatmulParams {
                    mpn,
                    npn,
                    mb: self.mb,
                    nb: self.nb,
                    kb: self.kb,
                    bs: self.bs,
                });
            }
        }
    }
}

/// Block-size candidates for one dimension.
///
/// Without `ragged`, only divisors of `dim` from the preferred list
/// qualify, plus `dim` itself when it is at most `whole_max`: a prime
/// m or n above that degenerates to a block of 1. With `ragged`, every
/// preferred size no larger than `dim` qualifies: the near-target
/// non-divisors (e.g. `mb = 32` for m = 255) cost a padded edge tile
/// but keep the microkernel on its tuned tile shape.
fn tile_candidates(dim: usize, prefer: &[usize], ragged: bool, whole_max: usize) -> Vec<usize> {
    let mut out: Vec<usize> = prefer
        .iter()
        .copied()
        .filter(|&b| b <= dim && (ragged || dim.is_multiple_of(b)))
        .collect();
    if out.is_empty() {
        out.push(crate::largest_divisor_at_most(
            dim,
            *prefer.first().unwrap_or(&64),
        ));
    }
    if !out.contains(&dim) && dim <= whole_max {
        out.push(dim);
    }
    out.dedup();
    out
}

/// Cost model for one instantiation: compute / balance + memory traffic
/// + per-kernel overheads.
///
/// Ragged dimensions are priced physically: pad-and-go sweeps (and
/// streams) the padded extents, wasting `pad/dim` of the work on dead
/// rows/columns.
pub fn estimate_cycles(
    machine: &MachineDescriptor,
    problem: &MatmulProblem,
    p: &MatmulParams,
) -> f64 {
    TileCost::new(machine, problem, p.mb, p.nb, p.kb, p.bs).cycles(machine, problem, p)
}

/// Fixed cycles of one microkernel call (loop bookkeeping, argument
/// setup).
const CALL_CYCLES: f64 = 40.0;

/// The terms of [`estimate_cycles`] that depend only on the tile
/// `(mb, nb, kb, bs)`, computed once and shared by every decomposition
/// of it — and by the tile's [lower bound](TileCost::lower_bound).
struct TileCost {
    mb: usize,
    nb: usize,
    m_tiles: usize,
    n_tiles: usize,
    k_chunks: usize,
    /// Total flops and microkernel efficiency: pad-and-go sweeps the
    /// padded rows at the full tile's efficiency.
    work: (f64, f64),
}

impl TileCost {
    fn new(
        machine: &MachineDescriptor,
        problem: &MatmulProblem,
        mb: usize,
        nb: usize,
        kb: usize,
        bs: usize,
    ) -> Self {
        let m_tiles = problem.m.div_ceil(mb);
        let n_tiles = problem.n.div_ceil(nb);
        let k_tiles = problem.k / kb;
        let n_pad = n_tiles * nb;
        let flops = 2.0 * (problem.batch * m_tiles * mb * n_pad * problem.k) as f64;
        let eff = cost::microkernel_efficiency(machine, mb, nb, kb, bs, problem.elem_bytes);
        TileCost {
            mb,
            nb,
            m_tiles,
            n_tiles,
            k_chunks: k_tiles / bs,
            work: (flops, eff),
        }
    }

    /// Projected cycles of the decomposition `(mpn, npn)` of this tile.
    fn cycles(
        &self,
        machine: &MachineDescriptor,
        problem: &MatmulProblem,
        p: &MatmulParams,
    ) -> f64 {
        let tasks = problem.batch * p.tasks();
        let (flops, eff) = self.work;
        // Tasks beyond the core count just queue: the wall-clock is the
        // per-task cost times the number of waves.
        let waves = tasks.div_ceil(machine.cores) as f64;
        let flops_per_task = flops / tasks as f64;
        let compute =
            waves * cost::compute_cycles(machine, flops_per_task, problem.elem_bytes, eff);
        // memory traffic per task. The single-core kernel walks: for each of
        // its MSN m-tiles, the whole task B slice (re-read each sweep, from
        // whichever cache level holds it) and the m-tile's A panels. Packed
        // buffers hold the padded extents, so traffic is padded too.
        let msn = (self.m_tiles / p.mpn).max(1);
        let nsn = (self.n_tiles / p.npn).max(1);
        let a_bytes = (msn * self.mb * problem.k * problem.elem_bytes) as f64;
        let b_slice = (nsn * self.nb * problem.k * problem.elem_bytes) as f64;
        let c_bytes = (msn * self.mb * nsn * self.nb * 4) as f64;
        // bandwidth tier by residency: a slice that stays in L2 / the LLC
        // slice moves at cache bandwidth, not DRAM bandwidth
        let tier = |bytes: f64| -> f64 {
            if bytes as usize <= machine.l2_bytes() {
                cost::l2_stream_cycles(machine, bytes)
            } else if bytes as usize <= machine.llc_bytes() / machine.cores.max(1) {
                cost::llc_stream_cycles(machine, bytes)
            } else {
                cost::stream_cycles(machine, bytes)
            }
        };
        // Splitting the reduction into several k-chunks accumulates into C
        // with beta=1: every chunk past the first re-reads and re-writes
        // the task's C tile. With the whole accumulator state in flight the
        // traffic rarely stays L1-resident, so this is what makes a deep
        // single chunk (even one slightly over L1) beat many shallow ones.
        let k_chunks = self.k_chunks.max(1);
        let chunks = k_chunks as f64;
        let mem = waves
            * (tier(a_bytes)
                + msn as f64 * tier(b_slice)
                + tier(c_bytes)
                + (chunks - 1.0) * 2.0 * tier(c_bytes));
        // per-microkernel-call fixed overhead
        let calls = waves * (msn * nsn * k_chunks) as f64;
        compute.max(mem) + calls * CALL_CYCLES + cost::barrier_cycles(machine)
    }

    /// A lower bound on [`TileCost::cycles`] over every decomposition
    /// the enumerator emits for this tile: the compute and call-overhead
    /// terms at perfect balance. Admissible because `waves / tasks >=
    /// 1 / cores` (so `compute >= compute_cycles(flops / cores)` and
    /// `calls >= batch * m_tiles * n_tiles * k_chunks / cores`, the
    /// decomposition factors dividing their tile counts), and what is
    /// dropped — memory over compute — is non-negative. Any edit to
    /// `cycles` must keep this true; `bound_is_admissible_on_sweep`
    /// checks it.
    fn lower_bound(&self, machine: &MachineDescriptor, problem: &MatmulProblem) -> f64 {
        let cores = machine.cores as f64;
        let (flops, eff) = self.work;
        let compute = cost::compute_cycles(machine, flops / cores, problem.elem_bytes, eff);
        let calls = (problem.batch * self.m_tiles * self.n_tiles * self.k_chunks) as f64;
        compute + CALL_CYCLES * calls / cores + cost::barrier_cycles(machine)
    }
}

/// Parameter selection emulating a primitives *library*: a fixed menu
/// of mature kernels (`MB`/`NB`/`KB` from a small set) rather than the
/// compiler's free search. Used by the baseline.
pub fn choose_params_library(
    machine: &MachineDescriptor,
    problem: &MatmulProblem,
    constraints: &Constraints,
) -> MatmulParams {
    fn menu(dim: usize, menu: &[usize], fallback_cap: usize) -> Vec<usize> {
        let mut out: Vec<usize> = menu
            .iter()
            .copied()
            .filter(|&b| b <= dim && dim.is_multiple_of(b))
            .collect();
        if out.is_empty() {
            out.push(crate::largest_divisor_at_most(dim, fallback_cap));
        }
        out
    }
    let mbs = menu(problem.m, &[32, 16], 32);
    let nbs = menu(problem.n, &[64, 32, 16], 64);
    // the library's mature kernels handle long reduction tails, so the
    // fallback accepts whatever divisor keeps one kernel per panel
    let kbs = menu(problem.k, &[64, 32], 512);
    let mut best: Option<(f64, MatmulParams)> = None;
    for &mb in &mbs {
        for &nb in &nbs {
            for &kb in &kbs {
                let k_tiles = problem.k / kb;
                for bs in divisors(k_tiles) {
                    if bs > 4 {
                        continue;
                    }
                    for mpn in divisors(problem.m / mb) {
                        for npn in divisors(problem.n / nb) {
                            if constraints.full_n_per_task && npn != 1 {
                                continue;
                            }
                            let tasks = problem.batch * mpn * npn;
                            if tasks > 4 * machine.cores && tasks > problem.batch {
                                continue;
                            }
                            // the library menu has no edge-tile kernels
                            // (divisor-only blocking, like a fixed
                            // primitive set)
                            let p = MatmulParams {
                                mpn,
                                npn,
                                mb,
                                nb,
                                kb,
                                bs,
                            };
                            fold_best(&mut best, estimate_cycles(machine, problem, &p), p);
                        }
                    }
                }
            }
        }
    }
    best.expect("library menu always yields a valid decomposition")
        .1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xeon() -> MachineDescriptor {
        MachineDescriptor::xeon_8358()
    }

    #[test]
    fn params_validate_for_mlp_shapes() {
        let machine = xeon();
        for &(m, n, k) in &[
            (512usize, 512usize, 13usize),
            (512, 256, 512),
            (128, 128, 256),
            (32, 512, 13),
            (256, 1024, 479),
            (512, 1, 256),
        ] {
            for eb in [4usize, 1] {
                let prob = MatmulProblem::new(m, n, k, eb);
                let p = choose_params(&machine, &prob, &Constraints::default());
                p.validate(&prob).unwrap_or_else(|e| {
                    panic!("invalid params for {m}x{n}x{k} eb{eb}: {e} ({p:?})")
                });
            }
        }
    }

    #[test]
    fn machine_presets_diverge_on_mlp1() {
        // The point of threading the ISA through MachineDescriptor: the
        // same MLP_1 layers must lower to genuinely different template
        // parameters on the 16-lane Xeon vs the 4-lane NEON preset —
        // not just a scaled cost. Pin that at least one layer's chosen
        // tile differs, and that the NEON choice is 4-lane-aligned.
        let xeon = MachineDescriptor::xeon_8358();
        let arm = MachineDescriptor::aarch64_small();
        let mut diverged = 0;
        // MLP_1 (Table 1): 13 -> 512 -> 256 -> 128, batch 256.
        for &(m, n, k) in &[
            (256usize, 512usize, 13usize),
            (256, 256, 512),
            (256, 128, 256),
        ] {
            let prob = MatmulProblem::new(m, n, k, 4);
            let cons = Constraints::default();
            let px = choose_params(&xeon, &prob, &cons);
            let pa = choose_params(&arm, &prob, &cons);
            px.validate(&prob).unwrap();
            pa.validate(&prob).unwrap();
            assert!(pa.nb.is_multiple_of(4), "NEON nb off the lane grid: {pa:?}");
            if (px.mb, px.nb, px.kb, px.bs) != (pa.mb, pa.nb, pa.kb, pa.bs) {
                diverged += 1;
            }
        }
        assert!(
            diverged > 0,
            "xeon and aarch64 presets chose identical microkernel tiles on every MLP_1 layer"
        );
    }

    #[test]
    fn uses_many_cores_when_possible() {
        let machine = xeon();
        let prob = MatmulProblem::new(512, 512, 512, 4);
        let p = choose_params(&machine, &prob, &Constraints::default());
        assert!(p.tasks() >= machine.cores / 2, "{p:?}");
    }

    #[test]
    fn small_batch_uses_n_parallelism() {
        let machine = xeon();
        // M = 32: not enough rows for 32 cores with big MB
        let prob = MatmulProblem::new(32, 512, 512, 4);
        let p = choose_params(&machine, &prob, &Constraints::default());
        assert!(p.tasks() >= 8, "{p:?}");
    }

    #[test]
    fn full_n_constraint_respected() {
        let machine = xeon();
        let prob = MatmulProblem::new(32, 512, 512, 4);
        let c = Constraints {
            full_n_per_task: true,
            ..Constraints::default()
        };
        let p = choose_params(&machine, &prob, &c);
        assert_eq!(p.npn, 1);
    }

    #[test]
    fn fixed_mb_and_tasks_respected() {
        let machine = xeon();
        let prob = MatmulProblem::new(128, 512, 512, 4);
        let c = Constraints {
            full_n_per_task: true,
            fixed_mb: Some(4),
            fixed_tasks: Some(32),
            ..Constraints::default()
        };
        let p = choose_params(&machine, &prob, &c);
        assert_eq!(p.mb, 4);
        assert_eq!(p.npn, 1);
        assert_eq!(p.mpn * prob.batch, 32);
    }

    #[test]
    fn batched_problem_counts_batch_parallelism() {
        let machine = xeon();
        // 256 batch matrices: batch alone saturates the cores
        let prob = MatmulProblem::batched(256, 128, 128, 64, 4);
        let p = choose_params(&machine, &prob, &Constraints::default());
        p.validate(&prob).unwrap();
        assert!(prob.batch * p.tasks() >= machine.cores);
    }

    #[test]
    fn prime_m_degenerate_without_ragged_near_target_with() {
        let machine = xeon();
        let ragged_c = Constraints {
            allow_ragged_m: true,
            allow_ragged_n: true,
            ..Constraints::default()
        };
        // f32: a prime m = 479 forces mb = 1 (a one-row register tile)
        // or mb = 479 (one m tile, no row parallelism) on the
        // divisor-only search.
        let prob = MatmulProblem::new(479, 1024, 256, 4);
        let p = choose_params(&machine, &prob, &Constraints::default());
        assert!(p.mb == 1 || p.mb == 479, "{p:?}");
        p.validate(&prob).unwrap();
        // With ragged m allowed, the search takes a near-target block
        // with a padded edge tile instead of the degenerate
        // extremes.
        let ragged = choose_params(&machine, &prob, &ragged_c);
        ragged.validate(&prob).unwrap();
        assert!(
            ragged.mb != 1 && ragged.mb != 479,
            "ragged search must escape degenerate prime blocking, got {ragged:?}"
        );
        assert!(
            estimate_cycles(&machine, &prob, &ragged) < estimate_cycles(&machine, &prob, &p),
            "edge-tiled blocking must beat degenerate blocking in the model"
        );
        // The ragged search considers a superset of candidates, so it
        // can never do worse, int8 included.
        let prob_i8 = MatmulProblem::new(479, 1024, 256, 1);
        let p_i8 = choose_params(&machine, &prob_i8, &Constraints::default());
        let ragged_i8 = choose_params(&machine, &prob_i8, &ragged_c);
        ragged_i8.validate(&prob_i8).unwrap();
        assert!(
            estimate_cycles(&machine, &prob_i8, &ragged_i8)
                <= estimate_cycles(&machine, &prob_i8, &p_i8)
        );
    }

    /// A prime k past the menu's top still offers `kb = k` (the whole
    /// depth in one block), not only `kb = 1`.
    #[test]
    fn prime_k_keeps_the_whole_depth_on_the_menu() {
        let machine = xeon();
        for eb in [4usize, 1] {
            let prob = MatmulProblem::new(64, 256, 1031, eb);
            let p = choose_params(&machine, &prob, &Constraints::default());
            p.validate(&prob).unwrap();
            assert_eq!(p.kb, 1031, "eb {eb}: {p:?}");
        }
    }

    #[test]
    fn ragged_flags_off_keeps_divisor_blocking() {
        let machine = xeon();
        let prob = MatmulProblem::new(500, 512, 512, 4);
        let p = choose_params(&machine, &prob, &Constraints::default());
        assert!(
            prob.m.is_multiple_of(p.mb),
            "without allow_ragged_m the blocking must stay exact, got {p:?}"
        );
    }

    #[test]
    fn int8_and_f32_both_work() {
        let machine = xeon();
        let prob_f = MatmulProblem::new(512, 512, 256, 4);
        let prob_i = MatmulProblem::new(512, 512, 256, 1);
        let pf = choose_params(&machine, &prob_f, &Constraints::default());
        let pi = choose_params(&machine, &prob_i, &Constraints::default());
        pf.validate(&prob_f).unwrap();
        pi.validate(&prob_i).unwrap();
    }

    /// Satellite regression: selection must be a pure function of the
    /// candidate *set*, not the enumeration order. Fold the same scored
    /// candidate list in several permutations and require the identical
    /// winner each time (the old `c < best` argmin kept the first-seen
    /// candidate on cost ties, so a reordered search could silently
    /// change the chosen params — poison for a persistent tuning DB).
    #[test]
    fn selection_is_permutation_invariant() {
        let machine = xeon();
        for &(m, n, k, eb) in &[
            (512usize, 256usize, 512usize, 4usize),
            (16, 256, 512, 4),
            (255, 512, 512, 4),
            (256, 1024, 479, 1),
        ] {
            let problem = MatmulProblem::new(m, n, k, eb);
            let constraints = Constraints {
                allow_ragged_m: true,
                allow_ragged_n: true,
                ..Constraints::default()
            };
            let mut cands: Vec<MatmulParams> = Vec::new();
            for_each_candidate(&machine, &problem, &constraints, &mut |p| cands.push(p));
            let pick = |order: &[MatmulParams]| -> MatmulParams {
                let mut best = None;
                for p in order {
                    fold_best(&mut best, estimate_cycles(&machine, &problem, p), *p);
                }
                best.unwrap().1
            };
            let reference = pick(&cands);
            assert_eq!(
                reference,
                choose_params(&machine, &problem, &constraints),
                "fold must agree with choose_params"
            );
            let mut reversed = cands.clone();
            reversed.reverse();
            assert_eq!(reference, pick(&reversed), "reversed order changed pick");
            let mut rotated = cands.clone();
            rotated.rotate_left(cands.len() / 3);
            assert_eq!(reference, pick(&rotated), "rotated order changed pick");
            let mut interleaved: Vec<MatmulParams> = Vec::with_capacity(cands.len());
            let half = cands.len() / 2;
            for i in 0..half {
                interleaved.push(cands[half + i]);
                interleaved.push(cands[i]);
            }
            interleaved.extend_from_slice(&cands[2 * half..]);
            assert_eq!(
                reference,
                pick(&interleaved),
                "interleaved order changed pick"
            );
        }
    }

    /// Exact cost ties resolve to the canonical smallest parameter
    /// tuple regardless of which candidate is folded first.
    #[test]
    fn ties_break_on_canonical_key() {
        let a = MatmulParams {
            mpn: 2,
            npn: 1,
            mb: 16,
            nb: 32,
            kb: 64,
            bs: 1,
        };
        let b = MatmulParams { mb: 32, ..a };
        // identical cost, either insertion order: the mb=16 candidate
        // has the smaller canonical key and must win both times
        let mut first = None;
        fold_best(&mut first, 100.0, a);
        fold_best(&mut first, 100.0, b);
        let mut second = None;
        fold_best(&mut second, 100.0, b);
        fold_best(&mut second, 100.0, a);
        assert_eq!(first.unwrap().1, a);
        assert_eq!(second.unwrap().1, a);
    }

    /// The ranked list is deterministic, deduplicated, cheapest-first,
    /// and headed by exactly the `choose_params` winner.
    #[test]
    fn ranked_list_is_sorted_and_deterministic() {
        let machine = xeon();
        for &(m, n, k) in &[(512usize, 256usize, 512usize), (16, 256, 512)] {
            let problem = MatmulProblem::new(m, n, k, 4);
            let constraints = Constraints::default();
            let top = choose_params_ranked(&machine, &problem, &constraints, 8);
            assert!(!top.is_empty() && top.len() <= 8);
            assert_eq!(top[0], choose_params(&machine, &problem, &constraints));
            assert_eq!(
                top,
                choose_params_ranked(&machine, &problem, &constraints, 8)
            );
            for w in top.windows(2) {
                assert_ne!(w[0], w[1], "ranked list must not repeat candidates");
                let c0 = estimate_cycles(&machine, &problem, &w[0]);
                let c1 = estimate_cycles(&machine, &problem, &w[1]);
                assert!(c0 <= c1, "ranked list must be cheapest-first");
            }
            for p in &top {
                p.validate(&problem).unwrap();
            }
        }
    }

    /// The exactness sweep: machine presets x Table-1 layer shapes,
    /// primes and non-divisors x dtype x every free flag combination,
    /// plus the pinned shapes lowering issues (a coarse group's
    /// `fixed_mb + fixed_tasks`, a blocked-A chain's `fixed_mb +
    /// fixed_kb`, and both). A debug build (tier-1) keeps one large
    /// problem per dtype on the Xeon and walks the small ones in full;
    /// CI runs the whole sweep in release.
    fn sweep() -> Vec<(MachineDescriptor, MatmulProblem, Constraints)> {
        let full = !cfg!(debug_assertions);
        let machines = [
            xeon(),
            MachineDescriptor::aarch64_small(),
            MachineDescriptor::small_generic(),
        ];
        let flags = |bits: u32| Constraints {
            full_n_per_task: bits & 1 != 0,
            allow_ragged_m: bits & 2 != 0,
            allow_ragged_n: bits & 4 != 0,
            ..Constraints::default()
        };
        let mut cases = Vec::new();
        for (mi, machine) in machines.iter().enumerate() {
            for eb in [1usize, 4] {
                // (problem, large): MLP_2 at batch 128, MLP_1's first
                // layer at batch 1, the MHA batch matmuls, then shapes
                // no preferred block divides
                let problems = [
                    (MatmulProblem::new(128, 1024, 479, eb), true),
                    (MatmulProblem::new(128, 1024, 1024, eb), true),
                    (MatmulProblem::new(128, 512, 1024, eb), true),
                    (MatmulProblem::new(128, 256, 512, eb), true),
                    (MatmulProblem::new(128, 1, 256, eb), false),
                    (MatmulProblem::new(1, 512, 13, eb), false),
                    (MatmulProblem::batched(32, 128, 128, 96, eb), true),
                    (MatmulProblem::batched(32, 128, 96, 128, eb), true),
                    (MatmulProblem::new(100, 300, 479, eb), true),
                    (MatmulProblem::new(17, 1000, 77, eb), false),
                    (MatmulProblem::batched(4, 64, 64, 64, eb), false),
                ];
                for (problem, large) in problems {
                    let the_large_one = mi == 0 && (problem.n, problem.k) == (1024, 1024);
                    if !full && large && !the_large_one {
                        continue;
                    }
                    let free: Vec<u32> = if full || !large {
                        (0..8).collect()
                    } else {
                        vec![0, 6]
                    };
                    cases.extend(
                        free.into_iter()
                            .map(|b| (machine.clone(), problem, flags(b))),
                    );
                    for mb in [4usize, 32] {
                        if !problem.m.is_multiple_of(mb) {
                            continue;
                        }
                        let rows = machine.cores.div_ceil(problem.batch);
                        let grouped = Constraints {
                            full_n_per_task: true,
                            fixed_mb: Some(mb),
                            fixed_tasks: Some(
                                problem.batch
                                    * crate::largest_divisor_at_most(problem.m / mb, rows),
                            ),
                            ..Constraints::default()
                        };
                        cases.push((machine.clone(), problem, grouped));
                        for kb in [16usize, 64] {
                            if !problem.k.is_multiple_of(kb) {
                                continue;
                            }
                            let chained = Constraints {
                                fixed_mb: Some(mb),
                                fixed_kb: Some(kb),
                                ..Constraints::default()
                            };
                            cases.push((machine.clone(), problem, chained));
                            cases.push((
                                machine.clone(),
                                problem,
                                Constraints {
                                    fixed_kb: Some(kb),
                                    ..grouped
                                },
                            ));
                        }
                    }
                }
            }
        }
        cases
    }

    /// Branch-and-bound is exact: on the whole sweep `choose_params`
    /// returns the head of the unpruned ranked walk.
    #[test]
    fn ranked_head_matches_choose_params() {
        let mut pruned = 0usize;
        for (machine, problem, constraints) in sweep() {
            let oracle = choose_params_ranked(&machine, &problem, &constraints, 1);
            let Some(&head) = oracle.first() else {
                continue; // pinned blocks that admit no decomposition
            };
            let (got, stats) = search(&machine, &problem, &constraints);
            assert_eq!(got, head, "{problem:?} {constraints:?}");
            assert!(stats.tiles_pruned <= stats.tiles && stats.queries == 1);
            pruned += stats.tiles_pruned;
        }
        assert!(pruned > 0, "the sweep never exercised the bound");
    }

    /// What makes the pruning exact: a tile's bound never exceeds the
    /// cost of any decomposition of it (up to the prune test's slack).
    /// A cost-model edit that adds a term the bound forgets still
    /// passes this; one that *removes* or shrinks a term the bound
    /// counts fails here rather than silently changing plans.
    #[test]
    fn bound_is_admissible_on_sweep() {
        for (machine, problem, constraints) in sweep() {
            for_each_tile(&machine, &problem, &constraints, &mut |tile| {
                let cost = TileCost::new(&machine, &problem, tile.mb, tile.nb, tile.kb, tile.bs);
                let bound = cost.lower_bound(&machine, &problem) * BOUND_SLACK;
                tile.for_each_decomposition(&machine, &problem, &constraints, &mut |p| {
                    let c = estimate_cycles(&machine, &problem, &p);
                    assert!(
                        bound <= c,
                        "bound {bound} > cost {c} for {p:?} on {problem:?}"
                    );
                });
            });
        }
    }

    /// The cost model as one expression, before it was split into
    /// tile-level and decomposition-level terms: the reference the
    /// split [`estimate_cycles`] must reproduce bit for bit.
    fn estimate_cycles_monolithic(
        machine: &MachineDescriptor,
        problem: &MatmulProblem,
        p: &MatmulParams,
    ) -> f64 {
        let tasks = problem.batch * p.tasks();
        let m_pad = p.m_tiles(problem.m) * p.mb;
        let n_pad = p.n_tiles(problem.n) * p.nb;
        let k_pad = p.ksn(problem.k) * p.kb;
        let eff = cost::microkernel_efficiency(machine, p.mb, p.nb, p.kb, p.bs, problem.elem_bytes);
        let waves = tasks.div_ceil(machine.cores) as f64;
        let flops = 2.0 * (problem.batch * m_pad * n_pad * k_pad) as f64;
        let flops_per_task = flops / tasks as f64;
        let compute =
            waves * cost::compute_cycles(machine, flops_per_task, problem.elem_bytes, eff);
        let msn = p.msn(problem.m).max(1);
        let nsn = p.nsn(problem.n).max(1);
        let a_bytes = (msn * p.mb * k_pad * problem.elem_bytes) as f64;
        let b_slice = (nsn * p.nb * k_pad * problem.elem_bytes) as f64;
        let c_bytes = (msn * p.mb * nsn * p.nb * 4) as f64;
        let tier = |bytes: f64| -> f64 {
            if bytes as usize <= machine.l2_bytes() {
                cost::l2_stream_cycles(machine, bytes)
            } else if bytes as usize <= machine.llc_bytes() / machine.cores.max(1) {
                cost::llc_stream_cycles(machine, bytes)
            } else {
                cost::stream_cycles(machine, bytes)
            }
        };
        let chunks = p.k_chunks(problem.k).max(1) as f64;
        let mem = waves
            * (tier(a_bytes)
                + msn as f64 * tier(b_slice)
                + tier(c_bytes)
                + (chunks - 1.0) * 2.0 * tier(c_bytes));
        let calls = waves * (msn * nsn * p.k_chunks(problem.k).max(1)) as f64;
        compute.max(mem) + calls * 40.0 + cost::barrier_cycles(machine)
    }

    #[test]
    fn split_estimator_matches_monolithic_bit_for_bit() {
        for (machine, problem, constraints) in sweep() {
            for_each_candidate(&machine, &problem, &constraints, &mut |p| {
                assert_eq!(
                    estimate_cycles(&machine, &problem, &p).to_bits(),
                    estimate_cycles_monolithic(&machine, &problem, &p).to_bits(),
                    "{p:?} on {problem:?}"
                );
            });
        }
    }

    /// Constraints select the loop ranges instead of filtering a full
    /// walk: a pinned query enumerates only matching candidates, and a
    /// pinned block the menu lacks is taken iff it divides the axis.
    #[test]
    fn constraints_apply_by_construction() {
        let machine = xeon();
        let problem = MatmulProblem::new(128, 1024, 1024, 4);
        let grouped = Constraints {
            full_n_per_task: true,
            fixed_mb: Some(4),
            fixed_kb: Some(128),
            fixed_tasks: Some(32),
            ..Constraints::default()
        };
        let mut n = 0;
        for_each_candidate(&machine, &problem, &grouped, &mut |p| {
            assert_eq!((p.mb, p.kb, p.npn, p.mpn), (4, 128, 1, 32), "{p:?}");
            p.validate(&problem).unwrap();
            n += 1;
        });
        assert!(n > 0);
        // 24 is on no menu but divides 1008; 20 does not
        let odd = MatmulProblem::new(1008, 64, 64, 4);
        for (mb, feasible) in [(24usize, true), (20, false)] {
            let c = Constraints {
                fixed_mb: Some(mb),
                ..Constraints::default()
            };
            let mut seen = false;
            for_each_candidate(&machine, &odd, &c, &mut |p| {
                assert_eq!(p.mb, mb);
                seen = true;
            });
            assert_eq!(seen, feasible, "fixed_mb {mb}");
        }
    }

    #[test]
    fn overrides_round_trip() {
        let problem = MatmulProblem::new(64, 64, 64, 4);
        let constraints = Constraints::default();
        let params = MatmulParams {
            mpn: 2,
            npn: 2,
            mb: 32,
            nb: 32,
            kb: 64,
            bs: 1,
        };
        let mut ov = ParamOverrides::new();
        assert!(ov.is_empty());
        ov.insert(problem, constraints, params);
        assert_eq!(ov.len(), 1);
        assert_eq!(ov.get(&problem, &constraints), Some(params));
        // a different constraint set is a different choice point
        let other = Constraints {
            full_n_per_task: true,
            ..constraints
        };
        assert_eq!(ov.get(&problem, &other), None);
    }

    #[test]
    fn cost_orders_sane_vs_pathological() {
        let machine = xeon();
        let prob = MatmulProblem::new(512, 512, 512, 4);
        let good = MatmulParams {
            mpn: 8,
            npn: 4,
            mb: 32,
            nb: 32,
            kb: 64,
            bs: 2,
        };
        let bad = MatmulParams {
            mpn: 1,
            npn: 1,
            mb: 1,
            nb: 1,
            kb: 1,
            bs: 1,
        };
        assert!(estimate_cycles(&machine, &prob, &good) < estimate_cycles(&machine, &prob, &bad));
    }
}
