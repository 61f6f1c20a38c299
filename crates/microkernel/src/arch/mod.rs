//! Runtime ISA dispatch for the microkernels.
//!
//! The paper's JIT emits AVX-512/VNNI code directly; this reproduction
//! gets the same effect with *one generic kernel body per family*
//! (brgemm f32, brgemm u8×i8, eltwise, reduce, epilogue — see
//! `arch::body`) written against a small SIMD-ops trait (`arch::simd`) and
//! instantiated per backend:
//!
//! - **scalar** — the portable fallback: autovectorized lane arrays,
//!   bit-identical to the pre-dispatch kernels in every family except
//!   f32 brgemm (which now sums the batch before it reduces);
//! - **avx2** — `core::arch::x86_64` AVX2 + FMA (8 f32 lanes);
//! - **avx512** — AVX-512 F/BW (16 f32 lanes), with a VNNI `vpdpbusd`
//!   int8 dot where the CPU has it.
//!
//! The default backend is selected **once per process**: the first
//! kernel call (or an explicit [`init`], which the TIR engine performs
//! at plan construction) resolves a table of function pointers from
//! `is_x86_feature_detected!`, clamped by the `GC_FORCE_ISA`
//! environment variable (`scalar` / `avx2` / `avx512` / `auto`). A
//! forced ISA the CPU cannot run is clamped down to the best supported
//! one with a warning rather than faulting. A *thread* can override
//! that choice with [`set_thread_isa`] — this is how heterogeneous
//! engine shards (gc-serve, DESIGN.md "Sharded execution") mix ISAs in
//! one process: each shard's executor and pool workers install the
//! shard's backend at thread start, and every other thread keeps
//! dispatching on the process table.
//!
//! A brgemm table entry is the **whole batch-reduce call**, not one
//! tile product: it receives the batch's offset arrays and keeps each
//! `MR x NR` block of C in registers across all `bs` tile pairs and all
//! k chunks (see `body::brgemm_f32`), which is the property the
//! template's `kb`/`bs` choices assume. The full-tile and clamped-height
//! ("tail") public entries are checked front-ends of that one entry.
//!
//! Every public kernel entry point counts its calls per
//! (family × ISA) against the table that actually ran it;
//! [`dispatch_report`] snapshots those process-wide counters so tests,
//! stats, and benches can verify which variant actually executed.
//! Tests that need a *specific* backend regardless of the dispatch
//! choice use [`kernels`] to address a table explicitly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

pub(crate) mod body;
pub(crate) mod simd;
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86;

use crate::brgemm::{check_batch, BrgemmShape};
use simd::ScalarBackend;

/// An instruction-set backend the dispatch table can select.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Isa {
    /// Portable lane-array kernels (the autovectorized fallback).
    Scalar,
    /// AVX2 + FMA explicit SIMD.
    Avx2,
    /// AVX-512 F/BW explicit SIMD (int8 uses VNNI when detected).
    Avx512,
}

/// Number of [`Isa`] variants (for counter arrays).
const ISA_COUNT: usize = 3;

impl Isa {
    /// Stable lowercase name, also the accepted `GC_FORCE_ISA` value.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }

    /// Parse a `GC_FORCE_ISA` value; `None` for unknown names.
    pub fn from_name(s: &str) -> Option<Isa> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Some(Isa::Scalar),
            "avx2" => Some(Isa::Avx2),
            "avx512" => Some(Isa::Avx512),
            _ => None,
        }
    }

    /// Whether the running CPU can execute this backend.
    pub fn supported(self) -> bool {
        self <= detected_isa()
    }
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Kernel families the dispatcher counts separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Full-tile f32 batch-reduce GEMM.
    BrgemmF32,
    /// Full-tile u8×i8 batch-reduce GEMM.
    BrgemmU8I8,
    /// Clamped-height f32 brgemm tails.
    TailF32,
    /// Clamped-height u8×i8 brgemm tails.
    TailU8I8,
    /// Elementwise unary/binary/accumulate kernels.
    Eltwise,
    /// Reductions (sum/max, slice and row-wise).
    Reduce,
    /// Int8 dequantize epilogue.
    Epilogue,
}

/// Number of [`Family`] variants (for counter arrays).
const FAMILY_COUNT: usize = 7;

/// All families, in counter order.
const FAMILIES: [Family; FAMILY_COUNT] = [
    Family::BrgemmF32,
    Family::BrgemmU8I8,
    Family::TailF32,
    Family::TailU8I8,
    Family::Eltwise,
    Family::Reduce,
    Family::Epilogue,
];

impl Family {
    /// Stable snake_case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Family::BrgemmF32 => "brgemm_f32",
            Family::BrgemmU8I8 => "brgemm_u8i8",
            Family::TailF32 => "tail_f32",
            Family::TailU8I8 => "tail_u8i8",
            Family::Eltwise => "eltwise",
            Family::Reduce => "reduce",
            Family::Epilogue => "epilogue",
        }
    }
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A batch-reduce GEMM entry: `(m, n, k, a_buf, a_offs, b_buf, b_offs,
/// c)`, see `body::brgemm_f32` for the contract.
type BrgemmFn<A, B, C> = unsafe fn(usize, usize, usize, &[A], &[usize], &[B], &[usize], &mut [C]);

/// One backend's kernel entry points. Each pointer is an `unsafe fn`
/// whose preconditions are that the backend's ISA is supported on the
/// running CPU and that the slices cover the extents its body documents;
/// the public entry points validate those before the call.
#[allow(clippy::type_complexity)] // raw fn-pointer signatures are the point of the table
pub(crate) struct KernelTable {
    pub(crate) isa: Isa,
    pub(crate) brgemm_f32: BrgemmFn<f32, f32, f32>,
    pub(crate) brgemm_u8i8: BrgemmFn<u8, i8, i32>,
    pub(crate) relu: unsafe fn(&[f32], &mut [f32]),
    pub(crate) relu_inplace: unsafe fn(&mut [f32]),
    pub(crate) binary_add: unsafe fn(&[f32], &[f32], &mut [f32]),
    pub(crate) binary_mul: unsafe fn(&[f32], &[f32], &mut [f32]),
    pub(crate) acc_add: unsafe fn(&[f32], &mut [f32]),
    pub(crate) reduce_sum: unsafe fn(&[f32]) -> f32,
    pub(crate) reduce_max: unsafe fn(&[f32]) -> f32,
    pub(crate) dequant: unsafe fn(&[i32], usize, usize, &[i32], i32, f32, &mut [f32]),
    pub(crate) requant_u8: unsafe fn(&[f32], f32, i32, &mut [u8]),
}

mod scalar_kernels {
    //! Scalar entry points: the generic bodies instantiated with the
    //! portable backend. No feature preconditions; `unsafe` only to
    //! share the [`KernelTable`] pointer signature.
    use super::body;
    use super::simd::ScalarBackend as S;

    #[allow(clippy::too_many_arguments)]
    pub(crate) unsafe fn brgemm_f32(
        m: usize,
        n: usize,
        k: usize,
        a_buf: &[f32],
        a_offs: &[usize],
        b_buf: &[f32],
        b_offs: &[usize],
        c: &mut [f32],
    ) {
        body::brgemm_f32::<S>(m, n, k, a_buf, a_offs, b_buf, b_offs, c)
    }
    #[allow(clippy::too_many_arguments)]
    pub(crate) unsafe fn brgemm_u8i8(
        m: usize,
        n: usize,
        k: usize,
        a_buf: &[u8],
        a_offs: &[usize],
        b_buf: &[i8],
        b_offs: &[usize],
        c: &mut [i32],
    ) {
        body::brgemm_u8i8::<S>(m, n, k, a_buf, a_offs, b_buf, b_offs, c)
    }
    pub(crate) unsafe fn relu(src: &[f32], dst: &mut [f32]) {
        body::relu::<S>(src, dst)
    }
    pub(crate) unsafe fn relu_inplace(buf: &mut [f32]) {
        body::relu_inplace::<S>(buf)
    }
    pub(crate) unsafe fn binary_add(a: &[f32], b: &[f32], dst: &mut [f32]) {
        body::binary_add::<S>(a, b, dst)
    }
    pub(crate) unsafe fn binary_mul(a: &[f32], b: &[f32], dst: &mut [f32]) {
        body::binary_mul::<S>(a, b, dst)
    }
    pub(crate) unsafe fn acc_add(src: &[f32], dst: &mut [f32]) {
        body::acc_add::<S>(src, dst)
    }
    pub(crate) unsafe fn reduce_sum(xs: &[f32]) -> f32 {
        body::reduce_sum::<S>(xs)
    }
    pub(crate) unsafe fn reduce_max(xs: &[f32]) -> f32 {
        body::reduce_max::<S>(xs)
    }
    #[allow(clippy::too_many_arguments)]
    pub(crate) unsafe fn dequant(
        acc: &[i32],
        m: usize,
        n: usize,
        comp: &[i32],
        a_zero: i32,
        scale: f32,
        out: &mut [f32],
    ) {
        body::dequant::<S>(acc, m, n, comp, a_zero, scale, out)
    }
    pub(crate) unsafe fn requant_u8(xs: &[f32], inv_scale: f32, zero_point: i32, out: &mut [u8]) {
        body::requant_u8::<S>(xs, inv_scale, zero_point, out)
    }
}

static SCALAR_TABLE: KernelTable = KernelTable {
    isa: Isa::Scalar,
    brgemm_f32: scalar_kernels::brgemm_f32,
    brgemm_u8i8: scalar_kernels::brgemm_u8i8,
    relu: scalar_kernels::relu,
    relu_inplace: scalar_kernels::relu_inplace,
    binary_add: scalar_kernels::binary_add,
    binary_mul: scalar_kernels::binary_mul,
    acc_add: scalar_kernels::acc_add,
    reduce_sum: scalar_kernels::reduce_sum,
    reduce_max: scalar_kernels::reduce_max,
    dequant: scalar_kernels::dequant,
    requant_u8: scalar_kernels::requant_u8,
};

#[cfg(target_arch = "x86_64")]
static AVX2_TABLE: KernelTable = KernelTable {
    isa: Isa::Avx2,
    brgemm_f32: x86::avx2_kernels::brgemm_f32,
    brgemm_u8i8: x86::avx2_kernels::brgemm_u8i8,
    relu: x86::avx2_kernels::relu,
    relu_inplace: x86::avx2_kernels::relu_inplace,
    binary_add: x86::avx2_kernels::binary_add,
    binary_mul: x86::avx2_kernels::binary_mul,
    acc_add: x86::avx2_kernels::acc_add,
    reduce_sum: x86::avx2_kernels::reduce_sum,
    reduce_max: x86::avx2_kernels::reduce_max,
    dequant: x86::avx2_kernels::dequant,
    requant_u8: x86::avx2_kernels::requant_u8,
};

#[cfg(target_arch = "x86_64")]
static AVX512_TABLE: KernelTable = KernelTable {
    isa: Isa::Avx512,
    brgemm_f32: x86::avx512_kernels::brgemm_f32,
    brgemm_u8i8: x86::avx512_kernels::brgemm_u8i8,
    relu: x86::avx512_kernels::relu,
    relu_inplace: x86::avx512_kernels::relu_inplace,
    binary_add: x86::avx512_kernels::binary_add,
    binary_mul: x86::avx512_kernels::binary_mul,
    acc_add: x86::avx512_kernels::acc_add,
    reduce_sum: x86::avx512_kernels::reduce_sum,
    reduce_max: x86::avx512_kernels::reduce_max,
    dequant: x86::avx512_kernels::dequant,
    requant_u8: x86::avx512_kernels::requant_u8,
};

/// AVX-512 table with the VNNI int8 dot swapped in.
#[cfg(target_arch = "x86_64")]
static AVX512_VNNI_TABLE: KernelTable = KernelTable {
    brgemm_u8i8: x86::brgemm_u8i8_vnni,
    ..AVX512_TABLE
};

/// Best ISA the running CPU supports (ignores `GC_FORCE_ISA`).
pub fn detected_isa() -> Isa {
    static DETECTED: OnceLock<Isa> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512bw")
                && is_x86_feature_detected!("avx2")
                && is_x86_feature_detected!("fma")
            {
                return Isa::Avx512;
            }
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                return Isa::Avx2;
            }
        }
        Isa::Scalar
    })
}

/// Whether the VNNI int8 dot is in use for the given ISA on this CPU.
pub fn vnni_active(isa: Isa) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        isa == Isa::Avx512 && is_x86_feature_detected!("avx512vnni")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = isa;
        false
    }
}

/// The table for one ISA. Caller must have verified `isa.supported()`.
fn table_for(isa: Isa) -> &'static KernelTable {
    match isa {
        Isa::Scalar => &SCALAR_TABLE,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => &AVX2_TABLE,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => {
            if vnni_active(Isa::Avx512) {
                &AVX512_VNNI_TABLE
            } else {
                &AVX512_TABLE
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => &SCALAR_TABLE,
    }
}

/// Resolve the process-wide ISA choice: `GC_FORCE_ISA` if set (clamped
/// to what the CPU supports), else the best detected backend.
fn resolve_isa() -> Isa {
    let detected = detected_isa();
    match std::env::var("GC_FORCE_ISA") {
        Ok(v) if !v.is_empty() && !v.eq_ignore_ascii_case("auto") => match Isa::from_name(&v) {
            Some(forced) if forced <= detected => forced,
            Some(forced) => {
                eprintln!(
                    "[gc-microkernel] GC_FORCE_ISA={forced} not supported on this CPU; \
                     clamping to {detected}"
                );
                detected
            }
            None => {
                eprintln!(
                    "[gc-microkernel] unknown GC_FORCE_ISA value {v:?} \
                     (expected scalar|avx2|avx512|auto); using {detected}"
                );
                detected
            }
        },
        _ => detected,
    }
}

static ACTIVE: OnceLock<&'static KernelTable> = OnceLock::new();

thread_local! {
    /// Per-thread kernel-table override installed by [`set_thread_isa`].
    /// `None` means "dispatch on the process-wide table" — the common
    /// case, and the only one before sharded serving existed.
    static THREAD_TABLE: std::cell::Cell<Option<&'static KernelTable>> =
        const { std::cell::Cell::new(None) };
}

/// The dispatch table for the current thread: the thread-local override
/// when one is installed, else the process-wide active table (resolving
/// it on first use).
#[inline]
pub(crate) fn active() -> &'static KernelTable {
    if let Some(table) = THREAD_TABLE.get() {
        return table;
    }
    ACTIVE.get_or_init(|| table_for(resolve_isa()))
}

/// Install (or clear, with `None`) a kernel-backend override for the
/// *calling thread only*. While installed, every dispatched kernel call
/// made from this thread runs on `isa`'s table instead of the
/// process-wide choice, and is counted against `isa` in the dispatch
/// report. Returns the previously installed override so scoped callers
/// can restore it.
///
/// This is the mechanism behind heterogeneous engine shards
/// (DESIGN.md "Sharded execution"): a shard's executor thread and its
/// pool workers install the shard's ISA once at thread start, so one
/// process can serve scalar and AVX-512 shards side by side. The
/// process-wide table, `GC_FORCE_ISA` handling, and every thread
/// without an override are unaffected.
///
/// # Panics
///
/// Panics if the running CPU does not support `isa` — check
/// [`Isa::supported`] first when probing, exactly as with [`kernels`].
pub fn set_thread_isa(isa: Option<Isa>) -> Option<Isa> {
    let table = isa.map(|isa| {
        assert!(
            isa.supported(),
            "ISA {isa} not supported on this CPU (detected: {})",
            detected_isa()
        );
        table_for(isa)
    });
    THREAD_TABLE.replace(table).map(|t| t.isa)
}

/// The calling thread's installed backend override, if any.
pub fn thread_isa() -> Option<Isa> {
    THREAD_TABLE.get().map(|t| t.isa)
}

/// Resolve the dispatch table now (idempotent). The TIR engine calls
/// this when an executable is constructed so the choice is made at
/// engine init, not in the middle of the first hot loop.
pub fn init() {
    let _ = active();
}

/// The ISA the *current thread* dispatches on: the thread override when
/// one is installed via [`set_thread_isa`], else the process-wide
/// selection (detection clamped by `GC_FORCE_ISA`). Resolves the
/// process table if not yet resolved.
pub fn active_isa() -> Isa {
    active().isa
}

/// Per-(family × ISA) call counters.
static COUNTS: [[AtomicU64; ISA_COUNT]; FAMILY_COUNT] =
    [const { [const { AtomicU64::new(0) }; ISA_COUNT] }; FAMILY_COUNT];

/// Record one kernel-family invocation against an ISA.
#[inline]
pub(crate) fn record(family: Family, isa: Isa) {
    COUNTS[family as usize][isa as usize].fetch_add(1, Ordering::Relaxed);
}

/// One (family, ISA) counter in a [`DispatchReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchCount {
    /// Kernel family.
    pub family: Family,
    /// Backend that executed it.
    pub isa: Isa,
    /// Invocations since process start.
    pub calls: u64,
}

/// Snapshot of which kernel variants actually executed.
#[derive(Debug, Clone)]
pub struct DispatchReport {
    /// The process-wide selected backend.
    pub active: Isa,
    /// Best backend the CPU supports.
    pub detected: Isa,
    /// Whether the int8 dot runs on VNNI under the active backend.
    pub vnni: bool,
    /// Non-zero (family × ISA) call counters, family-major.
    pub counts: Vec<DispatchCount>,
}

impl DispatchReport {
    /// Total calls recorded against one ISA across all families.
    pub fn calls_for_isa(&self, isa: Isa) -> u64 {
        self.counts
            .iter()
            .filter(|c| c.isa == isa)
            .map(|c| c.calls)
            .sum()
    }

    /// Total calls recorded for one family across all ISAs.
    pub fn calls_for_family(&self, family: Family) -> u64 {
        self.counts
            .iter()
            .filter(|c| c.family == family)
            .map(|c| c.calls)
            .sum()
    }
}

impl std::fmt::Display for DispatchReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "isa dispatch: active={} detected={} vnni={}",
            self.active, self.detected, self.vnni
        )?;
        for c in &self.counts {
            writeln!(f, "  {:>12} x {:<6} {:>12} calls", c.family, c.isa, c.calls)?;
        }
        Ok(())
    }
}

/// Snapshot the process-wide dispatch state and counters. Counters are
/// cumulative since process start; callers wanting a window diff two
/// snapshots.
pub fn dispatch_report() -> DispatchReport {
    let active = active_isa();
    let mut counts = Vec::new();
    for (fi, &family) in FAMILIES.iter().enumerate() {
        for (ii, isa) in [Isa::Scalar, Isa::Avx2, Isa::Avx512].iter().enumerate() {
            let calls = COUNTS[fi][ii].load(Ordering::Relaxed);
            if calls > 0 {
                counts.push(DispatchCount {
                    family,
                    isa: *isa,
                    calls,
                });
            }
        }
    }
    DispatchReport {
        active,
        detected: detected_isa(),
        vnni: vnni_active(active),
        counts,
    }
}

/// Safe handle to one backend's kernels, for differential tests and
/// benches that must compare backends within a single process (the
/// process-wide table is resolved once and never changes). Obtained via
/// [`kernels`], which verifies CPU support, so all methods are safe.
///
/// Calls through a `Kernels` handle are *not* recorded in the dispatch
/// counters — they are for harnesses, not the serving path.
#[derive(Clone, Copy)]
pub struct Kernels {
    table: &'static KernelTable,
}

/// Kernels for a specific backend.
///
/// # Panics
///
/// Panics if the running CPU does not support `isa` — check
/// [`Isa::supported`] first when probing.
pub fn kernels(isa: Isa) -> Kernels {
    assert!(
        isa.supported(),
        "ISA {isa} not supported on this CPU (detected: {})",
        detected_isa()
    );
    Kernels {
        table: table_for(isa),
    }
}

impl Kernels {
    /// Which backend this handle addresses.
    pub fn isa(&self) -> Isa {
        self.table.isa
    }

    /// f32 batch-reduce GEMM on this backend; the contract (and the
    /// panics) of [`crate::brgemm::brgemm_f32`], uncounted.
    pub fn brgemm_f32(
        &self,
        shape: BrgemmShape,
        a_buf: &[f32],
        a_offs: &[usize],
        b_buf: &[f32],
        b_offs: &[usize],
        c: &mut [f32],
    ) {
        check_batch(shape, shape.m, a_buf, a_offs, b_buf, b_offs, c);
        let BrgemmShape { m, n, k } = shape;
        // SAFETY: extents checked above; `kernels` verified CPU support.
        unsafe { (self.table.brgemm_f32)(m, n, k, a_buf, a_offs, b_buf, b_offs, c) }
    }

    /// u8×i8 batch-reduce GEMM on this backend; the contract of
    /// [`crate::brgemm::brgemm_u8i8`], uncounted.
    pub fn brgemm_u8i8(
        &self,
        shape: BrgemmShape,
        a_buf: &[u8],
        a_offs: &[usize],
        b_buf: &[i8],
        b_offs: &[usize],
        c: &mut [i32],
    ) {
        check_batch(shape, shape.m, a_buf, a_offs, b_buf, b_offs, c);
        let BrgemmShape { m, n, k } = shape;
        // SAFETY: extents checked above; `kernels` verified CPU support.
        unsafe { (self.table.brgemm_u8i8)(m, n, k, a_buf, a_offs, b_buf, b_offs, c) }
    }

    /// One f32 tile product `C[m,n] += A[m,k] × B[n,k]` (B panel-major):
    /// a batch of one.
    ///
    /// # Panics
    ///
    /// Panics if any slice is shorter than its `m`/`n`/`k` extent.
    pub fn gemm_f32(&self, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        assert!(a.len() >= m * k && b.len() >= n * k && c.len() >= m * n);
        // SAFETY: extents asserted; `kernels` verified CPU support.
        unsafe { (self.table.brgemm_f32)(m, n, k, a, &[0], b, &[0], c) }
    }

    /// One u8×i8 tile product into i32: a batch of one.
    ///
    /// # Panics
    ///
    /// Panics if any slice is shorter than its `m`/`n`/`k` extent.
    pub fn gemm_u8i8(&self, m: usize, n: usize, k: usize, a: &[u8], b: &[i8], c: &mut [i32]) {
        assert!(a.len() >= m * k && b.len() >= n * k && c.len() >= m * n);
        // SAFETY: extents asserted; `kernels` verified CPU support.
        unsafe { (self.table.brgemm_u8i8)(m, n, k, a, &[0], b, &[0], c) }
    }

    /// `dst = max(src, 0)`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn relu(&self, src: &[f32], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len());
        unsafe { (self.table.relu)(src, dst) }
    }

    /// `dst = a + b` elementwise.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn binary_add(&self, a: &[f32], b: &[f32], dst: &mut [f32]) {
        assert!(a.len() == dst.len() && b.len() == dst.len());
        unsafe { (self.table.binary_add)(a, b, dst) }
    }

    /// `dst = a * b` elementwise.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn binary_mul(&self, a: &[f32], b: &[f32], dst: &mut [f32]) {
        assert!(a.len() == dst.len() && b.len() == dst.len());
        unsafe { (self.table.binary_mul)(a, b, dst) }
    }

    /// `dst += src` elementwise.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn acc_add(&self, src: &[f32], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len());
        unsafe { (self.table.acc_add)(src, dst) }
    }

    /// Sum of a slice.
    pub fn reduce_sum(&self, xs: &[f32]) -> f32 {
        unsafe { (self.table.reduce_sum)(xs) }
    }

    /// Max of a slice (`-inf` when empty).
    pub fn reduce_max(&self, xs: &[f32]) -> f32 {
        unsafe { (self.table.reduce_max)(xs) }
    }

    /// Dequantize an i32 accumulator tile; see
    /// [`crate::epilogue::dequant_acc`].
    ///
    /// # Panics
    ///
    /// Panics on any length mismatch.
    #[allow(clippy::too_many_arguments)]
    pub fn dequant(
        &self,
        acc: &[i32],
        m: usize,
        n: usize,
        comp: &[i32],
        a_zero: i32,
        scale: f32,
        out: &mut [f32],
    ) {
        assert!(acc.len() == m * n && out.len() == m * n && comp.len() == n);
        unsafe { (self.table.dequant)(acc, m, n, comp, a_zero, scale, out) }
    }

    /// Requantize f32 to u8 on this backend; see
    /// [`crate::epilogue::requant_u8`].
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn requant_u8(&self, xs: &[f32], inv_scale: f32, zero_point: i32, out: &mut [u8]) {
        crate::epilogue::requant_u8_on(self.table, xs, inv_scale, zero_point, out);
    }
}

// Referenced by module docs; silences the unused-import style warning
// on non-x86 builds where only the scalar backend exists.
#[allow(unused)]
fn _scalar_backend_is_referenced() -> ScalarBackend {
    ScalarBackend
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isa_names_roundtrip() {
        for isa in [Isa::Scalar, Isa::Avx2, Isa::Avx512] {
            assert_eq!(Isa::from_name(isa.name()), Some(isa));
        }
        assert_eq!(Isa::from_name("AVX2"), Some(Isa::Avx2));
        assert_eq!(Isa::from_name("amx"), None);
    }

    #[test]
    fn scalar_always_supported() {
        assert!(Isa::Scalar.supported());
        let _ = kernels(Isa::Scalar);
    }

    #[test]
    fn active_isa_is_detected_unless_forced() {
        // The process-wide choice must follow detection except under an
        // explicit GC_FORCE_ISA — this is the CI smoke test that the
        // AVX2/AVX-512 path is actually selected on capable runners.
        match std::env::var("GC_FORCE_ISA") {
            Ok(v) if !v.is_empty() && !v.eq_ignore_ascii_case("auto") => {
                let forced = Isa::from_name(&v).unwrap_or(detected_isa());
                assert_eq!(active_isa(), forced.min(detected_isa()));
            }
            _ => assert_eq!(active_isa(), detected_isa()),
        }
    }

    #[test]
    fn dispatch_report_counts_brgemm_calls() {
        let before = dispatch_report().calls_for_family(Family::BrgemmF32);
        let shape = crate::brgemm::BrgemmShape::new(2, 2, 8);
        let a = vec![1.0f32; shape.a_len()];
        let b = vec![1.0f32; shape.b_len()];
        let mut c = vec![0.0f32; shape.c_len()];
        crate::brgemm::brgemm_f32(shape, &a, &[0], &b, &[0], &mut c);
        let after = dispatch_report();
        assert!(after.calls_for_family(Family::BrgemmF32) > before);
        assert!(after.counts.iter().all(|c| c.calls > 0));
        // This thread has no override, so the call above landed on the
        // active backend. (Other tests in this binary may legitimately
        // record off-active calls through thread overrides, so we only
        // assert the active counter moved.)
        assert!(after
            .counts
            .iter()
            .any(|c| c.isa == after.active && c.family == Family::BrgemmF32));
    }

    #[test]
    fn thread_isa_override_redirects_dispatch() {
        // Dispatch on this thread with a scalar override: calls must be
        // recorded against scalar regardless of the process-wide table.
        let before = dispatch_report().calls_for_isa(Isa::Scalar);
        let prev = set_thread_isa(Some(Isa::Scalar));
        assert_eq!(thread_isa(), Some(Isa::Scalar));
        assert_eq!(active_isa(), Isa::Scalar);
        let shape = crate::brgemm::BrgemmShape::new(2, 2, 8);
        let a = vec![1.0f32; shape.a_len()];
        let b = vec![1.0f32; shape.b_len()];
        let mut c = vec![0.0f32; shape.c_len()];
        crate::brgemm::brgemm_f32(shape, &a, &[0], &b, &[0], &mut c);
        assert_eq!(set_thread_isa(prev), Some(Isa::Scalar));
        assert_eq!(thread_isa(), None);
        let after = dispatch_report().calls_for_isa(Isa::Scalar);
        assert!(after > before);
        // The result is still correct: 2x2 of k=8 ones-dot-ones.
        assert!(c.iter().all(|&v| v == 8.0));
    }

    #[test]
    fn thread_isa_override_is_thread_local() {
        let _ = set_thread_isa(None);
        std::thread::spawn(|| {
            let _ = set_thread_isa(Some(Isa::Scalar));
            assert_eq!(thread_isa(), Some(Isa::Scalar));
        })
        .join()
        .unwrap();
        // The spawning thread is unaffected.
        assert_eq!(thread_isa(), None);
        assert_eq!(
            active_isa(),
            ACTIVE.get().map(|t| t.isa).unwrap_or(active_isa())
        );
    }

    #[test]
    fn report_displays() {
        init();
        let r = dispatch_report();
        let s = r.to_string();
        assert!(s.contains("isa dispatch"), "{s}");
        assert!(s.contains(r.active.name()), "{s}");
    }
}
