//! Runtime ISA dispatch for the microkernels.
//!
//! The paper's JIT emits AVX-512/VNNI code directly; this reproduction
//! gets the same effect with *one generic kernel body per family*
//! (brgemm f32, brgemm u8×i8, row chain, eltwise, reduce, epilogue — see
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
//! The only way into a backend's kernels is a [`Kernels`] handle, a
//! `Copy` pointer to one table of function pointers. [`kernels`] hands
//! one out after verifying the CPU supports the ISA, which is what makes
//! every method on it safe; the checked kernel entry points themselves
//! are `impl Kernels` blocks next to their families (`brgemm`,
//! `eltwise`, `reduce`, `epilogue`, `tail`). Whoever runs kernels
//! carries the handle: a `gc_tir::Engine` owns one and every plan it
//! builds runs on it from whichever thread touches the plan, so one
//! process mixes backends by holding several engines (gc-tir's
//! `two_backends` test drives a scalar engine beside the default one).
//! There is no ambient dispatch state — no process table, no
//! per-thread override.
//!
//! [`active_isa`] is only the *default value* for callers that do not
//! choose: detection clamped by the `GC_FORCE_ISA` environment variable
//! (`scalar` / `avx2` / `avx512` / `auto`), resolved once per process.
//! A forced ISA the CPU cannot run is clamped down to the best
//! supported one with a warning rather than faulting.
//! `Kernels::default()` is the handle for it.
//!
//! A brgemm table entry is the **whole batch-reduce call**, not one
//! tile product: it receives the batch's offset arrays and keeps each
//! `MR x NR` block of C in registers across all `bs` tile pairs and all
//! k chunks (see `body::brgemm_f32`), which is the property the
//! template's `kb`/`bs` choices assume. The full tile and the
//! clamped-height ("tail") call are one entry told how many rows to
//! compute.
//!
//! Every counted `Kernels` method records its call per (family × ISA)
//! against the handle that ran it; [`dispatch_report`] snapshots those
//! process-wide counters so tests, stats, and benches can verify which
//! variant actually executed.

use crate::chain::{RowChain, MAX_BUFFERS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

pub(crate) mod body;
pub(crate) mod simd;
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86;

/// An instruction-set backend a [`Kernels`] handle can address.
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
    /// The standalone relu and add slice kernels (the layer's bandwidth
    /// probes). Compiled plans run every f32 elementwise op as a row
    /// chain, counted under [`Family::Reduce`].
    Eltwise,
    /// Reductions (sum/max, slice and row-wise) and row chains: one call
    /// per row block of a fused chain or of a standalone elementwise op
    /// (an identity copy included).
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
/// the [`Kernels`] methods validate those before the call.
#[allow(clippy::type_complexity)] // raw fn-pointer signatures are the point of the table
pub(crate) struct KernelTable {
    pub(crate) isa: Isa,
    pub(crate) brgemm_f32: BrgemmFn<f32, f32, f32>,
    pub(crate) brgemm_u8i8: BrgemmFn<u8, i8, i32>,
    pub(crate) relu: unsafe fn(&[f32], &mut [f32]),
    pub(crate) binary_add: unsafe fn(&[f32], &[f32], &mut [f32]),
    pub(crate) reduce_sum: unsafe fn(&[f32]) -> f32,
    pub(crate) reduce_max: unsafe fn(&[f32]) -> f32,
    pub(crate) dequant: unsafe fn(&[i32], usize, usize, &[i32], i32, f32, &mut [f32]),
    pub(crate) requant_u8: unsafe fn(&[f32], f32, i32, &mut [u8]),
    pub(crate) row_chain: RowChainFn,
}

/// A row-chain entry: `(chain, src, dst, side)`, see `body::row_chain`.
type RowChainFn = unsafe fn(&RowChain, *const f32, *mut f32, &[*const f32; MAX_BUFFERS - 1]);

mod scalar_kernels {
    //! Scalar entry points: the generic bodies instantiated with the
    //! portable backend. No feature preconditions; `unsafe` only to
    //! share the [`KernelTable`] pointer signature.
    use super::body;
    use super::simd::ScalarBackend as S;
    use crate::chain::{RowChain, MAX_BUFFERS};

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
    pub(crate) unsafe fn binary_add(a: &[f32], b: &[f32], dst: &mut [f32]) {
        body::binary_add::<S>(a, b, dst)
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
    pub(crate) unsafe fn row_chain(
        c: &RowChain,
        src: *const f32,
        dst: *mut f32,
        side: &[*const f32; MAX_BUFFERS - 1],
    ) {
        body::row_chain::<S>(c, src, dst, side)
    }
}

static SCALAR_TABLE: KernelTable = KernelTable {
    isa: Isa::Scalar,
    brgemm_f32: scalar_kernels::brgemm_f32,
    brgemm_u8i8: scalar_kernels::brgemm_u8i8,
    relu: scalar_kernels::relu,
    binary_add: scalar_kernels::binary_add,
    reduce_sum: scalar_kernels::reduce_sum,
    reduce_max: scalar_kernels::reduce_max,
    dequant: scalar_kernels::dequant,
    requant_u8: scalar_kernels::requant_u8,
    row_chain: scalar_kernels::row_chain,
};

#[cfg(target_arch = "x86_64")]
static AVX2_TABLE: KernelTable = KernelTable {
    isa: Isa::Avx2,
    brgemm_f32: x86::avx2_kernels::brgemm_f32,
    brgemm_u8i8: x86::avx2_kernels::brgemm_u8i8,
    relu: x86::avx2_kernels::relu,
    binary_add: x86::avx2_kernels::binary_add,
    reduce_sum: x86::avx2_kernels::reduce_sum,
    reduce_max: x86::avx2_kernels::reduce_max,
    dequant: x86::avx2_kernels::dequant,
    requant_u8: x86::avx2_kernels::requant_u8,
    row_chain: x86::avx2_kernels::row_chain,
};

#[cfg(target_arch = "x86_64")]
static AVX512_TABLE: KernelTable = KernelTable {
    isa: Isa::Avx512,
    brgemm_f32: x86::avx512_kernels::brgemm_f32,
    brgemm_u8i8: x86::avx512_kernels::brgemm_u8i8,
    relu: x86::avx512_kernels::relu,
    binary_add: x86::avx512_kernels::binary_add,
    reduce_sum: x86::avx512_kernels::reduce_sum,
    reduce_max: x86::avx512_kernels::reduce_max,
    dequant: x86::avx512_kernels::dequant,
    requant_u8: x86::avx512_kernels::requant_u8,
    row_chain: x86::avx512_kernels::row_chain,
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

/// The process's *default* backend: `GC_FORCE_ISA` if set (clamped to
/// what the CPU supports), else the best detected one, resolved once.
/// Nothing dispatches through it — it is what [`Kernels::default`], and
/// so an engine built without an explicit handle, starts from.
pub fn active_isa() -> Isa {
    static DEFAULT: OnceLock<Isa> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        let detected = detected_isa();
        let forced = match std::env::var("GC_FORCE_ISA") {
            Ok(v) if !v.is_empty() && !v.eq_ignore_ascii_case("auto") => v,
            _ => return detected,
        };
        match Isa::from_name(&forced) {
            Some(isa) if isa <= detected => isa,
            Some(isa) => {
                eprintln!(
                    "[gc-microkernel] GC_FORCE_ISA={isa} not supported on this CPU; \
                     clamping to {detected}"
                );
                detected
            }
            None => {
                eprintln!(
                    "[gc-microkernel] unknown GC_FORCE_ISA value {forced:?} \
                     (expected scalar|avx2|avx512|auto); using {detected}"
                );
                detected
            }
        }
    })
}

/// Per-(family × ISA) call counters.
static COUNTS: [[AtomicU64; ISA_COUNT]; FAMILY_COUNT] =
    [const { [const { AtomicU64::new(0) }; ISA_COUNT] }; FAMILY_COUNT];

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
    /// The process's default backend ([`active_isa`]).
    pub active: Isa,
    /// Best backend the CPU supports.
    pub detected: Isa,
    /// Whether the int8 dot runs on VNNI under the default backend.
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

/// Safe handle to one backend's kernels — the only way into a
/// `KernelTable`. Obtained via [`kernels`], which verifies CPU
/// support, so every method is safe; a `Copy` of one pointer, so it is
/// carried by value from an engine down to each kernel call.
#[derive(Clone, Copy)]
pub struct Kernels {
    pub(crate) table: &'static KernelTable,
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

impl Default for Kernels {
    /// The handle for the process default, [`active_isa`].
    fn default() -> Self {
        kernels(active_isa())
    }
}

impl Kernels {
    /// Which backend this handle addresses.
    pub fn isa(&self) -> Isa {
        self.table.isa
    }

    /// Record one kernel-family invocation against this handle's ISA.
    #[inline]
    pub(crate) fn record(&self, family: Family) {
        COUNTS[family as usize][self.table.isa as usize].fetch_add(1, Ordering::Relaxed);
    }
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
        // The process default must follow detection except under an
        // explicit GC_FORCE_ISA — this is the CI smoke test that the
        // AVX2/AVX-512 path is actually selected on capable runners.
        match std::env::var("GC_FORCE_ISA") {
            Ok(v) if !v.is_empty() && !v.eq_ignore_ascii_case("auto") => {
                let forced = Isa::from_name(&v).unwrap_or(detected_isa());
                assert_eq!(active_isa(), forced.min(detected_isa()));
            }
            _ => assert_eq!(active_isa(), detected_isa()),
        }
        assert_eq!(Kernels::default().isa(), active_isa());
    }

    #[test]
    fn dispatch_report_counts_calls_against_the_handle_that_ran_them() {
        // Counters are process-wide and other tests in this binary run
        // kernels too, so only "moved by at least our calls" is exact.
        let shape = crate::brgemm::BrgemmShape::new(2, 2, 8);
        let a = vec![1.0f32; shape.a_len()];
        let b = vec![1.0f32; shape.b_len()];
        for isa in [Isa::Scalar, detected_isa()] {
            let count = |r: &DispatchReport| {
                let hit = |c: &&DispatchCount| c.isa == isa && c.family == Family::BrgemmF32;
                r.counts.iter().find(hit).map_or(0, |c| c.calls)
            };
            let before = count(&dispatch_report());
            let mut c = vec![0.0f32; shape.c_len()];
            kernels(isa).brgemm_f32(shape, shape.m, &a, &[0], &b, &[0], &mut c);
            let after = dispatch_report();
            assert!(count(&after) > before, "{isa}");
            assert!(after.counts.iter().all(|c| c.calls > 0));
            // 2x2 of k=8 ones-dot-ones, whichever backend.
            assert!(c.iter().all(|&v| v == 8.0));
        }
    }

    #[test]
    fn report_displays() {
        let r = dispatch_report();
        let s = r.to_string();
        assert!(s.contains("isa dispatch"), "{s}");
        assert!(s.contains(r.active.name()), "{s}");
    }
}
