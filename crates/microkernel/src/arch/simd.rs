//! The SIMD-ops traits the generic kernel bodies are written against,
//! plus the portable scalar backend.
//!
//! Each backend is a zero-sized marker type implementing [`SimdF32`]
//! (f32 lane ops, with the i32 lane subset the int8 epilogue needs) and
//! optionally [`DotU8I8`] (the u8×i8 dot-product step). The kernel
//! bodies in [`super::body`] are generic over these traits and are
//! instantiated once per backend behind a `#[target_feature]` wrapper;
//! the trait methods are `#[inline(always)]` so each instantiation
//! compiles to straight-line vector code inside its wrapper.
//!
//! All trait methods are `unsafe`: callers must guarantee both that the
//! backend's ISA is available on the running CPU and that every pointer
//! is valid for `LANES` (or `STEP`) elements — or, for the loads that
//! take a length, for exactly that many.

/// Elementwise f32 SIMD operations (with the i32 subset used by the
/// dequantize epilogue).
pub(crate) trait SimdF32: Copy {
    /// Vector of [`Self::LANES`] f32 values.
    type V: Copy;
    /// Vector of [`Self::LANES`] i32 values.
    type VI: Copy;
    /// f32 lanes per vector.
    const LANES: usize;
    /// Register-tile rows of the brgemm body for this backend (how many
    /// C rows are accumulated in registers at once).
    const MR: usize;

    unsafe fn zero() -> Self::V;
    unsafe fn splat(x: f32) -> Self::V;
    unsafe fn load(p: *const f32) -> Self::V;
    /// The first `1 <= len <= LANES` elements at `p`, remaining lanes zero.
    /// A short load must not touch memory past `p + len` (masked or
    /// narrower loads only): the brgemm k remainder ends where its tile
    /// ends.
    unsafe fn load_len(p: *const f32, len: usize) -> Self::V;
    unsafe fn store(p: *mut f32, v: Self::V);
    unsafe fn add(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn sub(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn mul(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn div(a: Self::V, b: Self::V) -> Self::V;
    /// IEEE `maxps` semantics: if one lane compares unordered (NaN) or
    /// equal, the lane of `b` is returned.
    unsafe fn max(a: Self::V, b: Self::V) -> Self::V;
    /// IEEE `minps` semantics, the mirror of [`Self::max`].
    unsafe fn min(a: Self::V, b: Self::V) -> Self::V;
    /// `a * b + acc` per lane. Backends with hardware FMA contract the
    /// rounding; the scalar backend rounds twice (mul then add), which
    /// is why cross-ISA f32 comparisons carry a 1e-5 tolerance.
    unsafe fn fma(a: Self::V, b: Self::V, acc: Self::V) -> Self::V;
    /// Horizontal sum in a fixed (backend-specific) order.
    unsafe fn reduce_add(v: Self::V) -> f32;
    /// Four horizontal sums at once, each in a fixed (backend-specific)
    /// order that reads only its own vector: `out[j]` is a function of
    /// `v[j]` alone, so padding a ragged group with zero vectors changes
    /// no live sum. Not required to match [`Self::reduce_add`]'s order.
    unsafe fn reduce_add4(v: [Self::V; 4]) -> [f32; 4];
    /// Horizontal max.
    unsafe fn reduce_max(v: Self::V) -> f32;

    /// Round to the nearest integer, ties away from zero: `f32::round`
    /// per lane, bit for bit (NaN stays NaN, ±0 and ±inf keep sign).
    unsafe fn round_half_away(v: Self::V) -> Self::V;
    /// NaN lanes become `+0.0`; every other lane is unchanged.
    unsafe fn zero_nan(v: Self::V) -> Self::V;
    /// Lane-wise f32 → i32 of integer-valued lanes within i32 range.
    unsafe fn f32_to_i32(v: Self::V) -> Self::VI;
    /// Store the low byte of each lane, [`Self::LANES`] bytes in all
    /// (lanes must hold `0..=255`).
    unsafe fn store_low_bytes(p: *mut u8, v: Self::VI);

    unsafe fn load_i32(p: *const i32) -> Self::VI;
    unsafe fn splat_i32(x: i32) -> Self::VI;
    unsafe fn sub_i32(a: Self::VI, b: Self::VI) -> Self::VI;
    /// Lane-wise wrapping i32 multiply (`mullo`).
    unsafe fn mul_i32(a: Self::VI, b: Self::VI) -> Self::VI;
    /// Lane-wise i32 → f32 conversion (round to nearest even, exactly
    /// the semantics of a scalar `as f32` cast).
    unsafe fn i32_to_f32(v: Self::VI) -> Self::V;
    /// `2^n` per lane, built in the exponent field; exact for
    /// `-126 <= n <= 127`, garbage (never a fault) outside.
    unsafe fn pow2i(n: Self::VI) -> Self::V;

    /// `e^x` per lane: Cephes' `expf` range reduction `x = n ln2 + r`,
    /// `|r| <= ln2 / 2`, a degree-7 polynomial for `e^r`, then `2^n`.
    /// Within 2 ulp of the f64 result wherever that is a normal f32
    /// (`-87.3 <= x <= 88.7`); past `ln(f32::MAX)`, `+inf`. Below, a lane whose `n` is
    /// under -126 is an exact `+0` (off by less than 1e-38; `-inf` gives
    /// `+0`): `2^n` is applied as `2^clamp(n, -127, 127)` — exactly zero
    /// at -127 — times the small remainder `2^(n - clamp)`, so masked-out
    /// logits (`-1e4` in attention) never make a multiply round into the
    /// subnormals, which costs a microcode assist per lane on x86. Only
    /// `n = -126` with `e^r < 1` lands there. NaN propagates: the input
    /// clamps return the lane of `x` when unordered.
    #[inline(always)]
    unsafe fn exp(x: Self::V) -> Self::V {
        let x = Self::min(Self::splat(EXP_HI), Self::max(Self::splat(EXP_LO), x));
        // round to nearest by adding and removing 1.5 * 2^23, which leaves
        // no fraction bits (exact while |x log2 e| < 2^22)
        let t = Self::mul(x, Self::splat(std::f32::consts::LOG2_E));
        let shift = Self::splat(12_582_912.0);
        let n = Self::sub(Self::add(t, shift), shift);
        let r = Self::fma(n, Self::splat(-LN2_HI), x);
        let r = Self::fma(n, Self::splat(-LN2_LO), r);
        let mut p = Self::splat(EXP_POLY[0]);
        for &c in &EXP_POLY[1..] {
            p = Self::fma(p, r, Self::splat(c));
        }
        let p = Self::fma(p, Self::mul(r, r), Self::add(r, Self::splat(1.0)));
        let scale = Self::min(Self::splat(127.0), Self::max(n, Self::splat(-127.0)));
        let rest = Self::f32_to_i32(Self::sub(n, scale));
        Self::mul(
            Self::mul(p, Self::pow2i(rest)),
            Self::pow2i(Self::f32_to_i32(scale)),
        )
    }
}

/// [`SimdF32::exp`]'s input clamps: below `EXP_LO` the result is zero,
/// above `EXP_HI` infinity, and in between `-151 <= n <= 145`, so the
/// remainder `n - clamp(n, -127, 127)` is a normal power of two.
const EXP_LO: f32 = -104.0;
/// See [`EXP_LO`].
const EXP_HI: f32 = 100.0;
/// `ln 2` split so that `n * LN2_HI` is exact for `|n| < 2^15`: this is
/// 355/512 exactly.
const LN2_HI: f32 = 0.693_359_4;
/// `ln 2 - LN2_HI`.
const LN2_LO: f32 = -2.121_944_4e-4;
/// Cephes' `expf` coefficients for `(e^r - 1 - r) / r^2`, highest
/// degree first.
const EXP_POLY: [f32; 6] = [
    1.987_569_1e-4,
    1.398_199_9e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    1.666_666_5e-1,
    0.5,
];

/// The u8×i8 dot product of the int8 brgemm, split into operand loads
/// and the multiply-accumulate so a register block loads (and, where the
/// backend has to, widens) each A row and B panel chunk once. All
/// implementations are exact integer math, so results are bit-identical
/// across backends.
pub(crate) trait DotU8I8: Copy {
    /// Accumulator state.
    type Acc: Copy;
    /// A loaded chunk of u8 activations.
    type A: Copy;
    /// A loaded chunk of i8 weights.
    type B: Copy;
    /// k elements consumed per step.
    const STEP: usize;
    /// Register-tile rows of the int8 brgemm body for this backend.
    const MR: usize;

    unsafe fn zero() -> Self::Acc;
    /// The first `1 <= len <= STEP` bytes at `p`, the rest of the chunk zero.
    /// A short load must not touch memory past `p + len`.
    unsafe fn load_a(p: *const u8, len: usize) -> Self::A;
    /// As [`Self::load_a`] for the weights.
    unsafe fn load_b(p: *const i8, len: usize) -> Self::B;
    /// `acc + a · b`, summed into whichever lanes the backend likes.
    unsafe fn dot(acc: Self::Acc, a: Self::A, b: Self::B) -> Self::Acc;
    /// Four accumulators reduced to their four totals.
    unsafe fn reduce4(acc: [Self::Acc; 4]) -> [i32; 4];
}

/// The first `1 <= len <= N` elements at `p`, the rest zero, without a
/// branch and without reading past `p + len`: lanes beyond `len` re-read
/// the last live element and are then zeroed.
#[inline(always)]
unsafe fn load_prefix<T: Copy + Default, const N: usize>(p: *const T, len: usize) -> [T; N] {
    debug_assert!(1 <= len && len <= N);
    if len == N {
        return (p as *const [T; N]).read_unaligned();
    }
    let mut v = [T::default(); N];
    for (l, out) in v.iter_mut().enumerate() {
        let x = *p.add(l.min(len - 1));
        *out = if l < len { x } else { T::default() };
    }
    v
}

/// The portable fallback: 8-wide lane arrays that LLVM autovectorizes
/// where it can, with mul-then-add rounding and a sequential lane
/// reduction. The eltwise, reduce and int8 families reproduce the
/// pre-dispatch kernels bit for bit; f32 brgemm does not — it sums the
/// whole batch in its lanes before reducing, where the old kernels
/// reduced and added into C once per batch element.
#[derive(Clone, Copy)]
pub(crate) struct ScalarBackend;

impl SimdF32 for ScalarBackend {
    type V = [f32; 8];
    type VI = [i32; 8];
    const LANES: usize = 8;
    const MR: usize = 2;

    #[inline(always)]
    unsafe fn zero() -> Self::V {
        [0.0; 8]
    }
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self::V {
        [x; 8]
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self::V {
        let mut v = [0.0; 8];
        for (l, out) in v.iter_mut().enumerate() {
            *out = *p.add(l);
        }
        v
    }
    #[inline(always)]
    unsafe fn load_len(p: *const f32, len: usize) -> Self::V {
        load_prefix(p, len)
    }
    #[inline(always)]
    unsafe fn store(p: *mut f32, v: Self::V) {
        for (l, x) in v.iter().enumerate() {
            *p.add(l) = *x;
        }
    }
    #[inline(always)]
    unsafe fn add(a: Self::V, b: Self::V) -> Self::V {
        let mut v = [0.0; 8];
        for l in 0..8 {
            v[l] = a[l] + b[l];
        }
        v
    }
    #[inline(always)]
    unsafe fn sub(a: Self::V, b: Self::V) -> Self::V {
        let mut v = [0.0; 8];
        for l in 0..8 {
            v[l] = a[l] - b[l];
        }
        v
    }
    #[inline(always)]
    unsafe fn mul(a: Self::V, b: Self::V) -> Self::V {
        let mut v = [0.0; 8];
        for l in 0..8 {
            v[l] = a[l] * b[l];
        }
        v
    }
    #[inline(always)]
    unsafe fn div(a: Self::V, b: Self::V) -> Self::V {
        let mut v = [0.0; 8];
        for l in 0..8 {
            v[l] = a[l] / b[l];
        }
        v
    }
    #[inline(always)]
    unsafe fn max(a: Self::V, b: Self::V) -> Self::V {
        // maxps semantics: NaN or equal lanes take the b operand.
        let mut v = [0.0; 8];
        for l in 0..8 {
            v[l] = if a[l] > b[l] { a[l] } else { b[l] };
        }
        v
    }
    #[inline(always)]
    unsafe fn min(a: Self::V, b: Self::V) -> Self::V {
        let mut v = [0.0; 8];
        for l in 0..8 {
            v[l] = if a[l] < b[l] { a[l] } else { b[l] };
        }
        v
    }
    #[inline(always)]
    unsafe fn fma(a: Self::V, b: Self::V, acc: Self::V) -> Self::V {
        let mut v = [0.0; 8];
        for l in 0..8 {
            v[l] = acc[l] + a[l] * b[l];
        }
        v
    }
    #[inline(always)]
    unsafe fn reduce_add(v: Self::V) -> f32 {
        v.iter().sum()
    }
    #[inline(always)]
    unsafe fn reduce_add4(v: [Self::V; 4]) -> [f32; 4] {
        v.map(|x| x.iter().sum())
    }
    #[inline(always)]
    unsafe fn reduce_max(v: Self::V) -> f32 {
        let mut m = v[0];
        for &x in &v[1..] {
            if x > m {
                m = x;
            }
        }
        m
    }

    #[inline(always)]
    unsafe fn round_half_away(v: Self::V) -> Self::V {
        v.map(f32::round)
    }
    #[inline(always)]
    unsafe fn zero_nan(v: Self::V) -> Self::V {
        v.map(|x| if x.is_nan() { 0.0 } else { x })
    }
    #[inline(always)]
    unsafe fn f32_to_i32(v: Self::V) -> Self::VI {
        v.map(|x| x as i32)
    }
    #[inline(always)]
    unsafe fn store_low_bytes(p: *mut u8, v: Self::VI) {
        for (l, x) in v.iter().enumerate() {
            *p.add(l) = *x as u8;
        }
    }

    #[inline(always)]
    unsafe fn load_i32(p: *const i32) -> Self::VI {
        let mut v = [0i32; 8];
        for (l, out) in v.iter_mut().enumerate() {
            *out = *p.add(l);
        }
        v
    }
    #[inline(always)]
    unsafe fn splat_i32(x: i32) -> Self::VI {
        [x; 8]
    }
    #[inline(always)]
    unsafe fn sub_i32(a: Self::VI, b: Self::VI) -> Self::VI {
        let mut v = [0i32; 8];
        for l in 0..8 {
            v[l] = a[l].wrapping_sub(b[l]);
        }
        v
    }
    #[inline(always)]
    unsafe fn mul_i32(a: Self::VI, b: Self::VI) -> Self::VI {
        let mut v = [0i32; 8];
        for l in 0..8 {
            v[l] = a[l].wrapping_mul(b[l]);
        }
        v
    }
    #[inline(always)]
    unsafe fn i32_to_f32(v: Self::VI) -> Self::V {
        let mut o = [0.0f32; 8];
        for l in 0..8 {
            o[l] = v[l] as f32;
        }
        o
    }
    #[inline(always)]
    unsafe fn pow2i(n: Self::VI) -> Self::V {
        n.map(|n| f32::from_bits((n.wrapping_add(127) as u32).wrapping_shl(23)))
    }
}

impl DotU8I8 for ScalarBackend {
    // 4-way accumulators mirror VNNI's 4-element dot-product groups,
    // exactly as the pre-dispatch `dot_u8i8` did.
    type Acc = [i32; 4];
    type A = [u8; 4];
    type B = [i8; 4];
    const STEP: usize = 4;
    const MR: usize = 2;

    #[inline(always)]
    unsafe fn zero() -> Self::Acc {
        [0; 4]
    }
    #[inline(always)]
    unsafe fn load_a(p: *const u8, len: usize) -> Self::A {
        load_prefix(p, len)
    }
    #[inline(always)]
    unsafe fn load_b(p: *const i8, len: usize) -> Self::B {
        load_prefix(p, len)
    }
    #[inline(always)]
    unsafe fn dot(mut acc: Self::Acc, a: Self::A, b: Self::B) -> Self::Acc {
        for l in 0..4 {
            acc[l] += a[l] as i32 * b[l] as i32;
        }
        acc
    }
    #[inline(always)]
    unsafe fn reduce4(acc: [Self::Acc; 4]) -> [i32; 4] {
        acc.map(|x| x.iter().sum())
    }
}
