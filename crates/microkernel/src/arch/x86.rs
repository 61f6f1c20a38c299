//! x86_64 SIMD backends: AVX2+FMA and AVX-512 (with a VNNI int8 dot
//! where the CPU has it), written directly against
//! [`core::arch::x86_64`] intrinsics.
//!
//! Each backend implements the traits in [`super::simd`] with
//! `#[inline(always)]` methods; the `avx2_kernels` / `avx512_kernels`
//! modules wrap each generic body from [`super::body`] in a
//! `#[target_feature]` function so the whole kernel compiles as one
//! vectorized unit. The wrappers are what a backend's table stores —
//! they are `unsafe fn`s whose single precondition is that the features
//! named in their attribute are supported by the running CPU.

#![cfg(target_arch = "x86_64")]

use super::body;
use super::simd::{DotU8I8, SimdF32};
use crate::chain::{RowChain, MAX_BUFFERS};
use core::arch::x86_64::*;

/// `vmaskmovps` masks: the 8 lanes starting at index `8 - len` have
/// their sign bit set in exactly the first `len` lanes.
static YMM_LANE_MASKS: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

/// The largest f32 below one half (`0.5 - 2^-25`).
const HALF_PRED: f32 = 0.499_999_97;

/// Four 8-lane f32 sums: `out[j]` adds the lanes of `y[j]` as
/// `((y0+y1)+(y2+y3)) + ((y4+y5)+(y6+y7))` and reads no other vector.
#[inline(always)]
unsafe fn reduce4_ps(y: [__m256; 4]) -> [f32; 4] {
    let h = _mm256_hadd_ps(_mm256_hadd_ps(y[0], y[1]), _mm256_hadd_ps(y[2], y[3]));
    let s = _mm_add_ps(_mm256_castps256_ps128(h), _mm256_extractf128_ps(h, 1));
    let mut out = [0.0; 4];
    _mm_storeu_ps(out.as_mut_ptr(), s);
    out
}

/// Four 8-lane i32 totals (wrapping adds, so the order is immaterial).
#[inline(always)]
unsafe fn reduce4_epi32(y: [__m256i; 4]) -> [i32; 4] {
    let h = _mm256_hadd_epi32(_mm256_hadd_epi32(y[0], y[1]), _mm256_hadd_epi32(y[2], y[3]));
    let s = _mm_add_epi32(_mm256_castsi256_si128(h), _mm256_extracti128_si256(h, 1));
    let mut out = [0; 4];
    _mm_storeu_si128(out.as_mut_ptr() as *mut __m128i, s);
    out
}

/// A zmm's high half added onto its low half, so the 512-bit backends
/// share the 8-lane reductions above. (Plain functions, not closures: a
/// closure is not guaranteed to inline into the `#[target_feature]`
/// entry point, and out of line it would call every intrinsic.)
#[inline(always)]
unsafe fn fold_ps(z: __m512) -> __m256 {
    let hi = _mm512_extractf64x4_pd(_mm512_castps_pd(z), 1);
    _mm256_add_ps(_mm512_castps512_ps256(z), _mm256_castpd_ps(hi))
}

/// As [`fold_ps`] for i32 lanes.
#[inline(always)]
unsafe fn fold_epi32(z: __m512i) -> __m256i {
    _mm256_add_epi32(_mm512_castsi512_si256(z), _mm512_extracti64x4_epi64(z, 1))
}

/// AVX2 + FMA: 8 f32 lanes, 16 vector registers.
#[derive(Clone, Copy)]
pub(crate) struct Avx2;

impl SimdF32 for Avx2 {
    type V = __m256;
    type VI = __m256i;
    const LANES: usize = 8;
    // 3x4 accumulator block: 12 of 16 ymm registers, leaving room for
    // the A broadcast and B load.
    const MR: usize = 3;

    #[inline(always)]
    unsafe fn zero() -> Self::V {
        _mm256_setzero_ps()
    }
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self::V {
        _mm256_set1_ps(x)
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self::V {
        _mm256_loadu_ps(p)
    }
    #[inline(always)]
    unsafe fn load_len(p: *const f32, len: usize) -> Self::V {
        if len == Self::LANES {
            return _mm256_loadu_ps(p);
        }
        // vmaskmovps suppresses faults on (and never reads) masked-off
        // lanes.
        let mask = _mm256_loadu_si256(YMM_LANE_MASKS.as_ptr().add(8 - len) as *const __m256i);
        _mm256_maskload_ps(p, mask)
    }
    #[inline(always)]
    unsafe fn store(p: *mut f32, v: Self::V) {
        _mm256_storeu_ps(p, v)
    }
    #[inline(always)]
    unsafe fn add(a: Self::V, b: Self::V) -> Self::V {
        _mm256_add_ps(a, b)
    }
    #[inline(always)]
    unsafe fn sub(a: Self::V, b: Self::V) -> Self::V {
        _mm256_sub_ps(a, b)
    }
    #[inline(always)]
    unsafe fn mul(a: Self::V, b: Self::V) -> Self::V {
        _mm256_mul_ps(a, b)
    }
    #[inline(always)]
    unsafe fn div(a: Self::V, b: Self::V) -> Self::V {
        _mm256_div_ps(a, b)
    }
    #[inline(always)]
    unsafe fn max(a: Self::V, b: Self::V) -> Self::V {
        _mm256_max_ps(a, b)
    }
    #[inline(always)]
    unsafe fn min(a: Self::V, b: Self::V) -> Self::V {
        _mm256_min_ps(a, b)
    }
    #[inline(always)]
    unsafe fn fma(a: Self::V, b: Self::V, acc: Self::V) -> Self::V {
        _mm256_fmadd_ps(a, b, acc)
    }
    #[inline(always)]
    unsafe fn reduce_add(v: Self::V) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let s = _mm_add_ps(lo, hi);
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
        _mm_cvtss_f32(s)
    }
    #[inline(always)]
    unsafe fn reduce_add4(v: [Self::V; 4]) -> [f32; 4] {
        reduce4_ps(v)
    }
    #[inline(always)]
    unsafe fn reduce_max(v: Self::V) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let s = _mm_max_ps(lo, hi);
        let s = _mm_max_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 1));
        _mm_cvtss_f32(s)
    }

    #[inline(always)]
    unsafe fn round_half_away(v: Self::V) -> Self::V {
        // trunc(v + copysign(pred(0.5), v)): the largest float below one
        // half keeps 0.49999997 from rounding up while every tie still
        // reaches the next integer. NaN propagates through both steps.
        let sign = _mm256_and_ps(v, _mm256_set1_ps(-0.0));
        let half = _mm256_or_ps(_mm256_set1_ps(HALF_PRED), sign);
        _mm256_round_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(_mm256_add_ps(v, half))
    }
    #[inline(always)]
    unsafe fn zero_nan(v: Self::V) -> Self::V {
        _mm256_and_ps(v, _mm256_cmp_ps::<_CMP_ORD_Q>(v, v))
    }
    #[inline(always)]
    unsafe fn f32_to_i32(v: Self::V) -> Self::VI {
        _mm256_cvttps_epi32(v)
    }
    #[inline(always)]
    unsafe fn store_low_bytes(p: *mut u8, v: Self::VI) {
        let words = _mm_packus_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
        _mm_storel_epi64(p as *mut __m128i, _mm_packus_epi16(words, words));
    }

    #[inline(always)]
    unsafe fn load_i32(p: *const i32) -> Self::VI {
        _mm256_loadu_si256(p as *const __m256i)
    }
    #[inline(always)]
    unsafe fn splat_i32(x: i32) -> Self::VI {
        _mm256_set1_epi32(x)
    }
    #[inline(always)]
    unsafe fn sub_i32(a: Self::VI, b: Self::VI) -> Self::VI {
        _mm256_sub_epi32(a, b)
    }
    #[inline(always)]
    unsafe fn mul_i32(a: Self::VI, b: Self::VI) -> Self::VI {
        _mm256_mullo_epi32(a, b)
    }
    #[inline(always)]
    unsafe fn i32_to_f32(v: Self::VI) -> Self::V {
        _mm256_cvtepi32_ps(v)
    }
    #[inline(always)]
    unsafe fn pow2i(n: Self::VI) -> Self::V {
        let biased = _mm256_add_epi32(n, _mm256_set1_epi32(127));
        _mm256_castsi256_ps(_mm256_slli_epi32::<23>(biased))
    }
}

/// AVX2 u8×i8 dot: widen both operands to i16 and use `pmaddwd`
/// (16-bit multiply, pairwise add into i32). The products fit i16
/// (|255 * 127| ≤ 32385) and each pair sum fits i32, so this is exact
/// — bit-identical to the scalar dot.
#[derive(Clone, Copy)]
pub(crate) struct Avx2Dot;

impl DotU8I8 for Avx2Dot {
    type Acc = __m256i;
    // Operands are kept widened to i16, so a register block widens each
    // chunk once instead of once per output.
    type A = __m256i;
    type B = __m256i;
    const STEP: usize = 16;
    // 2x4 accumulators + 4 widened B chunks + 2 A chunks: 14 of 16 ymm.
    const MR: usize = 2;

    #[inline(always)]
    unsafe fn zero() -> Self::Acc {
        _mm256_setzero_si256()
    }
    #[inline(always)]
    unsafe fn load_a(p: *const u8, len: usize) -> Self::A {
        _mm256_cvtepu8_epi16(load_bytes_128(p, len))
    }
    #[inline(always)]
    unsafe fn load_b(p: *const i8, len: usize) -> Self::B {
        _mm256_cvtepi8_epi16(load_bytes_128(p as *const u8, len))
    }
    #[inline(always)]
    unsafe fn dot(acc: Self::Acc, a: Self::A, b: Self::B) -> Self::Acc {
        _mm256_add_epi32(acc, _mm256_madd_epi16(a, b))
    }
    #[inline(always)]
    unsafe fn reduce4(acc: [Self::Acc; 4]) -> [i32; 4] {
        reduce4_epi32(acc)
    }
}

/// The first `1 <= len <= 16` bytes at `p`, zero-extended to 16. AVX2
/// has no byte-masked load, so a short chunk is assembled from two
/// narrower loads that both lie inside `p..p + len` and overlap in the
/// middle — nothing past `len` is read and nothing goes through memory.
#[inline(always)]
unsafe fn load_bytes_128(p: *const u8, len: usize) -> __m128i {
    if len == 16 {
        return _mm_loadu_si128(p as *const __m128i);
    }
    let u64_at = |q: *const u8| (q as *const u64).read_unaligned();
    let (lo, hi) = if len > 8 {
        // The tail load's low bytes repeat the head's; shift them out.
        (u64_at(p), u64_at(p.add(len - 8)) >> (8 * (16 - len)))
    } else {
        (load_bytes_64(p, len), 0)
    };
    _mm_set_epi64x(hi as i64, lo as i64)
}

/// The first `1 <= len <= 8` bytes at `p` as a little-endian integer.
/// Where the two loads overlap they carry the same bytes, so OR-ing the
/// tail in at its own offset is exact.
#[inline(always)]
unsafe fn load_bytes_64(p: *const u8, len: usize) -> u64 {
    if len == 8 {
        (p as *const u64).read_unaligned()
    } else if len >= 4 {
        let u32_at = |q: *const u8| (q as *const u32).read_unaligned() as u64;
        u32_at(p) | u32_at(p.add(len - 4)) << (8 * (len - 4))
    } else {
        // bytes 0, len / 2 and len - 1 cover every length below four
        let at = |i: usize| (*p.add(i) as u64) << (8 * i);
        at(0) | at(len / 2) | at(len - 1)
    }
}

/// AVX-512: 16 f32 lanes, 32 vector registers.
#[derive(Clone, Copy)]
pub(crate) struct Avx512;

impl SimdF32 for Avx512 {
    type V = __m512;
    type VI = __m512i;
    const LANES: usize = 16;
    // 4x4 accumulator block: 16 of 32 zmm registers.
    const MR: usize = 4;

    #[inline(always)]
    unsafe fn zero() -> Self::V {
        _mm512_setzero_ps()
    }
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self::V {
        _mm512_set1_ps(x)
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self::V {
        _mm512_loadu_ps(p)
    }
    #[inline(always)]
    unsafe fn load_len(p: *const f32, len: usize) -> Self::V {
        if len == Self::LANES {
            return _mm512_loadu_ps(p);
        }
        // Masked-off lanes are neither read nor faulted on.
        _mm512_maskz_loadu_ps((1u16 << len) - 1, p)
    }
    #[inline(always)]
    unsafe fn store(p: *mut f32, v: Self::V) {
        _mm512_storeu_ps(p, v)
    }
    #[inline(always)]
    unsafe fn add(a: Self::V, b: Self::V) -> Self::V {
        _mm512_add_ps(a, b)
    }
    #[inline(always)]
    unsafe fn sub(a: Self::V, b: Self::V) -> Self::V {
        _mm512_sub_ps(a, b)
    }
    #[inline(always)]
    unsafe fn mul(a: Self::V, b: Self::V) -> Self::V {
        _mm512_mul_ps(a, b)
    }
    #[inline(always)]
    unsafe fn div(a: Self::V, b: Self::V) -> Self::V {
        _mm512_div_ps(a, b)
    }
    #[inline(always)]
    unsafe fn max(a: Self::V, b: Self::V) -> Self::V {
        _mm512_max_ps(a, b)
    }
    #[inline(always)]
    unsafe fn min(a: Self::V, b: Self::V) -> Self::V {
        _mm512_min_ps(a, b)
    }
    #[inline(always)]
    unsafe fn fma(a: Self::V, b: Self::V, acc: Self::V) -> Self::V {
        _mm512_fmadd_ps(a, b, acc)
    }
    #[inline(always)]
    unsafe fn reduce_add(v: Self::V) -> f32 {
        _mm512_reduce_add_ps(v)
    }
    #[inline(always)]
    unsafe fn reduce_add4(v: [Self::V; 4]) -> [f32; 4] {
        reduce4_ps([fold_ps(v[0]), fold_ps(v[1]), fold_ps(v[2]), fold_ps(v[3])])
    }
    #[inline(always)]
    unsafe fn reduce_max(v: Self::V) -> f32 {
        _mm512_reduce_max_ps(v)
    }

    #[inline(always)]
    unsafe fn round_half_away(v: Self::V) -> Self::V {
        // As for AVX2; the sign transfer goes through the integer domain
        // because `vandps zmm` is AVX-512DQ.
        let sign = _mm512_and_si512(_mm512_castps_si512(v), _mm512_set1_epi32(i32::MIN));
        let half = _mm512_or_si512(_mm512_castps_si512(_mm512_set1_ps(HALF_PRED)), sign);
        // imm 0x0B: scale 0, truncate, exceptions suppressed.
        _mm512_roundscale_ps::<0x0B>(_mm512_add_ps(v, _mm512_castsi512_ps(half)))
    }
    #[inline(always)]
    unsafe fn zero_nan(v: Self::V) -> Self::V {
        _mm512_maskz_mov_ps(_mm512_cmp_ps_mask::<_CMP_ORD_Q>(v, v), v)
    }
    #[inline(always)]
    unsafe fn f32_to_i32(v: Self::V) -> Self::VI {
        _mm512_cvttps_epi32(v)
    }
    #[inline(always)]
    unsafe fn store_low_bytes(p: *mut u8, v: Self::VI) {
        _mm_storeu_si128(p as *mut __m128i, _mm512_cvtepi32_epi8(v));
    }

    #[inline(always)]
    unsafe fn load_i32(p: *const i32) -> Self::VI {
        _mm512_loadu_si512(p as *const __m512i)
    }
    #[inline(always)]
    unsafe fn splat_i32(x: i32) -> Self::VI {
        _mm512_set1_epi32(x)
    }
    #[inline(always)]
    unsafe fn sub_i32(a: Self::VI, b: Self::VI) -> Self::VI {
        _mm512_sub_epi32(a, b)
    }
    #[inline(always)]
    unsafe fn mul_i32(a: Self::VI, b: Self::VI) -> Self::VI {
        _mm512_mullo_epi32(a, b)
    }
    #[inline(always)]
    unsafe fn i32_to_f32(v: Self::VI) -> Self::V {
        _mm512_cvtepi32_ps(v)
    }
    #[inline(always)]
    unsafe fn pow2i(n: Self::VI) -> Self::V {
        let biased = _mm512_add_epi32(n, _mm512_set1_epi32(127));
        _mm512_castsi512_ps(_mm512_slli_epi32::<23>(biased))
    }
}

/// AVX-512 VNNI u8×i8 dot: `vpdpbusd` accumulates 4-element dot groups
/// straight into i32 lanes — the instruction the paper's int8 kernels
/// are built on. Exact.
#[derive(Clone, Copy)]
pub(crate) struct VnniDot;

impl DotU8I8 for VnniDot {
    type Acc = __m512i;
    type A = __m512i;
    type B = __m512i;
    const STEP: usize = 64;
    // 4x4 accumulators + 4 B chunks + 4 A chunks: 24 of 32 zmm.
    const MR: usize = 4;

    #[inline(always)]
    unsafe fn zero() -> Self::Acc {
        _mm512_setzero_si512()
    }
    #[inline(always)]
    unsafe fn load_a(p: *const u8, len: usize) -> Self::A {
        load_bytes_512(p, len)
    }
    #[inline(always)]
    unsafe fn load_b(p: *const i8, len: usize) -> Self::B {
        load_bytes_512(p as *const u8, len)
    }
    #[inline(always)]
    unsafe fn dot(acc: Self::Acc, a: Self::A, b: Self::B) -> Self::Acc {
        _mm512_dpbusd_epi32(acc, a, b)
    }
    #[inline(always)]
    unsafe fn reduce4(acc: [Self::Acc; 4]) -> [i32; 4] {
        reduce4_epi32([
            fold_epi32(acc[0]),
            fold_epi32(acc[1]),
            fold_epi32(acc[2]),
            fold_epi32(acc[3]),
        ])
    }
}

/// The first `len <= 64` bytes at `p`, zero-extended to 64: a k chunk
/// shorter than the `vpdpbusd` step (every chunk of a `kb = 32` tile) is
/// a byte-masked load, whose masked-off bytes are neither read nor
/// faulted on.
#[inline(always)]
unsafe fn load_bytes_512(p: *const u8, len: usize) -> __m512i {
    if len == 64 {
        return _mm512_loadu_si512(p as *const __m512i);
    }
    _mm512_maskz_loadu_epi8((1u64 << len) - 1, p as *const i8)
}

/// Generate the `#[target_feature]` entry points for one backend: each
/// is the generic body instantiated with the backend type, compiled
/// with the backend's features enabled so the `#[inline(always)]` trait
/// methods fold into straight-line vector code.
macro_rules! isa_entry_points {
    ($modname:ident, $feat:literal, $simd:ty, $dot:ty) => {
        pub(crate) mod $modname {
            use super::*;

            #[target_feature(enable = $feat)]
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
                body::brgemm_f32::<$simd>(m, n, k, a_buf, a_offs, b_buf, b_offs, c)
            }

            #[target_feature(enable = $feat)]
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
                body::brgemm_u8i8::<$dot>(m, n, k, a_buf, a_offs, b_buf, b_offs, c)
            }

            #[target_feature(enable = $feat)]
            pub(crate) unsafe fn relu(src: &[f32], dst: &mut [f32]) {
                body::relu::<$simd>(src, dst)
            }

            #[target_feature(enable = $feat)]
            pub(crate) unsafe fn row_chain(
                c: &RowChain,
                src: *const f32,
                dst: *mut f32,
                side: &[*const f32; MAX_BUFFERS - 1],
            ) {
                body::row_chain::<$simd>(c, src, dst, side)
            }

            #[target_feature(enable = $feat)]
            pub(crate) unsafe fn binary_add(a: &[f32], b: &[f32], dst: &mut [f32]) {
                body::binary_add::<$simd>(a, b, dst)
            }

            #[target_feature(enable = $feat)]
            pub(crate) unsafe fn reduce_sum(xs: &[f32]) -> f32 {
                body::reduce_sum::<$simd>(xs)
            }

            #[target_feature(enable = $feat)]
            pub(crate) unsafe fn reduce_max(xs: &[f32]) -> f32 {
                body::reduce_max::<$simd>(xs)
            }

            #[target_feature(enable = $feat)]
            pub(crate) unsafe fn requant_u8(
                xs: &[f32],
                inv_scale: f32,
                zero_point: i32,
                out: &mut [u8],
            ) {
                body::requant_u8::<$simd>(xs, inv_scale, zero_point, out)
            }

            #[target_feature(enable = $feat)]
            pub(crate) unsafe fn dequant(
                acc: &[i32],
                m: usize,
                n: usize,
                comp: &[i32],
                a_zero: i32,
                scale: f32,
                out: &mut [f32],
            ) {
                body::dequant::<$simd>(acc, m, n, comp, a_zero, scale, out)
            }
        }
    };
}

isa_entry_points!(avx2_kernels, "avx2,fma", Avx2, Avx2Dot);
// Without VNNI the int8 dot falls back to the AVX2 `pmaddwd` scheme
// (exact either way); the f32/eltwise families still run 512-bit.
isa_entry_points!(avx512_kernels, "avx512f,avx512bw,avx2,fma", Avx512, Avx2Dot);

/// The VNNI int8 entry, split out because it needs its own feature set.
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn brgemm_u8i8_vnni(
    m: usize,
    n: usize,
    k: usize,
    a_buf: &[u8],
    a_offs: &[usize],
    b_buf: &[i8],
    b_offs: &[usize],
    c: &mut [i32],
) {
    body::brgemm_u8i8::<VnniDot>(m, n, k, a_buf, a_offs, b_buf, b_offs, c)
}
