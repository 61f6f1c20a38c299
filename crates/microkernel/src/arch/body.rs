//! Generic kernel bodies: one body per kernel family, written against
//! the [`SimdF32`] / [`DotU8I8`] traits and instantiated per backend by
//! the `#[target_feature]` wrappers in the arch submodules.
//!
//! # Safety
//!
//! Every function here is `unsafe` with the same two-part contract:
//!
//! - the caller runs on a CPU supporting the backend's ISA (upheld by
//!   `kernels`, which only hands out handles to detected backends);
//! - slice arguments cover the strided extents documented per function
//!   (upheld by the asserts in the `Kernels` methods).

// The register-tile loops index fixed-size accumulator arrays and
// strided tail ranges on purpose; iterator forms obscure the blocking.
#![allow(clippy::needless_range_loop)]

use super::simd::{DotU8I8, SimdF32};
use crate::chain::{ChainStep, RowChain, MAX_BUFFERS, MAX_CONSTS};
use crate::{BinaryOp, ReduceOp, UnaryOp};

/// Register-tile columns (B panels) of the brgemm bodies, shared by all
/// backends and both dtypes; rows come from the backend's `MR`. The
/// 4-wide horizontal reductions (`reduce_add4` / `reduce4`) are sized to
/// it.
pub(crate) const NR: usize = 4;

/// Walk an `m x n` C tile in register blocks of at most `mr_max x NR`,
/// binding each block's origin to `$i`/`$j` and calling the matching
/// `MR_ x NR_` instantiation of a const-generic micro body. Ragged edges
/// of C get narrower instantiations of the *same* body, so a C element's
/// reduction order never depends on which block it fell into.
macro_rules! for_each_register_block {
    ($m:expr, $n:expr, $mr_max:expr, |$i:ident, $j:ident| $micro:ident::<$backend:ty>($($arg:expr),*)) => {{
        let mut $i = 0;
        while $i < $m {
            let mr = $mr_max.min($m - $i);
            let mut $j = 0;
            while $j < $n {
                let nr = NR.min($n - $j);
                match (mr, nr) {
                    (1, 1) => $micro::<$backend, 1, 1>($($arg),*),
                    (1, 2) => $micro::<$backend, 1, 2>($($arg),*),
                    (1, 3) => $micro::<$backend, 1, 3>($($arg),*),
                    (1, 4) => $micro::<$backend, 1, 4>($($arg),*),
                    (2, 1) => $micro::<$backend, 2, 1>($($arg),*),
                    (2, 2) => $micro::<$backend, 2, 2>($($arg),*),
                    (2, 3) => $micro::<$backend, 2, 3>($($arg),*),
                    (2, 4) => $micro::<$backend, 2, 4>($($arg),*),
                    (3, 1) => $micro::<$backend, 3, 1>($($arg),*),
                    (3, 2) => $micro::<$backend, 3, 2>($($arg),*),
                    (3, 3) => $micro::<$backend, 3, 3>($($arg),*),
                    (3, 4) => $micro::<$backend, 3, 4>($($arg),*),
                    (4, 1) => $micro::<$backend, 4, 1>($($arg),*),
                    (4, 2) => $micro::<$backend, 4, 2>($($arg),*),
                    (4, 3) => $micro::<$backend, 4, 3>($($arg),*),
                    (4, 4) => $micro::<$backend, 4, 4>($($arg),*),
                    (mr, nr) => unreachable!("register block {mr}x{nr} out of table"),
                }
                $j += nr;
            }
            $i += mr;
        }
    }};
}

/// f32 batch-reduce GEMM, `C[m,n] += Σ_b A_b[m,k] × B_b[n,k]`: A tiles
/// are row-major at `a_buf[a_offs[b]..]`, B tiles panel-major at
/// `b_buf[b_offs[b]..]`, C is row-major with row stride `n`.
///
/// C is walked in `S::MR x NR` register blocks. A block's accumulators
/// stay live across the whole batch and every k chunk — a k remainder
/// shorter than a vector is one more FMA on a partial load — and are
/// reduced horizontally once, so C is read and written exactly once per
/// call. Each C element therefore sees the same operation sequence
/// whatever block it falls into: its value depends on `k`, the batch and
/// the operand values, never on `m`, `n` or the block split, which is
/// what makes a tail call bit-identical to the row prefix of a full
/// call within one backend.
///
/// # Safety
///
/// `a_offs.len() == b_offs.len()`; for every batch element
/// `a_offs[b] + m * k <= a_buf.len()` and
/// `b_offs[b] + n * k <= b_buf.len()`; `c.len() >= m * n`; and the
/// backend's ISA is available.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn brgemm_f32<S: SimdF32>(
    m: usize,
    n: usize,
    k: usize,
    a_buf: &[f32],
    a_offs: &[usize],
    b_buf: &[f32],
    b_offs: &[usize],
    c: &mut [f32],
) {
    debug_assert!(a_offs.len() == b_offs.len() && c.len() >= m * n);
    debug_assert!(a_offs.iter().all(|&o| o + m * k <= a_buf.len()));
    debug_assert!(b_offs.iter().all(|&o| o + n * k <= b_buf.len()));
    debug_assert!(S::MR <= 4 && S::MR >= 1);
    let (a, b, c) = (a_buf.as_ptr(), b_buf.as_ptr(), c.as_mut_ptr());
    for_each_register_block!(m, n, S::MR, |i, j| micro_f32::<S>(
        k,
        n,
        a,
        i * k,
        a_offs,
        b,
        j * k,
        b_offs,
        c.add(i * n + j)
    ));
}

/// One `MR_ x NR_` block of [`brgemm_f32`]: C block at `c` (row stride
/// `n`), A rows of batch element `b` at `a + a_offs[b] + a_row` (row
/// stride `k`), B panels at `b + b_offs[b] + b_row` (panel stride `k`).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn micro_f32<S: SimdF32, const MR_: usize, const NR_: usize>(
    k: usize,
    n: usize,
    a: *const f32,
    a_row: usize,
    a_offs: &[usize],
    b: *const f32,
    b_row: usize,
    b_offs: &[usize],
    c: *mut f32,
) {
    let mut acc = [[S::zero(); NR]; MR_];
    let full = k - k % S::LANES;
    for (&ao, &bo) in a_offs.iter().zip(b_offs) {
        let ap = a.add(ao + a_row);
        let bp = b.add(bo + b_row);
        let mut l = 0;
        while l < full {
            fma_step::<S, MR_, NR_>(&mut acc, ap.add(l), bp.add(l), k, S::LANES);
            l += S::LANES;
        }
        if full < k {
            fma_step::<S, MR_, NR_>(&mut acc, ap.add(full), bp.add(full), k, k - full);
        }
    }
    for ii in 0..MR_ {
        // Columns past NR_ stay zero vectors; `reduce_add4` reduces each
        // lane of its argument independently.
        let sums = S::reduce_add4(acc[ii]);
        for jj in 0..NR_ {
            *c.add(ii * n + jj) += sums[jj];
        }
    }
}

/// `acc[i][j] += a_i[0..len] · b_j[0..len]` lane-wise for one k chunk of
/// `len <= S::LANES` elements; nothing past `len` is read.
#[inline(always)]
unsafe fn fma_step<S: SimdF32, const MR_: usize, const NR_: usize>(
    acc: &mut [[S::V; NR]; MR_],
    ap: *const f32,
    bp: *const f32,
    k: usize,
    len: usize,
) {
    for jj in 0..NR_ {
        let bv = S::load_len(bp.add(jj * k), len);
        for ii in 0..MR_ {
            let av = S::load_len(ap.add(ii * k), len);
            acc[ii][jj] = S::fma(av, bv, acc[ii][jj]);
        }
    }
}

/// Int8 batch-reduce GEMM: u8 activations × i8 weights into i32, same
/// layout, blocking and accumulate-across-batch structure as
/// [`brgemm_f32`]. Exact integer math in every backend.
///
/// # Safety
///
/// As for [`brgemm_f32`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn brgemm_u8i8<D: DotU8I8>(
    m: usize,
    n: usize,
    k: usize,
    a_buf: &[u8],
    a_offs: &[usize],
    b_buf: &[i8],
    b_offs: &[usize],
    c: &mut [i32],
) {
    debug_assert!(a_offs.len() == b_offs.len() && c.len() >= m * n);
    debug_assert!(a_offs.iter().all(|&o| o + m * k <= a_buf.len()));
    debug_assert!(b_offs.iter().all(|&o| o + n * k <= b_buf.len()));
    debug_assert!(D::MR <= 4 && D::MR >= 1);
    let (a, b, c) = (a_buf.as_ptr(), b_buf.as_ptr(), c.as_mut_ptr());
    for_each_register_block!(m, n, D::MR, |i, j| micro_u8i8::<D>(
        k,
        n,
        a,
        i * k,
        a_offs,
        b,
        j * k,
        b_offs,
        c.add(i * n + j)
    ));
}

/// One `MR_ x NR_` block of [`brgemm_u8i8`]; operands as in
/// [`micro_f32`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn micro_u8i8<D: DotU8I8, const MR_: usize, const NR_: usize>(
    k: usize,
    n: usize,
    a: *const u8,
    a_row: usize,
    a_offs: &[usize],
    b: *const i8,
    b_row: usize,
    b_offs: &[usize],
    c: *mut i32,
) {
    let mut acc = [[D::zero(); NR]; MR_];
    let full = k - k % D::STEP;
    for (&ao, &bo) in a_offs.iter().zip(b_offs) {
        let ap = a.add(ao + a_row);
        let bp = b.add(bo + b_row);
        let mut l = 0;
        while l < full {
            dot_step::<D, MR_, NR_>(&mut acc, ap.add(l), bp.add(l), k, D::STEP);
            l += D::STEP;
        }
        if full < k {
            dot_step::<D, MR_, NR_>(&mut acc, ap.add(full), bp.add(full), k, k - full);
        }
    }
    for ii in 0..MR_ {
        let sums = D::reduce4(acc[ii]);
        for jj in 0..NR_ {
            *c.add(ii * n + jj) += sums[jj];
        }
    }
}

/// `acc[i][j] += a_i[0..len] · b_j[0..len]` for one k chunk of
/// `len <= D::STEP` elements; nothing past `len` is read.
#[inline(always)]
unsafe fn dot_step<D: DotU8I8, const MR_: usize, const NR_: usize>(
    acc: &mut [[D::Acc; NR]; MR_],
    ap: *const u8,
    bp: *const i8,
    k: usize,
    len: usize,
) {
    let mut av = [D::load_a(ap, len); MR_];
    for ii in 1..MR_ {
        av[ii] = D::load_a(ap.add(ii * k), len);
    }
    for jj in 0..NR_ {
        let bv = D::load_b(bp.add(jj * k), len);
        for ii in 0..MR_ {
            acc[ii][jj] = D::dot(acc[ii][jj], av[ii], bv);
        }
    }
}

/// `dst[i] = max(src[i], 0)`.
///
/// # Safety
///
/// `src.len() == dst.len()` and the backend's ISA is available.
#[inline(always)]
pub(crate) unsafe fn relu<S: SimdF32>(src: &[f32], dst: &mut [f32]) {
    debug_assert_eq!(src.len(), dst.len());
    let n = src.len();
    let z = S::zero();
    let chunks = n / S::LANES;
    for ch in 0..chunks {
        let p = ch * S::LANES;
        S::store(
            dst.as_mut_ptr().add(p),
            S::max(S::load(src.as_ptr().add(p)), z),
        );
    }
    for l in chunks * S::LANES..n {
        let x = src[l];
        dst[l] = if x > 0.0 { x } else { 0.0 };
    }
}

/// Store the first `len <= S::LANES` lanes of `v` at `p`, touching
/// nothing past `p + len`.
#[inline(always)]
unsafe fn store_prefix<S: SimdF32>(p: *mut f32, v: S::V, len: usize) {
    if len == S::LANES {
        return S::store(p, v);
    }
    let mut lanes = [0.0f32; 16];
    debug_assert!(S::LANES <= lanes.len());
    S::store(lanes.as_mut_ptr(), v);
    std::ptr::copy_nonoverlapping(lanes.as_ptr(), p, len);
}

/// Rows a [`row_chain`] call works on at once: as many as keep a group's
/// working set near 8 KiB (L1-resident between steps), at most this many.
const CHAIN_GROUP_ROWS: usize = 64;
/// See [`CHAIN_GROUP_ROWS`].
const CHAIN_GROUP_ELEMS: usize = 2048;

/// `$dst[k] = $f` for `k` in `0..$len`, a vector at a time: `$v` is the
/// vector loaded from `$src` at element `$at`, `$n <= S::LANES` its width
/// (zero lanes past it are loaded, never stored). A macro rather than a
/// closure so the body inlines into the `#[target_feature]` entry point.
macro_rules! map_run {
    ($src:expr, $dst:expr, $len:expr, |$v:ident, $at:ident, $n:ident| $f:expr) => {{
        let (src, dst, len) = ($src, $dst, $len);
        let mut $at = 0;
        while $at < len {
            let $n = S::LANES.min(len - $at);
            let $v = S::load_len(src.add($at), $n);
            store_prefix::<S>(dst.add($at), $f, $n);
            $at += S::LANES;
        }
    }};
}

/// [`crate::RowChain`]'s kernel: see `crate::chain` for the program and
/// the layout. The block is processed in groups of rows; within a group
/// the program runs step by step, each step one tight vector loop over
/// the group's row segments from where the values are (`src` before the
/// first elementwise step, `dst` after) into `dst`. A reduction folds
/// each row into the group's row stats, which the following stat steps
/// broadcast; a column-vector step broadcasts its side operand's value
/// for the row the same way. Width tails are partial vectors, reduced
/// lane by lane.
///
/// # Safety
///
/// `src` and `dst` are valid for [`crate::RowChain::elems`] elements and
/// either equal or disjoint; `side[i]` is valid for
/// [`crate::RowChain::side_len`]`(i)` for every side operand; the
/// backend's ISA is available.
#[inline(always)]
pub(crate) unsafe fn row_chain<S: SimdF32>(
    c: &RowChain,
    src: *const f32,
    dst: *mut f32,
    side: &[*const f32; MAX_BUFFERS - 1],
) {
    let (rows, cols, tiles, ld) = (c.rows(), c.cols(), c.tiles(), c.full_stride());
    let tile = rows * cols;
    let group = (CHAIN_GROUP_ELEMS / (tiles * cols).max(1)).clamp(1, CHAIN_GROUP_ROWS);
    // scalar operands as vectors; a division becomes a reciprocal product
    let mut consts = [S::zero(); MAX_CONSTS];
    for s in c.steps() {
        if let ChainStep::Scalar(op, k) = *s {
            let x = c.constant(k);
            consts[usize::from(k)] = S::splat(if op == BinaryOp::Div { 1.0 / x } else { x });
        }
    }
    let mut stats = [0.0f32; CHAIN_GROUP_ROWS];
    let mut r0 = 0;
    while r0 < rows {
        let g = group.min(rows - r0);
        let mut cur = src;
        for s in c.steps() {
            match *s {
                ChainStep::Reduce(op) => {
                    for (r, stat) in stats[..g].iter_mut().enumerate() {
                        *stat = reduce_row::<S>(op, cur.add((r0 + r) * cols), cols, tiles, tile);
                    }
                    continue;
                }
                // the group's rows of one tile are one contiguous run
                ChainStep::Unary(op) => {
                    for t in 0..tiles {
                        let run = t * tile + r0 * cols;
                        map_run!(cur.add(run), dst.add(run), g * cols, |v, _at, _n| {
                            unary_v::<S>(op, v)
                        });
                    }
                }
                ChainStep::Scalar(op, k) => {
                    let rhs = consts[usize::from(k)];
                    for t in 0..tiles {
                        let run = t * tile + r0 * cols;
                        map_run!(cur.add(run), dst.add(run), g * cols, |v, _at, _n| {
                            binary_v::<S>(op, v, rhs, true)
                        });
                    }
                }
                ChainStep::RowVec(op, i) => {
                    for t in 0..tiles {
                        let vec = side[usize::from(i)].add(t * cols);
                        for r in r0..r0 + g {
                            let seg = t * tile + r * cols;
                            map_run!(cur.add(seg), dst.add(seg), cols, |v, at, n| {
                                binary_v::<S>(op, v, S::load_len(vec.add(at), n), false)
                            });
                        }
                    }
                }
                ChainStep::Full(op, i) => {
                    for r in r0..r0 + g {
                        for t in 0..tiles {
                            let seg = t * tile + r * cols;
                            let f = side[usize::from(i)].add(r * ld + t * cols);
                            map_run!(cur.add(seg), dst.add(seg), cols, |v, at, n| {
                                binary_v::<S>(op, v, S::load_len(f.add(at), n), false)
                            });
                        }
                    }
                }
                // one value per row: the group's row stats, or its rows of
                // a side operand
                ChainStep::Stat(op) | ChainStep::ColVec(op, _) => {
                    let vals = match *s {
                        ChainStep::ColVec(_, i) => side[usize::from(i)].add(r0),
                        _ => stats.as_ptr(),
                    };
                    for r in 0..g {
                        let stat = *vals.add(r);
                        let rhs = S::splat(if op == BinaryOp::Div {
                            1.0 / stat
                        } else {
                            stat
                        });
                        for t in 0..tiles {
                            let seg = t * tile + (r0 + r) * cols;
                            map_run!(cur.add(seg), dst.add(seg), cols, |v, _at, _n| {
                                binary_v::<S>(op, v, rhs, true)
                            });
                        }
                    }
                }
            }
            cur = dst.cast_const();
        }
        if cur != dst.cast_const() {
            // a storing chain that never changed the values copies them
            for t in 0..tiles {
                let run = t * tile + r0 * cols;
                std::ptr::copy_nonoverlapping(cur.add(run), dst.add(run), g * cols);
            }
        }
        r0 += g;
    }
}

/// One row's reduction across its `tiles` segments of `cols` (segment
/// `t` at `row + t * tile`): full vectors into a vector accumulator,
/// tail lanes one by one.
#[inline(always)]
unsafe fn reduce_row<S: SimdF32>(
    op: ReduceOp,
    row: *const f32,
    cols: usize,
    tiles: usize,
    tile: usize,
) -> f32 {
    let init = match op {
        ReduceOp::Sum => 0.0,
        ReduceOp::Max => f32::NEG_INFINITY,
    };
    let (mut acc, mut tail) = (S::splat(init), init);
    let full = cols - cols % S::LANES;
    for t in 0..tiles {
        let seg = row.add(t * tile);
        let mut j = 0;
        while j < full {
            let v = S::load(seg.add(j));
            acc = match op {
                ReduceOp::Sum => S::add(acc, v),
                ReduceOp::Max => S::max(acc, v),
            };
            j += S::LANES;
        }
        for k in full..cols {
            let x = *seg.add(k);
            tail = match op {
                ReduceOp::Sum => tail + x,
                ReduceOp::Max if x > tail => x,
                ReduceOp::Max => tail,
            };
        }
    }
    match op {
        ReduceOp::Sum => S::reduce_add(acc) + tail,
        ReduceOp::Max => S::reduce_max(acc).max(tail),
    }
}

/// One vector of a row chain's unary step. Ops without a vector form
/// run lane by lane.
#[inline(always)]
unsafe fn unary_v<S: SimdF32>(op: UnaryOp, v: S::V) -> S::V {
    let one = S::splat(1.0);
    match op {
        UnaryOp::Identity => v,
        UnaryOp::Relu => S::max(v, S::zero()),
        UnaryOp::Exp => S::exp(v),
        UnaryOp::Square => S::mul(v, v),
        UnaryOp::Neg => S::mul(v, S::splat(-1.0)),
        UnaryOp::Sigmoid => S::div(one, S::add(one, S::exp(S::mul(v, S::splat(-1.0))))),
        UnaryOp::Gelu | UnaryOp::Tanh => {
            let mut lanes = [0.0f32; 16];
            S::store(lanes.as_mut_ptr(), v);
            for x in &mut lanes[..S::LANES] {
                *x = op.apply(*x);
            }
            S::load(lanes.as_ptr())
        }
    }
}

/// `op(v, rhs)` for one vector; with `inverted` a division's `rhs`
/// already holds the reciprocal.
#[inline(always)]
unsafe fn binary_v<S: SimdF32>(op: BinaryOp, v: S::V, rhs: S::V, inverted: bool) -> S::V {
    match op {
        BinaryOp::Add => S::add(v, rhs),
        BinaryOp::Sub => S::sub(v, rhs),
        BinaryOp::Mul => S::mul(v, rhs),
        BinaryOp::Div if inverted => S::mul(v, rhs),
        BinaryOp::Div => S::div(v, rhs),
        // IEEE max/min lane order: `v` wins when `rhs` is NaN, like
        // `f32::max`
        BinaryOp::Max => S::max(rhs, v),
        BinaryOp::Min => S::min(rhs, v),
    }
}

/// `dst[i] = a[i] + b[i]`.
///
/// # Safety
///
/// All three slices have equal length and the backend's ISA is
/// available.
#[inline(always)]
pub(crate) unsafe fn binary_add<S: SimdF32>(a: &[f32], b: &[f32], dst: &mut [f32]) {
    debug_assert!(a.len() == dst.len() && b.len() == dst.len());
    let n = dst.len();
    let chunks = n / S::LANES;
    for ch in 0..chunks {
        let p = ch * S::LANES;
        S::store(
            dst.as_mut_ptr().add(p),
            S::add(S::load(a.as_ptr().add(p)), S::load(b.as_ptr().add(p))),
        );
    }
    for l in chunks * S::LANES..n {
        dst[l] = a[l] + b[l];
    }
}

/// Sum of a slice: `LANES` vector accumulators reduced once at the
/// end, scalar remainder.
///
/// # Safety
///
/// The backend's ISA is available.
#[inline(always)]
pub(crate) unsafe fn reduce_sum<S: SimdF32>(xs: &[f32]) -> f32 {
    let chunks = xs.len() / S::LANES;
    let mut acc = S::zero();
    for ch in 0..chunks {
        acc = S::add(acc, S::load(xs.as_ptr().add(ch * S::LANES)));
    }
    let mut s = S::reduce_add(acc);
    for &x in &xs[chunks * S::LANES..] {
        s += x;
    }
    s
}

/// Max of a slice; `-inf` for an empty slice.
///
/// # Safety
///
/// The backend's ISA is available.
#[inline(always)]
pub(crate) unsafe fn reduce_max<S: SimdF32>(xs: &[f32]) -> f32 {
    let chunks = xs.len() / S::LANES;
    let mut m = f32::NEG_INFINITY;
    if chunks > 0 {
        let mut acc = S::splat(f32::NEG_INFINITY);
        for ch in 0..chunks {
            acc = S::max(acc, S::load(xs.as_ptr().add(ch * S::LANES)));
        }
        m = S::reduce_max(acc);
    }
    for &x in &xs[chunks * S::LANES..] {
        if x > m {
            m = x;
        }
    }
    m
}

/// Dequantize an i32 accumulator tile `[m, n]` into f32:
/// `out[i][j] = (acc[i][j] - a_zero * comp[j]) as f32 * scale`.
/// Every lane op (i32 sub/mul, round-to-nearest i32→f32 convert, f32
/// mul) is elementwise-identical to the scalar expression, so this is
/// bit-exact across backends.
///
/// # Safety
///
/// `acc.len() >= m * n`, `out.len() >= m * n`, `comp.len() >= n`, and
/// the backend's ISA is available.
#[inline(always)]
pub(crate) unsafe fn dequant<S: SimdF32>(
    acc: &[i32],
    m: usize,
    n: usize,
    comp: &[i32],
    a_zero: i32,
    scale: f32,
    out: &mut [f32],
) {
    debug_assert!(acc.len() >= m * n && out.len() >= m * n && comp.len() >= n);
    let az = S::splat_i32(a_zero);
    let sc = S::splat(scale);
    let chunks = n / S::LANES;
    for i in 0..m {
        let arow = acc.as_ptr().add(i * n);
        let orow = out.as_mut_ptr().add(i * n);
        for ch in 0..chunks {
            let p = ch * S::LANES;
            let v = S::sub_i32(
                S::load_i32(arow.add(p)),
                S::mul_i32(az, S::load_i32(comp.as_ptr().add(p))),
            );
            S::store(orow.add(p), S::mul(S::i32_to_f32(v), sc));
        }
        for j in chunks * S::LANES..n {
            *orow.add(j) = (*arow.add(j)).wrapping_sub(a_zero.wrapping_mul(comp[j])) as f32 * scale;
        }
    }
}

/// Requantize f32 to u8, `out[i] = clamp(round(xs[i] * inv_scale) +
/// zero_point, 0, 255)` with ties away from zero and NaN mapping to the
/// zero point — bit-identical to [`crate::epilogue::requant_one`], which
/// also finishes the remainder. The zero point is added in f32: the sum
/// of two integer-valued floats is exact whenever it lies in `0..=255`
/// and lands on the right side of the clamp otherwise.
///
/// # Safety
///
/// `xs.len() == out.len()`, `zero_point` is exactly representable in
/// f32, and the backend's ISA is available.
#[inline(always)]
pub(crate) unsafe fn requant_u8<S: SimdF32>(
    xs: &[f32],
    inv_scale: f32,
    zero_point: i32,
    out: &mut [u8],
) {
    debug_assert_eq!(xs.len(), out.len());
    debug_assert_eq!(zero_point as f32 as i64, zero_point as i64);
    let n = out.len();
    let (inv, zp) = (S::splat(inv_scale), S::splat(zero_point as f32));
    let (lo, hi) = (S::zero(), S::splat(255.0));
    let chunks = n / S::LANES;
    for ch in 0..chunks {
        let p = ch * S::LANES;
        let t = S::mul(S::load(xs.as_ptr().add(p)), inv);
        let r = S::zero_nan(S::round_half_away(t));
        let q = S::min(S::max(S::add(r, zp), lo), hi);
        S::store_low_bytes(out.as_mut_ptr().add(p), S::f32_to_i32(q));
    }
    for l in chunks * S::LANES..n {
        out[l] = crate::epilogue::requant_one(xs[l], inv_scale, zero_point);
    }
}
