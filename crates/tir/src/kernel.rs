//! The one kernel dispatch: every call from Tensor IR into
//! `gc-microkernel` happens in [`run_op`].
//!
//! Both executors — the tree-walking interpreter in [`crate::exec`] and
//! the flat plans in [`crate::plan`] — do their own control flow and
//! their own address arithmetic, resolve an intrinsic's operands to
//! `(RawBuf, offset)` pairs, and then call `run_op`. What differs
//! between them (expression trees vs strength-reduced offsets, tables
//! rebuilt per call vs precomputed, debug vs proven bounds) stays on
//! their side of this call; the kernel semantics cannot diverge. Both
//! also hand it the [`Kernels`] handle of the engine the plan was built
//! for, so a plan runs on its own backend whichever thread executes it.
//!
//! # Safety model
//!
//! Parallel loop iterations write to disjoint buffer regions — this is a
//! *lowering invariant*, the same one the original compiler's codegen
//! guarantees. Executors materialize each buffer's raw pointer once per
//! function call and `run_op` builds slices from it; an op's slices are
//! disjoint (a row chain that updates its tile in place names it once,
//! as one slice). An operand the op only reads
//! becomes a shared slice, so a buffer borrowed read-only (a constant or
//! a caller's input, see [`crate::plan::Globals`]) is never made mutable;
//! the executors refuse to bind one to a parameter the function writes.
//! Debug builds (and checked execution, in release too) assert in-bounds
//! access, dtype agreement and writability on every slice.

use crate::ir::{avail, Brgemm, Copy2D, Op, ReduceOp, MAX_CLAMPS, MAX_OPERANDS};
use gc_microkernel::{epilogue, tail, Kernels};
use gc_tensor::{DataType, Storage};

#[derive(Clone, Copy)]
pub(crate) struct RawBuf {
    ptr: *mut u8,
    elems: usize,
    dtype: DataType,
    /// Hard-assert every slice access (checked execution); otherwise
    /// bounds are debug-only.
    checked: bool,
    /// Materialized from a `&mut Storage`; a buffer borrowed shared is
    /// only ever sliced shared.
    writable: bool,
}

impl std::fmt::Debug for RawBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RawBuf({:?} x{} {})", self.ptr, self.elems, self.dtype)
    }
}

// SAFETY: a writable RawBuf is a pointer into a `Storage` the executing
// call holds exclusively, a read-only one into a `Storage` nobody writes
// while it is bound; worker threads only write the disjoint regions the
// lowering invariant assigns them (module docs).
unsafe impl Send for RawBuf {}
// SAFETY: as above — shared access is to disjoint regions.
unsafe impl Sync for RawBuf {}

impl RawBuf {
    /// Placeholder for the unused slots of an operand array.
    pub(crate) const NULL: &'static RawBuf = &RawBuf {
        ptr: std::ptr::null_mut(),
        elems: 0,
        dtype: DataType::U8,
        checked: true,
        writable: false,
    };

    /// A buffer the call may write.
    pub(crate) fn of(storage: &mut Storage, checked: bool) -> RawBuf {
        let ptr = match storage {
            Storage::F32(v) => v.as_mut_ptr() as *mut u8,
            Storage::Bf16(v) => v.as_mut_ptr() as *mut u8,
            Storage::U8(v) => v.as_mut_ptr(),
            Storage::I8(v) => v.as_mut_ptr() as *mut u8,
            Storage::I32(v) => v.as_mut_ptr() as *mut u8,
            Storage::I64(v) => v.as_mut_ptr() as *mut u8,
        };
        RawBuf::new(ptr, storage, checked, true)
    }

    /// A buffer the call only reads.
    pub(crate) fn of_shared(storage: &Storage, checked: bool) -> RawBuf {
        let ptr = match storage {
            Storage::F32(v) => v.as_ptr() as *mut u8,
            Storage::Bf16(v) => v.as_ptr() as *mut u8,
            Storage::U8(v) => v.as_ptr() as *mut u8,
            Storage::I8(v) => v.as_ptr() as *mut u8,
            Storage::I32(v) => v.as_ptr() as *mut u8,
            Storage::I64(v) => v.as_ptr() as *mut u8,
        };
        RawBuf::new(ptr, storage, checked, false)
    }

    fn new(ptr: *mut u8, storage: &Storage, checked: bool, writable: bool) -> RawBuf {
        RawBuf {
            ptr,
            elems: storage.len(),
            dtype: storage.dtype(),
            checked,
            writable,
        }
    }

    /// Whether this buffer can be bound to a parameter of `dtype` with
    /// `elems` elements, which the function writes or only reads. The
    /// plan's bounds were proven against the parameter's declaration,
    /// so a binding that passes keeps every access inside the buffer.
    pub(crate) fn can_bind(&self, dtype: DataType, elems: usize, writes: bool) -> bool {
        self.dtype == dtype && self.elems >= elems && (self.writable || !writes)
    }

    /// The same buffer under another checking policy.
    #[inline]
    pub(crate) fn checked(self, checked: bool) -> RawBuf {
        RawBuf { checked, ..self }
    }

    /// Buffer capacity in elements (checked execution compares evaluated
    /// offsets against this).
    #[inline]
    pub(crate) fn elems(&self) -> usize {
        self.elems
    }

    #[inline]
    fn check(&self, off: usize, len: usize, dtype: DataType, write: bool) {
        if self.checked {
            assert_eq!(self.dtype, dtype, "intrinsic dtype mismatch");
            assert!(
                off + len <= self.elems,
                "view out of bounds: {}+{} > {}",
                off,
                len,
                self.elems
            );
            assert!(self.writable || !write, "write to a read-only buffer");
        } else {
            debug_assert_eq!(self.dtype, dtype, "intrinsic dtype mismatch");
            debug_assert!(
                off + len <= self.elems,
                "view out of bounds: {}+{} > {}",
                off,
                len,
                self.elems
            );
            debug_assert!(self.writable || !write, "write to a read-only buffer");
        }
    }

    /// # Safety
    /// Range must be in bounds, the buffer writable, and the range
    /// disjoint from other live slices.
    #[inline]
    unsafe fn slice<'a, T: Elem>(self, off: usize, len: usize) -> &'a mut [T] {
        self.check(off, len, T::DTYPE, true);
        std::slice::from_raw_parts_mut((self.ptr as *mut T).add(off), len)
    }

    /// # Safety
    /// Range must be in bounds and disjoint from every live mutable
    /// slice.
    #[inline]
    unsafe fn slice_shared<'a, T: Elem>(self, off: usize, len: usize) -> &'a [T] {
        self.check(off, len, T::DTYPE, false);
        std::slice::from_raw_parts((self.ptr as *const T).add(off), len)
    }
}

/// Element types the kernels operate on.
trait Elem: Copy + Default {
    const DTYPE: DataType;
}
impl Elem for f32 {
    const DTYPE: DataType = DataType::F32;
}
impl Elem for u8 {
    const DTYPE: DataType = DataType::U8;
}
impl Elem for i8 {
    const DTYPE: DataType = DataType::I8;
}
impl Elem for i32 {
    const DTYPE: DataType = DataType::I32;
}

/// A resolved operand: the buffer (borrowed from the call frame's table,
/// so resolving copies one pointer, not the descriptor) and the evaluated
/// element offset.
pub(crate) type Resolved<'a> = (&'a RawBuf, usize);

/// `len` elements of a resolved operand the op writes; the element type
/// is inferred from the kernel the slice is passed to.
///
/// # Safety
/// Range must be in bounds and disjoint from other live slices.
#[inline]
unsafe fn sl<'a, T: Elem>((buf, off): Resolved<'_>, len: usize) -> &'a mut [T] {
    buf.slice(off, len)
}

/// `len` elements of a resolved operand the op only reads.
///
/// # Safety
/// Range must be in bounds and disjoint from every live mutable slice.
#[inline]
unsafe fn rd<'a, T: Elem>((buf, off): Resolved<'_>, len: usize) -> &'a [T] {
    buf.slice_shared(off, len)
}

#[inline]
fn assert_disjoint(a: Resolved<'_>, b: Resolved<'_>, len: usize) {
    debug_assert!(
        a.0.ptr != b.0.ptr || a.1 + len <= b.1 || b.1 + len <= a.1,
        "overlapping views in intrinsic"
    );
}

/// Call the generic copy kernel `$f` at the buffer's element type (the
/// copy kinds move any 1- or 4-byte type).
macro_rules! by_dtype {
    ($buf:expr, $f:ident($($arg:expr),*)) => {
        match $buf.dtype {
            DataType::F32 => $f::<f32>($($arg),*),
            DataType::U8 => $f::<u8>($($arg),*),
            DataType::I8 => $f::<i8>($($arg),*),
            DataType::I32 => $f::<i32>($($arg),*),
            other => panic!("{} unsupported dtype {other}", stringify!($f)),
        }
    };
}

/// Execute one intrinsic. `o` holds the resolved operands in the op's
/// operand order, `bases` the evaluated clamp bases (slots past the op's
/// counts are ignored; fixed-size arrays keep the constant indices below
/// free of bounds checks), `tables` the brgemm batch-offset tables of
/// operands 0 and 1 (empty for every other kind), and `k` the backend
/// every kernel with a per-ISA body runs (and is counted) on.
///
/// The caller guarantees what the op's descriptor states: each operand's
/// span from its offset lies inside its buffer, and write spans of
/// concurrently running calls are disjoint.
///
/// Kept out of line: the executors' loops are recursive and hot, and
/// measured on the dispatch-bound MLP_1 b=1 plan they run fastest with
/// the address arithmetic inlined into them and this match behind one
/// call.
#[allow(clippy::too_many_lines)]
#[inline(never)]
pub(crate) fn run_op(
    op: &Op,
    o: &[Resolved<'_>; MAX_OPERANDS],
    bases: &[usize; MAX_CLAMPS],
    tables: &[Box<[usize]>; 2],
    k: Kernels,
) {
    // SAFETY (every arm): spans are in bounds per the caller's
    // contract, and distinct operands are disjoint (an in-place row
    // chain names its tile once).
    match *op {
        Op::BrgemmF32(g) => unsafe {
            let (a, b, c) = brgemm_slices(&g, o);
            k.brgemm_f32(g.shape(), g.m, a, &tables[0], b, &tables[1], c);
        },
        Op::BrgemmU8I8(g) => unsafe {
            let (a, b, c) = brgemm_slices(&g, o);
            k.brgemm_u8i8(g.shape(), g.m, a, &tables[0], b, &tables[1], c);
        },
        Op::FillF32 { len, value } => unsafe { sl(o[0], len) }.fill(value),
        Op::ZeroI32 { len } => unsafe { sl::<i32>(o[0], len) }.fill(0),
        Op::Pack2D(g) => by_dtype!(o[0].0, pack2d(o[0], o[1], &g)),
        Op::Unpack2D(g) => by_dtype!(o[0].0, unpack2d(o[0], o[1], &g)),
        Op::Pack2DPad {
            g,
            row_logical,
            col_logical,
        } => {
            let (rb, cb) = (bases[0], bases[1]);
            let src = (o[0].0, o[0].1 + rb * g.row_stride + cb * g.col_stride);
            let valid = [
                avail(row_logical, rb, g.rows),
                avail(col_logical, cb, g.cols),
            ];
            by_dtype!(o[0].0, pack2d_pad(src, o[1], &g, valid));
        }
        Op::Unpack2DClamp {
            g,
            row_logical,
            col_logical,
        } => {
            let (rb, cb) = (bases[0], bases[1]);
            let dst = (o[1].0, o[1].1 + rb * g.row_stride + cb * g.col_stride);
            let valid = [
                avail(row_logical, rb, g.rows),
                avail(col_logical, cb, g.cols),
            ];
            by_dtype!(o[0].0, unpack2d_clamp(o[0], dst, &g, valid));
        }
        Op::ReduceRows { op, rows, cols } => unsafe {
            let (ssl, osl) = (rd(o[0], rows * cols), sl(o[1], rows));
            match op {
                ReduceOp::Max => k.reduce_rows_max(ssl, rows, cols, osl),
                ReduceOp::Sum => k.reduce_rows_sum(ssl, rows, cols, osl),
            }
        },
        Op::DequantAcc {
            rows,
            cols,
            a_zero,
            scale,
            bias,
        } => unsafe {
            let (asl, csl, dsl) = (rd(o[0], rows * cols), rd(o[1], cols), sl(o[2], rows * cols));
            if bias {
                let bsl = rd(o[3], cols);
                k.dequant_acc_bias(asl, rows, cols, csl, a_zero, scale, bsl, dsl);
            } else {
                k.dequant_acc(asl, rows, cols, csl, a_zero, scale, dsl);
            }
        },
        Op::QuantU8 {
            len,
            scale,
            zero_point,
        } => unsafe {
            k.requant_u8(rd(o[0], len), 1.0 / scale, zero_point, sl(o[1], len));
        },
        Op::DequantU8 {
            len,
            scale,
            zero_point,
        } => unsafe {
            let (ssl, dsl): (&[u8], &mut [f32]) = (rd(o[0], len), sl(o[1], len));
            for (d, &q) in dsl.iter_mut().zip(ssl.iter()) {
                *d = scale * (q as i32 - zero_point) as f32;
            }
        },
        Op::DequantI8 { len, scale } => unsafe {
            let (ssl, dsl): (&[i8], &mut [f32]) = (rd(o[0], len), sl(o[1], len));
            for (d, &q) in dsl.iter_mut().zip(ssl.iter()) {
                *d = scale * q as f32;
            }
        },
        Op::CompAccumulate { nb, kb } => unsafe {
            let (bsl, csl): (&[i8], &mut [i32]) = (rd(o[0], nb * kb), sl(o[1], nb));
            for (c, panel) in csl.iter_mut().zip(bsl.chunks_exact(kb)) {
                *c += panel.iter().map(|&x| x as i32).sum::<i32>();
            }
        },
        Op::CastI32F32 { len } => unsafe {
            epilogue::i32_to_f32(rd(o[0], len), sl(o[1], len));
        },
        Op::RowChain(c) => unsafe {
            let (n, side) = (c.elems(), c.side_operands());
            let mut reads: [&[f32]; MAX_OPERANDS] = [&[]; MAX_OPERANDS];
            for (i, r) in reads[..side].iter_mut().enumerate() {
                *r = rd(o[1 + i], c.side_len(i));
            }
            if c.stores() {
                let dst = o[1 + side];
                assert_disjoint(o[0], dst, n);
                k.row_chain(&c, Some(rd(o[0], n)), sl(dst, n), &reads[..side]);
            } else {
                k.row_chain(&c, None, sl(o[0], n), &reads[..side]);
            }
        },
    }
}

/// Slice the three brgemm operands.
///
/// # Safety
/// As for [`sl`]: A and B are only read, C is this call's private tile.
unsafe fn brgemm_slices<'a, A: Elem, B: Elem, C: Elem>(
    g: &Brgemm,
    o: &[Resolved<'_>; MAX_OPERANDS],
) -> (&'a [A], &'a [B], &'a mut [C]) {
    (
        rd(o[0], g.a_span()),
        rd(o[1], g.b_span()),
        sl(o[2], g.m * g.n),
    )
}

fn pack2d<T: Elem>(src: Resolved<'_>, dst: Resolved<'_>, g: &Copy2D) {
    let (rows, cols, rs, cs) = (g.rows, g.cols, g.row_stride, g.col_stride);
    // SAFETY: see `run_op`.
    let (ssl, dsl): (&[T], &mut [T]) = unsafe {
        (
            rd(src, (rows - 1) * rs + (cols - 1) * cs + 1),
            sl(dst, rows * cols),
        )
    };
    if cs == 1 {
        for r in 0..rows {
            dsl[r * cols..(r + 1) * cols].copy_from_slice(&ssl[r * rs..r * rs + cols]);
        }
    } else {
        for r in 0..rows {
            for c in 0..cols {
                dsl[r * cols + c] = ssl[r * rs + c * cs];
            }
        }
    }
}

fn unpack2d<T: Elem>(src: Resolved<'_>, dst: Resolved<'_>, g: &Copy2D) {
    let (rows, cols, rs, cs) = (g.rows, g.cols, g.row_stride, g.col_stride);
    // SAFETY: see `run_op`.
    let (ssl, dsl): (&[T], &mut [T]) = unsafe {
        (
            rd(src, rows * cols),
            sl(dst, (rows - 1) * rs + (cols - 1) * cs + 1),
        )
    };
    if cs == 1 {
        for r in 0..rows {
            dsl[r * rs..r * rs + cols].copy_from_slice(&ssl[r * cols..(r + 1) * cols]);
        }
    } else {
        for r in 0..rows {
            for c in 0..cols {
                dsl[r * rs + c * cs] = ssl[r * cols + c];
            }
        }
    }
}

/// Clamped pack: copy the `valid` (`rows x cols`) in-bounds block of a
/// strided source into the top-left of the contiguous tile and zero-fill
/// the remainder. The source offset is fully evaluated (clamp bases
/// already applied).
fn pack2d_pad<T: Elem>(
    src: Resolved<'_>,
    dst: Resolved<'_>,
    g: &Copy2D,
    [valid_r, valid_c]: [usize; 2],
) {
    // SAFETY: see `run_op`.
    let dsl: &mut [T] = unsafe { sl(dst, g.rows * g.cols) };
    if valid_r == 0 || valid_c == 0 {
        dsl.fill(T::default());
        return;
    }
    let span = (valid_r - 1) * g.row_stride + (valid_c - 1) * g.col_stride + 1;
    // SAFETY: see `run_op`.
    let ssl: &[T] = unsafe { rd(src, span) };
    tail::pack_pad_2d(
        ssl,
        g.row_stride,
        g.col_stride,
        dsl,
        g.rows,
        g.cols,
        valid_r,
        valid_c,
        T::default(),
    );
}

/// Clamped unpack: scatter only the `valid` in-bounds block of the
/// contiguous tile (row pitch `cols`) into a strided destination. The
/// destination offset is fully evaluated (clamp bases already applied).
fn unpack2d_clamp<T: Elem>(
    src: Resolved<'_>,
    dst: Resolved<'_>,
    g: &Copy2D,
    [valid_r, valid_c]: [usize; 2],
) {
    if valid_r == 0 || valid_c == 0 {
        return;
    }
    let (rs, cs) = (g.row_stride, g.col_stride);
    // SAFETY: see `run_op`.
    let (ssl, dsl): (&[T], &mut [T]) = unsafe {
        (
            rd(src, (valid_r - 1) * g.cols + valid_c),
            sl(dst, (valid_r - 1) * rs + (valid_c - 1) * cs + 1),
        )
    };
    tail::store_clamped_2d(ssl, dsl, rs, cs, valid_r, g.cols, valid_r, valid_c);
}
