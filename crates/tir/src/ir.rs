//! Tensor IR structures: module, function, statement, intrinsic.
//!
//! Tensor IR "is close to the C program semantics. The data structure it
//! operates on is multidimensional arrays, representing tensor buffers
//! in physical memory." All shapes, strides and loop extents are
//! compile-time constants (static-shape optimization); only buffer
//! offsets contain loop variables. Bulk data work happens in
//! *intrinsics* — microkernel calls and vectorized slice kernels.

use crate::expr::{Expr, VarId};
use gc_microkernel::brgemm::BrgemmShape;
pub use gc_microkernel::{ReduceOp, RowChain};
use gc_tensor::DataType;

/// Reference to a buffer visible inside a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BufId {
    /// One of the function's parameters.
    Param(usize),
    /// A function-local temporary.
    Local(usize),
}

/// A contiguous window into a buffer: `buf[offset .. offset + len]`
/// (in elements). Lowering describes tiles with views; an intrinsic
/// keeps only the [`Operand`] part, because every length it touches is
/// a static attribute of its [`Op`].
#[derive(Debug, Clone, PartialEq)]
pub struct View {
    /// Underlying buffer.
    pub buf: BufId,
    /// Element offset (may reference loop variables).
    pub offset: Expr,
    /// Window length in elements (static).
    pub len: usize,
}

impl View {
    /// Create a view.
    pub fn new(buf: BufId, offset: impl Into<Expr>, len: usize) -> View {
        View {
            buf,
            offset: offset.into(),
            len,
        }
    }
}

/// One buffer operand of an intrinsic: where in which buffer the access
/// starts. How far it reaches is stated by the op's [`OpDesc`].
#[derive(Debug, Clone, PartialEq)]
pub struct Operand {
    /// Underlying buffer.
    pub buf: BufId,
    /// Element offset (may reference loop variables).
    pub offset: Expr,
}

impl Operand {
    /// Create an operand.
    pub fn new(buf: BufId, offset: impl Into<Expr>) -> Operand {
        Operand {
            buf,
            offset: offset.into(),
        }
    }
}

impl From<View> for Operand {
    fn from(v: View) -> Operand {
        Operand {
            buf: v.buf,
            offset: v.offset,
        }
    }
}

/// Geometry shared by the batch-reduce GEMM kinds. Operands are
/// `a, b, c`: tile `i` of A (`m * k` elements) starts at
/// `a + i * a_stride`, tile `i` of B (`n * k`, `[n][k]` panels) at
/// `b + i * b_stride`, and C is one `m * n` tile that is accumulated
/// into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Brgemm {
    /// Rows.
    pub m: usize,
    /// Columns.
    pub n: usize,
    /// Reduction per tile.
    pub k: usize,
    /// Number of tile pairs (BS).
    pub batch: usize,
    /// Element stride between consecutive A tiles.
    pub a_stride: usize,
    /// Element stride between consecutive B tiles.
    pub b_stride: usize,
}

impl Brgemm {
    /// The microkernel's tile shape.
    pub fn shape(&self) -> BrgemmShape {
        BrgemmShape::new(self.m, self.n, self.k)
    }

    /// Elements from the first A tile's start to the last one's end.
    pub fn a_span(&self) -> usize {
        Footprint::Tiles {
            count: self.batch,
            stride: self.a_stride,
            len: self.m * self.k,
        }
        .span()
    }

    /// Elements from the first B tile's start to the last one's end.
    pub fn b_span(&self) -> usize {
        Footprint::Tiles {
            count: self.batch,
            stride: self.b_stride,
            len: self.n * self.k,
        }
        .span()
    }
}

/// Geometry of a 2-D copy between a contiguous `rows * cols` tile and a
/// strided region: tile element `(r, c)` pairs with
/// `strided[offset + r * row_stride + c * col_stride]` (a column stride
/// equal to the row pitch expresses a transpose).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Copy2D {
    /// Rows of the contiguous tile.
    pub rows: usize,
    /// Columns of the contiguous tile.
    pub cols: usize,
    /// Row stride of the strided side (elements).
    pub row_stride: usize,
    /// Column stride of the strided side (elements).
    pub col_stride: usize,
}

/// Axis elements available from `base` against a `logical` extent,
/// capped at the physical `tile` extent.
///
/// Ragged-shape support keeps the *physical* tile grid full-sized
/// (`rows`/`cols`/`m` stay the padded block extents) while the clamped
/// kinds carry the *logical* truth: the logical extent in the [`Op`]
/// and the axis base in axis units in [`Intrinsic::clamps`] (a loop
/// expression, excluded from the operand's offset so that static bounds
/// analysis can cap the reachable span at `(logical - 1) * stride`).
/// Executors evaluate the base and zero-fill (pack) or skip (unpack)
/// everything at axis index `>= avail`.
pub fn avail(logical: usize, base: usize, tile: usize) -> usize {
    logical.saturating_sub(base).min(tile)
}

/// What an intrinsic does: its kind plus every static attribute (shape,
/// strides, scalar constants). Buffer operands and clamp bases live in
/// the [`Intrinsic`] that carries the op, in the order each kind lists
/// them here; [`Op::desc`] states each operand's dtype, role and span.
///
/// Each "is carefully hand-tuned and fulfills a subtask of a DNN OP with
/// data in the fastest cache on a single CPU core" — in this
/// reproduction, the kernels of `gc-microkernel`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// `c[m,n] += sum_b a_tile(b) x b_tile(b)` — f32 batch-reduce GEMM.
    /// Operands `a, b, c`.
    BrgemmF32(Brgemm),
    /// Int8 batch-reduce GEMM (u8 × i8 → i32). Operands `a, b, c`.
    BrgemmU8I8(Brgemm),
    /// Fill an f32 window with a constant. Operand `dst`.
    FillF32 {
        /// Elements.
        len: usize,
        /// Fill value.
        value: f32,
    },
    /// Zero an i32 window. Operand `dst`.
    ZeroI32 {
        /// Elements.
        len: usize,
    },
    /// 2-D strided gather into a contiguous tile (layout pack /
    /// transpose): `dst[r * cols + c] = src[off + r*rs + c*cs]`.
    /// Operands `src` (strided), `dst` (tile); any 1/4-byte dtype.
    Pack2D(Copy2D),
    /// 2-D strided scatter from a contiguous tile (layout unpack):
    /// `dst[off + r*rs + c*cs] = src[r * cols + c]`. Operands `src`
    /// (tile), `dst` (strided).
    Unpack2D(Copy2D),
    /// Clamped 2-D gather: like [`Op::Pack2D`] but each axis is clamped
    /// against a logical bound and out-of-range destination elements
    /// are zero-filled, so edge tiles of ragged shapes pack into full
    /// physical blocks (`dst` is fully written).
    /// `dst[r*cols + c] = src[off + (rb+r)*rs + (cb+c)*cs]` when
    /// `rb+r < row_logical && cb+c < col_logical`, else 0. Clamps
    /// `rb, cb`: the `rb*rs` / `cb*cs` terms are *not* part of the
    /// `src` offset.
    Pack2DPad {
        /// Copy geometry (`rows`/`cols` are the physical tile).
        g: Copy2D,
        /// Logical extent of the row axis.
        row_logical: usize,
        /// Logical extent of the column axis.
        col_logical: usize,
    },
    /// Clamped 2-D scatter: like [`Op::Unpack2D`] but writes to
    /// rows/columns at or past the logical bounds are skipped, so edge
    /// tiles never scribble past a ragged output.
    /// `dst[off + (rb+r)*rs + (cb+c)*cs] = src[r*cols + c]` only when
    /// `rb+r < row_logical && cb+c < col_logical`. Clamps `rb, cb`,
    /// excluded from the `dst` offset.
    Unpack2DClamp {
        /// Copy geometry (`rows`/`cols` are the physical tile).
        g: Copy2D,
        /// Logical extent of the row axis.
        row_logical: usize,
        /// Logical extent of the column axis.
        col_logical: usize,
    },
    /// Row-wise reduction of a tile into `out[rows]`. Operands `src`
    /// (tile), `out`.
    ReduceRows {
        /// Sum or max.
        op: ReduceOp,
        /// Rows.
        rows: usize,
        /// Columns.
        cols: usize,
    },
    /// Int8 epilogue: dequantize an i32 accumulator tile applying
    /// zero-point compensation, combined scale and optional bias.
    /// Operands `acc` (i32 tile), `comp` (i32, len `cols`), `dst` (f32
    /// tile) and, with `bias`, the f32 bias vector (len `cols`).
    DequantAcc {
        /// Rows.
        rows: usize,
        /// Columns.
        cols: usize,
        /// Activation zero point.
        a_zero: i32,
        /// Combined scale (`a_s * b_s`).
        scale: f32,
        /// Whether a bias operand follows `dst`.
        bias: bool,
    },
    /// Requantize f32 → u8. Operands `src, dst`.
    QuantU8 {
        /// Elements.
        len: usize,
        /// Quantization scale.
        scale: f32,
        /// Zero point.
        zero_point: i32,
    },
    /// Dequantize u8 → f32. Operands `src, dst`.
    DequantU8 {
        /// Elements.
        len: usize,
        /// Quantization scale.
        scale: f32,
        /// Zero point.
        zero_point: i32,
    },
    /// Dequantize i8 → f32 (symmetric). Operands `src, dst`.
    DequantI8 {
        /// Elements.
        len: usize,
        /// Quantization scale.
        scale: f32,
    },
    /// Accumulate weight compensation from one blocked i8 weight tile:
    /// `comp[j] += sum_k tile[j * kb + k]`. Operands `b_tile` (i8,
    /// `[nb][kb]` panels), `comp` (i32, len `nb`).
    CompAccumulate {
        /// Panels.
        nb: usize,
        /// Panel length.
        kb: usize,
    },
    /// Widen i32 → f32. Operands `src, dst`.
    CastI32F32 {
        /// Elements.
        len: usize,
    },
    /// A fused post-op chain (a bias add and a relu, a softmax), or one
    /// standalone elementwise op, run over one row block of
    /// `rows x tiles x cols` f32 elements in the blocked
    /// `[tiles][rows][cols]` layout — see [`RowChain`]. The only f32
    /// elementwise kind.
    /// Operands: the tile, the program's side operands in order (row
    /// vectors of `tiles * cols`, plain blocks of `rows` rows
    /// [`RowChain::full_stride`] apart, column vectors of `rows`) and,
    /// when the chain
    /// [`RowChain::stores`], the destination in the tile's layout;
    /// otherwise the tile is updated in place. Row stats live inside the
    /// call.
    RowChain(RowChain),
}

/// Most operands any op takes (`DequantAcc` with bias, a full
/// [`RowChain`]).
pub const MAX_OPERANDS: usize = 4;
const _: () = assert!(gc_microkernel::chain::MAX_BUFFERS <= MAX_OPERANDS);
/// Most axis clamps any op takes (the clamped 2-D copies).
pub const MAX_CLAMPS: usize = 2;

/// How an intrinsic uses one operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Only read.
    Read,
    /// Overwritten without looking at the old contents.
    Write,
    /// Read-modify-write.
    Accumulate,
}

/// Element type an operand's buffer must have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElemType {
    /// Exactly this type.
    Is(DataType),
    /// Any type the copy kernels move (f32, u8, i8, i32), the same for
    /// every `Copied` operand of the op.
    Copied,
}

/// The elements an operand touches, counted from its offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Footprint {
    /// `n` contiguous elements.
    Dense(usize),
    /// `count` tiles of `len` elements, one every `stride` (a brgemm
    /// batch: the tiles may be far apart in the blocked layouts, so
    /// they are reported one by one rather than as one dense span).
    Tiles {
        /// Number of tiles.
        count: usize,
        /// Element stride between tile starts.
        stride: usize,
        /// Elements per tile.
        len: usize,
    },
    /// The strided side of a 2-D copy: a `rows * cols` block with the
    /// geometry's element strides.
    Strided(Copy2D),
}

impl Footprint {
    /// Distance from the first to one past the last touched element —
    /// what bounds checks must prove fits the buffer.
    pub fn span(&self) -> usize {
        match *self {
            Footprint::Dense(n) => n,
            Footprint::Tiles { count, stride, len } => {
                if count == 0 {
                    0
                } else {
                    (count - 1) * stride + len
                }
            }
            Footprint::Strided(g) => {
                if g.rows == 0 || g.cols == 0 {
                    0
                } else {
                    (g.rows - 1) * g.row_stride + (g.cols - 1) * g.col_stride + 1
                }
            }
        }
    }

    /// Start of each tile relative to the operand offset — the table a
    /// brgemm kernel takes. Empty for the other footprints.
    pub fn tile_offsets(&self) -> Box<[usize]> {
        match *self {
            Footprint::Tiles { count, stride, .. } => (0..count).map(|i| i * stride).collect(),
            _ => Box::default(),
        }
    }
}

/// One operand's row of an [`OpDesc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperandSpec {
    /// Required buffer element type.
    pub dtype: ElemType,
    /// Read, write or accumulate.
    pub role: Role,
    /// Elements between the operand offset and the first touched
    /// element. Zero in the static description; non-zero only when
    /// evaluated clamp bases move a clamped copy to its tile origin.
    pub shift: usize,
    /// Elements touched from `offset + shift`.
    pub footprint: Footprint,
}

fn spec(dtype: ElemType, role: Role, footprint: Footprint) -> OperandSpec {
    OperandSpec {
        dtype,
        role,
        shift: 0,
        footprint,
    }
}

/// The single description of an op's operands that every consumer
/// reads: access enumeration (validator, buffer passes, projector), plan
/// compilation (dtype, bounds, brgemm tables, dispatch-worthiness) and
/// checked execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpDesc {
    specs: [OperandSpec; MAX_OPERANDS],
    operands: usize,
    clamps: usize,
    work: u64,
}

impl OpDesc {
    /// A description whose work estimate is its largest dense operand
    /// (one unit ≈ one element moved).
    fn new(specs: &[OperandSpec], clamps: usize) -> OpDesc {
        let mut all = [spec(ElemType::Copied, Role::Read, Footprint::Dense(0)); MAX_OPERANDS];
        all[..specs.len()].copy_from_slice(specs);
        let work = specs
            .iter()
            .filter_map(|s| match s.footprint {
                Footprint::Dense(n) => Some(n as u64),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        OpDesc {
            specs: all,
            operands: specs.len(),
            clamps,
            work,
        }
    }

    /// One spec per operand, in operand order.
    pub fn operands(&self) -> &[OperandSpec] {
        &self.specs[..self.operands]
    }

    /// Whether buffers of these element types, one per operand, satisfy
    /// every operand's [`ElemType`].
    pub fn dtypes_ok(&self, dtypes: impl IntoIterator<Item = DataType>) -> bool {
        let mut copied = None;
        self.operands()
            .iter()
            .zip(dtypes)
            .all(|(s, dt)| match s.dtype {
                ElemType::Is(want) => dt == want,
                ElemType::Copied => {
                    matches!(
                        dt,
                        DataType::F32 | DataType::U8 | DataType::I8 | DataType::I32
                    ) && *copied.get_or_insert(dt) == dt
                }
            })
    }

    /// The brgemm batch-offset tables: tile starts of operands 0 and 1
    /// (empty for every kind whose operands are not tiled).
    pub fn tables(&self) -> [Box<[usize]>; 2] {
        [0, 1].map(|k| {
            self.operands()
                .get(k)
                .map(|s| s.footprint.tile_offsets())
                .unwrap_or_default()
        })
    }

    /// Whether `i` carries exactly the operands and clamp bases this
    /// description lists. `Intrinsic`'s fields are public, so consumers
    /// that index by descriptor position check this first.
    pub fn fits(&self, i: &Intrinsic) -> bool {
        i.operands.len() == self.operands && i.clamps.len() == self.clamps
    }

    /// Number of axis-clamp bases the op takes.
    pub fn clamps(&self) -> usize {
        self.clamps
    }

    /// Static work estimate in element-op units (one unit ≈ one
    /// multiply-accumulate or one element moved).
    pub fn work(&self) -> u64 {
        self.work
    }
}

fn brgemm_desc(g: Brgemm, [a, b, c]: [DataType; 3]) -> OpDesc {
    use ElemType::Is;
    let tiles = |stride, len| Footprint::Tiles {
        count: g.batch,
        stride,
        len,
    };
    let mut d = OpDesc::new(
        &[
            spec(Is(a), Role::Read, tiles(g.a_stride, g.m * g.k)),
            spec(Is(b), Role::Read, tiles(g.b_stride, g.n * g.k)),
            spec(Is(c), Role::Accumulate, Footprint::Dense(g.m * g.n)),
        ],
        0,
    );
    d.work = (g.m * g.n * g.k * g.batch.max(1)) as u64;
    d
}

/// The strided side of a clamped copy. Statically (no bases) the clamp
/// bases are excluded from the offset, so the farthest reachable
/// element is capped by the logical extents (runtime indices satisfy
/// `base + r <= logical - 1` on each axis); with evaluated bases it is
/// the exact `avail_r * avail_c` block at the tile origin.
fn clamped_side(
    role: Role,
    g: Copy2D,
    logical: [usize; 2],
    bases: Option<&[usize]>,
) -> (OperandSpec, [usize; 2]) {
    let (shift, rows, cols) = match bases {
        None => (0, logical[0], logical[1]),
        Some(b) => (
            b[0] * g.row_stride + b[1] * g.col_stride,
            avail(logical[0], b[0], g.rows),
            avail(logical[1], b[1], g.cols),
        ),
    };
    let s = OperandSpec {
        dtype: ElemType::Copied,
        role,
        shift,
        footprint: Footprint::Strided(Copy2D { rows, cols, ..g }),
    };
    (s, [rows, cols])
}

impl Op {
    /// Describe the op's operands. With `bases = None` this is the
    /// static envelope over every iteration — what the validator and
    /// the plan builder must prove in bounds. With the clamp bases of
    /// one concrete call it is the exact windows that call touches
    /// (the projector replays these, so edge tiles are not charged for
    /// the whole logical region).
    ///
    /// # Panics
    ///
    /// Panics if `bases` is shorter than the op's clamp count.
    pub fn desc(&self, bases: Option<&[usize]>) -> OpDesc {
        use DataType::{F32, I32, I8, U8};
        use ElemType::{Copied, Is};
        use Footprint::Dense;
        let rd = |dt, n| spec(Is(dt), Role::Read, Dense(n));
        let wr = |dt, n| spec(Is(dt), Role::Write, Dense(n));
        let acc = |dt, n| spec(Is(dt), Role::Accumulate, Dense(n));
        let unclamped = |specs: &[OperandSpec]| OpDesc::new(specs, 0);
        match *self {
            Op::BrgemmF32(g) => brgemm_desc(g, [F32, F32, F32]),
            Op::BrgemmU8I8(g) => brgemm_desc(g, [U8, I8, I32]),
            Op::FillF32 { len, .. } => unclamped(&[wr(F32, len)]),
            Op::ZeroI32 { len } => unclamped(&[wr(I32, len)]),
            Op::Pack2D(g) => unclamped(&[
                spec(Copied, Role::Read, Footprint::Strided(g)),
                spec(Copied, Role::Write, Dense(g.rows * g.cols)),
            ]),
            Op::Unpack2D(g) => unclamped(&[
                spec(Copied, Role::Read, Dense(g.rows * g.cols)),
                spec(Copied, Role::Write, Footprint::Strided(g)),
            ]),
            Op::Pack2DPad {
                g,
                row_logical,
                col_logical,
            } => {
                let (src, _) = clamped_side(Role::Read, g, [row_logical, col_logical], bases);
                let dst = spec(Copied, Role::Write, Dense(g.rows * g.cols));
                OpDesc::new(&[src, dst], 2)
            }
            Op::Unpack2DClamp {
                g,
                row_logical,
                col_logical,
            } => {
                let (dst, [ar, ac]) =
                    clamped_side(Role::Write, g, [row_logical, col_logical], bases);
                // the tile rows keep their physical pitch `cols`
                let read = match bases {
                    None => g.rows * g.cols,
                    Some(_) if ar == 0 || ac == 0 => 0,
                    Some(_) => (ar - 1) * g.cols + ac,
                };
                OpDesc::new(&[spec(Copied, Role::Read, Dense(read)), dst], 2)
            }
            Op::ReduceRows { rows, cols, .. } => unclamped(&[rd(F32, rows * cols), wr(F32, rows)]),
            Op::DequantAcc {
                rows, cols, bias, ..
            } => {
                let tile = rows * cols;
                let all = [rd(I32, tile), rd(I32, cols), wr(F32, tile), rd(F32, cols)];
                unclamped(&all[..if bias { 4 } else { 3 }])
            }
            Op::QuantU8 { len, .. } => unclamped(&[rd(F32, len), wr(U8, len)]),
            Op::DequantU8 { len, .. } => unclamped(&[rd(U8, len), wr(F32, len)]),
            Op::DequantI8 { len, .. } => unclamped(&[rd(I8, len), wr(F32, len)]),
            Op::CompAccumulate { nb, kb } => unclamped(&[rd(I8, nb * kb), acc(I32, nb)]),
            Op::CastI32F32 { len } => unclamped(&[rd(I32, len), wr(F32, len)]),
            Op::RowChain(c) => {
                let n = c.elems();
                let mut all = [rd(F32, n); MAX_OPERANDS];
                if !c.stores() {
                    all[0] = acc(F32, n);
                }
                let side = c.side_operands();
                for (i, s) in all[1..=side].iter_mut().enumerate() {
                    *s = rd(F32, c.side_len(i));
                }
                if c.stores() {
                    all[side + 1] = wr(F32, n);
                }
                let mut d = unclamped(&all[..c.buffers()]);
                // one unit per element per step
                d.work = (n * c.steps().len().max(1)) as u64;
                d
            }
        }
    }
}

/// An intrinsic call: an [`Op`] applied to buffer operands.
///
/// Everything that varies per call is here and uniform across kinds —
/// operand offsets and clamp bases are the only expressions — so passes
/// that rename buffers, shift variables or drop offset terms loop over
/// `operands`/`clamps` without knowing the kind.
#[derive(Debug, Clone, PartialEq)]
pub struct Intrinsic {
    /// Kind and static attributes.
    pub op: Op,
    /// Buffer operands, in the order the op's variant documents.
    pub operands: Vec<Operand>,
    /// Axis-clamp bases in axis units, one per clamped axis (see
    /// [`avail`]). These are real runtime indices whose `base * stride`
    /// terms are *excluded* from the operand offsets, so validators
    /// must separately prove each base non-negative (the upper side is
    /// enforced by the runtime clamp itself).
    pub clamps: Vec<Expr>,
}

impl Intrinsic {
    /// Build an intrinsic.
    ///
    /// # Panics
    ///
    /// Panics if the operand or clamp count disagrees with the op's
    /// descriptor (a lowering bug, not a user error).
    pub fn new<O: Into<Operand>>(
        op: Op,
        operands: impl IntoIterator<Item = O>,
        clamps: impl IntoIterator<Item = Expr>,
    ) -> Intrinsic {
        let i = Intrinsic {
            op,
            operands: operands.into_iter().map(Into::into).collect(),
            clamps: clamps.into_iter().collect(),
        };
        assert!(i.arity_ok(), "{op:?}: wrong operand or clamp count");
        i
    }

    /// Whether the operand and clamp counts match the op's descriptor
    /// (see [`OpDesc::fits`]).
    pub fn arity_ok(&self) -> bool {
        self.op.desc(None).fits(self)
    }

    /// Rewrite every expression in place (operand offsets and clamp
    /// bases).
    pub fn map_exprs(&mut self, f: impl Fn(&Expr) -> Expr) {
        for o in &mut self.operands {
            o.offset = f(&o.offset);
        }
        for c in &mut self.clamps {
            *c = f(c);
        }
    }
}

/// One Tensor IR statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// A counted loop `for var in 0..extent`.
    For {
        /// Loop variable.
        var: VarId,
        /// Static trip count.
        extent: usize,
        /// Whether iterations run on the thread pool (with an implicit
        /// trailing barrier).
        parallel: bool,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// An intrinsic call.
    Op(Intrinsic),
}

impl Stmt {
    /// Build a serial loop.
    pub fn loop_(var: VarId, extent: usize, body: Vec<Stmt>) -> Stmt {
        Stmt::For {
            var,
            extent,
            parallel: false,
            body,
        }
    }

    /// Build a parallel loop.
    pub fn parallel(var: VarId, extent: usize, body: Vec<Stmt>) -> Stmt {
        Stmt::For {
            var,
            extent,
            parallel: true,
            body,
        }
    }
}

/// Declaration of a buffer (parameter or local).
#[derive(Debug, Clone, PartialEq)]
pub struct BufDecl {
    /// Element type.
    pub dtype: DataType,
    /// Number of elements.
    pub elems: usize,
    /// Debug name.
    pub name: String,
}

impl BufDecl {
    /// Create a declaration.
    pub fn new(dtype: DataType, elems: usize, name: impl Into<String>) -> Self {
        BufDecl {
            dtype,
            elems,
            name: name.into(),
        }
    }

    /// Size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.elems * self.dtype.size_bytes()
    }
}

/// A lowered Fused OP: one function.
#[derive(Debug, Clone, PartialEq)]
pub struct Func {
    /// Name (diagnostics).
    pub name: String,
    /// Parameter buffers (bound to module globals at call sites).
    pub params: Vec<BufDecl>,
    /// Local temporary buffers.
    pub locals: Vec<BufDecl>,
    /// Number of scalar variables used by the body.
    pub var_count: usize,
    /// Statements.
    pub body: Vec<Stmt>,
}

impl Func {
    /// Allocate a fresh variable id.
    pub fn fresh_var(&mut self) -> VarId {
        let v = VarId(self.var_count);
        self.var_count += 1;
        v
    }

    /// Declare a local buffer; returns its [`BufId`].
    pub fn add_local(&mut self, decl: BufDecl) -> BufId {
        self.locals.push(decl);
        BufId::Local(self.locals.len() - 1)
    }

    /// Total bytes of all local temporaries (before buffer reuse).
    pub fn local_bytes(&self) -> usize {
        self.locals.iter().map(BufDecl::size_bytes).sum()
    }
}

/// Role of a module-level buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GlobalKind {
    /// Bound to the i-th execution input.
    Input(usize),
    /// Bound to the i-th execution output.
    Output(usize),
    /// A weight (or other constant) bound at compile time.
    Weight,
    /// Produced by the init stage, cached across executions.
    Persistent,
    /// Scratch between fused ops, allocated per execution.
    Scratch,
}

/// Declaration of a module-level buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalDecl {
    /// Element type.
    pub dtype: DataType,
    /// Number of elements.
    pub elems: usize,
    /// Role.
    pub kind: GlobalKind,
    /// Debug name.
    pub name: String,
}

/// A call in the module's entry sequence: `funcs[func](globals[args])`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// Index into [`Module::funcs`].
    pub func: usize,
    /// Global indices bound to the function's parameters, in order.
    pub args: Vec<usize>,
}

/// A compiled Tensor IR module: "multiple functions, each of which
/// represents a lowered Fused OP", plus an entry sequence of calls.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Module {
    /// Functions (one per fused op / merged group).
    pub funcs: Vec<Func>,
    /// Module-level buffers.
    pub globals: Vec<GlobalDecl>,
    /// Calls executed once, on first run (constant preprocessing).
    pub init_calls: Vec<Call>,
    /// Calls executed on every run.
    pub main_calls: Vec<Call>,
}

impl Module {
    /// An empty module.
    pub fn new() -> Self {
        Module::default()
    }

    /// Add a global buffer; returns its index.
    pub fn add_global(&mut self, decl: GlobalDecl) -> usize {
        self.globals.push(decl);
        self.globals.len() - 1
    }

    /// Add a function; returns its index.
    pub fn add_func(&mut self, func: Func) -> usize {
        self.funcs.push(func);
        self.funcs.len() - 1
    }

    /// Basic structural validation: call arities, buffer indices, and
    /// unique input/output slot assignments. Deeper semantic checks
    /// (def-before-use, in-bounds accesses, reuse live ranges) live in
    /// [`crate::passes::validate`].
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let mut inputs = std::collections::HashMap::new();
        let mut outputs = std::collections::HashMap::new();
        for (gi, g) in self.globals.iter().enumerate() {
            let dup = match g.kind {
                GlobalKind::Input(slot) => inputs.insert(slot, gi),
                GlobalKind::Output(slot) => outputs.insert(slot, gi),
                _ => None,
            };
            if let Some(prev) = dup {
                return Err(format!(
                    "globals {} and {} both claim {:?}",
                    self.globals[prev].name, g.name, g.kind
                ));
            }
        }
        for (ci, call) in self.init_calls.iter().chain(&self.main_calls).enumerate() {
            let f = self
                .funcs
                .get(call.func)
                .ok_or_else(|| format!("call {ci}: unknown func {}", call.func))?;
            if call.args.len() != f.params.len() {
                return Err(format!(
                    "call {ci} to {}: {} args for {} params",
                    f.name,
                    call.args.len(),
                    f.params.len()
                ));
            }
            for (&a, p) in call.args.iter().zip(&f.params) {
                let g = self
                    .globals
                    .get(a)
                    .ok_or_else(|| format!("call {ci}: unknown global {a}"))?;
                if g.dtype != p.dtype || g.elems < p.elems {
                    return Err(format!(
                        "call {ci} to {}: global {} ({} x{}) incompatible with param {} ({} x{})",
                        f.name, g.name, g.dtype, g.elems, p.name, p.dtype, p.elems
                    ));
                }
            }
        }
        Ok(())
    }
}

/// A one-step storing chain `dst = op(src)` over `1 x len`: operand 0
/// read and operand 1 written, `len` elements each — the generic
/// read/write op of the tests.
#[cfg(test)]
pub(crate) fn unary_chain(op: gc_microkernel::UnaryOp, len: usize) -> Op {
    let mut c = RowChain::new(1, len, 1, true);
    c.unary(op).expect("one step fits");
    Op::RowChain(c)
}

/// `dst = a + b` over `1 x len` (operands `a, b, dst`) or, without
/// `store`, `a += b` in place (operands `a, b`).
#[cfg(test)]
pub(crate) fn add_chain(len: usize, store: bool) -> Op {
    let mut c = RowChain::new(1, len, 1, store);
    c.full(gc_microkernel::BinaryOp::Add, len)
        .expect("one side operand fits");
    Op::RowChain(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_microkernel::UnaryOp;

    fn tiny_func() -> Func {
        let mut f = Func {
            name: "f".to_string(),
            params: vec![
                BufDecl::new(DataType::F32, 16, "in"),
                BufDecl::new(DataType::F32, 16, "out"),
            ],
            locals: vec![],
            var_count: 0,
            body: vec![],
        };
        let v = f.fresh_var();
        f.body.push(Stmt::loop_(
            v,
            4,
            vec![Stmt::Op(Intrinsic::new(
                unary_chain(UnaryOp::Relu, 4),
                [
                    View::new(BufId::Param(0), Expr::v(v).mul(Expr::c(4)), 4),
                    View::new(BufId::Param(1), Expr::v(v).mul(Expr::c(4)), 4),
                ],
                [],
            ))],
        ));
        f
    }

    #[test]
    fn op_stays_one_cache_line() {
        // plans store `Op` inline in every compiled intrinsic; a row
        // chain's program is sized to fit, not boxed
        assert_eq!(std::mem::size_of::<Op>(), 64);
    }

    #[test]
    fn func_helpers() {
        let mut f = tiny_func();
        assert_eq!(f.var_count, 1);
        let l = f.add_local(BufDecl::new(DataType::F32, 8, "tmp"));
        assert_eq!(l, BufId::Local(0));
        assert_eq!(f.local_bytes(), 32);
    }

    #[test]
    fn module_validate_catches_arity() {
        let mut m = Module::new();
        let f = m.add_func(tiny_func());
        let a = m.add_global(GlobalDecl {
            dtype: DataType::F32,
            elems: 16,
            kind: GlobalKind::Input(0),
            name: "a".to_string(),
        });
        m.main_calls.push(Call {
            func: f,
            args: vec![a],
        });
        assert!(m.validate().is_err()); // 1 arg for 2 params
        let b = m.add_global(GlobalDecl {
            dtype: DataType::F32,
            elems: 16,
            kind: GlobalKind::Output(0),
            name: "b".to_string(),
        });
        m.main_calls[0].args.push(b);
        m.validate().unwrap();
    }

    #[test]
    fn module_validate_catches_dtype() {
        let mut m = Module::new();
        let f = m.add_func(tiny_func());
        let a = m.add_global(GlobalDecl {
            dtype: DataType::I8,
            elems: 16,
            kind: GlobalKind::Input(0),
            name: "a".to_string(),
        });
        let b = m.add_global(GlobalDecl {
            dtype: DataType::F32,
            elems: 16,
            kind: GlobalKind::Output(0),
            name: "b".to_string(),
        });
        m.main_calls.push(Call {
            func: f,
            args: vec![a, b],
        });
        assert!(m.validate().is_err());
    }

    #[test]
    fn undersized_global_rejected() {
        let mut m = Module::new();
        let f = m.add_func(tiny_func());
        let a = m.add_global(GlobalDecl {
            dtype: DataType::F32,
            elems: 8,
            kind: GlobalKind::Input(0),
            name: "a".to_string(),
        });
        let b = m.add_global(GlobalDecl {
            dtype: DataType::F32,
            elems: 16,
            kind: GlobalKind::Output(0),
            name: "b".to_string(),
        });
        m.main_calls.push(Call {
            func: f,
            args: vec![a, b],
        });
        assert!(m.validate().is_err());
    }
}
