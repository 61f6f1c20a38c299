//! Lowering of standalone (unfused) Fusible OPs.
//!
//! When fine-grain fusion is disabled — or an op cannot be fused — each
//! Fusible OP lowers to its own small function: a parallel loop over row
//! blocks. Every f32 elementwise op is a one-op row chain
//! ([`lower_row_chain`]), the program and kernel a fused chain runs at
//! its matmul anchor: its `inputs[0]` is the tile and a binary's other
//! input a side operand of the one shape rule
//! (`gc_graph::passes::fusion::side_shape`). A chain that reduces and was
//! left unfused as a whole (a softmax the primitives baseline does not
//! fuse into its matmul) is one function of row-chain calls too. The
//! rest — quantize, dequantize, the i32 → f32 cast, a row reduction —
//! are slice kernels over chunks ([`lower_standalone`]); reorders lower
//! to tile pack/unpack loops (also used by the init stage for constant
//! weight prepacking).

use crate::template::{row_chain_program, PostOpSpec, SideKind};
use gc_graph::{BinaryKind, OpKind, ReduceKind, UnaryKind};
use gc_microkernel::{BinaryOp, UnaryOp};
use gc_tensor::{DataType, Layout, TensorDesc};
use gc_tir::ir::Copy2D;
use gc_tir::{BufDecl, BufId, Expr, Func, Intrinsic, Op, Operand, ReduceOp, Stmt, View};

/// Map graph unary kinds to microkernel ops.
pub fn unary_op(k: UnaryKind) -> UnaryOp {
    match k {
        UnaryKind::Relu => UnaryOp::Relu,
        UnaryKind::Gelu => UnaryOp::Gelu,
        UnaryKind::Sigmoid => UnaryOp::Sigmoid,
        UnaryKind::Tanh => UnaryOp::Tanh,
        UnaryKind::Exp => UnaryOp::Exp,
        UnaryKind::Square => UnaryOp::Square,
        UnaryKind::Neg => UnaryOp::Neg,
        UnaryKind::Identity => UnaryOp::Identity,
    }
}

/// Map graph binary kinds to microkernel ops.
pub fn binary_op(k: BinaryKind) -> BinaryOp {
    match k {
        BinaryKind::Add => BinaryOp::Add,
        BinaryKind::Sub => BinaryOp::Sub,
        BinaryKind::Mul => BinaryOp::Mul,
        BinaryKind::Div => BinaryOp::Div,
        BinaryKind::Max => BinaryOp::Max,
        BinaryKind::Min => BinaryOp::Min,
    }
}

fn chunked_elementwise(
    name: &str,
    in_dtype: DataType,
    out_dtype: DataType,
    elems: usize,
    op: impl Fn(usize) -> Op,
) -> Func {
    let mut f = Func {
        name: name.to_string(),
        params: vec![
            BufDecl::new(in_dtype, elems, "in"),
            BufDecl::new(out_dtype, elems, "out"),
        ],
        locals: vec![],
        var_count: 0,
        body: vec![],
    };
    let v = f.fresh_var();
    // chunk to ~16KiB granules for parallelism
    let chunk = (elems / 64).clamp(1, 4096).max(1);
    let chunks = elems / chunk;
    let tail = elems % chunk;
    f.body.push(Stmt::parallel(
        v,
        chunks,
        vec![Stmt::Op(Intrinsic::new(
            op(chunk),
            [
                Operand::new(BufId::Param(0), Expr::v(v).mul(Expr::from(chunk))),
                Operand::new(BufId::Param(1), Expr::v(v).mul(Expr::from(chunk))),
            ],
            [],
        ))],
    ));
    if tail > 0 {
        f.body.push(Stmt::Op(Intrinsic::new(
            op(tail),
            [
                Operand::new(BufId::Param(0), chunks * chunk),
                Operand::new(BufId::Param(1), chunks * chunk),
            ],
            [],
        )));
    }
    f
}

/// Lower a standalone op that is not an f32 elementwise one (those are
/// row chains, see [`lower_row_chain`]) given its input/output
/// descriptors: a quantize, dequantize or i32 → f32 cast, a row
/// reduction, a reorder or a transpose.
///
/// # Panics
///
/// Panics for op kinds that can never be standalone (Tunable ops go
/// through the template; Complex ops are decomposed before lowering;
/// elementwise ops are row chains) or unsupported layout combinations.
pub fn lower_standalone(
    kind: &OpKind,
    inputs: &[&TensorDesc],
    output: &TensorDesc,
    name: &str,
) -> Func {
    match kind {
        OpKind::TypeCast { to: DataType::F32 } if inputs[0].dtype() == DataType::I32 => {
            chunked_elementwise(name, DataType::I32, DataType::F32, output.volume(), |len| {
                Op::CastI32F32 { len }
            })
        }
        OpKind::Quantize { dtype, params } => {
            assert_eq!(*dtype, DataType::U8, "standalone quantize targets u8");
            let (scale, zp) = (params.scale, params.zero_point);
            chunked_elementwise(name, DataType::F32, DataType::U8, output.volume(), |len| {
                Op::QuantU8 {
                    len,
                    scale,
                    zero_point: zp,
                }
            })
        }
        OpKind::Dequantize { params } => {
            let (scale, zp) = (params.scale, params.zero_point);
            match inputs[0].dtype() {
                DataType::U8 => {
                    chunked_elementwise(name, DataType::U8, DataType::F32, output.volume(), |len| {
                        Op::DequantU8 {
                            len,
                            scale,
                            zero_point: zp,
                        }
                    })
                }
                DataType::I8 => {
                    chunked_elementwise(name, DataType::I8, DataType::F32, output.volume(), |len| {
                        Op::DequantI8 { len, scale }
                    })
                }
                other => panic!("dequantize of {other}"),
            }
        }
        OpKind::Reduce(r) => {
            let op = match r {
                ReduceKind::Sum => ReduceOp::Sum,
                ReduceKind::Max => ReduceOp::Max,
            };
            let shape = inputs[0].shape();
            let cols = *shape.last().unwrap();
            let rows = inputs[0].volume() / cols;
            let mut f = Func {
                name: name.to_string(),
                params: vec![
                    BufDecl::new(DataType::F32, rows * cols, "in"),
                    BufDecl::new(DataType::F32, rows, "out"),
                ],
                locals: vec![],
                var_count: 0,
                body: vec![],
            };
            let v = f.fresh_var();
            let reduce = |rows| Op::ReduceRows { op, rows, cols };
            let row_block = 8.min(rows);
            let blocks = rows / row_block;
            f.body.push(Stmt::parallel(
                v,
                blocks,
                vec![Stmt::Op(Intrinsic::new(
                    reduce(row_block),
                    [
                        Operand::new(
                            BufId::Param(0),
                            Expr::v(v).mul(Expr::from(row_block * cols)),
                        ),
                        Operand::new(BufId::Param(1), Expr::v(v).mul(Expr::from(row_block))),
                    ],
                    [],
                ))],
            ));
            let tail = rows % row_block;
            if tail > 0 {
                f.body.push(Stmt::Op(Intrinsic::new(
                    reduce(tail),
                    [
                        Operand::new(BufId::Param(0), blocks * row_block * cols),
                        Operand::new(BufId::Param(1), blocks * row_block),
                    ],
                    [],
                )));
            }
            f
        }
        OpKind::Reorder { target } => lower_reorder(inputs[0], target, name),
        OpKind::Transpose => lower_transpose(inputs[0], name),
        other => panic!("{other} cannot be lowered standalone"),
    }
}

/// Lower a standalone post-op chain over `batch` plain `[m, n]`
/// matrices — a reducing chain left unfused as a whole (an unfused
/// softmax), or one f32 unary or binary (with no steps, an identity's
/// copy): one storing [`Op::RowChain`] per block of rows, the same
/// program and kernel the matmul template runs at its anchor.
/// Parameters: the chain's input, its side operands in program order
/// (sized as `lower_graph` classified them), the output.
///
/// # Panics
///
/// Panics if the chain does not fit one row-chain program (fusion bounds
/// reducing chains so that it does).
pub fn lower_row_chain(
    post_ops: &[PostOpSpec],
    batch: usize,
    m: usize,
    n: usize,
    name: &str,
) -> Func {
    let elems = batch * m * n;
    // a block never straddles two matrices (batch-indexed row vectors)
    let rows = crate::largest_divisor_at_most(m, 8);
    let (chain, side) = row_chain_program(false, post_ops, rows, n, 1, n, true);
    let mut f = Func {
        name: name.to_string(),
        params: vec![BufDecl::new(DataType::F32, elems, "in")],
        locals: vec![],
        var_count: 0,
        body: vec![],
    };
    let v = f.fresh_var();
    let block = Expr::v(v).mul(Expr::from(rows * n));
    let mut operands = vec![Operand::new(BufId::Param(0), block.clone())];
    for (i, s) in side.iter().enumerate() {
        let (len, offset) = match s.kind {
            SideKind::RowVec {
                batch_indexed: false,
            } => (n, Expr::c(0)),
            SideKind::RowVec {
                batch_indexed: true,
            } => (
                batch * n,
                Expr::v(v).div(Expr::from(m / rows)).mul(Expr::from(n)),
            ),
            SideKind::Full => (elems, block.clone()),
            SideKind::ColVec => (batch * m, Expr::v(v).mul(Expr::from(rows))),
        };
        f.params
            .push(BufDecl::new(DataType::F32, len, format!("opnd{i}")));
        operands.push(Operand::new(BufId::Param(1 + i), offset));
    }
    f.params.push(BufDecl::new(DataType::F32, elems, "out"));
    operands.push(Operand::new(BufId::Param(1 + side.len()), block));
    f.body.push(Stmt::parallel(
        v,
        batch * m / rows,
        vec![Stmt::Op(Intrinsic::new(Op::RowChain(chain), operands, []))],
    ));
    f
}

/// Lower a reorder between plain and the canonical blocked layouts.
///
/// The plain → blocked-weight direction supports *ragged* shapes: when
/// `KB` or `NB` does not divide the weight's K or N, the edge tiles are
/// zero-padded (pack-time padding), the output buffer holds the padded
/// `ceil(K/KB)*KB x ceil(N/NB)*NB` extent, and the steady-state matmul
/// loops only ever see whole tiles. All other directions require exact
/// divisibility.
pub fn lower_reorder(input: &TensorDesc, target: &Layout, name: &str) -> Func {
    let shape = input.shape();
    let rank = shape.len();
    assert!(rank >= 2, "reorder needs rank >= 2");
    let rows_dim = shape[rank - 2];
    let cols_dim = shape[rank - 1];
    let batch: usize = shape[..rank - 2].iter().product();
    let elems = input.volume();
    let dtype = input.dtype();
    let out_elems = match (input.layout(), target) {
        (Layout::Plain, Layout::Blocked(_)) => {
            let (rb, cb, b_is_weight) = blocked_factors(target, rank, rows_dim, cols_dim);
            if b_is_weight {
                batch * rows_dim.div_ceil(rb) * rb * cols_dim.div_ceil(cb) * cb
            } else {
                elems
            }
        }
        _ => elems,
    };

    let mut f = Func {
        name: name.to_string(),
        params: vec![
            BufDecl::new(dtype, elems, "in"),
            BufDecl::new(dtype, out_elems, "out"),
        ],
        locals: vec![],
        var_count: 0,
        body: vec![],
    };
    let tvar = f.fresh_var();
    let inner = f.fresh_var();

    match (input.layout(), target) {
        (Layout::Plain, Layout::Blocked(_)) => {
            let (rb, cb, b_is_weight) = blocked_factors(target, rank, rows_dim, cols_dim);
            let ragged =
                b_is_weight && (!rows_dim.is_multiple_of(rb) || !cols_dim.is_multiple_of(cb));
            let (r_tiles, c_tiles) = if b_is_weight {
                (rows_dim.div_ceil(rb), cols_dim.div_ceil(cb))
            } else {
                (rows_dim / rb, cols_dim / cb)
            };
            // For blocked_a: dst tile (rt, ct) holds rows-major [rb, cb]
            // For blocked_b (weight): dst tile (rt, ct) holds [cb_n][rb_k]
            // panels; here rows_dim=K, cols_dim=N, tile [NB, KB].
            let body = if !b_is_weight {
                let src_off = Expr::v(tvar)
                    .mul(Expr::from(rows_dim * cols_dim))
                    .add(
                        Expr::v(inner)
                            .div(Expr::from(c_tiles))
                            .mul(Expr::from(rb * cols_dim)),
                    )
                    .add(Expr::v(inner).rem(Expr::from(c_tiles)).mul(Expr::from(cb)));
                let dst = View::new(
                    BufId::Param(1),
                    Expr::v(tvar)
                        .mul(Expr::from(r_tiles * c_tiles))
                        .add(Expr::v(inner))
                        .mul(Expr::from(rb * cb)),
                    rb * cb,
                );
                Intrinsic::new(
                    Op::Pack2D(Copy2D {
                        rows: rb,
                        cols: cb,
                        row_stride: cols_dim,
                        col_stride: 1,
                    }),
                    [Operand::new(BufId::Param(0), src_off), dst.into()],
                    [],
                )
            } else {
                // weight layout: outer [K/KB, N/NB], tile [NB, KB]
                // inner indexes (kt * n_tiles + nt)
                let kt = Expr::v(inner).div(Expr::from(c_tiles));
                let nt = Expr::v(inner).rem(Expr::from(c_tiles));
                let dst = View::new(
                    BufId::Param(1),
                    Expr::v(tvar)
                        .mul(Expr::from(r_tiles * c_tiles))
                        .add(Expr::v(inner))
                        .mul(Expr::from(rb * cb)),
                    rb * cb,
                );
                // dst[r=n][c=k] = src[(kt*KB + c)*N + nt*NB + r]
                let g = Copy2D {
                    rows: cb,
                    cols: rb,
                    row_stride: 1,
                    col_stride: cols_dim,
                };
                let batch_off = Expr::v(tvar).mul(Expr::from(rows_dim * cols_dim));
                if ragged {
                    // pack-time padding: edge tiles zero-fill the
                    // out-of-range region so the matmul's steady-state
                    // loops only see whole [NB, KB] tiles
                    Intrinsic::new(
                        Op::Pack2DPad {
                            g,
                            row_logical: cols_dim,
                            col_logical: rows_dim,
                        },
                        [Operand::new(BufId::Param(0), batch_off), dst.into()],
                        [nt.mul(Expr::from(cb)), kt.mul(Expr::from(rb))],
                    )
                } else {
                    let src_off = batch_off
                        .add(kt.mul(Expr::from(rb * cols_dim)))
                        .add(nt.mul(Expr::from(cb)));
                    Intrinsic::new(
                        Op::Pack2D(g),
                        [Operand::new(BufId::Param(0), src_off), dst.into()],
                        [],
                    )
                }
            };
            f.body.push(Stmt::parallel(
                tvar,
                batch,
                vec![Stmt::loop_(inner, r_tiles * c_tiles, vec![Stmt::Op(body)])],
            ));
        }
        (Layout::Blocked(_), Layout::Plain) => {
            let (rb, cb, b_is_weight) = blocked_factors(input.layout(), rank, rows_dim, cols_dim);
            assert!(!b_is_weight, "unpacking weight layout is not needed");
            let r_tiles = rows_dim / rb;
            let c_tiles = cols_dim / cb;
            let src = View::new(
                BufId::Param(0),
                Expr::v(tvar)
                    .mul(Expr::from(r_tiles * c_tiles))
                    .add(Expr::v(inner))
                    .mul(Expr::from(rb * cb)),
                rb * cb,
            );
            let dst_off = Expr::v(tvar)
                .mul(Expr::from(rows_dim * cols_dim))
                .add(
                    Expr::v(inner)
                        .div(Expr::from(c_tiles))
                        .mul(Expr::from(rb * cols_dim)),
                )
                .add(Expr::v(inner).rem(Expr::from(c_tiles)).mul(Expr::from(cb)));
            f.body.push(Stmt::parallel(
                tvar,
                batch,
                vec![Stmt::loop_(
                    inner,
                    r_tiles * c_tiles,
                    vec![Stmt::Op(Intrinsic::new(
                        Op::Unpack2D(Copy2D {
                            rows: rb,
                            cols: cb,
                            row_stride: cols_dim,
                            col_stride: 1,
                        }),
                        [src.into(), Operand::new(BufId::Param(1), dst_off)],
                        [],
                    ))],
                )],
            ));
        }
        (a, b) => panic!("unsupported reorder {a} -> {b}"),
    }
    f
}

/// Extract (row_block, col_block, is_weight_layout) from a blocked
/// layout over the last two axes.
fn blocked_factors(
    layout: &Layout,
    rank: usize,
    _rows: usize,
    _cols: usize,
) -> (usize, usize, bool) {
    let Layout::Blocked(blocks) = layout else {
        panic!("expected blocked layout")
    };
    assert_eq!(blocks.len(), 2, "two-axis blocking expected");
    let row_axis = rank - 2;
    let col_axis = rank - 1;
    // blocked_a lists (row, col); blocked_b lists (col, row)
    if blocks[0].axis == row_axis && blocks[1].axis == col_axis {
        (blocks[0].block, blocks[1].block, false)
    } else if blocks[0].axis == col_axis && blocks[1].axis == row_axis {
        (blocks[1].block, blocks[0].block, true)
    } else {
        panic!("blocking must cover the last two axes");
    }
}

/// Standalone transpose of the last two axes (plain layouts).
pub fn lower_transpose(input: &TensorDesc, name: &str) -> Func {
    let shape = input.shape();
    let rank = shape.len();
    let rows = shape[rank - 2];
    let cols = shape[rank - 1];
    let batch: usize = shape[..rank - 2].iter().product();
    let mut f = Func {
        name: name.to_string(),
        params: vec![
            BufDecl::new(input.dtype(), input.volume(), "in"),
            BufDecl::new(input.dtype(), input.volume(), "out"),
        ],
        locals: vec![],
        var_count: 0,
        body: vec![],
    };
    let v = f.fresh_var();
    // out[b][c][r] = in[b][r][c]: pack with swapped strides
    f.body.push(Stmt::parallel(
        v,
        batch,
        vec![Stmt::Op(Intrinsic::new(
            Op::Pack2D(Copy2D {
                rows: cols,
                cols: rows,
                row_stride: 1,
                col_stride: cols,
            }),
            [0, 1].map(|p| Operand::new(BufId::Param(p), Expr::v(v).mul(Expr::from(rows * cols)))),
            [],
        ))],
    ));
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_runtime::ThreadPool;
    use gc_tensor::{reference, reorder, Storage, Tensor};
    use gc_tir::{Call, GlobalDecl, GlobalKind, Module};

    fn run1(f: Func, ins: Vec<Storage>, out: Storage) -> Storage {
        let mut m = Module::new();
        let n_params = f.params.len();
        let decls: Vec<_> = f.params.clone();
        let fi = m.add_func(f);
        for (i, d) in decls.iter().enumerate() {
            m.add_global(GlobalDecl {
                dtype: d.dtype,
                elems: d.elems,
                kind: GlobalKind::Scratch,
                name: format!("g{i}"),
            });
        }
        m.main_calls.push(Call {
            func: fi,
            args: (0..n_params).collect(),
        });
        m.validate().unwrap();
        let mut globals: Vec<Storage> = ins;
        globals.push(out);
        gc_tir::exec::run_module(
            &m,
            &mut globals,
            &ThreadPool::new(2),
            true,
            Default::default(),
            Default::default(),
        )
        .unwrap();
        globals.pop().unwrap()
    }

    #[test]
    fn standalone_relu_is_a_one_step_chain() {
        let t = Tensor::random(&[33, 17], DataType::F32, 1);
        let f = lower_row_chain(&[PostOpSpec::Unary(UnaryOp::Relu)], 1, 33, 17, "relu");
        let out = run1(
            f,
            vec![Storage::F32(t.f32_slice().unwrap().to_vec())],
            Storage::F32(vec![0.; t.desc().volume()]),
        );
        let want = reference::relu(&t).unwrap();
        assert_eq!(out.as_slice::<f32>().unwrap(), want.f32_slice().unwrap());
    }

    /// `a op b` for `a [batch, m, n]` through a one-op chain whose side
    /// operand is `b`, against the reference broadcast.
    fn binary_chain(spec: PostOpSpec, kind: reference::BinaryKind, a: &Tensor, b: &Tensor) {
        let shape = a.desc().shape();
        let (m, n) = (shape[shape.len() - 2], shape[shape.len() - 1]);
        let batch = a.desc().volume() / (m * n);
        let f = lower_row_chain(&[spec], batch, m, n, "binary");
        let out = run1(
            f,
            vec![
                Storage::F32(a.f32_slice().unwrap().to_vec()),
                Storage::F32(b.f32_slice().unwrap().to_vec()),
            ],
            Storage::F32(vec![0.; a.desc().volume()]),
        );
        let want = reference::binary(kind, a, b).unwrap();
        assert_eq!(out.as_slice::<f32>().unwrap(), want.f32_slice().unwrap());
    }

    #[test]
    fn standalone_binary_row_broadcast() {
        let rowvec = |batch_indexed| PostOpSpec::BinaryRowVec {
            op: BinaryOp::Add,
            batch_indexed,
        };
        let a = Tensor::random(&[10, 16], DataType::F32, 2);
        let b = Tensor::random(&[16], DataType::F32, 3);
        binary_chain(rowvec(false), reference::BinaryKind::Add, &a, &b);
        // one row per leading index: [3, 1, 16] over [3, 10, 16]
        let a = Tensor::random(&[3, 10, 16], DataType::F32, 4);
        let b = Tensor::random(&[3, 1, 16], DataType::F32, 5);
        binary_chain(rowvec(true), reference::BinaryKind::Add, &a, &b);
    }

    #[test]
    fn standalone_col_vec_broadcast() {
        // keepdim row stats, square too: [rows, 1] reads one value per row
        for (shape, stats) in [([12usize, 8], [12usize, 1]), ([8, 8], [8, 1])] {
            let a = Tensor::random(&shape, DataType::F32, 4);
            let s = Tensor::random(&stats, DataType::F32, 5);
            let sub = PostOpSpec::BinaryColVec { op: BinaryOp::Sub };
            binary_chain(sub, reference::BinaryKind::Sub, &a, &s);
        }
    }

    #[test]
    fn standalone_reduce_rows() {
        let a = Tensor::random(&[13, 9], DataType::F32, 6);
        let out_desc = TensorDesc::new([13usize, 1], DataType::F32);
        let f = lower_standalone(
            &OpKind::Reduce(ReduceKind::Max),
            &[a.desc()],
            &out_desc,
            "rmax",
        );
        let out = run1(
            f,
            vec![Storage::F32(a.f32_slice().unwrap().to_vec())],
            Storage::F32(vec![0.; 13]),
        );
        let want = reference::reduce_last_axis(reference::ReduceKind::Max, &a).unwrap();
        assert_eq!(out.as_slice::<f32>().unwrap(), want.f32_slice().unwrap());
    }

    #[test]
    fn reorder_plain_to_blocked_a_and_back() {
        let t = Tensor::random(&[16, 24], DataType::F32, 7);
        let layout = Layout::blocked_a(2, 4, 8);
        let f = lower_reorder(t.desc(), &layout, "pack");
        let blocked = run1(
            f,
            vec![Storage::F32(t.f32_slice().unwrap().to_vec())],
            Storage::F32(vec![0.; t.desc().volume()]),
        );
        let want = reorder::reorder(&t, layout.clone()).unwrap();
        assert_eq!(
            blocked.as_slice::<f32>().unwrap(),
            want.f32_slice().unwrap()
        );

        // and back
        let bdesc = TensorDesc::with_layout([16usize, 24], DataType::F32, layout).unwrap();
        let f2 = lower_reorder(&bdesc, &Layout::Plain, "unpack");
        let plain = run1(f2, vec![blocked], Storage::F32(vec![0.; t.desc().volume()]));
        assert_eq!(plain.as_slice::<f32>().unwrap(), t.f32_slice().unwrap());
    }

    #[test]
    fn reorder_weight_layout_matches_reference() {
        let w = Tensor::random(&[12, 8], DataType::I8, 8);
        let layout = Layout::blocked_b(2, 4, 2); // KB=4, NB=2
        let f = lower_reorder(w.desc(), &layout, "prepack");
        let blocked = run1(
            f,
            vec![Storage::I8(w.i8_slice().unwrap().to_vec())],
            Storage::I8(vec![0; w.desc().volume()]),
        );
        let want = reorder::reorder(&w, layout).unwrap();
        assert_eq!(blocked.as_slice::<i8>().unwrap(), want.i8_slice().unwrap());
    }

    #[test]
    fn batched_reorder() {
        let t = Tensor::random(&[3, 8, 8], DataType::F32, 9);
        let layout = Layout::blocked_a(3, 4, 4);
        let f = lower_reorder(t.desc(), &layout, "pack3");
        let blocked = run1(
            f,
            vec![Storage::F32(t.f32_slice().unwrap().to_vec())],
            Storage::F32(vec![0.; t.desc().volume()]),
        );
        let want = reorder::reorder(&t, layout).unwrap();
        assert_eq!(
            blocked.as_slice::<f32>().unwrap(),
            want.f32_slice().unwrap()
        );
    }

    #[test]
    fn standalone_transpose() {
        let t = Tensor::random(&[2, 5, 7], DataType::F32, 10);
        let f = lower_transpose(t.desc(), "t");
        let out = run1(
            f,
            vec![Storage::F32(t.f32_slice().unwrap().to_vec())],
            Storage::F32(vec![0.; t.desc().volume()]),
        );
        let want = reorder::transpose_last2(&t).unwrap();
        assert_eq!(out.as_slice::<f32>().unwrap(), want.f32_slice().unwrap());
    }

    #[test]
    fn standalone_quant_dequant() {
        let t = Tensor::random(&[40], DataType::F32, 11);
        let p = gc_tensor::QuantParams::new(0.02, 128);
        let f = lower_standalone(
            &OpKind::Quantize {
                dtype: DataType::U8,
                params: p,
            },
            &[t.desc()],
            &TensorDesc::new([40usize], DataType::U8),
            "q",
        );
        let out = run1(
            f,
            vec![Storage::F32(t.f32_slice().unwrap().to_vec())],
            Storage::U8(vec![0; 40]),
        );
        let want = reference::quantize(&t, DataType::U8, p).unwrap();
        // reciprocal-multiply rounding may differ by 1 at boundaries
        for (a, b) in out
            .as_slice::<u8>()
            .unwrap()
            .iter()
            .zip(want.u8_slice().unwrap())
        {
            assert!((*a as i32 - *b as i32).abs() <= 1);
        }
    }

    #[test]
    fn scalar_rhs_binary() {
        let t = Tensor::random(&[10], DataType::F32, 12);
        let f = lower_row_chain(
            &[PostOpSpec::BinaryScalarConst(BinaryOp::Mul, 2.5)],
            1,
            1,
            10,
            "muls",
        );
        // the scalar is a constant of the program: in and out only
        assert_eq!(f.params.len(), 2);
        let out = run1(
            f,
            vec![Storage::F32(t.f32_slice().unwrap().to_vec())],
            Storage::F32(vec![0.; 10]),
        );
        for (o, x) in out
            .as_slice::<f32>()
            .unwrap()
            .iter()
            .zip(t.f32_slice().unwrap())
        {
            assert_eq!(*o, x * 2.5);
        }
    }
}
