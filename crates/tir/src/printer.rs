//! Human-readable Tensor IR printer (diagnostics and golden tests).

use crate::ir::{BufId, Footprint, Func, Intrinsic, Module, Op, Stmt};
use gc_microkernel::ChainStep;
use std::fmt::Write;

fn buf_str(f: &Func, b: BufId) -> String {
    match b {
        BufId::Param(i) => format!("%{}", f.params[i].name),
        BufId::Local(i) => format!("${}", f.locals[i].name),
    }
}

/// One string per operand: `buf[offset +len]` for contiguous windows
/// (the tile length for brgemm batches), `buf[offset rs= cs=]` for the
/// strided side of a 2-D copy.
fn operand_strs(f: &Func, i: &Intrinsic) -> Vec<String> {
    let desc = i.op.desc(None);
    i.operands
        .iter()
        .zip(desc.operands())
        .map(|(o, s)| {
            let buf = buf_str(f, o.buf);
            match s.footprint {
                Footprint::Dense(len) | Footprint::Tiles { len, .. } => {
                    format!("{buf}[{} +{len}]", o.offset)
                }
                Footprint::Strided(g) => format!(
                    "{buf}[{} rs={} cs={}]",
                    o.offset, g.row_stride, g.col_stride
                ),
            }
        })
        .collect()
}

fn intr_str(f: &Func, i: &Intrinsic) -> String {
    let o = operand_strs(f, i);
    let c = &i.clamps;
    if !i.arity_ok() {
        return format!("{:?} {} <malformed>", i.op, o.join(", "));
    }
    match i.op {
        Op::BrgemmF32(g) => format!(
            "brgemm.f32 {} += {} x {}  (m={} n={} k={} bs={})",
            o[2], o[0], o[1], g.m, g.n, g.k, g.batch
        ),
        Op::BrgemmU8I8(g) => format!(
            "brgemm.u8i8 {} += {} x {}  (m={} n={} k={} bs={})",
            o[2], o[0], o[1], g.m, g.n, g.k, g.batch
        ),
        Op::FillF32 { value, .. } => format!("fill {} = {value}", o[0]),
        Op::ZeroI32 { .. } => format!("zero.i32 {}", o[0]),
        Op::Pack2D(g) => format!("pack2d {} = {} ({}x{})", o[1], o[0], g.rows, g.cols),
        Op::Unpack2D(g) => format!("unpack2d {} = {} ({}x{})", o[1], o[0], g.rows, g.cols),
        Op::Pack2DPad {
            g,
            row_logical,
            col_logical,
        } => format!(
            "pack2d.pad {} = {} ({}x{} rows@{}<{row_logical} cols@{}<{col_logical})",
            o[1], o[0], g.rows, g.cols, c[0], c[1]
        ),
        Op::Unpack2DClamp {
            g,
            row_logical,
            col_logical,
        } => format!(
            "unpack2d.clamp {} = {} ({}x{} rows@{}<{row_logical} cols@{}<{col_logical})",
            o[1], o[0], g.rows, g.cols, c[0], c[1]
        ),
        Op::ReduceRows { op, rows, cols } => {
            format!("reduce.{op:?} {} <- {} ({rows}x{cols})", o[1], o[0])
        }
        Op::DequantAcc { rows, cols, .. } => {
            format!("dequant_acc {} = {} ({rows}x{cols})", o[2], o[0])
        }
        Op::QuantU8 { .. } => format!("quant.u8 {} = {}", o[1], o[0]),
        Op::DequantU8 { .. } => format!("dequant.u8 {} = {}", o[1], o[0]),
        Op::DequantI8 { .. } => format!("dequant.i8 {} = {}", o[1], o[0]),
        Op::CompAccumulate { nb, kb } => {
            format!("comp_acc {} += colsums({}) (nb={nb} kb={kb})", o[1], o[0])
        }
        Op::CastI32F32 { .. } => format!("cast.i32f32 {} = {}", o[1], o[0]),
        Op::RowChain(c) => {
            let steps: Vec<String> = c
                .steps()
                .iter()
                .map(|s| match *s {
                    ChainStep::Unary(op) => format!("{op:?}"),
                    ChainStep::Scalar(op, k) => format!("{op:?}.s {}", c.constant(k)),
                    ChainStep::RowVec(op, i) => format!("{op:?}.rowb {}", o[1 + usize::from(i)]),
                    ChainStep::Full(op, i) if c.full_stride() == c.tiles() * c.cols() => {
                        format!("{op:?}.full {}", o[1 + usize::from(i)])
                    }
                    ChainStep::Full(op, i) => {
                        let ld = c.full_stride();
                        format!("{op:?}.full {} ld={ld}", o[1 + usize::from(i)])
                    }
                    ChainStep::Stat(op) => format!("{op:?}.colb"),
                    ChainStep::ColVec(op, i) => format!("{op:?}.colv {}", o[1 + usize::from(i)]),
                    ChainStep::Reduce(op) => format!("reduce.{op:?}"),
                })
                .collect();
            let io = if c.stores() {
                format!("{} = {}", o[o.len() - 1], o[0])
            } else {
                o[0].clone()
            };
            format!(
                "row_chain {io} ({}x{} x{}): {}",
                c.rows(),
                c.cols(),
                c.tiles(),
                steps.join("; ")
            )
        }
    }
}

fn print_stmts(f: &Func, stmts: &[Stmt], indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    for s in stmts {
        match s {
            Stmt::For {
                var,
                extent,
                parallel,
                body,
            } => {
                let kw = if *parallel { "parallel" } else { "for" };
                let _ = writeln!(out, "{pad}{kw} {var} in 0..{extent} {{");
                print_stmts(f, body, indent + 1, out);
                let _ = writeln!(out, "{pad}}}");
            }
            Stmt::Op(i) => {
                let _ = writeln!(out, "{pad}{}", intr_str(f, i));
            }
        }
    }
}

/// Print one function.
pub fn print_func(f: &Func) -> String {
    let mut s = String::new();
    let params: Vec<String> = f
        .params
        .iter()
        .map(|p| format!("%{}: {}[{}]", p.name, p.dtype, p.elems))
        .collect();
    let _ = writeln!(s, "func {}({}) {{", f.name, params.join(", "));
    for l in &f.locals {
        let _ = writeln!(s, "  local ${}: {}[{}]", l.name, l.dtype, l.elems);
    }
    print_stmts(f, &f.body, 1, &mut s);
    let _ = writeln!(s, "}}");
    s
}

/// Print a whole module.
pub fn print_module(m: &Module) -> String {
    let mut s = String::new();
    for g in &m.globals {
        let _ = writeln!(
            s,
            "global {}: {}[{}] {:?}",
            g.name, g.dtype, g.elems, g.kind
        );
    }
    for f in &m.funcs {
        s.push('\n');
        s.push_str(&print_func(f));
    }
    let _ = writeln!(s, "\nentry {{");
    for c in &m.init_calls {
        let _ = writeln!(s, "  init  call {} {:?}", m.funcs[c.func].name, c.args);
    }
    for c in &m.main_calls {
        let _ = writeln!(s, "  call {} {:?}", m.funcs[c.func].name, c.args);
    }
    let _ = writeln!(s, "}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::ir::{BufDecl, View};
    use gc_microkernel::UnaryOp;
    use gc_tensor::DataType;

    #[test]
    fn prints_loops_and_intrinsics() {
        let mut f = Func {
            name: "demo".into(),
            params: vec![
                BufDecl::new(DataType::F32, 8, "in"),
                BufDecl::new(DataType::F32, 8, "out"),
            ],
            locals: vec![BufDecl::new(DataType::F32, 4, "tmp")],
            var_count: 0,
            body: vec![],
        };
        let v = f.fresh_var();
        f.body.push(Stmt::parallel(
            v,
            2,
            vec![Stmt::Op(Intrinsic::new(
                crate::ir::unary_chain(UnaryOp::Relu, 4),
                [
                    View::new(BufId::Param(0), Expr::v(v).mul(Expr::c(4)), 4),
                    View::new(BufId::Param(1), Expr::v(v).mul(Expr::c(4)), 4),
                ],
                [],
            ))],
        ));
        let text = print_func(&f);
        assert!(text.contains("parallel v0 in 0..2"));
        assert!(text.contains("row_chain %out"), "{text}");
        assert!(text.contains("(1x4 x1): Relu"), "{text}");
        assert!(text.contains("local $tmp"));
    }
}
