//! Gather / pad / scatter helpers for dynamic batching.
//!
//! Coalescing lays each input of the batched items end to end along dim
//! 0 and zero-pads to the bucket's row count; scattering copies each
//! item's rows back out of the batched output. Both are plain element
//! copies (`copy_elems` is the one both batch functions use) —
//! soundness (padded rows never influence real rows, and every output
//! row belongs to exactly one request) is enforced at load time by
//! [`crate::rebatch::check_row_independence`], which rejects templates
//! whose ops are not row-independent along dim 0.

use crate::ServeError;
use gc_tensor::{Storage, Tensor, TensorDesc};

macro_rules! for_each_storage {
    ($s:expr, $v:ident => $body:expr) => {
        match $s {
            Storage::F32($v) => Storage::F32($body),
            Storage::Bf16($v) => Storage::Bf16($body),
            Storage::U8($v) => Storage::U8($body),
            Storage::I8($v) => Storage::I8($body),
            Storage::I32($v) => Storage::I32($body),
            Storage::I64($v) => Storage::I64($body),
        }
    };
}

/// Concatenate `parts` along dim 0 and zero-pad the result to
/// `total_rows` rows. All parts must share dtype and trailing dims.
///
/// # Errors
///
/// Returns [`ServeError::InvalidRequest`] on shape/dtype mismatch or if
/// the parts hold more than `total_rows` rows.
pub fn concat_rows(parts: &[&Tensor], total_rows: usize) -> Result<Tensor, ServeError> {
    let first = parts
        .first()
        .ok_or_else(|| ServeError::InvalidRequest("empty batch".into()))?;
    let dtype = first.desc().dtype();
    let tail: Vec<usize> = first.desc().shape()[1..].to_vec();
    let row_vol: usize = tail.iter().product::<usize>().max(1);
    let mut rows = 0usize;
    for p in parts {
        if p.desc().dtype() != dtype || p.desc().shape()[1..] != tail[..] {
            return Err(ServeError::InvalidRequest(format!(
                "batch part mismatch: {} vs {}",
                p.desc(),
                first.desc()
            )));
        }
        rows += p.desc().shape()[0];
    }
    if rows > total_rows {
        return Err(ServeError::InvalidRequest(format!(
            "{rows} rows exceed bucket of {total_rows}"
        )));
    }
    let mut out = Storage::zeros(dtype, total_rows * row_vol);
    let mut off = 0usize;
    for p in parts {
        let n = p.desc().volume();
        copy_elems(p.storage(), 0, &mut out, off, n)?;
        off += n;
    }
    let mut shape = vec![total_rows];
    shape.extend_from_slice(&tail);
    Tensor::from_parts(TensorDesc::new(shape, dtype), out)
        .map_err(|e| ServeError::InvalidRequest(e.to_string()))
}

/// Slice `len` elements starting at `start` out of `t`'s flat storage
/// and shape them as `desc`.
///
/// # Errors
///
/// Returns [`ServeError::Exec`] if the range is out of bounds or
/// `desc` doesn't describe `len` elements of `t`'s dtype.
pub fn slice_elems(
    t: &Tensor,
    start: usize,
    len: usize,
    desc: TensorDesc,
) -> Result<Tensor, ServeError> {
    if desc.volume() != len || desc.dtype() != t.desc().dtype() {
        return Err(ServeError::Exec(format!(
            "scatter target {desc} does not hold {len} elements of {:?}",
            t.desc().dtype()
        )));
    }
    if start + len > t.desc().volume() {
        return Err(ServeError::Exec(format!(
            "scatter range {start}..{} exceeds output volume {}",
            start + len,
            t.desc().volume()
        )));
    }
    let sliced = for_each_storage!(t.storage(), v => v[start..start + len].to_vec());
    Tensor::from_parts(desc, sliced).map_err(|e| ServeError::Exec(e.to_string()))
}

/// Copy `n` elements between same-dtype storages (flat offsets). Both
/// batch functions gather and scatter with this — request rows into a
/// part's padded inputs, session caches into an iteration's batch
/// buffer — straight from source to destination, no intermediate
/// tensor.
///
/// # Errors
///
/// [`ServeError::Exec`] on a dtype mismatch or a range outside either
/// storage (an error, not a panic: this runs on the batcher thread).
pub(crate) fn copy_elems(
    src: &Storage,
    src_off: usize,
    dst: &mut Storage,
    dst_off: usize,
    n: usize,
) -> Result<(), ServeError> {
    macro_rules! copy {
        ($($var:ident),*) => {
            match (src, dst) {
                $( (Storage::$var(s), Storage::$var(d)) => {
                    match (s.get(src_off..src_off + n), d.get_mut(dst_off..dst_off + n)) {
                        (Some(s), Some(d)) => {
                            d.copy_from_slice(s);
                            Ok(())
                        }
                        _ => Err(ServeError::Exec(format!(
                            "batch copy of {n} elements at {src_off} -> {dst_off} is out of range"
                        ))),
                    }
                } )*
                _ => Err(ServeError::Exec("dtype mismatch in batch copy".into())),
            }
        };
    }
    copy!(F32, Bf16, U8, I8, I32, I64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_tensor::DataType;

    #[test]
    fn concat_pads_with_zeros() {
        let a = Tensor::from_vec_f32(&[1, 2], vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_vec_f32(&[2, 2], vec![3.0, 4.0, 5.0, 6.0]).unwrap();
        let c = concat_rows(&[&a, &b], 4).unwrap();
        assert_eq!(c.desc().shape(), &[4, 2]);
        assert_eq!(
            c.f32_slice().unwrap(),
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0, 0.0]
        );
    }

    #[test]
    fn slice_recovers_rows() {
        let t =
            Tensor::from_vec_f32(&[4, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0, 0.0]).unwrap();
        let b = slice_elems(&t, 2, 4, TensorDesc::new([2, 2], DataType::F32)).unwrap();
        assert_eq!(b.f32_slice().unwrap(), &[3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn mismatched_parts_rejected() {
        let a = Tensor::from_vec_f32(&[1, 2], vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_vec_f32(&[1, 3], vec![3.0, 4.0, 5.0]).unwrap();
        assert!(concat_rows(&[&a, &b], 4).is_err());
    }

    #[test]
    fn overflow_rejected() {
        let a = Tensor::from_vec_f32(&[3, 1], vec![1.0, 2.0, 3.0]).unwrap();
        assert!(concat_rows(&[&a], 2).is_err());
    }

    #[test]
    fn int8_roundtrip_is_exact() {
        let a = Tensor::from_parts(
            TensorDesc::new([2, 2], DataType::I8),
            Storage::I8(vec![-1, 2, -3, 4]),
        )
        .unwrap();
        let c = concat_rows(&[&a], 4).unwrap();
        let back = slice_elems(&c, 0, 4, TensorDesc::new([2, 2], DataType::I8)).unwrap();
        match back.storage() {
            Storage::I8(v) => assert_eq!(v, &[-1, 2, -3, 4]),
            _ => unreachable!(),
        }
    }
}
