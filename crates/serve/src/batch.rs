//! Gather / pad / scatter helpers for dynamic batching.
//!
//! Coalescing lays each input of the batched items end to end along dim
//! 0 and zero-pads to the bucket's row count; scattering copies each
//! item's rows back out of the batched output. Both are plain element
//! copies (both batch functions gather with `copy_elems` and scatter
//! with [`slice_elems`]) —
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
/// batch functions gather with this — request rows into a batch's
/// padded inputs, session caches into an iteration's batch buffer —
/// straight from source to destination, no intermediate tensor.
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
    fn slice_recovers_rows() {
        let t =
            Tensor::from_vec_f32(&[4, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0, 0.0]).unwrap();
        let b = slice_elems(&t, 2, 4, TensorDesc::new([2, 2], DataType::F32)).unwrap();
        assert_eq!(b.f32_slice().unwrap(), &[3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn int8_slice_is_exact() {
        let a = Tensor::from_parts(
            TensorDesc::new([4, 2], DataType::I8),
            Storage::I8(vec![-1, 2, -3, 4, 0, 0, 0, 0]),
        )
        .unwrap();
        let back = slice_elems(&a, 0, 4, TensorDesc::new([2, 2], DataType::I8)).unwrap();
        match back.storage() {
            Storage::I8(v) => assert_eq!(v, &[-1, 2, -3, 4]),
            _ => unreachable!(),
        }
    }
}
