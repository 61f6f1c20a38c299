//! Dense tensors: a descriptor (shape, dtype, layout) plus storage.

use crate::dtype::{DataType, Element};
use crate::error::{Result, TensorError};
use crate::layout::{volume, Layout};
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::sync::Arc;

/// Untyped tensor storage: one variant per supported [`DataType`].
#[derive(Debug, Clone, PartialEq)]
pub enum Storage {
    /// f32 elements.
    F32(Vec<f32>),
    /// bf16 elements stored as raw bits.
    Bf16(Vec<u16>),
    /// u8 elements.
    U8(Vec<u8>),
    /// i8 elements.
    I8(Vec<i8>),
    /// i32 elements.
    I32(Vec<i32>),
    /// i64 elements.
    I64(Vec<i64>),
}

impl Storage {
    /// Allocate zero-filled storage of `len` elements of `dtype`.
    pub fn zeros(dtype: DataType, len: usize) -> Storage {
        match dtype {
            DataType::F32 => Storage::F32(vec![0.0; len]),
            DataType::Bf16 => Storage::Bf16(vec![0; len]),
            DataType::U8 => Storage::U8(vec![0; len]),
            DataType::I8 => Storage::I8(vec![0; len]),
            DataType::I32 => Storage::I32(vec![0; len]),
            DataType::I64 => Storage::I64(vec![0; len]),
        }
    }

    /// The data type held by this storage.
    pub fn dtype(&self) -> DataType {
        match self {
            Storage::F32(_) => DataType::F32,
            Storage::Bf16(_) => DataType::Bf16,
            Storage::U8(_) => DataType::U8,
            Storage::I8(_) => DataType::I8,
            Storage::I32(_) => DataType::I32,
            Storage::I64(_) => DataType::I64,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            Storage::F32(v) => v.len(),
            Storage::Bf16(v) => v.len(),
            Storage::U8(v) => v.len(),
            Storage::I8(v) => v.len(),
            Storage::I32(v) => v.len(),
            Storage::I64(v) => v.len(),
        }
    }

    /// Whether the storage holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of the storage in bytes.
    pub fn size_bytes(&self) -> usize {
        self.len() * self.dtype().size_bytes()
    }

    /// View as a typed slice.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DtypeMismatch`] if `T` does not match the
    /// stored data type.
    pub fn as_slice<T: StorageElement>(&self) -> Result<&[T]> {
        T::slice(self).ok_or(TensorError::DtypeMismatch {
            expected: T::DTYPE,
            actual: self.dtype(),
        })
    }

    /// View as a mutable typed slice.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DtypeMismatch`] if `T` does not match the
    /// stored data type.
    pub fn as_mut_slice<T: StorageElement>(&mut self) -> Result<&mut [T]> {
        let dt = self.dtype();
        T::slice_mut(self).ok_or(TensorError::DtypeMismatch {
            expected: T::DTYPE,
            actual: dt,
        })
    }

    /// Copy `src` into this storage in place (no reallocation).
    ///
    /// # Panics
    ///
    /// Panics if the data types or lengths differ — callers are expected
    /// to have validated both against their descriptors.
    pub fn copy_from(&mut self, src: &Storage) {
        match (self, src) {
            (Storage::F32(d), Storage::F32(s)) => d.copy_from_slice(s),
            (Storage::Bf16(d), Storage::Bf16(s)) => d.copy_from_slice(s),
            (Storage::U8(d), Storage::U8(s)) => d.copy_from_slice(s),
            (Storage::I8(d), Storage::I8(s)) => d.copy_from_slice(s),
            (Storage::I32(d), Storage::I32(s)) => d.copy_from_slice(s),
            (Storage::I64(d), Storage::I64(s)) => d.copy_from_slice(s),
            (d, s) => panic!("copy_from dtype mismatch: {} <- {}", d.dtype(), s.dtype()),
        }
    }

    /// Read element `i` widened to `f64` (bf16 goes through f32).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn get_as_f64(&self, i: usize) -> f64 {
        match self {
            Storage::F32(v) => v[i] as f64,
            Storage::Bf16(v) => crate::dtype::bf16_bits_to_f32(v[i]) as f64,
            Storage::U8(v) => v[i] as f64,
            Storage::I8(v) => v[i] as f64,
            Storage::I32(v) => v[i] as f64,
            Storage::I64(v) => v[i] as f64,
        }
    }
}

/// An [`Element`] whose typed slice can be extracted from a [`Storage`].
///
/// This trait is sealed: it is implemented exactly for the Rust carrier
/// types of the [`DataType`] variants and cannot be implemented outside
/// this crate.
pub trait StorageElement: Element + sealed::Sealed {
    #[doc(hidden)]
    fn slice(s: &Storage) -> Option<&[Self]>
    where
        Self: Sized;
    #[doc(hidden)]
    fn slice_mut(s: &mut Storage) -> Option<&mut [Self]>
    where
        Self: Sized;
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for u8 {}
    impl Sealed for i8 {}
    impl Sealed for i32 {}
    impl Sealed for i64 {}
}

macro_rules! impl_storage_element {
    ($t:ty, $variant:ident) => {
        impl StorageElement for $t {
            fn slice(s: &Storage) -> Option<&[Self]> {
                match s {
                    Storage::$variant(v) => Some(v),
                    _ => None,
                }
            }
            fn slice_mut(s: &mut Storage) -> Option<&mut [Self]> {
                match s {
                    Storage::$variant(v) => Some(v),
                    _ => None,
                }
            }
        }
    };
}

impl_storage_element!(f32, F32);
impl_storage_element!(u8, U8);
impl_storage_element!(i8, I8);
impl_storage_element!(i32, I32);
impl_storage_element!(i64, I64);

/// Metadata of a tensor: logical shape, element type and memory layout.
///
/// This corresponds to the paper's *logical tensor*.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TensorDesc {
    shape: Vec<usize>,
    dtype: DataType,
    layout: Layout,
}

impl TensorDesc {
    /// Create a descriptor with the plain layout.
    pub fn new(shape: impl Into<Vec<usize>>, dtype: DataType) -> Self {
        TensorDesc {
            shape: shape.into(),
            dtype,
            layout: Layout::Plain,
        }
    }

    /// Create a descriptor with an explicit layout.
    ///
    /// # Errors
    ///
    /// Returns an error if the layout is invalid for the shape.
    pub fn with_layout(
        shape: impl Into<Vec<usize>>,
        dtype: DataType,
        layout: Layout,
    ) -> Result<Self> {
        let shape = shape.into();
        layout.storage_dims(&shape)?;
        Ok(TensorDesc {
            shape,
            dtype,
            layout,
        })
    }

    /// Logical shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Element data type.
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// Memory layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Number of logical elements.
    pub fn volume(&self) -> usize {
        volume(&self.shape)
    }

    /// Logical rank.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.volume() * self.dtype.size_bytes()
    }
}

impl fmt::Display for TensorDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:?} @{}", self.dtype, self.shape, self.layout)
    }
}

/// A dense tensor value: descriptor plus shared, immutable storage.
///
/// Cloning is cheap (the storage is reference counted). Mutation happens
/// through [`Tensor::make_mut`], which copies on write when shared.
///
/// # Examples
///
/// ```
/// use gc_tensor::{Tensor, DataType};
/// let t = Tensor::from_vec_f32(&[2, 2], vec![1.0, 2.0, 3.0, 4.0])?;
/// assert_eq!(t.desc().shape(), &[2, 2]);
/// assert_eq!(t.f32_slice()?[3], 4.0);
/// # Ok::<(), gc_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Tensor {
    desc: TensorDesc,
    data: Arc<Storage>,
}

impl Tensor {
    /// Zero-filled tensor with the plain layout.
    pub fn zeros(shape: &[usize], dtype: DataType) -> Tensor {
        let desc = TensorDesc::new(shape, dtype);
        let data = Arc::new(Storage::zeros(dtype, desc.volume()));
        Tensor { desc, data }
    }

    /// Build a tensor from a descriptor and storage.
    ///
    /// # Errors
    ///
    /// Returns an error if the storage dtype or length disagree with the
    /// descriptor.
    pub fn from_parts(desc: TensorDesc, storage: Storage) -> Result<Tensor> {
        if storage.dtype() != desc.dtype() {
            return Err(TensorError::DtypeMismatch {
                expected: desc.dtype(),
                actual: storage.dtype(),
            });
        }
        if storage.len() != desc.volume() {
            return Err(TensorError::LengthMismatch {
                expected: desc.volume(),
                actual: storage.len(),
            });
        }
        Ok(Tensor {
            desc,
            data: Arc::new(storage),
        })
    }

    /// Build an f32 tensor from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns an error if `data.len()` disagrees with `shape`.
    pub fn from_vec_f32(shape: &[usize], data: Vec<f32>) -> Result<Tensor> {
        Tensor::from_parts(TensorDesc::new(shape, DataType::F32), Storage::F32(data))
    }

    /// Build a u8 tensor from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns an error if `data.len()` disagrees with `shape`.
    pub fn from_vec_u8(shape: &[usize], data: Vec<u8>) -> Result<Tensor> {
        Tensor::from_parts(TensorDesc::new(shape, DataType::U8), Storage::U8(data))
    }

    /// Build an i8 tensor from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns an error if `data.len()` disagrees with `shape`.
    pub fn from_vec_i8(shape: &[usize], data: Vec<i8>) -> Result<Tensor> {
        Tensor::from_parts(TensorDesc::new(shape, DataType::I8), Storage::I8(data))
    }

    /// Build an i32 tensor from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns an error if `data.len()` disagrees with `shape`.
    pub fn from_vec_i32(shape: &[usize], data: Vec<i32>) -> Result<Tensor> {
        Tensor::from_parts(TensorDesc::new(shape, DataType::I32), Storage::I32(data))
    }

    /// A scalar (rank-0) f32 tensor.
    pub fn scalar_f32(v: f32) -> Tensor {
        Tensor::from_vec_f32(&[], vec![v]).expect("scalar shape always matches")
    }

    /// Deterministic pseudo-random tensor (uniform), plain layout.
    ///
    /// f32 values lie in `[-1, 1)`; u8 in `[0, 16)`; i8 in `[-8, 8)`;
    /// wider integer types in small ranges suitable for tests.
    pub fn random(shape: &[usize], dtype: DataType, seed: u64) -> Tensor {
        let n = volume(shape);
        let mut rng = StdRng::seed_from_u64(seed);
        let storage = match dtype {
            DataType::F32 => {
                let d = Uniform::new(-1.0f32, 1.0);
                Storage::F32((0..n).map(|_| d.sample(&mut rng)).collect())
            }
            DataType::Bf16 => {
                let d = Uniform::new(-1.0f32, 1.0);
                Storage::Bf16(
                    (0..n)
                        .map(|_| crate::dtype::f32_to_bf16_bits(d.sample(&mut rng)))
                        .collect(),
                )
            }
            DataType::U8 => {
                let d = Uniform::new(0u8, 16);
                Storage::U8((0..n).map(|_| d.sample(&mut rng)).collect())
            }
            DataType::I8 => {
                let d = Uniform::new(-8i8, 8);
                Storage::I8((0..n).map(|_| d.sample(&mut rng)).collect())
            }
            DataType::I32 => {
                let d = Uniform::new(-100i32, 100);
                Storage::I32((0..n).map(|_| d.sample(&mut rng)).collect())
            }
            DataType::I64 => {
                let d = Uniform::new(-100i64, 100);
                Storage::I64((0..n).map(|_| d.sample(&mut rng)).collect())
            }
        };
        Tensor {
            desc: TensorDesc::new(shape, dtype),
            data: Arc::new(storage),
        }
    }

    /// Tensor descriptor.
    pub fn desc(&self) -> &TensorDesc {
        &self.desc
    }

    /// Shared storage.
    pub fn storage(&self) -> &Storage {
        &self.data
    }

    /// Mutable storage, copying if it is shared.
    pub fn make_mut(&mut self) -> &mut Storage {
        Arc::make_mut(&mut self.data)
    }

    /// Consume the tensor and return its storage, cloning if shared.
    pub fn into_storage(self) -> Storage {
        Arc::try_unwrap(self.data).unwrap_or_else(|arc| (*arc).clone())
    }

    /// Typed f32 view of the storage.
    ///
    /// # Errors
    ///
    /// Returns an error if the tensor is not f32.
    pub fn f32_slice(&self) -> Result<&[f32]> {
        self.data.as_slice::<f32>()
    }

    /// Typed u8 view.
    ///
    /// # Errors
    ///
    /// Returns an error if the tensor is not u8.
    pub fn u8_slice(&self) -> Result<&[u8]> {
        self.data.as_slice::<u8>()
    }

    /// Typed i8 view.
    ///
    /// # Errors
    ///
    /// Returns an error if the tensor is not i8.
    pub fn i8_slice(&self) -> Result<&[i8]> {
        self.data.as_slice::<i8>()
    }

    /// Typed i32 view.
    ///
    /// # Errors
    ///
    /// Returns an error if the tensor is not i32.
    pub fn i32_slice(&self) -> Result<&[i32]> {
        self.data.as_slice::<i32>()
    }

    /// Element at logical index `idx` widened to f64, honouring layout.
    pub fn at(&self, idx: &[usize]) -> f64 {
        let off = self.desc.layout().offset_of(self.desc.shape(), idx);
        self.data.get_as_f64(off)
    }

    /// Maximum absolute elementwise difference against `other`.
    ///
    /// Compares *logical* elements, so tensors in different layouts can
    /// be compared directly.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f64 {
        assert_eq!(
            self.desc.shape(),
            other.desc.shape(),
            "max_abs_diff requires equal shapes"
        );
        let mut idx = vec![0usize; self.desc.rank()];
        let n = self.desc.volume();
        let mut worst = 0f64;
        for _ in 0..n {
            let d = (self.at(&idx) - other.at(&idx)).abs();
            if d > worst {
                worst = d;
            }
            // increment mixed-radix index
            for ax in (0..idx.len()).rev() {
                idx[ax] += 1;
                if idx[ax] < self.desc.shape()[ax] {
                    break;
                }
                idx[ax] = 0;
            }
        }
        worst
    }

    /// Whether all logical elements agree with `other` within `tol`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn allclose(&self, other: &Tensor, tol: f64) -> bool {
        self.max_abs_diff(other) <= tol
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({})", self.desc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;

    #[test]
    fn zeros_has_right_volume() {
        let t = Tensor::zeros(&[3, 4], DataType::F32);
        assert_eq!(t.storage().len(), 12);
        assert_eq!(t.desc().size_bytes(), 48);
        assert!(t.f32_slice().unwrap().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec_f32(&[2, 2], vec![1.0; 3]).is_err());
        assert!(Tensor::from_vec_f32(&[2, 2], vec![1.0; 4]).is_ok());
    }

    #[test]
    fn typed_view_wrong_dtype_errors() {
        let t = Tensor::zeros(&[2], DataType::F32);
        assert!(t.i8_slice().is_err());
        let err = t.u8_slice().unwrap_err();
        assert!(matches!(err, TensorError::DtypeMismatch { .. }));
    }

    #[test]
    fn make_mut_copies_on_write() {
        let mut a = Tensor::from_vec_f32(&[2], vec![1.0, 2.0]).unwrap();
        let b = a.clone();
        a.make_mut().as_mut_slice::<f32>().unwrap()[0] = 9.0;
        assert_eq!(a.f32_slice().unwrap()[0], 9.0);
        assert_eq!(b.f32_slice().unwrap()[0], 1.0);
    }

    #[test]
    fn at_honours_blocked_layout() {
        // 4x4 f32 blocked 2x2: storage [2,2,2,2]
        let layout = Layout::blocked_a(2, 2, 2);
        let desc = TensorDesc::with_layout([4, 4], DataType::F32, layout).unwrap();
        let mut data = vec![0f32; 16];
        // logical (1, 2) -> outer (0, 1), inner (1, 0):
        // off = 0*8 + 1*4 + 1*2 + 0 = 6
        data[6] = 42.0;
        let t = Tensor::from_parts(desc, Storage::F32(data)).unwrap();
        assert_eq!(t.at(&[1, 2]), 42.0);
    }

    #[test]
    fn allclose_across_layouts() {
        // same logical content, plain vs blocked
        let plain = Tensor::from_vec_f32(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let layout = Layout::blocked_a(2, 1, 2);
        // blocked 1x2 over [2,2] -> storage [2,1,1,2]; same linear order
        let desc = TensorDesc::with_layout([2, 2], DataType::F32, layout).unwrap();
        let blocked = Tensor::from_parts(desc, Storage::F32(vec![1.0, 2.0, 3.0, 4.0])).unwrap();
        assert!(plain.allclose(&blocked, 0.0));
    }

    #[test]
    fn random_is_deterministic() {
        let a = Tensor::random(&[8], DataType::F32, 7);
        let b = Tensor::random(&[8], DataType::F32, 7);
        assert_eq!(a.f32_slice().unwrap(), b.f32_slice().unwrap());
        let c = Tensor::random(&[8], DataType::F32, 8);
        assert_ne!(a.f32_slice().unwrap(), c.f32_slice().unwrap());
    }

    #[test]
    fn random_ranges() {
        let t = Tensor::random(&[100], DataType::U8, 3);
        assert!(t.u8_slice().unwrap().iter().all(|&x| x < 16));
        let t = Tensor::random(&[100], DataType::I8, 3);
        assert!(t.i8_slice().unwrap().iter().all(|&x| (-8..8).contains(&x)));
    }

    #[test]
    fn scalar_rank0() {
        let t = Tensor::scalar_f32(3.5);
        assert_eq!(t.desc().rank(), 0);
        assert_eq!(t.desc().volume(), 1);
        assert_eq!(t.at(&[]), 3.5);
    }

    #[test]
    fn desc_display() {
        let d = TensorDesc::new([2, 3], DataType::I8);
        assert_eq!(d.to_string(), "i8[2, 3] @plain");
    }

    #[test]
    fn max_abs_diff_detects_difference() {
        let a = Tensor::from_vec_f32(&[3], vec![1.0, 2.0, 3.0]).unwrap();
        let b = Tensor::from_vec_f32(&[3], vec![1.0, 2.5, 3.0]).unwrap();
        assert_eq!(a.max_abs_diff(&b), 0.5);
        assert!(!a.allclose(&b, 0.4));
        assert!(a.allclose(&b, 0.5));
    }
}
