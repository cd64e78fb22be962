//! A minimal dense N-dimensional tensor.
//!
//! Row-major (C order) storage; convolutional data uses the NCHW layout.
//! The type is deliberately simple — contiguous `Vec<T>` plus a shape —
//! because every heavy kernel in this workspace operates on flat slices
//! with explicit index math, which is both fast and easy to audit.

use crate::scalar::Scalar;
use std::fmt;

/// A dense, row-major N-dimensional tensor.
///
/// # Example
///
/// ```
/// use dk_linalg::Tensor;
///
/// let mut t = Tensor::<f32>::zeros(&[2, 3]);
/// t.set(&[1, 2], 5.0);
/// assert_eq!(t.get(&[1, 2]), 5.0);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor<T> {
    shape: Vec<usize>,
    data: Vec<T>,
}

/// The moved-from shell `std::mem::take` leaves behind: no shape, no
/// elements (`len() == 0`), no heap memory. Positional result sets use
/// it to mark a slot whose buffers were handed elsewhere; recycling one
/// into a [`crate::Workspace`] is a no-op. Not a value to compute on.
impl<T> Default for Tensor<T> {
    fn default() -> Self {
        Self { shape: Vec::new(), data: Vec::new() }
    }
}

impl<T: Scalar> Tensor<T> {
    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let n = shape.iter().product();
        Self { shape: shape.to_vec(), data: vec![T::zero(); n] }
    }

    /// Creates a tensor of ones with the given shape.
    pub fn ones(shape: &[usize]) -> Self {
        let n = shape.iter().product();
        Self { shape: shape.to_vec(), data: vec![T::one(); n] }
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the shape volume.
    pub fn from_vec(shape: &[usize], data: Vec<T>) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(data.len(), n, "buffer length {} != shape volume {}", data.len(), n);
        Self { shape: shape.to_vec(), data }
    }

    /// Builds a tensor by evaluating `f` at each flat index.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(usize) -> T) -> Self {
        let n: usize = shape.iter().product();
        Self { shape: shape.to_vec(), data: (0..n).map(&mut f).collect() }
    }

    /// Assembles a tensor from an owned shape vector and data buffer —
    /// the allocation-free construction the
    /// [`crate::workspace::Workspace`] recycling path uses (both vectors
    /// typically come out of a pool).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the shape volume.
    pub fn from_parts(shape: Vec<usize>, data: Vec<T>) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(data.len(), n, "buffer length {} != shape volume {}", data.len(), n);
        Self { shape, data }
    }

    /// Disassembles the tensor into its shape vector and data buffer so
    /// both can be returned to a buffer pool.
    pub fn into_parts(self) -> (Vec<usize>, Vec<T>) {
        (self.shape, self.data)
    }

    /// The shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Flat immutable view of the elements.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Flat mutable view of the elements.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Converts a multi-index to the flat offset.
    ///
    /// # Panics
    ///
    /// Panics if `idx` has the wrong arity or is out of bounds.
    #[inline]
    pub fn offset(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.shape.len(), "index arity mismatch");
        let mut off = 0;
        for (d, (&i, &s)) in idx.iter().zip(&self.shape).enumerate() {
            assert!(i < s, "index {i} out of bounds for dim {d} (size {s})");
            off = off * s + i;
        }
        off
    }

    /// Element access by multi-index.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access.
    #[inline]
    pub fn get(&self, idx: &[usize]) -> T {
        self.data[self.offset(idx)]
    }

    /// Element assignment by multi-index.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access.
    #[inline]
    pub fn set(&mut self, idx: &[usize], v: T) {
        let off = self.offset(idx);
        self.data[off] = v;
    }

    /// Returns a copy with a new shape of equal volume.
    ///
    /// # Panics
    ///
    /// Panics if the volumes differ.
    pub fn reshape(&self, shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(n, self.data.len(), "reshape volume mismatch");
        Self { shape: shape.to_vec(), data: self.data.clone() }
    }

    /// Applies `f` elementwise, producing a new tensor (possibly of a
    /// different element type).
    pub fn map<U: Scalar>(&self, f: impl Fn(T) -> U) -> Tensor<U> {
        Tensor { shape: self.shape.clone(), data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Combines two equally-shaped tensors elementwise.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip_map(&self, other: &Self, f: impl Fn(T, T) -> T) -> Self {
        assert_eq!(self.shape, other.shape, "zip_map shape mismatch");
        Self {
            shape: self.shape.clone(),
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// In-place elementwise addition.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Self) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Elementwise sum of two tensors.
    pub fn add(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a + b)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: T) -> Self {
        self.map(|x| x * s)
    }

    /// The contiguous sub-tensor for batch item `n` of an NCHW (or any
    /// leading-batch-dim) tensor, as a flat slice.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has no dimensions or `n` exceeds dim 0.
    pub fn batch_item(&self, n: usize) -> &[T] {
        assert!(!self.shape.is_empty() && n < self.shape[0]);
        let stride: usize = self.shape[1..].iter().product();
        &self.data[n * stride..(n + 1) * stride]
    }

    /// Mutable variant of [`Tensor::batch_item`].
    ///
    /// # Panics
    ///
    /// Panics if the tensor has no dimensions or `n` exceeds dim 0.
    pub fn batch_item_mut(&mut self, n: usize) -> &mut [T] {
        assert!(!self.shape.is_empty() && n < self.shape[0]);
        let stride: usize = self.shape[1..].iter().product();
        &mut self.data[n * stride..(n + 1) * stride]
    }
}

/// Flat-slice view, so APIs generic over `AsRef<[T]>` (e.g. the decode
/// paths) accept `Vec<T>` and `Tensor<T>` rows interchangeably.
impl<T> AsRef<[T]> for Tensor<T> {
    fn as_ref(&self) -> &[T] {
        &self.data
    }
}

impl Tensor<f32> {
    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Maximum absolute value (0 for an empty tensor).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0, |m, &v| m.max(v.abs()))
    }

    /// Mean of all elements.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn mean(&self) -> f32 {
        assert!(!self.data.is_empty());
        self.sum() / self.data.len() as f32
    }

    /// Largest elementwise absolute difference against `other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Self) -> f32 {
        assert_eq!(self.shape, other.shape);
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0f32, |m, (&a, &b)| m.max((a - b).abs()))
    }
}

impl<T: Scalar> fmt::Debug for Tensor<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?} ", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, "{:?}", self.data)
        } else {
            write!(f, "[{:?}, {:?}, ... ({} elems)]", self.data[0], self.data[1], self.data.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_field::F25;

    #[test]
    fn zeros_and_ones() {
        let z = Tensor::<f32>::zeros(&[2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let o = Tensor::<F25>::ones(&[4]);
        assert!(o.as_slice().iter().all(|&v| v == F25::ONE));
    }

    #[test]
    fn multi_index_round_trip() {
        let mut t = Tensor::<f32>::zeros(&[2, 3, 4]);
        t.set(&[1, 2, 3], 7.0);
        assert_eq!(t.get(&[1, 2, 3]), 7.0);
        assert_eq!(t.offset(&[1, 2, 3]), 12 + 2 * 4 + 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let t = Tensor::<f32>::zeros(&[2, 2]);
        let _ = t.get(&[0, 2]);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn wrong_arity_panics() {
        let t = Tensor::<f32>::zeros(&[2, 2]);
        let _ = t.get(&[0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::<f32>::from_fn(&[2, 6], |i| i as f32);
        let r = t.reshape(&[3, 4]);
        assert_eq!(r.as_slice(), t.as_slice());
        assert_eq!(r.shape(), &[3, 4]);
    }

    #[test]
    #[should_panic(expected = "volume")]
    fn reshape_volume_mismatch() {
        let t = Tensor::<f32>::zeros(&[2, 2]);
        let _ = t.reshape(&[5]);
    }

    #[test]
    fn map_changes_domain() {
        let t = Tensor::<f32>::from_vec(&[3], vec![1.0, 2.0, 3.0]);
        let q: Tensor<F25> = t.map(|v| F25::new(v as u64));
        assert_eq!(q.get(&[1]), F25::new(2));
    }

    #[test]
    fn add_and_scale() {
        let a = Tensor::<f32>::from_vec(&[2], vec![1.0, 2.0]);
        let b = Tensor::<f32>::from_vec(&[2], vec![10.0, 20.0]);
        assert_eq!(a.add(&b).as_slice(), &[11.0, 22.0]);
        assert_eq!(a.scale(3.0).as_slice(), &[3.0, 6.0]);
    }

    #[test]
    fn batch_item_slicing() {
        let t = Tensor::<f32>::from_fn(&[2, 3], |i| i as f32);
        assert_eq!(t.batch_item(0), &[0.0, 1.0, 2.0]);
        assert_eq!(t.batch_item(1), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn float_stats() {
        let t = Tensor::<f32>::from_vec(&[4], vec![1.0, -3.0, 2.0, 0.0]);
        assert_eq!(t.sum(), 0.0);
        assert_eq!(t.max_abs(), 3.0);
        assert_eq!(t.mean(), 0.0);
        let u = Tensor::<f32>::from_vec(&[4], vec![1.0, -3.0, 2.5, 0.0]);
        assert!((t.max_abs_diff(&u) - 0.5).abs() < 1e-6);
    }
}
