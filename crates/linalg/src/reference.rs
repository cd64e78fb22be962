//! Reference kernels: the original scalar implementations that reduce
//! on **every** multiply-accumulate.
//!
//! These are the pre-optimization code paths, preserved verbatim for two
//! jobs:
//!
//! * the oracle in the fast-vs-naive property tests (the fast kernels
//!   must be bit-for-bit identical to these — field arithmetic is exact,
//!   and the float loops accumulate in the same per-element order), and
//! * the "before" side of the `dk_bench` speedup measurements.
//!
//! Do not use them on hot paths; use the [`mod@crate::matmul`] kernels.

use crate::scalar::Scalar;

/// `C[m×n] += A[m×k] · B[k×n]`, reducing after every product.
///
/// # Panics
///
/// Panics if slice lengths do not match the given dimensions.
pub fn naive_matmul_acc<T: Scalar>(a: &[T], b: &[T], c: &mut [T], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A size");
    assert_eq!(b.len(), k * n, "B size");
    assert_eq!(c.len(), m * n, "C size");
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        for (p, &aip) in arow.iter().enumerate() {
            if aip == T::zero() {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            for (cj, &bj) in crow.iter_mut().zip(brow) {
                *cj += aip * bj;
            }
        }
    }
}

/// `C[m×n] = A[m×k] · B[k×n]`, reducing after every product.
///
/// # Panics
///
/// Panics if slice lengths do not match the given dimensions.
pub fn naive_matmul<T: Scalar>(a: &[T], b: &[T], m: usize, k: usize, n: usize) -> Vec<T> {
    let mut c = vec![T::zero(); m * n];
    naive_matmul_acc(a, b, &mut c, m, k, n);
    c
}

/// `C[m×n] = Aᵀ · B` with `A` stored `k×m`, reducing after every product.
///
/// # Panics
///
/// Panics if slice lengths do not match the given dimensions.
pub fn naive_matmul_at_b<T: Scalar>(a: &[T], b: &[T], m: usize, k: usize, n: usize) -> Vec<T> {
    assert_eq!(a.len(), k * m, "A size");
    assert_eq!(b.len(), k * n, "B size");
    let mut c = vec![T::zero(); m * n];
    for p in 0..k {
        let arow = &a[p * m..(p + 1) * m];
        let brow = &b[p * n..(p + 1) * n];
        for (i, &api) in arow.iter().enumerate() {
            if api == T::zero() {
                continue;
            }
            let crow = &mut c[i * n..(i + 1) * n];
            for (cj, &bj) in crow.iter_mut().zip(brow) {
                *cj += api * bj;
            }
        }
    }
    c
}

/// `C[m×n] = A · Bᵀ` with `B` stored `n×k`, reducing after every product.
///
/// # Panics
///
/// Panics if slice lengths do not match the given dimensions.
pub fn naive_matmul_a_bt<T: Scalar>(a: &[T], b: &[T], m: usize, k: usize, n: usize) -> Vec<T> {
    assert_eq!(a.len(), m * k, "A size");
    assert_eq!(b.len(), n * k, "B size");
    let mut c = vec![T::zero(); m * n];
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = T::zero();
            for (&x, &y) in arow.iter().zip(brow) {
                acc += x * y;
            }
            c[i * n + j] = acc;
        }
    }
    c
}

/// `outs[r] += Σ_p coeff[r·cstride + col0 + p] · x[p]` — the coded
/// combine (coefficient rows against separately stored stacked rows),
/// reducing after every product. Oracle for the streaming
/// [`crate::coded`] kernels: same ascending-`p` order, same zero-skip.
///
/// # Panics
///
/// Panics if row lengths differ or `coeff` is too small.
pub fn naive_coded_combine_acc<T: Scalar, S: AsRef<[T]>>(
    coeff: &[T],
    cstride: usize,
    col0: usize,
    x: &[S],
    outs: &mut [Vec<T>],
) {
    for (r, out) in outs.iter_mut().enumerate() {
        for (p, xr) in x.iter().enumerate() {
            let c = coeff[r * cstride + col0 + p];
            if c == T::zero() {
                continue;
            }
            let xr = xr.as_ref();
            assert_eq!(xr.len(), out.len(), "row length");
            for (o, &v) in out.iter_mut().zip(xr) {
                *o += c * v;
            }
        }
    }
}

/// `y[m] = A[m×k] · x[k]`, reducing after every product.
///
/// # Panics
///
/// Panics if slice lengths do not match the given dimensions.
pub fn naive_matvec<T: Scalar>(a: &[T], x: &[T], m: usize, k: usize) -> Vec<T> {
    assert_eq!(a.len(), m * k, "A size");
    assert_eq!(x.len(), k, "x size");
    (0..m)
        .map(|i| {
            let mut acc = T::zero();
            for (&aij, &xj) in a[i * k..(i + 1) * k].iter().zip(x) {
                acc += aij * xj;
            }
            acc
        })
        .collect()
}
