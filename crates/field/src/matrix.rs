//! Dense matrices over a prime field.
//!
//! These matrices carry DarKnight's encoding coefficients: the secret
//! matrix `A` (and its blocks `A1`, `A2`), the public matrix `B`, and the
//! secret diagonal `Γ`. The sizes involved are tiny — proportional to the
//! *virtual batch size* `K` (typically 2–8), never to the model — so a
//! straightforward `O(n^3)` Gauss–Jordan inverse is exactly right
//! (the paper makes the same observation in §4.2, "DarKnight Training
//! Complexity").

use crate::fp::Fp;
use crate::rng::FieldRng;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major matrix over `F_P`.
///
/// # Example
///
/// ```
/// use dk_field::{FieldMatrix, P25, F25};
///
/// let mut m = FieldMatrix::<P25>::zeros(2, 2);
/// m[(0, 0)] = F25::new(2);
/// m[(1, 1)] = F25::new(3);
/// let inv = m.inverse().unwrap();
/// assert_eq!(&m * &inv, FieldMatrix::<P25>::identity(2));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct FieldMatrix<const P: u64> {
    rows: usize,
    cols: usize,
    data: Vec<Fp<P>>,
}

impl<const P: u64> FieldMatrix<P> {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![Fp::ZERO; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Fp::ONE;
        }
        m
    }

    /// Builds a matrix from a row-major element vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Fp<P>>) -> Self {
        assert_eq!(data.len(), rows * cols, "element count must match dimensions");
        Self { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Fp<P>) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Builds a diagonal matrix from the given entries.
    pub fn diagonal(entries: &[Fp<P>]) -> Self {
        let n = entries.len();
        let mut m = Self::zeros(n, n);
        for (i, &e) in entries.iter().enumerate() {
            m[(i, i)] = e;
        }
        m
    }

    /// Samples a matrix with independent uniform entries.
    pub fn random(rows: usize, cols: usize, rng: &mut FieldRng) -> Self {
        Self::from_vec(rows, cols, rng.uniform_vec(rows * cols))
    }

    /// Samples a uniformly random *invertible* square matrix by rejection,
    /// returning it **together with its inverse**.
    ///
    /// The rejection test *is* a full Gauss–Jordan inversion, so throwing
    /// the inverse away (as an earlier revision did) forced every caller
    /// that needed `M⁻¹` to invert twice. For DarKnight's field
    /// (`p ≈ 2^25`) a uniform square matrix is singular with probability
    /// ≈ `1/p`, so this almost never retries.
    pub fn random_invertible(n: usize, rng: &mut FieldRng) -> (Self, Self) {
        loop {
            let m = Self::random(n, n, rng);
            if let Some(inv) = m.inverse() {
                return (m, inv);
            }
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flat row-major access to the elements.
    pub fn as_slice(&self) -> &[Fp<P>] {
        &self.data
    }

    /// Flat row-major mutable access to the elements — for callers that
    /// refill a fixed-shape matrix in place (the per-batch coefficient
    /// regeneration path).
    pub fn as_mut_slice(&mut self) -> &mut [Fp<P>] {
        &mut self.data
    }

    /// A single row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[Fp<P>] {
        assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Extracts the sub-matrix of the given rows and columns (in order).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn submatrix(&self, row_idx: &[usize], col_idx: &[usize]) -> Self {
        Self::from_fn(row_idx.len(), col_idx.len(), |r, c| self[(row_idx[r], col_idx[c])])
    }

    /// Multiplies by a scalar.
    pub fn scale(&self, s: Fp<P>) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| x * s).collect(),
        }
    }

    /// Matrix–vector product `self · v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != cols`.
    pub fn mul_vec(&self, v: &[Fp<P>]) -> Vec<Fp<P>> {
        let mut out = Vec::with_capacity(self.rows);
        self.mul_vec_into(v, &mut out);
        out
    }

    /// [`FieldMatrix::mul_vec`] writing into a caller buffer (cleared
    /// first) — bit-identical results, allocation-free when `out` has
    /// capacity.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != cols`.
    pub fn mul_vec_into(&self, v: &[Fp<P>], out: &mut Vec<Fp<P>>) {
        assert_eq!(v.len(), self.cols, "dimension mismatch in mul_vec");
        out.clear();
        out.extend((0..self.rows).map(|r| {
            self.row(r).iter().zip(v).fold(Fp::ZERO, |acc, (&a, &b)| Fp::mul_add(a, b, acc))
        }));
    }

    /// Gauss–Jordan inverse. Returns `None` if the matrix is singular.
    ///
    /// Pivot normalization is deferred: forward elimination runs
    /// *division-free* (`row_r ← p·row_r − f·row_pivot`), the pivot
    /// values are inverted in one [`Fp::batch_invert`] call, and back
    /// substitution then works against unit pivots. This replaces the
    /// `n` per-pivot Fermat inversions (25+ multiplies each) of the
    /// naive algorithm with a single batched inversion.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn inverse(&self) -> Option<Self> {
        assert_eq!(self.rows, self.cols, "inverse requires a square matrix");
        let n = self.rows;
        let mut inv = Self::zeros(n, n);
        let mut scratch = Self::zeros(n, n);
        self.inverse_into(&mut inv, &mut scratch, &mut Vec::new(), &mut Vec::new())
            .then_some(inv)
    }

    /// Allocation-free variant of [`FieldMatrix::inverse`]: writes the
    /// inverse into `inv`, using `scratch` as the working copy of `self`
    /// and `pivots`/`prefix` as batch-inversion scratch. `inv` and
    /// `scratch` must already have the matrix's dimensions. Returns
    /// `false` (leaving `inv` in an unspecified state) if the matrix is
    /// singular; on success `inv` is bit-identical to what
    /// [`FieldMatrix::inverse`] returns.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or the buffer shapes differ.
    pub fn inverse_into(
        &self,
        inv: &mut Self,
        scratch: &mut Self,
        pivots: &mut Vec<Fp<P>>,
        prefix: &mut Vec<Fp<P>>,
    ) -> bool {
        assert_eq!(self.rows, self.cols, "inverse requires a square matrix");
        assert_eq!((inv.rows, inv.cols), (self.rows, self.cols), "inverse_into: inv shape");
        assert_eq!((scratch.rows, scratch.cols), (self.rows, self.cols), "inverse_into: scratch");
        let n = self.rows;
        let a = scratch;
        a.data.copy_from_slice(&self.data);
        inv.data.fill(Fp::ZERO);
        for i in 0..n {
            inv[(i, i)] = Fp::ONE;
        }
        // Forward pass: division-free elimination below each pivot.
        for col in 0..n {
            let Some(pivot) = (col..n).find(|&r| !a[(r, col)].is_zero()) else {
                return false;
            };
            if pivot != col {
                a.swap_rows(pivot, col);
                inv.swap_rows(pivot, col);
            }
            let p = a[(col, col)];
            for r in col + 1..n {
                let f = a[(r, col)];
                if f.is_zero() {
                    continue;
                }
                for c in 0..n {
                    let ac = a[(col, c)];
                    let ic = inv[(col, c)];
                    a[(r, c)] = Fp::mul_add(p, a[(r, c)], -(f * ac));
                    inv[(r, c)] = Fp::mul_add(p, inv[(r, c)], -(f * ic));
                }
            }
        }
        // One batched inversion of all pivots, then normalize each row.
        pivots.clear();
        pivots.extend((0..n).map(|i| a[(i, i)]));
        Fp::batch_invert_with(pivots, prefix);
        for (r, &pinv) in pivots.iter().enumerate() {
            for c in 0..n {
                a[(r, c)] *= pinv;
                inv[(r, c)] *= pinv;
            }
        }
        // Back substitution against unit pivots: no further inversions.
        for col in (1..n).rev() {
            for r in 0..col {
                let f = a[(r, col)];
                if f.is_zero() {
                    continue;
                }
                for c in 0..n {
                    let ic = inv[(col, c)];
                    inv[(r, c)] -= f * ic;
                }
                a[(r, col)] = Fp::ZERO;
            }
        }
        true
    }

    /// Rank via Gaussian elimination.
    ///
    /// Row scaling never changes rank, so elimination runs division-free
    /// (`row_r ← p·row_r − f·row_pivot`): no pivot inversions at all.
    pub fn rank(&self) -> usize {
        let mut a = self.clone();
        let mut rank = 0;
        let mut row = 0;
        for col in 0..a.cols {
            if row >= a.rows {
                break;
            }
            let Some(pivot) = (row..a.rows).find(|&r| !a[(r, col)].is_zero()) else {
                continue;
            };
            a.swap_rows(pivot, row);
            let p = a[(row, col)];
            for r in row + 1..a.rows {
                let f = a[(r, col)];
                if f.is_zero() {
                    continue;
                }
                for c in col..a.cols {
                    let v = a[(row, c)];
                    a[(r, c)] = Fp::mul_add(p, a[(r, c)], -(f * v));
                }
            }
            rank += 1;
            row += 1;
        }
        rank
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for c in 0..self.cols {
            self.data.swap(a * self.cols + c, b * self.cols + c);
        }
    }
}

impl<const P: u64> Default for FieldMatrix<P> {
    /// An empty `0 × 0` matrix — a placeholder for scratch slots that
    /// are shaped on first use.
    fn default() -> Self {
        Self { rows: 0, cols: 0, data: Vec::new() }
    }
}

impl<const P: u64> Index<(usize, usize)> for FieldMatrix<P> {
    type Output = Fp<P>;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &Fp<P> {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl<const P: u64> IndexMut<(usize, usize)> for FieldMatrix<P> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Fp<P> {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl<const P: u64> Mul for &FieldMatrix<P> {
    type Output = FieldMatrix<P>;

    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    fn mul(self, rhs: Self) -> FieldMatrix<P> {
        assert_eq!(self.cols, rhs.rows, "inner dimension mismatch");
        let mut out = FieldMatrix::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a.is_zero() {
                    continue;
                }
                for c in 0..rhs.cols {
                    out[(r, c)] = Fp::mul_add(a, rhs[(k, c)], out[(r, c)]);
                }
            }
        }
        out
    }
}

impl<const P: u64> Add for &FieldMatrix<P> {
    type Output = FieldMatrix<P>;
    fn add(self, rhs: Self) -> FieldMatrix<P> {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        FieldMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(&a, &b)| a + b).collect(),
        }
    }
}

impl<const P: u64> Sub for &FieldMatrix<P> {
    type Output = FieldMatrix<P>;
    fn sub(self, rhs: Self) -> FieldMatrix<P> {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        FieldMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(&a, &b)| a - b).collect(),
        }
    }
}

impl<const P: u64> fmt::Debug for FieldMatrix<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "FieldMatrix<{P}> {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>10} ", self[(r, c)].value())?;
            }
            if self.cols > 8 {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp::{F25, P25};

    fn rng() -> FieldRng {
        FieldRng::seed_from(0xDA2C)
    }

    #[test]
    fn identity_multiplication() {
        let mut r = rng();
        let m = FieldMatrix::<P25>::random(4, 4, &mut r);
        let i = FieldMatrix::<P25>::identity(4);
        assert_eq!(&m * &i, m);
        assert_eq!(&i * &m, m);
    }

    #[test]
    fn inverse_round_trip() {
        let mut r = rng();
        for n in 1..=8 {
            let (m, inv_cached) = FieldMatrix::<P25>::random_invertible(n, &mut r);
            let inv = m.inverse().unwrap();
            assert_eq!(inv, inv_cached, "cached inverse must equal a fresh inversion, n={n}");
            assert_eq!(&m * &inv, FieldMatrix::identity(n), "n={n}");
            assert_eq!(&inv * &m, FieldMatrix::identity(n), "n={n}");
        }
    }

    #[test]
    fn inverse_of_permuted_diagonal() {
        // Forces row swaps plus the batched pivot normalization.
        let mut m = FieldMatrix::<P25>::zeros(3, 3);
        m[(0, 2)] = F25::new(2);
        m[(1, 0)] = F25::new(3);
        m[(2, 1)] = F25::new(5);
        let inv = m.inverse().unwrap();
        assert_eq!(&m * &inv, FieldMatrix::identity(3));
        assert_eq!(&inv * &m, FieldMatrix::identity(3));
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        let mut m = FieldMatrix::<P25>::zeros(3, 3);
        m[(0, 0)] = F25::ONE;
        m[(1, 1)] = F25::ONE;
        // third row zero -> singular
        assert!(m.inverse().is_none());
        assert_eq!(m.rank(), 2);
    }

    #[test]
    fn duplicate_rows_are_singular() {
        let mut r = rng();
        let mut m = FieldMatrix::<P25>::random(3, 3, &mut r);
        for c in 0..3 {
            let v = m[(0, c)];
            m[(2, c)] = v;
        }
        assert!(m.inverse().is_none());
    }

    #[test]
    fn rank_of_rectangular() {
        let mut r = rng();
        let m = FieldMatrix::<P25>::random(3, 5, &mut r);
        assert_eq!(m.rank(), 3); // random over a huge field: full rank whp
        let t = m.transpose();
        assert_eq!(t.rank(), 3);
    }

    #[test]
    fn mul_vec_matches_matrix_mul() {
        let mut r = rng();
        let m = FieldMatrix::<P25>::random(4, 3, &mut r);
        let v = r.uniform_vec::<P25>(3);
        let as_mat = FieldMatrix::from_vec(3, 1, v.clone());
        let prod = &m * &as_mat;
        let direct = m.mul_vec(&v);
        for i in 0..4 {
            assert_eq!(prod[(i, 0)], direct[i]);
        }
    }

    #[test]
    fn solve_recovers_solution() {
        let mut r = rng();
        let (m, _) = FieldMatrix::<P25>::random_invertible(5, &mut r);
        let x = r.uniform_vec::<P25>(5);
        let b = m.mul_vec(&x);
        assert_eq!(m.inverse().unwrap().mul_vec(&b), x);
    }

    #[test]
    fn transpose_involution() {
        let mut r = rng();
        let m = FieldMatrix::<P25>::random(3, 7, &mut r);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn submatrix_extraction() {
        let m = FieldMatrix::<P25>::from_fn(4, 4, |r, c| F25::new((r * 10 + c) as u64));
        let s = m.submatrix(&[1, 3], &[0, 2]);
        assert_eq!(s[(0, 0)], F25::new(10));
        assert_eq!(s[(0, 1)], F25::new(12));
        assert_eq!(s[(1, 0)], F25::new(30));
        assert_eq!(s[(1, 1)], F25::new(32));
    }

    #[test]
    fn diagonal_matrix() {
        let d = FieldMatrix::<P25>::diagonal(&[F25::new(2), F25::new(3)]);
        assert_eq!(d[(0, 0)], F25::new(2));
        assert_eq!(d[(1, 1)], F25::new(3));
        assert_eq!(d[(0, 1)], F25::ZERO);
    }

    #[test]
    fn add_sub_inverse_ops() {
        let mut r = rng();
        let a = FieldMatrix::<P25>::random(3, 3, &mut r);
        let b = FieldMatrix::<P25>::random(3, 3, &mut r);
        let sum = &a + &b;
        assert_eq!(&sum - &b, a);
    }

    #[test]
    fn mul_assoc() {
        let mut r = rng();
        let a = FieldMatrix::<P25>::random(2, 3, &mut r);
        let b = FieldMatrix::<P25>::random(3, 4, &mut r);
        let c = FieldMatrix::<P25>::random(4, 2, &mut r);
        assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
    }
}
