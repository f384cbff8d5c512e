//! Row-major dense `f32` matrix.
//!
//! [`Matrix`] backs the facet projection matrices `Φ_k`, `Ψ_k` (D×D) that
//! seed the MAR / MARS initialization, the MLP weights inside NeuMF / LRML,
//! and the relation memories of LRML. It is a single flat `Vec<f32>` plus
//! shape; rows are contiguous so `row(i)` returns a plain slice that the
//! [`crate::ops`] kernels accept directly.

use crate::ops;

/// Dense row-major matrix of `f32`.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// All-zeros matrix of shape `rows × cols`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow of the flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable borrow of the flat row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// `y = A x` (matrix–vector product). `x.len() == cols`, `y.len() == rows`.
    pub fn matvec(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "matvec: x has wrong length");
        assert_eq!(y.len(), self.rows, "matvec: y has wrong length");
        for (r, yr) in y.iter_mut().enumerate() {
            *yr = ops::dot(self.row(r), x);
        }
    }

    /// `y = Aᵀ x` (transposed matrix–vector product).
    /// `x.len() == rows`, `y.len() == cols`.
    ///
    /// This is the projection used in Eq. 1–2 of the paper: a facet-specific
    /// embedding is `u^k = φ_kᵀ u` (the paper writes the row vector `uᵀ φ_k`).
    pub fn matvec_t(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.rows, "matvec_t: x has wrong length");
        assert_eq!(y.len(), self.cols, "matvec_t: y has wrong length");
        y.fill(0.0);
        for (r, &xr) in x.iter().enumerate() {
            if xr != 0.0 {
                ops::axpy(xr, self.row(r), y);
            }
        }
    }

    /// Rank-1 update `A ← A + alpha · x yᵀ` (BLAS `ger`).
    ///
    /// Used for outer-product accumulation: NMF's Gram matrices and the MLP
    /// weight gradient `δ ⊗ input`.
    pub fn ger(&mut self, alpha: f32, x: &[f32], y: &[f32]) {
        assert_eq!(x.len(), self.rows, "ger: x has wrong length");
        assert_eq!(y.len(), self.cols, "ger: y has wrong length");
        for (r, &xr) in x.iter().enumerate() {
            if xr != 0.0 {
                ops::axpy(alpha * xr, y, self.row_mut(r));
            }
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        // [[1, 2], [3, 4], [5, 6]]
        Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    }

    #[test]
    fn shape_accessors() {
        let m = sample();
        assert_eq!(m.shape(), (3, 2));
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.get(2, 0), 5.0);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_checks_shape() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let m = sample();
        let mut y = vec![0.0; 3];
        m.matvec(&[1.0, -1.0], &mut y);
        assert_eq!(y, vec![-1.0, -1.0, -1.0]);
    }

    #[test]
    fn matvec_t_matches_hand_computation() {
        let m = sample();
        let mut y = vec![0.0; 2];
        m.matvec_t(&[1.0, 0.0, -1.0], &mut y);
        assert_eq!(y, vec![-4.0, -4.0]);
    }

    #[test]
    fn matvec_t_equals_transpose_matvec() {
        let m = sample();
        let t = m.transpose();
        let x = [0.5, -1.5, 2.0];
        let mut a = vec![0.0; 2];
        let mut b = vec![0.0; 2];
        m.matvec_t(&x, &mut a);
        t.matvec(&x, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn ger_rank1_update() {
        let mut m = Matrix::zeros(2, 3);
        m.ger(2.0, &[1.0, -1.0], &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(0), &[2.0, 4.0, 6.0]);
        assert_eq!(m.row(1), &[-2.0, -4.0, -6.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }
}
