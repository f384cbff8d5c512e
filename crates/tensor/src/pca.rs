//! Principal component analysis via power iteration with deflation.
//!
//! Used to regenerate the paper's Figure 7: the learned item embeddings
//! (D-dimensional, one set per facet for MAR/MARS) are projected onto their
//! top two principal components and written out as 2-D coordinates, colored
//! by ground-truth category by the harness.
//!
//! Power iteration on the covariance is ample here — we only ever need the
//! top 2 components of a few-thousand × ≤256 matrix, and it keeps the crate
//! dependency-free.

use crate::matrix::Matrix;
use crate::ops;

/// A fitted PCA basis: column means and the top `k` principal directions.
#[derive(Clone, Debug)]
pub struct Pca {
    /// Per-dimension means subtracted before projection.
    mean: Vec<f32>,
    /// `k` unit-norm principal directions, each of length `dim`.
    components: Vec<Vec<f32>>,
    /// Eigenvalue (explained variance) per component, descending.
    explained: Vec<f32>,
}

impl Pca {
    /// Fits the top `k` principal components of `data` (rows = samples).
    ///
    /// `iters` power-iteration rounds per component (50 is plenty for the
    /// well-separated spectra embedding matrices have).
    ///
    /// # Panics
    /// If `data` has no rows or `k == 0` or `k > data.cols()`.
    pub fn fit(data: &Matrix, k: usize, iters: usize) -> Self {
        let (n, d) = data.shape();
        assert!(n > 0, "PCA needs at least one sample");
        assert!(k > 0 && k <= d, "invalid component count {k} for dim {d}");

        // Column means.
        let mut mean = vec![0.0; d];
        for r in 0..n {
            ops::axpy(1.0, data.row(r), &mut mean);
        }
        ops::scale(&mut mean, 1.0 / n as f32);

        // Centered copy.
        let mut centered = data.clone();
        for r in 0..n {
            let row = centered.row_mut(r);
            for (v, m) in row.iter_mut().zip(&mean) {
                *v -= m;
            }
        }

        let mut components: Vec<Vec<f32>> = Vec::with_capacity(k);
        let mut explained = Vec::with_capacity(k);
        let mut proj = vec![0.0; n];
        for comp_idx in 0..k {
            // Deterministic start: axis with largest residual variance.
            let mut v = start_vector(&centered, d);
            let mut eigen = 0.0;
            for _ in 0..iters.max(1) {
                // w = Cᵀ(Cv) / n  (covariance times v, without forming C'C)
                centered.matvec(&v, &mut proj);
                let mut w = vec![0.0; d];
                centered.matvec_t(&proj, &mut w);
                ops::scale(&mut w, 1.0 / n as f32);
                eigen = ops::norm(&w);
                if eigen <= f32::MIN_POSITIVE {
                    break;
                }
                ops::scale(&mut w, 1.0 / eigen);
                v = w;
            }
            // Deflate: remove the found component from every row.
            centered.matvec(&v, &mut proj);
            for r in 0..n {
                let p = proj[r];
                ops::axpy(-p, &v, centered.row_mut(r));
            }
            components.push(v);
            explained.push(eigen);
            let _ = comp_idx;
        }

        Self {
            mean,
            components,
            explained,
        }
    }

    /// Number of fitted components.
    pub fn k(&self) -> usize {
        self.components.len()
    }

    /// Explained variance (eigenvalue) per component, descending.
    // audit:allow(orphan-pub) — test support: PCA's dominant-direction test
    pub fn explained_variance(&self) -> &[f32] {
        &self.explained
    }

    /// Projects one sample onto the fitted components.
    pub fn transform_row(&self, row: &[f32]) -> Vec<f32> {
        assert_eq!(row.len(), self.mean.len(), "PCA: dimension mismatch");
        let centered: Vec<f32> = row.iter().zip(&self.mean).map(|(x, m)| x - m).collect();
        self.components
            .iter()
            .map(|c| ops::dot(c, &centered))
            .collect()
    }

    /// Projects every row of `data`, returning an `n × k` matrix.
    pub fn transform(&self, data: &Matrix) -> Matrix {
        let n = data.rows();
        let mut out = Matrix::zeros(n, self.k());
        for r in 0..n {
            let t = self.transform_row(data.row(r));
            out.row_mut(r).copy_from_slice(&t);
        }
        out
    }
}

/// Picks the coordinate axis with the largest column variance as the initial
/// power-iteration vector — deterministic and never orthogonal to the top
/// component unless that component has zero variance along every axis.
fn start_vector(centered: &Matrix, d: usize) -> Vec<f32> {
    let (n, _) = centered.shape();
    let mut best_axis = 0;
    let mut best_var = -1.0;
    for c in 0..d {
        let mut var = 0.0;
        for r in 0..n {
            let v = centered.get(r, c);
            var += v * v;
        }
        if var > best_var {
            best_var = var;
            best_axis = c;
        }
    }
    let mut v = vec![0.0; d];
    v[best_axis] = 1.0;
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Points stretched along the (1,1) diagonal in 2-D with tiny
    /// perpendicular noise: the first PC must align with the diagonal.
    #[test]
    fn recovers_dominant_direction() {
        let mut rows = Vec::new();
        for i in 0..100 {
            let t = (i as f32 / 50.0) - 1.0; // [-1, 1]
            let noise = if i % 2 == 0 { 0.01 } else { -0.01 };
            rows.extend_from_slice(&[t + noise, t - noise]);
        }
        let data = Matrix::from_vec(100, 2, rows);
        let pca = Pca::fit(&data, 2, 100);
        let c0 = &pca.components[0];
        let diag = [std::f32::consts::FRAC_1_SQRT_2; 2];
        let align = ops::dot(c0, &diag).abs();
        assert!(align > 0.999, "alignment {align}");
        // First component explains far more variance than the second.
        let ev = pca.explained_variance();
        assert!(ev[0] > 10.0 * ev[1], "explained {ev:?}");
    }

    #[test]
    fn components_are_orthonormal() {
        // Random-ish but fixed 3-D data.
        let data = Matrix::from_fn(40, 3, |r, c| {
            let x = (r * 3 + c) as f32;
            (x * 0.37).sin() + 0.2 * (x * 0.11).cos() * c as f32
        });
        let pca = Pca::fit(&data, 3, 200);
        for i in 0..3 {
            assert!((ops::norm(&pca.components[i]) - 1.0).abs() < 1e-3);
            for j in (i + 1)..3 {
                let d = ops::dot(&pca.components[i], &pca.components[j]).abs();
                assert!(d < 1e-2, "components {i},{j} not orthogonal: {d}");
            }
        }
    }

    #[test]
    fn transform_centers_data() {
        let data = Matrix::from_vec(4, 2, vec![1.0, 1.0, 1.0, 3.0, 3.0, 1.0, 3.0, 3.0]);
        let pca = Pca::fit(&data, 2, 50);
        let t = pca.transform(&data);
        // Projections of a centered cloud have zero mean.
        for c in 0..2 {
            let m: f32 = (0..4).map(|r| t.get(r, c)).sum::<f32>() / 4.0;
            assert!(m.abs() < 1e-5, "component {c} mean {m}");
        }
    }

    #[test]
    fn constant_data_yields_zero_projections() {
        let data = Matrix::from_vec(3, 2, vec![5.0; 6]);
        let pca = Pca::fit(&data, 1, 10);
        let t = pca.transform(&data);
        assert!(t.as_slice().iter().all(|v| v.abs() < 1e-5));
    }

    #[test]
    #[should_panic(expected = "invalid component count")]
    fn rejects_too_many_components() {
        let data = Matrix::zeros(3, 2);
        let _ = Pca::fit(&data, 3, 10);
    }
}
