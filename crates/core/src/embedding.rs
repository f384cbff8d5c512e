//! Flat embedding tables.
//!
//! One contiguous `Vec<f32>` per table (users × dim), sliced per row — no
//! per-row allocation, cache-friendly scans during evaluation, and the rows
//! plug straight into the `mars-tensor` kernels and `mars-optim` steppers.

use mars_tensor::{init, ops};
use rand::Rng;

/// A dense `rows × dim` table of `f32` embeddings.
#[derive(Clone, Debug, PartialEq)]
pub struct EmbeddingTable {
    rows: usize,
    dim: usize,
    data: Vec<f32>,
}

impl EmbeddingTable {
    /// All-zero table.
    pub fn zeros(rows: usize, dim: usize) -> Self {
        Self {
            rows,
            dim,
            data: vec![0.0; rows * dim],
        }
    }

    /// Table initialized `U(−scale, scale)` — the CML/BPR convention.
    pub fn uniform<R: Rng + ?Sized>(rng: &mut R, rows: usize, dim: usize, scale: f32) -> Self {
        let mut t = Self::zeros(rows, dim);
        init::uniform(rng, &mut t.data, scale);
        t
    }

    /// Table with every row drawn uniformly on the unit sphere — the MARS
    /// starting manifold.
    pub fn unit_sphere<R: Rng + ?Sized>(rng: &mut R, rows: usize, dim: usize) -> Self {
        let mut t = Self::zeros(rows, dim);
        for r in 0..rows {
            init::unit_sphere(rng, t.row_mut(r));
        }
        t
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows, "row {r} out of {} rows", self.rows);
        &self.data[r * self.dim..(r + 1) * self.dim]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows, "row {r} out of {} rows", self.rows);
        &mut self.data[r * self.dim..(r + 1) * self.dim]
    }

    /// Flat buffer (row-major).
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat buffer (row-major).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Clips every row into the unit ball (the MAR/CML constraint).
    pub fn clip_rows_to_unit_ball(&mut self) {
        for r in 0..self.rows {
            ops::clip_to_unit_ball(self.row_mut(r));
        }
    }

    /// Largest row norm (diagnostics / invariant checks).
    pub fn max_row_norm(&self) -> f32 {
        (0..self.rows)
            .map(|r| ops::norm(self.row(r)))
            .fold(0.0, f32::max)
    }
}

/// A `rows × (K·dim)` table storing `K` facet embeddings per entity
/// contiguously — facet `k` of row `r` is one slice, so per-facet reads stay
/// within a row's cache lines.
#[derive(Clone, Debug, PartialEq)]
pub struct FacetTable {
    rows: usize,
    facets: usize,
    dim: usize,
    data: Vec<f32>,
}

impl FacetTable {
    /// All-zero facet table.
    pub fn zeros(rows: usize, facets: usize, dim: usize) -> Self {
        Self {
            rows,
            facets,
            dim,
            data: vec![0.0; rows * facets * dim],
        }
    }

    /// Every facet embedding drawn uniformly on the unit sphere.
    pub fn unit_sphere<R: Rng + ?Sized>(
        rng: &mut R,
        rows: usize,
        facets: usize,
        dim: usize,
    ) -> Self {
        let mut t = Self::zeros(rows, facets, dim);
        for r in 0..rows {
            for k in 0..facets {
                init::unit_sphere(rng, t.facet_mut(r, k));
            }
        }
        t
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn facets(&self) -> usize {
        self.facets
    }

    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Facet `k` of entity `r`.
    #[inline]
    pub fn facet(&self, r: usize, k: usize) -> &[f32] {
        debug_assert!(r < self.rows && k < self.facets);
        let start = (r * self.facets + k) * self.dim;
        &self.data[start..start + self.dim]
    }

    /// Mutable facet `k` of entity `r`.
    #[inline]
    pub fn facet_mut(&mut self, r: usize, k: usize) -> &mut [f32] {
        debug_assert!(r < self.rows && k < self.facets);
        let start = (r * self.facets + k) * self.dim;
        &mut self.data[start..start + self.dim]
    }

    /// All `K` facet embeddings of entity `r` as one contiguous
    /// `facets × dim` row block — zero-copy input for the
    /// `mars-tensor::rows` kernels (batched scoring borrows item blocks
    /// straight from the table).
    #[inline]
    pub fn entity(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        let per = self.facets * self.dim;
        &self.data[r * per..(r + 1) * per]
    }

    /// Mutable [`Self::entity`] block — the batched engine steps all `K`
    /// facets of an entity in place with one fused kernel call.
    #[inline]
    pub fn entity_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        let per = self.facets * self.dim;
        &mut self.data[r * per..(r + 1) * per]
    }

    /// Flat buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Clips every facet embedding into the unit ball.
    pub fn clip_to_unit_ball(&mut self) {
        let per = self.dim;
        for chunk in self.data.chunks_exact_mut(per) {
            ops::clip_to_unit_ball(chunk);
        }
    }

    /// Normalizes every facet embedding to the unit sphere.
    pub fn normalize(&mut self) {
        let per = self.dim;
        for chunk in self.data.chunks_exact_mut(per) {
            ops::normalize(chunk);
        }
    }

    /// True iff every facet embedding has unit norm within `tol` — the MARS
    /// invariant asserted after training.
    // audit:allow(orphan-pub) — test support: the MARS unit-sphere invariant tests
    pub fn all_unit(&self, tol: f32) -> bool {
        self.data
            .chunks_exact(self.dim)
            .all(|c| (ops::norm(c) - 1.0).abs() <= tol)
    }

    /// Largest facet-embedding norm.
    pub fn max_norm(&self) -> f32 {
        self.data
            .chunks_exact(self.dim)
            .map(ops::norm)
            .fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn table_rows_are_disjoint() {
        let mut t = EmbeddingTable::zeros(3, 4);
        t.row_mut(1).fill(1.0);
        assert!(t.row(0).iter().all(|&v| v == 0.0));
        assert!(t.row(1).iter().all(|&v| v == 1.0));
        assert!(t.row(2).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn uniform_init_bounds() {
        let t = EmbeddingTable::uniform(&mut StdRng::seed_from_u64(1), 10, 8, 0.1);
        assert!(t.as_slice().iter().all(|v| v.abs() <= 0.1));
    }

    #[test]
    fn unit_sphere_rows_are_unit() {
        let t = EmbeddingTable::unit_sphere(&mut StdRng::seed_from_u64(2), 20, 6);
        assert!((0..20).all(|r| (ops::norm(t.row(r)) - 1.0).abs() <= 1e-5));
    }

    #[test]
    fn normalize_then_clip_idempotent() {
        let mut t = EmbeddingTable::uniform(&mut StdRng::seed_from_u64(3), 5, 4, 3.0);
        for r in 0..5 {
            ops::normalize(t.row_mut(r));
        }
        let before = t.clone();
        t.clip_rows_to_unit_ball();
        for r in 0..5 {
            for (a, b) in t.row(r).iter().zip(before.row(r)) {
                assert!((a - b).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn max_row_norm_tracks_largest() {
        let mut t = EmbeddingTable::zeros(2, 2);
        t.row_mut(0).copy_from_slice(&[3.0, 4.0]);
        t.row_mut(1).copy_from_slice(&[0.1, 0.0]);
        assert!((t.max_row_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn facet_table_layout() {
        let mut t = FacetTable::zeros(2, 3, 2);
        t.facet_mut(1, 2).copy_from_slice(&[7.0, 8.0]);
        assert_eq!(t.facet(1, 2), &[7.0, 8.0]);
        assert_eq!(t.facet(1, 1), &[0.0, 0.0]);
        assert_eq!(t.facet(0, 2), &[0.0, 0.0]);
        // Flat layout: row 1, facet 2 lives at the tail.
        assert_eq!(&t.as_slice()[10..12], &[7.0, 8.0]);
    }

    #[test]
    fn facet_unit_sphere_and_invariant() {
        let t = FacetTable::unit_sphere(&mut StdRng::seed_from_u64(4), 6, 4, 8);
        assert!(t.all_unit(1e-5));
        assert!((t.max_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn facet_clip_and_normalize() {
        let mut t = FacetTable::zeros(1, 2, 2);
        t.facet_mut(0, 0).copy_from_slice(&[3.0, 4.0]);
        t.facet_mut(0, 1).copy_from_slice(&[0.3, 0.4]);
        let mut clipped = t.clone();
        clipped.clip_to_unit_ball();
        assert!((mars_tensor::ops::norm(clipped.facet(0, 0)) - 1.0).abs() < 1e-6);
        assert_eq!(clipped.facet(0, 1), &[0.3, 0.4]);
        t.normalize();
        assert!(t.all_unit(1e-5));
    }
}
