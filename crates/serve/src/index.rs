//! Opt-in IVF (inverted-file) index: sublinear approximate retrieval.
//!
//! The exact engine ([`crate::rank_into`]) scores the *whole* catalogue per
//! query — O(n·K·D) no matter how large the catalogue grows. This module
//! trades a bounded amount of recall for sublinear scans: item embeddings
//! are partitioned **per facet** into `c ≈ √n` cells with
//! `mars-tensor::kmeans` (k-means++ seeded from a `CounterRng` — the cell
//! layout is a pure function of `(embeddings, IvfConfig)`), each cell's
//! vectors are stored as one contiguous block, and a query only scans the
//! blocks of the `nprobe` cells whose centroids rank best per facet —
//! `nprobe/c` of the catalogue instead of all of it.
//!
//! The K facet spaces are independent (MARS compares a user and an item
//! only within each facet), so [`IvfIndex::build`] clusters them in
//! parallel on up to `min(K, nproc)` threads. Each facet's k-means,
//! assignment and store read only that facet's vectors and seed, and the
//! partitions are kept in facet order: the layout is bit-identical at any
//! thread count.
//!
//! ## The two probe modes
//!
//! * [`IvfMode::ExactRescore`] (default) — the index is a **candidate
//!   selector**: the union of the probed cells' members (deduplicated with
//!   an epoch-stamp, seen-filtered) is scored through the model's own
//!   [`Scorer::score_block`] and the shared bounded heap. Returned scores
//!   are the model's scores, bit-identical to what the exact scan assigns
//!   those items; only *membership* of the top k is approximate. At
//!   `nprobe == cells` every item is a candidate (each facet's cells
//!   partition the catalogue), so the result is **bit-identical to the
//!   exact scan** — the equivalence tests pin this.
//! * [`IvfMode::Coarse`] — cell blocks are scored directly with the
//!   `mars-tensor::simd` row kernels (`f32`, or int8 with one scale per
//!   `(facet, cell)` block via [`CellStore::Int8`]), accumulating
//!   `Σ_f w_f · m(q_f, x_f)` across facets. With `refine > 0` the top
//!   `k·refine` coarse candidates are exactly rescored, so final scores
//!   are again the model's own.
//!
//! ## What stays inside the determinism contract
//!
//! Queries through the index remain deterministic: cell ranking and the
//! final ordering use [`rank_cmp`]'s total order, so hostile scores
//! (NaN/±∞/ties) degrade exactly as in the exact engine — NaN ranks last,
//! never panics or reorders. The exact scan stays the default; the index
//! is opt-in per [`crate::Retriever`] via
//! [`Retriever::with_index`](crate::Retriever::with_index), and
//! candidate-restricted queries ([`RecQuery::among`](crate::RecQuery))
//! always bypass it (the shortlist is already sublinear).

use crate::order::rank_cmp;
use crate::query::RecQuery;
use crate::retriever::RetrievalScratch;
use crate::topk;
use mars_data::{ItemId, UserId};
use mars_metrics::Scorer;
use mars_runtime::{chunk_ranges, resolve_threads, WorkerPool};
use mars_tensor::{kmeans, rows, simd, Matrix};

/// Geometry of the per-facet coarse similarity `m(q, x)` — the metric the
/// index ranks centroids and (in [`IvfMode::Coarse`]) items under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexMetric {
    /// `m(q, x) = q·x` (MARS: cosine over pre-normalized index vectors).
    InnerProduct,
    /// `m(q, x) = −‖q−x‖²` (MAR's Euclidean facets).
    NegSquaredL2,
}

/// How cell blocks are stored.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CellStore {
    /// Full-precision rows — coarse scores are plain f32 kernel output.
    #[default]
    F32,
    /// One `i8` code per component with a single scale per `(facet, cell)`
    /// block (`scale = max|x| / 127`): 4× smaller blocks, scanned by the
    /// exact-across-tiers `mars-tensor::simd` int8 kernels.
    Int8,
}

/// How probed cells turn into a ranked answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum IvfMode {
    /// Probed cells only *select candidates*; the model's own
    /// [`Scorer::score_block`] assigns every returned score.
    #[default]
    ExactRescore,
    /// Rank by the coarse block scores. `refine == 0` returns them as-is;
    /// `refine ≥ 1` exactly rescores the top `k·refine` coarse candidates.
    Coarse {
        /// Exact-rescore multiplier (0 disables the rescore pass).
        refine: usize,
    },
}

/// Build- and probe-time configuration of an [`IvfIndex`].
#[derive(Clone, Copy, Debug)]
pub struct IvfConfig {
    /// Cells per facet; `0` ⇒ `⌈√n⌉` (the classic IVF operating point).
    pub cells: usize,
    /// Cells probed per facet per query (≥ 1; `cells` ⇒ exhaustive).
    pub nprobe: usize,
    /// Lloyd iteration cap for the per-facet k-means (≥ 1).
    pub max_iters: usize,
    /// Rows the k-means trains on: catalogues larger than this are
    /// deterministically strided down to `train_sample` rows before
    /// clustering (every item is still assigned to a cell). `0` ⇒ train on
    /// everything.
    pub train_sample: usize,
    /// Seed of the k-means++ seeding stream; facet `f` clusters under
    /// `seed + f` so facets decorrelate.
    pub seed: u64,
    pub store: CellStore,
    pub mode: IvfMode,
}

impl Default for IvfConfig {
    fn default() -> Self {
        Self {
            cells: 0,
            nprobe: 8,
            max_iters: 10,
            train_sample: 32_768,
            seed: 0,
            store: CellStore::F32,
            mode: IvfMode::ExactRescore,
        }
    }
}

/// What a model must expose for the index to embed its items: per-facet
/// vectors on both sides plus a facet weight, such that
/// `Σ_f w_f · m(q_f, x_f)` (with `m` = [`IndexMetric`]) approximates —
/// ideally equals — [`Scorer::score`]. MARS models expose *normalized*
/// facet embeddings under [`IndexMetric::InnerProduct`] (cosine becomes a
/// dot product), MAR models raw facets under [`IndexMetric::NegSquaredL2`].
///
/// The vectors must be pure functions of the frozen model — the index is a
/// snapshot; rebuild it when parameters change.
pub trait IndexEmbeddings: Scorer {
    /// Facet count K of the index layout.
    fn num_index_facets(&self) -> usize;
    /// Per-facet vector dimension D.
    fn index_dim(&self) -> usize;
    /// Coarse similarity the facet spaces use.
    fn index_metric(&self) -> IndexMetric;
    /// Writes item `v`'s facet-`f` index vector into `out` (length D).
    fn item_index_vector(&self, v: ItemId, f: usize, out: &mut [f32]);
    /// Writes the query-side facet-`f` vector for `user` into `out` and
    /// returns its weight `w_f` in the coarse score.
    fn query_index_vector(&self, user: UserId, f: usize, out: &mut [f32]) -> f32;
}

/// One facet's partition: centroids, cell membership (CSR layout), and the
/// cell-blocked vector store.
#[derive(Clone, Debug)]
struct FacetIndex {
    /// `cells × dim`, row-major.
    centroids: Vec<f32>,
    /// CSR offsets into `cell_items` / the store (`cells + 1` entries).
    cell_start: Vec<usize>,
    /// Item ids grouped by cell, ascending id within each cell.
    cell_items: Vec<ItemId>,
    store: FacetStore,
}

#[derive(Clone, Debug)]
enum FacetStore {
    /// `n × dim` rows in `cell_items` order.
    F32(Vec<f32>),
    /// Same layout quantized: `codes[j·D..]` is row `j`, `scales[c]` the
    /// shared dequantization scale of cell `c`'s block.
    Int8 { codes: Vec<i8>, scales: Vec<f32> },
}

impl FacetIndex {
    /// Facet `f`'s partition of the first `n` items into `cells` cells,
    /// clustered on a stride sample of `train_n` rows.
    fn build<S: IndexEmbeddings + ?Sized>(
        model: &S,
        f: usize,
        n: usize,
        cells: usize,
        train_n: usize,
        cfg: &IvfConfig,
    ) -> Self {
        let dim = model.index_dim();
        // Gather this facet's item vectors into one n × D matrix.
        let mut all = Matrix::zeros(n, dim);
        for v in 0..n {
            model.item_index_vector(v as ItemId, f, all.row_mut(v));
        }

        // Cluster (on a deterministic stride subsample when the catalogue
        // is large), then assign *every* item.
        let sample = (train_n < n).then(|| {
            let mut buf = Vec::with_capacity(train_n * dim);
            for i in 0..train_n {
                buf.extend_from_slice(all.row(i * n / train_n));
            }
            Matrix::from_vec(train_n, dim, buf)
        });
        let km = kmeans::kmeans(
            sample.as_ref().unwrap_or(&all),
            cells,
            cfg.max_iters.max(1),
            cfg.seed.wrapping_add(f as u64),
        );
        let centroids = km.centroids.as_slice();
        let mut dists = vec![0.0f32; cells];
        let assign: Vec<usize> = (0..n)
            .map(|v| kmeans::nearest(all.row(v), centroids, &mut dists))
            .collect();

        // CSR membership, counting-sorted so each cell lists its items in
        // ascending id order.
        let mut cell_start = vec![0usize; cells + 1];
        for &c in &assign {
            cell_start[c + 1] += 1;
        }
        for c in 0..cells {
            cell_start[c + 1] += cell_start[c];
        }
        let mut next = cell_start[..cells].to_vec();
        let mut cell_items = vec![0 as ItemId; n];
        for (v, &c) in assign.iter().enumerate() {
            cell_items[next[c]] = v as ItemId;
            next[c] += 1;
        }

        // Re-lay the vectors into contiguous cell blocks.
        let store = match cfg.store {
            CellStore::F32 => {
                let mut data = vec![0.0f32; n * dim];
                for (j, &v) in cell_items.iter().enumerate() {
                    rows::row_mut(&mut data, dim, j).copy_from_slice(all.row(v as usize));
                }
                FacetStore::F32(data)
            }
            CellStore::Int8 => {
                let mut codes = vec![0i8; n * dim];
                let mut scales = vec![0.0f32; cells];
                for c in 0..cells {
                    let (s0, e0) = (cell_start[c], cell_start[c + 1]);
                    let max_abs = cell_items[s0..e0]
                        .iter()
                        .flat_map(|&v| all.row(v as usize))
                        .fold(0.0f32, |a, &x| a.max(x.abs()));
                    let scale = max_abs / 127.0;
                    scales[c] = scale;
                    if scale > 0.0 && scale.is_finite() {
                        for (j, &v) in cell_items[s0..e0].iter().enumerate() {
                            let dst = &mut codes[(s0 + j) * dim..(s0 + j + 1) * dim];
                            for (q, &x) in dst.iter_mut().zip(all.row(v as usize)) {
                                // Saturating float→int cast clamps (and
                                // maps NaN to 0).
                                *q = (x / scale).round() as i8;
                            }
                        }
                    }
                }
                FacetStore::Int8 { codes, scales }
            }
        };

        Self {
            centroids: centroids.to_vec(),
            cell_start,
            cell_items,
            store,
        }
    }

    #[inline]
    fn cells(&self) -> usize {
        self.cell_start.len() - 1
    }

    #[inline]
    fn cell_bounds(&self, c: usize) -> (usize, usize) {
        (self.cell_start[c], self.cell_start[c + 1])
    }

    /// Ranks every centroid against `q` under `metric` into `crank`
    /// (best first, [`rank_cmp`]'s total order — NaN centroids rank last)
    /// and returns how many cells to probe.
    fn rank_cells(
        &self,
        metric: IndexMetric,
        q: &[f32],
        nprobe: usize,
        cscores: &mut Vec<f32>,
        crank: &mut Vec<(ItemId, f32)>,
    ) -> usize {
        let cells = self.cells();
        cscores.resize(cells, 0.0);
        match metric {
            IndexMetric::InnerProduct => simd::dot_one_rows(q, &self.centroids, cscores),
            IndexMetric::NegSquaredL2 => {
                simd::dist_sq_one_rows(q, &self.centroids, cscores);
                for s in cscores.iter_mut() {
                    *s = -*s;
                }
            }
        }
        crank.clear();
        crank.extend(cscores.iter().enumerate().map(|(c, &s)| (c as ItemId, s)));
        crank.sort_unstable_by(|&a, &b| rank_cmp(a, b));
        nprobe.min(cells)
    }
}

/// The per-facet clustered index over one frozen model snapshot.
///
/// Build once per snapshot with [`IvfIndex::build`]; probe-time knobs
/// (`nprobe`, `mode`) can be re-tuned per retriever without re-clustering
/// ([`Retriever::with_probe`](crate::Retriever::with_probe)) — the
/// benchmark's nprobe sweep shares one build.
#[derive(Clone, Debug)]
pub struct IvfIndex {
    facets: usize,
    dim: usize,
    items: usize,
    metric: IndexMetric,
    nprobe: usize,
    mode: IvfMode,
    per_facet: Vec<FacetIndex>,
}

impl IvfIndex {
    /// Clusters `model`'s item index vectors into a per-facet IVF layout.
    ///
    /// Deterministic: the cell layout is a pure function of the embeddings
    /// and `cfg` (k-means++ seeding is counter-keyed on `cfg.seed + f`, the
    /// training subsample is a fixed stride, and within-cell item order is
    /// ascending id). Non-finite embedding values never panic — they can
    /// only make the affected cells rank like any other hostile score.
    ///
    /// The K facets are clustered in parallel, on up to `min(K, nproc)`
    /// threads of a [`WorkerPool`] that lives for this call (one thread
    /// spawns nothing). Each facet's partition reads only that facet's
    /// vectors and seed, and the partitions are concatenated in facet
    /// order, so the layout is bit-identical at every thread count. A panic
    /// in `model` is re-raised here once every other facet has finished.
    ///
    /// # Panics
    /// If `catalog_items == 0` or the model reports zero facets/dim.
    pub fn build<S: IndexEmbeddings + Sync + ?Sized>(
        model: &S,
        catalog_items: usize,
        cfg: IvfConfig,
    ) -> Self {
        let threads = resolve_threads(0).min(model.num_index_facets());
        Self::build_on(model, catalog_items, cfg, threads)
    }

    /// [`Self::build`] on `threads` threads (min 1, at most one per facet).
    fn build_on<S: IndexEmbeddings + Sync + ?Sized>(
        model: &S,
        catalog_items: usize,
        cfg: IvfConfig,
        threads: usize,
    ) -> Self {
        let n = catalog_items;
        let facets = model.num_index_facets();
        let dim = model.index_dim();
        assert!(n > 0, "IVF index needs a non-empty catalogue");
        assert!(facets > 0 && dim > 0, "IVF index needs facets ≥ 1, dim ≥ 1");

        let train_n = if cfg.train_sample > 0 {
            n.min(cfg.train_sample)
        } else {
            n
        };
        let cells = if cfg.cells == 0 {
            ((n as f64).sqrt().ceil() as usize).max(1)
        } else {
            cfg.cells
        }
        .min(train_n);

        let pool = WorkerPool::new(threads.min(facets));
        let mut shards = chunk_ranges(facets, pool.workers());
        let per_facet = pool
            .scatter(&mut shards, |_, fs| {
                fs.clone()
                    .map(|f| FacetIndex::build(model, f, n, cells, train_n, &cfg))
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();

        Self {
            facets,
            dim,
            items: n,
            metric: model.index_metric(),
            nprobe: cfg.nprobe.max(1),
            mode: cfg.mode,
            per_facet,
        }
    }

    /// Cells per facet.
    pub fn cells(&self) -> usize {
        self.per_facet[0].cells()
    }

    /// Cells probed per facet per query.
    pub fn nprobe(&self) -> usize {
        self.nprobe
    }

    /// Probe mode in use.
    pub fn mode(&self) -> IvfMode {
        self.mode
    }

    /// Facet count of the layout.
    pub fn facets(&self) -> usize {
        self.facets
    }

    /// Per-facet vector dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Catalogue size the index was built over.
    pub fn items(&self) -> usize {
        self.items
    }
}

/// Reusable buffers for the IVF probe path, embedded in
/// [`RetrievalScratch`] — steady-state IVF queries allocate nothing.
#[derive(Default)]
pub struct IvfScratch {
    /// Query-side facet vector (D).
    q: Vec<f32>,
    /// Quantized query (int8 stores).
    qcodes: Vec<i8>,
    /// Centroid scores (cells).
    cscores: Vec<f32>,
    /// Cells ranked best-first.
    crank: Vec<(ItemId, f32)>,
    /// Int8 kernel output for one cell block.
    iscores: Vec<i32>,
    /// F32 kernel output for one cell block.
    fscores: Vec<f32>,
    /// Epoch stamps (catalogue-sized) — `stamp[v] == epoch` ⇔ item `v`
    /// was touched by the current query.
    stamp: Vec<u64>,
    epoch: u64,
    /// Coarse score accumulator (catalogue-sized, epoch-validated).
    acc: Vec<f32>,
    /// Items touched by the current query.
    touched: Vec<ItemId>,
    /// Candidate list handed to the exact rescore.
    cand: Vec<ItemId>,
}

impl IvfScratch {
    fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.acc.resize(n, 0.0);
        }
        self.epoch += 1;
        self.touched.clear();
        self.cand.clear();
    }
}

/// Serves one query through the index. Monomorphized per scorer and stored
/// as a plain `fn` pointer inside the [`Retriever`](crate::Retriever), so
/// the generic `S: Scorer` retrieval surface can route through it without
/// widening its own bounds.
///
/// `nprobe` / `mode` are parameters (not read off the index) so several
/// retrievers — e.g. the rungs of a serving degradation ladder — can probe
/// one shared index at different fidelity without cloning its stores.
#[allow(clippy::too_many_arguments)]
pub(crate) fn ivf_search<S: IndexEmbeddings + ?Sized>(
    model: &S,
    index: &IvfIndex,
    nprobe: usize,
    mode: IvfMode,
    chunk_items: usize,
    query: &RecQuery<'_>,
    scratch: &mut RetrievalScratch,
    out: &mut Vec<(ItemId, f32)>,
) {
    debug_assert!(
        query.candidates.is_none(),
        "candidate-restricted queries bypass the index"
    );
    debug_assert_eq!(index.dim, model.index_dim(), "index/model dim drift");
    out.clear();
    let k = query.k;
    let n = index.items;
    if k == 0 || n == 0 {
        return;
    }
    let RetrievalScratch {
        ids: _,
        scores,
        heap,
        ivf,
    } = scratch;
    heap.clear();
    ivf.begin(n);
    ivf.q.resize(index.dim, 0.0);
    let chunk = chunk_items.max(1);
    let survives = |v: ItemId| query.seen.binary_search(&v).is_err();

    match mode {
        IvfMode::ExactRescore => {
            // Union of probed cells across facets, deduped by epoch stamp.
            for f in 0..index.facets {
                let _w = model.query_index_vector(query.user, f, &mut ivf.q);
                let fx = &index.per_facet[f];
                let probe = fx.rank_cells(
                    index.metric,
                    &ivf.q,
                    nprobe,
                    &mut ivf.cscores,
                    &mut ivf.crank,
                );
                for &(c, _) in ivf.crank.iter().take(probe) {
                    let (s0, e0) = fx.cell_bounds(c as usize);
                    for &v in &fx.cell_items[s0..e0] {
                        let vi = v as usize;
                        if ivf.stamp[vi] != ivf.epoch {
                            ivf.stamp[vi] = ivf.epoch;
                            if survives(v) {
                                ivf.cand.push(v);
                            }
                        }
                    }
                }
            }
            rescore(model, query.user, k, chunk, &ivf.cand, scores, heap);
        }
        IvfMode::Coarse { refine } => {
            for f in 0..index.facets {
                let w = model.query_index_vector(query.user, f, &mut ivf.q);
                let fx = &index.per_facet[f];
                let probe = fx.rank_cells(
                    index.metric,
                    &ivf.q,
                    nprobe,
                    &mut ivf.cscores,
                    &mut ivf.crank,
                );
                match &fx.store {
                    FacetStore::F32(data) => {
                        for &(c, _) in ivf.crank.iter().take(probe) {
                            let (s0, e0) = fx.cell_bounds(c as usize);
                            if s0 == e0 {
                                continue;
                            }
                            let block = &data[s0 * index.dim..e0 * index.dim];
                            ivf.fscores.resize(e0 - s0, 0.0);
                            match index.metric {
                                IndexMetric::InnerProduct => {
                                    simd::dot_one_rows(&ivf.q, block, &mut ivf.fscores)
                                }
                                IndexMetric::NegSquaredL2 => {
                                    simd::dist_sq_one_rows(&ivf.q, block, &mut ivf.fscores);
                                    for s in ivf.fscores.iter_mut() {
                                        *s = -*s;
                                    }
                                }
                            }
                            for (j, &v) in fx.cell_items[s0..e0].iter().enumerate() {
                                accumulate(
                                    &mut ivf.stamp,
                                    &mut ivf.acc,
                                    &mut ivf.touched,
                                    ivf.epoch,
                                    v,
                                    w * ivf.fscores[j],
                                );
                            }
                        }
                    }
                    FacetStore::Int8 { codes, scales } => match index.metric {
                        IndexMetric::InnerProduct => {
                            // One query quantization per facet: scale by the
                            // query's own max-abs, score = s_q·s_cell·⟨codes⟩.
                            let sq = ivf.q.iter().fold(0.0f32, |a, &x| a.max(x.abs())) / 127.0;
                            ivf.qcodes.clear();
                            if sq > 0.0 && sq.is_finite() {
                                ivf.qcodes
                                    .extend(ivf.q.iter().map(|&x| (x / sq).round() as i8));
                            } else {
                                ivf.qcodes.resize(index.dim, 0);
                            }
                            for &(c, _) in ivf.crank.iter().take(probe) {
                                let (s0, e0) = fx.cell_bounds(c as usize);
                                if s0 == e0 {
                                    continue;
                                }
                                let block = &codes[s0 * index.dim..e0 * index.dim];
                                ivf.iscores.resize(e0 - s0, 0);
                                simd::dot_rows_i8(&ivf.qcodes, block, &mut ivf.iscores);
                                let factor = w * sq * scales[c as usize];
                                for (j, &v) in fx.cell_items[s0..e0].iter().enumerate() {
                                    accumulate(
                                        &mut ivf.stamp,
                                        &mut ivf.acc,
                                        &mut ivf.touched,
                                        ivf.epoch,
                                        v,
                                        factor * ivf.iscores[j] as f32,
                                    );
                                }
                            }
                        }
                        IndexMetric::NegSquaredL2 => {
                            // Distances must share one scale, so the query
                            // re-quantizes per block with the *cell's* scale:
                            // ‖q−x‖² ≈ s²·‖⌊q/s⌉ − codes‖².
                            let qn2 = ivf.q.iter().map(|&x| x * x).sum::<f32>();
                            for &(c, _) in ivf.crank.iter().take(probe) {
                                let (s0, e0) = fx.cell_bounds(c as usize);
                                if s0 == e0 {
                                    continue;
                                }
                                let s = scales[c as usize];
                                if !(s > 0.0 && s.is_finite()) {
                                    // All-zero (or degenerate) block: every
                                    // stored vector dequantizes to 0, so the
                                    // distance is ‖q‖² for each member.
                                    for &v in &fx.cell_items[s0..e0] {
                                        accumulate(
                                            &mut ivf.stamp,
                                            &mut ivf.acc,
                                            &mut ivf.touched,
                                            ivf.epoch,
                                            v,
                                            w * -qn2,
                                        );
                                    }
                                    continue;
                                }
                                ivf.qcodes.clear();
                                ivf.qcodes.extend(
                                    ivf.q
                                        .iter()
                                        .map(|&x| (x / s).round().clamp(-127.0, 127.0) as i8),
                                );
                                let block = &codes[s0 * index.dim..e0 * index.dim];
                                ivf.iscores.resize(e0 - s0, 0);
                                simd::dist_sq_rows_i8(&ivf.qcodes, block, &mut ivf.iscores);
                                let factor = w * s * s;
                                for (j, &v) in fx.cell_items[s0..e0].iter().enumerate() {
                                    accumulate(
                                        &mut ivf.stamp,
                                        &mut ivf.acc,
                                        &mut ivf.touched,
                                        ivf.epoch,
                                        v,
                                        factor * -(ivf.iscores[j] as f32),
                                    );
                                }
                            }
                        }
                    },
                }
            }

            // Select under the total order: coarse top-k directly, or a
            // widened shortlist that the model then rescores exactly.
            let k2 = if refine == 0 {
                k
            } else {
                k.saturating_mul(refine).max(k)
            };
            for &v in &ivf.touched {
                if survives(v) {
                    topk::offer(heap, k2, (v, ivf.acc[v as usize]));
                }
            }
            topk::drain_ranked(heap);
            if refine == 0 {
                out.extend_from_slice(heap);
                return;
            }
            ivf.cand.clear();
            ivf.cand.extend(heap.iter().map(|&(v, _)| v));
            heap.clear();
            rescore(model, query.user, k, chunk, &ivf.cand, scores, heap);
        }
    }

    out.extend_from_slice(heap);
}

/// Epoch-validated coarse-score accumulation for item `v`. Takes the
/// scratch fields individually so callers can hold shared borrows of the
/// sibling buffers (`crank`, `iscores`, …) across the call.
#[inline]
fn accumulate(
    stamp: &mut [u64],
    acc: &mut [f32],
    touched: &mut Vec<ItemId>,
    epoch: u64,
    v: ItemId,
    contrib: f32,
) {
    let vi = v as usize;
    if stamp[vi] != epoch {
        stamp[vi] = epoch;
        acc[vi] = 0.0;
        touched.push(v);
    }
    acc[vi] += contrib;
}

/// Chunked exact scoring of an already-filtered candidate list through the
/// model's `score_block` into the bounded heap (same kernel path as the
/// exact engine's `score_chunk`).
fn rescore<S: Scorer + ?Sized>(
    model: &S,
    user: UserId,
    k: usize,
    chunk: usize,
    cand: &[ItemId],
    scores: &mut Vec<f32>,
    heap: &mut Vec<(ItemId, f32)>,
) {
    for ids in cand.chunks(chunk) {
        model.score_block(user, ids, scores);
        for (&v, &s) in ids.iter().zip(scores.iter()) {
            topk::offer(heap, k, (v, s));
        }
    }
    topk::drain_ranked(heap);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::RecQuery;
    use crate::retriever::Retriever;
    use crate::topk::full_sort_top_k;
    use mars_data::synthetic::clustered_points;
    use mars_tensor::ops;

    /// Minimal multi-facet embedding scorer: `score = Σ_f w_f · m(u_f, v_f)`
    /// computed with the same `ops` kernels the coarse path dispatches to.
    struct ToyEmb {
        facets: usize,
        dim: usize,
        metric: IndexMetric,
        items: Vec<f32>,   // n × facets × dim
        users: Vec<f32>,   // u × facets × dim
        weights: Vec<f32>, // facets
    }

    impl ToyEmb {
        fn item(&self, v: ItemId, f: usize) -> &[f32] {
            let start = (v as usize * self.facets + f) * self.dim;
            &self.items[start..start + self.dim]
        }
        fn user(&self, u: UserId, f: usize) -> &[f32] {
            let start = (u as usize * self.facets + f) * self.dim;
            &self.users[start..start + self.dim]
        }
        fn num_items(&self) -> usize {
            self.items.len() / (self.facets * self.dim)
        }

        /// `n` items / `u` users of clustered vectors per facet.
        fn clustered(
            metric: IndexMetric,
            n: usize,
            users: usize,
            facets: usize,
            dim: usize,
        ) -> Self {
            let mut items = vec![0.0; n * facets * dim];
            let mut ubuf = vec![0.0; users * facets * dim];
            for f in 0..facets {
                let (pts, _) = clustered_points(n, dim, 8, 0.15, 100 + f as u64);
                for v in 0..n {
                    let dst = (v * facets + f) * dim;
                    items[dst..dst + dim].copy_from_slice(&pts[v * dim..(v + 1) * dim]);
                }
                // Users sit exactly on item vectors: queries land inside
                // clusters, like a trained user embedding would.
                for u in 0..users {
                    let src = (u * 37 % n) * dim;
                    let dst = (u * facets + f) * dim;
                    ubuf[dst..dst + dim].copy_from_slice(&pts[src..src + dim]);
                }
            }
            Self {
                facets,
                dim,
                metric,
                items,
                users: ubuf,
                weights: (0..facets).map(|f| 1.0 / (f + 1) as f32).collect(),
            }
        }
    }

    impl Scorer for ToyEmb {
        fn score(&self, u: UserId, v: ItemId) -> f32 {
            let mut s = 0.0;
            for f in 0..self.facets {
                let m = match self.metric {
                    IndexMetric::InnerProduct => ops::dot(self.user(u, f), self.item(v, f)),
                    IndexMetric::NegSquaredL2 => -ops::dist_sq(self.user(u, f), self.item(v, f)),
                };
                s += self.weights[f] * m;
            }
            s
        }
    }

    impl IndexEmbeddings for ToyEmb {
        fn num_index_facets(&self) -> usize {
            self.facets
        }
        fn index_dim(&self) -> usize {
            self.dim
        }
        fn index_metric(&self) -> IndexMetric {
            self.metric
        }
        fn item_index_vector(&self, v: ItemId, f: usize, out: &mut [f32]) {
            out.copy_from_slice(self.item(v, f));
        }
        fn query_index_vector(&self, user: UserId, f: usize, out: &mut [f32]) -> f32 {
            out.copy_from_slice(self.user(user, f));
            self.weights[f]
        }
    }

    fn bits(v: &[(ItemId, f32)]) -> Vec<(ItemId, u32)> {
        v.iter().map(|&(i, s)| (i, s.to_bits())).collect()
    }

    #[test]
    fn full_probe_exact_rescore_is_bit_identical_to_exact_scan() {
        for metric in [IndexMetric::InnerProduct, IndexMetric::NegSquaredL2] {
            let model = ToyEmb::clustered(metric, 300, 4, 2, 4);
            let n = model.num_items();
            let exact = Retriever::new(model, n);
            let cells = 10;
            let indexed = exact.clone().with_index(IvfConfig {
                cells,
                nprobe: cells, // exhaustive probe ⇒ every item is a candidate
                ..IvfConfig::default()
            });
            let seen = [3, 4, 50, 299];
            for u in 0..4 {
                for k in [1usize, 7, 50, 400] {
                    let q = RecQuery::top_k(u, k).excluding(&seen);
                    assert_eq!(
                        bits(&indexed.retrieve(&q).ranked),
                        bits(&exact.retrieve(&q).ranked),
                        "{metric:?} u={u} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn partial_probe_is_a_ranked_subset_with_high_recall() {
        let model = ToyEmb::clustered(IndexMetric::NegSquaredL2, 400, 6, 1, 4);
        let n = model.num_items();
        let k = 10;
        let r = Retriever::new(model, n).with_index(IvfConfig {
            cells: 8,
            nprobe: 2,
            ..IvfConfig::default()
        });
        let mut total = 0usize;
        let mut hit = 0usize;
        for u in 0..6 {
            let q = RecQuery::top_k(u, k);
            let got = r.retrieve(&q);
            assert!(got.len() <= k);
            for w in got.ranked.windows(2) {
                assert_ne!(
                    rank_cmp(w[1], w[0]),
                    std::cmp::Ordering::Less,
                    "order broken"
                );
            }
            let truth = full_sort_top_k(r.model().as_ref(), n, &q);
            total += truth.len();
            hit += truth
                .iter()
                .filter(|(v, _)| got.ranked.iter().any(|&(g, _)| g == *v))
                .count();
        }
        let recall = hit as f64 / total as f64;
        // Queries sit on cluster members and neighbors live in the query's
        // cell, so 2-of-8 probes must recover nearly everything.
        assert!(recall >= 0.9, "recall {recall}");
    }

    #[test]
    fn coarse_with_covering_refine_recovers_the_exact_answer() {
        // refine·k ≥ n ⇒ the rescore pass sees every touched item, so even a
        // deliberately lossy (int8) coarse ranking returns the exact top-k.
        for store in [CellStore::F32, CellStore::Int8] {
            for metric in [IndexMetric::InnerProduct, IndexMetric::NegSquaredL2] {
                let model = ToyEmb::clustered(metric, 60, 3, 2, 5);
                let n = model.num_items();
                let exact = Retriever::new(model, n);
                let indexed = exact.clone().with_index(IvfConfig {
                    cells: 6,
                    nprobe: 6,
                    store,
                    mode: IvfMode::Coarse { refine: 12 },
                    ..IvfConfig::default()
                });
                for u in 0..3 {
                    let q = RecQuery::top_k(u, 5).excluding(&[2, 9]);
                    assert_eq!(
                        bits(&indexed.retrieve(&q).ranked),
                        bits(&exact.retrieve(&q).ranked),
                        "{store:?} {metric:?} u={u}"
                    );
                }
            }
        }
    }

    #[test]
    fn coarse_without_refine_returns_ranked_unseen_items() {
        for store in [CellStore::F32, CellStore::Int8] {
            let model = ToyEmb::clustered(IndexMetric::InnerProduct, 200, 2, 2, 4);
            let n = model.num_items();
            let seen: Vec<ItemId> = (0..200).filter(|v| v % 3 == 0).collect();
            let r = Retriever::new(model, n).with_index(IvfConfig {
                cells: 8,
                nprobe: 3,
                store,
                mode: IvfMode::Coarse { refine: 0 },
                ..IvfConfig::default()
            });
            let got = r.retrieve(&RecQuery::top_k(1, 15).excluding(&seen));
            assert!(!got.is_empty() && got.len() <= 15);
            for w in got.ranked.windows(2) {
                assert_ne!(rank_cmp(w[1], w[0]), std::cmp::Ordering::Less);
            }
            assert!(got.items().iter().all(|v| seen.binary_search(v).is_err()));
        }
    }

    #[test]
    fn int8_coarse_scan_keeps_high_recall_against_f32() {
        // Quantization noise (one scale per cell block) must not wreck the
        // coarse ranking: with a modest refine the int8 path matches the
        // exact top-k on clustered data.
        let model = ToyEmb::clustered(IndexMetric::NegSquaredL2, 500, 6, 1, 8);
        let n = model.num_items();
        let r = Retriever::new(model, n).with_index(IvfConfig {
            cells: 8,
            nprobe: 8,
            store: CellStore::Int8,
            mode: IvfMode::Coarse { refine: 4 },
            ..IvfConfig::default()
        });
        let k = 10;
        let mut hit = 0;
        let mut total = 0;
        for u in 0..6 {
            let q = RecQuery::top_k(u, k);
            let got = r.retrieve(&q);
            let truth = full_sort_top_k(r.model().as_ref(), n, &q);
            total += truth.len();
            hit += truth
                .iter()
                .filter(|(v, _)| got.ranked.iter().any(|&(g, _)| g == *v))
                .count();
        }
        assert!(hit as f64 / total as f64 >= 0.9, "recall {hit}/{total}");
    }

    #[test]
    fn hostile_embeddings_never_panic_and_keep_the_total_order() {
        // NaN / ±∞ vectors and weights flow through build, cell ranking,
        // both stores and all modes without panicking; the result is still
        // rank_cmp-ordered and seen-filtered — with the index built by
        // `with_index` and by a 4-thread build (one thread per facet).
        let n = 64;
        let (facets, dim) = (2, 3);
        let mut model = ToyEmb::clustered(IndexMetric::InnerProduct, n, 2, facets, dim);
        for (i, x) in model.items.iter_mut().enumerate() {
            match i % 11 {
                0 => *x = f32::NAN,
                1 => *x = f32::INFINITY,
                2 => *x = f32::NEG_INFINITY,
                _ => {}
            }
        }
        model.users[0] = f32::NAN;
        model.weights[1] = f32::NAN;
        let seen = [1, 5, 8];
        for store in [CellStore::F32, CellStore::Int8] {
            for mode in [
                IvfMode::ExactRescore,
                IvfMode::Coarse { refine: 0 },
                IvfMode::Coarse { refine: 3 },
            ] {
                let cfg = IvfConfig {
                    cells: 5,
                    nprobe: 3,
                    store,
                    mode,
                    ..IvfConfig::default()
                };
                let base = Retriever::new(
                    ToyEmb {
                        facets,
                        dim,
                        metric: model.metric,
                        items: model.items.clone(),
                        users: model.users.clone(),
                        weights: model.weights.clone(),
                    },
                    n,
                );
                let threaded = IvfIndex::build_on(base.model().as_ref(), n, cfg, 4);
                for r in [
                    base.clone().with_index(cfg),
                    base.with_prebuilt_index(std::sync::Arc::new(threaded)),
                ] {
                    for u in 0..2 {
                        let got = r.retrieve(&RecQuery::top_k(u, 9).excluding(&seen));
                        assert!(got.len() <= 9);
                        for w in got.ranked.windows(2) {
                            assert_ne!(rank_cmp(w[1], w[0]), std::cmp::Ordering::Less);
                        }
                        assert!(got.items().iter().all(|v| seen.binary_search(v).is_err()));
                    }
                }
            }
        }
    }

    #[test]
    fn probe_knobs_can_be_retuned_without_rebuilding() {
        let model = ToyEmb::clustered(IndexMetric::NegSquaredL2, 120, 1, 1, 4);
        let n = model.num_items();
        let index = IvfIndex::build(
            &model,
            n,
            IvfConfig {
                cells: 10,
                ..IvfConfig::default()
            },
        );
        assert_eq!(index.cells(), 10);
        assert_eq!(index.items(), n);
        let exact = Retriever::new(model, n);
        let indexed = exact
            .clone()
            .with_prebuilt_index(std::sync::Arc::new(index));
        let full = indexed.clone().with_probe(10, IvfMode::ExactRescore);
        let q = RecQuery::top_k(0, 7);
        assert_eq!(
            bits(&full.retrieve(&q).ranked),
            bits(&exact.retrieve(&q).ranked)
        );
        let narrow = indexed.with_probe(1, IvfMode::ExactRescore);
        assert!(narrow.retrieve(&q).len() <= 7);
    }

    /// FNV-1a over every bit of a layout: centroids, CSR offsets, cell
    /// members and the store.
    fn layout_hash(index: &IvfIndex) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for fx in &index.per_facet {
            fx.centroids.iter().for_each(|x| eat(x.to_bits() as u64));
            fx.cell_start.iter().for_each(|&s| eat(s as u64));
            fx.cell_items.iter().for_each(|&v| eat(v as u64));
            match &fx.store {
                FacetStore::F32(data) => data.iter().for_each(|x| eat(x.to_bits() as u64)),
                FacetStore::Int8 { codes, scales } => {
                    codes.iter().for_each(|&q| eat(q as u8 as u64));
                    scales.iter().for_each(|x| eat(x.to_bits() as u64));
                }
            }
        }
        h
    }

    /// The layout is the same at every build thread count — and the same
    /// as the serial build's, whose hashes these literals pin (the metric
    /// only names the geometry the cells are ranked under; k-means always
    /// clusters in L2, so both metrics share a layout).
    #[test]
    fn layout_is_bit_identical_at_every_thread_count() {
        let pinned = [
            0x4d0c_0ef0_b408_5d30u64,
            0xd60b_4e0c_74be_4716,
            0xa47a_ab7c_9aa3_710d,
            0x2f6f_72a6_399c_7f42,
        ];
        for metric in [IndexMetric::InnerProduct, IndexMetric::NegSquaredL2] {
            let model = ToyEmb::clustered(metric, 500, 1, 5, 4);
            let cfgs = [CellStore::F32, CellStore::Int8]
                .into_iter()
                .flat_map(|store| [0, 300].map(|train_sample| (store, train_sample)));
            for ((store, train_sample), &pin) in cfgs.zip(&pinned) {
                let cfg = IvfConfig {
                    store,
                    train_sample,
                    seed: 3,
                    ..IvfConfig::default()
                };
                for threads in 1..=4 {
                    let index = IvfIndex::build_on(&model, 500, cfg, threads);
                    assert_eq!(
                        layout_hash(&index),
                        pin,
                        "{metric:?} {store:?} train_sample={train_sample} threads={threads}"
                    );
                }
            }
        }
    }

    /// A model that panics while the index is gathered from facet K−1:
    /// `build` re-raises that panic only after every other facet's work has
    /// finished, so nothing outlives the call.
    #[test]
    fn a_panicking_facet_is_re_raised_after_the_others_finish() {
        struct Poisoned {
            inner: ToyEmb,
            reads: std::sync::atomic::AtomicUsize,
        }
        impl Scorer for Poisoned {
            fn score(&self, u: UserId, v: ItemId) -> f32 {
                self.inner.score(u, v)
            }
        }
        impl IndexEmbeddings for Poisoned {
            fn num_index_facets(&self) -> usize {
                self.inner.facets
            }
            fn index_dim(&self) -> usize {
                self.inner.dim
            }
            fn index_metric(&self) -> IndexMetric {
                self.inner.metric
            }
            fn item_index_vector(&self, v: ItemId, f: usize, out: &mut [f32]) {
                assert!(f + 1 < self.inner.facets, "facet {f} is poisoned");
                self.inner.item_index_vector(v, f, out);
                self.reads.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
            fn query_index_vector(&self, user: UserId, f: usize, out: &mut [f32]) -> f32 {
                self.inner.query_index_vector(user, f, out)
            }
        }

        let n = 2000;
        let model = Poisoned {
            inner: ToyEmb::clustered(IndexMetric::InnerProduct, n, 1, 4, 8),
            reads: Default::default(),
        };
        for threads in [1, 2, 4] {
            model.reads.store(0, std::sync::atomic::Ordering::SeqCst);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                IvfIndex::build_on(&model, n, IvfConfig::default(), threads)
            }))
            .expect_err("the poisoned facet must panic");
            let msg = err.downcast_ref::<String>().map(String::as_str);
            assert_eq!(msg, Some("facet 3 is poisoned"), "threads={threads}");
            // The serial path stops at facet 3 after reading facets 0–2;
            // with more threads facet 3 can fail first, yet every other
            // facet still completes before the panic surfaces.
            let reads = model.reads.load(std::sync::atomic::Ordering::SeqCst);
            assert_eq!(reads, 3 * n, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "non-empty catalogue")]
    fn empty_catalogue_cannot_be_indexed() {
        let model = ToyEmb::clustered(IndexMetric::InnerProduct, 4, 1, 1, 2);
        let _ = IvfIndex::build(&model, 0, IvfConfig::default());
    }
}
