//! Gradient-boosted regression trees (least-squares boosting).
//!
//! This is the "Boosted Decision Tree Regression" the paper selects for execution-time
//! prediction: an additive ensemble of shallow CART trees, each fitted to the residuals
//! of the current ensemble, combined with a shrinkage (learning-rate) factor and
//! optional row subsampling (stochastic gradient boosting).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::dataset::Dataset;
use crate::error::MlError;
use crate::model::Regressor;
use crate::tree::{select_child, RankedColumns, RegressionTree, SplitScratch, TreeParams, LEAF};

/// Hyper-parameters of the boosted ensemble.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoostingParams {
    /// Number of boosting rounds (trees).
    pub n_estimators: usize,
    /// Shrinkage applied to every tree's contribution.
    pub learning_rate: f64,
    /// Fraction of rows sampled (without replacement) for each tree; 1.0 disables
    /// subsampling.
    pub subsample: f64,
    /// Parameters of the individual trees.
    pub tree: TreeParams,
    /// Seed for the subsampling RNG.
    pub seed: u64,
}

impl Default for BoostingParams {
    fn default() -> Self {
        BoostingParams {
            n_estimators: 200,
            learning_rate: 0.08,
            subsample: 0.85,
            tree: TreeParams {
                max_depth: 6,
                min_samples_leaf: 3,
                max_split_candidates: 48,
            },
            seed: 0x0b00_57ed,
        }
    }
}

impl BoostingParams {
    /// A faster, lower-capacity configuration for unit tests and smoke runs.
    pub fn fast() -> Self {
        BoostingParams {
            n_estimators: 40,
            learning_rate: 0.15,
            subsample: 1.0,
            tree: TreeParams {
                max_depth: 4,
                min_samples_leaf: 2,
                max_split_candidates: 32,
            },
            seed: 7,
        }
    }
}

/// Rows per block of the cache-blocked batch kernels: one block's rows plus a
/// tree's SoA arrays stay L1/L2-resident while the tree loop streams the arena,
/// so each tree's nodes are touched once per block instead of once per row
/// stride across the whole batch.
const ROW_BLOCK: usize = 64;

/// Rows stepped in lockstep per tree by the explicit-SIMD lane
/// (`--features simd`).  Eight independent walks hide the latency of the
/// data-dependent node loads that serialise the scalar kernel.
#[cfg(feature = "simd")]
const LANES: usize = 8;

/// The whole fitted ensemble flattened into **one contiguous arena**: every tree's
/// [`crate::FlatTree`] arrays concatenated (child indices rebased), plus one root
/// offset per tree.  All inference *and* the training-time diagnostics
/// ([`BoostedTreesRegressor::staged_training_mse`]) walk these four arrays; the
/// per-tree [`RegressionTree`] arenas are dropped once the arena is built.
///
/// `min_width` is the validation computed once at [`FlatForest::from_trees`]
/// time: rows at least that wide cannot index out of bounds at any split node,
/// which lets the batch kernels drop the per-node
/// `features.get(..).unwrap_or(0.0)` check.  Narrower rows (legal — missing
/// features read as 0.0) take the checked walk.
#[derive(Debug, Clone, Default, PartialEq)]
struct FlatForest {
    feature: Vec<u32>,
    threshold: Vec<f64>,
    left: Vec<u32>,
    right: Vec<u32>,
    roots: Vec<u32>,
    min_width: usize,
}

impl FlatForest {
    /// Concatenate the fitted trees into one arena, recording the widest split
    /// feature index so batch walks can be validated once instead of per node.
    fn from_trees(trees: &[RegressionTree]) -> Self {
        let total: usize = trees.iter().map(RegressionTree::node_count).sum();
        let mut forest = FlatForest {
            feature: Vec::with_capacity(total),
            threshold: Vec::with_capacity(total),
            left: Vec::with_capacity(total),
            right: Vec::with_capacity(total),
            roots: Vec::with_capacity(trees.len()),
            min_width: 0,
        };
        for tree in trees {
            let offset = forest.feature.len() as u32;
            forest.roots.push(offset);
            let flat = tree.flatten();
            forest.min_width = forest.min_width.max(flat.min_width());
            forest.feature.extend_from_slice(&flat.feature);
            forest.threshold.extend_from_slice(&flat.threshold);
            // rebase the child indices into the shared arena (leaf slots hold 0 and
            // are never followed, so rebasing them is harmless)
            forest.left.extend(flat.left.iter().map(|&l| l + offset));
            forest.right.extend(flat.right.iter().map(|&r| r + offset));
        }
        forest
    }

    /// Number of trees in the arena.
    fn tree_count(&self) -> usize {
        self.roots.len()
    }

    /// Leaf value of tree `tree` for `features` — the same walk as
    /// [`crate::FlatTree::predict_one`], over the shared arrays.  Missing
    /// features (row narrower than the split feature) read as 0.0.
    #[inline]
    fn leaf(&self, tree: usize, features: &[f64]) -> f64 {
        let mut index = self.roots[tree] as usize;
        loop {
            let feature = self.feature[index];
            if feature == LEAF {
                return self.threshold[index];
            }
            let value = features.get(feature as usize).copied().unwrap_or(0.0);
            index = if value <= self.threshold[index] {
                self.left[index] as usize
            } else {
                self.right[index] as usize
            };
        }
    }

    /// The bounds-check-free, branch-free walk from an explicit root.
    ///
    /// # Safety
    ///
    /// `row.len() >= self.min_width`, and `root` must be one of `self.roots`
    /// (child indices then stay in-arena by construction).
    #[inline]
    unsafe fn leaf_unchecked(&self, root: usize, row: &[f64]) -> f64 {
        let mut index = root;
        loop {
            // SAFETY: `index` starts at a caller-validated root and every
            // subsequent value comes from `left`/`right`, which `from_trees`
            // builds strictly in-arena; the four parallel arrays share one length.
            let feature = *self.feature.get_unchecked(index);
            let threshold = *self.threshold.get_unchecked(index);
            if feature == LEAF {
                return threshold;
            }
            // SAFETY: `feature < min_width <= row.len()` — `from_trees` folds every
            // split feature into `min_width` and the caller checked the row width.
            let value = *row.get_unchecked(feature as usize);
            index = select_child(
                *self.left.get_unchecked(index),
                *self.right.get_unchecked(index),
                value <= threshold,
            ) as usize;
        }
    }

    /// Add `scale * leaf(tree, row)` to `out[i]` for every row — one tree's
    /// contribution to a whole batch, dispatching to the unchecked branch-free
    /// walk whenever `width` covers every split feature of the forest.
    fn accumulate_tree(
        &self,
        tree: usize,
        rows: &[f64],
        width: usize,
        scale: f64,
        out: &mut [f64],
    ) {
        let root = self.roots[tree] as usize;
        if width == 0 {
            let value = self.leaf(tree, &[]);
            for slot in out.iter_mut() {
                *slot += scale * value;
            }
        } else if width >= self.min_width {
            for (slot, row) in out.iter_mut().zip(rows.chunks_exact(width)) {
                // SAFETY: `width >= min_width` (checked above) and `root` comes
                // from `self.roots`.
                *slot += scale * unsafe { self.leaf_unchecked(root, row) };
            }
        } else {
            for (slot, row) in out.iter_mut().zip(rows.chunks_exact(width)) {
                *slot += scale * self.leaf(tree, row);
            }
        }
    }

    /// Cache-blocked batch kernel: rows in [`ROW_BLOCK`]-sized blocks outer,
    /// trees inner, unchecked branch-free walks.  Each row still accumulates
    /// its trees in forest order, so results are bit-identical to
    /// [`FlatForest::leaf`] accumulation row by row.
    ///
    /// Caller must ensure `width > 0`, `width >= self.min_width` and
    /// `rows.len()` is a multiple of `width`.
    fn predict_blocked(&self, rows: &[f64], width: usize, base: f64, scale: f64) -> Vec<f64> {
        debug_assert!(width > 0 && width >= self.min_width);
        let mut predictions = vec![base; rows.len() / width];
        for (block_rows, block_out) in rows
            .chunks(ROW_BLOCK * width)
            .zip(predictions.chunks_mut(ROW_BLOCK))
        {
            for &root in &self.roots {
                let root = root as usize;
                for (slot, row) in block_out.iter_mut().zip(block_rows.chunks_exact(width)) {
                    // SAFETY: width >= min_width, root from self.roots.
                    *slot += scale * unsafe { self.leaf_unchecked(root, row) };
                }
            }
        }
        predictions
    }

    /// Explicit-SIMD batch kernel: like [`FlatForest::predict_blocked`] but
    /// each tree steps [`LANES`] rows in lockstep (independent walks hide the
    /// node-load latency), with a scalar tail for the block's remainder.  Same
    /// per-row accumulation order, hence bit-identical results.
    #[cfg(feature = "simd")]
    fn predict_simd(&self, rows: &[f64], width: usize, base: f64, scale: f64) -> Vec<f64> {
        debug_assert!(width > 0 && width >= self.min_width);
        let mut predictions = vec![base; rows.len() / width];
        for (block_rows, block_out) in rows
            .chunks(ROW_BLOCK * width)
            .zip(predictions.chunks_mut(ROW_BLOCK))
        {
            for &root in &self.roots {
                let root = root as usize;
                let mut row_groups = block_rows.chunks_exact(width * LANES);
                let mut out_groups = block_out.chunks_exact_mut(LANES);
                for (group_rows, group_out) in (&mut row_groups).zip(&mut out_groups) {
                    // SAFETY: width >= min_width, root from self.roots.
                    unsafe { self.accumulate_lanes(root, group_rows, width, scale, group_out) };
                }
                for (slot, row) in out_groups
                    .into_remainder()
                    .iter_mut()
                    .zip(row_groups.remainder().chunks_exact(width))
                {
                    // SAFETY: as above.
                    *slot += scale * unsafe { self.leaf_unchecked(root, row) };
                }
            }
        }
        predictions
    }

    /// Walk [`LANES`] rows of one tree in lockstep, accumulating
    /// `scale * leaf` into `out` (one slot per lane).
    ///
    /// # Safety
    ///
    /// `rows` holds exactly `LANES` rows of `width >= self.min_width` values
    /// each, `out` has `LANES` slots, `root` comes from `self.roots`.
    #[cfg(feature = "simd")]
    unsafe fn accumulate_lanes(
        &self,
        root: usize,
        rows: &[f64],
        width: usize,
        scale: f64,
        out: &mut [f64],
    ) {
        let mut index = [root; LANES];
        let mut leaf = [0.0f64; LANES];
        let mut done = [false; LANES];
        let mut live = LANES;
        while live > 0 {
            for lane in 0..LANES {
                if done[lane] {
                    continue;
                }
                let node = index[lane];
                // SAFETY: `node` starts at a caller-validated root and is only ever
                // replaced by `left`/`right` values, which `from_trees` builds
                // strictly in-arena; the four parallel arrays share one length.
                let feature = *self.feature.get_unchecked(node);
                let threshold = *self.threshold.get_unchecked(node);
                if feature == LEAF {
                    leaf[lane] = threshold;
                    done[lane] = true;
                    live -= 1;
                    continue;
                }
                // SAFETY: the caller hands `LANES` contiguous rows of `width >=
                // min_width` elements and `feature < min_width` by construction, so
                // `lane * width + feature` stays inside `rows`.
                let value = *rows.get_unchecked(lane * width + feature as usize);
                index[lane] = select_child(
                    *self.left.get_unchecked(node),
                    *self.right.get_unchecked(node),
                    value <= threshold,
                ) as usize;
            }
        }
        for (slot, value) in out.iter_mut().zip(leaf) {
            *slot += scale * value;
        }
    }
}

/// Most cells a forest may have and still get a [`CellMemo`]; a forest with more
/// thresholds than this predicts by walking its trees every time.
const MAX_MEMO_CELLS: usize = 1 << 20;

/// Bits of an empty memo slot: a NaN payload no arithmetic produces.  A walk
/// that yields exactly these bits is returned but not stored.
const EMPTY_SLOT: u64 = u64::MAX;

/// The threshold-cell memo of a fitted forest.
///
/// Every split tests `value <= threshold`, so a row's path through every tree
/// is decided by where each feature value falls among that feature's distinct
/// split thresholds (its *cuts*).  A row's **cell** is, per feature, the number
/// of cuts strictly below its value; two rows in one cell reach the same leaves
/// in the same order and get bit-identical predictions.  A missing feature reads
/// as 0.0, as the checked walk does, and a NaN, which goes right at every split,
/// takes the bucket above every cut.
///
/// The feature with the most cuts indexes inside a row of slots; the others
/// select the row.  Rows are allocated on first store, so memory grows with the
/// cells the tuner actually visits, and slots are atomics, so every clone of the
/// model (they share the memo through the `Arc`) fills and reads it
/// concurrently.  Racing walks of one cell store identical bits.
struct CellMemo {
    /// Sorted distinct cuts of every feature below the forest's `min_width`.
    cuts: Vec<Vec<f64>>,
    /// The feature whose bucket indexes inside a row.
    inner: usize,
    /// Row-index stride of every feature (0 for `inner`).
    strides: Vec<usize>,
    /// Slots per row: `inner`'s cuts plus one.
    row_width: usize,
    rows: Box<[OnceLock<Box<[AtomicU64]>>]>,
}

/// A cell's position in a [`CellMemo`].
#[derive(Clone, Copy)]
struct CellIndex {
    row: usize,
    slot: usize,
}

impl CellMemo {
    /// The memo of `forest`, or `None` when it has more than [`MAX_MEMO_CELLS`]
    /// cells.
    fn new(forest: &FlatForest) -> Option<Self> {
        let mut cuts = vec![Vec::new(); forest.min_width];
        for (&feature, &threshold) in forest.feature.iter().zip(&forest.threshold) {
            // a NaN threshold sends every value right, whatever the cell
            if feature != LEAF && !threshold.is_nan() {
                cuts[feature as usize].push(threshold);
            }
        }
        for feature_cuts in &mut cuts {
            feature_cuts.sort_by(f64::total_cmp);
            // -0.0 and 0.0 compare equal, so they are one cut
            feature_cuts.dedup();
        }
        let cells = cuts
            .iter()
            .try_fold(1usize, |cells, c| cells.checked_mul(c.len() + 1))
            .filter(|&cells| cells <= MAX_MEMO_CELLS)?;
        let inner = (0..cuts.len())
            .max_by_key(|&feature| cuts[feature].len())
            .unwrap_or(0);
        let mut strides = vec![0; cuts.len()];
        let mut rows = 1;
        for (feature, feature_cuts) in cuts.iter().enumerate() {
            if feature != inner {
                strides[feature] = rows;
                rows *= feature_cuts.len() + 1;
            }
        }
        Some(CellMemo {
            row_width: cells / rows,
            cuts,
            inner,
            strides,
            rows: (0..rows).map(|_| OnceLock::new()).collect(),
        })
    }

    /// The cell of `features` (missing features read as 0.0, extra ones are
    /// ignored: no split reads them).
    #[inline]
    fn cell(&self, features: &[f64]) -> CellIndex {
        let mut cell = CellIndex { row: 0, slot: 0 };
        for (feature, cuts) in self.cuts.iter().enumerate() {
            let value = features.get(feature).copied().unwrap_or(0.0);
            let bucket = if value.is_nan() {
                cuts.len()
            } else {
                cuts.partition_point(|&cut| cut < value)
            };
            if feature == self.inner {
                cell.slot = bucket;
            } else {
                cell.row += bucket * self.strides[feature];
            }
        }
        cell
    }

    /// The stored prediction of `cell`, if any.  `Relaxed` suffices: a slot
    /// publishes only its own bits, and its row is published by the `OnceLock`.
    #[inline]
    fn get(&self, cell: CellIndex) -> Option<f64> {
        let bits = self.rows[cell.row].get()?[cell.slot].load(Ordering::Relaxed);
        (bits != EMPTY_SLOT).then(|| f64::from_bits(bits))
    }

    /// Store the walked prediction of `cell`, allocating its row on first use.
    fn set(&self, cell: CellIndex, prediction: f64) {
        let row = self.rows[cell.row].get_or_init(|| {
            (0..self.row_width)
                .map(|_| AtomicU64::new(EMPTY_SLOT))
                .collect()
        });
        row[cell.slot].store(prediction.to_bits(), Ordering::Relaxed);
    }
}

/// Prints the memo's shape only: which cells are filled depends on what the
/// model has predicted, and a model's `Debug` string must not.
impl fmt::Debug for CellMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CellMemo")
            .field("cuts", &self.cuts.iter().map(Vec::len).collect::<Vec<_>>())
            .field("rows", &self.rows.len())
            .finish()
    }
}

/// A fitted gradient-boosted tree ensemble.
///
/// The flat arena and its [`CellMemo`] are fixed once `fit` returns (the memo only
/// fills in), so clones share them: handing a model to each new evaluator costs two
/// reference counts, not a copy of the forest, and every clone serves the cells any
/// other clone has walked.
#[derive(Debug, Clone)]
pub struct BoostedTreesRegressor {
    params: BoostingParams,
    base_prediction: f64,
    flat: Arc<FlatForest>,
    memo: Option<Arc<CellMemo>>,
    fitted: bool,
}

impl BoostedTreesRegressor {
    /// Create an unfitted model.
    pub fn new(params: BoostingParams) -> Self {
        BoostedTreesRegressor {
            params,
            base_prediction: 0.0,
            flat: Arc::default(),
            memo: None,
            fitted: false,
        }
    }

    /// Model with the default hyper-parameters.
    pub fn default_model() -> Self {
        Self::new(BoostingParams::default())
    }

    /// The hyper-parameters this model was created with.
    pub fn params(&self) -> &BoostingParams {
        &self.params
    }

    /// Number of trees in the fitted ensemble.
    pub fn tree_count(&self) -> usize {
        self.flat.tree_count()
    }

    /// Training loss (mean squared error on the training set) after every boosting
    /// round; useful for diagnosing over/under-fitting.  Only available after `fit`.
    ///
    /// Runs over the flat arena one tree at a time (the batched path), which is
    /// bit-identical to the historical per-row `tree.predict_one` loop.
    pub fn staged_training_mse(&self, data: &Dataset) -> Vec<f64> {
        let rows = data.feature_matrix();
        let width = data.n_features();
        let mut predictions = vec![self.base_prediction; data.len()];
        let mut losses = Vec::with_capacity(self.flat.tree_count());
        for tree in 0..self.flat.tree_count() {
            self.flat.accumulate_tree(
                tree,
                rows,
                width,
                self.params.learning_rate,
                &mut predictions,
            );
            let mse = predictions
                .iter()
                .zip(data.targets())
                .map(|(p, t)| (p - t) * (p - t))
                .sum::<f64>()
                / data.len().max(1) as f64;
            losses.push(mse);
        }
        losses
    }

    /// The seed batch kernel, kept as the comparison baseline for the
    /// `flat_kernel` benches and the bit-identity proptests: tree-major over
    /// the flat arena with the *checked, branchy* walk and no row blocking.
    pub fn predict_batch_reference(&self, rows: &[f64], width: usize) -> Vec<f64> {
        if rows.is_empty() {
            return Vec::new();
        }
        Self::check_batch_shape(rows, width);
        let mut predictions = vec![self.base_prediction; rows.len() / width];
        for tree in 0..self.flat.tree_count() {
            for (prediction, row) in predictions.iter_mut().zip(rows.chunks_exact(width)) {
                *prediction += self.params.learning_rate * self.flat.leaf(tree, row);
            }
        }
        predictions
    }

    /// The cache-blocked, branch-free batch kernel ([`Regressor::predict_batch`]
    /// without the SIMD lane); rows narrower than the forest's widest split
    /// feature fall back to [`BoostedTreesRegressor::predict_batch_reference`]
    /// so missing features still read as 0.0.
    pub fn predict_batch_blocked(&self, rows: &[f64], width: usize) -> Vec<f64> {
        if rows.is_empty() {
            return Vec::new();
        }
        Self::check_batch_shape(rows, width);
        if width < self.flat.min_width {
            return self.predict_batch_reference(rows, width);
        }
        self.flat
            .predict_blocked(rows, width, self.base_prediction, self.params.learning_rate)
    }

    /// The explicit-SIMD batch kernel (only with `--features simd`): the
    /// blocked kernel with 8 rows per tree stepped in lockstep.  Narrow rows
    /// fall back to the checked reference walk, like
    /// [`BoostedTreesRegressor::predict_batch_blocked`].
    #[cfg(feature = "simd")]
    pub fn predict_batch_simd(&self, rows: &[f64], width: usize) -> Vec<f64> {
        if rows.is_empty() {
            return Vec::new();
        }
        Self::check_batch_shape(rows, width);
        if width < self.flat.min_width {
            return self.predict_batch_reference(rows, width);
        }
        self.flat
            .predict_simd(rows, width, self.base_prediction, self.params.learning_rate)
    }

    /// The dispatched batch kernel behind [`Regressor::predict_batch`], without
    /// the memo.
    fn walk_batch(&self, rows: &[f64], width: usize) -> Vec<f64> {
        #[cfg(feature = "simd")]
        {
            self.predict_batch_simd(rows, width)
        }
        #[cfg(not(feature = "simd"))]
        {
            self.predict_batch_blocked(rows, width)
        }
    }

    /// Walk every tree for one row.
    fn walk_one(&self, features: &[f64]) -> f64 {
        // the flat arena holds exactly the fitted trees, in boosting order, so the
        // accumulation is bit-identical to walking the per-tree arenas
        let mut prediction = self.base_prediction;
        if features.len() >= self.flat.min_width {
            for &root in &self.flat.roots {
                // SAFETY: the row covers every split feature (checked above) and
                // the root comes from the arena built in `from_trees`.
                prediction += self.params.learning_rate
                    * unsafe { self.flat.leaf_unchecked(root as usize, features) };
            }
        } else {
            for tree in 0..self.flat.tree_count() {
                prediction += self.params.learning_rate * self.flat.leaf(tree, features);
            }
        }
        prediction
    }

    fn check_batch_shape(rows: &[f64], width: usize) {
        assert!(
            width > 0 && rows.len().is_multiple_of(width),
            "row-major batch of {} values is not a whole number of width-{width} rows",
            rows.len()
        );
    }
}

impl Regressor for BoostedTreesRegressor {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        self.flat = Arc::default();
        self.memo = None;
        self.base_prediction = data.target_mean();
        let mut rng = StdRng::seed_from_u64(self.params.seed);

        let n = data.len();
        let mut predictions = vec![self.base_prediction; n];
        let mut residuals = vec![0.0; n];
        let sample_size = ((n as f64) * self.params.subsample.clamp(0.05, 1.0)).ceil() as usize;
        let sample_size = sample_size.clamp(1, n);
        let mut all_indices: Vec<usize> = (0..n).collect();
        // rank-encode the features once; the split search of every node of every tree
        // reads these tables, and the scratch and sample buffers are reused per tree
        let columns = RankedColumns::new(data);
        let mut scratch = SplitScratch::default();
        let mut sample: Vec<usize> = Vec::with_capacity(sample_size);
        let mut trees = Vec::with_capacity(self.params.n_estimators);

        for _ in 0..self.params.n_estimators {
            for i in 0..n {
                residuals[i] = data.target(i) - predictions[i];
            }

            if sample_size != n {
                all_indices.shuffle(&mut rng);
            }
            sample.clear();
            sample.extend_from_slice(&all_indices[..sample_size]);

            let mut tree = RegressionTree::new(self.params.tree);
            tree.fit_ranked(&columns, &residuals, &mut sample, &mut scratch)?;

            // batched residual update over the just-fitted tree's flat arrays
            // (bit-identical to the per-row `tree.predict_one` loop)
            tree.flatten().accumulate_into(
                data.feature_matrix(),
                data.n_features(),
                self.params.learning_rate,
                &mut predictions,
            );
            trees.push(tree);
        }
        let flat = FlatForest::from_trees(&trees);
        self.memo = CellMemo::new(&flat).map(Arc::new);
        self.flat = Arc::new(flat);
        self.fitted = true;
        Ok(())
    }

    /// Served from the [`CellMemo`] when the row's cell was walked before (by
    /// any clone of this model); otherwise the trees are walked and the cell
    /// stored.  Bit-identical either way.
    fn predict_one(&self, features: &[f64]) -> f64 {
        let Some(memo) = self.memo.as_deref() else {
            return self.walk_one(features);
        };
        let cell = memo.cell(features);
        if let Some(prediction) = memo.get(cell) {
            return prediction;
        }
        let prediction = self.walk_one(features);
        memo.set(cell, prediction);
        prediction
    }

    /// Real batched inference over a row-major feature matrix.  Rows whose
    /// cell the [`CellMemo`] holds are served from it; the rest are gathered into
    /// one sub-batch for the walk kernel and their cells stored.  The kernel is
    /// cache-blocked row×tree tiling of the flat arena with branch-free,
    /// bounds-check-free node stepping (the width was validated against the
    /// forest's widest split feature at `from_trees` time); with `--features
    /// simd` it additionally steps 8 rows per tree in lockstep.  Per row the
    /// additions happen in the same order as [`Regressor::predict_one`], so every
    /// lane is bit-identical to the default row loop.  Rows narrower than the
    /// widest split feature take the checked reference walk (missing features
    /// read as 0.0).
    fn predict_batch(&self, rows: &[f64], width: usize) -> Vec<f64> {
        let Some(memo) = self.memo.as_deref() else {
            return self.walk_batch(rows, width);
        };
        if rows.is_empty() {
            return Vec::new();
        }
        Self::check_batch_shape(rows, width);
        let mut predictions = Vec::with_capacity(rows.len() / width);
        let mut misses = Vec::new();
        let mut miss_rows = Vec::new();
        for (index, row) in rows.chunks_exact(width).enumerate() {
            let cell = memo.cell(row);
            match memo.get(cell) {
                Some(prediction) => predictions.push(prediction),
                None => {
                    predictions.push(0.0);
                    misses.push((index, cell));
                    miss_rows.extend_from_slice(row);
                }
            }
        }
        if !misses.is_empty() {
            let walked = self.walk_batch(&miss_rows, width);
            for ((index, cell), prediction) in misses.into_iter().zip(walked) {
                predictions[index] = prediction;
                memo.set(cell, prediction);
            }
        }
        predictions
    }

    fn is_fitted(&self) -> bool {
        self.fitted
    }

    fn name(&self) -> &'static str {
        "boosted-decision-tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    /// y = 2*x0 + 5*step(x1) + small deterministic wiggle
    fn synthetic(n: usize) -> Dataset {
        let mut d = Dataset::new(vec!["x0".into(), "x1".into()]);
        for i in 0..n {
            let x0 = (i % 50) as f64 / 5.0;
            let x1 = ((i * 7) % 10) as f64;
            let wiggle = ((i * 13) % 7) as f64 * 0.01;
            let y = 2.0 * x0 + if x1 >= 5.0 { 5.0 } else { 0.0 } + wiggle;
            d.push(vec![x0, x1], y).unwrap();
        }
        d
    }

    #[test]
    fn learns_a_nonlinear_function() {
        let data = synthetic(600);
        let (train, test) = data.train_test_split(0.5, 1);
        let mut model = BoostedTreesRegressor::new(BoostingParams::fast());
        model.fit(&train).unwrap();
        assert!(model.is_fitted());
        assert_eq!(model.tree_count(), BoostingParams::fast().n_estimators);

        let predictions = model.predict_batch(test.feature_matrix(), test.n_features());
        let mape = metrics::mean_absolute_percent_error(test.targets(), &predictions);
        assert!(mape < 8.0, "MAPE too high: {mape}%");
    }

    #[test]
    fn beats_a_single_tree() {
        let data = synthetic(600);
        let (train, test) = data.train_test_split(0.5, 2);

        let mut single = RegressionTree::new(TreeParams {
            max_depth: 2,
            min_samples_leaf: 2,
            max_split_candidates: 32,
        });
        single.fit(&train).unwrap();
        let mut boosted = BoostedTreesRegressor::new(BoostingParams {
            tree: TreeParams {
                max_depth: 2,
                min_samples_leaf: 2,
                max_split_candidates: 32,
            },
            ..BoostingParams::fast()
        });
        boosted.fit(&train).unwrap();

        let rmse_single = metrics::root_mean_squared_error(
            test.targets(),
            &single.predict_batch(test.feature_matrix(), test.n_features()),
        );
        let rmse_boosted = metrics::root_mean_squared_error(
            test.targets(),
            &boosted.predict_batch(test.feature_matrix(), test.n_features()),
        );
        assert!(
            rmse_boosted < rmse_single,
            "boosting ({rmse_boosted}) should beat a depth-2 tree ({rmse_single})"
        );
    }

    #[test]
    fn training_loss_decreases_monotonically_in_aggregate() {
        let data = synthetic(300);
        let mut model = BoostedTreesRegressor::new(BoostingParams::fast());
        model.fit(&data).unwrap();
        let losses = model.staged_training_mse(&data);
        assert_eq!(losses.len(), BoostingParams::fast().n_estimators);
        assert!(losses.last().unwrap() < losses.first().unwrap());
    }

    #[test]
    fn subsampling_is_deterministic_per_seed() {
        let data = synthetic(300);
        let params = BoostingParams {
            subsample: 0.5,
            ..BoostingParams::fast()
        };
        let mut a = BoostedTreesRegressor::new(params);
        let mut b = BoostedTreesRegressor::new(params);
        a.fit(&data).unwrap();
        b.fit(&data).unwrap();
        let probe = vec![3.3, 7.0];
        assert_eq!(a.predict_one(&probe), b.predict_one(&probe));
    }

    #[test]
    fn batch_kernels_agree_bit_for_bit_with_the_row_loop() {
        let data = synthetic(317); // odd count: exercises block and lane tails
        let mut model = BoostedTreesRegressor::new(BoostingParams::fast());
        model.fit(&data).unwrap();
        let rows = data.feature_matrix();
        let width = data.n_features();

        let reference = model.predict_batch_reference(rows, width);
        let blocked = model.predict_batch_blocked(rows, width);
        let dispatched = model.predict_batch(rows, width);
        for i in 0..data.len() {
            let one = model.predict_one(data.features(i));
            assert_eq!(one.to_bits(), reference[i].to_bits(), "reference row {i}");
            assert_eq!(one.to_bits(), blocked[i].to_bits(), "blocked row {i}");
            assert_eq!(one.to_bits(), dispatched[i].to_bits(), "dispatch row {i}");
        }
        #[cfg(feature = "simd")]
        {
            let simd = model.predict_batch_simd(rows, width);
            for i in 0..data.len() {
                assert_eq!(reference[i].to_bits(), simd[i].to_bits(), "simd row {i}");
            }
        }
    }

    #[test]
    fn narrow_rows_fall_back_to_the_checked_walk() {
        let data = synthetic(200); // schema has 2 features
        let mut model = BoostedTreesRegressor::new(BoostingParams::fast());
        model.fit(&data).unwrap();
        // width-1 rows are narrower than the widest split feature: the batch
        // kernels must reproduce the missing-features-read-as-0.0 semantics
        let narrow: Vec<f64> = (0..40).map(|i| (i % 23) as f64).collect();
        let blocked = model.predict_batch_blocked(&narrow, 1);
        let dispatched = model.predict_batch(&narrow, 1);
        for (i, value) in narrow.iter().enumerate() {
            let one = model.predict_one(&[*value]);
            assert_eq!(one.to_bits(), blocked[i].to_bits(), "row {i}");
            assert_eq!(one.to_bits(), dispatched[i].to_bits(), "row {i}");
        }
    }

    #[test]
    fn empty_batches_predict_nothing() {
        let data = synthetic(50);
        let mut model = BoostedTreesRegressor::new(BoostingParams::fast());
        model.fit(&data).unwrap();
        assert!(model.predict_batch(&[], 2).is_empty());
        assert!(model.predict_batch_reference(&[], 2).is_empty());
        assert!(model.predict_batch_blocked(&[], 2).is_empty());
    }

    /// The boosting loop before rank encoding: fresh index copies per tree and the
    /// sort-based split search.
    fn reference_trees(params: BoostingParams, data: &Dataset) -> Vec<RegressionTree> {
        let mut rng = StdRng::seed_from_u64(params.seed);
        let n = data.len();
        let mut predictions = vec![data.target_mean(); n];
        let sample_size = ((n as f64) * params.subsample.clamp(0.05, 1.0)).ceil() as usize;
        let sample_size = sample_size.clamp(1, n);
        let mut all_indices: Vec<usize> = (0..n).collect();
        let mut trees = Vec::new();
        for _ in 0..params.n_estimators {
            let residuals: Vec<f64> = (0..n).map(|i| data.target(i) - predictions[i]).collect();
            let indices: Vec<usize> = if sample_size == n {
                all_indices.clone()
            } else {
                all_indices.shuffle(&mut rng);
                all_indices[..sample_size].to_vec()
            };
            let tree = crate::tree::reference::fit(params.tree, data, &residuals, &indices);
            for (i, prediction) in predictions.iter_mut().enumerate() {
                *prediction += params.learning_rate * tree.predict_one(data.features(i));
            }
            trees.push(tree);
        }
        trees
    }

    #[test]
    fn fits_are_bit_identical_to_the_sorting_oracle() {
        let data = synthetic(400);
        for params in [
            BoostingParams::fast(),
            BoostingParams {
                n_estimators: 25,
                ..BoostingParams::default()
            },
        ] {
            let mut model = BoostedTreesRegressor::new(params);
            model.fit(&data).unwrap();
            let expected = FlatForest::from_trees(&reference_trees(params, &data));
            assert_eq!(*model.flat, expected);
        }
    }

    /// A random dataset of `width` features mixing a few repeated levels with
    /// continuous values, so forests get both shared and singleton cuts.
    fn random_dataset(seed: u64, width: usize, rows: usize) -> Dataset {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let names = (0..width).map(|f| format!("x{f}")).collect();
        let mut data = Dataset::new(names);
        for _ in 0..rows {
            let row: Vec<f64> = (0..width)
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        f64::from(rng.gen_range(0u32..4))
                    } else {
                        rng.gen_range(-10.0..10.0)
                    }
                })
                .collect();
            let y = row
                .iter()
                .enumerate()
                .map(|(f, x)| (f + 1) as f64 * x)
                .sum::<f64>()
                + if row[0] > 1.0 { 3.0 } else { 0.0 };
            data.push(row, y).unwrap();
        }
        data
    }

    /// Probe values of every feature: each cut, its neighbours one ulp away,
    /// signed zeros, infinities and NaN.
    fn edge_values(model: &BoostedTreesRegressor) -> Vec<Vec<f64>> {
        let memo = model.memo.as_deref().expect("small forests get a memo");
        memo.cuts
            .iter()
            .map(|cuts| {
                let mut values = vec![0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
                for &cut in cuts {
                    values.extend([cut, cut.next_up(), cut.next_down()]);
                }
                values
            })
            .collect()
    }

    /// `count` row-major rows of `width` values drawn from the per-feature
    /// `values` (features beyond them draw from the first feature's).
    fn probe_rows(values: &[Vec<f64>], width: usize, count: usize, seed: u64) -> Vec<f64> {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count * width)
            .map(|i| {
                let pool = values.get(i % width).unwrap_or(&values[0]);
                pool[rng.gen_range(0..pool.len())]
            })
            .collect()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// Served from a cold or a warm memo, one row at a time or in batches
        /// mixing hits and misses, every prediction has the bits of the unmemoized
        /// reference walk: on cuts and their ulp neighbours, signed zeros,
        /// infinities, NaN, and rows narrower and wider than the forest.
        #[test]
        fn memoized_predictions_are_bit_identical_to_the_reference_walk(
            seed in 0u64..1_000_000,
            width in 1usize..4,
            rows in 8usize..60,
        ) {
            let data = random_dataset(seed, width, rows);
            let mut model = BoostedTreesRegressor::new(BoostingParams::fast());
            model.fit(&data).unwrap();
            let min_width = model.flat.min_width;
            proptest::prop_assume!(min_width > 0);
            let values = edge_values(&model);
            // one model per entry point, each shared by every probe width, so
            // wide, full and narrow rows read cells the others filled
            let mut batched = model.clone();
            batched.fit(&data).unwrap();
            for probe_width in [min_width, min_width + 1, min_width - 1] {
                if probe_width == 0 {
                    continue;
                }
                let probes = probe_rows(&values, probe_width, 64, seed ^ probe_width as u64);
                let reference = bits(&model.predict_batch_reference(&probes, probe_width));

                // one row at a time: the first pass fills the memo, the second reads it
                for pass in ["cold", "warm"] {
                    let one: Vec<f64> = probes
                        .chunks_exact(probe_width)
                        .map(|row| model.predict_one(row))
                        .collect();
                    proptest::prop_assert_eq!(&bits(&one), &reference, "{} predict_one", pass);
                }

                // batches: half the rows first, then all of them (hits and misses)
                let half = probes.len() / probe_width / 2 * probe_width;
                let first = batched.predict_batch(&probes[..half], probe_width);
                proptest::prop_assert_eq!(&bits(&first), &reference[..half / probe_width]);
                let mixed = batched.predict_batch(&probes, probe_width);
                proptest::prop_assert_eq!(&bits(&mixed), &reference, "mixed batch");
            }
            // an empty row reads every feature as 0.0
            let zeros = model.predict_batch_reference(&vec![0.0; min_width], min_width);
            proptest::prop_assert_eq!(model.predict_one(&[]).to_bits(), zeros[0].to_bits());
        }
    }

    #[test]
    fn concurrent_fills_store_the_reference_bits() {
        use rayon::prelude::*;
        let data = random_dataset(11, 3, 80);
        let mut model = BoostedTreesRegressor::new(BoostingParams::fast());
        model.fit(&data).unwrap();
        let probes = probe_rows(&edge_values(&model), 3, 512, 5);
        let reference = bits(&model.predict_batch_reference(&probes, 3));
        // each worker serves its own clone, half of them row by row and half in
        // batches; every clone fills the one shared memo
        let chunks: Vec<(usize, &[f64])> = probes.chunks(3 * 16).enumerate().collect();
        let served: Vec<Vec<f64>> = chunks
            .into_par_iter()
            .map(|(index, chunk)| {
                let clone = model.clone();
                if index % 2 == 0 {
                    chunk
                        .chunks_exact(3)
                        .map(|row| clone.predict_one(row))
                        .collect()
                } else {
                    clone.predict_batch(chunk, 3)
                }
            })
            .collect();
        assert_eq!(bits(&served.concat()), reference);
        // and the filled memo serves the same bits again
        assert_eq!(bits(&model.predict_batch(&probes, 3)), reference);
    }

    #[test]
    fn predicting_changes_no_debug_string_and_refits_start_a_fresh_memo() {
        let data = random_dataset(3, 2, 60);
        let other = random_dataset(4, 2, 60);
        let mut model = BoostedTreesRegressor::new(BoostingParams::fast());
        model.fit(&data).unwrap();
        let debug = format!("{model:?}");
        let probes = probe_rows(&edge_values(&model), 2, 200, 9);
        let reference = bits(&model.predict_batch_reference(&probes, 2));
        assert_eq!(bits(&model.predict_batch(&probes, 2)), reference);
        assert_eq!(format!("{model:?}"), debug, "a warm memo must not print");

        // a refitted clone neither disturbs the original nor reads its cells
        let mut refit = model.clone();
        refit.fit(&other).unwrap();
        let mut fresh = BoostedTreesRegressor::new(BoostingParams::fast());
        fresh.fit(&other).unwrap();
        assert_eq!(format!("{refit:?}"), format!("{fresh:?}"));
        assert_eq!(
            bits(&refit.predict_batch(&probes, 2)),
            bits(&fresh.predict_batch_reference(&probes, 2))
        );
        let one: Vec<f64> = probes
            .chunks_exact(2)
            .map(|row| model.predict_one(row))
            .collect();
        assert_eq!(bits(&one), reference);
        assert_eq!(format!("{model:?}"), debug);
    }

    #[test]
    fn forests_with_too_many_cells_walk_every_time() {
        // five continuous features with hundreds of cuts each: far past the bound
        let data = random_dataset(21, 5, 600);
        let mut model = BoostedTreesRegressor::new(BoostingParams {
            n_estimators: 60,
            ..BoostingParams::default()
        });
        model.fit(&data).unwrap();
        assert!(model.memo.is_none());
        let rows = data.feature_matrix();
        let reference = bits(&model.predict_batch_reference(rows, 5));
        assert_eq!(bits(&model.predict_batch(rows, 5)), reference);
        let one: Vec<f64> = rows
            .chunks_exact(5)
            .map(|row| model.predict_one(row))
            .collect();
        assert_eq!(bits(&one), reference);
    }

    #[test]
    fn empty_dataset_is_rejected() {
        let mut model = BoostedTreesRegressor::default_model();
        assert_eq!(
            model.fit(&Dataset::new(vec!["x".into()])),
            Err(MlError::EmptyDataset)
        );
        assert!(!model.is_fitted());
    }

    #[test]
    fn constant_target_is_predicted_exactly() {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..50 {
            d.push(vec![i as f64], 4.25).unwrap();
        }
        let mut model = BoostedTreesRegressor::new(BoostingParams::fast());
        model.fit(&d).unwrap();
        assert!((model.predict_one(&[17.0]) - 4.25).abs() < 1e-9);
    }
}
