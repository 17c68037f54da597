//! CART-style regression trees.
//!
//! The tree minimises the sum of squared errors: each split chooses the (feature,
//! threshold) pair with the largest variance reduction, and each leaf predicts the mean
//! target of its training rows.  Trees are the weak learner of
//! [`crate::boosting::BoostedTreesRegressor`].
//!
//! # Rank-encoded split search
//!
//! A node's candidate thresholds come from its rows ordered by feature value.  Rather
//! than sort a `(value, target)` list for every node × feature, a fit rank-encodes
//! each feature column once: a dense rank under [`f64::total_cmp`], so distinct bit
//! patterns (`-0.0` and `0.0` included) get distinct ranks.  Each node then
//! counting-sorts its *current* row order by rank.  A counting sort is stable, so it
//! yields exactly the permutation a stable `sort_by(total_cmp)` of the same rows
//! yields.  A column with many more levels than the node has rows (a fine-grained
//! input size at a small node) takes that comparison sort instead.  The autotuner's
//! features take few levels (a thread count, a one-hot affinity, an input size), so
//! nearly every node sorts in linear time.
//!
//! The contract is bit-identity with the per-node sort: with the same order, every
//! prefix-sum addition, every `boundary == next` candidate test on the `f64` values,
//! the candidate stride and the strict `sse < best` tie-break see the same numbers in
//! the same sequence, and the in-place partition of the rows is unchanged.  The unit
//! tests keep the sort-based search as an oracle and compare fitted trees node for node.
//!
//! Two-level columns (three of the autotuner's five features are one-hot affinity
//! indicators) skip even the counting sort.  Their stable order is "every rank-0 row in
//! index order, then the rest", so the only candidate sits after the `count0` rank-0
//! rows.  One pass over the rows in their current order accumulates those rows' count,
//! target sum and sum of squares, and keeps one row of each level for the two values.
//! That sum is the prefix sum the scan reaches at position `count0`: the same targets
//! added in the same order to the same `0.0`.  The candidate is then scored by the code
//! that scores every scan position (`boundary == next`, so a column of only `-0.0` and
//! `0.0` yields none; the stride; `min_samples_leaf`; the `sse` and threshold
//! expressions), so every tree stays bit-identical.

use crate::dataset::Dataset;
use crate::error::MlError;
use crate::model::Regressor;

/// Hyper-parameters of a single regression tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Maximum depth (a depth of 0 is a single leaf).
    pub max_depth: usize,
    /// Minimum number of training rows in a leaf.
    pub min_samples_leaf: usize,
    /// Bound on the candidate thresholds examined per feature.  The node's rows,
    /// sorted by the feature, are split only after positions that are multiples of
    /// the stride `max(rows / max_split_candidates, 1)` (and only where the value
    /// changes), so a node of `rows` rows evaluates at most about this many splits per
    /// feature.  The stride is positional: it does not look at the value distribution.
    pub max_split_candidates: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 5,
            min_samples_leaf: 2,
            max_split_candidates: 64,
        }
    }
}

/// One node of the tree, stored in an arena.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        prediction: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// Sentinel value of [`FlatTree::feature`] marking a leaf node.
pub const LEAF: u32 = u32::MAX;

/// A node orders its rows with a comparison sort instead of a counting sort when a
/// column has more than this many levels per row of the node (the counting sort
/// costs one pass over the column's levels, which would dominate a small node).
const COUNTING_SORT_MAX_LEVELS_PER_ROW: usize = 4;

/// The features of a dataset, column-major and rank-encoded once per fit: the input of
/// the split search (see the module documentation).
#[derive(Debug)]
pub(crate) struct RankedColumns {
    rows: usize,
    /// `values[feature * rows + row]`, the dataset's feature matrix transposed.
    values: Vec<f64>,
    /// Dense rank of the matching `values` entry within its column under `total_cmp`.
    ranks: Vec<u32>,
    /// Number of distinct values (ranks) per column.
    levels: Vec<usize>,
}

impl RankedColumns {
    /// Transpose and rank-encode every feature column of `data`.
    pub(crate) fn new(data: &Dataset) -> Self {
        let rows = data.len();
        let width = data.n_features();
        let mut values = Vec::with_capacity(rows * width);
        let mut ranks = vec![0u32; rows * width];
        let mut levels = Vec::with_capacity(width);
        let mut order: Vec<usize> = Vec::with_capacity(rows);
        for feature in 0..width {
            let start = values.len();
            values.extend((0..rows).map(|row| data.features(row)[feature]));
            let column = &values[start..];
            order.clear();
            order.extend(0..rows);
            order.sort_unstable_by(|&a, &b| column[a].total_cmp(&column[b]));
            let column_ranks = &mut ranks[start..start + rows];
            let mut level = 0u32;
            for (k, &row) in order.iter().enumerate() {
                if k > 0 && column[order[k - 1]].total_cmp(&column[row]).is_ne() {
                    level += 1;
                }
                column_ranks[row] = level;
            }
            levels.push(if rows == 0 { 0 } else { level as usize + 1 });
        }
        RankedColumns {
            rows,
            values,
            ranks,
            levels,
        }
    }

    /// Feature `feature` of row `row`.
    fn value(&self, row: usize, feature: usize) -> f64 {
        self.values[feature * self.rows + row]
    }

    /// Fill `scratch.pairs` with `(value, target)` of `feature` for `indices`, in the
    /// order a stable sort of `indices` by value under `total_cmp` gives.
    fn sort_pairs(
        &self,
        feature: usize,
        targets: &[f64],
        indices: &[usize],
        scratch: &mut SplitScratch,
    ) {
        let column = feature * self.rows..(feature + 1) * self.rows;
        let values = &self.values[column.clone()];
        let pairs = &mut scratch.pairs;
        let levels = self.levels[feature];
        if levels > COUNTING_SORT_MAX_LEVELS_PER_ROW * indices.len() {
            pairs.clear();
            pairs.extend(indices.iter().map(|&i| (values[i], targets[i])));
            pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
            return;
        }
        let ranks = &self.ranks[column];
        // counts[r + 1] = rows of rank r; after the prefix sum, counts[r] is the first
        // slot of rank r, and placing rows in `indices` order keeps the sort stable
        let counts = &mut scratch.counts;
        counts.clear();
        counts.resize(levels + 1, 0);
        for &i in indices {
            counts[ranks[i] as usize + 1] += 1;
        }
        for level in 1..=levels {
            counts[level] += counts[level - 1];
        }
        pairs.clear();
        pairs.resize(indices.len(), (0.0, 0.0));
        for &i in indices {
            let slot = &mut counts[ranks[i] as usize];
            pairs[*slot] = (values[i], targets[i]);
            *slot += 1;
        }
    }

    /// The one candidate of a column of exactly two levels: its rank-0 rows (the
    /// first `count` of a stable sort of `indices`) with their target sum and sum of
    /// squares, accumulated in `indices` order, and the value of each level present.
    fn two_level_prefix(
        &self,
        feature: usize,
        targets: &[f64],
        indices: &[usize],
    ) -> TwoLevelPrefix {
        debug_assert_eq!(self.levels[feature], 2);
        let column = feature * self.rows..(feature + 1) * self.rows;
        let ranks = &self.ranks[column.clone()];
        // accumulators indexed by rank keep the pass branch-free (only rank 0's are
        // read); the ranks are 0 or 1, and the mask lets the indexing skip bounds checks
        let mut count = [0usize; 2];
        let mut sum = [0.0f64; 2];
        let mut sq = [0.0f64; 2];
        let mut row = [0usize; 2];
        for &i in indices {
            let rank = ranks[i] as usize & 1;
            let target = targets[i];
            count[rank] += 1;
            sum[rank] += target;
            sq[rank] += target * target;
            row[rank] = i;
        }
        let values = &self.values[column];
        TwoLevelPrefix {
            count: count[0],
            sum: sum[0],
            sq: sq[0],
            values: [values[row[0]], values[row[1]]],
        }
    }
}

/// See [`RankedColumns::two_level_prefix`]; a level absent from the rows has an
/// arbitrary value.
struct TwoLevelPrefix {
    count: usize,
    sum: f64,
    sq: f64,
    values: [f64; 2],
}

/// Buffers the split search reuses across features, nodes and trees.
#[derive(Debug, Default)]
pub(crate) struct SplitScratch {
    counts: Vec<usize>,
    pairs: Vec<(f64, f64)>,
}

/// A fitted tree flattened into structure-of-arrays form for cache-friendly inference:
/// four contiguous arrays indexed by node, with leaves marked by `feature == `[`LEAF`]
/// and their prediction stored in the `threshold` slot.
///
/// Traversal touches only these flat arrays — no enum discriminants, no pointer
/// chasing — which is what makes the batched prediction of
/// [`crate::BoostedTreesRegressor`] cheap enough to tabulate whole prediction tables.
/// The arrays are exposed so ensembles can concatenate many trees into one arena
/// (offsetting the child indices).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlatTree {
    /// Split feature per node; [`LEAF`] for leaves.
    pub feature: Vec<u32>,
    /// Split threshold per node; the leaf prediction for leaves.
    pub threshold: Vec<f64>,
    /// Left child index per node (unused for leaves).
    pub left: Vec<u32>,
    /// Right child index per node (unused for leaves).
    pub right: Vec<u32>,
}

impl FlatTree {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.feature.len()
    }

    /// Whether the tree has no nodes (an unfitted tree).
    pub fn is_empty(&self) -> bool {
        self.feature.is_empty()
    }

    /// Smallest row width that puts every split feature of the tree in bounds:
    /// `1 +` the largest split feature index, or 0 when the tree is a single
    /// leaf (or unfitted).  Rows at least this wide can be walked without
    /// per-node bounds checks.
    pub fn min_width(&self) -> usize {
        self.feature
            .iter()
            .filter(|&&feature| feature != LEAF)
            .map(|&feature| feature as usize + 1)
            .max()
            .unwrap_or(0)
    }

    /// Walk the flat arrays from the root; bit-identical to
    /// [`RegressionTree::predict_one`] on the tree this was flattened from.
    pub fn predict_one(&self, features: &[f64]) -> f64 {
        if self.feature.is_empty() {
            return 0.0;
        }
        let mut index = 0usize;
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
}

/// A fitted regression tree.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionTree {
    params: TreeParams,
    nodes: Vec<Node>,
}

impl RegressionTree {
    /// Create an unfitted tree with the given hyper-parameters.
    pub fn new(params: TreeParams) -> Self {
        RegressionTree {
            params,
            nodes: Vec::new(),
        }
    }

    /// Depth of the fitted tree (0 for a single leaf or an unfitted tree).
    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], index: usize) -> usize {
            match nodes[index] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => {
                    1 + depth_of(nodes, left).max(depth_of(nodes, right))
                }
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            depth_of(&self.nodes, 0)
        }
    }

    /// Fit the tree on a subset of rows (by index) against externally supplied targets
    /// (the boosting residuals).  `targets[i]` corresponds to `data.features(i)`.
    ///
    /// Rejects an empty dataset or index list, a `targets` slice of the wrong length
    /// and an index past the last row, each as a typed [`MlError`].
    pub fn fit_on_indices(
        &mut self,
        data: &Dataset,
        targets: &[f64],
        indices: &[usize],
    ) -> Result<(), MlError> {
        let mut work = indices.to_vec();
        self.fit_ranked(
            &RankedColumns::new(data),
            targets,
            &mut work,
            &mut SplitScratch::default(),
        )
    }

    /// [`RegressionTree::fit_on_indices`] over a caller-owned rank encoding of the
    /// dataset and reusable buffers.  `work` holds the row indices and is permuted in
    /// place.
    pub(crate) fn fit_ranked(
        &mut self,
        columns: &RankedColumns,
        targets: &[f64],
        work: &mut [usize],
        scratch: &mut SplitScratch,
    ) -> Result<(), MlError> {
        let rows = columns.rows;
        if rows == 0 || work.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if targets.len() != rows {
            return Err(MlError::DimensionMismatch {
                expected: rows,
                actual: targets.len(),
            });
        }
        if let Some(&index) = work.iter().find(|&&i| i >= rows) {
            return Err(MlError::IndexOutOfRange { index, rows });
        }
        self.nodes.clear();
        let params = self.params;
        self.build(columns, targets, work, 0, &mut |indices: &[usize]| {
            Self::best_split(&params, columns, targets, indices, scratch)
        });
        Ok(())
    }

    /// Recursively build the subtree for `indices`, returning the node index.
    /// `split` finds the best `(feature, threshold)` of a node's rows, if any.
    fn build<S>(
        &mut self,
        columns: &RankedColumns,
        targets: &[f64],
        indices: &mut [usize],
        depth: usize,
        split: &mut S,
    ) -> usize
    where
        S: FnMut(&[usize]) -> Option<(usize, f64)>,
    {
        let mean = indices.iter().map(|&i| targets[i]).sum::<f64>() / indices.len() as f64;

        if depth >= self.params.max_depth
            || indices.len() < 2 * self.params.min_samples_leaf
            || Self::is_pure(targets, indices)
        {
            return self.push(Node::Leaf { prediction: mean });
        }

        match split(indices) {
            None => self.push(Node::Leaf { prediction: mean }),
            Some((feature, threshold)) => {
                // partition indices in place
                let mut split_point = 0;
                for i in 0..indices.len() {
                    if columns.value(indices[i], feature) <= threshold {
                        indices.swap(i, split_point);
                        split_point += 1;
                    }
                }
                if split_point == 0 || split_point == indices.len() {
                    return self.push(Node::Leaf { prediction: mean });
                }
                // reserve a slot for this split node before recursing so the root ends
                // up at index 0
                let node_index = self.push(Node::Leaf { prediction: mean });
                let (left_slice, right_slice) = indices.split_at_mut(split_point);
                let left = self.build(columns, targets, left_slice, depth + 1, split);
                let right = self.build(columns, targets, right_slice, depth + 1, split);
                self.nodes[node_index] = Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                };
                node_index
            }
        }
    }

    /// Flatten the fitted arena into [`FlatTree`] arrays (empty for an unfitted tree).
    /// Node indices are preserved, so the flat root is node 0 as well.
    pub fn flatten(&self) -> FlatTree {
        let mut flat = FlatTree {
            feature: Vec::with_capacity(self.nodes.len()),
            threshold: Vec::with_capacity(self.nodes.len()),
            left: Vec::with_capacity(self.nodes.len()),
            right: Vec::with_capacity(self.nodes.len()),
        };
        for node in &self.nodes {
            match *node {
                Node::Leaf { prediction } => {
                    flat.feature.push(LEAF);
                    flat.threshold.push(prediction);
                    flat.left.push(0);
                    flat.right.push(0);
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    flat.feature.push(feature as u32);
                    flat.threshold.push(threshold);
                    flat.left.push(left as u32);
                    flat.right.push(right as u32);
                }
            }
        }
        flat
    }

    fn push(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    fn is_pure(targets: &[f64], indices: &[usize]) -> bool {
        let first = targets[indices[0]];
        indices.iter().all(|&i| (targets[i] - first).abs() < 1e-12)
    }

    /// Find the (feature, threshold) pair with the largest SSE reduction, scanning
    /// each feature's rows in the order [`RankedColumns::sort_pairs`] gives (a
    /// two-level column scores its one candidate from [`RankedColumns::two_level_prefix`]).
    fn best_split(
        params: &TreeParams,
        columns: &RankedColumns,
        targets: &[f64],
        indices: &[usize],
        scratch: &mut SplitScratch,
    ) -> Option<(usize, f64)> {
        let total_sum: f64 = indices.iter().map(|&i| targets[i]).sum();
        let total_sq: f64 = indices.iter().map(|&i| targets[i] * targets[i]).sum();
        let n = indices.len() as f64;
        let parent_sse = total_sq - total_sum * total_sum / n;
        let stride = (indices.len() / params.max_split_candidates).max(1);

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)

        // Score the split after the first `left` rows of a feature's sorted order,
        // whose targets sum to `left_sum` (squares: `left_sq`), between the values
        // `boundary` and `next`: only at value changes, respecting the candidate stride
        let mut consider =
            |feature: usize, left: usize, left_sum: f64, left_sq: f64, boundary: f64, next: f64| {
                if boundary == next || !left.is_multiple_of(stride) {
                    return;
                }
                let left_n = left as f64;
                let right_n = n - left_n;
                if (left_n as usize) < params.min_samples_leaf
                    || (right_n as usize) < params.min_samples_leaf
                {
                    return;
                }
                let right_sum = total_sum - left_sum;
                let right_sq = total_sq - left_sq;
                let sse = (left_sq - left_sum * left_sum / left_n)
                    + (right_sq - right_sum * right_sum / right_n);
                let threshold = (boundary + next) / 2.0;
                if best.is_none_or(|(_, _, b)| sse < b) {
                    best = Some((feature, threshold, sse));
                }
            };

        for feature in 0..columns.levels.len() {
            if columns.levels[feature] == 2 {
                let prefix = columns.two_level_prefix(feature, targets, indices);
                if prefix.count > 0 && prefix.count < indices.len() {
                    let [boundary, next] = prefix.values;
                    consider(feature, prefix.count, prefix.sum, prefix.sq, boundary, next);
                }
                continue;
            }
            columns.sort_pairs(feature, targets, indices, scratch);
            // prefix sums for O(1) SSE evaluation at each split position
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            for (k, pair) in scratch.pairs.windows(2).enumerate() {
                let (boundary, target) = pair[0];
                left_sum += target;
                left_sq += target * target;
                consider(feature, k + 1, left_sum, left_sq, boundary, pair[1].0);
            }
        }

        best.and_then(|(feature, threshold, sse)| {
            // require an actual improvement over the parent
            if sse < parent_sse - 1e-12 {
                Some((feature, threshold))
            } else {
                None
            }
        })
    }
}

impl Regressor for RegressionTree {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        let indices: Vec<usize> = (0..data.len()).collect();
        self.fit_on_indices(data, data.targets(), &indices)
    }

    fn predict_one(&self, features: &[f64]) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        let mut index = 0usize;
        loop {
            match self.nodes[index] {
                Node::Leaf { prediction } => return prediction,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let value = features.get(feature).copied().unwrap_or(0.0);
                    index = if value <= threshold { left } else { right };
                }
            }
        }
    }

    fn is_fitted(&self) -> bool {
        !self.nodes.is_empty()
    }

    fn name(&self) -> &'static str {
        "regression-tree"
    }
}

/// The per-node comparison sort the rank-encoded split search replaced, kept verbatim
/// as the oracle of the bit-identity tests.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// Fit a tree on `indices` with the sort-based split search (the recursive build
    /// and its in-place partition are the ones the ranked fit uses).
    pub(crate) fn fit(
        params: TreeParams,
        data: &Dataset,
        targets: &[f64],
        indices: &[usize],
    ) -> RegressionTree {
        let mut tree = RegressionTree::new(params);
        let mut work = indices.to_vec();
        let columns = RankedColumns::new(data);
        tree.build(&columns, targets, &mut work, 0, &mut |rows: &[usize]| {
            best_split(&params, data, targets, rows)
        });
        tree
    }

    /// Find the (feature, threshold) pair with the largest SSE reduction.
    fn best_split(
        params: &TreeParams,
        data: &Dataset,
        targets: &[f64],
        indices: &[usize],
    ) -> Option<(usize, f64)> {
        let total_sum: f64 = indices.iter().map(|&i| targets[i]).sum();
        let total_sq: f64 = indices.iter().map(|&i| targets[i] * targets[i]).sum();
        let n = indices.len() as f64;
        let parent_sse = total_sq - total_sum * total_sum / n;

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)

        for feature in 0..data.n_features() {
            // candidate thresholds: sorted unique values (quantile-pruned)
            let mut values: Vec<(f64, f64)> = indices
                .iter()
                .map(|&i| (data.features(i)[feature], targets[i]))
                .collect();
            values.sort_by(|a, b| a.0.total_cmp(&b.0));

            let stride = (values.len() / params.max_split_candidates).max(1);

            // prefix sums for O(1) SSE evaluation at each split position
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            let mut k = 0usize;
            while k + 1 < values.len() {
                left_sum += values[k].1;
                left_sq += values[k].1 * values[k].1;
                let boundary = values[k].0;
                // only evaluate at value changes, respecting the candidate stride
                let next = values[k + 1].0;
                if boundary == next || !(k + 1).is_multiple_of(stride) {
                    k += 1;
                    continue;
                }
                let left_n = (k + 1) as f64;
                let right_n = n - left_n;
                if (left_n as usize) < params.min_samples_leaf
                    || (right_n as usize) < params.min_samples_leaf
                {
                    k += 1;
                    continue;
                }
                let right_sum = total_sum - left_sum;
                let right_sq = total_sq - left_sq;
                let sse = (left_sq - left_sum * left_sum / left_n)
                    + (right_sq - right_sum * right_sum / right_n);
                let threshold = (boundary + next) / 2.0;
                if best.is_none_or(|(_, _, b)| sse < b) {
                    best = Some((feature, threshold, sse));
                }
                k += 1;
            }
        }

        best.and_then(|(feature, threshold, sse)| {
            // require an actual improvement over the parent
            if sse < parent_sse - 1e-12 {
                Some((feature, threshold))
            } else {
                None
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_dataset() -> Dataset {
        // y = 1 for x < 5, y = 10 for x >= 5 — a single split should fit it perfectly
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..10 {
            let x = i as f64;
            d.push(vec![x], if x < 5.0 { 1.0 } else { 10.0 }).unwrap();
        }
        d
    }

    #[test]
    fn fits_a_step_function_exactly() {
        let mut tree = RegressionTree::new(TreeParams {
            max_depth: 3,
            min_samples_leaf: 1,
            max_split_candidates: 64,
        });
        let d = step_dataset();
        tree.fit(&d).unwrap();
        assert!(tree.is_fitted());
        assert!((tree.predict_one(&[0.0]) - 1.0).abs() < 1e-9);
        assert!((tree.predict_one(&[9.0]) - 10.0).abs() < 1e-9);
        assert!((tree.predict_one(&[4.4]) - 1.0).abs() < 1e-9);
        assert!((tree.predict_one(&[5.1]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn depth_zero_tree_predicts_the_mean() {
        let mut tree = RegressionTree::new(TreeParams {
            max_depth: 0,
            min_samples_leaf: 1,
            max_split_candidates: 8,
        });
        let d = step_dataset();
        tree.fit(&d).unwrap();
        assert_eq!(tree.flatten().len(), 1);
        assert_eq!(tree.depth(), 0);
        assert!((tree.predict_one(&[3.0]) - 5.5).abs() < 1e-9);
    }

    #[test]
    fn respects_max_depth() {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..256 {
            d.push(vec![i as f64], (i % 17) as f64).unwrap();
        }
        let mut tree = RegressionTree::new(TreeParams {
            max_depth: 3,
            min_samples_leaf: 1,
            max_split_candidates: 256,
        });
        tree.fit(&d).unwrap();
        assert!(tree.depth() <= 3, "depth {} exceeds limit", tree.depth());
    }

    #[test]
    fn min_samples_leaf_is_enforced() {
        let d = step_dataset();
        let mut tree = RegressionTree::new(TreeParams {
            max_depth: 10,
            min_samples_leaf: 6, // cannot split 10 rows into two leaves of >= 6
            max_split_candidates: 64,
        });
        tree.fit(&d).unwrap();
        assert_eq!(tree.flatten().len(), 1);
    }

    #[test]
    fn pure_targets_yield_a_single_leaf() {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..20 {
            d.push(vec![i as f64], 7.0).unwrap();
        }
        let mut tree = RegressionTree::new(TreeParams::default());
        tree.fit(&d).unwrap();
        assert_eq!(tree.flatten().len(), 1);
        assert!((tree.predict_one(&[100.0]) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn multifeature_split_selects_the_informative_feature() {
        // feature 0 is noise, feature 1 determines the target
        let mut d = Dataset::new(vec!["noise".into(), "signal".into()]);
        for i in 0..100 {
            let noise = ((i * 37) % 11) as f64;
            let signal = (i % 2) as f64;
            d.push(vec![noise, signal], signal * 100.0).unwrap();
        }
        let mut tree = RegressionTree::new(TreeParams {
            max_depth: 1,
            min_samples_leaf: 1,
            max_split_candidates: 64,
        });
        tree.fit(&d).unwrap();
        assert!((tree.predict_one(&[5.0, 0.0]) - 0.0).abs() < 1e-9);
        assert!((tree.predict_one(&[5.0, 1.0]) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn unfitted_tree_predicts_zero_and_reports_not_fitted() {
        let tree = RegressionTree::new(TreeParams::default());
        assert!(!tree.is_fitted());
        assert_eq!(tree.predict_one(&[1.0]), 0.0);
        let flat = tree.flatten();
        assert!(flat.is_empty());
        assert_eq!(flat.predict_one(&[1.0]), 0.0);
    }

    #[test]
    fn flattened_trees_predict_bit_identically() {
        let mut d = Dataset::new(vec!["x".into(), "y".into()]);
        for i in 0..200 {
            let x = (i % 23) as f64;
            let y = ((i * 7) % 13) as f64;
            d.push(
                vec![x, y],
                x * 1.5 + (y * y) * 0.25 + ((i % 5) as f64) * 0.01,
            )
            .unwrap();
        }
        let mut tree = RegressionTree::new(TreeParams {
            max_depth: 6,
            min_samples_leaf: 2,
            max_split_candidates: 32,
        });
        tree.fit(&d).unwrap();
        let flat = tree.flatten();
        assert_eq!(flat.len(), tree.nodes.len());
        for i in 0..d.len() {
            let arena = tree.predict_one(d.features(i));
            let flattened = flat.predict_one(d.features(i));
            assert_eq!(arena.to_bits(), flattened.to_bits(), "row {i}");
        }
        // out-of-schema probes behave identically too (missing features read as 0)
        assert_eq!(
            tree.predict_one(&[3.0]).to_bits(),
            flat.predict_one(&[3.0]).to_bits()
        );
    }

    #[test]
    fn out_of_range_indices_are_a_typed_error() {
        let d = step_dataset();
        let mut tree = RegressionTree::new(TreeParams::default());
        assert_eq!(
            tree.fit_on_indices(&d, d.targets(), &[0, 3, 10]),
            Err(MlError::IndexOutOfRange {
                index: 10,
                rows: 10
            })
        );
        assert!(!tree.is_fitted());
        assert!(tree.fit_on_indices(&d, d.targets(), &[0, 3, 9]).is_ok());
    }

    /// Stable comparison sort of `(value, target)` over `indices`: the order the
    /// rank-encoded search must reproduce.
    fn stably_sorted(data: &Dataset, feature: usize, indices: &[usize]) -> Vec<(u64, u64)> {
        let mut pairs: Vec<(f64, f64)> = indices
            .iter()
            .map(|&i| (data.features(i)[feature], data.target(i)))
            .collect();
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        pairs
            .into_iter()
            .map(|(v, t)| (v.to_bits(), t.to_bits()))
            .collect()
    }

    #[test]
    fn both_sort_branches_match_a_stable_sort() {
        // column 0 mixes -0.0 and 0.0 among few levels; column 1 is all distinct
        let mut d = Dataset::new(vec!["signed".into(), "fine".into()]);
        for i in 0..200 {
            let signed = [-0.0, 0.0, 1.0, -1.0][i % 4];
            d.push(vec![signed, ((i * 37) % 200) as f64 * 0.5], i as f64)
                .unwrap();
        }
        let columns = RankedColumns::new(&d);
        assert_eq!(columns.levels, vec![4, 200]);
        let mut scratch = SplitScratch::default();
        let large: Vec<usize> = (0..200).rev().collect();
        let small: Vec<usize> = vec![7, 3, 150, 3, 42, 8, 199, 0];
        for indices in [&large, &small] {
            for feature in 0..2 {
                // the fine column of the small set takes the comparison sort
                let counting =
                    columns.levels[feature] <= COUNTING_SORT_MAX_LEVELS_PER_ROW * indices.len();
                assert_eq!(counting, !(feature == 1 && indices.len() == small.len()));
                columns.sort_pairs(feature, d.targets(), indices, &mut scratch);
                let got: Vec<(u64, u64)> = scratch
                    .pairs
                    .iter()
                    .map(|(v, t)| (v.to_bits(), t.to_bits()))
                    .collect();
                assert_eq!(
                    got,
                    stably_sorted(&d, feature, indices),
                    "feature {feature}"
                );
            }
        }
    }

    /// Rows with a low-cardinality thread count, a column mixing `-0.0` and `0.0`, a
    /// constant, a one-hot flag, a high-cardinality size and a two-level column of
    /// only `-0.0` and `0.0`; a prefix of the rows is repeated as exact duplicates.
    fn oracle_dataset(rows: &[(usize, usize, u8, u32, u32, u8)], duplicates: usize) -> Dataset {
        let mut d = Dataset::new(
            ["threads", "signed", "constant", "flag", "size", "zero"]
                .iter()
                .map(|name| name.to_string())
                .collect(),
        );
        let repeated = rows.iter().chain(rows.iter().take(duplicates));
        for &(threads, signed, flag, size, noise, zero) in repeated {
            let threads = [2.0, 6.0, 12.0, 24.0, 48.0][threads];
            let signed: f64 = [-0.0, 0.0, 0.5][signed];
            let size = f64::from(size) / 997.0;
            let zero: f64 = [0.0, -0.0][usize::from(zero)];
            let target = 10.0 / threads
                + f64::from(flag) * 1.5
                + size * 3.0
                + if signed.is_sign_negative() { 0.25 } else { 0.0 }
                + if zero.is_sign_negative() { 0.75 } else { 0.0 }
                + f64::from(noise % 4) * 0.125;
            d.push(
                vec![threads, signed, 3.5, f64::from(flag), size, zero],
                target,
            )
            .unwrap();
        }
        d
    }

    /// A random index set over `rows` rows: a shuffled prefix, with some indices
    /// repeated.
    fn oracle_indices(rows: usize, seed: u64, keep: f64, repeats: usize) -> Vec<usize> {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut indices: Vec<usize> = (0..rows).collect();
        indices.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        indices.truncate(((rows as f64 * keep).ceil() as usize).clamp(1, rows));
        let head: Vec<usize> = indices.iter().copied().take(repeats).collect();
        indices.extend(head);
        indices
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// The rank-encoded split search fits the same trees as the per-node
        /// comparison sort, node for node and bit for bit.
        #[test]
        fn ranked_fits_are_bit_identical_to_the_sorting_oracle(
            rows in proptest::collection::vec(
                (0usize..5, 0usize..3, 0u8..2, 0u32..997, 0u32..64, 0u8..2),
                1..160,
            ),
            duplicates in 0usize..24,
            seed in 0u64..1_000_000,
            keep in 0.05f64..=1.0,
            repeats in 0usize..4,
            residual_shift in -2.0f64..2.0,
        ) {
            let data = oracle_dataset(&rows, duplicates);
            let indices = oracle_indices(data.len(), seed, keep, repeats);
            // boosting fits residuals, not raw targets
            let residuals: Vec<f64> = data.targets().iter().map(|t| t - residual_shift).collect();
            let fast = crate::BoostingParams::fast().tree;
            let fine = TreeParams { max_depth: 7, min_samples_leaf: 1, max_split_candidates: 5 };
            for params in [TreeParams::default(), fast, fine] {
                for targets in [data.targets(), residuals.as_slice()] {
                    let expected = reference::fit(params, &data, targets, &indices);
                    let mut tree = RegressionTree::new(params);
                    tree.fit_on_indices(&data, targets, &indices).unwrap();
                    proptest::prop_assert_eq!(&tree, &expected);
                    let (got, want) = (tree.flatten(), expected.flatten());
                    proptest::prop_assert_eq!(&got.feature, &want.feature);
                    let bits = |flat: &FlatTree| -> Vec<u64> {
                        flat.threshold.iter().map(|v| v.to_bits()).collect()
                    };
                    proptest::prop_assert_eq!(bits(&got), bits(&want));
                }
            }
        }
    }

    #[test]
    fn empty_dataset_is_rejected() {
        let mut tree = RegressionTree::new(TreeParams::default());
        assert!(tree.fit(&Dataset::new(vec!["x".into()])).is_err());
    }

    #[test]
    fn min_width_reports_the_widest_split_feature() {
        let unfitted = RegressionTree::new(TreeParams::default());
        assert_eq!(unfitted.flatten().min_width(), 0);

        let mut d = Dataset::new(vec!["a".into(), "b".into(), "c".into()]);
        for i in 0..60 {
            // only feature 2 is informative, so every split uses it
            d.push(vec![0.0, 1.0, (i % 10) as f64], ((i % 10) / 5) as f64)
                .unwrap();
        }
        let mut tree = RegressionTree::new(TreeParams {
            max_depth: 2,
            min_samples_leaf: 1,
            max_split_candidates: 32,
        });
        tree.fit(&d).unwrap();
        assert_eq!(tree.flatten().min_width(), 3);
    }
}
