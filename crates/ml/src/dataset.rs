//! Feature/target storage, shuffling and train/test splitting.
//!
//! Features are stored as one contiguous **row-major matrix** (`len × n_features`
//! values in one allocation), so batched inference ([`crate::Regressor::predict_batch`])
//! can walk the rows without chasing one heap allocation per row.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::error::MlError;

/// A supervised-learning dataset: rows of numeric features plus one numeric target per
/// row (execution time in seconds throughout the reproduction).
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    feature_names: Vec<String>,
    /// Row-major feature matrix: `values[i * n_features .. (i + 1) * n_features]` is
    /// row `i`.
    values: Vec<f64>,
    targets: Vec<f64>,
}

impl Dataset {
    /// Create an empty dataset with the given feature schema.
    pub fn new(feature_names: Vec<String>) -> Self {
        Dataset {
            feature_names,
            values: Vec::new(),
            targets: Vec::new(),
        }
    }

    /// Append one row.
    pub fn push(&mut self, features: Vec<f64>, target: f64) -> Result<(), MlError> {
        if features.len() != self.feature_names.len() {
            return Err(MlError::DimensionMismatch {
                expected: self.feature_names.len(),
                actual: features.len(),
            });
        }
        if features.iter().any(|v| !v.is_finite()) {
            return Err(MlError::NonFiniteValue {
                context: format!("features of row {}", self.targets.len()),
            });
        }
        if !target.is_finite() {
            return Err(MlError::NonFiniteValue {
                context: format!("target of row {}", self.targets.len()),
            });
        }
        self.values.extend_from_slice(&features);
        self.targets.push(target);
        Ok(())
    }

    /// Names of the features, in column order.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.feature_names.len()
    }

    /// The whole feature matrix, row-major (`len() * n_features()` values) — the shape
    /// [`crate::Regressor::predict_batch`] consumes directly.
    pub fn feature_matrix(&self) -> &[f64] {
        &self.values
    }

    /// Features of row `i`.
    pub fn features(&self, i: usize) -> &[f64] {
        let width = self.n_features();
        &self.values[i * width..(i + 1) * width]
    }

    /// Target of row `i`.
    pub fn target(&self, i: usize) -> f64 {
        self.targets[i]
    }

    /// All targets.
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// Mean of the targets (0 for an empty dataset).
    pub fn target_mean(&self) -> f64 {
        if self.targets.is_empty() {
            0.0
        } else {
            self.targets.iter().sum::<f64>() / self.targets.len() as f64
        }
    }

    /// Append row `i` of `source` without revalidation (rows already passed `push`).
    pub(crate) fn push_row_from(&mut self, source: &Dataset, i: usize) {
        self.values.extend_from_slice(source.features(i));
        self.targets.push(source.targets[i]);
    }

    /// Deterministically shuffle the rows.
    pub fn shuffle(&mut self, seed: u64) {
        let mut order: Vec<usize> = (0..self.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        order.shuffle(&mut rng);
        let mut shuffled = Dataset::new(self.feature_names.clone());
        shuffled.values.reserve(self.values.len());
        shuffled.targets.reserve(self.targets.len());
        for &i in &order {
            shuffled.push_row_from(self, i);
        }
        *self = shuffled;
    }

    /// Split into `(train, test)` with `test_fraction` of the rows (rounded down) going
    /// to the test set after a deterministic shuffle.
    ///
    /// The paper uses a 50/50 split of its 7 200 experiments ("half of the experiments
    /// were used to train the prediction model, and the other half for evaluation").
    pub fn train_test_split(&self, test_fraction: f64, seed: u64) -> (Dataset, Dataset) {
        let test_fraction = test_fraction.clamp(0.0, 1.0);
        let mut order: Vec<usize> = (0..self.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        order.shuffle(&mut rng);
        let test_len = (self.len() as f64 * test_fraction).floor() as usize;

        let mut test = Dataset::new(self.feature_names.clone());
        let mut train = Dataset::new(self.feature_names.clone());
        for (rank, &i) in order.iter().enumerate() {
            let destination = if rank < test_len {
                &mut test
            } else {
                &mut train
            };
            destination.push_row_from(self, i);
        }
        (train, test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Dataset {
        let mut d = Dataset::new(vec!["a".into(), "b".into()]);
        for i in 0..n {
            d.push(vec![i as f64, (i * 2) as f64], i as f64 * 10.0)
                .unwrap();
        }
        d
    }

    #[test]
    fn push_validates_dimensions_and_finiteness() {
        let mut d = Dataset::new(vec!["a".into(), "b".into()]);
        assert!(d.push(vec![1.0], 0.0).is_err());
        assert!(d.push(vec![1.0, f64::NAN], 0.0).is_err());
        assert!(d.push(vec![1.0, 2.0], f64::INFINITY).is_err());
        assert!(d.push(vec![1.0, 2.0], 3.0).is_ok());
        assert_eq!(d.len(), 1);
        assert_eq!(d.features(0), &[1.0, 2.0]);
        assert_eq!(d.target(0), 3.0);
    }

    #[test]
    fn feature_matrix_is_row_major() {
        let d = sample(3);
        assert_eq!(d.feature_matrix(), &[0.0, 0.0, 1.0, 2.0, 2.0, 4.0]);
        assert_eq!(d.feature_matrix().len(), d.len() * d.n_features());
        for i in 0..d.len() {
            assert_eq!(
                d.features(i),
                &d.feature_matrix()[i * d.n_features()..(i + 1) * d.n_features()]
            );
        }
    }

    #[test]
    fn split_partitions_all_rows() {
        let d = sample(101);
        let (train, test) = d.train_test_split(0.5, 7);
        assert_eq!(train.len() + test.len(), 101);
        assert_eq!(test.len(), 50);
        // same split for same seed
        let (train2, test2) = d.train_test_split(0.5, 7);
        assert_eq!(train, train2);
        assert_eq!(test, test2);
        // different seed shuffles differently
        let (train3, _) = d.train_test_split(0.5, 8);
        assert_ne!(train, train3);
    }

    #[test]
    fn split_edge_fractions() {
        let d = sample(10);
        let (train, test) = d.train_test_split(0.0, 1);
        assert_eq!(train.len(), 10);
        assert!(test.is_empty());
        let (train, test) = d.train_test_split(1.0, 1);
        assert!(train.is_empty());
        assert_eq!(test.len(), 10);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let d = sample(50);
        let mut shuffled = d.clone();
        shuffled.shuffle(3);
        assert_eq!(shuffled.len(), d.len());
        let mut original: Vec<f64> = d.targets().to_vec();
        let mut after: Vec<f64> = shuffled.targets().to_vec();
        assert_ne!(original, after, "shuffle should change the order");
        original.sort_by(f64::total_cmp);
        after.sort_by(f64::total_cmp);
        assert_eq!(original, after, "shuffle must preserve the multiset");
        // rows stay intact: features still travel with their target
        for i in 0..shuffled.len() {
            let target = shuffled.target(i);
            assert_eq!(shuffled.features(i), &[target / 10.0, target / 5.0]);
        }
    }

    #[test]
    fn target_mean_of_a_dataset() {
        let d = sample(4); // targets 0,10,20,30
        assert!((d.target_mean() - 15.0).abs() < 1e-12);
        assert_eq!(Dataset::new(vec![]).target_mean(), 0.0);
    }
}
