//! Feature encoding for the performance-prediction models.
//!
//! The paper trains one model for the host and one for the device; both use "the input
//! size, the available computing resources, and the thread allocation strategies" as
//! features (Section III-B).  We encode them as: thread count, a one-hot affinity
//! encoding, and the size of the device's input share in gigabytes.
//!
//! For a node with N accelerators the same device schema applies per accelerator,
//! each row consumed by that accelerator's own model.

use hetero_platform::Affinity;

/// Names of the host-model features, in column order.
pub fn host_feature_names() -> Vec<String> {
    vec![
        "host_threads".to_string(),
        "affinity_none".to_string(),
        "affinity_scatter".to_string(),
        "affinity_compact".to_string(),
        "input_gb".to_string(),
    ]
}

/// Names of the device-model features, in column order.
pub fn device_feature_names() -> Vec<String> {
    vec![
        "device_threads".to_string(),
        "affinity_balanced".to_string(),
        "affinity_scatter".to_string(),
        "affinity_compact".to_string(),
        "input_gb".to_string(),
    ]
}

/// Feature vector for one host-side experiment.
pub fn host_features(threads: u32, affinity: Affinity, bytes: u64) -> Vec<f64> {
    vec![
        f64::from(threads),
        f64::from(affinity == Affinity::None),
        f64::from(affinity == Affinity::Scatter),
        f64::from(affinity == Affinity::Compact),
        bytes as f64 / 1e9,
    ]
}

/// Feature vector for one device-side experiment.
pub fn device_features(threads: u32, affinity: Affinity, bytes: u64) -> Vec<f64> {
    vec![
        f64::from(threads),
        f64::from(affinity == Affinity::Balanced),
        f64::from(affinity == Affinity::Scatter),
        f64::from(affinity == Affinity::Compact),
        bytes as f64 / 1e9,
    ]
}

/// Bytes of a `total_bytes` workload that a share of `permille` receives — the same
/// rounding [`hetero_platform::WorkloadProfile::fraction`] applies, so prediction
/// features describe exactly the share the simulator would execute.
pub fn share_bytes(total_bytes: u64, permille: u32) -> u64 {
    (total_bytes as f64 * f64::from(permille.min(1000)) / 1000.0).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_vectors_match_their_schemas() {
        assert_eq!(
            host_features(24, Affinity::Scatter, 1_000_000_000).len(),
            host_feature_names().len()
        );
        assert_eq!(
            device_features(120, Affinity::Balanced, 1_000_000_000).len(),
            device_feature_names().len()
        );
    }

    #[test]
    fn one_hot_encoding_is_exclusive() {
        for affinity in [Affinity::None, Affinity::Scatter, Affinity::Compact] {
            let f = host_features(2, affinity, 0);
            let ones = f[1] + f[2] + f[3];
            assert_eq!(ones, 1.0, "exactly one affinity indicator for {affinity}");
        }
        for affinity in [Affinity::Balanced, Affinity::Scatter, Affinity::Compact] {
            let f = device_features(2, affinity, 0);
            let ones = f[1] + f[2] + f[3];
            assert_eq!(ones, 1.0);
        }
    }

    #[test]
    fn size_is_reported_in_gigabytes() {
        let f = host_features(48, Affinity::Scatter, 3_170_000_000);
        assert!((f[4] - 3.17).abs() < 1e-9);
        let f = device_features(240, Affinity::Balanced, 500_000_000);
        assert!((f[4] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn thread_count_is_the_first_feature() {
        assert_eq!(host_features(36, Affinity::None, 0)[0], 36.0);
        assert_eq!(device_features(180, Affinity::Compact, 0)[0], 180.0);
    }

    #[test]
    fn share_bytes_rounds_like_the_workload_fraction() {
        assert_eq!(share_bytes(1_000_000_000, 300), 300_000_000);
        // share rounding matches WorkloadProfile::fraction
        assert_eq!(share_bytes(3, 500), 2); // 1.5 rounds half away from zero
        assert_eq!(share_bytes(1_000, 333), 333);
    }
}
