//! Feature encoding for the performance-prediction models.
//!
//! The paper trains one model for the host and one for the device; both use "the input
//! size, the available computing resources, and the thread allocation strategies" as
//! features (Section III-B).  We encode them as: thread count, a one-hot affinity
//! encoding, and the size of the device's input share in gigabytes.
//!
//! Every side uses the same schema; side 0 is the host and side `d + 1` accelerator
//! `d`, each row consumed by that side's own model.  The sides differ only in their
//! first affinity indicator (`none` on the host, `balanced` on a device) and in the
//! name of the thread column.

use hetero_platform::Affinity;

/// The affinity of `side` (0 is the host, `d + 1` accelerator `d`) whose one-hot
/// indicator comes first: `none` on the host, `balanced` on a device.  The other two
/// indicators are `scatter` and `compact` on every side.
fn first_affinity(side: usize) -> Affinity {
    if side == 0 {
        Affinity::None
    } else {
        Affinity::Balanced
    }
}

/// Names of `side`'s model features, in column order.
pub fn feature_names(side: usize) -> Vec<String> {
    let threads = if side == 0 {
        "host_threads"
    } else {
        "device_threads"
    };
    [
        threads.to_string(),
        format!("affinity_{}", first_affinity(side).name()),
        "affinity_scatter".to_string(),
        "affinity_compact".to_string(),
        "input_gb".to_string(),
    ]
    .into()
}

/// Feature vector for one experiment on `side`.
pub fn features(side: usize, threads: u32, affinity: Affinity, bytes: u64) -> Vec<f64> {
    vec![
        f64::from(threads),
        f64::from(affinity == first_affinity(side)),
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
        for side in [0, 1, 2] {
            assert_eq!(
                features(side, 24, Affinity::Scatter, 1_000_000_000).len(),
                feature_names(side).len()
            );
        }
        assert_eq!(
            feature_names(0),
            [
                "host_threads",
                "affinity_none",
                "affinity_scatter",
                "affinity_compact",
                "input_gb"
            ]
        );
        assert_eq!(
            feature_names(1),
            [
                "device_threads",
                "affinity_balanced",
                "affinity_scatter",
                "affinity_compact",
                "input_gb"
            ]
        );
    }

    #[test]
    fn one_hot_encoding_is_exclusive() {
        for affinity in [Affinity::None, Affinity::Scatter, Affinity::Compact] {
            let f = features(0, 2, affinity, 0);
            let ones = f[1] + f[2] + f[3];
            assert_eq!(ones, 1.0, "exactly one affinity indicator for {affinity}");
        }
        for affinity in [Affinity::Balanced, Affinity::Scatter, Affinity::Compact] {
            let f = features(1, 2, affinity, 0);
            let ones = f[1] + f[2] + f[3];
            assert_eq!(ones, 1.0);
        }
    }

    #[test]
    fn size_is_reported_in_gigabytes() {
        let f = features(0, 48, Affinity::Scatter, 3_170_000_000);
        assert!((f[4] - 3.17).abs() < 1e-9);
        let f = features(1, 240, Affinity::Balanced, 500_000_000);
        assert!((f[4] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn thread_count_is_the_first_feature() {
        assert_eq!(features(0, 36, Affinity::None, 0)[0], 36.0);
        assert_eq!(features(1, 180, Affinity::Compact, 0)[0], 180.0);
    }

    #[test]
    fn share_bytes_rounds_like_the_workload_fraction() {
        assert_eq!(share_bytes(1_000_000_000, 300), 300_000_000);
        // share rounding matches WorkloadProfile::fraction
        assert_eq!(share_bytes(3, 500), 2); // 1.5 rounds half away from zero
        assert_eq!(share_bytes(1_000, 333), 333);
    }
}
