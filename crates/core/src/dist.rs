//! Sharded, store-backed drivers for the enumeration-based reference methods.
//!
//! This module bridges the autotuner to the [`wd_dist`] campaign coordinator:
//!
//! * [`SystemConfiguration`] gets a stable [`wd_dist::ConfigKey`] encoding, so
//!   campaigns over the paper's grids persist to a [`wd_dist::JsonlStore`] and resume
//!   across processes;
//! * [`run_enumeration_sharded`] runs EM or EML as a [`ShardedCampaign`] — one
//!   simulated node per shard — and returns the usual [`MethodOutcome`], bit-identical
//!   to the single-node [`MethodRunner`](crate::MethodRunner) result.

use hetero_platform::{Affinity, HeterogeneousPlatform, WorkloadProfile};
use wd_dist::{ConfigKey, ResultStore, ShardedCampaign};
use wd_opt::OptimizationTrace;

use crate::config::{ConfigurationSpace, DeviceSetting, SystemConfiguration};
use crate::evaluator::MeasurementEvaluator;
use crate::methods::{MethodKind, MethodOutcome};
use crate::training::TrainedModels;

/// Single-accelerator `SystemConfiguration`s encode as `ht|ha|dt|da|hp` (threads,
/// affinity name, threads, affinity name, host permille) — e.g.
/// `48|scatter|240|balanced|600` — exactly the schema earlier releases persisted, so
/// existing single-device stores stay warm.  N-accelerator configurations extend the
/// schema to `ht|ha|hp|dt1|da1|dp1|...|dtN|daN|dpN` (3 + 3N fields, one
/// threads/affinity/permille triple per device).  The two formats are distinguished
/// by field count (5 vs. ≥ 6); both are part of the on-disk store schema: changing
/// them would orphan persisted campaigns.
///
/// Decoding validates the share invariant: keys whose permilles exceed 1000 or do not
/// sum to 1000 (e.g. a hand-edited `...|1200`) return `None` instead of materialising
/// a configuration that evaluates like another one but occupies a distinct record.
impl ConfigKey for SystemConfiguration {
    fn encode_key(&self) -> String {
        if self.accelerator_count() == 1 {
            format!(
                "{}|{}|{}|{}|{}",
                self.host_threads,
                self.host_affinity.name(),
                self.device_threads(),
                self.device_affinity().name(),
                self.host_permille()
            )
        } else {
            let mut key = format!(
                "{}|{}|{}",
                self.host_threads,
                self.host_affinity.name(),
                self.host_permille()
            );
            for device in self.devices() {
                key.push_str(&format!(
                    "|{}|{}|{}",
                    device.threads,
                    device.affinity.name(),
                    device.permille
                ));
            }
            key
        }
    }

    fn decode_key(key: &str) -> Option<Self> {
        let parts: Vec<&str> = key.split('|').collect();
        if parts.len() == 5 {
            // legacy single-accelerator schema: the device share is implied
            let host_permille: u32 = parts[4].parse().ok()?;
            if host_permille > 1000 {
                return None;
            }
            return SystemConfiguration::new(
                parts[0].parse().ok()?,
                Affinity::parse(parts[1])?,
                host_permille,
                vec![DeviceSetting::new(
                    parts[2].parse().ok()?,
                    Affinity::parse(parts[3])?,
                    1000 - host_permille,
                )],
            )
            .ok();
        }
        if parts.len() < 6 || !(parts.len() - 3).is_multiple_of(3) {
            return None;
        }
        let devices = parts[3..]
            .chunks(3)
            .map(|chunk| {
                Some(DeviceSetting::new(
                    chunk[0].parse().ok()?,
                    Affinity::parse(chunk[1])?,
                    chunk[2].parse().ok()?,
                ))
            })
            .collect::<Option<Vec<DeviceSetting>>>()?;
        SystemConfiguration::new(
            parts[0].parse().ok()?,
            Affinity::parse(parts[1])?,
            parts[2].parse().ok()?,
            devices,
        )
        .ok()
    }
}

/// Run one of the exhaustive methods (EM or EML) as a sharded campaign over `grid`,
/// recording every evaluation into `store`.
///
/// The returned outcome is bit-identical to `MethodRunner::run` with the same grid:
/// the campaign merges per-shard bests with the same lowest-energy/earliest-index rule
/// the batched enumeration uses internally.  `cache` carries the campaign's store
/// hit/miss counters — against a warm store `cache.misses` is 0 and the method costs
/// nothing.
///
/// **The store must be dedicated to this `(method, workload, platform)` combination**:
/// records carry no energy provenance, so a store populated under a different
/// objective would be consumed as legitimate warm results.  For persistent stores,
/// open them with [`wd_dist::JsonlStore::open_with_context`] and
/// [`campaign_context`] so cross-objective reuse fails loudly instead.
///
/// Returns an error for the annealing methods (they are sequential walks; sharding
/// does not apply), for EML without trained models, for EM over a grid with a
/// configuration the platform cannot run, and if the platform cannot run the winner.
pub fn run_enumeration_sharded<R>(
    platform: &HeterogeneousPlatform,
    workload: &WorkloadProfile,
    models: Option<&TrainedModels>,
    method: MethodKind,
    grid: &ConfigurationSpace,
    shard_count: usize,
    store: &R,
) -> Result<MethodOutcome, String>
where
    R: ResultStore<SystemConfiguration> + Sync,
{
    if !method.uses_enumeration() {
        return Err(format!(
            "{method} is an annealing method; sharded campaigns drive the exhaustive methods (EM, EML)"
        ));
    }
    let measurement = MeasurementEvaluator::new(platform.clone(), workload.clone());
    let campaign = ShardedCampaign::new(shard_count);
    let outcome = if method.uses_prediction() {
        let models = models.ok_or_else(|| {
            format!("{method} requires trained prediction models; run the training campaign first")
        })?;
        // EML campaigns score shards from the factorized per-device time tables
        // (bit-identical to the direct prediction path, a fraction of the model
        // queries); the grid itself streams lazily through the shard views.  A store
        // that already covers the whole grid answers everything itself — skip the
        // table construction so fully-warm resumes keep costing zero model queries
        // (stores are dedicated to one campaign, see above, so `len` is a faithful
        // coverage bound).
        use wd_opt::SearchSpace as _;
        let prediction = models.prediction_evaluator(workload.clone());
        let fully_warm = grid.space_len().is_some_and(|len| store.len() >= len);
        if fully_warm {
            campaign.run(grid, &prediction, store)
        } else {
            campaign.run(grid, &prediction.tabulated(grid), store)
        }
    } else {
        measurement
            .check_space(grid)
            .map_err(|error| format!("{method}: {error}"))?;
        campaign.run(grid, &measurement, store)
    }
    .map_err(|error| format!("sharded campaign failed: {error}"))?;
    let measured = measurement
        .measure(&outcome.best_config)
        .map_err(|error| format!("{method}: {error}"))?;
    Ok(MethodOutcome {
        method,
        best_config: outcome.best_config,
        search_energy: outcome.best_energy,
        measured_energy: measured.t_host.max(measured.t_device),
        evaluations: outcome.evaluations,
        cache: outcome.stats,
        stats: measured.stats,
        trace: OptimizationTrace::new(),
    })
}

/// The store-context string of a sharded campaign: identifies what the recorded
/// energies depend on — the method's evaluation mode, the workload and the input size
/// — so a persistent store opened with
/// [`wd_dist::JsonlStore::open_with_context`] refuses to serve a different campaign.
/// (The platform is assumed fixed per deployment; include your own platform tag in
/// the context when that does not hold.)
pub fn campaign_context(method: MethodKind, workload: &WorkloadProfile) -> String {
    format!(
        "{}|{}|{}",
        method.name().to_ascii_lowercase(),
        workload.name,
        workload.bytes
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::MethodRunner;
    use dna_analysis::Genome;
    use wd_dist::{JsonlStore, MemoryStore};
    use wd_opt::CacheStats;

    fn platform() -> HeterogeneousPlatform {
        HeterogeneousPlatform::emil()
    }

    #[test]
    fn system_configuration_keys_round_trip() {
        use wd_opt::SearchSpace as _;
        for space in [ConfigurationSpace::tiny(), ConfigurationSpace::tiny_multi()] {
            for config in space.enumerate().unwrap() {
                let key = config.encode_key();
                assert!(!key.contains(['"', '\\', '\n', '\r']));
                assert_eq!(SystemConfiguration::decode_key(&key), Some(config));
            }
        }
        // single-accelerator configurations keep the legacy 5-field schema, so stores
        // persisted before the N-way generalisation stay warm
        let legacy = SystemConfiguration::with_host_percent(
            48,
            Affinity::Scatter,
            240,
            Affinity::Balanced,
            60,
        );
        assert_eq!(legacy.encode_key(), "48|scatter|240|balanced|600");

        assert_eq!(SystemConfiguration::decode_key("48|scatter|240"), None);
        assert_eq!(
            SystemConfiguration::decode_key("48|sideways|240|balanced|600"),
            None
        );
        assert_eq!(
            SystemConfiguration::decode_key("48|scatter|240|balanced|600|extra"),
            None
        );
    }

    #[test]
    fn out_of_range_shares_decode_to_none() {
        // Regression: `host_permille` used to be an unvalidated public field, so the
        // key `...|1200` decoded into a configuration that evaluates identically to
        // `...|1000` yet occupies a distinct store record.  Decoding now enforces the
        // share invariant.
        assert_eq!(
            SystemConfiguration::decode_key("48|scatter|240|balanced|1200"),
            None
        );
        assert_eq!(
            // extended schema whose shares do not sum to 1000
            SystemConfiguration::decode_key("48|scatter|500|240|balanced|300|448|balanced|300"),
            None
        );
        assert_eq!(
            SystemConfiguration::decode_key("48|scatter|500|240|balanced|1200|448|balanced|0"),
            None
        );
    }

    #[test]
    fn multi_accelerator_keys_use_the_extended_schema() {
        let config = SystemConfiguration::new(
            48,
            Affinity::Scatter,
            500,
            vec![
                DeviceSetting::new(240, Affinity::Balanced, 300),
                DeviceSetting::new(448, Affinity::Balanced, 200),
            ],
        )
        .unwrap();
        let key = config.encode_key();
        assert_eq!(key, "48|scatter|500|240|balanced|300|448|balanced|200");
        assert_eq!(SystemConfiguration::decode_key(&key), Some(config));
    }

    #[test]
    fn sharded_em_matches_the_method_runner_bit_for_bit() {
        let platform = platform();
        let workload = Genome::Cat.workload();
        let grid = ConfigurationSpace::tiny();
        let single = MethodRunner::new(&platform, &workload, None, 3)
            .with_grid(grid.clone())
            .run(MethodKind::Em, 0)
            .unwrap();

        for shards in [1usize, 2, 4, 9] {
            let store = MemoryStore::new();
            let sharded = run_enumeration_sharded(
                &platform,
                &workload,
                None,
                MethodKind::Em,
                &grid,
                shards,
                &store,
            )
            .unwrap();
            assert_eq!(sharded.best_config, single.best_config, "{shards} shards");
            assert_eq!(
                sharded.search_energy.to_bits(),
                single.search_energy.to_bits()
            );
            assert_eq!(sharded.evaluations, single.evaluations);
            assert_eq!(sharded.cache.misses, single.evaluations);
        }
    }

    #[test]
    fn sharded_eml_requires_models_and_annealers_are_rejected() {
        let platform = platform();
        let workload = Genome::Dog.workload();
        let grid = ConfigurationSpace::tiny();
        let store = MemoryStore::new();
        assert!(run_enumeration_sharded(
            &platform,
            &workload,
            None,
            MethodKind::Eml,
            &grid,
            2,
            &store
        )
        .is_err());
        assert!(run_enumeration_sharded(
            &platform,
            &workload,
            None,
            MethodKind::Sam,
            &grid,
            2,
            &store
        )
        .is_err());
    }

    #[test]
    fn sharded_em_resumes_from_a_persistent_store_for_free() {
        let platform = platform();
        let workload = Genome::Mouse.workload();
        let grid = ConfigurationSpace::tiny();
        let path =
            std::env::temp_dir().join(format!("hetero_autotune-dist-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let context = campaign_context(MethodKind::Em, &workload);
        let cold = {
            let store: JsonlStore<SystemConfiguration> =
                JsonlStore::open_with_context(&path, &context).unwrap();
            run_enumeration_sharded(&platform, &workload, None, MethodKind::Em, &grid, 4, &store)
                .unwrap()
        };
        assert_eq!(cold.cache.hits, 0);
        assert_eq!(cold.cache.misses as u128, grid.total_configurations());

        // the context stamp refuses a different campaign against this store
        assert!(JsonlStore::<SystemConfiguration>::open_with_context(
            &path,
            &campaign_context(MethodKind::Eml, &workload)
        )
        .is_err());

        // a fresh store instance reloads the file: zero new evaluations
        let store: JsonlStore<SystemConfiguration> =
            JsonlStore::open_with_context(&path, &context).unwrap();
        assert_eq!(store.len() as u128, grid.total_configurations());
        let warm =
            run_enumeration_sharded(&platform, &workload, None, MethodKind::Em, &grid, 4, &store)
                .unwrap();
        assert_eq!(warm.cache.misses, 0);
        assert_eq!(warm.best_config, cold.best_config);
        assert_eq!(warm.search_energy.to_bits(), cold.search_energy.to_bits());
        assert_eq!(
            store.recorded_stats(),
            CacheStats {
                hits: grid.total_configurations() as usize,
                misses: grid.total_configurations() as usize,
            }
        );
        std::fs::remove_file(&path).unwrap();
    }
}
