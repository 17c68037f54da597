//! One set of trained models serving many tuning requests.
//!
//! Every clone of a boosted-tree model shares one threshold-cell memo, so a
//! request served after others reads predictions those others walked, possibly
//! for different workload sizes.  Each request's outcome must still equal the
//! same request served by freshly trained models whose memo is cold: same best
//! configuration, same search-energy bits, same evaluation count and the same
//! cache counters (the evaluator's own tables are per request; the memo sits
//! below them and must not change what they count).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workdist::autotune::{
    MethodKind, MethodOutcome, MethodRunner, TrainedModels, TrainingCampaign,
};
use workdist::ml::BoostingParams;
use workdist::platform::{HeterogeneousPlatform, WorkloadProfile};

const BUDGET: usize = 400;

fn train(platform: &HeterogeneousPlatform) -> TrainedModels {
    TrainingCampaign::reduced().run(platform, BoostingParams::fast())
}

/// A seeded mix of SAML, GAML and EML requests over workloads of different sizes.
fn requests(seed: u64, count: usize) -> Vec<(MethodKind, u64, u64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let method = [MethodKind::Saml, MethodKind::Gaml, MethodKind::Eml][i % 3];
            let bytes = rng.gen_range(100_000_000u64..3_500_000_000);
            (method, bytes, rng.gen_range(0u64..1 << 32))
        })
        .collect()
}

fn serve(
    platform: &HeterogeneousPlatform,
    models: &TrainedModels,
    (method, bytes, seed): (MethodKind, u64, u64),
) -> MethodOutcome {
    let workload = WorkloadProfile::dna_scan("request", bytes);
    MethodRunner::new(platform, &workload, Some(models), seed)
        .run(method, BUDGET)
        .expect("the reduced campaign covers the paper space")
}

/// The parts of an outcome a warm memo must not change.
fn summary(outcome: &MethodOutcome) -> String {
    format!(
        "{:?} {} {:#x} {} {:?}",
        outcome.best_config,
        outcome.method,
        outcome.search_energy.to_bits(),
        outcome.evaluations,
        outcome.cache,
    )
}

#[test]
fn requests_served_from_shared_models_match_cold_models() {
    let platform = HeterogeneousPlatform::emil();
    let shared = train(&platform);
    let requests = requests(0x6d65_6d6f, 9);

    // two passes over the mix: the first fills the memo across requests of
    // different sizes, the second is served almost entirely from it
    let first: Vec<String> = requests
        .iter()
        .map(|&request| summary(&serve(&platform, &shared, request)))
        .collect();
    let second: Vec<String> = requests
        .iter()
        .map(|&request| summary(&serve(&platform, &shared, request)))
        .collect();

    for (index, &request) in requests.iter().enumerate() {
        let cold = summary(&serve(&platform, &train(&platform), request));
        assert_eq!(
            first[index], cold,
            "request {index} {request:?}, first pass"
        );
        assert_eq!(
            second[index], cold,
            "request {index} {request:?}, second pass"
        );
    }
}
