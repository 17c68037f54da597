//! # workdist
//!
//! Facade crate for the reproduction of *Combinatorial Optimization of Work
//! Distribution on Heterogeneous Systems* (Memeti & Pllana, ICPP Workshops 2016).
//!
//! The actual functionality lives in the member crates, re-exported here so that a
//! downstream user can depend on a single crate:
//!
//! * [`platform`] — simulator of a heterogeneous node (2× Xeon E5 host + Xeon Phi device)
//! * [`dna`] — the paper's genomes and their workload profiles
//! * [`ml`] — regression models (boosted decision trees, linear, Poisson)
//! * [`opt`] — combinatorial optimization (simulated annealing, enumeration, ...)
//! * [`dist`] — sharded multi-node campaign coordinator with a persistent result store
//! * [`obs`] — observability: the `Recorder` trait, metrics registry, JSONL event export
//! * [`autotune`] — the paper's contribution: EM / EML / SAM / SAML autotuning
//!
//! ## Quick start
//!
//! ```
//! use workdist::autotune::{Autotuner, MethodKind};
//!
//! // Build the paper's platform and application (scaled-down training campaign),
//! // train the performance model and run Simulated Annealing + Machine Learning.
//! let mut tuner = Autotuner::quick_setup(42);
//! let outcome = tuner.run(MethodKind::Saml, 100).unwrap();
//! assert!(outcome.measured_energy.is_finite() && outcome.measured_energy > 0.0);
//! ```

pub use dna_analysis as dna;
pub use hetero_autotune as autotune;
pub use hetero_platform as platform;
pub use wd_dist as dist;
pub use wd_ml as ml;
pub use wd_obs as obs;
pub use wd_opt as opt;

/// The version of the reproduction library.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// Short human-readable description of the reproduced paper.
pub const PAPER: &str = "Memeti & Pllana, Combinatorial Optimization of Work Distribution \
                         on Heterogeneous Systems, ICPP Workshops 2016";

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_semver_like() {
        let parts: Vec<_> = super::VERSION.split('.').collect();
        assert_eq!(parts.len(), 3);
        for p in parts {
            p.parse::<u64>().expect("numeric version component");
        }
    }
}
