//! # hetero-autotune
//!
//! The primary contribution of *Memeti & Pllana, Combinatorial Optimization of Work
//! Distribution on Heterogeneous Systems, ICPP Workshops 2016*, reproduced as a Rust
//! library: an autotuner that determines a near-optimal *system configuration* — number
//! of threads, thread affinity and workload fraction for the host CPUs and the
//! accelerator — such that the overall execution time of a data-parallel application is
//! minimised.
//!
//! The library combines:
//!
//! * a discrete [`ConfigurationSpace`] (the paper's Table I),
//! * performance evaluation by **measurement** (the [`hetero_platform`] simulator
//!   standing in for the paper's Xeon E5 + Xeon Phi machine) or by **machine-learning
//!   prediction** (boosted decision-tree regression from [`wd_ml`] trained on a
//!   7 200-experiment campaign),
//! * space exploration by **enumeration** or **simulated annealing** from [`wd_opt`],
//!
//! yielding the paper's four methods (Table II): EM, EML, SAM and SAML.
//!
//! ## The unified evaluation layer
//!
//! Both evaluators ([`MeasurementEvaluator`], [`PredictionEvaluator`]) implement the
//! single [`wd_opt::Objective`] trait — there is no separate evaluator hierarchy.
//! Both are separable per side, and one tabulating evaluator,
//! [`LazyTabulatedEvaluator`] over a [`SideTimes`] source, holds the per-side time
//! tables behind every method: EM and EML fill measured and predicted tables in
//! batches and scan them by index ([`LazyTabulatedEvaluator::scan`]) — enumeration
//! is uncached at the configuration level, because it never visits a configuration
//! twice — and SAML and GAML fill prediction tables on first touch.  Only SAM
//! memoises whole configurations, behind a [`wd_opt::CachedObjective`] whose misses
//! are measured-table probes.  Every method's hit/miss counters are surfaced
//! on [`methods::MethodOutcome::cache`].  The training campaign likewise runs as
//! parallel batches.  All parallel paths are bit-identical to their sequential
//! counterparts.
//!
//! ## Quick start
//!
//! ```
//! use hetero_autotune::{Autotuner, MethodKind};
//!
//! // Simulated "Emil" platform + human-genome DNA workload, reduced training campaign.
//! let mut tuner = Autotuner::quick_setup(42);
//! let outcome = tuner.run(MethodKind::Saml, 200).unwrap();
//! assert!(outcome.measured_energy.is_finite());
//! // the suggested configuration splits work between host and device
//! println!("best configuration: {}", outcome.best_config);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod autotuner;
pub mod config;
pub mod dist;
pub mod evaluator;
pub mod experiments;
pub mod features;
pub mod methods;
pub mod model_selection;
pub mod report;
pub mod speedup;
pub mod training;

pub use autotuner::Autotuner;
pub use config::{ConfigurationSpace, DeviceAxis, DeviceSetting, SystemConfiguration};
pub use dist::{campaign_context, run_enumeration_sharded};
pub use evaluator::{
    LazyTabulatedEvaluator, LazyTabulatedPredictionEvaluator, MeasurementEvaluator, PredictedTimes,
    PredictionEvaluator, SideKey, SideTimes,
};
pub use experiments::{CaseConvergence, ConvergenceStudy};
pub use methods::{MethodKind, MethodOutcome, MethodProperties, MethodRunner};
pub use model_selection::{ModelComparison, ModelFamily};
pub use speedup::SpeedupReport;
pub use training::{AccuracyReport, PredictionRow, TrainedModels, TrainingCampaign};

// Re-export the companion crates so downstream users need only one dependency.
pub use dna_analysis;
pub use hetero_platform;
pub use wd_dist;
pub use wd_ml;
pub use wd_opt;
