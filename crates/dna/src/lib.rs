//! # dna-analysis
//!
//! The paper's genomes and their workload profiles, as used in *Memeti & Pllana,
//! Combinatorial Optimization of Work Distribution on Heterogeneous Systems, ICPP
//! Workshops 2016*.
//!
//! The paper tunes a finite-automata DNA scan over the GenBank sequences of four
//! organisms (human 3.17 GB, mouse 2.77 GB, cat 2.43 GB, dog 2.38 GB).  The tuner sees
//! that application only through its execution times, so each [`Genome`] supplies its
//! name, its nominal size and the [`hetero_platform::WorkloadProfile`] of scanning it,
//! which the platform simulator turns into host and device times.
//!
//! ## Example
//!
//! ```
//! use dna_analysis::Genome;
//!
//! let human = Genome::Human.workload();
//! assert_eq!(human.bytes, 3_170_000_000);
//! assert_eq!(Genome::Human.workload_fraction(0.5).bytes, 1_585_000_000);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod genome;

pub use genome::Genome;
