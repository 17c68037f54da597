//! The genomes used in the paper's evaluation.
//!
//! The paper analyses real GenBank sequences of four organisms.  Only their nominal
//! sizes matter to the tuner: they feed the platform simulator, so simulated execution
//! times match the paper's regime.

use hetero_platform::WorkloadProfile;

/// One of the four organisms of the paper's evaluation (Section IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Genome {
    /// Homo sapiens, 3.17 GB.
    Human,
    /// Mus musculus, 2.77 GB.
    Mouse,
    /// Felis catus, 2.43 GB.
    Cat,
    /// Canis lupus familiaris, 2.38 GB.
    Dog,
}

impl Genome {
    /// All four genomes in the order used by the paper's tables.
    pub const ALL: [Genome; 4] = [Genome::Human, Genome::Mouse, Genome::Cat, Genome::Dog];

    /// Lowercase organism name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Genome::Human => "human",
            Genome::Mouse => "mouse",
            Genome::Cat => "cat",
            Genome::Dog => "dog",
        }
    }

    /// Nominal sequence size in bytes (Section IV-A of the paper).
    pub fn nominal_bytes(&self) -> u64 {
        match self {
            Genome::Human => 3_170_000_000,
            Genome::Mouse => 2_770_000_000,
            Genome::Cat => 2_430_000_000,
            Genome::Dog => 2_380_000_000,
        }
    }

    /// Workload profile describing a scan of the *full nominal-size* genome — the input
    /// the platform simulator works with.
    pub fn workload(&self) -> WorkloadProfile {
        WorkloadProfile::dna_scan(self.name(), self.nominal_bytes())
    }

    /// Workload profile for a fraction of the genome (the paper's "DNA sequence
    /// fraction" training parameter, expressed in 0..=1).
    pub fn workload_fraction(&self, fraction: f64) -> WorkloadProfile {
        self.workload().fraction(fraction)
    }
}

impl std::fmt::Display for Genome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_sizes_match_the_paper() {
        assert_eq!(Genome::Human.nominal_bytes(), 3_170_000_000);
        assert_eq!(Genome::Mouse.nominal_bytes(), 2_770_000_000);
        assert_eq!(Genome::Cat.nominal_bytes(), 2_430_000_000);
        assert_eq!(Genome::Dog.nominal_bytes(), 2_380_000_000);
    }

    #[test]
    fn display_is_the_name() {
        for g in Genome::ALL {
            assert_eq!(format!("{g}"), g.name());
        }
    }

    #[test]
    fn workload_uses_nominal_size() {
        let w = Genome::Cat.workload();
        assert_eq!(w.bytes, 2_430_000_000);
        assert_eq!(w.name, "cat");
        let half = Genome::Cat.workload_fraction(0.5);
        assert_eq!(half.bytes, 1_215_000_000);
    }
}
