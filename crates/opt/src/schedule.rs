//! The cooling schedule of simulated annealing.

/// How the temperature evolves over iterations: the paper anneals geometrically
/// (Eq. 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoolingSchedule {
    /// The paper's schedule (Eq. 3): `T ← T · (1 − coolingRate)`.
    Geometric {
        /// The cooling rate in (0, 1).
        cooling_rate: f64,
    },
}

impl CoolingSchedule {
    /// Temperature after one more iteration, given the temperature `current` before
    /// the update.
    pub fn next_temperature(&self, current: f64) -> f64 {
        let CoolingSchedule::Geometric { cooling_rate } = *self;
        current * (1.0 - cooling_rate.clamp(0.0, 1.0))
    }

    /// Geometric cooling rate that reaches `final_temperature` from
    /// `initial_temperature` in exactly `iterations` steps.
    ///
    /// The paper controls the iteration budget this way: "We can adjust the number of
    /// iterations required by Simulated Annealing by changing the initial temperature,
    /// or adjusting the cooling function."
    pub fn geometric_for_budget(
        iterations: usize,
        initial_temperature: f64,
        final_temperature: f64,
    ) -> Self {
        assert!(iterations > 0, "at least one iteration is required");
        assert!(
            initial_temperature > final_temperature && final_temperature > 0.0,
            "temperatures must satisfy initial > final > 0"
        );
        let ratio = final_temperature / initial_temperature;
        let cooling_rate = 1.0 - ratio.powf(1.0 / iterations as f64);
        CoolingSchedule::Geometric { cooling_rate }
    }

    /// Number of iterations the schedule needs to cool from `initial` below
    /// `final_temperature`; `None` for a cooling rate outside (0, 1).
    pub fn geometric_iterations(&self, initial: f64, final_temperature: f64) -> Option<usize> {
        let CoolingSchedule::Geometric { cooling_rate } = *self;
        if cooling_rate <= 0.0 || cooling_rate >= 1.0 {
            return None;
        }
        let steps = (final_temperature / initial).ln() / (1.0 - cooling_rate).ln();
        Some(steps.ceil().max(0.0) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_matches_the_paper_formula() {
        let schedule = CoolingSchedule::Geometric { cooling_rate: 0.1 };
        let t = schedule.next_temperature(50.0);
        assert!((t - 45.0).abs() < 1e-12);
    }

    #[test]
    fn budgeted_schedule_hits_the_requested_iteration_count() {
        for iterations in [100usize, 250, 1000, 2000] {
            let schedule = CoolingSchedule::geometric_for_budget(iterations, 1000.0, 1.0);
            let computed = schedule.geometric_iterations(1000.0, 1.0).unwrap();
            assert!(
                computed.abs_diff(iterations) <= 1,
                "budget {iterations} produced {computed} iterations"
            );
        }
    }

    #[test]
    #[should_panic(expected = "temperatures must satisfy")]
    fn invalid_budget_temperatures_panic() {
        let _ = CoolingSchedule::geometric_for_budget(10, 1.0, 10.0);
    }
}
