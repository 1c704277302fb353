//! Energy-related objective functions.
//!
//! The paper's scheduler optimizes "any user-defined energy-related metric
//! that can be expressed as a function of power consumption and program
//! execution time" (§1, contribution 2). [`Objective`] captures exactly
//! that: given predicted average package power `P(α)` and execution time
//! `T(α)`, it produces the scalar to minimize.

use std::fmt;
use std::sync::Arc;

/// An energy-related metric expressed as `f(power, time)`.
#[derive(Clone)]
pub enum Objective {
    /// Total energy `E = P·T` (battery-life metric).
    Energy,
    /// Energy-delay product `EDP = P·T²` (the paper's headline metric).
    EnergyDelay,
    /// Energy-delay-squared `ED²P = P·T³` (HPC metric, §1).
    EnergyDelaySquared,
    /// Pure execution time `T` — the PERF comparison scheme falls out of
    /// the same machinery with this objective.
    Time,
    /// Any user-defined combination of power and time.
    Custom {
        /// Display name of the metric.
        name: &'static str,
        /// `f(power_watts, time_seconds) -> score` (lower is better).
        f: Arc<dyn Fn(f64, f64) -> f64 + Send + Sync>,
    },
}

impl Objective {
    /// Evaluates the metric for average power `watts` over `seconds`.
    /// Lower is better.
    ///
    /// # Examples
    ///
    /// ```
    /// use easched_core::Objective;
    /// assert_eq!(Objective::Energy.evaluate(10.0, 2.0), 20.0);
    /// assert_eq!(Objective::EnergyDelay.evaluate(10.0, 2.0), 40.0);
    /// assert_eq!(Objective::EnergyDelaySquared.evaluate(10.0, 2.0), 80.0);
    /// assert_eq!(Objective::Time.evaluate(10.0, 2.0), 2.0);
    /// ```
    pub fn evaluate(&self, watts: f64, seconds: f64) -> f64 {
        match self {
            Objective::Energy => watts * seconds,
            Objective::EnergyDelay => watts * seconds * seconds,
            Objective::EnergyDelaySquared => watts * seconds * seconds * seconds,
            Objective::Time => seconds,
            Objective::Custom { f, .. } => f(watts, seconds),
        }
    }

    /// The `k` of a built-in metric, every one of which is `c · secondsᵏ`
    /// with `c` free of `seconds`; `None` for a custom metric, whose
    /// shape is unknown. Scaling every candidate's time by one factor
    /// leaves the order of such scores unchanged, which is what lets the
    /// decision engine tabulate its optimum against R_G/R_C alone.
    pub(crate) fn time_exponent(&self) -> Option<u8> {
        match self {
            Objective::Energy | Objective::Time => Some(1),
            Objective::EnergyDelay => Some(2),
            Objective::EnergyDelaySquared => Some(3),
            Objective::Custom { .. } => None,
        }
    }

    /// Evaluates the metric from whole-run totals (energy in joules, time
    /// in seconds) — used to score completed runs and the Oracle sweep.
    ///
    /// ```
    /// use easched_core::Objective;
    /// // 20 J over 2 s: EDP = E·T = 40.
    /// assert_eq!(Objective::EnergyDelay.of_totals(20.0, 2.0), 40.0);
    /// ```
    pub fn of_totals(&self, energy_joules: f64, seconds: f64) -> f64 {
        let watts = if seconds > 0.0 {
            energy_joules / seconds
        } else {
            0.0
        };
        self.evaluate(watts, seconds)
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Objective::Energy => "energy",
            Objective::EnergyDelay => "EDP",
            Objective::EnergyDelaySquared => "ED2P",
            Objective::Time => "time",
            Objective::Custom { name, .. } => name,
        }
    }
}

impl fmt::Debug for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Objective({})", self.name())
    }
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl PartialEq for Objective {
    /// Two objectives are equal if they are the same named variant; custom
    /// objectives compare by name.
    fn eq(&self, other: &Self) -> bool {
        self.name() == other.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_formulas() {
        let (p, t) = (55.0, 3.0);
        assert_eq!(Objective::Energy.evaluate(p, t), 165.0);
        assert_eq!(Objective::EnergyDelay.evaluate(p, t), 495.0);
        assert_eq!(Objective::EnergyDelaySquared.evaluate(p, t), 1485.0);
        assert_eq!(Objective::Time.evaluate(p, t), 3.0);
    }

    #[test]
    fn custom_objective() {
        let o = Objective::Custom {
            name: "sqrt-energy",
            f: Arc::new(|p, t| (p * t).sqrt()),
        };
        assert_eq!(o.evaluate(4.0, 4.0), 4.0);
        assert_eq!(o.name(), "sqrt-energy");
    }

    #[test]
    fn of_totals_converts() {
        // 100 J in 4 s = 25 W; EDP = 25·16 = 400 = E·T.
        assert_eq!(Objective::EnergyDelay.of_totals(100.0, 4.0), 400.0);
        assert_eq!(Objective::Energy.of_totals(100.0, 4.0), 100.0);
        assert_eq!(Objective::Energy.of_totals(100.0, 0.0), 0.0);
    }

    #[test]
    fn equality_by_name() {
        assert_eq!(Objective::Energy, Objective::Energy);
        assert_ne!(Objective::Energy, Objective::Time);
    }

    #[test]
    fn debug_and_display_nonempty() {
        assert_eq!(format!("{:?}", Objective::EnergyDelay), "Objective(EDP)");
        assert_eq!(Objective::Energy.to_string(), "energy");
    }
}
