//! RAPL-style package energy counter.
//!
//! The paper measures energy by sampling the machine-specific register
//! `MSR_PKG_ENERGY_STATUS` (footnote 1). That register is a **32-bit
//! wrapping counter** denominated in energy status units (2⁻¹⁶ J ≈ 15.3 µJ
//! on these parts). Reading it from the runtime requires exactly the
//! wraparound-safe subtraction that [`EnergyCounter::delta_joules`]
//! implements; this is the code a real port would run via MSR FFI.

/// Energy status unit: 2⁻¹⁶ joules, the RAPL default on Haswell/Bay Trail.
pub const ENERGY_UNIT_JOULES: f64 = 1.0 / 65536.0;

/// A wrapping 32-bit package energy counter in units of
/// [`ENERGY_UNIT_JOULES`].
///
/// # Examples
///
/// ```
/// use easched_sim::EnergyCounter;
///
/// let mut c = EnergyCounter::new();
/// let before = c.read_raw();
/// c.deposit_joules(1.5);
/// let after = c.read_raw();
/// let measured = EnergyCounter::delta_joules(before, after);
/// assert!((measured - 1.5).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyCounter {
    raw: u32,
    /// Sub-unit residue not yet visible in the register, in joules.
    fraction: f64,
}

impl EnergyCounter {
    /// Creates a counter starting at zero.
    pub fn new() -> Self {
        EnergyCounter {
            raw: 0,
            fraction: 0.0,
        }
    }

    /// Creates a counter with an arbitrary starting register value, as on
    /// real hardware where the register has been counting since boot.
    ///
    /// ```
    /// use easched_sim::EnergyCounter;
    /// let c = EnergyCounter::with_raw(u32::MAX - 5);
    /// assert_eq!(c.read_raw(), u32::MAX - 5);
    /// ```
    pub fn with_raw(raw: u32) -> Self {
        EnergyCounter { raw, fraction: 0.0 }
    }

    /// Reads the raw 32-bit register.
    pub fn read_raw(&self) -> u32 {
        self.raw
    }

    /// Accumulates `joules` of package energy into the register.
    ///
    /// Negative or non-finite deposits are ignored (power is non-negative).
    pub fn deposit_joules(&mut self, joules: f64) {
        if !(joules.is_finite() && joules > 0.0) {
            return;
        }
        let total = self.fraction + joules;
        let units = (total / ENERGY_UNIT_JOULES).floor();
        self.fraction = total - units * ENERGY_UNIT_JOULES;
        // The register wraps modulo 2³².
        let add = (units as u64 % (1u64 << 32)) as u32;
        self.raw = self.raw.wrapping_add(add);
    }

    /// Wraparound-safe energy delta between two register samples, in joules.
    ///
    /// Assumes at most one wrap between the samples, as the paper's sampling
    /// does (at ~60 W a 32-bit 15 µJ counter wraps roughly every 18 minutes).
    ///
    /// ```
    /// use easched_sim::EnergyCounter;
    /// // Sample taken just before a wrap, second sample after it.
    /// let d = EnergyCounter::delta_joules(u32::MAX - 10, 20);
    /// assert!((d - 31.0 / 65536.0).abs() < 1e-9);
    /// ```
    pub fn delta_joules(before: u32, after: u32) -> f64 {
        after.wrapping_sub(before) as f64 * ENERGY_UNIT_JOULES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(EnergyCounter::new().read_raw(), 0);
    }

    #[test]
    fn accumulates_whole_units() {
        let mut c = EnergyCounter::new();
        c.deposit_joules(1.0);
        assert_eq!(c.read_raw(), 65536);
    }

    #[test]
    fn sub_unit_deposits_eventually_tick() {
        let mut c = EnergyCounter::new();
        // Half a unit at a time: every second deposit ticks the register.
        for _ in 0..10 {
            c.deposit_joules(ENERGY_UNIT_JOULES / 2.0);
        }
        assert_eq!(c.read_raw(), 5);
    }

    #[test]
    fn no_energy_lost_to_fraction() {
        let mut c = EnergyCounter::new();
        let step = 0.000_123_4;
        let n = 10_000;
        for _ in 0..n {
            c.deposit_joules(step);
        }
        let measured = c.read_raw() as f64 * ENERGY_UNIT_JOULES;
        assert!((measured - step * n as f64).abs() < ENERGY_UNIT_JOULES * 2.0);
    }

    #[test]
    fn wraps_at_32_bits() {
        let mut c = EnergyCounter::with_raw(u32::MAX);
        c.deposit_joules(ENERGY_UNIT_JOULES * 2.5);
        assert_eq!(c.read_raw(), 1);
    }

    #[test]
    fn delta_across_wrap() {
        let mut c = EnergyCounter::with_raw(u32::MAX - 100);
        let before = c.read_raw();
        c.deposit_joules(0.01); // 655 units, crosses the wrap
        let after = c.read_raw();
        assert!(after < before, "should have wrapped");
        let d = EnergyCounter::delta_joules(before, after);
        assert!((d - 0.01).abs() < 2.0 * ENERGY_UNIT_JOULES);
    }

    #[test]
    fn ignores_invalid_deposits() {
        let mut c = EnergyCounter::new();
        c.deposit_joules(-1.0);
        c.deposit_joules(f64::NAN);
        c.deposit_joules(f64::INFINITY);
        c.deposit_joules(0.0);
        assert_eq!(c.read_raw(), 0);
    }

    #[test]
    fn unit_matches_rapl_default() {
        assert!((ENERGY_UNIT_JOULES - 15.258e-6).abs() < 0.1e-6);
    }
}
