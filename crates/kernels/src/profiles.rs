//! Per-platform timing/power calibration for the benchmark kernels.
//!
//! On the paper's physical machines, a kernel's CPU and GPU throughput and
//! its power class are properties of the hardware. Our hardware is
//! simulated, so each benchmark carries a [`Calib`] per platform: solo device
//! rates **per functional item** (our inputs are scaled down from the
//! paper's — see `DESIGN.md` §2 — so rates are scaled to keep execution
//! *times* in the paper's regime), the memory-intensity power class, the
//! counter footprint, and the fraction of the memory bus the kernel drives
//! in combined mode.
//!
//! The calibration is chosen so that:
//!
//! * Table 1's classification columns (compute/memory, CPU short/long,
//!   GPU short/long) are reproduced by the *classifier*, not hard-coded;
//! * GPU-vs-CPU speedups span the paper's spectrum: heavily GPU-biased
//!   (MM, NB), moderately GPU-biased (most), and CPU-biased (FD);
//! * memory-bound kernels oversubscribe the shared bus in combined mode
//!   (`bus_fraction` > 1), reproducing the contention that separates the
//!   performance-optimal split from the energy-optimal one (Figure 1).
//!
//! None of these values are visible to the scheduler.

use easched_sim::{AccessPattern, KernelTraits, Platform};

/// Which of the two paper platforms a [`Platform`] value represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum PlatformKind {
    /// The Haswell desktop.
    Desktop,
    /// The Bay Trail tablet.
    Tablet,
}

/// Classifies a platform by its preset name; unknown platforms are treated
/// as desktops.
pub(crate) fn kind_of(platform: &Platform) -> PlatformKind {
    if platform.name.contains("baytrail") || platform.name.contains("tablet") {
        PlatformKind::Tablet
    } else {
        PlatformKind::Desktop
    }
}

/// One platform's calibration for one kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Calib {
    /// Solo CPU rate, items/second.
    pub(crate) cpu_rate: f64,
    /// Solo GPU rate, items/second.
    pub(crate) gpu_rate: f64,
    /// Power-class memory intensity in [0, 1].
    pub(crate) mem_intensity: f64,
    /// Counter-model access pattern (calibrated to reproduce the Table 1
    /// class under the 0.33 miss/load threshold; not a claim about source
    /// loop structure).
    pub(crate) access: AccessPattern,
    /// Working-set bytes at *paper scale* (drives the L3 miss model).
    pub(crate) working_set: u64,
    /// Combined-mode bus demand as a fraction of platform peak bandwidth
    /// (values > 1 oversubscribe and trigger contention).
    pub(crate) bus_fraction: f64,
    /// Irregularity (per-invocation throughput noise scale).
    pub(crate) irregularity: f64,
    /// Instructions retired per item.
    pub(crate) instr_per_item: f64,
    /// Load/store instructions per item.
    pub(crate) loads_per_item: f64,
}

impl Calib {
    /// Builds the [`KernelTraits`] for `platform` from this calibration.
    pub(crate) fn traits(&self, name: &str, platform: &Platform) -> KernelTraits {
        let combined = self.cpu_rate + self.gpu_rate;
        let bytes_per_item = if combined > 0.0 {
            self.bus_fraction * platform.memory.peak_bw_bytes_per_sec / combined
        } else {
            0.0
        };
        KernelTraits::builder(name)
            .cpu_rate(self.cpu_rate)
            .gpu_rate(self.gpu_rate)
            .memory_intensity(self.mem_intensity)
            .access(self.access)
            .working_set_bytes(self.working_set)
            .bw_bytes_per_item(bytes_per_item)
            .irregularity(self.irregularity)
            .instr_per_item(self.instr_per_item)
            .loads_per_item(self.loads_per_item)
            .build()
    }
}

/// A desktop/tablet calibration pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Profile {
    /// Calibration on the Haswell desktop.
    pub(crate) desktop: Calib,
    /// Calibration on the Bay Trail tablet.
    pub(crate) tablet: Calib,
}

impl Profile {
    /// Traits for the given platform (unknown platforms use the desktop
    /// calibration).
    pub fn traits_for(&self, name: &str, platform: &Platform) -> KernelTraits {
        match kind_of(platform) {
            PlatformKind::Desktop => self.desktop.traits(name, platform),
            PlatformKind::Tablet => self.tablet.traits(name, platform),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_of_names_both_platforms() {
        assert_eq!(kind_of(&Platform::haswell_desktop()), PlatformKind::Desktop);
        assert_eq!(kind_of(&Platform::baytrail_tablet()), PlatformKind::Tablet);
    }

    fn sample() -> Profile {
        Profile {
            desktop: Calib {
                cpu_rate: 1.0e6,
                gpu_rate: 2.0e6,
                mem_intensity: 0.9,
                access: AccessPattern::Random,
                working_set: 200 << 20,
                bus_fraction: 1.3,
                irregularity: 0.3,
                instr_per_item: 150.0,
                loads_per_item: 60.0,
            },
            tablet: Calib {
                cpu_rate: 1.0e5,
                gpu_rate: 1.2e5,
                mem_intensity: 0.9,
                access: AccessPattern::Random,
                working_set: 50 << 20,
                bus_fraction: 1.3,
                irregularity: 0.3,
                instr_per_item: 150.0,
                loads_per_item: 60.0,
            },
        }
    }

    #[test]
    fn traits_pick_platform_calibration() {
        let p = sample();
        let d = p.traits_for("k", &Platform::haswell_desktop());
        let t = p.traits_for("k", &Platform::baytrail_tablet());
        assert_eq!(d.cpu_rate(), 1.0e6);
        assert_eq!(t.cpu_rate(), 1.0e5);
    }

    #[test]
    fn bus_fraction_maps_to_bytes_per_item() {
        let p = sample();
        let plat = Platform::haswell_desktop();
        let tr = p.traits_for("k", &plat);
        let combined_demand = (tr.cpu_rate() + tr.gpu_rate()) * tr.bw_bytes_per_item();
        let frac = combined_demand / plat.memory.peak_bw_bytes_per_sec;
        assert!((frac - 1.3).abs() < 1e-9);
    }

    #[test]
    fn unknown_platform_defaults_to_desktop() {
        let mut plat = Platform::haswell_desktop();
        plat.name = "mystery-box";
        assert_eq!(kind_of(&plat), PlatformKind::Desktop);
    }
}
