//! Platform specifications and the two presets used throughout the paper.
//!
//! A [`Platform`] bundles device geometry, the memory system, the calibrated
//! package power table, and PCU control parameters. The two presets mirror
//! the paper's evaluation machines (§5 *Environment*):
//!
//! * [`Platform::haswell_desktop`] — Intel Core i7-4770 (4C/8T, 3.4 GHz) with
//!   an HD 4600 iGPU (20 EUs × 7 threads × 16-wide SIMD = 2240-way), 8 MiB
//!   LLC, dual-channel DDR3;
//! * [`Platform::baytrail_tablet`] — Intel Atom Z3740 (4C, 1.33 GHz) with a
//!   4-EU iGPU (448-way), 2 MiB L2, single-channel LPDDR3.
//!
//! A third, fleet-added preset extends the pool beyond the paper machines:
//!
//! * [`Platform::skylake_minipc`] — Core i5-6500-class mini-PC (4C/4T,
//!   3.2 GHz) with a 24-EU HD 530 iGPU (2688-way), calibrated from public
//!   geometry and TDP envelopes (DESIGN.md §15).
//!
//! All paper-machine wattages come from the paper's figures; see
//! `DESIGN.md` §2 for the calibration table.

use crate::pcu::PcuParams;
use crate::power::PowerTable;

/// CPU complex geometry.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CpuSpec {
    /// Physical core count.
    pub(crate) cores: u32,
    /// Hardware threads (with SMT).
    pub(crate) threads: u32,
    /// Nominal (base) frequency in GHz.
    pub(crate) base_ghz: f64,
    /// Maximum single-device turbo frequency in GHz.
    pub(crate) turbo_ghz: f64,
}

/// Integrated GPU geometry.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct GpuSpec {
    /// Execution units.
    pub(crate) execution_units: u32,
    /// Hardware threads per EU.
    pub(crate) threads_per_eu: u32,
    /// SIMD lanes per hardware thread.
    pub(crate) simd_width: u32,
    /// Minimum GPU frequency in GHz.
    pub(crate) min_ghz: f64,
    /// Maximum (turbo) GPU frequency in GHz.
    pub(crate) max_ghz: f64,
}

impl GpuSpec {
    /// Total hardware parallelism: EUs × threads/EU × SIMD width.
    ///
    /// The paper sizes `GPU_PROFILE_SIZE` from this (2240 on the desktop).
    pub(crate) fn hardware_parallelism(&self) -> u32 {
        self.execution_units * self.threads_per_eu * self.simd_width
    }
}

/// Memory system parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MemorySpec {
    /// Last-level cache size in bytes (shared between CPU and GPU on these
    /// parts).
    pub llc_bytes: u64,
    /// Peak sustainable memory bandwidth in bytes/second.
    pub peak_bw_bytes_per_sec: f64,
    /// Total system memory in bytes.
    pub(crate) dram_bytes: u64,
    /// Maximum CPU-GPU shared region in bytes (the Bay Trail OpenCL driver
    /// caps this at 250 MB, which forces smaller tablet inputs — Table 1).
    pub(crate) shared_region_bytes: u64,
}

/// Throughput derating applied when both devices execute simultaneously,
/// beyond bandwidth contention: the shared power/thermal budget forces both
/// devices below their solo turbo frequencies.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SharingModel {
    /// CPU frequency scale in combined mode (1.0 = solo turbo).
    pub(crate) cpu_shared_scale: f64,
    /// GPU frequency scale in combined mode.
    pub(crate) gpu_shared_scale: f64,
}

/// A complete simulated platform.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// Human-readable platform name.
    pub name: &'static str,
    /// CPU geometry.
    pub(crate) cpu: CpuSpec,
    /// GPU geometry.
    pub(crate) gpu: GpuSpec,
    /// Memory system.
    pub memory: MemorySpec,
    /// Calibrated package power operating points.
    pub power: PowerTable,
    /// PCU control parameters.
    pub pcu: PcuParams,
    /// Combined-mode frequency sharing.
    pub(crate) sharing: SharingModel,
    /// `GPU_PROFILE_SIZE`: items per online-profiling offload, sized to fill
    /// the GPU (paper §3.2: 2048 on the desktop's 2240-way GPU).
    pub(crate) gpu_profile_items: u64,
}

impl Platform {
    /// The paper's desktop machine: Intel 4th-gen Core i7-4770 + HD 4600.
    ///
    /// Power calibration (paper §2, Figures 3–5): compute-bound ≈45 W CPU
    /// alone / ≈30 W GPU alone / ≈55 W combined; memory-bound ≈60 W CPU
    /// alone (Fig 4) / ≈63 W combined (Fig 3); short GPU bursts dip package
    /// power below 40 W (Fig 4).
    pub fn haswell_desktop() -> Platform {
        Platform {
            name: "haswell-desktop",
            cpu: CpuSpec {
                cores: 4,
                threads: 8,
                base_ghz: 3.4,
                turbo_ghz: 3.9,
            },
            gpu: GpuSpec {
                execution_units: 20,
                threads_per_eu: 7,
                simd_width: 16,
                min_ghz: 0.35,
                max_ghz: 1.2,
            },
            memory: MemorySpec {
                llc_bytes: 8 << 20,
                peak_bw_bytes_per_sec: 25.6e9,
                dram_bytes: 8 << 30,
                shared_region_bytes: 2 << 30,
            },
            power: PowerTable {
                idle: 5.0,
                cpu_compute: 45.0,
                cpu_memory: 60.0,
                gpu_compute: 30.0,
                gpu_memory: 38.0,
                both_compute: 55.0,
                both_memory: 63.0,
            },
            pcu: PcuParams {
                tick: 0.005,
                ramp_tau: 0.025,
                ramp_tau_down: 0.008,
                dip_window: 0.06,
                dip_cpu_scale: 0.22,
                dip_rearm: 0.150,
                measurement_noise: 0.01,
                tdp: Some(84.0), // i7-4770 TDP; above every operating point
            },
            sharing: SharingModel {
                cpu_shared_scale: 0.95,
                gpu_shared_scale: 0.93,
            },
            gpu_profile_items: 2048,
        }
    }

    /// The paper's tablet: Intel Atom Z3740 (Bay Trail).
    ///
    /// Power calibration (paper §2, Fig 6): compute-bound ≈1.5 W CPU alone /
    /// ≈2.0 W GPU alone; memory-bound ≈0.7 W CPU alone / ≈1.3 W GPU alone.
    /// Unlike the desktop, the GPU *costs more power* than the CPU here,
    /// which is why GPU-alone execution loses on this platform (Figs 11–12).
    pub fn baytrail_tablet() -> Platform {
        Platform {
            name: "baytrail-tablet",
            cpu: CpuSpec {
                cores: 4,
                threads: 4,
                base_ghz: 1.33,
                turbo_ghz: 1.86,
            },
            gpu: GpuSpec {
                execution_units: 4,
                threads_per_eu: 7,
                simd_width: 16,
                min_ghz: 0.331,
                max_ghz: 0.667,
            },
            memory: MemorySpec {
                llc_bytes: 2 << 20,
                peak_bw_bytes_per_sec: 8.5e9,
                dram_bytes: 2 << 30,
                shared_region_bytes: 250 << 20,
            },
            power: PowerTable {
                idle: 0.2,
                cpu_compute: 1.5,
                cpu_memory: 0.7,
                gpu_compute: 2.0,
                gpu_memory: 1.3,
                both_compute: 2.6,
                both_memory: 1.7,
            },
            pcu: PcuParams {
                tick: 0.010,
                ramp_tau: 0.060,
                ramp_tau_down: 0.020,
                dip_window: 0.03,
                dip_cpu_scale: 0.85,
                dip_rearm: 0.150,
                measurement_noise: 0.01,
                tdp: Some(4.0), // Z3740 SDP headroom; above the 2.6 W peak
            },
            sharing: SharingModel {
                cpu_shared_scale: 0.96,
                gpu_shared_scale: 0.94,
            },
            gpu_profile_items: 448,
        }
    }

    /// A fleet-added third platform: a Skylake-generation mini-PC
    /// (Core i5-6500 class, 4C/4T at 3.2 GHz) with a Gen9 HD 530 iGPU
    /// (24 EUs × 7 threads × 16-wide SIMD = 2688-way).
    ///
    /// Unlike the two paper machines this preset is calibrated from public
    /// geometry and TDP envelopes rather than the paper's measurements:
    /// desktop-class power ordering (GPU cheaper than CPU, memory-bound
    /// draws more than compute-bound combined), a 65 W TDP ceiling, and a
    /// slightly wider GPU than Haswell's. It exists so fleet replication
    /// always has a platform whose α optima differ from both paper
    /// machines — a ratio learned here is a *prior* elsewhere, never truth
    /// (DESIGN.md §15).
    pub fn skylake_minipc() -> Platform {
        Platform {
            name: "skylake-minipc",
            cpu: CpuSpec {
                cores: 4,
                threads: 4,
                base_ghz: 3.2,
                turbo_ghz: 3.6,
            },
            gpu: GpuSpec {
                execution_units: 24,
                threads_per_eu: 7,
                simd_width: 16,
                min_ghz: 0.35,
                max_ghz: 1.05,
            },
            memory: MemorySpec {
                llc_bytes: 6 << 20,
                peak_bw_bytes_per_sec: 34.1e9,
                dram_bytes: 16 << 30,
                shared_region_bytes: 4 << 30,
            },
            power: PowerTable {
                idle: 4.0,
                cpu_compute: 42.0,
                cpu_memory: 54.0,
                gpu_compute: 26.0,
                gpu_memory: 33.0,
                both_compute: 51.0,
                both_memory: 58.0,
            },
            pcu: PcuParams {
                tick: 0.005,
                ramp_tau: 0.022,
                ramp_tau_down: 0.008,
                dip_window: 0.05,
                dip_cpu_scale: 0.25,
                dip_rearm: 0.150,
                measurement_noise: 0.01,
                tdp: Some(65.0), // i5-6500 TDP; above every operating point
            },
            sharing: SharingModel {
                cpu_shared_scale: 0.95,
                gpu_shared_scale: 0.94,
            },
            gpu_profile_items: 2560,
        }
    }

    /// `GPU_PROFILE_SIZE` for this platform: the number of items offloaded
    /// during one online-profiling step, chosen to (nearly) fill the GPU's
    /// hardware parallelism (paper §3.2: 2048 on the desktop's 2240-way
    /// GPU).
    pub fn gpu_profile_size(&self) -> u64 {
        self.gpu_profile_items
    }

    /// The three presets and a Haswell capped at 45 W, whose TDP throttle
    /// grants frequency factors below 1: the platforms the tick's oracle
    /// tests draw from.
    #[cfg(test)]
    pub(crate) fn oracle_platforms() -> [Platform; 4] {
        let mut capped = Platform::haswell_desktop();
        capped.pcu.tdp = Some(45.0);
        [
            Platform::haswell_desktop(),
            Platform::baytrail_tablet(),
            Platform::skylake_minipc(),
            capped,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hardware_parallelism_sizes_the_gpu_profile() {
        assert_eq!(Platform::haswell_desktop().gpu.hardware_parallelism(), 2240);
        assert_eq!(Platform::baytrail_tablet().gpu.hardware_parallelism(), 448);
    }

    #[test]
    fn desktop_geometry_matches_paper() {
        let p = Platform::haswell_desktop();
        assert_eq!(p.cpu.cores, 4);
        assert_eq!(p.cpu.threads, 8);
        assert_eq!(p.gpu.execution_units, 20);
        assert_eq!(p.gpu.hardware_parallelism(), 2240);
        assert_eq!(p.memory.llc_bytes, 8 << 20);
    }

    #[test]
    fn tablet_geometry_matches_paper() {
        let p = Platform::baytrail_tablet();
        assert_eq!(p.cpu.cores, 4);
        assert_eq!(p.gpu.execution_units, 4);
        assert_eq!(p.gpu.hardware_parallelism(), 448);
        assert_eq!(p.memory.shared_region_bytes, 250 << 20);
    }

    #[test]
    fn desktop_power_ordering_matches_paper() {
        // On the desktop the GPU is the cheaper device; combined modes sit
        // between single-device and additive power.
        let t = &Platform::haswell_desktop().power;
        assert!(t.gpu_compute < t.cpu_compute);
        assert!(t.both_compute > t.cpu_compute);
        assert!(t.both_compute < t.cpu_compute + t.gpu_compute);
        assert!(
            t.both_memory > t.both_compute,
            "memory-bound combined draws more"
        );
    }

    #[test]
    fn tablet_power_ordering_matches_paper() {
        // On Bay Trail the GPU costs MORE than the CPU (paper §5).
        let t = &Platform::baytrail_tablet().power;
        assert!(t.gpu_compute > t.cpu_compute);
        assert!(t.gpu_memory > t.cpu_memory);
        // And memory-bound work draws LESS than compute-bound (paper's
        // "surprisingly" observation in §2).
        assert!(t.cpu_memory < t.cpu_compute);
        assert!(t.gpu_memory < t.gpu_compute);
    }

    #[test]
    fn minipc_geometry_is_a_gen9_hd530() {
        let p = Platform::skylake_minipc();
        assert_eq!(p.cpu.cores, 4);
        assert_eq!(p.cpu.threads, 4); // i5 class: no SMT
        assert_eq!(p.gpu.execution_units, 24);
        assert_eq!(p.gpu.hardware_parallelism(), 2688);
        assert_eq!(p.memory.llc_bytes, 6 << 20);
    }

    #[test]
    fn minipc_power_ordering_is_desktop_class() {
        // Like Haswell: GPU is the cheaper device, combined modes sit
        // between single-device and additive power, memory-bound combined
        // draws more than compute-bound combined.
        let t = &Platform::skylake_minipc().power;
        assert!(t.gpu_compute < t.cpu_compute);
        assert!(t.both_compute > t.cpu_compute);
        assert!(t.both_compute < t.cpu_compute + t.gpu_compute);
        assert!(t.both_memory > t.both_compute);
        // But it is NOT the Haswell table — fleet priors must cross a real
        // platform gap.
        assert_ne!(*t, Platform::haswell_desktop().power);
    }

    #[test]
    fn minipc_stays_under_its_tdp() {
        let p = Platform::skylake_minipc();
        let tdp = p.pcu.tdp.expect("mini-PC has a TDP ceiling");
        for w in [
            p.power.idle,
            p.power.cpu_compute,
            p.power.cpu_memory,
            p.power.gpu_compute,
            p.power.gpu_memory,
            p.power.both_compute,
            p.power.both_memory,
        ] {
            assert!(w < tdp, "{w} W exceeds the {tdp} W TDP");
        }
    }

    #[test]
    fn profile_size_near_gpu_width() {
        // Paper §3.2 uses 2048 for the 2240-way desktop GPU.
        assert_eq!(Platform::haswell_desktop().gpu_profile_size(), 2048);
        assert_eq!(Platform::baytrail_tablet().gpu_profile_size(), 448);
        assert_eq!(Platform::skylake_minipc().gpu_profile_size(), 2560);
        for p in [
            Platform::haswell_desktop(),
            Platform::baytrail_tablet(),
            Platform::skylake_minipc(),
        ] {
            assert!(p.gpu_profile_size() <= u64::from(p.gpu.hardware_parallelism()));
        }
    }

    #[test]
    fn sharing_scales_are_derating() {
        for p in [
            Platform::haswell_desktop(),
            Platform::baytrail_tablet(),
            Platform::skylake_minipc(),
        ] {
            assert!(p.sharing.cpu_shared_scale > 0.0 && p.sharing.cpu_shared_scale <= 1.0);
            assert!(p.sharing.gpu_shared_scale > 0.0 && p.sharing.gpu_shared_scale <= 1.0);
        }
    }

    #[test]
    fn preset_names_are_unique() {
        let names = [
            Platform::haswell_desktop().name,
            Platform::baytrail_tablet().name,
            Platform::skylake_minipc().name,
        ];
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
