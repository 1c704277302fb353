//! Kernel execution traits: everything the simulator needs to know about a
//! data-parallel kernel to model its timing, power class, and counter
//! footprint on a platform.
//!
//! A [`KernelTraits`] value plays the role the physical machine plays in the
//! paper: it determines how fast each device processes iterations, how much
//! memory bandwidth the kernel demands, and what the hardware counters will
//! read. The scheduler never sees these fields — it must *discover* the
//! relevant behaviour through online profiling, exactly as on real hardware.

use std::fmt;

/// Memory access pattern of a kernel, used to derive its L3 miss ratio.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AccessPattern {
    /// Sequential streaming reads/writes; hardware prefetchers hide most
    /// misses.
    #[default]
    Streaming,
    /// Regular strided access; prefetchers partially effective.
    Strided,
    /// Data-dependent random access (graph traversal, hash probing).
    Random,
    /// Pointer chasing with no locality (skip lists, linked structures).
    PointerChase,
}

impl AccessPattern {
    /// Baseline probability that a load misses L3 when the working set does
    /// not fit, before working-set scaling.
    pub(crate) fn base_miss(self) -> f64 {
        match self {
            AccessPattern::Streaming => 0.10,
            AccessPattern::Strided => 0.22,
            AccessPattern::Random => 0.85,
            AccessPattern::PointerChase => 0.95,
        }
    }

    /// Miss probability when the working set fits comfortably in the LLC.
    pub(crate) fn resident_miss(self) -> f64 {
        match self {
            AccessPattern::Streaming => 0.01,
            AccessPattern::Strided => 0.02,
            AccessPattern::Random => 0.04,
            AccessPattern::PointerChase => 0.05,
        }
    }
}

/// Simulation profile of a data-parallel kernel on one platform.
///
/// Rates are *solo* rates: items per second when the device runs the kernel
/// alone at its solo operating frequency with ample parallelism. The
/// simulator derates them for frequency sharing, bandwidth contention, GPU
/// occupancy, and per-invocation irregularity noise.
///
/// Construct via [`KernelTraits::builder`].
///
/// # Examples
///
/// ```
/// use easched_sim::{AccessPattern, KernelTraits};
///
/// let traits = KernelTraits::builder("bfs")
///     .cpu_rate(80.0e6)
///     .gpu_rate(120.0e6)
///     .access(AccessPattern::Random)
///     .working_set_bytes(256 << 20)
///     .memory_intensity(0.9)
///     .irregularity(0.3)
///     .build();
/// assert_eq!(traits.access(), AccessPattern::Random);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KernelTraits {
    name: String,
    cpu_rate: f64,
    gpu_rate: f64,
    memory_intensity: f64,
    access: AccessPattern,
    working_set_bytes: u64,
    instr_per_item: f64,
    loads_per_item: f64,
    bw_bytes_per_item: f64,
    irregularity: f64,
}

impl KernelTraits {
    /// Starts building a traits profile for the kernel named `name`.
    pub fn builder(name: impl Into<String>) -> KernelTraitsBuilder {
        KernelTraitsBuilder::new(name)
    }

    /// Solo CPU throughput in items/second (all cores).
    pub fn cpu_rate(&self) -> f64 {
        self.cpu_rate
    }

    /// Solo GPU throughput in items/second (full occupancy).
    pub fn gpu_rate(&self) -> f64 {
        self.gpu_rate
    }

    /// Memory intensity in [0, 1]: 0 = purely compute-bound power behaviour,
    /// 1 = purely memory-bound. Interpolates between the platform's
    /// compute/memory operating points.
    pub fn memory_intensity(&self) -> f64 {
        self.memory_intensity
    }

    /// Memory access pattern.
    pub fn access(&self) -> AccessPattern {
        self.access
    }

    /// Resident working-set size in bytes.
    pub fn working_set_bytes(&self) -> u64 {
        self.working_set_bytes
    }

    /// Instructions retired per iteration on the CPU.
    pub fn instr_per_item(&self) -> f64 {
        self.instr_per_item
    }

    /// Load/store instructions per iteration on the CPU.
    pub fn loads_per_item(&self) -> f64 {
        self.loads_per_item
    }

    /// Main-memory traffic per iteration in bytes (bandwidth demand).
    pub fn bw_bytes_per_item(&self) -> f64 {
        self.bw_bytes_per_item
    }

    /// Irregularity in [0, 1]: scale of per-invocation throughput noise
    /// (input-dependent control flow). 0 for regular kernels.
    pub(crate) fn irregularity(&self) -> f64 {
        self.irregularity
    }

    /// L3 miss probability per load on a platform with `llc_bytes` of
    /// last-level cache, derived from the access pattern and working set.
    ///
    /// ```
    /// use easched_sim::{AccessPattern, KernelTraits};
    /// let t = KernelTraits::builder("k")
    ///     .access(AccessPattern::Random)
    ///     .working_set_bytes(64 << 20)
    ///     .build();
    /// // 64 MiB random access vs an 8 MiB LLC: mostly misses.
    /// assert!(t.l3_miss_ratio(8 << 20) > 0.5);
    /// // Same pattern fitting in cache: mostly hits.
    /// assert!(t.l3_miss_ratio(128 << 20) < 0.1);
    /// ```
    pub fn l3_miss_ratio(&self, llc_bytes: u64) -> f64 {
        if llc_bytes == 0 {
            return self.access.base_miss();
        }
        let ws = self.working_set_bytes as f64;
        let llc = llc_bytes as f64;
        let resident = self.access.resident_miss();
        if ws <= llc {
            return resident;
        }
        // Fraction of accesses that fall outside the cached portion,
        // saturating toward the pattern's base miss rate.
        let outside = 1.0 - llc / ws;
        resident + (self.access.base_miss() - resident) * outside
    }
}

impl fmt::Display for KernelTraits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (cpu {:.3e} it/s, gpu {:.3e} it/s, mem {:.2})",
            self.name, self.cpu_rate, self.gpu_rate, self.memory_intensity
        )
    }
}

/// Builder for [`KernelTraits`].
///
/// Defaults: rates 1e6 items/s, compute-bound (`memory_intensity` 0),
/// streaming access, 1 MiB working set, 100 instructions and 20 loads per
/// item, 8 bytes of memory traffic per item, no irregularity.
#[derive(Debug, Clone)]
pub struct KernelTraitsBuilder {
    traits: KernelTraits,
}

impl KernelTraitsBuilder {
    fn new(name: impl Into<String>) -> Self {
        KernelTraitsBuilder {
            traits: KernelTraits {
                name: name.into(),
                cpu_rate: 1.0e6,
                gpu_rate: 1.0e6,
                memory_intensity: 0.0,
                access: AccessPattern::Streaming,
                working_set_bytes: 1 << 20,
                instr_per_item: 100.0,
                loads_per_item: 20.0,
                bw_bytes_per_item: 8.0,
                irregularity: 0.0,
            },
        }
    }

    /// Sets the solo CPU rate (items/second).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn cpu_rate(mut self, rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "cpu_rate must be positive");
        self.traits.cpu_rate = rate;
        self
    }

    /// Sets the solo GPU rate (items/second).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn gpu_rate(mut self, rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "gpu_rate must be positive");
        self.traits.gpu_rate = rate;
        self
    }

    /// Sets memory intensity, clamped to [0, 1].
    pub fn memory_intensity(mut self, mi: f64) -> Self {
        self.traits.memory_intensity = mi.clamp(0.0, 1.0);
        self
    }

    /// Sets the access pattern.
    pub fn access(mut self, access: AccessPattern) -> Self {
        self.traits.access = access;
        self
    }

    /// Sets the working-set size in bytes.
    pub fn working_set_bytes(mut self, bytes: u64) -> Self {
        self.traits.working_set_bytes = bytes;
        self
    }

    /// Sets instructions retired per iteration.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not positive and finite.
    pub fn instr_per_item(mut self, n: f64) -> Self {
        assert!(n.is_finite() && n > 0.0, "instr_per_item must be positive");
        self.traits.instr_per_item = n;
        self
    }

    /// Sets load/store instructions per iteration.
    ///
    /// # Panics
    ///
    /// Panics if `n` is negative or non-finite.
    pub fn loads_per_item(mut self, n: f64) -> Self {
        assert!(
            n.is_finite() && n >= 0.0,
            "loads_per_item must be non-negative"
        );
        self.traits.loads_per_item = n;
        self
    }

    /// Sets memory traffic per iteration in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `n` is negative or non-finite.
    pub fn bw_bytes_per_item(mut self, n: f64) -> Self {
        assert!(
            n.is_finite() && n >= 0.0,
            "bw_bytes_per_item must be non-negative"
        );
        self.traits.bw_bytes_per_item = n;
        self
    }

    /// Sets irregularity, clamped to [0, 1].
    pub fn irregularity(mut self, irr: f64) -> Self {
        self.traits.irregularity = irr.clamp(0.0, 1.0);
        self
    }

    /// Finalizes the traits.
    pub fn build(self) -> KernelTraits {
        self.traits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let t = KernelTraits::builder("k").build();
        assert_eq!(t.name, "k");
        assert_eq!(t.memory_intensity(), 0.0);
        assert_eq!(t.access(), AccessPattern::Streaming);
        assert!(t.cpu_rate() > 0.0 && t.gpu_rate() > 0.0);
    }

    #[test]
    fn builder_clamps_unit_fields() {
        let t = KernelTraits::builder("k")
            .memory_intensity(7.0)
            .irregularity(-3.0)
            .build();
        assert_eq!(t.memory_intensity(), 1.0);
        assert_eq!(t.irregularity(), 0.0);
    }

    #[test]
    #[should_panic(expected = "cpu_rate must be positive")]
    fn builder_rejects_zero_rate() {
        KernelTraits::builder("k").cpu_rate(0.0);
    }

    #[test]
    #[should_panic(expected = "gpu_rate must be positive")]
    fn builder_rejects_nan_rate() {
        KernelTraits::builder("k").gpu_rate(f64::NAN);
    }

    #[test]
    fn miss_ratio_monotone_in_working_set() {
        let llc = 8u64 << 20;
        let mut prev = 0.0;
        for shift in 18..28 {
            let t = KernelTraits::builder("k")
                .access(AccessPattern::Random)
                .working_set_bytes(1 << shift)
                .build();
            let m = t.l3_miss_ratio(llc);
            assert!(m >= prev, "miss ratio should grow with working set");
            assert!((0.0..=1.0).contains(&m));
            prev = m;
        }
    }

    #[test]
    fn pattern_ordering_when_uncached() {
        let ws = 1u64 << 30;
        let llc = 8u64 << 20;
        let miss = |a: AccessPattern| {
            KernelTraits::builder("k")
                .access(a)
                .working_set_bytes(ws)
                .build()
                .l3_miss_ratio(llc)
        };
        assert!(miss(AccessPattern::Streaming) < miss(AccessPattern::Strided));
        assert!(miss(AccessPattern::Strided) < miss(AccessPattern::Random));
        assert!(miss(AccessPattern::Random) < miss(AccessPattern::PointerChase));
    }

    #[test]
    fn resident_working_set_mostly_hits() {
        let t = KernelTraits::builder("k")
            .access(AccessPattern::PointerChase)
            .working_set_bytes(1 << 20)
            .build();
        assert!(t.l3_miss_ratio(8 << 20) < 0.1);
    }

    #[test]
    fn zero_llc_uses_base_miss() {
        let t = KernelTraits::builder("k")
            .access(AccessPattern::Random)
            .build();
        assert_eq!(t.l3_miss_ratio(0), AccessPattern::Random.base_miss());
    }

    #[test]
    fn display_contains_name_and_rates() {
        let t = KernelTraits::builder("mandelbrot").cpu_rate(2.0e6).build();
        let s = t.to_string();
        assert!(s.contains("mandelbrot"));
        assert!(s.contains("2.000e6"));
    }
}
