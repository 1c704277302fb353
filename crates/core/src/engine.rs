//! The stateless decision engine — the *policy* layer of the scheduling
//! engine.
//!
//! [`DecisionEngine`] turns one profiling [`Observation`] into one
//! [`Decision`] (Fig 7 steps 15–20): derive the combined-mode
//! throughputs R_C/R_G, classify the workload, pick the
//! matching power curve P(α), build the analytical time model T(α)
//! (Eqs. 1–4), and minimize OBJ(P(α), T(α)) over α. It holds only
//! immutable configuration and the characterized power model — no kernel
//! table, no log, no counters — so one engine is freely shared across
//! threads (`Send + Sync`) and a decision never takes a lock.
//!
//! The common decision does not run the minimization at all. T(α) is
//! (N/R_C)·max(1−α, α/ρ) with ρ = R_G/R_C, and a built-in objective is
//! P·Tᵏ, so given the class the grid optimum is a step function of ρ
//! alone. The engine tabulates that function per class the first time a
//! class is decided ([`DecisionEngine::alpha_table`]) and answers from it
//! wherever the table is certain; `minimize` remains the one place OBJ is
//! evaluated over α, decides every other call, and is what each table
//! entry is checked against (DESIGN.md §8).

use crate::classify::WorkloadClass;
use crate::eas::{AlphaSearch, Decision, EasConfig};
use crate::guard::{FaultKind, ObservationGuard};
use crate::power_model::PowerModel;
use crate::time_model::TimeModel;
use easched_num::{golden_section_min, grid_min};
use easched_runtime::{KernelId, Observation};
use std::sync::OnceLock;

/// Half-width of the α window a cross-platform warm-start prior narrows
/// the search to (fleet replication, DESIGN.md §15). Wide enough that a
/// mediocre prior still contains the neighborhood of this platform's own
/// optimum — per-device energy behavior differs, so a ratio tuned on one
/// part is only a *hint* elsewhere — and profiling always runs in full,
/// so a bad prior costs search resolution for a few rounds, never a
/// wrong table entry.
pub const PRIOR_WINDOW: f64 = 0.25;

/// The α window of a decision made without a warm-start prior.
const FULL_WINDOW: (f64, f64) = (0.0, 1.0);

/// A stored ρ has every other grid point's score at least this far,
/// relatively, above the winner's. The evaluated scores carry a relative
/// rounding error below 1e-12 over the table's domain, so inside a
/// segment the sweep cannot pick a different sample; a ρ nearer than this
/// to a crossing (or a class with two near-equal samples) is in no
/// segment and is evaluated.
const SCORE_MARGIN: f64 = 1e-7;

/// Finest grid that is tabulated: building is O(steps²) and a sample's
/// T(α) carries a relative error that grows with `steps`.
const MAX_TABLE_STEPS: usize = 256;

/// ρ = R_G/R_C covered by a table, 2⁻³² to 2³².
const RHO_DOMAIN: (f64, f64) = (1.0 / (1u64 << 32) as f64, (1u64 << 32) as f64);

/// N/R_C — the CPU-alone time, seconds — covered by a table, 2⁻¹⁰⁰ to
/// 2¹⁰⁰; with [`RHO_DOMAIN`] and [`POWER_DOMAIN`] it keeps P·T³ and every
/// intermediate of T(α) a normal number (between 2⁻⁴⁹⁶ and 2⁴⁹⁶).
const SPAN_DOMAIN: (f64, f64) = (1.0 / (1u128 << 100) as f64, (1u128 << 100) as f64);

/// Watts a curve may predict at a grid sample of a tabulated class,
/// 2⁻¹⁰⁰ to 2¹⁰⁰.
const POWER_DOMAIN: (f64, f64) = SPAN_DOMAIN;

/// One step of a class's tabulated α\*(ρ): every ρ = R_G/R_C in
/// `[rho_lo, rho_hi]` decides `alpha`. What lies between two segments is
/// evaluated, not looked up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlphaSegment {
    /// Smallest ρ the segment answers.
    pub rho_lo: f64,
    /// Largest ρ the segment answers.
    pub rho_hi: f64,
    /// The grid sample the evaluated search returns over the segment.
    pub(crate) alpha: f64,
}

/// The pure per-observation decision procedure: configuration + power
/// model, nothing mutable.
///
/// # Examples
///
/// ```
/// use easched_core::{DecisionEngine, EasConfig, Objective, PowerCurve, PowerModel, WorkloadClass};
/// use easched_num::Polynomial;
/// use easched_runtime::Observation;
///
/// let curves = WorkloadClass::all().into_iter()
///     .map(|c| PowerCurve::new(c, Polynomial::constant(50.0), 0.0, 11)).collect();
/// let engine = DecisionEngine::new(
///     PowerModel::new("flat", curves),
///     EasConfig::new(Objective::Time),
/// );
/// let obs = Observation {
///     elapsed: 0.001,
///     cpu_items: 1_000,
///     gpu_items: 2_000,
///     cpu_time: 0.001,
///     gpu_time: 0.001,
///     energy_joules: 0.05,
///     ..Default::default()
/// };
/// // Time objective on a 1:2 machine → α_PERF ≈ 0.667, grid → 0.7.
/// let d = engine.decide(7, &obs, 500_000);
/// assert!((d.alpha - 0.7).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct DecisionEngine {
    config: EasConfig,
    model: PowerModel,
    guard: ObservationGuard,
    /// `(steps, k)` when the configuration is one a table can answer: a
    /// grid search and a built-in P·Tᵏ objective.
    tabulated: Option<(usize, u8)>,
    /// α\*(ρ) per class index, built on the class's first decision.
    tables: [OnceLock<Box<[AlphaSegment]>>; 8],
}

impl DecisionEngine {
    /// Creates the engine from a platform's characterized power model.
    ///
    /// # Panics
    ///
    /// Panics if `config.profile_fraction` is outside (0, 1] — a zero
    /// fraction would silently disable profiling and degenerate every
    /// first-seen kernel to CPU-only execution.
    pub fn new(model: PowerModel, config: EasConfig) -> DecisionEngine {
        assert!(
            config.profile_fraction > 0.0 && config.profile_fraction <= 1.0,
            "profile_fraction must be in (0, 1]"
        );
        let guard = ObservationGuard::from_model(&model);
        let tabulated = match config.alpha_search {
            AlphaSearch::Grid(steps) if steps <= MAX_TABLE_STEPS => {
                config.objective.time_exponent().map(|k| (steps.max(1), k))
            }
            _ => None,
        };
        DecisionEngine {
            config,
            model,
            guard,
            tabulated,
            tables: Default::default(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EasConfig {
        &self.config
    }

    /// The characterized power model the engine decides against.
    pub fn model(&self) -> &PowerModel {
        &self.model
    }

    /// Validates an observation before it may influence a decision:
    /// `Ok(())` if plausible, or the [`FaultKind`] no healthy platform
    /// could have produced.
    pub fn vet(&self, obs: &Observation) -> Result<(), FaultKind> {
        self.guard.vet(obs)
    }

    /// One α decision from a profiling observation (Fig 7 steps 15–20).
    /// Pure: same observation in, same decision out; no interior state.
    pub fn decide(&self, kernel: KernelId, obs: &Observation, n_remaining: u64) -> Decision {
        self.decide_with_prior(kernel, obs, n_remaining, None)
    }

    /// [`decide`](DecisionEngine::decide) with an optional cross-platform
    /// warm-start prior: `Some(p)` narrows the α search to
    /// `[p − PRIOR_WINDOW, p + PRIOR_WINDOW] ∩ [0, 1]` — same step
    /// count, finer resolution near the foreign optimum. `None` is
    /// byte-identical to the unprimed path, so single-node runs are
    /// unaffected by the fleet plumbing.
    pub fn decide_with_prior(
        &self,
        kernel: KernelId,
        obs: &Observation,
        n_remaining: u64,
        prior: Option<f64>,
    ) -> Decision {
        let r_c = obs.cpu_rate();
        let r_g = obs.gpu_rate();
        let class = self.config.classifier.classify_rates(
            obs.counters.miss_per_load(),
            r_c,
            r_g,
            n_remaining,
        );
        let decision = |alpha: f64| Decision {
            kernel,
            r_c,
            r_g,
            class,
            n_remaining,
            alpha,
        };
        // Degenerate devices: all work to the live one, prior or not.
        if r_g <= 0.0 {
            return decision(0.0);
        }
        if r_c <= 0.0 {
            return decision(1.0);
        }
        if prior.is_none() {
            if let Some(alpha) = self.lookup(class, r_c, r_g, n_remaining) {
                // Debug builds re-run the search behind every lookup.
                debug_assert_eq!(
                    alpha.to_bits(),
                    self.minimize(class, r_c, r_g, n_remaining, FULL_WINDOW)
                        .to_bits(),
                    "table and search disagree: {class:?} r_c={r_c:e} r_g={r_g:e} n={n_remaining}"
                );
                return decision(alpha);
            }
        }
        let window = match prior {
            Some(p) if p.is_finite() => {
                let p = p.clamp(0.0, 1.0);
                ((p - PRIOR_WINDOW).max(0.0), (p + PRIOR_WINDOW).min(1.0))
            }
            _ => FULL_WINDOW,
        };
        decision(self.minimize(class, r_c, r_g, n_remaining, window))
    }

    /// The tabulated α\*(ρ) of `class`, ascending in ρ and built on first
    /// use: what an unprimed [`decide`](DecisionEngine::decide) answers
    /// from when both rates are positive and N/R_C is between 2⁻¹⁰⁰ and
    /// 2¹⁰⁰ seconds. Empty when nothing is tabulated: a custom objective,
    /// a golden-section or finer-than-256-step search, or a class whose
    /// power curve leaves 2⁻¹⁰⁰..2¹⁰⁰ W at a grid sample.
    pub fn alpha_table(&self, class: WorkloadClass) -> &[AlphaSegment] {
        match self.tabulated {
            Some((steps, k)) => {
                self.tables[class.index()].get_or_init(|| self.build_table(class, steps, k))
            }
            None => &[],
        }
    }

    /// The table's answer for an unprimed decision between two live
    /// devices, or `None` where the search has to run.
    fn lookup(&self, class: WorkloadClass, r_c: f64, r_g: f64, n_remaining: u64) -> Option<f64> {
        let table = self.alpha_table(class);
        if n_remaining == 0 {
            // Every sample scores 0 and the search keeps its first.
            return (!table.is_empty()).then_some(FULL_WINDOW.0);
        }
        let span = n_remaining as f64 / r_c;
        if !(SPAN_DOMAIN.0..=SPAN_DOMAIN.1).contains(&span) {
            return None;
        }
        // Segments lie inside RHO_DOMAIN, so a ρ outside it — or the NaN
        // of two infinite rates — is in none.
        let rho = r_g / r_c;
        let at = table.partition_point(|s| s.rho_hi < rho);
        table.get(at).filter(|s| s.rho_lo <= rho).map(|s| s.alpha)
    }

    /// Tabulates `class` for a `steps`-step grid under P·Tᵏ.
    ///
    /// Over the common factor (N/R_C)ᵏ sample i scores max(Aᵢ, Bᵢ/ρᵏ)
    /// with Aᵢ = OBJ(Pᵢ, 1−αᵢ) and Bᵢ = OBJ(Pᵢ, αᵢ): falling in ρ while
    /// the GPU is what the sample waits for, level once the CPU is. The
    /// level starts at ρ = αᵢ/(1−αᵢ), later for a later sample, so the
    /// log-ratio of any two samples' scores is monotone in ρ and the ρ
    /// where sample w leads sample j by [`SCORE_MARGIN`] form a half-line:
    /// from (M·B_w/Aⱼ)^(1/k) up for an earlier j, up to (Bⱼ/(M·A_w))^(1/k)
    /// for a later one, M = 1 + margin. Their intersection is w's
    /// segment. Both ends are then put to the search; a segment it does
    /// not confirm is not stored.
    fn build_table(&self, class: WorkloadClass, steps: usize, k: u8) -> Box<[AlphaSegment]> {
        let curve = self.model.curve(class);
        let objective = &self.config.objective;
        let mut level = Vec::with_capacity(steps + 1);
        let mut fall = Vec::with_capacity(steps + 1);
        for i in 0..=steps {
            // The sample `grid_min` takes over the full window.
            let alpha = i as f64 / steps as f64;
            let watts = curve.predict(alpha);
            if !(POWER_DOMAIN.0..=POWER_DOMAIN.1).contains(&watts) {
                return Box::default();
            }
            level.push(objective.evaluate(watts, 1.0 - alpha));
            fall.push(objective.evaluate(watts, alpha));
        }
        let root = |x: f64| match k {
            1 => x,
            2 => x.sqrt(),
            _ => x.cbrt(),
        };
        let m = 1.0 + SCORE_MARGIN;
        let mut table = Vec::with_capacity(steps + 1);
        'sample: for w in 0..=steps {
            // Bounds on ρᵏ.
            let (mut lo, mut hi) = (0.0f64, f64::INFINITY);
            for j in 0..w {
                if fall[j] >= fall[w] * m {
                    continue; // clear of w at every ρ
                }
                if level[j] < level[w] * m {
                    continue 'sample; // never clear of w
                }
                lo = lo.max(fall[w] * m / level[j]);
            }
            for j in w + 1..=steps {
                if level[j] >= level[w] * m {
                    continue;
                }
                if fall[j] < fall[w] * m {
                    continue 'sample;
                }
                hi = hi.min(fall[j] / (level[w] * m));
            }
            let rho_lo = root(lo).max(RHO_DOMAIN.0);
            let rho_hi = root(hi).min(RHO_DOMAIN.1);
            if rho_lo > rho_hi {
                continue;
            }
            let search = |rho: f64| self.minimize(class, 1.0, rho, 1 << 20, FULL_WINDOW);
            let alpha = search(rho_lo);
            if alpha == w as f64 / steps as f64 && search(rho_hi) == alpha {
                table.push(AlphaSegment {
                    rho_lo,
                    rho_hi,
                    alpha,
                });
            }
        }
        debug_assert!(table.windows(2).all(|p| p[0].rho_hi < p[1].rho_lo));
        table.into()
    }

    /// The model outputs backing a decision: re-evaluates P(α), T(α), and
    /// OBJ at the decision's chosen α — the numbers the minimizer compared
    /// when it picked that α. Telemetry pins these against realized time
    /// and energy for model-drift detection; the scheduling path itself
    /// never calls this.
    pub fn predict(&self, decision: &Decision) -> Prediction {
        let power = self.model.curve(decision.class).predict(decision.alpha);
        let time = TimeModel::new(decision.r_c, decision.r_g)
            .total_time(decision.alpha, decision.n_remaining);
        Prediction {
            power,
            time,
            objective: self.config.objective.evaluate(power, time),
        }
    }

    /// Grid- or golden-section-minimizes OBJ(P(α), T(α)) over
    /// α ∈ [lo, hi] (the full [0, 1] unless a warm-start prior narrowed
    /// the window).
    #[allow(clippy::disallowed_methods)] // the one search the α* table is built from
    fn minimize(
        &self,
        class: WorkloadClass,
        r_c: f64,
        r_g: f64,
        n_remaining: u64,
        (lo, hi): (f64, f64),
    ) -> f64 {
        let curve = self.model.curve(class);
        let tm = TimeModel::new(r_c, r_g);
        let objective = &self.config.objective;
        let score = |alpha: f64| {
            let t = tm.total_time(alpha, n_remaining);
            if !t.is_finite() {
                return f64::INFINITY;
            }
            objective.evaluate(curve.predict(alpha), t)
        };
        match self.config.alpha_search {
            AlphaSearch::Grid(steps) => grid_min(lo, hi, steps.max(1), score).x,
            AlphaSearch::GoldenSection { tol } => {
                // Golden section finds interior optima; compare against the
                // endpoints explicitly since boundary optima are common.
                let (x, v) = golden_section_min(lo, hi, tol.max(1e-6), score);
                let mut best = (x, v);
                for endpoint in [lo, hi] {
                    let v = score(endpoint);
                    if v < best.1 {
                        best = (endpoint, v);
                    }
                }
                best.0
            }
        }
    }
}

/// What the model expected of a decision: the predicted package power
/// P(α), remainder time T(α), and objective value at the chosen α.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Prediction {
    /// Predicted package power at the chosen α, watts.
    pub(crate) power: f64,
    /// Predicted remainder execution time at the chosen α, seconds.
    pub(crate) time: f64,
    /// OBJ(P(α), T(α)) — the value the minimizer selected.
    pub(crate) objective: f64,
}

// The engine is shared across threads by design; fail the build if a field
// ever loses thread safety.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DecisionEngine>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::Objective;
    use crate::power_model::PowerCurve;
    use easched_num::Polynomial;

    fn flat_model(watts: f64) -> PowerModel {
        let curves = WorkloadClass::all()
            .into_iter()
            .map(|c| PowerCurve::new(c, Polynomial::constant(watts), 0.0, 11))
            .collect();
        PowerModel::new("flat", curves)
    }

    fn obs(cpu_items: u64, gpu_items: u64) -> Observation {
        Observation {
            elapsed: 0.001,
            cpu_items,
            gpu_items,
            cpu_time: 0.001,
            gpu_time: 0.001,
            energy_joules: 0.05,
            ..Default::default()
        }
    }

    #[test]
    fn decide_is_pure() {
        let engine = DecisionEngine::new(flat_model(50.0), EasConfig::new(Objective::EnergyDelay));
        let o = obs(1_000, 2_000);
        let a = engine.decide(1, &o, 100_000);
        let b = engine.decide(1, &o, 100_000);
        assert_eq!(a, b);
        assert_eq!(a.kernel, 1);
    }

    #[test]
    fn dead_devices_get_nothing() {
        let engine = DecisionEngine::new(flat_model(50.0), EasConfig::new(Objective::Energy));
        assert_eq!(engine.decide(1, &obs(1_000, 0), 1_000).alpha, 0.0);
        assert_eq!(engine.decide(1, &obs(0, 1_000), 1_000).alpha, 1.0);
    }

    #[test]
    fn predict_reevaluates_the_decided_point() {
        let engine = DecisionEngine::new(flat_model(50.0), EasConfig::new(Objective::EnergyDelay));
        let d = engine.decide(1, &obs(1_000, 2_000), 100_000);
        let p = engine.predict(&d);
        assert_eq!(p.power, 50.0);
        assert!(p.time > 0.0 && p.time.is_finite());
        let expected = engine.config().objective.evaluate(p.power, p.time);
        assert!((p.objective - expected).abs() < 1e-12);
        // The minimizer chose d.alpha: no grid point predicts lower.
        for k in 0..=10u32 {
            let alt = Decision {
                alpha: f64::from(k) / 10.0,
                ..d
            };
            assert!(engine.predict(&alt).objective >= p.objective - 1e-12);
        }
    }

    #[test]
    fn no_prior_is_byte_identical_to_decide() {
        let engine = DecisionEngine::new(flat_model(50.0), EasConfig::new(Objective::EnergyDelay));
        let o = obs(1_000, 2_000);
        let plain = engine.decide(1, &o, 100_000);
        let primed = engine.decide_with_prior(1, &o, 100_000, None);
        assert_eq!(plain, primed);
        // Non-finite priors are ignored, not applied.
        let nan = engine.decide_with_prior(1, &o, 100_000, Some(f64::NAN));
        assert_eq!(plain, nan);
    }

    #[test]
    fn prior_narrows_the_search_window_but_never_skips_it() {
        // Time objective on a 1:2 machine: the unprimed optimum is ≈2/3.
        let engine = DecisionEngine::new(flat_model(50.0), EasConfig::new(Objective::Time));
        let o = obs(1_000, 2_000);
        let plain = engine.decide(1, &o, 500_000);
        // A prior near the true optimum refines toward it within the
        // window (grid resolution is finer over the narrowed span).
        let near = engine.decide_with_prior(1, &o, 500_000, Some(0.7));
        assert!((near.alpha - 2.0 / 3.0).abs() <= (plain.alpha - 2.0 / 3.0).abs() + 1e-12);
        assert!(near.alpha >= 0.7 - PRIOR_WINDOW - 1e-12);
        assert!(near.alpha <= 0.7 + PRIOR_WINDOW + 1e-12);
        // A hostile prior clamps to the window edge nearest the optimum —
        // bounded damage, and the next accumulation re-profiles anyway.
        let far = engine.decide_with_prior(1, &o, 500_000, Some(0.0));
        assert!((far.alpha - PRIOR_WINDOW).abs() < 1e-9);
        // Out-of-range priors clamp into [0, 1] first.
        let hi = engine.decide_with_prior(1, &o, 500_000, Some(7.0));
        assert!(hi.alpha >= 1.0 - PRIOR_WINDOW - 1e-12);
    }

    #[test]
    fn prior_keeps_degenerate_device_rules() {
        let engine = DecisionEngine::new(flat_model(50.0), EasConfig::new(Objective::Energy));
        assert_eq!(
            engine
                .decide_with_prior(1, &obs(1_000, 0), 1_000, Some(0.9))
                .alpha,
            0.0
        );
        assert_eq!(
            engine
                .decide_with_prior(1, &obs(0, 1_000), 1_000, Some(0.1))
                .alpha,
            1.0
        );
    }

    #[test]
    #[should_panic(expected = "profile_fraction must be in (0, 1]")]
    fn rejects_zero_profile_fraction() {
        let mut cfg = EasConfig::new(Objective::Energy);
        cfg.profile_fraction = 0.0;
        DecisionEngine::new(flat_model(50.0), cfg);
    }
}
