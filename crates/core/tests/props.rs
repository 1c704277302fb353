//! Property-based tests for the scheduler's analytical models.

use easched_core::{Classifier, Objective, TimeModel, WorkloadClass};
use easched_runtime::Observation;
use easched_sim::CounterSnapshot;
use proptest::prelude::*;

proptest! {
    /// T(α) is minimized at α_PERF (Equation 2 is the argmin of Equation 4).
    #[test]
    fn alpha_perf_minimizes_time(
        r_c in 1e3..1e8f64,
        r_g in 1e3..1e8f64,
        n in 1u64..10_000_000,
    ) {
        let m = TimeModel::new(r_c, r_g);
        let t_opt = m.total_time(m.alpha_perf(), n);
        for i in 0..=20 {
            let a = i as f64 / 20.0;
            prop_assert!(m.total_time(a, n) >= t_opt * (1.0 - 1e-12));
        }
    }

    /// The combined phase never exceeds the total (Eq 1 vs Eq 4) and both
    /// scale linearly in N.
    #[test]
    fn combined_phase_bounds_and_scaling(
        r_c in 1e3..1e8f64,
        r_g in 1e3..1e8f64,
        alpha_step in 0usize..=10,
        n in 1u64..1_000_000,
    ) {
        let alpha = alpha_step as f64 / 10.0;
        let m = TimeModel::new(r_c, r_g);
        prop_assert!(m.combined_time(alpha, n) <= m.total_time(alpha, n) + 1e-12);
        let t1 = m.total_time(alpha, n);
        let t2 = m.total_time(alpha, 2 * n);
        prop_assert!((t2 - 2.0 * t1).abs() < 1e-9 * (1.0 + t1.abs()) * 2e6);
    }

    /// Endpoint times equal single-device times.
    #[test]
    fn endpoints_are_solo_times(r_c in 1e3..1e8f64, r_g in 1e3..1e8f64, n in 1u64..1_000_000) {
        let m = TimeModel::new(r_c, r_g);
        prop_assert!((m.total_time(0.0, n) - n as f64 / r_c).abs() < 1e-6 * (n as f64 / r_c));
        prop_assert!((m.total_time(1.0, n) - n as f64 / r_g).abs() < 1e-6 * (n as f64 / r_g));
    }

    /// Objectives are positive, monotone in both power and time.
    #[test]
    fn objectives_monotone(p in 0.1..200.0f64, t in 0.001..100.0f64, dp in 0.1..10.0f64, dt in 0.001..10.0f64) {
        for obj in [Objective::Energy, Objective::EnergyDelay, Objective::EnergyDelaySquared] {
            let base = obj.evaluate(p, t);
            prop_assert!(base > 0.0);
            prop_assert!(obj.evaluate(p + dp, t) > base);
            prop_assert!(obj.evaluate(p, t + dt) > base);
        }
        prop_assert!((Objective::Time.evaluate(p, t) - t).abs() < 1e-12);
    }

    /// `of_totals` is consistent with `evaluate` at the implied power.
    #[test]
    fn of_totals_consistent(e in 0.1..1e5f64, t in 0.001..1e3f64) {
        for obj in [Objective::Energy, Objective::EnergyDelay, Objective::Time] {
            let via_totals = obj.of_totals(e, t);
            let via_power = obj.evaluate(e / t, t);
            prop_assert!((via_totals - via_power).abs() < 1e-9 * (1.0 + via_power.abs()));
        }
    }

    /// Class index roundtrips and classification respects its thresholds.
    #[test]
    fn classification_thresholds(
        miss_ratio in 0.0..1.0f64,
        cpu_rate in 1e3..1e8f64,
        gpu_rate in 1e3..1e8f64,
        n in 1u64..10_000_000,
    ) {
        let c = Classifier::default();
        let obs = Observation {
            cpu_items: (cpu_rate * 0.01) as u64,
            gpu_items: (gpu_rate * 0.01) as u64,
            cpu_time: 0.01,
            gpu_time: 0.01,
            counters: CounterSnapshot {
                instructions: 1e6,
                loads: 1e5,
                l3_misses: 1e5 * miss_ratio,
            },
            ..Default::default()
        };
        prop_assume!(obs.cpu_items > 0 && obs.gpu_items > 0);
        let class = c.classify(&obs, n);
        prop_assert_eq!(class.memory_bound, miss_ratio > c.memory_threshold);
        prop_assert_eq!(class.cpu_short, n as f64 / obs.cpu_rate() <= c.short_threshold);
        prop_assert_eq!(class.gpu_short, n as f64 / obs.gpu_rate() <= c.short_threshold);
        prop_assert_eq!(WorkloadClass::from_index(class.index()), class);
    }
}

mod persist_props {
    use easched_core::{
        model_from_text, model_to_text, table_from_text, table_to_text, ModelParseError,
    };
    use easched_core::{Accumulation, KernelTable, PowerCurve, PowerModel, WorkloadClass};
    use easched_num::Polynomial;
    use easched_runtime::{unseal, LineWriter};
    use proptest::prelude::*;

    fn sample_model() -> PowerModel {
        let curves: Vec<PowerCurve> = WorkloadClass::all()
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                PowerCurve::new(
                    c,
                    Polynomial::new(vec![30.0 + i as f64, -0.5, 2.25]),
                    0.1 * i as f64,
                    21,
                )
            })
            .collect();
        PowerModel::new("prop-platform", curves)
    }

    fn sample_table() -> KernelTable {
        let t = KernelTable::new();
        t.accumulate(3, 0.25, 1_000.0, Accumulation::SampleWeighted);
        t.accumulate(7, 2.0 / 3.0, 50_000.0, Accumulation::SampleWeighted);
        t.accumulate(900, 1.0, 1e9, Accumulation::SampleWeighted);
        t.note_reuse(7);
        t.taint(900);
        t
    }

    /// Byte offset where the trailing checksum line starts (exclusive end
    /// of the digest-covered region).
    fn covered_len(text: &str) -> usize {
        text.rfind("\nchecksum ").unwrap() + 1
    }

    /// `body` as one sealed line, as a careful hand edit leaves it.
    fn sealed(body: &str) -> String {
        let mut line = String::new();
        LineWriter::begin(&mut line, body).seal();
        line
    }

    /// The sample table's text, its lines edited by `edit`.
    fn edited(edit: impl FnOnce(&mut Vec<&str>)) -> String {
        let text = table_to_text(&sample_table());
        let mut lines: Vec<&str> = text.lines().collect();
        edit(&mut lines);
        lines.iter().map(|line| format!("{line}\n")).collect()
    }

    proptest! {
        /// Any well-formed model round-trips through the text format with
        /// bit-exact curve predictions.
        #[test]
        fn persistence_roundtrips_arbitrary_models(
            coeffs in prop::collection::vec(
                prop::collection::vec(-1e4..1e4f64, 1..8),
                8,
            ),
            rmses in prop::collection::vec(0.0..10.0f64, 8),
        ) {
            let curves: Vec<PowerCurve> = WorkloadClass::all()
                .into_iter()
                .zip(coeffs.iter().zip(&rmses))
                .map(|(class, (cs, &rmse))| {
                    PowerCurve::new(class, Polynomial::new(cs.clone()), rmse, 21)
                })
                .collect();
            let model = PowerModel::new("prop-platform", curves);
            let back = model_from_text(&model_to_text(&model)).unwrap();
            prop_assert_eq!(back.platform_name(), model.platform_name());
            for class in WorkloadClass::all() {
                prop_assert_eq!(
                    back.curve(class).poly().coeffs(),
                    model.curve(class).poly().coeffs()
                );
                for i in 0..=10 {
                    let a = i as f64 / 10.0;
                    prop_assert_eq!(back.predict(class, a), model.predict(class, a));
                }
            }
        }

        /// Truncating a file never panics: it either fails cleanly or (when
        /// the cut happens to land on a token boundary of the last line)
        /// still yields a structurally valid eight-curve model.
        #[test]
        fn truncated_files_never_panic(cut in 0usize..400) {
            let curves: Vec<PowerCurve> = WorkloadClass::all()
                .into_iter()
                .map(|c| PowerCurve::new(c, Polynomial::constant(42.0), 0.1, 21))
                .collect();
            let text = model_to_text(&PowerModel::new("p", curves));
            let truncated: String = text.chars().take(cut.min(text.len())).collect();
            match model_from_text(&truncated) {
                Ok(model) => prop_assert_eq!(model.curves().len(), 8),
                Err(e) => prop_assert!(!e.to_string().is_empty()),
            }
            // Dropping a whole curve line must always fail.
            let missing_line: String = text.lines().take(9).collect::<Vec<_>>().join("\n");
            prop_assert!(model_from_text(&missing_line).is_err());
        }

        /// Flipping any low bit of any byte never panics the model parser,
        /// and a flip inside the digest-covered body is always rejected
        /// (the FNV-1a per-byte step is injective). A flip that still
        /// parses (e.g. whitespace churn on the checksum line itself) must
        /// yield the identical model.
        #[test]
        fn model_bit_flips_detected_or_harmless(pos in 0usize..4096, bit in 0u32..7) {
            let model = sample_model();
            let text = model_to_text(&model);
            prop_assume!(text.is_ascii());
            let pos = pos % text.len();
            let mut bytes = text.clone().into_bytes();
            bytes[pos] ^= 1 << bit; // low 7 bits: stays ASCII, stays UTF-8
            let mutated = String::from_utf8(bytes).unwrap();
            match model_from_text(&mutated) {
                Ok(back) => prop_assert_eq!(back, model),
                Err(e) => prop_assert!(!e.to_string().is_empty()),
            }
            if pos < covered_len(&text) {
                prop_assert!(model_from_text(&mutated).is_err(), "body flip at {} accepted", pos);
            }
        }

        /// Same guarantee for the kernel table, whose every line is sealed
        /// on its own: a single-bit flip is refused, or it changed only the
        /// case of a seal's hex digit and reads back the identical table.
        #[test]
        fn table_bit_flips_detected_or_harmless(pos in 0usize..4096, bit in 0u32..7) {
            let table = sample_table();
            let text = table_to_text(&table);
            prop_assume!(text.is_ascii());
            let pos = pos % text.len();
            let mut bytes = text.clone().into_bytes();
            bytes[pos] ^= 1 << bit;
            let mutated = String::from_utf8(bytes).unwrap();
            match table_from_text(&mutated) {
                Ok(back) => {
                    prop_assert_eq!(back.snapshot_with_taint(), table.snapshot_with_taint());
                    prop_assert!(mutated.eq_ignore_ascii_case(&text), "flip at {} accepted", pos);
                }
                Err(e) => prop_assert!(!e.to_string().is_empty()),
            }
            // A mutation a seal vouches for (the line was resealed after
            // it): a weight that would poison every later accumulation of
            // the kernel is refused by the grammar itself.
            let poison = ["NaN", "inf", "-1"][bit as usize % 3];
            let weight = ["weight 1e3", "weight 5e4", "weight 1e9"][pos % 3];
            let line = text.lines().find(|line| line.contains(weight)).unwrap();
            let body = unseal(line).unwrap();
            prop_assert_eq!(sealed(body), format!("{line}\n"));
            let poisoned = sealed(&body.replacen(weight, &format!("weight {poison}"), 1));
            let poisoned = text.replacen(&format!("{line}\n"), &poisoned, 1);
            prop_assert!(poisoned != text);
            prop_assert!(table_from_text(&poisoned).is_err(), "{} accepted", poisoned);
        }

        /// Truncating a table file at any byte short of its end is refused:
        /// the cut tears a line or drops the `end` line that closes it.
        #[test]
        fn table_truncations_are_refused(cut in 0usize..4096) {
            let text = table_to_text(&sample_table());
            let cut = cut % text.len();
            prop_assert!(table_from_text(&text[..cut]).is_err(), "cut at {} accepted", cut);
        }

        /// Swapping two distinct records — the breaker line, a `put`, the
        /// `end` — is refused as a bad line. Each line keeps its seal, so
        /// the order refuses it: the breaker comes first, `put` ids ascend
        /// strictly, and `end` closes the file.
        #[test]
        fn reordered_records_are_refused(i in 0usize..5, j in 0usize..5) {
            let table = sample_table();
            // Line 0 is the header; then the breaker, three puts and `end`.
            let swapped = edited(|lines| lines.swap(1 + i, 1 + j));
            match table_from_text(&swapped) {
                Ok(back) => {
                    prop_assert_eq!(i, j);
                    prop_assert_eq!(back.snapshot_with_taint(), table.snapshot_with_taint());
                }
                Err(e) => {
                    prop_assert!(i != j, "{}", e);
                    prop_assert!(matches!(e, ModelParseError::BadLine { .. }), "{}", e);
                }
            }
        }

        /// A duplicated record is refused: a second `put` of a kernel
        /// breaks the ascending ids, a second breaker its place, a second
        /// `end` follows the first.
        #[test]
        fn a_duplicated_record_is_refused(i in 0usize..5) {
            let doubled = edited(|lines| lines.insert(1 + i, lines[1 + i]));
            let refused = matches!(table_from_text(&doubled), Err(ModelParseError::BadLine { .. }));
            prop_assert!(refused, "{}", doubled);
        }

        /// A dropped record is refused: without a `put`, `end` miscounts;
        /// without the breaker, a `put` comes first; without `end`, the file
        /// is not closed.
        #[test]
        fn a_dropped_record_is_refused(i in 0usize..5) {
            let dropped = edited(|lines| {
                lines.remove(1 + i);
            });
            let refused = matches!(table_from_text(&dropped), Err(ModelParseError::BadLine { .. }));
            prop_assert!(refused, "{}", dropped);
        }
    }
}

/// Model-based test of G's merged record: random operation sequences run
/// against the sharded [`KernelTable`](easched_core::KernelTable) and
/// against a reference of three plain maps — entries, priors, drift cells —
/// that follows the rules the scheduler relied on when those lived in
/// three separately locked structures.
mod record_model {
    use easched_core::{
        Accumulation, AlphaStat, DriftCell, DriftMonitor, DriftOutcome, DriftPolicy, KernelTable,
        ReuseProbe,
    };
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Small enough that every operation keeps hitting the same kernels.
    const KEYS: u64 = 5;

    #[derive(Default, Clone)]
    struct Reference {
        entries: BTreeMap<u64, (AlphaStat, bool)>,
        priors: BTreeMap<u64, f64>,
        drift: BTreeMap<u64, DriftCell>,
    }

    impl Reference {
        fn accumulate(&mut self, k: u64, alpha: f64, weight: f64, mode: Accumulation) -> AlphaStat {
            // Local learning erases the prior and clears the taint.
            self.priors.remove(&k);
            let fresh = AlphaStat {
                alpha,
                weight: 0.0,
                invocations_seen: 0,
            };
            let (stat, tainted) = self.entries.entry(k).or_insert((fresh, false));
            *tainted = false;
            match mode {
                Accumulation::SampleWeighted => {
                    let total = stat.weight + weight;
                    if total > 0.0 {
                        stat.alpha = (stat.alpha * stat.weight + alpha * weight) / total;
                        stat.weight = total;
                    }
                }
                Accumulation::LastValue => {
                    stat.alpha = alpha;
                    stat.weight = weight;
                }
            }
            *stat
        }

        fn taint(&mut self, k: u64) {
            // A no-op on an unknown kernel.
            if let Some((_, tainted)) = self.entries.get_mut(&k) {
                *tainted = true;
            }
        }

        fn set_prior(&mut self, k: u64, alpha: f64) -> bool {
            // Refused once learned, and while an earlier prior stands.
            let install = alpha.is_finite()
                && !self.entries.contains_key(&k)
                && !self.priors.contains_key(&k);
            if install {
                self.priors.insert(k, alpha.clamp(0.0, 1.0));
            }
            install
        }

        fn note_reuse(&mut self, k: u64) -> Option<ReuseProbe> {
            // Priors are invisible to the reuse path.
            let (stat, tainted) = self.entries.get_mut(&k)?;
            stat.invocations_seen += 1;
            Some(ReuseProbe {
                alpha: stat.alpha,
                invocations_seen: stat.invocations_seen,
                tainted: *tainted,
            })
        }

        fn insert(&mut self, k: u64, stat: AlphaStat) {
            // A verbatim install starts the record over.
            self.entries.insert(k, (stat, false));
            self.priors.remove(&k);
            self.drift.remove(&k);
        }

        fn fold(
            &mut self,
            monitor: &DriftMonitor,
            k: u64,
            predicted: Option<f64>,
            realized: f64,
        ) -> Option<DriftOutcome> {
            // Drift is judged against a learned ratio: no entry, no fold.
            if !self.entries.contains_key(&k) {
                return None;
            }
            monitor.observe(self.drift.entry(k).or_default(), predicted, realized, 10)
        }
    }

    /// Everything observable about `table` equals the reference.
    fn assert_same(table: &KernelTable, reference: &Reference) {
        for k in 0..KEYS {
            let entry = reference.entries.get(&k);
            assert_eq!(table.stat(k), entry.map(|e| e.0), "stat {k}");
            assert_eq!(table.lookup(k), entry.map(|e| e.0.alpha), "lookup {k}");
            assert_eq!(table.is_tainted(k), entry.is_some_and(|e| e.1), "taint {k}");
            assert_eq!(
                table.prior(k),
                reference.priors.get(&k).copied(),
                "prior {k}"
            );
            let ewma = reference.drift.get(&k).and_then(DriftCell::ewma);
            assert_eq!(table.drift(k, DriftCell::ewma).flatten(), ewma, "ewma {k}");
            assert_eq!(
                table.drift(k, |_| ()).is_some(),
                entry.is_some(),
                "cell {k}"
            );
        }
        let snapshot: Vec<_> = reference
            .entries
            .iter()
            .map(|(&k, &(stat, tainted))| (k, stat, tainted))
            .collect();
        assert_eq!(table.snapshot_with_taint(), snapshot);
        let drift = reference.drift.iter();
        let drifts: Vec<_> = drift.filter_map(|(&k, c)| Some((k, c.ewma()?))).collect();
        assert_eq!(table.drifts(), drifts);
        let plain: Vec<_> = snapshot.iter().map(|&(k, stat, _)| (k, stat)).collect();
        assert_eq!(table.snapshot(), plain);
        assert_eq!(table.len(), reference.entries.len());
        assert_eq!(table.is_empty(), reference.entries.is_empty());
        assert_eq!(table.prior_count(), reference.priors.len());
    }

    proptest! {
        #[test]
        fn merged_record_matches_three_plain_maps(
            ops in prop::collection::vec((0u8..8, 0u64..KEYS, 0u32..=12, 0u32..4), 1..80),
            fork_at in 0usize..80,
        ) {
            // EWMA = latest sample, two breaches fire, a small bucket: the
            // fold's every branch is reachable within a short sequence.
            let policy = DriftPolicy {
                bound: 0.5,
                breach_invocations: 2,
                ewma_weight: 1.0,
                cooldown: 2,
                bucket_capacity: 2.0,
                ..DriftPolicy::default()
            };
            let (monitor, ref_monitor) = (DriftMonitor::new(policy), DriftMonitor::new(policy));
            let table = KernelTable::new();
            let mut reference = Reference::default();
            let mut fork = None;
            for (i, &(op, k, a, w)) in ops.iter().enumerate() {
                if i == fork_at {
                    fork = Some((table.clone(), reference.clone()));
                }
                // α on and off [0, 1], weights from zero up.
                let alpha = f64::from(a) / 10.0;
                let weight = f64::from(w) * 50.0;
                match op {
                    0 | 1 => {
                        let mode = if op == 0 {
                            Accumulation::SampleWeighted
                        } else {
                            Accumulation::LastValue
                        };
                        let got = table.accumulate(k, alpha.min(1.0), weight, mode);
                        prop_assert_eq!(got, reference.accumulate(k, alpha.min(1.0), weight, mode));
                    }
                    2 => {
                        table.taint(k);
                        reference.taint(k);
                    }
                    3 => {
                        let hint = if w == 3 { f64::NAN } else { alpha };
                        prop_assert_eq!(table.set_prior(k, hint), reference.set_prior(k, hint));
                    }
                    4 => {
                        table.clear_prior(k);
                        reference.priors.remove(&k);
                    }
                    5 => prop_assert_eq!(table.note_reuse(k), reference.note_reuse(k)),
                    6 => {
                        let stat = AlphaStat {
                            alpha: alpha.min(1.0),
                            weight,
                            invocations_seen: u64::from(a),
                        };
                        table.insert(k, stat);
                        reference.insert(k, stat);
                    }
                    _ => {
                        // Profiled folds carry a prediction, table hits
                        // score against the stored reference.
                        let predicted = (w % 2 == 0).then_some(100.0);
                        let realized = 25.0 * f64::from(a + 1);
                        let fold = |cell: &_| monitor.observe(cell, predicted, realized, 10);
                        let got = table.drift(k, fold).flatten();
                        prop_assert_eq!(got, reference.fold(&ref_monitor, k, predicted, realized));
                        prop_assert_eq!(monitor.tokens(), ref_monitor.tokens());
                    }
                }
                assert_same(&table, &reference);
            }
            // `Clone` is deep for all three: whatever ran after the fork
            // left the fork as it was.
            if let Some((table, reference)) = fork {
                assert_same(&table, &reference);
            }
        }
    }
}
