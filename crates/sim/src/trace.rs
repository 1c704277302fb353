//! Package power traces.
//!
//! The paper's Figures 2–4 plot package power over time. When tracing is
//! enabled on a [`Machine`](crate::Machine), every simulation step appends a
//! `(time, watts)` point; [`PowerTrace::resample`] decimates to a plotting
//! resolution and [`PowerTrace::to_csv`] serializes for the figure harness.

/// One sample of package power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Simulation time at the start of the sample, seconds.
    pub time: f64,
    /// Average package power over the sample, watts.
    pub watts: f64,
    /// Sample duration, seconds.
    pub(crate) duration: f64,
}

/// A time-ordered series of package power samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PowerTrace {
    points: Vec<TracePoint>,
}

impl PowerTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        PowerTrace { points: Vec::new() }
    }

    /// Appends a sample. Samples must be appended in time order.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `time` precedes the last sample.
    pub fn push(&mut self, time: f64, watts: f64, duration: f64) {
        debug_assert!(
            self.points.last().is_none_or(|p| time >= p.time),
            "trace points must be time-ordered"
        );
        self.points.push(TracePoint {
            time,
            watts,
            duration,
        });
    }

    /// All samples in time order.
    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// Time span covered, seconds (0 for empty traces).
    pub(crate) fn span(&self) -> f64 {
        match (self.points.first(), self.points.last()) {
            (Some(a), Some(b)) => b.time + b.duration - a.time,
            _ => 0.0,
        }
    }

    /// Time-weighted mean power, watts (0 for empty traces).
    ///
    /// This is what the paper's power-characterization step computes from
    /// the energy counter: total energy / total time.
    ///
    /// # Examples
    ///
    /// ```
    /// use easched_sim::PowerTrace;
    /// let mut t = PowerTrace::new();
    /// t.push(0.0, 10.0, 1.0);
    /// t.push(1.0, 30.0, 3.0);
    /// assert!((t.mean_power() - 25.0).abs() < 1e-12);
    /// ```
    pub fn mean_power(&self) -> f64 {
        let (e, t) = self.points.iter().fold((0.0, 0.0), |(e, t), p| {
            (e + p.watts * p.duration, t + p.duration)
        });
        if t > 0.0 {
            e / t
        } else {
            0.0
        }
    }

    /// Minimum sample power; +∞ for empty traces.
    pub fn min_power(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.watts)
            .fold(f64::INFINITY, f64::min)
    }

    /// Maximum sample power; −∞ for empty traces.
    pub fn max_power(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.watts)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Resamples onto a uniform grid of `resolution` seconds by
    /// energy-conserving averaging, for plotting.
    ///
    /// # Panics
    ///
    /// Panics if `resolution` is not strictly positive.
    pub fn resample(&self, resolution: f64) -> PowerTrace {
        assert!(resolution > 0.0, "resolution must be positive");
        let mut out = PowerTrace::new();
        if self.points.is_empty() {
            return out;
        }
        let start = self.points[0].time;
        let end = start + self.span();
        let mut bucket_start = start;
        while bucket_start < end {
            let bucket_end = bucket_start + resolution;
            let mut energy = 0.0;
            let mut time = 0.0;
            for p in &self.points {
                let s = p.time.max(bucket_start);
                let e = (p.time + p.duration).min(bucket_end);
                if e > s {
                    energy += p.watts * (e - s);
                    time += e - s;
                }
            }
            if time > 0.0 {
                // Duration is the *covered* time, so partially-filled edge
                // buckets keep the trace's time-weighted mean power exact.
                out.push(bucket_start, energy / time, time);
            }
            bucket_start = bucket_end;
        }
        out
    }

    /// Serializes as `time_s,watts` CSV with a header row.
    ///
    /// ```
    /// use easched_sim::PowerTrace;
    /// let mut t = PowerTrace::new();
    /// t.push(0.0, 45.5, 0.01);
    /// assert!(t.to_csv().starts_with("time_s,watts\n0.000000,45.500"));
    /// ```
    pub fn to_csv(&self) -> String {
        let mut s = String::from("time_s,watts\n");
        for p in &self.points {
            s.push_str(&format!("{:.6},{:.3}\n", p.time, p.watts));
        }
        s
    }
}

impl Extend<TracePoint> for PowerTrace {
    fn extend<I: IntoIterator<Item = TracePoint>>(&mut self, iter: I) {
        for p in iter {
            self.push(p.time, p.watts, p.duration);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> PowerTrace {
        let mut t = PowerTrace::new();
        for i in 0..100 {
            t.push(i as f64 * 0.01, 40.0 + (i % 10) as f64, 0.01);
        }
        t
    }

    #[test]
    fn empty_trace_defaults() {
        let t = PowerTrace::new();
        assert!(t.points().is_empty());
        assert_eq!(t.span(), 0.0);
        assert_eq!(t.mean_power(), 0.0);
        assert_eq!(t.min_power(), f64::INFINITY);
    }

    #[test]
    fn span_and_len() {
        let t = sample_trace();
        assert_eq!(t.points().len(), 100);
        assert!((t.span() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mean_power_weighted() {
        let mut t = PowerTrace::new();
        t.push(0.0, 100.0, 0.1);
        t.push(0.1, 0.0, 0.9);
        assert!((t.mean_power() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn min_max() {
        let t = sample_trace();
        assert_eq!(t.min_power(), 40.0);
        assert_eq!(t.max_power(), 49.0);
    }

    #[test]
    fn resample_conserves_mean() {
        let t = sample_trace();
        let r = t.resample(0.05);
        assert!(r.points().len() <= t.points().len());
        assert!((r.mean_power() - t.mean_power()).abs() < 1e-9);
    }

    #[test]
    fn resample_partial_buckets() {
        let mut t = PowerTrace::new();
        t.push(0.0, 10.0, 0.015); // 1.5 buckets at 0.01 resolution
        let r = t.resample(0.01);
        assert_eq!(r.points().len(), 2);
        assert_eq!(r.points()[0].watts, 10.0);
        assert_eq!(r.points()[1].watts, 10.0);
    }

    #[test]
    #[should_panic(expected = "resolution must be positive")]
    fn resample_zero_resolution_panics() {
        sample_trace().resample(0.0);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let t = sample_trace();
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time_s,watts");
        assert_eq!(lines.len(), 101);
        assert!(lines[1].starts_with("0.000000,40.000"));
    }

    #[test]
    fn extend_appends() {
        let mut t = PowerTrace::new();
        t.extend(sample_trace().points().iter().copied());
        assert_eq!(t.points().len(), 100);
    }
}
