//! LLM decode-latency profiles.
//!
//! The paper observes (§V, *Simulator*) that batch size is the dominant
//! factor in per-token decode latency, so an LLM executor is characterized by
//! the curve `l(b)` — average latency to decode one token when `b` requests
//! are co-batched. [`LatencyProfile`] stores measured points of that curve
//! and interpolates between them; Eq. (2)'s batching-aware calibration ratio
//! `l(b_t)/l(b_r)` comes from [`LatencyProfile::calibration_ratio`].

use llmsched_dag::time::SimDuration;
use std::fmt;

/// A per-token decode-latency curve `l(b)` over batch size `b`.
///
/// Latency between measured points is linearly interpolated; below the first
/// and above the last point it is clamped to the nearest measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyProfile {
    /// `(batch, per-token latency)`, strictly increasing in batch.
    points: Vec<(u32, SimDuration)>,
}

/// Error building a [`LatencyProfile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LatencyProfileError {
    /// No measurement points were supplied.
    Empty,
    /// Batch sizes must be strictly increasing and ≥ 1.
    UnsortedBatches,
    /// Latency must be positive and non-decreasing in batch size
    /// (batching never makes a single token *faster*).
    NonMonotoneLatency,
}

impl fmt::Display for LatencyProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LatencyProfileError::Empty => write!(f, "latency profile has no points"),
            LatencyProfileError::UnsortedBatches => {
                write!(f, "batch sizes must be strictly increasing and at least 1")
            }
            LatencyProfileError::NonMonotoneLatency => {
                write!(
                    f,
                    "per-token latency must be positive and non-decreasing in batch size"
                )
            }
        }
    }
}

impl std::error::Error for LatencyProfileError {}

impl LatencyProfile {
    /// Builds a profile from measured `(batch, per-token latency)` points.
    ///
    /// # Errors
    /// Returns [`LatencyProfileError`] if the points are empty, batches are
    /// not strictly increasing (or start below 1), or latencies are
    /// non-positive / decreasing.
    pub fn new(points: Vec<(u32, SimDuration)>) -> Result<Self, LatencyProfileError> {
        if points.is_empty() {
            return Err(LatencyProfileError::Empty);
        }
        if points[0].0 < 1 || points.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(LatencyProfileError::UnsortedBatches);
        }
        if points.iter().any(|&(_, l)| l.is_zero()) || points.windows(2).any(|w| w[0].1 > w[1].1) {
            return Err(LatencyProfileError::NonMonotoneLatency);
        }
        Ok(LatencyProfile { points })
    }

    /// A curve shaped like Llama-2-7B serving on an H800-class GPU with a
    /// vLLM-style engine: ~20 ms/token alone, degrading gently until memory
    /// bandwidth pressure kicks in at larger batches.
    ///
    /// Absolute numbers only set the time scale of experiments; the paper's
    /// findings depend on the *relative* effect of batching, which this
    /// curve matches (mild slowdown per extra batched request).
    pub fn llama2_7b_h800() -> Self {
        let ms = |m: f64| SimDuration::from_secs_f64(m / 1e3);
        LatencyProfile::new(vec![
            (1, ms(20.0)),
            (2, ms(20.6)),
            (4, ms(22.0)),
            (8, ms(25.0)),
            (16, ms(31.0)),
            (32, ms(43.0)),
            (64, ms(68.0)),
        ])
        .expect("built-in profile is valid")
    }

    /// Per-token decode latency at batch size `batch` (clamped/interpolated).
    ///
    /// # Panics
    /// Panics if `batch == 0` — an empty batch decodes nothing.
    pub fn per_token(&self, batch: usize) -> SimDuration {
        assert!(batch > 0, "batch size must be at least 1");
        let b = batch as u32;
        match self.points.binary_search_by_key(&b, |&(pb, _)| pb) {
            Ok(i) => self.points[i].1,
            Err(0) => self.points[0].1,
            Err(i) if i == self.points.len() => self.points[i - 1].1,
            Err(i) => {
                let (b0, l0) = self.points[i - 1];
                let (b1, l1) = self.points[i];
                let frac = (b - b0) as f64 / (b1 - b0) as f64;
                let us = l0.0 as f64 + (l1.0 as f64 - l0.0 as f64) * frac;
                SimDuration(us.round() as u64)
            }
        }
    }

    /// Per-token latency at batch size 1 (the profiling batch size, §III-A).
    pub fn per_token_b1(&self) -> SimDuration {
        self.per_token(1)
    }

    /// The paper's Eq. (2) calibration factor `l(b_t) / l(b_r)`: multiply a
    /// duration observed (or estimated) at batch `from` to predict it at
    /// batch `to`.
    ///
    /// # Panics
    /// Panics if either batch size is zero.
    pub fn calibration_ratio(&self, from: usize, to: usize) -> f64 {
        self.per_token(to).0 as f64 / self.per_token(from).0 as f64
    }

    /// The measured points.
    pub fn points(&self) -> &[(u32, SimDuration)] {
        &self.points
    }
}

impl Default for LatencyProfile {
    fn default() -> Self {
        Self::llama2_7b_h800()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(m: f64) -> SimDuration {
        SimDuration::from_secs_f64(m / 1e3)
    }

    #[test]
    fn default_profile_is_monotone() {
        let p = LatencyProfile::default();
        let mut prev = SimDuration::ZERO;
        for b in 1..=64 {
            let l = p.per_token(b);
            assert!(l >= prev, "latency decreased at batch {b}");
            prev = l;
        }
    }

    #[test]
    fn exact_points_returned() {
        let p = LatencyProfile::new(vec![(1, ms(10.0)), (4, ms(16.0))]).unwrap();
        assert_eq!(p.per_token(1), ms(10.0));
        assert_eq!(p.per_token(4), ms(16.0));
    }

    #[test]
    fn interpolates_between_points() {
        let p = LatencyProfile::new(vec![(1, ms(10.0)), (5, ms(18.0))]).unwrap();
        assert_eq!(p.per_token(3), ms(14.0));
    }

    #[test]
    fn clamps_outside_range() {
        let p = LatencyProfile::new(vec![(2, ms(10.0)), (4, ms(20.0))]).unwrap();
        assert_eq!(p.per_token(1), ms(10.0));
        assert_eq!(p.per_token(100), ms(20.0));
    }

    #[test]
    fn calibration_ratio_matches_eq2() {
        let p = LatencyProfile::new(vec![(1, ms(10.0)), (8, ms(20.0))]).unwrap();
        assert!((p.calibration_ratio(1, 8) - 2.0).abs() < 1e-9);
        assert!((p.calibration_ratio(8, 1) - 0.5).abs() < 1e-9);
        assert!((p.calibration_ratio(4, 4) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_profiles() {
        assert_eq!(
            LatencyProfile::new(vec![]).unwrap_err(),
            LatencyProfileError::Empty
        );
        assert_eq!(
            LatencyProfile::new(vec![(0, ms(1.0))]).unwrap_err(),
            LatencyProfileError::UnsortedBatches
        );
        assert_eq!(
            LatencyProfile::new(vec![(2, ms(1.0)), (2, ms(2.0))]).unwrap_err(),
            LatencyProfileError::UnsortedBatches
        );
        assert_eq!(
            LatencyProfile::new(vec![(1, ms(2.0)), (2, ms(1.0))]).unwrap_err(),
            LatencyProfileError::NonMonotoneLatency
        );
        assert_eq!(
            LatencyProfile::new(vec![(1, SimDuration::ZERO)]).unwrap_err(),
            LatencyProfileError::NonMonotoneLatency
        );
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_panics() {
        LatencyProfile::default().per_token(0);
    }
}
