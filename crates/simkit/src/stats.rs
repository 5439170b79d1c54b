//! Measurement accumulators: percentile reservoirs and fixed-width
//! histograms.
//!
//! The serving experiments report mean/percentile latency and throughput;
//! these helpers keep that accounting allocation-light and deterministic.

/// Exact-percentile reservoir: stores every sample. The experiments produce
/// at most a few hundred thousand samples, so exactness is affordable and
/// avoids quantile-sketch approximation arguments.
#[derive(Clone, Debug, Default)]
pub struct Reservoir {
    samples: Vec<f64>,
    sorted: bool,
}

impl Reservoir {
    /// Empty reservoir.
    pub fn new() -> Self {
        Reservoir {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Record one observation.
    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Mean of all observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
    }

    /// Percentile in `[0, 100]` by nearest-rank with linear interpolation.
    /// Returns 0 when empty.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let p = p.clamp(0.0, 100.0) / 100.0;
        let rank = p * (self.samples.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        if lo == hi {
            self.samples[lo]
        } else {
            let frac = rank - lo as f64;
            self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac
        }
    }

    /// Median (p50).
    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    /// Number of samples strictly above `threshold` (deadline-miss counts).
    pub fn count_above(&self, threshold: f64) -> usize {
        self.samples.iter().filter(|&&x| x > threshold).count()
    }

    /// All recorded samples (unsorted order not guaranteed).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Fixed-width histogram over `[lo, hi)` with out-of-range buckets.
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    below: u64,
    above: u64,
}

impl Histogram {
    /// `n` equal-width buckets spanning `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, n: usize) -> Self {
        assert!(hi > lo && n > 0);
        Histogram {
            lo,
            hi,
            buckets: vec![0; n],
            below: 0,
            above: 0,
        }
    }

    /// Record one observation.
    pub fn push(&mut self, x: f64) {
        if x < self.lo {
            self.below += 1;
        } else if x >= self.hi {
            self.above += 1;
        } else {
            let width = (self.hi - self.lo) / self.buckets.len() as f64;
            let idx = ((x - self.lo) / width) as usize;
            let idx = idx.min(self.buckets.len() - 1);
            self.buckets[idx] += 1;
        }
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }
    /// Count below range.
    pub fn below(&self) -> u64 {
        self.below
    }
    /// Count at-or-above range.
    pub fn above(&self) -> u64 {
        self.above
    }
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.below + self.above + self.buckets.iter().sum::<u64>()
    }

    /// Centre of bucket `i`.
    pub(crate) fn bucket_center(&self, i: usize) -> f64 {
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        self.lo + width * (i as f64 + 0.5)
    }

    /// Index and centre of the fullest bucket — the distribution's mode,
    /// which is what Fig. 4 annotates per dataset.
    pub fn mode(&self) -> (usize, f64) {
        let (idx, _) = self
            .buckets
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)
            .expect("histogram has buckets");
        (idx, self.bucket_center(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservoir_percentiles() {
        let mut r = Reservoir::new();
        for i in 1..=100 {
            r.push(i as f64);
        }
        assert_eq!(r.count(), 100);
        assert!((r.median() - 50.5).abs() < 1e-9);
        assert!((r.percentile(0.0) - 1.0).abs() < 1e-9);
        assert!((r.percentile(100.0) - 100.0).abs() < 1e-9);
        let p99 = r.percentile(99.0);
        assert!((p99 - 99.01).abs() < 0.02, "p99 {p99}");
    }

    #[test]
    fn reservoir_empty_is_zero() {
        let mut r = Reservoir::new();
        assert_eq!(r.percentile(50.0), 0.0);
        assert_eq!(r.mean(), 0.0);
    }

    #[test]
    fn histogram_buckets_and_mode() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for _ in 0..5 {
            h.push(3.5);
        }
        h.push(7.2);
        h.push(-1.0);
        h.push(10.0);
        assert_eq!(h.count(), 8);
        assert_eq!(h.below(), 1);
        assert_eq!(h.above(), 1);
        let (idx, center) = h.mode();
        assert_eq!(idx, 3);
        assert!((center - 3.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_edge_values() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.push(0.0); // lowest in-range
        h.push(0.999_999); // highest in-range
        assert_eq!(h.below(), 0);
        assert_eq!(h.above(), 0);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[3], 1);
    }
}
