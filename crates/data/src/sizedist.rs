//! Image-size distributions (Fig. 4).
//!
//! Two families cover the paper's datasets: fixed dimensions (Plant Village
//! 256², Fruits-360 100², Corn Growth Stage 224², CRSA 3840×2160) and
//! varied sizes concentrated around a labelled mode (Weed-Soybean 233×233,
//! Spittle-Bug 61×61). The varied family is a truncated correlated normal:
//! area follows a lognormal-ish spread around the mode while aspect ratio
//! stays near one, matching the tight diagonal clouds in Fig. 4.

use harvest_simkit::SimRng;

/// A dataset's image-size distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SizeDist {
    /// Every image has exactly this size.
    Fixed {
        /// Width in pixels.
        w: usize,
        /// Height in pixels.
        h: usize,
    },
    /// Sizes spread around a modal size (the number printed in Fig. 4).
    Varied {
        /// Modal width in pixels.
        mode_w: usize,
        /// Modal height in pixels.
        mode_h: usize,
        /// Relative standard deviation of the linear scale (≈0.2 for the
        /// weed dataset's broad cloud, smaller for tighter ones).
        rel_std: f64,
        /// Smallest permitted dimension.
        min_dim: usize,
        /// Largest permitted dimension.
        max_dim: usize,
    },
}

impl SizeDist {
    /// Draw one (width, height).
    pub fn sample(&self, rng: &mut SimRng) -> (usize, usize) {
        match *self {
            SizeDist::Fixed { w, h } => (w, h),
            SizeDist::Varied {
                mode_w,
                mode_h,
                rel_std,
                min_dim,
                max_dim,
            } => {
                // Common scale factor (keeps the cloud on the diagonal) plus
                // a small independent aspect jitter.
                let scale = (1.0 + rng.normal(0.0, rel_std)).max(0.2);
                let aspect = 1.0 + rng.normal(0.0, rel_std * 0.25);
                let w = (mode_w as f64 * scale * aspect).round() as usize;
                let h = (mode_h as f64 * scale / aspect.max(0.2)).round() as usize;
                (w.clamp(min_dim, max_dim), h.clamp(min_dim, max_dim))
            }
        }
    }

    /// The modal (most common) size — the label Fig. 4 prints.
    pub fn mode(&self) -> (usize, usize) {
        match *self {
            SizeDist::Fixed { w, h } => (w, h),
            SizeDist::Varied { mode_w, mode_h, .. } => (mode_w, mode_h),
        }
    }

    /// Expected pixel count (exact for `Fixed`; mode-based first-order
    /// estimate for `Varied`, adequate for cost models).
    pub fn mean_pixels(&self) -> f64 {
        match *self {
            SizeDist::Fixed { w, h } => (w * h) as f64,
            SizeDist::Varied {
                mode_w,
                mode_h,
                rel_std,
                ..
            } => {
                // E[(s·w)(s·h)] = w·h·E[s²] = w·h·(1 + σ²) for s ~ N(1, σ).
                (mode_w * mode_h) as f64 * (1.0 + rel_std * rel_std)
            }
        }
    }

    /// True if every draw has identical dimensions.
    pub fn is_uniform(&self) -> bool {
        matches!(self, SizeDist::Fixed { .. })
    }
}

/// A 2-D histogram over sampled (width, height) pairs — the Fig. 4 density
/// plot — with the modal cell annotated.
#[derive(Clone, Debug)]
pub struct SizeHistogram {
    /// Cell size in pixels.
    pub cell: usize,
    /// Histogram extent in pixels (both axes).
    pub extent: usize,
    counts: Vec<u32>,
    total: u64,
}

impl SizeHistogram {
    /// Build from `n` draws of `dist`.
    pub fn build(dist: &SizeDist, n: usize, cell: usize, extent: usize, seed: u64) -> Self {
        assert!(cell > 0 && extent >= cell);
        let bins = extent.div_ceil(cell);
        let mut counts = vec![0u32; bins * bins];
        let mut rng = SimRng::new(seed);
        for _ in 0..n {
            let (w, h) = dist.sample(&mut rng);
            let bx = (w / cell).min(bins - 1);
            let by = (h / cell).min(bins - 1);
            counts[by * bins + bx] += 1;
        }
        SizeHistogram {
            cell,
            extent,
            counts,
            total: n as u64,
        }
    }

    /// Bins per axis.
    pub(crate) fn bins(&self) -> usize {
        self.extent.div_ceil(self.cell)
    }

    /// Density (fraction of samples) in the cell containing (w, h).
    pub fn density_at(&self, w: usize, h: usize) -> f64 {
        let bins = self.bins();
        let bx = (w / self.cell).min(bins - 1);
        let by = (h / self.cell).min(bins - 1);
        self.counts[by * bins + bx] as f64 / self.total.max(1) as f64
    }

    /// Centre of the modal cell — the "233x233"-style annotation.
    pub fn mode(&self) -> (usize, usize) {
        let bins = self.bins();
        let (idx, _) = self
            .counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)
            .expect("non-empty histogram");
        let bx = idx % bins;
        let by = idx / bins;
        (
            bx * self.cell + self.cell / 2,
            by * self.cell + self.cell / 2,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weed_like() -> SizeDist {
        SizeDist::Varied {
            mode_w: 233,
            mode_h: 233,
            rel_std: 0.2,
            min_dim: 40,
            max_dim: 480,
        }
    }

    #[test]
    fn fixed_always_returns_same_size() {
        let d = SizeDist::Fixed { w: 256, h: 256 };
        let mut rng = SimRng::new(1);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut rng), (256, 256));
        }
        assert!(d.is_uniform());
        assert_eq!(d.mean_pixels(), 65536.0);
    }

    #[test]
    fn varied_respects_bounds() {
        let d = weed_like();
        let mut rng = SimRng::new(2);
        for _ in 0..10_000 {
            let (w, h) = d.sample(&mut rng);
            assert!((40..=480).contains(&w), "w {w}");
            assert!((40..=480).contains(&h), "h {h}");
        }
    }

    #[test]
    fn varied_mean_is_near_mode() {
        let d = weed_like();
        let mut rng = SimRng::new(3);
        let n = 20_000;
        let mean_w: f64 = (0..n).map(|_| d.sample(&mut rng).0 as f64).sum::<f64>() / n as f64;
        assert!((mean_w - 233.0).abs() < 10.0, "mean width {mean_w}");
    }

    #[test]
    fn varied_sizes_actually_vary() {
        let d = weed_like();
        let mut rng = SimRng::new(4);
        let sizes: std::collections::HashSet<_> = (0..200).map(|_| d.sample(&mut rng)).collect();
        assert!(sizes.len() > 50, "only {} distinct sizes", sizes.len());
        assert!(!d.is_uniform());
    }

    #[test]
    fn histogram_mode_matches_distribution_mode_for_fixed() {
        let d = SizeDist::Fixed { w: 100, h: 100 };
        let hist = SizeHistogram::build(&d, 1000, 10, 450, 7);
        let (mw, mh) = hist.mode();
        assert!((mw as i64 - 100).abs() <= 10, "mode w {mw}");
        assert!((mh as i64 - 100).abs() <= 10, "mode h {mh}");
        assert!((hist.density_at(100, 100) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_mode_near_233_for_weed_like() {
        let hist = SizeHistogram::build(&weed_like(), 20_000, 10, 480, 11);
        let (mw, mh) = hist.mode();
        assert!((mw as i64 - 233).abs() <= 30, "mode w {mw}");
        assert!((mh as i64 - 233).abs() <= 30, "mode h {mh}");
    }

    #[test]
    fn histogram_densities_sum_to_one() {
        let hist = SizeHistogram::build(&weed_like(), 5000, 20, 500, 13);
        let bins = hist.bins();
        let mut total = 0.0;
        for by in 0..bins {
            for bx in 0..bins {
                total += hist.density_at(bx * 20 + 1, by * 20 + 1);
            }
        }
        assert!((total - 1.0).abs() < 1e-9, "sum {total}");
    }
}
