//! 8-bit interleaved RGB image container.

/// An 8-bit RGB image, interleaved HWC layout (`data[(y·w + x)·3 + c]`).
#[derive(Clone, PartialEq, Eq)]
pub struct RgbImage {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl RgbImage {
    /// All-black image.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "image must be non-empty");
        RgbImage {
            width,
            height,
            data: vec![0; width * height * 3],
        }
    }

    /// Wrap existing interleaved RGB bytes.
    pub fn from_raw(width: usize, height: usize, data: Vec<u8>) -> Self {
        assert_eq!(data.len(), width * height * 3, "raw buffer size mismatch");
        assert!(width > 0 && height > 0);
        RgbImage {
            width,
            height,
            data,
        }
    }

    /// Single-colour image.
    pub fn solid(width: usize, height: usize, rgb: [u8; 3]) -> Self {
        let mut img = RgbImage::new(width, height);
        for px in img.data.chunks_exact_mut(3) {
            px.copy_from_slice(&rgb);
        }
        img
    }

    /// Black/white checkerboard with `cell`-pixel squares — the classic
    /// worst case for a DCT codec, used by tests.
    pub fn checkerboard(width: usize, height: usize, cell: usize) -> Self {
        let mut img = RgbImage::new(width, height);
        let cell = cell.max(1);
        for y in 0..height {
            for x in 0..width {
                let v = if ((x / cell) + (y / cell)).is_multiple_of(2) {
                    255
                } else {
                    0
                };
                img.put(x, y, [v, v, v]);
            }
        }
        img
    }

    /// Width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }
    /// Height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }
    /// Total pixel count.
    #[inline]
    pub fn pixels(&self) -> usize {
        self.width * self.height
    }
    /// Interleaved RGB bytes.
    #[inline]
    pub fn data(&self) -> &[u8] {
        &self.data
    }
    /// Mutable interleaved RGB bytes.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Pixel at (x, y).
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> [u8; 3] {
        assert!(x < self.width && y < self.height);
        let i = (y * self.width + x) * 3;
        [self.data[i], self.data[i + 1], self.data[i + 2]]
    }

    /// Write pixel at (x, y).
    #[inline]
    pub fn put(&mut self, x: usize, y: usize, rgb: [u8; 3]) {
        assert!(x < self.width && y < self.height);
        let i = (y * self.width + x) * 3;
        self.data[i..i + 3].copy_from_slice(&rgb);
    }
}

impl std::fmt::Debug for RgbImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RgbImage({}x{})", self.width, self.height)
    }
}

/// Peak signal-to-noise ratio between two same-sized images, in dB.
/// Returns +inf for identical images.
pub fn psnr(a: &RgbImage, b: &RgbImage) -> f64 {
    assert_eq!(a.width(), b.width());
    assert_eq!(a.height(), b.height());
    let mse: f64 = a
        .data()
        .iter()
        .zip(b.data())
        .map(|(&x, &y)| {
            let d = x as f64 - y as f64;
            d * d
        })
        .sum::<f64>()
        / a.data().len() as f64;
    if mse == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (255.0f64 * 255.0 / mse).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RgbImage {
        /// Mean value per channel — a cheap content fingerprint for tests.
        pub(crate) fn channel_means(&self) -> [f64; 3] {
            let mut sums = [0u64; 3];
            for px in self.data.chunks_exact(3) {
                for c in 0..3 {
                    sums[c] += px[c] as u64;
                }
            }
            let n = self.pixels() as f64;
            [sums[0] as f64 / n, sums[1] as f64 / n, sums[2] as f64 / n]
        }
    }

    #[test]
    fn new_is_black() {
        let img = RgbImage::new(4, 2);
        assert_eq!(img.pixels(), 8);
        assert!(img.data().iter().all(|&b| b == 0));
    }

    #[test]
    fn put_get_round_trip() {
        let mut img = RgbImage::new(5, 5);
        img.put(3, 2, [10, 20, 30]);
        assert_eq!(img.get(3, 2), [10, 20, 30]);
        assert_eq!(img.get(2, 3), [0, 0, 0]);
    }

    #[test]
    fn solid_has_uniform_means() {
        let img = RgbImage::solid(8, 8, [50, 100, 150]);
        let m = img.channel_means();
        assert_eq!(m, [50.0, 100.0, 150.0]);
    }

    #[test]
    fn checkerboard_is_half_and_half() {
        let img = RgbImage::checkerboard(16, 16, 4);
        let m = img.channel_means();
        assert!((m[0] - 127.5).abs() < 1.0, "{m:?}");
    }

    #[test]
    fn psnr_identical_is_infinite() {
        let img = RgbImage::checkerboard(8, 8, 2);
        assert!(psnr(&img, &img).is_infinite());
    }

    #[test]
    fn psnr_known_value() {
        let a = RgbImage::solid(4, 4, [100, 100, 100]);
        let b = RgbImage::solid(4, 4, [110, 110, 110]);
        // MSE = 100 -> PSNR = 10·log10(255² / 100) ≈ 28.13 dB
        let p = psnr(&a, &b);
        assert!((p - 28.13).abs() < 0.01, "{p}");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_size_rejected() {
        RgbImage::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn bad_raw_buffer_rejected() {
        RgbImage::from_raw(2, 2, vec![0; 11]);
    }
}
