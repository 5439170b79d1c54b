//! Dense f32 tensor with contiguous row-major storage.
//!
//! The model zoo only needs contiguous NCHW / (rows × cols) layouts, so the
//! type stays deliberately small: shape + `Vec<f32>`, no strides, no views.
//! Keeping storage contiguous is what lets the GEMM/conv kernels hit memory
//! bandwidth rather than pointer-chasing.

use std::fmt;

/// A dense, contiguous, row-major f32 tensor.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Zero-filled tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let len = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; len],
        }
    }

    /// Tensor filled with a constant.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let len = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; len],
        }
    }

    /// Wrap existing data; `data.len()` must equal the shape's element count.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        let len: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            len,
            "shape {shape:?} wants {len} elements, got {}",
            data.len()
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Deterministic pseudo-random fill in `[-scale, scale]`; used for weight
    /// initialization in tests and the real-execution engine path.
    pub fn random(shape: &[usize], seed: u64, scale: f32) -> Self {
        let len: usize = shape.iter().product();
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut data = Vec::with_capacity(len);
        for _ in 0..len {
            // SplitMix64 step
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let unit = (z >> 11) as f32 / (1u64 << 53) as f32;
            data.push((unit * 2.0 - 1.0) * scale);
        }
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat immutable view.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable view.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the backing vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional index (row-major).
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.flat_index(index)]
    }

    fn flat_index(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.shape.len(), "index rank mismatch");
        let mut flat = 0;
        for (i, (&ix, &dim)) in index.iter().zip(&self.shape).enumerate() {
            assert!(
                ix < dim,
                "index {ix} out of bounds for dim {i} (size {dim})"
            );
            flat = flat * dim + ix;
        }
        flat
    }

    /// Largest absolute elementwise difference to another tensor of the same
    /// shape. Used pervasively by kernel-equivalence tests.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "shape mismatch in comparison");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    }

    /// Index of the maximum element (first occurrence). The classifier's
    /// decision rule.
    pub fn argmax(&self) -> usize {
        assert!(!self.data.is_empty());
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        best
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", self.data)
        } else {
            write!(
                f,
                " [{:.4}, {:.4}, ... {:.4}]",
                self.data[0],
                self.data[1],
                self.data[self.data.len() - 1]
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_full() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.len(), 6);
        assert!(t.data().iter().all(|&x| x == 0.0));
        let u = Tensor::full(&[4], 2.5);
        assert!(u.data().iter().all(|&x| x == 2.5));
    }

    #[test]
    fn indexing_is_row_major() {
        let t = Tensor::from_vec(&[2, 3], vec![0., 1., 2., 3., 4., 5.]);
        assert_eq!(t.at(&[0, 0]), 0.0);
        assert_eq!(t.at(&[0, 2]), 2.0);
        assert_eq!(t.at(&[1, 0]), 3.0);
        assert_eq!(t.at(&[1, 2]), 5.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let t = Tensor::zeros(&[2, 2]);
        t.at(&[2, 0]);
    }

    #[test]
    fn random_is_deterministic_and_bounded() {
        let a = Tensor::random(&[100], 42, 0.5);
        let b = Tensor::random(&[100], 42, 0.5);
        assert_eq!(a, b);
        assert!(a.data().iter().all(|&x| x.abs() <= 0.5));
        let c = Tensor::random(&[100], 43, 0.5);
        assert_ne!(a, c);
    }

    #[test]
    fn argmax_first_max_wins() {
        let t = Tensor::from_vec(&[5], vec![1.0, 3.0, 3.0, 2.0, -1.0]);
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn max_abs_diff() {
        let a = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(&[3], vec![1.0, 2.5, 2.0]);
        assert!((a.max_abs_diff(&b) - 1.0).abs() < 1e-9);
    }
}
