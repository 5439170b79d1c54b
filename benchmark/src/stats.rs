//! Order statistics over small samples.

/// The `q`-quantile (0..=1) of `values`, linearly interpolated between
/// order statistics. Panics on an empty sample: every caller measures at
/// least one operation.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First maximum wins, matching the server's tie-break.
pub fn argmax(data: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in data.iter().enumerate() {
        if v > data[best] {
            best = i;
        }
    }
    best
}
