//! Integer-nanosecond simulated time.
//!
//! Simulated time is kept in `u64` nanoseconds rather than `f64` seconds so
//! that event ordering is a true total order and repeated runs are
//! bit-identical — adding many small float durations would otherwise
//! accumulate rounding differences that reorder ties.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) simulated time, in nanoseconds.
///
/// `SimTime` doubles as a duration; the operators are saturating on
/// subtraction (a lagging timestamp clamps to zero wait rather than
/// wrapping) and checked on addition and scaling — overflow panics rather
/// than silently wrapping a multi-day horizon back into the trace. Paths
/// that want graceful degradation instead use the explicit
/// [`SimTime::checked_add`]/[`SimTime::checked_mul`] (`None` on overflow)
/// or [`SimTime::saturating_add`]/[`SimTime::saturating_mul`] (clamp at
/// [`SimTime::MAX`], the "far future") forms.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Zero — the epoch of every simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; useful as an "infinite" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// From raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }
    /// From microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }
    /// From milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }
    /// From whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }
    /// From whole hours (multi-day trace horizons).
    #[inline]
    pub const fn from_hours(h: u64) -> Self {
        SimTime(h * 3_600_000_000_000)
    }
    /// From whole days. A `u64` of nanoseconds holds ~213,500 days, so
    /// week- and season-long traces are far from the edge — but the checked
    /// arithmetic below still guards the paths that multiply spans up.
    #[inline]
    pub const fn from_days(d: u64) -> Self {
        SimTime(d * 86_400_000_000_000)
    }

    /// From fractional seconds. Negative and non-finite inputs clamp to zero:
    /// analytic latency models occasionally produce `-0.0`-ish values for
    /// degenerate parameters and the simulator treats those as "immediate".
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime((s * 1e9).round().min(u64::MAX as f64) as u64)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }
    /// As fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }
    /// As fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 * 1e-6
    }
    /// As fractional microseconds.
    #[inline]
    pub(crate) fn as_micros_f64(self) -> f64 {
        self.0 as f64 * 1e-3
    }

    /// Saturating difference (`self - earlier`, clamped at zero).
    #[inline]
    pub fn saturating_sub(self, earlier: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition: `None` on overflow instead of the panic the `+`
    /// operator raises. Use where an overflowing deadline should degrade
    /// (e.g. to "never") rather than abort the simulation.
    #[inline]
    pub fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }

    /// Saturating addition: clamps at [`SimTime::MAX`] (the "far future"),
    /// which a week-long trace horizon plus a retry backoff can legitimately
    /// hit when deadlines are computed from `MAX` sentinels.
    #[inline]
    pub fn saturating_add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }

    /// Checked span scaling: `None` on overflow instead of the panic the
    /// `*` operator raises.
    #[inline]
    pub fn checked_mul(self, rhs: u64) -> Option<SimTime> {
        self.0.checked_mul(rhs).map(SimTime)
    }

    /// Saturating span scaling: clamps at [`SimTime::MAX`].
    #[inline]
    pub fn saturating_mul(self, rhs: u64) -> SimTime {
        SimTime(self.0.saturating_mul(rhs))
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}
impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}
impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}
impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}
impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0.checked_mul(rhs).expect("SimTime overflow"))
    }
}
impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.6}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_micros(3).as_nanos(), 3_000);
        assert!((SimTime::from_secs_f64(1.5).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn negative_and_nan_floats_clamp_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NEG_INFINITY), SimTime::ZERO);
    }

    #[test]
    fn subtraction_saturates() {
        let a = SimTime::from_millis(1);
        let b = SimTime::from_millis(2);
        assert_eq!(a - b, SimTime::ZERO);
        assert_eq!(b - a, SimTime::from_millis(1));
        assert_eq!(a.saturating_sub(b), SimTime::ZERO);
    }

    #[test]
    fn ordering_and_min_max() {
        let a = SimTime::from_millis(1);
        let b = SimTime::from_millis(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_millis(10);
        assert_eq!(a * 3, SimTime::from_millis(30));
        assert_eq!(a / 2, SimTime::from_millis(5));
        let mut c = a;
        c += a;
        assert_eq!(c, SimTime::from_millis(20));
        c -= a;
        assert_eq!(c, a);
    }

    #[test]
    fn multi_day_horizons_do_not_wrap() {
        // A week-long, per-region trace horizon: comfortably representable.
        let week = SimTime::from_days(7);
        assert_eq!(week.as_nanos(), 7 * 86_400_000_000_000);
        assert_eq!(SimTime::from_hours(24), SimTime::from_days(1));
        assert_eq!(SimTime::from_hours(24 * 7), week);
        // Offsetting a week by per-region time zones and scaling to a
        // harvest season stays exact.
        let season = week.checked_mul(13).expect("a quarter fits");
        assert_eq!(season, SimTime::from_days(91));
        assert!((season.as_secs_f64() - 91.0 * 86_400.0).abs() < 1e-3);
    }

    #[test]
    fn checked_and_saturating_arithmetic_at_the_edge() {
        let near_max = SimTime::MAX - SimTime::from_nanos(5);
        // checked_*: overflow reports None, in-range matches the operators.
        assert_eq!(near_max.checked_add(SimTime::from_nanos(10)), None);
        assert_eq!(
            near_max.checked_add(SimTime::from_nanos(5)),
            Some(SimTime::MAX)
        );
        assert_eq!(SimTime::MAX.checked_mul(2), None);
        assert_eq!(
            SimTime::from_days(7).checked_mul(3),
            Some(SimTime::from_days(21))
        );
        // saturating_*: clamp at MAX instead of wrapping past a multi-day
        // horizon (the silent-wrap failure mode this satellite guards).
        assert_eq!(near_max.saturating_add(SimTime::from_days(7)), SimTime::MAX);
        assert_eq!(SimTime::MAX.saturating_mul(u64::MAX), SimTime::MAX);
        assert_eq!(
            SimTime::from_days(7).saturating_add(SimTime::from_days(7)),
            SimTime::from_days(14)
        );
        assert_eq!(
            SimTime::from_days(7).saturating_mul(4),
            SimTime::from_days(28)
        );
        // A saturated deadline stays ordered after any real timestamp.
        assert!(near_max.saturating_add(SimTime::from_days(1)) > SimTime::from_days(200_000));
    }

    #[test]
    #[should_panic(expected = "SimTime overflow")]
    fn operator_add_overflow_panics_loudly() {
        let _ = SimTime::MAX + SimTime::from_nanos(1);
    }

    #[test]
    #[should_panic(expected = "SimTime overflow")]
    fn operator_mul_overflow_panics_loudly() {
        let _ = SimTime::MAX * 2;
    }

    #[test]
    fn debug_formatting_scales_units() {
        assert_eq!(format!("{:?}", SimTime::from_nanos(12)), "12ns");
        assert_eq!(format!("{:?}", SimTime::from_micros(12)), "12.000us");
        assert_eq!(format!("{:?}", SimTime::from_millis(12)), "12.000ms");
        assert_eq!(format!("{:?}", SimTime::from_secs(12)), "12.000000s");
    }
}
