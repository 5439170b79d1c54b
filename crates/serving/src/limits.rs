//! Shared serving limits: one source of truth for the bounds that the wire
//! front-end and the queueing layer must agree on.
//!
//! The HTTP layer enforces `max_body_bytes` per request and the batcher /
//! admission layer enforce queue and in-flight bounds. Before PRs grew a
//! real wire these knobs lived in separate configs and could silently
//! drift: a frontend advertising a 1 MiB body cap over a queue sized for a
//! different regime, or an admission gate bounding in-flight work the wire
//! never learned about. [`ServingLimits`] pins all three in one struct; the
//! check methods verify a [`BatcherConfig`] and an engine pool against it
//! (equality, not `<=` — a *tighter* downstream bound would still make the
//! wire's advertised limits a lie), and the constructor helpers derive
//! consistent configs so there is nothing to keep in sync by hand.

use crate::batcher::{BatcherConfig, BatcherConfigError, ShedPolicy};
use harvest_simkit::SimTime;

/// The bounds a serving deployment advertises and enforces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServingLimits {
    /// Largest request body the wire accepts, bytes. Must be nonzero.
    pub max_body_bytes: usize,
    /// Batcher queue bound; `0` = unbounded.
    pub max_queue: usize,
    /// Frontend bound on admitted-but-incomplete requests; `0` = unlimited.
    pub max_in_flight: u64,
}

impl Default for ServingLimits {
    /// Wire-serving defaults: a 1 MiB body cap (every AJPG/RTIF frame the
    /// datasets produce fits with margin) over the batcher's default queue
    /// depth, with no extra in-flight gate.
    fn default() -> Self {
        ServingLimits {
            max_body_bytes: 1 << 20,
            max_queue: BatcherConfig::DEFAULT_MAX_QUEUE,
            max_in_flight: 0,
        }
    }
}

/// A limits violation, reported instead of letting bounds drift.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LimitsError {
    /// `max_body_bytes` must be at least 1.
    ZeroBodyBound,
    /// A batcher config carries a different queue bound than the limits.
    QueueMismatch {
        /// The bound the limits advertise.
        limits: usize,
        /// The bound the config enforces.
        config: usize,
    },
    /// The checked batcher config is itself invalid.
    Batcher(BatcherConfigError),
    /// An engine worker pool of width zero could never serve a request.
    ZeroWorkers,
}

impl std::fmt::Display for LimitsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LimitsError::ZeroBodyBound => write!(f, "max_body_bytes must be at least 1"),
            LimitsError::QueueMismatch { limits, config } => write!(
                f,
                "queue bound drift: limits say {limits}, batcher enforces {config}"
            ),
            LimitsError::Batcher(e) => write!(f, "invalid batcher config: {e}"),
            LimitsError::ZeroWorkers => write!(f, "engine worker pool must have at least 1 worker"),
        }
    }
}

impl std::error::Error for LimitsError {}

impl From<BatcherConfigError> for LimitsError {
    fn from(e: BatcherConfigError) -> Self {
        LimitsError::Batcher(e)
    }
}

impl ServingLimits {
    /// Check the limits themselves for consistency.
    pub fn validate(&self) -> Result<(), LimitsError> {
        if self.max_body_bytes == 0 {
            return Err(LimitsError::ZeroBodyBound);
        }
        Ok(())
    }

    /// Verify a batcher config enforces exactly these limits.
    pub fn check_batcher(&self, config: &BatcherConfig) -> Result<(), LimitsError> {
        self.validate()?;
        config.validate()?;
        if config.max_queue != self.max_queue {
            return Err(LimitsError::QueueMismatch {
                limits: self.max_queue,
                config: config.max_queue,
            });
        }
        Ok(())
    }

    /// Verify a data-parallel engine worker pool is compatible with these
    /// limits.
    ///
    /// The queue and in-flight bounds are *pool-wide*, not per-worker: the
    /// wire frontend counts every admitted-but-incomplete request — no
    /// matter which worker ends up executing it — against `max_in_flight`,
    /// and all workers drain one shared batcher queue bounded by
    /// `max_queue`. Widening the pool therefore never widens the
    /// advertised limits; a width-8 pool still admits at most
    /// `max_in_flight` requests at once. The only pool-specific property
    /// to validate is that the pool can make progress at all.
    pub fn check_pool(&self, workers: usize) -> Result<(), LimitsError> {
        self.validate()?;
        if workers == 0 {
            return Err(LimitsError::ZeroWorkers);
        }
        Ok(())
    }

    /// Derive a batcher config that is consistent with these limits by
    /// construction (reject-new shedding; callers adjust the policy but
    /// not the bound).
    pub fn batcher_config(
        &self,
        preferred_batch: u32,
        max_queue_delay: SimTime,
    ) -> Result<BatcherConfig, LimitsError> {
        self.validate()?;
        let config = BatcherConfig {
            preferred_batch,
            max_queue_delay,
            max_queue: self.max_queue,
            shed: ShedPolicy::RejectNew,
        };
        config.validate()?;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate_and_match_derived_configs() {
        let limits = ServingLimits::default();
        assert!(limits.validate().is_ok());
        let batcher = limits
            .batcher_config(16, SimTime::from_millis(5))
            .expect("derived config is consistent");
        assert_eq!(batcher.max_queue, limits.max_queue);
        assert!(limits.check_batcher(&batcher).is_ok());
    }

    #[test]
    fn zero_body_bound_is_rejected_everywhere() {
        let limits = ServingLimits {
            max_body_bytes: 0,
            ..ServingLimits::default()
        };
        assert_eq!(limits.validate(), Err(LimitsError::ZeroBodyBound));
        assert_eq!(
            limits.batcher_config(4, SimTime::from_millis(1)),
            Err(LimitsError::ZeroBodyBound)
        );
    }

    #[test]
    fn queue_drift_is_caught_in_both_directions() {
        let limits = ServingLimits::default();
        let mut batcher = limits
            .batcher_config(4, SimTime::from_millis(1))
            .expect("valid");
        // A tighter bound is drift too: the wire would advertise capacity
        // the queue silently does not have.
        batcher.max_queue = limits.max_queue - 1;
        assert_eq!(
            limits.check_batcher(&batcher),
            Err(LimitsError::QueueMismatch {
                limits: limits.max_queue,
                config: limits.max_queue - 1,
            })
        );
        batcher.max_queue = limits.max_queue + 1;
        assert!(matches!(
            limits.check_batcher(&batcher),
            Err(LimitsError::QueueMismatch { .. })
        ));
    }

    #[test]
    fn pool_width_zero_is_rejected_and_bounds_stay_pool_wide() {
        let limits = ServingLimits {
            max_in_flight: 2,
            ..ServingLimits::default()
        };
        assert_eq!(limits.check_pool(0), Err(LimitsError::ZeroWorkers));
        // A wide pool does not widen the advertised limits: width 8 over
        // max_in_flight=2 is a valid (if congested) deployment, because
        // the in-flight gate is counted across all workers.
        assert!(limits.check_pool(8).is_ok());
        assert!(limits.check_pool(1).is_ok());
        // Limit validation still runs first.
        let broken = ServingLimits {
            max_body_bytes: 0,
            ..limits
        };
        assert_eq!(broken.check_pool(4), Err(LimitsError::ZeroBodyBound));
    }

    #[test]
    fn invalid_batcher_config_surfaces_through_the_check() {
        let limits = ServingLimits::default();
        let mut batcher = limits
            .batcher_config(4, SimTime::from_millis(1))
            .expect("valid");
        batcher.preferred_batch = 0;
        assert_eq!(
            limits.check_batcher(&batcher),
            Err(LimitsError::Batcher(BatcherConfigError::ZeroPreferredBatch))
        );
        assert_eq!(
            limits.batcher_config(0, SimTime::from_millis(1)),
            Err(LimitsError::Batcher(BatcherConfigError::ZeroPreferredBatch))
        );
    }
}
