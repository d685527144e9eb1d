//! Recovery policy for jobs killed by runtime timing failures.
//!
//! When the failure model (`iscope-pvmodel::failure`) kills a gang, the
//! scheduler requeues it under this policy: a bounded number of retries,
//! each delayed by capped exponential backoff so a chip that fails
//! repeatedly does not livelock the queue while the re-profiling loop
//! catches up. The policy is pure arithmetic on the attempt counter —
//! no RNG — so recovery schedules are deterministic given the failure
//! sequence.

use iscope_dcsim::SimDuration;

/// Bounded-retry policy with capped exponential backoff.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries allowed after the first attempt; a job whose attempt
    /// count exceeds `max_retries + 1` is abandoned (counted as failed
    /// and as a deadline miss).
    pub max_retries: u32,
    /// Delay before the first retry.
    pub backoff_base: SimDuration,
    /// Ceiling on the doubled delays.
    pub backoff_cap: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff_base: SimDuration::from_secs(60),
            backoff_cap: SimDuration::from_hours(1),
        }
    }
}

impl RetryPolicy {
    /// Panics if the policy is out of domain.
    pub fn validate(&self) {
        assert!(
            self.backoff_base > SimDuration::ZERO,
            "backoff base must be positive"
        );
        assert!(
            self.backoff_cap >= self.backoff_base,
            "backoff cap below base"
        );
    }

    /// Whether a job that has already failed `failures` times may retry.
    pub fn may_retry(&self, failures: u32) -> bool {
        failures <= self.max_retries
    }

    /// Backoff before retry number `retry` (1-based: the first retry
    /// waits `backoff_base`, each further one doubles, capped).
    pub fn backoff(&self, retry: u32) -> SimDuration {
        let doublings = retry.saturating_sub(1).min(32);
        let delay = self.backoff_base.mul_f64((1u64 << doublings) as f64);
        delay.min(self.backoff_cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_caps() {
        let p = RetryPolicy {
            max_retries: 5,
            backoff_base: SimDuration::from_secs(60),
            backoff_cap: SimDuration::from_secs(300),
        };
        p.validate();
        assert_eq!(p.backoff(1), SimDuration::from_secs(60));
        assert_eq!(p.backoff(2), SimDuration::from_secs(120));
        assert_eq!(p.backoff(3), SimDuration::from_secs(240));
        assert_eq!(p.backoff(4), SimDuration::from_secs(300), "capped");
        assert_eq!(p.backoff(40), SimDuration::from_secs(300), "stays capped");
    }

    #[test]
    fn retry_budget_is_bounded() {
        let p = RetryPolicy {
            max_retries: 2,
            ..RetryPolicy::default()
        };
        assert!(p.may_retry(0));
        assert!(p.may_retry(2));
        assert!(!p.may_retry(3));
    }
}
