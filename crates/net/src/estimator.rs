//! Passive bandwidth estimation from observed transfers.
//!
//! The paper's partitioner consumes "the runtime network status"; a real
//! client learns that status by watching its own transfers. This EWMA
//! estimator is the usual lightweight approach: every completed transfer
//! contributes a throughput sample, recent samples dominate.

use crate::{LinkConfig, Transfer};
use std::time::Duration;

/// Fraction of the current estimate that survives one
/// [`BandwidthEstimator::penalize`] call.
const PENALTY_FACTOR: f64 = 0.5;

/// Penalties never decay the estimate below this floor (one byte per
/// second). Keeps a penalized-to-death estimator yielding finite,
/// well-ordered transfer-time predictions instead of drifting into
/// denormals.
const PENALTY_FLOOR_BPS: f64 = 8.0;

/// Exponentially-weighted moving-average bandwidth estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct BandwidthEstimator {
    alpha: f64,
    estimate_bps: Option<f64>,
    samples: usize,
    penalties: usize,
}

impl Default for BandwidthEstimator {
    fn default() -> Self {
        BandwidthEstimator::new(0.3)
    }
}

impl BandwidthEstimator {
    /// Creates an estimator with smoothing factor `alpha` in `(0, 1]`
    /// (higher = more reactive). Values are clamped into range.
    pub fn new(alpha: f64) -> BandwidthEstimator {
        BandwidthEstimator {
            alpha: alpha.clamp(0.01, 1.0),
            estimate_bps: None,
            samples: 0,
            penalties: 0,
        }
    }

    /// Forgets every sample and penalty, returning the estimator to its
    /// freshly-constructed state (same `alpha`). Called on a server
    /// handoff so estimates never mix throughput observed against
    /// different servers.
    pub fn reset(&mut self) {
        self.estimate_bps = None;
        self.samples = 0;
        self.penalties = 0;
    }

    /// Records a negative observation — a refused or repeatedly-retried
    /// transfer carries real information about the path even though no
    /// bytes got through. The current estimate is halved (EWMA-style
    /// decay toward zero), steering the fleet's selection metric away
    /// from the faulty server. A no-op before the first throughput
    /// sample: with no estimate there is nothing to decay, and inventing
    /// one would poison the first real observation. Decay stops at a
    /// small floor (`PENALTY_FLOOR_BPS`) so an arbitrarily-penalized
    /// estimator still yields finite, monotone transfer-time predictions.
    pub fn penalize(&mut self) {
        if let Some(prev) = self.estimate_bps {
            self.estimate_bps = Some(if prev <= PENALTY_FLOOR_BPS {
                prev
            } else {
                (prev * PENALTY_FACTOR).max(PENALTY_FLOOR_BPS)
            });
            self.penalties += 1;
        }
    }

    /// Number of penalty observations absorbed since the last reset.
    pub fn penalties(&self) -> usize {
        self.penalties
    }

    /// Feeds one completed transfer (payload bytes over elapsed time).
    /// Zero-duration or zero-byte transfers are ignored — they carry no
    /// throughput information.
    pub fn observe(&mut self, bytes: u64, elapsed: Duration) {
        if bytes == 0 || elapsed.is_zero() {
            return;
        }
        let sample = bytes as f64 * 8.0 / elapsed.as_secs_f64();
        self.estimate_bps = Some(match self.estimate_bps {
            Some(prev) => prev + self.alpha * (sample - prev),
            None => sample,
        });
        self.samples += 1;
    }

    /// Convenience: observes a [`Transfer`] record.
    pub fn observe_transfer(&mut self, transfer: &Transfer) {
        self.observe(transfer.bytes, transfer.elapsed());
    }

    /// Current estimate in bits/second, if any transfer has been seen.
    pub fn estimate_bps(&self) -> Option<f64> {
        self.estimate_bps
    }

    /// Number of samples absorbed.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Builds a [`LinkConfig`] from the estimate for feeding a planner
    /// (e.g. the adaptive offloader). Returns `None` before any sample.
    ///
    /// Only the bandwidth is estimated; latency, loss and per-transfer
    /// overhead are inherited from `template` — the configured link the
    /// observations were made against. (Fabricating `loss: 0` /
    /// `overhead_bytes: 0` here made every estimator-fed plan optimistic
    /// on lossy or overhead-heavy paths.)
    pub fn as_link_config(&self, template: &LinkConfig) -> Option<LinkConfig> {
        self.estimate_bps.map(|bps| LinkConfig {
            bandwidth_bps: bps,
            ..template.clone()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_sets_the_estimate() {
        let mut e = BandwidthEstimator::default();
        assert_eq!(e.estimate_bps(), None);
        e.observe(1_000_000, Duration::from_secs(1));
        assert_eq!(e.estimate_bps(), Some(8.0e6));
    }

    #[test]
    fn converges_toward_a_stable_rate() {
        let mut e = BandwidthEstimator::new(0.3);
        for _ in 0..50 {
            e.observe(3_750_000, Duration::from_secs(1)); // 30 Mbps
        }
        let est = e.estimate_bps().unwrap();
        assert!((est - 30.0e6).abs() / 30.0e6 < 0.01, "est {est}");
    }

    #[test]
    fn reacts_to_degradation() {
        let mut e = BandwidthEstimator::new(0.5);
        for _ in 0..10 {
            e.observe(3_750_000, Duration::from_secs(1)); // 30 Mbps
        }
        for _ in 0..10 {
            e.observe(125_000, Duration::from_secs(1)); // 1 Mbps
        }
        let est = e.estimate_bps().unwrap();
        assert!(est < 2.0e6, "should track the collapse, est {est}");
    }

    #[test]
    fn ignores_information_free_samples() {
        let mut e = BandwidthEstimator::default();
        e.observe(0, Duration::from_secs(1));
        e.observe(100, Duration::ZERO);
        assert_eq!(e.samples(), 0);
        assert_eq!(e.estimate_bps(), None);
    }

    #[test]
    fn link_config_roundtrip() {
        // A lossy, overhead-heavy template: the estimate replaces only
        // the bandwidth, everything else is inherited verbatim.
        let template = LinkConfig {
            bandwidth_bps: 100.0e6,
            latency: Duration::from_millis(5),
            overhead_bytes: 512,
            loss: 0.2,
        };
        let mut e = BandwidthEstimator::default();
        assert!(e.as_link_config(&template).is_none());
        e.observe(3_750_000, Duration::from_secs(1));
        let cfg = e.as_link_config(&template).unwrap();
        assert!((cfg.bandwidth_bps - 30.0e6).abs() < 1.0);
        assert_eq!(cfg.latency, template.latency);
        assert_eq!(cfg.overhead_bytes, template.overhead_bytes);
        assert_eq!(cfg.loss, template.loss);
        // The config is usable for transfer-time prediction, and the
        // inherited loss makes it slower than a fabricated lossless one.
        let lossy = cfg.transfer_time(3_750_000).unwrap();
        assert!(lossy.as_secs_f64() > 0.9);
        let lossless = LinkConfig { loss: 0.0, ..cfg }
            .transfer_time(3_750_000)
            .unwrap();
        assert!(lossy > lossless, "loss must survive the round-trip");
    }

    #[test]
    fn penalties_decay_to_a_floor_not_to_zero() {
        let mut e = BandwidthEstimator::default();
        e.observe(3_750_000, Duration::from_secs(1)); // 30 Mbps
        for _ in 0..500 {
            e.penalize();
        }
        let est = e.estimate_bps().unwrap();
        assert_eq!(est, PENALTY_FLOOR_BPS);
        assert_eq!(e.penalties(), 500);
        // The floored estimate still yields a finite link config.
        let cfg = e.as_link_config(&LinkConfig::wifi_30mbps()).unwrap();
        assert!(cfg.transfer_time(1024).is_ok());
    }

    #[test]
    fn reset_forgets_everything() {
        let mut e = BandwidthEstimator::new(0.3);
        for _ in 0..5 {
            e.observe(3_750_000, Duration::from_secs(1));
        }
        e.penalize();
        assert!(e.estimate_bps().is_some());
        e.reset();
        assert_eq!(e.estimate_bps(), None);
        assert_eq!(e.samples(), 0);
        assert_eq!(e.penalties(), 0);
        // Still usable after the reset — and the first post-reset sample
        // sets the estimate outright, untainted by pre-reset history.
        e.observe(1_000_000, Duration::from_secs(1));
        assert_eq!(e.estimate_bps(), Some(8.0e6));
        assert_eq!(e.samples(), 1);
    }

    #[test]
    fn penalties_halve_the_estimate_and_are_counted() {
        let mut e = BandwidthEstimator::new(0.5);
        // Before any sample a penalty is a no-op.
        e.penalize();
        assert_eq!(e.estimate_bps(), None);
        assert_eq!(e.penalties(), 0);
        e.observe(1_000_000, Duration::from_secs(1)); // 8 Mbps
        e.penalize();
        assert_eq!(e.estimate_bps(), Some(4.0e6));
        e.penalize();
        assert_eq!(e.estimate_bps(), Some(2.0e6));
        assert_eq!(e.penalties(), 2);
        // Penalties decay the estimate; they are not throughput samples.
        assert_eq!(e.samples(), 1);
    }

    #[test]
    fn alpha_is_clamped() {
        let e = BandwidthEstimator::new(42.0);
        let f = BandwidthEstimator::new(-3.0);
        // Both still function.
        let mut e = e;
        let mut f = f;
        e.observe(1000, Duration::from_millis(10));
        f.observe(1000, Duration::from_millis(10));
        assert!(e.estimate_bps().is_some());
        assert!(f.estimate_bps().is_some());
    }
}
