//! Fault classification and recovery policy.
//!
//! The paper's adaptive section concedes that when the edge server is not
//! ready *"it would be better for the client to execute the DNN locally"*
//! (Section IV-A). This module supplies the machinery that turns a
//! mid-offload network failure into a recoverable event instead of a lost
//! inference: errors are classified as transient or fatal, transient ones
//! are retried under a [`RetryPolicy`] (bounded attempts, virtual-time
//! exponential backoff, a hard deadline), and when the budget runs out the
//! runtime degrades to local execution via the
//! [`AdaptiveOffloader`](crate::AdaptiveOffloader). Everything is measured
//! in *virtual* time on the shared `SimClock`, so a recovery under an
//! injected [`FaultPlan`](snapedge_net::FaultPlan) is bit-for-bit
//! reproducible.

use crate::OffloadError;
use snapedge_net::{Link, NetError, Transfer};
use snapedge_trace::{EventKind, Lane, Tracer};
use snapedge_webapp::WebError;
use std::time::Duration;

/// Whether a failure is worth retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// The operation may succeed if repeated (link outage, corrupted
    /// payload): the network can heal.
    Transient,
    /// Retrying cannot help (configuration, protocol, app errors, a link
    /// with no bandwidth at all).
    Fatal,
    /// Retrying *on this server* cannot help, but another server — or the
    /// client itself — can still finish the work: the tenant tripped a
    /// per-server resource cap
    /// ([`WebError::ResourceExhausted`](snapedge_webapp::WebError)). The
    /// runtime must not burn retries against the exhausted server; it
    /// fails over to the next fleet candidate or degrades to local
    /// execution immediately.
    FatalForServer,
}

/// Classifies an [`OffloadError`] for the retry loop.
///
/// Link outages and corrupted payloads are [`FaultClass::Transient`]: an
/// outage window closes and a retransmit replaces a corrupt payload.
/// [`NetError::ZeroBandwidth`] is a configuration error — no amount of
/// waiting gives a zero-bandwidth link capacity — and everything
/// non-network (app, protocol, DNN, tensor) is deterministic, so both are
/// [`FaultClass::Fatal`]. A tripped per-tenant resource meter
/// ([`WebError::ResourceExhausted`](snapedge_webapp::WebError)) is
/// [`FaultClass::FatalForServer`]: repeating the same work on the same
/// server hits the same cap, but a differently-provisioned server or the
/// client can still finish it.
pub fn classify(err: &OffloadError) -> FaultClass {
    match err {
        OffloadError::Net(NetError::LinkDown) | OffloadError::Net(NetError::Corrupt(_)) => {
            FaultClass::Transient
        }
        OffloadError::Web(WebError::ResourceExhausted { .. }) => FaultClass::FatalForServer,
        _ => FaultClass::Fatal,
    }
}

/// Recovery knobs for resilient offloading.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Maximum attempts per transfer (1 = no retries).
    pub max_attempts: u32,
    /// Total virtual-time budget for one inference, measured from the
    /// moment the user clicked. When a retry (including its backoff sleep)
    /// would overrun the deadline, the runtime falls back to local
    /// execution instead.
    pub deadline: Duration,
    /// First backoff sleep; attempt `n` sleeps `backoff_base * 2^(n-1)`,
    /// capped at [`RetryPolicy::backoff_max`].
    pub backoff_base: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_max: Duration,
}

impl Default for RetryPolicy {
    /// Four attempts, a 60 s deadline, 100 ms initial backoff doubling up
    /// to 10 s.
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            deadline: Duration::from_secs(60),
            backoff_base: Duration::from_millis(100),
            backoff_max: Duration::from_secs(10),
        }
    }
}

impl RetryPolicy {
    /// The backoff sleep after failed attempt number `attempt` (1-based):
    /// exponential doubling from [`RetryPolicy::backoff_base`], capped at
    /// [`RetryPolicy::backoff_max`].
    pub fn backoff(&self, attempt: u32) -> Duration {
        let doublings = attempt.saturating_sub(1).min(32);
        let raw = self.backoff_base.saturating_mul(1u32 << doublings.min(31));
        raw.min(self.backoff_max)
    }

    /// Total backoff sleep charged by `retries` failed attempts: the sum
    /// of [`RetryPolicy::backoff`] over attempts `1..=retries`. This is
    /// the failed-attempt penalty the predictive offloader folds into
    /// its offload-time estimate.
    pub fn cumulative_backoff(&self, retries: u32) -> Duration {
        (1..=retries).fold(Duration::ZERO, |acc, attempt| {
            acc.saturating_add(self.backoff(attempt))
        })
    }

    /// Parses a `key=value` spec, e.g. `attempts=5,deadline=30,backoff=0.2`
    /// (`deadline`/`backoff`/`backoff-max` in seconds). Unspecified keys
    /// keep their [`RetryPolicy::default`] values.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed entry.
    pub fn parse(spec: &str) -> Result<RetryPolicy, String> {
        let mut policy = RetryPolicy::default();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| format!("retry entry {entry:?} is missing '='"))?;
            let secs = |v: &str| -> Result<Duration, String> {
                let s: f64 = v
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad duration {v:?} in retry spec"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad duration {v:?} in retry spec"));
                }
                Duration::try_from_secs_f64(s)
                    .map_err(|_| format!("bad duration {v:?} in retry spec"))
            };
            match key.trim() {
                "attempts" => {
                    policy.max_attempts = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad attempts {value:?} in retry spec"))?;
                    if policy.max_attempts == 0 {
                        return Err("attempts must be at least 1".to_string());
                    }
                }
                "deadline" => policy.deadline = secs(value)?,
                "backoff" => policy.backoff_base = secs(value)?,
                "backoff-max" => policy.backoff_max = secs(value)?,
                other => return Err(format!("unknown retry key {other:?}")),
            }
        }
        Ok(policy)
    }
}

/// What one resilient scheduling attempt cost, beyond the transfer
/// itself. The fleet layer feeds this into its per-server health records:
/// retries penalize a server's bandwidth estimate, and `gave_up_at`
/// sequences the next candidate's provisioning after a give-up.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceOutcome {
    /// The completed transfer, or `None` when the retry budget ran out.
    pub transfer: Option<Transfer>,
    /// Number of re-attempts made (instant [`EventKind::Retry`] markers
    /// recorded).
    pub retries: u32,
    /// The virtual instant the loop stopped trying — the last failure
    /// time when the budget exhausted, [`Transfer::finish`] on success.
    pub gave_up_at: Duration,
}

/// Schedules `bytes` on `link` at virtual time `at`, retrying transient
/// failures (outage-refused attempts, corrupted payloads) under `policy`.
///
/// The shared clock is deliberately *not* advanced — the caller decides
/// whether the transfer is synchronous (snapshot migration: advance to
/// [`Transfer::finish`]) or overlapped (model pre-sending: the link's
/// occupancy carries the time). Each backoff sleep is recorded as an
/// [`EventKind::Backoff`] span and each re-attempt as an instant
/// [`EventKind::Retry`] marker, so the trace reconstructs the whole
/// recovery. The sleep before attempt `n+1` is the larger of the policy's
/// exponential backoff and the link's next fault-window edge, so the retry
/// after an outage lands exactly when the link comes back up.
///
/// Returns `Ok(None)` when the retry budget is exhausted — attempts spent,
/// the next retry would start past `anchor + deadline`, or the link is
/// statically down and can never come back — and the caller should degrade
/// gracefully. Without a policy the first transient failure is returned as
/// an error, preserving strict fail-fast behaviour.
///
/// # Errors
///
/// Fatal (non-retryable) failures are returned immediately; transient ones
/// only when no `policy` was given.
pub fn schedule_resilient(
    link: &mut Link,
    tracer: &Tracer,
    policy: Option<&RetryPolicy>,
    at: Duration,
    anchor: Duration,
    bytes: u64,
) -> Result<Option<Transfer>, OffloadError> {
    schedule_resilient_traced(link, tracer, policy, at, anchor, bytes)
        .map(|outcome| outcome.transfer)
}

/// [`schedule_resilient`] with the full [`ResilienceOutcome`]: the same
/// retry loop, but the caller also learns how many re-attempts were spent
/// and when the loop stopped. The fleet layer uses both — retries feed
/// per-server penalty observations, and `gave_up_at` anchors the handoff
/// to the next candidate.
///
/// # Errors
///
/// Same conditions as [`schedule_resilient`].
pub fn schedule_resilient_traced(
    link: &mut Link,
    tracer: &Tracer,
    policy: Option<&RetryPolicy>,
    at: Duration,
    anchor: Duration,
    bytes: u64,
) -> Result<ResilienceOutcome, OffloadError> {
    let mut at = at;
    let mut attempt: u32 = 1;
    let mut retries: u32 = 0;
    loop {
        let failure = match link.schedule(at, bytes) {
            Ok(xfer) if !xfer.corrupted => {
                return Ok(ResilienceOutcome {
                    gave_up_at: xfer.finish,
                    transfer: Some(xfer),
                    retries,
                })
            }
            Ok(xfer) => {
                // The link was occupied for the full transfer; the receiver
                // discards the payload and requests a retransmit.
                at = xfer.finish;
                OffloadError::Net(NetError::Corrupt(format!(
                    "{bytes}-byte payload corrupted in flight"
                )))
            }
            Err(e) => OffloadError::Net(e),
        };
        if classify(&failure) == FaultClass::Fatal {
            return Err(failure);
        }
        let Some(policy) = policy else {
            return Err(failure);
        };
        let gave_up = ResilienceOutcome {
            transfer: None,
            retries,
            gave_up_at: at,
        };
        if attempt >= policy.max_attempts {
            return Ok(gave_up);
        }
        let mut resume = at + policy.backoff(attempt);
        match link.next_up_after(resume) {
            // Statically failed: no outage window ever closes.
            None => return Ok(gave_up),
            Some(up) => resume = resume.max(up),
        }
        if resume > anchor + policy.deadline {
            return Ok(gave_up);
        }
        tracer.record("backoff", Lane::Network, EventKind::Backoff, at, resume);
        tracer.record("retry", Lane::Network, EventKind::Retry, resume, resume);
        at = resume;
        attempt += 1;
        retries += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapedge_net::{FaultPlan, LinkConfig};

    #[test]
    fn resilient_schedule_retries_past_an_outage() {
        let mut link = Link::new(LinkConfig::mbps(8.0))
            .with_fault_plan(FaultPlan::parse("down@0..2").unwrap());
        let tracer = Tracer::new();
        let policy = RetryPolicy::default();
        let xfer = schedule_resilient(
            &mut link,
            &tracer,
            Some(&policy),
            Duration::ZERO,
            Duration::ZERO,
            1_000_000,
        )
        .unwrap()
        .expect("retry should succeed once the window closes");
        // The retry lands exactly when the link comes back up.
        assert_eq!(xfer.start, Duration::from_secs(2));
        let trace = tracer.finish();
        assert_eq!(
            trace.duration_of_kind(EventKind::Backoff, None),
            Duration::from_secs(2)
        );
    }

    #[test]
    fn statically_down_links_exhaust_immediately() {
        let mut link = Link::new(LinkConfig::mbps(8.0));
        link.set_down(true);
        let tracer = Tracer::new();
        // Fail-fast without a policy.
        assert!(matches!(
            schedule_resilient(
                &mut link,
                &tracer,
                None,
                Duration::ZERO,
                Duration::ZERO,
                1_000
            ),
            Err(OffloadError::Net(NetError::LinkDown))
        ));
        // Graceful give-up with one: there is no window edge to wait for.
        let policy = RetryPolicy::default();
        let gave_up = schedule_resilient(
            &mut link,
            &tracer,
            Some(&policy),
            Duration::ZERO,
            Duration::ZERO,
            1_000,
        )
        .unwrap();
        assert!(gave_up.is_none());
    }

    #[test]
    fn traced_variant_reports_retries_and_give_up_time() {
        // One outage → one retry that succeeds.
        let mut link = Link::new(LinkConfig::mbps(8.0))
            .with_fault_plan(FaultPlan::parse("down@0..2").unwrap());
        let tracer = Tracer::new();
        let policy = RetryPolicy::default();
        let outcome = schedule_resilient_traced(
            &mut link,
            &tracer,
            Some(&policy),
            Duration::ZERO,
            Duration::ZERO,
            1_000_000,
        )
        .unwrap();
        assert_eq!(outcome.retries, 1);
        let xfer = outcome.transfer.expect("retry should succeed");
        assert_eq!(outcome.gave_up_at, xfer.finish);

        // A statically-down link gives up at the failure instant with no
        // retries (there is no window edge to wait for).
        let mut dead = Link::new(LinkConfig::mbps(8.0));
        dead.set_down(true);
        let at = Duration::from_secs(3);
        let outcome =
            schedule_resilient_traced(&mut dead, &tracer, Some(&policy), at, at, 1_000).unwrap();
        assert!(outcome.transfer.is_none());
        assert_eq!(outcome.retries, 0);
        assert_eq!(outcome.gave_up_at, at);
    }

    #[test]
    fn network_faults_are_transient_everything_else_fatal() {
        assert_eq!(
            classify(&OffloadError::Net(NetError::LinkDown)),
            FaultClass::Transient
        );
        assert_eq!(
            classify(&OffloadError::Net(NetError::Corrupt("x".into()))),
            FaultClass::Transient
        );
        assert_eq!(
            classify(&OffloadError::Net(NetError::ZeroBandwidth)),
            FaultClass::Fatal
        );
        assert_eq!(
            classify(&OffloadError::Protocol("p".into())),
            FaultClass::Fatal
        );
        assert_eq!(
            classify(&OffloadError::Config("c".into())),
            FaultClass::Fatal
        );
        // A tripped resource meter is fatal for the server only: no
        // retry can help there, but failover or local execution can.
        assert_eq!(
            classify(&OffloadError::Web(WebError::ResourceExhausted {
                resource: "ops".into(),
                limit: 10,
                used: 11,
            })),
            FaultClass::FatalForServer
        );
        // Other app errors stay plain fatal.
        assert_eq!(
            classify(&OffloadError::Web(WebError::Runtime("boom".into()))),
            FaultClass::Fatal
        );
        // A static effect-analysis rejection is a property of the app:
        // no retry, failover or handoff can make it replayable.
        assert_eq!(
            classify(&OffloadError::Analyze(
                snapedge_analyze::AnalyzeError::Parse("bad".into())
            )),
            FaultClass::Fatal
        );
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            backoff_base: Duration::from_millis(100),
            backoff_max: Duration::from_millis(350),
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff(1), Duration::from_millis(100));
        assert_eq!(p.backoff(2), Duration::from_millis(200));
        assert_eq!(p.backoff(3), Duration::from_millis(350), "capped");
        assert_eq!(p.backoff(30), Duration::from_millis(350));
    }

    #[test]
    fn cumulative_backoff_sums_the_schedule() {
        let p = RetryPolicy {
            backoff_base: Duration::from_millis(100),
            backoff_max: Duration::from_millis(350),
            ..RetryPolicy::default()
        };
        assert_eq!(p.cumulative_backoff(0), Duration::ZERO);
        assert_eq!(p.cumulative_backoff(1), Duration::from_millis(100));
        // 100 + 200 + 350 (capped)
        assert_eq!(p.cumulative_backoff(3), Duration::from_millis(650));
    }

    #[test]
    fn parse_overrides_only_named_keys() {
        let p = RetryPolicy::parse("attempts=7, deadline=30, backoff=0.25").unwrap();
        assert_eq!(p.max_attempts, 7);
        assert_eq!(p.deadline, Duration::from_secs(30));
        assert_eq!(p.backoff_base, Duration::from_millis(250));
        assert_eq!(p.backoff_max, RetryPolicy::default().backoff_max);
        assert_eq!(RetryPolicy::parse("").unwrap(), RetryPolicy::default());
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "attempts",
            "attempts=zero",
            "attempts=0",
            "deadline=-3",
            "warp=9",
        ] {
            assert!(RetryPolicy::parse(bad).is_err(), "{bad:?} should fail");
        }
    }
}
