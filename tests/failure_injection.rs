//! Failure injection: link failures, protocol violations, and the
//! fall-back-to-local-execution path the paper recommends while the edge
//! is unreachable.

use snapedge_core::prelude::*;
use std::time::Duration;

/// A link that is down from the start and stays down for an hour.
fn dead_link() -> FaultPlan {
    FaultPlan::none()
        .down(Duration::ZERO, Duration::from_secs(3600))
        .unwrap()
}

/// A retry budget that gives up on a dead link within seconds.
fn short_budget() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 2,
        deadline: Duration::from_secs(5),
        ..RetryPolicy::default()
    }
}

#[test]
fn uplink_failure_surfaces_as_a_net_error() {
    let cfg = SessionConfig::tiny_builder().up_faults(dead_link()).build();
    let err = run_scenario(&cfg, Strategy::OffloadAfterAck).unwrap_err();
    assert!(matches!(err, OffloadError::Net(_)), "{err:?}");
}

#[test]
fn downlink_failure_surfaces_as_a_net_error() {
    let cfg = SessionConfig::tiny_builder()
        .down_faults(dead_link())
        .build();
    let err = run_scenario(&cfg, Strategy::OffloadAfterAck).unwrap_err();
    assert!(matches!(err, OffloadError::Net(_)), "{err:?}");
}

#[test]
fn fallback_runs_locally_when_the_edge_is_unreachable() {
    let cfg = SessionConfig::tiny_builder()
        .up_faults(dead_link())
        .retry(short_budget())
        .build();
    let report = run_scenario(&cfg, Strategy::OffloadAfterAck).unwrap();
    assert!(report.fell_back);
    // Local execution still produces the correct label.
    let local = run_scenario(&SessionConfig::tiny(), Strategy::ClientOnly).unwrap();
    assert_eq!(report.result, local.result);
    // And costs client-only time.
    assert_eq!(report.breakdown.exec_server, Duration::ZERO);
}

#[test]
fn fallback_is_not_taken_on_a_healthy_network() {
    let cfg = SessionConfig::tiny_builder().retry(short_budget()).build();
    let report = run_scenario(&cfg, Strategy::OffloadAfterAck).unwrap();
    assert!(!report.fell_back);
    assert!(report.breakdown.exec_server > Duration::ZERO);
}

#[test]
fn config_errors_are_not_masked_by_fallback() {
    let cfg = SessionConfig::tiny_builder()
        .cut("not_a_layer")
        .up_faults(dead_link())
        .retry(short_budget())
        .build();
    let err = run_scenario(&cfg, Strategy::Partial).unwrap_err();
    assert!(matches!(err, OffloadError::Dnn(_)), "{err:?}");
}

#[test]
fn very_slow_links_still_complete_correctly() {
    // Degraded network: 0.5 Mbps. Everything still works, just slowly.
    let mut cfg = SessionConfig::tiny();
    cfg.primary_mut().link = LinkConfig::mbps(0.5);
    let report = run_scenario(&cfg, Strategy::OffloadAfterAck).unwrap();
    let fast = run_scenario(&SessionConfig::tiny(), Strategy::OffloadAfterAck).unwrap();
    assert_eq!(report.result, fast.result);
    assert!(report.total > fast.total);
}

#[test]
fn zero_bandwidth_link_fails_cleanly() {
    let mut cfg = SessionConfig::tiny();
    cfg.primary_mut().link = LinkConfig {
        bandwidth_bps: 0.0,
        ..LinkConfig::wifi_30mbps()
    };
    let err = run_scenario(&cfg, Strategy::OffloadAfterAck).unwrap_err();
    assert!(matches!(err, OffloadError::Net(_)), "{err:?}");
}
