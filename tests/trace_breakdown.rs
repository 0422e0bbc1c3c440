//! The trace is the single source of truth for timing reports: this suite
//! recomputes the tiny() full-offload phase costs by hand — straight from
//! the device/link models, the way `Breakdown` was assembled before the
//! event trace existed — and checks the trace-derived report matches.

use snapedge_core::prelude::*;
use std::time::Duration;

fn tiny_report() -> (SessionConfig, ScenarioReport) {
    let cfg = SessionConfig::tiny();
    let report = run_scenario(&cfg, Strategy::OffloadAfterAck).unwrap();
    (cfg, report)
}

#[test]
fn trace_breakdown_matches_hand_computed_phase_costs() {
    let (cfg, report) = tiny_report();
    let b = &report.breakdown;

    // Full offloading: the client never executes a layer.
    assert_eq!(b.exec_client, Duration::ZERO);

    // Snapshot codec phases follow the device models directly.
    assert_eq!(
        b.capture_client,
        cfg.client_device.capture_time(report.snapshot_up_bytes)
    );
    assert_eq!(
        b.restore_server,
        cfg.primary().device.restore_time(report.snapshot_up_bytes)
    );
    assert_eq!(
        b.capture_server,
        cfg.primary()
            .device
            .capture_time(report.snapshot_down_bytes)
    );
    assert_eq!(
        b.restore_client,
        cfg.client_device.restore_time(report.snapshot_down_bytes)
    );

    // After the ACK both links are idle, so each transfer costs exactly
    // what a fresh link would charge for the same payload.
    let idle_cost = |bytes: u64| {
        let mut link = Link::new(cfg.primary().link.clone());
        let xfer = link.schedule(Duration::ZERO, bytes).unwrap();
        xfer.finish
    };
    assert_eq!(b.transfer_up, idle_cost(report.snapshot_up_bytes));
    assert_eq!(b.transfer_down, idle_cost(report.snapshot_down_bytes));

    // Server execution is the per-layer device model summed over the net.
    let net = zoo::by_name(&cfg.model).unwrap();
    assert_eq!(
        b.exec_server,
        cfg.primary().device.full_exec_time(&net.profile())
    );

    // And the eight phases tile the whole click-to-result interval.
    let sum = b.exec_client
        + b.capture_client
        + b.transfer_up
        + b.restore_server
        + b.exec_server
        + b.capture_server
        + b.transfer_down
        + b.restore_client;
    assert_eq!(sum, report.total);
}

#[test]
fn report_breakdown_is_exactly_the_trace_derived_one() {
    let (_, report) = tiny_report();
    assert_eq!(report.breakdown, Breakdown::from_trace(&report.trace));
}

#[test]
fn per_layer_events_tile_the_server_exec_phase() {
    let (_, report) = tiny_report();
    let exec: Vec<&Event> = report
        .trace
        .events()
        .iter()
        .filter(|e| e.name == "exec_server")
        .collect();
    assert_eq!(exec.len(), 1);
    let layers: Vec<&Event> = report
        .trace
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::Layer && e.lane == Lane::Server)
        .collect();
    assert!(layers.len() >= 3, "tiny_cnn has several layers");
    let layer_sum: Duration = layers.iter().map(|e| e.end - e.start).sum();
    assert_eq!(layer_sum, exec[0].end - exec[0].start);
    // Layers nest inside the exec span, both in time and in depth.
    for layer in &layers {
        assert!(layer.start >= exec[0].start && layer.end <= exec[0].end);
        assert!(layer.depth > exec[0].depth);
    }
}

#[test]
fn trace_round_trips_through_jsonl() {
    let (_, report) = tiny_report();
    let jsonl = report.trace.to_jsonl();
    assert_eq!(Trace::from_jsonl(&jsonl).unwrap(), report.trace);
}

#[test]
fn transfer_events_carry_the_snapshot_sizes() {
    let (_, report) = tiny_report();
    assert_eq!(
        report.trace.bytes_of("transfer_up"),
        report.snapshot_up_bytes
    );
    assert_eq!(
        report.trace.bytes_of("transfer_down"),
        report.snapshot_down_bytes
    );
    assert_eq!(
        report.trace.bytes_of("model_upload"),
        report.model_upload_bytes
    );
}
