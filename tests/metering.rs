//! Metering suite (ISSUE: runtime sandboxing tentpole).
//!
//! The contract under test:
//!
//! 1. **Metering off is free** — with no `MeterLimits` configured (the
//!    default) runs are bit-identical to the unmetered engine across the
//!    chaos seed matrix, and no meter events appear in the trace.
//! 2. **Generous caps only observe** — caps the workload never reaches
//!    change no result and no virtual timestamp; they only add
//!    `MeterTick` accounting events and per-round usage numbers.
//! 3. **Exhaustion is fatal-for-this-server** — a tripped cap never
//!    burns the retry budget: the session fails over to the next fleet
//!    candidate, or completes locally when every candidate is capped,
//!    and the inference result stays bit-identical either way.

use snapedge_core::prelude::*;
use std::time::Duration;

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

fn tiny_spec(name: &str) -> ServerSpec {
    ServerSpec::new(name, edge_server_x86(), LinkConfig::wifi_30mbps())
}

fn count_kind(trace: &Trace, kind: EventKind) -> usize {
    trace.events().iter().filter(|e| e.kind == kind).count()
}

fn names_of_kind(trace: &Trace, kind: EventKind) -> Vec<String> {
    trace
        .events()
        .iter()
        .filter(|e| e.kind == kind)
        .map(|e| e.name.clone())
        .collect()
}

/// Caps far above anything the tiny app can reach: pure observability.
fn generous() -> MeterLimits {
    MeterLimits::default()
        .with_ops(u64::MAX / 2)
        .with_heap_cells(usize::MAX / 2)
        .with_string_len(usize::MAX / 2)
        .with_call_depth(usize::MAX / 2)
        .with_time_slice(secs(3600.0))
}

// --- 1. Metering off is free ----------------------------------------------

#[test]
fn meter_off_is_bit_identical_across_the_chaos_seed_matrix() {
    for strategy in [Strategy::OffloadAfterAck, Strategy::OffloadBeforeAck] {
        for seed in [1u64, 2, 3, 5, 8] {
            let cfg = SessionConfig::tiny_builder()
                .faults(FaultPlan::chaos(seed, secs(1.0)))
                .retry(RetryPolicy::default())
                .build();
            assert!(cfg.meter.is_none(), "metering must default off");
            let a = run_scenario(&cfg, strategy).unwrap();
            let b = run_scenario(&cfg, strategy).unwrap();
            assert_eq!(a.total, b.total, "seed {seed} is not reproducible");
            assert_eq!(a.result, b.result);
            assert_eq!(
                count_kind(&a.trace, EventKind::MeterTick),
                0,
                "meter-off runs must not emit MeterTick"
            );
            assert_eq!(count_kind(&a.trace, EventKind::MeterExhausted), 0);
        }
    }
}

#[test]
fn meter_off_session_reports_zero_usage() {
    let mut session = OffloadSession::new(SessionConfig::tiny_builder().build()).unwrap();
    for round in 1..=2 {
        let r = session.infer(round).unwrap();
        assert_eq!(r.ops_used, 0, "unmetered rounds report zero ops");
        assert_eq!(r.peak_heap, 0);
    }
    assert_eq!(count_kind(&session.trace(), EventKind::MeterTick), 0);
}

// --- 2. Generous caps only observe ----------------------------------------

#[test]
fn generous_caps_change_no_timestamp_but_are_observable() {
    let clean = run_scenario(&SessionConfig::tiny(), Strategy::OffloadAfterAck).unwrap();
    let metered = run_scenario(
        &SessionConfig::tiny_builder().meter(generous()).build(),
        Strategy::OffloadAfterAck,
    )
    .unwrap();
    assert_eq!(metered.result, clean.result);
    assert_eq!(
        metered.total, clean.total,
        "accounting must not cost virtual time"
    );
    assert_eq!(metered.breakdown, clean.breakdown);
    assert!(
        count_kind(&metered.trace, EventKind::MeterTick) > 0,
        "metered runs record their ticks"
    );
    assert_eq!(count_kind(&metered.trace, EventKind::MeterExhausted), 0);
}

#[test]
fn generous_caps_surface_per_round_usage_in_session_reports() {
    let mut probe = OffloadSession::new(SessionConfig::tiny_builder().build()).unwrap();
    let mut metered =
        OffloadSession::new(SessionConfig::tiny_builder().meter(generous()).build()).unwrap();
    for round in 1..=3 {
        let p = probe.infer(round).unwrap();
        let m = metered.infer(round).unwrap();
        assert_eq!(m.result, p.result);
        assert_eq!(m.total, p.total, "round {round} timing drifted");
        assert!(m.ops_used > 0, "round {round} charged no ops");
        // The benchmark apps hold their state in strings and the DOM, not
        // heap cells, so the observed peak is legitimately zero here (the
        // heap cap itself is exercised by the interpreter's unit tests).
        assert_eq!(m.peak_heap, 0);
    }
}

// --- 3. Exhaustion is fatal-for-this-server -------------------------------

#[test]
fn ops_exhaustion_fails_over_without_burning_retries() {
    let mut probe = OffloadSession::new(SessionConfig::tiny_builder().build()).unwrap();
    let probe_rounds: Vec<RoundReport> = (1..=3).map(|i| probe.infer(i).unwrap()).collect();

    // edge-a admits one op and kills the tenant during restore; edge-b is
    // unmetered. No retry policy: exhaustion must not need one.
    let mut session = OffloadSession::new(
        SessionConfig::tiny_builder()
            .servers(vec![
                tiny_spec("edge-a").with_meter(MeterLimits::default().with_ops(1)),
                tiny_spec("edge-b"),
            ])
            .build(),
    )
    .unwrap();
    let rounds: Vec<RoundReport> = (1..=3).map(|i| session.infer(i).unwrap()).collect();
    for (r, p) in rounds.iter().zip(&probe_rounds) {
        assert_eq!(r.result, p.result, "round {} result drifted", r.round);
        assert!(!r.fell_back, "round {} must not fall back", r.round);
        assert_eq!(r.server, "edge-b", "round {} served by failover", r.round);
    }
    let trace = session.trace();
    assert!(
        names_of_kind(&trace, EventKind::MeterExhausted)
            .iter()
            .any(|n| n == "meter_exhausted:ops"),
        "the tripped cap names its resource"
    );
    assert_eq!(
        names_of_kind(&trace, EventKind::Handoff),
        vec!["handoff:edge-a->edge-b".to_string()]
    );
    assert_eq!(
        count_kind(&trace, EventKind::Retry),
        0,
        "exhaustion must never burn retries"
    );
}

#[test]
fn slice_kill_mid_compute_fails_over_in_a_scenario() {
    let clean = run_scenario(&SessionConfig::tiny(), Strategy::OffloadAfterAck).unwrap();
    let report = run_scenario(
        &SessionConfig::tiny_builder()
            .servers(vec![
                tiny_spec("edge-a")
                    .with_meter(MeterLimits::default().with_time_slice(secs(0.000001))),
                tiny_spec("edge-b"),
            ])
            .build(),
        Strategy::OffloadAfterAck,
    )
    .unwrap();
    assert_eq!(report.result, clean.result);
    assert!(!report.fell_back);
    assert_eq!(report.server.as_deref(), Some("edge-b"));
    assert!(
        names_of_kind(&report.trace, EventKind::MeterExhausted)
            .iter()
            .any(|n| n == "meter_exhausted:slice"),
        "the slice kill names its resource"
    );
}

#[test]
fn every_server_capped_falls_back_locally_with_the_same_result() {
    let mut probe = OffloadSession::new(SessionConfig::tiny_builder().build()).unwrap();
    let probe_rounds: Vec<RoundReport> = (1..=2).map(|i| probe.infer(i).unwrap()).collect();

    let tight = MeterLimits::default().with_ops(1);
    let mut session = OffloadSession::new(
        SessionConfig::tiny_builder()
            .servers(vec![
                tiny_spec("edge-a").with_meter(tight.clone()),
                tiny_spec("edge-b").with_meter(tight),
            ])
            .build(),
    )
    .unwrap();
    for (i, p) in probe_rounds.iter().enumerate() {
        let r = session.infer(i as u64 + 1).unwrap();
        assert_eq!(r.result, p.result, "local fallback computes the same bits");
        assert!(r.fell_back, "round {} must complete locally", r.round);
    }
}

#[test]
fn fleet_wide_meter_is_overridden_per_server() {
    // Fleet-wide cap is unreachable; the primary's own cap is one op.
    // The override must win on the primary only, so the round fails over
    // to the secondary, which inherits the generous fleet-wide limits.
    let report = run_scenario(
        &SessionConfig::tiny_builder()
            .meter(generous())
            .servers(vec![
                tiny_spec("edge-a").with_meter(MeterLimits::default().with_ops(1)),
                tiny_spec("edge-b"),
            ])
            .build(),
        Strategy::OffloadAfterAck,
    )
    .unwrap();
    assert_eq!(report.server.as_deref(), Some("edge-b"));
    assert!(!report.fell_back);
    assert!(count_kind(&report.trace, EventKind::MeterTick) > 0);
}

// --- Fleet engine ---------------------------------------------------------

fn engine_cfg(meter: Option<MeterLimits>) -> SessionConfig {
    let mut builder = SessionConfig::tiny_builder();
    if let Some(limits) = meter {
        builder = builder.meter(limits);
    }
    builder.build()
}

fn run_engine(cfg: SessionConfig) -> FleetReport {
    Engine::sessions(cfg, 3)
        .unwrap()
        .arrival(ArrivalProcess::ClosedLoop { think: secs(0.5) })
        .duration(secs(30.0))
        .max_rounds(9)
        .run()
        .unwrap()
}

#[test]
fn engine_sojourns_are_unchanged_under_generous_metering() {
    let off = run_engine(engine_cfg(None));
    let on = run_engine(engine_cfg(Some(generous())));
    assert_eq!(on.completed, off.completed);
    assert_eq!(on.makespan, off.makespan);
    assert_eq!(on.latency.p50, off.latency.p50);
    assert_eq!(on.latency.max, off.latency.max);
    assert_eq!(off.total_ops, 0, "meter off aggregates nothing");
    assert_eq!(off.peak_heap, 0);
    assert!(on.total_ops > 0, "metered fleets aggregate charged ops");
}

#[test]
fn engine_with_a_tight_slice_is_deterministic_and_completes() {
    let cfg = engine_cfg(Some(MeterLimits::default().with_time_slice(secs(0.000001))));
    let a = run_engine(cfg.clone());
    let b = run_engine(cfg);
    // max_rounds is per client: 3 clients x 9 rounds.
    assert_eq!(a.completed, 27, "every capped round still completes");
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.makespan, b.makespan, "tight-slice runs must replay");
    assert_eq!(a.latency.p50, b.latency.p50);
    assert_eq!(a.fallbacks, b.fallbacks);
    assert!(
        a.fallbacks > 0,
        "a single capped server forces local completion"
    );
}
