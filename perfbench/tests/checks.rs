//! Checks on the benchmark itself: the timing wrapper changes nothing the
//! program computes, the decomposed round measures the same work as the
//! end-to-end run, virtual results replay exactly, and the committed
//! `BENCHMARK.json` lists what a run reports.
//!
//! ```sh
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use snapedge_core::prelude::*;
use snapedge_perfbench::bench::{self, check_fidelity, Metric};
use snapedge_perfbench::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use snapedge_perfbench::decompose::replay;
use snapedge_perfbench::epoch::{self, References};
use snapedge_perfbench::plan::{Kind, Plan};

/// `plan` with at most `rounds` closed-loop rounds per client, to keep the
/// session checks short.
fn shortened(kind: Kind, seed: u64, rounds: usize) -> Plan {
    let mut plan = Plan::new(kind, seed);
    plan.max_rounds = plan.max_rounds.map(|r| r.min(rounds));
    plan
}

/// The report and event log of a run with the timing wrapper, and of the
/// same run through the library's own constructor without it.
fn with_and_without<W: snapedge_perfbench::plan::Build>(
    plan: &Plan,
    bare: Engine<W>,
) -> [(String, Vec<String>); 2] {
    let mut wrapped = plan.engine::<W>(true).expect("wrapped engine");
    let mut bare = plan.shape(bare);
    let a = wrapped.run().expect("wrapped run");
    let b = bare.run().expect("bare run");
    [
        (format!("{a:?}"), wrapped.event_log().to_vec()),
        (format!("{b:?}"), bare.event_log().to_vec()),
    ]
}

#[test]
fn timing_wrapper_is_invisible_on_every_workload() {
    for kind in Kind::ALL {
        let plan = shortened(kind, 3, 3);
        let [wrapped, bare] = match kind {
            Kind::FleetModeled => with_and_without(
                &plan,
                Engine::modeled(plan.cfg.clone(), plan.clients).expect("modeled"),
            ),
            _ => with_and_without(
                &plan,
                Engine::sessions(plan.cfg.clone(), plan.clients).expect("sessions"),
            ),
        };
        assert!(!wrapped.1.is_empty(), "{}: empty event log", kind.name());
        assert_eq!(wrapped.0, bare.0, "{}: fleet reports differ", kind.name());
        assert_eq!(wrapped.1, bare.1, "{}: event logs differ", kind.name());
    }
}

#[test]
fn decomposed_round_ships_what_the_session_shipped() {
    for kind in [Kind::PartialOffload, Kind::SessionDelta] {
        let plan = shortened(kind, 5, 2);
        let refs = References::of(&plan).expect("reference labels");
        let first = epoch::run_kind(&plan, &refs, false).expect("engine run");
        assert_eq!(first.failed, 0, "{}: {:?}", kind.name(), first.errors);
        let replayed = replay(&plan.cfg, 0, plan.cfg.seed).expect("replay");
        assert!(!replayed[0].delta_up && replayed[1].delta_up);
        assert_eq!(
            check_fidelity(&first, &replayed, &refs),
            Vec::<String>::new(),
            "{}",
            kind.name()
        );
    }
}

/// The virtual metrics of a traced run: `virt_*`, `core.breakdown.*`,
/// `core.balance.*` and `net.link.*`.
fn virtual_metrics(kind: Kind, seed: u64) -> Vec<Metric> {
    let outcome = bench::run(kind, seed, 0, true).expect("benchmark run");
    assert_eq!(outcome.failed, 0, "{}: {:?}", kind.name(), outcome.errors);
    outcome
        .end_to_end
        .into_iter()
        .chain(outcome.per_layer)
        .filter(|m| {
            ["virt_", "core.breakdown.", "core.balance.", "net.link."]
                .iter()
                .any(|p| m.name.starts_with(p))
        })
        .collect()
}

#[test]
fn same_seed_gives_identical_virtual_metrics() {
    for kind in Kind::ALL {
        let a = virtual_metrics(kind, 7);
        assert_eq!(a.len(), 20, "{}", kind.name());
        assert_eq!(a, virtual_metrics(kind, 7), "{}", kind.name());
    }
}

#[test]
fn second_seed_keeps_fleet_p99_within_bound() {
    let bound = END_TO_END
        .iter()
        .find(|g| g.name == "virt_latency_s_p50")
        .expect("virtual latency is gated")
        .bound;
    let p99 = |seed| {
        virtual_metrics(Kind::FleetModeled, seed)
            .into_iter()
            .find(|m| m.name == "virt_latency_s_p99")
            .and_then(|m| m.value)
            .expect("fleet p99 has enough samples")
    };
    let (a, b) = (p99(1), p99(2));
    assert!(
        (b - a).abs() <= bound * a,
        "p99 {a} s under seed 1, {b} s under seed 2"
    );
}

#[test]
fn a_run_reports_exactly_the_catalogued_metrics() {
    let outcome = bench::run(Kind::FleetModeled, 1, 0, true).expect("benchmark run");
    let layer: Vec<(&str, &str)> = outcome.per_layer.iter().map(|m| (m.name, m.unit)).collect();
    let listed: Vec<(&str, &str)> = PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect();
    assert_eq!(layer, listed);
    for gated in END_TO_END {
        let m = outcome
            .end_to_end
            .iter()
            .find(|m| m.name == gated.name)
            .expect("gated metric is reported");
        assert_eq!(m.unit, gated.unit);
        assert!(
            m.value.is_some_and(|v| v > 0.0),
            "{} must be positive",
            m.name
        );
    }
}

#[test]
fn benchmark_json_lists_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let squeezed: String = text.split_whitespace().collect();
    for g in END_TO_END {
        let entry = format!(
            "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",\"bound\":{}}}",
            g.name, g.unit, g.better, g.bound
        );
        assert!(squeezed.contains(&entry), "missing {entry}");
    }
    for (name, unit, better) in PER_LAYER {
        let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{better}\"}}");
        assert!(squeezed.contains(&entry), "missing {entry}");
    }
    for name in WORKLOADS {
        assert!(Kind::parse(name).is_some(), "unknown workload {name}");
        let entry = format!("{{\"name\":\"{name}\",\"why\":");
        assert!(squeezed.contains(&entry), "missing workload {name}");
    }
    let names = squeezed.matches("\"name\":").count();
    assert_eq!(names, END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len());
}
