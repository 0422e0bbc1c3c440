//! Client-side energy accounting.
//!
//! The offloading literature the paper builds on (MAUI [22], CloneCloud
//! [23], ThinkAir [24]) is motivated by *battery life* as much as latency.
//! This module attaches a simple power model to the client board and
//! integrates it over a scenario's phase breakdown: CPU-active power while
//! executing and (de)serializing snapshots, radio power while transfers
//! are in flight, idle power while waiting for the server.

use crate::scenario::ScenarioReport;
use std::time::Duration;

/// Power draw of a client device in its three macro states.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyProfile {
    /// Device name.
    pub name: String,
    /// Power while the CPU crunches (DNN layers, snapshot text work).
    pub cpu_active_watts: f64,
    /// Power while the radio is actively transferring.
    pub radio_watts: f64,
    /// Baseline power while waiting for the edge server.
    pub idle_watts: f64,
}

/// An Odroid-XU4-class board: big.LITTLE SoC under full load ≈ 6 W,
/// Wi-Fi radio ≈ 1.2 W, idle board with display ≈ 1.5 W.
pub fn odroid_xu4_energy() -> EnergyProfile {
    EnergyProfile {
        name: "odroid-xu4".to_string(),
        cpu_active_watts: 6.0,
        radio_watts: 1.2,
        idle_watts: 1.5,
    }
}

/// Energy spent by the client over one inference, by state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Joules with the CPU active.
    pub compute_joules: f64,
    /// Joules with the radio active.
    pub radio_joules: f64,
    /// Joules idling while the server works.
    pub idle_joules: f64,
}

impl EnergyReport {
    /// Total client energy for the inference.
    pub fn total_joules(&self) -> f64 {
        self.compute_joules + self.radio_joules + self.idle_joules
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Integrates `profile` over a scenario's phase breakdown.
///
/// The client is CPU-active during its own execution and snapshot
/// capture/restore, radio-active during both transfers (it holds the
/// connection), and idle while the server restores, executes and captures.
pub fn client_energy(profile: &EnergyProfile, report: &ScenarioReport) -> EnergyReport {
    let b = &report.breakdown;
    let cpu = secs(b.exec_client) + secs(b.capture_client) + secs(b.restore_client);
    let radio = secs(b.transfer_up) + secs(b.transfer_down);
    let idle = secs(b.restore_server) + secs(b.exec_server) + secs(b.capture_server);
    EnergyReport {
        compute_joules: profile.cpu_active_watts * cpu,
        radio_joules: profile.radio_watts * radio,
        idle_joules: profile.idle_watts * idle,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_scenario, SessionConfig, Strategy};

    /// Client energy of one paper-configuration run (partial inference
    /// cuts at `1st_pool`).
    fn energy(model: &str, strategy: Strategy) -> f64 {
        let cfg = SessionConfig::paper_builder(model).cut("1st_pool").build();
        let report = run_scenario(&cfg, strategy).unwrap();
        client_energy(&odroid_xu4_energy(), &report).total_joules()
    }

    #[test]
    fn offloading_saves_an_order_of_magnitude_of_energy() {
        // MAUI's thesis, reproduced on this workload: after the model is
        // pre-sent, offloading turns ~2.7 minutes-of-battery CPU burns
        // into seconds of idle+radio.
        for model in ["googlenet", "agenet"] {
            let local = energy(model, Strategy::ClientOnly);
            let offload = energy(model, Strategy::OffloadAfterAck);
            assert!(
                local > 10.0 * offload,
                "{model}: local {local} J vs offload {offload} J"
            );
        }
    }

    #[test]
    fn before_ack_costs_more_energy_than_after_ack() {
        let before = energy("agenet", Strategy::OffloadBeforeAck);
        let after = energy("agenet", Strategy::OffloadAfterAck);
        assert!(before > after, "radio time dominates before the ACK");
    }

    #[test]
    fn partial_inference_pays_energy_for_privacy() {
        let full = energy("googlenet", Strategy::OffloadAfterAck);
        let partial = energy("googlenet", Strategy::Partial);
        assert!(partial > full);
        // ...but still far below running everything locally.
        let local = energy("googlenet", Strategy::ClientOnly);
        assert!(partial < local / 3.0);
    }

    #[test]
    fn components_are_nonnegative_and_sum() {
        let report = run_scenario(
            &SessionConfig::paper("gendernet"),
            Strategy::OffloadAfterAck,
        )
        .unwrap();
        let e = client_energy(&odroid_xu4_energy(), &report);
        assert!(e.compute_joules >= 0.0 && e.radio_joules >= 0.0 && e.idle_joules >= 0.0);
        let sum = e.compute_joules + e.radio_joules + e.idle_joules;
        assert!((sum - e.total_joules()).abs() < 1e-9);
    }

    #[test]
    fn local_execution_is_pure_compute() {
        let report = run_scenario(&SessionConfig::paper("agenet"), Strategy::ClientOnly).unwrap();
        let e = client_energy(&odroid_xu4_energy(), &report);
        assert_eq!(e.radio_joules, 0.0);
        assert_eq!(e.idle_joules, 0.0);
        assert!(e.compute_joules > 0.0);
    }
}
