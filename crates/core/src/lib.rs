//! # snapedge-core
//!
//! **Snapshot-based computation offloading for ML web apps** — a
//! from-scratch Rust reproduction of Jeong, Jeong, Lee & Moon,
//! *"Computation Offloading for Machine Learning Web Apps in the Edge
//! Server Environment"* (ICDCS 2018).
//!
//! The idea: a DNN web app runs on a weak embedded client; just before the
//! expensive inference event handler executes, the client serializes its
//! entire execution state into a *snapshot* — itself a self-contained web
//! app — and ships it to a nearby generic edge server. The server runs the
//! snapshot on its own browser (restoring state and re-dispatching the
//! event), executes the DNN with stronger hardware, snapshots the updated
//! state (result on screen included), and ships it back.
//!
//! This crate is the offloading runtime on top of the workspace substrates:
//!
//! | concern | module |
//! |---|---|
//! | the one offload config + builder | [`SessionConfig`] |
//! | megascale event-queue fleet engine (concurrent clients) | [`engine`] |
//! | client/server device latency models (Odroid-XU4 vs x86) | [`device`] |
//! | the Caffe.js `model` host object apps call | [`CaffeJsHost`] |
//! | the two benchmark apps (paper Figs. 2 & 5) | [`apps`] |
//! | a browser-bearing machine | [`Endpoint`] |
//! | one-shot scenarios (Figs. 6–8) as the first round of a session | [`run_scenario`] |
//! | pre-sending, ACK, migration, deltas, failover — the one offload driver | [`OffloadSession`] |
//! | Neurosurgeon-style partition-point optimization | [`partition`] |
//! | fault classification, retry policy, local fallback | [`resilience`] |
//! | edge-fleet server pool, health records, failover selection | [`fleet`] |
//! | the feature-inversion attack and the withholding defense | [`privacy`] |
//! | on-demand installation via VM synthesis | [`install`] |
//!
//! # Quickstart
//!
//! ```
//! use snapedge_core::{run_scenario, SessionConfig, Strategy};
//!
//! # fn main() -> Result<(), snapedge_core::OffloadError> {
//! // Offload a (tiny, real-arithmetic) inference after model pre-sending.
//! let report = run_scenario(&SessionConfig::tiny(), Strategy::OffloadAfterAck)?;
//! assert!(report.result.starts_with("class_"));
//! println!("inference took {:?} (server exec {:?})",
//!          report.total, report.breakdown.exec_server);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod apps;
pub mod balance;
pub mod device;
mod endpoint;
pub mod energy;
pub mod engine;
mod error;
pub mod fleet;
pub mod install;
mod mlhost;
pub mod partition;
pub mod prelude;
pub mod privacy;
pub mod resilience;
mod scenario;
mod session;
mod session_config;
pub mod timeline;

pub use adaptive::{AdaptiveOffloader, AdaptivePolicy, Decision, Plan};
pub use balance::{jain, Balancer, DrrScheduler, DEFAULT_DRR_QUANTUM};
pub use device::{edge_server_x86, odroid_xu4, DeviceProfile};
pub use endpoint::Endpoint;
pub use energy::{client_energy, odroid_xu4_energy, EnergyProfile, EnergyReport};
pub use engine::{
    round_image_seed, ArrivalProcess, Engine, FleetReport, ModeledWorkload, RoundOutcome,
    ServerLoad, SessionWorkload, Workload,
};
pub use error::OffloadError;
pub use fleet::{format_servers, parse_servers, ServerHealth, ServerPool, ServerSpec};
pub use install::{vm_install, InstallReport};
pub use mlhost::{CaffeJsHost, ExecKind, ExecRecord, ExecTracker};
pub use partition::{PartitionOptimizer, PartitionPrediction, PredictedTimes};
pub use privacy::{evaluate_privacy, reconstruct_input, AttackConfig, PrivacyReport};
pub use resilience::{
    classify, schedule_resilient, schedule_resilient_traced, FaultClass, ResilienceOutcome,
    RetryPolicy,
};
pub use scenario::{run_scenario, Breakdown, ScenarioReport, Strategy};
pub use session::{OffloadSession, RoundReport};
pub use session_config::{SessionBuilder, SessionConfig};
pub use snapedge_analyze::{AnalyzeError, CostBound, Effect, EffectOptions, EffectSummary};
pub use snapedge_webapp::{HostEffect, MeterLimits};
