//! One-shot inference scenarios — the experiment driver behind the
//! paper's Figs. 6, 7 and 8.
//!
//! A scenario is one click-to-result inference under a [`Strategy`]. The
//! offloading strategies run as the first round of an [`OffloadSession`]:
//! *real* browsers for the client board and its edge fleet's serving
//! candidate load the actual benchmark web app, the model is pre-sent,
//! and *real snapshots* migrate over the simulated link (30 Mbps Wi-Fi in
//! the paper configuration) while a shared virtual clock accumulates
//! device and network time. Pre-send/ACK, migration, failover, the
//! predictor gate and meter handling therefore have one implementation,
//! shared with long-lived sessions. `ClientOnly`/`ServerOnly` run the
//! app on one endpoint without migrating.

use crate::adaptive::Decision;
use crate::apps;
use crate::endpoint::Endpoint;
use crate::session::{OffloadSession, LOCAL};
use crate::session_config::SessionConfig;
use crate::OffloadError;
use snapedge_dnn::{zoo, ExecMode, ParamStore};
use snapedge_net::SimClock;
use snapedge_trace::{EventKind, Lane, Trace, Tracer};
use snapedge_webapp::RunOutcome;
use std::time::Duration;

/// Where (and when) the inference runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Run everything on the client board (Fig. 6 "Client").
    ClientOnly,
    /// Run everything on the edge server (Fig. 6 "Server").
    ServerOnly,
    /// Offload immediately after app start, before the model upload ACK
    /// arrives — the snapshot queues behind the still-uploading model.
    OffloadBeforeAck,
    /// Offload after the model pre-send is acknowledged (Fig. 6
    /// "Offloading after ACK").
    OffloadAfterAck,
    /// Partial inference: run up to the config's cut
    /// ([`SessionConfig::cut`], required) on the client, offload the
    /// rest; only the rear model is pre-sent (Section III-B.2). The other
    /// strategies ignore the cut.
    Partial,
}

/// Per-phase timing of an inference (the paper's Fig. 7 segments).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// DNN execution on the client (full for `ClientOnly`, front part for
    /// partial inference, ~0 for full offload).
    pub exec_client: Duration,
    /// Snapshot capture at the client.
    pub capture_client: Duration,
    /// Client→server transmission, including queueing behind an unfinished
    /// model upload (the before-ACK penalty).
    pub transfer_up: Duration,
    /// Snapshot restoration at the server.
    pub restore_server: Duration,
    /// DNN execution at the server.
    pub exec_server: Duration,
    /// Snapshot capture at the server.
    pub capture_server: Duration,
    /// Server→client transmission of the result snapshot.
    pub transfer_down: Duration,
    /// Snapshot restoration at the client.
    pub restore_client: Duration,
}

impl Breakdown {
    /// Derives the phase breakdown from an event trace, summing the
    /// canonical phase events the offload driver records. Codec time is
    /// folded into the neighbouring capture/restore phases, matching how
    /// the phases were accounted before traces existed: `compress_up`
    /// into `capture_client`, `decompress_up` into `restore_server`,
    /// `compress_down` into `capture_server`, and `decompress_down` into
    /// `restore_client`.
    pub fn from_trace(trace: &Trace) -> Breakdown {
        Breakdown {
            exec_client: trace.duration_of("exec_client"),
            capture_client: trace.duration_of("capture_client") + trace.duration_of("compress_up"),
            transfer_up: trace.duration_of("transfer_up"),
            restore_server: trace.duration_of("restore_server")
                + trace.duration_of("decompress_up"),
            exec_server: trace.duration_of("exec_server"),
            capture_server: trace.duration_of("capture_server")
                + trace.duration_of("compress_down"),
            transfer_down: trace.duration_of("transfer_down"),
            restore_client: trace.duration_of("restore_client")
                + trace.duration_of("decompress_down"),
        }
    }

    /// Sum of all phases.
    pub fn total(&self) -> Duration {
        self.exec_client
            + self.capture_client
            + self.transfer_up
            + self.restore_server
            + self.exec_server
            + self.capture_server
            + self.transfer_down
            + self.restore_client
    }
}

/// Everything a scenario run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Model name.
    pub model: String,
    /// Strategy executed.
    pub strategy: Strategy,
    /// Per-phase timing.
    pub breakdown: Breakdown,
    /// End-to-end inference time: click → result visible on the client.
    pub total: Duration,
    /// When the pre-send ACK arrived (offload strategies only).
    pub ack_at: Option<Duration>,
    /// When the user clicked the inference button.
    pub clicked_at: Duration,
    /// Bytes of model files pre-sent to the server.
    pub model_upload_bytes: u64,
    /// Client→server snapshot size.
    pub snapshot_up_bytes: u64,
    /// Server→client snapshot size.
    pub snapshot_down_bytes: u64,
    /// The label shown on the client's screen at the end.
    pub result: String,
    /// Whether the run gave up on offloading (retry budget or deadline
    /// exhausted, every fleet candidate unreachable) and completed the
    /// inference locally.
    pub fell_back: bool,
    /// Name of the edge server that ultimately served the offloaded
    /// inference; `None` when it ran locally (`ClientOnly`, `ServerOnly`,
    /// or fallback).
    pub server: Option<String>,
    /// What the link-health predictor recommended at migration time, when
    /// the predictor was enabled *and* had an estimate to work from.
    /// `None` otherwise (including every run with `predict` off).
    pub prediction: Option<Decision>,
    /// Whether the run completed locally *because the predictor said so*
    /// — before any retry budget was spent. Always `false` with `predict`
    /// off; disjoint from [`ScenarioReport::fell_back`], the reactive
    /// exhaustion path.
    pub proactive: bool,
    /// Full event trace of the run: canonical phase events at depth 0,
    /// per-layer DNN execution and link-level transfer/queue events
    /// nested below. [`ScenarioReport::breakdown`] is derived from it.
    pub trace: Trace,
}

impl ScenarioReport {
    /// Number of re-attempts the run needed (instant [`EventKind::Retry`]
    /// markers in the trace).
    pub fn retry_count(&self) -> usize {
        self.trace
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Retry)
            .count()
    }

    /// Total virtual time spent sleeping between retries.
    pub fn backoff_time(&self) -> Duration {
        self.trace.duration_of_kind(EventKind::Backoff, None)
    }

    /// Total virtual time lost to injected faults: outage stalls, degraded
    /// stretches, and corrupted serializations that had to be repeated.
    pub fn fault_time(&self) -> Duration {
        self.trace.duration_of_kind(EventKind::Fault, None)
    }

    /// Number of server handoffs the run performed (instant
    /// [`EventKind::Handoff`] markers in the trace). Zero for a fleet of
    /// one or a fault-free run.
    pub fn handoff_count(&self) -> usize {
        self.trace
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Handoff)
            .count()
    }
}

/// Runs a scenario to completion.
///
/// ```
/// use snapedge_core::{run_scenario, SessionConfig, Strategy};
/// use snapedge_net::LinkConfig;
///
/// let cfg = SessionConfig::tiny_builder()
///     .cut("1st_pool")
///     .link(LinkConfig::mbps(10.0))
///     .build();
/// let report = run_scenario(&cfg, Strategy::Partial).unwrap();
/// assert!(report.result.starts_with("class_"));
/// ```
///
/// # Errors
///
/// Returns [`OffloadError`] for unknown models/cuts, a partial strategy
/// without a cut, an empty fleet, app failures, or network failures
/// against a fleet of one without a retry policy.
pub fn run_scenario(
    cfg: &SessionConfig,
    strategy: Strategy,
) -> Result<ScenarioReport, OffloadError> {
    if cfg.servers.is_empty() {
        return Err(OffloadError::Config(
            "scenario needs at least one edge server in its fleet".into(),
        ));
    }
    match strategy {
        Strategy::ClientOnly => run_local(cfg, strategy, false),
        Strategy::ServerOnly => run_local(cfg, strategy, true),
        Strategy::Partial if cfg.cut.is_none() => Err(OffloadError::Config(
            "Strategy::Partial needs a cut (SessionConfig::cut)".into(),
        )),
        _ => run_round(cfg, strategy),
    }
}

/// Runs an offloading strategy as the first round of a session whose
/// image is the config's own seed.
fn run_round(cfg: &SessionConfig, strategy: Strategy) -> Result<ScenarioReport, OffloadError> {
    let mut session_cfg = cfg.clone();
    if strategy != Strategy::Partial {
        session_cfg.cut = None;
    }
    let mut session =
        OffloadSession::one_shot(session_cfg, strategy != Strategy::OffloadBeforeAck)?;
    let round = session.infer(cfg.seed)?;
    let trace = session.trace();
    Ok(ScenarioReport {
        model: cfg.model.clone(),
        strategy,
        breakdown: Breakdown::from_trace(&trace),
        total: round.total,
        ack_at: session.presend_ack(),
        // Nothing advances the clock after the result lands.
        clicked_at: session.now() - round.total,
        model_upload_bytes: session.model_bytes(),
        snapshot_up_bytes: round.up_bytes,
        snapshot_down_bytes: round.down_bytes,
        result: round.result,
        fell_back: round.fell_back,
        server: (round.server != LOCAL).then_some(round.server),
        prediction: round.prediction,
        proactive: round.proactive,
        trace,
    })
}

fn run_local(
    cfg: &SessionConfig,
    strategy: Strategy,
    on_server: bool,
) -> Result<ScenarioReport, OffloadError> {
    let net = zoo::by_name(&cfg.model)?;
    let params = match cfg.exec_mode {
        ExecMode::Real => net.init_params(cfg.seed)?,
        ExecMode::Synthetic { .. } => ParamStore::empty(net.name()),
    };
    let clock = SimClock::new();
    let tracer = Tracer::new();
    let (device, lane, exec_name) = if on_server {
        (cfg.primary().device.clone(), Lane::Server, "exec_server")
    } else {
        (cfg.client_device.clone(), Lane::Client, "exec_client")
    };
    let mut ep = Endpoint::new(
        if on_server { "server" } else { "client" },
        device,
        clock.clone(),
    )
    .with_tracer(tracer.clone(), lane);
    ep.install_model(net, params, cfg.exec_mode, None, cfg.seed);
    let url = apps::synthetic_image_data_url(cfg.seed, cfg.image_bytes);
    ep.browser.load_html(&apps::full_inference_app(&url))?;
    ep.browser.click("load")?;
    ep.run()?;

    let clicked_at = clock.now();
    ep.browser.click("infer")?;
    let exec_span = tracer.begin(exec_name, lane, EventKind::Exec, clicked_at);
    let outcome = ep.run()?;
    tracer.end(exec_span, clock.now());
    if !matches!(outcome, RunOutcome::Idle { .. }) {
        return Err(OffloadError::Protocol(
            "local run unexpectedly hit an offload point".into(),
        ));
    }
    let exec = clock.now() - clicked_at;
    let trace = tracer.finish();
    Ok(ScenarioReport {
        model: cfg.model.clone(),
        strategy,
        breakdown: Breakdown::from_trace(&trace),
        total: exec,
        ack_at: None,
        clicked_at,
        model_upload_bytes: 0,
        snapshot_up_bytes: 0,
        snapshot_down_bytes: 0,
        result: ep.browser.element_text("result")?.to_string(),
        fell_back: false,
        server: None,
        prediction: None,
        proactive: false,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(strategy: Strategy) -> ScenarioReport {
        let cfg = SessionConfig::tiny_builder().cut("1st_pool").build();
        run_scenario(&cfg, strategy).unwrap()
    }

    #[test]
    fn tiny_end_to_end_all_strategies_agree_on_the_result() {
        // The same label must appear on the client's screen no matter
        // where the DNN ran — the paper's seamlessness claim.
        let reference = tiny(Strategy::ClientOnly);
        assert!(
            reference.result.starts_with("class_"),
            "{}",
            reference.result
        );
        for strategy in [
            Strategy::ServerOnly,
            Strategy::OffloadBeforeAck,
            Strategy::OffloadAfterAck,
            Strategy::Partial,
        ] {
            let report = tiny(strategy);
            assert_eq!(report.result, reference.result, "strategy {strategy:?}");
        }
    }

    #[test]
    fn server_only_is_faster_than_client_only() {
        let client = tiny(Strategy::ClientOnly);
        let server = tiny(Strategy::ServerOnly);
        assert!(server.total < client.total);
    }

    #[test]
    fn before_ack_pays_for_the_model_upload() {
        // Needs a paper-scale model: a tiny model finishes uploading before
        // the first snapshot is even captured.
        let cfg = SessionConfig::paper("agenet");
        let before = run_scenario(&cfg, Strategy::OffloadBeforeAck).unwrap();
        let after = run_scenario(&cfg, Strategy::OffloadAfterAck).unwrap();
        // Before-ACK queues the snapshot behind the model on the uplink.
        assert!(before.breakdown.transfer_up > after.breakdown.transfer_up);
        assert!(before.total > after.total);
        // The queueing penalty is roughly the 44 MiB model transfer: >10 s.
        assert!(before.breakdown.transfer_up.as_secs_f64() > 10.0);
    }

    #[test]
    fn partial_pre_sends_less_model_data() {
        let full = tiny(Strategy::OffloadAfterAck);
        let partial = tiny(Strategy::Partial);
        assert!(partial.model_upload_bytes < full.model_upload_bytes);
        assert!(partial.ack_at.unwrap() < full.ack_at.unwrap());
        // But it executes the front on the weak client.
        assert!(partial.breakdown.exec_client > full.breakdown.exec_client);
    }

    #[test]
    fn offload_breakdown_sums_to_total() {
        let report = tiny(Strategy::OffloadAfterAck);
        let diff = report.breakdown.total().abs_diff(report.total);
        assert!(diff < Duration::from_millis(1), "diff = {diff:?}");
    }

    #[test]
    fn compression_preserves_results_and_shrinks_the_wire() {
        let plain = tiny(Strategy::OffloadAfterAck);
        let cfg = SessionConfig::tiny_builder().compress(true).build();
        let packed = run_scenario(&cfg, Strategy::OffloadAfterAck).unwrap();
        assert_eq!(packed.result, plain.result);
        assert!(packed.snapshot_up_bytes < plain.snapshot_up_bytes);
    }

    #[test]
    fn compression_wins_on_slow_links_for_feature_heavy_snapshots() {
        let plain = SessionConfig::paper_builder("googlenet")
            .cut("1st_pool")
            .link(snapedge_net::LinkConfig::mbps(5.0))
            .build();
        let mut packed = plain.clone();
        packed.compress = true;
        let a = run_scenario(&plain, Strategy::Partial).unwrap();
        let b = run_scenario(&packed, Strategy::Partial).unwrap();
        assert!(b.total < a.total, "{:?} vs {:?}", b.total, a.total);
    }

    #[test]
    fn unknown_model_and_cut_are_config_errors() {
        let mut cfg = SessionConfig::tiny();
        cfg.model = "resnet".into();
        assert!(run_scenario(&cfg, Strategy::ClientOnly).is_err());
        let cfg = SessionConfig::tiny_builder().cut("nonexistent").build();
        assert!(run_scenario(&cfg, Strategy::Partial).is_err());
        // Partial inference needs a cut to split at.
        let err = run_scenario(&SessionConfig::tiny(), Strategy::Partial).unwrap_err();
        assert!(matches!(err, OffloadError::Config(_)), "{err:?}");
    }
}
