//! The three benchmark workloads: what each one runs, and how to build
//! its engine.

use crate::timed::Timed;
use snapedge_core::prelude::*;
use snapedge_core::{apps, Endpoint};
use snapedge_dnn::ParamStore;
use snapedge_net::SimClock;
use snapedge_rng::splitmix64;
use std::time::Duration;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// googlenet cut at `1st_pool`: 2 real clients, closed loop, one x86
    /// server, deltas on. Float text, snapshot, delta, parser and memory
    /// do most of the work.
    PartialOffload,
    /// googlenet full offload after ACK: 4 real clients, closed loop, two
    /// x86 servers, balance and deltas on. Synthetic forward passes
    /// driven through the interpreter do most of the work.
    SessionDelta,
    /// The analytic agenet workload: 20k clients, diurnal arrivals on a
    /// skewed 11-server fleet, balance, fair share and a batch window on.
    /// The engine and balancer do all the work.
    FleetModeled,
}

impl Kind {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Kind; 3] = [Kind::PartialOffload, Kind::SessionDelta, Kind::FleetModeled];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PartialOffload => "partial_offload",
            Kind::SessionDelta => "session_delta",
            Kind::FleetModeled => "fleet_modeled",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether the workload drives real sessions (browsers, snapshots).
    pub fn is_session(self) -> bool {
        !matches!(self, Kind::FleetModeled)
    }
}

/// Everything needed to build one workload's engine for one seed.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which workload.
    pub kind: Kind,
    /// The session/fleet configuration (its `seed` is the benchmark seed).
    pub cfg: SessionConfig,
    /// Concurrent clients.
    pub clients: usize,
    /// How requests arrive.
    pub arrival: ArrivalProcess,
    /// Virtual traffic horizon.
    pub duration: Duration,
    /// Closed-loop rounds per client, when capped.
    pub max_rounds: Option<usize>,
}

/// Rounds each partial-offload client runs per engine run: 20 rounds, the
/// fewest a median needs. Each round grows resident memory by several MiB
/// while deltas are on, so the run stays short and is repeated instead.
pub const PARTIAL_ROUNDS: usize = 10;
/// Rounds each session-delta client runs per engine run: 100 rounds, the
/// fewest a p90 needs.
pub const SESSION_ROUNDS: usize = 25;

impl Plan {
    /// The plan of workload `kind` under benchmark seed `seed`.
    pub fn new(kind: Kind, seed: u64) -> Plan {
        // The seed picks the session inputs: the activations the synthetic
        // model produces (so the feature text and labels differ), the
        // encoded image size (around the paper's 35 kB) and the users'
        // think time (2 s +- 5 %).
        let mut state = seed;
        let inputs = splitmix64(&mut state);
        let closed = ArrivalProcess::ClosedLoop {
            think: Duration::from_millis(1_900 + (inputs >> 16) % 201),
        };
        // Closed-loop clients stop at their round cap long before this.
        let horizon = Duration::from_secs(24 * 3600);
        let paper = |model: &str| {
            SessionConfig::paper_builder(model)
                .exec_mode(ExecMode::Synthetic { seed: inputs })
                .image_bytes(30_000 + (inputs >> 32) as usize % 10_001)
                .seed(seed)
        };
        match kind {
            Kind::PartialOffload => Plan {
                kind,
                cfg: paper("googlenet").cut("1st_pool").build(),
                clients: 2,
                arrival: closed,
                duration: horizon,
                max_rounds: Some(PARTIAL_ROUNDS),
            },
            Kind::SessionDelta => Plan {
                kind,
                cfg: paper("googlenet")
                    .add_server(ServerSpec::new(
                        "edge-server-2",
                        edge_server_x86(),
                        LinkConfig::wifi_30mbps(),
                    ))
                    .balance(true)
                    .build(),
                clients: 4,
                arrival: closed,
                duration: horizon,
                max_rounds: Some(SESSION_ROUNDS),
            },
            Kind::FleetModeled => {
                let mut servers = Vec::new();
                for i in 1..=7 {
                    servers.push(ServerSpec::new(
                        &format!("edge-x86-{i}"),
                        edge_server_x86(),
                        LinkConfig::wifi_30mbps(),
                    ));
                }
                for i in 1..=4 {
                    servers.push(ServerSpec::new(
                        &format!("edge-odroid-{i}"),
                        odroid_xu4(),
                        LinkConfig::mbps(3.0),
                    ));
                }
                Plan {
                    kind,
                    cfg: SessionConfig::paper_builder("agenet")
                        .servers(servers)
                        .balance(true)
                        .fair_share(true)
                        .batch_window(Duration::from_millis(5))
                        .seed(seed)
                        .build(),
                    clients: 20_000,
                    arrival: ArrivalProcess::Diurnal {
                        base_hz: FLEET_BASE_HZ,
                        peak_hz: FLEET_PEAK_HZ,
                        period: FLEET_HORIZON,
                    },
                    duration: FLEET_HORIZON,
                    max_rounds: None,
                }
            }
        }
    }

    /// Fleet candidate names, in fleet order.
    pub fn server_names(&self) -> Vec<String> {
        self.cfg.servers.iter().map(|s| s.name.clone()).collect()
    }

    /// Applies the plan's traffic shape and fleet knobs to an engine.
    pub fn shape<W: Workload>(&self, engine: Engine<W>) -> Engine<W> {
        let mut engine = engine
            .seed(self.cfg.seed)
            .balance(self.cfg.balance)
            .fair_share(self.cfg.fair_share)
            .arrival(self.arrival.clone())
            .duration(self.duration);
        if let Some(window) = self.cfg.batch_window {
            engine = engine.batch_window(window);
        }
        if let Some(rounds) = self.max_rounds {
            engine = engine.max_rounds(rounds);
        }
        engine
    }

    /// Builds the plan's workload behind the timing wrapper, and the
    /// engine over it.
    ///
    /// # Errors
    ///
    /// Propagates workload construction failures.
    pub fn engine<W: Build>(&self, detail: bool) -> Result<Engine<Timed<W>>, OffloadError> {
        let workload = Timed::new(W::build(self.cfg.clone(), self.clients)?, detail);
        Ok(self.shape(Engine::with_workload(workload, self.server_names())))
    }
}

/// Fleet-modeled trough arrival rate (requests/s).
pub const FLEET_BASE_HZ: f64 = 1.0;
/// Fleet-modeled crest arrival rate (requests/s), kept below what the
/// fleet can serve so the queue never grows without bound.
pub const FLEET_PEAK_HZ: f64 = 4.0;
/// Fleet-modeled virtual horizon: one full diurnal cycle.
pub const FLEET_HORIZON: Duration = Duration::from_secs(24_000);

/// A workload the benchmark can build from a config, and inspect after a
/// run.
pub trait Build: Workload + Sized {
    /// Builds `clients` clients from `cfg`.
    ///
    /// # Errors
    ///
    /// Propagates construction failures.
    fn build(cfg: SessionConfig, clients: usize) -> Result<Self, OffloadError>;

    /// Every completed session round, in completion order (none for a
    /// modeled workload).
    fn round_reports(&self) -> &[RoundReport] {
        &[]
    }

    /// The event trace of one client (none for a modeled workload).
    fn client_trace(&self, client: usize) -> Option<Trace> {
        let _ = client;
        None
    }
}

impl Build for SessionWorkload {
    fn build(cfg: SessionConfig, clients: usize) -> Result<Self, OffloadError> {
        SessionWorkload::new(cfg, clients)
    }

    fn round_reports(&self) -> &[RoundReport] {
        self.reports()
    }

    fn client_trace(&self, client: usize) -> Option<Trace> {
        self.trace(client)
    }
}

impl Build for ModeledWorkload {
    fn build(cfg: SessionConfig, clients: usize) -> Result<Self, OffloadError> {
        ModeledWorkload::new(cfg, clients)
    }
}

/// The label a client-only run of `cfg`'s model displays for the image
/// the engine gives `client` in `round`: the whole app runs on the
/// client, with no cut and no offload trigger. A session round must
/// display the same label.
///
/// # Errors
///
/// Propagates model, app and interpreter failures.
pub fn reference_label(
    cfg: &SessionConfig,
    client: usize,
    round: usize,
) -> Result<String, OffloadError> {
    let net = zoo::by_name(&cfg.model)?;
    // Sessions seed each client's config (and so its model host) with
    // `cfg.seed + client`.
    let seed = cfg.seed.wrapping_add(client as u64);
    let params = match cfg.exec_mode {
        ExecMode::Real => net.init_params(seed)?,
        ExecMode::Synthetic { .. } => ParamStore::empty(net.name()),
    };
    let mut endpoint = Endpoint::new("client", cfg.client_device.clone(), SimClock::new());
    endpoint.install_model(net, params, cfg.exec_mode, None, seed);
    let image = round_image_seed(cfg.seed, client as u64, round as u64);
    let url = apps::synthetic_image_data_url(image, cfg.image_bytes);
    endpoint
        .browser
        .load_html(&apps::full_inference_app(&url))?;
    endpoint.browser.click("load")?;
    endpoint.run()?;
    endpoint.browser.click("infer")?;
    endpoint.run()?;
    Ok(endpoint.browser.element_text("result")?.to_string())
}
