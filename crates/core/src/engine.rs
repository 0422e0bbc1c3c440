//! The megascale discrete-event fleet engine.
//!
//! Everything else in this crate advances one client's private
//! [`SimClock`](snapedge_net::SimClock) in a closed loop — the regime the
//! paper measures. This module is the regime the ROADMAP's north star
//! cares about: **thousands of concurrent clients** sharing an edge
//! fleet, where queueing at the server CPU (not link bandwidth alone)
//! decides whether offloading pays.
//!
//! # How it works
//!
//! One global virtual clock drives a binary-heap event queue
//! ([`snapedge_net::EventQueue`], ordered by `(time, seq)` so ties break
//! deterministically by push order). Each client runs a resumable round
//! state machine (a [`Workload`]) that *yields* at the moment it needs
//! the one shared resource — the server CPU — and the engine interleaves
//! those yields:
//!
//! * `Ev::Arrive`: a request reaches a client (open-loop arrivals may
//!   find the client busy and queue client-side).
//! * `Ev::Admit`: a client's uplinked snapshot asks for server CPU.
//!   The engine grants it at `max(request, busy_until[server])` — the
//!   difference **is** the queueing delay, recorded by the session as
//!   `enqueue`/`queue_wait`/`dequeue` trace events. Contention emerges
//!   from overlapping requests instead of an analytic approximation.
//! * `Ev::Release`: the server CPU frees; the round's downlink and
//!   completion run on the client's private timeline.
//!
//! Links, captures and restores are per-client resources and ride each
//! session's private clock; only the server CPU serializes across
//! clients. (Snapshot restore/capture on the server ride the session's
//! pipeline too — the busy window the engine serializes is the inference
//! execution, the dominant term for DNN work.)
//!
//! Two workloads share the engine through one API: [`SessionWorkload`]
//! drives real [`OffloadSession`]s (real browsers, snapshots, deltas,
//! faults, failover — bit-identical to the legacy loop for one client)
//! and [`ModeledWorkload`] uses the calibrated analytic timings so 10k+
//! clients simulate in milliseconds. Both are built from one
//! [`SessionConfig`].

use crate::balance::{jain, Balancer, DrrScheduler, DEFAULT_DRR_QUANTUM};
use crate::session::{OffloadSession, RoundReport, RoundStep};
use crate::session_config::SessionConfig;
use crate::OffloadError;
use snapedge_dnn::zoo;
use snapedge_net::EventQueue;
use snapedge_rng::{splitmix64, Rng};
use snapedge_trace::{Summary, Trace};
use std::collections::VecDeque;
use std::time::Duration;

/// Snapshot size the analytic workload prices per request: the
/// calibrated full-offload app state.
const MODELED_SNAPSHOT_BYTES: u64 = 70 * 1024;

/// The per-round image seed both the engine and any legacy comparison
/// loop must use: a splitmix64 hash of `(engine_seed, client, round)`,
/// so every client/round pair gets an independent, reproducible image.
/// `round` is 1-based, matching [`RoundReport::round`].
pub fn round_image_seed(engine_seed: u64, client: u64, round: u64) -> u64 {
    let mut state = engine_seed
        .wrapping_add(client.wrapping_mul(0xA24B_AED4_963E_E407))
        .wrapping_add(round.wrapping_mul(0x9FB2_1C65_1E98_DF25));
    splitmix64(&mut state)
}

/// How requests reach the fleet over virtual time.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Closed loop: every client issues at t=0 and re-issues `think`
    /// after each completion — the paper's interactive-user model.
    ClosedLoop {
        /// Think time between a result and the next request.
        think: Duration,
    },
    /// Open-loop Poisson bursts: exponential interarrivals at `rate_hz`
    /// requests/second fleet-wide, each assigned to a uniformly random
    /// client. Requests landing on a busy client queue client-side.
    Poisson {
        /// Fleet-wide mean arrival rate, in requests per second.
        rate_hz: f64,
    },
    /// A diurnal curve: a raised-cosine rate swinging between `base_hz`
    /// (trough) and `peak_hz` (crest) once per `period`, sampled by
    /// thinning a Poisson stream at the crest rate.
    Diurnal {
        /// Trough arrival rate, in requests per second.
        base_hz: f64,
        /// Crest arrival rate, in requests per second.
        peak_hz: f64,
        /// Length of one full trough→crest→trough cycle.
        period: Duration,
    },
}

impl ArrivalProcess {
    /// Instantaneous arrival rate at virtual time `t` (open-loop shapes
    /// only; a closed loop has no free-running rate).
    fn rate_at(&self, t: Duration) -> f64 {
        match self {
            ArrivalProcess::ClosedLoop { .. } => 0.0,
            ArrivalProcess::Poisson { rate_hz } => *rate_hz,
            ArrivalProcess::Diurnal {
                base_hz,
                peak_hz,
                period,
            } => {
                let phase = if period.is_zero() {
                    0.0
                } else {
                    t.as_secs_f64() / period.as_secs_f64()
                };
                let swing = 0.5 * (1.0 - (2.0 * std::f64::consts::PI * phase).cos());
                base_hz + (peak_hz - base_hz) * swing
            }
        }
    }

    /// Upper bound of [`ArrivalProcess::rate_at`] over all `t` — the
    /// thinning envelope.
    fn peak_rate(&self) -> f64 {
        match self {
            ArrivalProcess::ClosedLoop { .. } => 0.0,
            ArrivalProcess::Poisson { rate_hz } => *rate_hz,
            ArrivalProcess::Diurnal {
                base_hz, peak_hz, ..
            } => base_hz.max(*peak_hz),
        }
    }
}

/// What one completed round looked like from the fleet's point of view —
/// the workload-agnostic record [`FleetReport`] aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundOutcome {
    /// Which client completed the round.
    pub client: usize,
    /// The client's 1-based round number.
    pub round: usize,
    /// Global virtual time the result landed on the client's screen.
    pub finished_at: Duration,
    /// Click-to-result time as the client experienced it.
    pub total: Duration,
    /// Whether the round gave up on offloading and completed locally.
    pub fell_back: bool,
    /// Name of the endpoint that executed the inference (`"client"`
    /// for a fallback round).
    pub server: String,
    /// Interpreter operations the serving server's resource meter
    /// charged this round (zero when unmetered, modeled or local).
    pub ops_used: u64,
    /// Peak heap (cells) the meter observed on the serving server (zero
    /// when unmetered, modeled or local).
    pub peak_heap: usize,
    /// Whether the round was degraded to local *proactively* — the
    /// predictive/admission gate rejected the offload before any bytes
    /// committed to the wire (contrast [`RoundOutcome::fell_back`], the
    /// reactive exhaustion path).
    pub proactive: bool,
    /// Fleet index of the server the round targeted: the one that served
    /// it, or — for a round completed on the client — the candidate the
    /// session was aimed at when it degraded. Attributes per-server
    /// admit/reject counts in the [`FleetReport`].
    pub target: usize,
}

/// Where a client's round state machine paused — what a [`Workload`]
/// hands back to the engine.
#[derive(Debug)]
pub enum EngineStep {
    /// The round needs the server CPU of fleet candidate `server`, whose
    /// uplinked request is ready at global time `at`.
    NeedCompute {
        /// Fleet candidate index whose CPU is requested.
        server: usize,
        /// Global virtual time the request is ready to execute.
        at: Duration,
    },
    /// The round completed without (further) server CPU.
    Done(RoundOutcome),
}

/// A set of concurrent clients the engine can interleave: each client is
/// a resumable round state machine yielding at its server-CPU boundary.
///
/// The engine calls, per round and per client:
/// `begin_round` → (`compute` → `continue_round`)*, where the loop
/// repeats when a failover mid-round re-drives the uplink against a
/// different server.
pub trait Workload {
    /// Number of clients (fixed for the engine run).
    fn clients(&self) -> usize;

    /// Starts a round for `client`: its request was issued at global
    /// time `at` (never earlier than the client's own timeline), and the
    /// round's input image derives from `image_seed`.
    ///
    /// # Errors
    ///
    /// Propagates app/protocol/network failures from the round.
    fn begin_round(
        &mut self,
        client: usize,
        at: Duration,
        image_seed: u64,
    ) -> Result<EngineStep, OffloadError>;

    /// Grants the server CPU the client asked for, admitted at global
    /// time `admitted_at` (later than requested when the CPU was busy —
    /// the queueing delay). Returns the time the CPU frees.
    ///
    /// # Errors
    ///
    /// Propagates server-side execution failures.
    fn compute(&mut self, client: usize, admitted_at: Duration) -> Result<Duration, OffloadError>;

    /// Resumes the round after its compute grant: downlink, completion —
    /// or another [`EngineStep::NeedCompute`] when a mid-round failover
    /// re-drove the uplink against a different server.
    ///
    /// # Errors
    ///
    /// Propagates app/protocol/network failures from the round.
    fn continue_round(&mut self, client: usize) -> Result<EngineStep, OffloadError>;

    /// Like [`Workload::begin_round`], with the engine's queue-delay
    /// [`Balancer`] in hand — called instead of `begin_round` when
    /// balancing is on. Workloads that select servers (or gate
    /// admission) consult `balancer` for each candidate's predicted
    /// queueing delay; the default ignores it and stays load-blind.
    ///
    /// # Errors
    ///
    /// Propagates app/protocol/network failures from the round.
    fn begin_round_balanced(
        &mut self,
        client: usize,
        at: Duration,
        image_seed: u64,
        balancer: &Balancer,
    ) -> Result<EngineStep, OffloadError> {
        let _ = balancer;
        self.begin_round(client, at, image_seed)
    }

    /// Notifies the workload that `client`'s compute admission was
    /// parked behind `server`'s busy CPU at time `at` under fair-share
    /// ordering (tracing hook; the default does nothing).
    fn note_deferred(&mut self, client: usize, server: usize, at: Duration) {
        let _ = (client, server, at);
    }

    /// Notifies the workload that `clients` were granted `server`'s CPU
    /// together at time `at` as one opportunistic batch (tracing hook;
    /// the default does nothing).
    fn note_batch(&mut self, clients: &[usize], server: usize, at: Duration) {
        let _ = (clients, server, at);
    }
}

/// The full-fidelity workload: one real [`OffloadSession`] per client —
/// real browsers, snapshots, deltas, faults, fleet failover. Each
/// client's session is seeded `cfg.seed + client`, so client 0 of a
/// 1-client fleet replays the legacy loop bit for bit.
pub struct SessionWorkload {
    sessions: Vec<OffloadSession>,
    reports: Vec<RoundReport>,
}

impl SessionWorkload {
    /// Builds `clients` sessions from one config.
    ///
    /// # Errors
    ///
    /// Propagates session construction failures (unknown model, empty
    /// fleet, unreachable servers).
    pub fn new(cfg: SessionConfig, clients: usize) -> Result<SessionWorkload, OffloadError> {
        let mut sessions = Vec::with_capacity(clients);
        for client in 0..clients {
            let mut per_client = cfg.clone();
            per_client.seed = cfg.seed.wrapping_add(client as u64);
            sessions.push(OffloadSession::new(per_client)?);
        }
        Ok(SessionWorkload {
            sessions,
            reports: Vec::new(),
        })
    }

    /// Every completed [`RoundReport`], in completion order.
    pub fn reports(&self) -> &[RoundReport] {
        &self.reports
    }

    /// The event trace of one client's session (all its rounds).
    pub fn trace(&self, client: usize) -> Option<Trace> {
        self.sessions.get(client).map(OffloadSession::trace)
    }

    fn session(&mut self, client: usize) -> Result<&mut OffloadSession, OffloadError> {
        self.sessions
            .get_mut(client)
            .ok_or_else(|| OffloadError::Config(format!("workload has no client {client}")))
    }

    fn step_of(&mut self, client: usize, step: RoundStep) -> EngineStep {
        match step {
            RoundStep::NeedCompute => {
                let (server, at) = match self.sessions.get(client) {
                    Some(s) => (s.current_server(), s.now()),
                    None => (0, Duration::ZERO),
                };
                EngineStep::NeedCompute { server, at }
            }
            RoundStep::Done(report) => {
                let (finished_at, target) = self
                    .sessions
                    .get(client)
                    .map(|s| (s.now(), s.current_server()))
                    .unwrap_or_default();
                let outcome = RoundOutcome {
                    client,
                    round: report.round,
                    finished_at,
                    total: report.total,
                    fell_back: report.fell_back,
                    server: report.server.clone(),
                    ops_used: report.ops_used,
                    peak_heap: report.peak_heap,
                    proactive: report.proactive,
                    target,
                };
                self.reports.push(report);
                EngineStep::Done(outcome)
            }
        }
    }
}

impl Workload for SessionWorkload {
    fn clients(&self) -> usize {
        self.sessions.len()
    }

    fn begin_round(
        &mut self,
        client: usize,
        at: Duration,
        image_seed: u64,
    ) -> Result<EngineStep, OffloadError> {
        let session = self.session(client)?;
        session.advance_clock_to(at);
        let step = session.round_start(image_seed)?;
        Ok(self.step_of(client, step))
    }

    fn compute(&mut self, client: usize, admitted_at: Duration) -> Result<Duration, OffloadError> {
        let session = self.session(client)?;
        session.round_compute(admitted_at)?;
        Ok(session.now())
    }

    fn continue_round(&mut self, client: usize) -> Result<EngineStep, OffloadError> {
        let step = self.session(client)?.round_finish()?;
        Ok(self.step_of(client, step))
    }

    fn begin_round_balanced(
        &mut self,
        client: usize,
        at: Duration,
        image_seed: u64,
        balancer: &Balancer,
    ) -> Result<EngineStep, OffloadError> {
        // Hand the session the fleet-wide queue outlook before its round
        // starts: the current server's entry becomes the admission
        // prior, the full vector re-ranks failover candidates.
        let outlook = balancer.outlook(at);
        let session = self.session(client)?;
        session.set_queue_outlook(outlook);
        session.advance_clock_to(at);
        let step = session.round_start(image_seed)?;
        Ok(self.step_of(client, step))
    }

    fn note_deferred(&mut self, client: usize, _server: usize, at: Duration) {
        if let Some(session) = self.sessions.get_mut(client) {
            session.record_admit_deferred(at);
        }
    }

    fn note_batch(&mut self, clients: &[usize], _server: usize, at: Duration) {
        for &client in clients {
            if let Some(session) = self.sessions.get_mut(client) {
                session.record_batch_formed(at, clients.len());
            }
        }
    }
}

/// One client's in-flight modeled round.
#[derive(Debug, Clone, Copy)]
struct ModeledRound {
    clicked: Duration,
    server: usize,
    released: Duration,
}

/// The megascale workload: per-round timings derived from the same
/// calibrated device/link models the scenarios use (restore + full
/// execution + capture at the server; capture/transfer/restore on the
/// client side), with clients rotating round-robin over the fleet. No
/// browsers are built, so tens of thousands of clients simulate in
/// milliseconds, behind the same [`Workload`] API as real sessions.
pub struct ModeledWorkload {
    names: Vec<String>,
    service: Vec<Duration>,
    up: Vec<Duration>,
    down: Vec<Duration>,
    capture: Duration,
    restore: Duration,
    clients: usize,
    rounds: Vec<usize>,
    pending: Vec<Option<ModeledRound>>,
}

impl ModeledWorkload {
    /// Derives analytic timings for `clients` clients from one config.
    ///
    /// # Errors
    ///
    /// Returns [`OffloadError`] for unknown models or an empty fleet.
    pub fn new(cfg: SessionConfig, clients: usize) -> Result<ModeledWorkload, OffloadError> {
        if cfg.servers.is_empty() {
            return Err(OffloadError::Config(
                "modeled workload needs at least one edge server in its fleet".into(),
            ));
        }
        let net = zoo::by_name(&cfg.model)?;
        let profile = net.profile();
        let bytes = MODELED_SNAPSHOT_BYTES;
        let mut names = Vec::with_capacity(cfg.servers.len());
        let mut service = Vec::with_capacity(cfg.servers.len());
        let mut up = Vec::with_capacity(cfg.servers.len());
        let mut down = Vec::with_capacity(cfg.servers.len());
        for spec in &cfg.servers {
            names.push(spec.name.clone());
            service.push(
                spec.device.restore_time(bytes)
                    + spec.device.full_exec_time(&profile)
                    + spec.device.capture_time(bytes),
            );
            up.push(spec.link.transfer_time(bytes)?);
            down.push(spec.link.transfer_time(bytes)?);
        }
        Ok(ModeledWorkload {
            names,
            service,
            up,
            down,
            capture: cfg.client_device.capture_time(bytes),
            restore: cfg.client_device.restore_time(bytes),
            clients,
            rounds: vec![0; clients],
            pending: vec![None; clients],
        })
    }

    fn slot(&mut self, client: usize) -> Result<&mut Option<ModeledRound>, OffloadError> {
        self.pending
            .get_mut(client)
            .ok_or_else(|| OffloadError::Config(format!("workload has no client {client}")))
    }

    /// Bumps and returns `client`'s 1-based round counter.
    fn next_round(&mut self, client: usize) -> Result<usize, OffloadError> {
        match self.rounds.get_mut(client) {
            Some(r) => {
                *r += 1;
                Ok(*r)
            }
            None => Err(OffloadError::Config(format!(
                "workload has no client {client}"
            ))),
        }
    }

    /// Parks the chosen round and yields its compute request.
    fn issue(
        &mut self,
        client: usize,
        at: Duration,
        server: usize,
    ) -> Result<EngineStep, OffloadError> {
        let ready = at + self.capture + self.up[server % self.up.len()];
        *self.slot(client)? = Some(ModeledRound {
            clicked: at,
            server,
            released: ready,
        });
        Ok(EngineStep::NeedCompute { server, at: ready })
    }
}

impl Workload for ModeledWorkload {
    fn clients(&self) -> usize {
        self.clients
    }

    fn begin_round(
        &mut self,
        client: usize,
        at: Duration,
        _image_seed: u64,
    ) -> Result<EngineStep, OffloadError> {
        let fleet = self.names.len();
        let round = self.next_round(client)?;
        // Load-blind round-robin server choice, offset by client so a
        // cold fleet spreads load instead of stampeding candidate 0 —
        // the legacy path `begin_round_balanced` supersedes when
        // balancing is on.
        let server = (client + round - 1) % fleet;
        self.issue(client, at, server)
    }

    fn begin_round_balanced(
        &mut self,
        client: usize,
        at: Duration,
        _image_seed: u64,
        balancer: &Balancer,
    ) -> Result<EngineStep, OffloadError> {
        let fleet = self.names.len();
        self.next_round(client)?;
        // Least-predicted-sojourn selection: per candidate, the wire and
        // CPU cost of the round plus the queueing delay the balancer
        // predicts at the moment the uplink would land. Ties go to the
        // lowest index, keeping selection deterministic.
        let mut server = 0usize;
        let mut best = Duration::MAX;
        for s in 0..fleet {
            let ready = at + self.capture + self.up[s];
            let sojourn = self.up[s]
                .saturating_add(balancer.predicted_wait(s, ready))
                .saturating_add(self.service[s])
                .saturating_add(self.down[s]);
            if sojourn < best {
                server = s;
                best = sojourn;
            }
        }
        self.issue(client, at, server)
    }

    fn compute(&mut self, client: usize, admitted_at: Duration) -> Result<Duration, OffloadError> {
        let service = &self.service;
        let pending = self
            .pending
            .get_mut(client)
            .ok_or_else(|| OffloadError::Config(format!("workload has no client {client}")))?;
        match pending.as_mut() {
            Some(round) => {
                round.released = admitted_at + service[round.server % service.len()];
                Ok(round.released)
            }
            None => Err(OffloadError::Protocol(
                "compute granted with no modeled round in flight".into(),
            )),
        }
    }

    fn continue_round(&mut self, client: usize) -> Result<EngineStep, OffloadError> {
        let round = match self.slot(client)?.take() {
            Some(round) => round,
            None => {
                return Err(OffloadError::Protocol(
                    "round continued with no modeled round in flight".into(),
                ))
            }
        };
        let fleet = self.names.len();
        let finished = round.released + self.down[round.server % fleet] + self.restore;
        Ok(EngineStep::Done(RoundOutcome {
            client,
            round: self.rounds.get(client).copied().unwrap_or_default(),
            finished_at: finished,
            total: finished - round.clicked,
            fell_back: false,
            server: self.names[round.server % fleet].clone(),
            ops_used: 0,
            peak_heap: 0,
            proactive: false,
            target: round.server % fleet,
        }))
    }
}

/// Load statistics of one fleet candidate over an engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerLoad {
    /// Server name (from its [`ServerSpec`](crate::ServerSpec)).
    pub name: String,
    /// Compute grants this server's CPU served.
    pub rounds: usize,
    /// Total virtual time its CPU spent executing.
    pub busy: Duration,
    /// `busy / makespan` — the duty cycle over the run (`0` for a run
    /// that never completed a round, where the makespan is zero).
    pub utilization: f64,
    /// Compute admissions routed to this server (every `Ev::Admit`,
    /// whether granted immediately, deferred, or batched).
    pub admits: usize,
    /// Rounds the admission gate degraded to local while this server was
    /// the round's target — the queueing delay (or predicted link
    /// health) erased the offload win before any bytes shipped.
    pub rejects: usize,
    /// Opportunistic batches (two or more co-queued grants admitted
    /// together) this server formed. Zero without a batch window.
    pub batches: usize,
}

/// What a fleet run produced: throughput, latency percentiles (sojourn
/// time: request arrival → result on screen), queueing-delay
/// percentiles, and per-server load.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Number of clients simulated.
    pub clients: usize,
    /// Rounds completed across all clients.
    pub completed: usize,
    /// Rounds that gave up on offloading and completed locally.
    pub fallbacks: usize,
    /// Virtual time of the last completion.
    pub makespan: Duration,
    /// Completed rounds per virtual second (`completed / makespan`).
    pub throughput_rps: f64,
    /// Sojourn-time statistics (p50/p90/p95/p99 are nearest-rank).
    pub latency: Summary,
    /// Server-CPU queueing-delay statistics, one sample per compute
    /// grant (zero when the CPU was free).
    pub queue_wait: Summary,
    /// Per-candidate load, in fleet order.
    pub servers: Vec<ServerLoad>,
    /// Total metered interpreter operations across every completed round
    /// (zero for unmetered or modeled runs).
    pub total_ops: u64,
    /// Largest metered heap (cells) any serving server observed (zero
    /// for unmetered or modeled runs).
    pub peak_heap: usize,
    /// Jain's fairness index over per-client completed rounds, among
    /// clients that issued at least one round: `1.0` when every active
    /// client completed the same count, approaching `1/n` when one
    /// tenant monopolized the fleet.
    pub fairness: f64,
    /// Largest opportunistic batch any server formed (zero without a
    /// batch window, one-sized grants never count).
    pub max_batch: usize,
}

/// A global event on the engine's virtual clock.
#[derive(Debug)]
enum Ev {
    /// A request arrives at a client. A busy client parks it in its
    /// client-side backlog; an idle client starts a round.
    Arrive { client: usize },
    /// A client actually starts a round — immediately after an arrival
    /// found it idle, or once a backlogged request reached the front.
    /// `issued` is the request's original arrival time (the sojourn
    /// clock starts there, not at the round start).
    Begin { client: usize, issued: Duration },
    /// A client's uplinked request asks for a server CPU.
    Admit { client: usize, server: usize },
    /// A server CPU frees; the client's round resumes. `server` keys the
    /// fair-share queue the freed CPU should grant from next.
    Release { client: usize, server: usize },
}

/// The scheduler: one global `(time, seq)`-ordered event queue
/// interleaving every client of a [`Workload`] against the shared fleet
/// CPUs. Construct with [`Engine::sessions`] (real sessions),
/// [`Engine::modeled`] (analytic megascale) or [`Engine::with_workload`]
/// (anything implementing [`Workload`]), shape the traffic with the
/// builder setters, then [`Engine::run`].
pub struct Engine<W> {
    workload: W,
    server_names: Vec<String>,
    arrival: ArrivalProcess,
    duration: Duration,
    max_rounds: Option<usize>,
    seed: u64,
    event_log: Vec<String>,
    /// Queue-aware selection + admission control (default off: the
    /// load-blind paths replay bit for bit).
    balance: bool,
    /// Deficit-round-robin grant ordering per server (default off:
    /// arrival-order grants replay bit for bit).
    fair_share: bool,
    /// Opportunistic co-queued grant batching window (default `None`).
    batch_window: Option<Duration>,
}

impl Engine<SessionWorkload> {
    /// An engine over `clients` real [`OffloadSession`]s (see
    /// [`SessionWorkload`]).
    ///
    /// # Errors
    ///
    /// Propagates session construction failures.
    pub fn sessions(
        cfg: SessionConfig,
        clients: usize,
    ) -> Result<Engine<SessionWorkload>, OffloadError> {
        let names = cfg.servers.iter().map(|s| s.name.clone()).collect();
        let seed = cfg.seed;
        let (balance, fair, window) = (cfg.balance, cfg.fair_share, cfg.batch_window);
        let mut engine =
            Engine::with_workload(SessionWorkload::new(cfg, clients)?, names).seed(seed);
        engine.balance = balance;
        engine.fair_share = fair;
        engine.batch_window = window;
        Ok(engine)
    }
}

impl Engine<ModeledWorkload> {
    /// An engine over `clients` analytic clients (see
    /// [`ModeledWorkload`]) — the megascale entry point.
    ///
    /// # Errors
    ///
    /// Returns [`OffloadError`] for unknown models or an empty fleet.
    pub fn modeled(
        cfg: SessionConfig,
        clients: usize,
    ) -> Result<Engine<ModeledWorkload>, OffloadError> {
        let names = cfg.servers.iter().map(|s| s.name.clone()).collect();
        let seed = cfg.seed;
        let (balance, fair, window) = (cfg.balance, cfg.fair_share, cfg.batch_window);
        let mut engine =
            Engine::with_workload(ModeledWorkload::new(cfg, clients)?, names).seed(seed);
        engine.balance = balance;
        engine.fair_share = fair;
        engine.batch_window = window;
        Ok(engine)
    }
}

impl<W: Workload> Engine<W> {
    /// An engine over a caller-built workload. `server_names` labels the
    /// fleet candidates (by index) in the report.
    pub fn with_workload(workload: W, server_names: Vec<String>) -> Engine<W> {
        Engine {
            workload,
            server_names,
            arrival: ArrivalProcess::ClosedLoop {
                think: Duration::from_secs(2),
            },
            duration: Duration::from_secs(60),
            max_rounds: None,
            seed: 42,
            event_log: Vec::new(),
            balance: false,
            fair_share: false,
            batch_window: None,
        }
    }

    /// Sets the arrival process (default: closed loop, 2 s think time).
    pub fn arrival(mut self, arrival: ArrivalProcess) -> Engine<W> {
        self.arrival = arrival;
        self
    }

    /// Sets the traffic horizon: open-loop arrivals are generated in
    /// `[0, duration)`, closed-loop clients stop re-issuing at it. Work
    /// in flight at the horizon always drains (default: 60 s).
    pub fn duration(mut self, duration: Duration) -> Engine<W> {
        self.duration = duration;
        self
    }

    /// Caps rounds per client (closed-loop traffic only; open-loop
    /// arrivals are horizon-bounded instead). Default: no cap.
    pub fn max_rounds(mut self, rounds: usize) -> Engine<W> {
        self.max_rounds = Some(rounds);
        self
    }

    /// Seeds arrival sampling and per-round image generation (the
    /// session/modeled constructors default this to the config's seed).
    pub fn seed(mut self, seed: u64) -> Engine<W> {
        self.seed = seed;
        self
    }

    /// Toggles queue-aware balancing: least-predicted-sojourn server
    /// selection plus the admission-control prior (the session/modeled
    /// constructors default this to the config's `balance` knob; off
    /// replays the load-blind paths bit for bit).
    pub fn balance(mut self, on: bool) -> Engine<W> {
        self.balance = on;
        self
    }

    /// Toggles per-tenant deficit-round-robin grant ordering (the
    /// constructors default this to the config's `fair_share` knob).
    pub fn fair_share(mut self, on: bool) -> Engine<W> {
        self.fair_share = on;
        self
    }

    /// Enables opportunistic batching of grants co-queued within
    /// `window` (the constructors default this to the config's
    /// `batch_window` knob).
    pub fn batch_window(mut self, window: Duration) -> Engine<W> {
        self.batch_window = Some(window);
        self
    }

    /// The workload, for post-run inspection (reports, traces).
    pub fn workload(&self) -> &W {
        &self.workload
    }

    /// Every event the last [`Engine::run`] processed, in schedule
    /// order — the determinism witness (`t=…: kind client=… …` lines).
    pub fn event_log(&self) -> &[String] {
        &self.event_log
    }

    /// Pre-samples the open-loop arrival stream over `[0, duration)`.
    fn open_loop_arrivals(&self, clients: usize) -> Result<Vec<(Duration, usize)>, OffloadError> {
        let peak = self.arrival.peak_rate();
        if peak <= 0.0 || !peak.is_finite() {
            return Err(OffloadError::Config(format!(
                "open-loop arrival process needs a positive finite rate, got {peak}"
            )));
        }
        let mut rng = Rng::seed_from_u64(self.seed ^ 0xA221_5EED_0DDB_A115);
        let mut arrivals = Vec::new();
        let mut t = 0.0_f64;
        let horizon = self.duration.as_secs_f64();
        loop {
            // Exponential interarrival at the envelope rate...
            let u = rng.next_f64();
            t += -(1.0 - u).ln() / peak;
            if t >= horizon {
                break;
            }
            // ...thinned down to the instantaneous rate (a no-op for a
            // flat Poisson process, where rate_at == peak always).
            let at = Duration::from_secs_f64(t);
            let keep = rng.next_f64() < self.arrival.rate_at(at) / peak;
            let client = rng.gen_range_usize(0, clients);
            if keep {
                arrivals.push((at, client));
            }
        }
        Ok(arrivals)
    }

    /// Runs the fleet to completion: seeds the arrival stream, then
    /// drains the global event queue deterministically.
    ///
    /// Run an engine once; a second `run` on the same engine continues
    /// the workload's accumulated state (sessions keep their deltas and
    /// round counters) rather than replaying.
    ///
    /// # Errors
    ///
    /// Returns [`OffloadError::Config`] for zero clients or a
    /// degenerate arrival process, and propagates workload failures.
    pub fn run(&mut self) -> Result<FleetReport, OffloadError> {
        let clients = self.workload.clients();
        if clients == 0 {
            return Err(OffloadError::Config(
                "fleet engine needs at least one client".into(),
            ));
        }
        let fleet = self.server_names.len().max(1);
        self.event_log.clear();

        let mut queue: EventQueue<Ev> = EventQueue::new();
        let mut backlog: Vec<VecDeque<Duration>> = vec![VecDeque::new(); clients];
        let mut busy: Vec<bool> = vec![false; clients];
        let mut issued: Vec<Duration> = vec![Duration::ZERO; clients];
        let mut rounds_done: Vec<usize> = vec![0; clients];
        let mut busy_until: Vec<Duration> = vec![Duration::ZERO; fleet];
        let mut busy_total: Vec<Duration> = vec![Duration::ZERO; fleet];
        let mut grants: Vec<usize> = vec![0; fleet];
        let mut latencies: Vec<Duration> = Vec::new();
        let mut waits: Vec<Duration> = Vec::new();
        let mut completed = 0usize;
        let mut fallbacks = 0usize;
        let mut makespan = Duration::ZERO;
        let mut total_ops = 0u64;
        let mut peak_heap = 0usize;
        // Queue-aware balancing state. The balancer is engine-owned so
        // both workload paths read one signal; it is fed on every grant
        // even when balancing is off (pure state, zero output impact),
        // keeping the off path byte-identical.
        let mut balancer = Balancer::new(fleet);
        // Fair share and batching both *park* admissions instead of
        // granting in strict arrival order, so they share one deferred
        // grant path keyed by server.
        let defer = self.fair_share || self.batch_window.is_some();
        let mut pending: Vec<VecDeque<(usize, Duration)>> = vec![VecDeque::new(); fleet];
        let mut drr: Vec<DrrScheduler> = (0..fleet)
            .map(|_| DrrScheduler::new(DEFAULT_DRR_QUANTUM))
            .collect();
        let mut admits: Vec<usize> = vec![0; fleet];
        let mut rejects: Vec<usize> = vec![0; fleet];
        let mut batches: Vec<usize> = vec![0; fleet];
        let mut completed_by: Vec<usize> = vec![0; clients];
        let mut max_batch = 0usize;

        match self.arrival {
            ArrivalProcess::ClosedLoop { .. } => {
                for client in 0..clients {
                    queue.push(Duration::ZERO, Ev::Arrive { client });
                }
            }
            _ => {
                for (at, client) in self.open_loop_arrivals(clients)? {
                    queue.push(at, Ev::Arrive { client });
                }
            }
        }

        while let Some((now, event)) = queue.pop() {
            match event {
                Ev::Arrive { client } => {
                    self.event_log
                        .push(format!("t={now:?}: arrive client={client}"));
                    if busy[client] {
                        backlog[client].push_back(now);
                        continue;
                    }
                    busy[client] = true;
                    queue.push(
                        now,
                        Ev::Begin {
                            client,
                            issued: now,
                        },
                    );
                }
                Ev::Begin { client, issued: at } => {
                    self.event_log
                        .push(format!("t={now:?}: begin client={client} issued={at:?}"));
                    issued[client] = at;
                    rounds_done[client] += 1;
                    let seed =
                        round_image_seed(self.seed, client as u64, rounds_done[client] as u64);
                    let step = if self.balance {
                        self.workload
                            .begin_round_balanced(client, now, seed, &balancer)?
                    } else {
                        self.workload.begin_round(client, now, seed)?
                    };
                    Self::dispatch(
                        &mut queue,
                        &mut self.event_log,
                        client,
                        step,
                        &mut DrainState {
                            arrival: &self.arrival,
                            duration: self.duration,
                            max_rounds: self.max_rounds,
                            backlog: &mut backlog,
                            busy: &mut busy,
                            issued: &mut issued,
                            rounds_done: &mut rounds_done,
                            latencies: &mut latencies,
                            completed: &mut completed,
                            fallbacks: &mut fallbacks,
                            makespan: &mut makespan,
                            total_ops: &mut total_ops,
                            peak_heap: &mut peak_heap,
                            rejects: &mut rejects,
                            completed_by: &mut completed_by,
                        },
                    );
                }
                Ev::Admit { client, server } => {
                    let idx = server % fleet;
                    admits[idx] += 1;
                    if !defer {
                        // Arrival-order grant — byte-identical to the
                        // pre-balancing engine (the balancer feed is
                        // pure state, invisible in every output).
                        let start = now.max(busy_until[idx]);
                        waits.push(start - now);
                        self.event_log.push(format!(
                            "t={now:?}: admit client={client} server={idx} start={start:?}"
                        ));
                        let released = self.workload.compute(client, start)?;
                        balancer.note_grant(
                            idx,
                            start - now,
                            released.saturating_sub(start),
                            released,
                        );
                        busy_until[idx] = released;
                        busy_total[idx] += released.saturating_sub(start);
                        grants[idx] += 1;
                        queue.push(
                            released,
                            Ev::Release {
                                client,
                                server: idx,
                            },
                        );
                    } else {
                        // Fair-share / batching path: park the request
                        // behind the server's CPU; an idle CPU grants
                        // (and opportunistically batches) right away.
                        self.event_log.push(format!(
                            "t={now:?}: admit client={client} server={idx} deferred"
                        ));
                        pending[idx].push_back((client, now));
                        balancer.set_queue_depth(idx, pending[idx].len());
                        if busy_until[idx] <= now {
                            Self::grant_parked(
                                &mut self.workload,
                                &mut self.event_log,
                                &mut queue,
                                &mut balancer,
                                &mut pending[idx],
                                if self.fair_share {
                                    Some(&mut drr[idx])
                                } else {
                                    None
                                },
                                self.batch_window,
                                idx,
                                now,
                                GrantStats {
                                    waits: &mut waits,
                                    busy_until: &mut busy_until[idx],
                                    busy_total: &mut busy_total[idx],
                                    grants: &mut grants[idx],
                                    batches: &mut batches[idx],
                                    max_batch: &mut max_batch,
                                },
                            )?;
                        } else {
                            self.workload.note_deferred(client, idx, now);
                        }
                    }
                }
                Ev::Release { client, server } => {
                    self.event_log
                        .push(format!("t={now:?}: release client={client}"));
                    let step = self.workload.continue_round(client)?;
                    Self::dispatch(
                        &mut queue,
                        &mut self.event_log,
                        client,
                        step,
                        &mut DrainState {
                            arrival: &self.arrival,
                            duration: self.duration,
                            max_rounds: self.max_rounds,
                            backlog: &mut backlog,
                            busy: &mut busy,
                            issued: &mut issued,
                            rounds_done: &mut rounds_done,
                            latencies: &mut latencies,
                            completed: &mut completed,
                            fallbacks: &mut fallbacks,
                            makespan: &mut makespan,
                            total_ops: &mut total_ops,
                            peak_heap: &mut peak_heap,
                            rejects: &mut rejects,
                            completed_by: &mut completed_by,
                        },
                    );
                    if defer {
                        // The freed CPU grants the next parked request
                        // (the last member of a batch frees it).
                        let idx = server % fleet;
                        if busy_until[idx] <= now && !pending[idx].is_empty() {
                            Self::grant_parked(
                                &mut self.workload,
                                &mut self.event_log,
                                &mut queue,
                                &mut balancer,
                                &mut pending[idx],
                                if self.fair_share {
                                    Some(&mut drr[idx])
                                } else {
                                    None
                                },
                                self.batch_window,
                                idx,
                                now,
                                GrantStats {
                                    waits: &mut waits,
                                    busy_until: &mut busy_until[idx],
                                    busy_total: &mut busy_total[idx],
                                    grants: &mut grants[idx],
                                    batches: &mut batches[idx],
                                    max_batch: &mut max_batch,
                                },
                            )?;
                        }
                    }
                }
            }
        }

        let throughput_rps = if makespan.is_zero() {
            0.0
        } else {
            completed as f64 / makespan.as_secs_f64()
        };
        let servers = self
            .server_names
            .iter()
            .enumerate()
            .map(|(idx, name)| ServerLoad {
                name: name.clone(),
                rounds: grants.get(idx).copied().unwrap_or_default(),
                busy: busy_total.get(idx).copied().unwrap_or_default(),
                utilization: if makespan.is_zero() {
                    0.0
                } else {
                    (busy_total
                        .get(idx)
                        .copied()
                        .unwrap_or_default()
                        .as_secs_f64()
                        / makespan.as_secs_f64())
                    .min(1.0)
                },
                admits: admits.get(idx).copied().unwrap_or_default(),
                rejects: rejects.get(idx).copied().unwrap_or_default(),
                batches: batches.get(idx).copied().unwrap_or_default(),
            })
            .collect();
        // Fairness reads over clients that actually entered the run —
        // idle provisioned clients would dilute the index.
        let active: Vec<f64> = rounds_done
            .iter()
            .zip(&completed_by)
            .filter(|&(&issued_rounds, _)| issued_rounds > 0)
            .map(|(_, &done)| done as f64)
            .collect();
        Ok(FleetReport {
            clients,
            completed,
            fallbacks,
            makespan,
            throughput_rps,
            latency: Summary::of(&latencies),
            queue_wait: Summary::of(&waits),
            servers,
            total_ops,
            peak_heap,
            fairness: jain(&active),
            max_batch,
        })
    }

    /// Grants the front of `server`'s fair-share queue at time `now`:
    /// the DRR ring picks the tenant when fair share is on (arrival
    /// order otherwise), and a batch window sweeps in every parked
    /// request enqueued within `window` of the primary. Each member gets
    /// its own compute grant and release; the CPU reservation covers the
    /// whole batch span once.
    #[allow(clippy::too_many_arguments)]
    fn grant_parked(
        workload: &mut W,
        event_log: &mut Vec<String>,
        queue: &mut EventQueue<Ev>,
        balancer: &mut Balancer,
        pending: &mut VecDeque<(usize, Duration)>,
        mut drr: Option<&mut DrrScheduler>,
        window: Option<Duration>,
        idx: usize,
        now: Duration,
        stats: GrantStats<'_>,
    ) -> Result<(), OffloadError> {
        let Some(&(head_client, _)) = pending.front() else {
            return Ok(());
        };
        let primary = match drr.as_deref_mut() {
            Some(sched) => {
                let waiting: Vec<usize> = pending.iter().map(|&(c, _)| c).collect();
                sched.pick(&waiting).unwrap_or(head_client)
            }
            None => head_client,
        };
        let pos = pending.iter().position(|&(c, _)| c == primary).unwrap_or(0);
        let Some((_, primary_enq)) = pending.remove(pos) else {
            return Ok(());
        };
        let mut batch: Vec<(usize, Duration)> = vec![(primary, primary_enq)];
        if let Some(window) = window {
            // Sweep in every parked request enqueued within the window
            // of the primary (two-sided: a DRR primary may sit behind
            // older requests that are *outside* its window).
            let lo = primary_enq.saturating_sub(window);
            let hi = primary_enq.saturating_add(window);
            let mut keep = VecDeque::with_capacity(pending.len());
            while let Some((c, enq)) = pending.pop_front() {
                if enq >= lo && enq <= hi {
                    batch.push((c, enq));
                } else {
                    keep.push_back((c, enq));
                }
            }
            *pending = keep;
        }
        let mut span_end = now;
        for &(client, enq) in &batch {
            let wait = now.saturating_sub(enq);
            stats.waits.push(wait);
            event_log.push(format!(
                "t={now:?}: grant client={client} server={idx} enq={enq:?}"
            ));
            let released = workload.compute(client, now)?;
            queue.push(
                released,
                Ev::Release {
                    client,
                    server: idx,
                },
            );
            if let Some(sched) = drr.as_deref_mut() {
                sched.charge(client, released.saturating_sub(now));
            }
            balancer.note_grant(idx, wait, released.saturating_sub(now), released);
            span_end = span_end.max(released);
            *stats.grants += 1;
        }
        *stats.busy_until = (*stats.busy_until).max(span_end);
        *stats.busy_total += span_end.saturating_sub(now);
        if batch.len() >= 2 {
            *stats.batches += 1;
            *stats.max_batch = (*stats.max_batch).max(batch.len());
            event_log.push(format!(
                "t={now:?}: batch server={idx} size={}",
                batch.len()
            ));
            let members: Vec<usize> = batch.iter().map(|&(c, _)| c).collect();
            workload.note_batch(&members, idx, now);
        }
        balancer.set_queue_depth(idx, pending.len());
        Ok(())
    }

    /// Routes a workload step: a compute request re-enters the queue, a
    /// completion books statistics and schedules the client's next round
    /// (closed-loop think, or the oldest backlogged open-loop arrival).
    fn dispatch(
        queue: &mut EventQueue<Ev>,
        event_log: &mut Vec<String>,
        client: usize,
        step: EngineStep,
        state: &mut DrainState<'_>,
    ) {
        match step {
            EngineStep::NeedCompute { server, at } => {
                queue.push(at, Ev::Admit { client, server });
            }
            EngineStep::Done(outcome) => {
                event_log.push(format!(
                    "t={:?}: done client={client} round={} server={}",
                    outcome.finished_at, outcome.round, outcome.server
                ));
                *state.completed += 1;
                if let Some(done) = state.completed_by.get_mut(client) {
                    *done += 1;
                }
                if outcome.fell_back {
                    *state.fallbacks += 1;
                }
                if outcome.proactive {
                    // Admission control turned the offload down: charge
                    // the reject to the server the round was aimed at.
                    if let Some(rejected) = state.rejects.get_mut(outcome.target) {
                        *rejected += 1;
                    }
                }
                *state.total_ops += outcome.ops_used;
                *state.peak_heap = (*state.peak_heap).max(outcome.peak_heap);
                state
                    .latencies
                    .push(outcome.finished_at.saturating_sub(state.issued[client]));
                *state.makespan = (*state.makespan).max(outcome.finished_at);
                state.busy[client] = false;
                match state.arrival {
                    ArrivalProcess::ClosedLoop { think } => {
                        let capped = state
                            .max_rounds
                            .is_some_and(|cap| state.rounds_done[client] >= cap);
                        let next = outcome.finished_at + *think;
                        if !capped && next < state.duration {
                            queue.push(next, Ev::Arrive { client });
                        }
                    }
                    _ => {
                        if let Some(arrived) = state.backlog[client].pop_front() {
                            // The request waited client-side; it starts
                            // the moment the client frees, but its
                            // sojourn clock started at arrival.
                            state.busy[client] = true;
                            queue.push(
                                arrived.max(outcome.finished_at),
                                Ev::Begin {
                                    client,
                                    issued: arrived,
                                },
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The mutable run-loop state [`Engine::dispatch`] books completions
/// into (split out so the borrow of `self.workload` and the borrow of
/// the statistics can coexist).
struct DrainState<'a> {
    arrival: &'a ArrivalProcess,
    duration: Duration,
    max_rounds: Option<usize>,
    backlog: &'a mut Vec<VecDeque<Duration>>,
    busy: &'a mut Vec<bool>,
    issued: &'a mut Vec<Duration>,
    rounds_done: &'a mut Vec<usize>,
    latencies: &'a mut Vec<Duration>,
    completed: &'a mut usize,
    fallbacks: &'a mut usize,
    makespan: &'a mut Duration,
    total_ops: &'a mut u64,
    peak_heap: &'a mut usize,
    rejects: &'a mut Vec<usize>,
    completed_by: &'a mut Vec<usize>,
}

/// The per-server mutable slots a deferred grant updates (split out so
/// the workload borrow and the statistics borrows can coexist inside
/// [`Engine::grant_parked`]).
struct GrantStats<'a> {
    waits: &'a mut Vec<Duration>,
    busy_until: &'a mut Duration,
    busy_total: &'a mut Duration,
    grants: &'a mut usize,
    batches: &'a mut usize,
    max_batch: &'a mut usize,
}
