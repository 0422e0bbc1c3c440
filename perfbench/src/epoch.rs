//! One engine run ("epoch") of a workload: build, run, check, measure.
//!
//! A benchmark run repeats epochs of one plan until its time is up.
//! Every epoch replays the same seed, so every epoch must produce the
//! same virtual results; the first epoch's are the reference the others
//! are checked against.

use crate::plan::{reference_label, Build, Kind, Plan};
use crate::stats::proc_status_mib;
use crate::timed::{CallTimes, Timed};
use snapedge_core::prelude::*;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Labels a client-only run displays, keyed by `(client, round)`.
#[derive(Debug, Default, Clone)]
pub struct References(BTreeMap<(usize, usize), String>);

impl References {
    /// Computes the reference label of every round a closed-loop session
    /// plan can run (empty for a modeled plan, whose rounds display
    /// nothing).
    ///
    /// # Errors
    ///
    /// Propagates failures of the client-only runs.
    pub fn of(plan: &Plan) -> Result<References, OffloadError> {
        let mut labels = BTreeMap::new();
        if plan.kind.is_session() {
            for client in 0..plan.clients {
                for round in 1..=plan.max_rounds.unwrap_or(0) {
                    labels.insert((client, round), reference_label(&plan.cfg, client, round)?);
                }
            }
        }
        Ok(References(labels))
    }

    /// The reference label of `client`'s `round`.
    pub fn get(&self, client: usize, round: usize) -> Option<&str> {
        self.0.get(&(client, round)).map(String::as_str)
    }
}

/// What one epoch measured. Wall times are host-dependent; everything in
/// `virt` is a deterministic function of the seed.
#[derive(Debug, Clone)]
pub struct Epoch {
    /// Wall time to build the workload and the engine.
    pub setup: Duration,
    /// Wall time of `Engine::run`.
    pub run: Duration,
    /// Rounds attempted: rounds begun (sessions) or requests issued
    /// (modeled).
    pub attempted: usize,
    /// Rounds that erred or failed a correctness check.
    pub failed: usize,
    /// What went wrong, when something did.
    pub errors: Vec<String>,
    /// `(client, round)` of each completed round, in completion order.
    pub round_ids: Vec<(usize, usize)>,
    /// Wall time inside workload calls, per completed round.
    pub round_wall: Vec<Duration>,
    /// Total wall time inside workload calls.
    pub inside: Duration,
    /// Per-call wall times (traced epochs only).
    pub calls: CallTimes,
    /// Engine event-log entries.
    pub log_entries: usize,
    /// Resident memory before the workload was built and after the run,
    /// in MiB (traced epochs only).
    pub rss: Option<(f64, f64)>,
    /// The virtual results.
    pub virt: Virtual,
}

/// The virtual (simulated-time) results of an epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Virtual {
    /// The engine's fleet report.
    pub fleet: FleetReport,
    /// Every session round report, in completion order.
    pub rounds: Vec<RoundReport>,
    /// The eight Fig. 7 phases summed over all clients' traces, in
    /// `Breakdown` field order (traced session epochs only).
    pub breakdown: Option<[Duration; 8]>,
}

impl Virtual {
    /// A byte string that differs whenever the fleet report or any round
    /// report differs (the breakdown exists only in traced epochs and is
    /// compared among those).
    pub fn fingerprint(&self) -> String {
        format!("{:?}|{:?}", self.fleet, self.rounds)
    }
}

/// An engine run that did not complete.
#[derive(Debug, Clone)]
pub struct Broken {
    /// Rounds it had begun.
    pub attempted: usize,
    /// Why it stopped.
    pub error: String,
}

/// Builds, runs and checks one epoch of `plan` over workload type `W`.
/// `traced` records per-call times, memory growth and the trace
/// breakdown on top of what every epoch measures.
///
/// # Errors
///
/// Returns [`Broken`] when the workload cannot be built or the engine run
/// fails; rounds that complete with a wrong result are counted in the
/// epoch instead.
pub fn run<W: Build>(plan: &Plan, refs: &References, traced: bool) -> Result<Epoch, Broken> {
    let rss_before = traced.then(|| proc_status_mib("VmRSS").unwrap_or(0.0));
    let t = Instant::now();
    let built = plan.engine::<W>(traced);
    let setup = t.elapsed();
    let mut engine = built.map_err(|e| Broken {
        attempted: 1,
        error: format!("build: {e}"),
    })?;
    let t = Instant::now();
    let outcome = engine.run();
    let run = t.elapsed();
    let rss = rss_before.map(|before| (before, proc_status_mib("VmRSS").unwrap_or(0.0)));
    let timed: &Timed<W> = engine.workload();
    let fleet = outcome.map_err(|e| Broken {
        attempted: timed.begun.max(1),
        error: format!("run: {e}"),
    })?;
    let log = engine.event_log();
    let rounds = timed.inner().round_reports().to_vec();
    let mut errors = Vec::new();
    let (attempted, failed) = if plan.kind.is_session() {
        let mut failed = 0;
        for (report, &(client, round)) in rounds.iter().zip(&timed.round_ids) {
            let expected = refs.get(client, round);
            if expected != Some(report.result.as_str()) {
                failed += 1;
                errors.push(format!(
                    "client {client} round {round}: label {:?}, client-only run shows {expected:?}",
                    report.result
                ));
            }
        }
        // A begun round that never completed is a failure too.
        failed += timed.begun.saturating_sub(rounds.len());
        (timed.begun, failed)
    } else {
        // The fault-free fleet must complete every issued request,
        // offloaded.
        let issued = log.iter().filter(|l| l.contains(": arrive ")).count();
        let short = issued.saturating_sub(fleet.completed);
        if short > 0 || fleet.fallbacks > 0 || fleet.completed > issued {
            errors.push(format!(
                "issued {issued}, completed {}, fell back {}",
                fleet.completed, fleet.fallbacks
            ));
        }
        (issued, (short + fleet.fallbacks).min(issued))
    };
    let breakdown = (traced && plan.kind.is_session()).then(|| {
        let mut phases = [Duration::ZERO; 8];
        for client in 0..plan.clients {
            if let Some(trace) = timed.inner().client_trace(client) {
                let b = Breakdown::from_trace(&trace);
                let each = [
                    b.exec_client,
                    b.capture_client,
                    b.transfer_up,
                    b.restore_server,
                    b.exec_server,
                    b.capture_server,
                    b.transfer_down,
                    b.restore_client,
                ];
                for (sum, phase) in phases.iter_mut().zip(each) {
                    *sum += phase;
                }
            }
        }
        phases
    });
    Ok(Epoch {
        setup,
        run,
        attempted: attempted.max(1),
        failed,
        errors,
        round_ids: timed.round_ids.clone(),
        round_wall: timed.round_wall.clone(),
        inside: timed.inside,
        calls: timed.calls.clone(),
        log_entries: log.len(),
        rss,
        virt: Virtual {
            fleet,
            rounds,
            breakdown,
        },
    })
}

/// Runs one epoch of `plan` with the workload type its kind needs.
///
/// # Errors
///
/// See [`run`].
pub fn run_kind(plan: &Plan, refs: &References, traced: bool) -> Result<Epoch, Broken> {
    match plan.kind {
        Kind::PartialOffload | Kind::SessionDelta => run::<SessionWorkload>(plan, refs, traced),
        Kind::FleetModeled => run::<ModeledWorkload>(plan, refs, traced),
    }
}

/// Wall time to build `plan`'s workload and engine, without running it.
///
/// # Errors
///
/// Propagates construction failures.
pub fn setup_only(plan: &Plan) -> Result<Duration, OffloadError> {
    let t = Instant::now();
    match plan.kind {
        Kind::PartialOffload | Kind::SessionDelta => {
            drop(plan.engine::<SessionWorkload>(false)?);
        }
        Kind::FleetModeled => {
            drop(plan.engine::<ModeledWorkload>(false)?);
        }
    }
    Ok(t.elapsed())
}

impl Epoch {
    /// Rounds completed.
    pub fn completed(&self) -> usize {
        self.virt.fleet.completed
    }
}
