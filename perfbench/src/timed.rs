//! A [`Workload`] wrapper that times every call the engine makes into the
//! workload, from outside the program.
//!
//! The wrapper forwards each trait method unchanged, so a run with it
//! produces the same `FleetReport` and event log as a run without it
//! (the package's tests check this byte for byte). What it adds is wall
//! time: per round (the sum of a client's calls from `begin_round`
//! through the final `continue_round`), in total (so engine self time is
//! `Engine::run` minus time inside the workload) and, when `detail` is
//! on, per call kind.

use snapedge_core::engine::EngineStep;
use snapedge_core::{Balancer, OffloadError, Workload};
use std::time::{Duration, Instant};

/// Wall time spent inside one kind of workload call, one sample per call.
#[derive(Debug, Default, Clone)]
pub struct CallTimes {
    /// `begin_round` / `begin_round_balanced`.
    pub start: Vec<Duration>,
    /// `compute`.
    pub compute: Vec<Duration>,
    /// `continue_round`.
    pub finish: Vec<Duration>,
}

/// The timing wrapper. `inner` is the workload that does the work.
pub struct Timed<W> {
    inner: W,
    detail: bool,
    open: Vec<Duration>,
    /// Wall time of each completed round, in completion order.
    pub round_wall: Vec<Duration>,
    /// `(client, round)` of each completed round, in completion order.
    pub round_ids: Vec<(usize, usize)>,
    /// Rounds the engine began.
    pub begun: usize,
    /// Total wall time inside workload calls.
    pub inside: Duration,
    /// Per-call samples (filled only when `detail` is on).
    pub calls: CallTimes,
}

impl<W: Workload> Timed<W> {
    /// Wraps `inner`; `detail` also records one sample per call kind.
    pub fn new(inner: W, detail: bool) -> Timed<W> {
        let clients = inner.clients();
        Timed {
            inner,
            detail,
            open: vec![Duration::ZERO; clients],
            round_wall: Vec::new(),
            round_ids: Vec::new(),
            begun: 0,
            inside: Duration::ZERO,
            calls: CallTimes::default(),
        }
    }

    /// The wrapped workload.
    pub fn inner(&self) -> &W {
        &self.inner
    }

    fn charge(&mut self, client: usize, spent: Duration) {
        self.inside += spent;
        if let Some(open) = self.open.get_mut(client) {
            *open += spent;
        }
    }

    fn step(
        &mut self,
        client: usize,
        spent: Duration,
        step: Result<EngineStep, OffloadError>,
    ) -> Result<EngineStep, OffloadError> {
        self.charge(client, spent);
        if let Ok(EngineStep::Done(outcome)) = &step {
            let wall = self
                .open
                .get_mut(client)
                .map(std::mem::take)
                .unwrap_or_default();
            self.round_wall.push(wall);
            self.round_ids.push((outcome.client, outcome.round));
        }
        step
    }
}

impl<W: Workload> Workload for Timed<W> {
    fn clients(&self) -> usize {
        self.inner.clients()
    }

    fn begin_round(
        &mut self,
        client: usize,
        at: Duration,
        image_seed: u64,
    ) -> Result<EngineStep, OffloadError> {
        self.begun += 1;
        let t = Instant::now();
        let step = self.inner.begin_round(client, at, image_seed);
        let spent = t.elapsed();
        if self.detail {
            self.calls.start.push(spent);
        }
        self.step(client, spent, step)
    }

    fn begin_round_balanced(
        &mut self,
        client: usize,
        at: Duration,
        image_seed: u64,
        balancer: &Balancer,
    ) -> Result<EngineStep, OffloadError> {
        self.begun += 1;
        let t = Instant::now();
        let step = self
            .inner
            .begin_round_balanced(client, at, image_seed, balancer);
        let spent = t.elapsed();
        if self.detail {
            self.calls.start.push(spent);
        }
        self.step(client, spent, step)
    }

    fn compute(&mut self, client: usize, admitted_at: Duration) -> Result<Duration, OffloadError> {
        let t = Instant::now();
        let released = self.inner.compute(client, admitted_at);
        let spent = t.elapsed();
        if self.detail {
            self.calls.compute.push(spent);
        }
        self.charge(client, spent);
        released
    }

    fn continue_round(&mut self, client: usize) -> Result<EngineStep, OffloadError> {
        let t = Instant::now();
        let step = self.inner.continue_round(client);
        let spent = t.elapsed();
        if self.detail {
            self.calls.finish.push(spent);
        }
        self.step(client, spent, step)
    }

    fn note_deferred(&mut self, client: usize, server: usize, at: Duration) {
        let t = Instant::now();
        self.inner.note_deferred(client, server, at);
        self.charge(client, t.elapsed());
    }

    fn note_batch(&mut self, clients: &[usize], server: usize, at: Duration) {
        let t = Instant::now();
        self.inner.note_batch(clients, server, at);
        // A batch note serves every listed client at once; it counts
        // toward time inside the workload but toward no single round.
        self.inside += t.elapsed();
    }
}
