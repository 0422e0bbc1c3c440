//! An endpoint: a browser plus a device model plus the shared clock.
//! The client board and the edge server are both just endpoints — the
//! paper's symmetry ("any generic edge server, equipped with a browser and
//! our offloading system") made concrete.

use crate::device::DeviceProfile;
use crate::mlhost::{CaffeJsHost, ExecTracker};
use crate::OffloadError;
use snapedge_dnn::{ExecMode, Network, NodeId, ParamStore};
use snapedge_net::SimClock;
use snapedge_trace::{EventKind, Lane, Tracer};
use snapedge_webapp::{Browser, RunOutcome, Snapshot, SnapshotOptions, WebError};
use std::time::Duration;

/// A browser-bearing machine participating in offloading.
pub struct Endpoint {
    name: String,
    /// The web runtime.
    pub browser: Browser,
    /// The device latency model.
    pub device: DeviceProfile,
    clock: SimClock,
    tracer: Tracer,
    lane: Lane,
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("name", &self.name)
            .field("device", &self.device.name())
            .field("browser", &self.browser)
            .finish()
    }
}

impl Endpoint {
    /// Creates an endpoint charging simulated time to `clock`.
    pub fn new(name: &str, device: DeviceProfile, clock: SimClock) -> Endpoint {
        Endpoint {
            name: name.to_string(),
            browser: Browser::new(),
            device,
            clock,
            tracer: Tracer::disabled(),
            lane: Lane::Client,
        }
    }

    /// Attaches an event tracer, builder-style. Capture/restore then record
    /// `capture_{lane}` / `restore_{lane}` events on `lane`, and any model
    /// host installed afterwards records per-layer execution events.
    pub fn with_tracer(mut self, tracer: Tracer, lane: Lane) -> Endpoint {
        self.tracer = tracer;
        self.lane = lane;
        self
    }

    /// Endpoint name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The lane this endpoint's trace events are recorded on.
    pub fn lane(&self) -> Lane {
        self.lane
    }

    /// The attached tracer (disabled unless [`Endpoint::with_tracer`] was
    /// used).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    fn phase_name(&self, verb: &str) -> String {
        let suffix = match self.lane {
            Lane::Client => "client",
            Lane::Server => "server",
            Lane::Network => "network",
        };
        format!("{verb}_{suffix}")
    }

    /// The shared clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Registers the Caffe.js host (`model`) backed by `net`, returning the
    /// execution tracker.
    pub fn install_model(
        &mut self,
        net: Network,
        params: ParamStore,
        mode: ExecMode,
        cut: Option<NodeId>,
        seed: u64,
    ) -> ExecTracker {
        let host = CaffeJsHost::new(net, params, self.device.clone(), mode, self.clock.clone())
            .with_cut(cut)
            .with_seed(seed)
            .with_tracer(self.tracer.clone(), self.lane);
        let tracker = host.tracker();
        // The DNN host is a pure function of its inputs (seeded, no
        // clock): declare it deterministic so effect analysis can pass
        // apps that call `model.inference(..)`.
        self.browser.register_host_with_effect(
            "model",
            Box::new(host),
            snapedge_webapp::HostEffect::Deterministic,
        );
        tracker
    }

    /// Runs static effect analysis over app source against this
    /// endpoint's registered host surface, recording an instant
    /// `effect_verdict:{outcome}` trace event.
    ///
    /// # Errors
    ///
    /// Returns [`OffloadError::Analyze`] when the app does not parse or
    /// reaches nondeterministic host APIs (clock/random/IO) — replaying
    /// its snapshot elsewhere could diverge, so it must stay local. The
    /// rejection happens before any link traffic.
    pub fn gate_effects(
        &mut self,
        html_src: &str,
    ) -> Result<snapedge_analyze::EffectSummary, OffloadError> {
        let opts = snapedge_analyze::EffectOptions::from_host_effects(self.browser.host_effects());
        let result = snapedge_analyze::effect_summary_html(html_src, &opts);
        let outcome = match &result {
            Ok(s) if s.is_nondeterministic() => "nondeterministic",
            Ok(_) => "ok",
            Err(_) => "error",
        };
        let now = self.clock.now();
        self.tracer.record(
            &format!("effect_verdict:{outcome}"),
            self.lane,
            EventKind::EffectVerdict,
            now,
            now,
        );
        let summary = result.map_err(OffloadError::Analyze)?;
        summary.verdict().map_err(OffloadError::Analyze)?;
        Ok(summary)
    }

    /// Captures a snapshot, charging the device's capture time to the
    /// clock; returns the snapshot and the charged duration.
    ///
    /// When `options.verify` is set, the captured snapshot is statically
    /// verified (closedness, host-API surface, reserved-prefix hygiene)
    /// before it is handed to the caller, and a `verify_{lane}` trace
    /// event is recorded. An unshippable snapshot is rejected here —
    /// before any link traffic and before the retry budget is touched.
    ///
    /// # Errors
    ///
    /// Propagates snapshot serialization failures; returns
    /// [`OffloadError::Verify`] when verification finds error-severity
    /// diagnostics.
    pub fn capture(
        &mut self,
        options: &SnapshotOptions,
    ) -> Result<(Snapshot, Duration), OffloadError> {
        let start = self.clock.now();
        let snapshot = self.browser.capture_snapshot(options)?;
        let cost = self.device.capture_time(snapshot.size_bytes());
        self.clock.advance_by(cost);
        self.tracer.record_bytes(
            &self.phase_name("capture"),
            self.lane,
            EventKind::Capture,
            start,
            self.clock.now(),
            Some(snapshot.size_bytes()),
        );
        if options.verify {
            self.verify_script(
                snapshot.html(),
                snapedge_analyze::Mode::Snapshot,
                Vec::new(),
            )?;
        }
        Ok((snapshot, cost))
    }

    /// Statically verifies generated snapshot (or delta) source against
    /// this endpoint's host surface, recording a `verify_{lane}` event.
    ///
    /// # Errors
    ///
    /// Returns [`OffloadError::Verify`] when the analyzer reports
    /// error-severity diagnostics.
    pub fn verify_script(
        &mut self,
        source: &str,
        mode: snapedge_analyze::Mode,
        ambient: Vec<String>,
    ) -> Result<(), OffloadError> {
        let opts = snapedge_analyze::AnalysisOptions {
            mode,
            hosts: self.browser.host_names(),
            ambient,
        };
        let report = match mode {
            snapedge_analyze::Mode::Delta => snapedge_analyze::analyze_script(source, &opts),
            _ => snapedge_analyze::analyze_html(source, &opts),
        };
        let now = self.clock.now();
        self.tracer.record_bytes(
            &self.phase_name("verify"),
            self.lane,
            EventKind::Verify,
            now,
            now,
            Some(source.len() as u64),
        );
        if report.has_errors() {
            let findings: Vec<String> = report
                .diagnostics
                .iter()
                .filter(|d| d.severity == snapedge_analyze::Severity::Error)
                .map(|d| d.to_string())
                .collect();
            return Err(OffloadError::Verify(format!(
                "snapshot failed static verification ({}): {}",
                report.summary(),
                findings.join("; ")
            )));
        }
        Ok(())
    }

    /// Restores a snapshot, charging the device's restore time; returns
    /// the charged duration.
    ///
    /// # Errors
    ///
    /// Propagates snapshot parse/execution failures.
    pub fn restore(&mut self, snapshot: &Snapshot) -> Result<Duration, OffloadError> {
        let start = self.clock.now();
        self.browser.restore_snapshot(snapshot)?;
        let cost = self.device.restore_time(snapshot.size_bytes());
        self.clock.advance_by(cost);
        self.tracer.record_bytes(
            &self.phase_name("restore"),
            self.lane,
            EventKind::Restore,
            start,
            self.clock.now(),
            Some(snapshot.size_bytes()),
        );
        Ok(cost)
    }

    /// Runs the event loop to idle (or to the armed offload point). DNN
    /// time is charged by the model host as handlers execute.
    ///
    /// When a resource meter with a virtual-time slice is installed on
    /// this endpoint's browser, the run is killed at the slice: the
    /// clock rewinds to `start + slice` (the tenant is only *charged*
    /// its slice, not the overrun the simulation had to compute to
    /// detect it) and a `"slice"` [`WebError::ResourceExhausted`] is
    /// returned with limit/used in microseconds. A metered run that
    /// finishes in budget records a `meter_tick` trace event carrying
    /// the segment's op count.
    ///
    /// # Errors
    ///
    /// Propagates app runtime errors, including meter exhaustion raised
    /// inside the interpreter (ops / heap / string / depth caps).
    pub fn run(&mut self) -> Result<RunOutcome, OffloadError> {
        let slice = self.browser.meter().and_then(|m| m.limits().time_slice);
        let start = self.clock.now();
        let outcome = self.browser.run_until_idle()?;
        if let Some(slice) = slice {
            let elapsed = self.clock.now() - start;
            if elapsed > slice {
                self.clock.rewind_to(start + slice);
                return Err(OffloadError::Web(WebError::ResourceExhausted {
                    resource: "slice".to_string(),
                    limit: slice.as_micros() as u64,
                    used: elapsed.as_micros() as u64,
                }));
            }
        }
        if let Some(meter) = self.browser.meter() {
            let now = self.clock.now();
            self.tracer.record_bytes(
                &self.phase_name("meter_tick"),
                self.lane,
                EventKind::MeterTick,
                now,
                now,
                Some(meter.run_ops()),
            );
        }
        Ok(outcome)
    }
}
