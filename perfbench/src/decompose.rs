//! The decomposed round: one session round's call order replayed through
//! [`Endpoint`]s, with each layer's public function called and timed
//! directly.
//!
//! The replay follows what a session does for one client: install the
//! model on both endpoints, load the app, run the client to its offload
//! point, capture, restore on the server, run, capture, restore on the
//! client. Round 1 ships full snapshots; round 2 ships deltas against
//! the state both sides agreed on after round 1. The byte counts must
//! equal the session's own `RoundReport`s for the same client and seed,
//! which shows the per-layer timings measure the work the end-to-end
//! run does.

use snapedge_core::prelude::*;
use snapedge_core::{apps, Endpoint};
use snapedge_dnn::{Network, NodeId, ParamStore};
use snapedge_net::SimClock;
use snapedge_tensor::{serialize, Tensor};
use snapedge_webapp::{html, parser, DeltaCapture, RunOutcome, StateBase};
use std::time::{Duration, Instant};

/// What one replayed round shipped and cost.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Bytes sent client to server (snapshot or delta).
    pub up_bytes: u64,
    /// Bytes sent server to client.
    pub down_bytes: u64,
    /// Whether the uplink shipped a delta.
    pub delta_up: bool,
    /// Whether the downlink shipped a delta.
    pub delta_down: bool,
    /// Wall time in `Browser::capture_snapshot` or `capture_delta`, both
    /// directions.
    pub capture: Duration,
    /// Wall time in `Browser::restore_snapshot` or `apply_delta`, both
    /// directions.
    pub restore: Duration,
    /// Globals the round's deltas re-assigned, both directions.
    pub changed_globals: usize,
    /// Wall time of the server's `Endpoint::run` (the offloaded handler).
    pub server_run: Duration,
    /// Interpreter steps over every script run of the round, both
    /// browsers.
    pub steps: u64,
    /// Growth of both browsers' heaps over the round, in cells.
    pub heap_cells: i64,
    /// Wall time of `parser::parse_program` over the uplinked snapshot's
    /// scripts (full-snapshot rounds only; it lexes internally).
    pub parse: Duration,
    /// Script bytes parsed.
    pub parse_bytes: u64,
    /// The label the client displays afterwards.
    pub label: String,
}

/// Client and server endpoints of one session client, replayed by hand.
struct Pair {
    client: Endpoint,
    server: Endpoint,
    options: SnapshotOptions,
    use_deltas: bool,
    trigger: &'static str,
    agreed: Option<StateBase>,
}

impl Pair {
    /// The endpoints a session for `client` of `cfg` sets up.
    fn new(cfg: &SessionConfig, client: usize) -> Result<Pair, OffloadError> {
        let seed = cfg.seed.wrapping_add(client as u64);
        let net = zoo::by_name(&cfg.model)?;
        let cut = match &cfg.cut {
            Some(label) => Some(net.cut_point(label)?.id),
            None => None,
        };
        let clock = SimClock::new();
        let spec = cfg.primary();
        let mut client_ep = Endpoint::new("client", cfg.client_device.clone(), clock.clone());
        let mut server_ep = Endpoint::new(&spec.name, spec.device.clone(), clock);
        client_ep.install_model(net.clone(), params(cfg, &net)?, cfg.exec_mode, cut, seed);
        server_ep.install_model(net.clone(), params(cfg, &net)?, cfg.exec_mode, cut, seed);
        let url = apps::synthetic_image_data_url(seed, cfg.image_bytes);
        let (app, trigger) = match cut {
            Some(_) => (
                apps::partial_inference_app(&url),
                apps::PARTIAL_OFFLOAD_EVENT,
            ),
            None => (apps::full_inference_app(&url), apps::FULL_OFFLOAD_EVENT),
        };
        client_ep.browser.load_html(&app)?;
        client_ep.browser.set_offload_trigger(Some(trigger));
        Ok(Pair {
            client: client_ep,
            server: server_ep,
            options: cfg.snapshot.clone(),
            use_deltas: cfg.use_deltas,
            trigger,
            agreed: None,
        })
    }

    fn heap_cells(&self) -> i64 {
        (self.client.browser.core().heap.len() + self.server.browser.core().heap.len()) as i64
    }

    /// Replays one round on the image `image_url`.
    fn round(&mut self, image_url: &str, parse: bool) -> Result<Round, OffloadError> {
        let mut r = Round::default();
        let heap_before = self.heap_cells();
        let photo = self
            .client
            .browser
            .core()
            .doc
            .get_element_by_id("photo")
            .ok_or_else(|| OffloadError::Protocol("app lost its photo element".into()))?;
        self.client
            .browser
            .core_mut()
            .doc
            .set_attr(photo, "src", image_url)?;
        self.client.browser.click("load")?;
        self.client.run()?;
        r.steps += self.client.browser.steps();
        self.client.browser.click("infer")?;
        let outcome = self.client.run()?;
        r.steps += self.client.browser.steps();
        if !matches!(outcome, RunOutcome::OffloadPoint { .. }) {
            return Err(OffloadError::Protocol(format!(
                "expected offload point, got {outcome:?}"
            )));
        }

        // Uplink: a delta against the agreed base when there is one.
        if let (true, Some(base)) = (self.use_deltas, self.agreed.as_ref()) {
            let t = Instant::now();
            let captured = self.client.browser.capture_delta(base, &self.options)?;
            r.capture += t.elapsed();
            if let DeltaCapture::Delta(delta) = captured {
                r.up_bytes = delta.size_bytes();
                r.changed_globals += delta.stats().changed_globals;
                let t = Instant::now();
                self.server.browser.apply_delta(&delta)?;
                r.restore += t.elapsed();
                r.steps += self.server.browser.steps();
                r.delta_up = true;
            }
        }
        if !r.delta_up {
            let t = Instant::now();
            let snapshot = self.client.browser.capture_snapshot(&self.options)?;
            r.capture += t.elapsed();
            r.up_bytes = snapshot.size_bytes();
            let t = Instant::now();
            self.server.browser.restore_snapshot(&snapshot)?;
            r.restore += t.elapsed();
            r.steps += self.server.browser.steps();
            if parse {
                for script in html::parse_document(snapshot.html())?.scripts {
                    let t = Instant::now();
                    std::hint::black_box(parser::parse_program(&script)?);
                    r.parse += t.elapsed();
                    r.parse_bytes += script.len() as u64;
                }
            }
        }
        let server_base = self.server.browser.state_base();

        // The offloaded handler runs on the server.
        let t = Instant::now();
        self.server.run()?;
        r.server_run = t.elapsed();
        r.steps += self.server.browser.steps();

        // Downlink: a delta only when the uplink was one.
        if self.use_deltas && r.delta_up {
            let t = Instant::now();
            let captured = self
                .server
                .browser
                .capture_delta(&server_base, &self.options)?;
            r.capture += t.elapsed();
            if let DeltaCapture::Delta(delta) = captured {
                r.down_bytes = delta.size_bytes();
                r.changed_globals += delta.stats().changed_globals;
                let t = Instant::now();
                self.client.browser.apply_delta(&delta)?;
                r.restore += t.elapsed();
                r.steps += self.client.browser.steps();
                r.delta_down = true;
            }
        }
        if !r.delta_down {
            let t = Instant::now();
            let snapshot = self.server.browser.capture_snapshot(&self.options)?;
            r.capture += t.elapsed();
            r.down_bytes = snapshot.size_bytes();
            let t = Instant::now();
            self.client.browser.restore_snapshot(&snapshot)?;
            r.restore += t.elapsed();
            r.steps += self.client.browser.steps();
        }

        // The result lands on the client's screen; re-arm for next time.
        self.client.browser.set_offload_trigger(None);
        self.client.run()?;
        r.steps += self.client.browser.steps();
        self.client.browser.set_offload_trigger(Some(self.trigger));
        self.agreed = Some(self.client.browser.state_base());
        r.label = self.client.browser.element_text("result")?.to_string();
        r.heap_cells = self.heap_cells() - heap_before;
        Ok(r)
    }
}

fn params(cfg: &SessionConfig, net: &Network) -> Result<ParamStore, OffloadError> {
    Ok(match cfg.exec_mode {
        ExecMode::Real => net.init_params(cfg.seed)?,
        ExecMode::Synthetic { .. } => ParamStore::empty(net.name()),
    })
}

/// Replays `client`'s first two rounds of a session run under `cfg` by an
/// engine seeded `engine_seed`: round 1 ships full snapshots, round 2
/// deltas (when `cfg.use_deltas`).
///
/// # Errors
///
/// Propagates app, snapshot and interpreter failures.
pub fn replay(
    cfg: &SessionConfig,
    client: usize,
    engine_seed: u64,
) -> Result<[Round; 2], OffloadError> {
    let mut pair = Pair::new(cfg, client)?;
    let url = |round: u64| {
        let image = round_image_seed(engine_seed, client as u64, round);
        apps::synthetic_image_data_url(image, cfg.image_bytes)
    };
    let first = pair.round(&url(1), true)?;
    let second = pair.round(&url(2), false)?;
    Ok([first, second])
}

/// Wall time of the model's synthetic forward passes.
#[derive(Debug, Clone, Default)]
pub struct Forward {
    /// `Network::forward`, input to output.
    pub full: Duration,
    /// `Network::forward_until` the cut (`None` without a cut).
    pub until: Option<Duration>,
    /// `Network::forward_from` the cut (`None` without a cut).
    pub from: Option<Duration>,
    /// Output elements of one full pass, summed over every node's output
    /// shape (computed from shapes, not counted during the pass).
    pub elems: usize,
    /// The cut's feature tensor (`None` without a cut).
    pub feature: Option<Tensor>,
}

/// Times `cfg`'s model forward passes: the full pass, and with a cut the
/// two halves.
///
/// # Errors
///
/// Propagates model failures.
pub fn forward(cfg: &SessionConfig) -> Result<Forward, OffloadError> {
    let net = zoo::by_name(&cfg.model)?;
    let params = params(cfg, &net)?;
    let input = Tensor::zeros(net.input_shape().dims())?;
    let t = Instant::now();
    std::hint::black_box(net.forward(&params, &input, cfg.exec_mode)?);
    let full = t.elapsed();
    let elems = net
        .iter()
        .skip(1)
        .map(|(id, _, _)| net.output_shape(id).map(|s| s.volume()).unwrap_or(0))
        .sum();
    let mut out = Forward {
        full,
        elems,
        ..Forward::default()
    };
    if let Some(label) = &cfg.cut {
        let cut: NodeId = net.cut_point(label)?.id;
        let t = Instant::now();
        let front = net.forward_until(&params, &input, cut, cfg.exec_mode)?;
        out.until = Some(t.elapsed());
        let feature = front.output(cut)?.clone();
        let t = Instant::now();
        std::hint::black_box(net.forward_from(&params, cut, feature.clone(), cfg.exec_mode)?);
        out.from = Some(t.elapsed());
        out.feature = Some(feature);
    }
    Ok(out)
}

/// Wall time of `snapedge_tensor::serialize`'s float-text functions on
/// one tensor.
#[derive(Debug, Clone, Default)]
pub struct FloatText {
    /// `to_js_text`.
    pub to_text: Duration,
    /// `js_text_size`.
    pub size: Duration,
    /// `from_js_text`.
    pub from_text: Duration,
    /// Elements in the tensor.
    pub elems: usize,
    /// Bytes of text.
    pub bytes: usize,
}

/// Times the float-text round trip of `t`.
///
/// # Errors
///
/// Returns a message when the text does not parse back to the same
/// values, or its size disagrees with `js_text_size`.
pub fn float_text(t: &Tensor) -> Result<FloatText, String> {
    let start = Instant::now();
    let text = serialize::to_js_text(t);
    let to_text = start.elapsed();
    let start = Instant::now();
    let size = std::hint::black_box(serialize::js_text_size(t));
    let size_time = start.elapsed();
    let start = Instant::now();
    let back = serialize::from_js_text(&text).map_err(|e| e.to_string())?;
    let from_text = start.elapsed();
    if size != text.len() {
        return Err(format!(
            "js_text_size says {size} bytes, to_js_text wrote {}",
            text.len()
        ));
    }
    if back.len() != t.len()
        || back
            .iter()
            .zip(t.data())
            .any(|(a, b)| a.to_bits() != b.to_bits())
    {
        return Err("float text did not round-trip".to_string());
    }
    Ok(FloatText {
        to_text,
        size: size_time,
        from_text,
        elems: t.len(),
        bytes: text.len(),
    })
}
