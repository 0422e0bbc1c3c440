//! One benchmark run: set up, repeat engine runs until the time is up,
//! check every result, and derive the metrics.
//!
//! With tracing off a run reports the end-to-end metrics. With tracing on
//! it alternates untraced and traced engine runs, replays one round layer
//! by layer (see [`crate::decompose`]) and reports the per-layer metrics.

use crate::catalog::PER_LAYER;
use crate::decompose::{self, FloatText, Forward, Round};
use crate::epoch::{run_kind, setup_only, Epoch, References};
use crate::host::{reference_rate, NOMINAL_RATE};
use crate::plan::{Kind, Plan};
use crate::stats::{mean, median, pct, proc_status_mib, rank, ratio, Pct};
use snapedge_core::OffloadError;
use std::time::{Duration, Instant};

/// How many times a run builds the workload and engine without running
/// them after each engine run, to time set-up (the engine run's own
/// set-up adds a sample). Spreading the samples over the run, on a warm
/// heap, keeps the median from resting on the first milliseconds.
pub const SETUPS_PER_EPOCH: usize = 4;

/// How many times the traced run replays the decomposed round and times
/// the forward passes and float text; medians are reported.
pub const LAYER_REPS: usize = 3;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value; `None` when too few samples support it.
    pub value: Option<f64>,
    /// Samples the value was derived from.
    pub n: usize,
    /// What the value covers, when that needs saying.
    pub note: &'static str,
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Rounds attempted.
    pub attempted: usize,
    /// Rounds that erred or failed a check (plus failed layer checks).
    pub failed: usize,
    /// What failed, when something did.
    pub errors: Vec<String>,
    /// Engine runs made (untraced, traced).
    pub epochs: (usize, usize),
    /// Completed rounds per second of each untraced engine run.
    pub epoch_rates: Vec<f64>,
    /// Reference-loop runs per second around each untraced engine run.
    pub host_rates: Vec<f64>,
    /// End-to-end metrics (always).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
}

fn metric(name: &'static str, unit: &'static str, value: f64, n: usize) -> Metric {
    Metric {
        name,
        unit,
        value: Some(value),
        n,
        note: "",
    }
}

fn from_pct(name: &'static str, unit: &'static str, p: Pct) -> Metric {
    Metric {
        name,
        unit,
        value: p.value,
        n: p.n,
        note: "",
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs workload `kind` under `seed` for about `seconds` seconds.
///
/// # Errors
///
/// Returns an error when the workload cannot be set up or no engine run
/// completes; failures of individual rounds are counted in the outcome
/// instead.
pub fn run(kind: Kind, seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let plan = Plan::new(kind, seed);
    // The reference labels are computed before anything is timed.
    let refs = References::of(&plan).map_err(|e| format!("reference run: {e}"))?;
    let mut setups = Vec::new();

    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut plain: Vec<Epoch> = Vec::new();
    let mut traced: Vec<Epoch> = Vec::new();
    let mut peak_rss = None;
    let mut attempted = 0;
    let mut failed = 0;
    let mut errors = Vec::new();
    // The host's speed around each untraced engine run: the mean of the
    // reference loop's rate just before and just after it.
    let mut host_rates = Vec::new();
    let mut host_before = reference_rate();
    loop {
        let trace_this = trace && plain.len() > traced.len();
        let epoch = match run_kind(&plan, &refs, trace_this) {
            Ok(epoch) => epoch,
            // A broken engine run fails all it attempted and ends the run.
            Err(broken) => {
                attempted += broken.attempted;
                failed += broken.attempted;
                errors.push(broken.error);
                break;
            }
        };
        // Peak memory is read after the first engine run, so it does not
        // depend on how many runs fit in the time.
        if peak_rss.is_none() {
            peak_rss = proc_status_mib("VmHWM");
        }
        let host_after = reference_rate();
        if !trace_this {
            host_rates.push(0.5 * (host_before + host_after));
        }
        host_before = host_after;
        setups.push(epoch.setup);
        for _ in 0..SETUPS_PER_EPOCH {
            setups.push(setup_only(&plan).map_err(|e| format!("set-up: {e}"))?);
        }
        if trace_this {
            traced.push(epoch);
        } else {
            plain.push(epoch);
        }
        let paired = !trace || plain.len() == traced.len();
        if Instant::now() >= deadline && paired {
            break;
        }
    }
    if plain.is_empty() || (trace && traced.is_empty()) {
        return Err(format!("no engine run completed: {}", errors.join("; ")));
    }

    // Every engine run replays the same seed, so its virtual results
    // must equal the first run's.
    let reference = plain[0].virt.fingerprint();
    for epoch in plain.iter().chain(&traced) {
        attempted += epoch.attempted;
        failed += epoch.failed;
        errors.extend(epoch.errors.iter().cloned());
        if epoch.failed == 0 && epoch.virt.fingerprint() != reference {
            failed += epoch.attempted;
            errors.push("an engine run replaying the same seed gave other virtual results".into());
        }
    }
    if traced
        .iter()
        .any(|e| e.virt.breakdown != traced[0].virt.breakdown)
    {
        failed += 1;
        errors.push("traced engine runs disagree on the phase breakdown".into());
    }

    let per_layer = if trace {
        let layers = Layers::measure(&plan, &refs, &plain[0])
            .map_err(|e| format!("decomposed round: {e}"))?;
        failed += layers.failed;
        errors.extend(layers.errors.iter().cloned());
        per_layer(kind, &plain, &traced, &layers)
    } else {
        Vec::new()
    };
    let end_to_end = end_to_end(
        &plain,
        &host_rates,
        &setups,
        peak_rss.unwrap_or(0.0),
        attempted,
        failed,
    );
    Ok(Outcome {
        attempted,
        failed,
        errors,
        epochs: (plain.len(), traced.len()),
        epoch_rates: epoch_rates(&plain),
        host_rates,
        end_to_end,
        per_layer,
    })
}

/// The median over engine runs of completed rounds per second of
/// `Engine::run` wall time, and the rounds completed.
fn rounds_per_s(epochs: &[Epoch]) -> (f64, usize) {
    let rounds: usize = epochs.iter().map(Epoch::completed).sum();
    (median(&epoch_rates(epochs)), rounds)
}

/// Completed rounds per second of each engine run's wall time.
fn epoch_rates(epochs: &[Epoch]) -> Vec<f64> {
    epochs
        .iter()
        .map(|e| ratio(e.completed() as f64, e.run.as_secs_f64()))
        .collect()
}

fn end_to_end(
    plain: &[Epoch],
    host_rates: &[f64],
    setups: &[Duration],
    peak_rss: f64,
    attempted: usize,
    failed: usize,
) -> Vec<Metric> {
    let (rps, rounds) = rounds_per_s(plain);
    let normalized: Vec<f64> = epoch_rates(plain)
        .iter()
        .zip(host_rates)
        .map(|(rate, host)| rate * NOMINAL_RATE / host)
        .collect();
    let wall: Vec<f64> = plain
        .iter()
        .flat_map(|e| e.round_wall.iter().map(|&d| ms(d)))
        .collect();
    let first = &plain[0].virt;
    // Click-to-result per session round; the modeled fleet's sojourn
    // percentiles come from its fleet report.
    let latency_s: Vec<f64> = first.rounds.iter().map(|r| r.total.as_secs_f64()).collect();
    let (virt_p50, virt_p99) = if latency_s.is_empty() {
        let l = &first.fleet.latency;
        let of = |p: f64, v: Duration| Pct {
            value: rank(l.count, p).map(|_| v.as_secs_f64()),
            n: l.count,
        };
        (of(0.5, l.p50), of(0.99, l.p99))
    } else {
        (pct(&latency_s, 0.5), pct(&latency_s, 0.99))
    };
    let setup_s: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
    vec![
        metric("rounds_per_s", "1/s", rps, rounds),
        Metric {
            note: "scaled to a host running the reference loop at its nominal rate",
            ..metric("rounds_per_s_norm", "1/s", median(&normalized), rounds)
        },
        from_pct("round_wall_ms_p50", "ms", pct(&wall, 0.5)),
        from_pct("round_wall_ms_p90", "ms", pct(&wall, 0.9)),
        from_pct("virt_latency_s_p50", "s", virt_p50),
        from_pct("virt_latency_s_p99", "s", virt_p99),
        metric("setup_s", "s", median(&setup_s), setup_s.len()),
        metric("peak_rss_mib", "MiB", peak_rss, 1),
        metric(
            "error_rate",
            "ratio",
            ratio(failed as f64, attempted as f64),
            attempted,
        ),
    ]
}

/// Checks that a decomposed replay of client 0's first two rounds shipped
/// exactly the bytes the session shipped in `first` (an engine run of the
/// same plan), and showed the client-only label. Returns one message per
/// mismatching round.
pub fn check_fidelity(first: &Epoch, replayed: &[Round; 2], refs: &References) -> Vec<String> {
    let mut mismatches = Vec::new();
    for (i, replayed) in replayed.iter().enumerate() {
        let round = i + 1;
        let session = first
            .round_ids
            .iter()
            .position(|&c| c == (0, round))
            .and_then(|at| first.virt.rounds.get(at));
        let same = session.is_some_and(|s| {
            (s.up_bytes, s.down_bytes, s.delta_up, s.delta_down)
                == (
                    replayed.up_bytes,
                    replayed.down_bytes,
                    replayed.delta_up,
                    replayed.delta_down,
                )
        });
        if !same || refs.get(0, round) != Some(replayed.label.as_str()) {
            mismatches.push(format!(
                "decomposed round {round} shipped {}/{} bytes (label {:?}), the session {:?}",
                replayed.up_bytes,
                replayed.down_bytes,
                replayed.label,
                session.map(|s| (s.up_bytes, s.down_bytes, &s.result))
            ));
        }
    }
    mismatches
}

/// Layer measurements outside the engine: the decomposed round, the
/// forward passes and the float text.
struct Layers {
    rounds: Vec<[Round; 2]>,
    forward: Vec<Forward>,
    float_text: Vec<FloatText>,
    failed: usize,
    errors: Vec<String>,
}

impl Layers {
    fn measure(plan: &Plan, refs: &References, first: &Epoch) -> Result<Layers, OffloadError> {
        let mut layers = Layers {
            rounds: Vec::new(),
            forward: Vec::new(),
            float_text: Vec::new(),
            failed: 0,
            errors: Vec::new(),
        };
        if !plan.kind.is_session() {
            return Ok(layers);
        }
        for _ in 0..LAYER_REPS {
            layers
                .rounds
                .push(decompose::replay(&plan.cfg, 0, plan.cfg.seed)?);
            let forward = decompose::forward(&plan.cfg)?;
            if let Some(feature) = &forward.feature {
                match decompose::float_text(feature) {
                    Ok(costs) => layers.float_text.push(costs),
                    Err(e) => {
                        layers.failed += 1;
                        layers.errors.push(e);
                    }
                }
            }
            layers.forward.push(forward);
        }
        let mismatches = check_fidelity(first, &layers.rounds[0], refs);
        layers.failed += mismatches.len();
        layers.errors.extend(mismatches);
        Ok(layers)
    }

    /// Median over repetitions of `f` applied to round `i` (0: the
    /// full-snapshot round, 1: the delta round).
    fn round(&self, i: usize, f: impl Fn(&Round) -> f64) -> f64 {
        let v: Vec<f64> = self.rounds.iter().map(|r| f(&r[i])).collect();
        median(&v)
    }

    fn forward(&self, f: impl Fn(&Forward) -> f64) -> f64 {
        median(&self.forward.iter().map(f).collect::<Vec<_>>())
    }

    fn float_text(&self, f: impl Fn(&FloatText) -> f64) -> f64 {
        median(&self.float_text.iter().map(f).collect::<Vec<_>>())
    }
}

/// A per-layer metric, with its unit from the catalog.
fn layer(name: &'static str, value: f64, n: usize) -> Metric {
    let unit = PER_LAYER
        .iter()
        .find(|&&(listed, _, _)| listed == name)
        .map(|&(_, unit, _)| unit)
        .expect("every per-layer metric is catalogued");
    metric(name, unit, value, n)
}

/// A per-layer percentile, with its unit from the catalog.
fn layer_pct(name: &'static str, p: Pct) -> Metric {
    Metric {
        value: p.value,
        ..layer(name, 0.0, p.n)
    }
}

fn per_layer(kind: Kind, plain: &[Epoch], traced: &[Epoch], layers: &Layers) -> Vec<Metric> {
    let rounds: usize = traced.iter().map(Epoch::completed).sum();
    let per_round = |total: f64| ratio(total, rounds as f64);
    let us_total = |f: &dyn Fn(&Epoch) -> Duration| -> f64 {
        traced.iter().map(|e| f(e).as_secs_f64() * 1e6).sum()
    };
    let calls = |f: &dyn Fn(&Epoch) -> &Vec<Duration>| -> Pct {
        let samples: Vec<f64> = traced
            .iter()
            .flat_map(|e| f(e).iter().map(|&d| ms(d)))
            .collect();
        pct(&samples, 0.5)
    };
    let first = &traced[0].virt;
    let fleet = &first.fleet;
    let admits: usize = fleet.servers.iter().map(|s| s.admits).sum();
    let rejects: usize = fleet.servers.iter().map(|s| s.rejects).sum();
    let utils: Vec<f64> = fleet.servers.iter().map(|s| s.utilization).collect();
    let waits = &fleet.queue_wait;
    let reported = first.rounds.len();
    let share = |f: &dyn Fn(&snapedge_core::RoundReport) -> bool| {
        ratio(
            first.rounds.iter().filter(|r| f(r)).count() as f64,
            reported as f64,
        )
    };
    let completed = fleet.completed;
    let (fallback_share, proactive_share) = if kind.is_session() {
        (share(&|r| r.fell_back), share(&|r| r.proactive))
    } else {
        (
            ratio(fleet.fallbacks as f64, completed as f64),
            ratio(rejects as f64, completed as f64),
        )
    };
    let growth: Vec<f64> = traced
        .iter()
        .filter_map(|e| e.rss.map(|(a, b)| ratio(b - a, e.completed() as f64)))
        .collect();
    let phases = first.breakdown.unwrap_or_default();
    let phase = |i: usize| ratio(phases[i].as_secs_f64(), reported as f64);
    let bytes = |f: &dyn Fn(&snapedge_core::RoundReport) -> u64| {
        mean(&first.rounds.iter().map(|r| f(r) as f64).collect::<Vec<_>>())
    };

    // The decomposed round; zero where the workload has no such layer.
    let full_bytes = layers.round(0, |r| (r.up_bytes + r.down_bytes) as f64);
    let capture_ms = layers.round(0, |r| ms(r.capture));
    let restore_ms = layers.round(0, |r| ms(r.restore));
    let forward_ms = layers.forward(|f| ms(f.full));
    let until_ms = layers.forward(|f| f.until.map_or(0.0, ms));
    let from_ms = layers.forward(|f| f.from.map_or(0.0, ms));
    // The server runs the rear half with a cut, the whole net without.
    let server_forward_ms = if until_ms > 0.0 { from_ms } else { forward_ms };
    let ns_per = |f: &dyn Fn(&FloatText) -> Duration| {
        layers.float_text(|c| ratio(f(c).as_secs_f64() * 1e9, c.elems as f64))
    };

    let (plain_rps, _) = rounds_per_s(plain);
    let (traced_rps, _) = rounds_per_s(traced);
    let n_layer = layers.rounds.len();
    let n_text = layers.float_text.len();
    vec![
        layer(
            "core.engine.self_us_per_round",
            per_round(us_total(&|e| e.run.saturating_sub(e.inside))),
            rounds,
        ),
        layer(
            "core.engine.workload_us_per_round",
            per_round(us_total(&|e| e.inside)),
            rounds,
        ),
        layer(
            "core.engine.log_entries_per_round",
            per_round(traced.iter().map(|e| e.log_entries as f64).sum()),
            rounds,
        ),
        layer(
            "core.balance.queue_wait_s_p50",
            waits.p50.as_secs_f64(),
            waits.count,
        ),
        layer(
            "core.balance.queue_wait_s_p99",
            waits.p99.as_secs_f64(),
            waits.count,
        ),
        layer(
            "core.balance.util_max",
            utils.iter().copied().fold(0.0, f64::max),
            utils.len(),
        ),
        layer(
            "core.balance.util_min",
            utils.iter().copied().fold(f64::INFINITY, f64::min),
            utils.len(),
        ),
        layer("core.balance.fairness", fleet.fairness, completed),
        layer(
            "core.balance.batches",
            fleet.servers.iter().map(|s| s.batches).sum::<usize>() as f64,
            completed,
        ),
        layer("core.balance.max_batch", fleet.max_batch as f64, completed),
        layer(
            "core.balance.reject_share",
            ratio(rejects as f64, admits as f64),
            admits,
        ),
        layer_pct("core.session.start_ms_p50", calls(&|e| &e.calls.start)),
        layer_pct("core.session.compute_ms_p50", calls(&|e| &e.calls.compute)),
        layer_pct("core.session.finish_ms_p50", calls(&|e| &e.calls.finish)),
        layer(
            "core.session.delta_up_share",
            share(&|r| r.delta_up),
            reported,
        ),
        layer(
            "core.session.delta_down_share",
            share(&|r| r.delta_down),
            reported,
        ),
        layer("core.session.fallback_share", fallback_share, completed),
        layer("core.session.proactive_share", proactive_share, completed),
        layer(
            "core.session.rss_growth_mib_per_round",
            median(&growth),
            growth.len(),
        ),
        layer("core.breakdown.exec_client_s", phase(0), reported),
        layer("core.breakdown.capture_client_s", phase(1), reported),
        layer("core.breakdown.transfer_up_s", phase(2), reported),
        layer("core.breakdown.restore_server_s", phase(3), reported),
        layer("core.breakdown.exec_server_s", phase(4), reported),
        layer("core.breakdown.capture_server_s", phase(5), reported),
        layer("core.breakdown.transfer_down_s", phase(6), reported),
        layer("core.breakdown.restore_client_s", phase(7), reported),
        layer(
            "net.link.up_bytes_per_round",
            bytes(&|r| r.up_bytes),
            reported,
        ),
        layer(
            "net.link.down_bytes_per_round",
            bytes(&|r| r.down_bytes),
            reported,
        ),
        layer("webapp.snapshot.capture_ms", capture_ms, n_layer),
        layer(
            "webapp.snapshot.capture_ns_per_byte",
            ratio(capture_ms * 1e6, full_bytes),
            n_layer,
        ),
        layer("webapp.snapshot.restore_ms", restore_ms, n_layer),
        layer(
            "webapp.snapshot.restore_ns_per_byte",
            ratio(restore_ms * 1e6, full_bytes),
            n_layer,
        ),
        layer(
            "webapp.delta.capture_ms",
            layers.round(1, |r| if r.delta_up { ms(r.capture) } else { 0.0 }),
            n_layer,
        ),
        layer(
            "webapp.delta.apply_ms",
            layers.round(1, |r| if r.delta_up { ms(r.restore) } else { 0.0 }),
            n_layer,
        ),
        layer(
            "webapp.delta.bytes",
            layers.round(1, |r| {
                if r.delta_up {
                    (r.up_bytes + r.down_bytes) as f64
                } else {
                    0.0
                }
            }),
            n_layer,
        ),
        layer(
            "webapp.delta.changed_globals",
            layers.round(1, |r| r.changed_globals as f64),
            n_layer,
        ),
        layer(
            "webapp.parser.parse_ns_per_byte",
            layers.round(0, |r| {
                ratio(r.parse.as_secs_f64() * 1e9, r.parse_bytes as f64)
            }),
            n_layer,
        ),
        layer(
            "webapp.interp.steps_per_round",
            layers.round(1, |r| r.steps as f64),
            n_layer,
        ),
        layer(
            "webapp.heap.cells_per_round",
            layers.round(1, |r| r.heap_cells as f64),
            n_layer,
        ),
        Metric {
            note: "on the cut's feature tensor; snapshot capture renders floats itself",
            ..layer(
                "tensor.serialize.to_js_text_ns_per_elem",
                ns_per(&|c| c.to_text),
                n_text,
            )
        },
        layer(
            "tensor.serialize.js_text_size_ns_per_elem",
            ns_per(&|c| c.size),
            n_text,
        ),
        layer(
            "tensor.serialize.from_js_text_ns_per_elem",
            ns_per(&|c| c.from_text),
            n_text,
        ),
        layer(
            "tensor.serialize.bytes_per_elem",
            layers.float_text(|c| ratio(c.bytes as f64, c.elems as f64)),
            n_text,
        ),
        layer("dnn.net.forward_ms", forward_ms, layers.forward.len()),
        layer("dnn.net.forward_until_ms", until_ms, layers.forward.len()),
        layer("dnn.net.forward_from_ms", from_ms, layers.forward.len()),
        Metric {
            note: "computed from the output shapes of every node, not counted",
            ..layer(
                "dnn.net.elems_per_forward",
                layers.forward(|f| f.elems as f64),
                layers.forward.len(),
            )
        },
        Metric {
            note: "server Endpoint::run of the delta round minus its forward pass, floored at 0",
            ..layer(
                "core.endpoint.run_self_ms",
                (layers.round(1, |r| ms(r.server_run)) - server_forward_ms).max(0.0),
                n_layer,
            )
        },
        layer(
            "bench.trace_overhead_share",
            ratio(traced_rps, plain_rps),
            traced.len(),
        ),
    ]
}
