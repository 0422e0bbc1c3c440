//! `snapedge` — command-line driver for the offloading simulator. Every
//! subcommand and flag is declared once, in [`COMMANDS`] and [`FLAGS`];
//! `snapedge --help` prints the usage generated from them.

use snapedge_analyze::{
    analyze_html, analyze_script, effect_summary, effect_summary_html, AnalysisOptions,
    AnalysisReport, EffectOptions, EffectSummary,
};
use snapedge_core::{
    apps, parse_servers, run_scenario, vm_install, ArrivalProcess, Engine, FleetReport,
    MeterLimits, OffloadSession, RetryPolicy, SessionConfig, Strategy, Workload,
};
use snapedge_dnn::{zoo, ModelBundle};
use snapedge_net::{FaultPlan, LinkConfig};
use snapedge_vmsynth::SynthesisConfig;
use snapedge_webapp::HostEffect;
use std::fmt::Display;
use std::process::ExitCode;
use std::time::Duration;

/// What a flag's value must parse as: `true`/`on` or `false`/`off`
/// (absent means off), non-negative seconds, a non-negative integer, a
/// float, or free text and spec strings shown as the given placeholder.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Bool,
    Seconds,
    Count,
    Float,
    Text(&'static str),
}

/// One CLI flag: its name (without `--`), value kind and help line.
struct Flag {
    name: &'static str,
    kind: Kind,
    help: &'static str,
}

const fn flag(name: &'static str, kind: Kind, help: &'static str) -> Flag {
    Flag { name, kind, help }
}

/// Every flag the CLI knows, each declared once.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    flag("model", Kind::Text("<name>"), "zoo model (default googlenet)"),
    flag("strategy", Kind::Text("<name>"), "client|server|before-ack|after-ack|partial (default after-ack)"),
    flag("cut", Kind::Text("<label>"), "partial-inference cut (default 1st_pool)"),
    flag("mbps", Kind::Float, "link rate in Mbps (default 30)"),
    flag("timeline", Kind::Bool, "print the client/network/server Gantt chart"),
    flag("trace", Kind::Text("<file.jsonl>"), "write the JSONL event trace"),
    flag("fault-plan", Kind::Text("<spec>"), "link faults on the primary (see below)"),
    flag("retry", Kind::Text("<spec>"), "recover from transient faults (see below)"),
    flag("servers", Kind::Text("<spec>"), "ordered edge fleet (see below)"),
    flag("predict", Kind::Bool, "consult the link-health predictor (see below)"),
    flag("meter", Kind::Text("<spec>"), "per-tenant execution caps (see below)"),
    flag("effects", Kind::Bool, "run the static effect pass (see below)"),
    flag("rounds", Kind::Count, "inference rounds (session default 3; fleet cap)"),
    flag("no-deltas", Kind::Bool, "send a full snapshot every round"),
    flag("clients", Kind::Count, "concurrent clients (default 100)"),
    flag("arrival", Kind::Text("<spec>"), "traffic shape (default closed; see below)"),
    flag("duration", Kind::Seconds, "virtual horizon (default 60)"),
    flag("seed", Kind::Count, "fleet seed (default 42)"),
    flag("real", Kind::Bool, "one real browser session per client"),
    flag("balance", Kind::Bool, "queue-aware selection and admission (see below)"),
    flag("fair-share", Kind::Bool, "deficit round robin over tenants (see below)"),
    flag("batch-window", Kind::Seconds, "batch co-queued admissions (see below)"),
    flag("all-apps", Kind::Bool, "sweep every paper model (the default)"),
    flag("html", Kind::Text("<file>"), "analyze a MiniJS or HTML file"),
    flag("report", Kind::Text("<out.html>"), "write an escaped HTML report (with --html)"),
    flag("mode", Kind::Text("<app|snapshot|delta>"), "analysis mode (default app)"),
    flag("hosts", Kind::Text("<a,b>"), "allowlisted host objects (default model)"),
];

/// One subcommand: its name, the space-separated flags it admits and its
/// handler.
struct Command {
    name: &'static str,
    flags: &'static str,
    run: fn(&Args) -> Result<(), String>,
}

impl Command {
    fn flags(&self) -> impl Iterator<Item = &'static str> {
        self.flags.split_whitespace()
    }
}

/// Every subcommand with the flags it admits.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "run", run: cmd_run, flags: "model strategy cut mbps timeline trace \
        fault-plan retry servers predict meter effects" },
    Command { name: "sweep", run: cmd_sweep, flags: "model mbps" },
    Command { name: "session", run: cmd_session, flags: "model rounds no-deltas \
        fault-plan retry servers predict meter effects" },
    Command { name: "fleet", run: cmd_fleet, flags: "model clients arrival duration rounds \
        servers fault-plan mbps seed retry real predict meter balance fair-share batch-window" },
    Command { name: "install", run: cmd_install, flags: "model mbps" },
    Command { name: "models", run: cmd_models, flags: "" },
    Command { name: "analyze", run: cmd_analyze, flags: "all-apps model cut html report \
        effects mode hosts" },
];

const PROSE: &str = "  --fault-plan injects link faults at virtual times, e.g.
      'down@2..5,degrade@7..9x0.25,corrupt@10..11'
    entries hit both links unless prefixed 'up:'/'down:' (or 'both:'), e.g.
      'up:down@2..5,down:corrupt@1..2'
  --retry enables recovery from transient faults:
      'default' or 'attempts=<n>,deadline=<s>,backoff=<s>,backoff-max=<s>'
  --servers declares an ordered edge fleet for estimator-driven failover:
      'edge-a;edge-b,mbps=12,latency=0.005;edge-c,up=down@2..5+corrupt@7..8'
    ';'-separated entries, each 'name[,key=value...]' inheriting the primary
    link; keys: mbps, bps, latency (s), overhead (B), loss, and fault plans
    up/down/faults ('+' separates windows). Carries its own fault plans, so
    it cannot be combined with --fault-plan.
  --predict true consults the link-health predictor before each migration:
    when the measured fault rate and bandwidth trend say the offload loses
    after its expected retry backoff, the inference completes locally
    before any retry budget burns. Off by default (bit-identical replay).
  --meter caps per-tenant execution on edge servers:
      'ops=<n>,heap=<cells>,str=<chars>,depth=<frames>,slice=<ms>'
    any subset of keys; exceeding a cap kills the tenant's snapshot on
    that server (fatal-for-this-server: no retries burn, the round fails
    over to the next server or completes locally). Per-server 'meter='
    keys in --servers override the fleet-wide spec ('+' joins nested
    keys). Off by default (bit-identical replay).
  --effects true runs the static effect pass before any state ships:
    apps that reach clock/random/IO hosts complete locally instead of
    shipping unreplayable state, and rounds whose static op floor
    already exceeds the meter budget are refused before any bytes burn.
    With 'snapedge analyze' it prints the per-function effect lattice
    and cost bounds. Off by default (bit-identical replay).
  --arrival shapes fleet traffic (snapedge fleet):
      'closed[:think_s]'               closed loop, per-client think time
      'poisson:rate_hz'                open-loop Poisson, fleet-wide rate
      'diurnal:base_hz:peak_hz:period_s'  raised-cosine rate curve
    Open-loop arrivals landing on a busy client queue client-side. By
    default the fleet runs the calibrated analytic workload (tens of
    thousands of clients in milliseconds); --real true builds one real
    browser session per client instead.
  --balance true prices each server's predicted queueing delay into
    server selection and admission (snapedge fleet): modeled clients
    pick the least-predicted-sojourn server instead of rotating, real
    sessions add the predicted wait to failover ranking and degrade a
    round to local when the queue erases the offload win. Off by
    default (bit-identical replay).
  --fair-share true grants each server CPU by deficit round robin over
    tenants instead of arrival order, so one chatty client cannot
    starve co-located clients. --batch-window <s> opportunistically
    batches admissions co-queued within the window behind a busy CPU.
    Both off by default (bit-identical replay).";

fn find_flag(name: &str) -> Option<&'static Flag> {
    FLAGS.iter().find(|f| f.name == name)
}

/// `--name <value>` as shown in the synopsis and the flag list.
fn flag_usage(flag: &Flag) -> String {
    let value = match flag.kind {
        Kind::Bool => "true",
        Kind::Seconds => "<s>",
        Kind::Count => "<n>",
        Kind::Float => "<rate>",
        Kind::Text(placeholder) => placeholder,
    };
    format!("--{} {value}", flag.name)
}

/// The usage text: a synopsis per subcommand and one line per flag, both
/// generated from [`COMMANDS`] and [`FLAGS`], then the spec prose.
fn usage() -> String {
    let mut out = String::from("usage:\n");
    for cmd in COMMANDS {
        let mut line = format!("  snapedge {:<7}", cmd.name);
        for flag in cmd.flags().filter_map(find_flag) {
            let item = format!("[{}]", flag_usage(flag));
            if line.len() + 1 + item.len() > 80 {
                out.push_str(line.trim_end());
                out.push('\n');
                line = " ".repeat(18);
            }
            line.push(' ');
            line.push_str(&item);
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out.push_str("  snapedge help    (also --help or -h)\n\nflags:\n");
    for flag in FLAGS {
        out.push_str(&format!("  {:<28} {}\n", flag_usage(flag), flag.help));
    }
    out.push('\n');
    out.push_str(PROSE);
    out
}

/// A parsed command line: the subcommand and its `--flag value` pairs,
/// each checked against the subcommand's admitted flags.
struct Args {
    command: &'static Command,
    flags: Vec<(String, String)>,
}

impl Args {
    /// Parses `raw`; `Ok(None)` asks for help (`help`, `--help`, `-h`).
    /// Unknown subcommands and flags, stray arguments and missing values
    /// are errors.
    fn from_vec(raw: Vec<String>) -> Result<Option<Args>, String> {
        let mut iter = raw.into_iter();
        let name = iter.next().unwrap_or_default();
        let help = |a: &String| a == "--help" || a == "-h";
        if name == "help" || help(&name) || iter.as_slice().iter().any(help) {
            return Ok(None);
        }
        let command = COMMANDS
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| "missing or unknown subcommand".to_string())?;
        let mut flags = Vec::new();
        while let Some(arg) = iter.next() {
            let Some(flag) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument {arg:?} for `{name}`"));
            };
            if !command.flags().any(|f| f == flag) {
                return Err(format!("unknown flag --{flag} for `{name}`"));
            }
            let value = iter
                .next()
                .ok_or_else(|| format!("flag --{flag} needs a value"))?;
            flags.push((flag.to_string(), value));
        }
        Ok(Some(Args { command, flags }))
    }

    /// The last value given for `--name` (later flags win).
    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// `--name` parsed by `parse`, with errors naming the flag.
    fn parsed<T, E: Display>(
        &self,
        name: &str,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<Option<T>, String> {
        self.flag(name)
            .map(|v| parse(v).map_err(|e| format!("bad --{name} {v:?}: {e}")))
            .transpose()
    }

    /// A [`Kind::Bool`] flag; absent means off.
    fn bool(&self, name: &str) -> Result<bool, String> {
        let value = self.parsed(name, |v| match v {
            "true" | "on" => Ok(true),
            "false" | "off" => Ok(false),
            _ => Err("use true/false"),
        })?;
        Ok(value.unwrap_or(false))
    }

    fn model(&self) -> String {
        self.flag("model").unwrap_or("googlenet").to_string()
    }

    /// `--mbps`, rejected unless a link at that rate can carry a message
    /// (a zero, negative, NaN or vanishing rate would never deliver).
    fn mbps(&self) -> Result<f64, String> {
        let rate = self.parsed("mbps", str::parse::<f64>)?.unwrap_or(30.0);
        LinkConfig::mbps(rate)
            .transfer_time(0)
            .map_err(|e| format!("bad --mbps {rate:?}: {e}"))?;
        Ok(rate)
    }
}

/// Seconds as a [`Duration`]: negative, NaN and too-large values are
/// errors, never panics.
fn parse_seconds(text: &str) -> Result<Duration, String> {
    let secs: f64 = text.parse().map_err(|e| format!("{e}"))?;
    Duration::try_from_secs_f64(secs).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let outcome = Args::from_vec(std::env::args().skip(1).collect()).and_then(|args| match args {
        Some(args) => (args.command.run)(&args),
        None => {
            println!("{}", usage());
            Ok(())
        }
    });
    let Err(msg) = outcome else {
        return ExitCode::SUCCESS;
    };
    eprintln!("error: {msg}");
    eprintln!("{}", usage());
    ExitCode::FAILURE
}

/// The one config every offloading subcommand runs: the paper defaults
/// overridden by whichever config flags the subcommand admits.
/// `--servers` replaces the whole fleet (each entry inherits the primary's
/// device and link as a template) and carries per-server fault plans
/// through its `up=`/`down=`/`faults=` keys, so combining it with
/// `--fault-plan` is rejected as ambiguous; without it, `--fault-plan`
/// lands on the primary's links.
fn session_config(args: &Args) -> Result<SessionConfig, String> {
    let mut cfg = SessionConfig::paper(&args.model());
    cfg.primary_mut().link = LinkConfig::mbps(args.mbps()?);
    if let Some(spec) = args.flag("servers") {
        if args.flag("fault-plan").is_some() {
            return Err("--servers carries per-server fault plans; drop --fault-plan".into());
        }
        cfg.servers =
            parse_servers(spec, cfg.primary()).map_err(|e| format!("bad --servers: {e}"))?;
    } else if let Some(spec) = args.flag("fault-plan") {
        let primary = cfg.primary_mut();
        (primary.up_faults, primary.down_faults) = split_fault_plan(spec)?;
    }
    cfg.retry = args.parsed("retry", |spec| match spec {
        "default" | "on" => Ok(RetryPolicy::default()),
        spec => RetryPolicy::parse(spec),
    })?;
    cfg.meter = args.parsed("meter", MeterLimits::parse)?;
    cfg.predict = args.bool("predict")?;
    cfg.snapshot.effects = args.bool("effects")?;
    cfg.use_deltas = !args.bool("no-deltas")?;
    cfg.balance = args.bool("balance")?;
    cfg.fair_share = args.bool("fair-share")?;
    cfg.batch_window = args.parsed("batch-window", parse_seconds)?;
    if let Some(seed) = args.parsed("seed", str::parse)? {
        cfg.seed = seed;
    }
    Ok(cfg)
}

fn parse_strategy(args: &Args) -> Result<Strategy, String> {
    match args.flag("strategy").unwrap_or("after-ack") {
        "client" => Ok(Strategy::ClientOnly),
        "server" => Ok(Strategy::ServerOnly),
        "before-ack" => Ok(Strategy::OffloadBeforeAck),
        "after-ack" => Ok(Strategy::OffloadAfterAck),
        "partial" => Ok(Strategy::Partial),
        other => Err(format!("unknown strategy {other:?}")),
    }
}

/// Splits a `--fault-plan` spec into per-link plans. Entries apply to both
/// links unless prefixed `up:` / `down:` (or the explicit `both:`).
fn split_fault_plan(spec: &str) -> Result<(FaultPlan, FaultPlan), String> {
    let (mut up, mut down) = (Vec::new(), Vec::new());
    for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
        match entry.split_once(':') {
            Some(("up", rest)) => up.push(rest),
            Some(("down", rest)) => down.push(rest),
            _ => {
                let rest = entry.strip_prefix("both:").unwrap_or(entry);
                up.push(rest);
                down.push(rest);
            }
        }
    }
    let build = |entries: &[&str]| {
        FaultPlan::parse(&entries.join(",")).map_err(|e| format!("bad --fault-plan: {e}"))
    };
    Ok((build(&up)?, build(&down)?))
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let strategy = parse_strategy(args)?;
    let mut cfg = session_config(args)?;
    if strategy == Strategy::Partial {
        cfg.cut = Some(args.flag("cut").unwrap_or("1st_pool").to_string());
    }
    let timeline = args.bool("timeline")?;
    let report = run_scenario(&cfg, strategy).map_err(|e| e.to_string())?;
    println!("model:      {}", report.model);
    match &cfg.cut {
        Some(cut) => println!("strategy:   {:?} {{ cut: {cut:?} }}", report.strategy),
        None => println!("strategy:   {:?}", report.strategy),
    }
    println!("result:     {}", report.result);
    if let Some(name) = &report.server {
        let handoffs = report.handoff_count();
        if handoffs > 0 {
            println!("server:     {name} (after {handoffs} handoff(s))");
        } else if cfg.servers.len() > 1 {
            println!("server:     {name}");
        }
    }
    println!("total:      {:.3}s", report.total.as_secs_f64());
    let b = report.breakdown;
    println!(
        "breakdown:  exec(C) {:.3}s | capture(C) {:.3}s | up {:.3}s | restore(S) {:.3}s",
        b.exec_client.as_secs_f64(),
        b.capture_client.as_secs_f64(),
        b.transfer_up.as_secs_f64(),
        b.restore_server.as_secs_f64()
    );
    println!(
        "            exec(S) {:.3}s | capture(S) {:.3}s | down {:.3}s | restore(C) {:.3}s",
        b.exec_server.as_secs_f64(),
        b.capture_server.as_secs_f64(),
        b.transfer_down.as_secs_f64(),
        b.restore_client.as_secs_f64()
    );
    if let Some(ack) = report.ack_at {
        println!(
            "pre-send:   {} bytes, ACK at {:.3}s; snapshots {} B up / {} B down",
            report.model_upload_bytes,
            ack.as_secs_f64(),
            report.snapshot_up_bytes,
            report.snapshot_down_bytes
        );
    }
    if let Some(decision) = &report.prediction {
        let note = if report.proactive {
            " (completed locally before any retry)"
        } else {
            ""
        };
        println!("predict:    {}{note}", decision.label());
    }
    if report.fell_back {
        println!("fallback:   offload gave up; the inference completed locally");
    }
    let retries = report.retry_count();
    if retries > 0 || report.fault_time() > Duration::ZERO {
        println!(
            "resilience: {retries} retries | backoff {:.3}s | fault time {:.3}s",
            report.backoff_time().as_secs_f64(),
            report.fault_time().as_secs_f64()
        );
    }
    if timeline {
        println!("\ntimeline (C=client, N=network, S=server):");
        let spans = snapedge_core::timeline::spans(&report);
        print!("{}", snapedge_core::timeline::render_ascii(&spans, 50));
    }
    if let Some(path) = args.flag("trace") {
        std::fs::write(path, report.trace.to_jsonl())
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!(
            "trace:      {} events -> {path}",
            report.trace.events().len()
        );
    }
    Ok(())
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let model = args.model();
    let mbps = args.mbps()?;
    let base = session_config(args)?;
    println!("partition sweep for {model} at {mbps:.0} Mbps:");
    println!("{:<14} {:>10} {:>14}", "cut", "total(s)", "snapshot(MiB)");
    for cut in zoo::fig8_cuts(&model) {
        // "Offloading with Input" = full offloading.
        let strategy = if cut == "input" {
            Strategy::OffloadAfterAck
        } else {
            Strategy::Partial
        };
        let cfg = SessionConfig {
            cut: Some(cut.to_string()),
            ..base.clone()
        };
        let report = run_scenario(&cfg, strategy).map_err(|e| e.to_string())?;
        println!(
            "{:<14} {:>10.2} {:>14.2}",
            cut,
            report.total.as_secs_f64(),
            report.snapshot_up_bytes as f64 / (1024.0 * 1024.0)
        );
    }
    Ok(())
}

fn cmd_session(args: &Args) -> Result<(), String> {
    let rounds: u64 = args.parsed("rounds", str::parse)?.unwrap_or(3);
    let cfg = session_config(args)?;
    let predict = cfg.predict;
    let mut session = OffloadSession::new(cfg).map_err(|e| e.to_string())?;
    let mut header = format!(
        "{:>6} {:>8} {:>12} {:>12} {:>10} {:>15}",
        "round", "mode", "up bytes", "down bytes", "total", "server"
    );
    if predict {
        header.push_str(&format!(" {:>14}", "predict"));
    }
    println!("{header}");
    for round in 1..=rounds {
        let r = session.infer(round).map_err(|e| e.to_string())?;
        let mode = if r.proactive {
            "predict"
        } else if r.fell_back {
            "local"
        } else if r.delta_up {
            "delta"
        } else {
            "full"
        };
        let mut row = format!(
            "{:>6} {:>8} {:>12} {:>12} {:>9.2}s {:>15}",
            r.round,
            mode,
            r.up_bytes,
            r.down_bytes,
            r.total.as_secs_f64(),
            r.server
        );
        if predict {
            let predicted = r.prediction.as_ref().map(|d| d.label());
            row.push_str(&format!(" {:>14}", predicted.as_deref().unwrap_or("-")));
        }
        println!("{row}   {}", r.result);
    }
    Ok(())
}

/// Parses an `--arrival` spec: `closed[:think_s]`, `poisson:rate_hz`, or
/// `diurnal:base_hz:peak_hz:period_s`.
fn parse_arrival(spec: &str) -> Result<ArrivalProcess, String> {
    let mut parts = spec.split(':');
    let shape = parts.next().unwrap_or_default();
    let rest: Vec<&str> = parts.collect();
    let num = |s: &str, what: &str| -> Result<f64, String> {
        s.parse::<f64>().map_err(|e| format!("{what} {s:?}: {e}"))
    };
    let secs = |s: &str, what: &str| parse_seconds(s).map_err(|e| format!("{what} {s:?}: {e}"));
    match (shape, rest.as_slice()) {
        ("closed", []) => Ok(ArrivalProcess::ClosedLoop {
            think: Duration::from_secs(2),
        }),
        ("closed", [think]) => Ok(ArrivalProcess::ClosedLoop {
            think: secs(think, "think time")?,
        }),
        ("poisson", [rate]) => Ok(ArrivalProcess::Poisson {
            rate_hz: num(rate, "rate")?,
        }),
        ("diurnal", [base, peak, period]) => Ok(ArrivalProcess::Diurnal {
            base_hz: num(base, "base rate")?,
            peak_hz: num(peak, "peak rate")?,
            period: secs(period, "period")?,
        }),
        _ => Err("use closed[:think_s], poisson:rate_hz, \
                  or diurnal:base_hz:peak_hz:period_s"
            .to_string()),
    }
}

/// Shapes an engine from the shared fleet flags and runs it to completion.
fn run_fleet<W: Workload>(
    mut engine: Engine<W>,
    arrival: ArrivalProcess,
    duration: Duration,
    max_rounds: Option<usize>,
) -> Result<FleetReport, String> {
    engine = engine.arrival(arrival).duration(duration);
    if let Some(cap) = max_rounds {
        engine = engine.max_rounds(cap);
    }
    engine.run().map_err(|e| e.to_string())
}

fn cmd_fleet(args: &Args) -> Result<(), String> {
    let clients: usize = args.parsed("clients", str::parse)?.unwrap_or(100);
    let arrival = args.parsed("arrival", parse_arrival)?;
    let arrival = arrival.map_or_else(|| parse_arrival("closed"), Ok)?;
    let duration = args
        .parsed("duration", parse_seconds)?
        .unwrap_or(Duration::from_secs(60));
    let max_rounds: Option<usize> = args.parsed("rounds", str::parse)?;
    let real = args.bool("real")?;
    let cfg = session_config(args)?;
    let balancing = cfg.balance || cfg.fair_share || cfg.batch_window.is_some();
    println!(
        "fleet:      {} server(s), {} client(s), arrival {:?}, horizon {:.0}s, {} workload",
        cfg.servers.len(),
        clients,
        arrival,
        duration.as_secs_f64(),
        if real { "real-session" } else { "modeled" }
    );
    let report = if real {
        let engine = Engine::sessions(cfg, clients).map_err(|e| e.to_string())?;
        run_fleet(engine, arrival, duration, max_rounds)?
    } else {
        let engine = Engine::modeled(cfg, clients).map_err(|e| e.to_string())?;
        run_fleet(engine, arrival, duration, max_rounds)?
    };
    println!(
        "completed:  {} round(s) ({} fallback(s)) | makespan {:.3}s | throughput {:.1}/s",
        report.completed,
        report.fallbacks,
        report.makespan.as_secs_f64(),
        report.throughput_rps
    );
    println!(
        "latency:    p50 {:.3}s | p95 {:.3}s | p99 {:.3}s (mean {:.3}s, max {:.3}s)",
        report.latency.p50.as_secs_f64(),
        report.latency.p95.as_secs_f64(),
        report.latency.p99.as_secs_f64(),
        report.latency.mean.as_secs_f64(),
        report.latency.max.as_secs_f64()
    );
    println!(
        "queue wait: p50 {:.3}s | p95 {:.3}s | p99 {:.3}s (max {:.3}s)",
        report.queue_wait.p50.as_secs_f64(),
        report.queue_wait.p95.as_secs_f64(),
        report.queue_wait.p99.as_secs_f64(),
        report.queue_wait.max.as_secs_f64()
    );
    if report.total_ops > 0 || report.peak_heap > 0 {
        println!(
            "meter:      {} op(s) charged | peak heap {} cell(s)",
            report.total_ops, report.peak_heap
        );
    }
    if balancing {
        let rejects: usize = report.servers.iter().map(|s| s.rejects).sum();
        println!(
            "balance:    fairness {:.3} | {} admission reject(s) | max batch {}",
            report.fairness, rejects, report.max_batch
        );
    }
    for server in &report.servers {
        let mut row = format!(
            "server:     {:<16} {:>8} round(s) | busy {:.3}s | utilization {:.1}%",
            server.name,
            server.rounds,
            server.busy.as_secs_f64(),
            server.utilization * 100.0
        );
        if balancing {
            row.push_str(&format!(
                " | {} admit(s), {} reject(s), {} batch(es)",
                server.admits, server.rejects, server.batches
            ));
        }
        println!("{row}");
    }
    Ok(())
}

fn cmd_install(args: &Args) -> Result<(), String> {
    let model = args.model();
    let net = zoo::by_name(&model).map_err(|e| e.to_string())?;
    let bytes = ModelBundle::from_network(&net).total_bytes();
    let report = vm_install(
        &model,
        bytes,
        &LinkConfig::mbps(args.mbps()?),
        &SynthesisConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    println!(
        "overlay: {:.1} MiB (model {:.1} MiB inside)",
        report.overlay_bytes as f64 / (1024.0 * 1024.0),
        bytes as f64 / (1024.0 * 1024.0)
    );
    println!(
        "synthesis: upload {:.2}s + apply {:.2}s = {:.2}s",
        report.upload.as_secs_f64(),
        report.apply.as_secs_f64(),
        report.total().as_secs_f64()
    );
    Ok(())
}

fn cmd_models(_: &Args) -> Result<(), String> {
    for name in [
        "googlenet",
        "agenet",
        "gendernet",
        "tiny_cnn",
        "tiny_inception",
    ] {
        let net = zoo::by_name(name).map_err(|e| e.to_string())?;
        let profile = net.profile();
        println!(
            "{name}: {} layers, {:.1} MiB params, {:.2} GFLOPs",
            net.node_count(),
            profile.total_param_bytes() as f64 / (1024.0 * 1024.0),
            profile.total_flops() as f64 / 1e9
        );
        let cuts: Vec<String> = net.cut_points().iter().map(|c| c.label.clone()).collect();
        println!("  cuts: {}", cuts.join(", "));
    }
    Ok(())
}

/// Parses `--mode` / `--hosts` into analyzer options. Apps talk to the
/// Caffe.js `model` host, so it is in the allowlist by default.
fn parse_analysis_options(args: &Args) -> Result<AnalysisOptions, String> {
    let opts = match args.flag("mode").unwrap_or("app") {
        "app" => AnalysisOptions::app(),
        "snapshot" => AnalysisOptions::snapshot(),
        "delta" => AnalysisOptions::delta(Vec::new()),
        other => return Err(format!("unknown --mode {other:?}")),
    };
    let hosts = match args.flag("hosts") {
        Some(list) => list
            .split(',')
            .map(str::trim)
            .filter(|h| !h.is_empty())
            .map(str::to_string)
            .collect(),
        None => vec!["model".to_string()],
    };
    Ok(opts.with_hosts(hosts))
}

/// Builds the effect-pass host surface from `--hosts`. The CLI has no way
/// to register a live host object, so every allowlisted name is treated as
/// deterministic — sessions derive the real surface (with per-host effect
/// tags) from the browser they run in.
fn parse_effect_options(args: &Args) -> Result<EffectOptions, String> {
    let hosts = parse_analysis_options(args)?.hosts;
    let pairs = hosts
        .into_iter()
        .map(|h| (h, HostEffect::Deterministic))
        .collect();
    Ok(EffectOptions::from_host_effects(pairs))
}

/// Escapes untrusted text for embedding in HTML markup. Guest apps are
/// untrusted input (PR 7 threat model): a hostile identifier or parse-error
/// excerpt like `x<script>` must render as text, never as live markup.
fn escape_html(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            _ => out.push(c),
        }
    }
    out
}

/// Renders the `--report` markup for one analyzed file. Every string that
/// can carry guest source — the target path, diagnostic messages and
/// identifiers, effect-summary rows — goes through [`escape_html`].
fn render_html_report(
    target: &str,
    report: &AnalysisReport,
    effects: Option<&EffectSummary>,
) -> String {
    let mut out = String::from("<!doctype html>\n<html><head><meta charset=\"utf-8\">");
    out.push_str(&format!(
        "<title>analyze {}</title></head><body>\n",
        escape_html(target)
    ));
    out.push_str(&format!("<h1>analyze {}</h1>\n", escape_html(target)));
    out.push_str(&format!("<p>{}</p>\n", escape_html(&report.summary())));
    if !report.diagnostics.is_empty() {
        out.push_str("<ul>\n");
        for d in &report.diagnostics {
            out.push_str(&format!(
                "  <li><code>{}</code></li>\n",
                escape_html(&d.to_string())
            ));
        }
        out.push_str("</ul>\n");
    }
    if let Some(summary) = effects {
        out.push_str(&format!(
            "<h2>effects</h2>\n<pre>{}</pre>\n",
            escape_html(&summary.render())
        ));
    }
    out.push_str("</body></html>\n");
    out
}

/// Prints one target's verdict; returns its diagnostic count.
fn print_report(target: &str, report: &AnalysisReport) -> usize {
    if report.is_clean() {
        let s = &report.stats;
        println!(
            "analyze {target}: clean ({} functions, {} reachable; {} globals, {} handlers)",
            s.functions, s.reachable_functions, s.globals, s.handlers
        );
    } else {
        println!("analyze {target}: {}", report.summary());
        println!("{}", report.render());
    }
    report.diagnostics.len()
}

/// Analyzes a MiniJS or HTML file from disk. With `--effects true` the
/// static effect pass runs too (lattice points, write set, cost bounds);
/// with `--report <out.html>` an escaped markup report is written before
/// any verdict is returned, so failures are captured in the report.
fn cmd_analyze_file(path: &str, args: &Args) -> Result<(), String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let opts = parse_analysis_options(args)?;
    let is_html = source.contains("<script>");
    let report = if is_html {
        analyze_html(&source, &opts)
    } else {
        analyze_script(&source, &opts)
    };
    let effects = if args.bool("effects")? {
        let eopts = parse_effect_options(args)?;
        let result = if is_html {
            effect_summary_html(&source, &eopts)
        } else {
            effect_summary(&source, &eopts)
        };
        let summary = result.map_err(|e| format!("{path}: {e}"))?;
        print!("{}", summary.render());
        Some(summary)
    } else {
        None
    };
    let findings = print_report(path, &report);
    if let Some(out) = args.flag("report") {
        let markup = render_html_report(path, &report, effects.as_ref());
        std::fs::write(out, markup).map_err(|e| format!("writing {out}: {e}"))?;
        println!("report: {out}");
    }
    if findings > 0 {
        return Err(format!("{path}: {}", report.summary()));
    }
    if let Some(summary) = &effects {
        summary.verdict().map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

/// Statically verifies one model's apps and live snapshots: both paper app
/// sources are analyzed in app mode, then a two-round delta session runs
/// with `SnapshotOptions::verify` on, so the endpoints verify the full
/// snapshot (round 1) and the deltas (round 2) before any link traffic.
fn analyze_model(model: &str, args: &Args) -> Result<usize, String> {
    let mut cfg = session_config(args)?;
    cfg.model = model.to_string();
    cfg.cut = args.flag("cut").map(str::to_string);
    cfg.snapshot.verify = true;
    let effects = cfg.snapshot.effects;
    let url = apps::synthetic_image_data_url(7, 256);
    let opts = AnalysisOptions::app().with_hosts(vec!["model".to_string()]);
    let eopts = EffectOptions::new().with_host("model", HostEffect::Deterministic);
    let mut findings = 0;
    let sources = [
        ("full-app", apps::full_inference_app(&url)),
        ("partial-app", apps::partial_inference_app(&url)),
    ];
    for (label, html) in &sources {
        findings += print_report(&format!("{model} {label}"), &analyze_html(html, &opts));
        if effects {
            let summary =
                effect_summary_html(html, &eopts).map_err(|e| format!("{model} {label}: {e}"))?;
            print!("{}", summary.render());
            // A nondeterministic paper app would be a finding: its
            // snapshots could not be replayed bit-identically elsewhere.
            findings += summary.nondet.len();
        }
    }
    let mut session = OffloadSession::new(cfg).map_err(|e| e.to_string())?;
    for round in 1..=2u64 {
        session
            .infer(round)
            .map_err(|e| format!("{model} round {round}: {e}"))?;
    }
    println!("analyze {model} session: 2 rounds verified (full + delta snapshots)");
    Ok(findings)
}

/// `snapedge analyze` — the static snapshot verifier. With `--html` it
/// analyzes a file; otherwise it sweeps the paper apps (all models, or one
/// with `--model`) and verifies live captures pre-send.
fn cmd_analyze(args: &Args) -> Result<(), String> {
    if args.bool("all-apps")? && (args.flag("model").is_some() || args.flag("html").is_some()) {
        return Err("--all-apps true cannot be combined with --model or --html".to_string());
    }
    if let Some(path) = args.flag("html") {
        return cmd_analyze_file(path, args);
    }
    let models: Vec<String> = match args.flag("model") {
        Some(m) => vec![m.to_string()],
        None => vec!["googlenet".into(), "agenet".into(), "gendernet".into()],
    };
    let mut findings = 0;
    for model in &models {
        findings += analyze_model(model, args)?;
    }
    if findings > 0 {
        return Err(format!("analyze: {findings} diagnostic(s) across targets"));
    }
    println!("analyze: all targets clean");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapedge_analyze::Mode;
    use snapedge_net::LinkState;

    fn parse(parts: &[&str]) -> Result<Option<Args>, String> {
        Args::from_vec(parts.iter().map(|s| s.to_string()).collect())
    }

    fn args(parts: &[&str]) -> Args {
        parse(parts).unwrap().unwrap()
    }

    /// The error `cmd --flag 1` is rejected with.
    fn rejection(cmd: &str, flag: &str) -> String {
        let err = parse(&[cmd, flag, "1"]).err().unwrap();
        assert!(err.contains(flag) && err.contains(cmd), "{err}");
        err
    }

    #[test]
    fn parses_arrival_specs() {
        assert_eq!(
            parse_arrival("closed").unwrap(),
            ArrivalProcess::ClosedLoop {
                think: Duration::from_secs(2)
            }
        );
        assert_eq!(
            parse_arrival("closed:0.5").unwrap(),
            ArrivalProcess::ClosedLoop {
                think: Duration::from_millis(500)
            }
        );
        assert_eq!(
            parse_arrival("poisson:120").unwrap(),
            ArrivalProcess::Poisson { rate_hz: 120.0 }
        );
        assert_eq!(
            parse_arrival("diurnal:5:80:3600").unwrap(),
            ArrivalProcess::Diurnal {
                base_hz: 5.0,
                peak_hz: 80.0,
                period: Duration::from_secs(3600)
            }
        );
    }

    #[test]
    fn rejects_malformed_arrival_specs() {
        for bad in [
            "",
            "uniform:3",
            "poisson",
            "poisson:fast",
            "diurnal:5:80",
            "closed:1:2",
        ] {
            assert!(parse_arrival(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parses_positional_and_flags() {
        let a = args(&[
            "run",
            "--model",
            "agenet",
            "--strategy",
            "partial",
            "--cut",
            "2nd_pool",
        ]);
        assert_eq!(a.command.name, "run");
        assert_eq!(a.model(), "agenet");
        assert_eq!(a.flag("cut"), Some("2nd_pool"));
    }

    #[test]
    fn later_flags_win() {
        let a = args(&["run", "--mbps", "10", "--mbps", "25"]);
        assert_eq!(a.mbps().unwrap(), 25.0);
    }

    #[test]
    fn missing_flag_value_is_an_error() {
        assert!(parse(&["run", "--model"]).is_err());
    }

    #[test]
    fn help_is_recognized_anywhere_and_unknown_subcommands_are_errors() {
        for help in [
            &["--help"][..],
            &["-h"],
            &["help"],
            &["run", "--help"],
            &["fleet", "--clients", "5", "-h"],
        ] {
            assert!(parse(help).unwrap().is_none(), "{help:?}");
        }
        assert!(parse(&[]).is_err());
        assert!(parse(&["teleport"]).is_err());
        assert!(parse(&["run", "stray"]).is_err());
    }

    #[test]
    fn usage_covers_every_command_and_flag() {
        let text = usage();
        for cmd in COMMANDS {
            assert!(
                text.contains(&format!("snapedge {}", cmd.name)),
                "{}",
                cmd.name
            );
            for name in cmd.flags() {
                assert!(
                    find_flag(name).is_some(),
                    "{} admits undeclared --{name}",
                    cmd.name
                );
            }
        }
        for flag in FLAGS {
            assert!(text.contains(&flag_usage(flag)), "--{}", flag.name);
            assert!(
                COMMANDS.iter().any(|c| c.flags().any(|f| f == flag.name)),
                "--{} is admitted by no subcommand",
                flag.name
            );
        }
    }

    #[test]
    fn run_rejects_a_misspelled_flag() {
        rejection("run", "--strategey");
    }

    #[test]
    fn sweep_rejects_a_misspelled_flag() {
        rejection("sweep", "--bogus");
    }

    #[test]
    fn session_rejects_a_misspelled_flag() {
        rejection("session", "--round");
    }

    #[test]
    fn fleet_rejects_a_misspelled_flag() {
        let err = rejection("fleet", "--clinets");
        assert_eq!(err, "unknown flag --clinets for `fleet`");
    }

    #[test]
    fn install_rejects_a_misspelled_flag() {
        rejection("install", "--bogus");
    }

    #[test]
    fn models_rejects_any_flag() {
        rejection("models", "--model");
    }

    #[test]
    fn analyze_rejects_a_misspelled_flag() {
        rejection("analyze", "--all-app");
    }

    #[test]
    fn strategy_parsing() {
        assert_eq!(
            parse_strategy(&args(&["run"])).unwrap(),
            Strategy::OffloadAfterAck
        );
        assert_eq!(
            parse_strategy(&args(&["run", "--strategy", "client"])).unwrap(),
            Strategy::ClientOnly
        );
        assert_eq!(
            parse_strategy(&args(&["run", "--strategy", "partial"])).unwrap(),
            Strategy::Partial
        );
        assert!(parse_strategy(&args(&["run", "--strategy", "teleport"])).is_err());
    }

    #[test]
    fn defaults() {
        let a = args(&["run"]);
        assert_eq!(a.model(), "googlenet");
        assert_eq!(a.mbps().unwrap(), 30.0);
    }

    #[test]
    fn bad_mbps_is_an_error() {
        assert!(args(&["run", "--mbps", "fast"]).mbps().is_err());
    }

    #[test]
    fn fault_plan_defaults_to_no_faults() {
        let cfg = session_config(&args(&["run"])).unwrap();
        assert!(cfg.primary().up_faults.is_empty() && cfg.primary().down_faults.is_empty());
    }

    #[test]
    fn fault_plan_entries_hit_both_links_unless_prefixed() {
        let (up, down) =
            split_fault_plan("down@2..5,up:corrupt@7..8,down:degrade@1..2x0.5").unwrap();
        assert_eq!(up.windows().len(), 2);
        assert_eq!(down.windows().len(), 2);
        assert_eq!(
            up.state_at(Duration::from_secs_f64(7.5)),
            LinkState::Corrupting
        );
        assert_eq!(
            down.state_at(Duration::from_secs_f64(1.5)),
            LinkState::Degraded(0.5)
        );
        // the unprefixed outage lands on both
        assert_eq!(up.state_at(Duration::from_secs(3)), LinkState::Down);
        assert_eq!(down.state_at(Duration::from_secs(3)), LinkState::Down);
    }

    #[test]
    fn bad_fault_plan_is_an_error() {
        assert!(split_fault_plan("explode@1..2").is_err());
        let err = session_config(&args(&["run", "--fault-plan", "explode@1..2"])).unwrap_err();
        assert!(err.contains("--fault-plan"), "{err}");
    }

    #[test]
    fn analysis_options_default_to_app_mode_with_model_host() {
        let opts = parse_analysis_options(&args(&["analyze"])).unwrap();
        assert_eq!(opts.mode, Mode::App);
        assert_eq!(opts.hosts, vec!["model".to_string()]);
        let opts =
            parse_analysis_options(&args(&["analyze", "--mode", "snapshot", "--hosts", "a, b"]))
                .unwrap();
        assert_eq!(opts.mode, Mode::Snapshot);
        assert_eq!(opts.hosts, vec!["a".to_string(), "b".to_string()]);
        assert!(parse_analysis_options(&args(&["analyze", "--mode", "dynamic"])).is_err());
    }

    #[test]
    fn paper_apps_analyze_clean_from_the_cli_path() {
        let url = apps::synthetic_image_data_url(7, 256);
        let opts = parse_analysis_options(&args(&["analyze"])).unwrap();
        for html in [
            apps::full_inference_app(&url),
            apps::partial_inference_app(&url),
        ] {
            let report = analyze_html(&html, &opts);
            assert!(report.is_clean(), "{}", report.render());
        }
    }

    #[test]
    fn servers_flag_replaces_the_fleet() {
        let cfg = session_config(&args(&[
            "run",
            "--servers",
            "edge-a;edge-b,mbps=12,up=down@2..5+corrupt@7..8",
        ]))
        .unwrap();
        assert_eq!(cfg.servers.len(), 2);
        assert_eq!(cfg.servers[0].name, "edge-a");
        assert_eq!(cfg.servers[1].link.bandwidth_bps, 12.0e6);
        assert_eq!(cfg.servers[1].up_faults.windows().len(), 2);
        // Entries inherit the primary's link as a template.
        assert_eq!(
            cfg.servers[0].link.bandwidth_bps,
            SessionConfig::paper("googlenet")
                .primary()
                .link
                .bandwidth_bps
        );
    }

    #[test]
    fn servers_flag_round_trips_through_format_and_parse() {
        // parse -> format -> parse must reproduce the fleet exactly.
        let template = SessionConfig::paper("googlenet").primary().clone();
        let fleet = parse_servers(
            "edge-a,mbps=30,latency=0.002;edge-b,mbps=12,loss=0.05,up=down@2..5+degrade@7..9x0.25;\
             edge-c,bps=2500000,overhead=96,down=corrupt@1..2",
            &template,
        )
        .unwrap();
        let formatted = snapedge_core::format_servers(&fleet);
        let reparsed = parse_servers(&formatted, &template).unwrap();
        assert_eq!(reparsed, fleet);
        // And formatting is a fixed point from there on.
        assert_eq!(snapedge_core::format_servers(&reparsed), formatted);
    }

    #[test]
    fn servers_and_fault_plan_flags_are_mutually_exclusive() {
        let cfg = |parts: &[&str]| session_config(&args(parts));
        let err = cfg(&["run", "--servers", "edge-a", "--fault-plan", "down@2..5"]).unwrap_err();
        assert!(err.contains("--fault-plan"), "{err}");
        assert!(cfg(&["run", "--servers", "edge-a,=bad"]).is_err());
    }

    #[test]
    fn without_servers_flag_fault_plans_land_on_the_primary() {
        let cfg = session_config(&args(&["session", "--fault-plan", "up:down@2..5"])).unwrap();
        assert_eq!(cfg.servers.len(), 1);
        assert_eq!(cfg.servers[0].up_faults.windows().len(), 1);
        assert!(cfg.servers[0].down_faults.is_empty());
    }

    /// Checks one bool flag on the first subcommand that admits it: off by
    /// default, `true`/`on` and `false`/`off` accepted, anything else an
    /// error naming the flag.
    fn assert_bool_flag(name: &str) {
        let Some(cmd) = COMMANDS.iter().find(|c| c.flags().any(|f| f == name)) else {
            panic!("--{name} is admitted by no subcommand");
        };
        let flag = format!("--{name}");
        let value = |v: &str| args(&[cmd.name, &flag, v]).bool(name);
        assert!(!args(&[cmd.name]).bool(name).unwrap(), "{flag} default");
        assert!(value("true").unwrap() && value("on").unwrap(), "{flag} on");
        assert!(
            !value("false").unwrap() && !value("off").unwrap(),
            "{flag} off"
        );
        let err = value("maybe").unwrap_err();
        assert!(err.contains(&flag), "{err}");
    }

    #[test]
    fn bool_flags_parse_and_default_off() {
        for flag in FLAGS.iter().filter(|f| f.kind == Kind::Bool) {
            assert_bool_flag(flag.name);
        }
    }

    #[test]
    fn predict_flag_parses_and_defaults_off() {
        assert_bool_flag("predict");
    }

    #[test]
    fn balance_flags_parse_and_default_off() {
        assert_bool_flag("balance");
        assert_bool_flag("fair-share");
        let no = args(&["fleet", "--fair-share", "no"]).bool("fair-share");
        assert!(no.is_err());
    }

    #[test]
    fn effects_flag_parses_and_defaults_off() {
        assert_bool_flag("effects");
    }

    #[test]
    fn batch_window_flag_parses_seconds() {
        let window =
            |v: &str| args(&["fleet", "--batch-window", v]).parsed("batch-window", parse_seconds);
        assert_eq!(
            args(&["fleet"])
                .parsed("batch-window", parse_seconds)
                .unwrap(),
            None
        );
        assert_eq!(window("0.25").unwrap(), Some(Duration::from_millis(250)));
        for bad in ["-1", "soon", "NaN", "1e30"] {
            let err = window(bad).unwrap_err();
            assert!(err.contains("--batch-window"), "{err}");
        }
    }

    #[test]
    fn analyze_all_apps_is_a_bool_exclusive_with_model_and_html() {
        let run = |parts: &[&str]| cmd_analyze(&args(parts));
        assert!(run(&["analyze", "--all-apps", "maybe"]).is_err());
        for other in [["--model", "agenet"], ["--html", "app.html"]] {
            let err = run(&["analyze", "--all-apps", "true", other[0], other[1]]).unwrap_err();
            assert!(err.contains("--all-apps"), "{err}");
        }
    }

    #[test]
    fn escape_html_neutralizes_markup_characters() {
        assert_eq!(
            escape_html("<script>alert('x & \"y\"')</script>"),
            "&lt;script&gt;alert(&#39;x &amp; &quot;y&quot;&#39;)&lt;/script&gt;"
        );
        assert_eq!(escape_html("plain_ident"), "plain_ident");
    }

    #[test]
    fn html_report_escapes_guest_identifiers() {
        use snapedge_analyze::{Diagnostic, Rule, Severity};
        // Guest source is untrusted: a hostile name reaching a diagnostic
        // must come out as text, not live markup.
        let report = AnalysisReport {
            diagnostics: vec![Diagnostic {
                rule: Rule::FreeIdentifier,
                severity: Severity::Error,
                message: "undefined identifier `x<script>alert(1)</script>`".to_string(),
                name: Some("x<script>alert(1)</script>".to_string()),
                line: Some(1),
            }],
            stats: Default::default(),
        };
        let markup = render_html_report("evil<b>.html", &report, None);
        assert!(!markup.contains("<script>"), "{markup}");
        assert!(!markup.contains("evil<b>"), "{markup}");
        assert!(
            markup.contains("&lt;script&gt;alert(1)&lt;/script&gt;"),
            "{markup}"
        );
    }

    #[test]
    fn paper_apps_have_deterministic_effect_summaries() {
        let url = apps::synthetic_image_data_url(7, 256);
        let eopts = EffectOptions::new().with_host("model", HostEffect::Deterministic);
        for html in [
            apps::full_inference_app(&url),
            apps::partial_inference_app(&url),
        ] {
            let summary = effect_summary_html(&html, &eopts).unwrap();
            assert!(!summary.is_nondeterministic(), "{}", summary.render());
            assert!(summary.writable_globals().is_some(), "{}", summary.render());
        }
    }

    #[test]
    fn retry_flag_parses_default_and_spec() {
        let retry = |parts: &[&str]| session_config(&args(parts)).map(|cfg| cfg.retry);
        assert_eq!(retry(&["run"]).unwrap(), None);
        assert_eq!(
            retry(&["run", "--retry", "default"]).unwrap(),
            Some(RetryPolicy::default())
        );
        let p = retry(&["run", "--retry", "attempts=7,deadline=90"])
            .unwrap()
            .unwrap();
        assert_eq!(p.max_attempts, 7);
        assert_eq!(p.deadline, Duration::from_secs(90));
        assert!(retry(&["run", "--retry", "attempts=zero"]).is_err());
    }

    #[test]
    fn meter_flag_parses_spec_and_defaults_off() {
        let meter = |parts: &[&str]| session_config(&args(parts)).map(|cfg| cfg.meter);
        assert_eq!(meter(&["run"]).unwrap(), None);
        let limits = meter(&["run", "--meter", "ops=5000,heap=200,slice=2.5"])
            .unwrap()
            .unwrap();
        assert_eq!(limits.max_ops, Some(5000));
        assert_eq!(limits.max_heap_cells, Some(200));
        assert_eq!(limits.time_slice, Some(Duration::from_secs_f64(0.0025)));
        assert!(meter(&["run", "--meter", "ops=zero"]).is_err());
        assert!(meter(&["run", "--meter", "warp=9"]).is_err());
    }
}
