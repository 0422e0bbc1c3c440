//! The benchmark command.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload partial_offload --seed 1 --seconds 20 --trace 0
//! ```
//!
//! It prints every metric by name, unit and sample count, then, as its
//! last line, one JSON object: `correct`, `attempted`, `failed`, and the
//! metrics `BENCHMARK.json` lists (end-to-end with `--trace 0`, per-layer
//! with `--trace 1`).

use snapedge_perfbench::bench::{self, Metric, Outcome};
use snapedge_perfbench::catalog::END_TO_END;
use snapedge_perfbench::plan::Kind;
use std::process::ExitCode;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: snapedge-perfbench --workload <partial_offload|session_delta|fleet_modeled> \
                     [--seed <n>] [--seconds <n>] [--trace <0|1>]";

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn print_metric(m: &Metric) {
    let value = match m.value {
        Some(v) => format!("{v:.6} {}", m.unit),
        None => format!(
            "n/a: fewer than {} of the samples lie beyond this percentile",
            snapedge_perfbench::stats::MIN_BEYOND
        ),
    };
    let note = if m.note.is_empty() {
        String::new()
    } else {
        format!("  [{}]", m.note)
    };
    println!("  {:<42} {value}  (n={}){note}", m.name, m.n);
}

fn json_line(outcome: &Outcome, metrics: &[&Metric]) -> Result<String, String> {
    let mut fields = Vec::new();
    for m in metrics {
        let value = m
            .value
            .ok_or_else(|| format!("{} has too few samples to report", m.name))?;
        if !value.is_finite() {
            return Err(format!("{} is not a finite number", m.name));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match bench::run(args.kind, args.seed, args.seconds, args.trace) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {}: {e}", args.kind.name());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {}: {} untraced and {} traced engine runs, {} rounds attempted, {} failed",
        args.kind.name(),
        args.seed,
        outcome.epochs.0,
        outcome.epochs.1,
        outcome.attempted,
        outcome.failed
    );
    for e in outcome.errors.iter().take(10) {
        println!("  failure: {e}");
    }
    let mut rates = outcome.epoch_rates.clone();
    rates.sort_by(f64::total_cmp);
    println!(
        "rounds/s per untraced engine run: min {:.4}, median {:.4}, max {:.4}",
        rates[0],
        snapedge_perfbench::stats::median(&rates),
        rates[rates.len() - 1]
    );
    println!(
        "reference loop runs/s around untraced engine runs: median {:.4} (nominal {})",
        snapedge_perfbench::stats::median(&outcome.host_rates),
        snapedge_perfbench::host::NOMINAL_RATE
    );
    println!("end-to-end (untraced runs):");
    outcome.end_to_end.iter().for_each(print_metric);
    let reported: Vec<&Metric> = if args.trace {
        println!("per-layer (traced runs; 0 where the workload does not use the layer):");
        outcome.per_layer.iter().for_each(print_metric);
        outcome.per_layer.iter().collect()
    } else {
        outcome
            .end_to_end
            .iter()
            .filter(|m| END_TO_END.iter().any(|g| g.name == m.name))
            .collect()
    };
    match json_line(&outcome, &reported) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
