//! Shared helpers for the snapedge benchmark harness — formatting and the
//! common scenario grids used by the per-figure binaries.

use snapedge_core::{run_scenario, OffloadError, ScenarioReport, SessionConfig, Strategy};

/// The paper's three benchmark apps, in its order.
pub const PAPER_MODELS: [&str; 3] = ["googlenet", "agenet", "gendernet"];

/// The five bars of Fig. 6, in the paper's order (partial inference at
/// `1st_pool`, the cut [`run_paper`] uses).
pub fn fig6_strategies() -> Vec<(&'static str, Strategy)> {
    vec![
        ("Client", Strategy::ClientOnly),
        ("Server", Strategy::ServerOnly),
        ("Offload before ACK", Strategy::OffloadBeforeAck),
        ("Offload after ACK", Strategy::OffloadAfterAck),
        ("Offload partial (1st_pool)", Strategy::Partial),
    ]
}

/// Runs one paper-configuration scenario; [`Strategy::Partial`] cuts at
/// `1st_pool`.
///
/// # Errors
///
/// Propagates scenario failures.
pub fn run_paper(model: &str, strategy: Strategy) -> Result<ScenarioReport, OffloadError> {
    let cfg = SessionConfig::paper_builder(model).cut("1st_pool").build();
    run_scenario(&cfg, strategy)
}

/// Runs one paper-configuration partial-inference scenario at `cut`.
///
/// # Errors
///
/// Propagates scenario failures.
pub fn run_partial(model: &str, cut: &str) -> Result<ScenarioReport, OffloadError> {
    let cfg = SessionConfig::paper_builder(model).cut(cut).build();
    run_scenario(&cfg, Strategy::Partial)
}

/// Formats a duration as seconds with two decimals.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// Formats bytes as MiB with two decimals (the paper's "MB").
pub fn mib(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

/// Prints a fixed-width table: a header row then data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>], widths: &[usize]) {
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(Duration::from_millis(2500)), "2.50");
        assert_eq!(mib(44 * 1024 * 1024), "44.00");
    }

    #[test]
    fn fig6_grid_has_five_strategies() {
        assert_eq!(fig6_strategies().len(), 5);
    }
}
