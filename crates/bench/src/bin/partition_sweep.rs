//! Extension experiment: the Neurosurgeon-style partition optimizer under
//! a bandwidth sweep — where does the best cut move as the network
//! degrades, and how well does the predictor match measured runs?
//!
//! ```sh
//! cargo run --release -p snapedge-bench --bin partition_sweep
//! ```

use snapedge_bench::{print_table, PAPER_MODELS};
use snapedge_core::{
    edge_server_x86, odroid_xu4, run_scenario, PartitionOptimizer, SessionConfig, Strategy,
};
use snapedge_dnn::zoo;
use snapedge_net::LinkConfig;

fn main() -> Result<(), snapedge_core::OffloadError> {
    println!("Partition-point selection vs link bandwidth (predicted best private cut)\n");

    let bandwidths = [1.0, 3.0, 10.0, 30.0, 100.0];
    let mut rows = Vec::new();
    for model in PAPER_MODELS {
        let net = zoo::by_name(model)?;
        let mut row = vec![model.to_string()];
        for mbps in bandwidths {
            let optimizer = PartitionOptimizer::new(
                &net,
                odroid_xu4(),
                edge_server_x86(),
                LinkConfig::mbps(mbps),
            );
            let best = optimizer.best(true)?;
            row.push(format!(
                "{} ({:.1}s)",
                best.cut.label,
                best.times.total().as_secs_f64()
            ));
        }
        rows.push(row);
    }
    let headers: Vec<String> = std::iter::once("model".to_string())
        .chain(bandwidths.iter().map(|b| format!("{b} Mbps")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(&header_refs, &rows, &[11, 18, 18, 18, 18, 18]);

    // --- Predictor vs measurement at 30 Mbps.
    println!("\nPredictor accuracy at 30 Mbps (predicted vs measured total, seconds):\n");
    let mut rows = Vec::new();
    for model in PAPER_MODELS {
        let net = zoo::by_name(model)?;
        let optimizer = PartitionOptimizer::new(
            &net,
            odroid_xu4(),
            edge_server_x86(),
            LinkConfig::wifi_30mbps(),
        );
        for cut_label in ["1st_conv", "1st_pool"] {
            let cut = net.cut_point(cut_label)?;
            let predicted = optimizer.predict(&cut)?.times.total().as_secs_f64();
            let measured = run_scenario(
                &SessionConfig::paper_builder(model).cut(cut_label).build(),
                Strategy::Partial,
            )?
            .total
            .as_secs_f64();
            rows.push(vec![
                format!("{model}/{cut_label}"),
                format!("{predicted:.2}"),
                format!("{measured:.2}"),
                format!("{:+.1}%", (predicted - measured) / measured * 100.0),
            ]);
        }
    }
    print_table(
        &["model/cut", "predicted", "measured", "error"],
        &rows,
        &[22, 10, 9, 8],
    );
    Ok(())
}
