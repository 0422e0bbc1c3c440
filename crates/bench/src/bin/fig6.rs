//! Regenerates **Fig. 6**: execution time of inference in three web apps
//! under Client / Server / Offloading (before ACK, after ACK, partial).
//!
//! ```sh
//! cargo run --release -p snapedge-bench --bin fig6
//! ```

use snapedge_bench::{fig6_strategies, print_table, run_paper, secs, PAPER_MODELS};

fn main() -> Result<(), snapedge_core::OffloadError> {
    println!("Figure 6: Execution time of inference in three web apps (seconds)\n");
    let strategies = fig6_strategies();

    let mut rows = Vec::new();
    for (label, strategy) in &strategies {
        let mut row = vec![label.to_string()];
        for model in PAPER_MODELS {
            let report = run_paper(model, *strategy)?;
            row.push(secs(report.total));
        }
        rows.push(row);
    }
    print_table(
        &["configuration", "googlenet", "agenet", "gendernet"],
        &rows,
        &[28, 10, 10, 10],
    );

    println!();
    println!("Expected shape (paper):");
    println!("  * Server far faster than Client (no GPU on either — Caffe.js).");
    println!("  * Offloading after ACK ~ Server: snapshot overhead is small.");
    println!("  * Before ACK, AgeNet/GenderNet are SLOWER than local execution");
    println!("    (44 MB models congest the 30 Mbps uplink); GoogLeNet still wins.");
    println!("  * Partial inference (1st_pool) is slower than full offloading —");
    println!("    the price of privacy.");
    Ok(())
}
