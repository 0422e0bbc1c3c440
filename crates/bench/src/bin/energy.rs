//! Extension experiment: client battery cost per inference under each
//! strategy — the metric MAUI-lineage offloading systems optimize, applied
//! to the paper's workloads.
//!
//! ```sh
//! cargo run --release -p snapedge-bench --bin energy
//! ```

use snapedge_bench::{fig6_strategies, print_table, run_paper, PAPER_MODELS};
use snapedge_core::{client_energy, odroid_xu4_energy};

fn main() -> Result<(), snapedge_core::OffloadError> {
    println!("Client energy per inference (Odroid-XU4 power model, joules)\n");
    let profile = odroid_xu4_energy();

    let mut rows = Vec::new();
    for (label, strategy) in fig6_strategies() {
        if label == "Server" {
            continue; // no client in the loop
        }
        let mut row = vec![label.to_string()];
        for model in PAPER_MODELS {
            let report = run_paper(model, strategy)?;
            let energy = client_energy(&profile, &report);
            row.push(format!("{:.1}", energy.total_joules()));
        }
        rows.push(row);
    }
    print_table(
        &["strategy", "googlenet", "agenet", "gendernet"],
        &rows,
        &[28, 10, 10, 10],
    );

    // Detail for one configuration.
    let report = run_paper("googlenet", snapedge_core::Strategy::OffloadAfterAck)?;
    let e = client_energy(&profile, &report);
    println!(
        "\ngooglenet after-ACK detail: compute {:.2} J + radio {:.2} J + idle {:.2} J = {:.2} J",
        e.compute_joules,
        e.radio_joules,
        e.idle_joules,
        e.total_joules()
    );
    println!("\nReading: with the model pre-sent, offloading converts minutes of");
    println!("6 W CPU burn into seconds of 1.5 W idle — an order of magnitude of");
    println!("battery per inference, the classic cyber-foraging win. Partial");
    println!("inference gives some of it back as the privacy tax.");
    Ok(())
}
