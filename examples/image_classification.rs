//! The paper's headline workload: image recognition with GoogLeNet,
//! AgeNet and GenderNet on an Odroid-class client with an x86 edge server
//! (Fig. 6 of the paper, as a runnable program).
//!
//! Paper-scale models run with shape-faithful synthetic execution — the
//! snapshots that cross the simulated link are real, byte-for-byte; only
//! the layer arithmetic is elided so the example finishes in seconds.
//!
//! ```sh
//! cargo run --release --example image_classification
//! ```

use snapedge_core::prelude::*;

fn main() -> Result<(), OffloadError> {
    println!("Image recognition on the edge: Client vs Server vs Offloading\n");
    println!(
        "{:<11} {:>12} {:>12} {:>14} {:>13} {:>10}",
        "model", "client(s)", "server(s)", "before-ACK(s)", "after-ACK(s)", "partial(s)"
    );

    for model in ["googlenet", "agenet", "gendernet"] {
        let mut row = vec![format!("{model:<11}")];
        for strategy in [
            Strategy::ClientOnly,
            Strategy::ServerOnly,
            Strategy::OffloadBeforeAck,
            Strategy::OffloadAfterAck,
            Strategy::Partial,
        ] {
            let cfg = SessionConfig::paper_builder(model).cut("1st_pool").build();
            let report = run_scenario(&cfg, strategy)?;
            row.push(format!("{:>12.2}", report.total.as_secs_f64()));
        }
        println!("{}", row.join(" "));
    }

    println!();
    let report = run_scenario(&SessionConfig::paper("agenet"), Strategy::OffloadAfterAck)?;
    println!(
        "AgeNet offloaded after ACK classified the image as: {}",
        report.result
    );
    println!(
        "(model pre-sent: {:.1} MiB; app-state snapshot: {:.2} KiB up / {:.2} KiB down)",
        report.model_upload_bytes as f64 / (1024.0 * 1024.0),
        report.snapshot_up_bytes as f64 / 1024.0,
        report.snapshot_down_bytes as f64 / 1024.0,
    );
    Ok(())
}
