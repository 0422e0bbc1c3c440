//! Quickstart: offload one real inference from a weak client to an edge
//! server and watch the phases.
//!
//! Runs the tiny CNN with real arithmetic end-to-end: app start, model
//! pre-sending, click, snapshot capture, migration over a simulated
//! 30 Mbps link, server execution, and the result snapshot coming back.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use snapedge_core::prelude::*;

fn main() -> Result<(), OffloadError> {
    println!("snapedge quickstart: tiny CNN, real arithmetic, 30 Mbps link\n");

    // One config for every strategy; only `Strategy::Partial` uses the cut.
    let cfg = SessionConfig::tiny_builder().cut("1st_pool").build();
    for strategy in [
        Strategy::ClientOnly,
        Strategy::ServerOnly,
        Strategy::OffloadAfterAck,
        Strategy::OffloadBeforeAck,
        Strategy::Partial,
    ] {
        let report = run_scenario(&cfg, strategy)?;
        println!("== {strategy:?}");
        println!("   result on client screen: {}", report.result);
        println!("   total inference time:    {:?}", report.total);
        let b = &report.breakdown;
        println!(
            "   breakdown: exec(C) {:?} | capture(C) {:?} | up {:?} | restore(S) {:?} \
             | exec(S) {:?} | capture(S) {:?} | down {:?} | restore(C) {:?}",
            b.exec_client,
            b.capture_client,
            b.transfer_up,
            b.restore_server,
            b.exec_server,
            b.capture_server,
            b.transfer_down,
            b.restore_client,
        );
        if let Some(ack) = report.ack_at {
            println!(
                "   model pre-send: {} bytes, ACK at {:?}; snapshots: up {} B / down {} B",
                report.model_upload_bytes,
                ack,
                report.snapshot_up_bytes,
                report.snapshot_down_bytes
            );
        }
        println!();
    }
    println!("Every strategy displays the same label — migration is seamless.");
    Ok(())
}
