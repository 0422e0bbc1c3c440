//! Roaming between edge servers (paper Sections I and III-B.3).
//!
//! A mobile client moves between service areas. The first edge server has
//! the offloading system pre-installed; the second is *bare*, so the
//! client dynamically installs the system there via VM synthesis, then
//! offloads as usual. Because snapshots are self-contained, no state from
//! the first server is needed at the second — the paper's key advantage
//! over VM-based customization.
//!
//! ```sh
//! cargo run --release --example roaming_edge
//! ```

use snapedge_core::prelude::*;
use snapedge_vmsynth::SynthesisConfig;

fn main() -> Result<(), OffloadError> {
    let model = "gendernet";
    let model_bytes = 44 * 1024 * 1024;

    // --- Service area 1: pre-installed edge server. Normal offloading.
    println!("Area 1: edge server with the offloading system pre-installed");
    let first = run_scenario(&SessionConfig::paper(model), Strategy::OffloadAfterAck)?;
    println!(
        "  model pre-sent once ({:.0} MiB), then inference took {:.2}s -> {}",
        first.model_upload_bytes as f64 / (1024.0 * 1024.0),
        first.total.as_secs_f64(),
        first.result
    );

    // --- The client roams. The new edge server is bare.
    println!("\nArea 2: bare edge server — installing on demand via VM synthesis");
    let install = vm_install(
        model,
        model_bytes,
        &LinkConfig::wifi_30mbps(),
        &SynthesisConfig::default(),
    )?;
    println!(
        "  VM overlay: {:.0} MiB (browser + libs + server program + model)",
        install.overlay_bytes as f64 / (1024.0 * 1024.0)
    );
    println!(
        "  synthesis: upload {:.2}s + apply {:.2}s = {:.2}s",
        install.upload.as_secs_f64(),
        install.apply.as_secs_f64(),
        install.total().as_secs_f64()
    );

    // The overlay carried the model, so offloading starts in the
    // "pre-sent" regime immediately: only the tiny snapshot migrates.
    let roamed = run_scenario(&SessionConfig::paper(model), Strategy::OffloadAfterAck)?;
    let migration = roamed.total - roamed.breakdown.exec_server;
    println!(
        "  after installation, snapshot migration costs only {:.2}s on top of server execution",
        migration.as_secs_f64()
    );

    // --- Compare: offloading to a pre-installed server without pre-sending.
    let cold = run_scenario(&SessionConfig::paper(model), Strategy::OffloadBeforeAck)?;
    println!(
        "\nFor contrast, first-offload-without-pre-sending on a pre-installed server: {:.2}s \
         (the snapshot queues behind the {:.0} MiB model upload)",
        cold.total.as_secs_f64(),
        cold.model_upload_bytes as f64 / (1024.0 * 1024.0)
    );
    println!(
        "\nConclusion (paper Table I): dynamic installation costs ~{:.0}s once; afterwards \
         every offload is sub-second app-state migration.",
        install.total().as_secs_f64()
    );
    Ok(())
}
