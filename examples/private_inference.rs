//! Partial inference for privacy (paper Section III-B.2, Figs. 4–5).
//!
//! Shows three things:
//! 1. the partition sweep — what each offloading point costs (Fig. 8),
//! 2. the optimizer choosing `1st_pool` as the best *private* cut,
//! 3. the inversion attack: with the front model the feature data can be
//!    approximately inverted back to the input; withholding the front
//!    model files (the paper's defense) degrades the attack.
//!
//! ```sh
//! cargo run --release --example private_inference
//! ```

use snapedge_core::prelude::*;
use snapedge_core::privacy::attack_demo_net;
use snapedge_core::{evaluate_privacy, AttackConfig, PartitionOptimizer};
use snapedge_tensor::Tensor;

fn main() -> Result<(), OffloadError> {
    // --- 1. Partition sweep on GoogLeNet (predicted, like Neurosurgeon).
    let net = zoo::googlenet();
    let optimizer = PartitionOptimizer::new(
        &net,
        odroid_xu4(),
        edge_server_x86(),
        LinkConfig::wifi_30mbps(),
    );
    println!("GoogLeNet partition sweep (predicted):");
    println!(
        "{:<12} {:>14} {:>12} {:>12} {:>10}",
        "cut", "feature(MB)", "client(s)", "server(s)", "total(s)"
    );
    for label in zoo::fig8_cuts("googlenet") {
        let cut = net.cut_point(label)?;
        let p = optimizer.predict(&cut)?;
        println!(
            "{:<12} {:>14.2} {:>12.2} {:>12.2} {:>10.2}",
            cut.label,
            p.feature_text_bytes as f64 / (1024.0 * 1024.0),
            p.times.client_exec.as_secs_f64(),
            p.times.server_exec.as_secs_f64(),
            p.times.total().as_secs_f64(),
        );
    }
    let best = optimizer.best(true)?;
    println!(
        "\nBest cut that still denatures the input: {} ({:.2}s predicted)\n",
        best.cut.label,
        best.times.total().as_secs_f64()
    );

    // --- 2. Actually run partial inference at that cut.
    let report = run_scenario(
        &SessionConfig::paper_builder("googlenet")
            .cut(&best.cut.label)
            .build(),
        Strategy::Partial,
    )?;
    println!(
        "Measured partial inference at {}: {:.2}s total; snapshot carried {:.2} MiB up",
        best.cut.label,
        report.total.as_secs_f64(),
        report.snapshot_up_bytes as f64 / (1024.0 * 1024.0),
    );
    println!("Result delivered to the client: {}\n", report.result);

    // --- 3. The inversion attack, with and without the front model.
    let demo = attack_demo_net();
    let params = demo.init_params(5)?;
    let cut = demo.cut_point("1st_conv")?.id;
    let input = Tensor::from_fn(&[1, 6, 6], |i| ((i * 37) % 100) as f32 / 100.0)?;
    let privacy = evaluate_privacy(&demo, &params, cut, &input, &AttackConfig::default())?;
    println!("Feature-inversion attack (hill climbing, per [17]):");
    println!(
        "  attacker HAS the front model:      reconstruction MSE = {:.5}",
        privacy.mse_with_model
    );
    println!(
        "  front model withheld (the paper's defense): MSE = {:.5}",
        privacy.mse_without_model
    );
    println!(
        "  withholding multiplies the attacker's error by {:.1}x",
        privacy.protection_factor()
    );

    // --- 4. Fig. 1 in miniature: what the server actually *sees*.
    println!("\nWhat travels to the server (Fig. 1-style feature tiles, ASCII):");
    let params2 = demo.init_params(11)?;
    let photo = Tensor::from_fn(
        &[1, 6, 6],
        |i| if (i / 6 + i % 6) % 2 == 0 { 0.9 } else { 0.1 },
    )?;
    println!("input image (checkerboard):");
    print!(
        "{}",
        snapedge_dnn::visualize::tile_feature_map(&photo)?.to_ascii(1)
    );
    let cut2 = demo.cut_point("1st_pool")?.id;
    let fwd = demo.forward_until(&params2, &photo, cut2, snapedge_dnn::ExecMode::Real)?;
    println!("feature data at 1st_pool (what the snapshot carries):");
    print!(
        "{}",
        snapedge_dnn::visualize::tile_feature_map(fwd.output(cut2)?)?.to_ascii(1)
    );
    println!("The structure is denatured — the paper's privacy argument, rendered.");
    Ok(())
}
