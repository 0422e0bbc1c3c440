//! Extension experiment: quantifying the privacy of partial inference.
//!
//! The paper argues (Section III-B.2) that withholding the front model
//! files defeats hill-climbing input reconstruction \[17\]. This bench runs
//! the attack across cut depths and attacker knowledge levels and reports
//! reconstruction error.
//!
//! ```sh
//! cargo run --release -p snapedge-bench --bin privacy
//! ```

use snapedge_bench::print_table;
use snapedge_core::privacy::attack_demo_net;
use snapedge_core::{evaluate_privacy, AttackConfig};
use snapedge_tensor::Tensor;

fn main() -> Result<(), snapedge_core::OffloadError> {
    println!("Privacy of partial inference: feature-inversion attack (per [17])\n");

    let net = attack_demo_net();
    let params = net.init_params(5)?;
    let cfg = AttackConfig::default();

    let mut rows = Vec::new();
    for cut_label in ["1st_conv", "relu1", "1st_pool"] {
        let cut = net.cut_point(cut_label)?.id;
        let mut with = 0.0f32;
        let mut without = 0.0f32;
        const TRIALS: u64 = 3;
        for trial in 0..TRIALS {
            let input = Tensor::from_fn(&[1, 6, 6], |i| {
                let z = (i as u64 + 31 * trial + 7).wrapping_mul(0x9E3779B97F4A7C15);
                ((z >> 33) % 1000) as f32 / 1000.0
            })?;
            let report = evaluate_privacy(&net, &params, cut, &input, &cfg)?;
            with += report.mse_with_model / TRIALS as f32;
            without += report.mse_without_model / TRIALS as f32;
        }
        rows.push(vec![
            cut_label.to_string(),
            format!("{with:.5}"),
            format!("{without:.5}"),
            format!("{:.1}x", without / with.max(1e-9)),
        ]);
    }
    print_table(
        &["cut", "MSE w/ model", "MSE w/o model", "protection"],
        &rows,
        &[10, 13, 14, 11],
    );

    println!();
    println!("Reading: with the front model the attacker reconstructs the input well");
    println!("at shallow cuts; withholding the model (the paper's defense) multiplies");
    println!("reconstruction error by an order of magnitude or more, and deeper cuts");
    println!("(pooling) denature the input further even against a full-knowledge attacker.");
    Ok(())
}
