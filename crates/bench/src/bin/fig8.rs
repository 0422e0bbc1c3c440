//! Regenerates **Fig. 8**: inference time with partial inference at
//! various offloading points, plus the Section IV-B feature-size analysis
//! (14.7 MB at `1st_conv` vs 2.9 MB at `1st_pool` for GoogLeNet).
//!
//! Each point is a *measured* scenario run: the feature data really is
//! serialized into the snapshot text and shipped over the simulated link.
//!
//! ```sh
//! cargo run --release -p snapedge-bench --bin fig8
//! ```

use snapedge_bench::{mib, print_table, run_paper, run_partial, secs, PAPER_MODELS};
use snapedge_core::Strategy;
use snapedge_dnn::zoo;

fn main() -> Result<(), snapedge_core::OffloadError> {
    println!("Figure 8: Inference time with partial inference at various offloading points\n");

    for model in PAPER_MODELS {
        println!("== {model}");
        let mut rows = Vec::new();
        for cut in zoo::fig8_cuts(model) {
            let report = if cut == "input" {
                // "Offloading with Input" = full offloading.
                run_paper(model, Strategy::OffloadAfterAck)?
            } else {
                run_partial(model, cut)?
            };
            let b = report.breakdown;
            rows.push(vec![
                cut.to_string(),
                secs(b.exec_client),
                mib(report.snapshot_up_bytes),
                secs(b.transfer_up),
                secs(b.exec_server),
                secs(report.total),
            ]);
        }
        print_table(
            &[
                "offload point",
                "exec(C) s",
                "snapshot MiB",
                "xmit up s",
                "exec(S) s",
                "total s",
            ],
            &rows,
            &[14, 10, 13, 10, 10, 8],
        );
        println!();
    }

    println!("Expected shape (paper): time does NOT grow monotonically as the cut");
    println!("moves deeper — conv outputs are large (feature size surges) and conv");
    println!("is expensive on the client, while pool layers shrink the feature and");
    println!("are cheap, so each pool point beats the conv point before it.");
    println!("1st_pool is the best cut that still denatures the input.");
    Ok(())
}
