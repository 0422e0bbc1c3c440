//! Extension experiment: would snapshot compression change the paper's
//! trade-offs? The feature text of partial inference is highly redundant
//! decimal ASCII; this bench runs the real LZ77+Huffman codec inside the
//! scenario (codec CPU charged to the device models) and compares.
//!
//! ```sh
//! cargo run --release -p snapedge-bench --bin compression
//! ```

use snapedge_bench::{mib, print_table};
use snapedge_core::{run_scenario, SessionConfig, Strategy};
use snapedge_net::LinkConfig;

fn main() -> Result<(), snapedge_core::OffloadError> {
    println!("Snapshot compression (LZ77+Huffman) on the partial-inference path\n");

    for mbps in [30.0, 5.0] {
        println!("== googlenet at {mbps:.0} Mbps");
        let mut rows = Vec::new();
        for cut in ["1st_conv", "1st_pool", "2nd_pool"] {
            let plain = SessionConfig::paper_builder("googlenet")
                .cut(cut)
                .link(LinkConfig::mbps(mbps))
                .build();
            let packed = SessionConfig {
                compress: true,
                ..plain.clone()
            };
            let a = run_scenario(&plain, Strategy::Partial)?;
            let b = run_scenario(&packed, Strategy::Partial)?;
            rows.push(vec![
                cut.to_string(),
                mib(a.snapshot_up_bytes),
                mib(b.snapshot_up_bytes),
                format!("{:.2}", a.total.as_secs_f64()),
                format!("{:.2}", b.total.as_secs_f64()),
                format!(
                    "{:+.1}%",
                    (b.total.as_secs_f64() / a.total.as_secs_f64() - 1.0) * 100.0
                ),
            ]);
        }
        print_table(
            &[
                "cut",
                "plain MiB",
                "packed MiB",
                "plain s",
                "packed s",
                "time delta",
            ],
            &rows,
            &[10, 10, 11, 8, 9, 11],
        );
        println!();
    }

    println!("Reading: the codec roughly halves the feature text on the wire, so");
    println!("compression wins whenever the link is slow relative to the client's");
    println!("codec throughput — on fast links the compression CPU time eats the");
    println!("transfer saving. A DEFLATE-class codec is a cheap upgrade the paper");
    println!("leaves on the table for partial inference.");
    Ok(())
}
