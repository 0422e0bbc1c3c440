//! Ablation: the snapshot-size optimizations of reference [10]
//! (single-use-cell inlining + default-value omission) versus the naive
//! two-phase serialization, measured on the actual benchmark apps at
//! their offload points.
//!
//! ```sh
//! cargo run --release -p snapedge-bench --bin ablation_snapshot
//! ```

use snapedge_bench::{mib, print_table, PAPER_MODELS};
use snapedge_core::{run_scenario, SessionConfig, Strategy};
use snapedge_webapp::SnapshotOptions;

fn main() -> Result<(), snapedge_core::OffloadError> {
    println!("Ablation: snapshot text optimizations from [10]\n");

    let mut rows = Vec::new();
    for model in PAPER_MODELS {
        for (label, strategy) in [
            ("full offload", Strategy::OffloadAfterAck),
            ("partial @1st_pool", Strategy::Partial),
        ] {
            let mut optimized = SessionConfig::paper_builder(model).cut("1st_pool").build();
            optimized.snapshot = SnapshotOptions {
                inline_single_use: true,
                ..SnapshotOptions::default()
            };
            let mut baseline = optimized.clone();
            baseline.snapshot = SnapshotOptions {
                inline_single_use: false,
                ..SnapshotOptions::default()
            };
            let opt = run_scenario(&optimized, strategy)?;
            let base = run_scenario(&baseline, strategy)?;
            rows.push(vec![
                format!("{model} {label}"),
                mib(base.snapshot_up_bytes),
                mib(opt.snapshot_up_bytes),
                format!(
                    "{:.1}%",
                    100.0 * (1.0 - opt.snapshot_up_bytes as f64 / base.snapshot_up_bytes as f64)
                ),
                format!(
                    "{:+.0} ms",
                    (opt.total.as_secs_f64() - base.total.as_secs_f64()) * 1000.0
                ),
            ]);
        }
    }
    print_table(
        &[
            "app / offload point",
            "naive MiB",
            "optimized MiB",
            "saved",
            "total time delta",
        ],
        &rows,
        &[28, 10, 14, 8, 17],
    );

    // --- A heap-rich app: many small single-use objects, the structure
    // the [10] optimizations actually target (the DNN apps keep almost all
    // state in one typed array, so they barely benefit).
    println!("\nHeap-rich app (N nested single-use objects):\n");
    let mut rows = Vec::new();
    for n in [100usize, 1_000, 5_000] {
        let mut browser = snapedge_webapp::Browser::new();
        let mut script = String::from("var registry = [];\n");
        for i in 0..n {
            script.push_str(&format!(
                "registry.push({{id: {i}, pos: {{x: {i}, y: {}}}, tags: [\"a{i}\", \"b{i}\"]}});\n",
                i * 2
            ));
        }
        browser.exec_script(&script).expect("script runs");
        let optimized = browser
            .capture_snapshot(&SnapshotOptions {
                inline_single_use: true,
                ..SnapshotOptions::default()
            })
            .expect("capture");
        let baseline = browser
            .capture_snapshot(&SnapshotOptions {
                inline_single_use: false,
                ..SnapshotOptions::default()
            })
            .expect("capture");
        rows.push(vec![
            format!("{n} objects"),
            format!("{}", baseline.size_bytes()),
            format!("{}", optimized.size_bytes()),
            format!(
                "{:.1}%",
                100.0 * (1.0 - optimized.size_bytes() as f64 / baseline.size_bytes() as f64)
            ),
        ]);
    }
    print_table(
        &["heap", "naive bytes", "optimized bytes", "saved"],
        &rows,
        &[13, 12, 16, 8],
    );

    println!();
    println!("Reading: inlining matters most when the heap holds many small");
    println!("single-use objects; for feature-data-heavy partial snapshots the");
    println!("Float32Array text dominates and the saving is negligible.");
    Ok(())
}
