//! Micro-benchmarks for the snapedge substrates: snapshot capture/restore
//! scaling, CNN kernels, tensor text serialization, and a whole tiny
//! offload round-trip.
//!
//! A plain timing harness (`harness = false`, no criterion) so the
//! workspace builds with no external dependencies. Each benchmark warms
//! up, then runs enough iterations to pass a wall-clock floor and reports
//! mean ns/iter.
//!
//! ```sh
//! cargo bench -p snapedge-bench
//! ```

use snapedge_core::{run_scenario, MeterLimits, SessionConfig, Strategy};
use snapedge_tensor::{ops, serialize, Tensor};
use snapedge_webapp::{Browser, SnapshotOptions};
use std::time::{Duration, Instant};

fn browser_with_heap(objects: usize, floats: usize) -> Browser {
    let mut b = Browser::new();
    let mut script = String::from("var all = [];\n");
    for i in 0..objects {
        script.push_str(&format!(
            "all.push({{id: {i}, name: \"obj{i}\", vals: [{i}, {}, {}]}});\n",
            i * 2,
            i * 3
        ));
    }
    if floats > 0 {
        script.push_str("var feats = new Float32Array([");
        for i in 0..floats {
            if i > 0 {
                script.push(',');
            }
            script.push_str(&format!("{}", (i as f64 * 0.37).sin()));
        }
        script.push_str("]);\n");
    }
    b.exec_script(&script).expect("bench script runs");
    b
}

/// Times `f` and prints mean ns/iter. Uses a short warm-up, then iterates
/// until at least ~200 ms of wall time has accumulated. `f` returns a
/// value to keep the optimizer honest; the results are folded into a
/// black-box sink.
fn bench(name: &str, mut f: impl FnMut() -> usize) -> u128 {
    let mut sink = 0usize;
    // Warm-up.
    let warm = Instant::now();
    while warm.elapsed() < Duration::from_millis(20) {
        sink = sink.wrapping_add(f());
    }
    let floor = Duration::from_millis(200);
    let mut iters = 0u64;
    let start = Instant::now();
    while start.elapsed() < floor {
        sink = sink.wrapping_add(f());
        iters += 1;
    }
    let elapsed = start.elapsed();
    let per_iter = elapsed.as_nanos() / u128::from(iters.max(1));
    println!("{name:<40} {per_iter:>12} ns/iter   ({iters} iters)");
    std::hint::black_box(sink);
    per_iter
}

fn bench_snapshot_capture() {
    for objects in [10usize, 100, 1000] {
        let mut browser = browser_with_heap(objects, 0);
        bench(&format!("snapshot_capture/objects/{objects}"), || {
            browser
                .capture_snapshot(&SnapshotOptions::default())
                .unwrap()
                .size_bytes() as usize
        });
    }
    for floats in [1_000usize, 10_000] {
        let mut browser = browser_with_heap(10, floats);
        bench(&format!("snapshot_capture/feature_floats/{floats}"), || {
            browser
                .capture_snapshot(&SnapshotOptions::default())
                .unwrap()
                .size_bytes() as usize
        });
    }
}

fn bench_snapshot_restore() {
    for objects in [100usize, 1000] {
        let mut browser = browser_with_heap(objects, 1000);
        let snapshot = browser
            .capture_snapshot(&SnapshotOptions::default())
            .unwrap();
        bench(&format!("snapshot_restore/objects/{objects}"), || {
            let mut fresh = Browser::new();
            fresh.load_html(snapshot.html()).unwrap();
            fresh.core().heap.len()
        });
    }
}

fn bench_cnn_kernels() {
    let input = Tensor::from_fn(&[16, 32, 32], |i| ((i % 97) as f32) / 97.0).unwrap();
    let weights = Tensor::from_fn(&[16, 16, 3, 3], |i| ((i % 13) as f32 - 6.0) / 13.0).unwrap();
    let bias = Tensor::zeros(&[16]).unwrap();
    bench("cnn_kernels/conv2d_naive_16x32x32_3x3", || {
        ops::conv2d(&input, &weights, &bias, 1, 1).unwrap().len()
    });
    bench("cnn_kernels/conv2d_im2col_16x32x32_3x3", || {
        ops::conv2d_im2col(&input, &weights, &bias, 1, 1, 1)
            .unwrap()
            .len()
    });
    bench("cnn_kernels/maxpool_3x3_s2", || {
        ops::pool2d(&input, ops::PoolKind::Max, 3, 2, 0)
            .unwrap()
            .len()
    });
    let fc_in = Tensor::from_fn(&[4096], |i| (i as f32).cos()).unwrap();
    let fc_w = Tensor::from_fn(&[256, 4096], |i| ((i % 31) as f32 - 15.0) / 31.0).unwrap();
    let fc_b = Tensor::zeros(&[256]).unwrap();
    bench("cnn_kernels/fc_4096_to_256", || {
        ops::fully_connected(&fc_in, &fc_w, &fc_b).unwrap().len()
    });
}

fn bench_serialization() {
    let t = Tensor::from_fn(&[50_000], |i| ((i as f32) * 0.137).sin() * 3.3).unwrap();
    bench("tensor_serialization/js_text_50k_floats", || {
        serialize::to_js_text(&t).len()
    });
    bench("tensor_serialization/binary_50k_floats", || {
        serialize::to_binary(&t).len()
    });
}

fn bench_end_to_end() {
    bench("end_to_end/tiny_offload_after_ack", || {
        run_scenario(&SessionConfig::tiny(), Strategy::OffloadAfterAck)
            .unwrap()
            .total
            .as_nanos() as usize
    });
    bench("end_to_end/tiny_partial_1st_pool", || {
        run_scenario(
            &SessionConfig::tiny_builder().cut("1st_pool").build(),
            Strategy::Partial,
        )
        .unwrap()
        .total
        .as_nanos() as usize
    });
}

/// Wall-clock cost of the per-op metering charge: the same tiny offload
/// round with the meter off vs on (caps far above the workload, so only
/// the accounting itself is measured). Reported as a % slowdown —
/// informational, not a gate.
fn bench_meter_overhead() {
    let off = bench("meter_overhead/tiny_offload/meter_off", || {
        run_scenario(&SessionConfig::tiny(), Strategy::OffloadAfterAck)
            .unwrap()
            .total
            .as_nanos() as usize
    });
    let generous = MeterLimits::default()
        .with_ops(u64::MAX / 2)
        .with_heap_cells(usize::MAX / 2)
        .with_string_len(usize::MAX / 2)
        .with_call_depth(usize::MAX / 2)
        .with_time_slice(Duration::from_secs(3600));
    let cfg = SessionConfig::tiny_builder().meter(generous).build();
    let on = bench("meter_overhead/tiny_offload/meter_on", || {
        run_scenario(&cfg, Strategy::OffloadAfterAck)
            .unwrap()
            .total
            .as_nanos() as usize
    });
    let slowdown = (on as f64 - off as f64) / off as f64 * 100.0;
    println!("meter_overhead/slowdown                  {slowdown:>11.1} %   (informational)");
}

fn main() {
    println!("snapedge micro-benchmarks (plain harness, mean over >=200ms)\n");
    bench_snapshot_capture();
    bench_snapshot_restore();
    bench_cnn_kernels();
    bench_serialization();
    bench_end_to_end();
    bench_meter_overhead();
}
