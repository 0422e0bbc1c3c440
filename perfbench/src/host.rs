//! A fixed reference loop that gauges how fast the host runs right now.
//!
//! On a shared machine the same work can take 20–40 % longer for minutes
//! at a time, for this program and any other. Timing this loop next to
//! every engine run lets the benchmark report throughput scaled to a
//! nominal host speed, so that drift cancels out of the gated figure
//! while the raw figure is still printed. The loop uses only the standard
//! library, so no change to the repository's crates can change its speed.

use std::collections::BinaryHeap;
use std::fmt::Write;
use std::time::{Duration, Instant};

/// Reference-loop runs per second on the host the benchmark was tuned
/// on (2 shared vCPUs); normalized throughput is scaled to this speed.
pub const NOMINAL_RATE: f64 = 20.0;

/// Runs the reference loop once and returns runs per second.
///
/// The loop mixes what the workloads do: short formatted strings pushed
/// into a log and a bounded binary heap (engine-like), then freshly
/// allocated float arrays rendered as decimal text (snapshot-like).
pub fn reference_rate() -> f64 {
    let start = Instant::now();
    let mut log: Vec<String> = Vec::with_capacity(100_000);
    let mut heap = BinaryHeap::new();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..100_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let at = Duration::from_nanos(x % 10_000_000_000);
        log.push(format!("t={at:?}: event client={i}"));
        heap.push(x);
        if heap.len() > 1_000 {
            heap.pop();
        }
    }
    std::hint::black_box(&log);
    let mut text = String::new();
    for pass in 0..4u32 {
        let data: Vec<f32> = (0..1_000_000u32)
            .map(|i| (i ^ pass) as f32 * 0.37)
            .collect();
        text.clear();
        for v in data.iter().step_by(40) {
            let _ = write!(text, "{},", f64::from(*v));
        }
        std::hint::black_box((&data, &text));
    }
    1.0 / start.elapsed().as_secs_f64()
}
