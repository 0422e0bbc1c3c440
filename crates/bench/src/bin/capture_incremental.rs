//! Micro-benchmark — dirty-tracked incremental delta capture vs the
//! legacy full walk.
//!
//! [`Browser::state_base`] records a reachability index and resets the
//! write-barrier dirty sets; incremental capture then deep-compares only
//! globals that were rebound (or that rooted a dirtied heap cell) since
//! the base. This bench holds a growing ballast of untouched array
//! globals, mutates one counter per round, and times capture with
//! `SnapshotOptions::incremental` on and off. Report-only: numbers are
//! host-dependent and nothing gates on them, but the emitted scripts
//! must stay byte-identical.
//!
//! ```sh
//! cargo run --release -p snapedge-bench --bin capture_incremental
//! ```

use snapedge_bench::print_table;
use snapedge_webapp::{Browser, DeltaCapture, SnapshotOptions, StateBase, WebError};
use std::time::Instant;

/// Captures per timed sample (the per-capture cost is microseconds).
const ITERS: u32 = 200;

/// A page holding `held` ballast arrays of `cells` numbers each, plus one
/// counter that the `tick` handler increments.
fn ballast_app(held: usize, cells: usize) -> String {
    let mut script = String::new();
    for i in 0..held {
        script.push_str(&format!("var held{i} = ["));
        for j in 0..cells {
            if j > 0 {
                script.push(',');
            }
            script.push_str(&format!("{}", (i * cells + j) % 97));
        }
        script.push_str("];\n");
    }
    script.push_str(
        "var counter = 0;\n\
         function onTick() { counter = counter + 1; }\n\
         document.getElementById(\"btn\").addEventListener(\"tick\", onTick);\n",
    );
    format!("<html><body>\n<button id=\"btn\">go</button>\n</body>\n<script>\n{script}</script></html>\n")
}

fn time_captures(
    browser: &mut Browser,
    base: &StateBase,
    options: &SnapshotOptions,
) -> Result<(f64, String), WebError> {
    let mut script = String::new();
    let start = Instant::now();
    for _ in 0..ITERS {
        match browser.capture_delta(base, options)? {
            DeltaCapture::Delta(d) => script = d.script().to_string(),
            DeltaCapture::FullRequired { reason } => {
                return Err(WebError::Snapshot(format!("delta refused: {reason}")))
            }
        }
    }
    let micros = start.elapsed().as_secs_f64() * 1e6 / f64::from(ITERS);
    Ok((micros, script))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Dirty-tracked incremental delta capture vs full walk (report-only)\n");
    let mut rows = Vec::new();
    for held in [16usize, 64, 256] {
        let mut browser = Browser::new();
        browser.load_html(&ballast_app(held, 64))?;
        browser.run_until_idle()?;
        let base = browser.state_base();
        browser.dispatch("btn", "tick")?;
        browser.run_until_idle()?;

        let legacy = SnapshotOptions {
            incremental: false,
            ..SnapshotOptions::default()
        };
        let (full_us, full_script) = time_captures(&mut browser, &base, &legacy)?;
        let (inc_us, inc_script) = time_captures(&mut browser, &base, &SnapshotOptions::default())?;
        assert_eq!(
            full_script, inc_script,
            "incremental capture must stay bit-identical"
        );

        rows.push(vec![
            held.to_string(),
            "1".to_string(),
            format!("{full_us:.1}"),
            format!("{inc_us:.1}"),
            format!("{:.1}x", full_us / inc_us),
        ]);
    }
    print_table(
        &[
            "held globals",
            "mutated",
            "full (us)",
            "incremental (us)",
            "speedup",
        ],
        &rows,
        &[12, 7, 9, 16, 8],
    );
    println!("\nscripts byte-identical across modes; with one global mutated, incremental");
    println!("capture skips the deep comparison of every untouched global (the speedup");
    println!("column), but both columns still grow with held globals: each capture");
    println!("still visits and sorts every global and function.");
    Ok(())
}
