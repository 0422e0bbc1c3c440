//! Seeded mutation fuzz for restore. A server restores snapshots and
//! applies deltas that arrive over the network, so no received text may
//! panic the runtime: every byte-mutated snapshot or delta must restore
//! (`Ok`) or fail with a typed [`WebError`].
//!
//! Mutations: bit flips (decoded lossily, as a receiver decoding the bytes
//! would), truncation inside a `Float32Array` literal, inserted non-ASCII
//! characters, `(`/`-`/`,` inserted inside a literal, and deleted spans.

use std::panic::{catch_unwind, AssertUnwindSafe};

use snapedge_rng::Rng;
use snapedge_webapp::{Browser, DeltaCapture, MeterLimits, SnapshotOptions, WebError};

const CASES: usize = 2500;

const NON_ASCII: [&str; 6] = ["é", "\u{00A0}", "\u{2028}", "\u{1F600}", "\u{FFFD}", "日"];

/// A client app with the state a partial-inference round carries: DOM,
/// a listener, a pending event, strings, an object graph and a feature
/// map with negatives, specials and subnormals.
fn client() -> Browser {
    let mut b = Browser::new();
    b.load_html(
        r#"<html><body><button id="btn">Go</button><div id="out">état</div></body>
        <script>
          var label = "naïve – ok";
          var counter = 2;
          var meta = {shape: [1, 4, 4, 4], name: "1st_pool", nested: {k: [1.5, (-2)]}};
          var feature = new Float32Array(64);
          for (var i = 0; i < 64; i += 1) { feature[i] = (i - 20) * 0.37; }
          feature[3] = 0 / 0;
          feature[4] = -1 / 0;
          feature[5] = 1e-45;
          function rear() { document.getElementById("out").textContent = label + counter; }
          document.getElementById("btn").addEventListener("front_complete", rear);
        </script></html>"#,
    )
    .unwrap();
    b.dispatch("btn", "front_complete").unwrap();
    b
}

fn metered() -> Browser {
    let mut b = Browser::new();
    b.set_meter(
        MeterLimits::default()
            .with_ops(1_000_000)
            .with_heap_cells(100_000)
            .with_string_len(1 << 20)
            .with_call_depth(64),
    );
    b
}

/// Byte ranges of the `new Float32Array([...])` literals in `text`.
fn literal_ranges(text: &str) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut from = 0;
    while let Some(start) = text[from..].find("new Float32Array([") {
        let start = from + start;
        let end = text[start..]
            .find("])")
            .map_or(text.len(), |e| start + e + 2);
        ranges.push((start, end));
        from = end;
    }
    ranges
}

/// A char boundary at or before byte `at`.
fn boundary(text: &str, mut at: usize) -> usize {
    at = at.min(text.len());
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// A byte position inside a random literal, or anywhere when `text`
/// holds none.
fn in_literal(rng: &mut Rng, text: &str) -> usize {
    let ranges = literal_ranges(text);
    if ranges.is_empty() {
        return rng.gen_range_usize(0, text.len() + 1);
    }
    let (start, end) = *rng.choose(&ranges);
    boundary(text, rng.gen_range_usize(start, end + 1))
}

/// Applies one to three seeded mutations to `text`.
fn mutate(rng: &mut Rng, text: &str) -> String {
    let mut out = text.to_string();
    for _ in 0..rng.gen_range_usize(1, 4) {
        if out.is_empty() {
            break;
        }
        match rng.gen_range_usize(0, 5) {
            0 => {
                let mut bytes = out.into_bytes();
                let at = rng.gen_range_usize(0, bytes.len());
                bytes[at] ^= 1 << rng.gen_range_usize(0, 8);
                out = String::from_utf8_lossy(&bytes).into_owned();
            }
            1 => {
                let at = in_literal(rng, &out);
                out.truncate(at);
            }
            2 => {
                let at = boundary(&out, rng.gen_range_usize(0, out.len() + 1));
                let text = *rng.choose(&NON_ASCII);
                out.insert_str(at, text);
            }
            3 => {
                let at = in_literal(rng, &out);
                let text = *rng.choose(&["(", "-", ",", "(-", ",,"]);
                out.insert_str(at, text);
            }
            _ => {
                let start = boundary(&out, rng.gen_range_usize(0, out.len()));
                let end = boundary(&out, start + rng.gen_range_usize(1, 16));
                out.replace_range(start..end, "");
            }
        }
    }
    out
}

/// Runs `restore` on `input`, failing with the case and its input if it
/// panics. Returns whether it succeeded.
fn outcome(
    case: usize,
    what: &str,
    input: &str,
    restore: impl FnOnce() -> Result<(), WebError>,
) -> bool {
    match catch_unwind(AssertUnwindSafe(restore)) {
        Ok(result) => result.is_ok(),
        Err(_) => panic!("{what} case {case} panicked on input:\n{input}"),
    }
}

#[test]
fn mutated_snapshots_restore_or_fail_with_a_typed_error() {
    let snapshot = client()
        .capture_snapshot(&SnapshotOptions::default())
        .unwrap();
    let html = snapshot.html();
    assert!(!literal_ranges(html).is_empty());
    let mut rng = Rng::seed_from_u64(0x5eed_f022);
    let mut restored = 0;
    for case in 0..CASES {
        let mutated = mutate(&mut rng, html);
        restored += usize::from(outcome(case, "snapshot", &mutated, || {
            let mut server = metered();
            server.load_html(&mutated)?;
            server.run_until_idle().map(|_| ())
        }));
    }
    // Both outcomes occur, so the mutations neither always break the
    // text nor always miss it.
    assert!(
        0 < restored && restored < CASES,
        "{restored}/{CASES} restored"
    );
}

#[test]
fn mutated_deltas_apply_or_fail_with_a_typed_error() {
    let mut client = client();
    let snapshot = client
        .capture_snapshot(&SnapshotOptions::default())
        .unwrap();
    let base = client.state_base();
    client
        .exec_script("counter = 3; label = \"ünïcode\"; feature[7] = -0.125; meta.name = \"x\";")
        .unwrap();
    let DeltaCapture::Delta(delta) = client
        .capture_delta(&base, &SnapshotOptions::default())
        .unwrap()
    else {
        panic!("expected a delta");
    };
    assert!(!literal_ranges(delta.script()).is_empty());
    let mut rng = Rng::seed_from_u64(0x5eed_de17);
    let mut applied = 0;
    for case in 0..CASES {
        let mutated = mutate(&mut rng, delta.script());
        applied += usize::from(outcome(case, "delta", &mutated, || {
            let mut server = metered();
            server.load_html(snapshot.html())?;
            // `Browser::apply_delta` runs the delta script exactly so.
            server.exec_script(&mutated)?;
            server.run_until_idle().map(|_| ())
        }));
    }
    assert!(0 < applied && applied < CASES, "{applied}/{CASES} applied");
}
