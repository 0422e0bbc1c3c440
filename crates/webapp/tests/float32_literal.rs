//! Restoring `new Float32Array([...])` literals, the text every captured
//! feature map travels as. The parser and the interpreter take a fast path
//! for lists of number literals; these tests pin that it restores what the
//! generic path restores: the same `f32` bits, step counts, meter charges,
//! values and errors.

use snapedge_rng::Rng;
use snapedge_webapp::parser::parse_expr;
use snapedge_webapp::{Browser, HeapCell, JsValue, MeterLimits, SnapshotOptions, Symbol, WebError};

/// Values the renderer special-cases (`-0`, `(0/0)`, `(±1/0)`) or whose
/// decimal text is extreme (subnormals, the range ends).
const SPECIALS: [f32; 10] = [
    0.0,
    -0.0,
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::MAX,
    f32::MIN,
    f32::MIN_POSITIVE,
    f32::from_bits(1),
    -f32::from_bits(0x007F_FFFF),
];

/// A seeded vector of `n` values: uniform draws, finite random bit
/// patterns (normals and subnormals of any exponent) and picks from
/// `specials`.
fn vector(rng: &mut Rng, n: usize, specials: &[f32]) -> Vec<f32> {
    (0..n)
        .map(|_| match rng.gen_range_usize(0, 4) {
            0 if !specials.is_empty() => *rng.choose(specials),
            1 => loop {
                let v = f32::from_bits(rng.next_u32());
                if v.is_finite() {
                    break v;
                }
            },
            _ => rng.gen_range_f32(-4.0, 4.0),
        })
        .collect()
}

fn f32_data(b: &Browser, value: &JsValue) -> Vec<f32> {
    let JsValue::Float32Array(id) = value else {
        panic!("expected a Float32Array, got {value:?}");
    };
    match b.core().heap.cell(*id).unwrap() {
        HeapCell::Float32Array(data) => data.clone(),
        other => panic!("expected Float32Array data, got {other:?}"),
    }
}

/// Bit-for-bit equality, except that any NaN matches any NaN (the text
/// form `(0/0)` carries no payload).
fn assert_same_bits(want: &[f32], got: &[f32], context: &str) {
    assert_eq!(want.len(), got.len(), "{context}: length");
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        if w.is_nan() {
            assert!(g.is_nan(), "{context}[{i}]: want NaN, got {g:?}");
        } else {
            assert_eq!(w.to_bits(), g.to_bits(), "{context}[{i}]: {w:?} vs {g:?}");
        }
    }
}

/// The `new Float32Array([...])` literal inside a snapshot holding one.
fn literal_in(html: &str) -> &str {
    let start = html
        .find("new Float32Array([")
        .expect("snapshot holds a literal");
    let end = start + html[start..].find("])").expect("literal is closed") + 2;
    &html[start..end]
}

/// The same list with bare `-x` for negatives, which the fast path
/// refuses: it always takes the generic parser path.
fn bare_minus_list(data: &[f32]) -> String {
    let elems: Vec<String> = data
        .iter()
        .map(|&v| {
            let d = f64::from(v);
            if d.is_nan() {
                "(0/0)".to_string()
            } else if d.is_infinite() {
                if d > 0.0 { "(1/0)" } else { "(-1/0)" }.to_string()
            } else {
                format!("{d}")
            }
        })
        .collect();
    format!("[{}]", elems.join(","))
}

fn metered() -> Browser {
    let mut b = Browser::new();
    b.set_meter(MeterLimits::default());
    b
}

#[test]
fn captured_vectors_restore_with_the_generic_paths_bits_steps_and_ops() {
    // Every special; only the ones the fast path takes (finite, not -0);
    // none.
    let finite: Vec<f32> = SPECIALS
        .into_iter()
        .filter(|v| v.is_finite() && !(*v == 0.0 && v.is_sign_negative()))
        .collect();
    let mixes: [&[f32]; 3] = [&SPECIALS, &finite, &[]];
    let mut rng = Rng::seed_from_u64(0x5eed_0f32);
    for case in 0..12 {
        let n = rng.gen_range_usize(1, 400);
        let data = vector(&mut rng, n, mixes[case % 3]);
        let context = format!("case {case} (n={n})");

        // Capture through a global and restore on a metered browser.
        let mut client = Browser::new();
        let value = client.core_mut().heap.alloc_f32(data.clone());
        client.core_mut().globals.insert(Symbol::intern("v"), value);
        let snapshot = client
            .capture_snapshot(&SnapshotOptions::default())
            .unwrap();
        let mut server = metered();
        server.load_html(snapshot.html()).unwrap();
        assert_same_bits(&data, &f32_data(&server, &server.global("v")), &context);

        // One literal costs the constructor, the array and one step per
        // element; `(0/0)` and `(±1/0)` are three-node divisions.
        let literal = literal_in(snapshot.html());
        let specials = data.iter().filter(|v| !v.is_finite()).count() as u64;
        let mut fast = metered();
        let restored = fast.eval_expr(literal).unwrap();
        assert_same_bits(&data, &f32_data(&fast, &restored), &context);
        assert_eq!(fast.steps(), 2 + n as u64 + 2 * specials, "{context}");
        assert_eq!(fast.meter().unwrap().total_ops(), fast.steps(), "{context}");

        // The generic interpreter path: the list arrives as an array value.
        let list = &literal["new Float32Array(".len()..literal.len() - 1];
        let mut generic = metered();
        generic.exec_script(&format!("var a = {list};")).unwrap();
        let from_array = generic.eval_expr("new Float32Array(a)").unwrap();
        assert_same_bits(&data, &f32_data(&generic, &from_array), &context);

        // The generic parser path builds the same AST, bit for bit.
        let via_fast = parse_expr(list).unwrap();
        let via_generic = parse_expr(&bare_minus_list(&data)).unwrap();
        assert_eq!(
            format!("{via_fast:?}"),
            format!("{via_generic:?}"),
            "{context}"
        );
    }
}

#[test]
fn mixed_lists_take_the_generic_path_with_unchanged_values_and_steps() {
    let mut b = metered();
    b.exec_script("var x = 5;").unwrap();
    let cases: [(&str, Vec<f32>, u64); 6] = [
        ("new Float32Array([1, x, 2])", vec![1.0, 5.0, 2.0], 5),
        ("new Float32Array([1, (0/0)])", vec![1.0, f32::NAN], 6),
        ("new Float32Array([-0])", vec![-0.0], 3),
        ("new Float32Array([(-0)])", vec![-0.0], 3),
        ("new Float32Array([])", vec![], 2),
        ("new Float32Array([(-x), 2.5])", vec![-5.0, 2.5], 5),
    ];
    for (src, want, steps) in cases {
        let value = b.eval_expr(src).unwrap();
        assert_same_bits(&want, &f32_data(&b, &value), src);
        assert_eq!(b.steps(), steps, "{src}");
    }
}

#[test]
fn malformed_lists_keep_the_generic_paths_errors() {
    let parse_error = |src: &str| match parse_expr(src) {
        Err(WebError::Parse { line, message }) => (line, message),
        other => panic!("{src}: expected a parse error, got {other:?}"),
    };
    assert_eq!(
        parse_error("new Float32Array([1,])"),
        (1, "expected expression (at Punct(\"]\"))".to_string())
    );
    assert_eq!(
        parse_error("new Float32Array([1, 2"),
        (1, "expected \",\" (at Eof)".to_string())
    );
    assert_eq!(
        parse_error("[(-1), (-\n)]"),
        (2, "expected expression (at Punct(\")\"))".to_string())
    );
    assert_eq!(
        parse_error("[(-1) 2]"),
        (1, "expected \",\" (at Number(2.0))".to_string())
    );
}
