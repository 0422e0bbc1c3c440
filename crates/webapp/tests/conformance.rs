//! MiniJS conformance: a battery of small programs whose results are
//! checked against what real JavaScript produces (hand-verified). These
//! pin the interpreter semantics the snapshot mechanism depends on.

use snapedge_webapp::{Browser, JsValue};

/// Runs a program and returns the value of global `r`.
fn result_of(src: &str) -> JsValue {
    let mut b = Browser::new();
    b.exec_script(src).unwrap();
    b.global("r")
}

fn n(v: f64) -> JsValue {
    JsValue::Number(v)
}

fn s(v: &str) -> JsValue {
    JsValue::Str(v.to_string())
}

#[test]
fn arithmetic_semantics() {
    assert_eq!(result_of("var r = 7 / 2;"), n(3.5)); // float division
    assert_eq!(result_of("var r = 7 % 3;"), n(1.0));
    assert_eq!(result_of("var r = -7 % 3;"), n(-1.0)); // JS sign rule
    assert_eq!(result_of("var r = 0.1 + 0.2;"), n(0.1 + 0.2)); // IEEE
    assert_eq!(result_of("var r = 1 / 0;"), n(f64::INFINITY));
    let JsValue::Number(nan) = result_of("var r = 0 / 0;") else {
        panic!()
    };
    assert!(nan.is_nan());
}

#[test]
fn string_semantics() {
    assert_eq!(result_of(r#"var r = "a" + 1 + 2;"#), s("a12")); // left assoc
    assert_eq!(result_of(r#"var r = 1 + 2 + "a";"#), s("3a"));
    assert_eq!(result_of(r#"var r = "x" + null;"#), s("xnull"));
    assert_eq!(result_of(r#"var r = "x" + undefined;"#), s("xundefined"));
    assert_eq!(result_of(r#"var r = "" + true;"#), s("true"));
    assert_eq!(result_of(r#"var r = "" + [1, 2, 3];"#), s("1,2,3"));
    assert_eq!(result_of(r#"var r = "abc".length;"#), n(3.0));
}

#[test]
fn comparison_semantics() {
    assert_eq!(result_of(r#"var r = "a" < "b";"#), JsValue::Bool(true));
    assert_eq!(result_of(r#"var r = "b" <= "a";"#), JsValue::Bool(false));
    assert_eq!(result_of("var r = null == undefined;"), JsValue::Bool(true));
    assert_eq!(result_of("var r = null == 0;"), JsValue::Bool(false));
    assert_eq!(result_of(r#"var r = "1" == 1;"#), JsValue::Bool(false)); // strict-ish
}

#[test]
fn truthiness_in_control_flow() {
    assert_eq!(
        result_of(r#"var r = "no"; if ("") { r = "yes"; }"#),
        s("no")
    );
    assert_eq!(result_of("var r = 0; if ([]) { r = 1; }"), n(1.0)); // objects truthy
    assert_eq!(result_of("var r = 0; if ({}) { r = 1; }"), n(1.0));
    assert_eq!(
        result_of("var x = 0 / 0; var r = 0; if (x) { r = 1; }"),
        n(0.0) // NaN falsy
    );
}

#[test]
fn scoping_semantics() {
    // Parameters shadow globals.
    assert_eq!(
        result_of("var x = 1; function f(x) { return x; } var r = f(9);"),
        n(9.0)
    );
    // Missing arguments are undefined.
    assert_eq!(
        result_of("function f(a) { return typeof a; } var r = f();"),
        s("undefined")
    );
    // Extra arguments are ignored.
    assert_eq!(
        result_of("function f(a) { return a; } var r = f(1, 2, 3);"),
        n(1.0)
    );
    // Un-declared assignment in a function creates a global.
    assert_eq!(
        result_of("function f() { leak = 5; } f(); var r = leak;"),
        n(5.0)
    );
}

#[test]
fn var_hoists_to_the_top_of_its_function() {
    // A read before the `var` runs sees the hoisted binding: `undefined`.
    assert_eq!(
        result_of("function f() { var seen = typeof x; var x = 1; return seen; } var r = f();"),
        s("undefined")
    );
    // An assignment before the `var` binds the local; no global appears.
    let mut b = Browser::new();
    b.exec_script(
        "function g() { z = 1; var before = z; var z = 2; return before + z; } var r = g();",
    )
    .unwrap();
    assert_eq!(b.global("r"), n(3.0));
    assert!(b.eval_expr("z").is_err(), "no global z is created");
    // A `var` in a loop body is one binding for the whole function:
    // `undefined` until its first run, and still visible after the loop.
    assert_eq!(
        result_of(
            "function h() {
               var fresh = 0;
               for (var i = 0; i < 3; i += 1) {
                 if (typeof last == \"undefined\") { fresh += 1; }
                 var last = i;
               }
               return fresh * 10 + last;
             }
             var r = h();"
        ),
        n(12.0)
    );
}

#[test]
fn recursion_works() {
    assert_eq!(
        result_of(
            "function fact(n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
             var r = fact(6);"
        ),
        n(720.0)
    );
    assert_eq!(
        result_of(
            "function fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
             var r = fib(12);"
        ),
        n(144.0)
    );
}

#[test]
fn functions_are_values() {
    assert_eq!(
        result_of(
            "function double(x) { return x * 2; }
             var ops = {apply: double};
             var r = ops.apply(21);"
        ),
        n(42.0)
    );
    assert_eq!(
        result_of(
            "function inc(x) { return x + 1; }
             var fs = [inc, inc];
             var r = fs[1](41);"
        ),
        n(42.0)
    );
}

#[test]
fn object_property_semantics() {
    assert_eq!(
        result_of("var o = {}; var r = typeof o.missing;"),
        s("undefined")
    );
    assert_eq!(
        result_of(r#"var o = {x: 1}; o["y"] = 2; var r = o.y + o["x"];"#),
        n(3.0)
    );
    // Redefinition keeps last value.
    assert_eq!(result_of("var o = {a: 1, a: 2}; var r = o.a;"), n(2.0));
}

#[test]
fn array_semantics() {
    assert_eq!(
        result_of("var a = [1, 2]; a[4] = 9; var r = a.length;"),
        n(5.0)
    );
    assert_eq!(
        result_of("var a = [1, 2]; a[4] = 9; var r = typeof a[3];"),
        s("undefined")
    );
    assert_eq!(
        result_of("var a = []; var r = a.pop();"),
        JsValue::Undefined
    );
}

#[test]
fn float32array_semantics() {
    // Values are stored at f32 precision.
    assert_eq!(
        result_of("var f = new Float32Array([0.1]); var r = f[0] == 0.1;"),
        JsValue::Bool(false) // 0.1f32 widened != 0.1f64
    );
    assert_eq!(
        result_of("var f = new Float32Array([0.5]); var r = f[0];"),
        n(0.5) // exactly representable
    );
    assert_eq!(
        result_of("var f = new Float32Array(3); var r = f.length;"),
        n(3.0)
    );
}

#[test]
fn loops_compose() {
    assert_eq!(
        result_of(
            "var r = 0;
             for (var i = 0; i < 5; i += 1) {
               var j = 0;
               while (j < i) { r += 1; j += 1; }
             }"
        ),
        n(10.0)
    );
}

#[test]
fn early_return_exits_loops() {
    assert_eq!(
        result_of(
            "function find(limit) {
               for (var i = 0; i < limit; i += 1) {
                 if (i * i > 50) { return i; }
               }
               return -1;
             }
             var r = find(100);"
        ),
        n(8.0)
    );
}

#[test]
fn math_builtin_semantics() {
    assert_eq!(result_of("var r = Math.floor(-1.5);"), n(-2.0));
    assert_eq!(result_of("var r = Math.round(2.5);"), n(3.0));
    assert_eq!(result_of("var r = Math.max(1, 9, 4);"), n(9.0));
    assert_eq!(result_of("var r = Math.pow(2, 10);"), n(1024.0));
    assert_eq!(result_of("var r = Math.sqrt(81);"), n(9.0));
}
