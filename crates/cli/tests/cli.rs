//! End-to-end checks of the `snapedge` binary: help, strict flags, and
//! inputs that must fail with an error naming the flag instead of a panic.

use std::process::{Command, Output};

fn snapedge(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_snapedge"))
        .args(args)
        .output()
        .expect("the snapedge binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Asserts `args` exits 1 with an error naming `--flag` and no panic.
fn rejects(args: &[&str], flag: &str) {
    let out = snapedge(args);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
    let first = err.lines().next().unwrap_or_default();
    assert!(first.contains(&format!("--{flag}")), "{args:?}: {first}");
    assert!(!err.contains("panicked"), "{args:?}: {err}");
}

#[test]
fn help_prints_usage_to_stdout_and_exits_zero() {
    for args in [&["--help"][..], &["-h"], &["help"], &["fleet", "--help"]] {
        let out = snapedge(args);
        assert!(out.status.success(), "{args:?}");
        assert!(stdout(&out).starts_with("usage:"), "{args:?}");
        assert!(out.stderr.is_empty(), "{args:?}");
    }
}

#[test]
fn unknown_subcommand_exits_one_with_usage_on_stderr() {
    let out = snapedge(&["teleport"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn misspelled_fleet_flag_is_rejected_not_ignored() {
    rejects(&["fleet", "--clinets", "5"], "clinets");
}

#[test]
fn negative_duration_is_rejected() {
    rejects(&["fleet", "--duration", "-5"], "duration");
}

#[test]
fn huge_duration_is_rejected() {
    rejects(&["fleet", "--duration", "1e30"], "duration");
}

#[test]
fn huge_batch_window_is_rejected() {
    rejects(&["fleet", "--batch-window", "1e30"], "batch-window");
}

#[test]
fn negative_closed_loop_think_time_is_rejected() {
    rejects(&["fleet", "--arrival", "closed:-1"], "arrival");
}

#[test]
fn vanishing_link_rate_is_rejected() {
    rejects(&["run", "--mbps", "1e-30"], "mbps");
}

#[test]
fn timeline_false_prints_no_timeline() {
    let run = |on: &str| {
        let out = snapedge(&["run", "--model", "tiny_cnn", "--timeline", on]);
        assert!(out.status.success());
        stdout(&out)
    };
    assert!(run("true").contains("timeline"));
    assert!(!run("false").contains("timeline"));
}

#[test]
fn no_deltas_false_keeps_deltas() {
    let out = snapedge(&[
        "session",
        "--model",
        "tiny_cnn",
        "--rounds",
        "2",
        "--no-deltas",
        "false",
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    let round2 = text
        .lines()
        .find(|l| l.trim_start().starts_with("2 "))
        .unwrap_or_default();
    assert!(round2.contains(" delta "), "{text}");
}
