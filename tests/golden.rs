//! Golden pin of the one-shot scenario numbers.
//!
//! Every zoo model runs under the paper configuration as client-only,
//! server-only, offload before ACK, offload after ACK and partial
//! inference at each Fig. 8 cut, plus googlenet `1st_pool` over a 5 Mbps
//! link with snapshot compression. Each run's exact nanosecond total, all
//! eight `Breakdown` phases, ACK time, byte counts and on-screen label are
//! compared against `tests/golden/scenarios.tsv`, and the tiny after-ACK
//! event trace against `tests/golden/tiny_after_ack.jsonl`. The virtual
//! timeline is deterministic, so any drift is a timing-model change.
//!
//! Regenerate both files (only for an intended timing-model change) with
//! `SNAPEDGE_BLESS=1 cargo test --release -p snapedge-integration --test golden`.

use snapedge_core::prelude::*;
use std::path::PathBuf;
use std::time::Duration;

/// One pinned run: what strategy, and the one non-default link/codec case.
enum Case {
    Client,
    Server,
    BeforeAck,
    AfterAck,
    Cut(&'static str),
    /// Partial inference at the cut over a slow link, compressed.
    CompressedCut(&'static str, f64),
}

impl Case {
    fn label(&self) -> String {
        match self {
            Case::Client => "client".into(),
            Case::Server => "server".into(),
            Case::BeforeAck => "before-ack".into(),
            Case::AfterAck => "after-ack".into(),
            Case::Cut(cut) => format!("cut:{cut}"),
            Case::CompressedCut(cut, mbps) => format!("cut:{cut}@{mbps}mbps+compress"),
        }
    }
}

/// Runs one case through the public scenario API.
fn observe(model: &str, case: &Case) -> ScenarioReport {
    let mut cfg = SessionConfig::paper(model);
    let strategy = match case {
        Case::Client => Strategy::ClientOnly,
        Case::Server => Strategy::ServerOnly,
        Case::BeforeAck => Strategy::OffloadBeforeAck,
        Case::AfterAck => Strategy::OffloadAfterAck,
        Case::Cut(cut) | Case::CompressedCut(cut, _) => {
            cfg.cut = Some(cut.to_string());
            Strategy::Partial
        }
    };
    if let Case::CompressedCut(_, mbps) = case {
        cfg.primary_mut().link = LinkConfig::mbps(*mbps);
        cfg.compress = true;
    }
    run_scenario(&cfg, strategy).unwrap_or_else(|e| panic!("{model} {}: {e}", case.label()))
}

/// The tiny real-arithmetic after-ACK run whose trace is pinned.
fn tiny_after_ack_trace() -> Trace {
    run_scenario(&SessionConfig::tiny(), Strategy::OffloadAfterAck)
        .unwrap()
        .trace
}

fn cases(model: &str) -> Vec<Case> {
    let mut cases = vec![Case::Client, Case::Server, Case::BeforeAck, Case::AfterAck];
    cases.extend(zoo::fig8_cuts(model).into_iter().map(Case::Cut));
    if model == "googlenet" {
        cases.push(Case::CompressedCut("1st_pool", 5.0));
    }
    cases
}

const MODELS: [&str; 5] = [
    "googlenet",
    "agenet",
    "gendernet",
    "tiny_cnn",
    "tiny_inception",
];

const HEADER: &str = "model\tcase\ttotal_ns\tack_at_ns\tmodel_upload_bytes\tup_bytes\t\
down_bytes\tresult\texec_client_ns\tcapture_client_ns\ttransfer_up_ns\trestore_server_ns\t\
exec_server_ns\tcapture_server_ns\ttransfer_down_ns\trestore_client_ns";

fn row(model: &str, case: &Case, r: &ScenarioReport) -> String {
    let ns = |d: Duration| d.as_nanos().to_string();
    let b = &r.breakdown;
    [
        model.to_string(),
        case.label(),
        ns(r.total),
        r.ack_at.map_or_else(|| "-".to_string(), ns),
        r.model_upload_bytes.to_string(),
        r.snapshot_up_bytes.to_string(),
        r.snapshot_down_bytes.to_string(),
        r.result.clone(),
        ns(b.exec_client),
        ns(b.capture_client),
        ns(b.transfer_up),
        ns(b.restore_server),
        ns(b.exec_server),
        ns(b.capture_server),
        ns(b.transfer_down),
        ns(b.restore_client),
    ]
    .join("\t")
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

fn blessing() -> bool {
    std::env::var_os("SNAPEDGE_BLESS").is_some()
}

/// Compares `actual` with the committed file line by line (or rewrites the
/// file when blessing), naming the first differing line on failure.
fn check_against(name: &str, actual: &str) {
    let path = golden_path(name);
    if blessing() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    for (i, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "{name} line {} drifted", i + 1);
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "{name}: line count drifted"
    );
}

#[test]
fn scenario_numbers_match_the_golden_pin() {
    let mut out = String::from(HEADER);
    out.push('\n');
    for model in MODELS {
        for case in cases(model) {
            let report = observe(model, &case);
            out.push_str(&row(model, &case, &report));
            out.push('\n');
        }
    }
    check_against("scenarios.tsv", &out);
}

#[test]
fn tiny_after_ack_trace_matches_the_golden_pin() {
    check_against("tiny_after_ack.jsonl", &tiny_after_ack_trace().to_jsonl());
}
