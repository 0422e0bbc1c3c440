//! Programmatic assertions that the reproduction preserves the *shape* of
//! every figure and table in the paper's evaluation (Section IV): who
//! wins, by roughly what factor, and where the crossovers fall.

use snapedge_core::prelude::*;
use snapedge_dnn::ModelBundle;
use snapedge_vmsynth::SynthesisConfig;

fn total_secs(model: &str, strategy: Strategy) -> f64 {
    run_scenario(&SessionConfig::paper(model), strategy)
        .unwrap()
        .total
        .as_secs_f64()
}

fn partial_secs(model: &str, cut: &str) -> f64 {
    let cfg = SessionConfig::paper_builder(model).cut(cut).build();
    run_scenario(&cfg, Strategy::Partial)
        .unwrap()
        .total
        .as_secs_f64()
}

// ---------------------------------------------------------------- Fig. 6

#[test]
fn fig6_server_is_much_faster_than_client() {
    for model in ["googlenet", "agenet", "gendernet"] {
        let client = total_secs(model, Strategy::ClientOnly);
        let server = total_secs(model, Strategy::ServerOnly);
        assert!(
            client / server > 5.0,
            "{model}: client {client}s vs server {server}s"
        );
    }
}

#[test]
fn fig6_offload_after_ack_is_close_to_server_execution() {
    // "offloading after ACK shows an execution time similar to that of
    // server's, even with the snapshot ... overhead".
    for model in ["googlenet", "agenet", "gendernet"] {
        let server = total_secs(model, Strategy::ServerOnly);
        let offload = total_secs(model, Strategy::OffloadAfterAck);
        assert!(
            offload > server,
            "{model}: offloading cannot beat the server"
        );
        assert!(
            offload < server * 1.35,
            "{model}: after-ACK {offload}s should be within 35% of server {server}s"
        );
    }
}

#[test]
fn fig6_before_ack_crossover_matches_the_paper() {
    // "for AgeNet and GenderNet, offloading before ACK is even slower
    // than the local client execution due to their large model size" —
    // while GoogLeNet's before-ACK still beats local.
    for model in ["agenet", "gendernet"] {
        let client = total_secs(model, Strategy::ClientOnly);
        let before = total_secs(model, Strategy::OffloadBeforeAck);
        assert!(before > client, "{model}: before-ACK must lose to local");
    }
    let client = total_secs("googlenet", Strategy::ClientOnly);
    let before = total_secs("googlenet", Strategy::OffloadBeforeAck);
    assert!(before < client, "googlenet: before-ACK should still win");
}

#[test]
fn fig6_partial_inference_costs_more_than_full_offloading() {
    for model in ["googlenet", "agenet", "gendernet"] {
        let full = total_secs(model, Strategy::OffloadAfterAck);
        let partial = partial_secs(model, "1st_pool");
        assert!(
            partial > full,
            "{model}: privacy has a cost ({partial} vs {full})"
        );
    }
}

// ---------------------------------------------------------------- Fig. 7

#[test]
fn fig7_snapshot_overhead_is_negligible_vs_dnn_execution() {
    for model in ["googlenet", "agenet", "gendernet"] {
        let r = run_scenario(&SessionConfig::paper(model), Strategy::OffloadAfterAck).unwrap();
        let b = r.breakdown;
        let snapshot_overhead =
            b.capture_client + b.restore_server + b.capture_server + b.restore_client;
        assert!(
            snapshot_overhead.as_secs_f64() < b.exec_server.as_secs_f64() * 0.25,
            "{model}: snapshot overhead {snapshot_overhead:?} vs exec {:?}",
            b.exec_server
        );
    }
}

#[test]
fn fig7_before_ack_is_dominated_by_uplink_transmission() {
    for model in ["agenet", "gendernet"] {
        let r = run_scenario(&SessionConfig::paper(model), Strategy::OffloadBeforeAck).unwrap();
        let b = r.breakdown;
        assert!(
            b.transfer_up.as_secs_f64() > r.total.as_secs_f64() * 0.5,
            "{model}: transfer_up {:?} of total {:?}",
            b.transfer_up,
            r.total
        );
    }
}

#[test]
fn fig7_server_execution_dominates_after_ack() {
    for model in ["googlenet", "agenet", "gendernet"] {
        let r = run_scenario(&SessionConfig::paper(model), Strategy::OffloadAfterAck).unwrap();
        assert!(
            r.breakdown.exec_server.as_secs_f64() > r.total.as_secs_f64() * 0.5,
            "{model}"
        );
    }
}

// ---------------------------------------------------------------- Fig. 8

#[test]
fn fig8_pool_cuts_beat_the_preceding_conv_cuts() {
    // The zig-zag: "the inference time decreases when the offloading point
    // moves from a conv layer to a pool layer".
    for model in ["googlenet", "agenet", "gendernet"] {
        for (conv, pool) in [("1st_conv", "1st_pool"), ("2nd_conv", "2nd_pool")] {
            let conv_t = partial_secs(model, conv);
            let pool_t = partial_secs(model, pool);
            assert!(
                pool_t < conv_t,
                "{model}: {pool} ({pool_t}) must beat {conv} ({conv_t})"
            );
        }
    }
}

#[test]
fn fig8_feature_sizes_match_the_papers_measurements() {
    // "the size of feature data is 14.7MB in 1st_conv while it is 2.9MB
    // in 1st_pool" (GoogLeNet). Measured from the actual snapshot bytes.
    let conv = run_scenario(
        &SessionConfig::paper_builder("googlenet")
            .cut("1st_conv")
            .build(),
        Strategy::Partial,
    )
    .unwrap();
    let pool = run_scenario(
        &SessionConfig::paper_builder("googlenet")
            .cut("1st_pool")
            .build(),
        Strategy::Partial,
    )
    .unwrap();
    let conv_mb = conv.snapshot_up_bytes as f64 / (1024.0 * 1024.0);
    let pool_mb = pool.snapshot_up_bytes as f64 / (1024.0 * 1024.0);
    assert!(
        (12.0..18.0).contains(&conv_mb),
        "1st_conv snapshot {conv_mb} MiB (paper: 14.7)"
    );
    assert!(
        (2.0..5.0).contains(&pool_mb),
        "1st_pool snapshot {pool_mb} MiB (paper: 2.9)"
    );
    // The 4x elements ratio shows through the text encoding.
    assert!(conv_mb / pool_mb > 3.0 && conv_mb / pool_mb < 5.0);
}

#[test]
fn fig8_input_cut_is_fastest_overall() {
    // "offloading with partial inference leads to lower performance than
    // offloading of full inference (offloading with Input)".
    for model in ["googlenet", "agenet"] {
        let input = total_secs(model, Strategy::OffloadAfterAck);
        for cut in zoo::fig8_cuts(model).into_iter().skip(1) {
            let t = partial_secs(model, cut);
            assert!(t > input, "{model}: cut {cut} ({t}s) vs input ({input}s)");
        }
    }
}

// ---------------------------------------------------------------- Table I

#[test]
fn table1_overlay_sizes_and_synthesis_times() {
    let cases = [
        ("googlenet", 65.0, 19.31),
        ("agenet", 82.0, 24.29),
        ("gendernet", 82.0, 24.31),
    ];
    for (model, paper_overlay_mb, paper_synth_s) in cases {
        let bytes = ModelBundle::from_network(&zoo::by_name(model).unwrap()).total_bytes();
        let report = vm_install(
            model,
            bytes,
            &LinkConfig::wifi_30mbps(),
            &SynthesisConfig::default(),
        )
        .unwrap();
        let overlay_mb = report.overlay_bytes as f64 / (1024.0 * 1024.0);
        let synth_s = report.total().as_secs_f64();
        assert!(
            (overlay_mb - paper_overlay_mb).abs() / paper_overlay_mb < 0.05,
            "{model}: overlay {overlay_mb} MiB vs paper {paper_overlay_mb}"
        );
        assert!(
            (synth_s - paper_synth_s).abs() / paper_synth_s < 0.10,
            "{model}: synthesis {synth_s}s vs paper {paper_synth_s}"
        );
    }
}

#[test]
fn table1_migration_without_presending_matches_the_paper() {
    // Paper: 7.79 s (GoogLeNet) / 12.07 s (Age/GenderNet): model + snapshot
    // on a 30 Mbps link. Migration = total minus server execution.
    let cases = [("googlenet", 7.79), ("agenet", 12.07), ("gendernet", 12.07)];
    for (model, paper_s) in cases {
        let r = run_scenario(&SessionConfig::paper(model), Strategy::OffloadBeforeAck).unwrap();
        let migration = (r.total - r.breakdown.exec_server).as_secs_f64();
        assert!(
            (migration - paper_s).abs() / paper_s < 0.15,
            "{model}: migration {migration}s vs paper {paper_s}s"
        );
    }
}

#[test]
fn table1_presending_makes_migration_sub_second() {
    // Paper: 0.60 / 0.34 / 0.34 s.
    for model in ["googlenet", "agenet", "gendernet"] {
        let r = run_scenario(&SessionConfig::paper(model), Strategy::OffloadAfterAck).unwrap();
        let migration = (r.total - r.breakdown.exec_server).as_secs_f64();
        assert!(
            migration < 1.0,
            "{model}: migration with pre-sending = {migration}s"
        );
    }
}

#[test]
fn table1_synthesis_costs_more_than_first_offload_without_presending() {
    // "even if pre-sending were not used, the overhead of the first
    // snapshot-based offloading ... is much smaller than the VM synthesis".
    for model in ["googlenet", "agenet"] {
        let bytes = ModelBundle::from_network(&zoo::by_name(model).unwrap()).total_bytes();
        let synth = vm_install(
            model,
            bytes,
            &LinkConfig::wifi_30mbps(),
            &SynthesisConfig::default(),
        )
        .unwrap()
        .total();
        let r = run_scenario(&SessionConfig::paper(model), Strategy::OffloadBeforeAck).unwrap();
        let migration = r.total - r.breakdown.exec_server;
        assert!(synth > migration, "{model}");
    }
}
