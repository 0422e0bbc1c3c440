//! Cross-crate integration tests: real DNN + real browsers + real
//! snapshots + simulated network, end to end.

use snapedge_core::prelude::*;
use snapedge_dnn::{ModelBundle, ParamStore};
use snapedge_tensor::Tensor;

/// The label every strategy should produce: computed directly with the
/// DNN engine, bypassing the web stack entirely.
fn ground_truth_class(seed: u64, image_bytes: usize) -> usize {
    let net = zoo::tiny_cnn();
    let params = net.init_params(seed).unwrap();
    // Reproduce the host's deterministic image decode: FNV over the data
    // URL, then the same per-pixel mix.
    let url = snapedge_core::apps::synthetic_image_data_url(seed, image_bytes);
    let mut h: u64 = seed;
    for b in url.bytes() {
        h = h.wrapping_mul(1099511628211).wrapping_add(b as u64);
    }
    let input = Tensor::from_fn(net.input_shape().dims(), |i| {
        let mut z = h.wrapping_add(i as u64).wrapping_mul(0x9E3779B97F4A7C15);
        z ^= z >> 29;
        ((z % 256) as f32) / 255.0
    })
    .unwrap();
    let fwd = net.forward(&params, &input, ExecMode::Real).unwrap();
    fwd.final_output().argmax()
}

#[test]
fn every_strategy_matches_the_dnn_engines_ground_truth() {
    let cfg = SessionConfig::tiny();
    let expected = format!("class_{}", ground_truth_class(cfg.seed, cfg.image_bytes));
    for (strategy, cut) in [
        (Strategy::ClientOnly, None),
        (Strategy::ServerOnly, None),
        (Strategy::OffloadBeforeAck, None),
        (Strategy::OffloadAfterAck, None),
        (Strategy::Partial, Some("1st_pool")),
        (Strategy::Partial, Some("2nd_pool")),
    ] {
        let mut cfg = SessionConfig::tiny();
        cfg.cut = cut.map(str::to_string);
        let report = run_scenario(&cfg, strategy).unwrap();
        assert!(
            report.result.starts_with(&expected),
            "strategy {strategy:?} {cut:?}: got {:?}, expected {expected}*",
            report.result
        );
    }
}

#[test]
fn partial_inference_works_at_every_valid_cut_of_the_tiny_net() {
    let net = zoo::tiny_cnn();
    let reference = run_scenario(&SessionConfig::tiny(), Strategy::ClientOnly).unwrap();
    for cut in net.cut_points() {
        // Skip the classifier tail: offloading after softmax is pointless
        // but still mechanically valid; include it anyway.
        let report = run_scenario(
            &SessionConfig::tiny_builder().cut(&cut.label).build(),
            Strategy::Partial,
        )
        .unwrap();
        assert_eq!(report.result, reference.result, "cut {}", cut.label);
    }
}

#[test]
fn deeper_cuts_shift_work_from_server_to_client() {
    let shallow = run_scenario(
        &SessionConfig::tiny_builder().cut("1st_conv").build(),
        Strategy::Partial,
    )
    .unwrap();
    let deep = run_scenario(
        &SessionConfig::tiny_builder().cut("2nd_pool").build(),
        Strategy::Partial,
    )
    .unwrap();
    assert!(deep.breakdown.exec_client > shallow.breakdown.exec_client);
    assert!(deep.breakdown.exec_server < shallow.breakdown.exec_server);
}

#[test]
fn model_bundle_survives_the_wire_and_reproduces_inference() {
    // What pre-sending actually ships: materialized files that the server
    // loads back into a parameter store.
    let net = zoo::tiny_cnn();
    let params = net.init_params(99).unwrap();
    let bundle = ModelBundle::materialized(&net, &params).unwrap();

    // "Receive" the files: rebuild network from the description and
    // parameters from the blobs.
    let desc = bundle.description().unwrap();
    let rebuilt = snapedge_dnn::Network::from_description(desc).unwrap();
    let loaded = ParamStore::from_bundle(&bundle).unwrap();

    let input = Tensor::from_fn(net.input_shape().dims(), |i| ((i % 17) as f32) / 17.0).unwrap();
    let a = net.forward(&params, &input, ExecMode::Real).unwrap();
    let b = rebuilt.forward(&loaded, &input, ExecMode::Real).unwrap();
    assert_eq!(a.final_output(), b.final_output());
}

#[test]
fn rear_only_server_cannot_execute_front_layers() {
    // The privacy mechanism: the server holding only rear parameter files
    // must fail if asked to run the front of the network.
    let net = zoo::tiny_cnn();
    let params = net.init_params(3).unwrap();
    let bundle = ModelBundle::materialized(&net, &params).unwrap();
    let cut = net.node_id("1st_pool").unwrap();
    let (_front, rear) = bundle.split(&net, cut).unwrap();
    let server_params = ParamStore::from_bundle(&rear).unwrap();

    let input = Tensor::zeros(net.input_shape().dims()).unwrap();
    // Front execution requires conv1 params, which the server lacks.
    let err = net.forward_until(&server_params, &input, cut, ExecMode::Real);
    assert!(err.is_err(), "server must not be able to run front layers");
    // But the rear runs fine given feature data.
    let feature = Tensor::zeros(net.output_shape(cut).unwrap().dims()).unwrap();
    assert!(net
        .forward_from(&server_params, cut, feature, ExecMode::Real)
        .is_ok());
}

#[test]
fn snapshots_grow_with_feature_size_not_model_size() {
    // Pre-sending means the snapshot excludes the model: full-offload
    // snapshots are tiny even for 44 MB models.
    let full = run_scenario(&SessionConfig::paper("agenet"), Strategy::OffloadAfterAck).unwrap();
    assert!(
        full.snapshot_up_bytes < 200 * 1024,
        "full-offload snapshot is {} bytes",
        full.snapshot_up_bytes
    );
    let partial = run_scenario(
        &SessionConfig::paper_builder("agenet")
            .cut("1st_pool")
            .build(),
        Strategy::Partial,
    )
    .unwrap();
    assert!(
        partial.snapshot_up_bytes > 10 * full.snapshot_up_bytes,
        "partial snapshot must carry megabytes of feature text"
    );
}

#[test]
fn result_snapshot_updates_the_client_screen() {
    // The DOM mutation performed on the server must be visible on the
    // client after the return migration — "we can even change the
    // client's screen at the edge server".
    let report = run_scenario(&SessionConfig::tiny(), Strategy::OffloadAfterAck).unwrap();
    assert!(report.result.starts_with("class_"));
    // The result element was "waiting", then "image loaded", and finally
    // the label — all three states travelled through snapshots.
    assert_ne!(report.result, "waiting");
    assert_ne!(report.result, "image loaded");
}

#[test]
fn compressed_sessions_keep_labels_and_shrink_the_first_upload() {
    let run = |compress: bool| {
        let cfg = SessionConfig::tiny_builder().compress(compress).build();
        let mut session = OffloadSession::new(cfg).unwrap();
        (1..=3)
            .map(|i| session.infer(i).unwrap())
            .collect::<Vec<RoundReport>>()
    };
    let plain = run(false);
    let packed = run(true);
    for (p, c) in plain.iter().zip(&packed) {
        assert_eq!(c.result, p.result, "round {}", p.round);
        assert!(!c.fell_back);
    }
    assert!(
        packed[0].up_bytes < plain[0].up_bytes,
        "round 1 ships a compressed full snapshot: {} vs {}",
        packed[0].up_bytes,
        plain[0].up_bytes
    );
}

#[test]
fn ack_timing_reflects_model_size() {
    let small = run_scenario(&SessionConfig::tiny(), Strategy::OffloadAfterAck).unwrap();
    let large = run_scenario(&SessionConfig::paper("agenet"), Strategy::OffloadAfterAck).unwrap();
    assert!(large.ack_at.unwrap() > small.ack_at.unwrap());
    assert!(large.ack_at.unwrap().as_secs_f64() > 10.0); // 44 MiB at 30 Mbps
}
