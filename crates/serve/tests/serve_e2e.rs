//! End-to-end determinism of the serving loop, plus the batching-window
//! partition property.
//!
//! The contract: for a fixed seed and a fixed request arrival schedule, the
//! server's responses are **byte-identical** across worker counts (1 vs 4),
//! across repeated runs, and between the f32 and replayed streams — batching
//! and threading are throughput knobs, never semantic ones. Live mode keeps
//! the same response *content* (timing is wall-clock).

use ie_nn::dataset::SyntheticDataset;
use ie_nn::spec::tiny_multi_exit;
use ie_nn::train::{BatchPlanPool, QuantPlanPool};
use ie_nn::MultiExitNetwork;
use ie_runtime::{LatencyAdmission, StateDiscretizer};
use ie_serve::{
    Request, Response, ServeConfig, ServeError, ServeOutcome, Server, Verdict, WindowConfig,
};
use ie_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-exit latency cost table used by every test (seconds). Fixed rather
/// than calibrated so admission decisions are part of the fixture.
const COSTS: [f64; 2] = [0.002, 0.006];

fn network(seed: u64) -> MultiExitNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    MultiExitNetwork::from_architecture(&tiny_multi_exit(3), &mut rng).unwrap()
}

fn admission() -> LatencyAdmission {
    LatencyAdmission::static_lut(COSTS.to_vec(), vec![0.6, 0.7], StateDiscretizer::paper_default())
        .unwrap()
}

/// A fixed open-loop schedule: bursty arrivals, budgets cycling from "shed
/// me" through "shallow exit" to "deepest exit".
fn request_stream(count: usize) -> Vec<Request> {
    let data = SyntheticDataset::generate(3, 8, count, 0.1, 33);
    let samples: Vec<_> = data.train().iter().chain(data.test()).cloned().collect();
    (0..count)
        .map(|i| Request {
            id: i as u64,
            // Bursts of 4 at the same instant, 3 ms apart.
            arrival_s: (i / 4) as f64 * 0.003,
            budget_s: [0.0005, 0.003, 0.004, 0.008][i % 4],
            input: samples[i % samples.len()].image.clone(),
        })
        .collect()
}

fn replay_f32(threads: usize, requests: &[Request]) -> ServeOutcome {
    let net = network(5);
    let mut pool = BatchPlanPool::new();
    let config = ServeConfig::new(WindowConfig { max_batch: 4, deadline_s: 0.004 }, threads);
    let mut server = Server::new(&net, config, &mut pool).unwrap();
    let outcome = server.replay(&mut admission(), requests).unwrap();
    for plan in server.into_plans() {
        pool.put(plan);
    }
    outcome
}

#[test]
fn replay_responses_are_byte_identical_across_thread_counts_and_runs() {
    let requests = request_stream(64);
    let one = replay_f32(1, &requests);
    let four = replay_f32(4, &requests);
    let again = replay_f32(4, &requests);
    // Byte-identical: compare the full Debug serialization, not just Eq.
    assert_eq!(
        format!("{:?}", one.responses),
        format!("{:?}", four.responses),
        "1-thread and 4-thread responses must serialize identically"
    );
    assert_eq!(format!("{:?}", four.responses), format!("{:?}", again.responses));
    // The deterministic half of the report matches too: same batches, same
    // virtual queue waits.
    for (a, b) in [(&one, &four), (&four, &again)] {
        assert_eq!(a.report.served, b.report.served);
        assert_eq!(a.report.rejected, b.report.rejected);
        assert_eq!(a.report.batches, b.report.batches);
        assert_eq!(a.report.wait_p50_s.to_bits(), b.report.wait_p50_s.to_bits());
        assert_eq!(a.report.wait_p99_s.to_bits(), b.report.wait_p99_s.to_bits());
    }
    // The budget ladder exercises all three verdicts.
    let mut shed = 0;
    let mut shallow = 0;
    let mut deep = 0;
    for r in &one.responses {
        match r.verdict {
            Verdict::Rejected | Verdict::Shed { .. } => shed += 1,
            Verdict::Served { exit: 0, .. } => shallow += 1,
            Verdict::Served { .. } => deep += 1,
        }
    }
    assert!(shed > 0 && shallow > 0 && deep > 0, "{shed} shed, {shallow} shallow, {deep} deep");
    assert_eq!(one.report.rejected, shed);
    // Every queue wait respects the window deadline (virtual clock).
    assert!(one.report.wait_p99_s <= 0.004 + 1e-12);
}

#[test]
fn quantized_replay_is_deterministic_and_serves_the_same_decisions() {
    use ie_nn::quant::config_from_bits;
    use ie_tensor::QuantParams;

    let net = network(5);
    let n = net.architecture().compressible_layers().len();
    let first = QuantParams::from_range(-3.0, 3.0, 8);
    let act = QuantParams::from_range(0.0, 8.0, 8);
    let cfg = config_from_bits(
        &net,
        &(0..n).map(|i| Some((8, if i == 0 { first } else { act }))).collect::<Vec<_>>(),
    )
    .unwrap();
    let requests = request_stream(32);
    let run = |threads: usize| {
        let mut pool = QuantPlanPool::new();
        let config = ServeConfig::new(WindowConfig { max_batch: 4, deadline_s: 0.004 }, threads);
        let mut server = Server::new_quantized(&net, &cfg, config, &mut pool).unwrap();
        let outcome = server.replay(&mut admission(), &requests).unwrap();
        for plan in server.into_plans() {
            pool.put(plan);
        }
        outcome
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(format!("{:?}", one.responses), format!("{:?}", four.responses));
    // Admission is engine-independent: the quantized server makes the same
    // admit/shed/exit decisions as the f32 server for the same stream.
    let f32_resp = replay_f32(1, &requests).responses;
    let decision = |r: &Response| match r.verdict {
        Verdict::Rejected | Verdict::Shed { .. } => None,
        Verdict::Served { exit, .. } => Some(exit),
    };
    assert_eq!(
        one.responses.iter().map(decision).collect::<Vec<_>>(),
        f32_resp.iter().map(decision).collect::<Vec<_>>()
    );
}

#[test]
fn live_mode_content_matches_replay_across_thread_counts() {
    let net = network(5);
    let requests = request_stream(32);
    let run_live = |threads: usize| {
        let mut pool = BatchPlanPool::new();
        // A tiny live deadline keeps the test fast; content must not
        // depend on it.
        let config = ServeConfig::new(WindowConfig { max_batch: 4, deadline_s: 0.001 }, threads);
        let mut server = Server::new(&net, config, &mut pool).unwrap();
        let mut adm = admission();
        let outcome = server
            .run_live(&mut adm, |handle| {
                for r in &requests {
                    handle.submit(r.id, r.budget_s, r.input.clone()).expect("live submit");
                }
            })
            .unwrap();
        for plan in server.into_plans() {
            pool.put(plan);
        }
        outcome
    };
    let live_one = run_live(1);
    let live_four = run_live(4);
    let replayed = replay_f32(1, &requests);
    assert_eq!(live_one.responses.len(), requests.len());
    // Live responses come back sorted by id; content matches the replay of
    // the same submission order exactly, for any worker count.
    assert_eq!(format!("{:?}", live_one.responses), format!("{:?}", live_four.responses));
    assert_eq!(format!("{:?}", live_one.responses), format!("{:?}", replayed.responses));
    assert_eq!(
        live_four.report.served + live_four.report.rejected,
        requests.len(),
        "no request dropped or duplicated by the live queue"
    );
}

#[test]
fn mismatched_admission_tables_are_rejected() {
    let net = network(5); // 2 exits
    let mut pool = BatchPlanPool::new();
    let config = ServeConfig::new(WindowConfig { max_batch: 2, deadline_s: 0.001 }, 1);
    let mut server = Server::new(&net, config, &mut pool).unwrap();
    let mut three_exit_adm = LatencyAdmission::static_lut(
        vec![0.001, 0.002, 0.003],
        vec![0.5, 0.6, 0.7],
        StateDiscretizer::paper_default(),
    )
    .unwrap();
    assert!(matches!(
        server.replay(&mut three_exit_adm, &[]),
        Err(ie_serve::ServeError::InvalidConfig(_))
    ));
}

/// A wrong-shaped input is refused at submission: it does not count as
/// submitted, and it cannot fail the batch of its neighbours.
#[test]
fn live_submit_refuses_a_wrong_shaped_input_and_serves_the_rest() {
    let net = network(5);
    let requests = request_stream(16);
    let mut pool = BatchPlanPool::new();
    let config = ServeConfig::new(WindowConfig { max_batch: 4, deadline_s: 0.001 }, 2);
    let mut server = Server::new(&net, config, &mut pool).unwrap();
    let mut adm = admission();
    let mut refused = None;
    let outcome = server
        .run_live(&mut adm, |handle| {
            for r in &requests {
                handle.submit(r.id, r.budget_s, r.input.clone()).expect("live submit");
                if r.id == 7 {
                    refused = Some(handle.submit(99, 1.0, Tensor::zeros(&[1, 4, 4])));
                }
            }
        })
        .unwrap();
    match refused {
        Some(Err(ServeError::InvalidRequest(msg))) => assert!(msg.contains("request 99"), "{msg}"),
        other => panic!("expected InvalidRequest naming request 99, got {other:?}"),
    }
    assert_eq!(outcome.report.submitted, requests.len());
    assert!(outcome.report.conservation_holds());
    assert_eq!(
        format!("{:?}", outcome.responses),
        format!("{:?}", replay_f32(1, &requests).responses),
        "every well-formed request is answered as in replay"
    );
}

/// Replay checks every input's shape up front, before any worker starts.
#[test]
fn replay_refuses_a_wrong_shaped_input_naming_its_id() {
    let net = network(5);
    let mut requests = request_stream(16);
    requests[5].input = Tensor::zeros(&[1, 4, 4]);
    let mut pool = BatchPlanPool::new();
    let config = ServeConfig::new(WindowConfig { max_batch: 4, deadline_s: 0.004 }, 2);
    let mut server = Server::new(&net, config, &mut pool).unwrap();
    match server.replay(&mut admission(), &requests) {
        Err(ServeError::InvalidRequest(msg)) => assert!(msg.contains("request 5"), "{msg}"),
        other => panic!("expected InvalidRequest naming request 5, got {other:?}"),
    }
}

/// The serving oracle that batches nothing: a replay on the 3-exit LeNet
/// whose windows each mix all three exits, f32 and int8. Every served
/// verdict must equal, bit for bit, its request's input run alone to the
/// same exit through `forward_to_exit_with` on a single-input plan of the
/// same engine.
#[test]
fn mixed_exit_windows_serve_each_request_as_its_lone_run() {
    use ie_nn::quant::config_from_bits;
    use ie_nn::spec::lenet_multi_exit;
    use ie_tensor::QuantParams;

    let mut rng = StdRng::seed_from_u64(21);
    let net = MultiExitNetwork::from_architecture(&lenet_multi_exit(), &mut rng).unwrap();
    let costs = vec![0.001, 0.004, 0.009];
    let lenet_admission = || {
        LatencyAdmission::static_lut(
            costs.clone(),
            vec![0.6, 0.7, 0.75],
            StateDiscretizer::paper_default(),
        )
        .unwrap()
    };
    // Bursts of 4 at one instant close one window each; the budget ladder,
    // rotated per burst, puts every exit in every window at a different
    // place, so the deepest-first order differs from the arrival order.
    let ladder = [0.0015, 0.0045, 0.0095, 0.0045];
    let requests: Vec<Request> = (0..24)
        .map(|i| Request {
            id: i as u64,
            arrival_s: (i / 4) as f64 * 0.05,
            budget_s: ladder[(i + i / 4) % 4],
            input: Tensor::randn(&mut rng, &[3, 32, 32], 0.0, 1.0),
        })
        .collect();
    let n = net.architecture().compressible_layers().len();
    let first = QuantParams::from_range(-3.0, 3.0, 8);
    let act = QuantParams::from_range(0.0, 8.0, 8);
    let entries: Vec<_> = (0..n).map(|i| Some((8, if i == 0 { first } else { act }))).collect();
    let cfg = config_from_bits(&net, &entries).unwrap();
    let window = WindowConfig { max_batch: 4, deadline_s: 0.004 };
    for quantized in [false, true] {
        let outcome = if quantized {
            let mut pool = QuantPlanPool::new();
            let mut server =
                Server::new_quantized(&net, &cfg, ServeConfig::new(window, 1), &mut pool).unwrap();
            server.replay(&mut lenet_admission(), &requests).unwrap()
        } else {
            let mut pool = BatchPlanPool::new();
            let mut server = Server::new(&net, ServeConfig::new(window, 1), &mut pool).unwrap();
            server.replay(&mut lenet_admission(), &requests).unwrap()
        };
        assert_eq!(outcome.report.served, requests.len(), "every request is served");
        assert_eq!(outcome.report.batches, requests.len() / 4, "one window per burst");
        let mut lone = if quantized {
            net.execution_plan_quantized(&cfg).unwrap()
        } else {
            net.execution_plan()
        };
        for (window, responses) in outcome.responses.chunks(4).enumerate() {
            let mut exits = Vec::new();
            for (r, request) in responses.iter().zip(&requests[window * 4..]) {
                let Verdict::Served { exit, prediction, confidence } = r.verdict else {
                    panic!("request {} was not served: {:?}", r.id, r.verdict);
                };
                let alone = net.forward_to_exit_with(&mut lone, &request.input, exit).unwrap();
                let at = format!("request {} at exit {exit} (int8: {quantized})", r.id);
                assert_eq!(prediction, alone.prediction, "{at}");
                assert_eq!(confidence.to_bits(), alone.confidence.to_bits(), "{at}");
                exits.push(exit);
            }
            exits.sort_unstable();
            exits.dedup();
            assert_eq!(exits, [0, 1, 2], "window {window} mixes every exit");
        }
    }
}
