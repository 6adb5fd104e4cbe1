//! End-to-end chaos determinism: the serving loop under injected worker
//! panics, stalls and arrival bursts.
//!
//! The contract extends the fault-free one: for a fixed request stream and a
//! fixed [`ChaosPlan`] seed, **replay** outcomes — responses, sheds,
//! degradations, retry/restart counters, virtual queue waits — are
//! byte-identical across worker counts and repeated runs, panics and all.
//! **Live** mode keeps conservation instead: every submitted request is
//! answered exactly once (no deadlock, no duplicate execution), whatever the
//! panic schedule does to the workers.

use ie_nn::dataset::SyntheticDataset;
use ie_nn::spec::tiny_multi_exit;
use ie_nn::train::BatchPlanPool;
use ie_nn::MultiExitNetwork;
use ie_runtime::{LatencyAdmission, StateDiscretizer};
use ie_serve::{
    ChaosPlan, OverloadConfig, Request, ServeConfig, ServeOutcome, Server, ShedPolicy, ShedReason,
    Verdict, WindowConfig,
};
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

/// A fixed open-loop schedule: bursts of 4 every 3 ms, budgets cycling from
/// "reject me" through "shallow exit" to "deepest exit".
fn request_stream(count: usize) -> Vec<Request> {
    let data = SyntheticDataset::generate(3, 8, count, 0.1, 33);
    let samples: Vec<_> = data.train().iter().chain(data.test()).cloned().collect();
    (0..count)
        .map(|i| Request {
            id: i as u64,
            arrival_s: (i / 4) as f64 * 0.003,
            budget_s: [0.0005, 0.003, 0.004, 0.008][i % 4],
            input: samples[i % samples.len()].image.clone(),
        })
        .collect()
}

fn replay(
    threads: usize,
    requests: &[Request],
    overload: OverloadConfig,
    chaos: &ChaosPlan,
) -> ServeOutcome {
    let net = network(5);
    let mut pool = BatchPlanPool::new();
    let config =
        ServeConfig { window: WindowConfig { max_batch: 4, deadline_s: 0.004 }, threads, overload };
    let mut server = Server::new(&net, config, &mut pool).unwrap();
    let outcome = server.replay_chaotic(&mut admission(), requests, chaos).unwrap();
    for plan in server.into_plans() {
        pool.put(plan);
    }
    outcome
}

/// The acceptance bar of the CI chaos matrix, as a test: a bounded-queue
/// degrade server under the standard chaos mix produces byte-identical
/// replay outcomes for 1 vs 4 workers and repeated runs — with at least one
/// injected worker panic actually recovered and at least one request
/// actually shed along the way.
#[test]
fn chaotic_replay_is_byte_identical_across_worker_counts() {
    let requests = request_stream(96);
    let overload = OverloadConfig { queue_cap: 3, policy: ShedPolicy::Degrade };
    let chaos = ChaosPlan::seeded(7);
    let one = replay(1, &requests, overload, &chaos);
    let four = replay(4, &requests, overload, &chaos);
    let again = replay(4, &requests, overload, &chaos);
    assert_eq!(
        format!("{:?}", one.responses),
        format!("{:?}", four.responses),
        "1-thread and 4-thread chaotic responses must serialize identically"
    );
    assert_eq!(format!("{:?}", four.responses), format!("{:?}", again.responses));
    // Every deterministic report field matches too — including the chaos
    // counters, which are keyed on batch content, never worker identity.
    for (a, b) in [(&one, &four), (&four, &again)] {
        assert_eq!(a.report.submitted, b.report.submitted);
        assert_eq!(a.report.served, b.report.served);
        assert_eq!(a.report.rejected, b.report.rejected);
        assert_eq!(a.report.shed, b.report.shed);
        assert_eq!(a.report.degraded, b.report.degraded);
        assert_eq!(a.report.retried, b.report.retried);
        assert_eq!(a.report.restarted, b.report.restarted);
        assert_eq!(a.report.stalled, b.report.stalled);
        assert_eq!(a.report.deadline_met, b.report.deadline_met);
        assert_eq!(a.report.batches, b.report.batches);
        assert_eq!(a.report.per_exit, b.report.per_exit);
        assert_eq!(a.report.wait_p50_s.to_bits(), b.report.wait_p50_s.to_bits());
        assert_eq!(a.report.wait_p99_s.to_bits(), b.report.wait_p99_s.to_bits());
    }
    // The run is only a chaos test if chaos actually fired.
    assert!(one.report.restarted >= 1, "no worker panic was injected at seed 7");
    assert!(one.report.retried >= 1, "no lost batch was retried");
    assert!(one.report.shed >= 1, "the bounded queue never shed at 4x burst pressure");
    assert!(one.report.degraded >= 1, "queue pressure never degraded an exit");
    assert!(one.report.conservation_holds(), "chaos broke request conservation");
    // Recovery is complete: the retried batches were served, not lost.
    assert!(!one
        .responses
        .iter()
        .any(|r| matches!(r.verdict, Verdict::Shed { reason: ShedReason::RetryExhausted })));
}

/// A panic schedule that keeps killing the same batches drives them into
/// retry exhaustion: their members are shed (exactly once each) instead of
/// looping forever or vanishing.
#[test]
fn exhausted_retry_budget_sheds_deterministically() {
    let requests = request_stream(32);
    let chaos =
        ChaosPlan { panic_probability: 1.0, panic_every_attempt: true, ..ChaosPlan::seeded(3) };
    let one = replay(1, &requests, OverloadConfig::default(), &chaos);
    let four = replay(4, &requests, OverloadConfig::default(), &chaos);
    assert_eq!(format!("{:?}", one.responses), format!("{:?}", four.responses));
    assert_eq!(one.report.served, 0, "every batch's workers were killed on every attempt");
    assert!(one.report.conservation_holds());
    // Each batch burns attempt 0 plus its one retry before shedding.
    assert_eq!(one.report.restarted, one.report.batches * 2);
    for r in &one.responses {
        assert!(
            matches!(
                r.verdict,
                Verdict::Rejected | Verdict::Shed { reason: ShedReason::RetryExhausted }
            ),
            "request {} escaped a total panic schedule: {:?}",
            r.id,
            r.verdict
        );
    }
}

/// Worker recycling on the integer engine: a lost quantized worker's plan is
/// replaced from the spare quantized pool, and the chaotic replay answers
/// exactly as the fault-free one does, at any worker count.
#[test]
fn quantized_chaotic_replay_recycles_plans_and_matches_the_fault_free_run() {
    use ie_nn::quant::config_from_bits;
    use ie_nn::train::QuantPlanPool;
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
    let requests = request_stream(96);
    let run = |threads: usize, chaos: &ChaosPlan| {
        let mut pool = QuantPlanPool::new();
        let config = ServeConfig::new(WindowConfig { max_batch: 4, deadline_s: 0.004 }, threads);
        let mut server = Server::new_quantized(&net, &cfg, config, &mut pool).unwrap();
        let outcome = server.replay_chaotic(&mut admission(), &requests, chaos).unwrap();
        for plan in server.into_plans() {
            pool.put(plan);
        }
        outcome
    };
    let fault_free = run(1, &ChaosPlan::none());
    for threads in [1, 4] {
        let chaotic = run(threads, &ChaosPlan::seeded(7));
        assert_eq!(
            format!("{:?}", chaotic.responses),
            format!("{:?}", fault_free.responses),
            "{threads}-worker chaotic quantized replay diverged from the fault-free run"
        );
        assert!(chaotic.report.restarted >= 1, "no quantized worker was lost at seed 7");
        assert!(!chaotic
            .responses
            .iter()
            .any(|r| matches!(r.verdict, Verdict::Shed { reason: ShedReason::RetryExhausted })));
    }
}

/// Regression (live mode): a worker panicking mid-batch neither deadlocks
/// the condvar queue nor double-executes the re-enqueued batch. Every
/// admitted request is answered exactly once; ids stay unique.
#[test]
fn live_worker_panic_recovers_without_deadlock_or_duplicates() {
    let net = network(5);
    let requests = request_stream(32);
    // Every first attempt panics; the retry (attempt 1) succeeds.
    let chaos = ChaosPlan { panic_probability: 1.0, ..ChaosPlan::seeded(9) };
    let mut pool = BatchPlanPool::new();
    let config = ServeConfig::new(WindowConfig { max_batch: 4, deadline_s: 0.001 }, 2);
    let mut server = Server::new(&net, config, &mut pool).unwrap();
    let mut adm = admission();
    let outcome = server
        .run_live_chaotic(&mut adm, &chaos, |handle| {
            for r in &requests {
                handle.submit(r.id, r.budget_s, r.input.clone()).expect("live submit");
            }
        })
        .unwrap();
    for plan in server.into_plans() {
        pool.put(plan);
    }
    let r = &outcome.report;
    assert_eq!(outcome.responses.len(), requests.len(), "every submission answered");
    let mut ids: Vec<u64> = outcome.responses.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), requests.len(), "a re-enqueued batch was answered twice");
    assert!(r.conservation_holds(), "live chaos broke request conservation");
    assert!(r.restarted >= 1, "no worker was lost under a p=1 panic schedule");
    assert!(r.retried >= 1, "no lost batch was re-enqueued");
    // The retry budget was never exhausted: each batch's second attempt ran.
    assert!(!outcome
        .responses
        .iter()
        .any(|x| matches!(x.verdict, Verdict::Shed { reason: ShedReason::RetryExhausted })));
    assert_eq!(r.served + r.rejected, requests.len());
}

/// Live retry exhaustion still terminates and conserves: when every attempt
/// of every batch panics, all admitted requests come back shed, none hang.
#[test]
fn live_retry_exhaustion_terminates_and_conserves() {
    let net = network(5);
    let requests = request_stream(16);
    let chaos =
        ChaosPlan { panic_probability: 1.0, panic_every_attempt: true, ..ChaosPlan::seeded(13) };
    let mut pool = BatchPlanPool::new();
    let config = ServeConfig::new(WindowConfig { max_batch: 4, deadline_s: 0.001 }, 2);
    let mut server = Server::new(&net, config, &mut pool).unwrap();
    let mut adm = admission();
    let outcome = server
        .run_live_chaotic(&mut adm, &chaos, |handle| {
            for r in &requests {
                handle.submit(r.id, r.budget_s, r.input.clone()).expect("live submit");
            }
        })
        .unwrap();
    for plan in server.into_plans() {
        pool.put(plan);
    }
    assert_eq!(outcome.responses.len(), requests.len());
    assert!(outcome.report.conservation_holds());
    assert_eq!(outcome.report.served, 0);
    for resp in &outcome.responses {
        assert!(matches!(
            resp.verdict,
            Verdict::Rejected | Verdict::Shed { reason: ShedReason::RetryExhausted }
        ));
    }
}
