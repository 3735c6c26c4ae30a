//! Submission/completion queue edge cases: pacing beyond the queue depth,
//! empty-batch draining, and completion-order determinism at maximum depth.

use rd_engine::{Engine, EngineConfig, ReqKind, Timing, Topology};

fn single_die_config(queue_depth: u32) -> EngineConfig {
    EngineConfig { topology: Topology::single(), queue_depth, ..EngineConfig::small_test() }
}

/// Submitting far beyond the queue depth must complete every request, and
/// steady-state latency must equal exactly `depth × service`: request `i`
/// is admitted the moment request `i − depth` completes.
#[test]
fn submission_beyond_queue_depth_paces_admission() {
    let depth = 4u32;
    let mut engine = Engine::new(single_die_config(depth)).unwrap();
    engine.submit_write(0);
    engine.run(1);
    let mut completions = Vec::new();
    engine.drain_completions_into(&mut completions);

    let n = 24usize; // 6x the queue depth
    for _ in 0..n {
        engine.submit_read(0);
    }
    assert_eq!(engine.pending(), n);
    assert_eq!(engine.run(1), n);
    assert_eq!(engine.pending(), 0);

    completions.clear();
    engine.drain_completions_into(&mut completions);
    assert_eq!(completions.len(), n);
    let svc = Timing::mlc().read_service_us();
    for (i, c) in completions.iter().enumerate() {
        assert!(c.result.is_ok());
        if i >= depth as usize {
            // Admission gated by the (i - depth)-th completion.
            let gate = completions[i - depth as usize].complete_us;
            assert!(
                (c.submit_us - gate).abs() < 1e-9,
                "request {i}: submitted at {} but gate completed at {gate}",
                c.submit_us
            );
            assert!(
                (c.latency_us() - depth as f64 * svc).abs() < 1e-9,
                "request {i}: steady-state latency {} != depth*service {}",
                c.latency_us(),
                depth as f64 * svc
            );
        }
    }
}

/// Running an empty submission queue is a no-op — summarized too, and
/// through the staged forwards with or without a join — and draining is
/// idempotent: completions come out once, oldest first, then never again.
#[test]
fn empty_batch_and_completion_draining() {
    let mut engine = Engine::new(single_die_config(8)).unwrap();
    let mut completions = Vec::new();
    let mut summaries = Vec::new();
    // Empty batch: nothing processed, nothing posted.
    assert_eq!(engine.run(1), 0);
    engine.drain_completions_into(&mut completions);
    assert!(completions.is_empty());
    let idle = engine.stats();
    assert_eq!(idle.ops, 0);
    assert_eq!(idle.makespan_us, 0.0);
    assert_eq!(engine.run_summarized(2), 0);
    for join in [false, true] {
        assert_eq!(engine.begin_batch(2), 0);
        if join {
            engine.join_batch();
        }
        assert_eq!(engine.finish_batch(), 0, "join={join}");
    }
    engine.swap_summaries(&mut summaries);
    engine.drain_completions_into(&mut completions);
    assert!(summaries.is_empty() && completions.is_empty());
    assert_eq!(engine.stats(), idle, "an empty batch moved the engine");

    for lpa in 0..6u64 {
        engine.submit_write(lpa);
    }
    engine.run(1);
    // Draining appends oldest first, then finds nothing more.
    engine.drain_completions_into(&mut completions);
    assert_eq!(completions.len(), 6);
    assert!(completions.windows(2).all(|w| w[1].complete_us >= w[0].complete_us));
    engine.drain_completions_into(&mut completions);
    assert_eq!(completions.len(), 6);
    // A later empty batch must not resurrect consumed completions.
    assert_eq!(engine.run(1), 0);
    engine.drain_completions_into(&mut completions);
    assert_eq!(completions.len(), 6);
}

/// At maximum depth (every request admitted at once) the completion order
/// must be fully deterministic: sorted by simulated completion time with
/// the command id as tiebreaker, identical across reruns and thread counts.
#[test]
fn completion_order_deterministic_under_max_depth() {
    let run = |threads: usize| -> Vec<(u64, f64)> {
        let n = 64u32;
        let config = EngineConfig {
            topology: Topology { channels: 2, dies_per_channel: 2 },
            queue_depth: n, // max depth: the whole batch is in flight at once
            ..EngineConfig::small_test()
        };
        let mut engine = Engine::new(config).unwrap();
        for lpa in 0..n as u64 {
            engine.submit(ReqKind::Write, lpa);
        }
        engine.run(threads);
        for lpa in 0..n as u64 {
            engine.submit(ReqKind::Read, lpa);
        }
        engine.run(threads);
        let mut completions = Vec::new();
        engine.drain_completions_into(&mut completions);
        completions.iter().map(|c| (c.id, c.complete_us)).collect()
    };
    let a = run(1);
    let b = run(1);
    let c = run(4);
    assert_eq!(a, b, "completion order differs between identical runs");
    assert_eq!(a, c, "completion order depends on worker-thread count");
    // Sorted by completion time, ids break ties.
    for w in a.windows(2) {
        assert!(
            w[1].1 > w[0].1 || (w[1].1 == w[0].1 && w[1].0 > w[0].0),
            "completions out of order: {:?} then {:?}",
            w[0],
            w[1]
        );
    }
}
