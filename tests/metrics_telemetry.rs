//! Cross-crate integration tests for the `mph-metrics` telemetry layer:
//! the executor's event stream must reconstruct `SimStats` exactly, and a
//! `Recorder` snapshot must be byte-identical regardless of shard count or
//! thread count (the DESIGN.md §5 determinism convention).

use mpc_hardness::core::algorithms::pipeline::{Pipeline, Target};
use mpc_hardness::core::algorithms::BlockAssignment;
use mpc_hardness::core::theorem;
use mpc_hardness::metrics::{Event, MetricsSink, QueryKind, Recorder, RoundStats};
use mpc_hardness::mpc::partition_shards;
use mpc_hardness::prelude::*;
use std::sync::Arc;

fn demo_pipeline() -> Arc<Pipeline> {
    let params = LineParams::new(64, 40, 16, 8);
    Pipeline::new(params, BlockAssignment::new(8, 4, 3), Target::Line)
}

/// The instrumented simulator's events, aggregated by a `Recorder`, sum
/// to exactly the `SimStats` the executor accumulates itself — the
/// telemetry layer is a faithful second view, not a parallel bookkeeping
/// that can drift.
#[test]
fn event_sums_reconstruct_sim_stats() {
    let pipeline = demo_pipeline();
    let (oracle, blocks) = theorem::draw_instance(pipeline.params(), 3);
    let recorder = Arc::new(Recorder::new());
    let mut sim = pipeline.build_simulation(
        oracle as Arc<dyn Oracle>,
        RandomTape::new(3),
        pipeline.required_s(),
        None,
        &blocks,
    );
    sim.set_metrics(recorder.clone());
    let result = sim.run_until_output(10_000).unwrap();
    let stats = &result.stats;
    let snap = recorder.snapshot();

    assert_eq!(snap.totals.rounds as usize, stats.num_rounds());
    assert_eq!(snap.totals.messages as usize, stats.total_messages());
    assert_eq!(snap.totals.bits_sent as usize, stats.total_bits());
    assert_eq!(snap.totals.oracle_queries, stats.total_queries());
    assert_eq!(snap.totals.peak_queries_one_machine, stats.peak_queries());
    assert_eq!(snap.totals.peak_memory_bits as usize, stats.peak_memory_bits());

    // Per-round aggregates line up row by row.
    assert_eq!(snap.rounds.len(), stats.rounds.len());
    for (row, rs) in snap.rounds.iter().zip(&stats.rounds) {
        assert_eq!(row.round, rs.round);
        assert_eq!(row.messages, rs.messages);
        assert_eq!(row.bits_sent, rs.bits_sent);
        assert_eq!(row.oracle_queries, rs.oracle_queries);
        assert_eq!(row.active_machines, rs.active_machines);
    }

    // The per-message MessageRouted stream agrees with the round sums.
    assert_eq!(snap.totals.messages_routed, snap.totals.messages);
    assert_eq!(snap.totals.routed_bits, snap.totals.bits_sent);
}

/// The shard path emits the in-process event stream: driving the demo
/// pipeline shard by shard through `step_shard` (1, 2 and 3 shards, every
/// shard's simulation reporting into one shared `Recorder`) yields the
/// in-process run's snapshot JSON byte for byte. Each shard's `RoundEnd`
/// carries its shard-local record, and the recorder's per-round fold
/// reassembles the global one.
#[test]
fn sharded_rounds_emit_the_in_process_telemetry() {
    let pipeline = demo_pipeline();
    let (oracle, blocks) = theorem::draw_instance(pipeline.params(), 3);
    let oracle = oracle as Arc<dyn Oracle>;
    let build = |recorder: &Arc<Recorder>| {
        let mut sim = pipeline.build_simulation(
            Arc::clone(&oracle),
            RandomTape::new(3),
            pipeline.required_s(),
            None,
            &blocks,
        );
        sim.set_metrics(recorder.clone());
        sim
    };
    let recorder = Arc::new(Recorder::new());
    let mut reference = build(&recorder);
    let m = reference.m();
    let expected = reference.run_until_output(10_000).unwrap();
    assert!(expected.completed());
    let in_process = recorder.snapshot().to_json_string();

    for shards in 1..=3 {
        let recorder = Arc::new(Recorder::new());
        let bounds = partition_shards(m, shards);
        let mut sims: Vec<Simulation> = bounds
            .iter()
            .map(|&(lo, hi)| {
                let mut sim = build(&recorder);
                sim.retain_shard(lo, hi);
                sim
            })
            .collect();
        let mut batches: Vec<Vec<Message>> = vec![Vec::new(); shards];
        let mut outputs = Vec::new();
        for _ in 0..expected.rounds() {
            let mut sent = Vec::new();
            for ((sim, &(lo, hi)), batch) in sims.iter_mut().zip(&bounds).zip(&mut batches) {
                sim.inject_messages(&std::mem::take(batch)).unwrap();
                let out = sim.step_shard(lo, hi).unwrap();
                sent.extend(out.messages);
                outputs.extend(out.outputs);
            }
            for msg in sent {
                batches[bounds.partition_point(|&(_, hi)| hi <= msg.to)].push(msg);
            }
        }
        assert_eq!(outputs, expected.outputs, "{shards} shard(s)");
        assert_eq!(recorder.snapshot().to_json_string(), in_process, "{shards} shard(s)");
    }
}

/// The same multiset of events yields byte-identical snapshot JSON no
/// matter how many shards the recorder has or how many threads record —
/// every shard field is commutative, so the fold is order-independent.
#[test]
fn recorder_json_identical_across_shards_and_threads() {
    fn spray(rec: &Recorder, threads: usize) {
        // Fixed total workload, partitioned across a varying thread count.
        let total = 240u64;
        let per = total / threads as u64;
        std::thread::scope(|scope| {
            for t in 0..threads as u64 {
                scope.spawn(move || {
                    for i in t * per..(t + 1) * per {
                        rec.record(&Event::OracleQuery { kind: QueryKind::Fresh });
                        if i % 3 == 0 {
                            rec.record(&Event::OracleQuery { kind: QueryKind::Cached });
                        }
                        rec.record(&Event::MessageRouted { bits: 16 + (i % 7) });
                        rec.record(&Event::MemoryHighWater { machine: t, bits: i });
                        rec.record(&Event::RamStep { cost: 1 + i % 4 });
                        rec.record(&Event::RoundEnd(RoundStats {
                            round: i % 5,
                            messages: 2,
                            bits_sent: 32,
                            oracle_queries: 1,
                            max_queries_one_machine: 1,
                            max_memory_bits: i,
                            active_machines: 1,
                        }));
                    }
                });
            }
        });
        rec.set_tag("n", "64");
    }

    let mut renderings = Vec::new();
    for (shards, threads) in [(1, 1), (16, 1), (16, 8), (3, 4), (64, 2)] {
        let rec = Recorder::with_shards(shards);
        spray(&rec, threads);
        renderings.push(rec.snapshot().to_json_string());
    }
    for r in &renderings[1..] {
        assert_eq!(r, &renderings[0], "snapshot JSON must not depend on sharding");
    }
}

/// An instrumented simulator run produces byte-identical telemetry JSON
/// whether the machines execute on 1 rayon thread or several — the
/// end-to-end version of the determinism convention.
#[test]
fn simulation_telemetry_identical_across_thread_counts() {
    let run = || {
        let pipeline = demo_pipeline();
        let recorder = Arc::new(Recorder::new());
        theorem::run_tags(&recorder, pipeline.params(), pipeline.required_s(), None);
        let m = theorem::measure_rounds_with(&pipeline, 7, None, None, 10_000, recorder.clone());
        assert!(m.correct);
        recorder.snapshot().to_json_string()
    };
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let single = run();
    std::env::set_var("RAYON_NUM_THREADS", "4");
    let multi = run();
    std::env::remove_var("RAYON_NUM_THREADS");
    assert_eq!(single, multi, "telemetry must not depend on thread count");
}
