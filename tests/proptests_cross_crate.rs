//! Cross-crate property tests: random parameters and seeds, invariants
//! that must hold across the whole stack.

use mpc_hardness::core::algorithms::pipeline::{Pipeline, Target};
use mpc_hardness::core::algorithms::BlockAssignment;
use mpc_hardness::core::{theorem, Line, LineParams, SimLine};
use mpc_hardness::oracle::TranscriptOracle;
use mpc_hardness::prelude::*;
use proptest::prelude::*;

/// Strategy: a small but varied Line parameterization plus an MPC
/// configuration that can hold it.
fn config_strategy() -> impl Strategy<Value = (LineParams, usize, usize, u64)> {
    (
        8u64..40,   // w
        4usize..12, // v
        2usize..5,  // m
        1usize..12, // window (clamped by BlockAssignment)
        any::<u64>(),
    )
        .prop_map(|(w, v, m, window, seed)| {
            let params = LineParams::new(64, w, 16, v);
            (params, m, window, seed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The MPC pipeline computes exactly the function, for random shapes,
    /// partitions and (RO, X) draws — Definition 2.4's correctness, as a
    /// property.
    #[test]
    fn pipeline_always_correct((params, m, window, seed) in config_strategy()) {
        for target in [Target::Line, Target::SimLine] {
            let pipeline = Pipeline::new(
                params,
                BlockAssignment::new(params.v, m, window),
                target,
            );
            let measurement = theorem::measure_rounds(&pipeline, seed, None, None, 100_000);
            prop_assert!(measurement.completed);
            prop_assert!(measurement.correct);
            // The honest pipeline queries each node exactly once.
            prop_assert_eq!(measurement.total_queries, params.w);
            // And never exceeds its own memory requirement.
            prop_assert!(measurement.peak_memory_bits <= pipeline.required_s());
        }
    }

    /// RAM codegen agrees with the native evaluator on random shapes —
    /// including non-word-aligned widths.
    #[test]
    fn ram_matches_native(
        w in 4u64..30,
        v in 2usize..10,
        u in 9usize..40,
        seed in any::<u64>(),
    ) {
        let n = (2 * u + 16).max(3 * u); // room for fields
        let params = LineParams::new(n, w, u, v);
        let (oracle, blocks) = theorem::draw_instance(&params, seed);

        let line = Line::new(params);
        let (ram_out, stats) = line.eval_on_ram(&*oracle, &blocks).unwrap();
        prop_assert_eq!(ram_out, line.eval(&*oracle, &blocks));
        prop_assert_eq!(stats.oracle_queries, w);

        let simline = SimLine::new(params);
        let (ram_out, _) = simline.eval_on_ram(&*oracle, &blocks).unwrap();
        prop_assert_eq!(ram_out, simline.eval(&*oracle, &blocks));
    }

    /// The pointer walk revisits only blocks in [0, v) and the first node
    /// always consumes block 0 with a zero chain value.
    #[test]
    fn trace_wellformedness(
        w in 1u64..60,
        v in 2usize..16,
        seed in any::<u64>(),
    ) {
        let params = LineParams::new(64, w, 16, v);
        let (oracle, blocks) = theorem::draw_instance(&params, seed);
        let trace = Line::new(params).trace(&*oracle, &blocks);
        prop_assert_eq!(trace.len() as u64, w);
        prop_assert_eq!(trace.nodes[0].block, 0);
        prop_assert!(trace.nodes[0].r_in.is_zero());
        for node in &trace.nodes {
            prop_assert!(node.block < v);
            prop_assert_eq!(node.query.len(), 64);
            prop_assert_eq!(node.answer.len(), 64);
        }
    }

    /// `eval` asks exactly the queries its trace records, in order, and
    /// returns the trace's output, for `Line` and `SimLine` at unaligned
    /// field widths too: the trace stays the reference evaluation.
    #[test]
    fn eval_matches_trace(
        w in 1u64..60,
        v in 2usize..16,
        u in 9usize..40,
        seed in any::<u64>(),
    ) {
        let params = LineParams::new((2 * u + 16).max(3 * u), w, u, v);
        let (oracle, blocks) = theorem::draw_instance(&params, seed);
        for simline in [false, true] {
            let recorded = TranscriptOracle::new(oracle.clone());
            let (output, trace) = if simline {
                let f = SimLine::new(params);
                (f.eval(&recorded, &blocks), f.trace(&*oracle, &blocks))
            } else {
                let f = Line::new(params);
                (f.eval(&recorded, &blocks), f.trace(&*oracle, &blocks))
            };
            prop_assert_eq!(output, trace.output);
            let asked: Vec<BitVec> = recorded.transcript().into_iter().map(|q| q.input).collect();
            let traced: Vec<BitVec> = trace.nodes.into_iter().map(|node| node.query).collect();
            prop_assert_eq!(asked, traced);
        }
    }

    /// Per-round advances sum to w and each round's advance never exceeds
    /// the machine's window +? 0 — the bounded-progress invariant behind
    /// Lemma A.3 (SimLine case: contiguous streaming maxes at window + the
    /// wrap-around continuation).
    #[test]
    fn advances_bounded_by_coverage((params, m, window, seed) in config_strategy()) {
        let pipeline = Pipeline::new(
            params,
            BlockAssignment::new(params.v, m, window),
            Target::Line,
        );
        let advances = theorem::round_advances(&pipeline, seed, 100_000);
        prop_assert_eq!(advances.iter().sum::<usize>() as u64, params.w);
        let window = pipeline.assignment().window;
        if window < params.v {
            // Each visit can advance at most "all nodes whose blocks are
            // local", which for Line is geometric but hard-capped only by
            // w; here we check only the sanity cap.
            for &a in &advances {
                prop_assert!(a as u64 <= params.w);
            }
        } else {
            prop_assert_eq!(advances.len(), 1);
        }
    }

    /// Moving s below the requirement always produces MemoryExceeded —
    /// never a silent wrong answer.
    #[test]
    fn deficit_always_detected((params, m, window, seed) in config_strategy()) {
        let pipeline = Pipeline::new(
            params,
            BlockAssignment::new(params.v, m, window),
            Target::SimLine,
        );
        let (oracle, blocks) = theorem::draw_instance(&params, seed);
        let mut sim = pipeline.build_simulation(
            oracle as std::sync::Arc<dyn Oracle>,
            RandomTape::new(0),
            pipeline.required_s() - 1,
            None,
            &blocks,
        );
        let err = sim.run_until_output(100_000).unwrap_err();
        let is_memory = matches!(err, ModelViolation::MemoryExceeded { .. });
        prop_assert!(is_memory, "got {err:?}");
    }
}
