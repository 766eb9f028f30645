//! Property tests for the durable snapshot codec (docs/ROBUSTNESS.md):
//! arbitrary executor states and shard wire frames encode → decode
//! bit-exactly, and *any* mutated or truncated byte stream yields a typed
//! [`SnapshotError`] — never a panic, and never a silently wrong state.
//!
//! States are generated from proptest-drawn seeds through a deterministic
//! builder, so every reported failure reproduces from its seed alone.

use mpc_hardness::mpc::shard::{Ack, Frame, ShardError};
use mpc_hardness::mpc::{FaultSnapshot, Message, SimulationSnapshot};
use mpc_hardness::mpc::{FaultSpec, RoundStats, SimStats};
use mpc_hardness::oracle::snapshot::SnapshotWriter;
use mpc_hardness::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn arb_bitvec(rng: &mut StdRng, max_bits: usize) -> BitVec {
    let len = rng.gen_range(0..=max_bits);
    let bools: Vec<bool> = (0..len).map(|_| rng.gen_range(0..2u8) == 1).collect();
    BitVec::from_bools(&bools)
}

fn arb_message(rng: &mut StdRng, m: usize) -> Message {
    Message { from: rng.gen_range(0..m), to: rng.gen_range(0..m), payload: arb_bitvec(rng, 80) }
}

fn arb_stats(rng: &mut StdRng) -> SimStats {
    let rounds = (0..rng.gen_range(0..6usize))
        .map(|round| RoundStats {
            round: round as u64,
            messages: rng.gen_range(0..100),
            bits_sent: rng.gen_range(0..10_000),
            oracle_queries: rng.gen_range(0..50u64),
            max_queries_one_machine: rng.gen_range(0..10u64),
            max_memory_bits: rng.gen_range(0..4096),
            active_machines: rng.gen_range(0..8),
        })
        .collect();
    SimStats { rounds }
}

/// A deterministic arbitrary executor snapshot: every field exercised,
/// including the optional fault block on odd seeds.
fn arb_snapshot(seed: u64) -> SimulationSnapshot {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = rng.gen_range(1..6usize);
    let faults = (seed % 2 == 1).then(|| FaultSnapshot {
        seed: rng.gen::<u64>(),
        spec: FaultSpec {
            crash_rate: f64::from(rng.gen_range(0..=100u32)) / 100.0,
            drop_rate: f64::from(rng.gen_range(0..=100u32)) / 100.0,
            corrupt_rate: f64::from(rng.gen_range(0..=100u32)) / 100.0,
            straggler_rate: f64::from(rng.gen_range(0..=100u32)) / 100.0,
            straggler_delay: rng.gen_range(1..5usize),
            oracle_outage_rate: f64::from(rng.gen_range(0..=100u32)) / 100.0,
        },
        crashed: (0..m).map(|_| rng.gen_range(0..2u8) == 1).collect(),
        delayed: (0..rng.gen_range(0..4usize))
            .map(|_| (rng.gen_range(0..20usize), arb_message(&mut rng, m)))
            .collect(),
    });
    SimulationSnapshot {
        m,
        s_bits: rng.gen_range(64..100_000),
        q: if seed.is_multiple_of(3) { None } else { Some(rng.gen_range(1..1000u64)) },
        round: rng.gen_range(0..500),
        inboxes: (0..m)
            .map(|_| (0..rng.gen_range(0..5usize)).map(|_| arb_message(&mut rng, m)).collect())
            .collect(),
        outputs: (0..rng.gen_range(0..3usize))
            .map(|_| (rng.gen_range(0..m), arb_bitvec(&mut rng, 64)))
            .collect(),
        stats: arb_stats(&mut rng),
        tape_seed: rng.gen::<u64>(),
        faults,
    }
}

fn arb_round_stats(rng: &mut StdRng) -> RoundStats {
    RoundStats {
        round: rng.gen_range(0..500),
        messages: rng.gen_range(0..100),
        bits_sent: rng.gen_range(0..10_000),
        oracle_queries: rng.gen_range(0..50u64),
        max_queries_one_machine: rng.gen_range(0..10u64),
        max_memory_bits: rng.gen_range(0..4096),
        active_machines: rng.gen_range(0..8),
    }
}

/// A deterministic arbitrary shard wire frame covering all six kinds
/// (SHLO/RMSG/RACK/SSNP/HBEA/CONN) and all three ack payloads.
fn arb_frame(seed: u64) -> Frame {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF7A3E);
    match seed % 6 {
        0 => {
            let lo = rng.gen_range(0..32usize);
            Frame::Hello {
                lo,
                hi: lo + rng.gen_range(1..8usize),
                nonce: rng.gen::<u64>(),
                spec: (0..rng.gen_range(0..64usize)).map(|_| rng.gen::<u8>()).collect(),
            }
        }
        1 => {
            let m = rng.gen_range(1..8usize);
            Frame::RoundMsgs {
                round: rng.gen_range(0..500),
                msgs: (0..rng.gen_range(0..10usize)).map(|_| arb_message(&mut rng, m)).collect(),
            }
        }
        2 => {
            let ack = match seed % 3 {
                0 => Ack::Ready,
                1 => Ack::Round {
                    stats: arb_round_stats(&mut rng),
                    outputs: (0..rng.gen_range(0..4usize))
                        .map(|_| (rng.gen_range(0..8usize), arb_bitvec(&mut rng, 64)))
                        .collect(),
                },
                _ => Ack::Error {
                    message: (0..rng.gen_range(0..40u8))
                        .map(|_| char::from(rng.gen_range(b' '..=b'~')))
                        .collect(),
                },
            };
            Frame::RoundAck { round: rng.gen_range(0..500), ack }
        }
        3 => Frame::Snapshot { bytes: arb_snapshot(seed ^ 0x5A5A).to_bytes() },
        4 => Frame::Heartbeat { seq: rng.gen::<u64>() },
        _ => Frame::Connect { nonce: rng.gen::<u64>(), worker: rng.gen_range(0..32usize) },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Executor snapshots round-trip bit-exactly for arbitrary states.
    #[test]
    fn simulation_snapshots_round_trip(seed in any::<u64>()) {
        let snap = arb_snapshot(seed);
        let decoded = SimulationSnapshot::from_bytes(&snap.to_bytes()).expect("decodes");
        prop_assert_eq!(decoded, snap);
    }

    /// Flipping any single byte of an executor snapshot is always caught:
    /// the decode returns a typed error, never a different state.
    #[test]
    fn mutated_snapshots_never_decode_to_a_wrong_state(
        seed in any::<u64>(),
        victim in any::<u64>(),
        flip in 1..=255u8,
    ) {
        let bytes = arb_snapshot(seed).to_bytes();
        let mut bad = bytes.clone();
        let at = (victim % bytes.len() as u64) as usize;
        bad[at] ^= flip;
        prop_assert!(
            SimulationSnapshot::from_bytes(&bad).is_err(),
            "flip {flip:#04x} at byte {at}/{} went undetected", bytes.len()
        );
    }

    /// Truncating a snapshot at any length is always caught.
    #[test]
    fn truncated_snapshots_never_decode(seed in any::<u64>(), cut in any::<u64>()) {
        let bytes = arb_snapshot(seed).to_bytes();
        let len = (cut % bytes.len() as u64) as usize;
        prop_assert!(
            SimulationSnapshot::from_bytes(&bytes[..len]).is_err(),
            "truncation to {len}/{} went undetected", bytes.len()
        );
    }

    /// A decoded-then-reencoded snapshot is the identical byte stream:
    /// the codec is canonical, so checkpoint digests are stable.
    #[test]
    fn reencoding_is_canonical(seed in any::<u64>()) {
        let bytes = arb_snapshot(seed).to_bytes();
        let decoded = SimulationSnapshot::from_bytes(&bytes).expect("decodes");
        prop_assert_eq!(decoded.to_bytes(), bytes);
    }

    /// Shard wire frames (docs/ROBUSTNESS.md) round-trip bit-exactly,
    /// and the codec is canonical, across all four frame kinds.
    #[test]
    fn shard_frames_round_trip(seed in any::<u64>()) {
        let frame = arb_frame(seed);
        let bytes = frame.to_bytes();
        let decoded = Frame::from_bytes(&bytes).expect("decodes");
        prop_assert_eq!(&decoded, &frame);
        prop_assert_eq!(decoded.to_bytes(), bytes);
    }

    /// Flipping any single byte of a shard frame is a typed error —
    /// never a panic, never a silently different frame. A crashed
    /// worker's half-written pipe output can never be mistaken for a
    /// valid round message.
    #[test]
    fn mutated_shard_frames_never_decode(
        seed in any::<u64>(),
        victim in any::<u64>(),
        flip in 1..=255u8,
    ) {
        let bytes = arb_frame(seed).to_bytes();
        let mut bad = bytes.clone();
        let at = (victim % bytes.len() as u64) as usize;
        bad[at] ^= flip;
        prop_assert!(
            Frame::from_bytes(&bad).is_err(),
            "flip {flip:#04x} at byte {at}/{} went undetected", bytes.len()
        );
    }

    /// Truncating a shard frame at any length is always caught.
    #[test]
    fn truncated_shard_frames_never_decode(seed in any::<u64>(), cut in any::<u64>()) {
        let bytes = arb_frame(seed).to_bytes();
        let len = (cut % bytes.len() as u64) as usize;
        prop_assert!(
            Frame::from_bytes(&bytes[..len]).is_err(),
            "truncation to {len}/{} went undetected", bytes.len()
        );
    }

    /// An intact container whose section tag is not one of the four
    /// shard kinds decodes to the *typed* [`ShardError::UnknownFrameKind`]
    /// — the forward-compatibility contract: an old supervisor rejects a
    /// new frame kind by name instead of misparsing its payload.
    #[test]
    fn unknown_shard_frame_kinds_are_a_typed_error(payload in proptest::collection::vec(any::<u8>(), 0..64)) {
        let mut w = SnapshotWriter::new();
        let patch = w.begin_section(b"ZZZZ");
        w.put_bytes(&payload);
        w.end_section(patch);
        match Frame::from_bytes(&w.finish()) {
            Err(ShardError::UnknownFrameKind { tag }) => prop_assert_eq!(&tag, b"ZZZZ"),
            other => prop_assert!(false, "expected UnknownFrameKind, got {:?}", other),
        }
    }
}

/// Live-state round trip: snapshot a real mid-run simulation, restore it
/// into a fresh one, and finish both — byte-identical outputs and stats.
/// (The per-crate tests cover this per seed; here it runs across random
/// pipeline shapes.)
#[test]
fn live_simulation_snapshots_resume_exactly() {
    use mpc_hardness::core::theorem;
    for seed in 0..4u64 {
        let params = LineParams::new(64, 40, 16, 8);
        let pipeline = Pipeline::new(params, BlockAssignment::new(8, 4, 3), Target::SimLine);
        let (oracle, blocks) = theorem::draw_instance(&params, seed);
        let build = || {
            pipeline.build_simulation(
                Arc::clone(&oracle) as Arc<dyn Oracle>,
                RandomTape::new(seed),
                pipeline.required_s(),
                None,
                &blocks,
            )
        };
        let mut original = build();
        for _ in 0..3 {
            original.step().expect("honest run");
        }
        let frame = original.snapshot().to_bytes();
        let snap = SimulationSnapshot::from_bytes(&frame).expect("decodes");
        let mut restored = build();
        restored.restore(&snap).expect("geometry matches");
        let a = original.run_until_output(10_000).expect("finishes");
        let b = restored.run_until_output(10_000).expect("finishes");
        assert_eq!(a.sole_output(), b.sole_output(), "seed {seed}");
        assert_eq!(a.rounds(), b.rounds(), "seed {seed}");
    }
}
