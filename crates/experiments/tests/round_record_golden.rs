//! Golden bytes for the per-round ledger of Definition 2.1: messages and
//! bits routed, oracle queries against `q`, and the largest memory image
//! against `s`.
//!
//! One fixed round record comes out of a real simulation round and is
//! then written in every format that carries it: a `RACK` frame, a
//! one-round `SIMU` snapshot, a `CELL` checkpoint payload, the
//! `round_end` JSONL event and a one-round metrics snapshot's JSON. The
//! round-trip suites prove that each decoder inverts its encoder; these
//! literals pin the layout itself, so a codec that reorders, widens or
//! renames a field fails here even when it still round-trips.

use mph_bits::BitVec;
use mph_experiments::checkpoint::{decode_cell_result, encode_cell_result};
use mph_experiments::sweep::{CellResult, CellStatus};
use mph_metrics::{Event, MetricsSink, Recorder};
use mph_mpc::shard::{Ack, Frame};
use mph_mpc::{Inbox, Message, Outbox, RoundCtx, SimStats, Simulation, SimulationSnapshot};
use mph_oracle::{LazyOracle, RandomTape, SnapshotError};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// A sink that feeds a [`Recorder`] and keeps every `round_end` line.
#[derive(Default)]
struct Capture {
    recorder: Recorder,
    round_ends: Mutex<Vec<String>>,
}

impl MetricsSink for Capture {
    fn record(&self, event: &Event) {
        self.recorder.record(event);
        if event.name() == "round_end" {
            self.round_ends.lock().unwrap().push(event.to_json().to_string());
        }
    }
}

/// Runs round 3 of a three-machine simulation restored from a barrier.
/// Machines 0 and 1 hold 40 and 24 bits, query the oracle twice and
/// three times, and send two 11-bit and five 13-bit messages to machine
/// 2, which holds nothing. The record has seven distinct values, so two
/// swapped fields always show.
fn ledger_round() -> (SimStats, Arc<Capture>) {
    let mut sim = Simulation::new(3, 256, Arc::new(LazyOracle::square(5, 16)), RandomTape::new(9));
    sim.set_uniform_logic(Arc::new(|ctx: &RoundCtx<'_>, _: &Inbox<'_>, out: &mut Outbox| {
        let (queries, sends, len) = match ctx.machine() {
            0 => (2, 2, 11),
            1 => (3, 5, 13),
            _ => return Ok(()),
        };
        for k in 0..queries {
            ctx.query(&BitVec::from_u64(k, 16))?;
        }
        for _ in 0..sends {
            out.push(2, &BitVec::ones(len));
        }
        Ok(())
    }));
    let barrier = SimulationSnapshot {
        m: 3,
        s_bits: 256,
        q: None,
        round: 3,
        inboxes: vec![
            vec![Message { from: 1, to: 0, payload: BitVec::ones(40) }],
            vec![Message { from: 0, to: 1, payload: BitVec::zeros(24) }],
            Vec::new(),
        ],
        outputs: Vec::new(),
        stats: SimStats::default(),
        tape_seed: 9,
        faults: None,
    };
    sim.restore(&barrier).unwrap();
    let capture = Arc::new(Capture::default());
    sim.set_metrics(capture.clone());
    sim.step().unwrap();
    (sim.stats().clone(), capture)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().fold(String::new(), |mut s, b| {
        let _ = write!(s, "{b:02x}");
        s
    })
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len()).step_by(2).map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap()).collect()
}

#[test]
fn the_record_holds_the_round_ledger() {
    let (stats, _) = ledger_round();
    assert_eq!(stats.rounds.len(), 1);
    let r = &stats.rounds[0];
    assert_eq!(r.round, 3);
    assert_eq!(r.messages, 7);
    assert_eq!(r.bits_sent, 87);
    assert_eq!(r.oracle_queries, 5);
    assert_eq!(r.max_queries_one_machine, 3);
    assert_eq!(r.max_memory_bits, 40);
    assert_eq!(r.active_machines, 2);
}

#[test]
fn rack_frame_bytes_are_pinned() {
    let (stats, _) = ledger_round();
    let record = stats.rounds.into_iter().next().unwrap();
    let frame = Frame::RoundAck {
        round: 3,
        ack: Ack::Round { stats: record, outputs: vec![(1, BitVec::from_u64(0b1011, 4))] },
    };
    assert_eq!(hex(&frame.to_bytes()), RACK);
}

#[test]
fn simu_snapshot_bytes_are_pinned() {
    let (stats, _) = ledger_round();
    let snap = SimulationSnapshot {
        m: 3,
        s_bits: 256,
        q: Some(4),
        round: 4,
        inboxes: vec![Vec::new(); 3],
        outputs: Vec::new(),
        stats,
        tape_seed: 9,
        faults: None,
    };
    assert_eq!(hex(&snap.to_bytes()), SIMU);
}

#[test]
fn cell_payload_bytes_are_pinned() {
    let (_, capture) = ledger_round();
    let cell = CellResult {
        label: "golden".into(),
        status: CellStatus::Ok,
        measurements: Vec::new(),
        mean_rounds: 1.0,
        retries_used: 0,
        snapshot: Some(capture.recorder.snapshot()),
    };
    assert_eq!(hex(&encode_cell_result(&cell)), CELL);
    let decoded = decode_cell_result(&unhex(CELL)).expect("the pinned payload decodes");
    assert_eq!(hex(&encode_cell_result(&decoded)), CELL);
}

#[test]
fn the_timeouts_layout_is_refused() {
    // Its zero `timeouts` would read as an empty worker tally, leaving the
    // real tally's count behind the last field.
    match decode_cell_result(&unhex(CELL_WITH_TIMEOUTS)).err() {
        Some(SnapshotError::Malformed(why)) => {
            assert_eq!(why, "8 bytes after the last CELL field")
        }
        other => panic!("expected a Malformed error, got {other:?}"),
    }
}

#[test]
fn round_end_event_json_is_pinned() {
    let (_, capture) = ledger_round();
    assert_eq!(*capture.round_ends.lock().unwrap(), [ROUND_END]);
}

#[test]
fn snapshot_json_is_pinned() {
    let (_, capture) = ledger_round();
    assert_eq!(capture.recorder.snapshot().to_json_string(), SNAPSHOT);
}

/// The `RACK` frame: container header, frame round, ack kind, the
/// record, one output, CRC.
const RACK: &str = concat!(
    "4d504853",         // magic `MPHS`
    "0100",             // container version
    "5241434b",         // section tag `RACK`
    "5a00000000000000", // section length
    "0300000000000000", // frame round
    "01",               // ack kind: round
    "0300000000000000", // round
    "0700000000000000", // messages
    "5700000000000000", // bits_sent
    "0500000000000000", // oracle_queries
    "0300000000000000", // max_queries_one_machine
    "2800000000000000", // max_memory_bits
    "0200000000000000", // active_machines
    "0100000000000000", // output count
    "0100000000000000", // output machine
    "0400000000000000", // output bit length
    "0b",               // output bits
    "43d05dc5",         // CRC32
);

/// The one-round `SIMU` snapshot.
const SIMU: &str = concat!(
    "4d504853",         // magic `MPHS`
    "0100",             // container version
    "53494d55",         // section tag `SIMU`
    "8a00000000000000", // section length
    "0300000000000000", // m
    "0001000000000000", // s_bits
    "01",               // q present
    "0400000000000000", // q
    "0400000000000000", // round
    "0900000000000000", // tape seed
    "0000000000000000", // inbox 0 length
    "0000000000000000", // inbox 1 length
    "0000000000000000", // inbox 2 length
    "0000000000000000", // output count
    "0100000000000000", // round record count
    "0300000000000000", // round
    "0700000000000000", // messages
    "5700000000000000", // bits_sent
    "0500000000000000", // oracle_queries
    "0300000000000000", // max_queries_one_machine
    "2800000000000000", // max_memory_bits
    "0200000000000000", // active_machines
    "00",               // no fault plan
    "30a32e7a",         // CRC32
);

/// The `CELL` payload: cell fields, then the one-round metrics snapshot.
const CELL: &str = concat!(
    "4d504853",         // magic `MPHS`
    "0100",             // container version
    "43454c4c",         // section tag `CELL`
    "f400000000000000", // section length
    "0600000000000000", // label length
    "676f6c64656e",     // label `golden`
    "00",               // status: ok
    "0000000000000000", // measurement count
    "000000000000f03f", // mean rounds 1.0
    "0000000000000000", // retries used
    "01",               // snapshot present
    "01000000",         // schema version
    "0000000000000000", // tag count
    "0100000000000000", // round record count
    "0300000000000000", // round
    "0700000000000000", // messages
    "5700000000000000", // bits_sent
    "0500000000000000", // oracle_queries
    "0300000000000000", // max_queries_one_machine
    "2800000000000000", // max_memory_bits
    "0200000000000000", // active_machines
    "0100000000000000", // totals.rounds
    "0700000000000000", // totals.messages
    "5700000000000000", // totals.bits_sent
    "0500000000000000", // totals.oracle_queries
    "0300000000000000", // totals.peak_queries_one_machine
    "2800000000000000", // totals.peak_memory_bits
    "0700000000000000", // totals.messages_routed
    "5700000000000000", // totals.routed_bits
    "0000000000000000", // oracle.fresh
    "0000000000000000", // oracle.cached
    "0000000000000000", // oracle.patched
    "0000000000000000", // ram.steps
    "0000000000000000", // ram.cost
    "0000000000000000", // violation count
    "0000000000000000", // fault count
    "0000000000000000", // worker count
    "1be600a5",         // CRC32
);

/// The same payload in the layout that carried the retired watchdog's
/// `timeouts` count between the fault map and the worker tally.
const CELL_WITH_TIMEOUTS: &str = concat!(
    "4d504853",         // magic `MPHS`
    "0100",             // container version
    "43454c4c",         // section tag `CELL`
    "fc00000000000000", // section length
    "0600000000000000", // label length
    "676f6c64656e",     // label `golden`
    "00",               // status: ok
    "0000000000000000", // measurement count
    "000000000000f03f", // mean rounds 1.0
    "0000000000000000", // retries used
    "01",               // snapshot present
    "01000000",         // schema version
    "0000000000000000", // tag count
    "0100000000000000", // round record count
    "0300000000000000", // round
    "0700000000000000", // messages
    "5700000000000000", // bits_sent
    "0500000000000000", // oracle_queries
    "0300000000000000", // max_queries_one_machine
    "2800000000000000", // max_memory_bits
    "0200000000000000", // active_machines
    "0100000000000000", // totals.rounds
    "0700000000000000", // totals.messages
    "5700000000000000", // totals.bits_sent
    "0500000000000000", // totals.oracle_queries
    "0300000000000000", // totals.peak_queries_one_machine
    "2800000000000000", // totals.peak_memory_bits
    "0700000000000000", // totals.messages_routed
    "5700000000000000", // totals.routed_bits
    "0000000000000000", // oracle.fresh
    "0000000000000000", // oracle.cached
    "0000000000000000", // oracle.patched
    "0000000000000000", // ram.steps
    "0000000000000000", // ram.cost
    "0000000000000000", // violation count
    "0000000000000000", // fault count
    "0000000000000000", // timeouts
    "0000000000000000", // worker count
    "6572e1cc",         // CRC32
);

const ROUND_END: &str = concat!(
    r#"{"event":"round_end","round":3,"messages":7,"bits_sent":87,"oracle_queries":5,"#,
    r#""max_queries_one_machine":3,"max_memory_bits":40,"active_machines":2}"#,
);

const SNAPSHOT: &str = concat!(
    r#"{"schema_version":1,"tags":{},"rounds":[{"round":3,"messages":7,"bits_sent":87,"#,
    r#""oracle_queries":5,"max_queries_one_machine":3,"max_memory_bits":40,"active_machines":2}],"#,
    r#""totals":{"rounds":1,"messages":7,"bits_sent":87,"oracle_queries":5,"#,
    r#""peak_queries_one_machine":3,"peak_memory_bits":40,"messages_routed":7,"routed_bits":87},"#,
    r#""oracle":{"fresh":0,"cached":0,"patched":0,"total":0},"ram":{"steps":0,"cost":0},"#,
    r#""violations":{}}"#,
);
