//! The typed telemetry events emitted by instrumented components.
//!
//! Events mirror the cost ledgers of the paper's models: per-round
//! message/memory traffic of the MPC model (Definition 2.1 of
//! Chung-Ho-Sun), oracle query classification against the per-round
//! budget `q`, and word-RAM step costs (Definition 2.3).

use crate::json::Json;
use crate::snapshot::RoundStats;

/// How an oracle query was resolved, as seen by the instrumented oracle
/// wrappers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// First time this input was asked of the oracle in this run.
    Fresh,
    /// A repeat of an input already asked (the answer was determined).
    Cached,
    /// Answered from a patched override, not the base oracle — the
    /// mechanism of the paper's compression arguments (Claim 3.7 / A.4),
    /// where a few answers are rewritten and the rest replayed.
    Patched,
}

impl QueryKind {
    /// Stable lowercase name used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::Fresh => "fresh",
            QueryKind::Cached => "cached",
            QueryKind::Patched => "patched",
        }
    }
}

/// One telemetry event.
///
/// Events are cheap, `Copy`-sized records; sinks decide whether to
/// aggregate them ([`Recorder`](crate::Recorder)) or stream them
/// ([`JsonlSink`](crate::JsonlSink)).
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// An MPC round began (rounds are numbered from 0).
    RoundStart {
        /// Round index.
        round: u64,
    },
    /// An MPC round completed (or, on the sharded path, one shard's part
    /// of it), carrying the round's ledger.
    RoundEnd(RoundStats),
    /// One oracle query, classified by how it was answered.
    OracleQuery {
        /// Fresh, cached, or patched.
        kind: QueryKind,
    },
    /// One message accepted by the router.
    MessageRouted {
        /// Payload size in bits.
        bits: u64,
    },
    /// A machine's memory footprint reached a new high-water mark.
    MemoryHighWater {
        /// Machine index.
        machine: u64,
        /// Footprint in bits.
        bits: u64,
    },
    /// One word-RAM step retired, with its charged cost (oracle steps
    /// cost `1 + ⌈n/w⌉` time units; see `mph_ram::cost`).
    RamStep {
        /// Time units charged for the step.
        cost: u64,
    },
    /// An execution violated a model bound (memory, budget, …) and was
    /// rejected.
    ModelViolation {
        /// Stable short name of the violated bound.
        kind: &'static str,
    },
    /// One fault injected by an active `mph_mpc::faults::FaultPlan`
    /// (crash, dropped message, corrupted message, straggler delay,
    /// oracle outage). Emitted at the moment the fault takes effect, so
    /// every injected fault is observable in reports.
    Fault {
        /// Stable short name of the fault kind (see
        /// `mph_mpc::faults::FaultKind::name`).
        kind: &'static str,
        /// The machine the fault acted on (the sender, for message
        /// faults).
        machine: u64,
        /// The round in which the fault took effect.
        round: u64,
    },
    /// A worker-process lifecycle transition observed by the shard
    /// supervisor (`mph_mpc::shard`): `spawn` when a worker process
    /// starts, `round_ack` per round acknowledgement received, `crash`
    /// when EOF/timeout/a broken link reveals a dead worker, `respawn`
    /// when a replacement process is started (`reconnect` alongside it
    /// when the replacement re-dials a TCP link), and `replay` when the
    /// replacement is rolled forward from the last round barrier. The
    /// liveness layer adds `heartbeat` per probe sent into a silent link
    /// and `hb_echo` per echo received; the degradation ladder adds
    /// `redistribute` when a dead shard's machine range is absorbed by a
    /// survivor and `degrade` when the last worker is lost and the run
    /// falls back in-process.
    Worker {
        /// Stable short name of the transition (`spawn`/`round_ack`/
        /// `crash`/`respawn`/`reconnect`/`replay`/`heartbeat`/`hb_echo`/
        /// `redistribute`/`degrade`).
        kind: &'static str,
        /// The worker (shard) index.
        worker: u64,
        /// The supervisor round during which the transition happened.
        round: u64,
    },
}

impl Event {
    /// Stable event-type name used in JSONL output.
    pub fn name(&self) -> &'static str {
        match self {
            Event::RoundStart { .. } => "round_start",
            Event::RoundEnd(_) => "round_end",
            Event::OracleQuery { .. } => "oracle_query",
            Event::MessageRouted { .. } => "message_routed",
            Event::MemoryHighWater { .. } => "memory_high_water",
            Event::RamStep { .. } => "ram_step",
            Event::ModelViolation { .. } => "model_violation",
            Event::Fault { .. } => "fault",
            Event::Worker { .. } => "worker",
        }
    }

    /// Renders the event as a single JSON object (one JSONL line, sans
    /// newline).
    ///
    /// ```
    /// use mph_metrics::{Event, QueryKind};
    ///
    /// let e = Event::OracleQuery { kind: QueryKind::Fresh };
    /// assert_eq!(e.to_json().to_string(), r#"{"event":"oracle_query","kind":"fresh"}"#);
    /// ```
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = vec![("event".into(), Json::str(self.name()))];
        match *self {
            Event::RoundStart { round } => {
                pairs.push(("round".into(), Json::u64(round)));
            }
            Event::RoundEnd(stats) => {
                pairs.extend(stats.json_fields().map(|(k, v)| (k.to_string(), v)));
            }
            Event::OracleQuery { kind } => {
                pairs.push(("kind".into(), Json::str(kind.name())));
            }
            Event::MessageRouted { bits } => {
                pairs.push(("bits".into(), Json::u64(bits)));
            }
            Event::MemoryHighWater { machine, bits } => {
                pairs.push(("machine".into(), Json::u64(machine)));
                pairs.push(("bits".into(), Json::u64(bits)));
            }
            Event::RamStep { cost } => {
                pairs.push(("cost".into(), Json::u64(cost)));
            }
            Event::ModelViolation { kind } => {
                pairs.push(("kind".into(), Json::str(kind)));
            }
            Event::Fault { kind, machine, round } => {
                pairs.push(("kind".into(), Json::str(kind)));
                pairs.push(("machine".into(), Json::u64(machine)));
                pairs.push(("round".into(), Json::u64(round)));
            }
            Event::Worker { kind, worker, round } => {
                pairs.push(("kind".into(), Json::str(kind)));
                pairs.push(("worker".into(), Json::u64(worker)));
                pairs.push(("round".into(), Json::u64(round)));
            }
        }
        Json::Object(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(Event::RoundStart { round: 0 }.name(), "round_start");
        assert_eq!(QueryKind::Patched.name(), "patched");
    }

    #[test]
    fn round_end_renders_all_fields() {
        let e = Event::RoundEnd(RoundStats {
            round: 2,
            messages: 5,
            bits_sent: 320,
            oracle_queries: 7,
            max_queries_one_machine: 3,
            max_memory_bits: 512,
            active_machines: 4,
        });
        let s = e.to_json().to_string();
        assert!(s.starts_with(r#"{"event":"round_end","round":2,"#), "{s}");
        assert!(s.contains(r#""max_memory_bits":512"#), "{s}");
    }
}
