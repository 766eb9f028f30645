//! The deterministic aggregate produced by [`Recorder::snapshot`].
//!
//! [`Recorder::snapshot`]: crate::Recorder::snapshot

use crate::json::Json;
use std::collections::BTreeMap;

/// Aggregates for one MPC round, mirroring `mph_mpc::stats::RoundStats`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RoundSnapshot {
    /// Round index (from 0).
    pub round: u64,
    /// Messages delivered at the end of this round.
    pub messages: u64,
    /// Total payload bits across those messages.
    pub bits_sent: u64,
    /// Oracle queries made by all machines this round.
    pub oracle_queries: u64,
    /// Largest per-machine query count this round.
    pub max_queries_one_machine: u64,
    /// Largest per-machine memory footprint this round, in bits.
    pub max_memory_bits: u64,
    /// Machines that sent or received at least one message.
    pub active_machines: u64,
}

/// Whole-run totals derived from the per-round ledger and routing events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Totals {
    /// Number of completed rounds.
    pub rounds: u64,
    /// Messages summed over all rounds.
    pub messages: u64,
    /// Payload bits summed over all rounds.
    pub bits_sent: u64,
    /// Oracle queries summed over all rounds.
    pub oracle_queries: u64,
    /// Max over rounds of the per-machine query maximum (the quantity
    /// bounded by `q` in Definition 2.1 of the paper).
    pub peak_queries_one_machine: u64,
    /// Max over rounds (and high-water events) of per-machine memory, in
    /// bits (bounded by `s`).
    pub peak_memory_bits: u64,
    /// Messages observed by `MessageRouted` events (equals `messages`
    /// when routing instrumentation is enabled).
    pub messages_routed: u64,
    /// Bits observed by `MessageRouted` events.
    pub routed_bits: u64,
}

/// Oracle query counts by resolution kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OracleTotals {
    /// First-time queries.
    pub fresh: u64,
    /// Repeated queries.
    pub cached: u64,
    /// Queries answered by a patched override.
    pub patched: u64,
}

impl OracleTotals {
    /// All queries regardless of kind.
    pub fn total(&self) -> u64 {
        self.fresh + self.cached + self.patched
    }
}

/// Word-RAM step accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RamTotals {
    /// Instructions retired.
    pub steps: u64,
    /// Total charged time units (≥ `steps`; oracle steps cost extra).
    pub cost: u64,
}

/// The deterministic, JSON-renderable aggregate of one instrumented run.
///
/// Field order in [`MetricsSnapshot::to_json`] is fixed, maps are sorted
/// by key, and every count is an order-independent fold — so two runs of
/// the same seeded computation render byte-identical JSON regardless of
/// thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Version of the JSON schema this snapshot renders as (see
    /// [`crate::SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Run description tags (`n`, `s`, `q`, …), sorted by key.
    pub tags: BTreeMap<String, String>,
    /// Per-round ledger, sorted by round.
    pub rounds: Vec<RoundSnapshot>,
    /// Whole-run totals.
    pub totals: Totals,
    /// Oracle query classification.
    pub oracle: OracleTotals,
    /// Word-RAM accounting.
    pub ram: RamTotals,
    /// Model violation counts by kind, sorted by kind.
    pub violations: BTreeMap<String, u64>,
    /// Injected-fault counts by kind, sorted by kind. Populated only by
    /// runs with an active `mph_mpc::faults::FaultPlan`; empty for every
    /// fault-free run.
    pub faults: BTreeMap<String, u64>,
    /// Trials aborted by the wall-clock watchdog
    /// (`Event::TrialTimeout`). Zero for every run without a deadline.
    pub timeouts: u64,
    /// Worker-process lifecycle counts by transition kind
    /// (`spawn`/`round_ack`/`crash`/`respawn`/`reconnect`/`replay`/
    /// `heartbeat`/`hb_echo`/`redistribute`/`degrade`), sorted by kind.
    /// Populated only by sharded multi-process runs (`mph_mpc::shard`);
    /// empty for every in-process run.
    pub workers: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// Renders the snapshot as a JSON document.
    ///
    /// The `faults` object is included only when at least one fault was
    /// recorded, and the `timeouts` count only when nonzero: fault-free,
    /// deadline-free runs (the only kind that existed before the
    /// fault-injection and watchdog subsystems) keep rendering
    /// byte-identically under schema version 1.
    pub fn to_json(&self) -> Json {
        let mut doc = Json::object([
            ("schema_version", Json::u64(u64::from(self.schema_version))),
            (
                "tags",
                Json::Object(
                    self.tags.iter().map(|(k, v)| (k.clone(), Json::str(v.clone()))).collect(),
                ),
            ),
            (
                "rounds",
                Json::array(self.rounds.iter().map(|r| {
                    Json::object([
                        ("round", Json::u64(r.round)),
                        ("messages", Json::u64(r.messages)),
                        ("bits_sent", Json::u64(r.bits_sent)),
                        ("oracle_queries", Json::u64(r.oracle_queries)),
                        ("max_queries_one_machine", Json::u64(r.max_queries_one_machine)),
                        ("max_memory_bits", Json::u64(r.max_memory_bits)),
                        ("active_machines", Json::u64(r.active_machines)),
                    ])
                })),
            ),
            (
                "totals",
                Json::object([
                    ("rounds", Json::u64(self.totals.rounds)),
                    ("messages", Json::u64(self.totals.messages)),
                    ("bits_sent", Json::u64(self.totals.bits_sent)),
                    ("oracle_queries", Json::u64(self.totals.oracle_queries)),
                    ("peak_queries_one_machine", Json::u64(self.totals.peak_queries_one_machine)),
                    ("peak_memory_bits", Json::u64(self.totals.peak_memory_bits)),
                    ("messages_routed", Json::u64(self.totals.messages_routed)),
                    ("routed_bits", Json::u64(self.totals.routed_bits)),
                ]),
            ),
            (
                "oracle",
                Json::object([
                    ("fresh", Json::u64(self.oracle.fresh)),
                    ("cached", Json::u64(self.oracle.cached)),
                    ("patched", Json::u64(self.oracle.patched)),
                    ("total", Json::u64(self.oracle.total())),
                ]),
            ),
            (
                "ram",
                Json::object([
                    ("steps", Json::u64(self.ram.steps)),
                    ("cost", Json::u64(self.ram.cost)),
                ]),
            ),
            (
                "violations",
                Json::Object(
                    self.violations.iter().map(|(k, v)| (k.clone(), Json::u64(*v))).collect(),
                ),
            ),
        ]);
        if !self.faults.is_empty() {
            if let Json::Object(pairs) = &mut doc {
                pairs.push((
                    "faults".into(),
                    Json::Object(
                        self.faults.iter().map(|(k, v)| (k.clone(), Json::u64(*v))).collect(),
                    ),
                ));
            }
        }
        if self.timeouts > 0 {
            if let Json::Object(pairs) = &mut doc {
                pairs.push(("timeouts".into(), Json::u64(self.timeouts)));
            }
        }
        if !self.workers.is_empty() {
            if let Json::Object(pairs) = &mut doc {
                pairs.push((
                    "workers".into(),
                    Json::Object(
                        self.workers.iter().map(|(k, v)| (k.clone(), Json::u64(*v))).collect(),
                    ),
                ));
            }
        }
        doc
    }

    /// Renders the snapshot as a JSON string (one line, no trailing
    /// newline).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_renders() {
        let snap = MetricsSnapshot {
            schema_version: crate::SCHEMA_VERSION,
            tags: BTreeMap::new(),
            rounds: Vec::new(),
            totals: Totals::default(),
            oracle: OracleTotals::default(),
            ram: RamTotals::default(),
            violations: BTreeMap::new(),
            faults: BTreeMap::new(),
            timeouts: 0,
            workers: BTreeMap::new(),
        };
        let s = snap.to_json_string();
        assert!(s.starts_with(r#"{"schema_version":1,"tags":{},"rounds":[],"#), "{s}");
        assert!(s.ends_with(r#""violations":{}}"#), "{s}");
    }

    #[test]
    fn faults_render_only_when_present() {
        let mut snap = MetricsSnapshot {
            schema_version: crate::SCHEMA_VERSION,
            tags: BTreeMap::new(),
            rounds: Vec::new(),
            totals: Totals::default(),
            oracle: OracleTotals::default(),
            ram: RamTotals::default(),
            violations: BTreeMap::new(),
            faults: BTreeMap::new(),
            timeouts: 0,
            workers: BTreeMap::new(),
        };
        assert!(!snap.to_json_string().contains("faults"));
        snap.faults.insert("crash".into(), 2);
        snap.faults.insert("message_dropped".into(), 1);
        let s = snap.to_json_string();
        assert!(s.ends_with(r#""faults":{"crash":2,"message_dropped":1}}"#), "{s}");

        // And timeouts render only when nonzero, after the faults block.
        snap.timeouts = 3;
        let s = snap.to_json_string();
        assert!(s.ends_with(r#""faults":{"crash":2,"message_dropped":1},"timeouts":3}"#), "{s}");
        snap.faults.clear();
        let s = snap.to_json_string();
        assert!(s.ends_with(r#""violations":{},"timeouts":3}"#), "{s}");
    }
}
