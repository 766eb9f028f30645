//! The per-round record, [`RoundStats`], and the deterministic aggregate
//! produced by [`Recorder::snapshot`].
//!
//! [`Recorder::snapshot`]: crate::Recorder::snapshot

use crate::json::Json;
use std::collections::BTreeMap;

/// The per-round ledger of Definitions 2.1/2.2 of the paper: what one
/// MPC round routed, how often it queried the oracle, and the largest
/// memory image it held.
///
/// The executor fills one record per round (one per shard per round on
/// the sharded path), [`Event::RoundEnd`](crate::Event::RoundEnd)
/// carries it, and the [`Recorder`](crate::Recorder) folds it into
/// [`MetricsSnapshot::rounds`]. `mph_mpc` re-exports it as
/// `mph_mpc::RoundStats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Round index (from 0).
    pub round: u64,
    /// Messages routed out of this round.
    pub messages: u64,
    /// Total payload bits routed out of this round.
    pub bits_sent: u64,
    /// Oracle queries made by all machines this round.
    pub oracle_queries: u64,
    /// Largest per-machine query count this round — the empirical value
    /// of the per-round per-machine query budget `q` of Definition 2.1.
    pub max_queries_one_machine: u64,
    /// Largest memory image delivered at the start of this round, in
    /// bits — checked against the `s`-bit memory bound of Definition 2.1
    /// at delivery time.
    pub max_memory_bits: u64,
    /// Machines whose memory image held at least one message at the
    /// start of this round.
    pub active_machines: u64,
}

impl RoundStats {
    /// Folds `other` into this record: sums for messages, bits, queries
    /// and active machines, maxima for the two peaks; `round` is kept.
    /// The fold is commutative and associative, so it reassembles one
    /// round from its shards' records in any order, and folds a whole
    /// run into its totals ([`RoundStats::total`]).
    pub fn merge(&mut self, other: &RoundStats) {
        self.messages += other.messages;
        self.bits_sent += other.bits_sent;
        self.oracle_queries += other.oracle_queries;
        self.max_queries_one_machine =
            self.max_queries_one_machine.max(other.max_queries_one_machine);
        self.max_memory_bits = self.max_memory_bits.max(other.max_memory_bits);
        self.active_machines += other.active_machines;
    }

    /// The whole-run fold of `records` by [`RoundStats::merge`]: summed
    /// counts and the run's two peaks (its empirical `q` and its largest
    /// memory image). Zero for no records; `round` is always 0.
    pub fn total<'a>(records: impl IntoIterator<Item = &'a RoundStats>) -> RoundStats {
        let mut total = RoundStats::default();
        for r in records {
            total.merge(r);
        }
        total
    }

    /// The record's JSON fields, in their fixed order: the one rendering
    /// behind both the `round_end` event and the snapshot's `rounds`.
    pub(crate) fn json_fields(&self) -> [(&'static str, Json); 7] {
        [
            ("round", Json::u64(self.round)),
            ("messages", Json::u64(self.messages)),
            ("bits_sent", Json::u64(self.bits_sent)),
            ("oracle_queries", Json::u64(self.oracle_queries)),
            ("max_queries_one_machine", Json::u64(self.max_queries_one_machine)),
            ("max_memory_bits", Json::u64(self.max_memory_bits)),
            ("active_machines", Json::u64(self.active_machines)),
        ]
    }
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
    pub rounds: Vec<RoundStats>,
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
    /// The `faults` and `workers` objects are included only when
    /// nonempty: fault-free in-process runs (the only kind that existed
    /// before the fault-injection and shard subsystems) keep rendering
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
            ("rounds", Json::array(self.rounds.iter().map(|r| Json::object(r.json_fields())))),
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
    fn merge_sums_counts_and_keeps_peaks() {
        let shard = |messages, queries, peak_q, memory, active| RoundStats {
            round: 4,
            messages,
            bits_sent: 10 * messages,
            oracle_queries: queries,
            max_queries_one_machine: peak_q,
            max_memory_bits: memory,
            active_machines: active,
        };
        let (a, b, c) = (shard(3, 5, 4, 60, 2), shard(1, 2, 2, 80, 1), shard(0, 0, 0, 0, 0));
        let mut merged = RoundStats { round: 4, ..RoundStats::default() };
        for part in [&a, &b, &c] {
            merged.merge(part);
        }
        assert_eq!(merged, shard(4, 7, 4, 80, 3));
        // Order-independent: folding the other way round agrees.
        let mut reversed = c;
        reversed.merge(&b);
        reversed.merge(&a);
        assert_eq!(reversed, merged);
        // And the whole-run fold is the same merge, from zero.
        assert_eq!(RoundStats::total([&a, &b, &c]), RoundStats { round: 0, ..merged });
        assert_eq!(RoundStats::total([]), RoundStats::default());
    }

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
            workers: BTreeMap::new(),
        };
        assert!(!snap.to_json_string().contains("faults"));
        snap.faults.insert("crash".into(), 2);
        snap.faults.insert("message_dropped".into(), 1);
        let s = snap.to_json_string();
        assert!(s.ends_with(r#""faults":{"crash":2,"message_dropped":1}}"#), "{s}");
    }
}
