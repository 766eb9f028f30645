//! The sharded, aggregate-only [`Recorder`] sink.

use crate::events::{Event, QueryKind};
use crate::sink::MetricsSink;
use crate::snapshot::{MetricsSnapshot, OracleTotals, RamTotals, RoundSnapshot, Totals};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default number of shards; enough that rayon workers on typical hosts
/// rarely contend on the same lock.
const DEFAULT_SHARDS: usize = 16;

/// Global counter handing each recording thread a distinct shard slot.
static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's shard slot, assigned on first use.
    static THREAD_SLOT: usize = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed);
}

/// Folds one round record into `rounds` under its round index: sums,
/// and maxima for the two per-machine peaks — commutative, so the order
/// in which shards fold never shows.
fn fold_round(rounds: &mut BTreeMap<u64, RoundSnapshot>, r: &RoundSnapshot) {
    let acc = rounds.entry(r.round).or_default();
    acc.round = r.round;
    acc.messages += r.messages;
    acc.bits_sent += r.bits_sent;
    acc.oracle_queries += r.oracle_queries;
    acc.max_queries_one_machine = acc.max_queries_one_machine.max(r.max_queries_one_machine);
    acc.max_memory_bits = acc.max_memory_bits.max(r.max_memory_bits);
    acc.active_machines += r.active_machines;
}

/// One shard's accumulated state. Every field is a sum, a max, or a
/// keyed map of sums/maxes — all commutative, so folding shards in any
/// order yields the same totals.
#[derive(Debug, Default)]
struct Shard {
    rounds: BTreeMap<u64, RoundSnapshot>,
    fresh: u64,
    cached: u64,
    patched: u64,
    messages_routed: u64,
    routed_bits: u64,
    memory_high_water: u64,
    ram_steps: u64,
    ram_cost: u64,
    violations: BTreeMap<&'static str, u64>,
    faults: BTreeMap<&'static str, u64>,
    timeouts: u64,
    workers: BTreeMap<&'static str, u64>,
}

impl Shard {
    fn apply(&mut self, event: &Event) {
        match *event {
            Event::RoundStart { .. } => {}
            Event::RoundEnd {
                round,
                messages,
                bits_sent,
                oracle_queries,
                max_queries_one_machine,
                max_memory_bits,
                active_machines,
            } => fold_round(
                &mut self.rounds,
                &RoundSnapshot {
                    round,
                    messages,
                    bits_sent,
                    oracle_queries,
                    max_queries_one_machine,
                    max_memory_bits,
                    active_machines,
                },
            ),
            Event::OracleQuery { kind } => match kind {
                QueryKind::Fresh => self.fresh += 1,
                QueryKind::Cached => self.cached += 1,
                QueryKind::Patched => self.patched += 1,
            },
            Event::MessageRouted { bits } => {
                self.messages_routed += 1;
                self.routed_bits += bits;
            }
            Event::MemoryHighWater { bits, .. } => {
                self.memory_high_water = self.memory_high_water.max(bits);
            }
            Event::RamStep { cost } => {
                self.ram_steps += 1;
                self.ram_cost += cost;
            }
            Event::ModelViolation { kind } => {
                *self.violations.entry(kind).or_insert(0) += 1;
            }
            Event::Fault { kind, .. } => {
                *self.faults.entry(kind).or_insert(0) += 1;
            }
            Event::TrialTimeout { .. } => {
                self.timeouts += 1;
            }
            Event::Worker { kind, .. } => {
                *self.workers.entry(kind).or_insert(0) += 1;
            }
        }
    }
}

/// An aggregating [`MetricsSink`] that is safe (and cheap) to share
/// across rayon worker threads.
///
/// Events land in one of a fixed set of mutex-protected shards, picked by
/// the recording thread, so concurrent machines rarely contend. Because
/// every shard field is commutative (sums, maxes, keyed sums), the fold
/// performed by [`Recorder::snapshot`] is independent of which thread
/// recorded what — the snapshot (and hence its JSON rendering) is
/// **byte-identical across thread counts and schedules** for the same
/// logical run, preserving the workspace determinism convention
/// (DESIGN.md §5).
///
/// ```
/// use mph_metrics::{Event, MetricsSink, QueryKind, Recorder};
///
/// let rec = Recorder::new();
/// rec.set_tag("n", "4096");
/// rec.record(&Event::OracleQuery { kind: QueryKind::Fresh });
/// rec.record(&Event::OracleQuery { kind: QueryKind::Cached });
/// let snap = rec.snapshot();
/// assert_eq!(snap.oracle.fresh, 1);
/// assert_eq!(snap.oracle.cached, 1);
/// assert_eq!(snap.tags["n"], "4096");
/// ```
pub struct Recorder {
    shards: Vec<Mutex<Shard>>,
    tags: Mutex<BTreeMap<String, String>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder with the default shard count.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// A recorder with `shards` shards (minimum 1).
    pub fn with_shards(shards: usize) -> Self {
        let shards = shards.max(1);
        Recorder {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            tags: Mutex::new(BTreeMap::new()),
        }
    }

    /// Attaches a `key = value` tag describing the run (instance size
    /// `n`, space `s`, budget `q`, …). Tags appear in the snapshot sorted
    /// by key.
    pub fn set_tag(&self, key: impl Into<String>, value: impl Into<String>) {
        self.tags.lock().unwrap_or_else(|e| e.into_inner()).insert(key.into(), value.into());
    }

    /// Folds all shards into an order-independent [`MetricsSnapshot`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut merged = Shard::default();
        for shard in &self.shards {
            let s = shard.lock().unwrap_or_else(|e| e.into_inner());
            for r in s.rounds.values() {
                fold_round(&mut merged.rounds, r);
            }
            merged.fresh += s.fresh;
            merged.cached += s.cached;
            merged.patched += s.patched;
            merged.messages_routed += s.messages_routed;
            merged.routed_bits += s.routed_bits;
            merged.memory_high_water = merged.memory_high_water.max(s.memory_high_water);
            merged.ram_steps += s.ram_steps;
            merged.ram_cost += s.ram_cost;
            for (kind, count) in &s.violations {
                *merged.violations.entry(kind).or_insert(0) += count;
            }
            for (kind, count) in &s.faults {
                *merged.faults.entry(kind).or_insert(0) += count;
            }
            merged.timeouts += s.timeouts;
            for (kind, count) in &s.workers {
                *merged.workers.entry(kind).or_insert(0) += count;
            }
        }

        let rounds: Vec<RoundSnapshot> = merged.rounds.into_values().collect();

        let totals = Totals {
            rounds: rounds.len() as u64,
            messages: rounds.iter().map(|r| r.messages).sum(),
            bits_sent: rounds.iter().map(|r| r.bits_sent).sum(),
            oracle_queries: rounds.iter().map(|r| r.oracle_queries).sum(),
            peak_queries_one_machine: rounds
                .iter()
                .map(|r| r.max_queries_one_machine)
                .max()
                .unwrap_or(0),
            peak_memory_bits: rounds
                .iter()
                .map(|r| r.max_memory_bits)
                .max()
                .unwrap_or(0)
                .max(merged.memory_high_water),
            messages_routed: merged.messages_routed,
            routed_bits: merged.routed_bits,
        };

        MetricsSnapshot {
            schema_version: crate::SCHEMA_VERSION,
            tags: self.tags.lock().unwrap_or_else(|e| e.into_inner()).clone(),
            rounds,
            totals,
            oracle: OracleTotals {
                fresh: merged.fresh,
                cached: merged.cached,
                patched: merged.patched,
            },
            ram: RamTotals { steps: merged.ram_steps, cost: merged.ram_cost },
            violations: merged.violations.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            faults: merged.faults.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            timeouts: merged.timeouts,
            workers: merged.workers.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }
}

impl MetricsSink for Recorder {
    fn record(&self, event: &Event) {
        let slot = THREAD_SLOT.with(|s| *s);
        let shard = &self.shards[slot % self.shards.len()];
        shard.lock().unwrap_or_else(|e| e.into_inner()).apply(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spray(rec: &Recorder, threads: usize) {
        std::thread::scope(|scope| {
            for t in 0..threads {
                let rec = &*rec;
                scope.spawn(move || {
                    for i in 0..100u64 {
                        rec.record(&Event::OracleQuery { kind: QueryKind::Fresh });
                        rec.record(&Event::MessageRouted { bits: 8 });
                        rec.record(&Event::MemoryHighWater { machine: t as u64, bits: i });
                    }
                });
            }
        });
    }

    #[test]
    fn concurrent_counts_are_exact() {
        let rec = Recorder::new();
        spray(&rec, 8);
        let snap = rec.snapshot();
        assert_eq!(snap.oracle.fresh, 800);
        assert_eq!(snap.totals.messages_routed, 800);
        assert_eq!(snap.totals.routed_bits, 6400);
        assert_eq!(snap.totals.peak_memory_bits, 99);
    }

    #[test]
    fn round_aggregates_merge() {
        let rec = Recorder::with_shards(4);
        rec.record(&Event::RoundEnd {
            round: 0,
            messages: 3,
            bits_sent: 24,
            oracle_queries: 2,
            max_queries_one_machine: 1,
            max_memory_bits: 100,
            active_machines: 2,
        });
        rec.record(&Event::RoundEnd {
            round: 1,
            messages: 1,
            bits_sent: 8,
            oracle_queries: 4,
            max_queries_one_machine: 4,
            max_memory_bits: 90,
            active_machines: 1,
        });
        let snap = rec.snapshot();
        assert_eq!(snap.totals.rounds, 2);
        assert_eq!(snap.totals.messages, 4);
        assert_eq!(snap.totals.oracle_queries, 6);
        assert_eq!(snap.totals.peak_queries_one_machine, 4);
        assert_eq!(snap.totals.peak_memory_bits, 100);
    }

    #[test]
    fn violations_keyed_by_kind() {
        let rec = Recorder::new();
        rec.record(&Event::ModelViolation { kind: "memory_exceeded" });
        rec.record(&Event::ModelViolation { kind: "memory_exceeded" });
        rec.record(&Event::ModelViolation { kind: "query_budget" });
        let snap = rec.snapshot();
        assert_eq!(snap.violations["memory_exceeded"], 2);
        assert_eq!(snap.violations["query_budget"], 1);
    }
}
