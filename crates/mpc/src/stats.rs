//! Simulation instrumentation.
//!
//! The paper's cost model counts rounds above all (Definition 2.2's
//! synchronous round structure), but its constraints also mention
//! communication volume ("each machine receives no more communication than
//! its memory", Definition 2.1), memory high-water marks (the `s`-bit
//! bound), and per-round query counts (the budget `q < 2^{n/4}` of
//! Theorem 3.1); the experiments report all of them.
//!
//! Every field here is also emitted as a structured event through
//! `mph-metrics` when a sink is attached to the
//! [`Simulation`](crate::Simulation) — the integration tests assert that
//! the event stream reconstructs these aggregates exactly.

use serde::{Deserialize, Serialize};

/// Statistics for a single round.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundStats {
    /// Round index.
    pub round: usize,
    /// Messages routed out of this round.
    pub messages: usize,
    /// Total payload bits routed out of this round.
    pub bits_sent: usize,
    /// Oracle queries made by all machines this round.
    pub oracle_queries: u64,
    /// Largest per-machine query count this round — the empirical value of
    /// the per-round per-machine query budget `q` of Definition 2.1.
    pub max_queries_one_machine: u64,
    /// Largest memory image delivered at the start of this round, in bits —
    /// checked against the `s`-bit memory bound of Definition 2.1 at
    /// delivery time.
    pub max_memory_bits: usize,
    /// Number of machines that received at least one message this round.
    pub active_machines: usize,
}

impl RoundStats {
    /// Folds another shard's record of the same round into this one:
    /// sums for messages, bits, queries and active machines, maxima for
    /// the two peaks. The fold is commutative and associative, so a
    /// supervisor merging its shards' records in any order reassembles
    /// the in-process round record exactly.
    pub fn merge(&mut self, other: &RoundStats) {
        debug_assert_eq!(self.round, other.round, "merging records of different rounds");
        self.messages += other.messages;
        self.bits_sent += other.bits_sent;
        self.oracle_queries += other.oracle_queries;
        self.max_queries_one_machine =
            self.max_queries_one_machine.max(other.max_queries_one_machine);
        self.max_memory_bits = self.max_memory_bits.max(other.max_memory_bits);
        self.active_machines += other.active_machines;
    }
}

/// Statistics across a whole run.
///
/// ```
/// use mph_mpc::{RoundStats, SimStats};
///
/// let stats = SimStats {
///     rounds: vec![
///         RoundStats { round: 0, messages: 3, bits_sent: 100, oracle_queries: 5,
///                      max_queries_one_machine: 4, max_memory_bits: 60, active_machines: 2 },
///         RoundStats { round: 1, messages: 1, bits_sent: 10, oracle_queries: 2,
///                      max_queries_one_machine: 2, max_memory_bits: 80, active_machines: 1 },
///     ],
/// };
/// assert_eq!(stats.num_rounds(), 2);
/// assert_eq!(stats.total_queries(), 7);
/// assert_eq!(stats.peak_queries(), 4);     // the empirical q of Definition 2.1
/// assert_eq!(stats.peak_memory_bits(), 80); // must be ≤ s in a legal run
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimStats {
    /// Per-round records, in order.
    pub rounds: Vec<RoundStats>,
}

impl SimStats {
    /// Number of executed rounds.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Total messages across all rounds.
    pub fn total_messages(&self) -> usize {
        self.rounds.iter().map(|r| r.messages).sum()
    }

    /// Total communication in bits across all rounds.
    pub fn total_bits(&self) -> usize {
        self.rounds.iter().map(|r| r.bits_sent).sum()
    }

    /// Total oracle queries across all rounds.
    pub fn total_queries(&self) -> u64 {
        self.rounds.iter().map(|r| r.oracle_queries).sum()
    }

    /// The largest memory image any machine ever received — must be ≤ `s`
    /// in a legal run.
    pub fn peak_memory_bits(&self) -> usize {
        self.rounds.iter().map(|r| r.max_memory_bits).max().unwrap_or(0)
    }

    /// The largest per-machine, per-round query count — the empirical `q`.
    pub fn peak_queries(&self) -> u64 {
        self.rounds.iter().map(|r| r.max_queries_one_machine).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation() {
        let stats = SimStats {
            rounds: vec![
                RoundStats {
                    round: 0,
                    messages: 3,
                    bits_sent: 100,
                    oracle_queries: 5,
                    max_queries_one_machine: 4,
                    max_memory_bits: 60,
                    active_machines: 2,
                },
                RoundStats {
                    round: 1,
                    messages: 1,
                    bits_sent: 10,
                    oracle_queries: 2,
                    max_queries_one_machine: 2,
                    max_memory_bits: 80,
                    active_machines: 1,
                },
            ],
        };
        assert_eq!(stats.num_rounds(), 2);
        assert_eq!(stats.total_messages(), 4);
        assert_eq!(stats.total_bits(), 110);
        assert_eq!(stats.total_queries(), 7);
        assert_eq!(stats.peak_memory_bits(), 80);
        assert_eq!(stats.peak_queries(), 4);
    }

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
        let mut reversed = c.clone();
        reversed.merge(&b);
        reversed.merge(&a);
        assert_eq!(reversed, merged);
    }

    #[test]
    fn empty_stats() {
        let stats = SimStats::default();
        assert_eq!(stats.num_rounds(), 0);
        assert_eq!(stats.peak_memory_bits(), 0);
    }
}
