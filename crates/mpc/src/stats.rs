//! Simulation instrumentation.
//!
//! The paper's cost model counts rounds above all (Definition 2.2's
//! synchronous round structure), but its constraints also mention
//! communication volume ("each machine receives no more communication than
//! its memory", Definition 2.1), memory high-water marks (the `s`-bit
//! bound), and per-round query counts (the budget `q < 2^{n/4}` of
//! Theorem 3.1); the experiments report all of them.
//!
//! The per-round record, [`RoundStats`], is declared once in
//! `mph-metrics` and re-exported here: the executor fills it, the
//! `RoundEnd` event carries it to any attached sink, and the integration
//! tests assert that the event stream reconstructs these aggregates
//! exactly. This module adds the whole-run view, [`SimStats`], and the
//! one binary codec of a record, [`encode_round_stats`] and
//! [`decode_round_stats`], which the `RACK` shard frame, the `SIMU`
//! snapshot and the checkpoint `CELL` payload share.

use mph_oracle::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use serde::{Deserialize, Serialize};

pub use mph_metrics::RoundStats;

/// Writes `stats` as seven little-endian `u64`s in field order.
pub fn encode_round_stats(w: &mut SnapshotWriter, stats: &RoundStats) {
    w.put_u64(stats.round);
    w.put_u64(stats.messages);
    w.put_u64(stats.bits_sent);
    w.put_u64(stats.oracle_queries);
    w.put_u64(stats.max_queries_one_machine);
    w.put_u64(stats.max_memory_bits);
    w.put_u64(stats.active_machines);
}

/// Reads a record written by [`encode_round_stats`].
pub fn decode_round_stats(r: &mut SnapshotReader<'_>) -> Result<RoundStats, SnapshotError> {
    Ok(RoundStats {
        round: r.get_u64()?,
        messages: r.get_u64()?,
        bits_sent: r.get_u64()?,
        oracle_queries: r.get_u64()?,
        max_queries_one_machine: r.get_u64()?,
        max_memory_bits: r.get_u64()?,
        active_machines: r.get_u64()?,
    })
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
        RoundStats::total(&self.rounds).messages as usize
    }

    /// Total communication in bits across all rounds.
    pub fn total_bits(&self) -> usize {
        RoundStats::total(&self.rounds).bits_sent as usize
    }

    /// Total oracle queries across all rounds.
    pub fn total_queries(&self) -> u64 {
        RoundStats::total(&self.rounds).oracle_queries
    }

    /// The largest memory image any machine ever received — must be ≤ `s`
    /// in a legal run.
    pub fn peak_memory_bits(&self) -> usize {
        RoundStats::total(&self.rounds).max_memory_bits as usize
    }

    /// The largest per-machine, per-round query count — the empirical `q`.
    pub fn peak_queries(&self) -> u64 {
        RoundStats::total(&self.rounds).max_queries_one_machine
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
    fn empty_stats() {
        let stats = SimStats::default();
        assert_eq!(stats.num_rounds(), 0);
        assert_eq!(stats.peak_memory_bits(), 0);
    }
}
