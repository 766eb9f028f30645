//! Durable snapshots of executor state.
//!
//! A [`SimulationSnapshot`] captures everything a
//! [`Simulation`](crate::Simulation) carries between rounds — the round
//! index, every machine's memory image (its pending inbox), in-flight
//! outputs, per-round statistics, the query budget, the random-tape seed,
//! and the fault plan's coordinates plus its accumulated state (crashed
//! machines, straggler-delayed messages). What it deliberately does *not*
//! capture is configuration the host reconstructs from its own parameters:
//! machine programs, the oracle object, and the metrics sink.
//!
//! The byte format rides on the codec in [`mph_oracle::snapshot`]: one
//! `"SIMU"` section inside the magic/version/CRC32 frame. Decoding is
//! strict — truncation, corruption, version skew, or an inconsistent field
//! (a machine id `≥ m`, a fault rate outside `[0, 1]`) yields a typed
//! [`SnapshotError`], never a panic and never a half-restored simulation.
//!
//! Because every run in this workspace is a pure function of its seeds,
//! restoring a snapshot into a freshly configured simulation and finishing
//! the run is byte-identical to never having stopped — the property the
//! checkpoint/restart subsystem (docs/ROBUSTNESS.md) is built on, and the
//! property `tests/snapshot_roundtrip.rs` proves by proptest.

use crate::faults::FaultSpec;
use crate::message::{MachineId, Message};
use crate::stats::{decode_round_stats, encode_round_stats, SimStats};
use mph_bits::BitVec;
use mph_oracle::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};

/// Section tag for serialized executor state.
pub const SECTION_SIMULATION: [u8; 4] = *b"SIMU";

/// The persisted coordinates and accumulated state of a fault plan.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSnapshot {
    /// The plan's scheduling seed.
    pub seed: u64,
    /// The configured fault rates.
    pub spec: FaultSpec,
    /// Which machines have crash-stopped so far (length `m`).
    pub crashed: Vec<bool>,
    /// Straggler-delayed messages as `(deliver_round, message)`.
    pub delayed: Vec<(usize, Message)>,
}

/// A point-in-time capture of a [`Simulation`](crate::Simulation)'s run
/// state, taken with [`Simulation::snapshot`](crate::Simulation::snapshot)
/// and reinstalled with
/// [`Simulation::restore`](crate::Simulation::restore).
#[derive(Clone, Debug, PartialEq)]
pub struct SimulationSnapshot {
    /// Number of machines `m` (configuration, stored to cross-check at
    /// restore time).
    pub m: usize,
    /// The per-machine memory bound `s` in bits (cross-checked likewise).
    pub s_bits: usize,
    /// The per-machine per-round oracle query budget, if one is set.
    pub q: Option<u64>,
    /// Rounds executed so far.
    pub round: usize,
    /// Every machine's pending inbox — its memory image `M_i^k`.
    pub inboxes: Vec<Vec<Message>>,
    /// Output contributions collected so far.
    pub outputs: Vec<(MachineId, BitVec)>,
    /// Per-round statistics accumulated so far.
    pub stats: SimStats,
    /// Seed of the shared random tape (the tape is a pure function of it).
    pub tape_seed: u64,
    /// The fault plan and its accumulated state, if one is installed.
    pub faults: Option<FaultSnapshot>,
}

fn check_rate(name: &str, rate: f64) -> Result<(), SnapshotError> {
    if rate.is_finite() && (0.0..=1.0).contains(&rate) {
        Ok(())
    } else {
        Err(SnapshotError::Malformed(format!("fault rate {name} = {rate} outside [0, 1]")))
    }
}

fn encode_message(w: &mut SnapshotWriter, msg: &Message) {
    w.put_u64(msg.from as u64);
    w.put_u64(msg.to as u64);
    w.put_bitvec(&msg.payload);
}

fn decode_message(r: &mut SnapshotReader<'_>, m: usize) -> Result<Message, SnapshotError> {
    let from = r.get_u64()? as usize;
    let to = r.get_u64()? as usize;
    if from >= m || to >= m {
        return Err(SnapshotError::Malformed(format!(
            "message endpoint out of range: from {from}, to {to}, m {m}"
        )));
    }
    let payload = r.get_bitvec()?;
    Ok(Message { from, to, payload })
}

impl SimulationSnapshot {
    /// Serializes the snapshot into the framed binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        let patch = w.begin_section(&SECTION_SIMULATION);
        w.put_u64(self.m as u64);
        w.put_u64(self.s_bits as u64);
        w.put_bool(self.q.is_some());
        w.put_u64(self.q.unwrap_or(0));
        w.put_u64(self.round as u64);
        w.put_u64(self.tape_seed);

        debug_assert_eq!(self.inboxes.len(), self.m);
        for inbox in &self.inboxes {
            w.put_u64(inbox.len() as u64);
            for msg in inbox {
                encode_message(&mut w, msg);
            }
        }

        w.put_u64(self.outputs.len() as u64);
        for (machine, bits) in &self.outputs {
            w.put_u64(*machine as u64);
            w.put_bitvec(bits);
        }

        w.put_u64(self.stats.rounds.len() as u64);
        for rs in &self.stats.rounds {
            encode_round_stats(&mut w, rs);
        }

        w.put_bool(self.faults.is_some());
        if let Some(fs) = &self.faults {
            w.put_u64(fs.seed);
            w.put_f64(fs.spec.crash_rate);
            w.put_f64(fs.spec.drop_rate);
            w.put_f64(fs.spec.corrupt_rate);
            w.put_f64(fs.spec.straggler_rate);
            w.put_u64(fs.spec.straggler_delay as u64);
            w.put_f64(fs.spec.oracle_outage_rate);
            w.put_u64(fs.crashed.len() as u64);
            for &c in &fs.crashed {
                w.put_bool(c);
            }
            w.put_u64(fs.delayed.len() as u64);
            for (deliver, msg) in &fs.delayed {
                w.put_u64(*deliver as u64);
                encode_message(&mut w, msg);
            }
        }
        w.end_section(patch);
        w.finish()
    }

    /// Decodes a snapshot, verifying the frame and every structural
    /// invariant (`0 < m` and room left for `m` inbox counts, machine ids
    /// `< m`, `crashed.len() == m`, fault rates finite in `[0, 1]`).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::new(bytes)?;
        r.begin_section(&SECTION_SIMULATION)?;
        let m = r.get_u64()? as usize;
        if m == 0 {
            return Err(SnapshotError::Malformed("m = 0: a simulation has machines".into()));
        }
        let s_bits = r.get_u64()? as usize;
        let has_q = r.get_bool()?;
        let q_value = r.get_u64()?;
        let q = has_q.then_some(q_value);
        let round = r.get_u64()? as usize;
        let tape_seed = r.get_u64()?;

        // Every inbox needs at least its 8-byte count, so a declared `m`
        // the remaining bytes cannot hold is refused before it sizes an
        // allocation.
        if m > r.remaining() / 8 {
            return Err(SnapshotError::Malformed(format!(
                "m = {m} inboxes cannot fit in the {} bytes that remain",
                r.remaining()
            )));
        }
        let mut inboxes = Vec::with_capacity(m);
        for _ in 0..m {
            let count = r.get_u64()?;
            let mut inbox = Vec::new();
            for _ in 0..count {
                inbox.push(decode_message(&mut r, m)?);
            }
            inboxes.push(inbox);
        }

        let output_count = r.get_u64()?;
        let mut outputs = Vec::new();
        for _ in 0..output_count {
            let machine = r.get_u64()? as usize;
            if machine >= m {
                return Err(SnapshotError::Malformed(format!(
                    "output machine {machine} out of range (m = {m})"
                )));
            }
            outputs.push((machine, r.get_bitvec()?));
        }

        let round_count = r.get_u64()?;
        let mut stats = SimStats::default();
        for _ in 0..round_count {
            stats.rounds.push(decode_round_stats(&mut r)?);
        }

        let faults = if r.get_bool()? {
            let seed = r.get_u64()?;
            let spec = FaultSpec {
                crash_rate: r.get_f64()?,
                drop_rate: r.get_f64()?,
                corrupt_rate: r.get_f64()?,
                straggler_rate: r.get_f64()?,
                straggler_delay: r.get_u64()? as usize,
                oracle_outage_rate: r.get_f64()?,
            };
            check_rate("crash_rate", spec.crash_rate)?;
            check_rate("drop_rate", spec.drop_rate)?;
            check_rate("corrupt_rate", spec.corrupt_rate)?;
            check_rate("straggler_rate", spec.straggler_rate)?;
            check_rate("oracle_outage_rate", spec.oracle_outage_rate)?;
            let crashed_len = r.get_u64()? as usize;
            if crashed_len != m {
                return Err(SnapshotError::Malformed(format!(
                    "crashed vector length {crashed_len} disagrees with m = {m}"
                )));
            }
            let mut crashed = Vec::with_capacity(m);
            for _ in 0..m {
                crashed.push(r.get_bool()?);
            }
            let delayed_count = r.get_u64()?;
            let mut delayed = Vec::new();
            for _ in 0..delayed_count {
                let deliver = r.get_u64()? as usize;
                delayed.push((deliver, decode_message(&mut r, m)?));
            }
            Some(FaultSnapshot { seed, spec, crashed, delayed })
        } else {
            None
        };

        Ok(SimulationSnapshot { m, s_bits, q, round, inboxes, outputs, stats, tape_seed, faults })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::RoundStats;

    fn sample() -> SimulationSnapshot {
        SimulationSnapshot {
            m: 3,
            s_bits: 64,
            q: Some(4),
            round: 7,
            inboxes: vec![
                vec![Message { from: 1, to: 0, payload: BitVec::from_u64(0b101, 3) }],
                Vec::new(),
                vec![
                    Message { from: 2, to: 2, payload: BitVec::zeros(10) },
                    Message { from: 0, to: 2, payload: BitVec::ones(5) },
                ],
            ],
            outputs: vec![(1, BitVec::from_u64(9, 8))],
            stats: SimStats {
                rounds: vec![RoundStats {
                    round: 0,
                    messages: 2,
                    bits_sent: 13,
                    oracle_queries: 5,
                    max_queries_one_machine: 3,
                    max_memory_bits: 13,
                    active_machines: 2,
                }],
            },
            tape_seed: 42,
            faults: Some(FaultSnapshot {
                seed: 99,
                spec: FaultSpec { drop_rate: 0.25, ..FaultSpec::default() },
                crashed: vec![false, true, false],
                delayed: vec![(9, Message { from: 0, to: 1, payload: BitVec::ones(2) })],
            }),
        }
    }

    #[test]
    fn round_trips_bit_exactly() {
        let snap = sample();
        let bytes = snap.to_bytes();
        assert_eq!(SimulationSnapshot::from_bytes(&bytes).unwrap(), snap);
    }

    #[test]
    fn faultless_snapshot_round_trips() {
        let mut snap = sample();
        snap.faults = None;
        snap.q = None;
        let bytes = snap.to_bytes();
        assert_eq!(SimulationSnapshot::from_bytes(&bytes).unwrap(), snap);
    }

    #[test]
    fn every_bit_flip_is_rejected() {
        let bytes = sample().to_bytes();
        for bit in 0..bytes.len() * 8 {
            let mut corrupt = bytes.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            assert!(
                SimulationSnapshot::from_bytes(&corrupt).is_err(),
                "bit flip at {bit} decoded to some state"
            );
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample().to_bytes();
        for len in 0..bytes.len() {
            assert!(
                SimulationSnapshot::from_bytes(&bytes[..len]).is_err(),
                "truncation to {len} bytes decoded to some state"
            );
        }
    }

    #[test]
    fn structural_invariants_are_checked() {
        // Re-frame structurally invalid snapshots with a *valid* checksum,
        // so the structural check (not the CRC) must catch them.
        let mut zero_m = sample();
        zero_m.m = 0;
        zero_m.inboxes.clear();
        let err = SimulationSnapshot::from_bytes(&zero_m.to_bytes()).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed(_)), "m = 0: {err}");

        let mut bad_rate = sample();
        bad_rate.faults.as_mut().unwrap().spec.crash_rate = 1.5;
        let err = SimulationSnapshot::from_bytes(&bad_rate.to_bytes()).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed(_)), "rate 1.5: {err}");

        let mut nan_rate = sample();
        nan_rate.faults.as_mut().unwrap().spec.drop_rate = f64::NAN;
        let err = SimulationSnapshot::from_bytes(&nan_rate.to_bytes()).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed(_)), "NaN rate: {err}");

        let mut bad_crashed = sample();
        bad_crashed.faults.as_mut().unwrap().crashed.push(false);
        let err = SimulationSnapshot::from_bytes(&bad_crashed.to_bytes()).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed(_)), "crashed len: {err}");

        let mut bad_output = sample();
        bad_output.outputs[0].0 = 7;
        let err = SimulationSnapshot::from_bytes(&bad_output.to_bytes()).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed(_)), "output id: {err}");
    }

    #[test]
    fn snapshot_declaring_a_huge_machine_count_is_a_typed_error() {
        // A CRC-valid container whose header declares m = 2^40 and then
        // ends: decoding must refuse the count, not size an allocation
        // by it.
        let mut w = SnapshotWriter::new();
        let patch = w.begin_section(&SECTION_SIMULATION);
        w.put_u64(1 << 40); // m
        w.put_u64(64); // s_bits
        w.put_bool(false); // no q
        w.put_u64(0); // q
        w.put_u64(0); // round
        w.put_u64(0); // tape seed
        w.end_section(patch);
        let bytes = w.finish();
        let err = SimulationSnapshot::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed(_)), "m = 2^40: {err}");
    }
}
