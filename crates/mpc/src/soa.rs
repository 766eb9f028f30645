//! Dense structure-of-arrays state of the executor's memory images.
//!
//! A machine's memory image is its list of [`InboxEntry`] coordinates.
//! The round-start memory check needs each image's size in bits; summing
//! entry lengths would re-walk every list, a per-round cost proportional
//! to structure, not to work. [`MemoryImages`] keeps a dense plane of
//! incoming bits beside the lists and changes both only together, through
//! its methods, so the check is a linear scan of machine-indexed words
//! that can never drift from the lists it summarizes.

use crate::message::InboxEntry;

/// Per-machine memory images: each machine's pending entry list plus a
/// dense plane of its incoming bits.
#[derive(Debug)]
pub(crate) struct MemoryImages {
    entries: Vec<Vec<InboxEntry>>,
    bits: Vec<usize>,
}

impl MemoryImages {
    /// Empty images for `m` machines.
    pub(crate) fn new(m: usize) -> Self {
        MemoryImages { entries: vec![Vec::new(); m], bits: vec![0; m] }
    }

    /// Appends one pending message to `machine`'s image.
    pub(crate) fn push(&mut self, machine: usize, entry: InboxEntry) {
        self.bits[machine] += entry.len;
        self.entries[machine].push(entry);
    }

    /// Forgets `machine`'s image (crash-stop: its memory no longer
    /// exists; or a machine outside a worker's shard).
    pub(crate) fn clear_machine(&mut self, machine: usize) {
        self.entries[machine].clear();
        self.bits[machine] = 0;
    }

    /// Empties every image, keeping all allocations.
    pub(crate) fn clear(&mut self) {
        self.entries.iter_mut().for_each(Vec::clear);
        self.bits.iter_mut().for_each(|b| *b = 0);
    }

    /// `machine`'s pending entries, in delivery order.
    pub(crate) fn entries(&self, machine: usize) -> &[InboxEntry] {
        &self.entries[machine]
    }

    /// Incoming bits pending for `machine`.
    pub(crate) fn bits(&self, machine: usize) -> usize {
        self.bits[machine]
    }

    /// Whether `machine` has any pending message (zero-length messages
    /// count: an empty payload still activates its recipient).
    pub(crate) fn is_active(&self, machine: usize) -> bool {
        !self.entries[machine].is_empty()
    }
}

/// Minimum items per parallel chunk for the compute pass.
///
/// The compute pass is a parallel map over all `m` machines, but its work
/// is concentrated on the `active` machines that received messages — idle
/// machines return immediately. Dispatching one scheduling unit per idle
/// machine costs more than the machine's round. Two regimes:
///
/// * Small fleets (`m ≤ 8`) or a single active machine: one chunk — the
///   whole pass runs inline on the calling thread, no pool round-trip.
///   This is the honest token-walking pipeline's shape (one walker, `m−1`
///   forwarders) and the per-trial shape under an outer trial-level
///   parallel sweep, where inner parallelism only adds contention.
/// * Otherwise: group `⌈m / active⌉` machines per chunk, so the number of
///   scheduling units tracks the number of machines with actual work.
///
/// The choice affects scheduling only, never results: the compat pool
/// preserves input order and machines are independent within a round.
pub(crate) fn compute_min_len(m: usize, active: usize) -> usize {
    const INLINE_MACHINES: usize = 8;
    if m <= INLINE_MACHINES || active <= 1 {
        m
    } else {
        m.div_ceil(active)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn images_track_pushes_and_clears() {
        let entry = |len| InboxEntry { from: 0, offset: 0, len, aux: true };
        let mut images = MemoryImages::new(3);
        assert!(!images.is_active(0));
        images.push(0, entry(10));
        images.push(0, entry(0)); // zero-length messages count as messages
        images.push(2, entry(7));
        assert_eq!(images.bits(0), 10);
        assert_eq!(images.entries(0).len(), 2);
        assert!(images.is_active(0));
        assert_eq!(images.bits(1), 0);
        assert!(!images.is_active(1));
        assert_eq!(images.bits(2), 7);
        images.clear_machine(0);
        assert_eq!(images.bits(0), 0);
        assert!(!images.is_active(0));
        assert!(images.is_active(2));
        images.clear();
        assert!(!images.is_active(2));
        assert_eq!(images.bits(2), 0);
    }

    #[test]
    fn min_len_inlines_small_or_sparse_rounds() {
        // Small fleets and single-walker rounds collapse to one chunk.
        assert_eq!(compute_min_len(8, 8), 8);
        assert_eq!(compute_min_len(4, 4), 4);
        assert_eq!(compute_min_len(64, 1), 64);
        assert_eq!(compute_min_len(64, 0), 64);
        // Dense large rounds keep fine-grained chunks.
        assert_eq!(compute_min_len(64, 64), 1);
        assert_eq!(compute_min_len(64, 16), 4);
        // Chunk count tracks active machines, rounding machines up.
        assert_eq!(compute_min_len(100, 7), 15);
    }
}
