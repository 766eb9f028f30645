//! Property-based tests for the oracle substrate.

use mph_bits::{random_bitvec, BitVec};
use mph_oracle::{
    CachedOracle, LazyOracle, Oracle, PatchedOracle, RandomTape, TableOracle, TranscriptOracle,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Executable specification of the historic `CachedOracle`: FNV-sharded
/// `HashMap` stripes with per-shard FIFO eviction. The fingerprint-index
/// implementation must be observationally indistinguishable from this —
/// answers, hit/miss totals, and canonical entry order included.
struct ModelCache {
    shards: Vec<(HashMap<BitVec, BitVec>, VecDeque<BitVec>)>,
    capacity_per_shard: usize,
    hits: u64,
    misses: u64,
}

const MODEL_SHARDS: usize = 16;

impl ModelCache {
    fn new(capacity: usize) -> Self {
        ModelCache {
            shards: (0..MODEL_SHARDS).map(|_| Default::default()).collect(),
            capacity_per_shard: capacity.div_ceil(MODEL_SHARDS),
            hits: 0,
            misses: 0,
        }
    }

    fn shard_index(input: &BitVec) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &word in input.words() {
            h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h = (h ^ input.len() as u64).wrapping_mul(0x0000_0100_0000_01b3);
        (h as usize) & (MODEL_SHARDS - 1)
    }

    fn query(&mut self, input: &BitVec, inner: &impl Oracle) -> BitVec {
        let (map, order) = &mut self.shards[Self::shard_index(input)];
        if let Some(answer) = map.get(input) {
            self.hits += 1;
            return answer.clone();
        }
        self.misses += 1;
        let answer = inner.query(input);
        if map.len() >= self.capacity_per_shard {
            if let Some(oldest) = order.pop_front() {
                map.remove(&oldest);
            }
        }
        map.insert(input.clone(), answer.clone());
        order.push_back(input.clone());
        answer
    }

    /// Shard-by-shard FIFO — the canonical order `entries()` pins.
    fn entries(&self) -> Vec<(BitVec, BitVec)> {
        let mut out = Vec::new();
        for (map, order) in &self.shards {
            for key in order {
                out.push((key.clone(), map[key].clone()));
            }
        }
        out
    }

    /// The grouped batch semantics of `CachedOracle::query_many`: shards in
    /// index order, each shard's queries classified in batch order against
    /// the shard state *at batch entry* (pending misses deduplicate as
    /// hits), then every distinct miss derived once and interned in
    /// first-occurrence order with FIFO eviction.
    fn query_many(&mut self, batch: &[BitVec], inner: &impl Oracle) -> Vec<BitVec> {
        let mut answers: Vec<Option<BitVec>> = vec![None; batch.len()];
        for shard in 0..MODEL_SHARDS {
            let mut uniq: Vec<usize> = Vec::new();
            let mut members: Vec<(usize, usize)> = Vec::new();
            for (i, qb) in batch.iter().enumerate() {
                if Self::shard_index(qb) != shard {
                    continue;
                }
                if let Some(answer) = self.shards[shard].0.get(qb) {
                    self.hits += 1;
                    answers[i] = Some(answer.clone());
                } else if let Some(j) = uniq.iter().position(|&u| &batch[u] == qb) {
                    self.hits += 1;
                    members.push((i, j));
                } else {
                    self.misses += 1;
                    members.push((i, uniq.len()));
                    uniq.push(i);
                }
            }
            let fresh: Vec<BitVec> = uniq.iter().map(|&u| inner.query(&batch[u])).collect();
            for (&u, answer) in uniq.iter().zip(&fresh) {
                let (map, order) = &mut self.shards[shard];
                if map.len() >= self.capacity_per_shard {
                    if let Some(oldest) = order.pop_front() {
                        map.remove(&oldest);
                    }
                }
                map.insert(batch[u].clone(), answer.clone());
                order.push_back(batch[u].clone());
            }
            for (i, j) in members {
                answers[i] = Some(fresh[j].clone());
            }
        }
        answers.into_iter().map(|a| a.expect("every index resolved")).collect()
    }
}

proptest! {
    /// A patched oracle agrees with its base everywhere off the patch set
    /// and with the patches on it — the defining law of Definition 3.4's
    /// rewiring.
    #[test]
    fn patched_oracle_law(
        seed in any::<u64>(),
        patch_idxs in prop::collection::hash_set(0u64..256, 0..10),
        probe_idxs in prop::collection::vec(0u64..256, 0..30),
    ) {
        let base: Arc<dyn Oracle> = Arc::new(LazyOracle::square(seed, 8));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xAAAA);
        let mut patched = PatchedOracle::new(base.clone());
        let mut patch_map = std::collections::HashMap::new();
        for &idx in &patch_idxs {
            let q = BitVec::from_u64(idx, 8);
            let a = random_bitvec(&mut rng, 8);
            patched.patch(q.clone(), a.clone());
            patch_map.insert(q, a);
        }
        for idx in probe_idxs {
            let q = BitVec::from_u64(idx, 8);
            let expected = patch_map.get(&q).cloned().unwrap_or_else(|| base.query(&q));
            prop_assert_eq!(patched.query(&q), expected);
        }
    }

    /// Snapshotting a lazy oracle into a table preserves every answer, and
    /// the table round-trips through its flat serialization.
    #[test]
    fn table_snapshot_and_serialize(seed in any::<u64>()) {
        let lazy = LazyOracle::square(seed, 6);
        let table = TableOracle::snapshot(&lazy);
        let rebuilt = TableOracle::from_bits(6, 6, table.to_bits());
        for idx in 0..64u64 {
            let q = BitVec::from_u64(idx, 6);
            prop_assert_eq!(lazy.query(&q), rebuilt.query(&q));
        }
    }

    /// Transcripts record exactly the queries made, in order.
    #[test]
    fn transcript_exact(seed in any::<u64>(), queries in prop::collection::vec(0u64..1024, 0..40)) {
        let base: Arc<dyn Oracle> = Arc::new(LazyOracle::square(seed, 10));
        let t = TranscriptOracle::new(base);
        for &q in &queries {
            t.query(&BitVec::from_u64(q, 10));
        }
        let recorded: Vec<u64> =
            t.transcript().iter().map(|r| r.input.read_u64(0, 10)).collect();
        prop_assert_eq!(recorded, queries);
    }

    /// Tape reads compose: read(o, a+b) == read(o, a) ++ read(o+a, b).
    #[test]
    fn tape_reads_compose(seed in any::<u64>(), offset in 0u64..100_000, a in 0usize..500, b in 0usize..500) {
        let tape = RandomTape::new(seed);
        let whole = tape.read(offset, a + b);
        let left = tape.read(offset, a);
        let right = tape.read(offset + a as u64, b);
        prop_assert_eq!(whole, BitVec::concat(&[&left, &right]));
    }

    /// Tape reads at extreme offsets — up to the very end of the 64-bit
    /// address space — succeed, are stable, and compose, with checked
    /// arithmetic instead of wraparound.
    #[test]
    fn tape_extreme_offsets(
        seed in any::<u64>(),
        back in 1u64..100_000,
        len in 1usize..1_000,
    ) {
        let tape = RandomTape::new(seed);
        // Clamp so offset + len == u64::MAX at the most extreme draw.
        let len = (len as u64).min(back) as usize;
        let offset = u64::MAX - back;
        let bits = tape.read(offset, len);
        prop_assert_eq!(bits.len(), len);
        prop_assert_eq!(&bits, &tape.read(offset, len)); // stable
        // Composes with a split read at the same extreme offset.
        let a = len / 2;
        let left = tape.read(offset, a);
        let right = tape.read(offset + a as u64, len - a);
        prop_assert_eq!(bits, BitVec::concat(&[&left, &right]));
    }

    /// A cached oracle is observationally identical to its inner oracle on
    /// arbitrary query sequences with repeats, at any capacity.
    #[test]
    fn cached_oracle_transparent(
        seed in any::<u64>(),
        queries in prop::collection::vec(0u64..64, 1..80),
        capacity in 1usize..64,
    ) {
        let bare = LazyOracle::square(seed, 10);
        let cached = CachedOracle::with_capacity(LazyOracle::square(seed, 10), capacity);
        for &q in &queries {
            let qb = BitVec::from_u64(q, 10);
            prop_assert_eq!(cached.query(&qb), bare.query(&qb));
        }
        let batch: Vec<BitVec> = queries.iter().map(|&q| BitVec::from_u64(q, 10)).collect();
        let answers = cached.query_many(&batch);
        for (qb, a) in batch.iter().zip(&answers) {
            prop_assert_eq!(a, &bare.query(qb));
        }
        prop_assert_eq!(cached.hits() + cached.misses(), 2 * queries.len() as u64);
    }

    /// The fingerprint-index cache is byte-identical to the historic
    /// HashMap cache on arbitrary single-query sequences: same answers,
    /// same hit/miss totals, and same eviction order (via the canonical
    /// `entries()` listing).
    #[test]
    fn fingerprint_cache_matches_hashmap_model(
        seed in any::<u64>(),
        queries in prop::collection::vec(0u64..48, 1..120),
        capacity in 1usize..80,
    ) {
        let bare = LazyOracle::square(seed, 18);
        let cached = CachedOracle::with_capacity(LazyOracle::square(seed, 18), capacity);
        let mut model = ModelCache::new(capacity);
        for &q in &queries {
            let qb = BitVec::from_u64(q, 18);
            let expected = model.query(&qb, &bare);
            prop_assert_eq!(cached.query(&qb), expected);
        }
        prop_assert_eq!((cached.hits(), cached.misses()), (model.hits, model.misses));
        prop_assert_eq!(cached.entries(), model.entries());
    }

    /// The grouped batch path matches its executable model over multiple
    /// successive batches: answers equal the bare oracle's, hit/miss
    /// classification and interning order (via `entries()`) follow the
    /// documented grouped semantics, even under capacity pressure.
    #[test]
    fn batched_fingerprint_cache_matches_grouped_model(
        seed in any::<u64>(),
        queries in prop::collection::vec(0u64..32, 2..100),
        capacity in 1usize..80,
    ) {
        let bare = LazyOracle::square(seed, 18);
        let cached = CachedOracle::with_capacity(LazyOracle::square(seed, 18), capacity);
        let mut model = ModelCache::new(capacity);
        // Split into two batches so the second sees a warm, shared cache.
        for chunk in queries.chunks(queries.len().div_ceil(2)) {
            let batch: Vec<BitVec> = chunk.iter().map(|&q| BitVec::from_u64(q, 18)).collect();
            let answers = cached.query_many(&batch);
            let expected = model.query_many(&batch, &bare);
            for ((qb, a), e) in batch.iter().zip(&answers).zip(&expected) {
                prop_assert_eq!(a, e);
                prop_assert_eq!(a, &bare.query(qb));
            }
        }
        prop_assert_eq!((cached.hits(), cached.misses()), (model.hits, model.misses));
        prop_assert_eq!(cached.entries(), model.entries());
    }

    /// The lazy oracle is a function: equal queries get equal answers; and
    /// (statistically) unequal queries get unequal answers at these widths.
    #[test]
    fn lazy_oracle_functional(seed in any::<u64>(), x in 0u64..10_000, y in 0u64..10_000) {
        let ro = LazyOracle::square(seed, 64);
        let qx = BitVec::from_u64(x, 64);
        let qy = BitVec::from_u64(y, 64);
        prop_assert_eq!(ro.query(&qx), ro.query(&qx));
        if x != y {
            prop_assert_ne!(ro.query(&qx), ro.query(&qy));
        }
    }
}
