//! A sharded map of write-once values with in-flight deduplication —
//! the concurrency primitive under the evaluation tiers and the
//! [`ArtifactStore`](crate::ArtifactStore)'s scope maps.
//!
//! A value belongs here only when computing it costs far more than a
//! lock and a hash: a compile front-end, a measurement, a tier file
//! read — not an AST build of a tenth of a microsecond. And a hit is
//! only a lock and a hash: it clones the value under the lock and never
//! the key's cell, which only a miss or a wait on a key in flight
//! holds. So the hash is [`WordHash`] — a word per field where SipHash
//! spent sixty nanoseconds on a 24-byte point, twice: one function now
//! picks the shard and indexes its table.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher, RandomState};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// A seeded multiply-rotate word hasher and its own [`BuildHasher`]:
/// the value is the seed, and building a hasher copies it. An integer
/// field folds as one word; a byte string as its 8-byte chunks, a
/// zero-padded tail and its length. The seed is drawn from
/// [`RandomState`] once per builder: a daemon hashes the points a frame
/// names, and a sender who cannot know the seed cannot aim at a bucket.
/// Not cryptographic; never stored or sent, so no format depends on it.
#[derive(Debug, Clone, Copy)]
pub struct WordHash(u64);

impl Default for WordHash {
    fn default() -> WordHash {
        WordHash(RandomState::new().hash_one(0u8))
    }
}

impl BuildHasher for WordHash {
    type Hasher = WordHash;

    fn build_hasher(&self) -> WordHash {
        *self
    }
}

impl Hasher for WordHash {
    /// FxHash's step: the constant is odd, so distinct words leave
    /// distinct states.
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.write_u64(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        self.write_u64(u64::from_le_bytes(tail));
        self.write_u64(bytes.len() as u64);
    }

    /// A multiply only carries upwards: fold the high half down and
    /// multiply again, so a table's bucket bits (low), its tag bits (top
    /// seven) and the shard bits between are all mixed.
    #[inline]
    fn finish(&self) -> u64 {
        let h = (self.0 ^ (self.0 >> 32)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^ (h >> 29)
    }
}

/// Shard count. A power of two comfortably above typical worker counts
/// keeps lock contention negligible without wasting memory.
const SHARDS: usize = 32;

type Shard<K, V> = HashMap<K, Arc<OnceLock<V>>, WordHash>;

/// A sharded map of write-once values with in-flight deduplication:
/// the first caller of [`ShardedOnceMap::get_or_init`] for a key
/// computes the value while any concurrent callers for the same key
/// block on its [`OnceLock`]; later callers clone the cached value
/// without recomputation.
pub(crate) struct ShardedOnceMap<K, V> {
    /// Picks the shard; every shard's table hashes with a copy.
    hash: WordHash,
    shards: Vec<Mutex<Shard<K, V>>>,
}

impl<K: Eq + Hash, V: Clone> Default for ShardedOnceMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash, V: Clone> ShardedOnceMap<K, V> {
    /// An empty map.
    pub(crate) fn new() -> ShardedOnceMap<K, V> {
        let hash = WordHash::default();
        let shards = (0..SHARDS).map(|_| Mutex::new(HashMap::with_hasher(hash))).collect();
        ShardedOnceMap { hash, shards }
    }

    /// By middle bits, which the shard's table neither indexes nor tags
    /// with: keys sharing a shard still spread over its buckets.
    fn shard_index(&self, key: &K) -> usize {
        (self.hash.hash_one(key) >> 40) as usize % SHARDS
    }

    fn shard_of(&self, key: &K) -> MutexGuard<'_, Shard<K, V>> {
        self.shards[self.shard_index(key)].lock().expect("memoization never poisons locks")
    }

    /// The value for `key` if it has already been computed. An absent
    /// key and one whose computation is still in flight both return
    /// `None` — the caller falls through to
    /// [`ShardedOnceMap::get_or_init`].
    pub(crate) fn get(&self, key: &K) -> Option<V> {
        self.shard_of(key).get(key)?.get().cloned()
    }

    /// Returns the value for `key`, computing it with `init` exactly
    /// once across all threads. A computed key is answered under the
    /// shard lock by the probe that finds it. `init` runs outside the
    /// lock, so slow computations only block callers of the *same* key.
    pub(crate) fn get_or_init(&self, key: K, init: impl FnOnce() -> V) -> V {
        let mut shard = self.shard_of(&key);
        let cell = shard.entry(key).or_default();
        if let Some(value) = cell.get() {
            return value.clone();
        }
        let cell = Arc::clone(cell);
        drop(shard);
        cell.get_or_init(init).clone()
    }

    /// Visits every computed entry, a shard at a time; keys still in
    /// flight are skipped, never waited for.
    pub(crate) fn for_each(&self, mut visit: impl FnMut(&K, &V)) {
        for shard in &self.shards {
            let shard = shard.lock().expect("memoization never poisons locks");
            for (key, cell) in shard.iter() {
                if let Some(value) = cell.get() {
                    visit(key, value);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;

    #[test]
    fn word_hash_spreads_the_paper_space_over_shards_buckets_and_tags() {
        let map: ShardedOnceMap<oriole_codegen::TuningParams, ()> = ShardedOnceMap::new();
        let points: Vec<_> = crate::SearchSpace::paper_default().iter().collect();
        let hashes: std::collections::BTreeSet<u64> =
            points.iter().map(|p| map.hash.hash_one(p)).collect();
        assert_eq!((points.len(), hashes.len()), (5120, 5120), "every hash distinct");
        let mut per_shard = [0usize; SHARDS];
        points.iter().for_each(|p| per_shard[map.shard_index(p)] += 1);
        let mean = points.len() / SHARDS;
        let fullest = per_shard.into_iter().max().expect("32 shards");
        assert!(2 * fullest <= 3 * mean, "a shard holds {fullest} of a mean {mean}");
        let tags: std::collections::BTreeSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert!(tags.len() >= 100, "only {} of 128 tags in use", tags.len());
        // A table indexes by the low bits: the lowest byte takes every value.
        let low: std::collections::BTreeSet<u64> = hashes.iter().map(|h| h & 0xff).collect();
        assert_eq!(low.len(), 256);
    }

    #[test]
    fn word_hash_is_seeded_per_map_and_tells_byte_strings_apart() {
        let (a, b) = (ShardedOnceMap::<u32, ()>::new(), ShardedOnceMap::<u32, ()>::new());
        assert_ne!(a.hash.0, b.hash.0, "two maps, two seeds");
        assert_ne!(a.hash.hash_one(7u32), b.hash.hash_one(7u32));
        // Scope keys carry strings: the last byte and the length count,
        // on either side of a chunk boundary and through zero padding.
        let h = |bytes: &[u8]| {
            let mut hasher = a.hash.build_hasher();
            hasher.write(bytes);
            hasher.finish()
        };
        for len in [1usize, 7, 8, 9, 16, 23] {
            let text = vec![b'a'; len];
            let mut last = text.clone();
            last[len - 1] = b'b';
            assert_ne!(h(&text), h(&last), "last byte of {len}");
            assert_ne!(h(&text), h(&text[..len - 1]), "length {len} against {}", len - 1);
            let mut padded = text.clone();
            padded.push(0);
            assert_ne!(h(&text), h(&padded), "a trailing zero byte after {len}");
        }
        assert_ne!(a.hash.hash_one("atax"), a.hash.hash_one("atay"));
    }

    #[test]
    fn deduplicates_in_flight() {
        let map: ShardedOnceMap<u32, u64> = ShardedOnceMap::new();
        let computed = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for t in 0..8u32 {
                let (map, computed) = (&map, &computed);
                scope.spawn(move || {
                    for k in 0..16u32 {
                        // Half the threads try the read-only path first;
                        // whatever it declines goes to `get_or_init`.
                        let v = (t % 2 == 0).then(|| map.get(&k)).flatten().unwrap_or_else(|| {
                            map.get_or_init(k, || {
                                computed.fetch_add(1, Ordering::Relaxed);
                                u64::from(k) * 3
                            })
                        });
                        assert_eq!(v, u64::from(k) * 3);
                    }
                });
            }
        });
        assert_eq!(computed.load(Ordering::Relaxed), 16, "each key computed once");
    }

    #[test]
    fn a_hit_runs_no_init_and_leaves_its_cell_held_once() {
        let map: ShardedOnceMap<u32, u64> = ShardedOnceMap::new();
        assert_eq!(map.get_or_init(7, || 21), 21);
        assert_eq!(map.get_or_init(7, || unreachable!("a computed key runs no init")), 21);
        let shard = map.shards[map.shard_index(&7)].lock().expect("memoization never poisons locks");
        assert_eq!(Arc::strong_count(&shard[&7]), 1, "only the shard holds the cell");
    }

    #[test]
    fn get_declines_absent_and_in_flight_keys() {
        let map: ShardedOnceMap<u32, u64> = ShardedOnceMap::new();
        assert_eq!(map.get(&7), None, "absent");
        let (entered, release) = (Barrier::new(2), Barrier::new(2));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                map.get_or_init(7, || {
                    entered.wait();
                    release.wait();
                    21
                })
            });
            entered.wait();
            assert_eq!(map.get(&7), None, "in flight");
            release.wait();
        });
        assert_eq!(map.get(&7), Some(21));
    }

    #[test]
    fn a_parked_init_blocks_no_other_key_and_no_visit() {
        // One key's `init` parks on a barrier — a tier file being read.
        // Every other key, in its shard or not, is served meanwhile, and
        // a visit passes over the key in flight.
        let map: ShardedOnceMap<u32, u64> = ShardedOnceMap::new();
        let shard = |k: u32| map.shard_index(&k);
        let same = (1..).find(|&k| shard(k) == shard(0)).expect("a second key of shard 0");
        let other = (1..).find(|&k| shard(k) != shard(0)).expect("a key of another shard");
        let (entered, release) = (Barrier::new(2), Barrier::new(2));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                map.get_or_init(0, || {
                    entered.wait();
                    release.wait();
                    100
                })
            });
            entered.wait();
            assert_eq!(map.get_or_init(same, || 1), 1, "same shard");
            assert_eq!(map.get_or_init(other, || 2), 2, "another shard");
            let mut seen = Vec::new();
            map.for_each(|&k, &v| seen.push((k, v)));
            seen.sort_unstable();
            let mut want = vec![(same, 1), (other, 2)];
            want.sort_unstable();
            assert_eq!(seen, want, "the key in flight is skipped, not waited for");
            release.wait();
        });
        let mut total = 0;
        map.for_each(|_, &v| total += v);
        assert_eq!(total, 103);
    }
}
