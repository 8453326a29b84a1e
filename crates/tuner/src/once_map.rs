//! A sharded map of write-once values with in-flight deduplication —
//! the concurrency primitive under the evaluation tiers and the
//! [`ArtifactStore`](crate::ArtifactStore)'s scope maps.
//!
//! A value belongs here only when computing it costs far more than a
//! lock and a hash: a compile front-end, a measurement, a tier file
//! read — not an AST build of a tenth of a microsecond.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Shard count. A power of two comfortably above typical worker counts
/// keeps lock contention negligible without wasting memory.
const SHARDS: usize = 32;

type Shard<K, V> = HashMap<K, Arc<OnceLock<V>>>;

/// A sharded map of write-once values with in-flight deduplication:
/// the first caller of [`ShardedOnceMap::get_or_init`] for a key
/// computes the value while any concurrent callers for the same key
/// block on its [`OnceLock`]; later callers clone the cached value
/// without recomputation.
pub(crate) struct ShardedOnceMap<K, V> {
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
        ShardedOnceMap { shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect() }
    }

    fn shard_index(key: &K) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % SHARDS
    }

    fn shard_of(&self, key: &K) -> MutexGuard<'_, Shard<K, V>> {
        self.shards[Self::shard_index(key)].lock().expect("memoization never poisons locks")
    }

    /// The value for `key` if it has already been computed. An absent
    /// key and one whose computation is still in flight both return
    /// `None` — the caller falls through to
    /// [`ShardedOnceMap::get_or_init`].
    pub(crate) fn get(&self, key: &K) -> Option<V> {
        self.shard_of(key).get(key)?.get().cloned()
    }

    /// Returns the value for `key`, computing it with `init` exactly
    /// once across all threads. `init` runs outside the shard lock, so
    /// slow computations only block callers of the *same* key.
    pub(crate) fn get_or_init(&self, key: K, init: impl FnOnce() -> V) -> V {
        let cell = Arc::clone(self.shard_of(&key).entry(key).or_default());
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
        let shard = |k: u32| ShardedOnceMap::<u32, u64>::shard_index(&k);
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
