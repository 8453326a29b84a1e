//! A sharded map of write-once values with in-flight deduplication and
//! exact hit/miss counting — the concurrency primitive under the model
//! context's caches and the tuner's evaluation tiers.
//!
//! This lives in `oriole-sim` (the lowest crate that needs it) so the
//! layers above share one implementation; `oriole-arch`'s
//! [`OccupancyTable`](oriole_arch::OccupancyTable) deliberately does
//! *not* use it — its values are `Copy` results of trivial arithmetic,
//! where recomputing on a cold race is cheaper than blocking on a cell.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Shard count. A power of two comfortably above typical worker counts
/// keeps lock contention negligible without wasting memory.
const SHARDS: usize = 32;

/// One shard: its cells plus the lookups it served. The count lives
/// under the shard lock every lookup already holds, so counting adds no
/// shared cache line of its own.
struct Shard<K, V> {
    cells: HashMap<K, Arc<OnceLock<V>>>,
    lookups: u64,
}

/// A sharded map of write-once values with in-flight deduplication:
/// the first caller of [`ShardedOnceMap::get_or_init`] for a key
/// computes the value while any concurrent callers for the same key
/// block on its [`OnceLock`]; later callers clone the cached value
/// without recomputation.
pub struct ShardedOnceMap<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
}

impl<K: Eq + Hash, V: Clone> Default for ShardedOnceMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash, V: Clone> ShardedOnceMap<K, V> {
    /// An empty map.
    pub fn new() -> ShardedOnceMap<K, V> {
        let shard = || Mutex::new(Shard { cells: HashMap::new(), lookups: 0 });
        ShardedOnceMap { shards: (0..SHARDS).map(|_| shard()).collect() }
    }

    fn shard_of(&self, key: &K) -> MutexGuard<'_, Shard<K, V>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        self.shards[(h.finish() as usize) % SHARDS]
            .lock()
            .expect("memoization never poisons locks")
    }

    /// The value for `key` if it has already been computed, counted as
    /// a hit. An absent key and one whose computation is still in
    /// flight both return `None` and count nothing — the caller falls
    /// through to [`ShardedOnceMap::get_or_init`].
    pub fn get(&self, key: &K) -> Option<V> {
        let mut shard = self.shard_of(key);
        let value = shard.cells.get(key)?.get()?.clone();
        shard.lookups += 1;
        Some(value)
    }

    /// Returns the value for `key`, computing it with `init` exactly
    /// once across all threads. `init` runs outside the shard lock, so
    /// slow computations only block callers of the *same* key.
    pub fn get_or_init(&self, key: K, init: impl FnOnce() -> V) -> V {
        let cell = {
            let mut shard = self.shard_of(&key);
            shard.lookups += 1;
            Arc::clone(shard.cells.entry(key).or_default())
        };
        cell.get_or_init(init).clone()
    }

    /// `(hits, misses)` since construction. Every key is computed
    /// exactly once, so misses are the map's length — the number of
    /// `init` closures run, even under racing cold lookups — and every
    /// other counted lookup (a racer blocked on the cell included) is a
    /// hit.
    pub fn counters(&self) -> (u64, u64) {
        let (mut lookups, mut misses) = (0, 0);
        for shard in &self.shards {
            let shard = shard.lock().expect("memoization never poisons locks");
            lookups += shard.lookups;
            misses += shard.cells.len() as u64;
        }
        (lookups - misses, misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;

    #[test]
    fn deduplicates_in_flight_and_counts_exactly() {
        let map: ShardedOnceMap<u32, u64> = ShardedOnceMap::new();
        let computed = AtomicU64::new(0);
        let served = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for t in 0..8u32 {
                let (map, computed, served) = (&map, &computed, &served);
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
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(computed.load(Ordering::Relaxed), 16, "each key computed once");
        let (hits, misses) = map.counters();
        assert_eq!(misses, 16, "misses are the values computed, the map's length");
        assert_eq!(hits + misses, served.load(Ordering::Relaxed), "one count per served lookup");
    }

    #[test]
    fn get_declines_absent_and_in_flight_keys_without_counting() {
        let map: ShardedOnceMap<u32, u64> = ShardedOnceMap::new();
        assert_eq!(map.get(&7), None, "absent");
        assert_eq!(map.counters(), (0, 0));
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
            assert_eq!(map.counters(), (0, 1), "only the computing lookup is counted");
            release.wait();
        });
        assert_eq!(map.get(&7), Some(21));
        assert_eq!(map.counters(), (1, 1), "a served `get` is a hit");
    }
}
