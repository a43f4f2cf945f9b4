//! Sharded LRU cache of encoded chunk replies.
//!
//! A miss costs a worker a chunk read (and, at the stored fidelity, its
//! CRC); the cache makes repeat traffic skip it. Entries are keyed
//! `(container, chunk, fidelity)` — the same chunk at two chop factors is
//! two entries, each holding the stored bytes of its own ring prefix.
//! Values are `Arc<ResponseSlab>`: the encoded reply the miss path built,
//! so a hit skips the read *and* the slab copy, and the bytes a hit sends
//! are the very allocation the miss path produced — bit-identity between
//! the hit and miss paths is structural (and pinned by proptests below).
//!
//! Sharding: keys hash across up to 8 independent `Mutex`-guarded LRU
//! maps, so concurrent connection threads and workers rarely contend on
//! one lock. The shard capacities sum to exactly the
//! configured capacity. The server counts hits and misses at admission;
//! the cache counts only its evictions.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::protocol::ResponseSlab;

/// Cache key: `(container id, chunk index, chop factor read at)`.
pub type CacheKey = (u32, u32, u8);

/// Most lock shards a cache is spread over (fewer when its capacity is
/// smaller, so that every shard holds at least one entry).
const SHARDS: usize = 8;

#[derive(Debug)]
struct Entry {
    data: Arc<ResponseSlab>,
    /// Monotonic per-shard use stamp; smallest = least recently used.
    last_used: u64,
}

#[derive(Debug)]
struct Shard {
    map: HashMap<CacheKey, Entry>,
    clock: u64,
    /// Entries this shard may hold.
    capacity: usize,
}

/// Gauge snapshot for the stats frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheSnapshot {
    /// Entries displaced to stay within capacity.
    pub evictions: u64,
    /// Entries resident right now.
    pub entries: u64,
    /// Total capacity in entries (0 = caching disabled).
    pub capacity: u64,
}

/// Sharded LRU of encoded chunk replies.
#[derive(Debug)]
pub struct ChunkCache {
    shards: Vec<Mutex<Shard>>,
    capacity: usize,
    evictions: AtomicU64,
}

impl ChunkCache {
    /// Cache holding at most `capacity` entries in total. `capacity = 0`
    /// disables caching (every lookup misses, inserts are dropped).
    pub fn new(capacity: usize) -> ChunkCache {
        let n = SHARDS.min(capacity).max(1);
        let shard = |i: usize| Shard {
            map: HashMap::new(),
            clock: 0,
            capacity: capacity / n + usize::from(i < capacity % n),
        };
        ChunkCache {
            shards: (0..n).map(|i| Mutex::new(shard(i))).collect(),
            capacity,
            evictions: AtomicU64::new(0),
        }
    }

    /// The shard `key` lives in.
    fn shard_index(&self, key: &CacheKey) -> usize {
        // FNV-1a over the key fields; shards are independent LRUs.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in [key.0 as u64, key.1 as u64, key.2 as u64] {
            h = (h ^ b).wrapping_mul(0x100_0000_01b3);
        }
        (h % self.shards.len() as u64) as usize
    }

    fn shard(&self, key: &CacheKey) -> MutexGuard<'_, Shard> {
        // A panic cannot leave a shard's map half-updated in a way that
        // matters (entries are replaced whole) — ignore poisoning.
        self.shards[self.shard_index(key)].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Look `key` up, bumping its recency on a hit.
    pub fn peek(&self, key: &CacheKey) -> Option<Arc<ResponseSlab>> {
        if self.capacity == 0 {
            return None;
        }
        let mut shard = self.shard(key);
        shard.clock += 1;
        let clock = shard.clock;
        let e = shard.map.get_mut(key)?;
        e.last_used = clock;
        Some(Arc::clone(&e.data))
    }

    /// Insert (or replace) `key`, evicting least-recently-used entries of
    /// the same shard to stay within capacity.
    pub fn insert(&self, key: CacheKey, data: Arc<ResponseSlab>) {
        if self.capacity == 0 {
            return;
        }
        let mut evicted = 0u64;
        {
            let mut shard = self.shard(&key);
            shard.clock += 1;
            let clock = shard.clock;
            shard.map.insert(key, Entry { data, last_used: clock });
            while shard.map.len() > shard.capacity {
                let lru = shard
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| *k)
                    .expect("non-empty map over capacity");
                shard.map.remove(&lru);
                evicted += 1;
            }
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Gauge snapshot for the stats frame.
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).map.len() as u64)
                .sum(),
            capacity: self.capacity as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// A slab whose bytes encode exactly which (key, version) produced
    /// it, so any stale read is a bytewise mismatch.
    fn value(key: CacheKey, version: u32) -> Arc<ResponseSlab> {
        let bytes = [key.0, key.1, u32::from(key.2), version].map(u32::to_le_bytes).concat();
        Arc::new(ResponseSlab::new(0, bytes))
    }

    #[test]
    fn lru_evicts_oldest_and_counts() {
        // Three keys of one shard that holds two entries.
        let cache = ChunkCache::new(SHARDS + 1);
        let k = |chunk| (0, chunk, 4);
        let mut same = (0..).map(k).filter(|key| cache.shard_index(key) == 0);
        let [a, b, c] = std::array::from_fn(|_| same.next().unwrap());
        cache.insert(a, value(a, 0));
        cache.insert(b, value(b, 0));
        // Touch `a` so `b` is the LRU.
        assert!(cache.peek(&a).is_some());
        cache.insert(c, value(c, 0));
        assert!(cache.peek(&b).is_none(), "LRU entry must be evicted");
        assert!(cache.peek(&a).is_some());
        assert!(cache.peek(&c).is_some());
        let s = cache.snapshot();
        assert_eq!((s.evictions, s.entries, s.capacity), (1, 2, SHARDS as u64 + 1));
    }

    #[test]
    fn zero_capacity_disables_cleanly() {
        let cache = ChunkCache::new(0);
        cache.insert((0, 0, 1), value((0, 0, 1), 0));
        assert!(cache.peek(&(0, 0, 1)).is_none());
        let s = cache.snapshot();
        assert_eq!((s.entries, s.capacity), (0, 0));
    }

    #[test]
    fn distinct_fidelities_are_distinct_entries() {
        let cache = ChunkCache::new(8);
        cache.insert((0, 5, 4), value((0, 5, 4), 0));
        cache.insert((0, 5, 2), value((0, 5, 2), 0));
        let full = cache.peek(&(0, 5, 4)).unwrap();
        let coarse = cache.peek(&(0, 5, 2)).unwrap();
        assert_ne!(full.body(), coarse.body());
    }

    proptest! {
        /// Against a last-write-wins model: a lookup NEVER returns stale
        /// bytes — it is either a miss or bytewise-exactly the latest
        /// insert for that key — and the cache holds no more than, and
        /// reports exactly, the capacity it was given.
        #[test]
        fn eviction_never_serves_stale_bytes(
            capacity in 0usize..20,
            ops in proptest::collection::vec(
                (0u32..2, 0u32..12, 1u8..3, 0u32..2), 1..160),
        ) {
            let cache = ChunkCache::new(capacity);
            let mut model: BTreeMap<CacheKey, u32> = BTreeMap::new();
            let mut version = 0u32;
            for (container, chunk, cf, is_insert) in ops {
                let key = (container, chunk, cf);
                if is_insert == 1 {
                    version += 1;
                    cache.insert(key, value(key, version));
                    model.insert(key, version);
                } else if let Some(got) = cache.peek(&key) {
                    // A hit must match the model's latest value bytewise.
                    let want = model.get(&key).copied()
                        .expect("cache returned a key never inserted");
                    let want = value(key, want);
                    prop_assert_eq!(got.body(), want.body(), "stale bytes for {:?}", key);
                }
                let snap = cache.snapshot();
                prop_assert_eq!(snap.capacity, capacity as u64);
                prop_assert!(snap.entries <= snap.capacity);
            }
        }

        /// The hit path returns the very Arc the insert produced: the hit
        /// is bit-identical to the cold (miss-path) value by construction.
        #[test]
        fn hit_is_the_inserted_allocation(
            container in 0u32..4, chunk in 0u32..64, cf in 1u8..8,
        ) {
            let cache = ChunkCache::new(16);
            let key = (container, chunk, cf);
            let cold = value(key, 7);
            cache.insert(key, Arc::clone(&cold));
            let hit = cache.peek(&key).expect("just inserted");
            prop_assert!(Arc::ptr_eq(&cold, &hit));
        }
    }
}
