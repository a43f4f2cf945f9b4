//! Sharded LRU cache of decompressed chunks.
//!
//! Decompression is the service's only real compute (two matmuls per
//! chunk, Eq. 5/7); the cache makes repeat traffic skip it entirely.
//! Entries are keyed `(container, chunk, fidelity)` — the same chunk at
//! two chop factors is two entries, because a coarse decode is *not* a
//! slice of the full one (it is a different inverse-transform output).
//! Values are `Arc<Tensor>`, so a hit is a refcount bump and hit bytes
//! are the very allocation the miss path produced — bit-identity between
//! the hit and miss paths is structural (and pinned by proptests below).
//!
//! Sharding: keys hash across `shards` independent `Mutex`-guarded LRU
//! maps, so concurrent connection threads and workers rarely contend on
//! one lock. Hit / miss / eviction / insertion counters are lock-free
//! atomics, surfaced in the stats frame.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use aicomp_tensor::Tensor;

/// Cache key: `(container id, chunk index, chop factor decoded at)`.
pub type CacheKey = (u32, u32, u8);

#[derive(Debug)]
struct Entry<V> {
    data: V,
    /// Monotonic per-shard use stamp; smallest = least recently used.
    last_used: u64,
}

#[derive(Debug)]
struct Shard<V> {
    map: HashMap<CacheKey, Entry<V>>,
    clock: u64,
}

impl<V> Default for Shard<V> {
    fn default() -> Self {
        Shard { map: HashMap::new(), clock: 0 }
    }
}

/// Counter snapshot for the stats frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheSnapshot {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries displaced to stay within capacity.
    pub evictions: u64,
    /// Entries resident right now.
    pub entries: u64,
    /// Total capacity in entries (0 = caching disabled).
    pub capacity: u64,
}

impl CacheSnapshot {
    /// Hits over lookups (0.0 when idle).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Sharded LRU of decoded chunks. Generic over the cached value — the
/// server stores encoded [`crate::protocol::ResponseSlab`]s (so cache hits
/// skip re-encoding, not just re-decoding); the default `Arc<Tensor>`
/// keeps the decoded-tensor shape available (and the proptests below
/// exercise it).
#[derive(Debug)]
pub struct ChunkCache<V = Arc<Tensor>> {
    shards: Vec<Mutex<Shard<V>>>,
    per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<V: Clone> ChunkCache<V> {
    /// Cache holding at most `capacity` entries total, spread over
    /// `shards` locks. `capacity = 0` disables caching (every lookup
    /// misses, inserts are dropped).
    pub fn new(capacity: usize, shards: usize) -> ChunkCache<V> {
        let shards = shards.max(1).min(capacity.max(1));
        ChunkCache {
            per_shard: capacity.div_ceil(shards).min(capacity),
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> MutexGuard<'_, Shard<V>> {
        // FNV-1a over the key fields; shards are independent LRUs.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in [key.0 as u64, key.1 as u64, key.2 as u64] {
            h = (h ^ b).wrapping_mul(0x100_0000_01b3);
        }
        let i = (h % self.shards.len() as u64) as usize;
        // A panic cannot leave a shard's map half-updated in a way that
        // matters (entries are replaced whole) — ignore poisoning.
        self.shards[i].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Look `key` up, bumping its recency on a hit, and count the
    /// outcome as one hit or one miss.
    pub fn get(&self, key: &CacheKey) -> Option<V> {
        let found = self.peek(key);
        let counter = if found.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// [`ChunkCache::get`] without touching the hit/miss counters — for a
    /// second look at a key whose outcome was already counted.
    pub fn peek(&self, key: &CacheKey) -> Option<V> {
        if self.per_shard == 0 {
            return None;
        }
        let mut shard = self.shard(key);
        shard.clock += 1;
        let clock = shard.clock;
        let e = shard.map.get_mut(key)?;
        e.last_used = clock;
        Some(e.data.clone())
    }

    /// Insert (or replace) `key`, evicting least-recently-used entries of
    /// the same shard to stay within capacity.
    pub fn insert(&self, key: CacheKey, data: V) {
        if self.per_shard == 0 {
            return;
        }
        let mut evicted = 0u64;
        {
            let mut shard = self.shard(&key);
            shard.clock += 1;
            let clock = shard.clock;
            shard.map.insert(key, Entry { data, last_used: clock });
            while shard.map.len() > self.per_shard {
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

    /// Counter snapshot for the stats frame.
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).map.len() as u64)
                .sum(),
            capacity: (self.per_shard * self.shards.len()) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// A value whose bytes encode exactly which (key, version) produced
    /// it, so any stale read is a bitwise mismatch.
    fn value(key: CacheKey, version: u32) -> Arc<Tensor> {
        let seed = [key.0 as f32, key.1 as f32, key.2 as f32, version as f32];
        Arc::new(Tensor::from_vec(seed.to_vec(), [4usize]).unwrap())
    }

    #[test]
    fn lru_evicts_oldest_and_counts() {
        let cache = ChunkCache::new(2, 1);
        cache.insert((0, 0, 4), value((0, 0, 4), 0));
        cache.insert((0, 1, 4), value((0, 1, 4), 0));
        // Touch chunk 0 so chunk 1 is the LRU.
        assert!(cache.get(&(0, 0, 4)).is_some());
        cache.insert((0, 2, 4), value((0, 2, 4), 0));
        assert!(cache.get(&(0, 1, 4)).is_none(), "LRU entry must be evicted");
        assert!(cache.get(&(0, 0, 4)).is_some());
        assert!(cache.get(&(0, 2, 4)).is_some());
        // Peeks find the same entries but leave the counters alone.
        assert!(cache.peek(&(0, 0, 4)).is_some());
        assert!(cache.peek(&(0, 1, 4)).is_none());
        let s = cache.snapshot();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 1);
        assert!(s.hit_ratio() > 0.74 && s.hit_ratio() < 0.76);
    }

    #[test]
    fn zero_capacity_disables_cleanly() {
        let cache = ChunkCache::new(0, 8);
        cache.insert((0, 0, 1), value((0, 0, 1), 0));
        assert!(cache.get(&(0, 0, 1)).is_none());
        let s = cache.snapshot();
        assert_eq!((s.entries, s.capacity, s.misses), (0, 0, 1));
    }

    #[test]
    fn distinct_fidelities_are_distinct_entries() {
        let cache = ChunkCache::new(8, 2);
        cache.insert((0, 5, 4), value((0, 5, 4), 0));
        cache.insert((0, 5, 2), value((0, 5, 2), 0));
        let full = cache.get(&(0, 5, 4)).unwrap();
        let coarse = cache.get(&(0, 5, 2)).unwrap();
        assert_ne!(full.data(), coarse.data());
    }

    proptest! {
        /// Against a last-write-wins model: a get NEVER returns stale
        /// bytes — it is either a miss or bitwise-exactly the latest
        /// insert for that key — and residency never exceeds capacity.
        #[test]
        fn eviction_never_serves_stale_bytes(
            capacity in 1usize..6,
            shards in 1usize..4,
            ops in proptest::collection::vec(
                (0u32..2, 0u32..6, 1u8..3, 0u32..2), 1..120),
        ) {
            let cache = ChunkCache::new(capacity, shards);
            let mut model: BTreeMap<CacheKey, u32> = BTreeMap::new();
            let mut version = 0u32;
            for (container, chunk, cf, is_insert) in ops {
                let key = (container, chunk, cf);
                if is_insert == 1 {
                    version += 1;
                    cache.insert(key, value(key, version));
                    model.insert(key, version);
                } else if let Some(got) = cache.get(&key) {
                    // A hit must match the model's latest value bitwise.
                    let want = model.get(&key).copied()
                        .expect("cache returned a key never inserted");
                    let want = value(key, want);
                    let a: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
                    let b: Vec<u32> = want.data().iter().map(|v| v.to_bits()).collect();
                    prop_assert_eq!(a, b, "stale bytes for {:?}", key);
                }
                let snap = cache.snapshot();
                prop_assert!(snap.entries <= snap.capacity);
            }
        }

        /// The hit path returns the very Arc the insert produced: the hit
        /// is bit-identical to the cold (miss-path) value by construction.
        #[test]
        fn hit_is_the_inserted_allocation(
            container in 0u32..4, chunk in 0u32..64, cf in 1u8..8,
        ) {
            let cache = ChunkCache::new(16, 4);
            let key = (container, chunk, cf);
            let cold = value(key, 7);
            cache.insert(key, Arc::clone(&cold));
            let hit = cache.get(&key).expect("just inserted");
            prop_assert!(Arc::ptr_eq(&cold, &hit));
        }
    }
}
