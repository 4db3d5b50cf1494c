//! A mutex-sharded in-memory cache with per-shard LRU eviction.
//!
//! Shards bound lock contention when the compile pool's worker threads
//! look up functions concurrently: a key maps to one shard by its high
//! hash bits, and each shard is an independent `HashMap` behind its
//! own mutex. Recency is a per-shard logical tick bumped on every get
//! and insert; eviction removes the minimum-tick entry, which is
//! deterministic because ticks are unique within a shard.

use crate::hash::CacheKey;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Counters accumulated over the cache's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries removed to make room.
    pub evictions: u64,
    /// Entries stored (including overwrites of the same key).
    pub insertions: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Shard<V> {
    map: HashMap<CacheKey, (V, u64)>,
    tick: u64,
}

impl<V> Shard<V> {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// The sharded LRU map. Values are cloned out on hit, so `V` should be
/// cheap to clone or internally shared.
pub struct ShardedCache<V> {
    shards: Vec<Mutex<Shard<V>>>,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    insertions: AtomicU64,
}

const DEFAULT_SHARDS: usize = 16;

impl<V: Clone> ShardedCache<V> {
    /// A cache holding at most `capacity` entries across
    /// `DEFAULT_SHARDS` (16) shards (per-shard capacity rounds up, so the
    /// effective total may slightly exceed `capacity`).
    pub fn new(capacity: usize) -> ShardedCache<V> {
        ShardedCache::with_shards(capacity, DEFAULT_SHARDS)
    }

    /// A cache with an explicit shard count. One shard makes eviction
    /// exact LRU over the whole cache (tests use it to force eviction
    /// order).
    pub fn with_shards(capacity: usize, shards: usize) -> ShardedCache<V> {
        let shards = shards.max(1);
        let per_shard_capacity = capacity.div_ceil(shards).max(1);
        ShardedCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        tick: 0,
                    })
                })
                .collect(),
            per_shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: CacheKey) -> &Mutex<Shard<V>> {
        &self.shards[(key.0[0] % self.shards.len() as u64) as usize]
    }

    /// Looks up `key`, refreshing its recency on hit.
    pub fn get(&self, key: CacheKey) -> Option<V> {
        let mut shard = self.shard(key).lock().unwrap();
        let tick = shard.next_tick();
        match shard.map.get_mut(&key) {
            Some((value, at)) => {
                *at = tick;
                let value = value.clone();
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores `value` under `key`, evicting least-recently-used
    /// entries if the shard is full. Returns how many entries were
    /// evicted (0 or 1 in practice).
    pub fn insert(&self, key: CacheKey, value: V) -> usize {
        let mut shard = self.shard(key).lock().unwrap();
        let mut evicted = 0;
        while !shard.map.contains_key(&key) && shard.map.len() >= self.per_shard_capacity {
            // Min tick is unique within the shard, so the victim does
            // not depend on HashMap iteration order.
            let victim = shard
                .map
                .iter()
                .min_by_key(|(_, (_, at))| *at)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    shard.map.remove(&k);
                    evicted += 1;
                }
                None => break,
            }
        }
        let tick = shard.next_tick();
        shard.map.insert(key, (value, tick));
        self.insertions.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(evicted as u64, Ordering::Relaxed);
        evicted
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().map.len())
            .sum()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the lifetime counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
        }
    }
}
