//! # marion-cache — content-addressed compile caching
//!
//! The storage layer of the compile service: the same IR function
//! compiled against the same Maril description under the same strategy
//! is fully deterministic (pinned by the parallel-determinism tests),
//! so compiled output is content-addressable. This crate provides the
//! three pieces that make that usable, with no policy of its own:
//!
//! * [`StableHasher`] / [`CacheKey`] — a stable, process-independent
//!   128-bit structural hash: a seedless `std::hash::Hasher`, so unlike
//!   std's per-process-seeded `DefaultHasher` its keys can be persisted
//!   to disk and compared across runs of one build.
//! * [`ShardedCache`] — a mutex-sharded in-memory map with per-shard
//!   LRU eviction and atomic hit/miss/eviction accounting, safe to
//!   share across the scoped-thread compile pool.
//! * [`DiskStore`] — an append-only JSONL file of checksummed entries
//!   (reusing the trace crate's flat-JSON codec). Corrupted lines are
//!   detected at load and skipped, never served.
//!
//! What goes *into* the key (machine description, strategy, options,
//! function body) is the caller's business — see
//! `marion_core::fcache`.

pub mod disk;
pub mod hash;
pub mod lru;

pub use disk::{DiskLoad, DiskStore};
pub use hash::{CacheKey, StableHasher};
pub use lru::{CacheStats, ShardedCache};

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{Hash, Hasher};

    fn key_of<T: Hash>(value: &T) -> CacheKey {
        let mut h = StableHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn key_is_stable_across_hasher_instances() {
        let mut a = StableHasher::new();
        a.write_str("machine");
        a.write_u64(42);
        let mut b = StableHasher::new();
        b.write_str("machine");
        b.write_u64(42);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn key_hex_round_trips() {
        let mut h = StableHasher::new();
        h.write_bytes(b"roundtrip");
        let key = h.finish();
        let hex = key.to_string();
        assert_eq!(hex.len(), 32);
        assert_eq!(CacheKey::from_hex(&hex), Some(key));
        assert_eq!(CacheKey::from_hex("not hex"), None);
        assert_eq!(CacheKey::from_hex(&hex[..31]), None);
    }

    #[test]
    fn differing_writes_produce_differing_keys() {
        // Field boundaries matter: ("ab","c") must not collide with
        // ("a","bc"), and a trailing empty field must change the key.
        let mut h1 = StableHasher::new();
        h1.write_str("ab");
        h1.write_str("c");
        let mut h2 = StableHasher::new();
        h2.write_str("a");
        h2.write_str("bc");
        assert_ne!(h1.finish(), h2.finish());
        let mut h3 = StableHasher::new();
        h3.write_str("ab");
        h3.write_str("c");
        h3.write_str("");
        assert_ne!(h1.finish(), h3.finish());
    }

    #[test]
    fn hashing_a_tuple_keeps_its_field_boundaries() {
        assert_ne!(key_of(&("ab", "c")), key_of(&("a", "bc")));
    }

    #[test]
    fn option_and_empty_vec_are_distinct() {
        assert_ne!(key_of(&None::<u32>), key_of(&Some(0u32)));
        assert_ne!(key_of(&Vec::<u32>::new()), key_of(&vec![0u32]));
    }

    #[test]
    fn cache_get_insert_and_stats() {
        let cache: ShardedCache<String> = ShardedCache::new(64);
        let key = CacheKey([1, 2]);
        assert_eq!(cache.get(key), None);
        cache.insert(key, "hello".to_string());
        assert_eq!(cache.get(key), Some("hello".to_string()));
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.insertions, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        // Capacity 16 over 16 shards = 1 slot per shard: two keys in
        // the same shard must evict the older one.
        let cache: ShardedCache<u32> = ShardedCache::new(16);
        let k1 = CacheKey([0, 1]);
        let k2 = CacheKey([0, 2]); // same shard (shard index from key.0[0])
        cache.insert(k1, 1);
        let evicted = cache.insert(k2, 2);
        assert_eq!(evicted, 1);
        assert_eq!(cache.get(k1), None);
        assert_eq!(cache.get(k2), Some(2));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn get_refreshes_recency() {
        let cache: ShardedCache<u32> = ShardedCache::with_shards(3, 1);
        let (k1, k2, k3) = (CacheKey([0, 1]), CacheKey([0, 2]), CacheKey([0, 3]));
        cache.insert(k1, 1);
        cache.insert(k2, 2);
        cache.insert(k3, 3);
        // Touch k1 so k2 is now the coldest.
        assert_eq!(cache.get(k1), Some(1));
        let k4 = CacheKey([0, 4]);
        cache.insert(k4, 4);
        assert_eq!(cache.get(k2), None, "k2 was coldest");
        assert_eq!(cache.get(k1), Some(1));
    }

    #[test]
    fn disk_store_round_trips_and_detects_corruption() {
        let dir = std::env::temp_dir().join(format!("marion-cache-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.jsonl");
        let _ = std::fs::remove_file(&path);

        let key1 = CacheKey([7, 9]);
        let key2 = CacheKey([8, 10]);
        {
            let (store, load) = DiskStore::open(&path).unwrap();
            assert_eq!(load.entries.len(), 0);
            store.append(key1, "payload one").unwrap();
            store.append(key2, "payload \"two\"\nwith newline").unwrap();
        }
        let (_store, load) = DiskStore::open(&path).unwrap();
        assert_eq!(load.corrupt, 0);
        assert_eq!(load.entries.len(), 2);
        assert_eq!(load.entries[0], (key1, "payload one".to_string()));
        assert_eq!(
            load.entries[1],
            (key2, "payload \"two\"\nwith newline".to_string())
        );

        // Flip one byte inside the first entry's payload: its checksum
        // no longer matches, so it must be skipped — not served.
        let text = std::fs::read_to_string(&path).unwrap();
        let corrupted = text.replacen("payload one", "payload 0ne", 1);
        assert_ne!(text, corrupted);
        std::fs::write(&path, corrupted).unwrap();
        let (_store, load) = DiskStore::open(&path).unwrap();
        assert_eq!(load.corrupt, 1);
        assert_eq!(load.entries.len(), 1);
        assert_eq!(load.entries[0].0, key2);

        // Truncated garbage line: also skipped.
        std::fs::write(&path, "{\"key\":\"zz\"\n").unwrap();
        let (_store, load) = DiskStore::open(&path).unwrap();
        assert_eq!(load.corrupt, 1);
        assert!(load.entries.is_empty());
        let _ = std::fs::remove_file(&path);
    }
}
