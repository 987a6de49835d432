//! A sharded, capacity-bounded LRU map for completion caching.
//!
//! The serving path re-issues near-identical prompts thousands of times
//! (demo-count sweeps, repair rounds, repeated eval runs), so the cache is
//! built for concurrent readers: keys hash to one of `N` shards, each an
//! independent mutex-guarded LRU, so two requests for different prompts
//! almost never contend on the same lock. Within a shard the LRU is an
//! intrusive doubly-linked list over a slot vector — `get`, `insert`, and
//! eviction are all O(1).
//!
//! A key is hashed once, by the caller, into its [`key_digest`]: the digest
//! picks the shard and keys the shard's map, and the slot keeps the full
//! key, which every lookup compares. Two keys that share a digest share a
//! slot, so one of them is a miss; neither is ever served the other's
//! value.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Mutex;

/// Sentinel for "no slot" in the intrusive list.
const NIL: usize = usize::MAX;

/// The cache's one digest of a key: a word-at-a-time 64-bit hash. Four
/// lanes each fold one little-endian word of every 32-byte block with a
/// multiply and a rotate, so four multiplies are in flight at once; the
/// lanes, the tail words and the length then fold into one word, which
/// murmur3's finalizer mixes.
pub fn key_digest(key: &str) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let fold = |h: u64, word: u64| (h ^ word).wrapping_mul(K).rotate_left(31);
    let word = |bytes: &[u8]| {
        let mut buf = [0u8; 8];
        buf[..bytes.len()].copy_from_slice(bytes);
        u64::from_le_bytes(buf)
    };
    let bytes = key.as_bytes();
    let mut lanes = [K, K.rotate_left(16), K.rotate_left(32), K.rotate_left(48)];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = fold(*lane, word(w));
        }
    }
    let mut h = lanes.into_iter().fold(bytes.len() as u64, fold);
    for w in blocks.remainder().chunks(8) {
        h = fold(h, word(w));
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Hashes a digest to itself: the keys of the digest-keyed maps are
/// already uniform, so hashing them again would only cost time. Keys
/// crafted to collide cannot grow a chain: equal digests share one entry,
/// and each map is bounded (an LRU shard by its capacity, the flight map
/// by the requests in flight), so they cost at most a miss or a probe over
/// a bounded map.
#[derive(Default)]
pub(crate) struct Digested(u64);

impl Hasher for Digested {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("digest maps hash only u64 keys")
    }

    fn write_u64(&mut self, digest: u64) {
        self.0 = digest;
    }
}

/// A map keyed by [`key_digest`]s.
pub(crate) type DigestMap<V> = HashMap<u64, V, BuildHasherDefault<Digested>>;

struct Slot<V> {
    digest: u64,
    key: String,
    value: V,
    prev: usize,
    next: usize,
}

/// One LRU shard: digest map for lookup, intrusive list for recency.
struct Shard<V> {
    map: DigestMap<usize>,
    slots: Vec<Slot<V>>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot (the eviction victim).
    tail: usize,
}

impl<V: Clone> Shard<V> {
    fn new() -> Shard<V> {
        Shard {
            map: DigestMap::default(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn get(&mut self, digest: u64, key: &str) -> Option<V> {
        let i = *self.map.get(&digest)?;
        if self.slots[i].key != key {
            return None;
        }
        self.unlink(i);
        self.push_front(i);
        Some(self.slots[i].value.clone())
    }

    /// Inserts or refreshes `key`. Returns `true` when an unrelated entry
    /// was evicted to make room. A key whose digest another key's slot
    /// holds takes that slot over.
    fn insert(&mut self, digest: u64, key: &str, value: V, capacity: usize) -> bool {
        if let Some(&i) = self.map.get(&digest) {
            let slot = &mut self.slots[i];
            if slot.key != key {
                slot.key.clear();
                slot.key.push_str(key);
            }
            slot.value = value;
            self.unlink(i);
            self.push_front(i);
            return false;
        }
        if self.map.len() >= capacity {
            // Reuse the victim's slot, and its key's buffer.
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "a full shard has a tail");
            self.unlink(victim);
            let slot = &mut self.slots[victim];
            self.map.remove(&slot.digest);
            slot.digest = digest;
            slot.key.clear();
            slot.key.push_str(key);
            slot.value = value;
            self.map.insert(digest, victim);
            self.push_front(victim);
            return true;
        }
        self.slots.push(Slot {
            digest,
            key: key.to_string(),
            value,
            prev: NIL,
            next: NIL,
        });
        let i = self.slots.len() - 1;
        self.map.insert(digest, i);
        self.push_front(i);
        false
    }
}

/// A sharded LRU map with a total capacity bound.
///
/// Capacity is divided evenly across shards (rounded up), so the map never
/// holds more than `shards * ceil(capacity / shards)` entries and each
/// shard evicts independently in strict per-shard LRU order. Every call
/// takes the key with its [`key_digest`].
pub struct ShardedLru<V> {
    shards: Vec<Mutex<Shard<V>>>,
    per_shard_capacity: usize,
}

impl<V: Clone> ShardedLru<V> {
    /// Creates a map bounded at roughly `capacity` entries spread over
    /// `shards` locks (both clamped to at least 1).
    pub fn new(capacity: usize, shards: usize) -> ShardedLru<V> {
        let shards = shards.max(1);
        let capacity = capacity.max(1);
        ShardedLru {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            per_shard_capacity: capacity.div_ceil(shards),
        }
    }

    fn shard(&self, digest: u64) -> &Mutex<Shard<V>> {
        // Middle bits select the shard: the in-shard map indexes buckets
        // by the low bits and tags them with the top seven.
        &self.shards[((digest >> 32) % self.shards.len() as u64) as usize]
    }

    /// Looks up `key`, marking it most-recently-used on a hit.
    pub fn get(&self, digest: u64, key: &str) -> Option<V> {
        self.shard(digest)
            .lock()
            .expect("lru shard")
            .get(digest, key)
    }

    /// Inserts or refreshes `key`; returns `true` if an entry was evicted.
    pub fn insert(&self, digest: u64, key: &str, value: V) -> bool {
        self.shard(digest).lock().expect("lru shard").insert(
            digest,
            key,
            value,
            self.per_shard_capacity,
        )
    }

    /// Number of live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("lru shard").map.len())
            .sum()
    }

    /// Is the map empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshots every `(key, value)` pair, LRU order *within* each shard
    /// (least recent first), shard by shard.
    pub fn snapshot(&self) -> Vec<(String, V)> {
        let mut out = Vec::new();
        for s in &self.shards {
            let shard = s.lock().expect("lru shard");
            // Walk tail -> head so re-inserting the snapshot in order
            // reproduces the recency ranking.
            let mut i = shard.tail;
            while i != NIL {
                out.push((shard.slots[i].key.clone(), shard.slots[i].value.clone()));
                i = shard.slots[i].prev;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `lru.get` / `lru.insert` with the key's own digest.
    fn get<V: Clone>(lru: &ShardedLru<V>, key: &str) -> Option<V> {
        lru.get(key_digest(key), key)
    }

    fn insert<V: Clone>(lru: &ShardedLru<V>, key: &str, value: V) -> bool {
        lru.insert(key_digest(key), key, value)
    }

    #[test]
    fn get_miss_then_hit() {
        let lru: ShardedLru<String> = ShardedLru::new(8, 2);
        assert_eq!(get(&lru, "a"), None);
        assert!(!insert(&lru, "a", "1".into()));
        assert_eq!(get(&lru, "a"), Some("1".into()));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn insert_refreshes_value_without_growth() {
        let lru: ShardedLru<i32> = ShardedLru::new(4, 1);
        insert(&lru, "k", 1);
        insert(&lru, "k", 2);
        assert_eq!(lru.len(), 1);
        assert_eq!(get(&lru, "k"), Some(2));
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        let lru: ShardedLru<i32> = ShardedLru::new(3, 1);
        insert(&lru, "a", 1);
        insert(&lru, "b", 2);
        insert(&lru, "c", 3);
        // Touch `a` so `b` becomes the LRU victim.
        assert_eq!(get(&lru, "a"), Some(1));
        let evicted = insert(&lru, "d", 4);
        assert!(evicted);
        assert_eq!(lru.len(), 3);
        assert_eq!(get(&lru, "b"), None, "the least recently used entry goes");
        assert_eq!(get(&lru, "a"), Some(1));
        assert_eq!(get(&lru, "c"), Some(3));
        assert_eq!(get(&lru, "d"), Some(4));
    }

    #[test]
    fn sharded_capacity_never_exceeded() {
        let lru: ShardedLru<usize> = ShardedLru::new(64, 8);
        for i in 0..1000 {
            insert(&lru, &format!("key-{i}"), i);
        }
        // ceil(64/8) = 8 per shard, 8 shards.
        assert!(lru.len() <= 64, "len {} exceeds the bound", lru.len());
        assert!(lru.len() >= 8, "every shard retains its most recent keys");
    }

    #[test]
    fn eviction_reuses_slots() {
        let lru: ShardedLru<i32> = ShardedLru::new(2, 1);
        for i in 0..100 {
            insert(&lru, &format!("k{i}"), i);
        }
        let shard = lru.shards[0].lock().unwrap();
        assert!(
            shard.slots.len() <= 2,
            "slot storage must not grow past capacity: {}",
            shard.slots.len()
        );
        assert_eq!(shard.map.len(), 2);
    }

    #[test]
    fn a_shared_digest_never_serves_the_other_key() {
        // Two keys forced onto one digest, inserted in either order, with
        // and without room to spare: a lookup answers its own key's value
        // or misses, never the other's.
        for capacity in [1, 4] {
            for (first, second) in [("alpha", "beta"), ("beta", "alpha")] {
                let lru: ShardedLru<String> = ShardedLru::new(capacity, 1);
                lru.insert(7, first, format!("{first}-value"));
                assert_eq!(lru.get(7, second), None, "{second} before its insert");
                lru.insert(7, second, format!("{second}-value"));
                for key in ["alpha", "beta"] {
                    let got = lru.get(7, key);
                    assert!(
                        got.is_none() || got == Some(format!("{key}-value")),
                        "{key} read {got:?}"
                    );
                }
                assert_eq!(lru.get(7, second), Some(format!("{second}-value")));
                assert_eq!(lru.len(), 1, "one digest, one slot");
            }
        }
    }

    #[test]
    fn key_digest_separates_nearby_keys() {
        // Keys one byte, one position or one length apart: every prompt
        // prefix of a 300-byte prompt, and every single-byte edit of it.
        let prompt: String = "Database: cinema\nQ: Show films by year\nVQL:".repeat(7);
        let mut keys: Vec<String> = (0..=prompt.len())
            .map(|n| prompt[..n].to_string())
            .collect();
        for i in 0..prompt.len() {
            let mut edited = prompt.clone().into_bytes();
            edited[i] ^= 0x01;
            keys.push(String::from_utf8(edited).expect("ASCII stays ASCII"));
        }
        keys.push(format!("{prompt}\0"));
        let digests: std::collections::HashSet<u64> = keys.iter().map(|k| key_digest(k)).collect();
        assert_eq!(
            digests.len(),
            keys.len(),
            "a digest collision among nearby keys"
        );
        assert_eq!(key_digest(&prompt), key_digest(&prompt.clone()));
    }

    #[test]
    fn snapshot_roundtrips_recency() {
        let lru: ShardedLru<i32> = ShardedLru::new(8, 1);
        insert(&lru, "a", 1);
        insert(&lru, "b", 2);
        insert(&lru, "c", 3);
        get(&lru, "a");
        let snap = lru.snapshot();
        let keys: Vec<&str> = snap.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["b", "c", "a"], "LRU first, MRU last");
    }

    #[test]
    fn concurrent_access_is_safe_and_bounded() {
        let lru = std::sync::Arc::new(ShardedLru::<usize>::new(32, 4));
        std::thread::scope(|s| {
            for t in 0..4 {
                let lru = std::sync::Arc::clone(&lru);
                s.spawn(move || {
                    for i in 0..500 {
                        insert(&lru, &format!("t{t}-{i}"), i);
                        get(&lru, &format!("t{t}-{}", i / 2));
                    }
                });
            }
        });
        assert!(lru.len() <= 32);
    }
}
