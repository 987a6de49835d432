//! A sharded, capacity-bounded LRU map for completion caching.
//!
//! The serving path re-issues near-identical prompts thousands of times
//! (demo-count sweeps, repair rounds, repeated eval runs), so the cache is
//! built for concurrent readers: keys hash to one of `N` shards, each an
//! independent mutex-guarded LRU, so two requests for different prompts
//! almost never contend on the same lock. Within a shard the LRU is an
//! intrusive doubly-linked list over a slot vector — `get`, `insert`, and
//! eviction are all O(1).

use nl2vis_data::fnv1a;
use std::collections::HashMap;
use std::sync::Mutex;

/// Sentinel for "no slot" in the intrusive list.
const NIL: usize = usize::MAX;

struct Slot<V> {
    key: String,
    value: V,
    prev: usize,
    next: usize,
}

/// One LRU shard: hash map for lookup, intrusive list for recency.
struct Shard<V> {
    map: HashMap<String, usize>,
    slots: Vec<Slot<V>>,
    free: Vec<usize>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot (the eviction victim).
    tail: usize,
}

impl<V: Clone> Shard<V> {
    fn new() -> Shard<V> {
        Shard {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
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

    fn get(&mut self, key: &str) -> Option<V> {
        let i = *self.map.get(key)?;
        self.unlink(i);
        self.push_front(i);
        Some(self.slots[i].value.clone())
    }

    /// Inserts or refreshes `key`. Returns `true` when an unrelated entry
    /// was evicted to make room.
    fn insert(&mut self, key: String, value: V, capacity: usize) -> bool {
        if let Some(&i) = self.map.get(&key) {
            self.slots[i].value = value;
            self.unlink(i);
            self.push_front(i);
            return false;
        }
        let mut evicted = false;
        if self.map.len() >= capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "a full shard has a tail");
            self.unlink(victim);
            let old_key = std::mem::take(&mut self.slots[victim].key);
            self.map.remove(&old_key);
            self.free.push(victim);
            evicted = true;
        }
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Slot {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                self.slots.push(Slot {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.map.insert(key, i);
        self.push_front(i);
        evicted
    }
}

/// A sharded LRU map with a total capacity bound.
///
/// Capacity is divided evenly across shards (rounded up), so the map never
/// holds more than `shards * ceil(capacity / shards)` entries and each
/// shard evicts independently in strict per-shard LRU order.
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

    fn shard(&self, key: &str) -> &Mutex<Shard<V>> {
        // High bits select the shard; the low bits feed the in-shard map.
        let h = fnv1a(key.as_bytes());
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Looks up `key`, marking it most-recently-used on a hit.
    pub fn get(&self, key: &str) -> Option<V> {
        self.shard(key).lock().expect("lru shard").get(key)
    }

    /// Inserts or refreshes `key`; returns `true` if an entry was evicted.
    pub fn insert(&self, key: String, value: V) -> bool {
        let shard = self.shard(&key);
        shard
            .lock()
            .expect("lru shard")
            .insert(key, value, self.per_shard_capacity)
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

    #[test]
    fn get_miss_then_hit() {
        let lru: ShardedLru<String> = ShardedLru::new(8, 2);
        assert_eq!(lru.get("a"), None);
        assert!(!lru.insert("a".into(), "1".into()));
        assert_eq!(lru.get("a"), Some("1".into()));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn insert_refreshes_value_without_growth() {
        let lru: ShardedLru<i32> = ShardedLru::new(4, 1);
        lru.insert("k".into(), 1);
        lru.insert("k".into(), 2);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.get("k"), Some(2));
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        let lru: ShardedLru<i32> = ShardedLru::new(3, 1);
        lru.insert("a".into(), 1);
        lru.insert("b".into(), 2);
        lru.insert("c".into(), 3);
        // Touch `a` so `b` becomes the LRU victim.
        assert_eq!(lru.get("a"), Some(1));
        let evicted = lru.insert("d".into(), 4);
        assert!(evicted);
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.get("b"), None, "the least recently used entry goes");
        assert_eq!(lru.get("a"), Some(1));
        assert_eq!(lru.get("c"), Some(3));
        assert_eq!(lru.get("d"), Some(4));
    }

    #[test]
    fn sharded_capacity_never_exceeded() {
        let lru: ShardedLru<usize> = ShardedLru::new(64, 8);
        for i in 0..1000 {
            lru.insert(format!("key-{i}"), i);
        }
        // ceil(64/8) = 8 per shard, 8 shards.
        assert!(lru.len() <= 64, "len {} exceeds the bound", lru.len());
        assert!(lru.len() >= 8, "every shard retains its most recent keys");
    }

    #[test]
    fn eviction_reuses_slots() {
        let lru: ShardedLru<i32> = ShardedLru::new(2, 1);
        for i in 0..100 {
            lru.insert(format!("k{i}"), i);
        }
        let shard = lru.shards[0].lock().unwrap();
        assert!(
            shard.slots.len() <= 3,
            "slot storage must not grow past capacity: {}",
            shard.slots.len()
        );
    }

    #[test]
    fn snapshot_roundtrips_recency() {
        let lru: ShardedLru<i32> = ShardedLru::new(8, 1);
        lru.insert("a".into(), 1);
        lru.insert("b".into(), 2);
        lru.insert("c".into(), 3);
        lru.get("a");
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
                        lru.insert(format!("t{t}-{i}"), i);
                        lru.get(&format!("t{t}-{}", i / 2));
                    }
                });
            }
        });
        assert!(lru.len() <= 32);
    }
}
