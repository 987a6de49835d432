//! Consistent-hash ring over replica ids.
//!
//! Each replica owns `vnodes` points on a `u64` ring; a request key routes
//! to the replica owning the first point at or after the key's hash, and
//! the fallback order for hedging/failover is simply the subsequent
//! distinct owners in ring order. Virtual nodes smooth the per-replica
//! share, and — the property the router exists for — adding or removing
//! one replica moves only the keys whose arcs that replica gained or lost,
//! so the surviving replicas keep their completion-cache shards hot across
//! a scale-out.

use nl2vis_data::fnv1a;

/// FNV-1a concentrates its entropy in the low bits for short, similar
/// inputs (replica ids differ by one digit), which clusters ring points
/// badly. A 64-bit avalanche finalizer (splitmix64's) spreads the points
/// uniformly without changing the underlying keying.
fn mix(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Position of `bytes` on the ring.
fn point_of(bytes: &[u8]) -> u64 {
    mix(fnv1a(bytes))
}

/// An immutable consistent-hash ring; rebuild it when the replica set
/// changes (the router treats membership as fixed for its lifetime —
/// unhealthy replicas are *ejected*, not removed, precisely so the ring
/// stays stable and their keys come back to a warm shard on readmission).
#[derive(Debug)]
pub struct Ring {
    /// `(point, replica)` sorted by point.
    points: Vec<(u64, usize)>,
    replicas: usize,
}

impl Ring {
    /// Builds a ring with `vnodes` points per replica id. Point hashes mix
    /// the replica *id* (not its index) so that a ring rebuilt from the
    /// same addresses lands the same keys on the same replicas.
    pub fn new<S: AsRef<str>>(ids: &[S], vnodes: usize) -> Ring {
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(ids.len() * vnodes);
        for (replica, id) in ids.iter().enumerate() {
            for v in 0..vnodes {
                let point = point_of(format!("{}#{v}", id.as_ref()).as_bytes());
                points.push((point, replica));
            }
        }
        points.sort_unstable();
        Ring {
            points,
            replicas: ids.len(),
        }
    }

    /// Number of replicas on the ring.
    pub fn len(&self) -> usize {
        self.replicas
    }

    /// True when the ring has no replicas.
    pub fn is_empty(&self) -> bool {
        self.replicas == 0
    }

    /// The replica owning `key` (its cache-affinity home).
    pub fn primary(&self, key: &str) -> Option<usize> {
        self.candidates(key).into_iter().next()
    }

    /// Every replica, in ring order starting from `key`'s owner: the
    /// preference list a request walks for hedging and failover. Distinct
    /// and complete — the last entries are the coldest choices, not
    /// omitted.
    pub fn candidates(&self, key: &str) -> Vec<usize> {
        if self.points.is_empty() {
            return Vec::new();
        }
        let hash = point_of(key.as_bytes());
        let start = self.points.partition_point(|&(p, _)| p < hash);
        let mut seen = vec![false; self.replicas];
        let mut order = Vec::with_capacity(self.replicas);
        for i in 0..self.points.len() {
            let (_, replica) = self.points[(start + i) % self.points.len()];
            if !seen[replica] {
                seen[replica] = true;
                order.push(replica);
                if order.len() == self.replicas {
                    break;
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("10.0.0.{i}:8080")).collect()
    }

    #[test]
    fn candidates_cover_every_replica_exactly_once() {
        let ring = Ring::new(&ids(5), 16);
        for k in 0..50 {
            let order = ring.candidates(&format!("key-{k}"));
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4], "order was {order:?}");
        }
    }

    #[test]
    fn routing_is_deterministic_across_rebuilds() {
        let a = Ring::new(&ids(4), 32);
        let b = Ring::new(&ids(4), 32);
        for k in 0..200 {
            let key = format!("prompt {k}");
            assert_eq!(a.candidates(&key), b.candidates(&key));
        }
    }

    #[test]
    fn keys_spread_over_all_replicas() {
        let ring = Ring::new(&ids(4), 32);
        let mut hits = [0usize; 4];
        for k in 0..1000 {
            hits[ring.primary(&format!("key-{k}")).unwrap()] += 1;
        }
        for (replica, &h) in hits.iter().enumerate() {
            assert!(
                h > 100,
                "replica {replica} owns only {h}/1000 keys: {hits:?}"
            );
        }
    }

    #[test]
    fn scaling_out_moves_a_bounded_fraction_of_keys() {
        // Going 3 -> 4 replicas should move roughly 1/4 of the keyspace;
        // a modulo router would move ~3/4. Assert well under half moved.
        let before = Ring::new(&ids(3), 32);
        let after = Ring::new(&ids(4), 32);
        let total = 2000;
        let moved = (0..total)
            .filter(|k| {
                let key = format!("prompt number {k}");
                before.primary(&key) != after.primary(&key)
            })
            .count();
        assert!(
            moved < total / 2,
            "scale-out moved {moved}/{total} keys — affinity lost"
        );
        assert!(moved > 0, "adding a replica must claim some keys");
    }

    #[test]
    fn empty_ring_routes_nowhere() {
        let ring = Ring::new(&Vec::<String>::new(), 32);
        assert!(ring.is_empty());
        assert!(ring.candidates("k").is_empty());
        assert_eq!(ring.primary("k"), None);
    }
}
