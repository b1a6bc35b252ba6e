//! Cell → shard routing.
//!
//! The logical ER-grid is partitioned across `S` shards by hashing grid
//! cell keys: every cell is owned by exactly one shard, and a tuple's
//! region is materialized cell-by-cell in whichever shards own its cells
//! (mirroring §5.2's "insert into every intersecting cell", just spread
//! over shards). Because the routing is a pure function of the cell key
//! and the shard count, replaying the same per-arrival insert/evict
//! sequence against any shard count produces the same per-cell entry and
//! aggregate history as the monolithic grid — the foundation of the
//! engine-level bit-for-bit parity guarantee (property-tested in
//! `ter_exec`). [`LiveState`](crate::LiveState) keeps the shards.

use std::hash::Hasher;

use ter_text::fxhash::FxHasher;

/// Deterministic partitioner of grid cells across `S` shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: usize,
}

impl ShardRouter {
    /// Creates a router over `shards` shards.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "at least one shard");
        Self { shards }
    }

    /// Number of shards `S`.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The shard owning grid cell `key` — a pure function of the cell key
    /// and the shard count, so every cell routes to exactly one shard.
    pub fn shard_of(&self, key: &[u16]) -> usize {
        let mut h = FxHasher::default();
        for &k in key {
            h.write_u32(k as u32);
        }
        (h.finish() % self.shards as u64) as usize
    }

    /// Whether shard `shard` owns cell `key`.
    pub fn owns(&self, shard: usize, key: &[u16]) -> bool {
        self.shard_of(key) == shard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_owns_everything() {
        let r = ShardRouter::new(1);
        for key in [&[0u16, 0][..], &[3, 7], &[65535, 0]] {
            assert_eq!(r.shard_of(key), 0);
            assert!(r.owns(0, key));
        }
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        for shards in 1..=8 {
            let r = ShardRouter::new(shards);
            for a in 0..16u16 {
                for b in 0..16u16 {
                    let s = r.shard_of(&[a, b]);
                    assert!(s < shards);
                    assert_eq!(s, r.shard_of(&[a, b]));
                }
            }
        }
    }

    #[test]
    fn multiple_shards_are_actually_used() {
        let r = ShardRouter::new(4);
        let mut seen = [false; 4];
        for a in 0..32u16 {
            for b in 0..32u16 {
                seen[r.shard_of(&[a, b])] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "unused shard: {seen:?}");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        ShardRouter::new(0);
    }
}
