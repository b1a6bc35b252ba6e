//! Tuple → shard routing.
//!
//! The candidate lists ([`CandidateLists`](crate::candidates::CandidateLists))
//! are partitioned across `S` shards by tuple id: every live tuple is held
//! by exactly one shard, in its (stream, topicality) list there. Because
//! the routing is a pure function of the id and the shard count, each
//! shard's lists are subsequences of the monolithic lists, and the union of
//! the shards' candidates for a probe is the monolithic candidate set —
//! the foundation of the engine-level bit-for-bit parity guarantee
//! (property-tested in `ter_exec`). [`LiveState`](crate::LiveState) keeps
//! the shards.

/// Deterministic partitioner of tuple ids across `S` shards.
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

    /// The shard holding tuple `id` — a pure function of the id and the
    /// shard count. The id is mixed by Fibonacci hashing and mapped to
    /// `0..S` from the high bits, so ids with a common stride (say, one
    /// stream's) still spread over every shard.
    pub fn shard_of(&self, id: u64) -> usize {
        let mixed = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((u128::from(mixed) * self.shards as u128) >> 64) as usize
    }

    /// Whether shard `shard` holds tuple `id`.
    pub fn owns(&self, shard: usize, id: u64) -> bool {
        self.shard_of(id) == shard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_owns_everything() {
        let r = ShardRouter::new(1);
        for id in [0, 7, 1 << 40, u64::MAX] {
            assert_eq!(r.shard_of(id), 0);
            assert!(r.owns(0, id));
        }
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        for shards in 1..=8 {
            let r = ShardRouter::new(shards);
            for id in (0..256).chain([u64::MAX - 1, u64::MAX]) {
                let s = r.shard_of(id);
                assert!(s < shards);
                assert_eq!(s, r.shard_of(id));
            }
        }
    }

    /// Every shard is used, also by ids that share a stride with the
    /// shard count (here every eighth id, as one of eight interleaved
    /// streams would have).
    #[test]
    fn multiple_shards_are_actually_used() {
        let r = ShardRouter::new(4);
        for stride in [1u64, 4, 8] {
            let mut seen = [false; 4];
            for i in 0..64u64 {
                seen[r.shard_of(i * stride + 3)] = true;
            }
            assert!(
                seen.iter().all(|&s| s),
                "stride {stride}: unused shard {seen:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        ShardRouter::new(0);
    }
}
