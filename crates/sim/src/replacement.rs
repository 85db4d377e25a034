//! Per-set replacement policies for traditional caches.
//!
//! Dinero's policy set (LRU, FIFO, Random) plus tree-PLRU. Policy state is
//! kept per set in a [`SetPolicy`] value; the cache core calls
//! [`SetPolicy::on_hit`] / [`SetPolicy::on_fill`] and asks for a
//! [`SetPolicy::victim`] when the set is full.

use molcache_trace::rng::Rng;

/// Which replacement policy a cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Least-recently-used (exact, timestamp-based).
    Lru,
    /// First-in-first-out (fill order).
    Fifo,
    /// Uniformly random victim.
    Random,
    /// Tree-based pseudo-LRU.
    PlruTree,
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Policy::Lru => f.write_str("LRU"),
            Policy::Fifo => f.write_str("FIFO"),
            Policy::Random => f.write_str("Random"),
            Policy::PlruTree => f.write_str("PLRU"),
        }
    }
}

/// Replacement metadata for one set.
#[derive(Debug, Clone)]
pub struct SetPolicy {
    policy: Policy,
    /// LRU/FIFO: per-way timestamps. PLRU: tree bits packed in `meta[0]`.
    meta: Vec<u64>,
    clock: u64,
}

impl SetPolicy {
    /// Creates metadata for a set of `ways` lines.
    ///
    /// # Panics
    ///
    /// Panics if `ways == 0`, or if `policy` is [`Policy::PlruTree`] and
    /// `ways` is not a power of two (the tree requires it).
    pub fn new(policy: Policy, ways: usize) -> Self {
        assert!(ways > 0, "set must have at least one way");
        if policy == Policy::PlruTree {
            assert!(
                ways.is_power_of_two(),
                "tree-PLRU requires power-of-two associativity"
            );
        }
        SetPolicy {
            policy,
            meta: vec![0; ways],
            clock: 0,
        }
    }

    /// Number of ways tracked.
    pub fn ways(&self) -> usize {
        self.meta.len()
    }

    /// Notifies the policy of a hit in `way`.
    pub fn on_hit(&mut self, way: usize) {
        match self.policy {
            Policy::Lru => {
                self.clock += 1;
                self.meta[way] = self.clock;
            }
            Policy::Fifo | Policy::Random => {}
            Policy::PlruTree => self.touch_plru(way),
        }
    }

    /// Notifies the policy that `way` was filled with a new line.
    pub fn on_fill(&mut self, way: usize) {
        match self.policy {
            Policy::Lru | Policy::Fifo => {
                self.clock += 1;
                self.meta[way] = self.clock;
            }
            Policy::Random => {}
            Policy::PlruTree => self.touch_plru(way),
        }
    }

    /// Chooses a victim way (the set is full).
    pub fn victim(&mut self, rng: &mut Rng) -> usize {
        match self.policy {
            Policy::Lru | Policy::Fifo => self
                .meta
                .iter()
                .enumerate()
                .min_by_key(|(_, &ts)| ts)
                .map(|(i, _)| i)
                .expect("non-empty set"),
            Policy::Random => rng.gen_index(self.meta.len()),
            Policy::PlruTree => self.plru_victim(),
        }
    }

    // Tree PLRU: bits of meta[0] encode internal nodes; bit = 0 means the
    // "cold" side is the left subtree.
    fn touch_plru(&mut self, way: usize) {
        let ways = self.meta.len();
        let mut node = 1usize; // 1-based heap index
        let mut lo = 0usize;
        let mut hi = ways;
        let mut bits = self.meta[0];
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if way < mid {
                // Accessed left: mark right as cold-side (bit = 1).
                bits |= 1 << node;
                hi = mid;
                node *= 2;
            } else {
                bits &= !(1 << node);
                lo = mid;
                node = node * 2 + 1;
            }
        }
        self.meta[0] = bits;
    }

    fn plru_victim(&self) -> usize {
        let ways = self.meta.len();
        let bits = self.meta[0];
        let mut node = 1usize;
        let mut lo = 0usize;
        let mut hi = ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if bits & (1 << node) != 0 {
                // Cold side is right.
                lo = mid;
                node = node * 2 + 1;
            } else {
                hi = mid;
                node *= 2;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        let mut p = SetPolicy::new(Policy::Lru, 4);
        for w in 0..4 {
            p.on_fill(w);
        }
        p.on_hit(0); // 0 becomes most recent; 1 is now least recent
        let mut rng = Rng::seeded(1);
        assert_eq!(p.victim(&mut rng), 1);
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut p = SetPolicy::new(Policy::Fifo, 4);
        for w in 0..4 {
            p.on_fill(w);
        }
        p.on_hit(0); // FIFO must still evict way 0 (oldest fill)
        let mut rng = Rng::seeded(1);
        assert_eq!(p.victim(&mut rng), 0);
    }

    #[test]
    fn random_covers_all_ways() {
        let mut p = SetPolicy::new(Policy::Random, 4);
        let mut rng = Rng::seeded(2);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[p.victim(&mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn plru_never_evicts_just_touched() {
        let mut p = SetPolicy::new(Policy::PlruTree, 8);
        let mut rng = Rng::seeded(3);
        for w in 0..8 {
            p.on_fill(w);
        }
        for touched in 0..8 {
            p.on_hit(touched);
            let v = p.victim(&mut rng);
            assert_ne!(v, touched, "PLRU evicted the just-touched way");
        }
    }

    #[test]
    fn plru_two_way_behaves_like_lru() {
        let mut p = SetPolicy::new(Policy::PlruTree, 2);
        let mut rng = Rng::seeded(4);
        p.on_fill(0);
        p.on_fill(1);
        p.on_hit(0);
        assert_eq!(p.victim(&mut rng), 1);
        p.on_hit(1);
        assert_eq!(p.victim(&mut rng), 0);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn plru_rejects_non_power_of_two() {
        SetPolicy::new(Policy::PlruTree, 3);
    }

    #[test]
    fn display_names() {
        assert_eq!(Policy::Lru.to_string(), "LRU");
        assert_eq!(Policy::PlruTree.to_string(), "PLRU");
    }

    use proptest::prelude::*;

    fn policy_from(tag: u8) -> Policy {
        match tag % 4 {
            0 => Policy::Lru,
            1 => Policy::Fifo,
            2 => Policy::Random,
            _ => Policy::PlruTree,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// After any interleaving of hits and fills, every policy's victim
        /// is a valid way index.
        #[test]
        fn victims_stay_in_bounds(
            tag in 0u8..4,
            ways_log2 in 0u8..4,
            ops in proptest::collection::vec(
                (proptest::bool::ANY, proptest::num::u64::ANY), 0..64),
            seed in proptest::num::u64::ANY,
        ) {
            let policy = policy_from(tag);
            let ways = 1usize << ways_log2; // power of two so PLRU is legal
            let mut p = SetPolicy::new(policy, ways);
            let mut rng = Rng::seeded(seed | 1);
            for (is_hit, way) in ops {
                let way = (way % ways as u64) as usize;
                if is_hit {
                    p.on_hit(way);
                } else {
                    p.on_fill(way);
                }
            }

            let v = p.victim(&mut rng);
            prop_assert!(v < ways, "victim {v} out of {ways} ways");
        }
    }
}
