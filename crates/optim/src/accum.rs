//! Mini-batch gradient accumulation.
//!
//! The batched training engines compute gradients for a whole mini-batch
//! against *frozen* parameters and apply **one** update per touched
//! parameter block. [`GradAccumulator`] is the staging area: one contiguous
//! `dim`-wide block per distinct key, gradients for the same key sum, and
//! iteration order is **first-touch order**.
//!
//! ## Slot layout
//!
//! Keys are small dense integers chosen by the caller (the baselines use
//! `row << 1 | table`; `mars-core` numbers its entities — users `[0, U)`,
//! items `[U, U + I)` — and stages all `K × D` facet gradients of an entity
//! in one block). Lookup is a direct index, no hashing: `index[key]` holds
//! the key's slot and the *generation* in which it was assigned, and a
//! stamp from an older generation means "not touched this batch". So
//! [`GradAccumulator::clear`] is a counter bump, the index grows once to
//! the largest key ever seen, and after the first few batches staging a
//! gradient allocates nothing. The list of slots *is* the list of touched
//! entities — consumers that need "every entity once" walk it.
//!
//! ## Determinism contract
//!
//! Unchanged from the hashed accumulator this replaced (kept under
//! `#[cfg(test)]` as the oracle): slots are numbered in first-touch order,
//! each block is the in-order `f32` sum of its contributions, and
//! [`GradAccumulator::merge_from`] folds a shard in that shard's own slot
//! order — so merging shard accumulators in a fixed shard order yields one
//! deterministic combined order and one deterministic sum per block, for a
//! fixed seed, batch size and thread count. The *apply* order over slots is
//! irrelevant to the result: blocks belong to disjoint parameters and the
//! gradients were computed before any of them moved.

/// Where a key's block lives, valid only while `stamp` equals the
/// accumulator's current generation.
#[derive(Clone, Copy, Debug, Default)]
struct IndexEntry {
    stamp: u32,
    slot: u32,
}

/// Staging area for mini-batch gradients: one `dim`-wide block per distinct
/// key, in first-touch order (see the module docs for the layout).
#[derive(Clone, Debug)]
pub struct GradAccumulator {
    dim: usize,
    /// Direct index by key; grows to the largest key seen.
    index: Vec<IndexEntry>,
    /// Current batch's stamp, never 0 (the index's zeroed default).
    generation: u32,
    /// Keys in first-touch order.
    keys: Vec<usize>,
    /// Flat `len() × dim` gradient blocks, parallel to `keys`.
    grads: Vec<f32>,
}

impl GradAccumulator {
    /// An empty accumulator for gradient blocks of length `dim`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "accumulator dim must be ≥ 1");
        Self {
            dim,
            index: Vec::new(),
            generation: 1,
            keys: Vec::new(),
            grads: Vec::new(),
        }
    }

    /// Gradient block length.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of distinct keys touched so far this batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no key has been touched this batch.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Clears all staged gradients (capacity and the index are kept).
    pub fn clear(&mut self) {
        self.keys.clear();
        self.grads.clear();
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // The stamp space wrapped: entries from 2³² batches ago would
            // read as current, so retire them all and restart at 1.
            self.index.fill(IndexEntry::default());
            self.generation = 1;
        }
    }

    /// The slot of `key`'s block, assigning the next slot (zeroed) on first
    /// touch. Slots stay valid until [`Self::clear`].
    #[inline]
    pub fn slot(&mut self, key: usize) -> usize {
        if key >= self.index.len() {
            self.index.resize(key + 1, IndexEntry::default());
        }
        let entry = &mut self.index[key];
        if entry.stamp != self.generation {
            let slot = u32::try_from(self.keys.len()).expect("more than u32::MAX slots");
            *entry = IndexEntry {
                stamp: self.generation,
                slot,
            };
            self.keys.push(key);
            self.grads.resize(self.grads.len() + self.dim, 0.0);
        }
        entry.slot as usize
    }

    /// The key that owns `slot`.
    #[inline]
    pub fn key(&self, slot: usize) -> usize {
        self.keys[slot]
    }

    /// The staged block in `slot`.
    #[inline]
    pub fn block(&self, slot: usize) -> &[f32] {
        &self.grads[slot * self.dim..(slot + 1) * self.dim]
    }

    /// The staged block in `slot`, for in-place accumulation.
    #[inline]
    pub fn block_mut(&mut self, slot: usize) -> &mut [f32] {
        &mut self.grads[slot * self.dim..(slot + 1) * self.dim]
    }

    /// Adds `grad` into the block keyed `key`, creating it (zeroed) on first
    /// touch.
    #[inline]
    pub fn add(&mut self, key: usize, grad: &[f32]) {
        debug_assert_eq!(grad.len(), self.dim, "gradient has wrong length");
        let slot = self.slot(key);
        for (r, &g) in self.block_mut(slot).iter_mut().zip(grad) {
            *r += g;
        }
    }

    /// The staged gradient for `key`, if that key was touched.
    pub fn grad(&self, key: usize) -> Option<&[f32]> {
        let entry = self.index.get(key)?;
        (entry.stamp == self.generation).then(|| self.block(entry.slot as usize))
    }

    /// Folds another accumulator's blocks into this one, preserving
    /// `other`'s internal order. Merging shard accumulators in a fixed shard
    /// order yields a deterministic combined first-touch order.
    pub fn merge_from(&mut self, other: &GradAccumulator) {
        debug_assert_eq!(self.dim, other.dim, "accumulator dim mismatch");
        for (slot, &key) in other.keys.iter().enumerate() {
            self.add(key, other.block(slot));
        }
    }

    /// Visits every `(key, grad)` pair in first-touch order without
    /// consuming the batch.
    pub fn for_each(&self, mut f: impl FnMut(usize, &[f32])) {
        for (slot, &key) in self.keys.iter().enumerate() {
            f(key, self.block(slot));
        }
    }

    /// Visits every `(key, grad)` pair in first-touch order, then clears the
    /// batch.
    pub fn drain(&mut self, f: impl FnMut(usize, &[f32])) {
        self.for_each(f);
        self.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_runtime::CounterRng;
    use std::collections::HashMap;

    /// The hashed accumulator the slot array replaced, kept as the oracle:
    /// a `HashMap` from key to slot, everything else the same.
    struct HashedOracle {
        dim: usize,
        slots: HashMap<usize, usize>,
        keys: Vec<usize>,
        grads: Vec<f32>,
    }

    impl HashedOracle {
        fn new(dim: usize) -> Self {
            Self {
                dim,
                slots: HashMap::new(),
                keys: Vec::new(),
                grads: Vec::new(),
            }
        }

        fn clear(&mut self) {
            self.slots.clear();
            self.keys.clear();
            self.grads.clear();
        }

        fn add(&mut self, key: usize, grad: &[f32]) {
            let slot = *self.slots.entry(key).or_insert_with(|| {
                self.keys.push(key);
                self.grads.resize(self.grads.len() + self.dim, 0.0);
                self.keys.len() - 1
            });
            for (r, &g) in self.grads[slot * self.dim..][..self.dim]
                .iter_mut()
                .zip(grad)
            {
                *r += g;
            }
        }

        fn merge_from(&mut self, other: &HashedOracle) {
            for (slot, &key) in other.keys.iter().enumerate() {
                self.add(key, &other.grads[slot * self.dim..][..self.dim]);
            }
        }
    }

    /// Same first-touch order, bit-equal sums.
    fn assert_matches(acc: &GradAccumulator, oracle: &HashedOracle, what: &str) {
        let mut keys = Vec::new();
        let mut bits = Vec::new();
        acc.for_each(|k, g| {
            keys.push(k);
            bits.extend(g.iter().map(|v| v.to_bits()));
        });
        assert_eq!(keys, oracle.keys, "{what}: first-touch order");
        let expect: Vec<u32> = oracle.grads.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, expect, "{what}: block sums");
        for &k in &oracle.keys {
            assert!(acc.grad(k).is_some(), "{what}: key {k} not found");
        }
    }

    #[test]
    fn sums_per_key_and_keeps_first_touch_order() {
        let mut acc = GradAccumulator::new(2);
        acc.add(7, &[1.0, 0.0]);
        acc.add(3, &[0.0, 1.0]);
        acc.add(7, &[1.0, 1.0]);
        assert_eq!(acc.len(), 2);
        assert_eq!(acc.grad(7), Some(&[2.0, 1.0][..]));
        assert_eq!(acc.grad(3), Some(&[0.0, 1.0][..]));
        assert_eq!(acc.grad(5), None);
        assert_eq!(acc.grad(1000), None);
        let mut order = Vec::new();
        acc.for_each(|k, _| order.push(k));
        assert_eq!(order, vec![7, 3]);
    }

    #[test]
    fn slots_expose_blocks_for_in_place_accumulation() {
        let mut acc = GradAccumulator::new(2);
        let s = acc.slot(4);
        assert_eq!(acc.block(s), &[0.0, 0.0], "first touch is zeroed");
        acc.block_mut(s)[1] += 2.5;
        assert_eq!(acc.slot(4), s, "second touch finds the same slot");
        assert_eq!(acc.key(s), 4);
        assert_eq!(acc.grad(4), Some(&[0.0, 2.5][..]));
    }

    #[test]
    fn drain_clears_and_reuses() {
        let mut acc = GradAccumulator::new(1);
        acc.add(1, &[5.0]);
        let mut seen = 0;
        acc.drain(|k, g| {
            assert_eq!(k, 1);
            assert_eq!(g, &[5.0]);
            seen += 1;
        });
        assert_eq!(seen, 1);
        assert!(acc.is_empty());
        assert_eq!(acc.grad(1), None, "a drained key reads as untouched");
        acc.add(1, &[3.0]);
        assert_eq!(acc.grad(1), Some(&[3.0][..]));
    }

    #[test]
    fn merge_preserves_shard_order() {
        let mut a = GradAccumulator::new(1);
        a.add(10, &[1.0]);
        let mut b = GradAccumulator::new(1);
        b.add(20, &[2.0]);
        b.add(10, &[1.0]);
        a.merge_from(&b);
        assert_eq!(a.grad(10), Some(&[2.0][..]));
        let mut order = Vec::new();
        a.for_each(|k, _| order.push(k));
        assert_eq!(order, vec![10, 20]);
    }

    #[test]
    fn generation_wrap_retires_every_stale_stamp() {
        let mut acc = GradAccumulator::new(1);
        acc.add(2, &[1.0]);
        // Jump to the last generation before the wrap; key 2's stamp (1)
        // is now stale, key 5 gets the final stamp.
        acc.clear();
        acc.generation = u32::MAX;
        acc.add(5, &[4.0]);
        assert_eq!(acc.grad(2), None);
        acc.clear(); // wraps: 0 is skipped, the index is wiped
        assert_eq!(acc.generation, 1);
        assert!(acc.is_empty());
        // Generation 1 again — key 2's old stamp must not resurface.
        assert_eq!(acc.grad(2), None);
        assert_eq!(acc.grad(5), None);
        acc.add(2, &[7.0]);
        assert_eq!(acc.grad(2), Some(&[7.0][..]));
        assert_eq!(acc.len(), 1);
    }

    /// Random key streams with merges, against the hashed oracle: same
    /// first-touch order and bit-equal sums, batch after batch on the same
    /// accumulators (stale generations), across a stamp wrap-around.
    #[test]
    fn matches_the_hashed_oracle_on_random_streams() {
        let dim = 3;
        let mut rng = CounterRng::keyed(0xACC, 0);
        let mut draw = |bound: u64| rng.gen_below(bound) as usize;
        let (mut acc, mut shard) = (GradAccumulator::new(dim), GradAccumulator::new(dim));
        let (mut oracle, mut oracle_shard) = (HashedOracle::new(dim), HashedOracle::new(dim));
        for batch in 0..60 {
            if batch == 30 {
                // Put both accumulators two batches short of the wrap.
                acc.generation = u32::MAX - 1;
                shard.generation = u32::MAX - 1;
            }
            acc.clear();
            shard.clear();
            oracle.clear();
            oracle_shard.clear();
            // Key range and stream length vary per batch, so the index
            // grows over time and most stamps are stale at any moment.
            let key_range = 1 + draw(400) as u64;
            for _ in 0..draw(300) {
                let key = draw(key_range);
                let grad: Vec<f32> = (0..dim).map(|_| draw(2001) as f32 * 1e-3 - 1.0).collect();
                if draw(3) == 0 {
                    shard.add(key, &grad);
                    oracle_shard.add(key, &grad);
                } else {
                    acc.add(key, &grad);
                    oracle.add(key, &grad);
                }
            }
            assert_matches(&shard, &oracle_shard, "shard");
            acc.merge_from(&shard);
            oracle.merge_from(&oracle_shard);
            assert_matches(&acc, &oracle, "merged");
        }
    }
}
