//! Bounded-heap top-k selection, plus the full-sort reference it is
//! asserted identical to.
//!
//! The heap keeps the k best candidates seen so far with the **worst kept
//! candidate at the root** (a max-heap under [`rank_cmp`], whose `Greater`
//! means "ranks later"). Offering a candidate is O(1) when it cannot enter
//! the top k — one comparison against the root — and O(log k) when it can,
//! so a catalogue scan costs O(n + k·log n) instead of the full sort's
//! O(n·log n), and needs k slots of memory instead of n.
//!
//! Because [`rank_cmp`] is a total order, the k candidates the heap
//! retains are exactly the k first elements of the sorted candidate list —
//! selection strategy cannot change the selection result, which is what
//! the property tests pin down bit-for-bit against [`full_sort_top_k`].

use crate::order::rank_cmp;
use crate::query::RecQuery;
use mars_data::ItemId;
use mars_metrics::Scorer;
use std::cmp::Ordering;

/// Offers one candidate to a bounded heap of capacity `k`. `heap` must
/// only be mutated through this function (and emptied with
/// [`drain_ranked`] / `clear`) to preserve the heap invariant.
#[inline]
pub(crate) fn offer(heap: &mut Vec<(ItemId, f32)>, k: usize, cand: (ItemId, f32)) {
    if k == 0 {
        return;
    }
    if heap.len() < k {
        heap.push(cand);
        let last = heap.len() - 1;
        sift_up(heap, last);
    } else if rank_cmp(cand, heap[0]) == Ordering::Less {
        heap[0] = cand;
        sift_down(heap);
    }
}

/// Sorts the heap's contents into rank order (best first), leaving them in
/// place. O(k·log k) — on k elements, not the catalogue.
pub(crate) fn drain_ranked(heap: &mut [(ItemId, f32)]) {
    heap.sort_unstable_by(|&a, &b| rank_cmp(a, b));
}

fn sift_up(heap: &mut [(ItemId, f32)], mut i: usize) {
    while i > 0 {
        let parent = (i - 1) / 2;
        if rank_cmp(heap[i], heap[parent]) == Ordering::Greater {
            heap.swap(i, parent);
            i = parent;
        } else {
            break;
        }
    }
}

fn sift_down(heap: &mut [(ItemId, f32)]) {
    let n = heap.len();
    let mut i = 0;
    loop {
        let left = 2 * i + 1;
        if left >= n {
            break;
        }
        let right = left + 1;
        // The child that ranks latest must bubble toward the root.
        let worst = if right < n && rank_cmp(heap[right], heap[left]) == Ordering::Greater {
            right
        } else {
            left
        };
        if rank_cmp(heap[worst], heap[i]) == Ordering::Greater {
            heap.swap(i, worst);
            i = worst;
        } else {
            break;
        }
    }
}

/// The full-sort reference selection: materialize every candidate that
/// survives the query's filters, score them in one
/// [`Scorer::score_many`] call, sort the whole list under [`rank_cmp`],
/// truncate to k.
///
/// This is the pre-serve `MultiFacetModel::recommend` algorithm (with the
/// NaN-unsound comparator replaced by the total order) — kept public as
/// the A/B baseline the bounded-heap engine is property-tested and
/// benchmarked against, the way `evaluate_pairs_sequential` anchors the
/// batched evaluator.
// audit:allow(orphan-pub) — reference twin: oracle of the bounded-heap top-k
pub fn full_sort_top_k<S: Scorer + ?Sized>(
    model: &S,
    catalog_items: usize,
    query: &RecQuery<'_>,
) -> Vec<(ItemId, f32)> {
    let survives = |v: ItemId| query.seen.binary_search(&v).is_err();
    let candidates: Vec<ItemId> = match query.candidates {
        Some(cands) => cands.iter().copied().filter(|&v| survives(v)).collect(),
        None => (0..catalog_items as ItemId)
            .filter(|&v| survives(v))
            .collect(),
    };
    let mut scores = Vec::new();
    model.score_many(query.user, &candidates, &mut scores);
    let mut ranked: Vec<(ItemId, f32)> = candidates.into_iter().zip(scores).collect();
    ranked.sort_by(|&a, &b| rank_cmp(a, b));
    ranked.truncate(query.k);
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn select(k: usize, cands: &[(ItemId, f32)]) -> Vec<(ItemId, f32)> {
        let mut heap = Vec::new();
        for &c in cands {
            offer(&mut heap, k, c);
        }
        drain_ranked(&mut heap);
        heap
    }

    #[test]
    fn zero_k_keeps_nothing() {
        assert!(select(0, &[(0, 1.0), (1, 2.0)]).is_empty());
    }

    #[test]
    fn keeps_the_best_k_in_rank_order() {
        let cands = [(0, 0.1), (1, 0.9), (2, 0.5), (3, 0.9), (4, -1.0)];
        assert_eq!(select(2, &cands), vec![(1, 0.9), (3, 0.9)]);
        assert_eq!(select(3, &cands), vec![(1, 0.9), (3, 0.9), (2, 0.5)]);
        // k beyond the candidate count returns everything, ranked.
        assert_eq!(
            select(99, &cands),
            vec![(1, 0.9), (3, 0.9), (2, 0.5), (0, 0.1), (4, -1.0)]
        );
    }

    #[test]
    fn nan_scores_are_kept_only_when_nothing_real_competes() {
        let cands = [(0, f32::NAN), (1, 0.0), (2, f32::NAN), (3, -5.0)];
        assert_eq!(select(2, &cands), vec![(1, 0.0), (3, -5.0)]);
        let all = select(4, &cands);
        let ids: Vec<ItemId> = all.iter().map(|&(v, _)| v).collect();
        assert_eq!(ids, vec![1, 3, 0, 2]);
    }

    #[test]
    fn heap_matches_sorted_truncation_on_adversarial_orders() {
        // Feed the same candidate set in several permutations; the kept
        // set and order must be identical (bitwise) every time.
        let base: Vec<(ItemId, f32)> = (0..40)
            .map(|i| (i as ItemId, ((i * 37 % 11) as f32 - 5.0) / 3.0))
            .collect();
        let mut sorted = base.clone();
        sorted.sort_by(|&a, &b| rank_cmp(a, b));
        for k in [1usize, 7, 39, 40, 64] {
            let mut expect = sorted.clone();
            expect.truncate(k);
            let fwd = select(k, &base);
            let rev: Vec<_> = base.iter().rev().copied().collect();
            assert_eq!(select(k, &rev), fwd);
            let bits = |v: &[(ItemId, f32)]| -> Vec<(ItemId, u32)> {
                v.iter().map(|&(i, s)| (i, s.to_bits())).collect()
            };
            assert_eq!(bits(&fwd), bits(&expect), "k = {k}");
        }
    }
}
