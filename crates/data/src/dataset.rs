//! Leave-one-out dataset splits.
//!
//! §V-A2 of the paper: "the testing set comprises the last item of all
//! users. If there are no timestamps available in the dataset, the test
//! sample is randomly selected. One item for each user is also sampled to
//! form the development set."
//!
//! Our synthetic interactions carry a generation order which stands in for
//! timestamps; [`Dataset::leave_one_out`] removes the *last* two
//! interactions of each user (last → test, second-to-last → dev). Users with
//! fewer than three interactions keep everything in train and are skipped at
//! evaluation time — the standard handling (they cannot lose an item and
//! still be trainable).

use crate::interactions::Interactions;
use crate::{ItemId, UserId};

/// A held-out `(user, item)` evaluation pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeldOut {
    pub user: UserId,
    pub item: ItemId,
}

/// A train/dev/test split of an implicit-feedback dataset, plus the
/// ground-truth category annotations the synthetic generator provides
/// (used only by the case-study experiments, never by the models).
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Human-readable name (e.g. `"ciao-small"`).
    pub name: String,
    /// Training interactions.
    pub train: Interactions,
    /// One dev pair per eligible user.
    pub dev: Vec<HeldOut>,
    /// One test pair per eligible user.
    pub test: Vec<HeldOut>,
    /// `categories[v]` = ground-truth category ids of item `v` (possibly
    /// several — the paper's movies belong to multiple genres). Empty when
    /// the source has no annotations.
    pub item_categories: Vec<Vec<u16>>,
    /// Number of distinct categories (0 when unannotated).
    pub num_categories: usize,
}

impl Dataset {
    /// Splits time-ordered per-user interaction lists into train/dev/test.
    ///
    /// `ordered` holds each user's interactions in chronological order
    /// (duplicates allowed; resolved towards the earliest occurrence). The
    /// last distinct item of each user goes to test, the second-to-last to
    /// dev, the rest to train. Users with fewer than 3 distinct items
    /// contribute everything to train.
    pub fn leave_one_out(
        name: impl Into<String>,
        num_users: usize,
        num_items: usize,
        ordered: &[Vec<ItemId>],
        item_categories: Vec<Vec<u16>>,
        num_categories: usize,
    ) -> Self {
        assert_eq!(
            ordered.len(),
            num_users,
            "need one (possibly empty) history per user"
        );
        let mut train_pairs: Vec<(UserId, ItemId)> = Vec::new();
        let mut dev = Vec::new();
        let mut test = Vec::new();
        for (u, history) in ordered.iter().enumerate() {
            let u = u as UserId;
            // Keep first occurrence of each item, preserving order.
            let mut seen = std::collections::HashSet::new();
            let distinct: Vec<ItemId> = history
                .iter()
                .cloned()
                .filter(|v| seen.insert(*v))
                .collect();
            if distinct.len() < 3 {
                train_pairs.extend(distinct.iter().map(|&v| (u, v)));
                continue;
            }
            let n = distinct.len();
            test.push(HeldOut {
                user: u,
                item: distinct[n - 1],
            });
            dev.push(HeldOut {
                user: u,
                item: distinct[n - 2],
            });
            train_pairs.extend(distinct[..n - 2].iter().map(|&v| (u, v)));
        }
        let train = Interactions::from_pairs(num_users, num_items, &train_pairs);
        Self {
            name: name.into(),
            train,
            dev,
            test,
            item_categories,
            num_categories,
        }
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.train.num_users()
    }

    /// Number of items.
    pub fn num_items(&self) -> usize {
        self.train.num_items()
    }

    /// Whether the held-out pairs are disjoint from train (sanity invariant,
    /// checked by tests and the harness in debug builds).
    // audit:allow(orphan-pub) — test support: split invariants of every generator
    pub fn split_is_consistent(&self) -> bool {
        self.dev
            .iter()
            .chain(self.test.iter())
            .all(|h| !self.train.contains(h.user, h.item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histories() -> Vec<Vec<ItemId>> {
        vec![
            vec![0, 1, 2, 3],    // enough: train {0,1}, dev 2, test 3
            vec![4, 4, 5],       // dup collapses to {4,5}: too short, all to train
            vec![1, 2, 0, 2, 4], // distinct [1,2,0,4]: train {1,2}, dev 0, test 4
            vec![],              // cold user
        ]
    }

    fn split() -> Dataset {
        Dataset::leave_one_out("toy", 4, 6, &histories(), vec![], 0)
    }

    #[test]
    fn last_goes_to_test_second_last_to_dev() {
        let d = split();
        assert_eq!(
            d.test,
            vec![HeldOut { user: 0, item: 3 }, HeldOut { user: 2, item: 4 }]
        );
        assert_eq!(
            d.dev,
            vec![HeldOut { user: 0, item: 2 }, HeldOut { user: 2, item: 0 }]
        );
    }

    #[test]
    fn short_histories_stay_in_train() {
        let d = split();
        assert!(d.train.contains(1, 4));
        assert!(d.train.contains(1, 5));
        // User 1 appears in no held-out pair.
        assert!(d.test.iter().all(|h| h.user != 1));
        assert!(d.dev.iter().all(|h| h.user != 1));
    }

    #[test]
    fn split_is_disjoint() {
        let d = split();
        assert!(d.split_is_consistent());
    }

    #[test]
    fn train_counts() {
        let d = split();
        // u0: {0,1}; u1: {4,5}; u2: {1,2}; u3: {}
        assert_eq!(d.train.num_interactions(), 6);
        assert_eq!(d.train.items_of(0), &[0, 1]);
        assert_eq!(d.train.items_of(2), &[1, 2]);
    }

    #[test]
    fn duplicates_resolve_to_first_occurrence() {
        // history [2, 1, 2, 0, 1, 3]: distinct order [2, 1, 0, 3]
        let d = Dataset::leave_one_out("dup", 1, 4, &[vec![2, 1, 2, 0, 1, 3]], vec![], 0);
        assert_eq!(d.test[0].item, 3);
        assert_eq!(d.dev[0].item, 0);
        assert_eq!(d.train.items_of(0), &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "one (possibly empty) history per user")]
    fn history_count_must_match() {
        let _ = Dataset::leave_one_out("bad", 3, 4, &[vec![0]], vec![], 0);
    }
}
