//! Compressed sparse interaction store.
//!
//! [`Interactions`] holds the binary implicit-feedback matrix `X` of the
//! paper in both orientations: user→items (CSR) and item→users (CSC-like).
//! Item lists per user are sorted, so membership (`X_uv = 1?`) is a binary
//! search over a contiguous slice — the negative samplers call this in their
//! rejection loop, so it is the hottest read path in training after the
//! similarity kernels.

use crate::{ItemId, UserId};

/// An immutable bipartite interaction graph between `num_users` users and
/// `num_items` items.
#[derive(Clone, Debug)]
pub struct Interactions {
    num_users: usize,
    num_items: usize,
    /// CSR offsets: user `u`'s items live at `items[user_off[u]..user_off[u+1]]`.
    user_off: Vec<usize>,
    /// Sorted item ids, grouped by user.
    items: Vec<ItemId>,
    /// CSC offsets: item `v`'s users live at `users[item_off[v]..item_off[v+1]]`.
    item_off: Vec<usize>,
    /// Sorted user ids, grouped by item.
    users: Vec<UserId>,
}

impl Interactions {
    /// Builds the store from raw `(user, item)` pairs.
    ///
    /// Duplicate pairs are collapsed (implicit feedback is binary — the
    /// paper's `X_uv ∈ {0, 1}`). Pairs referencing ids outside the declared
    /// ranges panic: silently dropping data would corrupt every downstream
    /// statistic.
    pub fn from_pairs(num_users: usize, num_items: usize, pairs: &[(UserId, ItemId)]) -> Self {
        for &(u, v) in pairs {
            assert!(
                (u as usize) < num_users,
                "user id {u} out of range ({num_users} users)"
            );
            assert!(
                (v as usize) < num_items,
                "item id {v} out of range ({num_items} items)"
            );
        }

        // Counting sort into CSR by user.
        let mut user_deg = vec![0usize; num_users];
        for &(u, _) in pairs {
            user_deg[u as usize] += 1;
        }
        let mut user_off = Vec::with_capacity(num_users + 1);
        user_off.push(0);
        for d in &user_deg {
            user_off.push(user_off.last().unwrap() + d);
        }
        let mut items = vec![0 as ItemId; pairs.len()];
        let mut cursor = user_off.clone();
        for &(u, v) in pairs {
            let c = &mut cursor[u as usize];
            items[*c] = v;
            *c += 1;
        }
        // Sort + dedup each user's slice, then compact.
        let mut dedup_items: Vec<ItemId> = Vec::with_capacity(items.len());
        let mut new_off = Vec::with_capacity(num_users + 1);
        new_off.push(0usize);
        for u in 0..num_users {
            let s = &mut items[user_off[u]..user_off[u + 1]];
            s.sort_unstable();
            let start = dedup_items.len();
            for &v in s.iter() {
                if dedup_items.len() == start || *dedup_items.last().unwrap() != v {
                    dedup_items.push(v);
                }
            }
            new_off.push(dedup_items.len());
        }

        // Build the item→user orientation from the deduped data.
        let mut item_deg = vec![0usize; num_items];
        for &v in &dedup_items {
            item_deg[v as usize] += 1;
        }
        let mut item_off = Vec::with_capacity(num_items + 1);
        item_off.push(0);
        for d in &item_deg {
            item_off.push(item_off.last().unwrap() + d);
        }
        let mut users = vec![0 as UserId; dedup_items.len()];
        let mut icursor = item_off.clone();
        for u in 0..num_users {
            for &v in &dedup_items[new_off[u]..new_off[u + 1]] {
                let c = &mut icursor[v as usize];
                users[*c] = u as UserId;
                *c += 1;
            }
        }
        // Users arrive in increasing order (outer loop over u), so each
        // item's user slice is already sorted.

        Self {
            num_users,
            num_items,
            user_off: new_off,
            items: dedup_items,
            item_off,
            users,
        }
    }

    /// Number of users (rows of `X`).
    #[inline]
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Number of items (columns of `X`).
    #[inline]
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Total number of distinct interactions (`‖X‖₀`).
    #[inline]
    pub fn num_interactions(&self) -> usize {
        self.items.len()
    }

    /// Density of `X` as a fraction in `[0, 1]`.
    pub fn density(&self) -> f64 {
        if self.num_users == 0 || self.num_items == 0 {
            return 0.0;
        }
        self.num_interactions() as f64 / (self.num_users as f64 * self.num_items as f64)
    }

    /// Sorted items user `u` interacted with (`V_u` in the paper).
    #[inline]
    pub fn items_of(&self, u: UserId) -> &[ItemId] {
        let u = u as usize;
        &self.items[self.user_off[u]..self.user_off[u + 1]]
    }

    /// Sorted users that interacted with item `v` (`U_v` in the paper).
    #[inline]
    pub fn users_of(&self, v: ItemId) -> &[UserId] {
        let v = v as usize;
        &self.users[self.item_off[v]..self.item_off[v + 1]]
    }

    /// User `u`'s interaction count (`freq(u)` of Eq. 10).
    #[inline]
    pub fn user_degree(&self, u: UserId) -> usize {
        self.items_of(u).len()
    }

    /// Item `v`'s interaction count (popularity).
    #[inline]
    pub fn item_degree(&self, v: ItemId) -> usize {
        self.users_of(v).len()
    }

    /// Whether `X_uv = 1`. Binary search over the user's sorted item list.
    #[inline]
    pub fn contains(&self, u: UserId, v: ItemId) -> bool {
        self.items_of(u).binary_search(&v).is_ok()
    }

    /// Iterates all `(user, item)` pairs in user order.
    // audit:allow(orphan-pub) — test support: generator determinism tests compare pair streams
    pub fn iter_pairs(&self) -> impl Iterator<Item = (UserId, ItemId)> + '_ {
        (0..self.num_users as UserId)
            .flat_map(move |u| self.items_of(u).iter().map(move |&v| (u, v)))
    }

    /// Per-item degrees as `f32`.
    pub fn item_degrees_f32(&self) -> Vec<f32> {
        (0..self.num_items as ItemId)
            .map(|v| self.item_degree(v) as f32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Interactions {
        // 3 users, 4 items.
        // u0: {0, 1}; u1: {1, 2, 3}; u2: {} (cold user)
        Interactions::from_pairs(3, 4, &[(0, 1), (0, 0), (1, 3), (1, 1), (1, 2)])
    }

    #[test]
    fn counts_and_density() {
        let x = sample();
        assert_eq!(x.num_users(), 3);
        assert_eq!(x.num_items(), 4);
        assert_eq!(x.num_interactions(), 5);
        assert!((x.density() - 5.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn items_are_sorted_and_deduped() {
        let x = Interactions::from_pairs(1, 5, &[(0, 3), (0, 1), (0, 3), (0, 1), (0, 4)]);
        assert_eq!(x.items_of(0), &[1, 3, 4]);
        assert_eq!(x.num_interactions(), 3);
    }

    #[test]
    fn both_orientations_agree() {
        let x = sample();
        assert_eq!(x.items_of(0), &[0, 1]);
        assert_eq!(x.items_of(1), &[1, 2, 3]);
        assert_eq!(x.items_of(2), &[] as &[ItemId]);
        assert_eq!(x.users_of(0), &[0]);
        assert_eq!(x.users_of(1), &[0, 1]);
        assert_eq!(x.users_of(2), &[1]);
        assert_eq!(x.users_of(3), &[1]);
    }

    #[test]
    fn membership() {
        let x = sample();
        assert!(x.contains(0, 1));
        assert!(!x.contains(0, 2));
        assert!(!x.contains(2, 0));
    }

    #[test]
    fn degrees() {
        let x = sample();
        assert_eq!(x.user_degree(1), 3);
        assert_eq!(x.item_degree(1), 2);
        assert_eq!(x.item_degrees_f32(), vec![1.0, 2.0, 1.0, 1.0]);
    }

    #[test]
    fn iter_pairs_roundtrip() {
        let x = sample();
        let pairs: Vec<_> = x.iter_pairs().collect();
        let y = Interactions::from_pairs(3, 4, &pairs);
        assert_eq!(y.num_interactions(), x.num_interactions());
        for u in 0..3 {
            assert_eq!(x.items_of(u), y.items_of(u));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_items() {
        let _ = Interactions::from_pairs(2, 2, &[(0, 5)]);
    }

    #[test]
    fn empty_graph_is_fine() {
        let x = Interactions::from_pairs(4, 4, &[]);
        assert_eq!(x.num_interactions(), 0);
        assert_eq!(x.density(), 0.0);
        assert!(x.items_of(3).is_empty());
    }
}
