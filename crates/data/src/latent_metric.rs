//! Latent *metric* multi-facet generator — the geometric world of the
//! paper's Figure 1, used by the benchmark profiles.
//!
//! The first generator ([`crate::synthetic`]) plants a categorical mixture
//! (user mixes categories, category owns items). That process is low-rank
//! *bilinear*, which is exactly the model class MF baselines fit — it
//! cannot reproduce the paper's central phenomenon (metric learning and
//! multi-facet spaces beating MF). This generator plants the structure the
//! paper actually argues from:
//!
//! * `F` independent **facets**, each partitioning the catalogue into `C`
//!   **clusters** — an item draws its cluster independently *per facet*
//!   (a movie can sit in the "romance" cluster of the genre facet and the
//!   "comedian X" cluster of the cast facet), from a mild skew so some
//!   clusters are mainstream and some niche;
//! * a **user** holds a Dirichlet mixture over facets and, within each
//!   facet, a sharp Dirichlet preference over clusters;
//! * an **interaction** picks facet ~ user's facet mixture, cluster ~ the
//!   user's in-facet preference, then an item of that cluster by
//!   within-cluster popularity.
//!
//! Because cluster assignments are independent across facets, two items
//! routinely share a cluster in facet A while sitting in different clusters
//! of facet B — the "items 2 and 4 must be simultaneously close and far"
//! conflict that no single metric space can resolve (Figure 1b) but `K`
//! facet spaces resolve trivially (Figure 1c). The ground-truth category
//! labels exported for the case-study experiments are the per-facet cluster
//! ids, `label = facet·C + cluster`.

use crate::alias::AliasTable;
use crate::dataset::Dataset;
use crate::synthetic::SyntheticDataset;
use crate::ItemId;
use rand::rngs::StdRng; // audit:allow(determinism) — only ever seeded (init/datagen)
use rand::{Rng, SeedableRng};

/// Configuration of the latent-metric generator.
#[derive(Clone, Debug)]
pub struct LatentMetricConfig {
    pub num_users: usize,
    pub num_items: usize,
    /// Target number of interactions (dedup happens at sampling time).
    pub num_interactions: usize,
    /// Number of latent facet spaces `F`.
    pub facets: usize,
    /// Clusters per facet `C`. The export label space has `F·C` categories.
    pub clusters_per_facet: usize,
    /// Dirichlet concentration of the user facet mixture (small = users
    /// care about few facets).
    pub facet_alpha: f64,
    /// Dirichlet concentration of per-facet cluster preferences (small =
    /// sharp tastes inside a facet).
    pub cluster_alpha: f64,
    /// Zipf exponent of within-cluster item popularity.
    pub item_popularity_exp: f64,
    /// Zipf exponent of user activity.
    pub user_activity_exp: f64,
    pub seed: u64,
}

impl Default for LatentMetricConfig {
    fn default() -> Self {
        Self {
            num_users: 500,
            num_items: 400,
            num_interactions: 10_000,
            facets: 4,
            clusters_per_facet: 12,
            facet_alpha: 0.3,
            cluster_alpha: 0.12,
            item_popularity_exp: 0.6,
            user_activity_exp: 0.6,
            seed: 42,
        }
    }
}

/// Generates a dataset from the latent-metric process. Returns the same
/// [`SyntheticDataset`] shape as the categorical generator: `user_mixtures`
/// holds the facet mixtures `w_u`, and `interaction_categories` the label
/// (`facet·C + cluster`) that caused each interaction.
pub fn generate_latent_metric(
    name: impl Into<String>,
    cfg: &LatentMetricConfig,
) -> SyntheticDataset {
    assert!(cfg.num_users > 0 && cfg.num_items > 0);
    assert!(cfg.facets > 0 && cfg.clusters_per_facet > 0);
    assert!(cfg.facets * cfg.clusters_per_facet <= u16::MAX as usize);
    assert!(cfg.facet_alpha > 0.0 && cfg.cluster_alpha > 0.0);
    let mut rng = StdRng::seed_from_u64(cfg.seed); // audit:allow(determinism) — seeded: pure function of the seed
    let f_count = cfg.facets;
    let c_count = cfg.clusters_per_facet;

    // --- Item cluster assignments per facet -----------------------------
    // Mild skew over clusters so some are mainstream, some niche.
    let cluster_weights: Vec<f32> = (0..c_count)
        .map(|c| 1.0 / (1.0 + c as f32).powf(0.3))
        .collect();
    let cluster_table = AliasTable::new(&cluster_weights);
    let mut members: Vec<Vec<Vec<ItemId>>> = vec![vec![Vec::new(); c_count]; f_count];
    let mut item_categories: Vec<Vec<u16>> = Vec::with_capacity(cfg.num_items);
    for v in 0..cfg.num_items {
        let mut labels = Vec::with_capacity(f_count);
        for f in 0..f_count {
            let c = cluster_table.sample(&mut rng) as u16;
            members[f][c as usize].push(v as ItemId);
            labels.push((f * c_count) as u16 + c);
        }
        item_categories.push(labels);
    }
    // No cluster may be empty (tiny configs): recruit one item per empty
    // cluster (its label list gains the new assignment too).
    for f in 0..f_count {
        for c in 0..c_count {
            if members[f][c].is_empty() {
                let v = ((f * c_count + c) % cfg.num_items) as ItemId;
                members[f][c].push(v);
                item_categories[v as usize].push((f * c_count + c) as u16);
            }
        }
    }

    // --- Within-cluster popularity tables --------------------------------
    let pop_tables: Vec<Vec<AliasTable>> = members
        .iter()
        .map(|per_cluster| {
            per_cluster
                .iter()
                .map(|items| {
                    let w: Vec<f32> = (0..items.len())
                        .map(|r| (1.0 / (1.0 + r as f64).powf(cfg.item_popularity_exp)) as f32)
                        .collect();
                    AliasTable::new(&w)
                })
                .collect()
        })
        .collect();

    // --- Users ------------------------------------------------------------
    // Facet mixture w_u and, per facet, cluster preferences p_{u,f}.
    let mut facet_mixtures: Vec<Vec<f32>> = Vec::with_capacity(cfg.num_users);
    let mut facet_tables: Vec<AliasTable> = Vec::with_capacity(cfg.num_users);
    let mut cluster_pref_tables: Vec<Vec<AliasTable>> = Vec::with_capacity(cfg.num_users);
    for _ in 0..cfg.num_users {
        let w = crate::synthetic::dirichlet_pub(&mut rng, f_count, cfg.facet_alpha);
        facet_tables.push(AliasTable::new(&w));
        facet_mixtures.push(w);
        let prefs: Vec<AliasTable> = (0..f_count)
            .map(|_| {
                let p = crate::synthetic::dirichlet_pub(&mut rng, c_count, cfg.cluster_alpha);
                AliasTable::new(&p)
            })
            .collect();
        cluster_pref_tables.push(prefs);
    }

    // --- Activity ----------------------------------------------------------
    let mut ranks: Vec<usize> = (0..cfg.num_users).collect();
    for i in (1..ranks.len()).rev() {
        let j = rng.gen_range(0..=i);
        ranks.swap(i, j);
    }
    let activity: Vec<f32> = (0..cfg.num_users)
        .map(|u| (1.0 / (1.0 + ranks[u] as f64).powf(cfg.user_activity_exp)) as f32)
        .collect();
    let user_table = AliasTable::new(&activity);

    // --- Interactions --------------------------------------------------------
    let mut histories: Vec<Vec<ItemId>> = vec![Vec::new(); cfg.num_users];
    let mut history_labels: Vec<Vec<u16>> = vec![Vec::new(); cfg.num_users];
    let mut produced = 0usize;
    let mut attempts = 0usize;
    let budget = cfg.num_interactions * 8;
    while produced < cfg.num_interactions && attempts < budget {
        attempts += 1;
        let u = user_table.sample(&mut rng);
        let f = facet_tables[u].sample(&mut rng);
        let c = cluster_pref_tables[u][f].sample(&mut rng);
        let items = &members[f][c];
        let v = items[pop_tables[f][c].sample(&mut rng)];
        if histories[u].contains(&v) {
            continue;
        }
        histories[u].push(v);
        history_labels[u].push((f * c_count + c) as u16);
        produced += 1;
    }

    let dataset = Dataset::leave_one_out(
        name,
        cfg.num_users,
        cfg.num_items,
        &histories,
        item_categories,
        f_count * c_count,
    );
    SyntheticDataset {
        dataset,
        user_mixtures: facet_mixtures,
        interaction_categories: history_labels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LatentMetricConfig {
        LatentMetricConfig {
            num_users: 80,
            num_items: 60,
            num_interactions: 1600,
            facets: 3,
            clusters_per_facet: 5,
            seed: 9,
            ..Default::default()
        }
    }

    #[test]
    fn deterministic_and_consistent() {
        let a = generate_latent_metric("a", &tiny());
        let b = generate_latent_metric("b", &tiny());
        let pa: Vec<_> = a.dataset.train.iter_pairs().collect();
        let pb: Vec<_> = b.dataset.train.iter_pairs().collect();
        assert_eq!(pa, pb);
        assert!(a.dataset.split_is_consistent());
    }

    #[test]
    fn labels_cover_facet_times_cluster_space() {
        let s = generate_latent_metric("t", &tiny());
        assert_eq!(s.dataset.num_categories, 15);
        // Every item carries one label per facet (possibly more after
        // empty-cluster recruitment).
        for cats in &s.dataset.item_categories {
            assert!(cats.len() >= 3);
            assert!(cats.iter().all(|&c| (c as usize) < 15));
        }
    }

    #[test]
    fn items_have_independent_clusters_across_facets() {
        // The conflict mechanism: two items sharing a facet-0 cluster must
        // frequently differ in facet 1. With 5 clusters and independent
        // assignment, agreement in facet 1 given agreement in facet 0
        // should be ~weights², far below 1.
        let s = generate_latent_metric("t", &tiny());
        let cats = &s.dataset.item_categories;
        let mut share0 = 0usize;
        let mut share_both = 0usize;
        for i in 0..cats.len() {
            for j in (i + 1)..cats.len() {
                if cats[i][0] == cats[j][0] {
                    share0 += 1;
                    if cats[i][1] == cats[j][1] {
                        share_both += 1;
                    }
                }
            }
        }
        assert!(share0 > 0);
        let agree = share_both as f64 / share0 as f64;
        assert!(agree < 0.8, "facet clusters too correlated: {agree}");
    }

    #[test]
    fn facet_mixtures_are_distributions() {
        let s = generate_latent_metric("t", &tiny());
        for w in &s.user_mixtures {
            assert_eq!(w.len(), 3);
            let sum: f32 = w.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn interaction_labels_match_item_assignment() {
        // Every recorded cause label must be one of the caused item's
        // labels. We can't recover per-interaction items after the split,
        // but all labels must at least be valid.
        let s = generate_latent_metric("t", &tiny());
        for labels in &s.interaction_categories {
            assert!(labels.iter().all(|&l| (l as usize) < 15));
        }
    }

    #[test]
    fn reaches_target_volume() {
        let s = generate_latent_metric("t", &tiny());
        let total = s.dataset.train.num_interactions() + s.dataset.dev.len() + s.dataset.test.len();
        assert!(total >= 1500, "only {total} interactions generated");
    }
}
