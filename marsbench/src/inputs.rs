//! Set-up: everything the program under test receives, generated from the
//! seed — the dataset, the request pool, the direct-retrieval query set,
//! the open-loop arrival schedule and the snapshot check pairs. The same
//! `(workload, seed, open-loop length)` always yields the same inputs.

use crate::harness::arrival_schedule;
use crate::spec::{Workload, K, REQUEST_POOL, SEEN_PER_USER, SHORTLIST_ITEMS, SHORTLIST_SETS};
use crate::spec::{SNAPSHOT_CHECK_PAIRS, SPOT_CHECK_EVERY};
use mars_data::{generate_latent_metric, Dataset, ItemId, LatentMetricConfig, UserId};
use mars_runtime::CounterRng;
use mars_serve::RecRequest;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

/// Counter streams under the run seed, one per generated input.
const STREAM_SEEN: u64 = 1;
const STREAM_REQUESTS: u64 = 2;
const STREAM_SHORTLISTS: u64 = 3;
const STREAM_SCHEDULE: u64 = 4;
const STREAM_PAIRS: u64 = 5;
const STREAM_QUERIES: u64 = 6;

pub struct Inputs {
    pub data: Dataset,
    /// The served request mix; load loops cycle through it by index.
    pub requests: Vec<RecRequest>,
    /// Plain top-`K` requests for the direct-retrieval phases.
    pub queries: Vec<RecRequest>,
    /// Open-loop arrival offsets, long enough for the longest open loop.
    pub schedule: Vec<Duration>,
    /// Pairs on which a loaded snapshot must score like the trained model.
    pub check_pairs: Vec<(UserId, ItemId)>,
}

fn distinct_sorted(rng: &mut CounterRng, below: usize, count: usize) -> Arc<[ItemId]> {
    let count = count.min(below);
    let mut set = BTreeSet::new();
    while set.len() < count {
        set.insert(rng.gen_below(below as u64) as ItemId);
    }
    set.into_iter().collect::<Vec<_>>().into()
}

pub fn generate(w: &Workload, seed: u64, max_open_secs: f64) -> Inputs {
    let data = generate_latent_metric(
        w.name,
        &LatentMetricConfig {
            num_users: w.users,
            num_items: w.items,
            num_interactions: w.interactions,
            seed,
            ..LatentMetricConfig::default()
        },
    )
    .dataset;

    let mut rng = CounterRng::keyed(seed, STREAM_SEEN);
    let seen: Vec<Arc<[ItemId]>> = (0..w.users)
        .map(|_| distinct_sorted(&mut rng, w.items, SEEN_PER_USER))
        .collect();
    let mut rng = CounterRng::keyed(seed, STREAM_SHORTLISTS);
    let shortlists: Vec<Arc<[ItemId]>> = (0..SHORTLIST_SETS)
        .map(|_| distinct_sorted(&mut rng, w.items, SHORTLIST_ITEMS))
        .collect();

    let plain = |user: usize, k: usize| {
        RecRequest::top_k(user as UserId, k).excluding(Arc::clone(&seen[user]))
    };
    let mut rng = CounterRng::keyed(seed, STREAM_REQUESTS);
    let requests = (0..REQUEST_POOL)
        .map(|_| {
            let user = rng.gen_below(w.users as u64) as usize;
            // Every request draws its shape word, so the user sequence is
            // the same with and without the churn mix.
            let shape = rng.gen_below(4);
            let set = rng.gen_below(SHORTLIST_SETS as u64) as usize;
            match (w.churn, shape) {
                (true, 2) => plain(user, 50),
                (true, 3) => plain(user, K).among(Arc::clone(&shortlists[set])),
                _ => plain(user, K),
            }
        })
        .collect();
    let mut rng = CounterRng::keyed(seed, STREAM_QUERIES);
    let queries = (0..w.queries_per_rep)
        .map(|_| plain(rng.gen_below(w.users as u64) as usize, K))
        .collect();

    let arrivals = (w.open_rate_qps * max_open_secs).ceil() as usize + SPOT_CHECK_EVERY;
    let schedule = arrival_schedule(seed, STREAM_SCHEDULE, w.open_rate_qps, arrivals);

    let mut rng = CounterRng::keyed(seed, STREAM_PAIRS);
    let check_pairs = (0..SNAPSHOT_CHECK_PAIRS)
        .map(|_| {
            (
                rng.gen_below(w.users as u64) as UserId,
                rng.gen_below(w.items as u64) as ItemId,
            )
        })
        .collect();

    Inputs {
        data,
        requests,
        queries,
        schedule,
        check_pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Scale, WORKLOADS};

    fn shape(r: &RecRequest) -> (UserId, usize, Vec<ItemId>, Option<Vec<ItemId>>) {
        (
            r.user,
            r.k,
            r.seen.to_vec(),
            r.candidates.as_ref().map(|c| c.to_vec()),
        )
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let w = WORKLOADS[2].at(Scale::Smoke);
        let a = generate(&w, 11, 0.5);
        let b = generate(&w, 11, 0.5);
        let c = generate(&w, 12, 0.5);
        let shapes = |i: &Inputs| i.requests.iter().map(shape).collect::<Vec<_>>();
        assert_eq!(shapes(&a), shapes(&b));
        assert_ne!(shapes(&a), shapes(&c));
        assert_eq!(a.schedule, b.schedule);
        assert_ne!(a.schedule, c.schedule);
        assert_eq!(a.check_pairs, b.check_pairs);
        assert_eq!(a.data.test, b.data.test);
        assert_ne!(a.data.test, c.data.test);
        assert_eq!(
            a.data.train.iter_pairs().collect::<Vec<_>>(),
            b.data.train.iter_pairs().collect::<Vec<_>>()
        );
    }

    #[test]
    fn churn_mix_has_all_three_shapes_and_plain_workloads_one() {
        let churn = generate(&WORKLOADS[2].at(Scale::Smoke), 3, 0.2);
        let top50 = churn.requests.iter().filter(|r| r.k == 50).count();
        let short = churn
            .requests
            .iter()
            .filter(|r| r.candidates.is_some())
            .count();
        let n = churn.requests.len() as f64;
        assert!(
            (top50 as f64 / n - 0.25).abs() < 0.03,
            "top-50 share {top50}"
        );
        assert!(
            (short as f64 / n - 0.25).abs() < 0.03,
            "shortlist share {short}"
        );
        let plain = generate(&WORKLOADS[0].at(Scale::Smoke), 3, 0.2);
        assert!(plain
            .requests
            .iter()
            .all(|r| r.k == K && r.candidates.is_none()));
        for r in churn.requests.iter().chain(&plain.requests) {
            assert_eq!(r.seen.len(), SEEN_PER_USER);
            assert!(
                r.seen.windows(2).all(|w| w[0] < w[1]),
                "seen must be sorted"
            );
        }
    }
}
