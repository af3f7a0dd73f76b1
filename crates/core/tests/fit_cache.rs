//! Behaviour of the sharded, capacity-bounded [`FitCache`]: LRU eviction
//! order, the capacity bound, and — most importantly — that caching (with or
//! without evictions, across any shard layout) never changes a prediction:
//! cached and cold results are byte-identical.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use estima_core::engine::FitKey;
use estima_core::prelude::*;
use estima_core::FitOptions;

/// A lookup's inputs, held so that its [`FitKey`] can borrow them.
struct Inputs {
    xs: [f64; 4],
    ys: [f64; 4],
    options: FitOptions,
    scope: Option<(&'static str, u64)>,
}

impl Inputs {
    fn key(&self) -> FitKey<'_> {
        match self.scope {
            Some((series, version)) => {
                FitKey::scoped(&self.xs, &self.ys, &self.options, series, version)
            }
            None => FitKey::new(&self.xs, &self.ys, &self.options),
        }
    }
}

/// The inputs of a synthetic series distinguished by `tag`.
fn key(tag: u64) -> Inputs {
    Inputs {
        xs: [1.0, 2.0, 3.0, tag as f64 + 10.0],
        ys: [1.0, 4.0, 9.0, (tag as f64).powi(2)],
        options: FitOptions::default(),
        scope: None,
    }
}

/// Populate-or-hit `inputs` in `cache`, counting how many times the compute
/// closure actually ran.
fn touch(cache: &FitCache, inputs: Inputs, computes: &AtomicUsize) {
    cache
        .get_or_compute(inputs.key(), || {
            computes.fetch_add(1, Ordering::Relaxed);
            Ok(Vec::new().into())
        })
        .unwrap();
}

#[test]
fn lru_eviction_order_is_exact() {
    // One shard so all keys share one LRU queue; room for two entries.
    let cache = FitCache::with_shards_and_capacity(1, 2);
    let computes = AtomicUsize::new(0);

    touch(&cache, key(1), &computes); // miss: [1]
    touch(&cache, key(2), &computes); // miss: [1, 2]
    touch(&cache, key(1), &computes); // hit, refreshes 1: [2, 1]
    touch(&cache, key(3), &computes); // miss, evicts the LRU entry (2): [1, 3]
    assert_eq!(computes.load(Ordering::Relaxed), 3);
    assert_eq!(cache.evictions(), 1);

    // 1 was refreshed by its hit, so it survived the eviction...
    touch(&cache, key(1), &computes);
    assert_eq!(computes.load(Ordering::Relaxed), 3, "key 1 was evicted");
    // ...while 2 (the least recently used) was the one evicted.
    touch(&cache, key(2), &computes);
    assert_eq!(
        computes.load(Ordering::Relaxed),
        4,
        "key 2 survived eviction"
    );
    assert_eq!(cache.stats().0, 2, "expected exactly the two hits on key 1");
}

#[test]
fn capacity_bound_holds_across_shards() {
    let cache = FitCache::with_shards_and_capacity(4, 8);
    assert_eq!(cache.shards(), 4);
    assert_eq!(cache.capacity(), 8);
    let computes = AtomicUsize::new(0);
    for tag in 0..200 {
        touch(&cache, key(tag), &computes);
    }
    assert!(
        cache.len() <= cache.capacity(),
        "cache holds {} entries, capacity {}",
        cache.len(),
        cache.capacity()
    );
    assert_eq!(computes.load(Ordering::Relaxed), 200);
    assert!(cache.evictions() >= 200 - cache.capacity());
    // A fresh default cache reports its configured defaults.
    let default = FitCache::new();
    assert!(default.is_empty());
    assert_eq!(default.hit_rate(), 0.0);
}

#[test]
fn same_key_lands_on_same_shard_deterministically() {
    // The FNV shard hash depends only on the key contents, so repeated
    // lookups of one key touch one shard: with capacity 1 per shard, two
    // alternating keys on the *same* shard would evict each other (4
    // computes), while keys on different shards coexist. Either way the
    // replay below must behave identically run to run.
    let cache_a = FitCache::with_shards_and_capacity(8, 8);
    let cache_b = FitCache::with_shards_and_capacity(8, 8);
    let computes_a = AtomicUsize::new(0);
    let computes_b = AtomicUsize::new(0);
    for tag in [1, 2, 1, 2, 3, 1] {
        touch(&cache_a, key(tag), &computes_a);
        touch(&cache_b, key(tag), &computes_b);
    }
    assert_eq!(
        computes_a.load(Ordering::Relaxed),
        computes_b.load(Ordering::Relaxed),
        "identical lookup sequences must hit/miss identically"
    );
    assert_eq!(cache_a.stats(), cache_b.stats());
}

#[test]
fn keys_differing_only_in_exponents_spread_across_shards() {
    // The shard hash eats a word per multiply, and a multiply only carries
    // bits upward, so series that differ only in their values' exponents
    // differ only in the running hash's high bits. The shard index reads
    // the low bits: without a final fold every key below lands on one
    // shard, and with one entry per shard the cache would hold one key.
    let cache = FitCache::with_shards_and_capacity(16, 16);
    let computes = AtomicUsize::new(0);
    for power in 0..64 {
        let inputs = Inputs {
            xs: [1.0, 2.0, 3.0, 4.0],
            ys: [1.0, 4.0, 9.0, 2f64.powi(power)],
            ..key(0)
        };
        touch(&cache, inputs, &computes);
    }
    assert_eq!(computes.load(Ordering::Relaxed), 64);
    assert!(
        cache.len() >= 8,
        "64 keys filled only {} of 16 shards",
        cache.len()
    );
}

/// [`key`]'s inputs for `tag`, scoped to `series` at `version`.
fn scoped_key(series: &'static str, version: u64, tag: u64) -> Inputs {
    Inputs {
        scope: Some((series, version)),
        ..key(tag)
    }
}

#[test]
fn invalidate_series_never_touches_unrelated_entries() {
    // One shard so every series shares one map: a scan-based invalidation
    // would walk (and a buggy one could disturb) the unrelated entries.
    let cache = FitCache::with_shards_and_capacity(1, 64);
    let computes = AtomicUsize::new(0);

    // Three populations: series "a" (3 entries, across two versions),
    // series "b" (2 entries), and unscoped keys (2 entries).
    for tag in 0..2 {
        touch(&cache, scoped_key("a", 1, tag), &computes);
    }
    touch(&cache, scoped_key("a", 2, 0), &computes);
    for tag in 0..2 {
        touch(&cache, scoped_key("b", 1, tag), &computes);
    }
    for tag in 0..2 {
        touch(&cache, key(tag), &computes);
    }
    assert_eq!(computes.load(Ordering::Relaxed), 7);
    assert_eq!(cache.len(), 7);

    // Invalidating "a" removes exactly its three entries, nothing else.
    assert_eq!(cache.invalidate_series("a"), 3);
    assert_eq!(cache.invalidations(), 3);
    assert_eq!(cache.len(), 4);

    // Every unrelated entry is still resident: re-looking them up hits the
    // cache without recomputing.
    for tag in 0..2 {
        touch(&cache, scoped_key("b", 1, tag), &computes);
        touch(&cache, key(tag), &computes);
    }
    assert_eq!(
        computes.load(Ordering::Relaxed),
        7,
        "invalidate_series(\"a\") disturbed entries it does not own"
    );

    // The "a" entries really are gone — both versions recompute...
    for tag in 0..2 {
        touch(&cache, scoped_key("a", 1, tag), &computes);
    }
    touch(&cache, scoped_key("a", 2, 0), &computes);
    assert_eq!(computes.load(Ordering::Relaxed), 10);

    // ...and a second invalidation finds the reinserted entries again (the
    // series index is rebuilt on insert, not consumed once).
    assert_eq!(cache.invalidate_series("a"), 3);
    assert_eq!(cache.invalidate_series("a"), 0, "index left stale keys");
    assert_eq!(cache.invalidate_series("missing"), 0);
    assert_eq!(cache.invalidations(), 6);
}

fn demo_set(name: &str) -> MeasurementSet {
    let mut set = MeasurementSet::new(name, 2.1);
    for cores in 1..=10u32 {
        let n = cores as f64;
        set.push(
            Measurement::new(cores, 30.0 / n + 1.0)
                .with_stall(
                    StallCategory::backend("rob_full"),
                    2.0e9 * (1.0 + 0.08 * n * n),
                )
                .with_stall(StallCategory::backend("ls_full"), 1.0e9 * (1.0 + 0.3 * n)),
        );
    }
    set
}

fn assert_bit_identical(a: &Prediction, b: &Prediction) {
    assert_eq!(a.predicted_time.len(), b.predicted_time.len());
    for ((c1, t1), (c2, t2)) in a.predicted_time.iter().zip(&b.predicted_time) {
        assert_eq!(c1, c2);
        assert_eq!(t1.to_bits(), t2.to_bits());
    }
    for ((c1, s1), (c2, s2)) in a.stalls_per_core.iter().zip(&b.stalls_per_core) {
        assert_eq!(c1, c2);
        assert_eq!(s1.to_bits(), s2.to_bits());
    }
}

#[test]
fn cached_cold_and_evicting_predictions_are_byte_identical() {
    let config = EstimaConfig::default().with_parallelism(1);
    let target = TargetSpec::cores(40);
    let jobs: Vec<(MeasurementSet, TargetSpec)> = (0..4)
        .flat_map(|_| {
            vec![
                (demo_set("alpha"), target.clone()),
                (demo_set("beta"), target.clone()),
            ]
        })
        .collect();

    // Cold: no cache at all.
    let cold: Vec<Prediction> = jobs
        .iter()
        .map(|(set, target)| Estima::new(config.clone()).predict(set, target).unwrap())
        .collect();

    // Warm: ample capacity — repeated jobs are pure cache hits.
    let warm_batch = BatchPredictor::with_cache(config.clone(), Arc::new(FitCache::new()));
    let warm = warm_batch.predict_all(jobs.clone());
    let (warm_hits, _) = warm_batch.cache().stats();
    assert!(warm_hits > 0, "repeated jobs should hit the roomy cache");

    // Thrashing: a one-entry cache evicts constantly between the two
    // interleaved workloads.
    let tiny = Arc::new(FitCache::with_shards_and_capacity(1, 1));
    let tiny_batch = BatchPredictor::with_cache(config.clone(), Arc::clone(&tiny));
    let thrashed = tiny_batch.predict_all(jobs);
    assert!(tiny.evictions() > 0, "one-entry cache never evicted");
    assert!(tiny.len() <= 1);

    for ((cold, warm), thrashed) in cold.iter().zip(&warm).zip(&thrashed) {
        let warm = warm.as_ref().unwrap();
        let thrashed = thrashed.as_ref().unwrap();
        assert_bit_identical(cold, warm);
        assert_bit_identical(cold, thrashed);
    }
}
