//! The parallel prediction engine: a scoped-thread work pool, a shared fit
//! cache, and the [`BatchPredictor`] batch API.
//!
//! ESTIMA's core loop — fit every Table 1 kernel over every training prefix
//! and checkpoint count for every stall category, for every workload — is
//! embarrassingly parallel. This module supplies the three fan-out stages:
//!
//! 1. **Grid fan-out** — [`crate::fit::candidate_fits`] evaluates the
//!    (kernel × prefix × checkpoint-count) candidate grid on the pool.
//! 2. **Category fan-out** — [`crate::predictor::Estima::predict`] fits all
//!    stall categories of a [`MeasurementSet`] concurrently.
//! 3. **Workload fan-out** — [`BatchPredictor::predict_all`] runs many
//!    workloads' predictions in parallel, sharing fitted candidates through a
//!    [`FitCache`] keyed structurally by (series, [`FitOptions`]).
//!
//! # Determinism
//!
//! The pool guarantees *bit-identical* results versus the sequential path:
//! tasks are enumerated in a fixed order, each task's computation is
//! independent of every other task, and results are reassembled by task index
//! before any reduction runs. Candidate curves are therefore always compared
//! in the same order regardless of thread completion order, so
//! `parallelism = 1` and `parallelism = N` produce byte-identical
//! [`Prediction`]s.
//!
//! Nested fan-outs (a category fit inside a batch job, a grid fit inside a
//! category fit) run inline on the worker thread that reached them, so the
//! pool never multiplies threads beyond its configured width.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::config::{EstimaConfig, TargetSpec};
use crate::error::Result;
use crate::fit::{FitCandidate, FitOptions, PrefixSolves};
use crate::levenberg::{Jacobian, LmOptions};
use crate::measurement::MeasurementSet;
use crate::predictor::{Estima, Prediction};
use crate::store::EstimaSession;

thread_local! {
    /// True while the current thread is a pool worker: nested [`Engine::run`]
    /// calls detect this and execute inline instead of spawning more threads.
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// A scoped-thread work pool with deterministic result ordering.
///
/// The pool is stateless between calls: every [`Engine::run`] opens a
/// [`std::thread::scope`], drains a shared queue of indexed tasks, and joins
/// before returning, so borrowed inputs need no `'static` lifetimes and no
/// threads outlive the call.
#[derive(Debug, Clone, Copy)]
pub struct Engine {
    workers: usize,
}

impl Engine {
    /// Create an engine with the given parallelism. `0` means "auto": use
    /// [`std::thread::available_parallelism`]. `1` reproduces the sequential
    /// path exactly (no threads are spawned at all).
    pub fn new(parallelism: usize) -> Self {
        let workers = if parallelism == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            parallelism
        };
        Engine { workers }
    }

    /// An engine that always runs inline on the calling thread.
    pub fn sequential() -> Self {
        Engine { workers: 1 }
    }

    /// Number of worker threads a fan-out may use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Apply `f` to every item, returning results in item order.
    ///
    /// With one worker (or one item, or when already running on a pool worker
    /// thread) this is exactly `items.into_iter().map(f).collect()`. Otherwise
    /// the items are processed by up to [`Engine::workers`] scoped threads
    /// pulling from a shared queue; the results are reassembled by item index,
    /// so the output is independent of scheduling.
    pub fn run<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = items.len();
        if self.workers <= 1 || n <= 1 || IN_POOL_WORKER.with(Cell::get) {
            return items.into_iter().map(f).collect();
        }
        let queue: Mutex<VecDeque<(usize, T)>> =
            Mutex::new(items.into_iter().enumerate().collect());
        let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
        let workers = self.workers.min(n);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    IN_POOL_WORKER.with(|flag| flag.set(true));
                    loop {
                        let task = queue.lock().unwrap().pop_front();
                        match task {
                            Some((index, item)) => {
                                let result = f(item);
                                results.lock().unwrap().push((index, result));
                            }
                            None => break,
                        }
                    }
                });
            }
        });
        let mut indexed = results.into_inner().unwrap();
        indexed.sort_unstable_by_key(|(index, _)| *index);
        indexed.into_iter().map(|(_, result)| result).collect()
    }
}

/// Cache key for one fitted series: the full series (as `f64` bit patterns,
/// so `-0.0` and `0.0` differ and NaNs are stable) plus the full
/// [`FitOptions`] (rendered through [`FitOptions::cache_tag`], which covers
/// every field). The key is structural — two keys are equal only if the
/// series and options are exactly equal — so cache hits can never substitute
/// another series' fits.
///
/// Keys built through [`FitKey::scoped`] additionally carry a
/// `(series id, version)` component from the
/// [`MeasurementStore`](crate::store::MeasurementStore): entries cached on
/// behalf of a named series are tagged with the store version they were
/// fitted from, so an ingest can invalidate exactly that series' stale fits
/// ([`FitCache::invalidate_series`]) and nothing else. Scoped and unscoped
/// keys never collide (the scope participates in equality), and the
/// structural series bits stay in the key either way, so a hit can never
/// substitute another series' — or another version's — fits.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FitKey {
    xs_bits: Vec<u64>,
    ys_bits: Vec<u64>,
    options: String,
    scope: Option<(String, u64)>,
}

impl FitKey {
    /// Build the key for a `(series, options)` pair.
    pub fn new(xs: &[f64], ys: &[f64], options: &FitOptions) -> Self {
        FitKey {
            xs_bits: xs.iter().map(|x| x.to_bits()).collect(),
            ys_bits: ys.iter().map(|y| y.to_bits()).collect(),
            options: options.cache_tag(),
            scope: None,
        }
    }

    /// Build a key tagged with the owning store series and its version.
    pub fn scoped(
        xs: &[f64],
        ys: &[f64],
        options: &FitOptions,
        series: &str,
        version: u64,
    ) -> Self {
        FitKey {
            scope: Some((series.to_string(), version)),
            ..FitKey::new(xs, ys, options)
        }
    }

    /// The `(series id, version)` tag of a scoped key, if any.
    pub fn scope(&self) -> Option<(&str, u64)> {
        self.scope.as_ref().map(|(id, v)| (id.as_str(), *v))
    }

    /// FNV-1a hash of the key, used to pick a [`FitCache`] shard. This is
    /// the same hash family the workspace already uses for deterministic
    /// seeding (see the proptest shim); it is independent of the std
    /// `Hash` randomness, so a key always lands on the same shard across
    /// processes and runs.
    fn shard_hash(&self) -> u64 {
        let mut hash = Fnv1a::new();
        hash.eat_words(self.xs_bits.iter().chain(&self.ys_bits));
        hash.eat(self.options.as_bytes());
        if let Some((series, version)) = &self.scope {
            hash.eat(series.as_bytes());
            hash.eat(&version.to_le_bytes());
        }
        hash.0
    }
}

/// The FNV-1a hash that picks a key's [`FitCache`] shard.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Eat each word's little-endian bytes.
    fn eat_words<'a>(&mut self, words: impl IntoIterator<Item = &'a u64>) {
        for word in words {
            self.eat(&word.to_le_bytes());
        }
    }
}

/// A borrowed `(series id, version)` tag identifying which
/// [`MeasurementStore`](crate::store::MeasurementStore) state a fit was
/// computed from. Carried by a [`FitContext`](crate::fit::FitContext) into
/// [`crate::fit::candidate_fits`], which builds [`FitKey::scoped`] keys from
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheScope<'a> {
    /// The owning store series.
    pub series: &'a str,
    /// The series version the fitted data was snapshotted at.
    pub version: u64,
}

/// One cached candidate list plus its recency stamp (the shard's logical
/// clock value at the last hit or insert; smallest = least recently used).
#[derive(Debug)]
struct ShardEntry {
    value: Arc<Vec<FitCandidate>>,
    last_used: u64,
}

/// One training prefix's memoised solves plus its recency stamp (same clock
/// as [`ShardEntry`]).
#[derive(Debug)]
struct SolveEntry {
    solves: PrefixSolves,
    last_used: u64,
}

/// One cache shard: its own map, logical clock, and series→keys index
/// behind its own lock, so lookups on different shards never contend.
///
/// Keys are stored as `Arc<FitKey>` so the series index can reference them
/// without cloning the (potentially large) series bit vectors: the map and
/// the index share one allocation per key. Invariant: a scoped key is in
/// `map` iff it is in `by_series[its series]` — insert, evict and
/// invalidate all maintain both sides under the shard lock.
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<Arc<FitKey>, ShardEntry>,
    /// Scoped keys grouped by their series id, so
    /// [`FitCache::invalidate_series`] removes exactly that series' entries
    /// instead of sweeping the whole shard.
    by_series: HashMap<String, Vec<Arc<FitKey>>>,
    /// The solve memo's entries on this shard, keyed by
    /// `[LM options id, x₀, y₀, …, xₚ₋₁, yₚ₋₁]` bit patterns (see
    /// [`FitCache::lookup_solves`]).
    solves: HashMap<Box<[u64]>, SolveEntry>,
    clock: u64,
}

impl Shard {
    /// Evict least-recently-used entries until the shard is within
    /// `capacity`, keeping the series index in sync. Returns how many
    /// entries were evicted.
    fn enforce_capacity(&mut self, capacity: usize) -> usize {
        let mut evicted = 0;
        while self.map.len() > capacity {
            let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(key, _)| Arc::clone(key))
            else {
                break;
            };
            self.map.remove(&oldest);
            self.unindex(&oldest);
            evicted += 1;
        }
        evicted
    }

    /// Evict least-recently-used solve-memo entries until at most
    /// `capacity` remain. Every touch takes a fresh clock value, so the
    /// oldest stamp names exactly one entry.
    fn enforce_solve_capacity(&mut self, capacity: usize) {
        while self.solves.len() > capacity {
            let Some(oldest) = self.solves.values().map(|entry| entry.last_used).min() else {
                break;
            };
            self.solves.retain(|_, entry| entry.last_used != oldest);
        }
    }

    /// Remove a scoped key from the series index (no-op for unscoped keys).
    /// Eviction-time bookkeeping: O(that series' keys), and rare.
    fn unindex(&mut self, key: &FitKey) {
        let Some((series, _)) = key.scope() else {
            return;
        };
        if let Some(keys) = self.by_series.get_mut(series) {
            if let Some(position) = keys.iter().position(|k| k.as_ref() == key) {
                keys.swap_remove(position);
            }
            if keys.is_empty() {
                self.by_series.remove(series);
            }
        }
    }
}

/// Default number of shards (a power of two; the shard index is the low bits
/// of the key's FNV hash).
const DEFAULT_SHARDS: usize = 16;

/// Default total capacity. A full `reproduce all` run caches a few hundred
/// series, so the default never evicts there; it exists to bound memory for
/// long-running servers seeing unbounded distinct series.
const DEFAULT_CAPACITY: usize = 4096;

/// A sharded, capacity-bounded, concurrency-safe cache of candidate-fit
/// lists keyed by [`FitKey`]. Shared by every job of a [`BatchPredictor`] so
/// that workloads measured on the same machine reuse each other's fits
/// (identical series — e.g. a zero-noise category or a repeated workload —
/// are fitted once), and by `estima-serve` so concurrent HTTP requests share
/// fitted candidates without serializing on a single lock.
///
/// # Sharding and eviction
///
/// Keys are distributed over N independent shards by an FNV-1a hash of the
/// series bits and options, each shard behind its own mutex, so concurrent
/// lookups of different series proceed in parallel. Every shard holds at
/// most `capacity / shards` entries and evicts its least-recently-used entry
/// on overflow (a hit refreshes recency). Eviction only ever costs a refit:
/// fits are deterministic, so a re-computed entry is bit-identical to the
/// evicted one and predictions are unaffected — pinned by
/// `crates/core/tests/fit_cache.rs`.
///
/// # The solve memo
///
/// Beneath the candidate lists, each shard also memoises nonlinear solves
/// per training prefix (see [`crate::fit`]'s module docs): one entry per
/// prefix, keyed by the prefix's exact `f64` bits and the interned
/// [`LmOptions`], holding every nonlinear kernel's outcome. The memo is
/// structural and unscoped, so [`FitCache::invalidate_series`] leaves it
/// alone: a refit after an ingest re-solves only the prefixes the ingest
/// changed. It is bounded like the candidate lists — at most the shard
/// capacity in entries per shard, LRU — and, like them, losing an entry only
/// costs a re-solve.
#[derive(Debug)]
pub struct FitCache {
    shards: Vec<Mutex<Shard>>,
    /// Maximum entries per shard.
    shard_capacity: usize,
    hits: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
    invalidations: AtomicUsize,
    /// Interned LM options: a memo key stores its options' index here.
    solve_options: Mutex<Vec<LmBits>>,
    solve_hits: AtomicUsize,
    solve_misses: AtomicUsize,
}

/// [`LmOptions`] as comparable bits, for interning.
type LmBits = [u64; 8];

/// The memo serves at most this many distinct [`LmOptions`]; fits with
/// further options solve every cell.
const MAX_SOLVE_OPTIONS: usize = 16;

fn lm_bits(lm: &LmOptions) -> LmBits {
    let LmOptions {
        max_iterations,
        initial_lambda,
        lambda_up,
        lambda_down,
        tolerance,
        step_tolerance,
        finite_difference_step,
        jacobian,
    } = *lm;
    [
        max_iterations as u64,
        initial_lambda.to_bits(),
        lambda_up.to_bits(),
        lambda_down.to_bits(),
        tolerance.to_bits(),
        step_tolerance.to_bits(),
        finite_difference_step.to_bits(),
        match jacobian {
            Jacobian::Analytic => 0,
            Jacobian::FiniteDifference => 1,
        },
    ]
}

impl Default for FitCache {
    fn default() -> Self {
        FitCache::new()
    }
}

impl FitCache {
    /// Create a cache with the default shard count and capacity.
    pub fn new() -> Self {
        FitCache::with_shards_and_capacity(DEFAULT_SHARDS, DEFAULT_CAPACITY)
    }

    /// Create a cache bounded to roughly `capacity` entries in total, with
    /// the default shard count.
    pub fn with_capacity(capacity: usize) -> Self {
        FitCache::with_shards_and_capacity(DEFAULT_SHARDS, capacity)
    }

    /// Create a cache with an explicit shard count and total capacity. The
    /// capacity is split evenly across shards (rounded up, minimum one entry
    /// per shard); a shard count of 0 is treated as 1.
    pub fn with_shards_and_capacity(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1);
        let shard_capacity = capacity.div_ceil(shards).max(1);
        FitCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity,
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
            invalidations: AtomicUsize::new(0),
            solve_options: Mutex::new(Vec::new()),
            solve_hits: AtomicUsize::new(0),
            solve_misses: AtomicUsize::new(0),
        }
    }

    /// The shard holding `key`.
    fn shard_for(&self, key: &FitKey) -> &Mutex<Shard> {
        self.shard_at(key.shard_hash())
    }

    fn shard_at(&self, hash: u64) -> &Mutex<Shard> {
        &self.shards[(hash as usize) % self.shards.len()]
    }

    /// The shard holding a solve-memo key.
    fn solve_shard(&self, key: &[u64]) -> &Mutex<Shard> {
        let mut hash = Fnv1a::new();
        hash.eat_words(key);
        self.shard_at(hash.0)
    }

    /// The id that stands for `lm` in solve-memo keys, interning it on first
    /// use; `None` once [`MAX_SOLVE_OPTIONS`] other options hold every id.
    pub(crate) fn solve_options_id(&self, lm: &LmOptions) -> Option<u64> {
        let bits = lm_bits(lm);
        let mut interned = self.solve_options.lock().expect("fit cache lock poisoned");
        let index = match interned.iter().position(|known| *known == bits) {
            Some(index) => index,
            None if interned.len() < MAX_SOLVE_OPTIONS => {
                interned.push(bits);
                interned.len() - 1
            }
            None => return None,
        };
        Some(index as u64)
    }

    /// The memoised solves of one training prefix, refreshing the entry's
    /// recency. `key` is `[options id, x₀, y₀, …, xₚ₋₁, yₚ₋₁]`: the id from
    /// [`FitCache::solve_options_id`], then the prefix's points as `f64` bit
    /// patterns.
    pub(crate) fn lookup_solves(&self, key: &[u64]) -> Option<PrefixSolves> {
        let mut guard = self
            .solve_shard(key)
            .lock()
            .expect("fit cache lock poisoned");
        guard.clock += 1;
        let clock = guard.clock;
        let entry = guard.solves.get_mut(key)?;
        entry.last_used = clock;
        Some(entry.solves)
    }

    /// Merge `solves` into the memo entry for `key` (see
    /// [`FitCache::lookup_solves`]), inserting it if absent and then
    /// evicting the shard's least-recently-used entries beyond its capacity.
    pub(crate) fn store_solves(&self, key: &[u64], solves: &PrefixSolves) {
        let mut guard = self
            .solve_shard(key)
            .lock()
            .expect("fit cache lock poisoned");
        guard.clock += 1;
        let clock = guard.clock;
        match guard.solves.get_mut(key) {
            Some(entry) => {
                entry.solves.merge(solves);
                entry.last_used = clock;
            }
            None => {
                guard.solves.insert(
                    key.into(),
                    SolveEntry {
                        solves: *solves,
                        last_used: clock,
                    },
                );
                guard.enforce_solve_capacity(self.shard_capacity);
            }
        }
    }

    /// Count (kernel, prefix) cells the memo served and cells it had to
    /// solve.
    pub(crate) fn record_solves(&self, hits: usize, misses: usize) {
        self.solve_hits.fetch_add(hits, Ordering::Relaxed);
        self.solve_misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Look up `key`, computing and inserting the candidate list on a miss.
    ///
    /// The computation runs outside every cache lock, so concurrent misses
    /// on the same key may compute twice — both produce identical results
    /// (the fit is deterministic) and the first insert wins, so callers
    /// always observe one consistent value. A hit refreshes the entry's LRU
    /// recency; an insert that overflows the shard evicts its
    /// least-recently-used entries.
    pub fn get_or_compute<F>(&self, key: FitKey, compute: F) -> Result<Arc<Vec<FitCandidate>>>
    where
        F: FnOnce() -> Result<Vec<FitCandidate>>,
    {
        let shard = self.shard_for(&key);
        {
            let mut guard = shard.lock().unwrap();
            guard.clock += 1;
            let clock = guard.clock;
            if let Some(entry) = guard.map.get_mut(&key) {
                entry.last_used = clock;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(&entry.value));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let computed = Arc::new(compute()?);
        let mut guard = shard.lock().unwrap();
        guard.clock += 1;
        let clock = guard.clock;
        let key = Arc::new(key);
        let shard_mut = &mut *guard;
        let value = match shard_mut.map.entry(Arc::clone(&key)) {
            std::collections::hash_map::Entry::Occupied(mut occupied) => {
                // A concurrent miss inserted first; its (identical) value
                // wins, refreshed as just used. The key is already indexed.
                occupied.get_mut().last_used = clock;
                Arc::clone(&occupied.get().value)
            }
            std::collections::hash_map::Entry::Vacant(vacant) => {
                if let Some((series, _)) = key.scope() {
                    shard_mut
                        .by_series
                        .entry(series.to_string())
                        .or_default()
                        .push(Arc::clone(&key));
                }
                Arc::clone(
                    &vacant
                        .insert(ShardEntry {
                            value: computed,
                            last_used: clock,
                        })
                        .value,
                )
            }
        };
        let evicted = guard.enforce_capacity(self.shard_capacity);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        Ok(value)
    }

    /// Number of cached series across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.lock().unwrap().map.len())
            .sum()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.shards
            .iter()
            .all(|shard| shard.lock().unwrap().map.is_empty())
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Total capacity (entries) the cache is bounded to.
    pub fn capacity(&self) -> usize {
        self.shard_capacity * self.shards.len()
    }

    /// `(hits, misses)` counters since construction.
    pub fn stats(&self) -> (usize, usize) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of entries evicted by the capacity bound since construction.
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Drop every cached entry whose [`FitKey::scoped`] tag names `series`,
    /// regardless of version. Returns how many entries were removed.
    ///
    /// Called by [`EstimaSession`] whenever a
    /// series is mutated or evicted: the version bump already guarantees the
    /// next prediction cannot *hit* a stale entry (the version is part of the
    /// key), so this sweep exists to reclaim the now-unreachable entries
    /// immediately instead of waiting for LRU pressure. Unscoped entries and
    /// entries scoped to other series are untouched — structurally so: each
    /// shard keeps a series→keys index, and invalidation removes exactly the
    /// indexed keys, costing O(that series' entries) rather than a
    /// full-shard sweep. Entries it never owned are never even visited.
    pub fn invalidate_series(&self, series: &str) -> usize {
        let mut removed = 0;
        for shard in &self.shards {
            let mut guard = shard.lock().unwrap();
            if let Some(keys) = guard.by_series.remove(series) {
                for key in keys {
                    if guard.map.remove(&key).is_some() {
                        removed += 1;
                    }
                }
            }
        }
        if removed > 0 {
            self.invalidations.fetch_add(removed, Ordering::Relaxed);
        }
        removed
    }

    /// Number of entries removed by [`FitCache::invalidate_series`] since
    /// construction.
    pub fn invalidations(&self) -> usize {
        self.invalidations.load(Ordering::Relaxed)
    }

    /// `(hits, misses)` of the solve memo since construction, counted per
    /// (nonlinear kernel, training prefix) cell of a cache-miss fit: a hit
    /// reused a memoised outcome, a miss ran the linearised guess and LM.
    pub fn solve_stats(&self) -> (usize, usize) {
        (
            self.solve_hits.load(Ordering::Relaxed),
            self.solve_misses.load(Ordering::Relaxed),
        )
    }

    /// Number of training prefixes the solve memo holds, across all shards.
    pub fn solve_entries(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.lock().expect("fit cache lock poisoned").solves.len())
            .sum()
    }

    /// Hit rate since construction: `hits / (hits + misses)`, or 0.0 before
    /// the first lookup.
    pub fn hit_rate(&self) -> f64 {
        let (hits, misses) = self.stats();
        let total = hits + misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// Batch prediction API: run many workloads' predictions in parallel with a
/// shared fit cache.
///
/// This is the README's "many workloads, one call" example, as a runnable
/// doc-test:
///
/// ```
/// use estima_core::prelude::*;
///
/// # fn measurement_sets() -> Vec<MeasurementSet> {
/// #     ["alpha", "beta"].iter().map(|app| {
/// #         let mut set = MeasurementSet::new(*app, 2.1);
/// #         for cores in 1..=8u32 {
/// #             let n = cores as f64;
/// #             set.push(Measurement::new(cores, 20.0 / n + 0.5).with_stall(
/// #                 StallCategory::backend("rob_full"), 1.0e9 * (1.0 + 0.1 * n * n)));
/// #         }
/// #         set
/// #     }).collect()
/// # }
/// # fn main() -> estima_core::Result<()> {
/// let sets: Vec<MeasurementSet> = measurement_sets();
///
/// // Many workloads, one call: parallel jobs + a shared fit cache, so
/// // repeated series are fitted once.
/// let config = EstimaConfig::default().with_parallelism(4);
/// let batch = BatchPredictor::new(config);
/// let jobs: Vec<(MeasurementSet, TargetSpec)> = sets
///     .into_iter()
///     .map(|set| (set, TargetSpec::cores(48)))
///     .collect();
/// for result in batch.predict_all(jobs) {
///     let prediction = result?;
///     println!(
///         "{}: limit {} cores",
///         prediction.app_name,
///         prediction.predicted_scaling_limit()
///     );
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct BatchPredictor {
    session: EstimaSession,
}

impl BatchPredictor {
    /// Create a batch predictor with its own private fit cache. The
    /// `parallelism` knob of the configuration controls both the job fan-out
    /// and the per-job stage fan-outs.
    pub fn new(config: EstimaConfig) -> Self {
        BatchPredictor::with_cache(config, Arc::new(FitCache::new()))
    }

    /// Create a batch predictor sharing an externally owned [`FitCache`], so
    /// fitted candidates persist across predictors (e.g. across the
    /// experiments of a `reproduce` run, which refit the same workload series
    /// repeatedly).
    pub fn with_cache(config: EstimaConfig, cache: Arc<FitCache>) -> Self {
        BatchPredictor {
            session: EstimaSession::with_cache(config, cache),
        }
    }

    /// Create a batch predictor around a fully constructed
    /// [`EstimaSession`] — the route for sessions whose store is durable or
    /// resource-limited (see
    /// [`MeasurementStore::open`](crate::store::MeasurementStore::open)).
    pub fn with_session(session: EstimaSession) -> Self {
        BatchPredictor { session }
    }

    /// Borrow the underlying [`EstimaSession`]: the batch predictor is a
    /// thin fan-out wrapper over an (anonymous) session, and the session is
    /// where stateful series live. `estima-serve` routes its `/v1/series`
    /// endpoints through this accessor.
    pub fn session(&self) -> &EstimaSession {
        &self.session
    }

    /// Borrow the underlying predictor.
    pub fn estima(&self) -> &Estima {
        self.session.estima()
    }

    /// Borrow the shared fit cache (for statistics).
    pub fn cache(&self) -> &FitCache {
        self.session.cache()
    }

    /// Predict one measurement set, sharing the fit cache with every other
    /// call on this predictor.
    pub fn predict(&self, set: &MeasurementSet, target: &TargetSpec) -> Result<Prediction> {
        self.session.predict_set(set, target)
    }

    /// Run every `(measurements, target)` job, in parallel up to the
    /// configured parallelism, and return one result per job in job order.
    /// Results are bit-identical to calling [`Estima::predict`] per job.
    pub fn predict_all(&self, jobs: Vec<(MeasurementSet, TargetSpec)>) -> Vec<Result<Prediction>> {
        let engine = self.estima().fit_context().engine;
        engine.run(jobs, |(set, target)| self.predict(&set, &target))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measurement::{Measurement, StallCategory};

    #[test]
    fn run_preserves_item_order() {
        let engine = Engine::new(4);
        let items: Vec<u64> = (0..100).collect();
        let doubled = engine.run(items.clone(), |x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_engine_spawns_nothing_and_matches_parallel() {
        let items: Vec<u64> = (0..57).collect();
        let seq = Engine::sequential().run(items.clone(), |x| x.wrapping_mul(0x9e37));
        let par = Engine::new(8).run(items, |x| x.wrapping_mul(0x9e37));
        assert_eq!(seq, par);
    }

    #[test]
    fn auto_parallelism_resolves_to_at_least_one_worker() {
        assert!(Engine::new(0).workers() >= 1);
        assert_eq!(Engine::new(3).workers(), 3);
    }

    #[test]
    fn nested_runs_execute_inline() {
        let engine = Engine::new(4);
        let outer = engine.run(vec![10u64, 20, 30], |base| {
            // A nested fan-out from a worker thread must run inline (and
            // still produce ordered results).
            let inner = engine.run((0..5u64).collect(), move |i| base + i);
            inner.iter().sum::<u64>()
        });
        assert_eq!(outer, vec![60, 110, 160]);
    }

    #[test]
    fn cache_key_distinguishes_series_and_options() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [1.0, 4.0, 9.0];
        let options = FitOptions::default();
        let base = FitKey::new(&xs, &ys, &options);
        assert_eq!(base, FitKey::new(&xs, &ys, &options));
        assert_ne!(base, FitKey::new(&ys, &xs, &options));
        let narrowed = FitOptions {
            realism_horizon: 128,
            ..FitOptions::default()
        };
        assert_ne!(base, FitKey::new(&xs, &ys, &narrowed));
    }

    #[test]
    fn fit_cache_counts_hits_and_misses() {
        let cache = FitCache::new();
        let options = FitOptions::default();
        let key_a = FitKey::new(&[1.0, 2.0], &[1.0, 4.0], &options);
        let key_b = FitKey::new(&[1.0, 2.0], &[2.0, 8.0], &options);
        let make = || Ok(Vec::new());
        cache.get_or_compute(key_a.clone(), make).unwrap();
        cache.get_or_compute(key_a, make).unwrap();
        cache.get_or_compute(key_b, make).unwrap();
        assert_eq!(cache.stats(), (1, 2));
        assert_eq!(cache.len(), 2);
        assert!(!cache.is_empty());
    }

    #[test]
    fn solve_memo_is_lru_bounded_and_survives_invalidation() {
        // One shard with room for two prefixes.
        let cache = FitCache::with_shards_and_capacity(1, 2);
        let id = cache.solve_options_id(&LmOptions::default()).unwrap();
        let key = |tag: f64| [id, 1.0f64.to_bits(), tag.to_bits()];
        cache.store_solves(&key(1.0), &PrefixSolves::EMPTY);
        cache.store_solves(&key(2.0), &PrefixSolves::EMPTY);
        assert!(cache.lookup_solves(&key(1.0)).is_some()); // refreshes 1
        cache.store_solves(&key(3.0), &PrefixSolves::EMPTY); // evicts 2
        assert_eq!(cache.solve_entries(), 2);
        assert!(cache.lookup_solves(&key(2.0)).is_none());
        assert!(cache.lookup_solves(&key(1.0)).is_some());
        assert!(cache.lookup_solves(&key(3.0)).is_some());
        // Memo entries are structural: invalidating a series leaves them,
        // and they never count as cached candidate lists.
        cache.invalidate_series("any");
        assert_eq!(cache.solve_entries(), 2);
        assert!(cache.is_empty());
    }

    #[test]
    fn lm_options_intern_to_stable_ids_up_to_the_cap() {
        let cache = FitCache::new();
        let options = |max_iterations| LmOptions {
            max_iterations,
            ..LmOptions::default()
        };
        let first = cache.solve_options_id(&options(1)).unwrap();
        assert_eq!(cache.solve_options_id(&options(1)), Some(first));
        assert_ne!(cache.solve_options_id(&options(2)), Some(first));
        for n in 3..=MAX_SOLVE_OPTIONS {
            assert!(cache.solve_options_id(&options(n)).is_some());
        }
        assert_eq!(cache.solve_options_id(&options(0)), None, "past the cap");
        assert_eq!(cache.solve_options_id(&options(1)), Some(first));
    }

    fn demo_set(name: &str) -> MeasurementSet {
        let mut set = MeasurementSet::new(name, 2.1);
        for cores in 1..=10u32 {
            let n = cores as f64;
            set.push(Measurement::new(cores, 30.0 / n + 1.0).with_stall(
                StallCategory::backend("rob_full"),
                2.0e9 * (1.0 + 0.08 * n * n),
            ));
        }
        set
    }

    #[test]
    fn batch_matches_individual_predictions_bit_for_bit() {
        // Parallelism 1 keeps the cache-hit counter deterministic: jobs run
        // in order, so the repeated series must hit (concurrent jobs may
        // both miss and compute identical results instead).
        let config = EstimaConfig::default().with_parallelism(1);
        let solo = Estima::new(config.clone())
            .predict(&demo_set("app"), &TargetSpec::cores(40))
            .unwrap();
        let batch = BatchPredictor::new(config);
        let results = batch.predict_all(vec![(demo_set("app"), TargetSpec::cores(40)); 3]);
        for result in results {
            let prediction = result.unwrap();
            for ((c1, t1), (c2, t2)) in solo.predicted_time.iter().zip(&prediction.predicted_time) {
                assert_eq!(c1, c2);
                assert_eq!(t1.to_bits(), t2.to_bits());
            }
        }
        // Identical series: the repeated jobs must hit the shared cache.
        let (hits, _) = batch.cache().stats();
        assert!(hits > 0, "repeated identical jobs produced no cache hits");
    }
}
