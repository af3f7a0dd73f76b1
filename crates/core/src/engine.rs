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
use std::collections::hash_map::{DefaultHasher, Entry, RandomState};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use crate::config::{EstimaConfig, TargetSpec};
use crate::error::Result;
use crate::fit::{bits, same_bits, FitOptions, Fits, PrefixSolves};
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
        if n <= 1 || self.inline() {
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

    /// Whether a fan-out from the calling thread runs inline: with one
    /// worker, or on a pool worker already.
    fn inline(&self) -> bool {
        self.workers <= 1 || IN_POOL_WORKER.with(Cell::get)
    }

    /// [`Engine::run`] appending to `out`: `f` of every item, in item
    /// order. Where `run` would run inline this collects nothing, so into a
    /// reused `out` it allocates nothing.
    pub(crate) fn extend_ordered<T, R, F>(
        &self,
        items: impl Iterator<Item = T>,
        out: &mut Vec<R>,
        f: F,
    ) where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        if self.inline() {
            out.extend(items.map(f));
        } else {
            out.extend(self.run(items.collect(), f));
        }
    }
}

/// One fit-cache lookup's inputs, borrowed: the series, every field of the
/// [`FitOptions`], and optionally a store scope. [`FitCache::get_or_compute`]
/// hashes them once and compares them in place against the cached list's
/// key, so building a key and hitting with it allocate nothing;
/// [`crate::fit::candidate_fits`] looks its lists up through the same probe.
///
/// A lookup reads the key as the stream `[options, horizon, scope, n, x₀ …
/// xₙ₋₁, n, y₀ … yₙ₋₁]`: the part the columns of one series share comes
/// first, so a prediction hashes it once for all of them. Floats enter
/// as their bit patterns, so `-0.0` and `0.0` differ and NaN payloads stay
/// apart, and the length prefixes keep the encoding unambiguous. `horizon`
/// is [`FitOptions::realism_horizon`]; `options` is the cache's interned id
/// of every other field: the kernel count and each kernel's id, the
/// checkpoint-count count and each count, and the scalar fields (floats as
/// bits). Destructuring `FitOptions` makes a new field a compile error until
/// it is keyed. Two keys find the same list only if the series and options
/// are exactly equal, so cache hits can never substitute another series'
/// fits.
///
/// Keys built through [`FitKey::scoped`] additionally carry a
/// [`CacheScope`] from the
/// [`MeasurementStore`](crate::store::MeasurementStore): entries cached on
/// behalf of a named series are tagged with the store version they were
/// fitted from, so an ingest can invalidate exactly that series' stale fits
/// ([`FitCache::invalidate_series`]) and nothing else. Scoped and unscoped
/// keys never collide (the scope is part of the stream), and the
/// structural series bits stay in the key either way, so a hit can never
/// substitute another series' — or another version's — fits.
#[derive(Debug, Clone, Copy)]
pub struct FitKey<'a> {
    pub(crate) xs: &'a [f64],
    pub(crate) ys: &'a [f64],
    pub(crate) options: &'a FitOptions,
    pub(crate) scope: Option<CacheScope<'a>>,
}

impl<'a> FitKey<'a> {
    /// The key for a `(series, options)` pair.
    pub fn new(xs: &'a [f64], ys: &'a [f64], options: &'a FitOptions) -> Self {
        FitKey {
            xs,
            ys,
            options,
            scope: None,
        }
    }

    /// A key tagged with the owning store series and its version.
    pub fn scoped(
        xs: &'a [f64],
        ys: &'a [f64],
        options: &'a FitOptions,
        series: &'a str,
        version: u64,
    ) -> Self {
        FitKey {
            xs,
            ys,
            options,
            scope: Some(CacheScope { series, version }),
        }
    }
}

/// Every [`FitOptions`] field but the realism horizon, as the words a
/// [`FitCache`] interns for a key's options.
fn option_words(options: &FitOptions) -> impl Iterator<Item = u64> + Clone + '_ {
    let FitOptions {
        kernels,
        checkpoint_counts,
        realism_horizon: _,
        max_growth_factor,
        prefix_refitting,
    } = options;
    std::iter::once(kernels.len() as u64)
        .chain(kernels.iter().map(|kernel| *kernel as u64))
        .chain(std::iter::once(checkpoint_counts.len() as u64))
        .chain(checkpoint_counts.iter().map(|count| *count as u64))
        .chain([max_growth_factor.to_bits(), u64::from(*prefix_refitting)])
}

/// The two hashes of a key's stream, run side by side: the cache's keyed
/// `SipHash`, under which a shard's map stores the list, and the [`Fnv1a`]
/// that picks the shard. Each reads every word once.
#[derive(Debug, Clone)]
struct StreamHash {
    keyed: DefaultHasher,
    shard: Fnv1a,
}

impl StreamHash {
    fn words(&mut self, words: &[u64]) {
        u64::hash_slice(words, &mut self.keyed);
        words.iter().for_each(|word| self.shard.eat(*word));
    }

    /// A series: its length, then its values' bit patterns, one write per
    /// chunk.
    fn series(&mut self, values: &[f64]) {
        self.words(&[values.len() as u64]);
        for chunk in values.chunks(16) {
            let mut words = [0u64; 16];
            for (word, value) in words.iter_mut().zip(chunk) {
                *word = value.to_bits();
            }
            self.words(&words[..chunk.len()]);
        }
    }

    /// Both hashes of the words so far. [`Hasher::finish`] reads a hash
    /// without ending it, so the stream may go on.
    fn finish(&self) -> KeyHash {
        KeyHash {
            keyed: self.keyed.finish(),
            shard: self.shard.finish(),
        }
    }

    /// A scope: `0` without one, else `1`, the series id's length, the
    /// version and the id's bytes.
    fn scope(&mut self, scope: Option<CacheScope<'_>>) {
        let Some(CacheScope { series, version }) = scope else {
            self.words(&[0]);
            return;
        };
        self.words(&[1, series.len() as u64, version]);
        self.keyed.write(series.as_bytes());
        self.shard.write(series.as_bytes());
    }
}

/// A key's two hashes, finished: the cache's keyed `SipHash`, under which a
/// shard's map stores the entry, and the FNV-1a that picks the shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct KeyHash {
    keyed: u64,
    shard: u64,
}

/// The part of a fit-cache key that the columns of one series share: the
/// interned options, the horizon, the scope and `xs`, with both of the
/// stream's hashes run over them. [`FitCache::probe`] continues it with one
/// column's `ys`, so a prediction, which fits every stall category and the
/// scaling factor over the same core counts, interns and hashes the shared
/// part once. A base serves the cache that built it.
#[derive(Debug, Clone)]
pub(crate) struct KeyBase<'a> {
    /// The cache's id of the options; `None` once other option sets fill
    /// its table, and then nothing is hashed.
    options: Option<u64>,
    horizon: u32,
    scope: Option<CacheScope<'a>>,
    xs: &'a [f64],
    hash: StreamHash,
}

/// A cached list's key, owned: a [`KeyBase`]'s words and a probe's `ys`,
/// the series as bit patterns.
#[derive(Debug)]
struct StoredKey {
    options: u64,
    horizon: u32,
    scope: Option<(String, u64)>,
    /// The series' `xs`, then its `ys`.
    values: Box<[u64]>,
    /// How many of `values` are `xs`.
    split: usize,
}

impl StoredKey {
    fn new(base: &KeyBase<'_>, options: u64, ys: &[f64]) -> Self {
        StoredKey {
            options,
            horizon: base.horizon,
            scope: base
                .scope
                .map(|scope| (scope.series.to_string(), scope.version)),
            values: bits(base.xs).chain(bits(ys)).collect(),
            split: base.xs.len(),
        }
    }

    /// Whether this is the key `base` (its options interned to `options`)
    /// and `ys` describe, word for word.
    fn is(&self, base: &KeyBase<'_>, options: u64, ys: &[f64]) -> bool {
        let (xs, stored_ys) = self.values.split_at(self.split);
        self.options == options
            && self.horizon == base.horizon
            && self
                .scope
                .as_ref()
                .map(|(series, version)| (series.as_str(), *version))
                == base.scope.map(|scope| (scope.series, scope.version))
            && same_bits(xs, base.xs)
            && same_bits(stored_ys, ys)
    }
}

/// The shard maps' hasher: a map's key already is the keyed hash of a
/// stream, so it passes through.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a shard map's keys are u64 hashes")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a over 64-bit words, finished by MurmurHash3's `fmix64`. It picks a
/// key's [`FitCache`] shard. Like the proptest shim's seeding hash, it is
/// independent of the std `Hash` randomness, so a key always lands on the
/// same shard across processes and runs. As a [`Hasher`] it eats its bytes
/// as little-endian words, the last one zero-padded.
///
/// Eating a word at a time is a multiply per word instead of per byte, but a
/// multiply only carries bits upward: two series that differ only in their
/// values' exponents (say, by powers of two) differ only in the high bits of
/// the running hash. The shard index reads the low bits, so [`Fnv1a::finish`]
/// folds the high bits down.
#[derive(Debug, Clone)]
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, word: u64) {
        self.0 ^= word;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        let words = bytes.chunks_exact(8);
        let rest = words.remainder();
        for word in words {
            self.eat(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.eat(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        let mut hash = self.0;
        hash ^= hash >> 33;
        hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
        hash ^= hash >> 33;
        hash = hash.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        hash ^ (hash >> 33)
    }
}

/// A borrowed `(series id, version)` tag identifying which
/// [`MeasurementStore`](crate::store::MeasurementStore) state a fit was
/// computed from: the scope of a [`FitKey::scoped`] key. A
/// [`FitContext`](crate::fit::FitContext) carries one into
/// [`crate::fit::candidate_fits`], whose key it then scopes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheScope<'a> {
    /// The owning store series.
    pub series: &'a str,
    /// The series version the fitted data was snapshotted at.
    pub version: u64,
}

/// One cached candidate list, its key, and its recency stamp (the shard's
/// logical clock value at the last hit or insert; smallest = least recently
/// used).
#[derive(Debug)]
struct ShardEntry {
    key: StoredKey,
    value: Arc<Fits>,
    last_used: u64,
}

/// One training prefix's memoised cells, its key and its recency stamp
/// (same clock as [`ShardEntry`]). A lookup hands out a clone of the `Arc`.
#[derive(Debug)]
struct SolveEntry {
    key: Box<[u64]>,
    solves: Arc<PrefixSolves>,
    last_used: u64,
}

/// One cache shard: its own map, logical clock, and series→keys index
/// behind its own lock, so lookups on different shards never contend.
///
/// The map holds each list under its key's keyed hash, one key per hash,
/// and the series index names entries by that hash. Invariant: a scoped
/// entry is in `map` iff its hash is in `by_series[its series]` — insert,
/// evict and invalidate all maintain both sides under the shard lock.
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<u64, ShardEntry, BuildHasherDefault<PassThrough>>,
    /// The hashes of scoped entries, grouped by their series id, so
    /// [`FitCache::invalidate_series`] removes exactly that series' entries
    /// instead of sweeping the whole shard.
    by_series: HashMap<String, Vec<u64>>,
    /// The solve memo's entries on this shard, each under the keyed hash
    /// of its key `[x₀, y₀, …, xₚ₋₁, yₚ₋₁]` (bit patterns; see
    /// [`FitCache::lookup_solves_at`]), one key per hash.
    solves: HashMap<u64, SolveEntry, BuildHasherDefault<PassThrough>>,
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
                .map(|(hash, _)| *hash)
            else {
                break;
            };
            if let Some(entry) = self.map.remove(&oldest) {
                self.unindex(oldest, &entry.key);
            }
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

    /// Remove the entry at `hash`, whose key is `key`, from the series
    /// index (no-op for unscoped keys). Eviction-time bookkeeping: O(that
    /// series' keys), and rare.
    fn unindex(&mut self, hash: u64, key: &StoredKey) {
        let Some((series, _)) = &key.scope else {
            return;
        };
        if let Some(hashes) = self.by_series.get_mut(series) {
            if let Some(position) = hashes.iter().position(|known| *known == hash) {
                hashes.swap_remove(position);
            }
            if hashes.is_empty() {
                self.by_series.remove(series);
            }
        }
    }
}

/// Lock a shard of a [`FitCache`], panicking if a thread panicked while
/// holding it.
fn locked(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    shard.lock().expect("fit cache lock poisoned")
}

/// Default number of shards (a power of two; the shard index is the low bits
/// of the stream's FNV-1a hash).
const DEFAULT_SHARDS: usize = 16;

/// Default total capacity. A full `reproduce all` run caches a few hundred
/// series, so the default never evicts there; it exists to bound memory for
/// long-running servers seeing unbounded distinct series.
const DEFAULT_CAPACITY: usize = 4096;

/// A sharded, capacity-bounded, concurrency-safe cache of candidate-fit
/// lists keyed by the stream a [`FitKey`] describes. Shared by every job of a
/// [`BatchPredictor`] so that workloads measured on the same machine reuse each other's fits
/// (identical series — e.g. a zero-noise category or a repeated workload —
/// are fitted once), and by `estima-serve` so concurrent HTTP requests share
/// fitted candidates without serializing on a single lock.
///
/// # Sharding and eviction
///
/// Keys are distributed over N independent shards by an FNV-1a hash of the
/// key's stream, each shard behind its own mutex, so concurrent
/// lookups of different series proceed in parallel. Inside a shard, the map
/// holds each list under the stream's `SipHash` keyed by the cache's own
/// random state, which the probe computed beside the FNV-1a hash and the
/// map passes through; the entry keeps the full key, and a hit compares it.
/// A different key under a stored key's hash is computed and not kept (with
/// random keys, about one pair in 2⁶⁴ collides). Every shard holds at
/// most `capacity / shards` entries and evicts its least-recently-used entry
/// on overflow (a hit refreshes recency). Eviction only ever costs a refit:
/// fits are deterministic, so a re-computed entry is bit-identical to the
/// evicted one and predictions are unaffected — pinned by
/// `crates/core/tests/fit_cache.rs`.
///
/// # The solve memo
///
/// Beneath the candidate lists, each shard also memoises grid cells per
/// training prefix (see [`crate::fit`]'s module docs): one entry per prefix,
/// keyed by the prefix's exact `f64` bits, holding every kernel's solve
/// and, per kernel, the realism walk's verdict, maximum, training RMSE and
/// eval table at the horizon it was last scored at. Like the lists, an
/// entry sits under its key's keyed hash and keeps its key, which a hit
/// compares; a different key under a stored hash is a miss and is not
/// kept. A fit hashes a series' points once, reading every prefix's hashes
/// on the way. The memo is structural and unscoped, so
/// [`FitCache::invalidate_series`] leaves it alone: a refit after an ingest
/// solves and walks only the prefixes the ingest changed. It is bounded like
/// the candidate lists — at most the shard capacity in entries per shard,
/// LRU — and, like them, losing an entry only costs a recomputation.
#[derive(Debug)]
pub struct FitCache {
    shards: Vec<Mutex<Shard>>,
    /// Maximum entries per shard.
    shard_capacity: usize,
    /// The keyed `SipHash` of every key's stream.
    keyed: RandomState,
    hits: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
    invalidations: AtomicUsize,
    /// Interned fit options (every field but the realism horizon): a key's
    /// stream carries its options' index here.
    fit_options: Interned,
    solve_hits: AtomicUsize,
    solve_misses: AtomicUsize,
}

/// The cache serves at most this many distinct [`FitOptions`] (the realism
/// horizon aside); fits with further options are computed and not kept.
const MAX_FIT_OPTIONS: usize = 64;

/// An append-only table of word lists, their indices handed out as ids in
/// first-use order. Its slots fill in order and are written once, so a
/// lookup reads them without a lock.
#[derive(Debug)]
struct Interned(Box<[OnceLock<Box<[u64]>>]>);

impl Interned {
    fn with_capacity(capacity: usize) -> Self {
        Interned((0..capacity).map(|_| OnceLock::new()).collect())
    }

    /// The id of `words`, taking the first free slot on first sight; `None`
    /// once other words fill every slot. Two first sights racing for a
    /// slot both read the winner's words, and the loser moves on.
    fn id(&self, words: impl Iterator<Item = u64> + Clone) -> Option<u64> {
        // `all` folds a chain of iterators part by part.
        let matches = |known: &[u64]| {
            let mut known = known.iter();
            words.clone().all(|word| known.next() == Some(&word)) && known.next().is_none()
        };
        let id = self
            .0
            .iter()
            .position(|slot| matches(slot.get_or_init(|| words.clone().collect())))?;
        Some(id as u64)
    }
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
            keyed: RandomState::new(),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
            invalidations: AtomicUsize::new(0),
            fit_options: Interned::with_capacity(MAX_FIT_OPTIONS),
            solve_hits: AtomicUsize::new(0),
            solve_misses: AtomicUsize::new(0),
        }
    }

    fn shard_at(&self, hash: u64) -> &Mutex<Shard> {
        &self.shards[(hash as usize) % self.shards.len()]
    }

    /// A stream with nothing hashed yet.
    fn stream(&self) -> StreamHash {
        StreamHash {
            keyed: self.keyed.build_hasher(),
            shard: Fnv1a::new(),
        }
    }

    /// The hashes of every prefix of `key`'s points in one pass: the `p`-th
    /// item (from 1) is the hash of the solve-memo key `key[..2p]`, exactly
    /// as that prefix hashes alone. `key` is `[x₀, y₀, x₁, y₁, …]`, a
    /// series' points as `f64` bit patterns.
    pub(crate) fn solve_hashes<'k>(&self, key: &'k [u64]) -> impl Iterator<Item = KeyHash> + 'k {
        let mut stream = self.stream();
        key.chunks_exact(2).map(move |point| {
            stream.words(point);
            stream.finish()
        })
    }

    /// The memoised cells of one training prefix, refreshing the entry's
    /// recency. `key` is `[x₀, y₀, …, xₚ₋₁, yₚ₋₁]`, the prefix's points as
    /// `f64` bit patterns, and `hash` its hashes
    /// ([`FitCache::solve_hashes`]). A hit compares the stored key word for
    /// word. The entry itself is shared: the lock is held for a
    /// reference-count increment, not a copy.
    pub(crate) fn lookup_solves_at(&self, key: &[u64], hash: KeyHash) -> Option<Arc<PrefixSolves>> {
        let mut guard = locked(self.shard_at(hash.shard));
        guard.clock += 1;
        let clock = guard.clock;
        let entry = guard.solves.get_mut(&hash.keyed)?;
        if *entry.key != *key {
            return None;
        }
        entry.last_used = clock;
        Some(Arc::clone(&entry.solves))
    }

    /// Merge `solves` into the memo entry for `key` (see
    /// [`FitCache::lookup_solves_at`]), inserting it if absent and then
    /// evicting the shard's least-recently-used entries beyond its capacity.
    /// The merge updates the entry in place, or a copy of it while a fit
    /// still holds the entry a lookup handed out. Under a hash another key
    /// holds, nothing is stored.
    pub(crate) fn store_solves_at(&self, key: &[u64], hash: KeyHash, solves: PrefixSolves) {
        let mut guard = locked(self.shard_at(hash.shard));
        guard.clock += 1;
        let clock = guard.clock;
        match guard.solves.entry(hash.keyed) {
            Entry::Occupied(mut occupied) => {
                let entry = occupied.get_mut();
                if *entry.key == *key {
                    Arc::make_mut(&mut entry.solves).merge(&solves);
                    entry.last_used = clock;
                }
            }
            Entry::Vacant(vacant) => {
                vacant.insert(SolveEntry {
                    key: key.into(),
                    solves: Arc::new(solves),
                    last_used: clock,
                });
                guard.enforce_solve_capacity(self.shard_capacity);
            }
        }
    }

    /// Count (kernel, prefix) cells the memo served and cells whose solve
    /// or walk ran.
    pub(crate) fn record_solves(&self, hits: usize, misses: usize) {
        self.solve_hits.fetch_add(hits, Ordering::Relaxed);
        self.solve_misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Look up `key`, computing and inserting the candidate list on a miss.
    /// This is the cache's one probe, under a key base built for this call
    /// from `key`'s `xs`, options and scope; a prediction builds one base
    /// for all of its series. The probe hashes the key once (see
    /// [`FitKey`]) and compares it in place, so a hit builds nothing and
    /// allocates nothing.
    ///
    /// The list is a [`Fits`]: a hit hands out the one shared list with its
    /// winner, table numbers and remembered scaling-factor choice, so a
    /// caller re-scores nothing. A `compute` that builds a plain `Vec` of
    /// candidates returns `Ok(list.into())`.
    pub fn get_or_compute<F>(&self, key: FitKey<'_>, compute: F) -> Result<Arc<Fits>>
    where
        F: FnOnce() -> Result<Fits>,
    {
        let base = self.key_base(key.xs, key.options, key.scope);
        self.probe(&base, key.ys, compute)
    }

    /// The shared part of the keys of every series over `xs` fitted with
    /// `options` under `scope`: the options interned (taking a slot on
    /// first sight), then the stream up to the `ys` hashed.
    pub(crate) fn key_base<'a>(
        &self,
        xs: &'a [f64],
        options: &FitOptions,
        scope: Option<CacheScope<'a>>,
    ) -> KeyBase<'a> {
        let id = self.fit_options.id(option_words(options));
        let horizon = options.realism_horizon;
        let mut hash = self.stream();
        if let Some(id) = id {
            hash.words(&[id, u64::from(horizon)]);
            hash.scope(scope);
            hash.series(xs);
        }
        KeyBase {
            options: id,
            horizon,
            scope,
            xs,
            hash,
        }
    }

    /// The cache's one lookup: the list of `base`'s key continued with
    /// `ys`, computing and inserting it on a miss. [`FitCache::get_or_compute`]
    /// and [`crate::fit::candidate_fits`] make it through a base of their
    /// own; an evaluation builds one base for all of its series.
    ///
    /// The probe runs the stream's two hashes on from the base's over `ys`
    /// (see [`FitKey`]): the FNV-1a hash picks the shard and the keyed hash
    /// finds the entry, whose stored key it compares with the base and `ys`
    /// word for word, so a hit builds nothing and allocates nothing. A key
    /// whose hash another key holds is a miss, computed and not kept.
    ///
    /// The computation runs outside every cache lock, so concurrent misses
    /// on the same key may compute twice — both produce identical results
    /// (the fit is deterministic) and the first insert wins, so callers
    /// always observe one consistent value. A hit refreshes the entry's LRU
    /// recency; an insert that overflows the shard evicts its
    /// least-recently-used entries. Once 64 other option sets are interned,
    /// a lookup with new options computes its list without keeping it (a
    /// miss).
    pub(crate) fn probe<F>(&self, base: &KeyBase<'_>, ys: &[f64], compute: F) -> Result<Arc<Fits>>
    where
        F: FnOnce() -> Result<Fits>,
    {
        let Some(options) = base.options else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return compute().map(Arc::new);
        };
        let mut stream = base.hash.clone();
        stream.series(ys);
        let hash = stream.keyed.finish();
        let shard = self.shard_at(stream.shard.finish());
        {
            let mut guard = locked(shard);
            guard.clock += 1;
            let clock = guard.clock;
            if let Some(entry) = guard.map.get_mut(&hash) {
                if entry.key.is(base, options, ys) {
                    entry.last_used = clock;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Arc::clone(&entry.value));
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let computed = Arc::new(compute()?);
        let mut guard = locked(shard);
        guard.clock += 1;
        let clock = guard.clock;
        let shard_mut = &mut *guard;
        match shard_mut.map.entry(hash) {
            Entry::Occupied(mut occupied) => {
                // A concurrent miss inserted this key first; its (identical)
                // value wins, refreshed as just used. Under another key, the
                // stored entry stays and this list is not kept.
                let entry = occupied.get_mut();
                if entry.key.is(base, options, ys) {
                    entry.last_used = clock;
                    return Ok(Arc::clone(&entry.value));
                }
                return Ok(computed);
            }
            Entry::Vacant(vacant) => {
                if let Some(scope) = base.scope {
                    match shard_mut.by_series.get_mut(scope.series) {
                        Some(hashes) => hashes.push(hash),
                        None => {
                            shard_mut
                                .by_series
                                .insert(scope.series.to_string(), vec![hash]);
                        }
                    }
                }
                vacant.insert(ShardEntry {
                    key: StoredKey::new(base, options, ys),
                    value: Arc::clone(&computed),
                    last_used: clock,
                });
            }
        }
        let evicted = guard.enforce_capacity(self.shard_capacity);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        Ok(computed)
    }

    /// Number of cached series across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| locked(shard).map.len())
            .sum()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|shard| locked(shard).map.is_empty())
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
            let mut guard = locked(shard);
            if let Some(hashes) = guard.by_series.remove(series) {
                for hash in hashes {
                    if guard.map.remove(&hash).is_some() {
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
    /// (kernel, training prefix) cell of a cache-miss fit: a hit was served
    /// whole from the memo, a miss ran its solve, its realism walk, or both.
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
            .map(|shard| locked(shard).solves.len())
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

    /// The solve memo's lookup and store for a key hashed alone.
    impl FitCache {
        fn solve_hash(&self, key: &[u64]) -> KeyHash {
            let mut stream = self.stream();
            stream.words(key);
            stream.finish()
        }

        fn lookup_solves(&self, key: &[u64]) -> Option<Arc<PrefixSolves>> {
            self.lookup_solves_at(key, self.solve_hash(key))
        }

        fn store_solves(&self, key: &[u64], solves: PrefixSolves) {
            self.store_solves_at(key, self.solve_hash(key), solves);
        }
    }

    /// An empty list, its computation counted.
    fn empty(computes: &Cell<usize>) -> Result<Fits> {
        computes.set(computes.get() + 1);
        Ok(Vec::new().into())
    }

    /// Look `key` up in `cache`, computing an empty list on a miss.
    fn look_up(cache: &FitCache, key: FitKey<'_>, computes: &Cell<usize>) -> Arc<Fits> {
        cache
            .get_or_compute(key, || empty(computes))
            .expect("an empty list")
    }

    /// Probe `cache` with `ys` under `base`, computing an empty list on a
    /// miss.
    fn probe(
        cache: &FitCache,
        base: &KeyBase<'_>,
        ys: &[f64],
        computes: &Cell<usize>,
    ) -> Arc<Fits> {
        cache
            .probe(base, ys, || empty(computes))
            .expect("an empty list")
    }

    /// Two caches that see the same lookups: `keyed` through [`FitKey`]s,
    /// and `based` through one key base per lookup, which probes the
    /// lookup's own `ys` between two series no case uses, so one base
    /// serves several `ys`. Both caches must hit or miss alike, and in each
    /// the other path must then find the same list.
    #[derive(Default)]
    struct BothPaths {
        keyed: FitCache,
        based: FitCache,
    }

    impl BothPaths {
        /// Look `key` up on both paths: whether it hit, and its list.
        fn look_up(&self, key: FitKey<'_>) -> (bool, Arc<Fits>) {
            const UNUSED: [&[f64]; 2] = [&[1e300, -1e300], &[f64::MIN_POSITIVE]];
            let base = self.based.key_base(key.xs, key.options, key.scope);
            let mut own = None;
            for (turn, ys) in [UNUSED[0], key.ys, UNUSED[1]].into_iter().enumerate() {
                let key = FitKey { ys, ..key };
                let computes = Cell::new(0);
                let keyed = look_up(&self.keyed, key, &computes);
                let based = probe(&self.based, &base, ys, &computes);
                let hit = match computes.get() {
                    0 => true,
                    2 => false,
                    _ => panic!("{key:?}: one path hit and the other missed"),
                };
                let fresh = self.keyed.key_base(key.xs, key.options, key.scope);
                let found = probe(&self.keyed, &fresh, ys, &computes);
                assert!(Arc::ptr_eq(&keyed, &found), "{key:?}: a base missed");
                let found = look_up(&self.based, key, &computes);
                assert!(Arc::ptr_eq(&based, &found), "{key:?}: a FitKey missed");
                let computed = 2 * usize::from(!hit);
                assert_eq!(computes.get(), computed, "{key:?}: a list is gone");
                if turn == 1 {
                    own = Some((hit, based));
                }
            }
            own.expect("the lookup's own ys")
        }
    }

    #[test]
    fn cache_key_distinguishes_series_and_options() {
        use crate::kernels::KernelKind;

        // One cache for every case, so a case that misses differs from
        // every earlier one.
        let cache = FitCache::new();
        let computes = Cell::new(0);
        // Every case also runs through both paths of two more caches.
        let paths = BothPaths::default();
        let hits = |key: FitKey<'_>| {
            let before = computes.get();
            look_up(&cache, key, &computes);
            let hit = computes.get() == before;
            assert_eq!(paths.look_up(key).0, hit, "{key:?}: the paths disagree");
            hit
        };
        let xs = [1.0, 2.0, 3.0];
        let ys = [1.0, 4.0, 9.0];
        let options = FitOptions::default();
        assert!(!hits(FitKey::new(&xs, &ys, &options)));
        assert!(hits(FitKey::new(&xs, &ys, &options)));
        assert!(hits(FitKey::new(&xs, &ys, &options.clone())));
        // Swapped, shortened and re-split series, and -0.0 against 0.0.
        let series: [(&[f64], &[f64]); 6] = [
            (&ys, &xs),
            (&xs[..2], &ys[..2]),
            (&[1.0, 2.0], &[3.0]),
            (&[1.0], &[2.0, 3.0]),
            (&[1.0, 2.0, 0.0], &ys),
            (&[1.0, 2.0, -0.0], &ys),
        ];
        for (xs, ys) in series {
            assert!(!hits(FitKey::new(xs, ys, &options)), "{xs:?}, {ys:?} hit");
        }

        // One variant per field of FitOptions, each changed alone: every
        // variant misses, then hits with equal options.
        let with = |change: &dyn Fn(&mut FitOptions)| {
            let mut changed = FitOptions::default();
            change(&mut changed);
            changed
        };
        let other_nan = f64::from_bits(f64::NAN.to_bits() ^ 1);
        let variants = [
            with(&|o| o.kernels.reverse()),
            with(&|o| o.kernels.truncate(5)),
            with(&|o| o.kernels = vec![KernelKind::Poly25]),
            with(&|o| o.checkpoint_counts = vec![4, 2]),
            with(&|o| o.checkpoint_counts = vec![2]),
            with(&|o| o.checkpoint_counts = vec![2, 4, 4]),
            with(&|o| o.realism_horizon = 128),
            with(&|o| o.max_growth_factor = 100.5),
            with(&|o| o.prefix_refitting = false),
        ];
        for (index, variant) in variants.iter().enumerate() {
            assert!(!hits(FitKey::new(&xs, &ys, variant)), "variant {index} hit");
            let equal = variant.clone();
            assert!(
                hits(FitKey::new(&xs, &ys, &equal)),
                "variant {index} missed"
            );
        }

        // Floats key by their bits: a different NaN payload, and -0.0
        // against 0.0, miss; the same bits hit.
        let nan = with(&|o| o.max_growth_factor = f64::NAN);
        assert!(!hits(FitKey::new(&xs, &ys, &nan)));
        assert!(hits(FitKey::new(&xs, &ys, &nan.clone())));
        let other = with(&|o| o.max_growth_factor = other_nan);
        assert!(!hits(FitKey::new(&xs, &ys, &other)));
        let zero = with(&|o| o.max_growth_factor = 0.0);
        assert!(!hits(FitKey::new(&xs, &ys, &zero)));
        let negative_zero = with(&|o| o.max_growth_factor = -0.0);
        assert!(!hits(FitKey::new(&xs, &ys, &negative_zero)));

        // A scope distinguishes otherwise equal keys, by series and version.
        assert!(!hits(FitKey::scoped(&xs, &ys, &options, "a", 1)));
        assert!(hits(FitKey::scoped(&xs, &ys, &options, "a", 1)));
        assert!(!hits(FitKey::scoped(&xs, &ys, &options, "a", 2)));
        assert!(!hits(FitKey::scoped(&xs, &ys, &options, "b", 1)));
        assert!(hits(FitKey::new(&xs, &ys, &options)), "unscoped list gone");
    }

    #[test]
    fn near_alias_lookups_never_share_a_list() {
        const NAN: f64 = f64::NAN;
        const OTHER_NAN: f64 = f64::from_bits(NAN.to_bits() ^ 1);
        let defaults = FitOptions::default();
        let horizon = FitOptions {
            realism_horizon: 48,
            ..FitOptions::default()
        };
        let growth = FitOptions {
            max_growth_factor: f64::from_bits(defaults.max_growth_factor.to_bits() + 1),
            ..FitOptions::default()
        };
        // Pairwise distinct keys, each close to another.
        let keys = [
            FitKey::new(&[1.0, 2.0], &[3.0], &defaults),
            FitKey::new(&[1.0], &[2.0, 3.0], &defaults),
            FitKey::new(&[1.0, 2.0, 3.0], &[], &defaults),
            FitKey::new(&[1.0, 2.0], &[0.0], &defaults),
            FitKey::new(&[1.0, 2.0], &[-0.0], &defaults),
            FitKey::new(&[1.0, 2.0], &[NAN], &defaults),
            FitKey::new(&[1.0, 2.0], &[OTHER_NAN], &defaults),
            FitKey::scoped(&[1.0, 2.0], &[3.0], &defaults, "a", 1),
            FitKey::scoped(&[1.0, 2.0], &[3.0], &defaults, "a", 2),
            FitKey::scoped(&[1.0, 2.0], &[3.0], &defaults, "b", 1),
            FitKey::scoped(&[1.0, 2.0], &[3.0], &defaults, "", 1),
            FitKey::new(&[1.0, 2.0], &[3.0], &horizon),
            FitKey::new(&[1.0, 2.0], &[3.0], &growth),
        ];
        let cache = FitCache::new();
        let computes = Cell::new(0);
        let inserted: Vec<Arc<Fits>> = keys
            .iter()
            .map(|key| look_up(&cache, *key, &computes))
            .collect();
        assert_eq!(computes.get(), keys.len(), "two keys aliased");
        for (key, list) in keys.iter().zip(&inserted) {
            let found = look_up(&cache, *key, &computes);
            assert!(Arc::ptr_eq(list, &found), "{key:?} found another list");
        }
        assert_eq!(computes.get(), keys.len(), "a key missed its own list");
        assert_eq!(cache.stats(), (keys.len(), keys.len()));

        // The same keys through both paths.
        let paths = BothPaths::default();
        let inserted: Vec<Arc<Fits>> = keys
            .iter()
            .map(|key| {
                let (hit, list) = paths.look_up(*key);
                assert!(!hit, "{key:?} aliased an earlier key");
                list
            })
            .collect();
        for (key, list) in keys.iter().zip(&inserted) {
            let (hit, found) = paths.look_up(*key);
            assert!(
                hit && Arc::ptr_eq(list, &found),
                "{key:?} found another list"
            );
        }
    }

    #[test]
    fn a_growing_shard_map_finds_every_key() {
        // One shard whose map grows from empty to 1500 entries, moving
        // every entry at each of its growths: an entry stored under a hash
        // other than its probe's is lost. Every other key is scoped, so the
        // series index names half of them.
        let cache = FitCache::with_shards_and_capacity(1, 2048);
        let computes = Cell::new(0);
        let options = FitOptions::default();
        let xs = [1.0, 2.0, 3.0];
        let series: Vec<[f64; 3]> = (0..1500).map(|i| [1.0, f64::from(i), 2.0]).collect();
        let key = |index: usize| {
            let ys = &series[index];
            match index % 2 {
                0 => FitKey::new(&xs, ys, &options),
                _ => FitKey::scoped(&xs, ys, &options, "grown", 1),
            }
        };
        let lists: Vec<Arc<Fits>> = (0..series.len())
            .map(|index| look_up(&cache, key(index), &computes))
            .collect();
        assert_eq!((computes.get(), cache.len()), (1500, 1500));
        for (index, list) in lists.iter().enumerate() {
            let found = look_up(&cache, key(index), &computes);
            assert!(Arc::ptr_eq(list, &found), "key {index} lost its list");
        }
        assert_eq!(computes.get(), 1500, "a key missed");
        assert_eq!(cache.invalidate_series("grown"), 750);
        assert_eq!(cache.len(), 750);
    }

    /// A lookup's inputs as a property test tracks them: the series' bits,
    /// which option set, and the scope.
    type SeenInputs<'a> = (Vec<u64>, Vec<u64>, usize, Option<(&'a str, u64)>);

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random series from a pool of near-aliases (the zeros, NaN
        /// payloads, infinities), random scopes and two option sets, about
        /// half of them repeats of an earlier draw: a lookup hits exactly
        /// when the same inputs came before, and then finds their list.
        #[test]
        fn random_lookups_hit_exactly_the_inputs_seen_before(
            draws in proptest::collection::vec(0u64..u64::MAX, 1..48),
        ) {
            let pool = [
                0.0,
                -0.0,
                1.0,
                2.0,
                f64::NAN,
                f64::from_bits(f64::NAN.to_bits() ^ 1),
                f64::INFINITY,
                f64::NEG_INFINITY,
            ];
            let options = [
                FitOptions::default(),
                FitOptions {
                    realism_horizon: 48,
                    ..FitOptions::default()
                },
            ];
            let cache = FitCache::new();
            let computes = Cell::new(0);
            // Each distinct input so far, as bits, with the list it found.
            let mut seen: Vec<(SeenInputs<'_>, Arc<Fits>)> = Vec::new();
            for turn in 0..draws.len() {
                let mut draw = draws[turn];
                if draw >> 63 == 1 && turn > 0 {
                    draw = draws[(draw >> 32) as usize % turn];
                }
                // Small fields of the draw pick each part of the inputs.
                let field = |at: u32, width: u32| ((draw >> at) & ((1 << width) - 1)) as usize;
                let series = |at: u32| -> Vec<f64> {
                    (0..field(at, 2)).map(|i| pool[field(at + 2 + 3 * i as u32, 3)]).collect()
                };
                let (xs, ys) = (series(0), series(12));
                let scope = match field(24, 2) {
                    0 => None,
                    1 => Some(("a", field(26, 1) as u64)),
                    _ => Some(("b", field(26, 1) as u64)),
                };
                let which = field(27, 1);
                let key = FitKey {
                    xs: &xs,
                    ys: &ys,
                    options: &options[which],
                    scope: scope.map(|(series, version)| CacheScope { series, version }),
                };
                let before = computes.get();
                let list = look_up(&cache, key, &computes);
                let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect();
                let inputs = (bits(&xs), bits(&ys), which, scope);
                match seen.iter().find(|(seen, _)| *seen == inputs) {
                    Some((_, earlier)) => {
                        proptest::prop_assert_eq!(computes.get(), before, "a repeat missed");
                        proptest::prop_assert!(Arc::ptr_eq(earlier, &list), "a repeat missed");
                    }
                    None => {
                        proptest::prop_assert_eq!(computes.get(), before + 1, "new inputs hit");
                        seen.push((inputs, list));
                    }
                }
            }
        }
    }

    #[test]
    fn fit_cache_counts_hits_and_misses() {
        let cache = FitCache::new();
        let options = FitOptions::default();
        let key_a = FitKey::new(&[1.0, 2.0], &[1.0, 4.0], &options);
        let key_b = FitKey::new(&[1.0, 2.0], &[2.0, 8.0], &options);
        let make = || Ok(Vec::new().into());
        cache.get_or_compute(key_a, make).unwrap();
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
        let key = |tag: f64| [1.0f64.to_bits(), tag.to_bits()];
        cache.store_solves(&key(1.0), PrefixSolves::EMPTY);
        cache.store_solves(&key(2.0), PrefixSolves::EMPTY);
        assert!(cache.lookup_solves(&key(1.0)).is_some()); // refreshes 1
        cache.store_solves(&key(3.0), PrefixSolves::EMPTY); // evicts 2
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
    fn one_pass_solve_hashes_equal_each_prefix_hashed_alone() {
        // Eleven points of mixed bit patterns: every prefix's one-pass
        // hashes, keyed and shard, are those of the prefix fed alone, in
        // one write, to a fresh stream.
        let cache = FitCache::new();
        let key: Vec<u64> = (0..22u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(i as u32))
            .chain([f64::NAN.to_bits(), (-0.0f64).to_bits()])
            .collect();
        let hashes: Vec<KeyHash> = cache.solve_hashes(&key).collect();
        assert_eq!(hashes.len(), key.len() / 2);
        for (points, hash) in (1..).zip(&hashes) {
            assert_eq!(
                *hash,
                cache.solve_hash(&key[..2 * points]),
                "prefix of {points} points"
            );
        }
        // An odd word is no point.
        assert_eq!(cache.solve_hashes(&key[..3]).count(), 1);
    }

    #[test]
    fn near_alias_prefixes_never_share_a_solve_entry() {
        const NAN: f64 = f64::NAN;
        const OTHER_NAN: f64 = f64::from_bits(NAN.to_bits() ^ 1);
        let next_up = f64::from_bits(4.0f64.to_bits() + 1);
        // Pairwise distinct keys, each close to another: the last word
        // changed, -0.0 against 0.0, NaN payloads, and a prefix of another.
        let keys: Vec<Vec<u64>> = [
            &[1.0, 2.0, 3.0, 4.0][..],
            &[1.0, 2.0, 3.0, 5.0],
            &[1.0, 2.0, 3.0, next_up],
            &[1.0, 2.0, 3.0, 0.0],
            &[1.0, 2.0, 3.0, -0.0],
            &[1.0, 2.0, 3.0, NAN],
            &[1.0, 2.0, 3.0, OTHER_NAN],
            &[1.0, 2.0, 0.0, 4.0],
            &[1.0, 2.0, -0.0, 4.0],
            &[1.0, 2.0],
            &[NAN, 2.0],
            &[OTHER_NAN, 2.0],
        ]
        .iter()
        .map(|values| values.iter().map(|v| v.to_bits()).collect())
        .collect();
        let cache = FitCache::new();
        let entries: Vec<Arc<PrefixSolves>> = keys
            .iter()
            .map(|key| {
                assert!(
                    cache.lookup_solves(key).is_none(),
                    "{key:x?} aliased an earlier key"
                );
                cache.store_solves(key, PrefixSolves::EMPTY);
                cache.lookup_solves(key).expect("its own entry")
            })
            .collect();
        assert_eq!(cache.solve_entries(), keys.len());
        for (key, entry) in keys.iter().zip(&entries) {
            let found = cache.lookup_solves(key).expect("its own entry");
            assert!(Arc::ptr_eq(entry, &found), "{key:x?} found another entry");
        }

        // A key under another key's hash is a miss, and is not stored.
        let (first, second) = (&keys[0], &keys[1]);
        let taken = cache.solve_hash(first);
        assert!(cache.lookup_solves_at(second, taken).is_none());
        cache.store_solves_at(second, taken, PrefixSolves::EMPTY);
        assert_eq!(cache.solve_entries(), keys.len());
        let found = cache.lookup_solves(first).expect("the first entry");
        assert!(Arc::ptr_eq(&entries[0], &found), "the first entry changed");
    }

    #[test]
    fn fit_options_intern_up_to_the_cap() {
        // Each of the first MAX_FIT_OPTIONS option sets computes once and
        // then hits; one more computes on every lookup, and the first
        // still hits.
        let cache = FitCache::new();
        let computes = Cell::new(0);
        let (xs, ys) = ([1.0, 2.0], [3.0, 4.0]);
        let options: Vec<FitOptions> = (1..=MAX_FIT_OPTIONS + 1)
            .map(|factor| FitOptions {
                max_growth_factor: factor as f64,
                ..FitOptions::default()
            })
            .collect();
        let look = |options: &FitOptions| {
            look_up(&cache, FitKey::new(&xs, &ys, options), &computes);
            computes.get()
        };
        for (n, options) in options[..MAX_FIT_OPTIONS].iter().enumerate() {
            assert_eq!(
                look(options),
                n + 1,
                "option set {n} hit before it was seen"
            );
            assert_eq!(look(options), n + 1, "option set {n} missed its list");
        }
        let past = &options[MAX_FIT_OPTIONS];
        assert_eq!(look(past), MAX_FIT_OPTIONS + 1);
        assert_eq!(
            look(past),
            MAX_FIT_OPTIONS + 2,
            "past the cap, a list is kept"
        );
        assert_eq!(look(&options[0]), MAX_FIT_OPTIONS + 2, "the first missed");
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
