//! A concurrent cache of per-pair randomness contexts, keyed by
//! `(pair, ProtocolChoice, ProblemSpec)`.
//!
//! Where the [`PlanCache`] amortizes the
//! *parameter phase* across sessions of one workload shape, this cache
//! amortizes the *offline phase* across sessions of one client pair: a
//! [`PairContext`] holds the pair's prepared plan, its forked coin
//! block, and its lazily sampled universe reduction, so a stream of
//! sessions between the same two parties pays for correlated-randomness
//! setup once. The structure deliberately mirrors the plan cache:
//!
//! - **Sharded**: keys hash onto independent `RwLock` shards.
//! - **Generation-tagged**: [`invalidate`](PairContextCache::invalidate)
//!   bumps a global generation; contexts stamped with an older
//!   generation are never served again, even if a racing insert lands
//!   after the clear. Plans inside a fresh context come from the shared
//!   plan cache, so the two caches stay consistent when both are
//!   invalidated together.
//! - **Counted**: hits, misses, and live entries surface through
//!   [`stats`](PairContextCache::stats) and as `pair_context_*` metrics
//!   on `/metrics`.
//!
//! Reusing a context never changes transcripts: session `i` of a pair's
//! stream draws the coin seed `stream_session_seed(pair, i)` from the
//! context's [`CoinBlock`](intersect_comm::coins::CoinBlock), the same
//! pure derivation a standalone rerun of the tagged request performs.

use crate::plan_cache::PlanCache;
use intersect_core::api::ProtocolChoice;
use intersect_core::prepared::PairContext;
use intersect_core::sets::ProblemSpec;
use intersect_obs as obs;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Shard count: matches the plan cache — the map holds one entry per
/// live (pair, shape), sharding is about lock traffic.
const SHARDS: usize = 16;

#[derive(Debug)]
struct Entry {
    generation: u64,
    ctx: Arc<PairContext>,
}

type Key = (u64, ProtocolChoice, ProblemSpec);
type Shard = RwLock<HashMap<Key, Entry>>;

/// Point-in-time counters for a [`PairContextCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairContextStats {
    /// Lookups served from a live context.
    pub hits: u64,
    /// Lookups that built a fresh context (offline phase ran).
    pub misses: u64,
    /// Live contexts across all shards.
    pub entries: u64,
    /// Invalidation generation (starts at 0).
    pub generation: u64,
}

/// A sharded, generation-tagged map from `(pair, protocol, spec)` to the
/// pair's [`PairContext`]. Shared by the engine dispatcher (every
/// streamed submission) and the remote server, which keys contexts by
/// the `pair=` tag on incoming `Open` frames.
///
/// # Examples
///
/// ```
/// use intersect_core::api::ProtocolChoice;
/// use intersect_core::sets::ProblemSpec;
/// use intersect_engine::pair_context::PairContextCache;
/// use intersect_engine::plan_cache::PlanCache;
///
/// let plans = PlanCache::new();
/// let pairs = PairContextCache::new();
/// let spec = ProblemSpec::new(1 << 20, 32);
/// let a = pairs.get_or_create(7, ProtocolChoice::TreeLogStar, spec, &plans);
/// let b = pairs.get_or_create(7, ProtocolChoice::TreeLogStar, spec, &plans);
/// assert!(std::sync::Arc::ptr_eq(&a, &b)); // second lookup is a hit
/// assert_eq!(pairs.stats().hits, 1);
/// assert_eq!(pairs.stats().misses, 1);
/// ```
#[derive(Debug)]
pub struct PairContextCache {
    shards: Vec<Shard>,
    generation: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for PairContextCache {
    fn default() -> Self {
        PairContextCache::new()
    }
}

impl PairContextCache {
    /// An empty cache.
    pub fn new() -> PairContextCache {
        PairContextCache {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            generation: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &Key) -> &Shard {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Returns the live context for `(pair, choice, spec)`, building one
    /// (plan lookup through the shared cache, coin block fork, reduction
    /// slot) under an `engine/pair_setup` span on first use or after an
    /// invalidation.
    pub fn get_or_create(
        &self,
        pair: u64,
        choice: ProtocolChoice,
        spec: ProblemSpec,
        plans: &PlanCache,
    ) -> Arc<PairContext> {
        let key = (pair, choice, spec);
        let generation = self.generation.load(Ordering::Acquire);
        let shard = self.shard(&key);
        if let Some(entry) = shard.read().expect("pair context cache poisoned").get(&key) {
            if entry.generation == generation {
                self.hits.fetch_add(1, Ordering::Relaxed);
                obs::counter_add("pair_context_hits", 1);
                return Arc::clone(&entry.ctx);
            }
        }
        // Build under the write lock, as the plan cache does: the
        // offline phase is short and deterministic, and holding the lock
        // means a burst of same-pair sessions runs it exactly once.
        let mut guard = shard.write().expect("pair context cache poisoned");
        if let Some(entry) = guard.get(&key) {
            if entry.generation == generation {
                self.hits.fetch_add(1, Ordering::Relaxed);
                obs::counter_add("pair_context_hits", 1);
                return Arc::clone(&entry.ctx);
            }
        }
        let span = obs::phase::span("engine", "pair_setup");
        let plan = plans.get_or_prepare(choice, spec);
        let ctx = Arc::new(PairContext::with_generation(plan, pair, generation));
        span.finish(obs::CostDelta::default());
        let stale = guard
            .insert(
                key,
                Entry {
                    generation,
                    ctx: Arc::clone(&ctx),
                },
            )
            .is_some();
        self.misses.fetch_add(1, Ordering::Relaxed);
        obs::counter_add("pair_context_misses", 1);
        if !stale {
            obs::gauge_add("pair_context_entries", 1);
        }
        ctx
    }

    /// Drops every context and bumps the generation, so contexts a
    /// racing lookup inserted under the old generation are never served.
    /// Pair streams resume from fresh coin blocks — still seeded by the
    /// pure `stream_session_seed` derivation, so replays stay exact.
    pub fn invalidate(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
        let mut evicted = 0i64;
        for shard in &self.shards {
            let mut guard = shard.write().expect("pair context cache poisoned");
            evicted += guard.len() as i64;
            guard.clear();
        }
        obs::gauge_add("pair_context_entries", -evicted);
    }

    /// Live contexts across all shards.
    pub fn entries(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.read().expect("pair context cache poisoned").len() as u64)
            .sum()
    }

    /// Current hit/miss/entry counters.
    pub fn stats(&self) -> PairContextStats {
        PairContextStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.entries(),
            generation: self.generation.load(Ordering::Acquire),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contexts_are_keyed_by_pair_and_shape() {
        let plans = PlanCache::new();
        let cache = PairContextCache::new();
        let spec_a = ProblemSpec::new(1 << 20, 32);
        let spec_b = ProblemSpec::new(1 << 24, 32);
        let c1 = cache.get_or_create(1, ProtocolChoice::TreeLogStar, spec_a, &plans);
        let c2 = cache.get_or_create(1, ProtocolChoice::TreeLogStar, spec_a, &plans);
        let c3 = cache.get_or_create(2, ProtocolChoice::TreeLogStar, spec_a, &plans);
        let c4 = cache.get_or_create(1, ProtocolChoice::TreeLogStar, spec_b, &plans);
        assert!(Arc::ptr_eq(&c1, &c2));
        assert!(!Arc::ptr_eq(&c1, &c3));
        assert!(!Arc::ptr_eq(&c1, &c4));
        assert_eq!(c1.pair_seed(), 1);
        assert_eq!(c3.pair_seed(), 2);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.entries, 3);
    }

    #[test]
    fn contexts_share_plans_through_the_plan_cache() {
        let plans = PlanCache::new();
        let cache = PairContextCache::new();
        let spec = ProblemSpec::new(1 << 20, 16);
        let c1 = cache.get_or_create(1, ProtocolChoice::Tree(2), spec, &plans);
        let c2 = cache.get_or_create(2, ProtocolChoice::Tree(2), spec, &plans);
        assert!(Arc::ptr_eq(c1.plan(), c2.plan()));
        // Two pair misses, but only one parameter derivation.
        assert_eq!(plans.stats().misses, 1);
        assert_eq!(plans.stats().hits, 1);
    }

    #[test]
    fn invalidation_rebuilds_contexts_with_a_fresh_generation() {
        let plans = PlanCache::new();
        let cache = PairContextCache::new();
        let spec = ProblemSpec::new(1 << 20, 16);
        let before = cache.get_or_create(9, ProtocolChoice::Tree(2), spec, &plans);
        before.take_block(3);
        cache.invalidate();
        assert_eq!(cache.entries(), 0);
        let after = cache.get_or_create(9, ProtocolChoice::Tree(2), spec, &plans);
        assert!(!Arc::ptr_eq(&before, &after));
        assert_eq!(after.generation(), 1);
        // The rebuilt context restarts its stream index; the coin seeds
        // it hands out are the same pure function of (pair, index).
        assert_eq!(after.sessions(), 0);
        assert_eq!(after.take_block(3), before_first_block(&before));
        let stats = cache.stats();
        assert_eq!(stats.generation, 1);
        assert_eq!(stats.misses, 2);
    }

    fn before_first_block(ctx: &Arc<PairContext>) -> (u64, Vec<u64>) {
        let seeds = (0..3)
            .map(|i| intersect_comm::coins::stream_session_seed(ctx.pair_seed(), i))
            .collect();
        (0, seeds)
    }

    #[test]
    fn concurrent_lookups_agree_on_one_context() {
        let plans = Arc::new(PlanCache::new());
        let cache = Arc::new(PairContextCache::new());
        let spec = ProblemSpec::new(1 << 30, 64);
        let ctxs: Vec<_> = std::thread::scope(|s| {
            (0..8)
                .map(|_| {
                    let plans = Arc::clone(&plans);
                    let cache = Arc::clone(&cache);
                    s.spawn(move || {
                        cache.get_or_create(3, ProtocolChoice::TreeLogStar, spec, &plans)
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert!(ctxs.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "offline phase ran exactly once");
        assert_eq!(stats.hits, 7);
        assert_eq!(stats.entries, 1);
    }
}
