//! The completion cache and the middleware that serves from it.
//!
//! [`CompletionCache`] composes the two mechanisms of this crate —
//! sharded LRU and single-flight — behind one call,
//! [`CompletionCache::complete_through`]. [`CacheLayer`] lifts that call
//! into the layered completion stack: it wraps any
//! [`CompletionService`], keying by a canonical hash input of (model,
//! generation options, prompt). In the canonical stack the cache sits
//! *outside* retry (`Cache(Retry(leaf))` — the ordering
//! `nl2vis_service::validate_stack` enforces), so a completion only
//! enters the cache after the whole retry budget concluded in model text.
//! Transport errors — timeouts, refused connects, 4xx/5xx — are **never**
//! cached: the next identical request goes upstream again.

use crate::lru::ShardedLru;
use crate::singleflight::{FlightRole, SingleFlight};
use nl2vis_obs as obs;
use nl2vis_service::{CompletionOutcome, CompletionService, GenOptions, Layer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Unit separator: cannot occur in model names and never terminates a
/// prompt, so the canonical key decomposes unambiguously.
const SEP: char = '\u{1f}';

/// The canonical cache key of a completion request: model configuration
/// plus the exact prompt. Two requests share a key iff the backend would
/// be asked the exact same question.
pub fn completion_key(model: &str, opts: &GenOptions, prompt: &str) -> String {
    format!(
        "{model}{SEP}attempt={};error_scale={};structural_scale={}{SEP}{prompt}",
        opts.attempt, opts.error_scale, opts.structural_scale
    )
}

/// Independently locked LRU shards per cache.
const SHARDS: usize = 8;

/// A point-in-time view of the cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that went upstream.
    pub misses: u64,
    /// Entries evicted by the capacity bound.
    pub evictions: u64,
    /// Successful completions inserted.
    pub insertions: u64,
    /// Requests that deduplicated into a concurrent identical flight.
    pub singleflight_waits: u64,
}

impl CacheStats {
    /// Hit rate over all lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A sharded, capacity-bounded completion cache with single-flight
/// deduplication.
///
/// Every event is mirrored onto the global [`nl2vis_obs`] registry
/// (`cache.hits`, `cache.misses`, `cache.evictions`, `cache.insertions`,
/// `cache.singleflight_waits`) and tracked locally for [`CompletionCache::stats`].
pub struct CompletionCache {
    lru: ShardedLru<String>,
    flight: SingleFlight<CompletionOutcome>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    insertions: AtomicU64,
    singleflight_waits: AtomicU64,
}

impl CompletionCache {
    /// An in-memory cache of `capacity` completions (approximate: capacity
    /// is split evenly across [`SHARDS`] shards).
    pub fn in_memory(capacity: usize) -> CompletionCache {
        CompletionCache {
            lru: ShardedLru::new(capacity, SHARDS),
            flight: SingleFlight::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            singleflight_waits: AtomicU64::new(0),
        }
    }

    /// Number of cached completions.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Current counter values.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            singleflight_waits: self.singleflight_waits.load(Ordering::Relaxed),
        }
    }

    /// Looks up a completion without going upstream (counts a hit or miss).
    pub fn get(&self, key: &str) -> Option<String> {
        match self.lru.get(key) {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                obs::count("cache.hits", 1);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                obs::count("cache.misses", 1);
                None
            }
        }
    }

    /// Inserts a successful completion.
    pub fn insert(&self, key: &str, completion: &str) {
        if self.lru.insert(key.to_string(), completion.to_string()) {
            self.evictions.fetch_add(1, Ordering::Relaxed);
            obs::count("cache.evictions", 1);
        }
        self.insertions.fetch_add(1, Ordering::Relaxed);
        obs::count("cache.insertions", 1);
    }

    /// The serving-path entry point: returns the cached completion for
    /// `key`, or runs `work` under single-flight deduplication. Only
    /// successful outcomes enter the cache; an `Err` (transport failure)
    /// is returned to this request — and to any request deduplicated into
    /// the same flight — but never stored.
    pub fn complete_through<F>(&self, key: &str, work: F) -> CompletionOutcome
    where
        F: FnOnce() -> CompletionOutcome,
    {
        // One span per lookup, annotated with how the request was served
        // (`cache=hit|miss`, plus `singleflight=wait` for deduplicated
        // requests) — in a stitched trace this is what distinguishes "the
        // model answered" from "the cache answered".
        let span = obs::span!("cache.lookup");
        if let Some(hit) = self.get(key) {
            span.annotate("cache", "hit");
            return Ok(hit);
        }
        span.annotate("cache", "miss");
        let (outcome, role) = self.flight.run(key, || {
            // Re-check under the flight: a concurrent leader may have
            // populated the cache between our miss and winning the flight.
            // That is a logical hit (this request never goes upstream), so
            // it counts as one.
            if let Some(hit) = self.lru.get(key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                obs::count("cache.hits", 1);
                span.annotate("cache", "flight_hit");
                return Ok(hit);
            }
            let outcome = work();
            if let Ok(completion) = &outcome {
                self.insert(key, completion);
            }
            outcome
        });
        if role == FlightRole::Waiter {
            self.singleflight_waits.fetch_add(1, Ordering::Relaxed);
            obs::count("cache.singleflight_waits", 1);
            span.annotate("singleflight", "wait");
        }
        outcome
    }
}

/// [`Layer`] serving an inner [`CompletionService`] through a
/// [`CompletionCache`].
///
/// The cache is shared (`Arc`), so many stacks — one per eval worker, or
/// the pipeline plus the eval runner — can serve from the same entries.
pub struct CacheLayer {
    cache: Arc<CompletionCache>,
}

impl CacheLayer {
    /// A cache layer over a fresh in-memory cache of `capacity` entries.
    pub fn new(capacity: usize) -> CacheLayer {
        CacheLayer::with_cache(Arc::new(CompletionCache::in_memory(capacity)))
    }

    /// A cache layer over a shared cache.
    pub fn with_cache(cache: Arc<CompletionCache>) -> CacheLayer {
        CacheLayer { cache }
    }

    /// The shared cache handle.
    pub fn cache(&self) -> &Arc<CompletionCache> {
        &self.cache
    }
}

impl<S: CompletionService> Layer<S> for CacheLayer {
    type Service = Cached<S>;

    fn layer(&self, inner: S) -> Cached<S> {
        Cached {
            inner,
            cache: Arc::clone(&self.cache),
        }
    }
}

/// The cache middleware; see [`CacheLayer`].
pub struct Cached<S> {
    inner: S,
    cache: Arc<CompletionCache>,
}

impl<S> Cached<S> {
    /// The shared cache handle.
    pub fn cache(&self) -> &Arc<CompletionCache> {
        &self.cache
    }

    /// The wrapped service.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: CompletionService> CompletionService for Cached<S> {
    fn model(&self) -> &str {
        self.inner.model()
    }

    fn call(&self, prompt: &str, opts: &GenOptions) -> CompletionOutcome {
        let key = completion_key(self.inner.model(), opts, prompt);
        self.cache
            .complete_through(&key, || self.inner.call(prompt, opts))
    }

    fn describe(&self, stack: &mut Vec<&'static str>) {
        stack.push("cache");
        self.inner.describe(stack);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nl2vis_service::{TransportError, TransportErrorKind};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;

    /// A scriptable fake backend: pops the next outcome per call and
    /// counts upstream traffic.
    struct ScriptedLlm {
        outcomes: Mutex<Vec<CompletionOutcome>>,
        calls: AtomicUsize,
    }

    impl ScriptedLlm {
        fn new(outcomes: Vec<CompletionOutcome>) -> ScriptedLlm {
            ScriptedLlm {
                outcomes: Mutex::new(outcomes),
                calls: AtomicUsize::new(0),
            }
        }

        fn calls(&self) -> usize {
            self.calls.load(Ordering::SeqCst)
        }
    }

    impl CompletionService for ScriptedLlm {
        fn model(&self) -> &str {
            "scripted"
        }

        fn call(&self, prompt: &str, _opts: &GenOptions) -> CompletionOutcome {
            self.calls.fetch_add(1, Ordering::SeqCst);
            let mut outcomes = self.outcomes.lock().unwrap();
            if outcomes.is_empty() {
                Ok(format!("echo:{prompt}"))
            } else {
                outcomes.remove(0)
            }
        }
    }

    /// `inner` behind a fresh in-memory cache of `capacity` entries.
    fn cached<S: CompletionService>(inner: S, capacity: usize) -> Cached<S> {
        CacheLayer::new(capacity).layer(inner)
    }

    fn transport_err() -> TransportError {
        TransportError::new(TransportErrorKind::Timeout, 3, "read deadline")
    }

    #[test]
    fn key_distinguishes_model_opts_and_prompt() {
        let base = GenOptions::default();
        let retry = GenOptions {
            attempt: 1,
            ..GenOptions::default()
        };
        let k1 = completion_key("gpt-4", &base, "p");
        assert_eq!(k1, completion_key("gpt-4", &base, "p"));
        assert_ne!(k1, completion_key("gpt-3.5-turbo-16k", &base, "p"));
        assert_ne!(k1, completion_key("gpt-4", &retry, "p"));
        assert_ne!(k1, completion_key("gpt-4", &base, "p2"));
    }

    #[test]
    fn second_identical_request_is_a_hit() {
        let client = cached(ScriptedLlm::new(vec![]), 16);
        let a = client.call("q", &GenOptions::default()).unwrap();
        let b = client.call("q", &GenOptions::default()).unwrap();
        assert_eq!(a, b);
        assert_eq!(client.inner().calls(), 1, "the repeat must not go upstream");
        let stats = client.cache().stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn transport_errors_are_returned_but_never_cached() {
        let client = cached(
            ScriptedLlm::new(vec![Err(transport_err()), Ok("recovered".to_string())]),
            16,
        );
        let first = client.call("q", &GenOptions::default());
        assert!(first.is_err());
        assert_eq!(client.cache().len(), 0, "failures must not be stored");
        // The identical retry goes upstream again and succeeds...
        let second = client.call("q", &GenOptions::default());
        assert_eq!(second.unwrap(), "recovered");
        assert_eq!(client.inner().calls(), 2);
        // ...and only now is the entry cached.
        let third = client.call("q", &GenOptions::default());
        assert_eq!(third.unwrap(), "recovered");
        assert_eq!(client.inner().calls(), 2);
    }

    #[test]
    fn concurrent_identical_requests_make_one_upstream_call() {
        struct SlowLlm {
            calls: AtomicUsize,
        }
        impl CompletionService for SlowLlm {
            fn model(&self) -> &str {
                "slow"
            }
            fn call(&self, prompt: &str, _opts: &GenOptions) -> CompletionOutcome {
                self.calls.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(60));
                Ok(format!("slow:{prompt}"))
            }
        }
        let client = Arc::new(cached(
            SlowLlm {
                calls: AtomicUsize::new(0),
            },
            16,
        ));
        let gate = Arc::new(std::sync::Barrier::new(6));
        let mut handles = Vec::new();
        for _ in 0..6 {
            let client = Arc::clone(&client);
            let gate = Arc::clone(&gate);
            handles.push(std::thread::spawn(move || {
                gate.wait();
                client.call("same prompt", &GenOptions::default()).unwrap()
            }));
        }
        let results: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(results.iter().all(|r| r == "slow:same prompt"));
        assert_eq!(
            client.inner().calls.load(Ordering::SeqCst),
            1,
            "exactly one upstream call for six concurrent identical requests"
        );
        let stats = client.cache().stats();
        assert_eq!(stats.singleflight_waits + stats.hits, 5);
    }

    #[test]
    fn eviction_counts_and_capacity_hold_under_churn() {
        let client = cached(ScriptedLlm::new(vec![]), 4);
        for i in 0..32 {
            client
                .call(&format!("prompt {i}"), &GenOptions::default())
                .unwrap();
        }
        let stats = client.cache().stats();
        assert!(client.cache().len() <= 8, "len {}", client.cache().len());
        assert!(stats.evictions > 0);
        assert_eq!(stats.insertions, 32);
    }

    #[test]
    fn tier_qualified_keys_keep_escalated_results_distinct() {
        // In a tiered stack each tier's cache wraps that tier's leaf, so
        // the same prompt answered by the cheap tier and (after
        // escalation) by the strong tier lands under *different* keys —
        // an escalated answer can never be served back as the cheap
        // tier's.
        let opts = GenOptions::default();
        let cheap_key = completion_key("gpt-3.5-turbo-16k", &opts, "plot sales by month");
        let strong_key = completion_key("gpt-4", &opts, "plot sales by month");
        assert_ne!(cheap_key, strong_key);

        let cache = Arc::new(CompletionCache::in_memory(16));
        let layer = CacheLayer::with_cache(Arc::clone(&cache));
        let cheap = layer.layer(nl2vis_service::service_fn("gpt-3.5-turbo-16k", |_, _| {
            Ok("VISUALIZE BAR".to_string())
        }));
        let strong = layer.layer(nl2vis_service::service_fn("gpt-4", |_, _| {
            Ok("VISUALIZE LINE".to_string())
        }));
        assert_eq!(
            cheap.call("plot sales by month", &opts).unwrap(),
            "VISUALIZE BAR"
        );
        assert_eq!(
            strong.call("plot sales by month", &opts).unwrap(),
            "VISUALIZE LINE"
        );
        // Both answers coexist in the shared cache, and each tier keeps
        // serving its own entry on the repeat hit.
        assert_eq!(cache.len(), 2);
        assert_eq!(
            cheap.call("plot sales by month", &opts).unwrap(),
            "VISUALIZE BAR"
        );
        assert_eq!(
            strong.call("plot sales by month", &opts).unwrap(),
            "VISUALIZE LINE"
        );
        assert_eq!(cache.stats().hits, 2);
    }
}
