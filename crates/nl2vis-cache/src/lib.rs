//! Serving-path completion cache for nl2vis.
//!
//! LLM calls dominate the serving path's wall-clock and cost, and the
//! workloads in this repo are extremely repetitive: demo-count sweeps,
//! repair rounds, and repeated eval runs all re-issue the same
//! `(model, options, prompt)` triples. This crate removes that redundancy
//! with three composable pieces:
//!
//! - [`ShardedLru`] — a capacity-bounded, sharded LRU map (O(1) get /
//!   insert / evict; std-only), keyed by a [`key_digest`] computed once
//!   per lookup and checked against the full key.
//! - [`SingleFlight`] — concurrent identical requests collapse into one
//!   upstream call; waiters share the leader's outcome (errors included,
//!   but errors are never memoized).
//! - [`CompletionCache`] / [`CacheLayer`] — the serving-path glue: a
//!   `nl2vis_service::Layer` that checks the cache, dedups in-flight
//!   misses, and stores only *successful* completions.
//!
//! The cache lives in memory only: every cache is built with
//! [`CompletionCache::in_memory`] and starts cold.
//!
//! Layering matters: the cache wraps *outside* retry (`Cache(Retry(leaf))`
//! — the contract `nl2vis_service::validate_stack` enforces), so a cached
//! entry is always a completion that survived the full
//! retry-and-attribution path — transport errors, timeouts, and HTTP
//! error statuses never enter the cache.

pub mod client;
pub mod lru;
pub mod singleflight;

pub use client::{completion_key, CacheLayer, CacheStats, Cached, CompletionCache};
pub use lru::{key_digest, ShardedLru};
pub use singleflight::{FlightRole, SingleFlight};
