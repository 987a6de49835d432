//! Serving-path completion cache for nl2vis.
//!
//! LLM calls dominate the serving path's wall-clock and cost, and the
//! workloads in this repo are extremely repetitive: demo-count sweeps,
//! repair rounds, and repeated eval runs all re-issue the same
//! `(model, options, prompt)` triples. This crate removes that redundancy
//! with three composable pieces:
//!
//! - [`ShardedLru`] — a capacity-bounded, sharded LRU map (O(1) get /
//!   insert / evict; std-only).
//! - [`SingleFlight`] — concurrent identical requests collapse into one
//!   upstream call; waiters share the leader's outcome (errors included,
//!   but errors are never memoized).
//! - [`CompletionCache`] / [`CacheLayer`] — the serving-path glue: a
//!   `nl2vis_service::Layer` that checks the cache, dedups in-flight
//!   misses, stores only *successful* completions, and optionally
//!   persists them as JSONL for warm cross-run starts.
//!
//! Layering matters: the cache wraps *outside* retry (`Cache(Retry(leaf))`
//! — the contract `nl2vis_service::validate_stack` enforces), so a cached
//! entry is always a completion that survived the full
//! retry-and-attribution path — transport errors, timeouts, and HTTP
//! error statuses never enter the cache.

pub mod client;
pub mod lru;
pub mod persist;
pub mod singleflight;

pub use client::{completion_key, CacheConfig, CacheLayer, CacheStats, Cached, CompletionCache};
pub use lru::{fnv1a, ShardedLru};
pub use persist::{decode_entry, encode_entry, Appender};
pub use singleflight::{FlightRole, SingleFlight};
