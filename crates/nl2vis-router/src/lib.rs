//! Client-side replica routing for the completion serving path.
//!
//! A [`Router`] spreads requests over N completion-server replicas while
//! preserving *prompt affinity*: the canonical completion key (identical
//! to the cache layer's key) is consistent-hashed onto a ring, so the same
//! prompt keeps landing on the same replica and that replica's completion
//! cache stays hot as the fleet scales out. Around that core:
//!
//! - **Health**: replicas are ejected after consecutive transport failures
//!   or failed `/healthz` probes, and readmitted when probes (or a served
//!   request) prove them back; the ring itself never changes, so a
//!   readmitted replica gets its old keyspace — and its warm shard — back.
//! - **429 feedback**: a replica advertising `Retry-After` is deprioritized
//!   for exactly that window, not ejected.
//! - **Hedging**: if the primary hasn't answered within its observed p95
//!   (sliding window), the request is hedged to the next ring candidate;
//!   first success wins and the loser is discarded. Both attempts run
//!   under one trace tree with the winner annotated.
//! - **Fleet observability** ([`fleet`]): a [`FleetObserver`] scrapes
//!   every replica's mergeable `/metrics.json` snapshot, folds them into
//!   an exact fleet view with SLO burn rates, stitches cross-process
//!   traces, and serves it all over a [`FleetServer`]'s `/fleet/*`
//!   endpoints.
//!
//! The router is itself a [`nl2vis_service::CompletionService`] (layer tag
//! `"route"`), composing as `Cache(Retry(Route(..)))` — see
//! [`nl2vis_service::validate_stack`] for why the router must sit inside
//! both.

pub mod fleet;
pub mod replica;
pub mod ring;
pub mod router;

pub use fleet::{FleetObserver, FleetServer};
pub use replica::ReplicaSpec;
pub use ring::Ring;
pub use router::{RoutedCall, Router, RouterConfig, RouterStats, RouterStatsSnapshot};
