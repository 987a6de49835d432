//! # nl2vis-service — the layered completion stack
//!
//! The serving path of this workspace grew four generations of concrete
//! wrapper structs — retry, cache, trace propagation, metrics, fault
//! injection — each hand-rolled around the next, with ordering constraints
//! ("the cache must sit outside retry", "trace headers are injected
//! innermost") living only in doc comments. This crate replaces that with
//! a tower-style middleware architecture:
//!
//! - [`CompletionService`]: the one request/response abstraction — a
//!   prompt plus [`GenOptions`] in, a typed [`CompletionOutcome`] out.
//!   Leaf services (the HTTP client, the simulated model) and every
//!   middleware implement it, so stacks compose by plain nesting.
//! - [`Layer`]: a middleware constructor — `layer.layer(inner)` wraps a
//!   service in a new one. Shipped layers: [`RetryLayer`] (bounded retry
//!   with deterministic backoff and 429 `Retry-After` honoring),
//!   [`TraceLayer`] (one request span per call), [`MetricsLayer`]
//!   (failure attribution counters), and [`FaultLayer`] (fault
//!   injection inside a stack).
//! - [`fault`]: the one fault vocabulary — [`Fault`] and the scripted or
//!   seeded [`FaultInjector`] plan. The completion server applies a plan
//!   on the wire and [`FaultLayer`] applies the same plan to a stack's
//!   outcomes, so one plan means the same at either end.
//! - [`stack_of`] / [`validate_stack`]: runtime introspection of a
//!   composed stack's layer order, so misordered stacks (a cache inside
//!   retry would memoize per-attempt state) are rejected by debug
//!   assertions instead of silently corrupting results.
//! - [`tier`]: validation-gated tiered routing — [`RouteLayer`] builds a
//!   [`TieredService`] that serves the cheapest model tier first, checks
//!   the answer with the VQL parser/executor ([`ValidateLayer`]), and
//!   escalates to a stronger tier on failure.
//!
//! The canonical order, outermost first, is
//! `Trace(Metrics(Cache(Retry(leaf))))` — the cache layer itself lives in
//! `nl2vis-cache` (it needs the completion cache), and the typestate
//! `StackBuilder` in the root crate enforces the order at compile time.
//!
//! The wire-level transport types ([`TransportError`],
//! [`TransportErrorKind`], [`GenOptions`]) and the fault vocabulary live
//! here — the bottom of the dependency stack — and are re-exported by
//! `nl2vis-llm`, whose server applies the same [`FaultInjector`].

pub mod fault;
pub mod metrics;
pub mod outcome;
pub mod retry;
pub mod service;
pub mod tier;
pub mod trace;

pub use fault::{Fault, FaultInjector, FaultLayer, Faulted};
pub use metrics::{Metrics, MetricsLayer};
pub use outcome::{CompletionOutcome, GenOptions, TransportError, TransportErrorKind};
pub use retry::{Retry, RetryLayer, RetryPolicy};
pub use service::{service_fn, stack_of, validate_stack, CompletionService, Layer, ServiceFn};
pub use tier::{
    RouteLayer, RoutePolicy, Tier, TieredService, ValidateLayer, Validated, ValidationFailure,
    Validator, VqlExecValidator, VqlSyntaxValidator, VALIDATION_REJECTED_STATUS,
};
pub use trace::{Trace, TraceLayer};
