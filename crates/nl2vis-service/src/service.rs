//! The [`CompletionService`] trait, the [`Layer`] combinator, and stack
//! introspection.
//!
//! A service is one question answered: *given this prompt and these
//! generation options, what did the model say (or how did the transport
//! fail)?* Middlewares are services wrapping services; a [`Layer`] is the
//! constructor that does the wrapping. Because every middleware reports a
//! stable tag through [`CompletionService::describe`], a composed stack
//! can be inspected ([`stack_of`]) and checked against the ordering
//! contract ([`validate_stack`]) at runtime — the typestate `StackBuilder`
//! in the root crate enforces the same contract at compile time.

use crate::outcome::{CompletionOutcome, GenOptions};

/// A text-completion service: request in, typed outcome out.
///
/// Implemented by leaf backends (HTTP client, simulated model) and by
/// every middleware, so arbitrary stacks present one uniform surface.
pub trait CompletionService {
    /// The model identifier requests are billed to — used for cache keys
    /// and reporting. Middlewares forward to their inner service.
    fn model(&self) -> &str;

    /// Performs one completion request.
    fn call(&self, prompt: &str, opts: &GenOptions) -> CompletionOutcome;

    /// Appends this service's layer tag (and, for middlewares, the inner
    /// service's tags after it) to `stack` — outermost first. Tags are
    /// stable identifiers (`"trace"`, `"metrics"`, `"cache"`, `"retry"`,
    /// `"fault"`, or a leaf tag) consumed by [`validate_stack`].
    fn describe(&self, stack: &mut Vec<&'static str>) {
        stack.push("leaf");
    }

    /// Performs several completion requests sharing one set of generation
    /// options, answering `outcomes[i]` for `prompts[i]`. The default
    /// serves each prompt through [`call`](CompletionService::call), in
    /// order; a backend that can amortize work across a batch overrides
    /// it together with [`batches`](CompletionService::batches).
    fn call_batch(&self, prompts: &[&str], opts: &GenOptions) -> Vec<CompletionOutcome> {
        prompts
            .iter()
            .map(|prompt| self.call(prompt, opts))
            .collect()
    }

    /// Whether [`call_batch`](CompletionService::call_batch) does better
    /// than one `call` per prompt. The completion server coalesces queued
    /// requests only for a service that says so; every other service is
    /// served one request per worker.
    fn batches(&self) -> bool {
        false
    }
}

/// References delegate, so stacks can borrow shared leaves.
impl<S: CompletionService + ?Sized> CompletionService for &S {
    fn model(&self) -> &str {
        (**self).model()
    }

    fn call(&self, prompt: &str, opts: &GenOptions) -> CompletionOutcome {
        (**self).call(prompt, opts)
    }

    fn describe(&self, stack: &mut Vec<&'static str>) {
        (**self).describe(stack)
    }

    fn call_batch(&self, prompts: &[&str], opts: &GenOptions) -> Vec<CompletionOutcome> {
        (**self).call_batch(prompts, opts)
    }

    fn batches(&self) -> bool {
        (**self).batches()
    }
}

/// Boxed services delegate, so `Box<dyn CompletionService>` composes with
/// generic layers. Like the other forwarding impls, this one forwards the
/// batch methods too: a boxed or shared batching backend keeps batching.
impl<S: CompletionService + ?Sized> CompletionService for Box<S> {
    fn model(&self) -> &str {
        (**self).model()
    }

    fn call(&self, prompt: &str, opts: &GenOptions) -> CompletionOutcome {
        (**self).call(prompt, opts)
    }

    fn describe(&self, stack: &mut Vec<&'static str>) {
        (**self).describe(stack)
    }

    fn call_batch(&self, prompts: &[&str], opts: &GenOptions) -> Vec<CompletionOutcome> {
        (**self).call_batch(prompts, opts)
    }

    fn batches(&self) -> bool {
        (**self).batches()
    }
}

impl<S: CompletionService + ?Sized> CompletionService for std::sync::Arc<S> {
    fn model(&self) -> &str {
        (**self).model()
    }

    fn call(&self, prompt: &str, opts: &GenOptions) -> CompletionOutcome {
        (**self).call(prompt, opts)
    }

    fn describe(&self, stack: &mut Vec<&'static str>) {
        (**self).describe(stack)
    }

    fn call_batch(&self, prompts: &[&str], opts: &GenOptions) -> Vec<CompletionOutcome> {
        (**self).call_batch(prompts, opts)
    }

    fn batches(&self) -> bool {
        (**self).batches()
    }
}

/// A middleware constructor: wraps an inner [`CompletionService`] in a new
/// one. `Trace(Metrics(Retry(leaf)))` is literally
/// `trace.layer(metrics.layer(retry.layer(leaf)))`.
pub trait Layer<S: CompletionService> {
    /// The wrapped service this layer produces.
    type Service: CompletionService;

    /// Wraps `inner`.
    fn layer(&self, inner: S) -> Self::Service;
}

/// The layer tags of a composed stack, outermost first — e.g.
/// `["trace", "metrics", "cache", "retry", "http"]`.
pub fn stack_of<S: CompletionService + ?Sized>(service: &S) -> Vec<&'static str> {
    let mut stack = Vec::new();
    service.describe(&mut stack);
    stack
}

/// Checks a stack's layer order against the serving contract. Returns the
/// first violation as an error message, or `Ok` for a conforming stack.
///
/// The contract (outermost first):
///
/// 1. **`cache` must sit outside `retry`.** A cache inside retry would be
///    consulted (and populated) per *attempt*: a completion produced on
///    attempt 2 of a request could be keyed identically to attempt 1's
///    failure, and single-flight deduplication would collapse concurrent
///    *attempts* rather than concurrent *requests*. Outside retry, an
///    entry is stored only after the whole retry budget concluded in
///    model text, and a transport failure is retried — never memoized.
/// 2. **At most one `cache` and one `retry`.** Nested retries multiply
///    attempt budgets (3 × 3 = 9 upstream calls); nested caches double
///    insertions and skew hit-rate accounting.
/// 3. **`route` (replica selection, hedging) sits inside `cache` and
///    `retry`, and at most once.** A client-side cache hit must answer
///    without touching the replica ring at all, so the cache wraps the
///    router; and a retry that wraps the router re-enters replica
///    selection, letting the retried attempt fail over to a different
///    (healthy, unpenalized) replica instead of hammering the one that
///    just failed. Two nested routers would hedge hedges — up to 4
///    upstream calls for one request.
/// 4. **`tier` (model-tier routing) sits inside `retry` and outside
///    `cache` and `route`, at most once.** A retry above the tier router
///    re-enters tier selection, so a transient failure can fail over to a
///    stronger tier; a cache outside the router would memoize whichever
///    tier happened to answer under one key, collapsing the tiers'
///    distinct (tier-qualified) keyspaces — per-tier caches belong inside
///    each tier. Replica selection likewise happens per tier, inside it.
/// 5. **`validate` sits inside `cache`, at most once.** With
///    `Validate(Cache(leaf))` the inner cache stores a completion *before*
///    validation sees it, so an invalid answer is memoized and replayed —
///    a poisoned entry that rejects forever. `Cache(Validate(leaf))`
///    stores only answers that passed the check, because errors are never
///    cached.
pub fn validate_stack(stack: &[&str]) -> Result<(), String> {
    let position = |tag: &str| stack.iter().position(|t| *t == tag);
    if stack.iter().filter(|t| **t == "retry").count() > 1 {
        return Err(format!("stack nests two retry layers: {stack:?}"));
    }
    if stack.iter().filter(|t| **t == "cache").count() > 1 {
        return Err(format!("stack nests two cache layers: {stack:?}"));
    }
    if stack.iter().filter(|t| **t == "route").count() > 1 {
        return Err(format!(
            "stack nests two route layers (hedges would hedge): {stack:?}"
        ));
    }
    if stack.iter().filter(|t| **t == "tier").count() > 1 {
        return Err(format!("stack nests two tier routers: {stack:?}"));
    }
    if stack.iter().filter(|t| **t == "validate").count() > 1 {
        return Err(format!("stack nests two validate layers: {stack:?}"));
    }
    if let Some(tier) = position("tier") {
        if let Some(cache) = position("cache") {
            if cache < tier {
                return Err(format!(
                    "cache sits outside tier (position {cache} vs {tier}): one shared cache \
                     would collapse the tiers' tier-qualified keyspaces; put a cache inside \
                     each tier instead: {stack:?}"
                ));
            }
        }
        if let Some(route) = position("route") {
            if route < tier {
                return Err(format!(
                    "route sits outside tier (position {route} vs {tier}): replica selection \
                     happens per tier; compose Tier(Route(..)) inside each tier: {stack:?}"
                ));
            }
        }
        if let Some(retry) = position("retry") {
            if retry > tier {
                return Err(format!(
                    "retry sits inside tier (position {retry} vs {tier}): retries would \
                     multiply one tier's cost before the router could escalate; compose \
                     Retry(Tier(..)) instead: {stack:?}"
                ));
            }
        }
    }
    if let (Some(validate), Some(cache)) = (position("validate"), position("cache")) {
        if validate < cache {
            return Err(format!(
                "cache sits inside validate (position {cache} vs {validate}): an invalid \
                 completion would be memoized before validation rejects it, poisoning the \
                 entry; compose Cache(Validate(..)) instead: {stack:?}"
            ));
        }
    }
    if let (Some(cache), Some(retry)) = (position("cache"), position("retry")) {
        if cache > retry {
            return Err(format!(
                "cache sits inside retry (position {cache} vs {retry}): failures could be \
                 memoized per-attempt; compose Cache(Retry(..)) instead: {stack:?}"
            ));
        }
    }
    if let Some(route) = position("route") {
        if let Some(cache) = position("cache") {
            if cache > route {
                return Err(format!(
                    "cache sits inside route (position {cache} vs {route}): a cache hit would \
                     still pay replica selection; compose Cache(Route(..)) instead: {stack:?}"
                ));
            }
        }
        if let Some(retry) = position("retry") {
            if retry > route {
                return Err(format!(
                    "retry sits inside route (position {retry} vs {route}): retried attempts \
                     would be pinned to the failing replica; compose Retry(Route(..)) so a \
                     retry can fail over: {stack:?}"
                ));
            }
        }
    }
    Ok(())
}

/// A leaf service built from a closure — the cheapest way to stand up a
/// scriptable backend in tests (`service_fn("m", |p, _| Ok(p.into()))`).
pub struct ServiceFn<F> {
    model: String,
    f: F,
}

/// Builds a [`ServiceFn`] leaf over `f`.
pub fn service_fn<F>(model: impl Into<String>, f: F) -> ServiceFn<F>
where
    F: Fn(&str, &GenOptions) -> CompletionOutcome,
{
    ServiceFn {
        model: model.into(),
        f,
    }
}

impl<F> CompletionService for ServiceFn<F>
where
    F: Fn(&str, &GenOptions) -> CompletionOutcome,
{
    fn model(&self) -> &str {
        &self.model
    }

    fn call(&self, prompt: &str, opts: &GenOptions) -> CompletionOutcome {
        (self.f)(prompt, opts)
    }

    fn describe(&self, stack: &mut Vec<&'static str>) {
        stack.push("fn");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::{TransportError, TransportErrorKind};
    use crate::retry::{RetryLayer, RetryPolicy};

    #[test]
    fn service_fn_is_a_leaf() {
        let svc = service_fn("echo", |p, _| Ok(format!("echo:{p}")));
        assert_eq!(svc.model(), "echo");
        assert_eq!(svc.call("hi", &GenOptions::default()).unwrap(), "echo:hi");
        assert_eq!(stack_of(&svc), vec!["fn"]);
    }

    #[test]
    fn boxed_and_borrowed_services_delegate() {
        let svc = service_fn("m", |_, _| Ok("x".to_string()));
        let by_ref: &dyn CompletionService = &svc;
        assert_eq!(by_ref.model(), "m");
        let boxed: Box<dyn CompletionService> = Box::new(service_fn("m2", |_, _| {
            Err(TransportError::new(TransportErrorKind::Io, 1, "down"))
        }));
        assert_eq!(boxed.model(), "m2");
        assert!(boxed.call("p", &GenOptions::default()).is_err());
        assert_eq!(stack_of(&boxed), vec!["fn"]);
    }

    #[test]
    fn batch_methods_default_to_call_and_forward_through_wrappers() {
        struct Batcher;
        impl CompletionService for Batcher {
            fn model(&self) -> &str {
                "b"
            }
            fn call(&self, prompt: &str, _: &GenOptions) -> CompletionOutcome {
                Ok(prompt.to_string())
            }
            fn call_batch(&self, prompts: &[&str], _: &GenOptions) -> Vec<CompletionOutcome> {
                prompts.iter().map(|_| Ok("batched".to_string())).collect()
            }
            fn batches(&self) -> bool {
                true
            }
        }
        let opts = GenOptions::default();
        let plain = service_fn("m", |p, _| Ok(p.to_string()));
        assert!(!plain.batches());
        assert_eq!(
            plain.call_batch(&["a", "b"], &opts),
            vec![Ok("a".to_string()), Ok("b".to_string())]
        );
        let wrapped: [Box<dyn CompletionService>; 3] = [
            Box::new(&Batcher),
            Box::new(Box::new(Batcher)),
            Box::new(std::sync::Arc::new(Batcher)),
        ];
        for svc in &wrapped {
            assert!(svc.batches());
            assert_eq!(
                svc.call_batch(&["a"], &opts),
                vec![Ok("batched".to_string())]
            );
        }
    }

    #[test]
    fn validate_accepts_the_canonical_order() {
        assert!(validate_stack(&["trace", "metrics", "cache", "retry", "http"]).is_ok());
        assert!(validate_stack(&["cache", "trace", "metrics", "retry", "http"]).is_ok());
        assert!(validate_stack(&["retry", "http"]).is_ok());
        assert!(validate_stack(&["http"]).is_ok());
        assert!(validate_stack(&["trace", "metrics", "cache", "retry", "route", "http"]).is_ok());
        assert!(validate_stack(&["cache", "route", "http"]).is_ok());
        assert!(validate_stack(&["route", "http"]).is_ok());
    }

    #[test]
    fn validate_rejects_route_outside_cache_or_retry() {
        let err = validate_stack(&["route", "cache", "http"]).unwrap_err();
        assert!(err.contains("cache sits inside route"), "{err}");
        let err = validate_stack(&["route", "retry", "http"]).unwrap_err();
        assert!(err.contains("retry sits inside route"), "{err}");
        assert!(validate_stack(&["route", "route", "http"]).is_err());
    }

    #[test]
    fn validate_rejects_cache_inside_retry() {
        let err = validate_stack(&["retry", "cache", "fn"]).unwrap_err();
        assert!(err.contains("cache sits inside retry"), "{err}");
    }

    #[test]
    fn validate_rejects_nested_budget_multipliers() {
        assert!(validate_stack(&["retry", "retry", "fn"]).is_err());
        assert!(validate_stack(&["cache", "cache", "fn"]).is_err());
        assert!(validate_stack(&["tier", "tier"]).is_err());
        assert!(validate_stack(&["validate", "validate", "fn"]).is_err());
    }

    #[test]
    fn validate_accepts_the_canonical_tier_positions() {
        // The router's one legal position: below retry/metrics, no cache
        // or replica route outside it (those live inside each tier).
        assert!(validate_stack(&["trace", "metrics", "retry", "tier"]).is_ok());
        assert!(validate_stack(&["retry", "tier"]).is_ok());
        assert!(validate_stack(&["tier"]).is_ok());
        // An individual tier's inner stack: cache over validate over leaf.
        assert!(validate_stack(&["cache", "validate", "sim"]).is_ok());
        assert!(validate_stack(&["cache", "validate", "route", "http"]).is_ok());
    }

    #[test]
    fn validate_rejects_misplaced_tier_routers() {
        let err = validate_stack(&["cache", "tier"]).unwrap_err();
        assert!(err.contains("cache sits outside tier"), "{err}");
        let err = validate_stack(&["route", "tier"]).unwrap_err();
        assert!(err.contains("route sits outside tier"), "{err}");
        let err = validate_stack(&["tier", "retry"]).unwrap_err();
        assert!(err.contains("retry sits inside tier"), "{err}");
    }

    #[test]
    fn validate_rejects_cache_inside_validate() {
        let err = validate_stack(&["validate", "cache", "sim"]).unwrap_err();
        assert!(err.contains("cache sits inside validate"), "{err}");
    }

    #[test]
    fn layered_stack_describes_outermost_first() {
        let leaf = service_fn("m", |_, _| Ok("x".to_string()));
        let stack = RetryLayer::new(RetryPolicy::no_retry()).layer(leaf);
        assert_eq!(stack_of(&stack), vec!["retry", "fn"]);
    }
}
