//! Tiered model routing: validation-gated escalation across model tiers.
//!
//! The paper's Table 3 establishes a quality spectrum — retrieval baselines
//! below ncNet below T5 below the LLM tiers — and the repo exploits it
//! offline in the eval harness. This module turns that spectrum into a
//! *runtime* decision: serve the cheapest tier first, check its answer with
//! the VQL parser (and optionally the executor) that already exist in
//! `nl2vis-query`, and escalate to a stronger tier only when the check (or
//! the transport) fails.
//!
//! Two pieces compose:
//!
//! - [`ValidateLayer`] / [`Validated`]: a middleware that runs a
//!   [`Validator`] over every successful completion and converts an
//!   invalid answer into a transport error with status 422. Placed *inside*
//!   a tier's cache (`Cached(Validate(leaf))`), it guarantees the cache
//!   never memoizes an answer that failed validation — errors are never
//!   cached — and 422 is non-retryable under the standard
//!   [`RetryPolicy`](crate::RetryPolicy), so a retry layer above the router
//!   never burns attempts re-asking a tier that produced garbage.
//! - [`RouteLayer`] → [`TieredService`]: an ordered list of inner
//!   [`CompletionService`] tiers, each with a name and a cost weight,
//!   walked under a [`RoutePolicy`]. Any `Err` from a tier — validation
//!   rejection or genuine transport failure — escalates to the next tier.
//!   The *last* tier in routing order is the quality floor: its answer is
//!   final, whatever a validator would have said, so accuracy against a
//!   strong-tier-only configuration is preserved by construction.
//!
//! The stack contract ([`validate_stack`](crate::validate_stack), enforced
//! at compile time by the root crate's `StackBuilder`) pins the router to
//! exactly one position: *above* per-tier caches (each tier caches under
//! its own model's key; a shared cache outside the router would collapse
//! the tiers' distinct keyspaces), *below* retry and metrics (a retry above
//! the router re-enters tier selection, so a transient failure can fail
//! over; a retry inside a tier would multiply the cost budget before the
//! router ever saw the failure).

use crate::outcome::{CompletionOutcome, GenOptions, TransportError, TransportErrorKind};
use crate::service::{validate_stack, CompletionService, Layer};
use nl2vis_obs as obs;
use nl2vis_query::{extract_vql, CheckStage, QueryError};
use std::sync::Arc;
use std::time::Instant;

/// HTTP-ish status carried by validation rejections. Chosen because it is
/// non-retryable under [`RetryPolicy::retryable`](crate::RetryPolicy):
/// re-asking the same tier the same question yields the same bad answer,
/// so the only useful reaction is escalation.
pub const VALIDATION_REJECTED_STATUS: u16 = 422;

/// Why a completion failed validation.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationFailure {
    /// Which query check rejected it (syntax / binding / execution).
    pub stage: CheckStage,
    /// The failing clause, when the query check attributed one.
    pub component: Option<nl2vis_query::component::Component>,
    /// Human-readable detail.
    pub detail: String,
}

impl ValidationFailure {
    /// A failure from a [`QueryError`], carrying its stage and component.
    pub fn from_query_error(e: &QueryError) -> ValidationFailure {
        ValidationFailure {
            stage: e.stage(),
            component: e.component(),
            detail: e.to_string(),
        }
    }
}

impl std::fmt::Display for ValidationFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.component {
            Some(c) => write!(f, "{} check failed in {}: {}", self.stage, c, self.detail),
            None => write!(f, "{} check failed: {}", self.stage, self.detail),
        }
    }
}

/// A completion check: is this answer worth returning (and caching)?
pub trait Validator {
    /// Validates `completion` as an answer to `prompt`.
    fn validate(&self, prompt: &str, completion: &str) -> Result<(), ValidationFailure>;
}

impl<V: Validator + ?Sized> Validator for Arc<V> {
    fn validate(&self, prompt: &str, completion: &str) -> Result<(), ValidationFailure> {
        (**self).validate(prompt, completion)
    }
}

/// Parse-only VQL validation: the completion must contain an extractable,
/// syntactically well-formed VQL query. The cheapest useful gate — catches
/// refusals, prose, and truncated queries without needing a database.
#[derive(Debug, Clone, Copy, Default)]
pub struct VqlSyntaxValidator;

impl Validator for VqlSyntaxValidator {
    fn validate(&self, _prompt: &str, completion: &str) -> Result<(), ValidationFailure> {
        let Some(vql) = extract_vql(completion) else {
            return Err(ValidationFailure {
                stage: CheckStage::Syntax,
                component: None,
                detail: "no VQL query in completion".to_string(),
            });
        };
        match nl2vis_query::parse(vql) {
            Ok(_) => Ok(()),
            Err(e) => Err(ValidationFailure::from_query_error(&e)),
        }
    }
}

/// Full execution-check validation: the query must parse *and* execute
/// against the database the prompt addressed. The `resolve` closure maps a
/// prompt back to its database (serving knows which schema it prompted
/// with); a prompt that resolves to no database degrades to the syntax
/// check rather than rejecting blindly.
pub struct VqlExecValidator<R> {
    resolve: R,
    require_rows: bool,
}

impl<R> VqlExecValidator<R>
where
    R: Fn(&str) -> Option<Arc<nl2vis_data::Database>>,
{
    /// An execution validator resolving databases through `resolve`.
    pub fn new(resolve: R) -> VqlExecValidator<R> {
        VqlExecValidator {
            resolve,
            require_rows: false,
        }
    }

    /// Also rejects queries that execute to an *empty* result. On a
    /// data-bearing benchmark schema, a well-posed visualization query
    /// yields rows; an empty result usually means the model bound the
    /// wrong column or compared against a literal that isn't in the data
    /// — wrongness that executes cleanly and would otherwise slip past
    /// the gate. Costs false escalations on genuinely empty answers, so
    /// it's opt-in.
    pub fn require_rows(mut self) -> VqlExecValidator<R> {
        self.require_rows = true;
        self
    }
}

impl<R> Validator for VqlExecValidator<R>
where
    R: Fn(&str) -> Option<Arc<nl2vis_data::Database>>,
{
    fn validate(&self, prompt: &str, completion: &str) -> Result<(), ValidationFailure> {
        VqlSyntaxValidator.validate(prompt, completion)?;
        let Some(db) = (self.resolve)(prompt) else {
            return Ok(()); // No schema context: syntax check is all we can do.
        };
        let vql = extract_vql(completion).expect("syntax check passed");
        let query = nl2vis_query::parse(vql).expect("syntax check passed");
        match nl2vis_query::execute(&query, &db) {
            Ok(result) if self.require_rows && result.rows.is_empty() => Err(ValidationFailure {
                stage: CheckStage::Execution,
                component: None,
                detail: "query executed to an empty result".to_string(),
            }),
            Ok(_) => Ok(()),
            Err(e) => Err(ValidationFailure::from_query_error(&e)),
        }
    }
}

/// [`Layer`] gating completions behind a [`Validator`]; see the module
/// docs for where it sits in a tier's stack.
pub struct ValidateLayer<V> {
    validator: Arc<V>,
}

impl<V: Validator> ValidateLayer<V> {
    /// A validation layer running `validator` over every completion.
    pub fn new(validator: V) -> ValidateLayer<V> {
        ValidateLayer {
            validator: Arc::new(validator),
        }
    }
}

impl<V> Clone for ValidateLayer<V> {
    fn clone(&self) -> ValidateLayer<V> {
        ValidateLayer {
            validator: Arc::clone(&self.validator),
        }
    }
}

impl<V: Validator, S: CompletionService> Layer<S> for ValidateLayer<V> {
    type Service = Validated<S, V>;

    fn layer(&self, inner: S) -> Validated<S, V> {
        Validated {
            inner,
            validator: Arc::clone(&self.validator),
        }
    }
}

/// The validation middleware; see [`ValidateLayer`].
pub struct Validated<S, V> {
    inner: S,
    validator: Arc<V>,
}

impl<S: CompletionService, V: Validator> CompletionService for Validated<S, V> {
    fn model(&self) -> &str {
        self.inner.model()
    }

    fn call(&self, prompt: &str, opts: &GenOptions) -> CompletionOutcome {
        let text = self.inner.call(prompt, opts)?;
        match self.validator.validate(prompt, &text) {
            Ok(()) => Ok(text),
            Err(failure) => {
                obs::count("route.tier.validation_failures_total", 1);
                obs::error("route", "validation", &failure.to_string());
                obs::annotate_current("validation.stage", &failure.stage.to_string());
                Err(TransportError::new(
                    TransportErrorKind::Status(VALIDATION_REJECTED_STATUS),
                    1,
                    failure.to_string(),
                ))
            }
        }
    }

    fn describe(&self, stack: &mut Vec<&'static str>) {
        stack.push("validate");
        self.inner.describe(stack);
    }
}

/// How the router walks its tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Tiers in registration order (cheapest first, by convention): the
    /// paper's p50 win — the cheap tier answers most traffic, the strong
    /// tier is the quality floor.
    CheapFirst,
    /// Registration order reversed: the strongest tier answers first; the
    /// cheaper tiers only see traffic when it fails at the transport level.
    QualityFirst,
    /// Like [`RoutePolicy::CheapFirst`], but a tier is skipped when the
    /// cost already spent on this request plus its weight would exceed the
    /// per-request budget — except that at least one tier (the first
    /// affordable one, or the cheapest overall) always runs.
    BudgetCapped(u64),
}

/// One rung of the ladder: a named inner service with a cost weight.
pub struct Tier {
    /// Tier name used in metrics (`route.tier.<name>.*`) and reporting.
    pub name: String,
    /// Abstract cost units charged per request attempted on this tier
    /// (e.g. derived from a model's per-token price).
    pub cost_units: u64,
    service: Box<dyn CompletionService + Send + Sync>,
}

impl std::fmt::Debug for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tier")
            .field("name", &self.name)
            .field("cost_units", &self.cost_units)
            .field("model", &self.service.model())
            .finish()
    }
}

/// Builder for a [`TieredService`]; `RouteLayer::new(policy).tier(..).
/// tier(..).build()`. Not a [`Layer`] over one inner service — the router
/// *is* the fan-out point — but named for symmetry with the other stack
/// constructors.
pub struct RouteLayer {
    policy: RoutePolicy,
    model: String,
    tiers: Vec<Tier>,
}

impl RouteLayer {
    /// An empty router with `policy`; add rungs with [`RouteLayer::tier`].
    pub fn new(policy: RoutePolicy) -> RouteLayer {
        RouteLayer {
            policy,
            model: "tiered".to_string(),
            tiers: Vec::new(),
        }
    }

    /// Overrides the model label the composed service reports (used for
    /// cache keys above the router and for `/v1/models`).
    pub fn model(mut self, model: impl Into<String>) -> RouteLayer {
        self.model = model.into();
        self
    }

    /// Appends a tier. Registration order is cheap → strong; the policy
    /// decides the walk order.
    pub fn tier(
        mut self,
        name: impl Into<String>,
        cost_units: u64,
        service: impl CompletionService + Send + Sync + 'static,
    ) -> RouteLayer {
        self.tiers.push(Tier {
            name: name.into(),
            cost_units,
            service: Box::new(service),
        });
        self
    }

    /// Validates every tier's inner stack and produces the router.
    ///
    /// Each tier must be a conforming stack on its own (the standard
    /// [`validate_stack`] contract), must not nest another router, and
    /// must not contain a retry layer — retries belong *above* the router
    /// so a transient failure escalates instead of multiplying one tier's
    /// cost.
    pub fn build(self) -> Result<TieredService, String> {
        if self.tiers.is_empty() {
            return Err("tiered service needs at least one tier".to_string());
        }
        for t in &self.tiers {
            let stack = crate::service::stack_of(&t.service);
            validate_stack(&stack)?;
            if stack.contains(&"tier") {
                return Err(format!(
                    "tier `{}` nests another router (tiers must be flat): {stack:?}",
                    t.name
                ));
            }
            if stack.contains(&"retry") {
                return Err(format!(
                    "tier `{}` contains a retry layer; retries belong above the router \
                     so failures escalate instead of multiplying tier cost: {stack:?}",
                    t.name
                ));
            }
        }
        Ok(TieredService {
            policy: self.policy,
            model: self.model,
            metrics: RouteMetrics::new(&self.tiers),
            tiers: self.tiers,
        })
    }
}

/// The router: walks its tiers under the configured policy, escalating on
/// any error; see the module docs. Tag `"tier"`.
pub struct TieredService {
    policy: RoutePolicy,
    model: String,
    tiers: Vec<Tier>,
    metrics: RouteMetrics,
}

/// The metrics a tier attempt records, resolved once at
/// [`RouteLayer::build`] instead of formatted and looked up per attempt.
struct RouteMetrics {
    requests: obs::Count,
    cost_units: obs::Count,
    escalations: obs::Count,
    /// Per tier, in [`TieredService::tiers`] order.
    tiers: Vec<TierMetrics>,
}

struct TierMetrics {
    requests: obs::Count,
    escalations: obs::Count,
    duration: obs::Handle<obs::Histogram>,
}

impl RouteMetrics {
    fn new(tiers: &[Tier]) -> RouteMetrics {
        RouteMetrics {
            requests: obs::Count::new("route.tier.requests_total"),
            cost_units: obs::Count::new("route.cost_units"),
            escalations: obs::Count::new("route.tier.escalations_total"),
            tiers: tiers
                .iter()
                .map(|tier| TierMetrics {
                    requests: obs::Count::new(format!("route.tier.{}.requests_total", tier.name)),
                    escalations: obs::Count::new(format!(
                        "route.tier.{}.escalations_total",
                        tier.name
                    )),
                    duration: obs::Handle::histogram(
                        obs::global(),
                        format!("route.tier.{}.duration_us", tier.name),
                    ),
                })
                .collect(),
        }
    }
}

impl std::fmt::Debug for TieredService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredService")
            .field("policy", &self.policy)
            .field("model", &self.model)
            .field("tiers", &self.tiers)
            .finish()
    }
}

impl TieredService {
    /// The routing policy.
    pub fn policy(&self) -> RoutePolicy {
        self.policy
    }

    /// The tiers in registration (cheap → strong) order.
    pub fn tiers(&self) -> &[Tier] {
        &self.tiers
    }

    /// Indexes into [`TieredService::tiers`] in the order this request
    /// will attempt them.
    fn walk_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.tiers.len()).collect();
        if self.policy == RoutePolicy::QualityFirst {
            order.reverse();
        }
        order
    }
}

impl CompletionService for TieredService {
    fn model(&self) -> &str {
        &self.model
    }

    fn call(&self, prompt: &str, opts: &GenOptions) -> CompletionOutcome {
        let span = obs::Span::enter("route.request");
        let order = self.walk_order();
        let budget = match self.policy {
            RoutePolicy::BudgetCapped(b) => Some(b),
            _ => None,
        };
        let mut spent: u64 = 0;
        let mut attempted = 0usize;
        let mut last_err: Option<TransportError> = None;
        // Always attempt at least one tier; past that, skip rungs the
        // remaining budget cannot pay for.
        let affordable = |tier: &Tier, spent: u64| match budget {
            Some(b) => spent + tier.cost_units <= b,
            None => true,
        };

        for (walk_pos, &ti) in order.iter().enumerate() {
            let tier = &self.tiers[ti];
            if attempted > 0 && !affordable(tier, spent) {
                continue;
            }
            attempted += 1;
            spent += tier.cost_units;
            let metrics = &self.metrics.tiers[ti];
            self.metrics.requests.add(1);
            metrics.requests.add(1);
            self.metrics.cost_units.add(tier.cost_units);
            let started = Instant::now();
            let outcome = tier.service.call(prompt, opts);
            metrics.duration.get().record_duration(started.elapsed());
            match outcome {
                Ok(text) => {
                    span.annotate("route.winner", &tier.name);
                    span.annotate("route.escalations", &(attempted - 1).to_string());
                    return Ok(text);
                }
                Err(e) => {
                    // An escalation is another tier actually attempted, not
                    // merely one that exists: the budget may skip them all.
                    let will_escalate = order[walk_pos + 1..]
                        .iter()
                        .any(|&next| affordable(&self.tiers[next], spent));
                    if will_escalate {
                        self.metrics.escalations.add(1);
                        let reason = match e.kind {
                            TransportErrorKind::Status(VALIDATION_REJECTED_STATUS) => "validation",
                            _ => "transport",
                        };
                        metrics.escalations.add(1);
                        span.annotate("route.escalated_from", &tier.name);
                        span.annotate("route.escalation_reason", reason);
                    }
                    last_err = Some(e);
                }
            }
        }
        span.annotate("route.winner", "none");
        Err(last_err.expect("build() guarantees at least one tier"))
    }

    fn describe(&self, stack: &mut Vec<&'static str>) {
        // Deliberately no recursion into the tiers: each tier is its own
        // stack, validated at build() — flattening them here would make a
        // two-tier router look like an (illegal) double-cache stack.
        stack.push("tier");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{service_fn, stack_of};
    use nl2vis_data::schema::{ColumnDef, DatabaseSchema, TableDef};
    use nl2vis_data::value::DataType;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn good() -> &'static str {
        "VQL: VISUALIZE bar SELECT name , COUNT(name) FROM t"
    }

    /// The route counters are process-global: tests that escalate or
    /// assert on them hold this lock, so the asserted deltas are exact.
    static ROUTE_COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn lock_route_counters() -> std::sync::MutexGuard<'static, ()> {
        ROUTE_COUNTERS.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn syntax_validator_accepts_wellformed_and_rejects_prose() {
        let v = VqlSyntaxValidator;
        assert!(v.validate("p", good()).is_ok());
        let e = v.validate("p", "I cannot answer that.").unwrap_err();
        assert_eq!(e.stage, CheckStage::Syntax);
        let e = v.validate("p", "VQL: VISUALIZE bar SELECT").unwrap_err();
        assert_eq!(e.stage, CheckStage::Syntax);
    }

    #[test]
    fn exec_validator_catches_binding_failures_with_components() {
        let mut s = DatabaseSchema::new("d", "test");
        s.tables.push(TableDef::new(
            "t",
            vec![ColumnDef::new("name", DataType::Text)],
        ));
        let db = Arc::new(nl2vis_data::Database::new(s));
        let v = VqlExecValidator::new(move |_p: &str| Some(Arc::clone(&db)));
        assert!(v.validate("p", good()).is_ok());
        let e = v
            .validate("p", "VQL: VISUALIZE bar SELECT nope , COUNT(name) FROM t")
            .unwrap_err();
        assert_eq!(e.stage, CheckStage::Binding);
        assert_eq!(e.component, Some(nl2vis_query::component::Component::AxisX));
    }

    #[test]
    fn exec_validator_require_rows_rejects_empty_results() {
        // A schema with no data: every aggregate executes cleanly but
        // yields zero rows. The plain validator accepts; require_rows
        // escalates with an execution-stage failure.
        let mut s = DatabaseSchema::new("d", "test");
        s.tables.push(TableDef::new(
            "t",
            vec![ColumnDef::new("name", DataType::Text)],
        ));
        let db = Arc::new(nl2vis_data::Database::new(s));
        let resolve = {
            let db = Arc::clone(&db);
            move |_p: &str| Some(Arc::clone(&db))
        };
        assert!(VqlExecValidator::new(resolve.clone())
            .validate("p", good())
            .is_ok());
        let e = VqlExecValidator::new(resolve)
            .require_rows()
            .validate("p", good())
            .unwrap_err();
        assert_eq!(e.stage, CheckStage::Execution);
        assert!(e.detail.contains("empty result"), "{}", e.detail);
    }

    #[test]
    fn exec_validator_without_schema_degrades_to_syntax() {
        let v = VqlExecValidator::new(|_p: &str| None);
        assert!(v
            .validate("p", "VQL: VISUALIZE bar SELECT x , COUNT(x) FROM missing")
            .is_ok());
        assert!(v.validate("p", "no query here").is_err());
    }

    #[test]
    fn validate_layer_converts_invalid_completions_to_422() {
        let svc = ValidateLayer::new(VqlSyntaxValidator)
            .layer(service_fn("m", |_, _| Ok("garbage".to_string())));
        let err = svc.call("p", &GenOptions::default()).unwrap_err();
        assert_eq!(
            err.kind,
            TransportErrorKind::Status(VALIDATION_REJECTED_STATUS)
        );
        assert_eq!(stack_of(&svc), vec!["validate", "fn"]);
        // And 422 is not retryable under the standard policy.
        assert!(!crate::RetryPolicy::default().retryable(&err.kind));
    }

    #[test]
    fn validate_layer_passes_valid_completions_through() {
        let svc = ValidateLayer::new(VqlSyntaxValidator)
            .layer(service_fn("m", |_, _| Ok(good().to_string())));
        assert_eq!(svc.call("p", &GenOptions::default()).unwrap(), good());
    }

    #[test]
    fn cheap_first_escalates_past_a_failing_tier() {
        let _counters = lock_route_counters();
        let cheap_calls = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&cheap_calls);
        let svc = RouteLayer::new(RoutePolicy::CheapFirst)
            .tier(
                "cheap",
                1,
                ValidateLayer::new(VqlSyntaxValidator).layer(service_fn("cheap", move |_, _| {
                    c.fetch_add(1, Ordering::SeqCst);
                    Ok("not a query".to_string())
                })),
            )
            .tier("strong", 10, service_fn("strong", |_, _| Ok(good().into())))
            .build()
            .unwrap();
        assert_eq!(svc.call("p", &GenOptions::default()).unwrap(), good());
        assert_eq!(cheap_calls.load(Ordering::SeqCst), 1);
        assert_eq!(stack_of(&svc), vec!["tier"]);
    }

    #[test]
    fn quality_first_reverses_the_walk() {
        let _counters = lock_route_counters();
        let cheap_calls = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&cheap_calls);
        let svc = RouteLayer::new(RoutePolicy::QualityFirst)
            .tier(
                "cheap",
                1,
                service_fn("cheap", move |_, _| {
                    c.fetch_add(1, Ordering::SeqCst);
                    Ok(good().to_string())
                }),
            )
            .tier("strong", 10, service_fn("strong", |_, _| Ok(good().into())))
            .build()
            .unwrap();
        svc.call("p", &GenOptions::default()).unwrap();
        assert_eq!(
            cheap_calls.load(Ordering::SeqCst),
            0,
            "strong answers first"
        );
    }

    #[test]
    fn budget_cap_skips_unaffordable_tiers() {
        let _counters = lock_route_counters();
        let escalations_before = obs::global().counter("route.tier.escalations_total").get();
        let strong_calls = Arc::new(AtomicUsize::new(0));
        let s = Arc::clone(&strong_calls);
        let svc = RouteLayer::new(RoutePolicy::BudgetCapped(5))
            .tier(
                "cheap",
                1,
                ValidateLayer::new(VqlSyntaxValidator)
                    .layer(service_fn("cheap", |_, _| Ok("garbage".to_string()))),
            )
            .tier(
                "strong",
                10,
                service_fn("strong", move |_, _| {
                    s.fetch_add(1, Ordering::SeqCst);
                    Ok(good().to_string())
                }),
            )
            .build()
            .unwrap();
        // Budget 5 cannot pay 1 + 10, so the strong tier is skipped and the
        // request fails with the cheap tier's validation rejection. No other
        // tier was attempted, so nothing escalated.
        let err = svc.call("p", &GenOptions::default()).unwrap_err();
        assert_eq!(
            err.kind,
            TransportErrorKind::Status(VALIDATION_REJECTED_STATUS)
        );
        assert_eq!(strong_calls.load(Ordering::SeqCst), 0);
        assert_eq!(
            obs::global().counter("route.tier.escalations_total").get(),
            escalations_before
        );
    }

    #[test]
    fn budget_cap_always_attempts_at_least_one_tier() {
        let svc = RouteLayer::new(RoutePolicy::BudgetCapped(0))
            .tier("only", 7, service_fn("only", |_, _| Ok(good().into())))
            .build()
            .unwrap();
        assert!(svc.call("p", &GenOptions::default()).is_ok());
    }

    #[test]
    fn transport_failure_escalates_and_is_never_scored_as_output() {
        let _counters = lock_route_counters();
        let svc = RouteLayer::new(RoutePolicy::CheapFirst)
            .tier(
                "down",
                1,
                service_fn("down", |_, _| {
                    Err(TransportError::new(TransportErrorKind::Connect, 1, "down"))
                }),
            )
            .tier("strong", 10, service_fn("strong", |_, _| Ok(good().into())))
            .build()
            .unwrap();
        assert_eq!(svc.call("p", &GenOptions::default()).unwrap(), good());
    }

    #[test]
    fn build_rejects_empty_nested_and_retrying_tiers() {
        assert!(RouteLayer::new(RoutePolicy::CheapFirst).build().is_err());

        let inner = RouteLayer::new(RoutePolicy::CheapFirst)
            .tier("t", 1, service_fn("m", |_, _| Ok("x".into())))
            .build()
            .unwrap();
        let err = RouteLayer::new(RoutePolicy::CheapFirst)
            .tier("outer", 1, inner)
            .build()
            .unwrap_err();
        assert!(err.contains("nests another router"), "{err}");

        let retrying = crate::RetryLayer::new(crate::RetryPolicy::no_retry())
            .layer(service_fn("m", |_, _| Ok("x".into())));
        let err = RouteLayer::new(RoutePolicy::CheapFirst)
            .tier("r", 1, retrying)
            .build()
            .unwrap_err();
        assert!(err.contains("retry layer"), "{err}");
    }

    #[test]
    fn route_metrics_move_on_escalation() {
        let _counters = lock_route_counters();
        let before_esc = obs::global().counter("route.tier.escalations_total").get();
        let before_cost = obs::global().counter("route.cost_units").get();
        let svc = RouteLayer::new(RoutePolicy::CheapFirst)
            .tier(
                "cheap",
                2,
                ValidateLayer::new(VqlSyntaxValidator)
                    .layer(service_fn("cheap", |_, _| Ok("garbage".to_string()))),
            )
            .tier("strong", 11, service_fn("strong", |_, _| Ok(good().into())))
            .build()
            .unwrap();
        svc.call("p", &GenOptions::default()).unwrap();
        assert_eq!(
            obs::global().counter("route.tier.escalations_total").get(),
            before_esc + 1
        );
        assert_eq!(
            obs::global().counter("route.cost_units").get(),
            before_cost + 13
        );
    }
}
