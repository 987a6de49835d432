//! The end-to-end NL2VIS pipeline of the paper's Figure 3: natural language
//! plus a grounded table goes in; prompt construction, (simulated) LLM
//! completion, VQL parsing, execution, and Vega-Lite / chart rendering come
//! out.

use nl2vis_cache::{CacheLayer, Cached, CompletionCache};
use nl2vis_corpus::Example;
use nl2vis_data::{Database, Json};
use nl2vis_llm::{extract_vql, GenOptions, ModelProfile, SimLlm, TransportError};
use nl2vis_obs as obs;
use nl2vis_prompt::{build_prompt, PromptOptions};
use nl2vis_query::ast::VqlQuery;
use nl2vis_query::exec::ResultSet;
use nl2vis_query::{execute, parse, QueryError};
use nl2vis_service::{
    stack_of, validate_stack, CompletionService, Layer, Metrics, MetricsLayer, Retry, RetryLayer,
    RetryPolicy, TieredService, Trace, TraceLayer,
};
use nl2vis_vega::{ascii, spec, svg};

/// Errors the pipeline can surface.
#[derive(Debug)]
pub enum PipelineError {
    /// The request never reached the model: the transport failed (refused
    /// connect, deadline, 5xx, dropped socket). Distinct from [`NoQuery`]
    /// by construction — the model said nothing, so nothing is attributed
    /// to it.
    ///
    /// [`NoQuery`]: PipelineError::NoQuery
    Transport(TransportError),
    /// The model produced no parseable VQL.
    NoQuery {
        /// Raw model output, for inspection.
        completion: String,
    },
    /// The generated query failed to parse or execute.
    Query(QueryError),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Transport(e) => write!(f, "{e}"),
            PipelineError::NoQuery { completion } => {
                write!(f, "model produced no VQL: {completion:.80}")
            }
            PipelineError::Query(e) => write!(f, "query error: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<QueryError> for PipelineError {
    fn from(e: QueryError) -> PipelineError {
        PipelineError::Query(e)
    }
}

/// A completed visualization: the query, its executed data, and renderers.
#[derive(Debug, Clone)]
pub struct Visualization {
    /// The generated VQL query.
    pub vql: VqlQuery,
    /// Executed result data.
    pub data: ResultSet,
    /// The raw model completion.
    pub completion: String,
}

impl Visualization {
    /// The Vega-Lite v5 specification with inline data.
    pub fn vega_lite(&self) -> Json {
        spec::to_vega_lite(&self.vql, &self.data)
    }

    /// A standalone SVG document.
    pub fn svg(&self) -> String {
        svg::render_svg(&self.data)
    }

    /// A terminal rendering.
    pub fn ascii(&self) -> String {
        ascii::render_ascii(&self.data)
    }
}

/// Typestate markers for [`StackBuilder`]: which layer is currently
/// outermost, and which layers may still be applied on top of it.
///
/// The canonical serving order, outermost first, is
/// `Trace(Metrics(Cache(Retry(leaf))))`. Each marker names a position in
/// that order; the gating traits ([`BelowCache`](stage::BelowCache),
/// [`BelowMetrics`](stage::BelowMetrics)) admit exactly the positions a
/// layer may legally wrap, so a misordered stack — a cache inside retry,
/// metrics under the cache — is a *compile error*, not a runtime surprise.
pub mod stage {
    /// Nothing but the leaf service so far.
    pub enum AtLeaf {}
    /// A retry layer is outermost.
    pub enum AtRetry {}
    /// A cache layer is outermost.
    pub enum AtCache {}
    /// A metrics layer is outermost.
    pub enum AtMetrics {}
    /// A trace layer is outermost — the stack is complete.
    pub enum AtTrace {}
    /// A tier router is outermost. Deliberately *not* [`BelowCache`]: a
    /// cache outside the router would collapse the tiers' tier-qualified
    /// keyspaces into one — per-tier caches live inside each tier.
    pub enum AtTier {}
    /// A retry layer wraps a tier router (the only legal retry/tier
    /// nesting: a retried attempt re-enters tier selection). Also not
    /// [`BelowCache`], for the same reason as [`AtTier`].
    pub enum AtTierRetry {}

    /// Positions a cache layer may wrap: the leaf or a retry layer. A
    /// cache *inside* retry would memoize per-attempt state.
    pub trait BelowCache {}
    impl BelowCache for AtLeaf {}
    impl BelowCache for AtRetry {}

    /// Positions a metrics layer may wrap: anything below trace. Metrics
    /// sits outside the cache so attribution covers cached traffic too.
    pub trait BelowMetrics {}
    impl BelowMetrics for AtLeaf {}
    impl BelowMetrics for AtRetry {}
    impl BelowMetrics for AtCache {}
    impl BelowMetrics for AtTier {}
    impl BelowMetrics for AtTierRetry {}
}

/// A compile-time-ordered builder for the layered completion stack.
///
/// Layers are applied bottom-up — each call wraps the current stack — and
/// the typestate parameter only offers the layers that are still legal at
/// the current position, so the canonical order
/// `Trace(Metrics(Cache(Retry(leaf))))` is the *only* order that
/// compiles (every layer is optional; skipping one is fine):
///
/// ```
/// use nl2vis::pipeline::StackBuilder;
/// use nl2vis::llm::{ModelProfile, SimLlm};
/// use nl2vis_service::{stack_of, RetryPolicy};
///
/// let stack = StackBuilder::over(SimLlm::new(ModelProfile::gpt_4(), 7))
///     .retry(RetryPolicy::default())
///     .cache(256)
///     .metrics()
///     .trace()
///     .build();
/// assert_eq!(stack_of(&stack), vec!["trace", "metrics", "cache", "retry", "sim"]);
/// ```
///
/// [`build`](StackBuilder::build) additionally debug-asserts
/// [`validate_stack`] over the composed stack's runtime tags, which
/// catches the one hole the types cannot: a "leaf" passed to
/// [`over`](StackBuilder::over) that is itself already a wrapped stack.
pub struct StackBuilder<S, Stage = stage::AtLeaf> {
    service: S,
    _stage: std::marker::PhantomData<Stage>,
}

impl<S: CompletionService> StackBuilder<S, stage::AtLeaf> {
    /// Starts a stack over a leaf service (the HTTP client, the simulated
    /// model, or a `service_fn` test double).
    pub fn over(leaf: S) -> StackBuilder<S, stage::AtLeaf> {
        StackBuilder {
            service: leaf,
            _stage: std::marker::PhantomData,
        }
    }

    /// Adds bounded retry with deterministic backoff (and 429
    /// `Retry-After` honoring) directly around the leaf.
    pub fn retry(self, policy: RetryPolicy) -> StackBuilder<Retry<S>, stage::AtRetry> {
        StackBuilder {
            service: RetryLayer::new(policy).layer(self.service),
            _stage: std::marker::PhantomData,
        }
    }
}

impl StackBuilder<TieredService, stage::AtTier> {
    /// Starts a stack over a tier router (the output of
    /// [`nl2vis_service::RouteLayer::build`]). The router occupies exactly
    /// one position in the canonical order: above per-tier caches, below
    /// retry/metrics/trace — so this builder offers
    /// [`retry`](StackBuilder::<TieredService, stage::AtTier>::retry),
    /// [`metrics`](StackBuilder::metrics) and [`trace`](StackBuilder::trace),
    /// but *not* `cache`:
    ///
    /// ```
    /// use nl2vis::pipeline::StackBuilder;
    /// use nl2vis_service::{service_fn, stack_of, RetryPolicy, RouteLayer, RoutePolicy};
    ///
    /// let tiers = RouteLayer::new(RoutePolicy::CheapFirst)
    ///     .tier("only", 1, service_fn("m", |_, _| Ok("x".into())))
    ///     .build()
    ///     .unwrap();
    /// let stack = StackBuilder::over_tiers(tiers)
    ///     .retry(RetryPolicy::no_retry())
    ///     .metrics()
    ///     .trace()
    ///     .build();
    /// assert_eq!(stack_of(&stack), vec!["trace", "metrics", "retry", "tier"]);
    /// ```
    ///
    /// A cache outside the router is a *compile error* (the tier stages
    /// are not [`stage::BelowCache`]):
    ///
    /// ```compile_fail
    /// use nl2vis::pipeline::StackBuilder;
    /// use nl2vis_service::{service_fn, RouteLayer, RoutePolicy};
    ///
    /// let tiers = RouteLayer::new(RoutePolicy::CheapFirst)
    ///     .tier("only", 1, service_fn("m", |_, _| Ok("x".into())))
    ///     .build()
    ///     .unwrap();
    /// let _ = StackBuilder::over_tiers(tiers).cache(16); // no such method here
    /// ```
    ///
    /// And so is a cache above the retry that wraps the router:
    ///
    /// ```compile_fail
    /// use nl2vis::pipeline::StackBuilder;
    /// use nl2vis_service::{service_fn, RetryPolicy, RouteLayer, RoutePolicy};
    ///
    /// let tiers = RouteLayer::new(RoutePolicy::CheapFirst)
    ///     .tier("only", 1, service_fn("m", |_, _| Ok("x".into())))
    ///     .build()
    ///     .unwrap();
    /// let _ = StackBuilder::over_tiers(tiers)
    ///     .retry(RetryPolicy::no_retry())
    ///     .cache(16);
    /// ```
    pub fn over_tiers(tiers: TieredService) -> StackBuilder<TieredService, stage::AtTier> {
        StackBuilder {
            service: tiers,
            _stage: std::marker::PhantomData,
        }
    }

    /// Adds bounded retry around the tier router: a retried attempt
    /// re-enters tier selection, so transient failures can fail over to a
    /// stronger tier. (Validation rejections carry status 422, which the
    /// standard policy treats as non-retryable — the router already
    /// escalated those.)
    pub fn retry(
        self,
        policy: RetryPolicy,
    ) -> StackBuilder<Retry<TieredService>, stage::AtTierRetry> {
        StackBuilder {
            service: RetryLayer::new(policy).layer(self.service),
            _stage: std::marker::PhantomData,
        }
    }
}

impl<S: CompletionService, Stage: stage::BelowCache> StackBuilder<S, Stage> {
    /// Adds a fresh in-memory completion cache of `capacity` entries.
    /// Only full-request successes are memoized — the cache always sits
    /// outside retry, a constraint this method's receiver type enforces.
    pub fn cache(self, capacity: usize) -> StackBuilder<Cached<S>, stage::AtCache> {
        self.shared_cache(std::sync::Arc::new(CompletionCache::in_memory(capacity)))
    }

    /// Like [`cache`](StackBuilder::cache), over a caller-owned cache —
    /// share one across stacks or keep the handle for
    /// [`nl2vis_cache::CacheStats`].
    pub fn shared_cache(
        self,
        cache: std::sync::Arc<CompletionCache>,
    ) -> StackBuilder<Cached<S>, stage::AtCache> {
        StackBuilder {
            service: CacheLayer::with_cache(cache).layer(self.service),
            _stage: std::marker::PhantomData,
        }
    }
}

impl<S: CompletionService, Stage: stage::BelowMetrics> StackBuilder<S, Stage> {
    /// Adds transport-failure attribution counters under the standard
    /// `llm` component.
    pub fn metrics(self) -> StackBuilder<Metrics<S>, stage::AtMetrics> {
        StackBuilder {
            service: MetricsLayer::default().layer(self.service),
            _stage: std::marker::PhantomData,
        }
    }
}

impl<S: CompletionService, Stage> StackBuilder<S, Stage> {
    /// Adds the outermost request span (`llm.request`), tying every inner
    /// layer's annotations and child spans into one trace.
    pub fn trace(self) -> StackBuilder<Trace<S>, stage::AtTrace> {
        StackBuilder {
            service: TraceLayer::request().layer(self.service),
            _stage: std::marker::PhantomData,
        }
    }

    /// Finishes the stack. In debug builds the composed stack's runtime
    /// tags are checked against [`validate_stack`] — the backstop for
    /// pre-wrapped "leaves" the typestate cannot see through.
    pub fn build(self) -> S {
        let service = self.service;
        if cfg!(debug_assertions) {
            if let Err(violation) = validate_stack(&stack_of(&service)) {
                panic!("StackBuilder composed an invalid stack: {violation}");
            }
        }
        service
    }
}

/// The end-to-end pipeline over a pluggable model.
pub struct Pipeline {
    service: Box<dyn CompletionService + Send + Sync>,
    /// Prompt construction options (format, budget, CoT, persona).
    pub options: PromptOptions,
}

impl Pipeline {
    /// Builds a pipeline over a simulated model by API name (`"gpt-4"`,
    /// `"text-davinci-003"`, ...). Unknown names fall back to
    /// `text-davinci-003`, the paper's workhorse.
    pub fn new(model: &str, seed: u64) -> Pipeline {
        let profile = ModelProfile::by_name(model).unwrap_or_else(ModelProfile::davinci_003);
        Pipeline::with_service(SimLlm::new(profile, seed))
    }

    /// Builds a pipeline over any [`CompletionService`]: the HTTP client, a
    /// simulated model, or a layered stack — typically the output of
    /// [`StackBuilder::build`].
    pub fn with_service<S>(service: S) -> Pipeline
    where
        S: CompletionService + Send + Sync + 'static,
    {
        Pipeline {
            service: Box::new(service),
            options: PromptOptions::default(),
        }
    }

    /// Wraps the pipeline's service in a bounded completion cache:
    /// repeated identical `(model, options, prompt)` requests are served
    /// from memory, concurrent identical misses collapse into one upstream
    /// call, and transport failures are never cached. The cache sits
    /// *outside* any retry layer already in the service, so only
    /// completions that survived the full transport path are stored.
    pub fn with_completion_cache(self, capacity: usize) -> Pipeline {
        self.with_shared_cache(std::sync::Arc::new(CompletionCache::in_memory(capacity)))
    }

    /// Like [`Pipeline::with_completion_cache`], but over a caller-owned
    /// cache — share one cache across pipelines (or keep the handle to
    /// read [`nl2vis_cache::CacheStats`] afterwards).
    pub fn with_shared_cache(self, cache: std::sync::Arc<CompletionCache>) -> Pipeline {
        Pipeline {
            service: Box::new(CacheLayer::with_cache(cache).layer(self.service)),
            options: self.options,
        }
    }

    /// The backing model's name.
    pub fn model(&self) -> &str {
        self.service.model()
    }

    /// Runs the zero-shot pipeline: question in, rendered visualization out.
    pub fn run(&self, db: &Database, question: &str) -> Result<Visualization, PipelineError> {
        self.run_with_demos(db, question, &[], |_| unreachable!("no demonstrations"))
    }

    /// Runs the pipeline with in-context demonstrations (each resolved to
    /// its own database by `db_of`).
    ///
    /// Every run is one trace: a `pipeline.run` root span with child spans
    /// for the five stages (`prompt_build`, `completion`, `extract`,
    /// `parse`, `execute`), plus per-error-kind counters
    /// (`pipeline.error.{no_query,parse,execute}`). The root span is
    /// annotated with the model name and, on success, `outcome=ok`; error
    /// paths attach their error note to the trace in the flight recorder.
    pub fn run_with_demos<'a, F>(
        &self,
        db: &Database,
        question: &str,
        demos: &[&'a Example],
        db_of: F,
    ) -> Result<Visualization, PipelineError>
    where
        F: Fn(&'a Example) -> &'a Database,
    {
        let trace = obs::span!("pipeline.run");
        trace.annotate("model", self.service.model());
        obs::count("pipeline.runs_total", 1);
        let prompt = {
            let _s = obs::span!("pipeline.prompt_build");
            build_prompt(&self.options, db, question, demos, db_of)
        };
        let completion = {
            let _s = obs::span!("pipeline.completion");
            self.service.call(&prompt.text, &GenOptions::default())
        };
        let completion = completion.map_err(|e| {
            obs::error("pipeline", "transport", &e.to_string());
            PipelineError::Transport(e)
        })?;
        let vql_text = {
            let _s = obs::span!("pipeline.extract");
            extract_vql(&completion)
        };
        let Some(vql_text) = vql_text else {
            obs::error("pipeline", "no_query", &completion);
            return Err(PipelineError::NoQuery { completion });
        };
        let vql = {
            let _s = obs::span!("pipeline.parse");
            parse(vql_text)
        }
        .map_err(|e| {
            obs::error("pipeline", "parse", &e.to_string());
            PipelineError::Query(e)
        })?;
        let data = {
            let _s = obs::span!("pipeline.execute");
            execute(&vql, db)
        }
        .map_err(|e| {
            obs::error("pipeline", "execute", &e.to_string());
            PipelineError::Query(e)
        })?;
        obs::count("pipeline.success_total", 1);
        trace.annotate("outcome", "ok");
        Ok(Visualization {
            vql,
            data,
            completion,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nl2vis_data::schema::{ColumnDef, DatabaseSchema, TableDef};
    use nl2vis_data::value::DataType::*;
    use nl2vis_data::Value;

    fn db() -> Database {
        let mut s = DatabaseSchema::new("shop", "retail");
        s.tables.push(TableDef::new(
            "sales",
            vec![
                ColumnDef::new("region", Text),
                ColumnDef::new("amount", Int),
            ],
        ));
        let mut d = Database::new(s);
        for (r, a) in [("east", 10i64), ("west", 25), ("east", 5), ("north", 40)] {
            d.insert("sales", vec![r.into(), Value::Int(a)]).unwrap();
        }
        d
    }

    #[test]
    fn zero_shot_pipeline_end_to_end() {
        let p = Pipeline::new("gpt-4", 7);
        let vis = p
            .run(
                &db(),
                "Show a bar chart of the total amount for each region.",
            )
            .expect("pipeline succeeds");
        assert!(!vis.data.rows.is_empty());
        assert!(vis.svg().starts_with("<svg"));
        assert!(vis.ascii().contains('█'));
        let spec = vis.vega_lite();
        assert_eq!(spec.get("mark").and_then(Json::as_str), Some("bar"));
    }

    #[test]
    fn unknown_model_falls_back() {
        let p = Pipeline::new("nonexistent-model", 1);
        assert_eq!(p.model(), "text-davinci-003");
    }

    #[test]
    fn pipeline_surfaces_model_failures() {
        // A question over an empty schema cannot be grounded.
        let s = DatabaseSchema::new("empty", "none");
        let d = Database::new(s);
        let p = Pipeline::new("gpt-4", 7);
        let errors_before = obs::global().counter("pipeline.errors_total").get();
        let out = p.run(&d, "Show a bar chart of things.");
        assert!(out.is_err());
        assert!(
            obs::global().counter("pipeline.errors_total").get() > errors_before,
            "a failed run must bump the pipeline error counter"
        );
    }

    /// A dead endpoint must surface as a typed transport error — counted
    /// under `pipeline.error.transport`, never scored as model output.
    #[test]
    fn transport_failure_is_typed_not_scoreable() {
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let client = nl2vis_llm::http::HttpLlmClient::new(addr, "gpt-4");
        let p = Pipeline::with_service(client);
        let transport_before = obs::global().counter("pipeline.error.transport").get();
        match p.run(
            &db(),
            "Show a bar chart of the total amount for each region.",
        ) {
            Err(PipelineError::Transport(e)) => {
                assert!(e.attempts >= 1);
            }
            other => panic!("expected a transport error, got {other:?}"),
        }
        assert_eq!(
            obs::global().counter("pipeline.error.transport").get(),
            transport_before + 1
        );
    }

    /// The typestate builder composes the canonical stack order and the
    /// result drives the pipeline end-to-end like any other service.
    #[test]
    fn stack_builder_composes_the_canonical_order() {
        let cache = std::sync::Arc::new(CompletionCache::in_memory(16));
        let stack = StackBuilder::over(SimLlm::new(ModelProfile::by_name("gpt-4").unwrap(), 7))
            .retry(RetryPolicy::no_retry())
            .shared_cache(std::sync::Arc::clone(&cache))
            .metrics()
            .trace()
            .build();
        assert_eq!(
            stack_of(&stack),
            vec!["trace", "metrics", "cache", "retry", "sim"]
        );

        let p = Pipeline::with_service(stack);
        assert_eq!(p.model(), "gpt-4");
        let q = "Show a bar chart of the total amount for each region.";
        p.run(&db(), q).expect("layered pipeline succeeds");
        p.run(&db(), q).expect("cached rerun succeeds");
        assert_eq!(cache.stats().hits, 1, "the repeat must hit the cache");
    }

    /// Layers are optional: a partial stack (no retry, no cache) still
    /// builds and keeps the leaf's model identity.
    #[test]
    fn stack_builder_allows_skipping_layers() {
        let stack = StackBuilder::over(SimLlm::new(ModelProfile::davinci_003(), 3))
            .metrics()
            .trace()
            .build();
        assert_eq!(stack_of(&stack), vec!["trace", "metrics", "sim"]);
        assert_eq!(stack.model(), "text-davinci-003");
    }

    /// The debug backstop: a "leaf" that is secretly a cached stack puts
    /// the cache inside the builder's retry layer — invisible to the
    /// typestate, caught by `build`'s `validate_stack` assertion.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "cache sits inside retry")]
    fn stack_builder_rejects_prewrapped_cache_under_retry() {
        let hidden = CacheLayer::new(4).layer(SimLlm::new(ModelProfile::davinci_003(), 3));
        let _ = StackBuilder::over(hidden)
            .retry(RetryPolicy::no_retry())
            .build();
    }
    /// A tiered stack drives the pipeline end-to-end: the deliberately-bad
    /// cheap tier is validation-rejected, the strong tier answers, and the
    /// composed stack sits in the canonical position under retry/metrics.
    #[test]
    fn tiered_stack_drives_the_pipeline() {
        use nl2vis_service::{service_fn, RouteLayer, RoutePolicy, ValidateLayer};

        let tiers = RouteLayer::new(RoutePolicy::CheapFirst)
            .model("tiered")
            .tier(
                "cheap",
                1,
                ValidateLayer::new(nl2vis_service::VqlSyntaxValidator)
                    .layer(service_fn("bad", |_, _| Ok("I cannot answer.".into()))),
            )
            .tier(
                "strong",
                10,
                SimLlm::new(ModelProfile::by_name("gpt-4").unwrap(), 7),
            )
            .build()
            .unwrap();
        let stack = StackBuilder::over_tiers(tiers)
            .retry(RetryPolicy::no_retry())
            .metrics()
            .trace()
            .build();
        assert_eq!(stack_of(&stack), vec!["trace", "metrics", "retry", "tier"]);

        let p = Pipeline::with_service(stack);
        assert_eq!(p.model(), "tiered");
        let vis = p
            .run(
                &db(),
                "Show a bar chart of the total amount for each region.",
            )
            .expect("escalation recovers the strong tier's answer");
        assert!(!vis.data.rows.is_empty());
    }

    #[test]
    fn cached_pipeline_hits_on_repeat_questions() {
        let cache = std::sync::Arc::new(CompletionCache::in_memory(64));
        let p = Pipeline::new("gpt-4", 7).with_shared_cache(std::sync::Arc::clone(&cache));
        let q = "Show a bar chart of the total amount for each region.";
        let first = p.run(&db(), q).expect("pipeline succeeds");
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 1);
        let second = p.run(&db(), q).expect("cached run succeeds");
        assert_eq!(cache.stats().hits, 1, "the repeat must be a cache hit");
        assert_eq!(first.completion, second.completion);
        assert!(first.data.same_data(&second.data));
    }

    /// The five stage spans of one request land in the JSONL sink, share
    /// the request's trace id, and carry non-negative durations.
    #[test]
    fn stage_spans_reach_the_jsonl_sink() {
        let sink = std::sync::Arc::new(obs::MemorySink::new());
        obs::set_sink(sink.clone());
        let p = Pipeline::new("gpt-4", 7);
        p.run(
            &db(),
            "Show a bar chart of the total amount for each region.",
        )
        .expect("pipeline succeeds");
        obs::disable_sink();

        let events: Vec<Json> = sink
            .lines()
            .iter()
            .map(|l| Json::parse(l).expect("sink lines are valid JSON"))
            .collect();
        // The trace of this request: the one owning the last
        // `pipeline.execute` close (other tests may run concurrently).
        let trace = events
            .iter()
            .rev()
            .find(|e| {
                e.get("event").and_then(Json::as_str) == Some("span_close")
                    && e.get("name").and_then(Json::as_str) == Some("pipeline.execute")
            })
            .and_then(|e| e.get("trace").and_then(Json::as_f64))
            .expect("an execute span closed");
        let closed: Vec<&Json> = events
            .iter()
            .filter(|e| {
                e.get("event").and_then(Json::as_str) == Some("span_close")
                    && e.get("trace").and_then(Json::as_f64) == Some(trace)
            })
            .collect();
        for stage in [
            "pipeline.prompt_build",
            "pipeline.completion",
            "pipeline.extract",
            "pipeline.parse",
            "pipeline.execute",
            "pipeline.run",
        ] {
            let span = closed
                .iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(stage))
                .unwrap_or_else(|| panic!("stage span `{stage}` missing from trace"));
            let duration = span
                .get("duration_us")
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("`{stage}` close lacks duration_us"));
            assert!(duration >= 0.0, "{stage} duration {duration}");
        }
        // Stage spans nest under the root span: same trace, parent set.
        let opens: Vec<&Json> = events
            .iter()
            .filter(|e| {
                e.get("event").and_then(Json::as_str) == Some("span_open")
                    && e.get("trace").and_then(Json::as_f64) == Some(trace)
                    && e.get("name").and_then(Json::as_str) != Some("pipeline.run")
            })
            .collect();
        assert_eq!(opens.len(), 5, "five stage spans open");
        assert!(opens
            .iter()
            .all(|e| e.get("parent").and_then(Json::as_f64).is_some()));
    }
}
