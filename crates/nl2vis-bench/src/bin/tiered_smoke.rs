//! End-to-end tiered-routing smoke for `scripts/verify.sh`: boots the
//! completion server on a two-tier stack whose cheap tier is
//! *deliberately broken* (it answers every prompt with prose), runs the
//! in-domain eval over HTTP, and prints a JSON report. The assertions the
//! harness makes against it:
//!
//! - `escalations_total > 0` — the syntax gate rejected the bad tier's
//!   answers and the router escalated instead of serving them;
//! - `scores_identical` — the tiered run scores exactly what a direct
//!   strong-tier-only run scores (same profile, same seed), i.e. the bad
//!   tier never leaked a graded answer.

use nl2vis_bench::ExperimentContext;
use nl2vis_data::Json;
use nl2vis_eval::{evaluate_llm, LlmEvalConfig};
use nl2vis_llm::http::{CompletionServer, HttpLlmClient};
use nl2vis_llm::{ModelProfile, SimLlm};
use nl2vis_obs as obs;
use nl2vis_service::{
    service_fn, Layer, RouteLayer, RoutePolicy, ValidateLayer, VqlSyntaxValidator,
};

fn main() {
    let ctx = ExperimentContext::fast();
    let config = LlmEvalConfig::default();
    let limit = Some(40);

    let strong = SimLlm::new(ModelProfile::gpt_4(), ctx.seed);
    let strong_leaf = {
        let llm = SimLlm::new(ModelProfile::gpt_4(), ctx.seed);
        service_fn(llm.profile.name, move |prompt: &str, opts: &_| {
            Ok(llm.complete_with(prompt, opts))
        })
    };
    let bad = ValidateLayer::new(VqlSyntaxValidator).layer(service_fn("bad", |_: &str, _: &_| {
        Ok("I cannot answer that.".to_string())
    }));
    let tiers = RouteLayer::new(RoutePolicy::CheapFirst)
        .model("tiered")
        .tier("bad", 1, bad)
        .tier("gpt-4", ModelProfile::gpt_4().cost_units(), strong_leaf)
        .build()
        .expect("routing stack conforms");

    let server = CompletionServer::start(tiers).expect("server boots");
    let client = HttpLlmClient::new(server.address(), "tiered");
    let tiered = evaluate_llm(
        &client,
        &ctx.corpus,
        &ctx.in_split.train,
        &ctx.in_split.test,
        &config,
        limit,
    );
    let reference = evaluate_llm(
        &strong,
        &ctx.corpus,
        &ctx.in_split.train,
        &ctx.in_split.test,
        &config,
        limit,
    );

    let g = obs::global();
    let escalations = g.counter("route.tier.escalations_total").get();
    let rejected = g.counter("route.tier.validation_failures_total").get();
    let identical = tiered.overall().exact() == reference.overall().exact()
        && tiered.overall().exec() == reference.overall().exec();
    let doc = Json::object(vec![
        ("escalations_total", Json::Number(escalations as f64)),
        ("validation_failures_total", Json::Number(rejected as f64)),
        (
            "bad_tier_requests",
            Json::Number(g.counter("route.tier.bad.requests_total").get() as f64),
        ),
        (
            "tiered",
            Json::object(vec![
                ("exact", Json::Number(tiered.overall().exact())),
                ("exec", Json::Number(tiered.overall().exec())),
            ]),
        ),
        (
            "strong_only",
            Json::object(vec![
                ("exact", Json::Number(reference.overall().exact())),
                ("exec", Json::Number(reference.overall().exec())),
            ]),
        ),
        ("scores_identical", Json::Bool(identical)),
    ]);
    println!("{}", doc.to_pretty());
}
