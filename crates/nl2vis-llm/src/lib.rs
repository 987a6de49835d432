//! The (simulated) large-language-model layer.
//!
//! The paper's subject models — `text-davinci-002/003`,
//! `gpt-3.5-turbo-16k`, `gpt-4` — are replaced by a *mechanistic simulated
//! LLM* (see DESIGN.md §1 for the substitution argument): the phenomena the
//! paper studies (prompt-format sensitivity, in-context-learning scaling,
//! the in-domain/cross-domain gap, the failure taxonomy) all arise from how
//! much task-relevant structure a model can recover from its prompt, and
//! this crate implements those mechanisms literally:
//!
//! - [`recover`]: per-format prompt parsers with format-dependent fidelity;
//! - [`prompt_parse`]: decomposition of the full ICL prompt;
//! - [`link`]: lexicon-based schema linking with gated synonym knowledge;
//! - [`understand`]: question-intent parsing and grounding;
//! - [`profile`]: capability profiles for the four model families;
//! - [`sim`]: the generation engine with a failure-taxonomy-shaped seeded
//!   error model;
//! - [`client`]: the completion surface — every caller talks to a
//!   `nl2vis_service::CompletionService` (the simulated model is one, with
//!   a batch entry point that deduplicates prompts), and [`LlmClient`]
//!   gives every service the `try_complete_with` / `complete` call
//!   names;
//! - [`http`]: an OpenAI-compatible HTTP transport — a client leaf service
//!   and a local server hosting any service — with connect/read/write
//!   deadlines on both sides; the server runs on a bounded worker pool
//!   with `429` load shedding and graceful drain. Retry, caching, tracing
//!   and failure attribution are `nl2vis-service` layers composed around
//!   the client ([`RetryPolicy`] is re-exported here);
//! - [`wire`]: the HTTP/1.1 wire format — the one head parser, the
//!   event core's incremental request parse, the blocking readers both
//!   clients and the fleet server use, `render_request` /
//!   `render_response`, a `Connection: close` GET, and the accept loop
//!   every server shares;
//! - [`fault`]: a deterministic [`fault::FaultInjector`] for the server —
//!   stalls, dropped connections and injected 500s, scripted or seeded —
//!   so the resilience layer is testable entirely offline.
//!
//! Transport failures travel as the typed
//! [`client::TransportError`] (the error arm of
//! [`client::CompletionOutcome`]); a `MetricsLayer` above the client
//! counts them under `llm.error.transport`. They must never be scored as
//! model output.

pub mod client;
pub(crate) mod event;
pub mod fault;
pub mod followup;
pub mod http;
pub mod link;
pub mod poll;
pub mod profile;
pub mod prompt_parse;
pub mod recover;
pub mod sim;
pub mod understand;
pub mod wire;

pub use client::{
    CompletionOutcome, CompletionService, LlmClient, TransportError, TransportErrorKind,
    VALIDATION_REJECTED_STATUS,
};
pub use fault::{Fault, FaultInjector};
pub use http::{ServerConfig, ServerTuning};
pub use nl2vis_service::RetryPolicy;
pub use profile::ModelProfile;
pub use sim::{corrupt_query, extract_vql, GenOptions, SimLlm};
