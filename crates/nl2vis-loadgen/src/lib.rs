//! # nl2vis-loadgen — sustained load harness for the completion server
//!
//! The serving claims of this reproduction (and its ROADMAP north star of
//! production-scale traffic) need load-shaped numbers, not 80-example eval
//! loops. This crate is a crud-bench-style generator that drives a
//! [`CompletionServer`](nl2vis_llm::http::CompletionServer) over real
//! HTTP:
//!
//! - **open- or closed-loop arrival** ([`config::Arrival`]) with
//!   coordinated-omission correction — open-loop latency is measured from
//!   each request's *intended* send time, so server stalls cannot hide by
//!   throttling the generator (see [`runner`] for the full argument);
//! - **Zipf-skewed prompt keys** ([`prompts::PromptPool`], exponent
//!   [`prompts::ZIPF_THETA`]) drawn from the real corpus, the hot-key
//!   pattern that exercises the completion cache and single-flight dedup;
//! - **warmup + sustained measurement** phases with per-phase latency
//!   breakdown (connect / queue / serve / end-to-end);
//! - **live windowed telemetry** — a rolling throughput/p99/shed line
//!   printed during the run from an
//!   [`obs::WindowedRegistry`](nl2vis_obs::WindowedRegistry), mirroring
//!   the server's own `GET /stats`;
//! - **replicated topologies** — `--replicas=N` self-hosts N servers and
//!   drives them through the prompt-affinity
//!   [`Router`](nl2vis_router::Router), hedged after `--hedge-ms`;
//! - **a regression trajectory** — results land in `BENCH_load.json`, and
//!   [`diff`] compares two such files and flags moves past a threshold.
//!
//! The merged view of a running fleet is `nl2vis-router`'s `fleet observe`
//! (`/fleet/stats`), and tier routing under load is the pinned benchmark's
//! `serve-tiered-cached` workload; the harness does neither.
//!
//! Binaries: `nl2vis-loadgen` (the harness) and `bench_diff` (the
//! comparator, also reachable via `scripts/bench_diff`).

pub mod client;
pub mod config;
pub mod diff;
pub mod prompts;
pub mod results;
pub mod runner;

pub use config::{Arrival, LoadConfig, Target};
pub use diff::{diff, DiffReport};
pub use runner::{run_once, RunStats, RunTarget};

use nl2vis_data::Json;
use prompts::PromptPool;
use std::sync::Arc;

/// Runs the full configured sweep (every thread count) and returns the
/// `BENCH_load.json` document plus the per-run stats.
pub fn run_load(config: &LoadConfig) -> Result<(Json, Vec<RunStats>), String> {
    let target = RunTarget::start(config)?;
    let pool = Arc::new(PromptPool::build(config.prompts));
    let mut runs = Vec::with_capacity(config.threads.len());
    for &threads in &config.threads {
        runs.push(runner::run_once(config, threads, &target, &pool));
    }
    Ok((results::bench_json(config, &runs), runs))
}
