//! The load run itself: warmup + sustained measurement, open- or
//! closed-loop arrival, coordinated-omission correction, live windowed
//! reporting.
//!
//! ## Coordinated omission, and why two end-to-end histograms
//!
//! A closed-loop generator only sends its next request when the previous
//! one returns — so when the server stalls, the generator politely stops
//! generating, and the stall's victims never appear in the latency
//! distribution. The open loop fixes the *schedule*: request `i` of
//! worker `k` has an **intended** send time fixed up front
//! (`epoch + (k + i·T)/rate`), and latency is measured from that intended
//! time. A request the server delayed pays for the delay even though the
//! socket only carried it later. Both views are recorded:
//!
//! - `e2e_corrected` — completion minus *intended* send (the honest open-
//!   loop number);
//! - `e2e_uncorrected` — completion minus *actual* send (what a
//!   coordinated, closed-loop measurement would have reported).
//!
//! Their divergence at saturation is the whole point: if they agree, the
//! server kept up; if corrected >> uncorrected, the generator was being
//! throttled and uncorrected numbers were lying.

use crate::client::{LoadConn, Outcome};
use crate::config::{Arrival, LoadConfig, Target, SEED};
use crate::prompts::PromptPool;
use nl2vis_cache::{completion_key, CompletionCache};
use nl2vis_data::{Json, Rng};
use nl2vis_llm::{FaultInjector, GenOptions, ModelProfile, ServerConfig, SimLlm};
use nl2vis_obs as obs;
use nl2vis_obs::{Histogram, HistogramSummary, MetricsRegistry, WindowConfig, WindowedRegistry};
use nl2vis_router::{Router, RouterConfig, RouterStatsSnapshot};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Aggregated result of one measured run at one thread count.
pub struct RunStats {
    /// Worker threads driving load.
    pub threads: usize,
    /// Arrival label (`closed`, `open:500`).
    pub rate: String,
    /// Wall-clock of the measured phase.
    pub measured: Duration,
    /// Requests that *completed* inside the measured phase (see
    /// `worker_loop`: a saturated open loop falls behind its schedule, so
    /// intended times would re-label sustained-phase damage as warmup).
    pub sent: u64,
    /// ... of which completed `200` (including cache hits).
    pub ok: u64,
    /// ... of which were shed with `429`.
    pub shed: u64,
    /// ... of which failed (transport/protocol/unexpected status).
    pub errors: u64,
    /// `200`s served from the client-side cache without touching the wire.
    pub cache_hits: u64,
    /// End-to-end latency from *intended* send time.
    pub e2e_corrected: HistogramSummary,
    /// End-to-end latency from *actual* send time.
    pub e2e_uncorrected: HistogramSummary,
    /// TCP connect phase (fresh connections only).
    pub connect: HistogramSummary,
    /// Scheduling delay: actual send minus intended send.
    pub queue: HistogramSummary,
    /// Wire service phase: request write to response read.
    pub serve: HistogramSummary,
    /// The server's own `GET /stats` snapshot at the end of the run.
    pub server_stats: Option<Json>,
    /// Replica count the run drove (1 = direct, >1 = routed).
    pub replicas: usize,
    /// Hedge delay the routed run used (0 = hedging off or not routed).
    /// Part of the run's identity: `bench_diff` must never compare a
    /// hedged run against an unhedged one at the same topology.
    pub hedge_ms: u64,
    /// Router counters when the run went through the replica router.
    pub router: Option<RouterStatsSnapshot>,
}

impl RunStats {
    /// Completed requests per second of measured wall-clock.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.measured.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.ok as f64 / secs
        }
    }

    /// Fraction of sent requests shed by admission control.
    pub fn shed_rate(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.shed as f64 / self.sent as f64
        }
    }

    /// Fraction of `200`s answered by the client-side cache.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.ok == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.ok as f64
        }
    }
}

/// Everything the workers share during one run.
struct RunShared {
    epoch: Instant,
    /// Elapsed offset where measurement begins (the warmup boundary).
    measure_from: Duration,
    /// Elapsed offset where the run ends.
    end_at: Duration,
    stop: AtomicBool,
    sent: AtomicU64,
    ok: AtomicU64,
    shed: AtomicU64,
    errors: AtomicU64,
    cache_hits: AtomicU64,
    e2e_corrected: Histogram,
    e2e_uncorrected: Histogram,
    connect: Histogram,
    queue: Histogram,
    serve: Histogram,
    /// Rolling view feeding the live reporter; fed from warmup onward so
    /// the first report line isn't empty.
    windowed: WindowedRegistry,
    cache: Option<CompletionCache>,
}

/// The servers a run drives: either borrowed (remote) or owned
/// (self-hosted replicas, shut down when the run ends).
pub struct RunTarget {
    /// Address workers connect to directly (`--replicas=1` path): the
    /// remote server or the first self-hosted replica.
    pub addr: SocketAddr,
    /// Every replica address, ring order (length 1 unless `--replicas`).
    pub addrs: Vec<SocketAddr>,
    /// Model name sent with each request.
    pub model: String,
    servers: Vec<nl2vis_llm::http::CompletionServer>,
}

/// The self-hosted server's service-time plan. The simulated model
/// completes in microseconds of CPU; `--service-ms` stalls every
/// completion for a realistic service time and `--tail` adds a rare heavy
/// tail, so queueing dynamics and hedging have something to act on.
fn service_time(config: &LoadConfig, seed: u64) -> FaultInjector {
    if config.service_ms > 0 || config.tail_prob > 0.0 {
        FaultInjector::random_with_tail(
            seed,
            0.0,
            0.0,
            if config.service_ms > 0 { 1.0 } else { 0.0 },
            Duration::from_millis(config.service_ms),
            config.tail_prob,
            Duration::from_millis(config.tail_ms),
        )
    } else {
        FaultInjector::none()
    }
}

impl RunTarget {
    /// Resolves the configured target, starting the in-process replica
    /// fleet for [`Target::SelfHosted`].
    pub fn start(config: &LoadConfig) -> Result<RunTarget, String> {
        match &config.target {
            Target::Remote(addr) => {
                if config.replicas > 1 {
                    return Err(
                        "--replicas needs --server=self (the harness owns the fleet)".to_string(),
                    );
                }
                let addr: SocketAddr = addr
                    .parse()
                    .map_err(|e| format!("bad --server address `{addr}`: {e}"))?;
                Ok(RunTarget {
                    addr,
                    addrs: vec![addr],
                    model: config.model.clone(),
                    servers: Vec::new(),
                })
            }
            Target::SelfHosted => {
                let profile = ModelProfile::by_name(&config.model).ok_or_else(|| {
                    let known: Vec<&str> = ModelProfile::all_inference()
                        .iter()
                        .map(|p| p.name)
                        .collect();
                    format!(
                        "unknown --model `{}` (self-hosted models: {})",
                        config.model,
                        known.join(", ")
                    )
                })?;
                let model = profile.name.to_string();
                let mut servers = Vec::with_capacity(config.replicas);
                for replica in 0..config.replicas {
                    // Each replica draws from its own seed so tails
                    // de-correlate.
                    let server = nl2vis_llm::http::CompletionServer::start_with_service_config(
                        SimLlm::new(profile.clone(), SEED),
                        Arc::new(MetricsRegistry::new()),
                        service_time(config, 1 + replica as u64),
                        ServerConfig {
                            max_inflight: config.server_workers,
                            queue_depth: config.server_queue,
                            retry_after: Duration::from_millis(5),
                        },
                    )
                    .map_err(|e| format!("replica {replica} start failed: {e}"))?;
                    servers.push(server);
                }
                Ok(RunTarget {
                    addr: servers[0].address(),
                    addrs: servers.iter().map(|s| s.address()).collect(),
                    model,
                    servers,
                })
            }
        }
    }

    /// The first in-process server, when self-hosted.
    pub fn server(&self) -> Option<&nl2vis_llm::http::CompletionServer> {
        self.servers.first()
    }

    /// Builds the replica router for this fleet, per run so cache shards
    /// and latency windows start cold like every other per-run stat.
    fn router(&self, config: &LoadConfig) -> Router {
        let router_config = RouterConfig {
            hedge_delay: (config.hedge_ms > 0).then(|| Duration::from_millis(config.hedge_ms)),
            hedge_delay_floor: Duration::from_millis(1),
            // Split the configured cache budget over the shards so a
            // 1-replica --cache=C run and an N-replica run compare the
            // same total capacity.
            shard_capacity: config.cache_capacity.div_ceil(self.addrs.len()),
            health_interval: Some(Duration::from_millis(500)),
        };
        Router::over_http(&self.addrs, &self.model, router_config)
    }
}

/// Runs warmup + measurement at one thread count against `target`.
pub fn run_once(
    config: &LoadConfig,
    threads: usize,
    target: &RunTarget,
    pool: &Arc<PromptPool>,
) -> RunStats {
    let shared = Arc::new(RunShared {
        epoch: Instant::now(),
        measure_from: config.warmup,
        end_at: config.warmup + config.duration,
        stop: AtomicBool::new(false),
        sent: AtomicU64::new(0),
        ok: AtomicU64::new(0),
        shed: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        cache_hits: AtomicU64::new(0),
        e2e_corrected: Histogram::default(),
        e2e_uncorrected: Histogram::default(),
        connect: Histogram::default(),
        queue: Histogram::default(),
        serve: Histogram::default(),
        windowed: WindowedRegistry::new(WindowConfig {
            bucket: Duration::from_millis(500),
            buckets: 10,
        }),
        // With replicas the router's per-replica shards carry the cache
        // budget instead; a second client-side cache in front would hide
        // exactly the shard locality the topology runs measure.
        cache: (config.cache_capacity > 0 && config.replicas == 1)
            .then(|| CompletionCache::in_memory(config.cache_capacity)),
    });

    let router = (config.replicas > 1).then(|| Arc::new(target.router(config)));

    let reporter = (config.report > Duration::ZERO).then(|| {
        let shared = Arc::clone(&shared);
        let interval = config.report.max(Duration::from_millis(500));
        std::thread::spawn(move || report_loop(&shared, interval, threads))
    });

    std::thread::scope(|scope| {
        for worker in 0..threads {
            let shared = Arc::clone(&shared);
            let pool = Arc::clone(pool);
            let addr = target.addr;
            let model = target.model.clone();
            let arrival = config.arrival;
            let router = router.clone();
            scope.spawn(move || {
                worker_loop(
                    worker,
                    threads,
                    &shared,
                    &pool,
                    addr,
                    &model,
                    arrival,
                    router.as_deref(),
                )
            });
        }
    });
    shared.stop.store(true, Ordering::Relaxed);
    if let Some(handle) = reporter {
        let _ = handle.join();
    }

    let server_stats = nl2vis_llm::wire::get(target.addr, "/stats", Duration::from_secs(2))
        .ok()
        .and_then(|(_, body)| Json::parse(&body).ok());
    let measured = shared
        .epoch
        .elapsed()
        .saturating_sub(config.warmup)
        .min(config.duration.max(Duration::from_millis(1)));
    RunStats {
        threads,
        rate: config.arrival.label(),
        measured,
        sent: shared.sent.load(Ordering::Relaxed),
        ok: shared.ok.load(Ordering::Relaxed),
        shed: shared.shed.load(Ordering::Relaxed),
        errors: shared.errors.load(Ordering::Relaxed),
        cache_hits: shared.cache_hits.load(Ordering::Relaxed),
        e2e_corrected: shared.e2e_corrected.summary(),
        e2e_uncorrected: shared.e2e_uncorrected.summary(),
        connect: shared.connect.summary(),
        queue: shared.queue.summary(),
        serve: shared.serve.summary(),
        server_stats,
        replicas: target.addrs.len(),
        hedge_ms: if config.replicas > 1 {
            config.hedge_ms
        } else {
            0
        },
        router: router.map(|r| r.stats().snapshot()),
    }
}

/// One worker: schedule, send, classify, record.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    worker: usize,
    threads: usize,
    shared: &RunShared,
    pool: &PromptPool,
    addr: SocketAddr,
    model: &str,
    arrival: Arrival,
    router: Option<&Router>,
) {
    let mut rng = Rng::new(SEED).fork(worker as u64 + 1);
    let mut conn = LoadConn::new(addr, model);
    let options = GenOptions::default();
    let mut iteration = 0u64;

    loop {
        // Fixed-rate schedule: this worker owns ticks worker, worker+T,
        // worker+2T, ... of the aggregate arrival process.
        let intended = match arrival {
            Arrival::Closed => shared.epoch.elapsed(),
            Arrival::Open { rps } => {
                Duration::from_secs_f64((worker as f64 + iteration as f64 * threads as f64) / rps)
            }
        };
        if intended >= shared.end_at || shared.epoch.elapsed() >= shared.end_at {
            return;
        }
        if let Some(wait) = intended.checked_sub(shared.epoch.elapsed()) {
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
        }
        iteration += 1;

        let rank = pool.sample_rank(&mut rng);
        let prompt = pool.prompt(rank);
        let actual_send = shared.epoch.elapsed();

        // Issue the request — via the replica router when one is driving
        // the fleet, else through the completion cache when one is
        // configured (hot Zipf ranks then answer locally; misses share a
        // single flight per key), bare otherwise.
        let mut connect_us = 0u64;
        let mut serve_us = 0u64;
        let mut wire = false;
        let outcome = if let Some(router) = router {
            let issued = Instant::now();
            let call = router.call_detailed(prompt, &options);
            serve_us = issued.elapsed().as_micros() as u64;
            // A shard hit never touched the wire; everything else did
            // (connect time is folded into the attempt, so `connect`
            // stays empty on routed runs).
            wire = !call.shard_hit;
            match call.outcome {
                Ok(_) => Outcome::Ok,
                Err(e) if matches!(e.kind, nl2vis_llm::TransportErrorKind::Status(429)) => {
                    Outcome::Shed
                }
                Err(e) => Outcome::Error(e.message),
            }
        } else {
            match &shared.cache {
                None => {
                    wire = true;
                    let result = conn.request(prompt);
                    connect_us = result.connect_us;
                    serve_us = result.serve_us;
                    result.outcome
                }
                Some(cache) => {
                    let key = completion_key(model, &options, prompt);
                    let through = cache.complete_through(&key, || {
                        wire = true;
                        let result = conn.request(prompt);
                        connect_us = result.connect_us;
                        serve_us = result.serve_us;
                        match result.outcome {
                            // The harness discards completion text; cache an
                            // empty marker so hits are hits.
                            Outcome::Ok => Ok(String::new()),
                            Outcome::Shed => Err(nl2vis_llm::TransportError::new(
                                nl2vis_llm::TransportErrorKind::Status(429),
                                1,
                                "shed",
                            )),
                            Outcome::Error(message) => Err(nl2vis_llm::TransportError::new(
                                nl2vis_llm::TransportErrorKind::Io,
                                1,
                                message,
                            )),
                        }
                    });
                    match through {
                        Ok(_) => Outcome::Ok,
                        Err(e) if matches!(e.kind, nl2vis_llm::TransportErrorKind::Status(429)) => {
                            Outcome::Shed
                        }
                        Err(e) => Outcome::Error(e.message),
                    }
                }
            }
        };

        let done = shared.epoch.elapsed();
        let corrected_us = done.saturating_sub(intended).as_micros() as u64;
        let uncorrected_us = done.saturating_sub(actual_send).as_micros() as u64;
        let queue_us = actual_send.saturating_sub(intended).as_micros() as u64;
        // A sample belongs to the measured phase if it *completed* after
        // the warmup boundary — completion time, not intended time: a
        // saturated open loop falls behind its schedule, and intended
        // times lagging the wall clock must not re-label sustained-phase
        // damage as warmup.
        let measured = done >= shared.measure_from;

        match outcome {
            Outcome::Ok => {
                shared.windowed.counter("loadgen.ok").inc();
                shared
                    .windowed
                    .histogram("loadgen.e2e_us")
                    .record(corrected_us);
                if measured {
                    shared.sent.fetch_add(1, Ordering::Relaxed);
                    shared.ok.fetch_add(1, Ordering::Relaxed);
                    if !wire {
                        shared.cache_hits.fetch_add(1, Ordering::Relaxed);
                    }
                    shared.e2e_corrected.record(corrected_us);
                    shared.e2e_uncorrected.record(uncorrected_us);
                    shared.queue.record(queue_us);
                    if wire {
                        shared.serve.record(serve_us);
                        if connect_us > 0 {
                            shared.connect.record(connect_us);
                        }
                    }
                }
            }
            Outcome::Shed => {
                shared.windowed.counter("loadgen.shed").inc();
                if measured {
                    shared.sent.fetch_add(1, Ordering::Relaxed);
                    shared.shed.fetch_add(1, Ordering::Relaxed);
                }
                // A shed advertised Retry-After: 5ms; honoring a small
                // backoff keeps the closed loop from busy-hammering the
                // accept queue.
                if matches!(arrival, Arrival::Closed) {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            Outcome::Error(message) => {
                shared.windowed.counter("loadgen.errors").inc();
                if measured {
                    shared.sent.fetch_add(1, Ordering::Relaxed);
                    shared.errors.fetch_add(1, Ordering::Relaxed);
                }
                obs::count("loadgen.errors_total", 1);
                if shared.errors.load(Ordering::Relaxed) <= 3 {
                    eprintln!("[loadgen] worker {worker}: {message}");
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// Prints a rolling one-line status from the windowed registry until the
/// run stops: throughput, windowed p50/p99 (corrected), shed rate.
fn report_loop(shared: &RunShared, interval: Duration, threads: usize) {
    let e2e = shared.windowed.histogram("loadgen.e2e_us");
    let ok = shared.windowed.counter("loadgen.ok");
    let sheds = shared.windowed.counter("loadgen.shed");
    let errors = shared.windowed.counter("loadgen.errors");
    let mut last_ms = 0u64;
    while !shared.stop.load(Ordering::Relaxed) {
        // Nap in short slices so a finished run isn't held open (and no
        // stale final line is printed), reporting once per interval.
        std::thread::sleep(interval.min(Duration::from_millis(200)));
        let elapsed = shared.epoch.elapsed();
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        let now_ms = elapsed.as_millis() as u64;
        if now_ms.saturating_sub(last_ms) < interval.as_millis() as u64 {
            continue;
        }
        last_ms = now_ms;
        let window = e2e.snapshot();
        let covered = shared.windowed.covered().as_secs_f64();
        let rps = if covered > 0.0 {
            window.count as f64 / covered
        } else {
            0.0
        };
        let shed_window = sheds.window_total();
        let total = window.count + shed_window + errors.window_total();
        let shed_rate = if total == 0 {
            0.0
        } else {
            shed_window as f64 / total as f64
        };
        let phase = if elapsed < shared.measure_from {
            "warmup "
        } else {
            ""
        };
        eprintln!(
            "[loadgen t={:>5.1}s {phase}threads={threads}] rps={:7.1} ok={} p50={:.1}ms p99={:.1}ms shed={:.1}% ",
            elapsed.as_secs_f64(),
            rps,
            ok.window_total(),
            window.quantile(0.50) / 1_000.0,
            window.quantile(0.99) / 1_000.0,
            shed_rate * 100.0,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_hosted_runs_serve_the_named_model_or_refuse() {
        let config = LoadConfig {
            model: "text-davinci-002".to_string(),
            ..LoadConfig::default()
        };
        let target = RunTarget::start(&config).expect("a known model self-hosts");
        assert_eq!(target.model, "text-davinci-002");
        let (status, body) =
            nl2vis_llm::wire::get(target.addr, "/v1/models", Duration::from_secs(2)).unwrap();
        assert_eq!(status, 200, "{body}");
        let models = Json::parse(&body).unwrap();
        let hosted = models
            .get("data")
            .and_then(Json::as_array)
            .and_then(|data| data.first())
            .and_then(|model| model.get("id"))
            .and_then(Json::as_str);
        assert_eq!(hosted, Some("text-davinci-002"), "{body}");

        // A typo is refused, not served as some other model.
        let typo = LoadConfig {
            model: "gpt4".to_string(),
            ..LoadConfig::default()
        };
        assert!(RunTarget::start(&typo).is_err());
    }
}
