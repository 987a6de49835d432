//! The [`Router`]: a client-side replica selector with prompt affinity,
//! health ejection, 429 penalties, and hedged requests.
//!
//! Request flow:
//!
//! 1. The canonical completion key (the same string the cache layer keys
//!    on) hashes onto the [`crate::ring::Ring`]; the owning replica is the
//!    *primary* and the subsequent ring order is the failover list.
//!    Ejected replicas are skipped; penalized replicas (an open 429
//!    `Retry-After` window) sort after healthy ones.
//! 2. The primary's per-replica cache shard answers hits without touching
//!    the wire.
//! 3. On a miss, the primary attempt runs on its own thread. If it hasn't
//!    answered within the primary's observed p95 (sliding window, clamped),
//!    a *hedge* fires at the next candidate; if the primary *errors*
//!    before the hedge timer, a *failover* fires instead. First success
//!    wins; the loser's result is discarded when it lands. An errored
//!    hedge never masks a primary that later succeeds, and the request
//!    errors only after every spawned attempt has errored (the primary's
//!    error is the one reported).
//!
//! Every attempt runs under a `router.attempt` span parented to the
//! request's `router.request` span, so a hedge race renders as one trace
//! tree with the winner annotated — `/trace/<id>` on any replica sharing
//! the process flight recorder shows the whole race.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use nl2vis_cache::completion_key;
use nl2vis_obs::span::{current_context, Span, TraceContext};
use nl2vis_obs::{self as obs, registry};
use nl2vis_service::{
    CompletionOutcome, CompletionService, GenOptions, TransportError, TransportErrorKind,
};

use crate::replica::{probe_healthz, Replica, ReplicaSpec};
use crate::ring::Ring;

/// Virtual nodes per replica on the hash ring.
const VNODES: usize = 32;

/// Penalty window for a 429 that advertised no `Retry-After`.
const DEFAULT_PENALTY: Duration = Duration::from_millis(50);

/// Routing, hedging, and health policy. The rest of the policy is fixed:
/// 32 ring points per replica, ejection after 3 consecutive transport
/// failures or failed 200 ms `/healthz` probes, and a 50 ms penalty
/// window for a 429 without `Retry-After`.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Latency hedging. `Some(delay)` fires a hedge at the next candidate
    /// when the primary has not answered after `delay`, until the primary
    /// has 20 latency observations; from then on after its windowed p95,
    /// clamped to [`Self::hedge_delay_floor`] .. 500 ms. `None` never
    /// hedges; failover on error works either way.
    pub hedge_delay: Option<Duration>,
    /// Lower clamp of the adaptive hedge trigger: protects against a p95
    /// collapsed by cache-fast samples. Wins over the ceiling if it is
    /// set above it.
    pub hedge_delay_floor: Duration,
    /// Per-replica completion-cache shard capacity; 0 disables shards.
    pub shard_capacity: usize,
    /// Active `/healthz` probe cadence; `None` disables the prober (only
    /// passive ejection/readmission then).
    pub health_interval: Option<Duration>,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            hedge_delay: Some(Duration::from_millis(25)),
            hedge_delay_floor: Duration::from_millis(2),
            shard_capacity: 0,
            health_interval: None,
        }
    }
}

/// Router counters, kept on the router (not only the process-global
/// registry) so tests and per-run reports are immune to unrelated traffic
/// in the same process.
#[derive(Default)]
pub struct RouterStats {
    requests: AtomicU64,
    shard_hits: AtomicU64,
    hedges_fired: AtomicU64,
    hedge_wins: AtomicU64,
    primary_wins: AtomicU64,
    failovers: AtomicU64,
    penalties: AtomicU64,
    penalty_deferrals: AtomicU64,
    ejections: AtomicU64,
    readmissions: AtomicU64,
    all_ejected: AtomicU64,
    inflight: AtomicI64,
}

/// A plain-value copy of [`RouterStats`] at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStatsSnapshot {
    pub requests: u64,
    pub shard_hits: u64,
    pub hedges_fired: u64,
    pub hedge_wins: u64,
    pub primary_wins: u64,
    pub failovers: u64,
    pub penalties: u64,
    pub penalty_deferrals: u64,
    pub ejections: u64,
    pub readmissions: u64,
    pub all_ejected: u64,
    pub inflight: i64,
}

impl RouterStats {
    fn bump(&self, field: &AtomicU64, metric: &str) {
        field.fetch_add(1, Ordering::Relaxed);
        obs::count(metric, 1);
    }

    /// Current counter values.
    pub fn snapshot(&self) -> RouterStatsSnapshot {
        RouterStatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            shard_hits: self.shard_hits.load(Ordering::Relaxed),
            hedges_fired: self.hedges_fired.load(Ordering::Relaxed),
            hedge_wins: self.hedge_wins.load(Ordering::Relaxed),
            primary_wins: self.primary_wins.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            penalties: self.penalties.load(Ordering::Relaxed),
            penalty_deferrals: self.penalty_deferrals.load(Ordering::Relaxed),
            ejections: self.ejections.load(Ordering::Relaxed),
            readmissions: self.readmissions.load(Ordering::Relaxed),
            all_ejected: self.all_ejected.load(Ordering::Relaxed),
            inflight: self.inflight.load(Ordering::Relaxed),
        }
    }

    /// Attempts currently on the wire (includes losers still draining).
    pub fn inflight(&self) -> i64 {
        self.inflight.load(Ordering::Relaxed)
    }
}

/// Balances the in-flight gauge exactly once per attempt, however the
/// attempt thread exits.
struct InflightGuard {
    stats: Arc<RouterStats>,
}

impl InflightGuard {
    fn enter(stats: &Arc<RouterStats>) -> InflightGuard {
        stats.inflight.fetch_add(1, Ordering::Relaxed);
        registry::global().gauge("router.inflight").add(1);
        InflightGuard {
            stats: Arc::clone(stats),
        }
    }
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.stats.inflight.fetch_sub(1, Ordering::Relaxed);
        registry::global().gauge("router.inflight").add(-1);
    }
}

/// One request's routing outcome, for callers (the load generator) that
/// account hits and hedge wins, not just text.
#[derive(Debug)]
pub struct RoutedCall {
    pub outcome: CompletionOutcome,
    /// Id of the replica that answered (primary candidate's id on error).
    pub replica: String,
    /// `"shard"`, `"primary"`, `"hedge"`, or `"failover"`.
    pub role: &'static str,
    /// Whether a latency hedge was fired for this request.
    pub hedged: bool,
    /// Whether the per-replica cache shard answered.
    pub shard_hit: bool,
}

/// A finished attempt parked in the race state.
struct RaceSlot {
    outcome: CompletionOutcome,
    replica: usize,
}

/// Two-slot race: slot 0 is the primary, slot 1 the hedge/failover.
#[derive(Default)]
struct Race {
    slots: Mutex<[Option<RaceSlot>; 2]>,
    cv: Condvar,
}

struct HealthChecker {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for HealthChecker {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// The replica router. Implements [`CompletionService`] (tag `"route"`),
/// so it composes under the cache and retry layers —
/// `Cache(Retry(Route(..)))` is the canonical stack and
/// [`nl2vis_service::validate_stack`] enforces that ordering.
pub struct Router {
    model: String,
    replicas: Arc<Vec<Replica>>,
    ring: Ring,
    config: RouterConfig,
    epoch: Instant,
    stats: Arc<RouterStats>,
    /// Held for its Drop: stops and joins the prober thread.
    _health: Option<HealthChecker>,
}

impl Router {
    /// Builds a router over `specs` (at least one replica required).
    /// Starts the active health checker when the config asks for one and
    /// any replica has a health address.
    pub fn new(specs: Vec<ReplicaSpec>, config: RouterConfig) -> Router {
        assert!(!specs.is_empty(), "router needs at least one replica");
        let model = specs[0].service.model().to_string();
        let ids: Vec<String> = specs.iter().map(|s| s.id.clone()).collect();
        let ring = Ring::new(&ids, VNODES);
        let replicas: Arc<Vec<Replica>> = Arc::new(
            specs
                .into_iter()
                .map(|spec| Replica::new(spec, &config))
                .collect(),
        );
        let stats = Arc::new(RouterStats::default());
        let health = config.health_interval.and_then(|interval| {
            replicas
                .iter()
                .any(|r| r.health_addr.is_some())
                .then(|| spawn_health_checker(Arc::clone(&replicas), Arc::clone(&stats), interval))
        });
        Router {
            model,
            replicas,
            ring,
            config,
            epoch: Instant::now(),
            stats,
            _health: health,
        }
    }

    /// A router over HTTP replicas: one pooled [`nl2vis_llm::http::HttpLlmClient`]
    /// per address, each probed at its own `/healthz`.
    pub fn over_http(addrs: &[std::net::SocketAddr], model: &str, config: RouterConfig) -> Router {
        let specs = addrs
            .iter()
            .map(|&addr| {
                ReplicaSpec::shared(
                    addr.to_string(),
                    Arc::new(nl2vis_llm::http::HttpLlmClient::new(addr, model)),
                )
                .with_health_addr(addr)
            })
            .collect();
        Router::new(specs, config)
    }

    /// This router's counters.
    pub fn stats(&self) -> &RouterStats {
        &self.stats
    }

    /// Number of replicas on the ring.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Id of the replica that owns `prompt` on the ring (ignoring health),
    /// for tests and debugging.
    pub fn primary_replica(&self, prompt: &str, opts: &GenOptions) -> &str {
        let key = completion_key(&self.model, opts, prompt);
        let idx = self.ring.primary(&key).expect("non-empty ring");
        &self.replicas[idx].id
    }

    fn elapsed_us(&self) -> u64 {
        self.epoch.elapsed().as_micros().min(u64::MAX as u128) as u64
    }

    /// Routes one request, exposing the routing decision alongside the
    /// outcome. [`CompletionService::call`] discards the decision.
    pub fn call_detailed(&self, prompt: &str, opts: &GenOptions) -> RoutedCall {
        let span = Span::enter("router.request");
        self.stats
            .bump(&self.stats.requests, "router.requests_total");
        let key = completion_key(&self.model, opts, prompt);
        let order = self.ring.candidates(&key);

        // Partition the ring order by health: live first, penalized after
        // (still contactable — a Retry-After window is advice, not death),
        // ejected skipped entirely.
        let now_us = self.elapsed_us();
        let mut candidates: Vec<usize> = Vec::with_capacity(order.len());
        let mut penalized: Vec<usize> = Vec::new();
        for &idx in &order {
            let replica = &self.replicas[idx];
            if replica.is_ejected() {
                continue;
            }
            if replica.is_penalized(now_us) {
                penalized.push(idx);
            } else {
                candidates.push(idx);
            }
        }
        if !candidates.is_empty() && Some(&candidates[0]) != order.first() {
            // The affinity owner exists but was routed around (penalty);
            // ejections are not deferrals — the owner is gone, not demoted.
            if penalized.first() == order.first() {
                self.stats.bump(
                    &self.stats.penalty_deferrals,
                    "router.penalty_deferrals_total",
                );
            }
        }
        candidates.extend(penalized);
        let Some(&primary) = candidates.first() else {
            self.stats
                .bump(&self.stats.all_ejected, "router.all_ejected_total");
            let message = format!(
                "router: all {} replicas ejected, no candidate for request",
                self.replicas.len()
            );
            span.annotate("error", "all_ejected");
            return RoutedCall {
                outcome: Err(TransportError::new(TransportErrorKind::Connect, 1, message)),
                replica: order
                    .first()
                    .map(|&i| self.replicas[i].id.clone())
                    .unwrap_or_default(),
                role: "none",
                hedged: false,
                shard_hit: false,
            };
        };

        span.annotate("replica.primary", &self.replicas[primary].id);

        // Shard path: the affinity owner's cache shard answers hits
        // locally, and its per-key single-flight dedupes concurrent
        // misses — a herd on a cold hot key costs one upstream race, and
        // the flight inserts the winner's text into *this* shard, the one
        // every future request for the key routes to.
        let mut raced: Option<(usize, RaceSlot, Option<&'static str>)> = None;
        let outcome = if let Some(shard) = &self.replicas[primary].shard {
            shard.complete_through(&key, || {
                let r = self.race(&span, prompt, opts, &candidates);
                let outcome = r.1.outcome.clone();
                raced = Some(r);
                outcome
            })
        } else {
            let r = self.race(&span, prompt, opts, &candidates);
            let outcome = r.1.outcome.clone();
            raced = Some(r);
            outcome
        };

        let Some((winner_slot, winner, second_role)) = raced else {
            // The shard answered without racing: a cache hit, or a
            // single-flight wait that rode a concurrent leader's race.
            self.stats
                .bump(&self.stats.shard_hits, "router.shard_hits_total");
            span.annotate("cache_shard", "hit");
            span.annotate("winner", &self.replicas[primary].id);
            return RoutedCall {
                outcome,
                replica: self.replicas[primary].id.clone(),
                role: "shard",
                hedged: false,
                shard_hit: true,
            };
        };
        if self.replicas[primary].shard.is_some() {
            span.annotate("cache_shard", "miss");
        }
        let hedged = second_role == Some("hedge");
        let role = if winner_slot == 0 {
            if winner.outcome.is_ok() {
                self.stats
                    .bump(&self.stats.primary_wins, "router.primary_wins_total");
            }
            "primary"
        } else {
            let role = second_role.unwrap_or("hedge");
            if role == "hedge" && winner.outcome.is_ok() {
                self.stats
                    .bump(&self.stats.hedge_wins, "router.hedge_wins_total");
            }
            role
        };
        let winner_id = self.replicas[winner.replica].id.clone();
        span.annotate("hedged", if hedged { "true" } else { "false" });
        span.annotate("winner", &winner_id);
        span.annotate("winner_role", role);
        RoutedCall {
            outcome,
            replica: winner_id,
            role,
            hedged,
            shard_hit: false,
        }
    }

    /// Runs the primary/hedge race over `candidates` (non-empty). Returns
    /// the winning slot, its result, and what slot 1 was used for.
    fn race(
        &self,
        _request_span: &Span,
        prompt: &str,
        opts: &GenOptions,
        candidates: &[usize],
    ) -> (usize, RaceSlot, Option<&'static str>) {
        let race = Arc::new(Race::default());
        let prompt: Arc<str> = Arc::from(prompt);
        let ctx = current_context();
        let primary = candidates[0];
        let second_target = candidates.get(1).copied();
        let hedge_after = self
            .config
            .hedge_delay
            .filter(|_| second_target.is_some())
            .map(|delay| self.replicas[primary].hedge_delay(delay, self.config.hedge_delay_floor));

        self.spawn_attempt(&race, 0, primary, "primary", ctx, &prompt, opts);
        let started = Instant::now();
        let mut second_role: Option<&'static str> = None;

        let mut slots = race.slots.lock().expect("race slots");
        loop {
            // A success wins immediately; the primary is checked first so
            // a hedge that lands in the same wake-up never shadows it.
            for slot in 0..2 {
                if slots[slot].as_ref().is_some_and(|s| s.outcome.is_ok()) {
                    return (slot, slots[slot].take().expect("checked"), second_role);
                }
            }
            let primary_done = slots[0].is_some();
            let second_done = second_role.is_none() || slots[1].is_some();
            if primary_done && second_done {
                if second_role.is_none() {
                    if let Some(target) = second_target {
                        // The primary failed before any hedge fired: fail
                        // over to the next candidate right away.
                        second_role = Some("failover");
                        self.stats
                            .bump(&self.stats.failovers, "router.failovers_total");
                        self.spawn_attempt(&race, 1, target, "failover", ctx, &prompt, opts);
                        continue;
                    }
                }
                // Every attempt errored; report the primary's error.
                return (0, slots[0].take().expect("primary done"), second_role);
            }
            let elapsed = started.elapsed();
            if second_role.is_none() {
                if let (Some(delay), Some(target)) = (hedge_after, second_target) {
                    if elapsed >= delay {
                        second_role = Some("hedge");
                        self.stats
                            .bump(&self.stats.hedges_fired, "router.hedges_fired_total");
                        self.spawn_attempt(&race, 1, target, "hedge", ctx, &prompt, opts);
                        continue;
                    }
                }
            }
            let wait = match (second_role, hedge_after) {
                // Waiting for the hedge timer: sleep exactly until it.
                (None, Some(delay)) => delay.saturating_sub(elapsed),
                // Waiting on attempt threads, which carry their own
                // transport deadlines; the long timeout is a backstop.
                _ => Duration::from_secs(60),
            }
            .max(Duration::from_millis(1));
            slots = race.cv.wait_timeout(slots, wait).expect("race slots").0;
        }
    }

    /// Spawns one attempt on its own thread: runs the call under a
    /// `router.attempt` span (so HTTP trace headers propagate from the
    /// attempt, stitching the race into one tree), updates replica health
    /// and latency, and parks the result in `race.slots[slot]`.
    #[allow(clippy::too_many_arguments)]
    fn spawn_attempt(
        &self,
        race: &Arc<Race>,
        slot: usize,
        replica_idx: usize,
        role: &'static str,
        ctx: Option<TraceContext>,
        prompt: &Arc<str>,
        opts: &GenOptions,
    ) {
        let race = Arc::clone(race);
        let replicas = Arc::clone(&self.replicas);
        let stats = Arc::clone(&self.stats);
        let prompt = Arc::clone(prompt);
        let opts = opts.clone();
        let epoch = self.epoch;
        std::thread::spawn(move || {
            let replica = &replicas[replica_idx];
            let span = match ctx {
                Some(ctx) => Span::enter_with("router.attempt", ctx),
                None => Span::enter_root("router.attempt"),
            };
            span.annotate("replica", &replica.id);
            span.annotate("role", role);
            let _inflight = InflightGuard::enter(&stats);
            let started = Instant::now();
            let outcome = replica.call(&prompt, &opts);
            let elapsed = started.elapsed();
            replica.latency.record_duration(elapsed);
            registry::global()
                .histogram("router.attempt_latency_us")
                .record_duration(elapsed);
            match &outcome {
                Ok(_) => {
                    if replica.note_success() {
                        stats.bump(&stats.readmissions, "router.replica_readmitted_total");
                    }
                }
                Err(e) => {
                    span.annotate("error", &format!("{:?}", e.kind));
                    let penalty = match (e.retry_after, &e.kind) {
                        (Some(advertised), _) => Some(advertised),
                        (None, TransportErrorKind::Status(429)) => Some(DEFAULT_PENALTY),
                        _ => None,
                    };
                    if let Some(penalty) = penalty {
                        let deadline = epoch.elapsed() + penalty;
                        replica.penalize_until(deadline.as_micros().min(u64::MAX as u128) as u64);
                        stats.bump(&stats.penalties, "router.penalties_total");
                    }
                    if matches!(
                        e.kind,
                        TransportErrorKind::Timeout
                            | TransportErrorKind::Connect
                            | TransportErrorKind::ConnectionClosed
                            | TransportErrorKind::Io
                    ) && replica.note_transport_failure()
                    {
                        stats.bump(&stats.ejections, "router.replica_ejected_total");
                    }
                }
            }
            let mut slots = race.slots.lock().expect("race slots");
            slots[slot] = Some(RaceSlot {
                outcome,
                replica: replica_idx,
            });
            race.cv.notify_all();
        });
    }
}

fn spawn_health_checker(
    replicas: Arc<Vec<Replica>>,
    stats: Arc<RouterStats>,
    interval: Duration,
) -> HealthChecker {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        while !stop_flag.load(Ordering::Acquire) {
            for replica in replicas.iter() {
                let Some(addr) = replica.health_addr else {
                    continue;
                };
                match replica.note_probe(probe_healthz(addr)) {
                    Some(true) => {
                        stats.bump(&stats.readmissions, "router.replica_readmitted_total")
                    }
                    Some(false) => stats.bump(&stats.ejections, "router.replica_ejected_total"),
                    None => {}
                }
            }
            // Chunked sleep so Drop never waits a full interval to join.
            let mut left = interval;
            while !stop_flag.load(Ordering::Acquire) && !left.is_zero() {
                let step = left.min(Duration::from_millis(20));
                std::thread::sleep(step);
                left -= step;
            }
        }
    });
    HealthChecker {
        stop,
        handle: Some(handle),
    }
}

impl CompletionService for Router {
    fn model(&self) -> &str {
        &self.model
    }

    fn call(&self, prompt: &str, opts: &GenOptions) -> CompletionOutcome {
        self.call_detailed(prompt, opts).outcome
    }

    fn describe(&self, stack: &mut Vec<&'static str>) {
        stack.push("route");
        self.replicas[0].service.describe(stack);
    }
}
