//! Per-replica state: the wrapped service, health/penalty bookkeeping, a
//! sliding latency histogram (feeding the hedge trigger), and an optional
//! completion-cache shard modelling the warmth consistent hashing is
//! trying to preserve.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use nl2vis_cache::CompletionCache;
use nl2vis_obs::window::{WindowConfig, WindowedHistogram};
use nl2vis_service::{CompletionService, GenOptions};

use crate::router::RouterConfig;

/// Consecutive transport failures, or consecutive failed probes, that
/// eject a replica.
const EJECT_AFTER: u32 = 3;

/// Latency samples a replica needs before its windowed p95 drives the
/// hedge trigger.
const HEDGE_MIN_SAMPLES: u64 = 20;

/// Upper clamp of the adaptive hedge trigger.
const HEDGE_DELAY_CEILING: Duration = Duration::from_millis(500);

/// Connect/read deadline for one `/healthz` probe.
const PROBE_TIMEOUT: Duration = Duration::from_millis(200);

/// A dynamic service object — any leaf or stack the router can fan out to.
pub type SharedService = Arc<dyn CompletionService + Send + Sync>;

/// The public description of one replica, consumed by
/// [`crate::Router::new`].
#[derive(Clone)]
pub struct ReplicaSpec {
    pub(crate) id: String,
    pub(crate) service: SharedService,
    pub(crate) health_addr: Option<SocketAddr>,
}

impl ReplicaSpec {
    /// A replica backed by an arbitrary service (tests use `service_fn`
    /// leaves; production embeds whole per-replica stacks).
    pub fn service(
        id: impl Into<String>,
        service: impl CompletionService + Send + Sync + 'static,
    ) -> ReplicaSpec {
        ReplicaSpec {
            id: id.into(),
            service: Arc::new(service),
            health_addr: None,
        }
    }

    /// A replica over an already-shared service object.
    pub fn shared(id: impl Into<String>, service: SharedService) -> ReplicaSpec {
        ReplicaSpec {
            id: id.into(),
            service,
            health_addr: None,
        }
    }

    /// Points the active health checker at `addr`'s `/healthz` endpoint.
    /// Without one, the replica is ejected and readmitted passively (by
    /// observed transport failures and successes).
    pub fn with_health_addr(mut self, addr: SocketAddr) -> ReplicaSpec {
        self.health_addr = Some(addr);
        self
    }
}

/// Live router-side state for one replica.
pub(crate) struct Replica {
    pub(crate) id: String,
    pub(crate) service: SharedService,
    pub(crate) health_addr: Option<SocketAddr>,
    /// Client-side shard of completions this replica served; present when
    /// [`RouterConfig::shard_capacity`] > 0.
    pub(crate) shard: Option<CompletionCache>,
    /// Sliding attempt-latency window; its p95 is the hedge trigger.
    pub(crate) latency: WindowedHistogram,
    ejected: AtomicBool,
    /// Consecutive transport failures feeding passive ejection.
    consecutive_failures: AtomicU32,
    /// Consecutive failed `/healthz` probes feeding active ejection.
    probe_failures: AtomicU32,
    /// 429 `Retry-After` deadline, as microseconds since the router epoch
    /// (0 = no penalty). Stored relative so it fits an atomic.
    penalty_until_us: AtomicU64,
}

impl Replica {
    pub(crate) fn new(spec: ReplicaSpec, config: &RouterConfig) -> Replica {
        Replica {
            id: spec.id,
            service: spec.service,
            health_addr: spec.health_addr,
            shard: (config.shard_capacity > 0)
                .then(|| CompletionCache::in_memory(config.shard_capacity)),
            latency: WindowedHistogram::new(WindowConfig::default()),
            ejected: AtomicBool::new(false),
            consecutive_failures: AtomicU32::new(0),
            probe_failures: AtomicU32::new(0),
            penalty_until_us: AtomicU64::new(0),
        }
    }

    pub(crate) fn is_ejected(&self) -> bool {
        self.ejected.load(Ordering::Acquire)
    }

    /// True while a 429 `Retry-After` window is open.
    pub(crate) fn is_penalized(&self, now_us: u64) -> bool {
        self.penalty_until_us.load(Ordering::Acquire) > now_us
    }

    /// Opens (or extends) the penalty window.
    pub(crate) fn penalize_until(&self, deadline_us: u64) {
        self.penalty_until_us
            .fetch_max(deadline_us, Ordering::AcqRel);
    }

    /// Records a served request: clears the failure streak and readmits a
    /// passively-ejected replica. Returns true when this readmitted it.
    pub(crate) fn note_success(&self) -> bool {
        self.consecutive_failures.store(0, Ordering::Release);
        self.ejected.swap(false, Ordering::AcqRel)
    }

    /// Records a transport-level failure (timeout/connect/closed/io — not
    /// an HTTP status, which proves the replica is up). Returns true when
    /// the failure streak just reached [`EJECT_AFTER`] and ejected it.
    pub(crate) fn note_transport_failure(&self) -> bool {
        let streak = self.consecutive_failures.fetch_add(1, Ordering::AcqRel) + 1;
        if streak >= EJECT_AFTER {
            !self.ejected.swap(true, Ordering::AcqRel)
        } else {
            false
        }
    }

    /// Records one active `/healthz` probe result. Returns
    /// `Some(true)` when the probe readmitted the replica, `Some(false)`
    /// when it ejected it, `None` when nothing changed.
    pub(crate) fn note_probe(&self, healthy: bool) -> Option<bool> {
        if healthy {
            self.probe_failures.store(0, Ordering::Release);
            self.consecutive_failures.store(0, Ordering::Release);
            self.ejected.swap(false, Ordering::AcqRel).then_some(true)
        } else {
            let streak = self.probe_failures.fetch_add(1, Ordering::AcqRel) + 1;
            if streak >= EJECT_AFTER && !self.ejected.swap(true, Ordering::AcqRel) {
                Some(false)
            } else {
                None
            }
        }
    }

    /// How long to wait for this replica before hedging: its windowed p95
    /// once [`HEDGE_MIN_SAMPLES`] exist, at most [`HEDGE_DELAY_CEILING`]
    /// and at least `floor` (the floor wins where the two cross, so no
    /// caller's floor can make this panic); `initial` until then.
    pub(crate) fn hedge_delay(&self, initial: Duration, floor: Duration) -> Duration {
        let window = self.latency.snapshot();
        if window.count >= HEDGE_MIN_SAMPLES {
            Duration::from_micros(window.quantile(0.95) as u64)
                .min(HEDGE_DELAY_CEILING)
                .max(floor)
        } else {
            initial
        }
    }

    pub(crate) fn call(
        &self,
        prompt: &str,
        opts: &GenOptions,
    ) -> nl2vis_service::CompletionOutcome {
        self.service.call(prompt, opts)
    }
}

/// One blocking `GET /healthz` against `addr`; healthy iff it answers 200
/// within [`PROBE_TIMEOUT`]. The GET is `Connection: close`, so probe
/// sockets never linger in the replica's keep-alive table.
pub(crate) fn probe_healthz(addr: SocketAddr) -> bool {
    nl2vis_llm::wire::get(addr, "/healthz", PROBE_TIMEOUT).is_ok_and(|(status, _)| status == 200)
}
