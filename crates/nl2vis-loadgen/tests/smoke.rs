//! Sustained-load smoke tests: bounded observability memory, windowed vs
//! cumulative convergence, and the coordinated-omission correction being
//! real (not just two names for the same number).
//!
//! Scaled for a small CI box: a couple of seconds of closed-loop traffic
//! is still thousands of requests. The tests run one at a time, so each
//! one's throughput floor measures its own run, not its neighbours'.

use nl2vis_data::Json;
use nl2vis_loadgen::{run_load, Arrival, LoadConfig};
use nl2vis_obs as obs;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Every test here starts its own server and load generator and asserts
/// throughput floors. Run side by side they share the same few cores and
/// starve each other below those floors, so each test holds this lock for
/// its whole run. Poisoning is irrelevant — the lock only serializes.
fn one_load_run_at_a_time() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn quick(threads: usize, arrival: Arrival) -> LoadConfig {
    LoadConfig {
        threads: vec![threads],
        duration: Duration::from_millis(1500),
        warmup: Duration::from_millis(300),
        arrival,
        prompts: 64,
        cache_capacity: 0,
        service_ms: 0,
        report: Duration::ZERO,
        out: String::new(),
        ..LoadConfig::default()
    }
}

/// The flagship bounded-memory test: a multi-thousand-request run with a
/// small flight recorder installed must respect every ring bound (stored
/// traces, active map) while the windowed view converges on the
/// cumulative one. One test owns the global recorder — parallel tests
/// must not install their own.
#[test]
fn sustained_load_keeps_observability_memory_bounded() {
    let _serial = one_load_run_at_a_time();
    let recorder = Arc::new(obs::FlightRecorder::new(64));
    obs::recorder::install(Arc::clone(&recorder));

    // 3 s closed-loop: thousands of requests in release, comfortably
    // over a thousand even in a contended debug run on one core.
    let mut config = quick(4, Arrival::Closed);
    config.duration = Duration::from_millis(3000);
    let (json, runs) = run_load(&config).expect("load run");
    obs::recorder::disable();

    let run = &runs[0];
    assert!(
        run.ok > 800,
        "expected a multi-hundred-to-thousand-request run, got {} ok ({} errors)",
        run.ok,
        run.errors
    );
    assert_eq!(run.errors, 0, "closed-loop run must not error");

    // Ring bound: stored traces never exceed capacity no matter how many
    // thousands of requests flowed through.
    assert!(
        recorder.len() <= 64,
        "recorder stored {} traces, capacity 64",
        recorder.len()
    );
    // Active-map bound: in-flight traces are capped at capacity*4; after
    // the run drained there should be almost nothing in flight at all.
    assert!(
        recorder.active_len() <= 256,
        "active map grew to {}",
        recorder.active_len()
    );
    let stats = recorder.stats();
    assert!(
        stats.finalized > 800,
        "server spans must have flowed through the recorder: {stats:?}"
    );

    // Windowed p99 converges on cumulative p99 on a steady workload: the
    // server's own /stats snapshot carries both views of the same
    // histogram name.
    let server_stats = run.server_stats.as_ref().expect("server /stats snapshot");
    let latency = server_stats.get("latency_us").expect("latency_us");
    let window_p99 = latency
        .get("window")
        .and_then(|w| w.get("p99_us"))
        .and_then(Json::as_f64)
        .expect("window p99");
    let cumulative_p99 = latency
        .get("cumulative")
        .and_then(|c| c.get("p99_us"))
        .and_then(Json::as_f64)
        .expect("cumulative p99");
    assert!(window_p99 > 0.0 && cumulative_p99 > 0.0);
    let ratio = window_p99 / cumulative_p99;
    assert!(
        (0.2..=5.0).contains(&ratio),
        "windowed p99 {window_p99} vs cumulative {cumulative_p99} diverged (ratio {ratio:.2})"
    );

    // The emitted document carries the run.
    let runs_json = json.get("runs").and_then(Json::as_array).unwrap();
    assert_eq!(runs_json.len(), 1);
    assert!(
        runs_json[0]
            .get("latency_ms")
            .and_then(|l| l.get("e2e_corrected"))
            .is_some(),
        "{}",
        json.to_pretty()
    );
}

/// Coordinated-omission correction must *matter*: drive an open loop at a
/// rate the (deliberately tiny) server cannot sustain and the corrected
/// p99 must dwarf the uncorrected one, because uncorrected latency only
/// measures the requests the generator got around to sending.
#[test]
fn correction_diverges_from_uncorrected_at_saturation() {
    let _serial = one_load_run_at_a_time();
    let mut config = quick(4, Arrival::Open { rps: 400.0 });
    // ~2 workers x 8ms service = ~250 rps capacity, under the 400 target.
    config.service_ms = 8;
    config.server_workers = 2;
    let (_, runs) = run_load(&config).expect("load run");
    let run = &runs[0];
    assert!(run.ok > 100, "saturated run still completes requests");
    let corrected = run.e2e_corrected.p99;
    let uncorrected = run.e2e_uncorrected.p99;
    assert!(
        corrected > 1.5 * uncorrected,
        "corrected p99 {corrected} must exceed uncorrected {uncorrected} at saturation"
    );
    // The queue phase is where the correction lives: scheduling delay
    // accounts for the gap.
    assert!(run.queue.p99 > 0.0, "queue phase must have recorded delay");
}

/// A routed 2-replica fleet: prompt affinity keeps the hot Zipf ranks
/// hitting the per-replica cache shards, the heavy tail makes hedges
/// fire, and the emitted run row carries the topology and router stats.
#[test]
fn routed_fleet_keeps_shard_hits_and_hedges_the_tail() {
    let _serial = one_load_run_at_a_time();
    let mut config = quick(4, Arrival::Closed);
    config.replicas = 2;
    config.cache_capacity = 256;
    config.service_ms = 2;
    config.tail_prob = 0.05;
    config.tail_ms = 60;
    config.hedge_ms = 10;
    config.duration = Duration::from_millis(2000);
    let (json, runs) = run_load(&config).expect("load run");
    let run = &runs[0];
    assert_eq!(run.replicas, 2);
    assert!(run.ok > 100, "routed run too small: {} ok", run.ok);
    assert_eq!(run.errors, 0, "routed closed-loop run must not error");
    let router = run.router.as_ref().expect("router stats on routed runs");
    assert!(
        router.shard_hits > 0 && run.cache_hit_rate() > 0.3,
        "zipf hot ranks must hit the replica shards: {} hits, rate {:.2}",
        router.shard_hits,
        run.cache_hit_rate()
    );
    assert!(
        router.hedges_fired > 0,
        "a 5% 60ms tail over a 10ms hedge delay must fire hedges"
    );
    let row = json.get("runs").and_then(|r| r.at(0)).expect("run row");
    assert_eq!(row.get("replicas").and_then(Json::as_f64), Some(2.0));
    assert!(
        row.get("router")
            .and_then(|r| r.get("hedges_fired"))
            .and_then(Json::as_f64)
            .is_some_and(|n| n >= 1.0),
        "{}",
        row.to_pretty()
    );
}

/// Zipf skew + the client-side completion cache: hot ranks answer locally,
/// so the hit rate is substantial and cache hits count as completions.
#[test]
fn zipf_skew_drives_cache_hits() {
    let _serial = one_load_run_at_a_time();
    let mut config = quick(2, Arrival::Closed);
    config.cache_capacity = 256;
    config.duration = Duration::from_millis(1000);
    let (json, runs) = run_load(&config).expect("load run");
    let run = &runs[0];
    assert!(run.ok > 200, "run too small to judge: {} ok", run.ok);
    assert!(
        run.cache_hit_rate() > 0.5,
        "zipf:1.1 over 64 prompts should mostly hit a 256-entry cache, got {:.2}",
        run.cache_hit_rate()
    );
    let rate = json
        .get("runs")
        .and_then(|r| r.at(0))
        .and_then(|r| r.get("cache_hit_rate"))
        .and_then(Json::as_f64)
        .unwrap();
    assert!((rate - run.cache_hit_rate()).abs() < 1e-9);
}
