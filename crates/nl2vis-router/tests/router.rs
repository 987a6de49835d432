//! Router behavior: sticky affinity, shard hits, the hedge race (winner
//! selection, loser cancellation, gauge hygiene), failover, 429
//! penalties, ejection/readmission, and the all-ejected error.
//!
//! All assertions read the router's own [`RouterStats`] — never the
//! process-global registry — so concurrently running tests cannot bleed
//! into each other.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nl2vis_router::{ReplicaSpec, Router, RouterConfig};
use nl2vis_service::{
    service_fn, stack_of, validate_stack, CompletionService, GenOptions, TransportError,
    TransportErrorKind,
};

fn opts() -> GenOptions {
    GenOptions::default()
}

/// A config with hedging tuned for fast tests and no active prober.
fn test_config() -> RouterConfig {
    RouterConfig {
        default_hedge_delay: Duration::from_millis(10),
        ..RouterConfig::default()
    }
}

/// Finds a prompt whose ring owner is the replica named `want`.
fn prompt_owned_by(router: &Router, want: &str) -> String {
    for i in 0..10_000 {
        let prompt = format!("Q: question {i}\nVQL:");
        if router.primary_replica(&prompt, &opts()) == want {
            return prompt;
        }
    }
    panic!("no prompt hashed to replica {want}");
}

/// Polls `cond` for up to `deadline`, sleeping between checks.
fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

#[test]
fn same_prompt_sticks_to_one_replica_and_hits_its_shard() {
    let calls_a = Arc::new(AtomicUsize::new(0));
    let calls_b = Arc::new(AtomicUsize::new(0));
    let (ca, cb) = (Arc::clone(&calls_a), Arc::clone(&calls_b));
    let config = RouterConfig {
        shard_capacity: 64,
        hedge: false,
        ..test_config()
    };
    let router = Router::new(
        vec![
            ReplicaSpec::service(
                "a",
                service_fn("gpt-4", move |p, _| {
                    ca.fetch_add(1, Ordering::SeqCst);
                    Ok(format!("a:{p}"))
                }),
            ),
            ReplicaSpec::service(
                "b",
                service_fn("gpt-4", move |p, _| {
                    cb.fetch_add(1, Ordering::SeqCst);
                    Ok(format!("b:{p}"))
                }),
            ),
        ],
        config,
    );
    let prompt = prompt_owned_by(&router, "a");

    let first = router.call_detailed(&prompt, &opts());
    assert_eq!(first.outcome.unwrap(), format!("a:{prompt}"));
    assert_eq!(first.replica, "a");
    assert!(!first.shard_hit);

    for _ in 0..3 {
        let again = router.call_detailed(&prompt, &opts());
        assert_eq!(again.outcome.unwrap(), format!("a:{prompt}"));
        assert!(
            again.shard_hit,
            "repeat of an owned prompt must hit the shard"
        );
        assert_eq!(again.role, "shard");
    }

    let stats = router.stats().snapshot();
    assert_eq!(
        calls_a.load(Ordering::SeqCst),
        1,
        "one wire call, three shard hits"
    );
    assert_eq!(calls_b.load(Ordering::SeqCst), 0, "replica b never touched");
    assert_eq!(stats.shard_hits, 3);
    assert_eq!(stats.requests, 4);
}

#[test]
fn hedge_fires_at_the_delay_and_a_faster_secondary_wins() {
    let router = Router::new(
        vec![
            ReplicaSpec::service(
                "slow",
                service_fn("gpt-4", |_, _| {
                    std::thread::sleep(Duration::from_millis(150));
                    Ok("slow answer".to_string())
                }),
            ),
            ReplicaSpec::service(
                "fast",
                service_fn("gpt-4", |_, _| Ok("fast answer".to_string())),
            ),
        ],
        test_config(),
    );
    let prompt = prompt_owned_by(&router, "slow");

    let started = Instant::now();
    let call = router.call_detailed(&prompt, &opts());
    let elapsed = started.elapsed();

    assert_eq!(call.outcome.unwrap(), "fast answer");
    assert_eq!(call.replica, "fast");
    assert_eq!(call.role, "hedge");
    assert!(call.hedged);
    assert!(
        elapsed < Duration::from_millis(120),
        "the hedge must answer well before the stalled primary ({elapsed:?})"
    );
    let stats = router.stats().snapshot();
    assert_eq!(stats.hedges_fired, 1);
    assert_eq!(stats.hedge_wins, 1);
    assert_eq!(stats.primary_wins, 0);
}

#[test]
fn errored_hedge_never_masks_a_successful_primary() {
    let router = Router::new(
        vec![
            ReplicaSpec::service(
                "steady",
                service_fn("gpt-4", |_, _| {
                    std::thread::sleep(Duration::from_millis(60));
                    Ok("primary answer".to_string())
                }),
            ),
            ReplicaSpec::service(
                "broken",
                service_fn("gpt-4", |_, _| {
                    Err(TransportError::new(
                        TransportErrorKind::Connect,
                        1,
                        "connection refused",
                    ))
                }),
            ),
        ],
        test_config(),
    );
    let prompt = prompt_owned_by(&router, "steady");

    let call = router.call_detailed(&prompt, &opts());
    assert_eq!(
        call.outcome.unwrap(),
        "primary answer",
        "the hedge's error must not preempt the primary's success"
    );
    assert_eq!(call.role, "primary");
    let stats = router.stats().snapshot();
    assert_eq!(stats.hedges_fired, 1, "the hedge did fire");
    assert_eq!(stats.hedge_wins, 0);
    assert_eq!(stats.primary_wins, 1);
}

#[test]
fn losing_attempt_is_discarded_and_inflight_settles_to_zero() {
    let router = Arc::new(Router::new(
        vec![
            ReplicaSpec::service(
                "laggard",
                service_fn("gpt-4", |_, _| {
                    std::thread::sleep(Duration::from_millis(120));
                    Ok("late loser".to_string())
                }),
            ),
            ReplicaSpec::service(
                "sprinter",
                service_fn("gpt-4", |_, _| Ok("winner".to_string())),
            ),
        ],
        test_config(),
    ));
    let prompt = prompt_owned_by(&router, "laggard");

    let call = router.call_detailed(&prompt, &opts());
    assert_eq!(
        call.outcome.unwrap(),
        "winner",
        "loser's text must be discarded"
    );

    // The losing primary is still running when the call returns; its
    // guard must decrement the gauge exactly once when it drains.
    assert!(
        wait_until(Duration::from_secs(2), || router.stats().inflight() == 0),
        "in-flight gauge stuck at {} after the loser drained",
        router.stats().inflight()
    );
    // A second, un-hedged request leaves the gauge balanced too — a
    // double decrement by the first race would show up as -1 here.
    let call = router.call_detailed(&prompt, &opts());
    assert!(call.outcome.is_ok());
    assert!(wait_until(Duration::from_secs(2), || {
        router.stats().inflight() == 0
    }));
    assert_eq!(router.stats().inflight(), 0, "gauge must never go negative");
}

#[test]
fn fast_primary_error_fails_over_without_waiting_for_the_hedge_timer() {
    let config = RouterConfig {
        // A timer far above the test budget: only error-failover can win.
        default_hedge_delay: Duration::from_millis(500),
        ..RouterConfig::default()
    };
    let router = Router::new(
        vec![
            ReplicaSpec::service(
                "down",
                service_fn("gpt-4", |_, _| {
                    Err(TransportError::new(
                        TransportErrorKind::Connect,
                        1,
                        "connection refused",
                    ))
                }),
            ),
            ReplicaSpec::service("up", service_fn("gpt-4", |_, _| Ok("backup".to_string()))),
        ],
        config,
    );
    let prompt = prompt_owned_by(&router, "down");

    let started = Instant::now();
    let call = router.call_detailed(&prompt, &opts());
    assert_eq!(call.outcome.unwrap(), "backup");
    assert_eq!(call.role, "failover");
    assert!(!call.hedged, "failover is not a latency hedge");
    assert!(
        started.elapsed() < Duration::from_millis(300),
        "failover must not wait out the hedge timer"
    );
    let stats = router.stats().snapshot();
    assert_eq!(stats.failovers, 1);
    assert_eq!(stats.hedges_fired, 0);
}

#[test]
fn retry_after_penalty_routes_the_key_around_the_replica() {
    let config = RouterConfig {
        hedge: false,
        ..test_config()
    };
    let router = Router::new(
        vec![
            ReplicaSpec::service(
                "overloaded",
                service_fn("gpt-4", |_, _| {
                    let mut e = TransportError::new(TransportErrorKind::Status(429), 1, "shed");
                    e.retry_after = Some(Duration::from_secs(10));
                    Err(e)
                }),
            ),
            ReplicaSpec::service("calm", service_fn("gpt-4", |_, _| Ok("served".to_string()))),
        ],
        config,
    );
    let prompt = prompt_owned_by(&router, "overloaded");

    // First call pays the 429 and fails over; the Retry-After opens a
    // 10-second penalty window on the owner.
    let first = router.call_detailed(&prompt, &opts());
    assert_eq!(first.outcome.unwrap(), "served");
    assert_eq!(first.role, "failover");

    // Inside the window the owner is skipped outright: the next replica
    // is the *primary* candidate now, no failover needed.
    let second = router.call_detailed(&prompt, &opts());
    assert_eq!(second.outcome.unwrap(), "served");
    assert_eq!(second.replica, "calm");
    assert_eq!(second.role, "primary");

    let stats = router.stats().snapshot();
    assert_eq!(stats.penalties, 1);
    assert_eq!(stats.failovers, 1, "only the discovering call failed over");
    assert!(stats.penalty_deferrals >= 1);
}

#[test]
fn all_replicas_ejected_is_a_typed_error_not_a_hang() {
    let config = RouterConfig {
        eject_after: 1,
        hedge: false,
        ..test_config()
    };
    let router = Router::new(
        vec![
            ReplicaSpec::service(
                "dead-1",
                service_fn("gpt-4", |_, _| {
                    Err(TransportError::new(
                        TransportErrorKind::Connect,
                        1,
                        "refused",
                    ))
                }),
            ),
            ReplicaSpec::service(
                "dead-2",
                service_fn("gpt-4", |_, _| {
                    Err(TransportError::new(
                        TransportErrorKind::Connect,
                        1,
                        "refused",
                    ))
                }),
            ),
        ],
        config,
    );

    // The discovering call ejects both replicas (primary + failover).
    let first = router.call_detailed("Q: q0\nVQL:", &opts());
    assert!(first.outcome.is_err());
    assert!(wait_until(Duration::from_secs(2), || {
        router.stats().snapshot().ejections == 2
    }));

    let started = Instant::now();
    let second = router.call_detailed("Q: q1\nVQL:", &opts());
    let err = second.outcome.unwrap_err();
    assert_eq!(err.kind, TransportErrorKind::Connect);
    assert!(
        err.message.contains("ejected"),
        "error must name the condition: {}",
        err.message
    );
    assert!(
        started.elapsed() < Duration::from_millis(500),
        "an all-ejected router must answer immediately, not hang"
    );
    assert_eq!(router.stats().snapshot().all_ejected, 1);
}

#[test]
fn without_probes_ejection_is_sticky_even_after_the_backend_recovers() {
    // The replica recovers mid-test, but with no active prober nothing
    // re-tests it: the router keeps answering the typed all-ejected error
    // instead of silently probing with live traffic. (Deployments that
    // want automatic readmission configure `health_interval`.)
    let broken = Arc::new(AtomicBool::new(true));
    let flag = Arc::clone(&broken);
    let config = RouterConfig {
        eject_after: 1,
        hedge: false,
        ..test_config()
    };
    let router = Router::new(
        vec![ReplicaSpec::service(
            "solo",
            service_fn("gpt-4", move |_, _| {
                if flag.load(Ordering::SeqCst) {
                    Err(TransportError::new(TransportErrorKind::Timeout, 1, "stall"))
                } else {
                    Ok("back".to_string())
                }
            }),
        )],
        config,
    );

    assert!(router.call_detailed("Q: a\nVQL:", &opts()).outcome.is_err());
    assert!(wait_until(Duration::from_secs(2), || {
        router.stats().snapshot().ejections == 1
    }));

    broken.store(false, Ordering::SeqCst);
    let after_recovery = router.call_detailed("Q: b\nVQL:", &opts());
    let err = after_recovery.outcome.unwrap_err();
    assert!(err.message.contains("ejected"), "{}", err.message);
    assert!(router.stats().snapshot().all_ejected >= 1);
}

#[test]
fn health_probes_eject_and_readmit_a_replica() {
    use std::io::{Read, Write};

    // A raw /healthz endpoint whose status is switchable at runtime.
    let healthy = Arc::new(AtomicBool::new(true));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let health_addr = listener.local_addr().unwrap();
    let flag = Arc::clone(&healthy);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            let mut buf = [0u8; 512];
            let _ = stream.read(&mut buf);
            let status = if flag.load(Ordering::SeqCst) {
                "HTTP/1.1 200 OK"
            } else {
                "HTTP/1.1 503 Service Unavailable"
            };
            let _ = write!(
                stream,
                "{status}\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
            );
        }
    });

    let config = RouterConfig {
        hedge: false,
        eject_after: 2,
        health_interval: Some(Duration::from_millis(25)),
        ..RouterConfig::default()
    };
    let router = Router::new(
        vec![
            ReplicaSpec::service(
                "probed",
                service_fn("gpt-4", |_, _| Ok("from probed".to_string())),
            )
            .with_health_addr(health_addr),
            ReplicaSpec::service(
                "other",
                service_fn("gpt-4", |_, _| Ok("from other".to_string())),
            ),
        ],
        config,
    );
    let prompt = prompt_owned_by(&router, "probed");
    assert_eq!(
        router.call_detailed(&prompt, &opts()).replica,
        "probed",
        "healthy replica serves its own keyspace"
    );

    healthy.store(false, Ordering::SeqCst);
    assert!(
        wait_until(Duration::from_secs(3), || {
            router.stats().snapshot().ejections >= 1
        }),
        "failed probes must eject the replica"
    );
    assert_eq!(
        router.call_detailed(&prompt, &opts()).replica,
        "other",
        "ejected replica's keyspace moves to the next ring candidate"
    );

    healthy.store(true, Ordering::SeqCst);
    assert!(
        wait_until(Duration::from_secs(3), || {
            router.stats().snapshot().readmissions >= 1
        }),
        "healthy probes must readmit the replica"
    );
    assert_eq!(
        router.call_detailed(&prompt, &opts()).replica,
        "probed",
        "readmitted replica gets its keyspace (and warm shard) back"
    );
}

#[test]
fn router_composes_under_the_stack_contract() {
    let router = Router::new(
        vec![
            ReplicaSpec::service(
                "replica-0",
                service_fn("gpt-4", |_, _| Ok("inner".to_string())),
            ),
            ReplicaSpec::service("peer", service_fn("gpt-4", |_, _| Ok("peer".to_string()))),
        ],
        RouterConfig {
            hedge: false,
            ..test_config()
        },
    );

    assert_eq!(router.model(), "gpt-4");
    assert_eq!(router.replica_count(), 2);
    let stack = stack_of(&router);
    assert_eq!(stack, vec!["route", "fn"]);
    validate_stack(&stack).unwrap();
    // The canonical full ordering stays legal with route innermost-but-leaf.
    validate_stack(&["trace", "metrics", "cache", "retry", "route", "http"]).unwrap();

    assert!(router.call("Q: x\nVQL:", &opts()).is_ok());
}
