//! `fleet`: the multi-process fleet demo and smoke harness.
//!
//! Two subcommands, designed so a shell script can stand up a real
//! multi-process fleet — separate recorders, separate registries,
//! colliding span-id counters — and exercise the observability plane
//! end to end:
//!
//! ```text
//! fleet serve [--stall-ms=N] [--seed=N]
//!     One completion-server replica on an ephemeral port with its own
//!     registry and flight recorder. Prints `listening <addr>` and parks.
//!     `--stall-ms` injects a fixed service-time stall (a slow replica,
//!     to force hedging).
//!
//! fleet observe --replicas=HOST:PORT,HOST:PORT [--hedge-ms=N]
//!               [--requests=N]
//!     A router over the given replicas plus a FleetObserver/FleetServer.
//!     Drives `--requests` warmup calls, then one request whose ring
//!     owner is the FIRST replica (start that one with `--stall-ms` so
//!     the hedge fires and the trace spans two server processes). Prints
//!     `fleet listening <addr>` and `hedged_trace <id>`, then parks so
//!     the caller can probe `/fleet/*`.
//! ```

use std::sync::Arc;
use std::time::Duration;

use nl2vis_llm::fault::FaultInjector;
use nl2vis_llm::http::{CompletionServer, ServerConfig};
use nl2vis_llm::profile::ModelProfile;
use nl2vis_llm::sim::SimLlm;
use nl2vis_obs::recorder::{self, FlightRecorder};
use nl2vis_obs::{MetricsRegistry, Span};
use nl2vis_router::{FleetObserver, FleetServer, Router, RouterConfig};
use nl2vis_service::GenOptions;

fn flag_u64(args: &[String], key: &str, default: u64) -> u64 {
    args.iter()
        .find_map(|a| a.strip_prefix(&format!("--{key}=")))
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| die(&format!("--{key} must be an integer")))
        })
        .unwrap_or(default)
}

fn flag_str<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .find_map(|a| a.strip_prefix(&format!("--{key}=")))
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: fleet serve [--stall-ms=N] [--seed=N]\n       \
         fleet observe --replicas=H:P,H:P [--hedge-ms=N] [--requests=N]"
    );
    std::process::exit(2)
}

fn park() -> ! {
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("observe") => observe(&args[1..]),
        _ => die("first argument must be `serve` or `observe`"),
    }
}

fn serve(args: &[String]) -> ! {
    let stall_ms = flag_u64(args, "stall-ms", 0);
    let seed = flag_u64(args, "seed", 9);
    recorder::install(Arc::new(FlightRecorder::new(256)));
    let faults = if stall_ms > 0 {
        FaultInjector::random(seed, 0.0, 0.0, 1.0, Duration::from_millis(stall_ms))
    } else {
        FaultInjector::none()
    };
    let server = CompletionServer::start_with_service_config(
        SimLlm::new(ModelProfile::gpt_4(), seed),
        Arc::new(MetricsRegistry::new()),
        faults,
        ServerConfig::default(),
    )
    .unwrap_or_else(|e| die(&format!("server failed to start: {e}")));
    // The caller reads this line to learn the ephemeral port.
    println!("listening {}", server.address());
    park()
}

fn observe(args: &[String]) -> ! {
    let replicas: Vec<std::net::SocketAddr> = flag_str(args, "replicas")
        .unwrap_or_else(|| die("observe requires --replicas=H:P,H:P"))
        .split(',')
        .map(|a| {
            a.trim()
                .parse()
                .unwrap_or_else(|_| die(&format!("bad replica address `{a}`")))
        })
        .collect();
    if replicas.is_empty() {
        die("--replicas must name at least one replica");
    }
    let hedge_ms = flag_u64(args, "hedge-ms", 15);
    let requests = flag_u64(args, "requests", 6);

    recorder::install(Arc::new(FlightRecorder::new(256)));
    let router = Router::over_http(
        &replicas,
        "gpt-4",
        RouterConfig {
            hedge_delay: Some(Duration::from_millis(hedge_ms)),
            ..RouterConfig::default()
        },
    );
    let observer = FleetObserver::new(&replicas);
    let fleet = FleetServer::start(Arc::clone(&observer))
        .unwrap_or_else(|e| die(&format!("fleet server failed to start: {e}")));
    println!("fleet listening {}", fleet.address());

    let opts = GenOptions::default();
    let prompt_for = |i: u64| {
        format!("-- Test:\n-- Database:\nDatabase: d\nt = [ a , b ]\nQ: question {i}\nVQL:")
    };
    for i in 0..requests {
        let call = router.call_detailed(&prompt_for(i), &opts);
        if let Err(e) = call.outcome {
            eprintln!("warmup request {i} failed: {e:?}");
        }
    }

    // A prompt owned by the first replica — the one the harness started
    // slow — so the router hedges and the trace spans two processes.
    let slow_id = replicas[0].to_string();
    let hedged_prompt = (0..10_000)
        .map(prompt_for)
        .find(|p| router.primary_replica(p, &opts) == slow_id)
        .unwrap_or_else(|| die("no prompt hashed to the first replica"));
    let root = Span::enter_root("client.request");
    let trace_id = nl2vis_obs::current_context()
        .map(|c| c.trace_id)
        .unwrap_or_else(|| die("no trace context under the client root span"));
    let call = router.call_detailed(&hedged_prompt, &opts);
    if let Err(e) = call.outcome {
        die(&format!("hedged request failed: {e:?}"));
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while router.stats().inflight() != 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(root);

    observer.poll_once();
    println!("hedged {}", call.hedged);
    println!("hedged_trace {trace_id}");
    park()
}
