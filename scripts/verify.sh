#!/usr/bin/env bash
# Local verification gate: the tier-1 checks plus formatting and lints.
#
#   scripts/verify.sh            # run everything available
#
# Steps that need a missing toolchain component (rustfmt, clippy) are
# skipped with a notice instead of failing, so the script is useful both
# in full dev environments and in minimal/offline containers. Each step
# reports its wall-clock so a slow step is visible at a glance.
set -u

cd "$(dirname "$0")/.."

failures=0
run() {
    local name="$1"
    shift
    echo "==> ${name}"
    local started elapsed
    started=$(date +%s)
    if "$@"; then
        elapsed=$(( $(date +%s) - started ))
        echo "==> ${name}: ok (${elapsed}s)"
    else
        elapsed=$(( $(date +%s) - started ))
        echo "==> ${name}: FAILED (${elapsed}s)"
        failures=$((failures + 1))
    fi
    echo
}

# Tier 1: the repo must build and the whole workspace's tests must pass —
# every crate's unit and integration suites (fault injection, keep-alive,
# the serving cache, the server runtime, layering, tracing, the router
# and fleet planes), not only the root package's.
run "cargo build --release" cargo build --release
run "cargo test --workspace" cargo test -q --workspace

# Scan mode: the workspace suites link nl2vis-llm with its default
# `epoll` feature. Without it the event core runs on the portable
# nonblocking scan poller, the only poller on non-Linux targets; this
# step runs nl2vis-llm's own suites over that build.
run "cargo test nl2vis-llm (scan poller)" cargo test -q -p nl2vis-llm --no-default-features

# Paper-sized index checks, the two users of `text::WordIndex`: the
# `DemoPool` selectors must pick exactly what the tokenize-per-call
# selectors pick for every in-domain test question of the default corpus,
# and `RetrievalIndex::best` must return the linear scan's entry and score
# bits for every test question of the in-domain and cross-domain splits
# of two seeds, in all three token modes. `#[ignore]`d in the debug suites
# for their cost. On a 2-vCPU VM the two tests take about 35 s once built
# (the selector check about 22 s, its probes split over two threads; the
# retrieval check about 13 s), plus their release build.
run "cargo test nl2vis-prompt nl2vis-baselines (paper-sized, release)" \
    cargo test -q --release -p nl2vis-prompt -p nl2vis-baselines -- --ignored

# Pinned benchmark: `benchmark/` is a standalone package (not a workspace
# member) that must build unchanged against the crates' public APIs. Its
# smoke test runs every workload for 1 s, untraced and traced, and checks
# `correct:true` and the metric set `BENCHMARK.json` names.
run "benchmark smoke" cargo test -q --release --offline --manifest-path benchmark/Cargo.toml

# Experiments smoke: the `transport` experiment end to end (its fault
# plan and retry budget, a clean and a faulty eval over HTTP), run from a
# fresh temporary directory so no results file in the repository can be
# overwritten.
experiments_smoke() {
    local repo tmp status
    repo=$(pwd)
    tmp=$(mktemp -d) || return 1
    (cd "$tmp" && cargo run -q --manifest-path "$repo/Cargo.toml" -p nl2vis-bench \
        --release --bin experiments -- transport --fast)
    status=$?
    rm -rf "$tmp"
    return "$status"
}
run "experiments smoke (transport)" experiments_smoke

# Sustained-load smoke: a short reduced-thread loadgen run against a
# self-hosted server (open loop, coordinated-omission corrected). Kept
# under ~10 s; writes its snapshot under target/ so it never clobbers a
# committed trajectory file.
run "loadgen smoke" cargo run -q -p nl2vis-loadgen --release -- \
    --threads=4 --duration=3 --warmup=1 --rate=open:300 \
    --prompts=64 --report=0 --out=target/BENCH_load_smoke.json

# High-connection smoke: 256 closed-loop keep-alive clients for 3 s. The
# event-driven core must hold hundreds of sockets on a handful of
# serving threads, and the Zipf-skewed prompt keys drive the batching
# path. Kept under ~10 s like the open-loop smoke.
run "loadgen smoke (256 conns)" cargo run -q -p nl2vis-loadgen --release -- \
    --threads=256 --duration=3 --warmup=1 --rate=closed \
    --prompts=64 --report=0 --out=target/BENCH_load_smoke_256.json

# Router smoke: 16 clients through the prompt-affinity router over a
# 2-replica self-hosted fleet, with a 5% 40ms heavy tail so hedges
# demonstrably fire. Asserts the run completed clean, the shards
# answered, and at least one hedge fired.
run "loadgen smoke (2-replica router)" cargo run -q -p nl2vis-loadgen --release -- \
    --threads=16 --duration=3 --warmup=1 --rate=closed \
    --prompts=256 --cache=256 --service-ms=2 --tail=0.05:40 \
    --replicas=2 --hedge-ms=10 --report=0 --out=target/BENCH_load_smoke_router.json
if [ -f target/BENCH_load_smoke_router.json ]; then
    run "router smoke assertions" python3 - <<'EOF'
import json, sys
doc = json.load(open("target/BENCH_load_smoke_router.json"))
run = doc["runs"][0]
router = run.get("router")
ok = True
def check(cond, msg):
    global ok
    print(("ok  " if cond else "FAIL") + " " + msg)
    ok = ok and cond
check(run["replicas"] == 2, "run routed over 2 replicas")
check(run["errors"] == 0, "no transport errors through the router")
check(router is not None, "router stats recorded in the snapshot")
if router:
    check(router["shard_hits"] > 0, "replica cache shards answered hits")
    check(router["hedges_fired"] > 0,
          "hedges fired against the injected tail (got %d)" % router["hedges_fired"])
sys.exit(0 if ok else 1)
EOF
fi

# Fleet plane (multi-process): two REAL server processes — separate
# flight recorders, separate registries, colliding span-id counters —
# behind the fleet observer. Asserts /fleet/metrics is a mergeable
# snapshot whose request count is the exact per-replica sum, /fleet/stats
# carries that same sum and SLO burn rates, every /fleet/stats replica row
# is a /stats body, and the hedged request's /fleet/trace/<id> stitches
# spans from at least two server processes, each source with its outcome.
fleet_smoke() {
    cargo build -q --release -p nl2vis-router --bin fleet || return 1
    local bin=target/release/fleet
    local tmp
    tmp=$(mktemp -d) || return 1
    "$bin" serve --stall-ms=80 > "$tmp/slow.log" 2>&1 &
    local slow_pid=$!
    "$bin" serve > "$tmp/fast.log" 2>&1 &
    local fast_pid=$!
    local i
    for i in $(seq 50); do
        grep -q listening "$tmp/slow.log" 2>/dev/null \
            && grep -q listening "$tmp/fast.log" 2>/dev/null && break
        sleep 0.1
    done
    local slow_addr fast_addr
    slow_addr=$(awk '/listening/{print $2}' "$tmp/slow.log")
    fast_addr=$(awk '/listening/{print $2}' "$tmp/fast.log")
    "$bin" observe --replicas="$slow_addr,$fast_addr" > "$tmp/obs.log" 2>&1 &
    local obs_pid=$!
    for i in $(seq 100); do
        grep -q hedged_trace "$tmp/obs.log" 2>/dev/null && break
        sleep 0.1
    done
    local fleet_addr trace_id status
    fleet_addr=$(awk '/fleet listening/{print $3}' "$tmp/obs.log")
    trace_id=$(awk '/hedged_trace/{print $2}' "$tmp/obs.log")
    python3 - "$fleet_addr" "$trace_id" "$slow_addr" "$fast_addr" <<'EOF'
import json, sys, urllib.request
fleet, trace_id, slow, fast = sys.argv[1:5]
def get(addr, path):
    with urllib.request.urlopen(f"http://{addr}{path}", timeout=5) as r:
        return json.load(r)
ok = True
def check(cond, msg):
    global ok
    print(("ok  " if cond else "FAIL") + " " + msg)
    ok = ok and cond
a = get(slow, "/metrics.json")
b = get(fast, "/metrics.json")
merged = get(fleet, "/fleet/metrics")
check(merged.get("format") == "nl2vis.metrics.v1",
      "fleet metrics is itself a mergeable snapshot")
total = merged["counters"]["llm.requests_total"]
per = a["counters"]["llm.requests_total"] + b["counters"]["llm.requests_total"]
check(total == per and total > 0,
      "fleet request count %d == per-replica sum %d" % (total, per))
stats = get(fleet, "/fleet/stats")
check(stats.get("replicas_ok") == 2, "both replicas scraped clean")
check({s["name"] for s in stats.get("slo", [])} == {"latency", "availability"},
      "SLO burn rates present in /fleet/stats")
fleet_total = stats.get("fleet", {}).get("requests_total")
check(fleet_total == per,
      "/fleet/stats requests_total %r == per-replica sum %d" % (fleet_total, per))
rows = stats.get("replicas", [])
check(len(rows) == 2 and all("throughput_rps" in r and "window_shed_rate" in r
                             and "p99_us" in r.get("latency_us", {}).get("window", {})
                             for r in rows),
      "every replica row is a /stats body (throughput, shed rate, windowed p99)")
trace = get(fleet, f"/fleet/trace/{trace_id}")
check(trace.get("stitched") is True, "fleet trace is a stitched tree")
procs = set()
for source in trace.get("sources", []):
    procs.update(source.get("ids", []))
servers = sorted(p for p in procs if p != "router")
check(len(servers) >= 2,
      "stitched trace has spans from >=2 server processes: %s" % servers)
text = json.dumps(trace)
check(text.count('"server.handle"') >= 2,
      "each racer's server.handle present in the stitched tree")
check(all(s.get("outcome") in ("ok", "error") for s in trace.get("sources", [])),
      "every stitched source carries its record's outcome")
sys.exit(0 if ok else 1)
EOF
    status=$?
    kill "$slow_pid" "$fast_pid" "$obs_pid" 2>/dev/null
    wait "$slow_pid" "$fast_pid" "$obs_pid" 2>/dev/null
    rm -rf "$tmp"
    return "$status"
}
run "fleet smoke (2 server processes)" fleet_smoke

# Perf trajectory: when a committed BENCH_load.json baseline exists,
# diff the smoke snapshot against it. Non-fatal — the smoke run uses a
# reduced config, so this is a warning trail, not a gate.
if [ -f BENCH_load.json ] && [ -f target/BENCH_load_smoke.json ]; then
    echo "==> bench_diff (non-fatal)"
    if scripts/bench_diff BENCH_load.json target/BENCH_load_smoke.json; then
        echo "==> bench_diff: no regressions flagged"
    else
        echo "==> bench_diff: WARNING — possible perf regression (see table above)"
    fi
    echo
else
    echo "==> bench_diff: skipped (no BENCH_load.json baseline)"
    echo
fi

# Formatting — skip gracefully if rustfmt isn't installed.
if cargo fmt --version >/dev/null 2>&1; then
    run "cargo fmt --check" cargo fmt --all -- --check
else
    echo "==> cargo fmt --check: skipped (rustfmt not installed)"
    echo
fi

# Lints over every package and target — skip gracefully if clippy isn't
# installed.
if cargo clippy --version >/dev/null 2>&1; then
    run "cargo clippy --workspace" cargo clippy --workspace --all-targets -- -D warnings
else
    echo "==> cargo clippy: skipped (clippy not installed)"
    echo
fi

if [ "${failures}" -ne 0 ]; then
    echo "verify: ${failures} step(s) failed"
    exit 1
fi
echo "verify: all steps passed"
