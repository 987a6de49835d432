//! CLI configuration for the load harness.
//!
//! Everything is a `--key=value` flag with a benchmark-friendly default,
//! so `cargo run -p nl2vis-loadgen --release` alone produces a meaningful
//! sustained run, and the acceptance invocation
//! `--threads=32 --duration=60 --rate=open:500` scales it up. Settings no
//! caller varies are constants instead: the prompt skew
//! ([`ZIPF_THETA`](crate::prompts::ZIPF_THETA)) and the [`SEED`].

use std::time::Duration;

/// Seed of the prompt corpus, each worker's prompt draws and the
/// self-hosted models.
pub const SEED: u64 = 42;

/// How the load generator schedules request starts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Each worker issues its next request the moment the previous one
    /// completes — throughput is *coordinated* with the server, so queueing
    /// delay hides from the latency distribution (the classic coordinated
    /// omission trap).
    Closed,
    /// Fixed-rate schedule: the run fires `rps` requests per second split
    /// round-robin across workers, and every latency is measured from the
    /// *intended* send time, so a slow server pays for the requests it
    /// delayed.
    Open {
        /// Target aggregate arrival rate, requests per second.
        rps: f64,
    },
}

impl Arrival {
    /// Stable label used in results and run matching (`closed`,
    /// `open:500`).
    pub fn label(&self) -> String {
        match self {
            Arrival::Closed => "closed".to_string(),
            Arrival::Open { rps } => format!("open:{rps}"),
        }
    }
}

/// Where the harness finds its server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// Start an in-process [`CompletionServer`](nl2vis_llm::http::CompletionServer)
    /// sized by `--server-workers` / `--server-queue` and drive that.
    SelfHosted,
    /// Drive an already-running server at `host:port`.
    Remote(String),
}

/// Full configuration of one load run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadConfig {
    /// Thread counts to sweep, one measured run per entry.
    pub threads: Vec<usize>,
    /// Sustained measurement phase per thread count.
    pub duration: Duration,
    /// Warmup phase per thread count; requests sent but not measured.
    pub warmup: Duration,
    /// Arrival discipline.
    pub arrival: Arrival,
    /// Distinct prompts in the pool.
    pub prompts: usize,
    /// Client-side completion-cache capacity; 0 disables the cache.
    pub cache_capacity: usize,
    /// Injected per-completion service time on the self-hosted server, in
    /// milliseconds (the simulated model itself is CPU-only).
    pub service_ms: u64,
    /// Probability that a request draws the heavy-tail service time
    /// instead of the base one (self-hosted only); 0 disables the tail.
    pub tail_prob: f64,
    /// Heavy-tail service time, milliseconds.
    pub tail_ms: u64,
    /// Self-hosted replica count. 1 drives the single server directly;
    /// larger counts start N servers and route through the
    /// prompt-affinity router (consistent hashing + hedging).
    pub replicas: usize,
    /// Hedge trigger before per-replica p95 data exists, milliseconds;
    /// 0 disables hedging. Only meaningful with `--replicas` > 1.
    pub hedge_ms: u64,
    /// Server to drive.
    pub target: Target,
    /// Worker threads of the self-hosted server.
    pub server_workers: usize,
    /// Accept-queue depth of the self-hosted server.
    pub server_queue: usize,
    /// Where the JSON results go; empty string suppresses the file.
    pub out: String,
    /// Live progress-report interval; zero silences the reporter.
    pub report: Duration,
    /// Model name sent with each request. A self-hosted run serves the
    /// model profile of that name (an unknown name is an error); a remote
    /// run sends it as given, so it must be what the server hosts.
    pub model: String,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            threads: vec![8],
            duration: Duration::from_secs(10),
            warmup: Duration::from_secs(2),
            arrival: Arrival::Closed,
            prompts: 256,
            cache_capacity: 0,
            service_ms: 2,
            tail_prob: 0.0,
            tail_ms: 40,
            replicas: 1,
            hedge_ms: 15,
            target: Target::SelfHosted,
            server_workers: 16,
            server_queue: 64,
            out: "BENCH_load.json".to_string(),
            report: Duration::from_secs(2),
            model: "text-davinci-003".to_string(),
        }
    }
}

fn parse_secs(value: &str, flag: &str) -> Result<Duration, String> {
    value
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s >= 0.0)
        .map(Duration::from_secs_f64)
        .ok_or_else(|| format!("{flag} wants seconds, got `{value}`"))
}

impl LoadConfig {
    /// Parses `--key=value` CLI flags over the defaults. Unknown flags are
    /// errors (a typo silently falling back to a default would invalidate
    /// a benchmark).
    pub fn parse_args<I, S>(args: I) -> Result<LoadConfig, String>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut config = LoadConfig::default();
        for arg in args {
            let arg = arg.as_ref();
            let (flag, value) = arg
                .split_once('=')
                .ok_or_else(|| format!("expected --flag=value, got `{arg}`"))?;
            match flag {
                "--threads" => {
                    config.threads = value
                        .split(',')
                        .map(|t| {
                            t.trim()
                                .parse::<usize>()
                                .ok()
                                .filter(|&n| n >= 1)
                                .ok_or_else(|| format!("bad thread count `{t}`"))
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    if config.threads.is_empty() {
                        return Err("--threads wants at least one count".to_string());
                    }
                }
                "--duration" => config.duration = parse_secs(value, flag)?,
                "--warmup" => config.warmup = parse_secs(value, flag)?,
                "--rate" => {
                    config.arrival = if value == "closed" {
                        Arrival::Closed
                    } else if let Some(rps) = value.strip_prefix("open:") {
                        let rps: f64 = rps
                            .parse()
                            .map_err(|_| format!("bad open-loop rate `{rps}`"))?;
                        if !rps.is_finite() || rps <= 0.0 {
                            return Err(format!("open-loop rate must be positive, got `{rps}`"));
                        }
                        Arrival::Open { rps }
                    } else {
                        return Err(format!(
                            "--rate wants `closed` or `open:<rps>`, got `{value}`"
                        ));
                    };
                }
                "--prompts" => {
                    config.prompts = value
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("bad prompt count `{value}`"))?;
                }
                "--cache" => {
                    config.cache_capacity = value
                        .parse()
                        .map_err(|_| format!("bad cache capacity `{value}`"))?;
                }
                "--service-ms" => {
                    config.service_ms = value
                        .parse()
                        .map_err(|_| format!("bad service time `{value}`"))?;
                }
                "--tail" => {
                    if value == "off" {
                        config.tail_prob = 0.0;
                    } else {
                        let (prob, ms) = value.split_once(':').ok_or_else(|| {
                            format!("--tail wants `P:MS` or `off`, got `{value}`")
                        })?;
                        config.tail_prob = prob
                            .parse::<f64>()
                            .ok()
                            .filter(|p| (0.0..=1.0).contains(p))
                            .ok_or_else(|| format!("bad tail probability `{prob}`"))?;
                        config.tail_ms = ms
                            .parse()
                            .map_err(|_| format!("bad tail milliseconds `{ms}`"))?;
                    }
                }
                "--replicas" => {
                    config.replicas = value
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("bad replica count `{value}`"))?;
                }
                "--hedge-ms" => {
                    config.hedge_ms = value
                        .parse()
                        .map_err(|_| format!("bad hedge delay `{value}`"))?;
                }
                "--server" => {
                    config.target = if value == "self" {
                        Target::SelfHosted
                    } else {
                        Target::Remote(value.to_string())
                    };
                }
                "--server-workers" => {
                    config.server_workers = value
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("bad worker count `{value}`"))?;
                }
                "--server-queue" => {
                    config.server_queue = value
                        .parse()
                        .map_err(|_| format!("bad queue depth `{value}`"))?;
                }
                "--out" => config.out = value.to_string(),
                "--report" => config.report = parse_secs(value, flag)?,
                "--model" => config.model = value.to_string(),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceptance_invocation_parses() {
        let config =
            LoadConfig::parse_args(["--threads=32", "--duration=60", "--rate=open:500"]).unwrap();
        assert_eq!(config.threads, vec![32]);
        assert_eq!(config.duration, Duration::from_secs(60));
        assert_eq!(config.arrival, Arrival::Open { rps: 500.0 });
        assert_eq!(config.arrival.label(), "open:500");
    }

    #[test]
    fn thread_sweep_and_remote_target_parse() {
        let config = LoadConfig::parse_args([
            "--threads=4,8,16",
            "--server=127.0.0.1:9999",
            "--rate=closed",
            "--cache=128",
            "--out=",
        ])
        .unwrap();
        assert_eq!(config.threads, vec![4, 8, 16]);
        assert_eq!(config.target, Target::Remote("127.0.0.1:9999".to_string()));
        assert_eq!(config.arrival, Arrival::Closed);
        assert_eq!(config.cache_capacity, 128);
        assert!(config.out.is_empty());
    }

    #[test]
    fn bad_flags_are_rejected_not_defaulted() {
        assert!(LoadConfig::parse_args(["--rate=sometimes"]).is_err());
        assert!(LoadConfig::parse_args(["--threads=0"]).is_err());
        assert!(LoadConfig::parse_args(["--skew=zipf:banana"]).is_err());
        assert!(LoadConfig::parse_args(["--durations=5"]).is_err());
        assert!(LoadConfig::parse_args(["--rate=open:-3"]).is_err());
        assert!(LoadConfig::parse_args(["--replicas=0"]).is_err());
        assert!(LoadConfig::parse_args(["--tail=0.05"]).is_err());
        assert!(LoadConfig::parse_args(["--tail=1.5:40"]).is_err());
        assert!(LoadConfig::parse_args(["--dashboard=maybe"]).is_err());
        // Flags the harness no longer has are refused, never ignored.
        for removed in [
            "--tiers=gpt-4",
            "--route-policy=cheap-first",
            "--dashboard=on",
            "--skew=zipf:1.1",
            "--seed=7",
        ] {
            assert!(LoadConfig::parse_args([removed]).is_err(), "{removed}");
        }
    }

    #[test]
    fn topology_flags_parse() {
        let config = LoadConfig::parse_args([
            "--replicas=4",
            "--hedge-ms=12",
            "--tail=0.03:45",
            "--cache=512",
        ])
        .unwrap();
        assert_eq!(config.replicas, 4);
        assert_eq!(config.hedge_ms, 12);
        assert!((config.tail_prob - 0.03).abs() < 1e-9);
        assert_eq!(config.tail_ms, 45);
        let off = LoadConfig::parse_args(["--tail=off", "--hedge-ms=0"]).unwrap();
        assert_eq!(off.tail_prob, 0.0);
        assert_eq!(off.hedge_ms, 0);
    }
}
