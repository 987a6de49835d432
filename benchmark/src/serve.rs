//! `serve-open` and `serve-tiered-cached`: the study's prompts served over
//! HTTP by an in-process `CompletionServer`, driven by two client threads
//! with one keep-alive connection each.

use crate::stats::{windowed_rate, HotSets, OpenLoop, SplitMix64, Zipf};
use crate::trace;
use crate::world::{World, MODEL_SEED};
use nl2vis_baselines::{ModelService, T5Model, T5Size};
use nl2vis_cache::{CacheLayer, CompletionCache};
use nl2vis_data::{Database, Json};
use nl2vis_eval::score_completion;
use nl2vis_llm::http::{CompletionServer, HttpError, HttpLlmClient};
use nl2vis_llm::{FaultInjector, GenOptions, ModelProfile, ServerConfig, ServerTuning, SimLlm};
use nl2vis_obs::MetricsRegistry;
use nl2vis_prompt::PromptFormat;
use nl2vis_service::{
    CompletionService, Layer, RouteLayer, RoutePolicy, TieredService, ValidateLayer,
    VqlExecValidator,
};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client threads, each with one keep-alive connection.
pub const CONNECTIONS: usize = 2;
/// Offered rate of `serve-open`: about half of the 2-connection
/// closed-loop capacity of bare `SimLlm` over HTTP (about 2,100 requests/s
/// on a 2-core x86-64 VM).
pub const OPEN_RATE: f64 = 1000.0;
/// How long past the window a backlogged open loop keeps sending; requests
/// due in the window but still unsent then are missing results.
pub const GRACE: Duration = Duration::from_secs(1);
/// Zipf exponent of `serve-tiered-cached` draws.
pub const ZIPF_S: f64 = 1.1;
/// Entries in the tiered stack's shared completion cache: well below the
/// Zipf hot set, so misses (and evicting inserts) stay common.
pub const CACHE_ENTRIES: usize = 64;
/// How long one Zipf hot set of `serve-tiered-cached` lasts.
pub const HOT_SET_PERIOD: Duration = Duration::from_secs(1);
/// Traffic before the measured window, not recorded.
pub const WARMUP: Duration = Duration::from_secs(1);

/// When a load run starts, starts measuring, and stops sending.
#[derive(Debug, Clone, Copy)]
struct Timeline {
    epoch: Instant,
    measure_from: Instant,
    end: Instant,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Open,
    TieredCached,
}

/// One servable prompt with the answer the same service gives in process.
pub struct Item {
    pub example: usize,
    pub prompt: String,
    pub expected: String,
    pub exact: bool,
    pub exec: bool,
}

pub struct Serve {
    pub mode: Mode,
    pub seed: u64,
    pub world: World,
    pub databases: Arc<BTreeMap<String, Arc<Database>>>,
    pub items: Vec<Item>,
    /// The simulated model the server runs: the hosted model on
    /// `serve-open`, the `gpt-4` tier on `serve-tiered-cached`.
    pub llm: SimLlm,
    /// The `t5-base` tier's model (tiered only).
    pub t5: Option<T5Model>,
    pub cache: Option<Arc<CompletionCache>>,
    pub model: String,
    pub server: CompletionServer,
}

/// The last `Database: <name>` marker of a prompt: the test schema's
/// (demonstration schemas come first, prefixed with `-- `).
pub fn database_of(prompt: &str) -> Option<&str> {
    prompt
        .lines()
        .filter_map(|line| line.trim_start_matches("-- ").strip_prefix("Database: "))
        .next_back()
        .map(str::trim)
}

/// The cheap-first `t5-base` → `gpt-4` router. The `t5-base` tier answers
/// only when its query parses, executes and returns rows; `gpt-4` is the
/// quality floor. With a cache, each tier serves through it.
pub fn tiered_service(
    t5: T5Model,
    gpt4: SimLlm,
    databases: &Arc<BTreeMap<String, Arc<Database>>>,
    cache: Option<&Arc<CompletionCache>>,
) -> TieredService {
    let by_prompt = {
        let dbs = Arc::clone(databases);
        move |prompt: &str| database_of(prompt).and_then(|name| dbs.get(name).cloned())
    };
    let by_name = {
        let dbs = Arc::clone(databases);
        move |name: &str| dbs.get(name).cloned()
    };
    let cheap = ValidateLayer::new(VqlExecValidator::new(by_prompt).require_rows())
        .layer(ModelService::new(t5, by_name));
    let strong_cost = ModelProfile::gpt_4().cost_units();
    let route = RouteLayer::new(RoutePolicy::CheapFirst).model("tiered");
    let route = match cache {
        Some(cache) => route
            .tier(
                "t5-base",
                1,
                CacheLayer::with_cache(Arc::clone(cache)).layer(cheap),
            )
            .tier(
                "gpt-4",
                strong_cost,
                CacheLayer::with_cache(Arc::clone(cache)).layer(gpt4),
            ),
        None => route
            .tier("t5-base", 1, cheap)
            .tier("gpt-4", strong_cost, gpt4),
    };
    route
        .build()
        .expect("the tiered stack conforms to the stack contract")
}

impl Serve {
    /// Builds the corpus, renders the prompts, trains what the server hosts,
    /// precomputes every expected answer in process, and starts the server.
    pub fn setup(mode: Mode, seed: u64, traced: bool) -> Serve {
        let world = World::build(seed);
        let databases = world.databases();
        let format = match mode {
            Mode::Open => PromptFormat::Table2Sql,
            // The tiered stack's gate and the baseline adapter read the
            // prompt's `Database:` marker, which this format carries.
            Mode::TieredCached => PromptFormat::ColumnListFkValue,
        };
        let prompts = world.render_prompts(format, traced);
        let (llm, t5, cache) = match mode {
            Mode::Open => (
                SimLlm::new(ModelProfile::davinci_003(), MODEL_SEED ^ 0xD3),
                None,
                None,
            ),
            Mode::TieredCached => (
                SimLlm::new(ModelProfile::gpt_4(), MODEL_SEED ^ 0x7E),
                Some(T5Model::train(
                    &world.corpus,
                    &world.split.train,
                    T5Size::Base,
                    MODEL_SEED,
                )),
                Some(Arc::new(CompletionCache::in_memory(CACHE_ENTRIES))),
            ),
        };
        let in_process: Box<dyn CompletionService> = match &t5 {
            None => Box::new(llm.clone()),
            Some(t5) => Box::new(tiered_service(t5.clone(), llm.clone(), &databases, None)),
        };
        let items: Vec<Item> = world
            .split
            .test
            .iter()
            .zip(prompts)
            .map(|(&id, prompt)| {
                let expected = in_process
                    .call(&prompt, &GenOptions::default())
                    .expect("the in-process service answers every study prompt");
                let test = world.example(id);
                let outcome = score_completion(&expected, &test.vql, world.database(&test.db));
                Item {
                    example: id,
                    prompt,
                    expected,
                    exact: outcome.exact,
                    exec: outcome.exec,
                }
            })
            .collect();
        let registry = Arc::new(MetricsRegistry::new());
        let (server, model) = match (&t5, &cache) {
            (Some(t5), Some(cache)) => (
                CompletionServer::start_with_service_config(
                    tiered_service(t5.clone(), llm.clone(), &databases, Some(cache)),
                    registry,
                    FaultInjector::none(),
                    ServerConfig::default(),
                ),
                "tiered".to_string(),
            ),
            _ => (
                CompletionServer::start_with_tuning(
                    llm.clone(),
                    registry,
                    FaultInjector::none(),
                    ServerConfig::default(),
                    ServerTuning::default(),
                ),
                llm.profile.name.to_string(),
            ),
        };
        Serve {
            mode,
            seed,
            world,
            databases,
            items,
            llm,
            t5,
            cache,
            model,
            server: server.expect("the completion server starts on a local port"),
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.address()
    }

    /// The uniform `serve-open` draw sequence: request `j` asks prompt
    /// `draws[j]`.
    pub fn open_draws(&self, requests: usize) -> Vec<usize> {
        let mut rng = SplitMix64::new(self.seed ^ 0x0BE7);
        (0..requests).map(|_| rng.below(self.items.len())).collect()
    }

    /// Runs the workload's own load loop: the open-loop schedule on
    /// `serve-open`, the Zipf closed loop on `serve-tiered-cached`. The first
    /// `warmup` of traffic is not recorded. With `traced`, every request is
    /// a `serve.request` span holding one `http.call` span.
    pub fn drive(&self, warmup: Duration, window: Duration, traced: bool) -> Load {
        let epoch = Instant::now() + Duration::from_millis(20);
        let measure_from = epoch + warmup;
        let end = measure_from + window;
        let draws = match self.mode {
            Mode::Open => {
                let schedule = OpenLoop {
                    rate: OPEN_RATE,
                    threads: CONNECTIONS,
                };
                self.open_draws(schedule.due_within(warmup + window) + CONNECTIONS)
            }
            Mode::TieredCached => Vec::new(),
        };
        let zipf = Zipf::new(self.items.len(), ZIPF_S);
        let hot = HotSets::new(self.items.len(), self.seed, HOT_SET_PERIOD, warmup + window);
        let loads: Vec<Load> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CONNECTIONS)
                .map(|k| {
                    let (draws, zipf, hot) = (&draws, &zipf, &hot);
                    scope.spawn(move || {
                        let client = HttpLlmClient::new(self.addr(), self.model.clone());
                        let times = Timeline {
                            epoch,
                            measure_from,
                            end,
                        };
                        let load = match self.mode {
                            Mode::Open => self.open_thread(&client, k, draws, times, traced),
                            Mode::TieredCached => {
                                self.closed_thread(&client, k, (zipf, hot), times, traced)
                            }
                        };
                        if traced {
                            trace::flush();
                        }
                        load
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("load thread panicked"))
                .collect()
        });
        Load::merge(loads, self.items.len(), measure_from, window)
    }

    /// Sends one request and classifies the answer.
    fn send(&self, client: &HttpLlmClient, item: &Item, traced: bool) -> Answer {
        let _request = traced.then(|| trace::enter("serve.request"));
        let _call = traced.then(|| trace::enter("http.call"));
        match client.complete_http_with(&item.prompt, &GenOptions::default()) {
            Ok(text) if text == item.expected => Answer::Ok,
            Ok(_) => Answer::Mismatch,
            Err(HttpError::Overloaded { .. }) => Answer::Shed,
            Err(_) => Answer::Error,
        }
    }

    fn open_thread(
        &self,
        client: &HttpLlmClient,
        k: usize,
        draws: &[usize],
        times: Timeline,
        traced: bool,
    ) -> Load {
        let Timeline {
            epoch,
            measure_from,
            end,
        } = times;
        let schedule = OpenLoop {
            rate: OPEN_RATE,
            threads: CONNECTIONS,
        };
        let mut load = Load::new(self.items.len(), measure_from, end - measure_from);
        for i in 0.. {
            let j = schedule.job(k, i);
            let due = epoch + schedule.due(j);
            if due >= end {
                break;
            }
            let now = Instant::now();
            if now >= end + GRACE {
                if due >= measure_from {
                    load.missing += 1;
                }
                continue;
            }
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let answer = self.send(client, &self.items[draws[j]], traced);
            let done = Instant::now();
            if due >= measure_from {
                load.record(draws[j], answer, due, sent, done);
            }
        }
        load
    }

    fn closed_thread(
        &self,
        client: &HttpLlmClient,
        k: usize,
        (zipf, hot): (&Zipf, &HotSets),
        times: Timeline,
        traced: bool,
    ) -> Load {
        let Timeline {
            epoch,
            measure_from,
            end,
        } = times;
        let mut rng = SplitMix64::new(self.seed ^ (0x21F0 + k as u64));
        let mut load = Load::new(self.items.len(), measure_from, end - measure_from);
        let mut ready = Instant::now();
        loop {
            let sent = Instant::now();
            if sent >= end {
                break;
            }
            let index = hot.item(sent.saturating_duration_since(epoch), zipf.sample(&mut rng));
            let answer = self.send(client, &self.items[index], traced);
            let done = Instant::now();
            if sent >= measure_from {
                // A closed loop intends to send as soon as the previous
                // answer arrived, so its lag is the load generator's own
                // turnaround.
                load.record(index, answer, ready.min(sent), sent, done);
            }
            ready = done;
        }
        load
    }

    /// The server's counters as `GET /stats` and `GET /metrics` report them.
    pub fn server_counters(&self) -> Result<ServerCounters, String> {
        let stats = Json::parse(&http_get(self.addr(), "/stats")?)
            .map_err(|e| format!("bad /stats body: {e}"))?;
        let field = |name: &str| {
            stats
                .get(name)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("/stats has no `{name}`"))
        };
        let metrics = http_get(self.addr(), "/metrics")?;
        let dedup_hits = metrics
            .lines()
            .find_map(|l| l.strip_prefix("server.batch.dedup_hits_total "))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .unwrap_or(0.0);
        Ok(ServerCounters {
            batch_requests: field("batch_requests")?,
            batch_batches: field("batch_batches")?,
            shed_total: field("shed_total")?,
            dedup_hits,
        })
    }
}

/// A GET over a fresh connection; returns the body of a 200 response.
fn http_get(addr: SocketAddr, path: &str) -> Result<String, String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, Duration::from_secs(2)).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| e.to_string())?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| e.to_string())?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("GET {path}: no header terminator"))?;
    if !head.starts_with("HTTP/1.1 200") {
        return Err(format!(
            "GET {path}: {}",
            head.lines().next().unwrap_or_default()
        ));
    }
    Ok(body.to_string())
}

#[derive(Debug, Clone, Copy, Default)]
pub struct ServerCounters {
    pub batch_requests: f64,
    pub batch_batches: f64,
    pub shed_total: f64,
    pub dedup_hits: f64,
}

impl ServerCounters {
    pub fn since(&self, before: &ServerCounters) -> ServerCounters {
        ServerCounters {
            batch_requests: self.batch_requests - before.batch_requests,
            batch_batches: self.batch_batches - before.batch_batches,
            shed_total: self.shed_total - before.shed_total,
            dedup_hits: self.dedup_hits - before.dedup_hits,
        }
    }

    pub fn avg_batch_size(&self) -> f64 {
        self.batch_requests / self.batch_batches.max(1.0)
    }

    pub fn dedup_ratio(&self) -> f64 {
        self.dedup_hits / self.batch_requests.max(1.0)
    }
}

#[derive(Debug, Clone, Copy)]
enum Answer {
    Ok,
    Mismatch,
    Shed,
    Error,
}

/// What one load run sent and got back, inside the measured window.
#[derive(Debug)]
pub struct Load {
    /// The start of the measured window.
    pub origin: Instant,
    pub sent: u64,
    pub ok: u64,
    pub mismatches: u64,
    pub shed: u64,
    pub errors: u64,
    /// Requests due in the window but never sent (open loop only).
    pub missing: u64,
    /// Completion minus actual send time, in ns, with when the request was
    /// sent after the window opened.
    pub latency_ns: Vec<(Duration, f64)>,
    /// Completion minus intended send time, in ns: on the open loop this
    /// charges a request for the generator falling behind.
    pub corrected_ns: Vec<f64>,
    /// Actual minus intended send time, in ns.
    pub lag_ns: Vec<f64>,
    /// Which prompts got a verified answer.
    pub served: Vec<bool>,
    /// How long the measured window lasts.
    pub window: Duration,
}

impl Load {
    fn new(items: usize, origin: Instant, window: Duration) -> Load {
        Load {
            origin,
            sent: 0,
            ok: 0,
            mismatches: 0,
            shed: 0,
            errors: 0,
            missing: 0,
            latency_ns: Vec::new(),
            corrected_ns: Vec::new(),
            lag_ns: Vec::new(),
            served: vec![false; items],
            window,
        }
    }

    /// Records one request that was due at `due`.
    fn record(&mut self, index: usize, answer: Answer, due: Instant, sent: Instant, done: Instant) {
        self.sent += 1;
        match answer {
            Answer::Ok => {
                self.ok += 1;
                self.served[index] = true;
                self.latency_ns.push((
                    sent.saturating_duration_since(self.origin),
                    done.duration_since(sent).as_nanos() as f64,
                ));
                self.corrected_ns
                    .push(done.duration_since(due).as_nanos() as f64);
            }
            Answer::Mismatch => self.mismatches += 1,
            Answer::Shed => self.shed += 1,
            Answer::Error => self.errors += 1,
        }
        self.lag_ns.push(sent.duration_since(due).as_nanos() as f64);
    }

    fn merge(loads: Vec<Load>, items: usize, origin: Instant, window: Duration) -> Load {
        let mut total = Load::new(items, origin, window);
        for l in loads {
            total.sent += l.sent;
            total.ok += l.ok;
            total.mismatches += l.mismatches;
            total.shed += l.shed;
            total.errors += l.errors;
            total.missing += l.missing;
            total.latency_ns.extend(l.latency_ns);
            total.corrected_ns.extend(l.corrected_ns);
            total.lag_ns.extend(l.lag_ns);
            for (t, s) in total.served.iter_mut().zip(l.served) {
                *t |= s;
            }
        }
        total
    }

    pub fn attempted(&self) -> u64 {
        self.sent + self.missing
    }

    pub fn failed(&self) -> u64 {
        self.mismatches + self.shed + self.errors + self.missing
    }

    /// Verified answers per second, by send time, in each whole second of
    /// the window: the median over the seconds.
    pub fn throughput(&self) -> f64 {
        windowed_rate(
            self.latency_ns.iter().map(|&(at, _)| at),
            Duration::from_secs(1),
            self.window,
        )
    }

    /// Exact and Execution Accuracy of the answers served, each distinct
    /// prompt counted once.
    pub fn accuracy(&self, items: &[Item]) -> (f64, f64) {
        let served: Vec<&Item> = items
            .iter()
            .zip(&self.served)
            .filter_map(|(item, &s)| s.then_some(item))
            .collect();
        let n = served.len().max(1) as f64;
        (
            served.iter().filter(|i| i.exact).count() as f64 / n,
            served.iter().filter(|i| i.exec).count() as f64 / n,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_test_schema_marker_wins() {
        let prompt = "-- Database: demo_a\nQ: x\n-- Database: demo_b\nDatabase: test_db\nQ: y";
        assert_eq!(database_of(prompt), Some("test_db"));
        assert_eq!(database_of("no markers"), None);
    }
}
