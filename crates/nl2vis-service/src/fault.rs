//! Deterministic fault injection: one plan, two appliers.
//!
//! Testing the transport's resilience (deadlines, retries, typed failure
//! attribution) offline requires a backend that misbehaves *on demand and
//! reproducibly*. A [`FaultInjector`] decides, per completion request, to
//! serve normally, stall, drop the connection, or answer `500`. Decisions
//! come from either a fixed script (exact control in tests) or a seeded
//! random plan (rate-based chaos for whole eval runs) — never from ambient
//! entropy, so every run replays bit-identically.
//!
//! The same plan is applied at either end of the wire. The completion
//! server (`nl2vis-llm`'s event core) applies it to the HTTP exchange;
//! [`FaultLayer`] applies it inside a client stack, to the outcome, with
//! no server at all. Each draws once per request and means the same
//! thing:
//!
//! | [`Fault`] | the server | a client on a fresh connection sees | [`FaultLayer`] returns |
//! |---|---|---|---|
//! | `Stall(d)` | sleeps `d`, then serves | a delay, or `Timeout` if `d` exceeds the read deadline | sleeps `d`, then calls the inner service |
//! | `Drop` | closes without a response | `ConnectionClosed` | `Err(ConnectionClosed)` |
//! | `Http500` | answers the injected `500` | `Status(500)` | `Err(Status(500))` |

use crate::outcome::{CompletionOutcome, GenOptions, TransportError, TransportErrorKind};
use crate::service::{CompletionService, Layer};
use nl2vis_data::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One injected misbehavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Serve the request normally.
    None,
    /// Sleep this long before responding (long enough stalls trip the
    /// client's read deadline).
    Stall(Duration),
    /// Close the connection without sending any response.
    Drop,
    /// Respond `500 Internal Server Error`.
    Http500,
}

impl Fault {
    /// Metric suffix for the `server.fault.<label>` counter.
    pub fn label(&self) -> &'static str {
        match self {
            Fault::None => "none",
            Fault::Stall(_) => "stall",
            Fault::Drop => "drop",
            Fault::Http500 => "http500",
        }
    }
}

/// How faults are scheduled over the request sequence.
#[derive(Debug, Clone)]
enum FaultPlan {
    /// Request `n` gets `faults[n]`; requests past the end serve normally.
    Script(Vec<Fault>),
    /// Independent per-request draws at fixed rates from a seeded stream.
    Random {
        seed: u64,
        drop: f64,
        http500: f64,
        stall: f64,
        stall_for: Duration,
        /// Rare heavy-tail stall, drawn before the base stall: models the
        /// p99 outliers (GC pause, page fault, noisy neighbor) that a
        /// hedged client exists to route around.
        tail: f64,
        tail_for: Duration,
    },
}

/// A per-request fault decider shared by everything that applies it: all
/// of a server's workers, or every service a [`FaultLayer`] builds.
///
/// The injector is positional: an atomic counter assigns each completion
/// request the next index in the plan, so concurrent callers cannot
/// change *which* faults fire, only which caller observes them. Retries
/// advance the counter too — a scripted `[Drop]` therefore kills exactly
/// one request and lets its retry through, which is exactly the shape the
/// recovery tests need.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    counter: AtomicU64,
    injected: AtomicU64,
}

impl FaultInjector {
    /// An injector that never fires.
    pub fn none() -> FaultInjector {
        FaultInjector::script(Vec::new())
    }

    /// Plays the given faults in request order, then serves normally.
    pub fn script(faults: Vec<Fault>) -> FaultInjector {
        FaultInjector {
            plan: FaultPlan::Script(faults),
            counter: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// Independent per-request draws: `drop`, `http500` and `stall` are
    /// probabilities in `[0, 1]`, tried in that order; `stall_for` is the
    /// injected stall length.
    pub fn random(
        seed: u64,
        drop: f64,
        http500: f64,
        stall: f64,
        stall_for: Duration,
    ) -> FaultInjector {
        FaultInjector::random_with_tail(seed, drop, http500, stall, stall_for, 0.0, Duration::ZERO)
    }

    /// [`FaultInjector::random`] plus a rare *heavy-tail* stall: with
    /// probability `tail` the request stalls `tail_for` instead of the
    /// base `stall_for`. The tail draw comes first, so `stall=1.0` with a
    /// small base keeps a uniform service time whose outliers are the
    /// tail — the latency shape hedged requests are measured against.
    #[allow(clippy::too_many_arguments)]
    pub fn random_with_tail(
        seed: u64,
        drop: f64,
        http500: f64,
        stall: f64,
        stall_for: Duration,
        tail: f64,
        tail_for: Duration,
    ) -> FaultInjector {
        FaultInjector {
            plan: FaultPlan::Random {
                seed,
                drop,
                http500,
                stall,
                stall_for,
                tail,
                tail_for,
            },
            counter: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// Parses a CLI fault spec: comma-separated `key=value` pairs with keys
    /// `drop`, `500`, `stall` (probabilities), `stall_ms` (stall length,
    /// default 200) and `seed` (default 0). `"off"` or the empty string
    /// yield an injector that never fires.
    ///
    /// Example: `drop=0.2,500=0.1,stall=0.05,stall_ms=50,seed=7`.
    pub fn parse(spec: &str) -> Result<FaultInjector, String> {
        let spec = spec.trim();
        if spec.is_empty() || spec == "off" {
            return Ok(FaultInjector::none());
        }
        let (mut drop, mut http500, mut stall) = (0.0f64, 0.0f64, 0.0f64);
        let mut stall_ms = 200u64;
        let mut seed = 0u64;
        for pair in spec.split(',') {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("fault spec entry `{pair}` is not key=value"))?;
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 = v
                    .parse()
                    .map_err(|_| format!("fault probability `{v}` is not a number"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("fault probability `{v}` outside [0, 1]"));
                }
                Ok(p)
            };
            match key.trim() {
                "drop" => drop = prob(value)?,
                "500" | "http500" => http500 = prob(value)?,
                "stall" => stall = prob(value)?,
                "stall_ms" => {
                    stall_ms = value
                        .parse()
                        .map_err(|_| format!("stall_ms `{value}` is not an integer"))?
                }
                "seed" => {
                    seed = value
                        .parse()
                        .map_err(|_| format!("seed `{value}` is not an integer"))?
                }
                other => return Err(format!("unknown fault spec key `{other}`")),
            }
        }
        Ok(FaultInjector::random(
            seed,
            drop,
            http500,
            stall,
            Duration::from_millis(stall_ms),
        ))
    }

    /// Decides the fault for the next request and advances the sequence.
    pub fn next(&self) -> Fault {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        let fault = match &self.plan {
            FaultPlan::Script(faults) => faults.get(n as usize).copied().unwrap_or(Fault::None),
            FaultPlan::Random {
                seed,
                drop,
                http500,
                stall,
                stall_for,
                tail,
                tail_for,
            } => {
                // One independent stream per request index: concurrency
                // cannot reorder the draws a given index observes.
                let mut rng = Rng::new(seed ^ (n.wrapping_add(1)).wrapping_mul(0x9E37_79B9));
                if rng.chance(*drop) {
                    Fault::Drop
                } else if rng.chance(*http500) {
                    Fault::Http500
                } else if rng.chance(*tail) {
                    Fault::Stall(*tail_for)
                } else if rng.chance(*stall) {
                    Fault::Stall(*stall_for)
                } else {
                    Fault::None
                }
            }
        };
        if fault != Fault::None {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        fault
    }

    /// Requests seen so far.
    pub fn requests(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }

    /// Faults injected so far (requests that did not serve normally).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }
}

/// [`Layer`] applying a [`FaultInjector`] plan inside a stack — the
/// in-process applier, no server needed. The layer-ordering invariant
/// tests use it to prove properties like "an injected 500 is never
/// memoized" independently of socket behavior.
#[derive(Debug)]
pub struct FaultLayer {
    faults: Arc<FaultInjector>,
}

impl FaultLayer {
    /// A fault layer applying `faults`. Every service it builds shares the
    /// one plan, as every worker of a server does.
    pub fn new(faults: FaultInjector) -> FaultLayer {
        FaultLayer {
            faults: Arc::new(faults),
        }
    }

    /// The plan this layer applies.
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }
}

impl<S: CompletionService> Layer<S> for FaultLayer {
    type Service = Faulted<S>;

    fn layer(&self, inner: S) -> Faulted<S> {
        Faulted {
            inner,
            faults: Arc::clone(&self.faults),
        }
    }
}

/// The fault-injection middleware; see [`FaultLayer`].
pub struct Faulted<S> {
    inner: S,
    faults: Arc<FaultInjector>,
}

impl<S: CompletionService> CompletionService for Faulted<S> {
    fn model(&self) -> &str {
        self.inner.model()
    }

    /// Draws once and applies the fault to the outcome (the table in the
    /// module docs).
    fn call(&self, prompt: &str, opts: &GenOptions) -> CompletionOutcome {
        let injected = |kind| Err(TransportError::new(kind, 1, format!("injected {kind}")));
        match self.faults.next() {
            Fault::None => self.inner.call(prompt, opts),
            Fault::Stall(pause) => {
                std::thread::sleep(pause);
                self.inner.call(prompt, opts)
            }
            Fault::Drop => injected(TransportErrorKind::ConnectionClosed),
            Fault::Http500 => injected(TransportErrorKind::Status(500)),
        }
    }

    fn describe(&self, stack: &mut Vec<&'static str>) {
        stack.push("fault");
        self.inner.describe(stack);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{service_fn, stack_of};

    #[test]
    fn script_plays_in_order_then_goes_quiet() {
        let inj = FaultInjector::script(vec![Fault::Drop, Fault::Http500]);
        assert_eq!(inj.next(), Fault::Drop);
        assert_eq!(inj.next(), Fault::Http500);
        assert_eq!(inj.next(), Fault::None);
        assert_eq!(inj.next(), Fault::None);
        assert_eq!(inj.requests(), 4);
        assert_eq!(inj.injected(), 2);
    }

    #[test]
    fn random_plan_is_deterministic_per_seed() {
        let a = FaultInjector::random(7, 0.3, 0.2, 0.1, Duration::from_millis(50));
        let b = FaultInjector::random(7, 0.3, 0.2, 0.1, Duration::from_millis(50));
        let seq_a: Vec<Fault> = (0..200).map(|_| a.next()).collect();
        let seq_b: Vec<Fault> = (0..200).map(|_| b.next()).collect();
        assert_eq!(seq_a, seq_b);
        // The rates actually fire.
        assert!(seq_a.contains(&Fault::Drop));
        assert!(seq_a.contains(&Fault::Http500));
        assert!(seq_a.iter().any(|f| matches!(f, Fault::Stall(_))));
        assert!(seq_a.contains(&Fault::None));
        // A different seed reorders the sequence.
        let c = FaultInjector::random(8, 0.3, 0.2, 0.1, Duration::from_millis(50));
        let seq_c: Vec<Fault> = (0..200).map(|_| c.next()).collect();
        assert_ne!(seq_a, seq_c);
    }

    #[test]
    fn tail_stalls_mix_with_base_stalls() {
        let inj = FaultInjector::random_with_tail(
            11,
            0.0,
            0.0,
            1.0,
            Duration::from_millis(2),
            0.1,
            Duration::from_millis(50),
        );
        let draws: Vec<Fault> = (0..500).map(|_| inj.next()).collect();
        let base = draws
            .iter()
            .filter(|f| **f == Fault::Stall(Duration::from_millis(2)))
            .count();
        let tail = draws
            .iter()
            .filter(|f| **f == Fault::Stall(Duration::from_millis(50)))
            .count();
        assert_eq!(base + tail, 500, "stall=1.0 leaves no un-stalled request");
        assert!(
            (20..100).contains(&tail),
            "a 10% tail should fire ~50/500 times, got {tail}"
        );
    }

    #[test]
    fn zero_rates_never_fire() {
        let inj = FaultInjector::random(1, 0.0, 0.0, 0.0, Duration::from_millis(1));
        assert!((0..100).all(|_| inj.next() == Fault::None));
        assert_eq!(inj.injected(), 0);
    }

    #[test]
    fn spec_parsing_roundtrip_and_errors() {
        let inj = FaultInjector::parse("drop=1.0,stall_ms=5,seed=3").unwrap();
        assert_eq!(inj.next(), Fault::Drop);
        let inj = FaultInjector::parse("stall=1.0,stall_ms=25").unwrap();
        assert_eq!(inj.next(), Fault::Stall(Duration::from_millis(25)));
        let inj = FaultInjector::parse("500=1.0").unwrap();
        assert_eq!(inj.next(), Fault::Http500);
        assert_eq!(FaultInjector::parse("off").unwrap().next(), Fault::None);
        assert_eq!(FaultInjector::parse("").unwrap().next(), Fault::None);
        assert!(FaultInjector::parse("drop=2.0").is_err());
        assert!(FaultInjector::parse("drop").is_err());
        assert!(FaultInjector::parse("banana=0.5").is_err());
        assert!(FaultInjector::parse("stall_ms=abc").is_err());
    }

    #[test]
    fn the_layer_applies_one_shared_plan_to_the_outcome() {
        let pause = Duration::from_millis(20);
        let layer = FaultLayer::new(FaultInjector::script(vec![
            Fault::Http500,
            Fault::None,
            Fault::Drop,
            Fault::Stall(pause),
        ]));
        let leaf = || service_fn("m", |_, _| Ok("clean".to_string()));
        // Every service the layer builds draws from the one plan.
        let (a, b) = (layer.layer(leaf()), layer.layer(leaf()));
        let opts = GenOptions::default();
        let e = a.call("p", &opts).unwrap_err();
        assert_eq!((e.kind, e.attempts), (TransportErrorKind::Status(500), 1));
        assert_eq!(b.call("p", &opts).unwrap(), "clean");
        let e = b.call("p", &opts).unwrap_err();
        assert_eq!(e.kind, TransportErrorKind::ConnectionClosed);
        let started = std::time::Instant::now();
        assert_eq!(a.call("p", &opts).unwrap(), "clean");
        assert!(started.elapsed() >= pause, "a stall delays, then serves");
        assert!(a.call("p", &opts).is_ok(), "a played-out script is clean");
        assert_eq!(layer.faults().requests(), 5);
        assert_eq!(layer.faults().injected(), 3);
        assert_eq!(stack_of(&a), vec!["fault", "fn"]);
    }
}
