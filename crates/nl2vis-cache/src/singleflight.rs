//! Single-flight deduplication: concurrent identical requests collapse
//! into one upstream call.
//!
//! When `n` eval workers miss the cache on the same prompt at the same
//! moment, only the first (the *leader*) goes upstream; the rest park on a
//! condvar and receive a clone of the leader's outcome. Errors are shared
//! with the waiters too — they were deduplicated into that exact call, so
//! its failure is their failure — but sharing is strictly per-flight:
//! nothing is memoized, so the *next* request for the same key goes
//! upstream again unless a success was cached by the layer above.
//!
//! Flights are keyed by the key's [`key_digest`](crate::key_digest), and
//! each keeps its full key: a request whose digest names another key's
//! flight runs its own work, unregistered, instead of waiting on an
//! answer to a different question.

use crate::lru::DigestMap;
use std::sync::{Arc, Condvar, Mutex};

/// Lifecycle of one in-flight call.
enum FlightState<T> {
    /// The leader is still working.
    Pending,
    /// The leader finished; waiters clone this outcome.
    Done(T),
    /// The leader panicked before producing an outcome. Waiters restart.
    Abandoned,
}

/// One in-flight call: its key, the slot the leader fills and the condvar
/// waiters park on.
struct Call<T> {
    key: String,
    state: Mutex<FlightState<T>>,
    done: Condvar,
}

/// How a [`SingleFlight::run`] resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightRole {
    /// This caller performed the upstream work.
    Leader,
    /// This caller waited on a concurrent identical call.
    Waiter,
}

/// A keyed single-flight group.
pub struct SingleFlight<T> {
    inflight: Mutex<DigestMap<Arc<Call<T>>>>,
}

impl<T: Clone> Default for SingleFlight<T> {
    fn default() -> Self {
        SingleFlight::new()
    }
}

/// Removes the leader's flight from the map on scope exit — including a
/// panicking `work` — and wakes every waiter. Without this, a dead leader
/// would leave waiters parked forever and the key permanently wedged.
struct Deregister<'a, T: Clone> {
    group: &'a SingleFlight<T>,
    digest: u64,
    call: &'a Arc<Call<T>>,
}

impl<T: Clone> Drop for Deregister<'_, T> {
    fn drop(&mut self) {
        self.group
            .inflight
            .lock()
            .expect("singleflight map")
            .remove(&self.digest);
        let mut state = self.call.state.lock().expect("singleflight slot");
        if matches!(*state, FlightState::Pending) {
            *state = FlightState::Abandoned;
        }
        drop(state);
        self.call.done.notify_all();
    }
}

impl<T: Clone> SingleFlight<T> {
    /// An empty group.
    pub fn new() -> SingleFlight<T> {
        SingleFlight {
            inflight: Mutex::new(DigestMap::default()),
        }
    }

    /// Runs `work` under single-flight semantics for `key`, whose digest
    /// is `digest`: if an identical call is already in flight, blocks
    /// until it completes and returns a clone of its outcome; otherwise
    /// runs `work` and wakes every waiter. A waiter whose leader panicked
    /// restarts and may become the leader of a fresh flight. While another
    /// key's flight holds the digest, `work` runs undeduplicated.
    pub fn run<F: FnOnce() -> T>(&self, digest: u64, key: &str, work: F) -> (T, FlightRole) {
        let mut work = Some(work);
        loop {
            let existing = {
                let mut inflight = self.inflight.lock().expect("singleflight map");
                match inflight.get(&digest) {
                    Some(call) if call.key == key => Some(Arc::clone(call)),
                    Some(_) => {
                        drop(inflight);
                        let work = work.take().expect("work runs at most once");
                        return (work(), FlightRole::Leader);
                    }
                    None => {
                        let call = Arc::new(Call {
                            key: key.to_string(),
                            state: Mutex::new(FlightState::Pending),
                            done: Condvar::new(),
                        });
                        inflight.insert(digest, Arc::clone(&call));
                        drop(inflight);
                        // Leader path.
                        let guard = Deregister {
                            group: self,
                            digest,
                            call: &call,
                        };
                        let outcome = work.take().expect("work runs at most once")();
                        *call.state.lock().expect("singleflight slot") =
                            FlightState::Done(outcome.clone());
                        drop(guard); // removes the flight, wakes waiters
                        return (outcome, FlightRole::Leader);
                    }
                }
            };
            // Waiter path.
            let call = existing.expect("non-leader always has a call");
            let mut state = call.state.lock().expect("singleflight slot");
            loop {
                match &*state {
                    FlightState::Pending => {
                        state = call.done.wait(state).expect("singleflight wait");
                    }
                    FlightState::Done(outcome) => {
                        return (outcome.clone(), FlightRole::Waiter);
                    }
                    FlightState::Abandoned => break,
                }
            }
            // The leader died without an outcome; retry from the top.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key_digest;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::Duration;

    /// `sf.run` under the key's own digest.
    fn run<T: Clone>(sf: &SingleFlight<T>, key: &str, work: impl FnOnce() -> T) -> (T, FlightRole) {
        sf.run(key_digest(key), key, work)
    }

    #[test]
    fn sequential_calls_each_lead() {
        let sf: SingleFlight<u32> = SingleFlight::new();
        let (a, role_a) = run(&sf, "k", || 1);
        let (b, role_b) = run(&sf, "k", || 2);
        assert_eq!((a, role_a), (1, FlightRole::Leader));
        assert_eq!((b, role_b), (2, FlightRole::Leader), "nothing is memoized");
    }

    #[test]
    fn concurrent_identical_calls_collapse_to_one() {
        let sf = Arc::new(SingleFlight::<usize>::new());
        let upstream = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new(Barrier::new(9));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let sf = Arc::clone(&sf);
            let upstream = Arc::clone(&upstream);
            let gate = Arc::clone(&gate);
            handles.push(std::thread::spawn(move || {
                gate.wait();
                run(&sf, "same-key", || {
                    // Hold the flight open long enough that the other
                    // threads arrive while it is still in progress.
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    upstream.fetch_add(1, Ordering::SeqCst) + 100
                })
            }));
        }
        gate.wait();
        let results: Vec<(usize, FlightRole)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        let leaders = results
            .iter()
            .filter(|(_, r)| *r == FlightRole::Leader)
            .count();
        assert_eq!(upstream.load(Ordering::SeqCst), leaders);
        assert!(
            leaders < 8,
            "at least one thread must have deduplicated into the flight"
        );
        // Every waiter saw its leader's value.
        let values: std::collections::HashSet<usize> = results.iter().map(|(v, _)| *v).collect();
        assert_eq!(values.len(), leaders, "one distinct value per actual call");
    }

    #[test]
    fn distinct_keys_do_not_dedup() {
        let sf = Arc::new(SingleFlight::<usize>::new());
        let upstream = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for i in 0..4 {
                let sf = Arc::clone(&sf);
                let upstream = Arc::clone(&upstream);
                s.spawn(move || {
                    run(&sf, &format!("key-{i}"), || {
                        upstream.fetch_add(1, Ordering::SeqCst)
                    })
                });
            }
        });
        assert_eq!(upstream.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn a_shared_digest_runs_both_works() {
        // Two keys forced onto one digest, in flight at once, in either
        // order: the second never waits on the first's flight, so each
        // gets its own work's answer.
        for (first, second) in [("alpha", "beta"), ("beta", "alpha")] {
            let sf = SingleFlight::<String>::new();
            let (tx, rx) = std::sync::mpsc::channel::<()>();
            let (a, b) = std::thread::scope(|s| {
                let sf = &sf;
                let a = s.spawn(move || {
                    sf.run(7, first, || {
                        // Hold the flight open until the other key's work
                        // has run (or give up, failing the test below).
                        let ran = rx.recv_timeout(Duration::from_secs(5)).is_ok();
                        format!("{first}:{ran}")
                    })
                });
                while sf.inflight.lock().unwrap().is_empty() {
                    std::thread::yield_now();
                }
                let b = sf.run(7, second, || {
                    tx.send(()).unwrap();
                    second.to_string()
                });
                (a.join().unwrap(), b)
            });
            assert_eq!(a, (format!("{first}:true"), FlightRole::Leader));
            assert_eq!(b, (second.to_string(), FlightRole::Leader));
        }
    }

    #[test]
    fn panicking_leader_does_not_wedge_the_key() {
        let sf = Arc::new(SingleFlight::<u32>::new());
        let sf2 = Arc::clone(&sf);
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let _ = std::thread::spawn(move || {
            run(&sf2, "k", || panic!("leader dies"));
        })
        .join();
        std::panic::set_hook(prev_hook);
        // The key must be usable again (a wedged flight would hang here).
        let (v, role) = run(&sf, "k", || 7);
        assert_eq!((v, role), (7, FlightRole::Leader));
    }

    #[test]
    fn waiter_survives_a_panicking_leader() {
        let sf = Arc::new(SingleFlight::<u32>::new());
        let gate = Arc::new(Barrier::new(2));
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let leader = {
            let sf = Arc::clone(&sf);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                run(&sf, "k", || {
                    gate.wait();
                    // Give the waiter time to park on the flight.
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    panic!("leader dies mid-flight");
                })
            })
        };
        gate.wait();
        // This call either joins the doomed flight (then restarts and
        // leads a fresh one) or arrives after deregistration and leads
        // directly; both must produce 9.
        let (v, _) = run(&sf, "k", || 9);
        assert_eq!(v, 9);
        assert!(leader.join().is_err(), "the leader thread panicked");
        std::panic::set_hook(prev_hook);
    }
}
