//! The metrics middleware: failure attribution counters.
//!
//! [`MetricsLayer`] sits just inside the trace layer and counts each call
//! whose *final* outcome is an error — once, regardless of how many
//! attempts the retry layer below it burned. A validation rejection
//! (`Status(422)`) is a verdict on the model's answer, so it lands on
//! `<component>.error.rejected`; every other error is a transport failure
//! on `<component>.error.transport`. Both also count on
//! `<component>.errors_total`. `llm.errors_total` and `llm.error.transport`
//! are the exact counter names the pre-layered stack emitted, which the
//! golden-list test in the root crate pins.

use crate::outcome::{CompletionOutcome, GenOptions, TransportErrorKind};
use crate::service::{CompletionService, Layer};
use crate::tier::VALIDATION_REJECTED_STATUS;
use nl2vis_obs as obs;

/// [`Layer`] attributing final failures to a component's error counters.
#[derive(Debug, Clone, Copy)]
pub struct MetricsLayer {
    component: &'static str,
}

impl MetricsLayer {
    /// A metrics layer attributing failures to `component`.
    pub fn new(component: &'static str) -> MetricsLayer {
        MetricsLayer { component }
    }
}

impl Default for MetricsLayer {
    /// The canonical serving-path component: `llm`.
    fn default() -> MetricsLayer {
        MetricsLayer::new("llm")
    }
}

impl<S: CompletionService> Layer<S> for MetricsLayer {
    type Service = Metrics<S>;

    fn layer(&self, inner: S) -> Metrics<S> {
        Metrics {
            inner,
            component: self.component,
        }
    }
}

/// The metrics middleware; see [`MetricsLayer`].
pub struct Metrics<S> {
    inner: S,
    component: &'static str,
}

impl<S> Metrics<S> {
    /// The wrapped service.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: CompletionService> CompletionService for Metrics<S> {
    fn model(&self) -> &str {
        self.inner.model()
    }

    fn call(&self, prompt: &str, opts: &GenOptions) -> CompletionOutcome {
        let outcome = self.inner.call(prompt, opts);
        if let Err(e) = &outcome {
            if e.kind == TransportErrorKind::Status(VALIDATION_REJECTED_STATUS) {
                obs::error(self.component, "rejected", &e.message);
            } else {
                obs::transport_error(self.component, &e.message);
            }
        }
        outcome
    }

    fn describe(&self, stack: &mut Vec<&'static str>) {
        stack.push("metrics");
        self.inner.describe(stack);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::TransportError;
    use crate::retry::{RetryLayer, RetryPolicy};
    use crate::service::service_fn;

    #[test]
    fn final_failure_is_counted_once_despite_retries() {
        let errors = obs::global().counter("llm.errors_total");
        let before = errors.get();
        let leaf = service_fn("m", |_, _| {
            Err(TransportError::new(
                TransportErrorKind::Timeout,
                1,
                "deadline",
            ))
        });
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff: std::time::Duration::from_millis(1),
            max_backoff: std::time::Duration::from_millis(1),
            jitter_seed: 0,
        };
        let svc = MetricsLayer::default().layer(RetryLayer::new(policy).layer(leaf));
        assert!(svc.call("p", &GenOptions::default()).is_err());
        // Three attempts failed below, but the *request* failed once.
        assert_eq!(errors.get(), before + 1);
    }

    #[test]
    fn a_rejection_is_counted_as_rejected_not_transport() {
        let counter = |name: &str| obs::global().counter(name).get();
        let svc = MetricsLayer::new("metrics-test-reject").layer(service_fn("m", |_, _| {
            Err(TransportError::new(
                TransportErrorKind::Status(VALIDATION_REJECTED_STATUS),
                1,
                "validation rejected",
            ))
        }));
        assert!(svc.call("p", &GenOptions::default()).is_err());
        assert_eq!(counter("metrics-test-reject.errors_total"), 1);
        assert_eq!(counter("metrics-test-reject.error.rejected"), 1);
        assert_eq!(counter("metrics-test-reject.error.transport"), 0);
    }

    #[test]
    fn success_counts_nothing() {
        let errors = obs::global().counter("llm.errors_total");
        let before = errors.get();
        let svc = MetricsLayer::default().layer(service_fn("m", |_, _| Ok("x".to_string())));
        assert!(svc.call("p", &GenOptions::default()).is_ok());
        assert_eq!(errors.get(), before);
    }
}
