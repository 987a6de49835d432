//! The trace middleware: one request span per completion call.
//!
//! [`TraceLayer`] opens an `llm.request` span (by default) around the
//! inner service, so the whole stack beneath it — metrics attribution,
//! cache lookups, every retry attempt — shares one trace. Layers below
//! annotate this span via [`nl2vis_obs::annotate_current`] rather than
//! opening spans of their own, which is what keeps the set of emitted span
//! names (and therefore `<name>.duration_us` histograms) byte-identical to
//! the pre-layered stack.

use crate::outcome::{CompletionOutcome, GenOptions};
use crate::service::{CompletionService, Layer};
use nl2vis_obs as obs;

/// [`Layer`] opening a named span around every call of the inner service.
#[derive(Debug, Clone, Copy)]
pub struct TraceLayer {
    name: &'static str,
}

impl TraceLayer {
    /// A trace layer opening spans named `name`.
    pub fn new(name: &'static str) -> TraceLayer {
        TraceLayer { name }
    }

    /// The canonical request layer: spans named `llm.request`, the root
    /// name dashboards and the flight recorder key request traces by.
    pub fn request() -> TraceLayer {
        TraceLayer::new("llm.request")
    }
}

impl<S: CompletionService> Layer<S> for TraceLayer {
    type Service = Trace<S>;

    fn layer(&self, inner: S) -> Trace<S> {
        Trace {
            inner,
            name: self.name,
        }
    }
}

/// The trace middleware; see [`TraceLayer`].
pub struct Trace<S> {
    inner: S,
    name: &'static str,
}

impl<S> Trace<S> {
    /// The wrapped service.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: CompletionService> CompletionService for Trace<S> {
    fn model(&self) -> &str {
        self.inner.model()
    }

    fn call(&self, prompt: &str, opts: &GenOptions) -> CompletionOutcome {
        let _span = obs::Span::enter(self.name);
        self.inner.call(prompt, opts)
    }

    fn describe(&self, stack: &mut Vec<&'static str>) {
        stack.push("trace");
        self.inner.describe(stack);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{service_fn, stack_of};

    #[test]
    fn trace_layer_opens_the_request_span_around_the_call() {
        let leaf = service_fn("m", |_, _| {
            // The request span must be live while the inner service runs.
            assert!(obs::current_trace().is_some());
            Ok("x".to_string())
        });
        let svc = TraceLayer::request().layer(leaf);
        assert!(obs::current_trace().is_none());
        assert!(svc.call("p", &GenOptions::default()).is_ok());
        assert!(obs::current_trace().is_none());
        assert_eq!(stack_of(&svc), vec!["trace", "fn"]);
    }

    #[test]
    fn request_span_duration_lands_on_the_legacy_histogram() {
        let before = obs::global().histogram("llm.request.duration_us").count();
        let svc = TraceLayer::request().layer(service_fn("m", |_, _| Ok("x".to_string())));
        svc.call("p", &GenOptions::default()).unwrap();
        assert!(obs::global().histogram("llm.request.duration_us").count() > before);
    }
}
