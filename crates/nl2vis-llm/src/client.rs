//! The model-client surface. Every completion caller — the evaluation
//! harness, the pipeline, the experiments, the server — talks to a
//! [`CompletionService`], so a simulated model, an HTTP-fronted model, or
//! a composed middleware stack are interchangeable.
//!
//! Remote backends can fail for reasons the model is not responsible for —
//! a refused connection, a stalled socket, a 5xx from the serving layer.
//! Those failures must never be scored as model output (the paper's
//! Execution Accuracy and failure taxonomy both assume every scored
//! completion is something the model actually said), so the one
//! completion call, [`CompletionService::call`], returns a typed
//! [`CompletionOutcome`] whose error arm is a [`TransportError`].
//!
//! [`LlmClient`] extends every service with three more call names:
//! [`LlmClient::try_complete_with`] is `call` under another name,
//! and the infallible `complete` / `complete_with` fold a transport
//! failure into a `[transport error ...]` marker string that cannot parse
//! as VQL — for display-only callers. Scoring code uses the typed path.
//!
//! The service trait and its transport vocabulary ([`TransportError`],
//! [`TransportErrorKind`], [`CompletionOutcome`], and the
//! [`VALIDATION_REJECTED_STATUS`] a validating stack answers with) are
//! defined in `nl2vis-service` — the bottom of the layered completion
//! stack — and re-exported here unchanged.

use crate::sim::{GenOptions, SimLlm};

pub use nl2vis_service::{
    CompletionOutcome, CompletionService, TransportError, TransportErrorKind,
    VALIDATION_REJECTED_STATUS,
};

/// Convenience call names every [`CompletionService`] answers to.
pub trait LlmClient: CompletionService {
    /// Completes a prompt with generation options; the same as
    /// [`CompletionService::call`].
    fn try_complete_with(&self, prompt: &str, opts: &GenOptions) -> CompletionOutcome {
        self.call(prompt, opts)
    }

    /// Infallible completion with generation options: a transport failure
    /// folds into a bracketed marker string that cannot parse as VQL. For
    /// display-only callers.
    fn complete_with(&self, prompt: &str, opts: &GenOptions) -> String {
        match self.call(prompt, opts) {
            Ok(text) => text,
            Err(e) => format!("[{e}]"),
        }
    }

    /// Infallible completion with default options; see
    /// [`LlmClient::complete_with`].
    fn complete(&self, prompt: &str) -> String {
        LlmClient::complete_with(self, prompt, &GenOptions::default())
    }
}

impl<S: CompletionService + ?Sized> LlmClient for S {}

/// The simulated model as a leaf [`CompletionService`] — the local
/// counterpart of the `HttpLlmClient` leaf. It is the one backend with a
/// real batch entry point, so the server coalesces queued requests for it.
impl CompletionService for SimLlm {
    fn model(&self) -> &str {
        self.profile.name
    }

    /// A local simulated model has no transport to fail.
    fn call(&self, prompt: &str, opts: &GenOptions) -> CompletionOutcome {
        Ok(SimLlm::complete_with(self, prompt, opts))
    }

    fn describe(&self, stack: &mut Vec<&'static str>) {
        stack.push("sim");
    }

    /// Generation is deterministic per `(prompt, opts)`, so identical
    /// prompts in the batch are computed once and the memoized output
    /// reused — output `i` is byte-identical to `call(prompts[i], opts)`.
    /// This is where batching pays: under hot-key skew most of a saturated
    /// queue is a handful of prompts, and the prompt parse that dominates
    /// completion CPU runs once per distinct prompt instead of once per
    /// request.
    fn call_batch(&self, prompts: &[&str], opts: &GenOptions) -> Vec<CompletionOutcome> {
        let mut memo: std::collections::HashMap<&str, String> = std::collections::HashMap::new();
        prompts
            .iter()
            .map(|&prompt| {
                let text = memo
                    .entry(prompt)
                    .or_insert_with(|| SimLlm::complete_with(self, prompt, opts));
                Ok(text.clone())
            })
            .collect()
    }

    fn batches(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ModelProfile;
    use nl2vis_service::{service_fn, stack_of};

    #[test]
    fn local_backends_never_fail_the_typed_path() {
        let llm = SimLlm::new(ModelProfile::gpt_4(), 1);
        let out = llm
            .try_complete_with("not a prompt", &GenOptions::default())
            .expect("a local model has no transport");
        assert_eq!(out, llm.complete("not a prompt"));
    }

    #[test]
    fn folding_wrappers_turn_transport_failures_into_markers() {
        let dead = service_fn("dead", |_, _| {
            Err(TransportError::new(
                TransportErrorKind::Connect,
                1,
                "refused",
            ))
        });
        let out = dead.complete("Q: hi\nVQL:");
        assert!(out.starts_with("[transport error"), "{out}");
        assert!(out.contains("connect"), "{out}");
    }

    #[test]
    fn sim_llm_is_a_batching_leaf_service() {
        let llm = SimLlm::new(ModelProfile::gpt_4(), 1);
        let svc: &dyn CompletionService = &llm;
        assert_eq!(svc.model(), "gpt-4");
        assert!(svc.call("not a prompt", &GenOptions::default()).is_ok());
        assert_eq!(stack_of(&llm), vec!["sim"]);
        assert!(svc.batches());
        let opts = GenOptions::default();
        let batch = svc.call_batch(&["a", "b", "a"], &opts);
        let single: Vec<CompletionOutcome> =
            ["a", "b", "a"].iter().map(|p| svc.call(p, &opts)).collect();
        assert_eq!(batch, single);
    }
}
