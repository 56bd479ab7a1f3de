//! The interactive review session — the running example's loop (§III-A).
//!
//! Each round: generate → tester reviews → if rejected, parse the NL
//! critique into intents, refine the spec, nudge the policy (online
//! REINFORCE with the rating as reward), and regenerate.

use crate::pipeline::{NeuralFaultInjector, PipelineError};
use nfi_llm::{refine_spec, GeneratedFault};
use nfi_pylite::Module;
use nfi_rlhf::{Feedback, SimulatedTester};

/// One round of the session.
#[derive(Debug, Clone)]
pub struct SessionRound {
    /// Round index (0-based).
    pub round: usize,
    /// The generated fault presented to the tester.
    pub fault: GeneratedFault,
    /// The tester's verdict.
    pub feedback: Feedback,
}

/// Result of a full session.
#[derive(Debug, Clone)]
pub struct SessionResult {
    /// All rounds, in order.
    pub rounds: Vec<SessionRound>,
    /// Whether the tester accepted a generation.
    pub accepted: bool,
}

impl SessionResult {
    /// The accepted (or last) generation.
    pub fn final_fault(&self) -> Option<&GeneratedFault> {
        self.rounds.last().map(|r| &r.fault)
    }
}

/// Runs an iterative review session with a tester.
///
/// # Errors
///
/// Propagates pipeline errors ([`PipelineError`]).
pub fn run_session(
    injector: &mut NeuralFaultInjector,
    description: &str,
    module: &Module,
    tester: &SimulatedTester,
    max_rounds: usize,
) -> Result<SessionResult, PipelineError> {
    let mut spec = nfi_nlp::analyze(description, Some(module));
    let mut rounds = Vec::new();
    let mut accepted = false;

    for round in 0..max_rounds.max(1) {
        // Generate against the (possibly refined) spec: one candidate
        // set per round, sampled and then credited below.
        let cands = injector.llm().candidates(&spec, module);
        let (chosen_idx, fault) = injector
            .llm_mut()
            .choose(&spec, &cands)
            .ok_or(PipelineError::NoCandidates)?;
        let feedback = tester.review(&fault);

        // Online policy update: rating recentered at 3 as the reward,
        // credited to the sampled candidate itself (operator candidates
        // share a pattern across sites).
        let advantage = (feedback.rating - 3.0) / 2.0;
        injector
            .llm_mut()
            .policy_mut()
            .reinforce(&cands, chosen_idx, advantage, 0.2);

        let critique = feedback.critique.clone();
        let was_accepted = feedback.accepted;
        rounds.push(SessionRound {
            round,
            fault,
            feedback,
        });
        if was_accepted {
            accepted = true;
            break;
        }
        // Refine the spec from the critique, as in the running example.
        if let Some(text) = critique {
            let intents = nfi_nlp::parse_critique(&text);
            spec = refine_spec(&spec, &intents);
        }
    }
    Ok(SessionResult { rounds, accepted })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use nfi_rlhf::TargetProfile;

    const ECOMMERCE: &str = "\
def process_transaction(details):
    return True
";

    #[test]
    fn running_example_session_converges_to_retry() {
        let module = nfi_pylite::parse(ECOMMERCE).unwrap();
        let mut injector = NeuralFaultInjector::new(PipelineConfig::default());
        let mut tester = SimulatedTester::new(TargetProfile::wants_retry(), 42);
        tester.noise = 0.0;
        let result = run_session(
            &mut injector,
            "Simulate a scenario where a database transaction fails due to a timeout, causing an unhandled exception within the process transaction function.",
            &module,
            &tester,
            8,
        )
        .unwrap();
        assert!(
            result.accepted,
            "session should converge: {:?}",
            result
                .rounds
                .iter()
                .map(|r| (r.fault.pattern.clone(), r.feedback.rating))
                .collect::<Vec<_>>()
        );
        let last = result.final_fault().unwrap();
        assert!(
            last.pattern.contains("retry"),
            "final pattern {} should include a retry path",
            last.pattern
        );
        assert!(last.snippet.contains("Attempting to retry transaction"));
    }

    #[test]
    fn rejected_rounds_carry_critiques() {
        let module = nfi_pylite::parse(ECOMMERCE).unwrap();
        let mut injector = NeuralFaultInjector::new(PipelineConfig::default());
        let mut tester = SimulatedTester::new(TargetProfile::wants_retry(), 3);
        tester.noise = 0.0;
        let result = run_session(
            &mut injector,
            "simulate a timeout with an unhandled exception in process_transaction",
            &module,
            &tester,
            6,
        )
        .unwrap();
        for round in &result.rounds {
            if !round.feedback.accepted {
                assert!(round.feedback.critique.is_some());
            }
        }
    }

    /// Two call statements in the target function: `op:MFC` yields one
    /// candidate per site, with one pattern but different snippets.
    const TWO_CALLS: &str = "\
def audit(msg):
    return msg

def process(items):
    audit(\"start\")
    audit(\"end\")
    return items
";

    fn tiny_corpus() -> Vec<nfi_llm::TrainingRecord> {
        let rec = |id: &str, snippet: &str| nfi_llm::TrainingRecord {
            id: id.into(),
            description: "remove a call in process".into(),
            class: nfi_sfi::FaultClass::Omission,
            snippet: snippet.into(),
            operator: "MFC".into(),
            program: "two_calls".into(),
        };
        vec![
            rec(
                "a",
                "def process(items):\n    audit(\"start\")\n    return items\n",
            ),
            rec("b", "def process(items):\n    return items\n"),
        ]
    }

    #[test]
    fn review_credit_goes_to_the_sampled_site_not_the_first_with_its_pattern() {
        let module = nfi_pylite::parse(TWO_CALLS).unwrap();
        let description = "Simulate a missing function call in the process function.";
        let spec = nfi_nlp::analyze(description, Some(&module));
        let tester = SimulatedTester::new(TargetProfile::default(), 1);
        // Seeds only pick which candidate the first round samples; scan
        // for one that samples the second `op:MFC` site.
        for seed in 0..200 {
            let mut injector = NeuralFaultInjector::new(PipelineConfig {
                llm: nfi_llm::LlmConfig {
                    seed,
                    ..nfi_llm::LlmConfig::default()
                },
                ..PipelineConfig::default()
            });
            injector.fine_tune(tiny_corpus());
            let cands = injector.llm().candidates(&spec, &module);
            let sites: Vec<usize> = (0..cands.len())
                .filter(|&i| cands[i].pattern == "op:MFC")
                .collect();
            assert_eq!(sites.len(), 2, "one candidate per call site");
            let (first, second) = (sites[0], sites[1]);
            assert_ne!(
                cands[first].features, cands[second].features,
                "the sites' snippets score different fluency"
            );
            let before = injector.llm().policy().clone();
            let result = run_session(&mut injector, description, &module, &tester, 1).unwrap();
            let round = &result.rounds[0];
            let advantage = (round.feedback.rating - 3.0) / 2.0;
            if round.fault.features != cands[second].features || advantage == 0.0 {
                continue;
            }
            let mut credited = before.clone();
            credited.reinforce(&cands, second, advantage, 0.2);
            let mut misattributed = before;
            misattributed.reinforce(&cands, first, advantage, 0.2);
            assert_eq!(injector.llm().policy().weights(), credited.weights());
            assert_ne!(credited.weights(), misattributed.weights());
            return;
        }
        panic!("no seed sampled the second op:MFC site with a non-neutral rating");
    }

    #[test]
    fn session_respects_round_budget() {
        let module = nfi_pylite::parse(ECOMMERCE).unwrap();
        let mut injector = NeuralFaultInjector::new(PipelineConfig::default());
        // A tester that can never be satisfied: wants an exception kind
        // the spec never requests.
        let profile = TargetProfile {
            wants_exception_kind: Some("PermissionError".into()),
            prefers_propagate: true,
            wants_intermittent: true,
            ..TargetProfile::default()
        };
        let mut tester = SimulatedTester::new(profile, 3);
        tester.noise = 0.0;
        let result = run_session(
            &mut injector,
            "simulate a small delay in process_transaction",
            &module,
            &tester,
            3,
        )
        .unwrap();
        assert_eq!(result.rounds.len(), 3);
        assert!(!result.accepted);
    }
}
