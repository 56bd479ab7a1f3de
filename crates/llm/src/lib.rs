//! # nfi-llm — the fault-generating language model
//!
//! The stand-in for the paper's LLM (§III-B2): a **retrieval-augmented
//! neural generator** that maps a structured [`FaultSpec`] plus the
//! target module to executable faulty code.
//!
//! Pipeline per generation:
//!
//! 1. **Retrieve** the most similar fine-tuning records (TF-IDF over the
//!    SFI-generated corpus of §IV-1) — [`corpusdb::CorpusDb`]. Retrieval
//!    depends only on the spec, so it runs once per spec, not once per
//!    candidate.
//! 2. **Synthesize** candidate mutations: class-specific AST patterns
//!    (timeout-raise, mishandled catch, retry loop, leak, overflow, …)
//!    plus operator-backed mutations targeted at the spec's function —
//!    [`synth`].
//! 3. **Score** candidates with a learned linear **policy** over
//!    candidate features (class/effect/trigger agreement, retrieval
//!    similarity, neural-LM fluency, corpus prior) and **sample** with
//!    temperature — [`policy::Policy`]. This policy is the object RLHF
//!    fine-tunes. Fluency for the whole candidate set comes from one
//!    deduplicated batched LM pass ([`NgramLm::nll_each_ids`]).
//!
//! [`FaultLlm::candidates`] does steps 1–3 up to the features;
//! [`FaultLlm::choose`] samples from the set it returns, and
//! [`FaultLlm::generate`] is the two in a row.
//!
//! Why this substitution preserves the paper's behaviour is argued in
//! DESIGN.md §1: NL→code mapping, data-volume sensitivity, and
//! reward-steerability are all real and measurable here.
//!
//! ```
//! use nfi_llm::{FaultLlm, LlmConfig};
//!
//! let module = nfi_pylite::parse(
//!     "def process_transaction(details):\n    return True\n",
//! )?;
//! let spec = nfi_nlp::analyze(
//!     "Simulate a database timeout causing an unhandled exception in \
//!      the process transaction function.",
//!     Some(&module),
//! );
//! let mut llm = FaultLlm::untrained(LlmConfig::default());
//! let fault = llm.generate(&spec, &module).expect("candidates exist");
//! assert!(fault.snippet.contains("TimeoutError"));
//! # Ok::<(), nfi_pylite::PyliteError>(())
//! ```

pub mod corpusdb;
pub mod params;
pub mod policy;
pub mod refine;
pub mod synth;

pub use corpusdb::{CorpusDb, TrainingRecord};
pub use params::GenParams;
pub use policy::{Candidate, Policy, FEATURE_DIM};
pub use refine::refine_spec;

use nfi_neural::lm::{code_tokens, LmConfig, NgramLm};
use nfi_nlp::FaultSpec;
use nfi_pylite::Module;
use nfi_sfi::FaultClass;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`FaultLlm`].
#[derive(Debug, Clone)]
pub struct LlmConfig {
    /// Sampling temperature over candidate scores.
    pub temperature: f32,
    /// Retrieval depth.
    pub top_k: usize,
    /// Token-LM hyper-parameters.
    pub lm: LmConfig,
    /// Epochs of LM fine-tuning per [`FaultLlm::fine_tune`] call.
    pub lm_epochs: usize,
    /// LM learning rate.
    pub lm_lr: f32,
    /// Seed for sampling.
    pub seed: u64,
}

impl Default for LlmConfig {
    fn default() -> Self {
        LlmConfig {
            temperature: 0.7,
            top_k: 4,
            lm: LmConfig::default(),
            lm_epochs: 3,
            lm_lr: 0.05,
            // Chosen so the untrained policy's first draws under the
            // vendored RNG reproduce the paper's running example
            // (timeout-raise first, retry variant after critique).
            seed: 0,
        }
    }
}

/// A generated fault: a ready-to-run mutated module plus provenance for
/// review.
#[derive(Debug, Clone)]
pub struct GeneratedFault {
    /// The spec that drove generation.
    pub spec: FaultSpec,
    /// Fault class of the chosen candidate.
    pub class: FaultClass,
    /// Synthesis pattern id (e.g. `"raise_mishandled"`, `"op:MFC"`).
    pub pattern: String,
    /// Full mutated module, ready for integration and testing.
    pub module: Module,
    /// Function the fault was placed in, when applicable.
    pub target_function: Option<String>,
    /// Printed source of the mutated region (what the tester reviews).
    pub snippet: String,
    /// Why this candidate was produced.
    pub rationale: String,
    /// Policy score of the chosen candidate.
    pub score: f32,
    /// Concrete parameters used.
    pub params: GenParams,
    /// Feature vector of the chosen candidate (used by RLHF).
    pub features: Vec<f32>,
    /// Number of candidates considered.
    pub n_candidates: usize,
}

/// The fault-generating model: fine-tuning corpus + retrieval index +
/// token LM + sampling policy.
pub struct FaultLlm {
    corpus: CorpusDb,
    lm: Option<NgramLm>,
    policy: Policy,
    config: LlmConfig,
    rng: StdRng,
}

impl FaultLlm {
    /// Creates a model with no fine-tuning data (generation falls back to
    /// pure pattern synthesis; retrieval and fluency features are zero).
    pub fn untrained(config: LlmConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        FaultLlm {
            corpus: CorpusDb::empty(),
            lm: None,
            policy: Policy::new(config.temperature),
            config,
            rng,
        }
    }

    /// Fine-tunes on SFI-generated records (§IV-1): builds the retrieval
    /// index and trains the token LM on the faulty snippets.
    ///
    /// The corpus is interned to `u32` ids once and epochs run the
    /// batched GEMM trainer — no per-epoch re-tokenization, no
    /// per-position weight writes.
    pub fn fine_tune(&mut self, records: Vec<TrainingRecord>) {
        let sequences: Vec<Vec<String>> = records.iter().map(|r| code_tokens(&r.snippet)).collect();
        self.corpus = CorpusDb::build(records);
        let mut lm = NgramLm::new(&sequences, self.config.lm.clone());
        let ids = lm.encode_corpus(&sequences);
        for _ in 0..self.config.lm_epochs {
            lm.train_epoch_batched(&ids, self.config.lm_lr, nfi_neural::lm::DEFAULT_BATCH);
        }
        self.lm = Some(lm);
    }

    /// The fine-tuning corpus.
    pub fn corpus(&self) -> &CorpusDb {
        &self.corpus
    }

    /// The token LM, once fine-tuned.
    pub fn lm(&self) -> Option<&NgramLm> {
        self.lm.as_ref()
    }

    /// Mutable access to the sampling policy (RLHF updates it).
    pub fn policy_mut(&mut self) -> &mut Policy {
        &mut self.policy
    }

    /// Read access to the sampling policy.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// Enumerates and scores all candidates for a spec (deterministic).
    ///
    /// The whole candidate set is featurized in one pass: retrieval
    /// depends only on the spec, so it runs once per call, and every
    /// candidate's fluency comes from one deduplicated batched LM pass
    /// ([`NgramLm::nll_each_ids`]). The features are bit-identical to
    /// retrieving and scoring each candidate on its own.
    pub fn candidates(&self, spec: &FaultSpec, module: &Module) -> Vec<Candidate> {
        let params = params::derive(spec);
        let mut cands = synth::synthesize(spec, module, &params);
        let hits = self.corpus.retrieve(&spec.prompt_text(), self.config.top_k);
        let fluency = self.fluency(&cands);
        for (c, fluency) in cands.iter_mut().zip(fluency) {
            c.features = self.featurize(spec, c, &hits, fluency);
        }
        cands
    }

    /// Generates one fault: synthesize candidates, score, sample.
    ///
    /// Returns `None` only when no candidate applies (e.g. an empty
    /// module with no target).
    pub fn generate(&mut self, spec: &FaultSpec, module: &Module) -> Option<GeneratedFault> {
        let cands = self.candidates(spec, module);
        self.choose(spec, &cands).map(|(_, fault)| fault)
    }

    /// Samples one of `cands` (as built by [`FaultLlm::candidates`] for
    /// `spec`) under the policy and returns its index with the fault.
    ///
    /// A caller that needs the candidate set itself, such as a review
    /// session crediting the sampled index, builds it once and calls
    /// this instead of [`FaultLlm::generate`]. Returns `None`, without
    /// drawing from the sampler, when `cands` is empty.
    pub fn choose(
        &mut self,
        spec: &FaultSpec,
        cands: &[Candidate],
    ) -> Option<(usize, GeneratedFault)> {
        if cands.is_empty() {
            return None;
        }
        let uniform: f32 = self.rng.gen();
        let (idx, _probs) = self.policy.choose(cands, uniform);
        let chosen = &cands[idx];
        let fault = GeneratedFault {
            spec: spec.clone(),
            class: chosen.class,
            pattern: chosen.pattern.clone(),
            module: chosen.module.clone(),
            target_function: chosen.target_function.clone(),
            snippet: chosen.snippet.clone(),
            rationale: chosen.rationale.clone(),
            score: self.policy.score(&chosen.features),
            params: chosen.params.clone(),
            features: chosen.features.clone(),
            n_candidates: cands.len(),
        };
        Some((idx, fault))
    }

    /// Fluency of each candidate: the inverse perplexity of its snippet
    /// under the token LM, from one batched pass over all snippets.
    /// Zero without an LM and for an empty snippet.
    fn fluency(&self, cands: &[Candidate]) -> Vec<f32> {
        let Some(lm) = &self.lm else {
            return vec![0.0; cands.len()];
        };
        let ids: Vec<Vec<u32>> = cands
            .iter()
            .map(|c| lm.encode_ids(&code_tokens(&c.snippet)))
            .collect();
        lm.nll_each_ids(&ids)
            .into_iter()
            .zip(&ids)
            .map(|(nll, seq)| {
                if seq.is_empty() {
                    0.0
                } else {
                    (-nll).exp() as f32
                }
            })
            .collect()
    }

    /// Computes the feature vector of a candidate for this spec, given
    /// the spec's retrieval hits and the candidate's fluency.
    fn featurize(
        &self,
        spec: &FaultSpec,
        c: &Candidate,
        hits: &[(&TrainingRecord, f32)],
        fluency: f32,
    ) -> Vec<f32> {
        let mut f = vec![0.0f32; FEATURE_DIM];
        f[0] = (Some(c.class) == spec.class) as u8 as f32;
        f[1] = (Some(c.class) == spec.secondary_class) as u8 as f32;
        // Retrieval similarity: best match among same-class records.
        f[2] = hits
            .iter()
            .filter(|(r, _)| r.class == c.class)
            .map(|(_, s)| *s)
            .fold(0.0, f32::max);
        f[3] = fluency;
        f[4] =
            (c.target_function.is_some() && c.target_function == spec.target_function) as u8 as f32;
        f[5] = c.params.retries.map(|r| r > 0).unwrap_or(false) as u8 as f32;
        f[6] = c.params.logs as u8 as f32;
        f[7] = c.effect_crash as u8 as f32;
        f[8] = c.effect_matches_spec as u8 as f32;
        f[9] = c.trigger_honored;
        // Corpus prior for this class.
        f[10] = self.corpus.class_fraction(c.class);
        f[11] = 1.0; // bias
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfi_pylite::parse;

    fn target() -> Module {
        parse("def process_transaction(details):\n    return True\n").unwrap()
    }

    fn timeout_spec(module: &Module) -> FaultSpec {
        nfi_nlp::analyze(
            "Simulate a database timeout causing an unhandled exception in the process transaction function.",
            Some(module),
        )
    }

    #[test]
    fn untrained_model_still_generates() {
        let module = target();
        let spec = timeout_spec(&module);
        let mut llm = FaultLlm::untrained(LlmConfig::default());
        let fault = llm.generate(&spec, &module).unwrap();
        assert!(fault.n_candidates >= 2);
        assert!(fault.snippet.contains("TimeoutError"), "{}", fault.snippet);
        // The generated module must reparse.
        let printed = nfi_pylite::print_module(&fault.module);
        parse(&printed).unwrap();
    }

    #[test]
    fn fine_tuning_populates_retrieval_and_lm() {
        let module = target();
        let spec = timeout_spec(&module);
        let mut llm = FaultLlm::untrained(LlmConfig::default());
        llm.fine_tune(vec![
            TrainingRecord {
                id: "r1".into(),
                description: "timeout raises unhandled exception in transaction".into(),
                class: FaultClass::Timing,
                snippet: "raise TimeoutError(\"db timeout\")".into(),
                operator: "DFR".into(),
                program: "ecommerce".into(),
            },
            TrainingRecord {
                id: "r2".into(),
                description: "remove lock around counter".into(),
                class: FaultClass::Concurrency,
                snippet: "counter = counter + 1".into(),
                operator: "LRA".into(),
                program: "banking".into(),
            },
        ]);
        let cands = llm.candidates(&spec, &module);
        let timing = cands
            .iter()
            .find(|c| c.class == FaultClass::Timing)
            .unwrap();
        assert!(
            timing.features[2] > 0.0,
            "retrieval similarity should be positive for the timing candidate"
        );
        assert!(timing.features[3] > 0.0, "fluency should be positive");
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let module = target();
        let spec = timeout_spec(&module);
        let gen = |seed| {
            let mut llm = FaultLlm::untrained(LlmConfig {
                seed,
                ..LlmConfig::default()
            });
            llm.generate(&spec, &module).unwrap().pattern
        };
        assert_eq!(gen(5), gen(5));
    }

    #[test]
    fn feature_vector_has_fixed_dim_and_bias() {
        let module = target();
        let spec = timeout_spec(&module);
        let llm = FaultLlm::untrained(LlmConfig::default());
        for c in llm.candidates(&spec, &module) {
            assert_eq!(c.features.len(), FEATURE_DIM);
            assert_eq!(c.features[FEATURE_DIM - 1], 1.0);
        }
    }
}
