//! Differential tests for one-pass candidate scoring: the batched,
//! deduplicated paths must reproduce their per-item references bit for
//! bit, on a generator fine-tuned on the SFI dataset.
//!
//! The dataset is capped and the LM trained for one epoch so the
//! fixture stays cheap in a debug build; equality of the two paths does
//! not depend on how well the model is trained.

use neural_fault_injection::dataset::{generate, DatasetConfig};
use neural_fault_injection::llm::{Candidate, FaultLlm, LlmConfig, TrainingRecord, FEATURE_DIM};
use neural_fault_injection::neural::embedder::{word_tokens, TfIdf};
use neural_fault_injection::neural::lm::{code_tokens, LmConfig, BOS, UNK};
use neural_fault_injection::neural::tensor::{cosine, norm};
use neural_fault_injection::nlp::{analyze, FaultSpec};
use neural_fault_injection::pylite::Module;
use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

/// Every `STRIDE`-th dataset description is used as a request, which
/// keeps the per-candidate references affordable in a debug build.
const STRIDE: usize = 3;

struct Fixture {
    llm: FaultLlm,
    records: Vec<TrainingRecord>,
    modules: HashMap<String, Module>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let records = generate(
            neural_fault_injection::corpus::all(),
            &DatasetConfig {
                per_program_cap: 25,
                ..DatasetConfig::default()
            },
        )
        .to_training_records();
        let mut llm = FaultLlm::untrained(LlmConfig {
            lm_epochs: 1,
            ..LlmConfig::default()
        });
        llm.fine_tune(records.clone());
        let modules = neural_fault_injection::corpus::all()
            .iter()
            .map(|p| (p.name.to_string(), p.module().unwrap()))
            .collect();
        Fixture {
            llm,
            records,
            modules,
        }
    })
}

/// The requests: sampled dataset descriptions, each with its spec and
/// the program it describes.
fn requests(fx: &Fixture) -> Vec<(FaultSpec, &Module)> {
    fx.records
        .iter()
        .step_by(STRIDE)
        .map(|r| {
            let module = &fx.modules[&r.program];
            (analyze(&r.description, Some(module)), module)
        })
        .collect()
}

#[test]
fn nll_each_equals_per_sequence_nll_bitwise_on_every_candidate_snippet() {
    let fx = fixture();
    let lm = fx.llm.lm().expect("fine-tuned");
    let mut seen = HashSet::new();
    let mut seqs: Vec<Vec<u32>> = Vec::new();
    for (spec, module) in requests(fx) {
        for c in fx.llm.candidates(&spec, module) {
            if seen.insert(c.snippet.clone()) {
                seqs.push(lm.encode_ids(&code_tokens(&c.snippet)));
            }
        }
    }
    // An empty sequence and an all-OOV one ride along.
    seqs.push(Vec::new());
    seqs.push(lm.encode_ids(&code_tokens("zzq_unseen_a zzq_unseen_b zzq_unseen_c")));
    assert!(seqs[seqs.len() - 1].iter().all(|&id| id == UNK as u32));

    // The batch must cross the 256-window chunk boundary.
    let mut windows = HashSet::new();
    for seq in &seqs {
        let mut ctx = vec![BOS as u32; LmConfig::default().context];
        for &t in seq {
            windows.insert((ctx.clone(), t));
            ctx.remove(0);
            ctx.push(t);
        }
    }
    assert!(windows.len() > 256, "{} distinct windows", windows.len());

    let each = lm.nll_each_ids(&seqs);
    assert_eq!(each.len(), seqs.len());
    for (i, seq) in seqs.iter().enumerate() {
        let reference = lm.nll_ids(std::slice::from_ref(seq));
        assert_eq!(
            each[i].to_bits(),
            reference.to_bits(),
            "sequence {i} ({} ids): {} vs {reference}",
            seq.len(),
            each[i]
        );
    }
    assert_eq!(each[seqs.len() - 2], 0.0, "empty sequence");

    // A single sequence and an all-empty batch agree too.
    assert_eq!(
        lm.nll_each_ids(&seqs[..1])[0].to_bits(),
        lm.nll_ids(&seqs[..1]).to_bits()
    );
    assert_eq!(lm.nll_each_ids(&[Vec::new(), Vec::new()]), vec![0.0, 0.0]);
}

/// Dense reference: embed the query densely, cosine against every
/// corpus vector, stable sort by descending score.
fn dense_top_k(tfidf: &TfIdf, query: &[String], vecs: &[Vec<f32>], k: usize) -> Vec<(usize, f32)> {
    let q = tfidf.embed(query);
    let mut scored: Vec<(usize, f32)> = vecs
        .iter()
        .enumerate()
        .map(|(i, v)| (i, cosine(&q, v)))
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    scored.truncate(k);
    scored
}

fn bits(hits: &[(usize, f32)]) -> Vec<(usize, u32)> {
    hits.iter().map(|(i, s)| (*i, s.to_bits())).collect()
}

#[test]
fn sparse_top_k_equals_the_dense_cosine_reference() {
    let fx = fixture();
    let docs: Vec<Vec<String>> = fx
        .records
        .iter()
        .map(|r| word_tokens(&r.description))
        .collect();
    let tfidf = TfIdf::fit(&docs);
    let vecs: Vec<Vec<f32>> = docs.iter().map(|d| tfidf.embed(d)).collect();
    let norms: Vec<f32> = vecs.iter().map(|v| norm(v)).collect();

    let mut queries: Vec<String> = requests(fx).iter().map(|(s, _)| s.prompt_text()).collect();
    queries.extend(
        fx.records
            .iter()
            .step_by(STRIDE)
            .map(|r| r.description.clone()),
    );
    queries.push(String::new());
    queries.push("entirely unseen vocabulary qqq".into());
    queries.push("timeout timeout timeout in the the the".into());
    let k = LlmConfig::default().top_k;
    for q in &queries {
        let toks = word_tokens(q);
        for depth in [k, fx.records.len()] {
            let sparse = tfidf.top_k(&toks, &vecs, &norms, depth);
            let dense = dense_top_k(&tfidf, &toks, &vecs, depth);
            assert_eq!(bits(&sparse), bits(&dense), "query {q:?}, k {depth}");
        }
        // The fine-tuned corpus index serves the same ranking.
        let served: Vec<(String, u32)> = fx
            .llm
            .corpus()
            .retrieve(q, k)
            .into_iter()
            .map(|(r, s)| (r.id.clone(), s.to_bits()))
            .collect();
        let expected: Vec<(String, u32)> = dense_top_k(&tfidf, &toks, &vecs, k)
            .into_iter()
            .map(|(i, s)| (fx.records[i].id.clone(), s.to_bits()))
            .collect();
        assert_eq!(served, expected, "query {q:?}");
    }
}

/// Per-candidate reference featurization: retrieves for every candidate
/// and scores each snippet with its own LM pass.
fn reference_features(llm: &FaultLlm, spec: &FaultSpec, c: &Candidate) -> Vec<f32> {
    let mut f = vec![0.0f32; FEATURE_DIM];
    f[0] = (Some(c.class) == spec.class) as u8 as f32;
    f[1] = (Some(c.class) == spec.secondary_class) as u8 as f32;
    let hits = llm
        .corpus()
        .retrieve(&spec.prompt_text(), LlmConfig::default().top_k);
    f[2] = hits
        .iter()
        .filter(|(r, _)| r.class == c.class)
        .map(|(_, s)| *s)
        .fold(0.0, f32::max);
    let toks = code_tokens(&c.snippet);
    if !toks.is_empty() {
        let lm = llm.lm().expect("fine-tuned");
        f[3] = (-lm.nll(std::slice::from_ref(&toks))).exp() as f32;
    }
    f[4] = (c.target_function.is_some() && c.target_function == spec.target_function) as u8 as f32;
    f[5] = c.params.retries.map(|r| r > 0).unwrap_or(false) as u8 as f32;
    f[6] = c.params.logs as u8 as f32;
    f[7] = c.effect_crash as u8 as f32;
    f[8] = c.effect_matches_spec as u8 as f32;
    f[9] = c.trigger_honored;
    f[10] = llm.corpus().class_fraction(c.class);
    f[11] = 1.0;
    f
}

#[test]
fn candidate_features_equal_the_per_candidate_reference() {
    let fx = fixture();
    let mut checked = 0;
    for (spec, module) in requests(fx) {
        for c in fx.llm.candidates(&spec, module) {
            let reference = reference_features(&fx.llm, &spec, &c);
            let got: Vec<u32> = c.features.iter().map(|x| x.to_bits()).collect();
            let want: Vec<u32> = reference.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "{} for {:?}", c.pattern, spec.prompt_text());
            checked += 1;
        }
    }
    assert!(checked > 500, "only {checked} candidates checked");
}
