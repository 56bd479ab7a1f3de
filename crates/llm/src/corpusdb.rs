//! The fine-tuning corpus store with TF-IDF retrieval.

use nfi_neural::embedder::{word_tokens, TfIdf};
use nfi_neural::tensor::norm;
use nfi_sfi::FaultClass;
use std::collections::BTreeMap;

/// One fine-tuning record: an NL fault description paired with the
/// faulty code it produced (the §IV-1 dataset row).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingRecord {
    /// Stable record id.
    pub id: String,
    /// Natural-language fault description.
    pub description: String,
    /// Fault class.
    pub class: FaultClass,
    /// The faulty code fragment (printed source).
    pub snippet: String,
    /// Operator that produced it.
    pub operator: String,
    /// Seed program it came from.
    pub program: String,
}

/// An indexed corpus of training records.
#[derive(Debug, Clone)]
pub struct CorpusDb {
    records: Vec<TrainingRecord>,
    tfidf: TfIdf,
    vectors: Vec<Vec<f32>>,
    /// Norm of each vector, computed once here instead of per query.
    norms: Vec<f32>,
    class_counts: BTreeMap<FaultClass, usize>,
}

impl CorpusDb {
    /// An empty corpus (untrained model).
    pub fn empty() -> Self {
        CorpusDb {
            records: Vec::new(),
            tfidf: TfIdf::fit(&[]),
            vectors: Vec::new(),
            norms: Vec::new(),
            class_counts: BTreeMap::new(),
        }
    }

    /// Builds the retrieval index over the given records.
    pub fn build(records: Vec<TrainingRecord>) -> Self {
        let docs: Vec<Vec<String>> = records
            .iter()
            .map(|r| word_tokens(&r.description))
            .collect();
        let tfidf = TfIdf::fit(&docs);
        let vectors: Vec<Vec<f32>> = docs.iter().map(|d| tfidf.embed(d)).collect();
        let norms = vectors.iter().map(|v| norm(v)).collect();
        let mut class_counts = BTreeMap::new();
        for r in &records {
            *class_counts.entry(r.class).or_insert(0) += 1;
        }
        CorpusDb {
            records,
            tfidf,
            vectors,
            norms,
            class_counts,
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records.
    pub fn records(&self) -> &[TrainingRecord] {
        &self.records
    }

    /// Top-`k` most similar records to the query text.
    pub fn retrieve(&self, query: &str, k: usize) -> Vec<(&TrainingRecord, f32)> {
        let q = word_tokens(query);
        self.tfidf
            .top_k(&q, &self.vectors, &self.norms, k)
            .into_iter()
            .map(|(i, s)| (&self.records[i], s))
            .collect()
    }

    /// Distribution of fault classes in the corpus.
    pub fn class_distribution(&self) -> &BTreeMap<FaultClass, usize> {
        &self.class_counts
    }

    /// Fraction of the corpus in a given class (0 when empty).
    pub fn class_fraction(&self, class: FaultClass) -> f32 {
        if self.records.is_empty() {
            return 0.0;
        }
        *self.class_counts.get(&class).unwrap_or(&0) as f32 / self.records.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: &str, desc: &str, class: FaultClass) -> TrainingRecord {
        TrainingRecord {
            id: id.into(),
            description: desc.into(),
            class,
            snippet: "pass".into(),
            operator: "X".into(),
            program: "p".into(),
        }
    }

    #[test]
    fn retrieval_ranks_by_similarity() {
        let db = CorpusDb::build(vec![
            rec(
                "a",
                "database timeout during transaction",
                FaultClass::Timing,
            ),
            rec(
                "b",
                "race condition on shared counter",
                FaultClass::Concurrency,
            ),
            rec("c", "leak the file handle", FaultClass::ResourceLeak),
        ]);
        let hits = db.retrieve("a transaction timeout in the database", 2);
        assert_eq!(hits[0].0.id, "a");
        assert!(hits[0].1 > hits[1].1);
    }

    #[test]
    fn class_fractions_sum_to_one() {
        let db = CorpusDb::build(vec![
            rec("a", "x", FaultClass::Timing),
            rec("b", "y", FaultClass::Timing),
            rec("c", "z", FaultClass::Omission),
        ]);
        let total: f32 = FaultClass::ALL.iter().map(|c| db.class_fraction(*c)).sum();
        assert!((total - 1.0).abs() < 1e-6);
        assert!((db.class_fraction(FaultClass::Timing) - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn empty_corpus_is_safe() {
        let db = CorpusDb::empty();
        assert!(db.is_empty());
        assert_eq!(db.len(), 0);
        assert!(db.retrieve("anything", 3).is_empty());
        assert_eq!(db.class_fraction(FaultClass::Timing), 0.0);
    }
}
