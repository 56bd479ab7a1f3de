//! TF-IDF text encoder used for retrieval over the fine-tuning corpus.

use crate::intern::Interner;
use crate::tensor::cosine;

/// A fitted TF-IDF vectorizer. The vocabulary is an [`Interner`]: tokens
/// are interned to dense `u32` ids in a single fit pass (no per-token
/// `String` clones), and embedding only hashes each query token once.
///
/// # Examples
///
/// ```
/// use nfi_neural::embedder::TfIdf;
///
/// let docs = vec![
///     vec!["timeout".to_string(), "database".to_string()],
///     vec!["race".to_string(), "condition".to_string()],
/// ];
/// let tfidf = TfIdf::fit(&docs);
/// let q = vec!["database".to_string(), "timeout".to_string()];
/// assert!(tfidf.similarity(&q, &docs[0]) > tfidf.similarity(&q, &docs[1]));
/// ```
#[derive(Debug, Clone)]
pub struct TfIdf {
    vocab: Interner,
    idf: Vec<f32>,
}

impl TfIdf {
    /// Fits vocabulary and inverse document frequencies on a corpus of
    /// tokenized documents.
    pub fn fit(docs: &[Vec<String>]) -> Self {
        let mut vocab = Interner::new();
        let mut doc_freq: Vec<usize> = Vec::new();
        let mut seen: Vec<u32> = Vec::new();
        for doc in docs {
            seen.clear();
            for tok in doc {
                let id = vocab.intern(tok);
                if id as usize == doc_freq.len() {
                    doc_freq.push(0);
                }
                if !seen.contains(&id) {
                    seen.push(id);
                }
            }
            for &id in &seen {
                doc_freq[id as usize] += 1;
            }
        }
        let n = docs.len().max(1) as f32;
        let idf = doc_freq
            .iter()
            .map(|df| ((n + 1.0) / (*df as f32 + 1.0)).ln() + 1.0)
            .collect();
        TfIdf { vocab, idf }
    }

    /// Dimensionality of embeddings (vocabulary size).
    pub fn dim(&self) -> usize {
        self.idf.len()
    }

    /// Interned id of a token, when in vocabulary.
    pub fn token_id(&self, token: &str) -> Option<u32> {
        self.vocab.get(token)
    }

    /// Interns a tokenized document to ids, dropping OOV tokens but
    /// reporting the original token count (TF normalization uses it).
    pub fn encode(&self, tokens: &[String]) -> (Vec<u32>, usize) {
        let ids = tokens.iter().filter_map(|t| self.vocab.get(t)).collect();
        (ids, tokens.len())
    }

    /// Embeds pre-encoded token ids as a dense TF-IDF vector.
    pub fn embed_ids(&self, ids: &[u32], token_count: usize) -> Vec<f32> {
        let mut v = vec![0.0f32; self.dim()];
        if token_count == 0 {
            return v;
        }
        for &id in ids {
            v[id as usize] += 1.0;
        }
        let len = token_count as f32;
        for (x, idf) in v.iter_mut().zip(self.idf.iter()) {
            *x = (*x / len) * idf;
        }
        v
    }

    /// Embeds a tokenized document as a dense TF-IDF vector
    /// (out-of-vocabulary tokens are ignored).
    pub fn embed(&self, tokens: &[String]) -> Vec<f32> {
        let (ids, count) = self.encode(tokens);
        self.embed_ids(&ids, count)
    }

    /// Cosine similarity between two tokenized documents.
    pub fn similarity(&self, a: &[String], b: &[String]) -> f32 {
        cosine(&self.embed(a), &self.embed(b))
    }

    /// Indices of the `k` most similar corpus documents to the query,
    /// given pre-embedded corpus vectors and their norms
    /// (`corpus_norms[i]` is [`crate::tensor::norm`] of `corpus_vecs[i]`,
    /// computed once when the corpus is indexed). Ties broken by lower
    /// index.
    ///
    /// The query stays sparse: each score is a dot product over the
    /// query's non-zero ids only, in ascending id order. TF-IDF weights
    /// are non-negative, so the skipped terms are all `+0.0` and every
    /// score is bit-identical to the dense [`cosine`].
    pub fn top_k(
        &self,
        query: &[String],
        corpus_vecs: &[Vec<f32>],
        corpus_norms: &[f32],
        k: usize,
    ) -> Vec<(usize, f32)> {
        let q = self.embed_sparse(query);
        let qn = q.iter().map(|(_, w)| w * w).sum::<f32>().sqrt();
        let mut scored: Vec<(usize, f32)> = corpus_vecs
            .iter()
            .zip(corpus_norms)
            .enumerate()
            .map(|(i, (v, &vn))| {
                let score = if qn == 0.0 || vn == 0.0 {
                    0.0
                } else {
                    let dot: f32 = q.iter().map(|&(id, w)| w * v[id as usize]).sum();
                    dot / (qn * vn)
                };
                (i, score)
            })
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(k);
        scored
    }

    /// The non-zero entries of [`TfIdf::embed`] as `(id, weight)` pairs
    /// in ascending id order, with the same per-entry arithmetic.
    fn embed_sparse(&self, tokens: &[String]) -> Vec<(u32, f32)> {
        let (mut ids, count) = self.encode(tokens);
        ids.sort_unstable();
        let len = count as f32;
        ids.chunk_by(|a, b| a == b)
            .map(|run| (run[0], (run.len() as f32 / len) * self.idf[run[0] as usize]))
            .collect()
    }
}

/// Lowercases and splits text into word tokens (alphanumeric runs).
pub fn word_tokens(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in text.chars() {
        if c.is_alphanumeric() || c == '_' {
            cur.extend(c.to_lowercase());
        } else if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::norm;

    fn doc(s: &str) -> Vec<String> {
        word_tokens(s)
    }

    #[test]
    fn rare_words_get_higher_idf() {
        let docs = vec![
            doc("the timeout failed"),
            doc("the race failed"),
            doc("the leak failed"),
        ];
        let t = TfIdf::fit(&docs);
        let the_id = t.token_id("the").unwrap() as usize;
        let timeout_id = t.token_id("timeout").unwrap() as usize;
        assert!(t.idf[timeout_id] > t.idf[the_id]);
    }

    #[test]
    fn retrieval_prefers_overlapping_document() {
        let docs = vec![
            doc("simulate a database timeout in the transaction"),
            doc("introduce a race condition between workers"),
            doc("leak a file handle by never closing it"),
        ];
        let t = TfIdf::fit(&docs);
        let vecs: Vec<Vec<f32>> = docs.iter().map(|d| t.embed(d)).collect();
        let norms: Vec<f32> = vecs.iter().map(|v| norm(v)).collect();
        let hits = t.top_k(&doc("database transaction timeout"), &vecs, &norms, 2);
        assert_eq!(hits[0].0, 0);
        assert!(hits[0].1 > hits[1].1);
    }

    #[test]
    fn oov_query_embeds_to_zero() {
        let docs = vec![doc("alpha beta")];
        let t = TfIdf::fit(&docs);
        let v = t.embed(&doc("gamma delta"));
        assert!(v.iter().all(|x| *x == 0.0));
        assert_eq!(t.similarity(&doc("gamma"), &doc("alpha")), 0.0);
    }

    #[test]
    fn word_tokens_normalize_case_and_punctuation() {
        assert_eq!(
            word_tokens("Simulate a DB-timeout, now!"),
            vec!["simulate", "a", "db", "timeout", "now"]
        );
    }

    #[test]
    fn empty_inputs_are_safe() {
        let t = TfIdf::fit(&[]);
        assert_eq!(t.dim(), 0);
        assert!(t.embed(&[]).is_empty());
    }
}
