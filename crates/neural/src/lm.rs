//! A neural n-gram language model over (code) tokens.
//!
//! Architecture (Bengio et al. 2003 style): each of the `context`
//! previous tokens is embedded, embeddings are concatenated, passed
//! through one tanh hidden layer, and projected to vocabulary logits.
//! Training is gradient descent on cross-entropy with manual backprop
//! (including embedding gradients).
//!
//! Two kernel paths exist:
//!
//! * the **per-example** path ([`NgramLm::train_epoch`],
//!   [`NgramLm::example_gradients`]) — one `matvec`/`add_outer` pass per
//!   position, the original reference implementation;
//! * the **batched** path ([`NgramLm::train_epoch_batched`],
//!   [`NgramLm::batch_gradients`]) — minibatch GEMM kernels
//!   ([`Matrix::matmul_nt`] and friends, SIMD where available, plus the
//!   vectorizable [`crate::exp_approx`] softmax) whose batch gradients
//!   equal the sum of per-example gradients within 1e-5 (the parity
//!   suite enforces this). Batch boundaries are fixed by position
//!   order, so results are fully deterministic.
//!
//! The vocabulary is interned once ([`crate::intern::Interner`]): tokens
//! become dense `u32` ids up front, and the training loop never hashes
//! or clones a `String` again.
//!
//! In the workspace this model plays the role of the LLM's *token-level*
//! backbone: it is fine-tuned on faulty-code corpora, provides fluency
//! scores for candidate snippets, and yields the perplexity-vs-dataset
//! learning curve of experiment E6.

use crate::intern::Interner;
use crate::tensor::Matrix;
use crate::{sample_index, softmax_with_temperature};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Hyper-parameters for [`NgramLm`].
#[derive(Debug, Clone)]
pub struct LmConfig {
    /// Number of previous tokens used as context.
    pub context: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Hidden layer width.
    pub hidden: usize,
    /// Weight-initialization / shuffling seed.
    pub seed: u64,
}

impl Default for LmConfig {
    fn default() -> Self {
        LmConfig {
            context: 3,
            dim: 16,
            hidden: 32,
            seed: 0xBEEF,
        }
    }
}

/// Reserved id for beginning-of-sequence padding.
pub const BOS: usize = 0;
/// Reserved id for out-of-vocabulary tokens.
pub const UNK: usize = 1;

/// Default minibatch size for [`NgramLm::train_epoch_batched`].
pub const DEFAULT_BATCH: usize = 32;

/// Positions per forward batch when evaluating NLL.
const EVAL_BATCH: usize = 256;

/// Summed gradients (and total NLL) over a set of positions, shaped like
/// the model's parameters.
#[derive(Debug, Clone)]
pub struct LmGradients {
    /// Embedding-table gradient.
    pub embed: Matrix,
    /// Hidden-layer weight gradient.
    pub w1: Matrix,
    /// Hidden-layer bias gradient.
    pub b1: Vec<f32>,
    /// Output-layer weight gradient.
    pub w2: Matrix,
    /// Output-layer bias gradient.
    pub b2: Vec<f32>,
    /// Total negative log-likelihood of the positions.
    pub nll: f64,
    /// Number of positions.
    pub count: usize,
}

/// The neural n-gram language model.
#[derive(Debug, Clone)]
pub struct NgramLm {
    vocab: Interner,
    embed: Matrix,
    w1: Matrix,
    b1: Vec<f32>,
    w2: Matrix,
    b2: Vec<f32>,
    config: LmConfig,
}

impl NgramLm {
    /// Creates an untrained model with a vocabulary interned from the
    /// given sequences in one pass (tokens occurring at least once).
    pub fn new(sequences: &[Vec<String>], config: LmConfig) -> Self {
        let mut vocab = Interner::new();
        vocab.intern("<s>");
        vocab.intern("<unk>");
        for seq in sequences {
            for tok in seq {
                vocab.intern(tok);
            }
        }
        let v = vocab.len();
        let in_dim = config.context * config.dim;
        NgramLm {
            embed: Matrix::xavier(v, config.dim, config.seed),
            w1: Matrix::xavier(config.hidden, in_dim, config.seed.wrapping_add(1)),
            b1: vec![0.0; config.hidden],
            w2: Matrix::xavier(v, config.hidden, config.seed.wrapping_add(2)),
            b2: vec![0.0; v],
            vocab,
            config,
        }
    }

    /// Vocabulary size (including `<s>` and `<unk>`).
    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    /// Token → id (OOV maps to `<unk>`).
    pub fn encode(&self, tokens: &[String]) -> Vec<usize> {
        tokens
            .iter()
            .map(|t| self.vocab.get(t).map(|id| id as usize).unwrap_or(UNK))
            .collect()
    }

    /// Token → dense `u32` id (OOV maps to `<unk>`).
    pub fn encode_ids(&self, tokens: &[String]) -> Vec<u32> {
        tokens
            .iter()
            .map(|t| self.vocab.get(t).unwrap_or(UNK as u32))
            .collect()
    }

    /// Encodes a whole corpus to id sequences in one pass — do this once
    /// before an epoch loop instead of re-hashing every epoch.
    pub fn encode_corpus(&self, sequences: &[Vec<String>]) -> Vec<Vec<u32>> {
        sequences.iter().map(|s| self.encode_ids(s)).collect()
    }

    fn context_vector(&self, ctx: &[usize]) -> Vec<f32> {
        let mut x = Vec::with_capacity(self.config.context * self.config.dim);
        for id in ctx {
            x.extend_from_slice(self.embed.row(*id));
        }
        x
    }

    fn logits(&self, ctx: &[usize]) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let x = self.context_vector(ctx);
        let mut h = self.w1.matvec(&x);
        for (hj, bj) in h.iter_mut().zip(self.b1.iter()) {
            *hj = (*hj + bj).tanh();
        }
        let mut logits = self.w2.matvec(&h);
        for (lj, bj) in logits.iter_mut().zip(self.b2.iter()) {
            *lj += bj;
        }
        (x, h, logits)
    }

    // ---- flattened position windows -----------------------------------

    /// Flattens id sequences into `(contexts, targets)`: position `t` of
    /// a sequence has context `pad[t..t+C]` with `pad = [BOS; C] ++ seq`
    /// and target `seq[t]`. Order is sequence order then position order —
    /// the batched path's fixed batch boundaries derive from it.
    fn flatten_positions(&self, ids: &[Vec<u32>]) -> (Vec<u32>, Vec<u32>) {
        let c = self.config.context;
        let total: usize = ids.iter().map(Vec::len).sum();
        let mut ctxs = Vec::with_capacity(total * c);
        let mut targets = Vec::with_capacity(total);
        for seq in ids {
            let mut ctx = vec![BOS as u32; c];
            for &target in seq {
                ctxs.extend_from_slice(&ctx);
                targets.push(target);
                ctx.remove(0);
                ctx.push(target);
            }
        }
        (ctxs, targets)
    }

    /// Batched forward: gathers context embeddings into `X: B×(C·dim)`,
    /// computes `H = tanh(X·W1ᵀ + b1)` and `logits = H·W2ᵀ + b2`.
    fn forward_batch(&self, ctxs: &[u32]) -> (Matrix, Matrix, Matrix) {
        let c = self.config.context;
        let d = self.config.dim;
        let b = ctxs.len() / c;
        let mut x = Matrix::zeros(b, c * d);
        for e in 0..b {
            let row = x.row_mut(e);
            for (pos, id) in ctxs[e * c..(e + 1) * c].iter().enumerate() {
                row[pos * d..(pos + 1) * d].copy_from_slice(self.embed.row(*id as usize));
            }
        }
        let mut h = x.matmul_nt(&self.w1);
        for e in 0..b {
            for (hj, bj) in h.row_mut(e).iter_mut().zip(self.b1.iter()) {
                *hj = (*hj + bj).tanh();
            }
        }
        let mut logits = h.matmul_nt(&self.w2);
        logits.add_row_bias(&self.b2);
        (x, h, logits)
    }

    /// Zero-shaped gradient accumulator.
    fn zero_gradients(&self) -> LmGradients {
        LmGradients {
            embed: Matrix::zeros(self.embed.rows(), self.embed.cols()),
            w1: Matrix::zeros(self.w1.rows(), self.w1.cols()),
            b1: vec![0.0; self.b1.len()],
            w2: Matrix::zeros(self.w2.rows(), self.w2.cols()),
            b2: vec![0.0; self.b2.len()],
            nll: 0.0,
            count: 0,
        }
    }

    /// Summed cross-entropy gradients over a minibatch of positions,
    /// computed with the GEMM kernels at the current parameters.
    ///
    /// `ctxs` holds `targets.len() * context` ids, row-major.
    ///
    /// # Panics
    ///
    /// Panics if `ctxs.len() != targets.len() * context`.
    pub fn batch_gradients(&self, ctxs: &[u32], targets: &[u32]) -> LmGradients {
        let mut grads = self.zero_gradients();
        self.fill_batch_gradients(ctxs, targets, &mut grads);
        grads
    }

    /// [`NgramLm::batch_gradients`] into a caller-owned (zeroed)
    /// accumulator — the epoch loop reuses one allocation across every
    /// batch.
    fn fill_batch_gradients(&self, ctxs: &[u32], targets: &[u32], grads: &mut LmGradients) {
        let c = self.config.context;
        assert_eq!(
            ctxs.len(),
            targets.len() * c,
            "context window shape mismatch"
        );
        if targets.is_empty() {
            return;
        }
        let b = targets.len();
        let (x, h, logits) = self.forward_batch(ctxs);

        // dL/dlogits = softmax(logits) - onehot(target), row-wise, with
        // the vectorizable `exp_approx` (the parity suite bounds the
        // difference from the libm-exp reference path at 1e-5).
        let mut dlogits = logits;
        for (e, tgt) in targets.iter().enumerate() {
            let row = dlogits.row_mut(e);
            let target = *tgt as usize;
            grads.nll += softmax_row_in_place(row, target);
            row[target] -= 1.0;
        }

        // Output layer.
        grads.w2.add_matmul_tn(1.0, &dlogits, &h);
        for (g, d) in grads.b2.iter_mut().zip(dlogits.col_sums()) {
            *g += d;
        }

        // Hidden layer (tanh).
        let mut dz = dlogits.matmul_nn(&self.w2);
        for e in 0..b {
            for (d, y) in dz.row_mut(e).iter_mut().zip(h.row(e).iter()) {
                *d *= 1.0 - y * y;
            }
        }
        grads.w1.add_matmul_tn(1.0, &dz, &x);
        for (g, d) in grads.b1.iter_mut().zip(dz.col_sums()) {
            *g += d;
        }

        // Embedding gradients: scatter dX rows back to context ids.
        let dx = dz.matmul_nn(&self.w1);
        let d = self.config.dim;
        for e in 0..b {
            let dx_row = dx.row(e);
            for (pos, id) in ctxs[e * c..(e + 1) * c].iter().enumerate() {
                let row = grads.embed.row_mut(*id as usize);
                for (g, v) in row.iter_mut().zip(dx_row[pos * d..(pos + 1) * d].iter()) {
                    *g += v;
                }
            }
        }
        grads.count += b;
    }

    /// Cross-entropy gradients of a single position via the per-example
    /// `matvec`/`add_outer` kernels — the reference the batched path is
    /// tested against.
    pub fn example_gradients(&self, ctx: &[usize], target: usize) -> LmGradients {
        let mut grads = self.zero_gradients();
        let (x, h, logits) = self.logits(ctx);
        let probs = crate::softmax(&logits);
        grads.nll = -((probs[target].max(1e-12)) as f64).ln();

        let mut dlogits = probs;
        dlogits[target] -= 1.0;

        grads.w2.add_outer(1.0, &dlogits, &h);
        for (g, d) in grads.b2.iter_mut().zip(dlogits.iter()) {
            *g += d;
        }

        let dh_raw = self.w2.matvec_t(&dlogits);
        let dz: Vec<f32> = dh_raw
            .iter()
            .zip(h.iter())
            .map(|(d, y)| d * (1.0 - y * y))
            .collect();
        grads.w1.add_outer(1.0, &dz, &x);
        for (g, d) in grads.b1.iter_mut().zip(dz.iter()) {
            *g += d;
        }

        let dx = self.w1.matvec_t(&dz);
        for (pos, id) in ctx.iter().enumerate() {
            let from = pos * self.config.dim;
            let row = grads.embed.row_mut(*id);
            for (j, g) in row.iter_mut().enumerate() {
                *g += dx[from + j];
            }
        }
        grads.count = 1;
        grads
    }

    /// Applies summed gradients: `θ -= lr · g`.
    pub fn apply_gradients(&mut self, grads: &LmGradients, lr: f32) {
        self.embed.add_scaled(-lr, &grads.embed);
        self.w1.add_scaled(-lr, &grads.w1);
        self.w2.add_scaled(-lr, &grads.w2);
        for (b, g) in self.b1.iter_mut().zip(grads.b1.iter()) {
            *b -= lr * g;
        }
        for (b, g) in self.b2.iter_mut().zip(grads.b2.iter()) {
            *b -= lr * g;
        }
    }

    /// One epoch of per-example SGD over all positions of all sequences;
    /// returns the average negative log-likelihood (natural log). The
    /// original reference path: one weight update per position.
    pub fn train_epoch(&mut self, sequences: &[Vec<String>], lr: f32) -> f64 {
        let mut total_nll = 0.0f64;
        let mut count = 0usize;
        let encoded: Vec<Vec<usize>> = sequences.iter().map(|s| self.encode(s)).collect();
        for seq in &encoded {
            let mut ctx = vec![BOS; self.config.context];
            for &target in seq {
                total_nll += self.sgd_example(&ctx, target, lr);
                count += 1;
                ctx.remove(0);
                ctx.push(target);
            }
        }
        if count == 0 {
            0.0
        } else {
            total_nll / count as f64
        }
    }

    /// One epoch of minibatch gradient descent over pre-encoded id
    /// sequences: fixed position-order batch boundaries, one GEMM-backed
    /// weight update per `batch` positions. Returns the average NLL.
    ///
    /// ~`batch`× fewer weight writes than [`NgramLm::train_epoch`] and
    /// no per-position allocation; gradients per batch equal the summed
    /// per-example gradients at the batch's starting parameters.
    pub fn train_epoch_batched(&mut self, ids: &[Vec<u32>], lr: f32, batch: usize) -> f64 {
        let batch = batch.max(1);
        let c = self.config.context;
        let (ctxs, targets) = self.flatten_positions(ids);
        if targets.is_empty() {
            return 0.0;
        }
        let mut total_nll = 0.0f64;
        // One reused accumulator; the dense layers are applied and
        // re-zeroed in full, the embedding table (the `vocab × dim`
        // giant) only on the ≤ batch·context rows a batch touched.
        let mut grads = self.zero_gradients();
        let mut touched: Vec<u32> = Vec::with_capacity(batch * c);
        for (ctx_chunk, target_chunk) in ctxs.chunks(batch * c).zip(targets.chunks(batch)) {
            grads.nll = 0.0;
            self.fill_batch_gradients(ctx_chunk, target_chunk, &mut grads);
            total_nll += grads.nll;

            self.w1.add_scaled(-lr, &grads.w1);
            self.w2.add_scaled(-lr, &grads.w2);
            for (b, g) in self.b1.iter_mut().zip(grads.b1.iter()) {
                *b -= lr * g;
            }
            for (b, g) in self.b2.iter_mut().zip(grads.b2.iter()) {
                *b -= lr * g;
            }
            grads.w1.fill_zero();
            grads.w2.fill_zero();
            grads.b1.iter_mut().for_each(|x| *x = 0.0);
            grads.b2.iter_mut().for_each(|x| *x = 0.0);

            touched.clear();
            touched.extend_from_slice(ctx_chunk);
            touched.sort_unstable();
            touched.dedup();
            for &id in &touched {
                let g_row = grads.embed.row_mut(id as usize);
                for (w, g) in self.embed.row_mut(id as usize).iter_mut().zip(g_row.iter()) {
                    *w -= lr * g;
                }
                g_row.iter_mut().for_each(|x| *x = 0.0);
            }
        }
        total_nll / targets.len() as f64
    }

    fn sgd_example(&mut self, ctx: &[usize], target: usize, lr: f32) -> f64 {
        let (x, h, logits) = self.logits(ctx);
        let probs = crate::softmax(&logits);
        let nll = -(probs[target].max(1e-12) as f64).ln();

        // dL/dlogits = p - onehot(target)
        let mut dlogits = probs;
        dlogits[target] -= 1.0;

        // Output layer.
        let dh_raw = self.w2.matvec_t(&dlogits);
        self.w2.add_outer(-lr, &dlogits, &h);
        for (b, d) in self.b2.iter_mut().zip(dlogits.iter()) {
            *b -= lr * d;
        }

        // Hidden layer (tanh).
        let dz: Vec<f32> = dh_raw
            .iter()
            .zip(h.iter())
            .map(|(d, y)| d * (1.0 - y * y))
            .collect();
        let dx = self.w1.matvec_t(&dz);
        self.w1.add_outer(-lr, &dz, &x);
        for (b, d) in self.b1.iter_mut().zip(dz.iter()) {
            *b -= lr * d;
        }

        // Embedding gradients: slice dx back to each context position.
        for (pos, id) in ctx.iter().enumerate() {
            let from = pos * self.config.dim;
            let row = self.embed.row_mut(*id);
            for (j, r) in row.iter_mut().enumerate() {
                *r -= lr * dx[from + j];
            }
        }
        nll
    }

    /// Negative log-likelihood of each `(context, target)` window, in
    /// window order, through the batched forward kernel. Every step of
    /// that kernel ([`Matrix::matmul_nt`], the bias adds, `tanh` and the
    /// row softmax) works row by row, so a window's value does not
    /// depend on which other windows share its batch.
    fn window_nlls(&self, ctxs: &[u32], targets: &[u32]) -> Vec<f64> {
        let c = self.config.context;
        let mut out = Vec::with_capacity(targets.len());
        // Bounded batches keep the logits matrix (batch × vocab) small.
        for (ctx_chunk, target_chunk) in ctxs.chunks(EVAL_BATCH * c).zip(targets.chunks(EVAL_BATCH))
        {
            let (_, _, mut logits) = self.forward_batch(ctx_chunk);
            for (e, &target) in target_chunk.iter().enumerate() {
                out.push(softmax_row_in_place(logits.row_mut(e), target as usize));
            }
        }
        out
    }

    /// Average per-token negative log-likelihood over pre-encoded id
    /// sequences, evaluated with the batched forward kernel.
    pub fn nll_ids(&self, ids: &[Vec<u32>]) -> f64 {
        let (ctxs, targets) = self.flatten_positions(ids);
        if targets.is_empty() {
            return 0.0;
        }
        let mut total = 0.0f64;
        for v in self.window_nlls(&ctxs, &targets) {
            total += v;
        }
        total / targets.len() as f64
    }

    /// Average per-token negative log-likelihood of *each* sequence,
    /// scored in one batched pass: `nll_each_ids(seqs)[i]` is
    /// bit-identical to `nll_ids(&[seqs[i].clone()])` (0 for an empty
    /// sequence).
    ///
    /// Candidate snippets of one target function share most of their
    /// `(context, target)` windows, so every distinct window is
    /// evaluated once and each sequence then sums its windows' values
    /// in position order, exactly as [`NgramLm::nll_ids`] does. Every
    /// step of the batched forward (the GEMMs, bias adds, `tanh` and
    /// row softmax) works row by row, so deduplicating and re-batching
    /// windows changes no bit.
    pub fn nll_each_ids(&self, seqs: &[Vec<u32>]) -> Vec<f64> {
        let c = self.config.context;
        let (ctxs, targets) = self.flatten_positions(seqs);
        // Distinct windows in first-seen order, and each position's slot.
        let mut slot_of: HashMap<(&[u32], u32), usize> = HashMap::new();
        let mut uniq_ctxs: Vec<u32> = Vec::new();
        let mut uniq_targets: Vec<u32> = Vec::new();
        let slots: Vec<usize> = targets
            .iter()
            .enumerate()
            .map(|(p, &target)| {
                let ctx = &ctxs[p * c..(p + 1) * c];
                *slot_of.entry((ctx, target)).or_insert_with(|| {
                    uniq_ctxs.extend_from_slice(ctx);
                    uniq_targets.push(target);
                    uniq_targets.len() - 1
                })
            })
            .collect();
        let values = self.window_nlls(&uniq_ctxs, &uniq_targets);
        let mut rest = &slots[..];
        seqs.iter()
            .map(|seq| {
                let (own, tail) = rest.split_at(seq.len());
                rest = tail;
                if own.is_empty() {
                    return 0.0;
                }
                let mut total = 0.0f64;
                for &slot in own {
                    total += values[slot];
                }
                total / own.len() as f64
            })
            .collect()
    }

    /// Average per-token negative log-likelihood over sequences.
    pub fn nll(&self, sequences: &[Vec<String>]) -> f64 {
        self.nll_ids(&self.encode_corpus(sequences))
    }

    /// Perplexity `exp(nll)`.
    pub fn perplexity(&self, sequences: &[Vec<String>]) -> f64 {
        self.nll(sequences).exp()
    }

    /// Average log-probability of a single token sequence (fluency score;
    /// higher is more fluent).
    pub fn fluency(&self, tokens: &[String]) -> f64 {
        -self.nll_ids(std::slice::from_ref(&self.encode_ids(tokens)))
    }

    /// Samples up to `max_len` tokens after `prefix` with the given
    /// temperature, using a seeded RNG.
    pub fn sample(
        &self,
        prefix: &[String],
        max_len: usize,
        temperature: f32,
        seed: u64,
    ) -> Vec<String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ctx = vec![BOS; self.config.context];
        for id in self.encode(prefix) {
            ctx.remove(0);
            ctx.push(id);
        }
        let mut out = Vec::new();
        for _ in 0..max_len {
            let (_, _, logits) = self.logits(&ctx);
            let probs = softmax_with_temperature(&logits, temperature);
            let pick = sample_index(&probs, rng.gen::<f32>());
            if pick == BOS {
                break;
            }
            out.push(self.vocab.resolve(pick as u32).to_string());
            ctx.remove(0);
            ctx.push(pick);
        }
        out
    }
}

/// In-place softmax over one logits row with the vectorizable
/// [`crate::exp_approx`] / lane reductions, returning the negative log
/// likelihood of `target`. Shared by the batched gradient and batched
/// eval paths so train-time and eval-time probabilities stay
/// numerically identical.
fn softmax_row_in_place(row: &mut [f32], target: usize) -> f64 {
    let max = crate::tensor::max_lanes(row);
    for v in row.iter_mut() {
        *v = crate::exp_approx(*v - max);
    }
    let inv_sum = 1.0 / crate::tensor::sum_lanes(row);
    for v in row.iter_mut() {
        *v *= inv_sum;
    }
    -((row[target].max(1e-12)) as f64).ln()
}

/// Splits source text into crude code tokens: identifiers, numbers, and
/// single punctuation characters. Shared by the LM corpus builder and
/// the fluency scorer so both see the same token stream.
pub fn code_tokens(source: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    for c in source.chars() {
        if c.is_alphanumeric() || c == '_' {
            cur.push(c);
        } else {
            if !cur.is_empty() {
                tokens.push(std::mem::take(&mut cur));
            }
            if !c.is_whitespace() {
                tokens.push(c.to_string());
            } else if c == '\n' {
                tokens.push("<nl>".to_string());
            }
        }
    }
    if !cur.is_empty() {
        tokens.push(cur);
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_corpus() -> Vec<Vec<String>> {
        let lines = [
            "raise TimeoutError ( msg )",
            "raise ValueError ( msg )",
            "try : x = f ( ) except TimeoutError : pass",
            "raise TimeoutError ( msg )",
        ];
        lines
            .iter()
            .map(|l| l.split_whitespace().map(str::to_string).collect())
            .collect()
    }

    #[test]
    fn training_reduces_nll() {
        let corpus = tiny_corpus();
        let mut lm = NgramLm::new(&corpus, LmConfig::default());
        let before = lm.nll(&corpus);
        for _ in 0..30 {
            lm.train_epoch(&corpus, 0.05);
        }
        let after = lm.nll(&corpus);
        assert!(
            after < before * 0.7,
            "nll did not drop enough: {before} -> {after}"
        );
    }

    #[test]
    fn batched_training_reduces_nll() {
        let corpus = tiny_corpus();
        let mut lm = NgramLm::new(&corpus, LmConfig::default());
        let ids = lm.encode_corpus(&corpus);
        let before = lm.nll_ids(&ids);
        for _ in 0..30 {
            lm.train_epoch_batched(&ids, 0.05, 8);
        }
        let after = lm.nll_ids(&ids);
        assert!(
            after < before * 0.7,
            "batched nll did not drop enough: {before} -> {after}"
        );
    }

    #[test]
    fn batch_gradients_equal_summed_example_gradients() {
        let corpus = tiny_corpus();
        let lm = NgramLm::new(&corpus, LmConfig::default());
        let ids = lm.encode_corpus(&corpus);
        // Build the first 8 positions by hand.
        let c = LmConfig::default().context;
        let mut ctxs: Vec<u32> = Vec::new();
        let mut targets: Vec<u32> = Vec::new();
        'outer: for seq in &ids {
            let mut ctx = vec![BOS as u32; c];
            for &t in seq {
                ctxs.extend_from_slice(&ctx);
                targets.push(t);
                ctx.remove(0);
                ctx.push(t);
                if targets.len() == 8 {
                    break 'outer;
                }
            }
        }
        let batched = lm.batch_gradients(&ctxs, &targets);
        assert_eq!(batched.count, 8);

        let mut reference = lm.example_gradients(
            &ctxs[0..c].iter().map(|&i| i as usize).collect::<Vec<_>>(),
            targets[0] as usize,
        );
        for e in 1..8 {
            let ctx: Vec<usize> = ctxs[e * c..(e + 1) * c]
                .iter()
                .map(|&i| i as usize)
                .collect();
            let g = lm.example_gradients(&ctx, targets[e] as usize);
            reference.embed.add_scaled(1.0, &g.embed);
            reference.w1.add_scaled(1.0, &g.w1);
            reference.w2.add_scaled(1.0, &g.w2);
            for (a, b) in reference.b1.iter_mut().zip(g.b1.iter()) {
                *a += b;
            }
            for (a, b) in reference.b2.iter_mut().zip(g.b2.iter()) {
                *a += b;
            }
            reference.nll += g.nll;
        }

        let close = |a: &Matrix, b: &Matrix, what: &str| {
            for (x, y) in a.data().iter().zip(b.data().iter()) {
                assert!(
                    (x - y).abs() < 1e-5,
                    "{what}: batched {x} vs per-example {y}"
                );
            }
        };
        close(&batched.embed, &reference.embed, "embed");
        close(&batched.w1, &reference.w1, "w1");
        close(&batched.w2, &reference.w2, "w2");
        for (x, y) in batched.b1.iter().zip(reference.b1.iter()) {
            assert!((x - y).abs() < 1e-5, "b1");
        }
        for (x, y) in batched.b2.iter().zip(reference.b2.iter()) {
            assert!((x - y).abs() < 1e-5, "b2");
        }
        assert!((batched.nll - reference.nll).abs() < 1e-5);
    }

    #[test]
    fn batched_nll_matches_per_example_nll() {
        let corpus = tiny_corpus();
        let mut lm = NgramLm::new(&corpus, LmConfig::default());
        for _ in 0..5 {
            lm.train_epoch(&corpus, 0.05);
        }
        // Per-example reference NLL via the scalar kernels.
        let encoded: Vec<Vec<usize>> = corpus.iter().map(|s| lm.encode(s)).collect();
        let mut total = 0.0f64;
        let mut count = 0usize;
        for seq in &encoded {
            let mut ctx = vec![BOS; lm.config.context];
            for &target in seq {
                let (_, _, logits) = lm.logits(&ctx);
                let probs = crate::softmax(&logits);
                total += -(probs[target].max(1e-12) as f64).ln();
                count += 1;
                ctx.remove(0);
                ctx.push(target);
            }
        }
        let reference = total / count as f64;
        // The batched eval path uses exp_approx (~2e-7 relative), the
        // per-example reference libm exp.
        assert!((lm.nll(&corpus) - reference).abs() < 1e-6);
    }

    #[test]
    fn perplexity_is_exp_of_nll() {
        let corpus = tiny_corpus();
        let lm = NgramLm::new(&corpus, LmConfig::default());
        let nll = lm.nll(&corpus);
        assert!((lm.perplexity(&corpus) - nll.exp()).abs() < 1e-9);
    }

    #[test]
    fn oov_tokens_map_to_unk() {
        let corpus = tiny_corpus();
        let lm = NgramLm::new(&corpus, LmConfig::default());
        let ids = lm.encode(&["utterly_novel_token".to_string()]);
        assert_eq!(ids, vec![UNK]);
        assert_eq!(
            lm.encode_ids(&["utterly_novel_token".to_string()]),
            vec![UNK as u32]
        );
    }

    #[test]
    fn trained_model_prefers_seen_continuations() {
        let corpus = tiny_corpus();
        let mut lm = NgramLm::new(&corpus, LmConfig::default());
        for _ in 0..60 {
            lm.train_epoch(&corpus, 0.05);
        }
        let seen: Vec<String> = "raise TimeoutError ( msg )"
            .split_whitespace()
            .map(str::to_string)
            .collect();
        let shuffled: Vec<String> = ") msg ( TimeoutError raise"
            .split_whitespace()
            .map(str::to_string)
            .collect();
        assert!(
            lm.fluency(&seen) > lm.fluency(&shuffled),
            "fluency should prefer trained order"
        );
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let corpus = tiny_corpus();
        let mut lm = NgramLm::new(&corpus, LmConfig::default());
        for _ in 0..20 {
            lm.train_epoch(&corpus, 0.05);
        }
        let prefix = vec!["raise".to_string()];
        let a = lm.sample(&prefix, 5, 0.8, 11);
        let b = lm.sample(&prefix, 5, 0.8, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn code_tokens_split_identifiers_and_punctuation() {
        let toks = code_tokens("raise TimeoutError(\"db timeout\")");
        assert!(toks.contains(&"raise".to_string()));
        assert!(toks.contains(&"TimeoutError".to_string()));
        assert!(toks.contains(&"(".to_string()));
        assert!(toks.contains(&"\"".to_string()));
    }

    #[test]
    fn empty_corpus_yields_zero_nll() {
        let lm = NgramLm::new(&[], LmConfig::default());
        assert_eq!(lm.nll(&[]), 0.0);
        assert_eq!(lm.vocab_size(), 2);
        let mut lm2 = NgramLm::new(&[], LmConfig::default());
        assert_eq!(lm2.train_epoch_batched(&[], 0.05, 8), 0.0);
    }
}
