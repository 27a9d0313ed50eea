//! ExprLLM — the LLM-based gate text encoder (paper Sec. II-C, eq. 1).
//!
//! A bidirectional transformer text encoder over gate-attribute token
//! sequences, standing in for LLM2Vec-adapted Llama-3.1-8B. The
//! architecture matches the paper's adaptation: full (non-causal)
//! attention, a `[CLS]` pooling position, and a projection into the shared
//! embedding space. Pre-trained with symbolic-expression contrastive
//! learning (objective #1) in [`crate::pretrain`].

use crate::config::NetTagConfig;
use nettag_expr::token::{TokenId, Vocab};
use nettag_nn::{
    infer, Embedding, Graph, Layer, LayerNorm, Linear, NodeId, Param, Tensor, TransformerBlock,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The gate-attribute text encoder.
#[derive(Debug, Clone)]
pub struct ExprLlm {
    /// Token embedding table.
    pub embed: Embedding,
    /// Learned positional embeddings (max_tokens × dim).
    pub pos: Param,
    /// Transformer stack (bidirectional attention).
    pub blocks: Vec<TransformerBlock>,
    /// Final norm.
    pub ln: LayerNorm,
    /// Projection into the shared embedding space.
    pub proj: Linear,
    /// Maximum sequence length.
    pub max_tokens: usize,
}

impl ExprLlm {
    /// Builds ExprLLM for a vocabulary and configuration.
    pub fn new(vocab: &Vocab, config: &NetTagConfig) -> ExprLlm {
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xE59);
        ExprLlm {
            embed: Embedding::new(vocab.len(), config.text_dim, &mut rng),
            pos: Param::xavier(config.max_tokens, config.text_dim, &mut rng),
            blocks: (0..config.text_layers)
                .map(|_| TransformerBlock::new(config.text_dim, config.text_heads, 2, &mut rng))
                .collect(),
            ln: LayerNorm::new(config.text_dim),
            proj: Linear::new(config.text_dim, config.embed_dim, &mut rng),
            max_tokens: config.max_tokens,
        }
    }

    /// Differentiable forward for one token sequence → 1×embed_dim
    /// (the `[CLS]` position's projected output, `T_i = ExprLLM(t_i)`).
    pub fn forward(&self, g: &mut Graph, tokens: &[TokenId]) -> NodeId {
        let n = tokens.len().min(self.max_tokens);
        let toks = &tokens[..n];
        let mut x = self.embed.forward(g, toks);
        // Positional embeddings: gather the first n rows.
        let pos_all = self.pos.bind(g);
        let pos = g.gather_rows(pos_all, std::sync::Arc::new((0..n as u32).collect()));
        x = g.add(x, pos);
        for b in &self.blocks {
            x = b.forward(g, x);
        }
        let x = self.ln.forward(g, x);
        let cls = g.select_row(x, 0);
        self.proj.forward(g, cls)
    }

    /// Inference-only encoding of one sequence: row 0 of
    /// [`Self::encode_batch`], bit-identical to [`Self::forward`].
    pub fn encode(&self, tokens: &[TokenId]) -> Tensor {
        self.encode_batch(&[tokens])
    }

    /// Inference-only batch encoding (no tape), one row per sequence,
    /// `batch.len() × embed_dim`; an empty batch gives `0 × embed_dim`.
    ///
    /// The rows of every sequence (truncated to `max_tokens`) are packed
    /// into one tensor, so each block's row-wise ops run once over all of
    /// them through the row-parallel kernels while attention stays inside
    /// each sequence. The last block carries only the `[CLS]` rows past
    /// its keys and values, since nothing else is read. Every kernel
    /// computes each row on its own, so row `i` is bitwise
    /// [`Self::forward`] of `batch[i]` on the scalar and AVX2 tiers
    /// (pinned by `tests/exprllm_packed.rs`).
    ///
    /// # Panics
    ///
    /// Panics if a sequence is empty.
    pub fn encode_batch<T: AsRef<[TokenId]>>(&self, batch: &[T]) -> Tensor {
        let mut spans = Vec::with_capacity(batch.len());
        let (mut ids, mut positions) = (Vec::new(), Vec::new());
        for t in batch {
            let toks = t.as_ref();
            let n = toks.len().min(self.max_tokens);
            assert!(n > 0, "ExprLLM needs at least one token per sequence");
            spans.push(ids.len()..ids.len() + n);
            ids.extend_from_slice(&toks[..n]);
            positions.extend(0..n as u32);
        }
        let mut x = self.embed.infer(&ids);
        x.add_assign(&infer::gather_rows(&self.pos.value, &positions));
        for (i, b) in self.blocks.iter().enumerate() {
            x = b.infer(&x, &spans, i + 1 == self.blocks.len());
        }
        if self.blocks.is_empty() {
            let firsts: Vec<u32> = spans.iter().map(|s| s.start as u32).collect();
            x = infer::gather_rows(&x, &firsts);
        }
        self.proj.infer(&self.ln.infer(&x))
    }
}

impl Layer for ExprLlm {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.embed.params_mut();
        p.push(&mut self.pos);
        for b in &mut self.blocks {
            p.extend(b.params_mut());
        }
        p.extend(self.ln.params_mut());
        p.extend(self.proj.params_mut());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettag_expr::parse_expr;
    use nettag_expr::token::tokenize_expr;

    fn setup() -> (Vocab, ExprLlm, NetTagConfig) {
        let vocab = Vocab::default();
        let config = NetTagConfig::tiny();
        let model = ExprLlm::new(&vocab, &config);
        (vocab, model, config)
    }

    #[test]
    fn encode_produces_embed_dim_vector() {
        let (vocab, model, config) = setup();
        let e = parse_expr("!((R1 ^ R2) | !R2)").expect("parses");
        let toks = tokenize_expr(&vocab, &e, config.max_tokens);
        let emb = model.encode(&toks);
        assert_eq!((emb.rows, emb.cols), (1, config.embed_dim));
        assert!(emb.data.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn encoding_is_deterministic_and_input_sensitive() {
        let (vocab, model, config) = setup();
        let a = tokenize_expr(&vocab, &parse_expr("a & b").expect("p"), config.max_tokens);
        let b = tokenize_expr(&vocab, &parse_expr("a | b").expect("p"), config.max_tokens);
        let e1 = model.encode(&a);
        let e2 = model.encode(&a);
        let e3 = model.encode(&b);
        assert_eq!(e1, e2);
        assert_ne!(e1, e3, "different expressions embed differently");
    }

    #[test]
    fn long_sequences_are_truncated() {
        let (_vocab, model, _) = setup();
        let long: Vec<TokenId> = (0..500).map(|i| (i % 20) as TokenId).collect();
        let emb = model.encode(&long);
        assert!(emb.data.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn batch_matches_single() {
        let (vocab, model, config) = setup();
        let a = tokenize_expr(&vocab, &parse_expr("a & b").expect("p"), config.max_tokens);
        let b = tokenize_expr(&vocab, &parse_expr("!c").expect("p"), config.max_tokens);
        let batch = model.encode_batch(&[a.clone(), b.clone()]);
        let ea = model.encode(&a);
        assert_eq!(batch.row_slice(0), &ea.data[..]);
    }

    #[test]
    fn encode_matches_tape_forward_bitwise() {
        let (vocab, model, config) = setup();
        let e = parse_expr("!((R1 ^ R2) | !R2)").expect("parses");
        let toks = tokenize_expr(&vocab, &e, config.max_tokens);
        let mut g = Graph::new();
        let out = model.forward(&mut g, &toks);
        assert_eq!(g.value(out).data, model.encode(&toks).data);
    }

    #[test]
    fn has_trainable_parameters() {
        let (_, mut model, _) = setup();
        assert!(model.param_count() > 1000);
    }
}
