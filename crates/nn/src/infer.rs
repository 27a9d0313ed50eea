//! Tapeless inference forwards for frozen models.
//!
//! Training forwards run on the autograd [`Graph`](crate::Graph) and pay
//! for every activation twice: once to compute it and once to keep it
//! alive on the tape for the backward pass. A serving path through a
//! frozen model needs neither the tape nor the saved activations, so this
//! module gives every layer an `infer` method that produces plain
//! [`Tensor`]s and drops intermediates as soon as their consumers finish.
//!
//! Attention and the transformer block run over **packed sequences**:
//! the rows of many independent sequences sit in one tensor, every
//! row-wise op (layer norm, projections, FFN, residuals) runs once over
//! all of them, and attention stays inside each sequence's row span.
//! All heads' Q, K and V come from one `matmul_bias` each, against the
//! heads' weights concatenated by column; each head's scores and `P·V`
//! run through the same register tiles as the tape's `matmul_bt` and
//! `matmul`.
//!
//! **Bitwise contract:** every kernel computes each output row on its
//! own, and each output element with the same reduction the tape op uses
//! (ascending-`k` products, the crate's `dot` order, the shared softmax
//! row, the layer-norm row kernel, the tanh-GELU scalar). Packing rows,
//! fusing head columns or splitting rows over threads therefore changes
//! no bit: tapeless outputs equal `Graph`-built forwards on the scalar
//! and AVX2 tiers, as the tests below and `nettag-core`'s
//! `exprllm_packed` pin. The opt-in FMA tier is held only to its
//! ulp-tolerance contract against scalar (`tests/simd_fma.rs`), not to
//! this pin.

use crate::graph::gelu;
use crate::layers::{
    Embedding, FeedForward, LayerNorm, Linear, Mlp, MultiHeadAttention, TransformerBlock,
};
use crate::simd::{BT_CT, MM_RT};
use crate::tensor::{mm_rows, pack_bt, run_row_blocks, softmax_row, SparseMatrix, Tensor};
use std::ops::Range;
use std::slice;

impl Linear {
    /// Tapeless `x @ W + b` (mirrors [`Graph::linear`](crate::Graph::linear)).
    pub fn infer(&self, x: &Tensor) -> Tensor {
        x.matmul_bias(&self.w.value, &self.b.value)
    }

    /// Tapeless `relu(x @ W + b)` (mirrors
    /// [`Graph::linear_relu`](crate::Graph::linear_relu)).
    pub fn infer_relu(&self, x: &Tensor) -> Tensor {
        let mut v = x.matmul_bias(&self.w.value, &self.b.value);
        for o in v.data.iter_mut() {
            *o = o.max(0.0);
        }
        v
    }
}

impl Embedding {
    /// Tapeless token lookup.
    pub fn infer(&self, ids: &[u32]) -> Tensor {
        gather_rows(&self.table.value, ids)
    }
}

impl LayerNorm {
    /// Tapeless row-wise layer norm (same per-row reduction order as the
    /// tape op: ascending-column mean, then variance, then normalize),
    /// row-parallel once the tensor is large enough.
    pub fn infer(&self, x: &Tensor) -> Tensor {
        const EPS: f32 = 1e-5;
        let (gv, bv) = (&self.gain.value, &self.bias.value);
        let cols = x.cols;
        let mut out = Tensor::zeros(x.rows, x.cols);
        let kn = crate::simd::kernels();
        // About eight flops per element: two reductions and the row kernel.
        run_row_blocks(&mut out.data, cols, 8 * x.data.len(), |first_row, chunk| {
            // The row kernel also emits xhat (the tape op saves it for the
            // backward pass); inference discards it via one scratch row.
            let mut xhat = vec![0.0f32; cols];
            for (r, out_row) in chunk.chunks_exact_mut(cols).enumerate() {
                let row = x.row_slice(first_row + r);
                let mean = row.iter().sum::<f32>() / cols as f32;
                let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
                let istd = 1.0 / (var + EPS).sqrt();
                (kn.ln_fwd_row)(out_row, &mut xhat, row, &gv.data, &bv.data, mean, istd);
            }
        });
        out
    }
}

impl MultiHeadAttention {
    /// Tapeless full self-attention over an n×d sequence.
    pub fn infer(&self, x: &Tensor) -> Tensor {
        self.infer_cross(x, x)
    }

    /// Tapeless cross-attention (queries from `query`, keys/values from
    /// `context`), bitwise equal to
    /// [`MultiHeadAttention::forward_cross`](crate::layers::MultiHeadAttention::forward_cross).
    pub fn infer_cross(&self, query: &Tensor, context: &Tensor) -> Tensor {
        let (q, c) = (0..query.rows, 0..context.rows);
        self.infer_packed(query, context, slice::from_ref(&q), slice::from_ref(&c))
    }

    /// Tapeless attention over packed sequences: the query rows
    /// `query_spans[s]` of `query` attend to the rows `context_spans[s]`
    /// of `context` and nothing else. Q, K and V each take one
    /// `matmul_bias` over all rows; scores, softmax and `A·V` run per
    /// span and head on column slices through the `matmul_bt` and
    /// `matmul` register tiles, in blocks of query rows spread over the
    /// worker pool. Output is `query.rows × d`.
    ///
    /// # Panics
    ///
    /// Panics unless the two span lists have equal length and
    /// `query_spans` tiles `0..query.rows` in order.
    pub fn infer_packed(
        &self,
        query: &Tensor,
        context: &Tensor,
        query_spans: &[Range<usize>],
        context_spans: &[Range<usize>],
    ) -> Tensor {
        assert_eq!(query_spans.len(), context_spans.len(), "one span per side");
        assert!(
            query_spans.windows(2).all(|w| w[0].end == w[1].start)
                && query_spans.first().map_or(0, |r| r.start) == 0
                && query_spans.last().map_or(0, |r| r.end) == query.rows,
            "query spans must tile the query rows in order"
        );
        let q = infer_heads(&self.wq, query);
        let k = infer_heads(&self.wk, context);
        let v = infer_heads(&self.wv, context);
        let (width, hd) = (q.cols, self.head_dim);
        let scale = 1.0 / (hd as f32).sqrt();
        let flops: usize = query_spans
            .iter()
            .zip(context_spans)
            .map(|(qs, cs)| 2 * qs.len() * cs.len() * width)
            .sum();
        let mut cat = Tensor::zeros(query.rows, width);
        let kn = crate::simd::kernels();
        run_row_blocks(&mut cat.data, width, flops, |first_row, chunk| {
            let end_row = first_row + chunk.len() / width;
            let (mut kpack, mut p) = (Vec::new(), Vec::new());
            let first = query_spans.partition_point(|r| r.end <= first_row);
            for (qs, ctx) in query_spans[first..].iter().zip(&context_spans[first..]) {
                let rows = qs.start.max(first_row)..qs.end.min(end_row);
                if qs.start >= end_row {
                    break;
                }
                if rows.is_empty() || ctx.is_empty() {
                    continue;
                }
                let padded = ctx.len().next_multiple_of(BT_CT);
                for c0 in (0..width).step_by(hd) {
                    // The tape's matmul_bt / scale / softmax_rows /
                    // matmul per head, on column slices: scores are one
                    // packed Kᵀ sweep per query row, P·V one register
                    // tile per MM_RT query rows.
                    let kh = &k.data[ctx.start * width + c0..];
                    pack_bt(kh, width, ctx.len(), hd, &mut kpack);
                    for i0 in rows.clone().step_by(MM_RT) {
                        let r = (rows.end - i0).min(MM_RT);
                        p.resize(r * padded, 0.0);
                        for (t, prow) in p.chunks_exact_mut(padded).enumerate() {
                            (kn.bt_row)(&q.row_slice(i0 + t)[c0..c0 + hd], &kpack, prow);
                            let prow = &mut prow[..ctx.len()];
                            for s in prow.iter_mut() {
                                *s *= scale;
                            }
                            softmax_row(prow);
                        }
                        let prows: [&[f32]; MM_RT] =
                            std::array::from_fn(|t| &p[t.min(r - 1) * padded..][..ctx.len()]);
                        mm_rows(
                            kn,
                            &prows[..r],
                            &v.data[ctx.start * width + c0..],
                            width,
                            &mut chunk[(i0 - first_row) * width + c0..],
                            width,
                            hd,
                        );
                    }
                }
            }
        });
        self.wo.infer(&cat)
    }
}

/// `x @ [W_0 | W_1 | …] + [b_0 | b_1 | …]`: every head's projection in one
/// `matmul_bias`, head `h` in columns `h·head_dim..(h+1)·head_dim`. Each
/// element is the same ascending-`k` sum plus bias as `heads[h].infer(x)`,
/// so the columns are bitwise those per-head products, while the wide
/// output runs through the register tiles.
fn infer_heads(heads: &[Linear], x: &Tensor) -> Tensor {
    let w: Vec<&Tensor> = heads.iter().map(|l| &l.w.value).collect();
    let b: Vec<&Tensor> = heads.iter().map(|l| &l.b.value).collect();
    x.matmul_bias(&concat_cols(&w), &concat_cols(&b))
}

impl FeedForward {
    /// Tapeless position-wise FFN (GELU between the two projections).
    pub fn infer(&self, x: &Tensor) -> Tensor {
        let mut h = self.lin1.infer(x);
        // GELU's tanh is worth about sixteen flops per element.
        let len = h.data.len();
        run_row_blocks(&mut h.data, h.cols, 16 * len, |_, chunk| {
            for v in chunk.iter_mut() {
                *v = gelu(*v);
            }
        });
        self.lin2.infer(&h)
    }
}

impl TransformerBlock {
    /// Tapeless pre-norm block over packed sequences: sequence `s` is rows
    /// `spans[s]` of `x`, and attention stays inside each span. With
    /// `first_rows_only` the block keeps only each sequence's first row
    /// (its `[CLS]` position): keys and values still cover every row, but
    /// queries, `W_o`, the second norm and the FFN run on one row per
    /// sequence, and the result is those `spans.len()` rows of the full
    /// block, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `first_rows_only` and a span is empty.
    pub fn infer(&self, x: &Tensor, spans: &[Range<usize>], first_rows_only: bool) -> Tensor {
        let n1 = self.ln1.infer(x);
        let (mut x1, a) = if first_rows_only {
            assert!(spans.iter().all(|s| !s.is_empty()), "empty sequence");
            let firsts: Vec<u32> = spans.iter().map(|s| s.start as u32).collect();
            let one_each: Vec<Range<usize>> = (0..spans.len()).map(|s| s..s + 1).collect();
            let q = gather_rows(&n1, &firsts);
            let a = self.attn.infer_packed(&q, &n1, &one_each, spans);
            (gather_rows(x, &firsts), a)
        } else {
            (x.clone(), self.attn.infer_packed(&n1, &n1, spans, spans))
        };
        x1.add_assign(&a);
        let n2 = self.ln2.infer(&x1);
        x1.add_assign(&self.ffn.infer(&n2));
        x1
    }
}

impl Mlp {
    /// Tapeless MLP forward (fused ReLU on hidden layers, none after the
    /// last — same shape as [`Mlp::forward`]).
    pub fn infer(&self, x: &Tensor) -> Tensor {
        let mut cur: Option<Tensor> = None;
        for (i, l) in self.layers.iter().enumerate() {
            let input = cur.as_ref().unwrap_or(x);
            cur = Some(if i + 1 != self.layers.len() {
                l.infer_relu(input)
            } else {
                l.infer(input)
            });
        }
        cur.unwrap_or_else(|| x.clone())
    }
}

/// Elementwise sum (mirrors [`Graph::add`](crate::Graph::add)).
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    let mut v = a.clone();
    v.add_assign(b);
    v
}

/// Sparse propagation `adj @ x` (mirrors [`Graph::spmm`](crate::Graph::spmm)).
pub fn spmm(adj: &SparseMatrix, x: &Tensor) -> Tensor {
    adj.matmul(x)
}

/// Row gather (mirrors [`Graph::gather_rows`](crate::Graph::gather_rows)).
pub fn gather_rows(table: &Tensor, ids: &[u32]) -> Tensor {
    let mut v = Tensor::zeros(ids.len(), table.cols);
    for (r, &id) in ids.iter().enumerate() {
        let dst = &mut v.data[r * table.cols..(r + 1) * table.cols];
        dst.copy_from_slice(table.row_slice(id as usize));
    }
    v
}

/// Horizontal concatenation of equal-row tensors (mirrors
/// [`Graph::concat_cols`](crate::Graph::concat_cols)).
pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
    assert!(!parts.is_empty(), "concat of nothing");
    let rows = parts[0].rows;
    let total: usize = parts.iter().map(|p| p.cols).sum();
    let mut v = Tensor::zeros(rows, total);
    let mut off = 0;
    for t in parts {
        assert_eq!(t.rows, rows, "concat rows");
        for r in 0..rows {
            let dst = &mut v.data[r * total + off..r * total + off + t.cols];
            dst.copy_from_slice(t.row_slice(r));
        }
        off += t.cols;
    }
    v
}

/// Vertical stacking of equal-column tensors (mirrors
/// [`Graph::concat_rows`](crate::Graph::concat_rows)).
pub fn concat_rows(parts: &[Tensor]) -> Tensor {
    assert!(!parts.is_empty(), "concat of nothing");
    let cols = parts[0].cols;
    let total: usize = parts.iter().map(|p| p.rows).sum();
    let mut v = Tensor::zeros(total, cols);
    let mut off = 0;
    for t in parts {
        assert_eq!(t.cols, cols, "concat_rows widths");
        v.data[off * cols..(off + t.rows) * cols].copy_from_slice(&t.data);
        off += t.rows;
    }
    v
}

/// One row as 1×c (mirrors [`Graph::select_row`](crate::Graph::select_row)).
pub fn select_row(x: &Tensor, r: usize) -> Tensor {
    Tensor::row(x.row_slice(r).to_vec())
}

/// First `n` rows as n×c (tapeless counterpart of gathering a prefix).
pub fn take_rows(x: &Tensor, n: usize) -> Tensor {
    let mut v = Tensor::zeros(n, x.cols);
    v.data.copy_from_slice(&x.data[..n * x.cols]);
    v
}

/// Mean over rows (mirrors [`Graph::mean_rows`](crate::Graph::mean_rows)).
pub fn mean_rows(x: &Tensor) -> Tensor {
    let mut v = Tensor::zeros(1, x.cols);
    for r in 0..x.rows {
        for c in 0..x.cols {
            v.data[c] += x.at(r, c);
        }
    }
    let n = x.rows.max(1) as f32;
    for c in v.data.iter_mut() {
        *c /= n;
    }
    v
}

/// Row-wise L2 normalization (mirrors
/// [`Graph::normalize_rows`](crate::Graph::normalize_rows)).
pub fn normalize_rows(x: &Tensor) -> Tensor {
    let mut v = x.clone();
    for r in 0..x.rows {
        let n = x
            .row_slice(r)
            .iter()
            .map(|a| a * a)
            .sum::<f32>()
            .sqrt()
            .max(1e-9);
        for c in 0..x.cols {
            *v.at_mut(r, c) /= n;
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::{SimdTier, MM_CT, MM_RT};
    use crate::Graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The bitwise tiers this host runs (scalar always, AVX2 if detected).
    fn bitwise_tiers() -> Vec<SimdTier> {
        [SimdTier::Scalar, SimdTier::Avx2]
            .into_iter()
            .filter(|&t| crate::simd::kernels_for(t).is_some())
            .collect()
    }

    fn tape_block(block: &TransformerBlock, x: &Tensor) -> Tensor {
        let mut g = Graph::new();
        let xn = g.constant(x.clone());
        let y = block.forward(&mut g, xn);
        g.value(y).clone()
    }

    #[test]
    fn packed_transformer_block_matches_tape_bitwise() {
        let mut rng = StdRng::seed_from_u64(99);
        let block = TransformerBlock::new(16, 4, 2, &mut rng);
        let lens = [7, 1, 3, MM_RT, 17, 2];
        let seqs: Vec<Tensor> = lens
            .iter()
            .map(|&n| Tensor::xavier(n, 16, &mut rng))
            .collect();
        let refs: Vec<&Tensor> = seqs.iter().collect();
        let packed = concat_rows(&seqs);
        let mut spans = Vec::new();
        for &n in &lens {
            let start = spans.last().map_or(0, |r: &Range<usize>| r.end);
            spans.push(start..start + n);
        }
        for tier in bitwise_tiers() {
            crate::simd::with_tier(tier, || {
                let tape: Vec<Tensor> = refs.iter().map(|x| tape_block(&block, x)).collect();
                assert_eq!(
                    block
                        .infer(&seqs[0], slice::from_ref(&spans[0]), false)
                        .data,
                    tape[0].data,
                    "{tier:?}: one sequence"
                );
                let full = block.infer(&packed, &spans, false);
                assert_eq!(full.data, concat_rows(&tape).data, "{tier:?}: packed");
                let firsts = block.infer(&packed, &spans, true);
                assert_eq!(firsts.rows, lens.len());
                for (s, t) in tape.iter().enumerate() {
                    assert_eq!(
                        firsts.row_slice(s),
                        t.row_slice(0),
                        "{tier:?}: first row {s}"
                    );
                }
            });
        }
    }

    #[test]
    fn cross_attention_infer_matches_tape_bitwise() {
        let mut rng = StdRng::seed_from_u64(41);
        let attn = MultiHeadAttention::new(16, 4, &mut rng);
        let q = Tensor::xavier(1, 16, &mut rng);
        let kv = Tensor::xavier(11, 16, &mut rng);
        let mut g = Graph::new();
        let qn = g.constant(q.clone());
        let kn = g.constant(kv.clone());
        let y = attn.forward_cross(&mut g, qn, kn);
        let y_tape = g.value(y).clone();
        let y_infer = attn.infer_cross(&q, &kv);
        assert_eq!(y_tape.rows, 1);
        assert_eq!(y_tape.data, y_infer.data, "tapeless must be bit-identical");
        // Self-attention is the degenerate case of cross-attention; the
        // delegation must not change bits.
        let mut g2 = Graph::new();
        let xn = g2.constant(kv.clone());
        let self_attn = attn.forward(&mut g2, xn);
        assert_eq!(
            g2.value(self_attn).data,
            attn.infer_cross(&kv, &kv).data,
            "forward(x) == infer_cross(x, x) bit for bit"
        );
    }

    /// The fused Q/K/V product, the packed `matmul_bt` score sweep and the
    /// `P·V` tile run through full tiles and edge tiles depending on
    /// `heads · head_dim`, the head width and the span lengths: cover head
    /// widths below and at least `MM_CT` (with the `tiny` and `small`
    /// models' 8 and 12), and packed query spans of every length 1–9
    /// around `MM_RT`, one sequence and packed.
    #[test]
    fn attention_infer_matches_tape_across_tile_shapes() {
        let mut rng = StdRng::seed_from_u64(7);
        // (dim, heads): head_dim 12 with a 16 + 8 fused width, head_dim 8
        // (fused 32), head_dim 6 with a fused width below MM_CT, head_dim
        // 32 >= MM_CT.
        let shapes = [(24, 2), (32, 4), (12, 2), (64, 2)];
        assert!(shapes.iter().any(|&(d, h)| d / h < MM_CT));
        assert!(shapes.iter().any(|&(d, h)| d / h >= MM_CT));
        for (dim, heads) in shapes {
            let attn = MultiHeadAttention::new(dim, heads, &mut rng);
            let hd = attn.head_dim;
            let ctx_rows = [11, 2, MM_RT + 1, 1];
            let q_rows: Vec<usize> = (1..=2 * MM_RT + 1).collect();
            let ctxs: Vec<Tensor> = ctx_rows
                .iter()
                .map(|&n| Tensor::xavier(n, dim, &mut rng))
                .collect();
            let qs: Vec<Tensor> = q_rows
                .iter()
                .map(|&m| Tensor::xavier(m, dim, &mut rng))
                .collect();
            for tier in bitwise_tiers() {
                crate::simd::with_tier(tier, || {
                    let mut want = Vec::new();
                    let (mut q_spans, mut c_spans, mut q_parts, mut c_parts) =
                        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
                    for (qi, q) in qs.iter().enumerate() {
                        let ctx = &ctxs[qi % ctxs.len()];
                        let mut g = Graph::new();
                        let (qn, cn) = (g.constant(q.clone()), g.constant(ctx.clone()));
                        let y = attn.forward_cross(&mut g, qn, cn);
                        let tape = g.value(y).clone();
                        assert_eq!(
                            attn.infer_cross(q, ctx).data,
                            tape.data,
                            "{tier:?} dim {dim} head_dim {hd}: {} query rows",
                            q.rows
                        );
                        let q0 = q_spans.last().map_or(0, |r: &Range<usize>| r.end);
                        let c0 = c_spans.last().map_or(0, |r: &Range<usize>| r.end);
                        q_spans.push(q0..q0 + q.rows);
                        c_spans.push(c0..c0 + ctx.rows);
                        q_parts.push(q.clone());
                        c_parts.push(ctx.clone());
                        want.push(tape);
                    }
                    let packed = attn.infer_packed(
                        &concat_rows(&q_parts),
                        &concat_rows(&c_parts),
                        &q_spans,
                        &c_spans,
                    );
                    assert_eq!(
                        packed.data,
                        concat_rows(&want).data,
                        "{tier:?} dim {dim}: packed"
                    );
                });
            }
        }
    }

    #[test]
    fn mlp_infer_matches_tape_bitwise() {
        let mut rng = StdRng::seed_from_u64(5);
        let mlp = Mlp::new(&[12, 24, 24, 6], &mut rng);
        let x = Tensor::xavier(9, 12, &mut rng);
        let mut g = Graph::new();
        let xn = g.constant(x.clone());
        let y = mlp.forward(&mut g, xn);
        let y_tape = g.value(y).clone();
        assert_eq!(y_tape.data, mlp.infer(&x).data);
    }

    #[test]
    fn layer_norm_infer_matches_tape_bitwise() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut ln = LayerNorm::new(10);
        ln.gain.value = Tensor::xavier(1, 10, &mut rng);
        ln.bias.value = Tensor::xavier(1, 10, &mut rng);
        let x = Tensor::xavier(33, 10, &mut rng);
        let mut g = Graph::new();
        let xn = g.constant(x.clone());
        let y = ln.forward(&mut g, xn);
        let y_tape = g.value(y).clone();
        assert_eq!(y_tape.data, ln.infer(&x).data);
    }

    #[test]
    fn helper_ops_match_tape_bitwise() {
        let mut rng = StdRng::seed_from_u64(23);
        let a = Tensor::xavier(6, 8, &mut rng);
        let b = Tensor::xavier(6, 8, &mut rng);
        let edges: Vec<(u32, u32)> = (0..5).map(|i| (i, i + 1)).collect();
        let adj = std::sync::Arc::new(SparseMatrix::normalized_adjacency(6, &edges));
        let mut g = Graph::new();
        let an = g.constant(a.clone());
        let bn = g.constant(b.clone());
        let sum = g.add(an, bn);
        let prop = g.spmm(adj.clone(), an);
        let pooled = g.mean_rows(an);
        let one = g.select_row(an, 3);
        let normed = g.normalize_rows(an);
        let stacked = g.concat_rows(&[an, bn]);
        assert_eq!(g.value(sum).data, add(&a, &b).data);
        assert_eq!(g.value(prop).data, spmm(&adj, &a).data);
        assert_eq!(g.value(pooled).data, mean_rows(&a).data);
        assert_eq!(g.value(one).data, select_row(&a, 3).data);
        assert_eq!(g.value(normed).data, normalize_rows(&a).data);
        assert_eq!(
            g.value(stacked).data,
            concat_rows(&[a.clone(), b.clone()]).data
        );
        assert_eq!(take_rows(&stacked_ref(&a, &b), 6).data, a.data);
    }

    fn stacked_ref(a: &Tensor, b: &Tensor) -> Tensor {
        concat_rows(&[a.clone(), b.clone()])
    }
}
