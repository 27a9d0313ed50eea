//! The NetTAG foundation model: ExprLLM + TAGFormer and the multi-grained
//! embedding API (paper Sec. II-C and II-F).

use crate::config::NetTagConfig;
use crate::exprllm::ExprLlm;
use crate::tagformer::TagFormer;
use nettag_expr::token::{TokenId, Vocab};
use nettag_netlist::{
    chunk_into_cones, cone_to_netlist, Library, Netlist, PhysProps, Tag, TagOptions,
};
use nettag_nn::{Layer, Param, Tensor};
use std::collections::HashMap;

/// The pre-trainable NetTAG model.
#[derive(Debug, Clone)]
pub struct NetTag {
    /// Model configuration.
    pub config: NetTagConfig,
    /// Gate text encoder.
    pub exprllm: ExprLlm,
    /// Graph transformer.
    pub tagformer: TagFormer,
    /// Scale applied to the text half of node features (1.0 normally;
    /// 0.0 reproduces the "w/o TAG" structure-only ablation of Fig. 6).
    pub text_scale: f32,
}

/// Inference embeddings of one TAG.
#[derive(Debug, Clone)]
pub struct TagEmbedding {
    /// Per-gate embeddings (n×embed_dim) — `N_1..N_m`.
    pub nodes: Tensor,
    /// Graph embedding (1×embed_dim) — `N_cls`.
    pub cls: Tensor,
}

impl TagEmbedding {
    /// Pooled graph feature: `[CLS] ‖ mean(node embeddings)` — at paper
    /// scale `N_cls` alone suffices, but tiny CPU models benefit from the
    /// extra pooled view (both grains are NetTAG outputs, Sec. II-F).
    pub fn pooled(&self) -> Vec<f32> {
        let mut out = self.cls.data.clone();
        let n = self.nodes.rows.max(1) as f32;
        for c in 0..self.nodes.cols {
            let mut s = 0.0;
            for r in 0..self.nodes.rows {
                s += self.nodes.at(r, c);
            }
            out.push(s / n);
        }
        out
    }
}

impl NetTag {
    /// Builds a fresh (untrained) NetTAG with the standard cell vocabulary.
    pub fn new(config: NetTagConfig) -> NetTag {
        let vocab = Self::vocab();
        let exprllm = ExprLlm::new(&vocab, &config);
        let tagformer = TagFormer::new(config.embed_dim + 8, &config);
        NetTag {
            config,
            exprllm,
            tagformer,
            text_scale: 1.0,
        }
    }

    /// The shared token vocabulary (grammar + cell-type words + buckets).
    pub fn vocab() -> Vocab {
        Vocab::new(Library::default().cell_names())
    }

    /// TAG construction options matching this model's hop setting.
    pub fn tag_options(&self) -> TagOptions {
        TagOptions {
            hops: self.config.hops,
            ..TagOptions::default()
        }
    }

    /// Computes frozen input features for TAGFormer: per-node ExprLLM text
    /// embedding concatenated with the 8-dim physical vector
    /// (`n_i = (T_i, x_phys_i)`, eq. 2).
    pub fn node_features(&self, tag: &Tag) -> Tensor {
        self.node_features_with_vocab(tag, &Self::vocab())
    }

    /// [`Self::node_features`] with a caller-held [`Vocab`]. Building the
    /// vocabulary costs more than embedding a small cone, so long-lived
    /// callers (the serving engine, batch pipelines) construct it once
    /// and pass it in; results are identical.
    pub fn node_features_with_vocab(&self, tag: &Tag, vocab: &Vocab) -> Tensor {
        let mut features = self.features_of(&[tag], vocab);
        features.pop().expect("one feature tensor per tag")
    }

    /// [`Self::node_features`] for several TAGs at once, one tensor per
    /// tag, from a single ExprLLM pass.
    ///
    /// `CanonicalVars` names variables by first appearance, so most gates
    /// of a design tokenize to a sequence another gate already has. Each
    /// distinct sequence is encoded once, and its row is copied to every
    /// gate that has it. [`ExprLlm::encode`] is a pure function of its
    /// tokens, so the features are bitwise those of encoding every gate.
    /// The memo lives for this call only.
    pub fn features_of(&self, tags: &[&Tag], vocab: &Vocab) -> Vec<Tensor> {
        self.features_and_texts(tags, &[], vocab).0
    }

    /// [`Self::features_of`] plus the unscaled ExprLLM encoding
    /// (1×embed_dim) of each standalone token sequence in `seqs`. The
    /// sequences join the gates' deduplicated pass, which is how the
    /// serving batch encodes its expression requests.
    pub fn features_and_texts(
        &self,
        tags: &[&Tag],
        seqs: &[Vec<TokenId>],
        vocab: &Vocab,
    ) -> (Vec<Tensor>, Vec<Tensor>) {
        // Distinct sequence -> its row in the batched pass.
        let mut rows: HashMap<Vec<TokenId>, usize> = HashMap::new();
        let mut intern = |toks: Vec<TokenId>| {
            let next = rows.len();
            *rows.entry(toks).or_insert(next)
        };
        // With the text half scaled to zero (the Fig. 6 "w/o TAG"
        // ablation) gates are not encoded at all and the half stays +0.0.
        let gate_rows: Vec<usize> = if self.text_scale == 0.0 {
            Vec::new()
        } else {
            tags.iter()
                .flat_map(|tag| (0..tag.len()).map(move |i| (*tag, i)))
                .map(|(tag, i)| intern(tag.node_tokens(vocab, i, self.config.max_tokens, false)))
                .collect()
        };
        let seq_rows: Vec<usize> = seqs.iter().map(|s| intern(s.clone())).collect();
        let mut distinct = vec![Vec::new(); rows.len()];
        for (toks, row) in rows {
            distinct[row] = toks;
        }
        let text = self.exprllm.encode_batch(&distinct);
        let embed_dim = self.config.embed_dim;
        let dim = embed_dim + 8;
        let mut gate_rows = gate_rows.into_iter();
        let features = tags
            .iter()
            .map(|tag| {
                let mut out = Tensor::zeros(tag.len(), dim);
                for (node, row) in tag.nodes.iter().zip(out.data.chunks_exact_mut(dim)) {
                    if let Some(r) = gate_rows.next() {
                        for (o, v) in row.iter_mut().zip(text.row_slice(r)) {
                            *o = v * self.text_scale;
                        }
                    }
                    row[embed_dim..].copy_from_slice(&node.phys.feature_vector());
                }
                out
            })
            .collect();
        let texts = seq_rows
            .iter()
            .map(|&r| Tensor::row(text.row_slice(r).to_vec()))
            .collect();
        (features, texts)
    }

    /// Embeds a TAG (inference): per-gate + graph embeddings.
    pub fn embed_tag(&self, tag: &Tag) -> TagEmbedding {
        let features = self.node_features(tag);
        self.embed_tag_with_features(tag, &features)
    }

    /// Embeds a TAG from pre-computed node features (saves recomputing the
    /// frozen ExprLLM pass when the caller also needs the raw features).
    pub fn embed_tag_with_features(&self, tag: &Tag, features: &Tensor) -> TagEmbedding {
        let (nodes, cls) = self.tagformer.encode(features, &tag.edges);
        TagEmbedding { nodes, cls }
    }

    /// Embeds a full netlist at circuit granularity. Sequential circuits
    /// are chunked into register cones whose `[CLS]` embeddings are
    /// *summed* (paper Sec. II-F); combinational circuits embed directly.
    /// All cones' node features come from one [`Self::features_of`] call,
    /// so a gate text shared across cones is encoded once.
    ///
    /// `phys` optionally supplies sign-off physical attributes per gate id;
    /// otherwise synthesis estimates are used.
    pub fn embed_circuit(
        &self,
        netlist: &Netlist,
        lib: &Library,
        phys: Option<&[PhysProps]>,
    ) -> Tensor {
        let opts = self.tag_options();
        if netlist.registers().is_empty() {
            let tag = match phys {
                Some(p) => Tag::from_netlist_with_phys(netlist, p, &opts),
                None => Tag::from_netlist(netlist, lib, &opts),
            };
            return self.embed_tag(&tag).cls;
        }
        // Parent-gate phys, looked up by name for the cone gates.
        let by_name: Option<HashMap<&str, PhysProps>> = phys.map(|p| {
            netlist
                .iter()
                .map(|(id, g)| (g.name.as_str(), p[id.index()]))
                .collect()
        });
        // Cone TAG builds and TAGFormer passes are independent per cone,
        // so both run over the worker pool; the `[CLS]` rows are summed in
        // cone order, as a serial loop would.
        let cones = chunk_into_cones(netlist);
        let tags: Vec<Tag> = nettag_par::map_indexed(cones.len(), |i| {
            let sub = cone_to_netlist(netlist, &cones[i]);
            if sub.gate_count() < 2 {
                return None;
            }
            Some(match &by_name {
                Some(by_name) => {
                    let fallback = nettag_netlist::synthesis_phys_estimates(&sub, lib);
                    let props: Vec<PhysProps> = sub
                        .iter()
                        .map(|(id, g)| {
                            by_name
                                .get(g.name.as_str())
                                .copied()
                                .unwrap_or(fallback[id.index()])
                        })
                        .collect();
                    Tag::from_netlist_with_phys(&sub, &props, &opts)
                }
                None => Tag::from_netlist(&sub, lib, &opts),
            })
        })
        .into_iter()
        .flatten()
        .collect();
        let refs: Vec<&Tag> = tags.iter().collect();
        let features = self.features_of(&refs, &Self::vocab());
        let cls = nettag_par::map_indexed(tags.len(), |i| {
            self.embed_tag_with_features(&tags[i], &features[i]).cls
        });
        let mut total = Tensor::zeros(1, self.config.embed_dim);
        for c in &cls {
            total.add_assign(c);
        }
        total
    }

    /// Embeds one register cone of a netlist (cone granularity).
    pub fn embed_cone(
        &self,
        netlist: &Netlist,
        lib: &Library,
        cone: &nettag_netlist::Cone,
    ) -> Tensor {
        let sub = cone_to_netlist(netlist, cone);
        let tag = Tag::from_netlist(&sub, lib, &self.tag_options());
        self.embed_tag(&tag).cls
    }
}

impl Layer for NetTag {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.exprllm.params_mut();
        p.extend(self.tagformer.params_mut());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettag_netlist::CellKind;

    fn seq_design() -> Netlist {
        let mut n = Netlist::new("m");
        let a = n.add_gate("a", CellKind::Input, vec![]);
        let b = n.add_gate("b", CellKind::Input, vec![]);
        let x = n.add_gate("X", CellKind::Xor2, vec![a, b]);
        let r1 = n.add_gate("R1", CellKind::Dff, vec![x]);
        let o = n.add_gate("O", CellKind::Or2, vec![r1, a]);
        let _r2 = n.add_gate("R2", CellKind::Dff, vec![o]);
        n.add_gate("y", CellKind::Output, vec![r1]);
        n.validate().expect("valid")
    }

    #[test]
    fn embed_tag_has_gate_and_graph_grains() {
        let model = NetTag::new(NetTagConfig::tiny());
        let lib = Library::default();
        let n = seq_design();
        let tag = Tag::from_netlist(&n, &lib, &model.tag_options());
        let emb = model.embed_tag(&tag);
        assert_eq!(emb.nodes.rows, n.gate_count());
        assert_eq!(emb.cls.cols, model.config.embed_dim);
    }

    #[test]
    fn circuit_embedding_sums_cones() {
        let model = NetTag::new(NetTagConfig::tiny());
        let lib = Library::default();
        let n = seq_design();
        let e = model.embed_circuit(&n, &lib, None);
        assert_eq!((e.rows, e.cols), (1, model.config.embed_dim));
        assert!(e.data.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn different_circuits_embed_differently() {
        let model = NetTag::new(NetTagConfig::tiny());
        let lib = Library::default();
        let n1 = seq_design();
        let mut n2 = Netlist::new("m2");
        let a = n2.add_gate("a", CellKind::Input, vec![]);
        let g = n2.add_gate("G", CellKind::Inv, vec![a]);
        n2.add_gate("y", CellKind::Output, vec![g]);
        let n2 = n2.validate().expect("valid");
        let e1 = model.embed_circuit(&n1, &lib, None);
        let e2 = model.embed_circuit(&n2, &lib, None);
        assert_ne!(e1.data, e2.data);
    }
}
