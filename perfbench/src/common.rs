//! Pieces shared by the workloads: run arguments, the output directory,
//! checkpoints, generated designs, and the staged embedding replay that
//! times each of the model's public stages separately.

use crate::report::{Obj, Outcome};
use crate::trace::Tracer;
use nettag_core::{load_checkpoint, save_checkpoint, NetTag, NetTagConfig};
use nettag_expr::token::{TokenId, Vocab};
use nettag_netlist::{chunk_into_cones, cone_to_netlist, Library, Netlist, Tag};
use nettag_nn::Tensor;
use nettag_synth::{generate_design, Design, Family, GenerateConfig};
use std::collections::HashSet;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Where runs write checkpoints, results and spans, relative to the
/// directory the benchmark is started from.
pub const OUT_DIR: &str = ".bench_out";

/// One run's arguments.
pub struct Run {
    /// Input seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: Duration,
    /// Spans and counters; enabled only for the traced run.
    pub tracer: Tracer,
}

impl Run {
    /// Whether this is the traced run.
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// A per-process file name in the output directory.
    pub fn scratch_file(&self, stem: &str) -> PathBuf {
        PathBuf::from(OUT_DIR).join(format!("{stem}-{}.json", std::process::id()))
    }
}

/// Seconds `f` took, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// The model configuration as a JSON object, for the run record.
pub fn config_json(c: &NetTagConfig) -> String {
    let mut o = Obj::default();
    o.num("embed_dim", c.embed_dim as f64)
        .num("text_dim", c.text_dim as f64)
        .num("text_layers", c.text_layers as f64)
        .num("text_heads", c.text_heads as f64)
        .num("max_tokens", c.max_tokens as f64)
        .num("graph_dim", c.graph_dim as f64)
        .num("graph_layers", c.graph_layers as f64)
        .num("graph_heads", c.graph_heads as f64)
        .num("hops", c.hops as f64)
        .num("seed", c.seed as f64);
    o.json()
}

/// Generates the `index`-th design of `family` for `seed` at `scale`.
pub fn design(family: Family, index: usize, seed: u64, scale: f64) -> Design {
    generate_design(
        family,
        index,
        seed,
        &GenerateConfig {
            scale,
            ..GenerateConfig::default()
        },
    )
}

/// The register cones of a netlist that the model embeds (two or more
/// gates, as [`NetTag::embed_circuit`] keeps them), as standalone netlists.
pub fn cone_netlists(netlist: &Netlist) -> Vec<Netlist> {
    chunk_into_cones(netlist)
        .iter()
        .map(|c| cone_to_netlist(netlist, c))
        .filter(|sub| sub.gate_count() >= 2)
        .collect()
}

/// Writes a fresh model with `config` as a checkpoint and returns it
/// with the path. The model is untrained: inference cost does not depend
/// on the weights' values.
pub fn write_checkpoint(run: &Run, stem: &str, config: NetTagConfig) -> (NetTag, PathBuf) {
    std::fs::create_dir_all(OUT_DIR).expect("create the output directory");
    let model = NetTag::new(config);
    let path = run.scratch_file(stem);
    save_checkpoint(&model, &path).expect("write the benchmark checkpoint");
    (model, path)
}

/// Checks that `loaded` embeds `probe` bit for bit like `reference`.
pub fn check_probe(
    out: &mut Outcome,
    what: &str,
    reference: &NetTag,
    loaded: &NetTag,
    probe: &Netlist,
) {
    let lib = Library::default();
    let tag = Tag::from_netlist(probe, &lib, &reference.tag_options());
    let a = reference.embed_tag(&tag).cls;
    let b = loaded.embed_tag(&tag).cls;
    out.check(bits(&a.data) == bits(&b.data), || {
        format!("{what}: reloaded checkpoint embeds the probe cone differently")
    });
}

/// Loads a checkpoint `repeats` times; returns the last model and the
/// load times in seconds.
pub fn load_repeatedly(run: &Run, path: &PathBuf, repeats: usize) -> (NetTag, Vec<f64>) {
    let mut times = Vec::with_capacity(repeats);
    let mut model = None;
    for i in 0..repeats {
        let (m, s) = run.tracer.span("core.persist.load", 0, i as u64, |_| {
            timed(|| load_checkpoint(path).expect("load the benchmark checkpoint"))
        });
        times.push(s);
        model = Some(m);
    }
    (model.expect("at least one load"), times)
}

/// The exact bit patterns of a float slice, for bitwise comparison.
pub fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Token statistics of the gates a run embeds.
#[derive(Debug, Default)]
pub struct TokenStats {
    /// Distinct per-gate token sequences seen.
    pub distinct: HashSet<Vec<TokenId>>,
    /// Token sequences encoded.
    pub seqs: u64,
    /// Tokens over all sequences.
    pub tokens: u64,
}

impl TokenStats {
    /// Adds every gate's token sequence of `tag`, tokenised as the model
    /// tokenises it, in one `expr.node_tokens` span.
    pub fn add(&mut self, model: &NetTag, vocab: &Vocab, tag: &Tag, tracer: &Tracer) {
        let seqs: Vec<Vec<TokenId>> = tracer.span("expr.node_tokens", 0, 0, |_| {
            (0..tag.len())
                .map(|i| tag.node_tokens(vocab, i, model.config.max_tokens, false))
                .collect()
        });
        self.seqs += seqs.len() as u64;
        self.tokens += seqs.iter().map(|s| s.len() as u64).sum::<u64>();
        self.distinct.extend(seqs);
    }

    /// Folds `other` into these statistics.
    pub fn merge(&mut self, other: TokenStats) {
        self.seqs += other.seqs;
        self.tokens += other.tokens;
        self.distinct.extend(other.distinct);
    }

    /// Distinct sequences over all sequences.
    pub fn unique_ratio(&self) -> f64 {
        self.distinct.len() as f64 / self.seqs.max(1) as f64
    }
}

/// [`NetTag::embed_tag`]'s `[CLS]` through the model's own two public
/// stages, each in its own span: the node features (gate tokens, ExprLLM
/// and the physical vector) as `core.exprllm.encode`, then TAGFormer as
/// `core.tagformer.encode`. With `vocab` the features come from
/// `node_features_with_vocab`, as a caller holding the vocabulary (the
/// serving engine) gets them; without, from `node_features`, as
/// `embed_tag` gets them.
pub fn embed_tag_staged(
    model: &NetTag,
    vocab: Option<&Vocab>,
    tag: &Tag,
    tracer: &Tracer,
    request: u64,
) -> Tensor {
    let features = tracer.span("core.exprllm.encode", 0, request, |_| match vocab {
        Some(v) => model.node_features_with_vocab(tag, v),
        None => model.node_features(tag),
    });
    tracer.span("core.tagformer.encode", 0, request, |_| {
        model.embed_tag_with_features(tag, &features).cls
    })
}

/// [`NetTag::embed_circuit`] (synthesis-estimate attributes) computed
/// stage by stage: chunking, cone extraction, TAG build, then
/// [`embed_tag_staged`] per cone, summing `[CLS]` in cone order. Returns
/// the TAGs too, for the token statistics.
pub fn embed_circuit_staged(
    model: &NetTag,
    netlist: &Netlist,
    lib: &Library,
    tracer: &Tracer,
    request: u64,
) -> (Tensor, Vec<Tag>) {
    let opts = model.tag_options();
    tracer.count("netlist.gates", netlist.gate_count() as f64);
    if netlist.registers().is_empty() {
        let tag = tracer.span("netlist.tag_build", 0, request, |_| {
            Tag::from_netlist(netlist, lib, &opts)
        });
        tracer.count("netlist.cones", 1.0);
        let cls = embed_tag_staged(model, None, &tag, tracer, request);
        return (cls, vec![tag]);
    }
    let cones = tracer.span("netlist.chunk", 0, request, |_| chunk_into_cones(netlist));
    let mut total = Tensor::zeros(1, model.config.embed_dim);
    let mut tags = Vec::new();
    for cone in &cones {
        let sub = tracer.span("netlist.cone_to_netlist", 0, request, |_| {
            cone_to_netlist(netlist, cone)
        });
        if sub.gate_count() < 2 {
            continue;
        }
        tracer.count("netlist.cones", 1.0);
        let tag = tracer.span("netlist.tag_build", 0, request, |_| {
            Tag::from_netlist(&sub, lib, &opts)
        });
        total.add_assign(&embed_tag_staged(model, None, &tag, tracer, request));
        tags.push(tag);
    }
    (total, tags)
}
