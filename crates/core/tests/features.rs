//! Node-feature assembly: `NetTag::features_of` encodes each distinct
//! gate text once per call, and every feature builder goes through it.
//! The features must be bitwise those of encoding every gate on its own
//! (`exprllm.encode × text_scale ‖ phys`, eq. 2), whatever the repeats
//! within a cone, across cones, or across the tags of one call. CI replays
//! this suite across thread counts and SIMD tiers.

use nettag_core::data::{build_pretrain_data, DataConfig};
use nettag_core::{freeze_cone_features, rtl_vocab, NetTag, NetTagConfig};
use nettag_expr::parse_expr;
use nettag_expr::token::{tokenize_expr, TokenId};
use nettag_netlist::{
    chunk_into_cones, cone_to_netlist, synthesis_phys_estimates, Library, Netlist, PhysProps, Tag,
};
use nettag_nn::Tensor;
use nettag_synth::{generate_design, Family, GenerateConfig};
use std::collections::HashSet;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Features built gate by gate, with no sharing: the text half is the
/// gate's own ExprLLM encoding times `text_scale` (exact +0.0 when the
/// scale is zero, the structure-only ablation), the rest its phys vector.
fn reference_features(model: &NetTag, tag: &Tag) -> Tensor {
    let vocab = NetTag::vocab();
    let embed_dim = model.config.embed_dim;
    let dim = embed_dim + 8;
    let mut out = Tensor::zeros(tag.len(), dim);
    for i in 0..tag.len() {
        let row = &mut out.data[i * dim..(i + 1) * dim];
        if model.text_scale != 0.0 {
            let toks = tag.node_tokens(&vocab, i, model.config.max_tokens, false);
            for (o, v) in row.iter_mut().zip(&model.exprllm.encode(&toks).data) {
                *o = v * model.text_scale;
            }
        }
        row[embed_dim..].copy_from_slice(&tag.nodes[i].phys.feature_vector());
    }
    out
}

/// The TAGs of a sequential design's register cones (at least 2 gates).
fn cone_tags(model: &NetTag, netlist: &Netlist, lib: &Library) -> Vec<Tag> {
    chunk_into_cones(netlist)
        .iter()
        .map(|c| cone_to_netlist(netlist, c))
        .filter(|sub| sub.gate_count() >= 2)
        .map(|sub| Tag::from_netlist(&sub, lib, &model.tag_options()))
        .collect()
}

fn design(family: Family, index: usize) -> Netlist {
    generate_design(
        family,
        index,
        0x5EED,
        &GenerateConfig {
            scale: 0.1,
            ..GenerateConfig::default()
        },
    )
    .netlist
}

fn token_seqs(model: &NetTag, tag: &Tag) -> Vec<Vec<TokenId>> {
    let vocab = NetTag::vocab();
    (0..tag.len())
        .map(|i| tag.node_tokens(&vocab, i, model.config.max_tokens, false))
        .collect()
}

fn assert_matches_reference(model: &NetTag, tags: &[Tag]) {
    let refs: Vec<&Tag> = tags.iter().collect();
    let features = model.features_of(&refs, &NetTag::vocab());
    assert_eq!(features.len(), tags.len());
    for (t, (tag, f)) in tags.iter().zip(&features).enumerate() {
        let want = reference_features(model, tag);
        assert_eq!((f.rows, f.cols), (want.rows, want.cols), "tag {t} shape");
        assert_eq!(bits(&f.data), bits(&want.data), "tag {t} features");
    }
}

#[test]
fn features_of_matches_per_gate_encode_with_repeats_within_and_across_cones() {
    let model = NetTag::new(NetTagConfig::tiny());
    let lib = Library::default();
    let mut tags = cone_tags(&model, &design(Family::Chipyard, 0), &lib);
    tags.extend(cone_tags(&model, &design(Family::Itc99, 1), &lib));
    // The same cone twice in one call: every one of its gates repeats.
    tags.push(tags[0].clone());
    // The inputs really do repeat, inside one cone and between cones.
    let within = tags.iter().any(|t| {
        let seqs = token_seqs(&model, t);
        seqs.iter().collect::<HashSet<_>>().len() < seqs.len()
    });
    assert!(within, "some cone repeats a gate text");
    let first: HashSet<_> = token_seqs(&model, &tags[0]).into_iter().collect();
    let across = tags[1..tags.len() - 1]
        .iter()
        .any(|t| token_seqs(&model, t).iter().any(|s| first.contains(s)));
    assert!(across, "some other cone repeats a gate text of the first");
    assert_matches_reference(&model, &tags);
}

#[test]
fn features_of_scales_the_text_half_bitwise() {
    let mut model = NetTag::new(NetTagConfig::tiny());
    let lib = Library::default();
    let tags = cone_tags(&model, &design(Family::OpenCores, 0), &lib);
    model.text_scale = 0.37;
    assert_matches_reference(&model, &tags);
}

#[test]
fn zero_text_scale_leaves_only_phys_features() {
    let mut model = NetTag::new(NetTagConfig::tiny());
    let lib = Library::default();
    let tags = cone_tags(&model, &design(Family::VexRiscv, 0), &lib);
    model.text_scale = 0.0;
    assert_matches_reference(&model, &tags);
    let refs: Vec<&Tag> = tags.iter().collect();
    let embed_dim = model.config.embed_dim;
    for f in model.features_of(&refs, &NetTag::vocab()) {
        for r in 0..f.rows {
            assert!(
                f.row_slice(r)[..embed_dim].iter().all(|v| v.to_bits() == 0),
                "the w/o TAG ablation's text half is exact +0.0"
            );
        }
    }
}

#[test]
fn empty_tag_slice_builds_nothing_and_texts_still_encode() {
    let model = NetTag::new(NetTagConfig::tiny());
    let vocab = NetTag::vocab();
    assert!(model.features_of(&[], &vocab).is_empty());
    let toks = tokenize_expr(
        &vocab,
        &parse_expr("!(a & b) | c").expect("parses"),
        model.config.max_tokens,
    );
    // The same sequence twice shares one encoding; each still answers.
    let (features, texts) = model.features_and_texts(&[], &[toks.clone(), toks.clone()], &vocab);
    assert!(features.is_empty());
    assert_eq!(texts.len(), 2);
    let want = bits(&model.exprllm.encode(&toks).data);
    for t in &texts {
        assert_eq!((t.rows, t.cols), (1, model.config.embed_dim));
        assert_eq!(bits(&t.data), want);
    }
}

/// Sum of `[CLS]` over the design's cones in cone order, each cone
/// embedded on its own with `embed_tag`.
fn per_cone_sum(model: &NetTag, tags: &[Tag]) -> Tensor {
    let mut total = Tensor::zeros(1, model.config.embed_dim);
    for tag in tags {
        total.add_assign(&model.embed_tag(tag).cls);
    }
    total
}

#[test]
fn embed_circuit_equals_sum_of_per_cone_embed_tag() {
    let model = NetTag::new(NetTagConfig::tiny());
    let lib = Library::default();
    let netlist = design(Family::Itc99, 2);
    let tags = cone_tags(&model, &netlist, &lib);
    assert!(tags.len() > 1, "a multi-cone design");
    let got = model.embed_circuit(&netlist, &lib, None);
    assert_eq!(bits(&got.data), bits(&per_cone_sum(&model, &tags).data));
}

#[test]
fn embed_circuit_with_signoff_phys_equals_sum_of_per_cone_embed_tag() {
    let model = NetTag::new(NetTagConfig::tiny());
    let lib = Library::default();
    let netlist = design(Family::OpenCores, 1);
    // Sign-off attributes that differ from the synthesis estimates.
    let phys: Vec<PhysProps> = synthesis_phys_estimates(&netlist, &lib)
        .into_iter()
        .map(|mut p| {
            p.delay *= 1.7;
            p.load += 0.25;
            p
        })
        .collect();
    // Cone gates take the parent gate's attributes by name; boundary
    // gates a cone adds fall back to the cone's own estimates.
    let tags: Vec<Tag> = chunk_into_cones(&netlist)
        .iter()
        .map(|c| cone_to_netlist(&netlist, c))
        .filter(|sub| sub.gate_count() >= 2)
        .map(|sub| {
            let fallback = synthesis_phys_estimates(&sub, &lib);
            let props: Vec<PhysProps> = sub
                .iter()
                .map(|(id, g)| match netlist.find(&g.name) {
                    Some(pid) => phys[pid.index()],
                    None => fallback[id.index()],
                })
                .collect();
            Tag::from_netlist_with_phys(&sub, &props, &model.tag_options())
        })
        .collect();
    let got = model.embed_circuit(&netlist, &lib, Some(&phys));
    assert_eq!(bits(&got.data), bits(&per_cone_sum(&model, &tags).data));
    assert_ne!(
        bits(&got.data),
        bits(&model.embed_circuit(&netlist, &lib, None).data),
        "the sign-off attributes reach the features"
    );
}

#[test]
fn freeze_cone_features_matches_per_gate_encode() {
    let model = NetTag::new(NetTagConfig::tiny());
    let lib = Library::default();
    let designs: Vec<_> = (0..2)
        .map(|i| generate_design(Family::OpenCores, i, 3, &GenerateConfig::default()))
        .collect();
    let data = build_pretrain_data(
        &designs,
        &lib,
        &DataConfig {
            max_cones_per_design: 3,
            ..DataConfig::default()
        },
    );
    let frozen = freeze_cone_features(&model, &data, &rtl_vocab());
    assert_eq!(frozen.len(), data.cones.len());
    for (i, fc) in frozen.iter().enumerate() {
        let cone = &data.cones[fc.index];
        assert_eq!(fc.index, i);
        let want = reference_features(&model, &cone.tag);
        assert_eq!(bits(&fc.features.data), bits(&want.data), "cone {i}");
        let want = reference_features(&model, &cone.aug_tag);
        assert_eq!(
            bits(&fc.aug_features.data),
            bits(&want.data),
            "cone {i} aug"
        );
    }
}

/// A copy of `netlist` with every gate renamed.
fn renamed(netlist: &Netlist) -> Netlist {
    let mut out = Netlist::new(format!("{}_renamed", netlist.name()));
    for (id, g) in netlist.iter() {
        let name = format!("zz_{}_{}", id.index() * 7 + 3, g.name.len());
        out.add_gate(name, g.kind, g.fanin.clone());
    }
    out.validate().expect("same structure validates")
}

#[test]
fn renaming_every_gate_leaves_feature_bits_unchanged() {
    let model = NetTag::new(NetTagConfig::tiny());
    let lib = Library::default();
    let netlist = design(Family::Chipyard, 1);
    let cones: Vec<Netlist> = chunk_into_cones(&netlist)
        .iter()
        .map(|c| cone_to_netlist(&netlist, c))
        .filter(|sub| sub.gate_count() >= 2)
        .collect();
    let tags: Vec<Tag> = cones
        .iter()
        .map(|c| Tag::from_netlist(c, &lib, &model.tag_options()))
        .collect();
    let renamed_tags: Vec<Tag> = cones
        .iter()
        .map(|c| Tag::from_netlist(&renamed(c), &lib, &model.tag_options()))
        .collect();
    assert_ne!(
        tags[0].nodes[0].name, renamed_tags[0].nodes[0].name,
        "the names really change"
    );
    let vocab = NetTag::vocab();
    let a: Vec<&Tag> = tags.iter().collect();
    let b: Vec<&Tag> = renamed_tags.iter().collect();
    for (t, (fa, fb)) in model
        .features_of(&a, &vocab)
        .iter()
        .zip(&model.features_of(&b, &vocab))
        .enumerate()
    {
        assert_eq!(bits(&fa.data), bits(&fb.data), "cone {t}");
    }
}
