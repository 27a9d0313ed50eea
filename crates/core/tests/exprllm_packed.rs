//! Packed ExprLLM inference: `ExprLlm::encode_batch` packs the rows of
//! every sequence into one tensor, runs the row-wise ops once over all of
//! them, keeps attention inside each sequence, and carries only the
//! `[CLS]` rows through the last block. None of that may change a bit:
//! row `i` must equal the tape `forward` of sequence `i` on its own, on
//! the scalar tier and (when detected) the AVX2 tier. CI replays this
//! suite across thread counts and SIMD tiers.

use nettag_core::{ExprLlm, NetTagConfig};
use nettag_expr::token::{TokenId, Vocab};
use nettag_nn::simd::{kernels_for, with_tier, SimdTier};
use nettag_nn::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn random_seq(rng: &mut StdRng, vocab: &Vocab, len: usize) -> Vec<TokenId> {
    (0..len)
        .map(|_| rng.gen_range(0..vocab.len() as TokenId))
        .collect()
}

/// Sequences of length 1–5, 17, `max_tokens` and longer than
/// `max_tokens` (truncated), each repeated later in the batch, plus enough
/// filler rows that the row-parallel kernels split the packed tensor.
fn batch(vocab: &Vocab, max_tokens: usize) -> Vec<Vec<TokenId>> {
    let mut rng = StdRng::seed_from_u64(0x9AC4);
    let lens = [2, 3, 4, 5, 17, max_tokens, max_tokens + 9, 1];
    let mut out: Vec<Vec<TokenId>> = lens
        .iter()
        .map(|&n| random_seq(&mut rng, vocab, n))
        .collect();
    for _ in 0..48 {
        let n = rng.gen_range(1..=max_tokens);
        out.push(random_seq(&mut rng, vocab, n));
    }
    let repeats: Vec<Vec<TokenId>> = out.iter().take(lens.len()).cloned().collect();
    out.extend(repeats);
    out
}

fn tape(model: &ExprLlm, tokens: &[TokenId]) -> Vec<u32> {
    let mut g = Graph::new();
    let y = model.forward(&mut g, tokens);
    bits(&g.value(y).data)
}

fn bitwise_tiers() -> Vec<SimdTier> {
    [SimdTier::Scalar, SimdTier::Avx2]
        .into_iter()
        .filter(|&t| kernels_for(t).is_some())
        .collect()
}

fn check(config: &NetTagConfig) {
    let vocab = Vocab::default();
    let model = ExprLlm::new(&vocab, config);
    let seqs = batch(&vocab, config.max_tokens);
    for tier in bitwise_tiers() {
        with_tier(tier, || {
            let packed = model.encode_batch(&seqs);
            assert_eq!(
                (packed.rows, packed.cols),
                (seqs.len(), config.embed_dim),
                "{tier:?}"
            );
            for (i, s) in seqs.iter().enumerate() {
                assert_eq!(
                    bits(packed.row_slice(i)),
                    tape(&model, s),
                    "{tier:?}, {} layer(s): sequence {i} of length {}",
                    config.text_layers,
                    s.len()
                );
            }
            let one = model.encode(&seqs[5]);
            assert_eq!(bits(&one.data), bits(packed.row_slice(5)), "{tier:?}");
        });
    }
}

#[test]
fn one_layer_cls_only_block_matches_tape() {
    check(&NetTagConfig::tiny());
}

#[test]
fn two_and_three_layers_match_tape() {
    for layers in [2, 3] {
        let mut config = NetTagConfig::tiny();
        config.text_layers = layers;
        check(&config);
    }
}

/// The benchmark shape: 48-wide, four heads of 12 columns (below the
/// matmul tile width, so only the fused Q/K/V product reaches the tiles).
#[test]
fn small_config_matches_tape() {
    check(&NetTagConfig::small());
}

#[test]
fn empty_batch_is_zero_rows() {
    let config = NetTagConfig::tiny();
    let model = ExprLlm::new(&Vocab::default(), &config);
    let out = model.encode_batch::<Vec<TokenId>>(&[]);
    assert_eq!((out.rows, out.cols), (0, config.embed_dim));
}
