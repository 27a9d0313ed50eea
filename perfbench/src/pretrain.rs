//! `pretrain`: a fixed two-step schedule with the `small` model on a
//! seeded corpus, ending in `save_checkpoint` — the write side: tape
//! forward and backward, Adam and the data-parallel driver run only here.

use crate::common::{self, bits, timed, Run};
use crate::report::{Digest, Obj, Outcome};
use crate::stats::median;
use nettag_core::data::{build_pretrain_data, DataConfig, PretrainData};
use nettag_core::{
    freeze_cone_features, load_checkpoint, pretrain, pretrain_exprllm, pretrain_tagformer,
    rtl_vocab, save_checkpoint, LayoutEncoder, NetTag, NetTagConfig, PretrainConfig, PretrainHeads,
    PretrainReport, RtlEncoder,
};
use nettag_netlist::{Library, Tag};
use nettag_synth::ALL_FAMILIES;

/// Design scale of the corpus.
const SCALE: f64 = 0.3;
/// Cones kept per design, and their largest size in gates. Few cones per
/// design spread the corpus over about 20 designs, whose differences in
/// cost per token then average out instead of following the seed.
const CONES_PER_DESIGN: usize = 2;
const MAX_CONE_GATES: usize = 100;
/// Gate tokens the corpus's cones hold. `freeze_cone_features` runs
/// ExprLLM over every gate's tokens, its largest stage, so the corpus is
/// sized in tokens: a fixed count of designs, cones or gates would let
/// the schedule's work vary with the seed.
const CORPUS_TOKENS: usize = 50_000;
/// Corpus builds before the first schedule, and after each schedule;
/// `setup_s` is the median of all of them, which spreads the set-up
/// samples over the whole run instead of its first seconds.
const SETUP_FIRST: usize = 3;
const SETUP_PER_SCHEDULE: usize = 2;
/// Step-1 and step-2 optimisation steps of the fixed schedule.
const STEP1_STEPS: usize = 8;
const STEP2_STEPS: usize = 8;

fn schedule(seed: u64) -> PretrainConfig {
    PretrainConfig {
        step1_steps: STEP1_STEPS,
        step2_steps: STEP2_STEPS,
        seed: seed ^ 0x9E7A,
        ..PretrainConfig::default()
    }
}

/// Generates designs round-robin over the families and adds each one's
/// pre-training data until the cones hold [`CORPUS_TOKENS`] gate tokens.
fn build_corpus(seed: u64, config: &NetTagConfig) -> PretrainData {
    let lib = Library::default();
    let vocab = NetTag::vocab();
    let mut corpus = PretrainData {
        exprs: Vec::new(),
        cones: Vec::new(),
    };
    let mut tokens = 0;
    for index in 0.. {
        let family = ALL_FAMILIES[index % ALL_FAMILIES.len()];
        let design = common::design(family, index / ALL_FAMILIES.len(), seed ^ 0x7A, SCALE);
        let data = build_pretrain_data(
            &[design],
            &lib,
            &DataConfig {
                max_cones_per_design: CONES_PER_DESIGN,
                max_cone_gates: MAX_CONE_GATES,
                seed: seed ^ 0xDA7A ^ index as u64,
                ..DataConfig::default()
            },
        );
        corpus.exprs.extend(data.exprs);
        for cone in data.cones {
            if tokens >= CORPUS_TOKENS {
                return corpus;
            }
            tokens += (0..cone.tag.len())
                .map(|i| {
                    cone.tag
                        .node_tokens(&vocab, i, config.max_tokens, false)
                        .len()
                })
                .sum::<usize>();
            corpus.cones.push(cone);
        }
    }
    unreachable!("the design stream is unbounded")
}

fn loss_bits(r: &PretrainReport) -> Vec<u32> {
    let mut v = bits(&r.step1_losses);
    v.extend(bits(&r.step2_losses));
    v
}

/// Builds the corpus `n` more times, timing each build and checking it
/// against `data`.
fn rebuild(
    run: &Run,
    out: &mut Outcome,
    config: &NetTagConfig,
    data: &PretrainData,
    builds: &mut Vec<f64>,
    n: usize,
) {
    for _ in 0..n {
        let (d, s) = run
            .tracer
            .span("core.data.build", 0, builds.len() as u64, |_| {
                timed(|| build_corpus(run.seed, config))
            });
        out.check(same_corpus(data, &d), || {
            "corpus builds differ for one seed".into()
        });
        builds.push(s);
    }
}

pub fn run(run: &Run, out: &mut Outcome) {
    let config = NetTagConfig::small();
    let (data, first_build) = run.tracer.span("core.data.build", 0, 0, |_| {
        timed(|| build_corpus(run.seed, &config))
    });
    let mut builds = vec![first_build];
    rebuild(run, out, &config, &data, &mut builds, SETUP_FIRST - 1);
    std::fs::create_dir_all(common::OUT_DIR).expect("create the output directory");
    let path = run.scratch_file("pretrain");
    let sched = schedule(run.seed);
    let mut info = Obj::default();
    info.num("scale", SCALE)
        .num("cones", data.cones.len() as f64)
        .num(
            "cone_gates",
            data.cones.iter().map(|c| c.tag.len()).sum::<usize>() as f64,
        )
        .num("exprs", data.exprs.len() as f64)
        .num("step1_steps", STEP1_STEPS as f64)
        .num("step1_batch", sched.step1_batch as f64)
        .num("step2_steps", STEP2_STEPS as f64)
        .num("step2_batch", sched.step2_batch as f64)
        .num("setup_first", SETUP_FIRST as f64)
        .num("setup_per_schedule", SETUP_PER_SCHEDULE as f64);
    out.info.raw("model_config", common::config_json(&config));

    // The untraced schedule: `pretrain` then the save, repeated while the
    // budget lasts (at least twice, so determinism is checked; the traced
    // run checks it against the staged schedule instead).
    let start = std::time::Instant::now();
    let min_repeats = if run.traced() { 1 } else { 2 };
    let mut times = Vec::new();
    let mut reference: Option<(Vec<u32>, NetTag)> = None;
    while times.len() < min_repeats || (!run.traced() && start.elapsed() < run.seconds) {
        let mut model = NetTag::new(config.clone());
        let (report, s) = timed(|| {
            let report = pretrain(&mut model, &data, &sched);
            save_checkpoint(&model, &path).expect("save the trained checkpoint");
            report
        });
        out.attempted += 1;
        times.push(s);
        let losses = loss_bits(&report);
        let finite = report
            .step1_losses
            .iter()
            .chain(&report.step2_losses)
            .all(|l| l.is_finite());
        out.check(finite, || "non-finite pre-training loss".into());
        match &reference {
            None => reference = Some((losses, model)),
            Some((first, _)) => {
                if *first != losses {
                    out.failed += 1;
                    out.check(false, || "repeated schedules give different losses".into());
                }
            }
        }
        rebuild(run, out, &config, &data, &mut builds, SETUP_PER_SCHEDULE);
    }
    let (losses, trained) = reference.expect("at least one schedule");
    let mut digest = Digest::default();
    for l in &losses {
        digest.bytes(&l.to_le_bytes());
    }
    // The checkpoint of the last schedule loads back to the same model.
    let probe = &data.cones[0].tag;
    let (loaded, load_s) = run.tracer.span("core.persist.load", 0, 0, |_| {
        timed(|| load_checkpoint(&path))
    });
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    match loaded {
        Ok(loaded) => {
            let a = trained.embed_tag(probe).cls;
            let b = loaded.embed_tag(probe).cls;
            digest.f32s(&a.data);
            out.check(bits(&a.data) == bits(&b.data), || {
                "reloaded checkpoint embeds the probe cone differently".into()
            });
        }
        Err(e) => out.check(false, || format!("saved checkpoint does not load: {e}")),
    }
    out.info.str("output_digest", &digest.hex());
    if run.traced() {
        traced(
            run,
            out,
            &data,
            &sched,
            &config,
            probe,
            &losses,
            median(&times).expect("timed"),
        );
        out.metric(
            "core.data.build_ms",
            median(&builds).expect("builds") * 1e3,
            "ms",
        );
        out.metric("core.persist.load_ms", load_s * 1e3, "ms");
        out.metric("core.persist.checkpoint_bytes", bytes as f64, "B");
        out.metric("train_s", median(&times).expect("timed"), "s");
    } else {
        out.metric("setup_s", median(&builds).expect("builds"), "s");
        out.metric("time_ms", median(&times).expect("timed") * 1e3, "ms");
        info.num("repeats", times.len() as f64);
    }
    let _ = std::fs::remove_file(&path);
    out.info.raw("workload", info.json());
}

/// The traced run: the schedule stage by stage, each stage in a span,
/// with loss traces checked bit for bit against `pretrain`'s.
#[allow(clippy::too_many_arguments)]
fn traced(
    run: &Run,
    out: &mut Outcome,
    data: &PretrainData,
    sched: &PretrainConfig,
    config: &NetTagConfig,
    probe: &Tag,
    reference: &[u32],
    untraced_s: f64,
) {
    let tracer = &run.tracer;
    let path = run.scratch_file("pretrain-staged");
    let mut model = NetTag::new(config.clone());
    let (report, traced_s) = timed(|| {
        let step1 = tracer.span("core.pretrain.step1", 0, 0, |_| {
            pretrain_exprllm(&mut model, data, sched)
        });
        let rtl_voc = rtl_vocab();
        let mut heads = PretrainHeads::new(model.config.embed_dim, sched.seed);
        let mut rtl_enc = RtlEncoder::new(&rtl_voc, &model.config);
        let mut layout_enc = LayoutEncoder::new(&model.config);
        let frozen = tracer.span("core.pretrain.freeze", 0, 0, |_| {
            freeze_cone_features(&model, data, &rtl_voc)
        });
        let step2 = tracer.span("core.pretrain.step2", 0, 0, |_| {
            pretrain_tagformer(
                &mut model,
                &mut heads,
                &mut rtl_enc,
                &mut layout_enc,
                data,
                &frozen,
                sched,
            )
        });
        tracer.span("core.persist.save", 0, 0, |_| {
            save_checkpoint(&model, &path).expect("save the staged checkpoint")
        });
        PretrainReport {
            step1_losses: step1,
            step2_losses: step2,
        }
    });
    out.attempted += 1;
    out.check(loss_bits(&report) == reference, || {
        "staged schedule's losses differ from pretrain()'s".into()
    });
    match load_checkpoint(&path) {
        Ok(loaded) => out.check(
            bits(&model.embed_tag(probe).cls.data) == bits(&loaded.embed_tag(probe).cls.data),
            || "staged checkpoint embeds the probe cone differently".into(),
        ),
        Err(e) => out.check(false, || format!("staged checkpoint does not load: {e}")),
    }
    let _ = std::fs::remove_file(&path);
    out.metric(
        "core.pretrain.step1_ms",
        tracer.total_ms("core.pretrain.step1") / STEP1_STEPS as f64,
        "ms",
    );
    out.metric(
        "core.pretrain.freeze_ms",
        tracer.total_ms("core.pretrain.freeze"),
        "ms",
    );
    out.metric(
        "core.pretrain.step2_ms",
        tracer.total_ms("core.pretrain.step2") / STEP2_STEPS as f64,
        "ms",
    );
    out.metric(
        "core.persist.save_ms",
        tracer.total_ms("core.persist.save"),
        "ms",
    );
    out.metric("trace.overhead", traced_s / untraced_s, "x");
}

/// Whether two corpus builds hold the same cones and expressions.
fn same_corpus(a: &PretrainData, b: &PretrainData) -> bool {
    a.cones.len() == b.cones.len()
        && a.exprs.len() == b.exprs.len()
        && a.cones
            .iter()
            .zip(&b.cones)
            .all(|(x, y)| x.design == y.design && x.root == y.root && x.tag.len() == y.tag.len())
}
