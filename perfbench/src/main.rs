//! End-to-end and per-layer benchmark of the NetTAG workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <embed_designs|serve_stream|pretrain> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run prints the end-to-end metrics; with
//! `--trace 1` it runs the workload once more with a span around every
//! call the benchmark makes into a layer and prints every per-layer
//! metric. The last line of standard output is the result as one JSON
//! object; the run record (seed, host, threads, SIMD tier, model config,
//! input properties, output digest) is written to `.bench_out/`.

mod common;
mod embed;
mod pretrain;
mod report;
mod sched;
mod serve;
mod stats;
mod trace;

use common::{Run, TokenStats, OUT_DIR};
use report::{json_str, Outcome};
use std::process::ExitCode;
use std::time::Duration;
use trace::Tracer;

/// Every per-layer metric, in print order. A traced run prints all of
/// them; a layer its workload does not reach reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.chunk_ms", "ms"),
    ("netlist.cone_to_netlist_ms", "ms"),
    ("netlist.tag_build_ms", "ms"),
    ("netlist.structural_hash_us", "us"),
    ("netlist.cones", "count"),
    ("netlist.gates", "count"),
    ("expr.node_tokens_ms", "ms"),
    ("expr.token_seqs", "count"),
    ("expr.tokens", "count"),
    ("expr.unique_seq_ratio", "ratio"),
    ("core.exprllm.encode_ms", "ms"),
    ("core.exprllm.seqs_per_s", "1/s"),
    ("core.exprllm.share", "ratio"),
    ("core.tagformer.encode_ms", "ms"),
    ("core.tagformer.share", "ratio"),
    ("core.pretrain.step1_ms", "ms"),
    ("core.pretrain.freeze_ms", "ms"),
    ("core.pretrain.step2_ms", "ms"),
    ("core.data.build_ms", "ms"),
    ("core.persist.load_ms", "ms"),
    ("core.persist.save_ms", "ms"),
    ("core.persist.checkpoint_bytes", "B"),
    ("serve.engine.batches", "count"),
    ("serve.engine.batch_mean", "count"),
    ("serve.engine.batch_max", "count"),
    ("serve.engine.dedup_hits", "count"),
    ("serve.engine.shed", "count"),
    ("serve.engine.deadline_expired", "count"),
    ("serve.engine.panics_recovered", "count"),
    ("serve.cache.hits", "count"),
    ("serve.cache.misses", "count"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.distinct_keys", "count"),
    ("serve.proto.request_bytes", "B"),
    ("serve.proto.response_bytes", "B"),
    ("serve.proto.encode_us", "us"),
    ("serve.proto.decode_us", "us"),
    ("serve.net.sent", "count"),
    ("serve.net.ok", "count"),
    ("serve.net.failed", "count"),
    ("serve.net.failed.overloaded", "count"),
    ("serve.net.failed.deadline", "count"),
    ("serve.net.failed.internal", "count"),
    ("serve.net.failed.other", "count"),
    ("serve.net.generator_lag_p99_ms", "ms"),
    ("serve.net.lagged_windows", "count"),
    ("serve.net.backlog_windows", "count"),
    ("serve.net.inflight_max", "count"),
    ("serve.compute_ms_per_miss", "ms"),
    ("serve.p50_ms.light", "ms"),
    ("serve.p50_ms.heavy", "ms"),
    ("serve.p99_ms.light", "ms"),
    ("serve.p99_ms.heavy", "ms"),
    ("serve.max_rps", "1/s"),
    ("fail_ratio", "ratio"),
    ("gates_per_s", "1/s"),
    ("gates_per_s.itc99", "1/s"),
    ("gates_per_s.opencores", "1/s"),
    ("gates_per_s.chipyard", "1/s"),
    ("gates_per_s.vexriscv", "1/s"),
    ("physical.run_flow_ms", "ms"),
    ("model_vs_flow_ratio", "ratio"),
    ("train_s", "s"),
    ("trace.overhead", "x"),
];

/// The workloads.
const WORKLOADS: &[&str] = &["embed_designs", "serve_stream", "pretrain"];

/// The end-to-end metrics every workload prints with `--trace 0`:
/// `setup_s`, and `time_ms`, the time a user waits for the workload's
/// unit of work (1000 gate tokens embedded, one request answered, one
/// pre-training schedule run).
const END_TO_END: &[&str] = &["setup_s", "time_ms"];

/// Netlist, gate-token, ExprLLM and TAGFormer metrics from a staged
/// replay's spans; shares are of `model_ms`, the replay's wall time.
/// `core.exprllm.*` time the model's node-feature stage, which also
/// tokenises the gates; `expr.node_tokens_ms` is that tokenisation alone.
fn layer_metrics(out: &mut Outcome, tracer: &Tracer, tokens: &TokenStats, model_ms: f64) {
    let encode_ms = tracer.total_ms("core.exprllm.encode");
    let tagformer_ms = tracer.total_ms("core.tagformer.encode");
    out.metric("netlist.chunk_ms", tracer.total_ms("netlist.chunk"), "ms");
    out.metric(
        "netlist.cone_to_netlist_ms",
        tracer.total_ms("netlist.cone_to_netlist"),
        "ms",
    );
    out.metric(
        "netlist.tag_build_ms",
        tracer.total_ms("netlist.tag_build"),
        "ms",
    );
    out.metric("netlist.cones", tracer.counter("netlist.cones"), "count");
    out.metric("netlist.gates", tracer.counter("netlist.gates"), "count");
    out.metric(
        "expr.node_tokens_ms",
        tracer.total_ms("expr.node_tokens"),
        "ms",
    );
    out.metric("expr.token_seqs", tokens.seqs as f64, "count");
    out.metric("expr.tokens", tokens.tokens as f64, "count");
    out.metric("expr.unique_seq_ratio", tokens.unique_ratio(), "ratio");
    out.metric("core.exprllm.encode_ms", encode_ms, "ms");
    out.metric(
        "core.exprllm.seqs_per_s",
        tokens.seqs as f64 / (encode_ms / 1e3),
        "1/s",
    );
    out.metric("core.exprllm.share", encode_ms / model_ms, "ratio");
    out.metric("core.tagformer.encode_ms", tagformer_ms, "ms");
    out.metric("core.tagformer.share", tagformer_ms / model_ms, "ratio");
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = Run {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        tracer: Tracer::new(args.trace),
    };
    let mut out = Outcome::default();
    out.info
        .str("workload_name", &args.workload)
        .raw("seed", args.seed.to_string())
        .num("seconds", args.seconds as f64)
        .num("trace", f64::from(u8::from(args.trace)))
        .num(
            "host_cpus",
            std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
        )
        .num("worker_threads", nettag_par::num_threads() as f64)
        .str("simd_tier", nettag_nn::simd::active_tier().name());
    match args.workload.as_str() {
        "embed_designs" => embed::run(&run, &mut out),
        "serve_stream" => serve::run(&run, &mut out),
        "pretrain" => pretrain::run(&run, &mut out),
        _ => unreachable!("validated in parse_args"),
    }
    select_metrics(&mut out, &args);
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if args.trace {
        if let Err(e) = run
            .tracer
            .write(&std::path::Path::new(OUT_DIR).join(format!("{stem}-spans.json")))
        {
            out.check(false, || format!("writing spans: {e}"));
        }
    }
    for (name, value, unit) in &out.metrics {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    for failure in &out.check_failures {
        println!("CHECK FAILED: {failure}");
    }
    let result = out.result_line();
    let record = format!(
        "{{\"run\": {}, \"check_failures\": [{}], \"result\": {result}}}\n",
        out.info.json(),
        out.check_failures
            .iter()
            .map(|f| json_str(f))
            .collect::<Vec<_>>()
            .join(", ")
    );
    if let Err(e) = std::fs::write(
        std::path::Path::new(OUT_DIR).join(format!("{stem}.json")),
        &record,
    ) {
        eprintln!("perfbench: writing the run record: {e}");
    }
    println!("run: {}", out.info.json());
    println!("{result}");
    ExitCode::SUCCESS
}

/// Orders the metrics as declared and rejects any metric not declared.
/// A traced run prints every per-layer metric; a layer its workload does
/// not reach reads 0.
fn select_metrics(out: &mut Outcome, args: &Args) {
    let measured = std::mem::take(&mut out.metrics);
    let find = |name: &str| measured.iter().find(|(m, _, _)| m == name).cloned();
    if args.trace {
        for (name, _, _) in &measured {
            assert!(
                PER_LAYER.iter().any(|(d, _)| d == name),
                "{name} is not a declared per-layer metric"
            );
        }
        out.metrics = PER_LAYER
            .iter()
            .map(|(name, unit)| find(name).unwrap_or((name.to_string(), 0.0, unit)))
            .collect();
    } else {
        assert_eq!(
            measured.len(),
            END_TO_END.len(),
            "end-to-end metrics measured: {measured:?}"
        );
        out.metrics = END_TO_END
            .iter()
            .map(|name| find(name).unwrap_or_else(|| panic!("{name} was not measured")))
            .collect();
    }
}
