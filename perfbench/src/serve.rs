//! `serve_stream`: requests over one pipelined loopback TCP connection to
//! a `NetServer` in front of `Engine::from_checkpoint` with the `tiny`
//! model, as back-to-back bursts (untraced run) or open-loop Poisson
//! arrivals (traced run). The only workload that runs `serve` (wire
//! protocol, connection threads, batcher lanes, cone cache).

use crate::common::{self, bits, timed, Run, TokenStats};
use crate::report::{Digest, Obj, Outcome};
use crate::sched::{self, Rng};
use crate::stats::{median, quantile, sorted, supports};
use nettag_core::{NetTag, NetTagConfig};
use nettag_expr::parse_expr;
use nettag_expr::token::tokenize_expr;
use nettag_netlist::{
    chunk_into_cones, cone_to_netlist, gate_expr, structural_hash_with_phys,
    synthesis_phys_estimates, Library, Netlist, Tag,
};
use nettag_serve::proto::{self, ErrorCode, Request, RequestBody, Response, ResponseBody};
use nettag_serve::{Engine, NetServer, ServeConfig, ServeStats};
use nettag_synth::ALL_FAMILIES;
use std::collections::{HashMap, HashSet};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The two fixed arrival rates (requests/s), frozen from calibration on
/// a 2-core host so the parent and a change see identical load.
const LIGHT_RPS: f64 = 200.0;
const HEAVY_RPS: f64 = 400.0;
/// Shares of `--seconds` spent at each fixed rate.
const LIGHT_SHARE: f64 = 0.5;
const HEAVY_SHARE: f64 = 0.4;
/// Requests per measurement window, the fewest that support a p99. The
/// fixed-rate phases run as interleaved windows, and each latency metric
/// is a median over windows sent on time, so a burst of CPU steal from
/// other tenants of the host moves one window, not the result.
const WINDOW_REQUESTS: usize = 1000;
/// The rate ladder `serve.max_rps` climbs (requests/s).
const LADDER: [f64; 8] = [
    800.0, 1000.0, 1250.0, 1600.0, 2000.0, 2500.0, 3200.0, 4000.0,
];
/// Requests per burst of the untraced run: the next requests of the
/// stream, sent back to back with at most [`BURST_INFLIGHT`] outstanding.
const BURST_REQUESTS: usize = 1000;
/// Requests a burst keeps outstanding: enough for the engine to batch,
/// few enough that no lane queue fills, so nothing is shed.
const BURST_INFLIGHT: usize = 64;
/// Bursts per second of `--seconds`, and the fewest a run makes.
const BURSTS_PER_SECOND: f64 = 0.8;
const MIN_BURSTS: usize = 5;
/// Requests per ladder rung.
const RUNG_REQUESTS: usize = 1500;
/// The p99 latency a rung must meet. Below saturation the engine's
/// batching holds p99 well under it; past saturation the queue, and p99
/// with it, grow without bound.
const P99_LIMIT_MS: f64 = 100.0;
/// A phase whose sender ran later than this at p99 lagged: the host did
/// not run the load generator on time, so the phase did not offer its
/// scheduled load. The sender shares two cores with the server and with
/// other tenants' CPU steal; a lag this size, which due-time latency
/// counts in full, leaves a window's offered rate unchanged.
const LAG_LIMIT_MS: f64 = 20.0;
/// A rung stops sending once this many requests are outstanding: the
/// backlog is growing, and stopping keeps every lane queue below its
/// bound so nothing is shed.
const INFLIGHT_ABORT: usize = 200;
/// Engine + server start-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 60;
/// Scale of the designs the cones are cut from.
const SCALE: f64 = 0.1;
/// Largest cone served, in gates. Cone sizes are heavy-tailed (a few
/// cones of several hundred gates); past this size one cone's compute
/// sets every p99 in its lane, so the workload serves cones of 2 to 100
/// gates and reports their mean size.
const MAX_CONE_GATES: usize = 100;

/// One distinct cone: its netlist and engine cache key.
struct Cone {
    netlist: Netlist,
    key: u128,
}

/// The generated inputs: what a client embedding seeded designs at cone
/// and gate grain sends, in order. Per register cone it asks for the
/// cone's embedding and for the gate embedding of the expression that
/// drives the register. Cones repeat as often as the designs repeat them
/// (the engine's key decides what counts as the same cone), so the hit
/// share the cache sees is the designs' own repeat rate, not a chosen mix.
struct Inputs {
    /// Distinct cones, by first appearance.
    cones: Vec<Cone>,
    /// Distinct expressions, by first appearance.
    exprs: Vec<String>,
    /// The request stream.
    stream: Vec<Item>,
    /// Cones cut from the designs, and those left out for their size.
    cut: usize,
    too_large: usize,
}

/// What a sent request asked for, to check its reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Item {
    Cone(usize),
    Expr(usize),
}

/// A phase: its name and rate, its arrival times, and where its requests
/// start in the stream.
struct Plan {
    name: String,
    rate: f64,
    dues: Vec<Duration>,
    offset: usize,
}

/// Counters an engine phase moved: deltas of [`ServeStats`], except
/// `batch_max`, which is the largest batch so far.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseStats {
    pub requests: u64,
    pub batches: u64,
    pub batch_max: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub dedup_hits: u64,
    pub shed: u64,
    pub deadline_expired: u64,
    pub panics_recovered: u64,
}

impl PhaseStats {
    /// What changed between two snapshots of one engine's counters.
    pub fn between(before: &ServeStats, after: &ServeStats) -> PhaseStats {
        PhaseStats {
            requests: after.requests - before.requests,
            batches: after.batches - before.batches,
            batch_max: after.max_batch,
            cache_hits: after.cache_hits - before.cache_hits,
            cache_misses: after.cache_misses - before.cache_misses,
            dedup_hits: after.dedup_hits - before.dedup_hits,
            shed: after.shed - before.shed,
            deadline_expired: after.deadline_expired - before.deadline_expired,
            panics_recovered: after.panics_recovered - before.panics_recovered,
        }
    }

    fn add(&mut self, o: &PhaseStats) {
        self.requests += o.requests;
        self.batches += o.batches;
        self.batch_max = self.batch_max.max(o.batch_max);
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.dedup_hits += o.dedup_hits;
        self.shed += o.shed;
        self.deadline_expired += o.deadline_expired;
        self.panics_recovered += o.panics_recovered;
    }

    fn batch_mean(&self) -> f64 {
        self.requests as f64 / self.batches.max(1) as f64
    }

    fn hit_ratio(&self) -> f64 {
        self.cache_hits as f64 / (self.cache_hits + self.cache_misses).max(1) as f64
    }
}

/// What one phase measured.
struct PhaseResult {
    name: String,
    rate: f64,
    sent: usize,
    /// Due-time latency per sent request, in due order (`None`: failed).
    latencies: Vec<Option<f64>>,
    lag_p99_ms: f64,
    inflight_max: usize,
    /// The sender stopped early because the backlog passed its bound.
    aborted: bool,
    /// Replies by request id.
    replies: Vec<(u64, ResponseBody)>,
    stats: PhaseStats,
    failed: HashMap<&'static str, u64>,
}

impl PhaseResult {
    fn ok_latencies(&self) -> Vec<f64> {
        self.latencies.iter().flatten().copied().collect()
    }

    fn failures(&self) -> u64 {
        self.failed.values().sum()
    }

    fn p(&self, q: f64) -> Option<f64> {
        let lat = sorted(self.ok_latencies());
        supports(lat.len(), q).then(|| quantile(&lat, q)).flatten()
    }

    fn backlog_grew(&self) -> bool {
        self.aborted || sched::backlog_grew(&self.ok_latencies(), P99_LIMIT_MS / 10.0)
    }

    /// Whether the sender fell behind its schedule: the host did not run
    /// the load generator on time, so the phase did not offer its load.
    /// Such a window is a fault of the harness: its latencies never count,
    /// and a spare replaces it. A window whose backlog grew is the
    /// server's own doing: it is not replaced, and its latencies count.
    fn lagged(&self) -> bool {
        self.lag_p99_ms > LAG_LIMIT_MS
    }

    /// Whether the phase was sent on time, kept its queue from growing,
    /// and met the latency limit with every request answered.
    fn meets_limit(&self) -> bool {
        !self.lagged()
            && !self.backlog_grew()
            && self.failures() == 0
            && self.p(0.99).is_some_and(|p| p <= P99_LIMIT_MS)
    }

    /// Milliseconds per request from the phase's start to its last reply.
    fn ms_per_request(&self) -> f64 {
        self.ok_latencies().into_iter().fold(0.0, f64::max) / self.sent.max(1) as f64
    }

    fn json(&self) -> String {
        let mut o = Obj::default();
        o.str("name", &self.name)
            .num("rate", self.rate)
            .num("sent", self.sent as f64)
            .num("ok", self.ok_latencies().len() as f64)
            .num("failed", self.failures() as f64)
            .num("p50_ms", self.p(0.5).unwrap_or(f64::NAN))
            .num("p99_ms", self.p(0.99).unwrap_or(f64::NAN))
            .num("generator_lag_p99_ms", self.lag_p99_ms)
            .num("inflight_max", self.inflight_max as f64)
            .raw("lagged", self.lagged().to_string())
            .raw("backlog_grew", self.backlog_grew().to_string())
            .num("batches", self.stats.batches as f64)
            .num("batch_mean", self.stats.batch_mean())
            .num("cache_hits", self.stats.cache_hits as f64)
            .num("cache_misses", self.stats.cache_misses as f64)
            .num("dedup_hits", self.stats.dedup_hits as f64);
        o.json()
    }
}

pub fn run(run: &Run, out: &mut Outcome) {
    let config = NetTagConfig::tiny();
    let (model, path) = common::write_checkpoint(run, "serve_stream", config.clone());
    let cfg = ServeConfig::default();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut live: Option<(Engine, NetServer)> = None;
    for i in 0..SETUP_REPEATS {
        // Shut the previous engine down first, so every start-up parses
        // the checkpoint instead of sharing the still-loaded weights.
        if let Some((engine, server)) = live.take() {
            server.shutdown();
            engine.shutdown();
        }
        let (started, s) = run.tracer.span("serve.setup", 0, i as u64, |_| {
            timed(|| {
                let engine = Engine::from_checkpoint(&path, cfg).expect("start the engine");
                let server =
                    NetServer::bind(engine.client(), "127.0.0.1:0").expect("bind on loopback");
                (engine, server)
            })
        });
        setups.push(s);
        live = Some(started);
    }
    let (engine, server) = live.expect("at least one start-up");
    // The traced run also times the checkpoint load on its own.
    let loads = if run.traced() {
        common::load_repeatedly(run, &path, SETUP_REPEATS).1
    } else {
        Vec::new()
    };
    let _ = std::fs::remove_file(&path);

    let mut rng = Rng::new(run.seed, 0x5E5E);
    let mut plans = Vec::new();
    let mut offset = 0;
    let mut plan = |name: &str, rate: f64, count: usize| {
        let dues = if name == "burst" {
            vec![Duration::ZERO; count]
        } else {
            sched::poisson_dues(&mut rng, rate, count)
        };
        plans.push(Plan {
            name: name.to_string(),
            rate,
            dues,
            offset,
        });
        offset += count;
    };
    let windows = |rate: f64, share: f64| {
        ((rate * share * run.seconds.as_secs_f64() / WINDOW_REQUESTS as f64).round() as usize)
            .max(1)
    };
    // The open-loop windows and the ladder run on the traced run, the
    // bursts on the untraced run (see README.md).
    let (n_light, n_heavy) = if run.traced() {
        (
            windows(LIGHT_RPS, LIGHT_SHARE),
            windows(HEAVY_RPS, HEAVY_SHARE),
        )
    } else {
        (0, 0)
    };
    let target = |name: &str| if name == "light" { n_light } else { n_heavy };
    // Twice the windows needed: a window the sender lagged is replaced by
    // a spare.
    let (n_light, n_heavy) = (2 * n_light, 2 * n_heavy);
    let (mut light, mut heavy) = (0, 0);
    while light + heavy < n_light + n_heavy {
        // Interleave the rates in proportion, so both see the same host.
        if heavy == n_heavy || (light < n_light && light * n_heavy <= heavy * n_light) {
            plan("light", LIGHT_RPS, WINDOW_REQUESTS);
            light += 1;
        } else {
            plan("heavy", HEAVY_RPS, WINDOW_REQUESTS);
            heavy += 1;
        }
    }
    let n_fixed = n_light + n_heavy;
    if run.traced() {
        for rate in LADDER {
            plan(&format!("rung{rate}"), rate, RUNG_REQUESTS);
        }
    } else {
        let bursts = (BURSTS_PER_SECOND * run.seconds.as_secs_f64()).round() as usize;
        for _ in 0..bursts.max(MIN_BURSTS) {
            plan("burst", 0.0, BURST_REQUESTS);
        }
    }
    let lib = Library::default();
    let inputs = generate_inputs(run, &lib, offset, model.config.hops);

    let mut conn = Conn::open(server.local_addr());
    let mut items: HashMap<u64, Item> = HashMap::new();
    let mut frames: Vec<Vec<u8>> = Vec::new();
    let mut results: Vec<PhaseResult> = Vec::new();
    let mut n_run_fixed = 0;
    for (i, p) in plans.iter().enumerate() {
        let pace = if i < n_fixed {
            let kept = results
                .iter()
                .filter(|r| r.name == p.name && !r.lagged())
                .count();
            if kept >= target(&p.name) {
                continue;
            }
            n_run_fixed += 1;
            Pace::OnTime
        } else if p.name == "burst" {
            Pace::Capped(BURST_INFLIGHT)
        } else {
            Pace::AbortAt(INFLIGHT_ABORT)
        };
        // A request's id is its position in the stream.
        let encoded: Vec<(Duration, u64, Vec<u8>)> = p
            .dues
            .iter()
            .enumerate()
            .map(|(k, &due)| {
                let id = (p.offset + k) as u64;
                let item = inputs.stream[p.offset + k];
                items.insert(id, item);
                (due, id, encode_request(id, item, &inputs))
            })
            .collect();
        if frames.is_empty() && p.name == "heavy" {
            frames = encoded.iter().map(|(_, _, f)| f.clone()).collect();
        }
        let r = run_phase(&mut conn, &engine, &p.name, p.rate, &encoded, pace);
        let stop = matches!(pace, Pace::AbortAt(_)) && !r.meets_limit();
        results.push(r);
        if stop {
            break;
        }
    }
    drop(conn);
    server.shutdown();
    engine.shutdown();

    check_replies(out, &model, &inputs, &items, &results);
    // The phases the run measures: the fixed-rate windows of the traced
    // run, or the bursts of the untraced run. Ladder rungs past the knee
    // fail by design and are not counted.
    let (measured, ladder) = if run.traced() {
        results.split_at(n_run_fixed)
    } else {
        (&results[..], &[][..])
    };
    out.attempted += measured.iter().map(|r| r.sent as u64).sum::<u64>();
    out.failed += measured.iter().map(PhaseResult::failures).sum::<u64>();
    let mut stats = PhaseStats::default();
    for r in measured {
        stats.add(&r.stats);
    }
    let mix = sent_mix(&items);
    let mut info = Obj::default();
    info.num("cache_capacity", cfg.cache_capacity as f64)
        .num("lanes", engine.lane_count() as f64)
        .num("cones_cut", inputs.cut as f64)
        .num("cones_too_large", inputs.too_large as f64)
        .num("max_cone_gates", MAX_CONE_GATES as f64)
        .num(
            "cone_mean_gates",
            inputs
                .cones
                .iter()
                .map(|c| c.netlist.gate_count())
                .sum::<usize>() as f64
                / inputs.cones.len().max(1) as f64,
        )
        .num("distinct_keys", distinct_keys(&inputs, &items) as f64)
        .num(
            "repeat_share",
            mix.cone_repeat as f64 / (mix.cone_first + mix.cone_repeat).max(1) as f64,
        )
        .num("cache_hit_ratio", stats.hit_ratio())
        .num("batch_mean", stats.batch_mean())
        .num("sent.cone_first", mix.cone_first as f64)
        .num("sent.cone_repeat", mix.cone_repeat as f64)
        .num("sent.expr", mix.expr as f64)
        .raw(
            "phases",
            format!(
                "[{}]",
                results
                    .iter()
                    .map(PhaseResult::json)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        );
    out.info.raw("model_config", common::config_json(&config));
    if !run.traced() {
        // The time per request of each burst, from the first send to the
        // last reply; `time_ms` is the median over bursts.
        let per_request: Vec<f64> = measured.iter().map(PhaseResult::ms_per_request).collect();
        info.num("burst_requests", BURST_REQUESTS as f64)
            .num("burst_inflight", BURST_INFLIGHT as f64)
            .num("bursts", measured.len() as f64);
        out.metric("setup_s", median(&setups).expect("setups"), "s");
        out.metric("time_ms", median(&per_request).expect("bursts"), "ms");
        out.info.raw("workload", info.json());
        return;
    }

    // Windows the sender lagged do not count at all; every other window
    // does, a window whose backlog grew too. At least half the windows
    // planned per rate must have been sent on time. Each rate's p50 and
    // p99 is the median over its windows.
    let kept: Vec<&PhaseResult> = measured.iter().filter(|r| !r.lagged()).collect();
    for name in ["light", "heavy"] {
        let windows: Vec<&PhaseResult> = kept.iter().copied().filter(|r| r.name == name).collect();
        out.check(2 * windows.len() >= target(name), || {
            format!(
                "{name}: only {} windows of {} planned were sent on time",
                windows.len(),
                target(name)
            )
        });
        for q in [0.5, 0.99] {
            let per_window: Vec<f64> = windows.iter().filter_map(|r| r.p(q)).collect();
            out.check(
                !per_window.is_empty() && per_window.len() == windows.len(),
                || {
                    format!(
                        "{name}: a window has too few replies for its p{}",
                        q * 100.0
                    )
                },
            );
            out.metric(
                &format!("serve.p{}_ms.{name}", (q * 100.0) as u32),
                median(&per_window).unwrap_or(P99_LIMIT_MS),
                "ms",
            );
        }
    }
    info.num("window_requests", WINDOW_REQUESTS as f64)
        .num("p99_limit_ms", P99_LIMIT_MS)
        .num("lag_limit_ms", LAG_LIMIT_MS);
    traced(
        run, out, &model, &inputs, &items, measured, &stats, ladder, &frames, &loads,
    );
    out.info.raw("workload", info.json());
}

/// Cuts the register cones of seeded designs of all four families, in
/// order, into the request stream until it holds `requests` requests:
/// per cone of 2 to [`MAX_CONE_GATES`] gates, the cone, then the
/// expression driving its register.
fn generate_inputs(run: &Run, lib: &Library, requests: usize, hops: usize) -> Inputs {
    let tracer = &run.tracer;
    let mut inputs = Inputs {
        cones: Vec::new(),
        exprs: Vec::new(),
        stream: Vec::with_capacity(requests + 1),
        cut: 0,
        too_large: 0,
    };
    let mut cone_index: HashMap<u128, usize> = HashMap::new();
    let mut expr_index: HashMap<String, usize> = HashMap::new();
    let mut index = 0;
    while inputs.stream.len() < requests {
        let family = ALL_FAMILIES[index % ALL_FAMILIES.len()];
        let design = common::design(family, index / ALL_FAMILIES.len(), run.seed ^ 0x5E, SCALE);
        let netlist = &design.netlist;
        tracer.count("netlist.gates", netlist.gate_count() as f64);
        let chunks = tracer.span("netlist.chunk", 0, index as u64, |_| {
            chunk_into_cones(netlist)
        });
        for c in &chunks {
            let sub = tracer.span("netlist.cone_to_netlist", 0, index as u64, |_| {
                cone_to_netlist(netlist, c)
            });
            if sub.gate_count() < 2 {
                continue;
            }
            inputs.cut += 1;
            if sub.gate_count() > MAX_CONE_GATES {
                inputs.too_large += 1;
                continue;
            }
            let props = synthesis_phys_estimates(&sub, lib);
            let key = tracer.span("netlist.structural_hash", 0, index as u64, |_| {
                structural_hash_with_phys(&sub, &props)
            });
            tracer.count("netlist.cones", 1.0);
            let cone = *cone_index.entry(key).or_insert_with(|| {
                inputs.cones.push(Cone { netlist: sub, key });
                inputs.cones.len() - 1
            });
            let driver = netlist
                .gate(c.root)
                .fanin
                .first()
                .copied()
                .unwrap_or(c.root);
            let text = gate_expr(netlist, driver, hops).to_string();
            let expr = *expr_index.entry(text).or_insert_with_key(|text| {
                inputs.exprs.push(text.clone());
                inputs.exprs.len() - 1
            });
            inputs.stream.push(Item::Cone(cone));
            inputs.stream.push(Item::Expr(expr));
        }
        index += 1;
    }
    inputs
}

fn encode_request(id: u64, item: Item, inputs: &Inputs) -> Vec<u8> {
    let body = match item {
        Item::Cone(i) => RequestBody::EmbedCone {
            netlist: inputs.cones[i].netlist.clone(),
            phys: None,
        },
        Item::Expr(i) => RequestBody::EmbedExpr {
            text: inputs.exprs[i].clone(),
        },
    };
    let mut buf = Vec::new();
    proto::write_request(
        &mut buf,
        &Request {
            id,
            deadline_ms: 0,
            body,
        },
    )
    .expect("encode into memory");
    buf
}

/// One client connection, split into its write and read halves.
struct Conn {
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to the server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("set a read timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("clone the stream"));
        let mut writer = BufWriter::new(stream);
        proto::write_hello(&mut writer).expect("send hello");
        writer.flush().expect("flush hello");
        proto::read_hello(&mut reader).expect("read hello");
        Conn { writer, reader }
    }
}

/// Id of the `ping` that marks the end of a phase's sends.
const MARKER: u64 = u64::MAX;

/// How a phase's sender paces its requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pace {
    /// Each request at its due time.
    OnTime,
    /// Each request at its due time, stopping once this many requests are
    /// outstanding.
    AbortAt(usize),
    /// Back to back, waiting while this many requests are outstanding.
    Capped(usize),
}

/// Runs one phase: one thread sends each pre-encoded frame as `pace`
/// says, another reads replies; a trailing `ping` tells the reader how
/// many replies to wait for.
fn run_phase(
    conn: &mut Conn,
    engine: &Engine,
    name: &str,
    rate: f64,
    frames: &[(Duration, u64, Vec<u8>)],
    pace: Pace,
) -> PhaseResult {
    let abort_inflight = match pace {
        Pace::AbortAt(n) => n,
        _ => usize::MAX,
    };
    let before = engine.stats();
    let sent = AtomicUsize::new(0);
    let received = AtomicUsize::new(0);
    let aborted = AtomicBool::new(false);
    let Conn { writer, reader } = conn;
    let start = Instant::now() + Duration::from_millis(5);
    let (lags, inflight_max, replies) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut lags = Vec::with_capacity(frames.len());
            let mut inflight_max = 0;
            for (due, _, frame) in frames {
                let at = start + *due;
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                let outstanding = || {
                    sent.load(Ordering::SeqCst)
                        .saturating_sub(received.load(Ordering::SeqCst))
                };
                if let Pace::Capped(cap) = pace {
                    while outstanding() >= cap {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                }
                let inflight = outstanding();
                if inflight >= abort_inflight {
                    aborted.store(true, Ordering::SeqCst);
                    break;
                }
                inflight_max = inflight_max.max(inflight + 1);
                lags.push(Instant::now().saturating_duration_since(at).as_secs_f64() * 1e3);
                // Counted before the write, so a reply never precedes it.
                sent.fetch_add(1, Ordering::SeqCst);
                writer.write_all(frame).expect("send a request");
                writer.flush().expect("flush a request");
            }
            let marker = Request {
                id: MARKER,
                deadline_ms: 0,
                body: RequestBody::Ping,
            };
            proto::write_request(writer, &marker).expect("send the end marker");
            writer.flush().expect("flush the end marker");
            (lags, inflight_max)
        });
        let reader = s.spawn(|| {
            let mut replies = Vec::with_capacity(frames.len());
            let mut marker_seen = false;
            while !(marker_seen && replies.len() == sent.load(Ordering::SeqCst)) {
                match proto::read_response(reader) {
                    Ok(Some(Response { id: MARKER, .. })) => marker_seen = true,
                    Ok(Some(Response { id, body })) => {
                        replies.push((id, body, Instant::now()));
                        received.fetch_add(1, Ordering::SeqCst);
                    }
                    Ok(None) | Err(_) => break,
                }
            }
            replies
        });
        let (lags, inflight_max) = sender.join().expect("sender thread");
        (lags, inflight_max, reader.join().expect("reader thread"))
    });
    let n = sent.load(Ordering::SeqCst);
    let first_id = frames.first().map_or(0, |f| f.1);
    let mut done: Vec<Option<Duration>> = vec![None; n];
    let mut failed: HashMap<&'static str, u64> = HashMap::new();
    for (id, body, at) in &replies {
        match body {
            ResponseBody::Error { code, .. } => {
                let kind = match code {
                    ErrorCode::Overloaded => "overloaded",
                    ErrorCode::DeadlineExceeded => "deadline",
                    ErrorCode::Internal => "internal",
                    _ => "other",
                };
                *failed.entry(kind).or_insert(0) += 1;
            }
            _ => done[(id - first_id) as usize] = Some(at.saturating_duration_since(start)),
        }
    }
    // A request that was never answered failed too.
    if replies.len() < n {
        *failed.entry("other").or_insert(0) += (n - replies.len()) as u64;
    }
    let due: Vec<Duration> = frames[..n].iter().map(|f| f.0).collect();
    let latencies = sched::due_latencies_ms(&due, &done);
    let lag_p99_ms = quantile(&sorted(lags), 0.99).unwrap_or(0.0);
    PhaseResult {
        name: name.to_string(),
        rate,
        sent: n,
        latencies,
        lag_p99_ms,
        inflight_max,
        aborted: aborted.load(Ordering::SeqCst),
        replies: replies
            .into_iter()
            .map(|(id, body, _)| (id, body))
            .collect(),
        stats: PhaseStats::between(&before, &engine.stats()),
        failed,
    }
}

/// The highest ladder rate whose p99 meets the limit with every request
/// answered and no growing backlog, interpolated on p99 towards the
/// first rung that misses when that rung's p99 (over the replies it got)
/// is past the limit.
fn max_rps(ladder: &[PhaseResult]) -> f64 {
    let passed = ladder.iter().take_while(|r| r.meets_limit()).count();
    let Some(last) = passed.checked_sub(1).map(|i| &ladder[i]) else {
        return 0.0;
    };
    let lo = last.p(0.99).expect("a passing rung has a p99");
    let hi = ladder
        .get(passed)
        .and_then(|miss| quantile(&sorted(miss.ok_latencies()), 0.99).map(|p| (miss.rate, p)));
    match hi {
        Some((rate, hi)) if hi > P99_LIMIT_MS => {
            last.rate + (rate - last.rate) * (P99_LIMIT_MS - lo) / (hi - lo)
        }
        _ => last.rate,
    }
}

/// Checks every reply bit for bit against the offline API on the model
/// the checkpoint was written from: `NetTag::embed_tag` for cones,
/// `ExprLlm::encode` for expressions. The output digest covers the first
/// two phases, which every run of a seed sends alike.
fn check_replies(
    out: &mut Outcome,
    model: &NetTag,
    inputs: &Inputs,
    items: &HashMap<u64, Item>,
    results: &[PhaseResult],
) {
    let lib = Library::default();
    let vocab = NetTag::vocab();
    let mut digest = Digest::default();
    let mut replies: Vec<(usize, &(u64, ResponseBody))> = results
        .iter()
        .enumerate()
        .flat_map(|(w, r)| r.replies.iter().map(move |reply| (w, reply)))
        .collect();
    replies.sort_by_key(|(_, (id, _))| *id);
    // The offline embedding of every distinct item, on the host's workers.
    let distinct: Vec<Item> = replies
        .iter()
        .map(|(_, (id, _))| items[id])
        .collect::<HashSet<Item>>()
        .into_iter()
        .collect();
    let wants = nettag_par::map_slice(&distinct, |&item| match item {
        Item::Cone(i) => {
            let tag = Tag::from_netlist(&inputs.cones[i].netlist, &lib, &model.tag_options());
            bits(&model.embed_tag(&tag).cls.data)
        }
        Item::Expr(i) => {
            let expr = parse_expr(&inputs.exprs[i]).expect("generated expressions parse");
            let toks = tokenize_expr(&vocab, &expr, model.config.max_tokens);
            bits(&model.exprllm.encode(&toks).data)
        }
    });
    let reference: HashMap<Item, Vec<u32>> = distinct.into_iter().zip(wants).collect();
    for (phase, (id, body)) in replies {
        let item = items[id];
        let want = &reference[&item];
        match body {
            ResponseBody::Embedding(v) => {
                if phase < 2 {
                    digest.f32s(v);
                }
                out.check(bits(v) == *want, || {
                    format!("request {id} ({item:?}): reply differs from the offline embedding")
                });
            }
            ResponseBody::Error { .. } => {}
            other => out.check(false, || {
                format!("request {id}: unexpected reply {other:?}")
            }),
        }
    }
    out.info.str("output_digest", &digest.hex());
}

/// Distinct cone keys the run sent.
fn distinct_keys(inputs: &Inputs, items: &HashMap<u64, Item>) -> usize {
    items
        .values()
        .filter_map(|i| match i {
            Item::Cone(k) => Some(inputs.cones[*k].key),
            Item::Expr(_) => None,
        })
        .collect::<HashSet<_>>()
        .len()
}

/// The requests a run sent, by kind.
struct SentMix {
    /// Cones sent for the first time in the run.
    cone_first: usize,
    /// Cones the run had sent before.
    cone_repeat: usize,
    expr: usize,
}

/// The first sends of each cone, by request id.
fn first_sends(items: &HashMap<u64, Item>) -> HashSet<u64> {
    let mut ids: Vec<(&u64, &Item)> = items.iter().collect();
    ids.sort_unstable_by_key(|(id, _)| **id);
    let mut seen = HashSet::new();
    ids.into_iter()
        .filter(|(_, item)| matches!(item, Item::Cone(_)) && seen.insert(**item))
        .map(|(id, _)| *id)
        .collect()
}

fn sent_mix(items: &HashMap<u64, Item>) -> SentMix {
    let cones = items
        .values()
        .filter(|i| matches!(i, Item::Cone(_)))
        .count();
    let first = first_sends(items).len();
    SentMix {
        cone_first: first,
        cone_repeat: cones - first,
        expr: items.len() - cones,
    }
}

/// The traced run's per-layer metrics: engine and cache deltas over the
/// fixed-rate phases, wire-frame costs, and an offline replay of the
/// heavy phase's misses through the staged `netlist` and `core` calls.
#[allow(clippy::too_many_arguments)]
fn traced(
    run: &Run,
    out: &mut Outcome,
    model: &NetTag,
    inputs: &Inputs,
    items: &HashMap<u64, Item>,
    fixed: &[PhaseResult],
    stats: &PhaseStats,
    ladder: &[PhaseResult],
    frames: &[Vec<u8>],
    loads: &[f64],
) {
    let tracer = &run.tracer;
    let heavy: Vec<&PhaseResult> = fixed.iter().filter(|r| r.name == "heavy").collect();
    out.metric("serve.engine.batches", stats.batches as f64, "count");
    out.metric("serve.engine.batch_mean", stats.batch_mean(), "count");
    out.metric("serve.engine.batch_max", stats.batch_max as f64, "count");
    out.metric("serve.engine.dedup_hits", stats.dedup_hits as f64, "count");
    out.metric("serve.engine.shed", stats.shed as f64, "count");
    out.metric(
        "serve.engine.deadline_expired",
        stats.deadline_expired as f64,
        "count",
    );
    out.metric(
        "serve.engine.panics_recovered",
        stats.panics_recovered as f64,
        "count",
    );
    out.metric("serve.cache.hits", stats.cache_hits as f64, "count");
    out.metric("serve.cache.misses", stats.cache_misses as f64, "count");
    out.metric("serve.cache.hit_ratio", stats.hit_ratio(), "ratio");
    let fixed_ids: HashMap<u64, Item> = fixed
        .iter()
        .flat_map(|r| r.replies.iter().map(|(id, _)| (*id, items[id])))
        .collect();
    out.metric(
        "serve.cache.distinct_keys",
        distinct_keys(inputs, &fixed_ids) as f64,
        "count",
    );
    let sent: usize = fixed.iter().map(|r| r.sent).sum();
    let ok: usize = fixed.iter().map(|r| r.ok_latencies().len()).sum();
    out.metric("serve.net.sent", sent as f64, "count");
    out.metric("serve.net.ok", ok as f64, "count");
    let failed = |kind: &str| {
        fixed
            .iter()
            .map(|r| r.failed.get(kind).copied().unwrap_or(0))
            .sum::<u64>() as f64
    };
    let total_failed: u64 = fixed.iter().map(PhaseResult::failures).sum();
    out.metric("serve.net.failed", total_failed as f64, "count");
    for kind in ["overloaded", "deadline", "internal", "other"] {
        out.metric(&format!("serve.net.failed.{kind}"), failed(kind), "count");
    }
    out.metric(
        "fail_ratio",
        total_failed as f64 / sent.max(1) as f64,
        "ratio",
    );
    out.metric("serve.max_rps", max_rps(ladder), "1/s");
    out.metric(
        "serve.net.generator_lag_p99_ms",
        fixed.iter().map(|r| r.lag_p99_ms).fold(0.0, f64::max),
        "ms",
    );
    out.metric(
        "serve.net.lagged_windows",
        fixed.iter().filter(|r| r.lagged()).count() as f64,
        "count",
    );
    out.metric(
        "serve.net.backlog_windows",
        fixed
            .iter()
            .filter(|r| !r.lagged() && r.backlog_grew())
            .count() as f64,
        "count",
    );
    out.metric(
        "serve.net.inflight_max",
        fixed.iter().map(|r| r.inflight_max).max().unwrap_or(0) as f64,
        "count",
    );
    out.metric(
        "core.persist.load_ms",
        median(loads).expect("loads") * 1e3,
        "ms",
    );

    // Wire frames of the heavy phase, encoded and decoded in memory.
    let requests: Vec<Request> = frames
        .iter()
        .map(|f| {
            proto::read_request(&mut f.as_slice())
                .expect("decode a frame")
                .expect("a whole frame")
        })
        .collect();
    let responses: Vec<Response> = heavy[0]
        .replies
        .iter()
        .map(|(id, body)| Response {
            id: *id,
            body: body.clone(),
        })
        .collect();
    let (response_frames, encode_s) = timed(|| {
        let mut buf = Vec::new();
        for r in &requests {
            proto::write_request(&mut buf, r).expect("encode into memory");
        }
        let mut rbuf = Vec::new();
        for r in &responses {
            proto::write_response(&mut rbuf, r).expect("encode into memory");
        }
        std::hint::black_box(&buf);
        rbuf
    });
    let (_, decode_s) = timed(|| {
        for f in frames {
            std::hint::black_box(proto::read_request(&mut f.as_slice()).expect("decode"));
        }
        let mut r = response_frames.as_slice();
        while let Some(resp) = proto::read_response(&mut r).expect("decode") {
            std::hint::black_box(resp);
        }
    });
    let frame_count = (requests.len() + responses.len()).max(1) as f64;
    out.metric(
        "serve.proto.request_bytes",
        frames.iter().map(Vec::len).sum::<usize>() as f64 / frames.len().max(1) as f64,
        "B",
    );
    out.metric(
        "serve.proto.response_bytes",
        response_frames.len() as f64 / responses.len().max(1) as f64,
        "B",
    );
    out.metric("serve.proto.encode_us", encode_s * 1e6 / frame_count, "us");
    out.metric("serve.proto.decode_us", decode_s * 1e6 / frame_count, "us");

    // Offline replay of the heavy windows' misses: every cone they sent
    // for the first time in the run, through the model's public stages
    // with the vocabulary held, as the engine holds it.
    let lib = Library::default();
    let vocab = NetTag::vocab();
    let first = first_sends(items);
    let misses: Vec<&Cone> = heavy
        .iter()
        .flat_map(|r| &r.replies)
        .filter(|(id, _)| first.contains(id))
        .filter_map(|(id, _)| match items[id] {
            Item::Cone(i) => Some(&inputs.cones[i]),
            Item::Expr(_) => None,
        })
        .collect();
    let opts = model.tag_options();
    let (plain, untraced_s) = timed(|| {
        misses
            .iter()
            .map(|c| {
                let tag = Tag::from_netlist(&c.netlist, &lib, &opts);
                model.embed_tag(&tag).cls
            })
            .collect::<Vec<_>>()
    });
    let (staged, traced_s) = timed(|| {
        misses
            .iter()
            .enumerate()
            .map(|(i, c)| {
                tracer.span("serve.replay_miss", 0, i as u64, |_| {
                    let tag = tracer.span("netlist.tag_build", 0, i as u64, |_| {
                        Tag::from_netlist(&c.netlist, &lib, &opts)
                    });
                    let cls = common::embed_tag_staged(model, Some(&vocab), &tag, tracer, i as u64);
                    (cls, tag)
                })
            })
            .collect::<Vec<_>>()
    });
    let mut tokens = TokenStats::default();
    for (a, (b, tag)) in plain.iter().zip(&staged) {
        out.check(bits(&a.data) == bits(&b.data), || {
            "staged replay of a miss differs from embed_tag".into()
        });
        tokens.add(model, &vocab, tag, tracer);
    }
    let replay_ms = tracer.total_ms("serve.replay_miss");
    out.metric(
        "serve.compute_ms_per_miss",
        replay_ms / misses.len().max(1) as f64,
        "ms",
    );
    let hashes = tracer.calls("netlist.structural_hash").max(1) as f64;
    out.metric(
        "netlist.structural_hash_us",
        tracer.total_ms("netlist.structural_hash") * 1e3 / hashes,
        "us",
    );
    crate::layer_metrics(out, tracer, &tokens, replay_ms);
    out.metric("trace.overhead", traced_s / untraced_s, "x");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed-rate window of `n` requests with generator lag `lag_ms`,
    /// each answered after `latency(i)` ms.
    fn window(n: usize, lag_ms: f64, latency: impl Fn(usize) -> f64) -> PhaseResult {
        PhaseResult {
            name: "light".into(),
            rate: 200.0,
            sent: n,
            latencies: (0..n).map(|i| Some(latency(i))).collect(),
            lag_p99_ms: lag_ms,
            inflight_max: 1,
            aborted: false,
            replies: Vec::new(),
            stats: PhaseStats::default(),
            failed: HashMap::new(),
        }
    }

    #[test]
    fn lagged_and_backlogged_windows_are_told_apart() {
        let steady = window(1000, 1.0, |_| 2.0);
        let lagged = window(1000, 2.0 * LAG_LIMIT_MS, |_| 2.0);
        let growing = window(1000, 1.0, |i| 2.0 + i as f64 / 10.0);
        assert!(!steady.lagged() && !steady.backlog_grew() && steady.meets_limit());
        assert!(lagged.lagged() && !lagged.backlog_grew() && !lagged.meets_limit());
        assert!(growing.backlog_grew() && !growing.lagged() && !growing.meets_limit());
    }

    #[test]
    fn first_sends_mark_each_cones_first_request() {
        let items: HashMap<u64, Item> = [
            (0, Item::Cone(0)),
            (1, Item::Expr(0)),
            (2, Item::Cone(1)),
            (3, Item::Expr(0)),
            (4, Item::Cone(0)),
        ]
        .into_iter()
        .collect();
        assert_eq!(first_sends(&items), HashSet::from([0, 2]));
        let mix = sent_mix(&items);
        assert_eq!((mix.cone_first, mix.cone_repeat, mix.expr), (2, 1, 2));
    }

    #[test]
    fn phase_stats_are_deltas_with_a_running_max_batch() {
        let before = ServeStats {
            requests: 10,
            batches: 4,
            max_batch: 3,
            cache_hits: 2,
            cache_misses: 8,
            dedup_hits: 1,
            shed: 0,
            deadline_expired: 0,
            timeouts: 0,
            panics_recovered: 0,
        };
        let after = ServeStats {
            requests: 40,
            batches: 10,
            max_batch: 7,
            cache_hits: 20,
            cache_misses: 14,
            dedup_hits: 3,
            shed: 1,
            deadline_expired: 2,
            timeouts: 0,
            panics_recovered: 1,
        };
        let d = PhaseStats::between(&before, &after);
        assert_eq!(d.requests, 30);
        assert_eq!(d.batches, 6);
        assert_eq!(d.batch_max, 7);
        assert_eq!(d.cache_hits, 18);
        assert_eq!(d.cache_misses, 6);
        assert_eq!(d.dedup_hits, 2);
        assert_eq!(d.shed, 1);
        assert_eq!(d.deadline_expired, 2);
        assert_eq!(d.panics_recovered, 1);
        assert_eq!(d.batch_mean(), 5.0);
        assert_eq!(d.hit_ratio(), 0.75);
        assert_eq!(PhaseStats::between(&after, &after).requests, 0);
    }
}
