//! Serving benchmark for `ikrq serve`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload koe-10k --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run generates the workload's venue file and request stream from the
//! seed, serves the file through a child `ikrq serve` (the benchmark binary
//! re-executes itself with `--cli serve ...`, which is `ikrq_cli::run_args`),
//! drives it with a closed loop over two keep-alive connections, checks the
//! answers against an in-process scan engine, and prints its metrics. The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the window alternates
//! untraced and traced slices and the metrics are the per-layer ones,
//! derived from spans recorded around calls into each layer (written to
//! `.perfbench_traces/<workload>.jsonl`). A wrong answer makes the run exit
//! non-zero.

mod check;
mod child;
mod drive;
mod layers;
mod stats;
mod trace;
mod workload;

use child::ChildServer;
use drive::{drive, Answers, Client, ConnectionLog, Op, OpKind, Phase, Plan};
use ikrq_core::{IkrqService, SearchRequest};
use ikrq_server::KeepAliveClient;
use indoor_data::Venue;
use indoor_persist::binary;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::Value;
use stats::{mean, median, percentile, ratio, samples_beyond};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Span, Trace};
use workload::{RequestStream, Workload};

/// Closed-loop clients, each on its own keep-alive connection.
const CONNECTIONS: usize = 2;
/// Server spawns per run; `setup_s` is their median.
const SETUP_SPAWNS: usize = 9;
/// Reloads timed after the window on workloads that do not reload in it.
const RELOAD_PROBES: usize = 25;
/// Length of each untraced or traced slice of a traced window.
const TRACE_SLICE: Duration = Duration::from_millis(250);
/// Per-request socket timeout; a slower answer counts as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);
/// In-process cold loads in a traced run.
const TRACED_LOADS: usize = 3;
/// Requests whose source doors the shortest-path probe runs from.
const PROBE_REQUESTS: usize = 6;

/// Every span the traced run records; each gets a mean self-time metric.
const SPAN_NAMES: [&str; 12] = [
    "setup",
    "persist.read",
    "persist.model",
    "persist.index_adopt",
    "engine.new",
    "request",
    "wire",
    "core.context.prepare",
    "core.search.run",
    "core.service.search",
    "space.probe",
    "space.from_door",
];

struct Options {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Whether the metric goes into the result line; the others are only
    /// printed in the table.
    in_result: bool,
}

/// What a run reports.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--cli") {
        return match ikrq_cli::run_args(&args[1..]) {
            Ok(report) => {
                print!("{report}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("ikrq: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                workload::WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&options) {
        Ok(report) => {
            for note in &report.notes {
                println!("{note}");
            }
            for m in &report.metrics {
                println!("  {:<28} {:>14.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", result_json(&report));
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut flags = BTreeMap::new();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = iter
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    let get = |name: &str| {
        flags
            .get(name)
            .ok_or_else(|| format!("missing flag `--{name}`"))
    };
    let name = get("workload")?;
    let workload = workload::workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = get("seed")?
        .parse()
        .map_err(|_| "`--seed` expects a whole number".to_string())?;
    let seconds = get("seconds")?
        .parse()
        .ok()
        .filter(|&s| s >= 1)
        .ok_or("`--seconds` expects a whole number of at least 1")?;
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("`--trace` expects 0 or 1".into()),
    };
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn result_json(report: &Report) -> String {
    let mut metrics = String::new();
    for (i, m) in report.metrics.iter().filter(|m| m.in_result).enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.correct, report.attempted, report.failed
    )
}

/// A per-run working directory inside the checkout, removed on drop.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(options: &Options) -> Result<Report, String> {
    let w = options.workload;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the binary: {e}"))?;
    let work = WorkDir(PathBuf::from(".perfbench_work").join(format!(
        "{}-s{}-p{}",
        w.name,
        options.seed,
        std::process::id()
    )));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("cannot create {:?}: {e}", work.0))?;
    let venue_path = work.0.join("venue.bin");
    let mut notes = Vec::new();

    // Inputs: the venue file through `ikrq generate`, then the requests.
    let status = Command::new(&exe)
        .arg("--cli")
        .args(workload::generate_args(
            w.partitions,
            options.seed,
            &venue_path,
        ))
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run the generator: {e}"))?;
    if !status.success() {
        return Err(format!("venue generation failed: {status}"));
    }
    let venue_file_mib = std::fs::metadata(&venue_path)
        .map_err(|e| format!("venue file missing: {e}"))?
        .len() as f64
        / (1024.0 * 1024.0);
    let phase_clock = Instant::now();
    let (venue_id, requests) = build_requests(options, &venue_path)?;
    eprintln!(
        "perfbench: requests generated in {:.2} s",
        phase_clock.elapsed().as_secs_f64()
    );
    let bodies: Vec<String> = requests
        .iter()
        .map(|r| serde_json::to_string(r).expect("requests serialize"))
        .collect();
    let streams: Vec<RequestStream> = (0..CONNECTIONS)
        .map(|c| RequestStream::new(w.stream, bodies.len(), c, CONNECTIONS, options.seed))
        .collect();

    // Set-up: from spawning the server to its first answer.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let serve_args: Vec<String> = [
        "serve",
        "--venues",
        &venue_path.to_string_lossy(),
        "--addr",
        "127.0.0.1:0",
        "--workers",
        &workers.to_string(),
    ]
    .map(String::from)
    .to_vec();
    let mut setup_s = Vec::new();
    let mut setup_ops = Vec::new();
    let mut setup_answers = Answers::new();
    let mut server = None;
    for spawn in 0..SETUP_SPAWNS {
        // Each spawn answers a different pool request first, taken from the
        // end of the pool, so the median does not rest on one query's cost
        // and the distinct streams never meet them.
        let first = bodies.len() - 1 - spawn % bodies.len();
        let begin = Instant::now();
        let child = ChildServer::spawn(&exe, &serve_args, Duration::from_secs(120))
            .map_err(|e| format!("cannot start the server: {e}"))?;
        let mut client = KeepAliveClient::new(child.addr()).with_timeout(REQUEST_TIMEOUT);
        let sent = Instant::now();
        let reply = client.request("POST", "/v1/search", &bodies[first]);
        let end = Instant::now();
        let status = reply.as_ref().ok().map(|r| r.status);
        setup_ops.push(Op {
            kind: OpKind::Search(first),
            phase: Phase::Warmup,
            begin,
            start: sent,
            end,
            status,
            finish: end,
            hit: false,
        });
        let reply = reply.map_err(|e| format!("first search failed: {e}"))?;
        if reply.status != 200 {
            return Err(format!(
                "first search answered {}: {}",
                reply.status, reply.body
            ));
        }
        setup_s.push((end - begin).as_secs_f64());
        merge_answer(&mut setup_answers, first, reply.body);
        verify_adoption(&fetch_stats(&mut client, "after the first search")?)?;
        if spawn + 1 < SETUP_SPAWNS {
            child.stop();
        } else {
            server = Some(child);
        }
    }
    let server = server.expect("the last spawn keeps its server");

    // Warm-up, then the measured window.
    let mut clients: Vec<Client> = streams
        .into_iter()
        .map(|s| Client::new(server.addr(), s, REQUEST_TIMEOUT))
        .collect();
    let reload_body = format!(
        "{{\"venue\":{}}}",
        serde_json::to_string(&venue_id).expect("ids serialize")
    );
    let mut plan = Plan {
        duration: Duration::from_secs(w.warmup_s),
        warmup: true,
        reload_every: w.reload_every,
        reload_body: reload_body.clone(),
        trace_slice: None,
    };
    let warm = drive(&bodies, &mut clients, &plan, Instant::now());
    let mut stats_client = KeepAliveClient::new(server.addr()).with_timeout(REQUEST_TIMEOUT);
    let stats_start = fetch_stats(&mut stats_client, "before the window")?;
    plan.duration = Duration::from_secs(options.seconds);
    plan.warmup = false;
    plan.trace_slice = options.trace.then_some(TRACE_SLICE);
    let window_start = Instant::now();
    let window = drive(&bodies, &mut clients, &plan, window_start);
    let stats_end = fetch_stats(&mut stats_client, "after the window")?;
    notes.push(format!(
        "  response cache after the window: {} of {} entries, {} insertions, {} evictions",
        number(&stats_end, &["stats", "cache", "entries"]),
        number(&stats_end, &["stats", "cache", "capacity"]),
        number(&stats_end, &["stats", "cache", "insertions"]),
        number(&stats_end, &["stats", "cache", "evictions"]),
    ));
    let peak_rss_mib = server
        .peak_rss_kib()
        .ok_or("cannot read the server's peak resident set")? as f64
        / 1024.0;
    drop(clients);

    // Reload round trips: inside the window on reload-mix, after it (and
    // after the peak RSS reading) elsewhere.
    let mut reload_ops: Vec<Op> = window
        .iter()
        .flat_map(|log| &log.ops)
        .filter(|op| op.kind == OpKind::Reload)
        .cloned()
        .collect();
    let mut probe_ops = Vec::new();
    if w.reload_every.is_none() {
        for _ in 0..RELOAD_PROBES {
            let start = Instant::now();
            let reply = stats_client.request("POST", "/v1/admin/reload", &reload_body);
            let end = Instant::now();
            probe_ops.push(Op {
                kind: OpKind::Reload,
                phase: Phase::Window,
                begin: start,
                start,
                end,
                status: reply.as_ref().ok().map(|r| r.status),
                finish: end,
                hit: false,
            });
        }
        reload_ops.extend(probe_ops.iter().cloned());
    }
    verify_adoption(&fetch_stats(&mut stats_client, "after the reloads")?)?;
    server.stop();

    // Accounting over every operation of the run.
    let all_ops: Vec<&Op> = setup_ops
        .iter()
        .chain(warm.iter().flat_map(|l| &l.ops))
        .chain(window.iter().flat_map(|l| &l.ops))
        .chain(&probe_ops)
        .collect();
    let mut answers = setup_answers;
    for log in warm.iter().chain(&window) {
        for (index, bodies) in &log.answers {
            for (body, count) in bodies {
                for _ in 0..*count {
                    merge_answer(&mut answers, *index, body.clone());
                }
            }
        }
    }
    let exhausted = window.iter().any(|log| log.exhausted);
    if exhausted {
        return Err("a distinct request stream ran out before the window ended".into());
    }
    let phase_counts = |phase_of: &dyn Fn(&Op) -> bool| {
        let ops: Vec<&&Op> = all_ops.iter().filter(|op| phase_of(op)).collect();
        let ok = ops.iter().filter(|op| op.ok()).count();
        (ops.len(), ok, ops.len() - ok)
    };
    let (warm_sent, warm_ok, warm_failed) = phase_counts(&|op: &Op| op.phase == Phase::Warmup);
    let (window_sent, window_ok, window_failed) =
        phase_counts(&|op: &Op| op.phase != Phase::Warmup);
    notes.push(format!(
        "{} seed {}: venue {venue_id} ({:.1} MiB), {} requests generated",
        w.name,
        options.seed,
        venue_file_mib,
        bodies.len()
    ));
    notes.push(format!(
        "  set-up + warm-up: {warm_sent} sent, {warm_ok} succeeded, {warm_failed} failed"
    ));
    notes.push(format!(
        "  window + probes:  {window_sent} sent, {window_ok} succeeded, {window_failed} failed"
    ));

    // Correctness against the scan engine.
    let mut indices: Vec<usize> = answers.keys().copied().collect();
    indices.sort_unstable();
    if let Some(sample) = w.check_sample {
        indices.shuffle(&mut StdRng::seed_from_u64(options.seed ^ 0xc4ec));
        indices.truncate(sample);
    }
    let phase_clock = Instant::now();
    let check = check::check_answers(
        &venue_path,
        &venue_id,
        &requests,
        &answers,
        &indices,
        workers,
    )?;
    eprintln!(
        "perfbench: answers checked in {:.2} s",
        phase_clock.elapsed().as_secs_f64()
    );
    notes.push(format!(
        "  correctness: {} distinct requests, {} answer bodies, {} answers checked, {} wrong",
        check.requests_checked, check.bodies_checked, check.ops_checked, check.ops_wrong
    ));
    if let Some(mismatch) = &check.first_mismatch {
        notes.push(format!("  MISMATCH: {mismatch}"));
    }
    let attempted = all_ops.len() as u64;
    let failed = all_ops.iter().filter(|op| !op.ok()).count() as u64 + check.ops_wrong;
    let error_frac = ratio(failed as f64, attempted as f64);

    let window_searches: Vec<&Op> = window
        .iter()
        .flat_map(|l| &l.ops)
        .filter(|op| matches!(op.kind, OpKind::Search(_)))
        .collect();
    let metrics = if options.trace {
        traced_metrics(
            options,
            &venue_path,
            &venue_id,
            &requests,
            [&warm, &window],
            [&stats_start, &stats_end],
            &mut notes,
        )?
    } else {
        let latencies: Vec<f64> = window_searches
            .iter()
            .filter(|op| op.ok())
            .map(|op| op.latency_ms())
            .collect();
        let reload_ms: Vec<f64> = reload_ops
            .iter()
            .filter(|op| op.ok())
            .map(|op| op.latency_ms())
            .collect();
        let mut metrics = vec![
            metric("setup_s", median(&setup_s).unwrap_or(0.0), "s"),
            metric(
                "qps",
                slice_qps(&window_searches, window_start, options.seconds),
                "1/s",
            ),
            metric("latency_p50_ms", median(&latencies).unwrap_or(0.0), "ms"),
        ];
        // p99 is only reported when at least ten samples lie beyond it. It
        // stays out of the result line: the 10⁵ workload cannot reach that
        // many samples in a run, and a tail this thin is too noisy to gate.
        let beyond = samples_beyond(latencies.len(), 0.99);
        if beyond >= 10 {
            metrics.push(table_only(
                "latency_p99_ms",
                percentile(&latencies, 0.99).unwrap_or(0.0),
                "ms",
            ));
        } else {
            notes.push(format!(
                "  latency_p99_ms withheld: {} samples leave only {beyond} beyond p99 (need 10)",
                latencies.len()
            ));
        }
        // Zero on a healthy run, so it is carried by `attempted`/`failed`.
        metrics.push(table_only("error_frac", error_frac, "fraction"));
        metrics.extend([
            metric("peak_rss_mib", peak_rss_mib, "MiB"),
            metric("venue_file_mib", venue_file_mib, "MiB"),
            // Too noisy from run to run at 10⁴ (IQR/median 0.28 on koe-10k)
            // to gate, so it is printed but not in the result line.
            table_only("reload_p50_ms", median(&reload_ms).unwrap_or(0.0), "ms"),
        ]);
        metrics
    };
    Ok(Report {
        correct: check.ops_wrong == 0 && failed == 0,
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// Successful searches per second: the median over the window's one-second
/// slices of the searches completed in each, so a short stall of the shared
/// host moves it less than a whole-window mean.
fn slice_qps(searches: &[&Op], window_start: Instant, seconds: u64) -> f64 {
    let mut per_slice = vec![0.0; seconds as usize];
    for op in searches.iter().filter(|op| op.ok()) {
        let slice = (op.end - window_start).as_secs() as usize;
        if let Some(count) = per_slice.get_mut(slice) {
            *count += 1.0;
        }
    }
    median(&per_slice).unwrap_or(0.0)
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        in_result: true,
    }
}

/// A metric printed in the table but left out of the result line.
fn table_only(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        in_result: false,
        ..metric(name, value, unit)
    }
}

/// Loads the generated venue and draws the workload's requests from it.
fn build_requests(
    options: &Options,
    venue_path: &Path,
) -> Result<(String, Vec<SearchRequest>), String> {
    let w = options.workload;
    let loaded = binary::load_venue_model_file(venue_path)
        .map_err(|e| format!("cannot load the generated venue: {e}"))?;
    let venue_id = loaded.name.ok_or("generated venues carry a name")?;
    let venue = Venue {
        space: loaded.space,
        directory: loaded.directory,
        rooms: Vec::new(),
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let instances = workload::generate_instances(&venue, w.instances, options.seed, threads)?;
    let requests = workload::request_pool(&venue, &instances, w.pool, w, &venue_id, options.seed)?;
    Ok((venue_id, requests))
}

fn merge_answer(answers: &mut Answers, index: usize, body: String) {
    let seen = answers.entry(index).or_default();
    match seen.iter_mut().find(|(b, _)| *b == body) {
        Some((_, count)) => *count += 1,
        None => seen.push((body, 1)),
    }
}

fn fetch_stats(client: &mut KeepAliveClient, when: &str) -> Result<Value, String> {
    let reply = client
        .request("GET", "/v1/stats", "")
        .map_err(|e| format!("GET /v1/stats {when} failed: {e}"))?;
    serde_json::parse_value(&reply.body).map_err(|e| format!("/v1/stats is not JSON: {e}"))
}

fn field<'a>(value: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(value, |v, key| v.get(key))
}

fn number(value: &Value, path: &[&str]) -> f64 {
    field(value, path).and_then(Value::as_f64).unwrap_or(0.0)
}

/// The hosted venue's per-venue index object.
fn venue_stats(stats: &Value) -> Option<&Value> {
    field(stats, &["index", "venues"])?.as_array()?.first()
}

/// Fails unless the served venue adopted both its columnar body and its
/// index section: a silent fallback to the record rebuild would otherwise
/// show only as a slower `setup_s`.
fn verify_adoption(stats: &Value) -> Result<(), String> {
    let venue = venue_stats(stats).ok_or("/v1/stats lists no venue")?;
    let columnar = field(venue, &["document", "adopted_columnar"]).and_then(Value::as_bool);
    let from_disk = venue.get("loaded_from_disk").and_then(Value::as_bool);
    if columnar != Some(true) || from_disk != Some(true) {
        return Err(format!(
            "the server did not adopt the venue file (adopted_columnar {columnar:?}, \
             loaded_from_disk {from_disk:?})"
        ));
    }
    Ok(())
}

/// KoE* row-cache hits and misses over the window. A reload swaps in a new
/// engine whose counters start at zero, so the traced run snapshots the
/// counters before each reload and sums per engine lifetime.
fn row_counts(start: &Value, before_reloads: &[Value], end: &Value) -> (f64, f64) {
    let rows = |v: &Value, key: &str| venue_stats(v).map_or(0.0, |x| number(x, &[key]));
    let total = |key: &str| {
        let mut sum = 0.0;
        let mut base = rows(start, key);
        for snapshot in before_reloads.iter().chain(std::iter::once(end)) {
            sum += (rows(snapshot, key) - base).max(0.0);
            base = 0.0;
        }
        sum
    };
    (total("rows_hits"), total("rows_misses"))
}

/// Derives the per-layer metrics of a traced run.
fn traced_metrics(
    options: &Options,
    venue_path: &Path,
    venue_id: &str,
    requests: &[SearchRequest],
    [warm, window]: [&[ConnectionLog]; 2],
    [stats_start, stats_end]: [&Value; 2],
    notes: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let w = options.workload;
    let epoch = warm
        .iter()
        .chain(window)
        .flat_map(|l| l.ops.first())
        .map(|op| op.begin)
        .min()
        .unwrap_or_else(Instant::now);
    let mut trace = Trace::new(epoch);

    // Spans of the traced slices: each request with its wire round trip.
    // Cache misses are replayed in-process below; a workload that misses
    // only while warming up (hot-wire) replays its warm-up misses instead.
    let ops: Vec<&Op> = warm.iter().chain(window).flat_map(|l| &l.ops).collect();
    let is_search = |op: &Op| matches!(op.kind, OpKind::Search(_));
    let is_miss = |op: &Op| is_search(op) && op.ok() && !op.hit;
    let traced_misses = ops
        .iter()
        .filter(|op| op.phase == Phase::Traced && is_miss(op))
        .count();
    let mut misses = Vec::new();
    for (id, op) in ops.iter().enumerate() {
        let traced = op.phase == Phase::Traced && is_search(op);
        let fallback = traced_misses < w.replay_sample && op.phase == Phase::Warmup && is_miss(op);
        if !traced && !fallback {
            continue;
        }
        let request = trace.record("request", op.begin, op.finish, None, id as u64 + 1);
        trace.record("wire", op.start, op.end, Some(request), id as u64 + 1);
        if is_miss(op) {
            misses.push((id, request));
        }
    }
    let phase_qps = |phase: Phase| {
        ops.iter()
            .filter(|op| op.phase == phase && op.ok() && matches!(op.kind, OpKind::Search(_)))
            .count() as f64
            / (options.seconds as f64 / 2.0)
    };
    let (untraced_qps, traced_qps) = (phase_qps(Phase::Window), phase_qps(Phase::Traced));

    // Cold loads of the same file, one span per layer call.
    let mut load = None;
    let mut adopted = 0usize;
    for _ in 0..TRACED_LOADS {
        drop(load.take());
        let l = layers::traced_load(&mut trace, venue_path)?;
        adopted += usize::from(l.adopted);
        load = Some(l);
    }
    let engine = Arc::new(load.expect("at least one traced load").engine);
    let service = IkrqService::new();
    service
        .register_engine(venue_id, Arc::clone(&engine))
        .map_err(|e| format!("cannot host the venue in-process: {e}"))?;
    let precomputed = layers::precomputed_paths(&engine);

    // Replays of a spread-out sample of the traced cache misses.
    let step = (misses.len() / w.replay_sample.max(1)).max(1);
    let sample: Vec<(usize, usize)> = misses
        .iter()
        .step_by(step)
        .take(w.replay_sample)
        .copied()
        .collect();
    let mut replays = Vec::new();
    let mut service_ms = Vec::new();
    let mut overhead_ms = Vec::new();
    for &(id, span) in &sample {
        let op = ops[id];
        let OpKind::Search(index) = op.kind else {
            continue;
        };
        let request = &requests[index];
        replays.push(layers::replay(
            &mut trace,
            &engine,
            Some(&precomputed),
            request,
            Some(span),
            id as u64 + 1,
        )?);
        let started = Instant::now();
        let ms = layers::service_search_ms(&service, request)?;
        trace.record(
            "core.service.search",
            started,
            Instant::now(),
            Some(span),
            id as u64 + 1,
        );
        service_ms.push(ms);
        overhead_ms.push(op.latency_ms() - ms);
    }

    // Shortest-path probes from the source doors of sampled requests.
    let mut probe = layers::Probe::default();
    for &(id, _) in sample.iter().take(PROBE_REQUESTS) {
        if let OpKind::Search(index) = ops[id].kind {
            layers::probe_space(&mut trace, &engine, &requests[index], &mut probe)?;
        }
    }
    notes.push(format!(
        "  traced: {} spans, {} misses in traced slices, {} replayed, {} from_door probes",
        trace.spans().len(),
        traced_misses,
        replays.len(),
        probe.from_door_ms.len()
    ));

    let persist_ms = |name: &str| median(&trace.durations_ms(name)).unwrap_or(0.0);
    let sum = |f: &dyn Fn(&layers::Replay) -> f64| replays.iter().map(f).sum::<f64>();
    let per_query = |f: &dyn Fn(&layers::Replay) -> f64| ratio(sum(f), replays.len() as f64);
    let generated = sum(&|r| r.metrics.stamps_generated as f64);
    let run_ms: Vec<f64> = replays.iter().map(|r| r.run_ms).collect();
    let prepare_ms: Vec<f64> = replays.iter().map(|r| r.prepare_ms).collect();
    let dijkstra_calls = per_query(&|r| r.metrics.dijkstra_calls as f64);
    let from_door_ms = mean(&probe.from_door_ms);

    let before_reloads: Vec<Value> = window
        .iter()
        .flat_map(|l| &l.stats_before_reload)
        .filter_map(|body| serde_json::parse_value(body).ok())
        .collect();
    let (row_hits, row_misses) = row_counts(stats_start, &before_reloads, stats_end);
    let delta = |path: &[&str]| number(stats_end, path) - number(stats_start, path);
    let cache_hits = delta(&["stats", "cache", "hits"]);
    let cache_lookups = cache_hits + delta(&["stats", "cache", "misses"]);
    let served = delta(&["stats", "requests_served"]);
    let wakeups = delta(&["stats", "reactor_wakeups"]);
    let spurious = delta(&["stats", "reactor_spurious_wakeups"]);
    let window_latency = |hit: bool| -> Vec<f64> {
        ops.iter()
            .filter(|op| op.phase != Phase::Warmup && op.ok() && op.hit == hit && is_search(op))
            .map(|op| op.latency_ms())
            .collect()
    };

    let mut metrics = vec![
        metric("persist.read_ms", persist_ms("persist.read"), "ms"),
        metric("persist.model_ms", persist_ms("persist.model"), "ms"),
        metric(
            "persist.index_adopt_ms",
            persist_ms("persist.index_adopt"),
            "ms",
        ),
        metric(
            "persist.adopted_frac",
            adopted as f64 / TRACED_LOADS as f64,
            "fraction",
        ),
        metric(
            "context.prepare_ms",
            median(&prepare_ms).unwrap_or(0.0),
            "ms",
        ),
        metric(
            "index.candidate_frac",
            per_query(&|r| r.candidate_frac),
            "fraction",
        ),
        metric(
            "index.rows_hit_rate",
            ratio(row_hits, row_hits + row_misses),
            "fraction",
        ),
        metric("index.rows_materialized", row_misses, "count"),
        metric("search.run_ms", median(&run_ms).unwrap_or(0.0), "ms"),
        metric(
            "search.stamps_expanded",
            per_query(&|r| r.metrics.stamps_expanded as f64),
            "count",
        ),
        metric(
            "search.stamps_generated",
            ratio(generated, replays.len() as f64),
            "count",
        ),
        metric(
            "search.complete_frac",
            ratio(sum(&|r| r.metrics.complete_routes as f64), generated),
            "fraction",
        ),
        metric(
            "search.prune_frac",
            ratio(sum(&|r| r.metrics.prunes.total() as f64), generated),
            "ratio",
        ),
        metric("search.dijkstra_calls", dijkstra_calls, "count"),
        metric("space.from_door_ms", from_door_ms, "ms"),
        metric("space.settled_per_call", mean(&probe.settled), "count"),
        metric(
            "space.useful_frac",
            ratio(probe.useful, probe.settled.iter().sum()),
            "fraction",
        ),
        metric(
            "space.sp_share",
            ratio(dijkstra_calls * from_door_ms, mean(&run_ms)),
            "fraction",
        ),
        metric(
            "cache.hit_rate",
            ratio(cache_hits, cache_lookups),
            "fraction",
        ),
        metric(
            "cache.evictions_per_1k",
            1e3 * ratio(delta(&["stats", "cache", "evictions"]), cache_lookups),
            "count",
        ),
        metric(
            "cache.insertions_per_1k",
            1e3 * ratio(delta(&["stats", "cache", "insertions"]), cache_lookups),
            "count",
        ),
        metric(
            "service.search_ms",
            median(&service_ms).unwrap_or(0.0),
            "ms",
        ),
        metric(
            "server.overhead_ms",
            median(&overhead_ms).unwrap_or(0.0),
            "ms",
        ),
        metric(
            "server.hit_latency_us",
            1e3 * median(&window_latency(true)).unwrap_or(0.0),
            "us",
        ),
        metric(
            "server.miss_latency_ms",
            median(&window_latency(false)).unwrap_or(0.0),
            "ms",
        ),
        metric(
            "server.shed_frac",
            ratio(delta(&["stats", "requests_shed"]), served),
            "fraction",
        ),
        metric(
            "server.reuse_frac",
            ratio(delta(&["stats", "keep_alive_reuses"]), served),
            "fraction",
        ),
        metric(
            "server.spurious_wakeup_frac",
            ratio(spurious, wakeups + spurious),
            "fraction",
        ),
        metric(
            "trace.overhead_frac",
            1.0 - ratio(traced_qps, untraced_qps),
            "fraction",
        ),
    ];
    let counts = span_counts(trace.spans());
    let self_times = trace.self_times_ms();
    for name in SPAN_NAMES {
        metrics.push(Metric {
            name: format!("self.{name}_ms"),
            value: ratio(
                self_times.get(name).copied().unwrap_or(0.0),
                counts.get(name).copied().unwrap_or(0) as f64,
            ),
            unit: "ms",
            in_result: true,
        });
    }

    let dir = PathBuf::from(".perfbench_traces");
    let path = dir.join(format!("{}.jsonl", w.name));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace.to_json_lines()))
        .map_err(|e| format!("cannot write the trace: {e}"))?;
    notes.push(format!("  spans written to {}", path.display()));
    Ok(metrics)
}

fn span_counts(spans: &[Span]) -> BTreeMap<&'static str, usize> {
    let mut counts = BTreeMap::new();
    for span in spans {
        *counts.entry(span.name).or_insert(0) += 1;
    }
    counts
}
