//! SI-Rep benchmark: a sequencer, a 3-replica cluster over TCP and one node
//! server per replica, all in this process, driven by closed-loop remote
//! clients.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload transfer-uniform --seed 1 --seconds 24 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of untraced runs.
//! `--trace 1` makes an untraced and a traced run of the same workload and
//! seed, each measuring half the time, replays the traced run's
//! transactions through the inner layers, and reports the per-layer
//! metrics. Both print one JSON object as the last line and exit non-zero
//! when an output check fails. See `README.md` for what each figure means.

mod deploy;
mod load;
mod replay;
mod stats;
mod sys;
mod trace;
mod workload;

use deploy::Deployment;
use load::{End, Run};
use sirep_common::Stage;
use stats::{percentile, ratio, samples_beyond, stage_quantile_ms, Counters};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;
use workload::Kind;

/// An untraced run sets up at least `MIN_SETUPS` times and until the set-ups
/// took `SETUP_TIME` together (at most `MAX_SETUPS`); `setup_s` is their
/// median, so a fast set-up is sampled often enough to read steadily.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 100;
const SETUP_TIME: Duration = Duration::from_secs(1);
/// Load driven before the measured window opens.
const WARMUP: Duration = Duration::from_secs(1);
/// An untraced run splits `--seconds` into `WINDOWS` windows, each on a
/// fresh deployment, and pools their slices: speed differs more between
/// deployments than between the slices of one, so several deployments per
/// run steady the figures.
const WINDOWS: usize = 3;
/// A slice in which the hypervisor stole more than `STEAL_LIMIT` of the
/// machine's CPU time measured the host, not the program. A slice is only
/// compared with the slices at the same offset into the other windows,
/// because the program's speed drifts with time since deployment (TPC-W
/// slows as its tables grow). While some offset has fewer than `WINDOWS`
/// slices below the limit, the run adds windows, up to `MAX_WINDOWS` in
/// all, and then reports the `WINDOWS` least disturbed slices at each
/// offset. Check failures, failed transactions and `committed_pct` cover
/// every window.
const STEAL_LIMIT: f64 = 0.02;
const MAX_WINDOWS: usize = 4;
/// Committed transactions of a traced run replayed through the inner layers.
const REPLAY_CAP: usize = 2_000;
/// Hard limit on one invocation; the process exits with an error past it.
const DEADLINE: Duration = Duration::from_secs(170);

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let kind = Kind::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be 1..=60".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args { kind, seed, seconds, trace })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <1-60> --trace <0|1>",
                Kind::ALL.map(Kind::name).join("|"));
            std::process::exit(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(DEADLINE);
        eprintln!("perfbench: run exceeded {DEADLINE:?}; aborting");
        std::process::exit(3);
    });
    println!(
        "provenance: nproc={} cpu={:?} host_calibration_ms={:.2} git_rev={} profile={} \
         workload={} seed={} seconds={} warmup_s={} replicas={} clients={}",
        sys::nproc(),
        sys::cpu_model(),
        sys::calibration_ms(),
        sys::git_rev(),
        sys::profile(),
        args.kind.name(),
        args.seed,
        args.seconds,
        WARMUP.as_secs_f64(),
        deploy::REPLICAS,
        load::CLIENTS
    );
    println!("client policy: {}", load::policy());
    let code = match if args.trace { traced(&args) } else { untraced(&args) } {
        Ok(report) => {
            for line in &report.failures {
                println!("CHECK FAILED: {line}");
            }
            println!("{}", report.json());
            i32::from(!report.failures.is_empty())
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    std::process::exit(code);
}

/// What a run prints as its last line.
struct Report {
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(m, "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{m}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// One deployment, driven once, checked, and stopped.
fn measured_run(
    args: &Args,
    dep: Deployment,
    measure: Duration,
    traced: bool,
) -> Result<(Run, Vec<String>), String> {
    let w = args.kind.workload();
    let run = load::drive(&dep, w.as_ref(), args.seed, WARMUP, measure, traced)?;
    let in_doubt = run.count(End::InDoubt);
    let mut failures = dep.check(args.kind, in_doubt);
    if let Some(e) = &run.first_error {
        println!("first failed transaction: {e}");
    }
    if run.count(End::Committed) == 0 {
        failures.push("no transaction committed in the measured window".into());
    }
    let collisions = run.count(End::Collision);
    println!(
        "generator_collisions = {collisions} (duplicate-key draws, redrawn, not counted as failed)"
    );
    dep.stop();
    Ok((run, failures))
}

fn started(run: &Run) -> u64 {
    run.count(End::Committed) + run.count(End::Failed) + run.count(End::InDoubt)
}

/// The readings of one slice of a measured window.
struct Slice {
    /// Share of the machine's CPU time the hypervisor stole.
    steal: f64,
    tps: f64,
    cpu_ms_per_commit: f64,
    p50: Option<f64>,
    p99: Option<f64>,
    update_p50: Option<f64>,
    commits: u64,
    attempts: u64,
    /// Committed transactions slower than the slice's p99.
    beyond: usize,
}

impl Slice {
    fn of(run: &Run, k: usize) -> Slice {
        let (records, cpu_s) = run.slice(k);
        let all = load::latencies_ms(records.iter().copied(), false);
        let updates = load::latencies_ms(records.iter().copied(), true);
        Slice {
            steal: run.slice_steal(k),
            tps: all.len() as f64 / run.slice_s(),
            cpu_ms_per_commit: ratio(cpu_s * 1e3, all.len() as f64),
            p50: percentile(&all, 0.5),
            p99: percentile(&all, 0.99),
            update_p50: percentile(&updates, 0.5),
            commits: all.len() as u64,
            attempts: records
                .iter()
                .filter(|r| r.end != End::Collision)
                .map(|r| u64::from(r.attempts))
                .sum(),
            beyond: samples_beyond(all.len(), 0.99),
        }
    }
}

fn untraced(args: &Args) -> Result<Report, String> {
    let w = args.kind.workload();
    let mut setups = Vec::new();
    let mut dep = None;
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_TIME.as_secs_f64())
    {
        if let Some(d) = dep.take() {
            Deployment::stop(d);
        }
        let (d, secs) = Deployment::start(w.as_ref())?;
        setups.push(secs);
        dep = Some(d);
    }
    let window = (Duration::from_secs(args.seconds) / WINDOWS as u32).max(load::SLICE);
    let per_window = (window.as_nanos() / load::SLICE.as_nanos()) as usize;
    let mut failures = Vec::new();
    let (mut committed, mut started_all, mut failed) = (0, 0, 0);
    // by_offset[k]: the k-th slice of every window so far.
    let mut by_offset: Vec<Vec<Slice>> = (0..per_window).map(|_| Vec::new()).collect();
    let quiet = |v: &Vec<Slice>| v.iter().filter(|s| s.steal <= STEAL_LIMIT).count();
    let mut windows = 0;
    while windows < WINDOWS
        || (windows < MAX_WINDOWS && by_offset.iter().any(|v| quiet(v) < WINDOWS))
    {
        let dep = match dep.take() {
            Some(d) => d,
            None => Deployment::start(w.as_ref())?.0,
        };
        let (run, more) = measured_run(args, dep, window, false)?;
        failures.extend(more);
        committed += run.count(End::Committed);
        started_all += started(&run);
        failed += run.count(End::Failed) + run.count(End::InDoubt);
        windows += 1;
        println!("window {windows}: host steal {:.1}% of CPU time", 100.0 * run.window_steal());
        for (k, v) in by_offset.iter_mut().enumerate() {
            v.push(Slice::of(&run, k));
        }
    }
    let slices: Vec<Slice> = by_offset
        .into_iter()
        .flat_map(|mut v| {
            // Stable: among equally quiet slices the earlier windows' win.
            v.sort_by(|a, b| a.steal.total_cmp(&b.steal));
            v.truncate(WINDOWS);
            v
        })
        .collect();
    let commits: u64 = slices.iter().map(|s| s.commits).sum();
    let attempts: u64 = slices.iter().map(|s| s.attempts).sum();
    let pick = |f: fn(&Slice) -> Option<f64>| -> Vec<f64> { slices.iter().filter_map(f).collect() };
    let (tps, p99) = (pick(|s| Some(s.tps)), pick(|s| s.p99));
    let fewest = slices.iter().map(|s| s.commits).min().unwrap_or(0);
    let fewest_beyond = slices.iter().map(|s| s.beyond).min().unwrap_or(0);
    let metrics = vec![
        ("commit_tps", stats::median(&tps), "1/s"),
        ("txn_p50_ms", stats::median(&pick(|s| s.p50)), "ms"),
        ("txn_p99_ms", stats::median(&p99), "ms"),
        ("update_p50_ms", stats::median(&pick(|s| s.update_p50)), "ms"),
        ("attempts_per_commit", ratio(attempts as f64, commits as f64), "attempts/commit"),
        ("cpu_ms_per_commit", stats::median(&pick(|s| Some(s.cpu_ms_per_commit))), "ms"),
        ("committed_pct", 100.0 * ratio(committed as f64, started_all as f64), "%"),
        ("setup_s", stats::median(&setups), "s"),
    ];
    let sliced = format!(
        "median of {} slices of {:.0} s, the least disturbed at each offset of {windows} \
         windows, fewest {fewest} commits in a slice",
        slices.len(),
        load::SLICE.as_secs_f64()
    );
    let samples = |name: &str| match name {
        "commit_tps" | "txn_p50_ms" | "update_p50_ms" | "cpu_ms_per_commit" => sliced.clone(),
        "txn_p99_ms" => format!("{sliced}, fewest {fewest_beyond} beyond p99 in a slice"),
        "setup_s" => format!(
            "median of {} set-ups, {:.4}..{:.4} s",
            setups.len(),
            setups.iter().copied().fold(f64::INFINITY, f64::min),
            setups.iter().copied().fold(0.0, f64::max)
        ),
        "committed_pct" => format!("{committed} of {started_all} started, all windows"),
        _ => format!("{commits} commits, {attempts} attempts in the reported slices"),
    };
    for (name, value, unit) in &metrics {
        println!("metric {name} = {value:.4} {unit} ({})", samples(name));
    }
    println!("memory: peak resident {:.1} MiB", sys::peak_rss_kib() / 1024.0);
    let steal: Vec<f64> = slices.iter().map(|s| 100.0 * s.steal).collect();
    println!("slice host_steal_pct: {steal:.1?}");
    println!("slice commit_tps: {tps:.0?}");
    println!("slice txn_p99_ms: {p99:.3?}");
    if fewest_beyond < stats::TAIL_SAMPLES {
        println!("warning: a slice has fewer than {} samples beyond its p99", stats::TAIL_SAMPLES);
    }
    Ok(Report { failures, attempted: started_all, failed, metrics })
}

fn traced(args: &Args) -> Result<Report, String> {
    let w = args.kind.workload();
    // The untraced and the traced run split the measuring time.
    let half = Duration::from_millis(args.seconds * 500).max(load::SLICE);
    let (plain, mut failures) = measured_run(args, Deployment::start(w.as_ref())?.0, half, false)?;
    let (run, more) = measured_run(args, Deployment::start(w.as_ref())?.0, half, true)?;
    failures.extend(more);

    // Replay in commit-ack order.
    let mut sql = run.traced_sql.clone();
    sql.sort_by_key(|&(end, id, _)| (end, id));
    let txns: Vec<(u64, Vec<String>)> =
        sql.into_iter().take(REPLAY_CAP).map(|(_, id, s)| (id, s)).collect();
    let mut rec = trace::Recorder::new(std::time::Instant::now(), replay::LANE, true);
    let ws_bytes = match replay::replay(w.as_ref(), &txns, &mut rec) {
        Ok(b) => b,
        Err(e) => {
            failures.push(e);
            Vec::new()
        }
    };
    let replay_spans = rec.into_spans();

    let commits = run.count(End::Committed);
    let plain_cpu = ratio(plain.cpu_s() * 1e3, plain.count(End::Committed) as f64);
    let traced_cpu = ratio(run.cpu_s() * 1e3, commits as f64);
    let metrics = layer_metrics(&run, &replay_spans, &ws_bytes, txns.len(), plain_cpu, traced_cpu);
    for (name, value, unit) in &metrics {
        println!("layer {name} = {value:.4} {unit}");
    }
    println!(
        "note: stage percentiles and *_hw gauges are cumulative since the cluster started, so \
         they include the {:.1} s warmup but not the population, which bypasses replication; \
         counters are window deltas",
        WARMUP.as_secs_f64()
    );
    let table = self_time_table(&run.spans, &replay_spans);
    print!("{table}");
    write_trace_files(args, &run.spans, &replay_spans, &table)?;
    Ok(Report {
        failures,
        attempted: started(&run),
        failed: run.count(End::Failed) + run.count(End::InDoubt),
        metrics,
    })
}

/// Per-layer readings of a traced run; see `BENCHMARK.json` for what each
/// one should move.
fn layer_metrics(
    run: &Run,
    replay: &[trace::Span],
    ws_bytes: &[usize],
    replayed: usize,
    plain_cpu_ms: f64,
    traced_cpu_ms: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let commits = run.count(End::Committed);
    let d = Counters::of(&run.before).delta(&Counters::of(&run.after));
    let stages = &run.after.stages;
    let g = &run.after.gauges;
    let tr = &run.after.transport;
    let st = |s: Stage, q: f64| stage_quantile_ms(stages, s, q) * 1e3;
    let span_p = |spans: &[trace::Span], name: &str, q: f64| {
        percentile(&trace::durations_us(spans, name), q).unwrap_or(0.0)
    };
    let span_mean = |name: &str| stats::mean(&trace::durations_us(replay, name));
    let client_p50_us = percentile(&run.latencies_ms(false), 0.5).unwrap_or(0.0) * 1e3;
    let statements: u64 =
        run.in_window().filter(|r| r.end == End::Committed).map(|r| u64::from(r.statements)).sum();
    let per_commit = |name: &str| d.per(name, commits);
    let traced_txns = run.spans.iter().filter(|s| s.name == "bench.txn").count() as f64;
    let by_layer = trace::self_time_by_layer(&run.spans);
    let replay_layers = trace::self_time_by_layer(replay);
    let self_us = |layer: &str| {
        let (table, base) = if matches!(layer, "bench" | "driver") {
            (&by_layer, traced_txns)
        } else {
            (&replay_layers, replayed as f64)
        };
        ratio(table.get(layer).map_or(0.0, |t| t.self_ns as f64 / 1e3), base)
    };
    vec![
        ("driver.execute_p50_us", span_p(&run.spans, "driver.execute", 0.5), "us"),
        ("driver.commit_p50_us", span_p(&run.spans, "driver.commit", 0.5), "us"),
        ("driver.commit_p99_us", span_p(&run.spans, "driver.commit", 0.99), "us"),
        ("driver.ping_p50_us", span_p(&run.spans, "driver.ping", 0.5), "us"),
        ("driver.unattributed_p50_us", client_p50_us - st(Stage::Total, 0.5), "us"),
        ("driver.statements_per_txn", ratio(statements as f64, commits as f64), "count"),
        ("core.begin_wait_p99_us", st(Stage::BeginWait, 0.99), "us"),
        (
            "core.hole_delay_rate",
            ratio(d.get("begins_delayed_by_holes") as f64, d.get("begins_total") as f64),
            "ratio",
        ),
        (
            "core.commits_delayed_for_holes_per_commit",
            per_commit("commits_delayed_for_holes"),
            "count",
        ),
        ("core.execute_p50_us", st(Stage::Execute, 0.5), "us"),
        ("core.commit_p50_us", st(Stage::Commit, 0.5), "us"),
        ("core.total_p50_us", st(Stage::Total, 0.5), "us"),
        ("core.total_p99_us", st(Stage::Total, 0.99), "us"),
        ("core.validate_queue_p50_us", st(Stage::ValidateQueue, 0.5), "us"),
        ("core.validate_queue_p99_us", st(Stage::ValidateQueue, 0.99), "us"),
        ("core.tocommit_depth_hw", g.tocommit_depth.high_water as f64, "count"),
        ("core.ready_len_hw", g.ready_len.high_water as f64, "count"),
        ("core.applier_backlog_hw", g.applier_backlog.high_water as f64, "count"),
        ("core.cert_aborts_per_commit", per_commit("aborts_validation"), "count"),
        (
            "core.ws_discard_rate",
            ratio(d.get("ws_discarded") as f64, d.get("ws_delivered") as f64),
            "ratio",
        ),
        ("core.ws_list_len_hw", g.ws_list_len.high_water as f64, "count"),
        ("core.cert_index_keys_hw", g.cert_index_keys.high_water as f64, "count"),
        ("core.certify_us", span_mean("core.certify"), "us"),
        ("storage.ws_extract_p50_us", st(Stage::WsExtract, 0.5), "us"),
        ("storage.apply_p50_us", st(Stage::Apply, 0.5), "us"),
        ("storage.apply_p99_us", st(Stage::Apply, 0.99), "us"),
        ("storage.fuw_aborts_per_commit", per_commit("aborts_serialization"), "count"),
        ("storage.deadlock_aborts_per_commit", per_commit("aborts_deadlock"), "count"),
        ("storage.apply_retries_per_commit", per_commit("ws_apply_retries"), "count"),
        ("storage.versions_per_row", run.versions_per_row, "count"),
        ("storage.commit_us", span_mean("storage.commit"), "us"),
        ("storage.apply_writeset_us", span_mean("storage.apply_writeset"), "us"),
        ("sql.parse_us", span_mean("sql.parse"), "us"),
        ("sql.execute_p50_us", span_p(replay, "sql.execute", 0.5), "us"),
        ("sql.execute_p99_us", span_p(replay, "sql.execute", 0.99), "us"),
        ("gcs.deliver_p50_us", st(Stage::GcsDeliver, 0.5), "us"),
        ("gcs.deliver_p99_us", st(Stage::GcsDeliver, 0.99), "us"),
        ("gcs.frames_in_per_commit", per_commit("frames_in"), "count"),
        ("gcs.frames_out_per_commit", per_commit("frames_out"), "count"),
        ("gcs.bytes_in_per_commit", per_commit("bytes_in"), "B"),
        (
            "gcs.deliveries_per_frame",
            ratio(d.get("ws_delivered") as f64, d.get("frames_in") as f64),
            "count",
        ),
        ("gcs.recv_queue_hw", tr.recv_queue.high_water as f64, "count"),
        ("gcs.pending_sends_hw", tr.pending_sends.high_water as f64, "count"),
        ("gcs.seq_backlog_hw", run.seq_backlog_hw as f64, "count"),
        ("gcs.seq_log_len", run.seq_log_len as f64, "count"),
        (
            "wire.ws_bytes",
            stats::mean(&ws_bytes.iter().map(|&b| b as f64).collect::<Vec<_>>()),
            "B",
        ),
        ("wire.encode_us", span_mean("wire.encode"), "us"),
        ("wire.decode_us", span_mean("wire.decode"), "us"),
        (
            "bench.trace_overhead_pct",
            100.0 * ratio(traced_cpu_ms - plain_cpu_ms, plain_cpu_ms),
            "%",
        ),
        ("bench.generator_collisions", run.count(End::Collision) as f64, "count"),
        ("process.peak_rss_mb", sys::peak_rss_kib() / 1024.0, "MiB"),
        (
            "process.heap_kib_per_commit",
            ratio(run.heap_kib.1 - run.heap_kib.0, commits as f64),
            "KiB",
        ),
        ("selftime.bench_us_per_txn", self_us("bench"), "us"),
        ("selftime.driver_us_per_txn", self_us("driver"), "us"),
        ("selftime.replay_us_per_txn", self_us("replay"), "us"),
        ("selftime.sql_us_per_txn", self_us("sql"), "us"),
        ("selftime.storage_us_per_txn", self_us("storage"), "us"),
        ("selftime.core_us_per_txn", self_us("core"), "us"),
        ("selftime.wire_us_per_txn", self_us("wire"), "us"),
    ]
}

/// The per-layer self-time table of the traced run and of the replay.
fn self_time_table(run: &[trace::Span], replay: &[trace::Span]) -> String {
    let mut out = String::new();
    for (phase, spans) in [("traced run", run), ("replay", replay)] {
        let layers = trace::self_time_by_layer(spans);
        let total: u64 = layers.values().map(|l| l.self_ns).sum();
        let _ = writeln!(out, "self time, {phase}:\n  layer        spans    self_ms   share");
        for (layer, t) in &layers {
            let _ = writeln!(
                out,
                "  {layer:<10} {:>7} {:>10.3} {:>6.1}%",
                t.spans,
                t.self_ns as f64 / 1e6,
                100.0 * ratio(t.self_ns as f64, total as f64)
            );
        }
    }
    out
}

/// Spans as Chrome-trace JSON and the self-time table, under `out/` in the
/// benchmark package.
fn write_trace_files(
    args: &Args,
    run: &[trace::Span],
    replay: &[trace::Span],
    table: &str,
) -> Result<(), String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = args.kind.name();
    let spans = trace::merge(vec![run.to_vec(), replay.to_vec()]);
    let trace_path = dir.join(format!("{stem}.trace.json"));
    std::fs::write(&trace_path, trace::chrome_json(&spans))
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    let table_path = dir.join(format!("{stem}.selftime.txt"));
    std::fs::write(&table_path, table).map_err(|e| format!("{}: {e}", table_path.display()))?;
    println!("trace: {} spans -> {}", spans.len(), trace_path.display());
    Ok(())
}
