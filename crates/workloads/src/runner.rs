//! The closed-loop load generator.
//!
//! §6 of the paper: *"In each test run a certain number of clients are
//! connected to one middleware replica. Within a transaction, a client
//! submits the next SQL statement immediately after receiving the previous
//! one, but it sleeps between submitting two different transactions in
//! order to achieve the desired system wide load. All tests were run until
//! a 95/5 confidence interval was achieved."*
//!
//! Each client thread alternates: run one transaction (statement by
//! statement for SI-Rep-style systems, one request for the [20] baseline),
//! then sleep so the fleet's aggregate submission rate matches the target
//! load. Response times are recorded in model milliseconds, separately for
//! update and read-only transactions — the two series of Fig. 5.

use crate::Workload;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sirep_common::{Histogram, Metrics, OnlineStats, StageSnapshot, TimeScale};
use sirep_core::{Connection, System, TxnTemplate};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How clients talk to the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InteractionStyle {
    /// One client↔middleware round trip per SQL statement plus one for the
    /// commit (SI-Rep, SRCA, centralized — the transparent JDBC style).
    PerStatement,
    /// One round trip per transaction (the [20] baseline's parametrized
    /// requests).
    PerTransaction,
}

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub clients: usize,
    /// Target system-wide load in transactions per model second.
    pub target_tps: f64,
    /// Measurement window, model milliseconds.
    pub duration_ms: f64,
    /// Warm-up discarded before measuring, model milliseconds.
    pub warmup_ms: f64,
    pub scale: TimeScale,
    /// One-way client↔middleware latency, model milliseconds.
    pub link_ms: f64,
    pub style: InteractionStyle,
    /// Retries after forced aborts before giving a transaction up.
    pub max_retries: usize,
    pub seed: u64,
}

impl RunConfig {
    pub fn quick(clients: usize, target_tps: f64) -> RunConfig {
        RunConfig {
            clients,
            target_tps,
            duration_ms: 2_000.0,
            warmup_ms: 200.0,
            scale: TimeScale::TEST_FAST,
            link_ms: 0.0,
            style: InteractionStyle::PerStatement,
            max_retries: 5,
            seed: 42,
        }
    }
}

/// Aggregated result of one load point.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub system: String,
    pub workload: String,
    pub target_tps: f64,
    /// Response time of committed update transactions, model ms.
    pub update_rt: OnlineStats,
    /// Response time of committed read-only transactions, model ms.
    pub readonly_rt: OnlineStats,
    pub update_hist: Histogram,
    pub readonly_hist: Histogram,
    pub committed: u64,
    pub forced_aborts: u64,
    /// Transactions that exhausted their retries.
    pub given_up: u64,
    /// Achieved committed throughput, txns per model second.
    pub achieved_tps: f64,
    /// System-internal protocol counters at the end of the run.
    pub metrics: Metrics,
    /// Per-stage lifecycle latency histograms at the end of the run (empty
    /// for systems without tracing).
    pub stages: StageSnapshot,
}

impl RunResult {
    pub fn abort_rate(&self) -> f64 {
        self.forced_aborts as f64 / (self.forced_aborts + self.committed).max(1) as f64
    }

    /// The per-stage p50/p95/p99 breakdown table
    /// ([`StageSnapshot::breakdown_table`]), wall milliseconds.
    pub fn breakdown_table(&self) -> String {
        self.stages.breakdown_table()
    }

    /// One CSV row: target, achieved, mean RTs, p95s, abort rate.
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{:.1},{:.1},{:.2},{:.2},{:.2},{:.2},{:.4}",
            self.system,
            self.workload,
            self.target_tps,
            self.achieved_tps,
            self.update_rt.mean(),
            self.update_hist.quantile(0.95),
            self.readonly_rt.mean(),
            self.readonly_hist.quantile(0.95),
            self.abort_rate()
        )
    }

    pub fn csv_header() -> &'static str {
        "system,workload,target_tps,achieved_tps,update_mean_ms,update_p95_ms,\
         readonly_mean_ms,readonly_p95_ms,abort_rate"
    }
}

struct ClientTally {
    update_rt: OnlineStats,
    readonly_rt: OnlineStats,
    update_hist: Histogram,
    readonly_hist: Histogram,
    committed: u64,
    forced_aborts: u64,
    given_up: u64,
}

impl ClientTally {
    fn new() -> ClientTally {
        ClientTally {
            update_rt: OnlineStats::new(),
            readonly_rt: OnlineStats::new(),
            update_hist: Histogram::new(),
            readonly_hist: Histogram::new(),
            committed: 0,
            forced_aborts: 0,
            given_up: 0,
        }
    }
}

/// Run one transaction end to end; returns Ok(response-time wall duration)
/// of the committed attempt.
fn run_txn(
    conn: &mut Box<dyn Connection>,
    tmpl: &TxnTemplate,
    cfg: &RunConfig,
    tally: &mut ClientTally,
    record: bool,
) -> bool {
    let rt_link = 2.0 * cfg.link_ms;
    for _attempt in 0..=cfg.max_retries {
        let start = Instant::now();
        let ok = match cfg.style {
            InteractionStyle::PerTransaction => {
                cfg.scale.sleep(rt_link);
                conn.run_template(tmpl)
            }
            InteractionStyle::PerStatement => (|| {
                for sql in &tmpl.statements {
                    cfg.scale.sleep(rt_link);
                    conn.execute(sql)?;
                }
                cfg.scale.sleep(rt_link);
                conn.commit()
            })(),
        };
        match ok {
            Ok(()) => {
                if record {
                    let rt_ms = cfg.scale.model_ms(start.elapsed());
                    let (stats, hist) = if tmpl.readonly {
                        (&mut tally.readonly_rt, &mut tally.readonly_hist)
                    } else {
                        (&mut tally.update_rt, &mut tally.update_hist)
                    };
                    stats.record(rt_ms);
                    hist.record(rt_ms);
                    tally.committed += 1;
                }
                return true;
            }
            Err(e) => {
                conn.rollback();
                if let sirep_common::DbError::Aborted(reason) = &e {
                    if reason.is_retryable() {
                        if record {
                            tally.forced_aborts += 1;
                        }
                        continue;
                    }
                }
                // Statement error or unrecoverable: give up on this txn.
                if record {
                    tally.given_up += 1;
                }
                return false;
            }
        }
    }
    if record {
        tally.given_up += 1;
    }
    false
}

/// Drive `system` with `workload` at one load point.
pub fn run(system: &dyn System, workload: &dyn Workload, cfg: &RunConfig) -> RunResult {
    assert!(cfg.clients > 0 && cfg.target_tps > 0.0);
    let stop = Arc::new(AtomicBool::new(false));
    let measuring = Arc::new(AtomicBool::new(false));
    // Mean think gap per client so the fleet submits at target_tps.
    let gap_ms = cfg.clients as f64 * 1000.0 / cfg.target_tps;

    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for client in 0..cfg.clients {
            let stop = Arc::clone(&stop);
            let measuring = Arc::clone(&measuring);
            let cfg = cfg.clone();
            handles.push(scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(cfg.seed ^ (client as u64) << 20);
                let mut tally = ClientTally::new();
                let Ok(mut conn) = system.connect() else { return tally };
                // Stagger client start so arrivals don't align.
                cfg.scale.sleep(rng.gen_range(0.0..gap_ms));
                while !stop.load(Ordering::Relaxed) {
                    let tmpl = workload.next(&mut rng, client);
                    let record = measuring.load(Ordering::Relaxed);
                    let t0 = Instant::now();
                    run_txn(&mut conn, &tmpl, &cfg, &mut tally, record);
                    // Think time: target the aggregate submission rate.
                    let elapsed_ms = cfg.scale.model_ms(t0.elapsed());
                    let jitter = rng.gen_range(0.5..1.5);
                    let think = (gap_ms * jitter - elapsed_ms).max(0.0);
                    if think > 0.0 {
                        cfg.scale.sleep(think);
                    }
                }
                tally
            }));
        }
        // Warm-up, then measure.
        cfg.scale.sleep(cfg.warmup_ms);
        measuring.store(true, Ordering::Relaxed);
        cfg.scale.sleep(cfg.duration_ms);
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().expect("client panicked")).collect()
    });

    let mut update_rt = OnlineStats::new();
    let mut readonly_rt = OnlineStats::new();
    let mut update_hist = Histogram::new();
    let mut readonly_hist = Histogram::new();
    let mut committed = 0;
    let mut forced_aborts = 0;
    let mut given_up = 0;
    for t in &tallies {
        update_rt.merge(&t.update_rt);
        readonly_rt.merge(&t.readonly_rt);
        update_hist.merge(&t.update_hist);
        readonly_hist.merge(&t.readonly_hist);
        committed += t.committed;
        forced_aborts += t.forced_aborts;
        given_up += t.given_up;
    }
    let achieved_tps = committed as f64 / (cfg.duration_ms / 1000.0);
    RunResult {
        system: system.name().to_owned(),
        workload: workload.name().to_owned(),
        target_tps: cfg.target_tps,
        update_rt,
        readonly_rt,
        update_hist,
        readonly_hist,
        committed,
        forced_aborts,
        given_up,
        achieved_tps,
        metrics: system.metrics(),
        stages: system.stages(),
    }
}
