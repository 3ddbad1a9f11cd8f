//! Closed-loop clients and the measured window.
//!
//! Each client holds one `RemoteConn` to one replica and sends its next
//! transaction only after the previous one ends. A transaction is timed
//! from its first attempt to its commit ack, retries and backoff included.
//! Everything a run reports is taken over one window: a transaction belongs
//! to it when it *ends* inside it, and the program's counters and the
//! process's heap in use are read at the window's two edges. The window
//! is cut into one-second slices, with the process CPU clock read at every
//! slice edge, so that rates and percentiles can be reported as medians
//! over slices: a stall of the shared host then moves one slice, not the
//! reported figure.

use crate::deploy::Deployment;
use crate::trace::{self, Recorder, Span};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sirep_common::DbError;
use sirep_core::ClusterReport;
use sirep_driver::{RemoteConn, RemoteDriver};
use sirep_workloads::Workload;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Client threads; client `i` talks to replica `i mod 3`.
pub const CLIENTS: usize = 2;
/// First backoff ceiling after a retryable abort.
pub const BACKOFF_BASE: Duration = Duration::from_micros(200);
/// Largest backoff ceiling.
pub const BACKOFF_CAP: Duration = Duration::from_millis(10);
/// Attempts before a transaction counts as failed.
pub const MAX_ATTEMPTS: u32 = 50;
/// A traced client pings its server before every this many transactions.
const PING_EVERY: u64 = 16;
/// Length of one slice of the measured window.
pub const SLICE: Duration = Duration::from_secs(1);
/// How often the traced run samples the sequencer's fan-out backlog.
const SEQ_SAMPLE: Duration = Duration::from_millis(20);

pub fn policy() -> String {
    format!(
        "closed loop, {CLIENTS} clients, client i -> replica i mod 3; retryable aborts retried \
         after a seeded, jittered exponential backoff drawn from [c/2, c], c = min({}us * 2^k, \
         {}us) before retry k+1, at most {MAX_ATTEMPTS} attempts; a duplicate-key error is a \
         generator collision and the transaction is redrawn",
        BACKOFF_BASE.as_micros(),
        BACKOFF_CAP.as_micros()
    )
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    Committed,
    /// Non-retryable error, or out of attempts.
    Failed,
    /// The commit's outcome is unknown.
    InDoubt,
    /// The generator drew an existing key; the transaction was redrawn.
    Collision,
}

#[derive(Debug, Clone)]
pub struct TxnRecord {
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    pub attempts: u32,
    pub statements: u32,
    pub update: bool,
    pub end: End,
}

impl TxnRecord {
    pub fn latency_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Everything one run produced.
pub struct Run {
    pub records: Vec<TxnRecord>,
    /// End time, id and statements of each committed transaction traced in
    /// the window.
    pub traced_sql: Vec<(u64, u64, Vec<String>)>,
    pub spans: Vec<Span>,
    pub window_ns: (u64, u64),
    /// Process CPU seconds at every slice edge.
    pub cpu_edges: Vec<f64>,
    /// Host steal and total CPU ticks at every slice edge.
    pub steal_edges: Vec<(u64, u64)>,
    /// Heap in use (KiB) at the window's two edges.
    pub heap_kib: (f64, f64),
    pub before: ClusterReport,
    pub after: ClusterReport,
    pub seq_backlog_hw: u64,
    pub seq_log_len: u64,
    /// Stored row versions per live row over every replica's tables, read
    /// as the window closes.
    pub versions_per_row: f64,
    pub first_error: Option<String>,
}

impl Run {
    /// Process CPU seconds used in the window.
    pub fn cpu_s(&self) -> f64 {
        self.cpu_edges.last().unwrap_or(&0.0) - self.cpu_edges.first().unwrap_or(&0.0)
    }

    pub fn slices(&self) -> usize {
        self.cpu_edges.len().saturating_sub(1)
    }

    fn slice_ns(&self) -> u64 {
        (self.window_ns.1 - self.window_ns.0) / self.slices().max(1) as u64
    }

    /// Transactions that ended inside the window.
    pub fn in_window(&self) -> impl Iterator<Item = &TxnRecord> {
        self.ending_in(self.window_ns)
    }

    /// Transactions that ended inside slice `k`, and the CPU seconds the
    /// process used in it.
    pub fn slice(&self, k: usize) -> (Vec<&TxnRecord>, f64) {
        let from = self.window_ns.0 + k as u64 * self.slice_ns();
        let records = self.ending_in((from, from + self.slice_ns())).collect();
        (records, self.cpu_edges[k + 1] - self.cpu_edges[k])
    }

    /// Share of the host's CPU time the hypervisor stole during the window.
    pub fn window_steal(&self) -> f64 {
        self.steal_between(0, self.slices())
    }

    /// Share of the host's CPU time the hypervisor stole during slice `k`.
    pub fn slice_steal(&self, k: usize) -> f64 {
        self.steal_between(k, k + 1)
    }

    fn steal_between(&self, from: usize, to: usize) -> f64 {
        let ((s0, t0), (s1, t1)) = (self.steal_edges[from], self.steal_edges[to]);
        crate::stats::ratio(s1.saturating_sub(s0) as f64, t1.saturating_sub(t0) as f64)
    }

    pub fn slice_s(&self) -> f64 {
        self.slice_ns() as f64 / 1e9
    }

    fn ending_in(&self, (from, to): (u64, u64)) -> impl Iterator<Item = &TxnRecord> {
        self.records.iter().filter(move |r| r.end_ns >= from && r.end_ns < to)
    }

    pub fn count(&self, end: End) -> u64 {
        self.in_window().filter(|r| r.end == end).count() as u64
    }

    /// Sorted latencies (ms) of the window's committed transactions.
    pub fn latencies_ms(&self, updates_only: bool) -> Vec<f64> {
        latencies_ms(self.in_window(), updates_only)
    }
}

/// Sorted latencies (ms) of the committed transactions among `records`.
pub fn latencies_ms<'a>(
    records: impl IntoIterator<Item = &'a TxnRecord>,
    updates_only: bool,
) -> Vec<f64> {
    let mut v: Vec<f64> = records
        .into_iter()
        .filter(|r| r.end == End::Committed && (r.update || !updates_only))
        .map(TxnRecord::latency_ms)
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Drive `w` against `dep` for `warmup` and then a `measure` window.
pub fn drive(
    dep: &Deployment,
    w: &dyn Workload,
    seed: u64,
    warmup: Duration,
    measure: Duration,
    traced: bool,
) -> Result<Run, String> {
    let epoch = Instant::now();
    let window_ns = (warmup.as_nanos() as u64, (warmup + measure).as_nanos() as u64);
    let stop = AtomicBool::new(false);
    let backlog_hw = AtomicU64::new(0);
    let seq_addr = dep.seq.addr().to_string();
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let addr = dep.server_addr(i);
                let stop = &stop;
                s.spawn(move || client(i, &addr, w, seed, epoch, window_ns, stop, traced))
            })
            .collect();
        let sampler = traced.then(|| {
            let (stop, hw, addr) = (&stop, &backlog_hw, seq_addr.as_str());
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if let Ok(stats) = sirep_gcs::query_seq_stats(addr) {
                        hw.fetch_max(stats.backlog(), Ordering::Relaxed);
                    }
                    std::thread::sleep(SEQ_SAMPLE);
                }
            })
        });
        let slices = (measure.as_nanos() / SLICE.as_nanos()).max(1) as u64;
        let (mut cpu_edges, mut steal_edges) = (Vec::new(), Vec::new());
        let (mut before, mut heap0) = (None, 0.0);
        for k in 0..=slices {
            let at_ns = window_ns.0 + (window_ns.1 - window_ns.0) * k / slices;
            let at = epoch + Duration::from_nanos(at_ns);
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            cpu_edges.push(crate::sys::cpu_seconds());
            steal_edges.push(crate::sys::steal_ticks());
            if k == 0 {
                before = Some(dep.cluster.metrics());
                heap0 = crate::sys::heap_in_use_kib();
            }
        }
        let (after, heap1) = (dep.cluster.metrics(), crate::sys::heap_in_use_kib());
        let seq_log_len = sirep_gcs::query_seq_stats(&seq_addr).map(|s| s.log_len);
        let versions_per_row = versions_per_row(&dep.cluster);
        stop.store(true, Ordering::Relaxed);
        if let Some(h) = sampler {
            h.join().map_err(|_| "sequencer sampler panicked".to_string())?;
        }
        let mut run = Run {
            records: Vec::new(),
            traced_sql: Vec::new(),
            spans: Vec::new(),
            window_ns,
            cpu_edges,
            steal_edges,
            heap_kib: (heap0, heap1),
            before: before.expect("slice 0 is read"),
            after,
            seq_backlog_hw: backlog_hw.load(Ordering::Relaxed),
            seq_log_len: seq_log_len.map_err(|e| format!("sequencer stats: {e}"))?,
            versions_per_row,
            first_error: None,
        };
        let mut span_lists = Vec::new();
        for h in clients {
            let out = h.join().map_err(|_| "client panicked".to_string())??;
            run.records.extend(out.records);
            run.traced_sql.extend(out.traced_sql);
            span_lists.push(out.spans);
            run.first_error = run.first_error.take().or(out.first_error);
        }
        run.spans = trace::merge(span_lists);
        Ok(run)
    })
}

fn versions_per_row(cluster: &sirep_core::Cluster) -> f64 {
    let (mut versions, mut rows) = (0usize, 0usize);
    for node in cluster.nodes() {
        let db = node.database();
        for t in db.table_names() {
            versions += db.stored_versions(&t);
            rows += db.table_len(&t);
        }
    }
    crate::stats::ratio(versions as f64, rows as f64)
}

struct ClientOut {
    records: Vec<TxnRecord>,
    traced_sql: Vec<(u64, u64, Vec<String>)>,
    spans: Vec<Span>,
    first_error: Option<String>,
}

/// splitmix64 finalizer: independent streams from one seed.
fn mix(seed: u64, client: usize, stream: u64) -> u64 {
    let mut z = seed ^ ((client as u64 + 1) << 32) ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn retryable(e: &DbError) -> bool {
    match e {
        DbError::Aborted(r) => r.is_retryable(),
        DbError::ConnectionLost { in_doubt } => !in_doubt,
        DbError::Unavailable => true,
        _ => false,
    }
}

/// Backoff before retry `attempt + 1`: uniform in `[c/2, c]` with
/// `c = min(BASE · 2^(attempt-1), CAP)`.
pub fn backoff(rng: &mut SmallRng, attempt: u32) -> Duration {
    let shift = attempt.saturating_sub(1).min(16);
    let ceiling =
        (BACKOFF_BASE.as_nanos() as u64 * (1u64 << shift)).min(BACKOFF_CAP.as_nanos() as u64);
    Duration::from_nanos(rng.gen_range(ceiling / 2..=ceiling))
}

#[allow(clippy::too_many_arguments)]
fn client(
    i: usize,
    addr: &str,
    w: &dyn Workload,
    seed: u64,
    epoch: Instant,
    window_ns: (u64, u64),
    stop: &AtomicBool,
    traced: bool,
) -> Result<ClientOut, String> {
    let driver = RemoteDriver::new(vec![addr.to_string()]);
    let mut conn = driver.connect().map_err(|e| format!("client {i}: connect: {e}"))?;
    conn.set_autocommit(false).map_err(|e| format!("client {i}: autocommit: {e}"))?;
    let mut gen = SmallRng::seed_from_u64(mix(seed, i, 0));
    let mut jitter = SmallRng::seed_from_u64(mix(seed, i, 1));
    let mut rec = Recorder::new(epoch, i as u32, false);
    let mut out = ClientOut {
        records: Vec::new(),
        traced_sql: Vec::new(),
        spans: Vec::new(),
        first_error: None,
    };
    let now_ns = || epoch.elapsed().as_nanos() as u64;
    let mut n = 0u64;
    while !stop.load(Ordering::Relaxed) {
        n += 1;
        let id = ((i as u64 + 1) << 40) | n;
        // Only transactions starting inside the window are traced.
        let t = now_ns();
        rec.enable(traced && t >= window_ns.0 && t < window_ns.1);
        let r = &mut rec;
        if n.is_multiple_of(PING_EVERY) && r.is_on() {
            r.timed("driver.ping", None, 0, || conn.ping())
                .map_err(|e| format!("client {i}: ping: {e}"))?;
        }
        let tmpl = w.next(&mut gen, i);
        let start_ns = now_ns();
        let root = r.open("bench.txn", None, id);
        let mut attempts = 0;
        let end = loop {
            attempts += 1;
            let Err(e) = attempt(&mut conn, r, root, id, &tmpl.statements) else {
                break End::Committed;
            };
            if matches!(e, DbError::ConnectionLost { in_doubt: true }) {
                break End::InDoubt;
            }
            r.timed("driver.rollback", root, id, || conn.rollback()).ok();
            if matches!(e, DbError::DuplicateKey(_)) {
                break End::Collision;
            }
            if !retryable(&e) || attempts >= MAX_ATTEMPTS {
                out.first_error.get_or_insert_with(|| format!("client {i}: {e}"));
                break End::Failed;
            }
            let pause = backoff(&mut jitter, attempts);
            r.timed("bench.backoff", root, id, || std::thread::sleep(pause));
        };
        r.close(root);
        let end_ns = now_ns();
        if r.is_on() && end == End::Committed {
            out.traced_sql.push((end_ns, id, tmpl.statements.clone()));
        }
        out.records.push(TxnRecord {
            start_ns,
            end_ns,
            attempts,
            statements: tmpl.statements.len() as u32,
            update: !tmpl.readonly,
            end,
        });
    }
    out.spans = rec.into_spans();
    Ok(out)
}

/// One attempt: every statement, then commit.
fn attempt(
    conn: &mut RemoteConn<'_>,
    rec: &mut Recorder,
    root: Option<usize>,
    id: u64,
    statements: &[String],
) -> Result<(), DbError> {
    for sql in statements {
        rec.timed("driver.execute", root, id, || conn.execute(sql))?;
    }
    rec.timed("driver.commit", root, id, || conn.commit())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_starts_below_a_millisecond_and_is_capped() {
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..100 {
            let first = backoff(&mut rng, 1);
            assert!(first >= BACKOFF_BASE / 2 && first <= BACKOFF_BASE);
            assert!(first < Duration::from_millis(1));
            let late = backoff(&mut rng, 40);
            assert!(late >= BACKOFF_CAP / 2 && late <= BACKOFF_CAP);
        }
        let (mut a, mut b) = (SmallRng::seed_from_u64(4), SmallRng::seed_from_u64(4));
        assert_eq!(backoff(&mut a, 3), backoff(&mut b, 3), "jitter is seeded");
    }
}
