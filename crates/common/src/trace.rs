//! Transaction-lifecycle tracing: per-stage latency breakdown.
//!
//! Every transaction can carry a [`TxTrace`] — a tiny `Copy` value holding
//! one monotonic origin instant plus one nanosecond offset per pipeline
//! [`Stage`].  The stages mirror the SRCA-Rep pipeline from the paper:
//!
//! ```text
//! begin_wait -> execute -> ws_extract -> gcs_deliver -> validate_queue
//!            -> apply -> commit                         (+ total)
//! ```
//!
//! * `begin_wait` — time a `begin` stalled on open commit-order holes
//!   (adjustment 3, §5.3 of the paper).
//! * `execute` — client statement execution on the local snapshot.
//! * `ws_extract` — writeset extraction at commit request time.
//! * `gcs_deliver` — total-order multicast latency (send → deliver).
//! * `validate_queue` — time between delivery/validation and the moment the
//!   writeset starts to apply/commit (the `tocommit`-queue wait).
//! * `apply` — applying the writeset (remote replicas; ~0 locally since the
//!   local transaction already holds its updates).
//! * `commit` — the final database commit call, including the hole rule wait.
//! * `total` — begin to durable commit, end to end.
//!
//! Marks are recorded with [`TxTrace::mark`] as each stage *completes*; a
//! stage's duration is the gap back to the latest earlier mark (or to the
//! origin).  Unset stages are skipped, so read-only transactions — which
//! never see the multicast stages — still produce correct `execute`/`total`
//! durations.
//!
//! [`StageStats`] aggregates traces from many threads into one log-bucketed
//! [`Histogram`] per stage (recorded in **milliseconds**, like every other
//! histogram in the workspace).

use crate::histogram::Histogram;
use parking_lot::Mutex;
use std::fmt;
use std::time::Instant;

/// Pipeline stages of a replicated transaction, in causal order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Stage {
    /// `begin` blocked waiting for commit-order holes to drain.
    BeginWait = 0,
    /// Client statements executed against the local snapshot.
    Execute = 1,
    /// Writeset extracted at commit request.
    WsExtract = 2,
    /// Writeset delivered by the total-order multicast.
    GcsDeliver = 3,
    /// Validated writeset waited in the tocommit queue.
    ValidateQueue = 4,
    /// Writeset applied to the database.
    Apply = 5,
    /// Final commit call returned (includes the hole rule wait).
    Commit = 6,
    /// End-to-end: begin to durable commit.
    Total = 7,
}

/// Number of [`Stage`] variants (size of per-stage arrays).
pub const STAGE_COUNT: usize = 8;

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::BeginWait,
        Stage::Execute,
        Stage::WsExtract,
        Stage::GcsDeliver,
        Stage::ValidateQueue,
        Stage::Apply,
        Stage::Commit,
        Stage::Total,
    ];

    /// Stable lowercase name used in breakdown tables.
    pub fn name(self) -> &'static str {
        match self {
            Stage::BeginWait => "begin_wait",
            Stage::Execute => "execute",
            Stage::WsExtract => "ws_extract",
            Stage::GcsDeliver => "gcs_deliver",
            Stage::ValidateQueue => "validate_queue",
            Stage::Apply => "apply",
            Stage::Commit => "commit",
            Stage::Total => "total",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

const UNSET: u64 = u64::MAX;

/// Per-transaction stage timeline.  `Copy`, 72 bytes, no allocation: cheap
/// enough to thread through the hot commit path and drop on abort.
#[derive(Debug, Clone, Copy)]
pub struct TxTrace {
    origin: Instant,
    /// Nanoseconds from `origin` at which each stage *completed*;
    /// `UNSET` if the stage never ran.
    marks: [u64; STAGE_COUNT],
}

impl TxTrace {
    /// Start a trace now; the transaction's `begin` is the time origin.
    #[inline]
    pub fn start() -> TxTrace {
        TxTrace::starting_at(Instant::now())
    }

    /// Start a trace with an explicit origin (e.g. a message send instant).
    #[inline]
    pub fn starting_at(origin: Instant) -> TxTrace {
        TxTrace { origin, marks: [UNSET; STAGE_COUNT] }
    }

    /// Record that `stage` completed now.
    #[inline]
    pub fn mark(&mut self, stage: Stage) {
        self.mark_at(stage, Instant::now());
    }

    /// Record that `stage` completed at `at` (for instants carried inside
    /// multicast messages, which may predate the call).
    #[inline]
    pub fn mark_at(&mut self, stage: Stage, at: Instant) {
        self.marks[stage as usize] =
            at.saturating_duration_since(self.origin).as_nanos().min(u64::MAX as u128 - 1) as u64;
    }

    /// Mark [`Stage::Total`] and return the trace, ready for
    /// [`StageStats::absorb`].
    #[inline]
    pub fn finish(mut self) -> TxTrace {
        self.mark(Stage::Total);
        self
    }

    /// The trace origin (the transaction's begin instant).
    #[inline]
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Offset in nanoseconds from origin to `stage`'s completion, if marked.
    #[inline]
    pub fn offset_ns(&self, stage: Stage) -> Option<u64> {
        match self.marks[stage as usize] {
            UNSET => None,
            ns => Some(ns),
        }
    }

    /// Duration of `stage` in nanoseconds: the gap from the latest earlier
    /// mark (or the origin, for the first mark) to `stage`'s mark.
    /// [`Stage::Total`] measures from the origin outright.
    pub fn stage_ns(&self, stage: Stage) -> Option<u64> {
        let end = self.offset_ns(stage)?;
        if stage == Stage::Total {
            return Some(end);
        }
        let prev =
            self.marks[..stage as usize].iter().copied().filter(|&m| m != UNSET).max().unwrap_or(0);
        Some(end.saturating_sub(prev))
    }

    /// True if every stage in `stages` has been marked.
    pub fn has_all(&self, stages: &[Stage]) -> bool {
        stages.iter().all(|&s| self.marks[s as usize] != UNSET)
    }
}

impl Default for TxTrace {
    fn default() -> Self {
        TxTrace::start()
    }
}

/// Thread-safe per-replica aggregation of [`TxTrace`]s: one latency
/// [`Histogram`] (milliseconds) per [`Stage`].
#[derive(Debug, Default)]
pub struct StageStats {
    hists: Mutex<[Histogram; STAGE_COUNT]>,
}

impl StageStats {
    pub fn new() -> StageStats {
        StageStats::default()
    }

    /// Fold a finished trace into the per-stage histograms.  Only stages the
    /// trace actually marked are recorded.
    pub fn absorb(&self, trace: &TxTrace) {
        let mut hists = self.hists.lock();
        for stage in Stage::ALL {
            if let Some(ns) = trace.stage_ns(stage) {
                hists[stage as usize].record(ns as f64 / 1e6);
            }
        }
    }

    /// Record a single stage duration directly (milliseconds), for stages
    /// measured outside a full [`TxTrace`] — e.g. remote-replica apply.
    pub fn record_ms(&self, stage: Stage, ms: f64) {
        self.hists.lock()[stage as usize].record(ms);
    }

    /// Record a single stage duration directly from a [`std::time::Duration`].
    pub fn record_duration(&self, stage: Stage, d: std::time::Duration) {
        self.record_ms(stage, d.as_secs_f64() * 1e3);
    }

    /// Merge another registry into this one (for cluster-wide rollups).
    pub fn merge(&self, other: &StageStats) {
        let theirs = other.snapshot();
        let mut hists = self.hists.lock();
        for stage in Stage::ALL {
            hists[stage as usize].merge(&theirs.hists[stage as usize]);
        }
    }

    /// Point-in-time copy of the per-stage histograms.
    pub fn snapshot(&self) -> StageSnapshot {
        StageSnapshot { hists: self.hists.lock().clone() }
    }
}

/// Owned copy of a [`StageStats`] registry, detached from its locks —
/// what [`StageStats::snapshot`] returns and what reports embed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageSnapshot {
    hists: [Histogram; STAGE_COUNT],
}

impl StageSnapshot {
    /// Number of samples recorded for `stage`.
    pub fn count(&self, stage: Stage) -> u64 {
        self.hists[stage as usize].count()
    }

    /// Latency quantile for `stage` in milliseconds (NaN when empty).
    pub fn quantile(&self, stage: Stage, q: f64) -> f64 {
        self.hists[stage as usize].quantile(q)
    }

    /// Median latency for `stage` in milliseconds (NaN when empty).
    pub fn median(&self, stage: Stage) -> f64 {
        self.hists[stage as usize].median()
    }

    /// Samples for `stage` beyond the histogram's tracked range — tail
    /// quantiles for the stage are lower bounds when this is non-zero.
    pub fn overflow(&self, stage: Stage) -> u64 {
        self.hists[stage as usize].overflow()
    }

    /// Merge another snapshot into this one.
    pub fn merge(&mut self, other: &StageSnapshot) {
        for stage in Stage::ALL {
            self.hists[stage as usize].merge(&other.hists[stage as usize]);
        }
    }

    /// True when no stage has any samples.
    pub fn is_empty(&self) -> bool {
        Stage::ALL.iter().all(|&s| self.count(s) == 0)
    }

    /// Fixed-width per-stage breakdown table (p50/p95/p99 in ms), the
    /// standard footer of the fig5/fig6/fig7 harnesses:
    ///
    /// ```text
    /// stage            count    p50 ms    p95 ms    p99 ms
    /// begin_wait          12     0.102     0.471     0.802
    /// ...
    /// ```
    pub fn breakdown_table(&self) -> String {
        let mut out = String::with_capacity(64 * (STAGE_COUNT + 1));
        out.push_str(&format!(
            "{:<15} {:>8} {:>9} {:>9} {:>9}\n",
            "stage", "count", "p50 ms", "p95 ms", "p99 ms"
        ));
        for stage in Stage::ALL {
            let n = self.count(stage);
            if n == 0 {
                continue;
            }
            out.push_str(&format!(
                "{:<15} {:>8} {:>9.3} {:>9.3} {:>9.3}\n",
                stage.name(),
                n,
                self.quantile(stage, 0.50),
                self.quantile(stage, 0.95),
                self.quantile(stage, 0.99),
            ));
        }
        out
    }
}

// ======================================================================
// Wire form (telemetry scrapes).
// ======================================================================

/// Sparse canonical encoding: a `Vec` of `(stage_tag, histogram)` pairs for
/// the stages with at least one sample, in strictly increasing stage order.
impl crate::wire::Wire for StageSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        let nonempty: Vec<(u8, Histogram)> = Stage::ALL
            .iter()
            .filter(|&&s| self.count(s) > 0)
            .map(|&s| (s as u8, self.hists[s as usize].clone()))
            .collect();
        nonempty.encode(out);
    }

    fn decode(r: &mut crate::wire::WireReader<'_>) -> Result<Self, crate::wire::WireError> {
        use crate::wire::WireError;
        let pairs = Vec::<(u8, Histogram)>::decode(r)?;
        let mut last: Option<u8> = None;
        let mut snap = StageSnapshot::default();
        for (tag, hist) in pairs {
            if tag as usize >= STAGE_COUNT {
                return Err(WireError::Corrupt("stage tag"));
            }
            if last.is_some_and(|l| tag <= l) {
                return Err(WireError::Corrupt("stage order"));
            }
            if hist.count() == 0 {
                return Err(WireError::Corrupt("stage empty histogram"));
            }
            last = Some(tag);
            snap.hists[tag as usize] = hist;
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn marks_accumulate_in_order() {
        let t0 = Instant::now();
        let mut tr = TxTrace::starting_at(t0);
        tr.mark_at(Stage::BeginWait, t0 + Duration::from_millis(2));
        tr.mark_at(Stage::Execute, t0 + Duration::from_millis(10));
        tr.mark_at(Stage::WsExtract, t0 + Duration::from_millis(11));
        tr.mark_at(Stage::GcsDeliver, t0 + Duration::from_millis(15));
        tr.mark_at(Stage::ValidateQueue, t0 + Duration::from_millis(18));
        tr.mark_at(Stage::Apply, t0 + Duration::from_millis(18));
        tr.mark_at(Stage::Commit, t0 + Duration::from_millis(20));
        let tr = {
            let mut t = tr;
            t.mark_at(Stage::Total, t0 + Duration::from_millis(20));
            t
        };

        assert_eq!(tr.stage_ns(Stage::BeginWait), Some(2_000_000));
        assert_eq!(tr.stage_ns(Stage::Execute), Some(8_000_000));
        assert_eq!(tr.stage_ns(Stage::WsExtract), Some(1_000_000));
        assert_eq!(tr.stage_ns(Stage::GcsDeliver), Some(4_000_000));
        assert_eq!(tr.stage_ns(Stage::ValidateQueue), Some(3_000_000));
        assert_eq!(tr.stage_ns(Stage::Apply), Some(0));
        assert_eq!(tr.stage_ns(Stage::Commit), Some(2_000_000));
        assert_eq!(tr.stage_ns(Stage::Total), Some(20_000_000));
    }

    #[test]
    fn skipped_stages_bridge_correctly() {
        // Read-only path: no ws_extract/gcs/validate/apply.
        let t0 = Instant::now();
        let mut tr = TxTrace::starting_at(t0);
        tr.mark_at(Stage::Execute, t0 + Duration::from_millis(5));
        tr.mark_at(Stage::Commit, t0 + Duration::from_millis(6));
        tr.mark_at(Stage::Total, t0 + Duration::from_millis(6));

        assert_eq!(tr.stage_ns(Stage::BeginWait), None);
        // Execute bridges back to the origin (no begin_wait mark).
        assert_eq!(tr.stage_ns(Stage::Execute), Some(5_000_000));
        // Commit bridges over the unset multicast stages to execute.
        assert_eq!(tr.stage_ns(Stage::Commit), Some(1_000_000));
        assert!(!tr.has_all(&[Stage::GcsDeliver]));
        assert!(tr.has_all(&[Stage::Execute, Stage::Commit, Stage::Total]));
    }

    #[test]
    fn stats_absorb_merge_and_report() {
        let t0 = Instant::now();
        let stats = StageStats::new();
        for i in 1..=50u64 {
            let mut tr = TxTrace::starting_at(t0);
            tr.mark_at(Stage::Execute, t0 + Duration::from_millis(i));
            tr.mark_at(Stage::Commit, t0 + Duration::from_millis(i + 1));
            tr.mark_at(Stage::Total, t0 + Duration::from_millis(i + 1));
            stats.absorb(&tr);
        }
        let other = StageStats::new();
        other.record_ms(Stage::Apply, 3.0);
        stats.merge(&other);

        let snap = stats.snapshot();
        assert_eq!(snap.count(Stage::Execute), 50);
        assert_eq!(snap.count(Stage::Apply), 1);
        assert_eq!(snap.count(Stage::BeginWait), 0);
        let p50 = snap.median(Stage::Execute);
        assert!((20.0..=35.0).contains(&p50), "p50 = {p50}");

        let table = snap.breakdown_table();
        assert!(table.contains("execute"));
        assert!(table.contains("apply"));
        assert!(!table.contains("begin_wait"), "empty stages are omitted:\n{table}");
    }

    #[test]
    fn unmarked_trace_records_nothing() {
        let stats = StageStats::new();
        stats.absorb(&TxTrace::start());
        assert!(stats.snapshot().is_empty());
    }

    use crate::wire::{Wire, WireError};

    fn round_trip(snap: &StageSnapshot) {
        let bytes = snap.to_wire();
        let back = StageSnapshot::from_wire(&bytes).expect("decode");
        assert_eq!(&back, snap);
        assert_eq!(back.to_wire(), bytes, "re-encode must be bit-identical");
    }

    #[test]
    fn wire_round_trips() {
        round_trip(&StageSnapshot::default());
        let stats = StageStats::new();
        stats.record_ms(Stage::Execute, 12.5);
        stats.record_ms(Stage::Execute, 1.25);
        stats.record_ms(Stage::Commit, 0.4);
        stats.record_ms(Stage::Total, 14.0);
        let snap = stats.snapshot();
        round_trip(&snap);
        let back = StageSnapshot::from_wire(&snap.to_wire()).unwrap();
        assert_eq!(back.count(Stage::Execute), 2);
        assert_eq!(back.median(Stage::Execute).to_bits(), snap.median(Stage::Execute).to_bits());
    }

    #[test]
    fn wire_truncation_rejected() {
        let stats = StageStats::new();
        stats.record_ms(Stage::Apply, 3.0);
        stats.record_ms(Stage::Total, 9.0);
        let bytes = stats.snapshot().to_wire();
        for cut in 0..bytes.len() {
            assert!(StageSnapshot::from_wire(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn wire_non_canonical_rejected() {
        let mut one = crate::histogram::Histogram::new();
        one.record(1.0);
        let frame = |pairs: &[(u8, crate::histogram::Histogram)]| {
            let mut out = Vec::new();
            pairs.to_vec().encode(&mut out);
            out
        };
        let got = StageSnapshot::from_wire(&frame(&[(STAGE_COUNT as u8, one.clone())]));
        assert_eq!(got.unwrap_err(), WireError::Corrupt("stage tag"));
        let got = StageSnapshot::from_wire(&frame(&[(3, one.clone()), (1, one.clone())]));
        assert_eq!(got.unwrap_err(), WireError::Corrupt("stage order"));
        let empty = crate::histogram::Histogram::new();
        let got = StageSnapshot::from_wire(&frame(&[(0, empty)]));
        assert_eq!(got.unwrap_err(), WireError::Corrupt("stage empty histogram"));
    }
}
