//! Online 1-copy-SI auditor.
//!
//! The paper's correctness argument (Theorem 1, §4.3.3) rests on three
//! invariants that every replica must uphold at run time:
//!
//! 1. **Deterministic certification** — because every replica validates
//!    writesets in total-order delivery order with identical inputs, every
//!    replica assigns the *same* global `tid` (or the same abort verdict) to
//!    every transaction, and commits in tid order modulo holes.
//! 2. **First-committer-wins** — two committed transactions whose writesets
//!    intersect cannot be concurrent: the later one's certification
//!    watermark must cover the earlier one's tid.
//! 3. **Hole synchronization** (adjustment 3, SRCA-Rep only) — a local
//!    transaction never begins while a commit-order hole is open at its
//!    replica, and the `ws_list` prune watermark never regresses past a
//!    certificate still needed for validation.
//!
//! The [`Auditor`] is a passive cross-replica observer: the replica nodes
//! report begins, deliveries, verdicts, commits and prunes from under their
//! state locks, and the auditor re-checks the invariants against its own
//! independent bookkeeping. It never influences the protocol — it only
//! records [`AuditViolation`]s, which [`crate::cluster::ClusterReport`]
//! surfaces and the test suites assert empty.
//!
//! The auditor's internal mutex is a strict *leaf* lock: hooks are invoked
//! while a node's state lock is held, and the auditor never calls back into
//! a node, so no lock cycle can form.
//!
//! Recovery safety: verdicts are keyed by [`XactId`] (not by delivery
//! index), so a recovered replica — which skips messages covered by its
//! state transfer — compares only the transactions it actually processes.
//! [`Auditor::on_replica_reset`] rebases the per-replica hole/watermark
//! bookkeeping from the recovery bootstrap.

use crate::msg::XactId;
use parking_lot::Mutex;
use sirep_common::{GlobalTid, ReplicaId};
use sirep_storage::WriteSet;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Which invariant a violation trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditKind {
    /// Replicas disagreed on a transaction's verdict/tid, or a replica's
    /// commit order diverged from the deterministic validation order.
    CommitOrderDivergence,
    /// Two conflicting concurrent transactions both passed certification.
    FirstCommitterWins,
    /// A local transaction began while a commit-order hole was open
    /// (adjustment 3 violated → snapshot may miss a smaller committed tid).
    HoleSyncViolation,
    /// The `ws_list` prune watermark regressed, or a writeset was delivered
    /// whose certificate lies below the watermark (its validation inputs
    /// were already pruned).
    PruneWatermarkViolation,
}

impl std::fmt::Display for AuditKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AuditKind::CommitOrderDivergence => "commit-order-divergence",
            AuditKind::FirstCommitterWins => "first-committer-wins",
            AuditKind::HoleSyncViolation => "hole-sync-violation",
            AuditKind::PruneWatermarkViolation => "prune-watermark-violation",
        })
    }
}

/// One detected invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    pub kind: AuditKind,
    /// The replica whose report tripped the check.
    pub replica: ReplicaId,
    /// Human-readable specifics (ids, tids, watermarks involved).
    pub detail: String,
}

impl std::fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.replica, self.kind, self.detail)
    }
}

// Telemetry wire forms, so scraped cluster reports can carry violations
// across process boundaries.

impl sirep_common::wire::Wire for AuditKind {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            AuditKind::CommitOrderDivergence => 0,
            AuditKind::FirstCommitterWins => 1,
            AuditKind::HoleSyncViolation => 2,
            AuditKind::PruneWatermarkViolation => 3,
        });
    }

    fn decode(
        r: &mut sirep_common::wire::WireReader<'_>,
    ) -> Result<Self, sirep_common::wire::WireError> {
        Ok(match u8::decode(r)? {
            0 => AuditKind::CommitOrderDivergence,
            1 => AuditKind::FirstCommitterWins,
            2 => AuditKind::HoleSyncViolation,
            3 => AuditKind::PruneWatermarkViolation,
            _ => return Err(sirep_common::wire::WireError::Corrupt("audit kind tag")),
        })
    }
}

impl sirep_common::wire::Wire for AuditViolation {
    fn encode(&self, out: &mut Vec<u8>) {
        self.kind.encode(out);
        self.replica.encode(out);
        self.detail.encode(out);
    }

    fn decode(
        r: &mut sirep_common::wire::WireReader<'_>,
    ) -> Result<Self, sirep_common::wire::WireError> {
        Ok(AuditViolation {
            kind: AuditKind::decode(r)?,
            replica: ReplicaId::decode(r)?,
            detail: String::decode(r)?,
        })
    }
}

/// Bound on remembered verdicts / certified writesets, so a long run cannot
/// grow the auditor without limit. Old entries age out FIFO; the protocol
/// invariants are local in tid-space, so aged-out history only narrows the
/// window the auditor can cross-check, it never causes false positives.
const VERDICT_CAP: usize = 1 << 16;
const HISTORY_CAP: usize = 4096;
const VIOLATION_CAP: usize = 64;

#[derive(Clone)]
struct Verdict {
    /// `Some(tid)` when certification passed, `None` on abort.
    tid: Option<GlobalTid>,
}

/// A certified (passed) writeset remembered for first-committer-wins
/// cross-checking.
struct CertRecord {
    tid: GlobalTid,
    cert: GlobalTid,
    ws: Arc<WriteSet>,
}

#[derive(Default)]
struct ReplicaAudit {
    /// Validated-but-uncommitted tids at this replica (auditor's own copy).
    pending: BTreeSet<GlobalTid>,
    /// Highest tid committed at this replica.
    max_committed: GlobalTid,
    /// Last tid this replica reported passing — must be strictly
    /// increasing (validation follows total order).
    last_passed: GlobalTid,
    /// Latest prune watermark this replica reported — must not regress.
    watermark: GlobalTid,
}

struct AuditState {
    /// First-reported verdict per transaction; later replicas must agree.
    verdicts: HashMap<XactId, Verdict>,
    /// FIFO of verdict keys for eviction.
    verdict_order: VecDeque<XactId>,
    /// Recently certified writesets (first reports only), for the
    /// first-committer-wins pairwise check.
    history: VecDeque<CertRecord>,
    replicas: HashMap<ReplicaId, ReplicaAudit>,
    violations: Vec<AuditViolation>,
}

/// The online auditor, shared by every replica of a cluster.
pub struct Auditor {
    /// Check the adjustment-3 begin rule (SRCA-Rep only — SRCA-Opt
    /// deliberately forgoes it, that's the point of the ablation).
    check_hole_sync: bool,
    tripped: AtomicBool,
    inner: Mutex<AuditState>,
}

impl Auditor {
    pub fn new(check_hole_sync: bool) -> Auditor {
        Auditor {
            check_hole_sync,
            tripped: AtomicBool::new(false),
            inner: Mutex::new(AuditState {
                verdicts: HashMap::new(),
                verdict_order: VecDeque::new(),
                history: VecDeque::new(),
                replicas: HashMap::new(),
                violations: Vec::new(),
            }),
        }
    }

    /// No violation recorded so far. Lock-free fast path.
    pub fn is_clean(&self) -> bool {
        !self.tripped.load(Ordering::Acquire)
    }

    /// Snapshot of all recorded violations.
    pub fn violations(&self) -> Vec<AuditViolation> {
        self.inner.lock().violations.clone()
    }

    /// A local transaction is about to begin at `replica` (called under the
    /// node's state lock, after any adjustment-3 hole wait).
    pub fn on_local_begin(&self, replica: ReplicaId) {
        if !self.check_hole_sync {
            return;
        }
        let mut st = self.inner.lock();
        let ra = st.replicas.entry(replica).or_default();
        if let Some(&hole) = ra.pending.range(..ra.max_committed).next() {
            let max = ra.max_committed;
            self.violate(
                &mut st,
                AuditKind::HoleSyncViolation,
                replica,
                format!("local begin while hole open: tid {hole} uncommitted below {max}"),
            );
        }
    }

    /// A read-only transaction ran entirely against `replica`'s local
    /// snapshot, skipping multicast and certification. `snapshot` is the
    /// commit watermark captured at begin; the snapshot is valid iff the
    /// replica had really committed everything up to it (no tid at or below
    /// `snapshot` still pending) and never claims commits from the future.
    pub fn on_local_readonly(&self, replica: ReplicaId, xact: XactId, snapshot: GlobalTid) {
        let mut st = self.inner.lock();
        let ra = st.replicas.entry(replica).or_default();
        if snapshot > ra.max_committed {
            let max = ra.max_committed;
            self.violate(
                &mut st,
                AuditKind::HoleSyncViolation,
                replica,
                format!("read-only {xact} claims snapshot {snapshot} above max committed {max}"),
            );
            return;
        }
        if !self.check_hole_sync {
            return;
        }
        if let Some(&hole) = ra.pending.range(..=snapshot).next() {
            self.violate(
                &mut st,
                AuditKind::HoleSyncViolation,
                replica,
                format!("read-only {xact} began on snapshot {snapshot} with tid {hole} uncommitted below it"),
            );
        }
    }

    /// A writeset was delivered in total order at `replica`.
    pub fn on_deliver(&self, replica: ReplicaId, xact: XactId, cert: GlobalTid) {
        let mut st = self.inner.lock();
        let ra = st.replicas.entry(replica).or_default();
        if cert < ra.watermark {
            let wm = ra.watermark;
            self.violate(
                &mut st,
                AuditKind::PruneWatermarkViolation,
                replica,
                format!("{xact} delivered with cert {cert} below prune watermark {wm}"),
            );
        }
    }

    /// `replica` certified `xact`: `tid` is `Some` on pass, `None` on abort.
    /// The first reporting replica's verdict becomes the reference; every
    /// later report must match it (deterministic certification), and passed
    /// writesets are re-checked for first-committer-wins against the
    /// auditor's independent history.
    pub fn on_verdict(
        &self,
        replica: ReplicaId,
        xact: XactId,
        cert: GlobalTid,
        tid: Option<GlobalTid>,
        ws: &Arc<WriteSet>,
    ) {
        let mut st = self.inner.lock();
        match st.verdicts.get(&xact) {
            Some(first) => {
                if first.tid != tid {
                    let expect = first.tid;
                    self.violate(
                        &mut st,
                        AuditKind::CommitOrderDivergence,
                        replica,
                        format!("verdict for {xact} is {tid:?}, first reporter saw {expect:?}"),
                    );
                }
            }
            None => {
                if st.verdicts.len() >= VERDICT_CAP {
                    if let Some(old) = st.verdict_order.pop_front() {
                        st.verdicts.remove(&old);
                    }
                }
                st.verdicts.insert(xact, Verdict { tid });
                st.verdict_order.push_back(xact);
                if let Some(t) = tid {
                    self.check_first_committer_wins(&mut st, replica, xact, t, cert, ws);
                    if st.history.len() >= HISTORY_CAP {
                        st.history.pop_front();
                    }
                    debug_assert!(
                        st.history.back().is_none_or(|h| h.tid < t),
                        "first verdicts must arrive in tid order"
                    );
                    st.history.push_back(CertRecord { tid: t, cert, ws: Arc::clone(ws) });
                }
            }
        }
        if let Some(t) = tid {
            let ra = st.replicas.entry(replica).or_default();
            if t <= ra.last_passed {
                let last = ra.last_passed;
                self.violate(
                    &mut st,
                    AuditKind::CommitOrderDivergence,
                    replica,
                    format!("{xact} passed with tid {t}, not above replica's last tid {last}"),
                );
            } else {
                ra.last_passed = t;
                ra.pending.insert(t);
            }
        }
    }

    /// Two certified transactions A (tid `a`, cert `ca`) and B (tid `b`,
    /// cert `cb`) with `a < b` are *concurrent* iff `cb < a` — B's snapshot
    /// predates A's commit. If their writesets also intersect, certification
    /// should have aborted B: both passing violates first-committer-wins.
    ///
    /// First verdicts arrive in total order, so `history` ascends by tid and
    /// every entry is an A for this B. The walk runs newest first and stops
    /// at the first entry with `a <= cb`: no older entry can be concurrent.
    fn check_first_committer_wins(
        &self,
        st: &mut AuditState,
        replica: ReplicaId,
        xact: XactId,
        tid: GlobalTid,
        cert: GlobalTid,
        ws: &WriteSet,
    ) {
        let mut hit = None;
        for h in st.history.iter().rev() {
            if h.tid <= cert {
                break;
            }
            if h.ws.intersects(ws) {
                hit = Some((h.tid, h.cert));
                break;
            }
        }
        if let Some((htid, hcert)) = hit {
            self.violate(
                st,
                AuditKind::FirstCommitterWins,
                replica,
                format!(
                    "{xact} (tid {tid}, cert {cert}) and tid {htid} (cert {hcert}) are \
                     concurrent with intersecting writesets, yet both passed"
                ),
            );
        }
    }

    /// `xact` committed at `replica` with global id `tid` (under the node's
    /// state lock, right after the database commit).
    pub fn on_commit(&self, replica: ReplicaId, xact: XactId, tid: GlobalTid) {
        let mut st = self.inner.lock();
        if let Some(v) = st.verdicts.get(&xact) {
            if v.tid != Some(tid) {
                let expect = v.tid;
                self.violate(
                    &mut st,
                    AuditKind::CommitOrderDivergence,
                    replica,
                    format!("{xact} committed as tid {tid}, certification assigned {expect:?}"),
                );
            }
        }
        let ra = st.replicas.entry(replica).or_default();
        ra.pending.remove(&tid);
        ra.max_committed = ra.max_committed.max(tid);
    }

    /// `replica` pruned its `ws_list` up to `watermark`.
    pub fn on_prune(&self, replica: ReplicaId, watermark: GlobalTid) {
        let mut st = self.inner.lock();
        let ra = st.replicas.entry(replica).or_default();
        if watermark < ra.watermark {
            let wm = ra.watermark;
            self.violate(
                &mut st,
                AuditKind::PruneWatermarkViolation,
                replica,
                format!("prune watermark regressed from {wm} to {watermark}"),
            );
        } else {
            ra.watermark = watermark;
        }
    }

    /// `replica` (re)joined from a recovery state transfer: rebase its
    /// bookkeeping on the bootstrap — `last_validated` from the transferred
    /// `ws_list`, `max_committed` and still-pending tids from the donor's
    /// queue. Must be called before the recovered node starts its threads.
    pub fn on_replica_reset(
        &self,
        replica: ReplicaId,
        last_validated: GlobalTid,
        max_committed: GlobalTid,
        pending: impl IntoIterator<Item = GlobalTid>,
    ) {
        let mut st = self.inner.lock();
        st.replicas.insert(
            replica,
            ReplicaAudit {
                pending: pending.into_iter().collect(),
                max_committed,
                last_passed: last_validated,
                watermark: GlobalTid::ZERO,
            },
        );
    }

    fn violate(&self, st: &mut AuditState, kind: AuditKind, replica: ReplicaId, detail: String) {
        self.tripped.store(true, Ordering::Release);
        if st.violations.len() < VIOLATION_CAP {
            st.violations.push(AuditViolation { kind, replica, detail });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirep_storage::{Key, WsOp};

    fn ws(keys: &[i64]) -> Arc<WriteSet> {
        let mut w = WriteSet::new();
        for &k in keys {
            w.push(Arc::from("t"), Key::single(k), WsOp::Delete);
        }
        Arc::new(w)
    }

    fn xact(origin: u64, seq: u64) -> XactId {
        XactId { origin: ReplicaId::new(origin), seq }
    }

    fn t(n: u64) -> GlobalTid {
        GlobalTid::new(n)
    }

    const R0: ReplicaId = ReplicaId::new(0);
    const R1: ReplicaId = ReplicaId::new(1);

    #[test]
    fn clean_identical_run_stays_clean() {
        let a = Auditor::new(true);
        for (seq, r) in [(1, R0), (2, R1)] {
            let x = xact(r.raw(), seq);
            a.on_deliver(R0, x, t(0));
            a.on_deliver(R1, x, t(0));
        }
        // Disjoint writesets, identical verdicts on both replicas.
        let x1 = xact(0, 1);
        let x2 = xact(1, 2);
        a.on_verdict(R0, x1, t(0), Some(t(1)), &ws(&[1]));
        a.on_verdict(R1, x1, t(0), Some(t(1)), &ws(&[1]));
        a.on_verdict(R0, x2, t(1), Some(t(2)), &ws(&[2]));
        a.on_verdict(R1, x2, t(1), Some(t(2)), &ws(&[2]));
        a.on_commit(R0, x1, t(1));
        a.on_commit(R1, x1, t(1));
        a.on_local_begin(R0);
        a.on_prune(R0, t(1));
        a.on_prune(R0, t(2));
        assert!(a.is_clean(), "violations: {:?}", a.violations());
    }

    #[test]
    fn divergent_verdicts_are_flagged() {
        let a = Auditor::new(true);
        let x = xact(0, 1);
        a.on_verdict(R0, x, t(0), Some(t(1)), &ws(&[1]));
        a.on_verdict(R1, x, t(0), None, &ws(&[1]));
        assert!(!a.is_clean());
        let v = a.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, AuditKind::CommitOrderDivergence);
        assert_eq!(v[0].replica, R1);
    }

    #[test]
    fn conflicting_concurrent_passes_trip_first_committer_wins() {
        let a = Auditor::new(true);
        // Both certified against cert 0, overlapping writesets, both pass:
        // the second one should have been aborted.
        a.on_verdict(R0, xact(0, 1), t(0), Some(t(1)), &ws(&[7]));
        a.on_verdict(R0, xact(1, 1), t(0), Some(t(2)), &ws(&[7, 9]));
        let v = a.violations();
        assert!(v.iter().any(|v| v.kind == AuditKind::FirstCommitterWins), "{v:?}");
    }

    #[test]
    fn bounded_walk_still_finds_a_conflict_far_back() {
        let a = Auditor::new(true);
        // The conflicting entry (key 7, tid 1) is 1,200 entries back; the
        // entries in between write disjoint keys. A cert of 0 predates it,
        // so the newest-first walk must reach it before it stops.
        a.on_verdict(R0, xact(0, 1), t(0), Some(t(1)), &ws(&[7]));
        for n in 2..1_202 {
            a.on_verdict(R0, xact(0, n), t(n - 1), Some(t(n)), &ws(&[1_000 + n as i64]));
        }
        assert!(a.is_clean(), "{:?}", a.violations());
        a.on_verdict(R0, xact(1, 1), t(0), Some(t(1_202)), &ws(&[7]));
        let v = a.violations();
        assert!(v.iter().any(|v| v.kind == AuditKind::FirstCommitterWins), "{v:?}");
    }

    #[test]
    fn serialized_conflicts_are_fine() {
        let a = Auditor::new(true);
        // Same key, but the second certified *after* the first committed
        // (cert covers tid 1) — not concurrent, no violation.
        a.on_verdict(R0, xact(0, 1), t(0), Some(t(1)), &ws(&[7]));
        a.on_verdict(R0, xact(1, 1), t(1), Some(t(2)), &ws(&[7]));
        assert!(a.is_clean(), "{:?}", a.violations());
    }

    #[test]
    fn begin_during_hole_is_flagged_only_when_checking_hole_sync() {
        for (check, dirty) in [(true, true), (false, false)] {
            let a = Auditor::new(check);
            a.on_verdict(R0, xact(0, 1), t(0), Some(t(1)), &ws(&[1]));
            a.on_verdict(R0, xact(0, 2), t(0), Some(t(2)), &ws(&[2]));
            // tid 2 commits first → tid 1 is a hole at R0.
            a.on_commit(R0, xact(0, 2), t(2));
            a.on_local_begin(R0);
            assert_eq!(!a.is_clean(), dirty);
            // Hole closes; further begins are clean either way.
            a.on_commit(R0, xact(0, 1), t(1));
            let before = a.violations().len();
            a.on_local_begin(R0);
            assert_eq!(a.violations().len(), before);
        }
    }

    #[test]
    fn watermark_regression_and_stale_cert_are_flagged() {
        let a = Auditor::new(true);
        a.on_prune(R0, t(5));
        a.on_prune(R0, t(5)); // equal is fine
        assert!(a.is_clean());
        a.on_deliver(R0, xact(1, 9), t(3)); // cert below watermark
        a.on_prune(R0, t(4)); // regression
        let v = a.violations();
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|v| v.kind == AuditKind::PruneWatermarkViolation));
    }

    #[test]
    fn replica_reset_rebases_hole_state() {
        let a = Auditor::new(true);
        a.on_verdict(R0, xact(0, 1), t(0), Some(t(1)), &ws(&[1]));
        a.on_verdict(R0, xact(0, 2), t(0), Some(t(2)), &ws(&[2]));
        a.on_commit(R0, xact(0, 2), t(2)); // hole: tid 1
                                           // R0 crashes and recovers with tid 1 already applied by the donor.
        a.on_replica_reset(R0, t(2), t(2), []);
        a.on_local_begin(R0);
        assert!(a.is_clean(), "{:?}", a.violations());
    }
}
