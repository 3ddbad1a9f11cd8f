//! Online 1-copy-SI auditor tests: clean protocol runs must report zero
//! violations in every mode, and deliberately injected violations of each
//! audited invariant must be caught.
//!
//! The injection tests drive the [`Auditor`] hooks directly with crafted
//! event sequences — the live protocol (correctly) never produces them, so
//! this is the only way to prove the auditor would fire. The clean-run half
//! runs real clusters, which exercises the same hooks from the real call
//! sites in `node.rs`.

use si_rep::core::{Cluster, ClusterConfig, Connection, ReplicationMode};
use std::time::Duration;

const Q: Duration = Duration::from_secs(20);

fn run_small_workload(mode: ReplicationMode) -> Cluster {
    let c = Cluster::new(ClusterConfig::builder().replicas(3).mode(mode).build());
    c.execute_ddl("CREATE TABLE acc (id INT, bal INT, PRIMARY KEY (id))").unwrap();
    let mut s = c.session(0);
    for id in 0..8 {
        s.execute(&format!("INSERT INTO acc VALUES ({id}, 100)")).unwrap();
    }
    s.commit().unwrap();
    // Concurrent writers from two replicas, with real conflicts.
    let mut a = c.session(1);
    let mut b = c.session(2);
    for i in 0..10 {
        a.execute(&format!("UPDATE acc SET bal = bal + 1 WHERE id = {}", i % 8)).unwrap();
        let _ = a.commit(); // validation aborts are fine — the auditor watches
        b.execute(&format!("UPDATE acc SET bal = bal - 1 WHERE id = {}", (i + 3) % 8)).unwrap();
        let _ = b.commit(); // the verdicts, not the outcome
    }
    assert!(c.quiesce(Q), "cluster failed to drain");
    c
}

/// Clean runs of both decentralized protocols keep the auditor clean.
#[test]
fn clean_runs_report_no_violations() {
    for mode in [ReplicationMode::SrcaRep, ReplicationMode::SrcaOpt] {
        let c = run_small_workload(mode);
        let report = c.metrics();
        assert!(
            report.violations.is_empty(),
            "{mode:?} tripped the auditor: {:?}",
            report.violations
        );
        assert!(c.audit_is_clean());
    }
}

/// Injected-violation tests: these construct an [`Auditor`] and replay the
/// exact hook sequences the replicas would emit, with one invariant broken.
mod injection {
    use si_rep::common::{GlobalTid, ReplicaId};
    use si_rep::core::{AuditKind, Auditor, XactId};
    use si_rep::storage::{Key, Value, WriteSet, WsOp};
    use std::sync::Arc;

    const R0: ReplicaId = ReplicaId::new(0);
    const R1: ReplicaId = ReplicaId::new(1);

    fn xact(origin: ReplicaId, seq: u64) -> XactId {
        XactId { origin, seq }
    }

    fn ws_on(key: i64) -> Arc<WriteSet> {
        let mut w = WriteSet::new();
        w.push("acc".into(), Key(vec![Value::Int(key)]), WsOp::Delete);
        Arc::new(w)
    }

    /// Theorem 1: every replica must reach the same verdict for the same
    /// delivered writeset. A replica disagreeing on pass/fail is a
    /// commit-order divergence.
    #[test]
    fn divergent_verdicts_are_caught() {
        let a = Auditor::new(true);
        let x = xact(R0, 1);
        let ws = ws_on(1);
        a.on_deliver(R0, x, GlobalTid::ZERO);
        a.on_verdict(R0, x, GlobalTid::ZERO, Some(GlobalTid::new(1)), &ws);
        a.on_deliver(R1, x, GlobalTid::ZERO);
        // Replica 1 (wrongly) fails the same writeset.
        a.on_verdict(R1, x, GlobalTid::ZERO, None, &ws);
        let v = a.violations();
        assert!(
            v.iter().any(|v| v.kind == AuditKind::CommitOrderDivergence),
            "expected a divergence violation, got {v:?}"
        );
        assert!(!a.is_clean());
    }

    /// First-committer-wins: two concurrent transactions with intersecting
    /// writesets cannot both pass certification.
    #[test]
    fn conflicting_concurrent_passes_are_caught() {
        let a = Auditor::new(true);
        let ws = ws_on(7);
        // Both certified against the empty history (cert = 0): concurrent.
        a.on_verdict(R0, xact(R0, 1), GlobalTid::ZERO, Some(GlobalTid::new(1)), &ws);
        a.on_verdict(R0, xact(R1, 1), GlobalTid::ZERO, Some(GlobalTid::new(2)), &ws);
        let v = a.violations();
        assert!(
            v.iter().any(|v| v.kind == AuditKind::FirstCommitterWins),
            "expected a first-committer-wins violation, got {v:?}"
        );
    }

    /// Adjustment 3: a local transaction may not begin while a hole is open
    /// (a validated-but-uncommitted tid below the commit frontier).
    #[test]
    fn begin_during_hole_is_caught() {
        let a = Auditor::new(true);
        let (x1, x2) = (xact(R0, 1), xact(R0, 2));
        a.on_verdict(R0, x1, GlobalTid::ZERO, Some(GlobalTid::new(1)), &ws_on(1));
        a.on_verdict(R0, x2, GlobalTid::ZERO, Some(GlobalTid::new(2)), &ws_on(2));
        // tid 2 commits while tid 1 is still pending → tid 1 is a hole.
        a.on_commit(R0, x2, GlobalTid::new(2));
        a.on_local_begin(R0);
        let v = a.violations();
        assert!(
            v.iter().any(|v| v.kind == AuditKind::HoleSyncViolation),
            "expected a hole-sync violation, got {v:?}"
        );
    }

    /// The distributed ws_list garbage collection may never regress its
    /// watermark, and no delivered writeset may carry a cert below it.
    #[test]
    fn watermark_regression_is_caught() {
        let a = Auditor::new(true);
        a.on_prune(R0, GlobalTid::new(10));
        a.on_prune(R0, GlobalTid::new(4));
        let v = a.violations();
        assert!(
            v.iter().any(|v| v.kind == AuditKind::PruneWatermarkViolation),
            "expected a watermark violation, got {v:?}"
        );
    }
}
