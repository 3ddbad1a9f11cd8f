//! Counterexample replay: sirep-model's minimal violating schedules,
//! driven deterministically against the real node via pause-points.
//!
//! Each test replays, step for step, the counterexample the explorer
//! emits for the seeded mutant matching a real pre-fix bug (the model's
//! journal-vocabulary trace is quoted in the comments). Pre-fix these
//! tests fail; post-fix they pass — they are the regression lock on the
//! two bugs this round of model checking found in `sirep-core`.

use si_rep::core::{
    Cluster, ClusterConfig, Connection, InDoubt, Outcome, PausePoint, ReplicationMode,
};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

const Q: Duration = Duration::from_secs(10);

fn cluster(mode: ReplicationMode) -> Arc<Cluster> {
    let cfg = ClusterConfig::builder().replicas(2).mode(mode).build();
    let c = Arc::new(Cluster::new(cfg));
    c.execute_ddl("CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))").unwrap();
    let mut s = c.session(0);
    s.execute("INSERT INTO kv VALUES (1, 10)").unwrap();
    s.commit().unwrap();
    assert!(c.quiesce(Q), "seed failed to drain");
    c
}

fn wait_parked(c: &Cluster, p: PausePoint) {
    let deadline = std::time::Instant::now() + Q;
    while c.pause_reached(p) == 0 {
        assert!(std::time::Instant::now() < deadline, "no thread reached pause point {p:?}");
        std::thread::yield_now();
    }
}

/// sirep-model counterexample, mutant `nonatomic-begin-snapshot`, scope
/// 2x2, P3-capture-agreement (8 steps):
///
/// ```text
///  1. T0 attempts to begin at R0                    (TxBegin)
///  2. T0 records its snapshot watermark at R0
///  3. T0 requests commit at R0                      (CertCapture, Multicast)
///  4. T1 attempts to begin at R0                    <- engine snapshot taken
///  5. R0 processes its next total-order delivery    (TotalOrderDeliver,
///                                                    ValidationVerdict tid=G1)
///  6. T0 commits on its session thread at R0        (Commit tid=G1)
///  7. T1 records its snapshot watermark at R0       <- watermark = G1, stale read
///  8. read-only T1 commits on the fast path         (LocalReadOnly snapshot=G1)
/// ```
///
/// Pre-fix, `SrcaOpt::begin_local` ran `db.begin()` *before* taking the
/// state lock, so T0's commit (steps 5–6) could land between T1's engine
/// snapshot (step 4) and its watermark capture (step 7): the journaled
/// `LocalReadOnly` then claims a snapshot containing G1 while the SELECT
/// read the pre-G1 value. The pause-point parks T1 exactly in that window.
#[test]
fn replay_p3_nonatomic_opt_begin_snapshot() {
    use si_rep::common::EventKind;

    let c = cluster(ReplicationMode::SrcaOpt);
    c.arm_pause(PausePoint::OptBeginPreLock, 0);

    // Step 4: T1's begin parks at the pause-point (pre-fix: after its
    // engine snapshot exists; post-fix: before it is taken).
    let reader = {
        let c = Arc::clone(&c);
        std::thread::spawn(move || {
            let mut s = c.session(0);
            let r = s.execute("SELECT v FROM kv WHERE k = 1").unwrap();
            let v = r.rows()[0][0].as_int().unwrap();
            s.commit().unwrap();
            v
        })
    };
    wait_parked(&c, PausePoint::OptBeginPreLock);

    // Steps 1–3, 5–6: T0 updates the row and commits while T1 is parked in
    // the begin window. T0 runs at R1 (a session at R0 would park at the
    // same begin pause-point); its writeset reaches R0 through the applier
    // path, which advances R0's commit frontier all the same.
    let update_xact = {
        let mut s = c.session(1);
        s.execute("UPDATE kv SET v = 11 WHERE k = 1").unwrap();
        s.commit().unwrap();
        s.last_xact_id().expect("update ran")
    };
    // Hold until R0 has applied the update (T1 is parked, so R0's frontier
    // advance is observable only through its journal).
    let deadline = std::time::Instant::now() + Q;
    loop {
        let committed_at_r0 = c.journal_events()[0]
            .1
            .iter()
            .any(|e| matches!(e.kind, EventKind::Commit { xact, .. } if xact == update_xact));
        if committed_at_r0 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "R0 never applied the update");
        std::thread::yield_now();
    }

    // Steps 7–8: release T1; it finishes its begin, reads, and fast-path
    // commits.
    c.release_pause(PausePoint::OptBeginPreLock);
    let read_value = reader.join().unwrap();
    assert!(c.quiesce(Q), "cluster failed to drain");

    // The journaled snapshot must agree with what the SELECT actually saw:
    // if the LocalReadOnly snapshot includes the update's tid, the read
    // must have seen the updated value.
    let journals = c.journal_events();
    let r0 = &journals[0].1;
    let update_tid = r0
        .iter()
        .find_map(|e| match e.kind {
            EventKind::Commit { xact, tid } if xact == update_xact => Some(tid),
            _ => None,
        })
        .expect("update commit journaled at R0");
    let ro_snapshot = r0
        .iter()
        .find_map(|e| match e.kind {
            EventKind::LocalReadOnly { snapshot, .. } => Some(snapshot),
            _ => None,
        })
        .expect("read-only fast-path commit journaled at R0");
    if ro_snapshot >= update_tid {
        assert_eq!(
            read_value, 11,
            "journaled read-only snapshot {ro_snapshot} claims the update (tid \
             {update_tid}) but the SELECT read the pre-update value — the \
             begin's engine snapshot and watermark capture were not atomic \
             (sirep-model P3-capture-agreement)"
        );
    }
    // The schedule pins T1's watermark capture after the update commit, so
    // the interesting branch above is the one actually taken.
    assert!(ro_snapshot >= update_tid, "pause did not hold T1 across the update commit");
}

/// sirep-model counterexample, mutant `eager-inquire`, scope 2x2-crash,
/// P7-session-order (5 steps):
///
/// ```text
///  1. T0 attempts to begin at R0                    (TxBegin)
///  2. T0 requests commit at R0                      (CertCapture, Multicast)
///  3. R0 crash-stops
///  4. R1 processes its next total-order delivery    (TotalOrderDeliver,
///                                                    ValidationVerdict tid=G1)
///  5. in-doubt T0 is resolved at R1                 <- tid G1 not yet
///                                                      committed at R1
/// ```
///
/// Pre-fix, `inquire` answered `Known(Committed)` straight from the
/// outcome log, which is written at *validation* time — before the
/// writeset leaves R1's tocommit queue. A failed-over client told
/// "committed" could begin its next transaction at R1 and miss its own
/// write. The pause-point parks R1's applier between claim and commit,
/// holding the protocol exactly in the step-4→5 window; the crash of R0
/// is elided because the bug is R1-local (the driver's failover path
/// calls the same `inquire`).
#[test]
fn replay_p7_inquire_before_apply() {
    let c = cluster(ReplicationMode::SrcaRep);
    c.arm_pause(PausePoint::ApplierBeforeCommit, 1);

    // Steps 1–2 (+R0's local part of 4): T0 updates and commits at R0.
    let xact = {
        let mut s = c.session(0);
        s.execute("UPDATE kv SET v = 11 WHERE k = 1").unwrap();
        s.commit().unwrap();
        s.last_xact_id().expect("update ran")
    };

    // Step 4 at R1: delivery validates T0 (outcome now Committed) and the
    // applier claims it, then parks before the local commit.
    wait_parked(&c, PausePoint::ApplierBeforeCommit);

    // Step 5: a failed-over client asks R1 for T0's fate, then immediately
    // reads what it was just promised.
    let (tx, rx) = mpsc::channel();
    let probe = {
        let c = Arc::clone(&c);
        std::thread::spawn(move || {
            let node = Arc::clone(c.session(1).node());
            let fate = node.inquire(xact).unwrap();
            assert_eq!(fate, InDoubt::Known(Outcome::Committed), "T0 validated as committed");
            let mut s = c.session(1);
            let r = s.execute("SELECT v FROM kv WHERE k = 1").unwrap();
            let v = r.rows()[0][0].as_int().unwrap();
            s.commit().unwrap();
            tx.send(v).unwrap();
        })
    };
    // Post-fix the inquire blocks until the write is locally visible, so
    // release after a grace period; pre-fix it answers inside the window
    // and the read below sees the stale value.
    let v = match rx.recv_timeout(Duration::from_millis(300)) {
        Ok(v) => v,
        Err(_) => {
            c.release_pause(PausePoint::ApplierBeforeCommit);
            rx.recv().unwrap()
        }
    };
    c.release_pause(PausePoint::ApplierBeforeCommit);
    probe.join().unwrap();
    assert_eq!(
        v, 11,
        "R1 reported T0 committed, but a session beginning right after the \
         answer missed the write — inquire answered from the validation-time \
         outcome log before local apply (sirep-model P7-session-order)"
    );
    assert!(c.quiesce(Q), "cluster failed to drain");
}
