//! Replay of a traced run's committed transactions, one at a time, through
//! the layers the live run reaches only inside the program: the SQL parser
//! and executor, the storage engine's commit and writeset apply, the wire
//! codec of `ReplMsg::WriteSet`, and certification through `WsList`.
//!
//! Both replay databases are populated by the workload's own `populate`, so
//! the statements find the rows they found in the cluster.

use crate::trace::Recorder;
use sirep_common::wire::Wire;
use sirep_common::ReplicaId;
use sirep_core::{ReplMsg, WsList, WsMsg, XactId};
use sirep_storage::Database;
use sirep_workloads::Workload;
use std::sync::Arc;

/// Lane of the replay in the rendered trace.
pub const LANE: u32 = 100;

/// Replay `txns` (id and statements, in commit order). Returns the encoded
/// size of every writeset.
pub fn replay(
    w: &dyn Workload,
    txns: &[(u64, Vec<String>)],
    rec: &mut Recorder,
) -> Result<Vec<usize>, String> {
    let exec_db = database(w)?;
    let apply_db = database(w)?;
    let origin = ReplicaId::new(0);
    let mut certified = WsList::new();
    let mut ws_bytes = Vec::new();
    for (id, statements) in txns {
        let id = *id;
        let root = rec.open("replay.txn", None, id);
        let fail =
            |what: &str, e: &dyn std::fmt::Display| format!("replay of {id:#x}: {what}: {e}");
        let txn = rec
            .timed("storage.begin", root, id, || exec_db.begin())
            .map_err(|e| fail("begin", &e))?;
        for sql in statements {
            let stmt = rec
                .timed("sql.parse", root, id, || sirep_sql::parse(sql))
                .map_err(|e| fail(sql, &e))?;
            rec.timed("sql.execute", root, id, || sirep_sql::execute(&exec_db, &txn, &stmt))
                .map_err(|e| fail(sql, &e))?;
        }
        let ws = Arc::new(rec.timed("storage.ws_extract", root, id, || txn.writeset()));
        if !ws.is_empty() {
            let xact = XactId::new(origin, id);
            let msg = ReplMsg::WriteSet(Arc::new(WsMsg {
                origin,
                xact,
                cert: certified.last_tid(),
                ws: Arc::clone(&ws),
            }));
            let bytes = rec.timed("wire.encode", root, id, || msg.to_wire());
            ws_bytes.push(bytes.len());
            rec.timed("wire.decode", root, id, || ReplMsg::from_wire(&bytes))
                .map_err(|e| fail("decode", &e))?;
            let passed = rec.timed("core.certify", root, id, || {
                let cert = certified.last_tid();
                let ok = certified.passes(cert, &ws);
                if ok {
                    certified.append(xact, Arc::clone(&ws));
                }
                ok
            });
            if !passed {
                return Err(fail("certification", &"serial replay failed validation"));
            }
        }
        rec.timed("storage.commit", root, id, || txn.commit()).map_err(|e| fail("commit", &e))?;
        if !ws.is_empty() {
            let apply = apply_db.begin().map_err(|e| fail("apply begin", &e))?;
            rec.timed("storage.apply_writeset", root, id, || apply.apply_writeset(&ws))
                .map_err(|e| fail("apply", &e))?;
            apply.commit().map_err(|e| fail("apply commit", &e))?;
        }
        rec.close(root);
    }
    Ok(ws_bytes)
}

fn database(w: &dyn Workload) -> Result<Database, String> {
    let db = Database::in_memory();
    for ddl in w.ddl() {
        let txn = db.begin().map_err(|e| e.to_string())?;
        sirep_sql::execute_sql(&db, &txn, &ddl).map_err(|e| e.to_string())?;
        txn.commit().map_err(|e| e.to_string())?;
    }
    w.populate(&db).map_err(|e| format!("replay population: {e}"))?;
    Ok(db)
}
