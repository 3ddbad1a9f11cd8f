//! The system under test, deployed as in production but in one process: a
//! TCP sequencer, a 3-replica `Cluster` over `Transport::Tcp` with the
//! default configuration, and one `NodeServer` per replica on loopback.

use crate::workload::{Kind, INITIAL_BALANCE};
use sirep_core::{Cluster, ClusterConfig, Transport};
use sirep_driver::NodeServer;
use sirep_gcs::Sequencer;
use sirep_storage::{Row, Value};
use sirep_workloads::Workload;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const REPLICAS: usize = 3;

/// One replica's tables by name, rows in primary-key order.
type Tables = Vec<(String, Vec<Row>)>;

/// How long the post-run drain may take before the run counts as wrong.
const QUIESCE_TIMEOUT: Duration = Duration::from_secs(30);

pub struct Deployment {
    pub seq: Sequencer,
    pub cluster: Arc<Cluster>,
    pub servers: Vec<NodeServer>,
}

impl Deployment {
    /// Start everything and load the workload's schema and population at
    /// every replica. Returns the deployment and the seconds it took.
    pub fn start(w: &dyn Workload) -> Result<(Deployment, f64), String> {
        let t0 = Instant::now();
        let seq = Sequencer::spawn("127.0.0.1:0").map_err(|e| format!("sequencer: {e}"))?;
        let config = ClusterConfig::builder()
            .replicas(REPLICAS)
            .transport(Transport::Tcp { sequencer: seq.addr().to_string() })
            .build();
        let cluster = Arc::new(Cluster::try_new(config).map_err(|e| format!("cluster: {e}"))?);
        sirep_workloads::setup_cluster(&cluster, w).map_err(|e| format!("population: {e}"))?;
        let servers = (0..REPLICAS)
            .map(|k| NodeServer::spawn("127.0.0.1:0", Arc::clone(&cluster), k))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("node server: {e}"))?;
        Ok((Deployment { seq, cluster, servers }, t0.elapsed().as_secs_f64()))
    }

    pub fn server_addr(&self, k: usize) -> String {
        self.servers[k % self.servers.len()].addr().to_string()
    }

    /// Drain the cluster, then check its outputs. Returns one line per
    /// failed check; empty means the run was correct.
    pub fn check(&self, kind: Kind, in_doubt: u64) -> Vec<String> {
        let mut failures = Vec::new();
        if !self.cluster.quiesce(QUIESCE_TIMEOUT) {
            failures.push(format!("cluster did not quiesce within {QUIESCE_TIMEOUT:?}"));
        }
        match self.tables() {
            Ok(per_replica) => {
                for (k, tables) in per_replica.iter().enumerate().skip(1) {
                    if tables.len() != per_replica[0].len() {
                        failures.push(format!("replica {k} has a different table count"));
                    }
                    for ((name, rows), (_, first)) in tables.iter().zip(&per_replica[0]) {
                        if rows != first {
                            failures
                                .push(format!("replica {k} table {name} differs from replica 0"));
                        }
                    }
                }
                if let Some(accounts) = kind.accounts() {
                    for (k, tables) in per_replica.iter().enumerate() {
                        let sum = balance_sum(tables);
                        if sum != Some(accounts * INITIAL_BALANCE) {
                            failures.push(format!(
                                "replica {k}: balance sum {sum:?}, expected {}",
                                accounts * INITIAL_BALANCE
                            ));
                        }
                    }
                }
            }
            Err(e) => failures.push(format!("reading replica tables: {e}")),
        }
        if !self.cluster.audit_is_clean() {
            let v = self.cluster.audit_violations();
            failures.push(format!("auditor recorded {} violation(s): {:?}", v.len(), v.first()));
        }
        if in_doubt > 0 {
            failures.push(format!("{in_doubt} transaction(s) left in doubt"));
        }
        failures
    }

    /// Every table of every replica, rows in primary-key order.
    fn tables(&self) -> Result<Vec<Tables>, String> {
        self.cluster
            .nodes()
            .iter()
            .map(|node| {
                let db = node.database();
                let txn = db.begin().map_err(|e| e.to_string())?;
                let mut names = db.table_names();
                names.sort();
                let tables = names
                    .into_iter()
                    .map(|t| txn.scan(&t, |_| true).map(|rows| (t, rows)))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| e.to_string())?;
                txn.commit().map_err(|e| e.to_string())?;
                Ok(tables)
            })
            .collect()
    }

    pub fn stop(self) {
        let Deployment { seq, cluster, servers } = self;
        drop(servers);
        cluster.shutdown();
        seq.shutdown();
    }
}

fn balance_sum(tables: &Tables) -> Option<i64> {
    let (_, rows) = tables.iter().find(|(name, _)| name == "accounts")?;
    rows.iter()
        .map(|r| match r.get(1) {
            Some(Value::Int(b)) => Some(*b),
            _ => None,
        })
        .sum()
}
