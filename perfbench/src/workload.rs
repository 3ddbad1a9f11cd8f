//! The three benchmark workloads. Each is a `sirep_workloads::Workload`, so
//! the cluster, the replay database and the generator share one schema,
//! one population and one transaction stream.

use rand::rngs::SmallRng;
use rand::Rng;
use sirep_common::DbError;
use sirep_core::TxnTemplate;
use sirep_storage::Database;
use sirep_workloads::{Tpcw, Workload};

/// Starting balance of every account.
pub const INITIAL_BALANCE: i64 = 1_000;

/// Which workload a run drives, and why each exists (see also
/// `BENCHMARK.json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Two-UPDATE transfers over 10,000 accounts: the whole replicated
    /// write path with almost no conflicts.
    TransferUniform,
    /// The paper's TPC-W ordering mix: half read-only, scans and sorts;
    /// SQL and storage dominate and hole synchronization shows.
    TpcwOrdering,
    /// Transfers over 16 accounts: first-updater-wins and certification
    /// aborts, so wasted attempts show.
    TransferHotspot,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::TransferUniform, Kind::TpcwOrdering, Kind::TransferHotspot];

    pub fn name(self) -> &'static str {
        match self {
            Kind::TransferUniform => "transfer-uniform",
            Kind::TpcwOrdering => "tpcw-ordering",
            Kind::TransferHotspot => "transfer-hotspot",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn workload(self) -> Box<dyn Workload> {
        match self.accounts() {
            Some(accounts) => Box::new(Transfer { accounts }),
            None => Box::new(Tpcw::default()),
        }
    }

    /// Account count of a transfer workload, whose balance sum every run
    /// must conserve.
    pub fn accounts(self) -> Option<i64> {
        match self {
            Kind::TransferUniform => Some(10_000),
            Kind::TpcwOrdering => None,
            Kind::TransferHotspot => Some(16),
        }
    }
}

/// Money transfers between two distinct accounts.
#[derive(Debug, Clone)]
pub struct Transfer {
    pub accounts: i64,
}

impl Workload for Transfer {
    fn name(&self) -> &'static str {
        "transfer"
    }

    fn ddl(&self) -> Vec<String> {
        vec!["CREATE TABLE accounts (id INT, balance INT, PRIMARY KEY (id))".into()]
    }

    fn populate(&self, db: &Database) -> Result<(), DbError> {
        let txn = db.begin()?;
        for id in 0..self.accounts {
            sirep_sql::execute_sql(
                db,
                &txn,
                &format!("INSERT INTO accounts VALUES ({id}, {INITIAL_BALANCE})"),
            )?;
        }
        txn.commit()?;
        Ok(())
    }

    fn next(&self, rng: &mut SmallRng, _client: usize) -> TxnTemplate {
        let from = rng.gen_range(0..self.accounts);
        let to = (from + rng.gen_range(1..self.accounts)) % self.accounts;
        let amount = rng.gen_range(1..=20);
        TxnTemplate {
            statements: vec![
                format!("UPDATE accounts SET balance = balance - {amount} WHERE id = {from}"),
                format!("UPDATE accounts SET balance = balance + {amount} WHERE id = {to}"),
            ],
            tables: vec!["accounts".into()],
            readonly: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn names_round_trip() {
        for k in Kind::ALL {
            assert_eq!(Kind::parse(k.name()), Some(k));
        }
        assert_eq!(Kind::parse("tpcw"), None);
    }

    #[test]
    fn transfers_move_money_between_distinct_accounts() {
        let w = Transfer { accounts: 16 };
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..1000 {
            let t = w.next(&mut rng, 0);
            let ids: Vec<&str> =
                t.statements.iter().map(|s| s.rsplit(' ').next().unwrap()).collect();
            assert_ne!(ids[0], ids[1]);
        }
    }
}
