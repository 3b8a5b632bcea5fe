//! The durable twin of `txn_props`: random DML and id allocation, with
//! savepoints, `ROLLBACK TO` and part-way failing statements interleaved,
//! run inside one transaction on a database opened with
//! `Database::open`. After `COMMIT`, reopening the directory must give
//! back the live state slot for slot, id counter included: whatever a
//! rollback undid is exactly what the WAL frame left out.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use xmlup_rdb::{Database, Table};

/// One step inside the transaction.
#[derive(Debug, Clone)]
enum Op {
    Insert(i64, String),
    DeleteWhere(i64),
    UpdateWhere(i64, String),
    AllocateIds(i64),
    /// `SAVEPOINT s<n>`.
    Savepoint(u8),
    /// `ROLLBACK TO s<n>`; skipped when no such savepoint is open.
    RollbackTo(u8),
    /// A three-row insert that fails on its second row.
    FailingInsert(i64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0i64..20, "[a-z]{1,6}").prop_map(|(k, s)| Op::Insert(k, s)),
        2 => (0i64..20).prop_map(Op::DeleteWhere),
        2 => (0i64..20, "[a-z]{1,6}").prop_map(|(k, s)| Op::UpdateWhere(k, s)),
        2 => (1i64..8).prop_map(Op::AllocateIds),
        1 => (0u8..3).prop_map(Op::Savepoint),
        1 => (0u8..3).prop_map(Op::RollbackTo),
        1 => (0i64..20).prop_map(Op::FailingInsert),
    ]
}

/// Fresh directory under the system temp dir, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "xmlup-txn-durable-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn physical_state(db: &Database) -> (Vec<(String, Table)>, i64) {
    (
        db.table_names()
            .into_iter()
            .map(|n| {
                let t = db.table(&n).unwrap().clone();
                (n, t)
            })
            .collect(),
        db.peek_next_id(),
    )
}

fn apply(db: &mut Database, ops: &[Op]) {
    let mut open: Vec<u8> = Vec::new();
    for op in ops {
        match op {
            Op::Insert(k, s) => {
                db.execute(&format!("INSERT INTO t VALUES ({k}, '{s}')"))
                    .unwrap();
            }
            Op::DeleteWhere(k) => {
                db.execute(&format!("DELETE FROM t WHERE k = {k}")).unwrap();
            }
            Op::UpdateWhere(k, s) => {
                db.execute(&format!("UPDATE t SET v = '{s}' WHERE k = {k}"))
                    .unwrap();
            }
            Op::AllocateIds(n) => {
                db.allocate_ids(*n);
            }
            Op::Savepoint(n) => {
                db.execute(&format!("SAVEPOINT s{n}")).unwrap();
                open.push(*n);
            }
            Op::RollbackTo(n) => {
                // Later savepoints go; this one stays.
                if let Some(at) = open.iter().rposition(|s| s == n) {
                    db.execute(&format!("ROLLBACK TO s{n}")).unwrap();
                    open.truncate(at + 1);
                }
            }
            Op::FailingInsert(k) => {
                db.fail_on_table_write("t", 2);
                let sql = format!("INSERT INTO t VALUES ({k}, 'x'), ({k}, 'y'), ({k}, 'z')");
                assert!(db.execute(&sql).is_err());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn committed_transaction_reopens_to_the_live_state(
        seed_rows in prop::collection::vec((0i64..20, "[a-z]{1,6}"), 0..10),
        ops in prop::collection::vec(arb_op(), 0..40),
    ) {
        let scratch = Scratch::new();
        let mut db = Database::open(&scratch.0).unwrap();
        db.set_wal_sync(false);
        db.run_script(
            "CREATE TABLE t (k INTEGER, v VARCHAR(10));
             CREATE INDEX t_k ON t (k);",
        )
        .unwrap();
        for (k, s) in &seed_rows {
            db.execute(&format!("INSERT INTO t VALUES ({k}, '{s}')")).unwrap();
        }
        db.bump_next_id(100);

        db.execute("BEGIN").unwrap();
        apply(&mut db, &ops);
        db.execute("COMMIT").unwrap();
        prop_assert_eq!(db.undo_log_len(), 0);

        let live = physical_state(&db);
        drop(db);
        let reopened = Database::open(&scratch.0).unwrap();
        prop_assert_eq!(physical_state(&reopened), live);
    }
}
