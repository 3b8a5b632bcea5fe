//! Generated differential test for the single access chooser and
//! resolver (`Database::choose_access` / `resolve_access`).
//!
//! One random script of INSERT / DELETE / UPDATE (indexed columns
//! included) / BEGIN / SAVEPOINT / ROLLBACK [TO] / COMMIT runs against
//! three databases holding the same 3-column table `t` and a 2-column
//! table `u` whose key column joins `t`'s keys:
//!
//! * `oracle` — no indexes, `set_planner_naive(true)`: every statement is
//!   a sequential scan in slot order, every join a hash join;
//! * `mem` — indexes on `t.a`, `t.b` and `u.k` (mixed NULL / int / text
//!   keys, duplicates), memory backend;
//! * `paged` — the same on the paged backend with an 8-frame pool.
//!
//! After every statement a battery of `col = k`, `IN (list)`,
//! `IN (subquery)`, `BETWEEN`, `LIKE 'p%'`, `ORDER BY col LIMIT k` and
//! equi-join (index joins, with and without a pushed inner filter, a
//! self-join, and an inner side with its own literal probe)
//! queries must agree across the three, a snapshot taken before the
//! script must still answer them as it did then (`query_at` at a stale
//! epoch), the table and the delete-trigger log must be slot-for-slot
//! identical (DELETE / UPDATE hit the same rows, deletes in ascending
//! slot order), and each maintained index must equal one rebuilt from the
//! slots.
//!
//! Queries read the heap on both backends, so the page store's copy is
//! checked the one way it is ever read: `paged` checkpoints at a quarter,
//! a half and three quarters of the script (each later checkpoint applies
//! only the slots changed since the one before), crashes at the end, and
//! is reopened (8 frames again) from its B-trees and WAL tail — then
//! every table must be slot-for-slot the oracle's and the battery must
//! agree again.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use xmlup_rdb::{Database, ResultSet, StorageConfig, Value};

/// Unique scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "xmlup-access-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A key of column `a`, as SQL: NULL, a small int, or a short text.
fn arb_mixed_key() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("NULL".to_string()),
        (0i64..6).prop_map(|i| i.to_string()),
        arb_text_key(),
    ]
}

/// A key of column `b` (NULL or text only, so `LIKE` never meets an int).
fn arb_text_key() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["NULL", "'p'", "'pa'", "'pb'", "'q'", "''"]).prop_map(str::to_string)
}

/// A WHERE predicate from the shapes the chooser turns into probes and
/// seeks, over either indexed column.
fn arb_pred() -> impl Strategy<Value = String> {
    let col = || prop::sample::select(vec!["a", "b"]);
    prop_oneof![
        (col(), arb_mixed_key()).prop_map(|(c, k)| format!("{c} = {k}")),
        (col(), prop::collection::vec(arb_mixed_key(), 1..4))
            .prop_map(|(c, ks)| format!("{c} IN ({})", ks.join(", "))),
        (col(), 1000i64..1030).prop_map(|(c, n)| format!("{c} IN (SELECT b FROM t WHERE c < {n})")),
        (0i64..6, 0i64..6).prop_map(|(lo, hi)| format!("a BETWEEN {lo} AND {hi}")),
        Just("b BETWEEN 'p' AND 'pz'".to_string()),
        Just("b LIKE 'p%'".to_string()),
        (arb_mixed_key(), arb_text_key()).prop_map(|(a, b)| format!("a = {a} AND b >= {b}")),
    ]
}

#[derive(Debug, Clone)]
enum Op {
    Insert(String, String),
    Delete(String),
    UpdateA(String, String),
    UpdateB(String, String),
    InsertU(String),
    DeleteU(String),
    Txn(&'static str),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (arb_mixed_key(), arb_text_key()).prop_map(|(a, b)| Op::Insert(a, b)),
        3 => arb_pred().prop_map(Op::Delete),
        3 => (arb_mixed_key(), arb_pred()).prop_map(|(v, p)| Op::UpdateA(v, p)),
        2 => (arb_text_key(), arb_pred()).prop_map(|(v, p)| Op::UpdateB(v, p)),
        1 => arb_mixed_key().prop_map(Op::InsertU),
        1 => arb_mixed_key().prop_map(Op::DeleteU),
        3 => prop::sample::select(vec![
            "BEGIN",
            "SAVEPOINT s",
            "ROLLBACK TO s",
            "ROLLBACK",
            "COMMIT",
        ])
        .prop_map(Op::Txn),
    ]
}

const SCHEMA: &str = "CREATE TABLE t (a INTEGER, b TEXT, c INTEGER);
     CREATE TABLE u (k INTEGER, d INTEGER);
     CREATE TABLE log (c INTEGER);
     CREATE TRIGGER log_del AFTER DELETE ON t FOR EACH ROW BEGIN
        INSERT INTO log VALUES (OLD.c);
     END;";
const INDEXES: &str =
    "CREATE INDEX t_a ON t (a); CREATE INDEX t_b ON t (b); CREATE INDEX u_k ON u (k);";

/// The query battery. The flag says whether row order is part of the
/// answer.
fn battery() -> Vec<(String, bool)> {
    let mut qs = Vec::new();
    for col in ["a", "b"] {
        for pred in [
            format!("{col} = 2"),
            format!("{col} = 'pa'"),
            format!("{col} = NULL"),
            format!("{col} IN (1, 'p', NULL, 3, 'q')"),
            format!("{col} IN (SELECT a FROM t WHERE c < 1012)"),
            format!("{col} IN (SELECT b FROM t)"),
            format!("{col} BETWEEN 1 AND 3"),
            format!("{col} BETWEEN 'p' AND 'pb'"),
            format!("{col} > 4"),
            format!("{col} LIKE 'p%'"),
            format!("{col} LIKE 'pa%' AND c > 1003"),
        ] {
            qs.push((format!("SELECT c, a, b FROM t WHERE {pred}"), false));
        }
        qs.push((
            format!("SELECT c, {col} FROM t ORDER BY {col} LIMIT 4"),
            true,
        ));
        qs.push((
            format!("SELECT c, {col} FROM t ORDER BY {col} DESC LIMIT 3"),
            true,
        ));
        qs.push((format!("SELECT c FROM t ORDER BY {col}"), true));
    }
    // Joins keep their row order: an index join emits each probe's
    // bucket in slot order, as the oracle's hash join does.
    for sql in [
        "SELECT u.d, t.c FROM u, t WHERE t.a = u.k",
        "SELECT u.d, t.c FROM u, t WHERE t.b = u.k",
        "SELECT t.c, u.d FROM t, u WHERE u.k = t.a",
        "SELECT u.d, t.c, t.a FROM u, t WHERE t.a = u.k AND t.c > 1005",
        "SELECT t.c, u.d FROM t, u WHERE u.k = t.b AND u.d < 2004",
        "SELECT x.c, y.c FROM t x, t y WHERE y.a = x.a",
        "SELECT x.c, y.c FROM t x, t y WHERE y.b = x.b AND y.c < x.c",
        "SELECT u.d, t.c FROM u, t WHERE t.a = u.k AND t.b = 'pa'",
    ] {
        qs.push((sql.to_string(), true));
    }
    qs
}

/// A query's answer, or `None` when it raises (`LIKE` over an int key).
fn answer(rs: xmlup_rdb::Result<ResultSet>, ordered: bool) -> Option<Vec<Vec<Value>>> {
    let mut rows = rs.ok()?.rows;
    if !ordered {
        rows.sort();
    }
    Some(rows)
}

fn answers(
    db: &Database,
    battery: &[(String, bool)],
    snapshot: Option<u64>,
) -> Vec<Option<Vec<Vec<Value>>>> {
    battery
        .iter()
        .map(|(q, ordered)| answer(db.query_at(q, snapshot), *ordered))
        .collect()
}

/// Each maintained index of `t` against one rebuilt from the slots.
fn assert_indexes_match_slots(db: &Database, who: &str) {
    let t = db.table("t").unwrap();
    assert_eq!(t.indexed_columns(), vec![0, 1], "{who}");
    for ci in t.indexed_columns() {
        let mut rebuilt: BTreeMap<Value, Vec<usize>> = BTreeMap::new();
        for (pos, row) in t.iter_live() {
            rebuilt.entry(row[ci].clone()).or_default().push(pos);
        }
        let walk: Vec<usize> = t.index_range(ci, false, None, None).unwrap().collect();
        let flat: Vec<usize> = rebuilt.values().flatten().copied().collect();
        assert_eq!(walk, flat, "{who}: index walk of column {ci}");
        for (key, ps) in &rebuilt {
            assert_eq!(t.index_lookup(ci, key).unwrap(), &ps[..], "{who}: {key:?}");
        }
    }
    // No emptied bucket lingers: the view counts map entries.
    let entries = db
        .query("SELECT entries FROM rdb_indexes WHERE table_name = 't' ORDER BY column_name")
        .unwrap();
    for (row, ci) in entries.rows.iter().zip([0usize, 1]) {
        let distinct: std::collections::BTreeSet<&Value> =
            t.iter_live().map(|(_, r)| &r[ci]).collect();
        assert_eq!(row[0], Value::Int(distinct.len() as i64), "{who}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn indexed_access_agrees_with_sequential_scans(
        seed in prop::collection::vec((arb_mixed_key(), arb_text_key()), 4..16),
        seed_u in prop::collection::vec(arb_mixed_key(), 2..10),
        ops in prop::collection::vec(arb_op(), 1..24),
    ) {
        let scratch = Scratch::new();
        let mut oracle = Database::new();
        oracle.set_planner_naive(true);
        let mut mem = Database::new();
        let paged_cfg = StorageConfig { pool_frames: 8, ..StorageConfig::paged() };
        let mut paged = Database::open_with(&scratch.0, paged_cfg).unwrap();
        paged.set_wal_sync(false);
        let mut next_c = 1000i64;
        let mut next_d = 2000i64;
        let mut inserts = String::new();
        for (a, b) in &seed {
            inserts.push_str(&format!("INSERT INTO t VALUES ({a}, {b}, {next_c});"));
            next_c += 1;
        }
        for k in &seed_u {
            inserts.push_str(&format!("INSERT INTO u VALUES ({k}, {next_d});"));
            next_d += 1;
        }
        oracle.run_script(SCHEMA).unwrap();
        oracle.run_script(&inserts).unwrap();
        for db in [&mut mem, &mut paged] {
            db.run_script(SCHEMA).unwrap();
            db.run_script(INDEXES).unwrap();
            db.run_script(&inserts).unwrap();
            db.enable_mvcc(true);
        }
        // The stale epoch: what the battery answered before the script.
        let battery = battery();
        let at_snapshot = answers(&oracle, &battery, None);
        let snaps = [mem.begin_snapshot(), paged.begin_snapshot()];

        // Checkpoints at a quarter, a half and three quarters of the
        // script (when no transaction is open): the first writes every
        // table whole, the later ones apply only the changed slots.
        let mut checkpoints = 0usize;
        for (step, op) in ops.iter().enumerate() {
            let sql = match op {
                Op::Insert(a, b) => {
                    next_c += 1;
                    format!("INSERT INTO t VALUES ({a}, {b}, {next_c})")
                }
                Op::Delete(p) => format!("DELETE FROM t WHERE {p}"),
                Op::UpdateA(v, p) => format!("UPDATE t SET a = {v} WHERE {p}"),
                Op::UpdateB(v, p) => format!("UPDATE t SET b = {v} WHERE {p}"),
                Op::InsertU(k) => {
                    next_d += 1;
                    format!("INSERT INTO u VALUES ({k}, {next_d})")
                }
                Op::DeleteU(k) => format!("DELETE FROM u WHERE k = {k}"),
                Op::Txn(s) => s.to_string(),
            };
            // Same outcome everywhere — affected count, or the same
            // refusal (ROLLBACK TO without a savepoint, ...).
            let expect = oracle.execute(&sql).map_err(|e| e.to_string());
            for (db, who) in [(&mut mem, "mem"), (&mut paged, "paged")] {
                let got = db.execute(&sql).map_err(|e| e.to_string());
                prop_assert_eq!(&got, &expect, "{}: {}", who, sql);
            }

            let expect = answers(&oracle, &battery, None);
            let table = oracle.query("SELECT * FROM t").unwrap().rows;
            let table_u = oracle.query("SELECT * FROM u").unwrap().rows;
            let log = oracle.query("SELECT * FROM log").unwrap().rows;
            for ((db, who), snap) in [(&mem, "mem"), (&paged, "paged")].into_iter().zip(snaps) {
                let live = answers(db, &battery, None);
                let stale = answers(db, &battery, Some(snap));
                for (i, (q, _)) in battery.iter().enumerate() {
                    // Where the sequential scan raises (LIKE meets an int
                    // key) a seek that never visits that row may not.
                    if expect[i].is_some() {
                        prop_assert_eq!(&live[i], &expect[i], "{} after {}: {}", who, sql, q);
                    }
                    if at_snapshot[i].is_some() {
                        prop_assert_eq!(
                            &stale[i], &at_snapshot[i], "{} at stale epoch after {}: {}", who, sql, q
                        );
                    }
                }
                // Slot-for-slot: the same rows were hit, and the delete
                // trigger fired for them in ascending slot order.
                prop_assert_eq!(&db.query("SELECT * FROM t").unwrap().rows, &table, "{}", who);
                prop_assert_eq!(&db.query("SELECT * FROM u").unwrap().rows, &table_u, "{}", who);
                prop_assert_eq!(&db.query("SELECT * FROM log").unwrap().rows, &log, "{}", who);
                assert_indexes_match_slots(db, who);
            }
            if checkpoints < 3 && 4 * step >= (checkpoints + 1) * ops.len() && !paged.in_transaction() {
                paged.checkpoint().unwrap();
                checkpoints += 1;
            }
        }
        let checkpointed = checkpoints > 0;

        // Crash (drop without close) and reopen from the B-trees plus,
        // usually, a WAL tail. A crash ends an open transaction.
        if paged.in_transaction() {
            oracle.execute("ROLLBACK").unwrap();
            if !checkpointed {
                paged.execute("ROLLBACK").unwrap();
            }
        }
        if !checkpointed {
            paged.checkpoint().unwrap();
        }
        drop(paged);
        let reopened = Database::open_with(&scratch.0, paged_cfg).unwrap();
        for table in ["t", "u", "log"] {
            let slots = |db: &Database| {
                let t = db.table(table).unwrap();
                t.iter_live().map(|(p, r)| (p, r.clone())).collect::<Vec<_>>()
            };
            prop_assert_eq!(slots(&reopened), slots(&oracle), "reopened {}", table);
        }
        let expect = answers(&oracle, &battery, None);
        let got = answers(&reopened, &battery, None);
        for (i, (q, _)) in battery.iter().enumerate() {
            if expect[i].is_some() {
                prop_assert_eq!(&got[i], &expect[i], "reopened: {}", q);
            }
        }
        assert_indexes_match_slots(&reopened, "reopened");
    }
}
