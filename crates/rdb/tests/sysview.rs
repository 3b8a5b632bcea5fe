//! System-view tests: the `rdb_*` virtual tables through the full SQL
//! pipeline (filters, joins, ORDER BY/LIMIT, aggregates), statement
//! fingerprint aggregation (single- and multi-session), the session
//! registry, durability views, and the EXPLAIN goldens for a
//! system-view scan.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use xmlup_rdb::{Database, SharedDatabase, Value};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "xmlup-sysview-{}-{}-{}",
            std::process::id(),
            name,
            DIR_SEQ.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = fs::remove_dir_all(&dir);
        Scratch(dir)
    }

    fn path(&self) -> &PathBuf {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Two-level forest with one indexed column per table.
fn forest_db() -> Database {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE n1 (id INTEGER, parentId INTEGER, num INTEGER);
         CREATE TABLE n2 (id INTEGER, parentId INTEGER, num INTEGER);
         CREATE INDEX n1_id ON n1 (id);
         CREATE INDEX n2_parent ON n2 (parentId);",
    )
    .unwrap();
    for i in 0..8i64 {
        db.execute(&format!("INSERT INTO n1 VALUES ({i}, 0, {i})"))
            .unwrap();
        for j in 0..2i64 {
            let id2 = 10 + i * 2 + j;
            db.execute(&format!("INSERT INTO n2 VALUES ({id2}, {i}, {j})"))
                .unwrap();
        }
    }
    db
}

fn strs(rows: &[Vec<Value>], col: usize) -> Vec<String> {
    rows.iter()
        .map(|r| match &r[col] {
            Value::Str(s) => s.clone(),
            other => panic!("expected string, got {other:?}"),
        })
        .collect()
}

// ---------------------------------------------------------------------
// rdb_tables / rdb_columns / rdb_indexes through the SQL pipeline
// ---------------------------------------------------------------------

#[test]
fn tables_view_filters_orders_and_limits() {
    let db = forest_db();
    // Plain scan: both tables, every column populated.
    let rs = db.query("SELECT * FROM rdb_tables ORDER BY name").unwrap();
    assert_eq!(rs.columns, vec!["name", "rows", "indexes"]);
    assert_eq!(strs(&rs.rows, 0), vec!["n1", "n2"]);
    assert_eq!(rs.rows[0][1], Value::Int(8));
    assert_eq!(rs.rows[1][1], Value::Int(16));
    assert_eq!(strs(&rs.rows, 2), vec!["id", "parentId"]);
    // WHERE composes.
    let rs = db
        .query("SELECT rows FROM rdb_tables WHERE name = 'n2'")
        .unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(16)));
    // ORDER BY … DESC LIMIT composes.
    let rs = db
        .query("SELECT name FROM rdb_tables ORDER BY rows DESC LIMIT 1")
        .unwrap();
    assert_eq!(strs(&rs.rows, 0), vec!["n2"]);
    // Aggregates compose.
    let rs = db.query("SELECT COUNT(*) FROM rdb_columns").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(6)), "2 tables x 3 columns");
}

#[test]
fn views_join_against_each_other() {
    let db = forest_db();
    // Join two system views: columns of the larger table.
    let rs = db
        .query(
            "SELECT rdb_columns.column_name FROM rdb_tables, rdb_columns \
             WHERE rdb_columns.table_name = rdb_tables.name \
             AND rdb_tables.rows = 16 ORDER BY rdb_columns.ordinal",
        )
        .unwrap();
    assert_eq!(strs(&rs.rows, 0), vec!["id", "parentId", "num"]);
}

#[test]
fn indexes_view_reports_entries() {
    let mut db = forest_db();
    db.execute("CREATE INDEX n1_num ON n1 (num)").unwrap();
    let rs = db
        .query(
            "SELECT table_name, column_name, entries FROM rdb_indexes \
             ORDER BY table_name, column_name",
        )
        .unwrap();
    assert_eq!(rs.columns, vec!["table_name", "column_name", "entries"]);
    let cols = strs(&rs.rows, 1);
    assert_eq!(cols, vec!["id", "num", "parentId"]);
    // n1.id has 8 distinct keys; n2.parentId has 8 distinct parents.
    assert_eq!(rs.rows[0][2], Value::Int(8));
    assert_eq!(rs.rows[2][2], Value::Int(8));
    let rs = db
        .query("SELECT indexes FROM rdb_tables WHERE name = 'n1'")
        .unwrap();
    assert_eq!(strs(&rs.rows, 0), vec!["id, num"]);
}

#[test]
fn user_table_shadows_system_view() {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE rdb_tables (name VARCHAR(8));
         INSERT INTO rdb_tables VALUES ('shadow');",
    )
    .unwrap();
    let rs = db.query("SELECT name FROM rdb_tables").unwrap();
    assert_eq!(strs(&rs.rows, 0), vec!["shadow"]);
}

#[test]
fn metrics_view_is_queryable() {
    let db = forest_db();
    db.query("SELECT COUNT(*) FROM n1").unwrap();
    let rs = db
        .query("SELECT value FROM rdb_metrics WHERE name = 'rdb_tables'")
        .unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(2)));
    let rs = db
        .query(
            "SELECT name FROM rdb_metrics WHERE kind = 'counter' \
             ORDER BY name LIMIT 1",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
}

// ---------------------------------------------------------------------
// rdb_statements: fingerprint aggregation through SQL
// ---------------------------------------------------------------------

#[test]
fn statements_view_aggregates_by_fingerprint() {
    let db = forest_db();
    db.set_statement_tracking(true);
    // Five point queries differing only in the literal: one fingerprint
    // even though each SQL text is distinct (so no plan-cache hits yet).
    for i in 0..5 {
        db.query(&format!("SELECT num FROM n1 WHERE id = {i}"))
            .unwrap();
    }
    // Re-running one exact text twice hits the plan cache; the hits
    // accumulate under the same fingerprint.
    db.query("SELECT num FROM n1 WHERE id = 0").unwrap();
    db.query("SELECT num FROM n1 WHERE id = 0").unwrap();
    let rs = db
        .query(
            "SELECT sql, calls, rows, plan_cache_hits FROM rdb_statements \
             WHERE calls = 7",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 1, "one aggregated fingerprint");
    assert_eq!(
        rs.rows[0][0],
        Value::Str("SELECT num FROM n1 WHERE id = ?".into())
    );
    assert_eq!(rs.rows[0][2], Value::Int(7), "one row returned per call");
    assert_eq!(rs.rows[0][3], Value::Int(2));
    // RESET drops the aggregates but keeps tracking on.
    db.reset_statement_statistics();
    assert!(db.statement_statistics().is_empty());
    assert!(db.statement_tracking());
    db.set_statement_tracking(false);
}

#[test]
fn statement_tracking_disabled_records_nothing() {
    let db = forest_db();
    assert!(!db.statement_tracking(), "off by default");
    db.query("SELECT COUNT(*) FROM n1").unwrap();
    assert!(db.statement_statistics().is_empty());
}

#[test]
fn failed_statements_are_not_recorded() {
    let db = forest_db();
    db.set_statement_tracking(true);
    assert!(db.query("SELECT nope FROM n1").is_err());
    assert!(db.statement_statistics().is_empty());
    db.set_statement_tracking(false);
}

#[test]
fn statements_json_matches_store() {
    let db = forest_db();
    db.set_statement_tracking(true);
    db.query("SELECT COUNT(*) FROM n1").unwrap();
    let json = db.statements_json();
    assert!(json.starts_with('[') && json.ends_with(']'));
    assert!(
        json.contains("\"sql\":\"SELECT COUNT ( * ) FROM n1\""),
        "{json}"
    );
    assert!(json.contains("\"calls\":1"), "{json}");
    let stats = db.statement_statistics();
    assert!(json.contains(&format!("{:016x}", stats[0].fingerprint)));
    db.set_statement_tracking(false);
}

#[test]
fn statements_aggregate_across_threaded_sessions() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 25;
    let db = forest_db();
    db.set_statement_tracking(true);
    let shared = SharedDatabase::new(db);
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let shared = shared.clone();
        handles.push(std::thread::spawn(move || {
            let mut sess = shared.session();
            for i in 0..PER_THREAD {
                sess.execute(&format!("SELECT num FROM n1 WHERE id = {}", (t + i) % 8))
                    .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // All 100 executions share one fingerprint; the view reports the
    // exact aggregate.
    let mut sess = shared.session();
    let out = sess
        .execute(
            "SELECT calls FROM rdb_statements \
             WHERE sql = 'SELECT num FROM n1 WHERE id = ?'",
        )
        .unwrap();
    match out {
        xmlup_rdb::session::SqlOutcome::Rows(rs) => {
            assert_eq!(rs.rows[0][0], Value::Int((THREADS * PER_THREAD) as i64));
        }
        other => panic!("expected rows, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// rdb_sessions: the live session registry
// ---------------------------------------------------------------------

#[test]
fn sessions_view_lists_live_sessions() {
    let shared = SharedDatabase::new(forest_db());
    let mut a = shared.session();
    let mut b = shared.session();
    assert_ne!(a.id(), b.id());
    b.execute("SELECT COUNT(*) FROM n1").unwrap();
    // A session querying the view observes itself mid-statement.
    let out = a
        .execute("SELECT id, state, statement, statements FROM rdb_sessions ORDER BY id")
        .unwrap();
    let rs = match out {
        xmlup_rdb::session::SqlOutcome::Rows(rs) => rs,
        other => panic!("expected rows, got {other:?}"),
    };
    assert_eq!(rs.rows.len(), 2);
    assert_eq!(rs.rows[0][0], Value::Int(a.id() as i64));
    assert_eq!(rs.rows[0][1], Value::Str("executing".into()));
    match &rs.rows[0][2] {
        Value::Str(sql) => assert!(sql.contains("FROM rdb_sessions"), "{sql}"),
        other => panic!("own statement not published: {other:?}"),
    }
    assert_eq!(rs.rows[0][3], Value::Int(1));
    // The other session is idle between statements, counter at 1.
    assert_eq!(rs.rows[1][1], Value::Str("idle".into()));
    assert_eq!(rs.rows[1][2], Value::Null);
    assert_eq!(rs.rows[1][3], Value::Int(1));
    // Closing a session removes its row.
    drop(b);
    let out = a.execute("SELECT COUNT(*) FROM rdb_sessions").unwrap();
    match out {
        xmlup_rdb::session::SqlOutcome::Rows(rs) => {
            assert_eq!(rs.scalar(), Some(&Value::Int(1)));
        }
        other => panic!("expected rows, got {other:?}"),
    }
}

#[test]
fn sessions_view_shows_pinned_snapshot() {
    let shared = SharedDatabase::new(forest_db());
    let mut a = shared.session();
    let mut b = shared.session();
    b.execute("BEGIN").unwrap();
    b.execute("SELECT COUNT(*) FROM n1").unwrap();
    let out = a
        .execute(&format!(
            "SELECT snapshot_epoch FROM rdb_sessions WHERE id = {}",
            b.id()
        ))
        .unwrap();
    match out {
        xmlup_rdb::session::SqlOutcome::Rows(rs) => {
            assert!(
                matches!(rs.rows[0][0], Value::Int(_)),
                "read transaction must publish its snapshot epoch: {:?}",
                rs.rows[0][0]
            );
        }
        other => panic!("expected rows, got {other:?}"),
    }
    b.execute("COMMIT").unwrap();
    let out = a
        .execute(&format!(
            "SELECT snapshot_epoch FROM rdb_sessions WHERE id = {}",
            b.id()
        ))
        .unwrap();
    match out {
        xmlup_rdb::session::SqlOutcome::Rows(rs) => {
            assert_eq!(rs.rows[0][0], Value::Null, "snapshot released on COMMIT");
        }
        other => panic!("expected rows, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// rdb_wal / rdb_checkpoints on a durable store
// ---------------------------------------------------------------------

#[test]
fn wal_and_checkpoint_views_on_durable_store() {
    let scratch = Scratch::new("walview");
    let mut db = Database::open(scratch.path()).unwrap();
    db.run_script("CREATE TABLE t (id INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    let rs = db
        .query("SELECT value FROM rdb_wal WHERE name = 'durable'")
        .unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(1)));
    let rs = db
        .query("SELECT value FROM rdb_wal WHERE name = 'wal_records_total'")
        .unwrap();
    match rs.scalar() {
        Some(&Value::Int(n)) => assert!(n >= 2, "schema + insert appended, got {n}"),
        other => panic!("missing wal_records_total: {other:?}"),
    }
    db.execute("CHECKPOINT").unwrap();
    let rs = db
        .query("SELECT value FROM rdb_checkpoints WHERE name = 'checkpoints_total'")
        .unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(1)));
    // An in-memory database reports durable = 0 and no checkpoints.
    let mem = forest_db();
    let rs = mem
        .query("SELECT value FROM rdb_wal WHERE name = 'durable'")
        .unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(0)));
}

// ---------------------------------------------------------------------
// EXPLAIN goldens
// ---------------------------------------------------------------------

fn explain(db: &mut Database, sql: &str) -> String {
    let rs = db.query_mut(sql).unwrap();
    rs.rows
        .iter()
        .map(|r| match &r[0] {
            Value::Str(s) => s.as_str(),
            other => panic!("EXPLAIN row is not a string: {other:?}"),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn scrub_times(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find("time=") {
        out.push_str(&rest[..i]);
        out.push_str("time=X");
        let tail = &rest[i + "time=".len()..];
        let end = tail.find([')', '\n']).unwrap_or(tail.len());
        rest = &tail[end..];
    }
    out.push_str(rest);
    out.lines()
        .map(|l| {
            if l.starts_with("Execution time:") {
                "Execution time: X"
            } else {
                l
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn explain_sysview_scan_golden() {
    let mut db = forest_db();
    let plan = explain(
        &mut db,
        "EXPLAIN SELECT name FROM rdb_tables WHERE name = 'n1'",
    );
    let expected = "\
Project [name]
  SysScan rdb_tables [filter: (name = 'n1')]";
    assert_eq!(plan, expected, "raw plan:\n{plan}");
}

#[test]
fn explain_analyze_sysview_scan_golden() {
    let mut db = forest_db();
    let plan = explain(
        &mut db,
        "EXPLAIN ANALYZE SELECT name FROM rdb_tables WHERE name = 'n1'",
    );
    let expected = "\
Project [name] (actual rows=1 loops=1 time=X)
  SysScan rdb_tables [filter: (name = 'n1')] (est rows=0) (actual rows=1 loops=1 time=X)
Execution time: X";
    assert_eq!(scrub_times(&plan), expected, "raw plan:\n{plan}");
}

#[test]
fn explain_on_user_tables_is_unchanged_by_sysviews() {
    let mut db = forest_db();
    // The exact pre-sysview rendering for an ordinary indexed probe:
    // resolution order and plan text for user tables must not move.
    let plan = explain(&mut db, "EXPLAIN SELECT num FROM n1 WHERE id = 3");
    let expected = "\
Project [num]
  IndexScan n1 (id = 3)";
    assert_eq!(plan, expected, "raw plan:\n{plan}");
}
