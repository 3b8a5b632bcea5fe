//! Durability integration tests: WAL frames on disk, checkpoint
//! snapshots, crash recovery via `Database::open`, and the `CHECKPOINT`
//! SQL statement.
//!
//! "Crash" here means dropping the `Database` without `close()` — the
//! WAL is flushed to the OS at every commit, so an abandoned handle
//! leaves exactly the committed frames on disk, like a killed process.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use xmlup_rdb::wal::{self, WalRecord};
use xmlup_rdb::{Database, DbError, Table, Value};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// Fresh scratch directory under the system temp dir; removed (best
/// effort) by `Scratch::drop` so repeated runs do not accumulate state.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "xmlup-wal-{}-{}-{}",
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

/// Full physical dump: every table (slots, indexes, schema) plus the id
/// counter. `Table`'s `PartialEq` compares physical state, so equal
/// dumps mean byte-identical storage.
fn dump(db: &Database) -> (Vec<(String, Table)>, i64) {
    let tables = db
        .table_names()
        .into_iter()
        .map(|n| (n.clone(), db.table(&n).unwrap().clone()))
        .collect();
    (tables, db.peek_next_id())
}

/// Every file of a store directory, byte for byte: a refused open must
/// leave this unchanged.
fn dir_image(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .map(|e| {
            let name = e.file_name().into_string().unwrap();
            (name, fs::read(e.path()).unwrap())
        })
        .collect()
}

/// `open` must fail with a storage error and touch nothing.
fn assert_refused_untouched(dir: &Path) -> String {
    let before = dir_image(dir);
    let why = match Database::open(dir) {
        Err(DbError::Storage(why)) => why,
        other => panic!("expected a storage error, got {:?}", other.map(|_| ())),
    };
    assert!(dir_image(dir) == before, "a refused open modified {dir:?}");
    why
}

const SCHEMA: &str = "CREATE TABLE t (id INTEGER, name VARCHAR(10));
     CREATE INDEX t_id ON t (id);";

#[test]
fn fresh_open_reopen_roundtrip() {
    let scratch = Scratch::new("roundtrip");
    let mut db = Database::open(scratch.path()).unwrap();
    assert!(db.is_durable());
    assert_eq!(db.storage_dir(), Some(scratch.path().as_path()));
    db.run_script(SCHEMA).unwrap();
    db.run_script(
        "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c');
         DELETE FROM t WHERE id = 2;
         UPDATE t SET name = 'z' WHERE id = 3;",
    )
    .unwrap();
    db.bump_next_id(42);
    let before = dump(&db);
    drop(db); // crash: no close()

    let db2 = Database::open(scratch.path()).unwrap();
    assert_eq!(dump(&db2), before);
    assert_eq!(db2.peek_next_id(), 42);
    assert!(db2.stats().recovered_txns > 0);
}

#[test]
fn committed_txn_survives_uncommitted_is_discarded() {
    let scratch = Scratch::new("uncommitted");
    let mut db = Database::open(scratch.path()).unwrap();
    db.run_script(SCHEMA).unwrap();
    db.run_script("BEGIN; INSERT INTO t VALUES (1, 'keep'); COMMIT;")
        .unwrap();
    let committed = dump(&db);
    // Open transaction at crash time: flushed nothing, must vanish.
    db.run_script("BEGIN; INSERT INTO t VALUES (2, 'lose'); UPDATE t SET name='x' WHERE id=1;")
        .unwrap();
    drop(db);

    let db2 = Database::open(scratch.path()).unwrap();
    assert_eq!(dump(&db2), committed);
    assert_eq!(
        db2.query("SELECT COUNT(*) FROM t").unwrap().rows[0][0],
        Value::Int(1)
    );
}

#[test]
fn rolled_back_txn_never_reaches_disk() {
    let scratch = Scratch::new("rollback");
    let mut db = Database::open(scratch.path()).unwrap();
    db.run_script(SCHEMA).unwrap();
    let clean = dump(&db);
    let wal_after_ddl = db.wal_size();
    db.run_script("BEGIN; INSERT INTO t VALUES (1, 'gone'); ROLLBACK;")
        .unwrap();
    // Only the abort audit marker was appended — no row data.
    assert!(db.wal_size() < wal_after_ddl + 64);
    drop(db);

    let db2 = Database::open(scratch.path()).unwrap();
    assert_eq!(dump(&db2), clean);
}

#[test]
fn savepoint_partial_rollback_recovers_exactly() {
    let scratch = Scratch::new("savepoint");
    let mut db = Database::open(scratch.path()).unwrap();
    db.run_script(SCHEMA).unwrap();
    db.run_script(
        "BEGIN;
         INSERT INTO t VALUES (1, 'keep');
         SAVEPOINT sp;
         INSERT INTO t VALUES (2, 'drop');
         ROLLBACK TO sp;
         INSERT INTO t VALUES (3, 'also');
         COMMIT;",
    )
    .unwrap();
    let before = dump(&db);
    drop(db);

    let db2 = Database::open(scratch.path()).unwrap();
    assert_eq!(dump(&db2), before);
    let rs = db2.query("SELECT id FROM t ORDER BY id").unwrap();
    let ids: Vec<&Value> = rs.rows.iter().map(|r| &r[0]).collect();
    assert_eq!(ids, [&Value::Int(1), &Value::Int(3)]);
}

#[test]
fn failed_statement_leaves_no_redo() {
    let scratch = Scratch::new("failed-stmt");
    let mut db = Database::open(scratch.path()).unwrap();
    db.run_script(SCHEMA).unwrap();
    let clean = dump(&db);
    // Second row has the wrong arity: the whole statement rolls back,
    // including its already-applied first row, and nothing is logged.
    assert!(db
        .execute("INSERT INTO t VALUES (1, 'a'), (2, 'b', 'extra')")
        .is_err());
    assert_eq!(dump(&db), clean);
    drop(db);
    let db2 = Database::open(scratch.path()).unwrap();
    assert_eq!(dump(&db2), clean);
}

#[test]
fn checkpoint_truncates_wal_and_reopens_from_snapshot() {
    let scratch = Scratch::new("checkpoint");
    let mut db = Database::open(scratch.path()).unwrap();
    db.run_script(SCHEMA).unwrap();
    db.run_script("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        .unwrap();
    let wal_before = db.wal_size();
    assert!(wal_before > 16, "WAL should hold frames before checkpoint");
    db.checkpoint().unwrap();
    assert_eq!(db.wal_size(), 16, "checkpoint leaves only the WAL header");
    assert_eq!(db.stats().checkpoints, 1);
    // Post-checkpoint work lands in the fresh WAL.
    db.run_script("INSERT INTO t VALUES (3, 'c')").unwrap();
    let before = dump(&db);
    drop(db);

    let db2 = Database::open(scratch.path()).unwrap();
    assert_eq!(dump(&db2), before);
    // Only the post-checkpoint transaction replays.
    assert_eq!(db2.stats().recovered_txns, 1);
}

#[test]
fn checkpoint_sql_statement() {
    let scratch = Scratch::new("checkpoint-sql");
    let mut db = Database::open(scratch.path()).unwrap();
    db.run_script(SCHEMA).unwrap();
    db.run_script("INSERT INTO t VALUES (1, 'a')").unwrap();
    db.run_script("CHECKPOINT").unwrap();
    assert_eq!(db.stats().checkpoints, 1);
    assert_eq!(db.wal_size(), 16);
    let before = dump(&db);
    drop(db);
    let db2 = Database::open(scratch.path()).unwrap();
    assert_eq!(dump(&db2), before);
}

#[test]
fn checkpoint_requires_durable_and_no_open_txn() {
    let mut mem = Database::new();
    assert!(matches!(mem.checkpoint(), Err(DbError::Storage(_))));
    assert!(matches!(
        mem.execute("CHECKPOINT"),
        Err(DbError::Storage(_))
    ));

    let scratch = Scratch::new("checkpoint-txn");
    let mut db = Database::open(scratch.path()).unwrap();
    db.execute("BEGIN").unwrap();
    assert!(matches!(db.checkpoint(), Err(DbError::Txn(_))));
    db.execute("ROLLBACK").unwrap();
    db.checkpoint().unwrap();
}

#[test]
fn torn_tail_is_truncated_on_recovery() {
    let scratch = Scratch::new("torn");
    let mut db = Database::open(scratch.path()).unwrap();
    db.run_script(SCHEMA).unwrap();
    db.run_script("INSERT INTO t VALUES (1, 'a')").unwrap();
    let before = dump(&db);
    drop(db);

    // Simulate a crash mid-append: garbage half-record at the tail.
    let wal_path = scratch.path().join("wal.bin");
    let mut bytes = fs::read(&wal_path).unwrap();
    let clean_len = bytes.len();
    bytes.extend_from_slice(&[0x55, 0x00, 0x00, 0x00, 0xde, 0xad]);
    fs::write(&wal_path, &bytes).unwrap();

    let db2 = Database::open(scratch.path()).unwrap();
    assert_eq!(dump(&db2), before);
    assert_eq!(
        fs::metadata(&wal_path).unwrap().len(),
        clean_len as u64,
        "recovery truncates the torn tail"
    );
}

#[test]
fn stale_wal_from_interrupted_checkpoint_is_discarded() {
    let scratch = Scratch::new("stale-wal");
    let snapshot = scratch.path().join("snapshot.bin");
    let mut db = Database::open(scratch.path()).unwrap();
    db.run_script(SCHEMA).unwrap();
    db.run_script("INSERT INTO t VALUES (1, 'a')").unwrap();
    let pre_checkpoint_wal = fs::read(scratch.path().join("wal.bin")).unwrap();
    db.checkpoint().unwrap();
    let before = dump(&db);
    let first_checkpoint = fs::read(&snapshot).unwrap();
    drop(db);

    // Crash window: checkpoint published but WAL truncation never
    // landed — the old (generation 0) WAL is still in place.
    fs::write(scratch.path().join("wal.bin"), &pre_checkpoint_wal).unwrap();
    let mut db2 = Database::open(scratch.path()).unwrap();
    assert_eq!(dump(&db2), before, "stale WAL must not replay twice");
    assert_eq!(db2.stats().recovered_txns, 0);
    assert_eq!(
        fs::read(scratch.path().join("wal.bin")).unwrap(),
        xmlup_rdb::wal::encode_wal_header(1),
        "the stale WAL was reset to the checkpoint's generation"
    );

    // The mirror image: the first checkpoint under a WAL that extends
    // the second. The log's commits cannot be placed, so it must not be
    // taken for stale and wiped.
    db2.checkpoint().unwrap();
    db2.run_script("INSERT INTO t VALUES (2, 'b')").unwrap();
    let after = dump(&db2);
    db2.close().unwrap();
    let second_checkpoint = fs::read(&snapshot).unwrap();
    fs::write(&snapshot, &first_checkpoint).unwrap();
    let why = assert_refused_untouched(scratch.path());
    assert!(why.contains("newer than the checkpoint"), "{why}");
    fs::write(&snapshot, &second_checkpoint).unwrap();
    assert_eq!(dump(&Database::open(scratch.path()).unwrap()), after);
}

#[test]
fn undecodable_wal_header_is_refused_not_reset() {
    let scratch = Scratch::new("bad-header");
    let mut db = Database::open(scratch.path()).unwrap();
    db.run_script(SCHEMA).unwrap();
    db.checkpoint().unwrap();
    db.run_script("INSERT INTO t VALUES (1, 'a')").unwrap();
    let before = dump(&db);
    db.close().unwrap();

    let wal_path = scratch.path().join("wal.bin");
    let good = fs::read(&wal_path).unwrap();
    let mut bad = good.clone();
    bad[3] ^= 0x20; // one byte of the magic
    fs::write(&wal_path, &bad).unwrap();
    let why = assert_refused_untouched(scratch.path());
    assert!(why.contains("WAL header"), "{why}");

    fs::write(&wal_path, &good).unwrap();
    assert_eq!(dump(&Database::open(scratch.path()).unwrap()), before);
}

#[test]
fn triggers_survive_checkpoint_and_replay_without_refiring() {
    let scratch = Scratch::new("triggers");
    let mut db = Database::open(scratch.path()).unwrap();
    db.run_script(
        "CREATE TABLE parent (id INTEGER);
         CREATE TABLE child (pid INTEGER);
         CREATE TRIGGER cascade_del AFTER DELETE ON parent FOR EACH ROW
         BEGIN DELETE FROM child WHERE pid = OLD.id; END",
    )
    .unwrap();
    db.run_script("INSERT INTO parent VALUES (1), (2); INSERT INTO child VALUES (1), (1), (2)")
        .unwrap();
    // Trigger fires now; its child deletions are logged as records of
    // the same frame, so replay must not fire it again.
    db.run_script("DELETE FROM parent WHERE id = 1").unwrap();
    let before = dump(&db);
    drop(db);

    let mut db2 = Database::open(scratch.path()).unwrap();
    assert_eq!(dump(&db2), before);
    assert_eq!(db2.triggers().len(), 1, "trigger catalog recovered");
    assert_eq!(
        db2.query("SELECT COUNT(*) FROM child").unwrap().rows[0][0],
        Value::Int(1)
    );

    // And through a checkpoint: the snapshot serializes the trigger.
    db2.checkpoint().unwrap();
    let before = dump(&db2);
    drop(db2);
    let db3 = Database::open(scratch.path()).unwrap();
    assert_eq!(dump(&db3), before);
    assert_eq!(db3.triggers().len(), 1);
}

#[test]
fn ddl_replays_including_drop_table() {
    let scratch = Scratch::new("ddl");
    let mut db = Database::open(scratch.path()).unwrap();
    db.run_script(SCHEMA).unwrap();
    db.run_script("CREATE TABLE gone (x INTEGER); INSERT INTO gone VALUES (1)")
        .unwrap();
    db.run_script("DROP TABLE gone").unwrap();
    let before = dump(&db);
    drop(db);
    let db2 = Database::open(scratch.path()).unwrap();
    assert_eq!(dump(&db2), before);
    assert!(db2.table("gone").is_none());
}

#[test]
fn wal_stats_and_sync_toggle() {
    let scratch = Scratch::new("stats");
    let mut db = Database::open(scratch.path()).unwrap();
    db.run_script(SCHEMA).unwrap();
    let s = db.stats();
    assert!(s.wal_records > 0);
    assert!(s.wal_bytes > 0);
    assert!(s.wal_fsyncs > 0);
    // Every commit is synced before it returns: one fsync each.
    let fsyncs = db.stats().wal_fsyncs;
    for i in 0..5 {
        db.run_script(&format!("INSERT INTO t VALUES ({i}, 'n')"))
            .unwrap();
    }
    assert_eq!(db.stats().wal_fsyncs - fsyncs, 5);
    assert_eq!(db.wal_synced_len(), db.wal_size());
    // A rollback's abort marker is logged but not synced; a read logs
    // nothing.
    let size = db.wal_size();
    db.begin().unwrap();
    db.run_script("INSERT INTO t VALUES (9, 'r')").unwrap();
    db.rollback().unwrap();
    db.query("SELECT COUNT(*) FROM t").unwrap();
    assert!(db.wal_size() > size, "the abort marker was appended");
    assert_eq!(db.stats().wal_fsyncs - fsyncs, 5);
    assert_eq!(db.wal_synced_len(), db.wal_size());
    db.checkpoint().unwrap();
    assert_eq!(db.wal_synced_len(), db.wal_size());
    db.set_wal_sync(false);
    let fsyncs = db.stats().wal_fsyncs;
    db.run_script("INSERT INTO t VALUES (1, 'a')").unwrap();
    assert_eq!(db.stats().wal_fsyncs, fsyncs, "sync off: no fsync");
    let before = dump(&db);
    drop(db);
    // Un-synced commits are still flushed to the OS: a process crash
    // (drop) loses nothing.
    let db2 = Database::open(scratch.path()).unwrap();
    assert_eq!(dump(&db2), before);
}

#[test]
fn close_then_reopen() {
    let scratch = Scratch::new("close");
    let mut db = Database::open(scratch.path()).unwrap();
    db.run_script(SCHEMA).unwrap();
    db.run_script("INSERT INTO t VALUES (1, 'a')").unwrap();
    let before = dump(&db);
    db.close().unwrap();
    let db2 = Database::open(scratch.path()).unwrap();
    assert_eq!(dump(&db2), before);
}

#[test]
fn id_counter_survives_crash_after_allocation() {
    let scratch = Scratch::new("ids");
    let mut db = Database::open(scratch.path()).unwrap();
    // Pure id allocation with no statement afterwards: must still be
    // durable, or recovery would hand out colliding ids.
    let first = db.allocate_ids(10);
    assert_eq!(first, 0);
    drop(db);
    let db2 = Database::open(scratch.path()).unwrap();
    assert_eq!(db2.peek_next_id(), 10);
}

#[test]
fn in_memory_database_is_unaffected() {
    let mut db = Database::new();
    assert!(!db.is_durable());
    assert_eq!(db.storage_dir(), None);
    assert_eq!(db.wal_size(), 0);
    db.run_script(SCHEMA).unwrap();
    db.run_script("INSERT INTO t VALUES (1, 'a')").unwrap();
    let s = db.stats();
    assert_eq!(s.wal_records, 0);
    assert_eq!(s.wal_bytes, 0);
    assert_eq!(s.wal_fsyncs, 0);
}

// ----------------------------------------------------------------------
// frame-local tables: created and dropped in one transaction, never logged
// ----------------------------------------------------------------------

/// The records of the store's WAL file, decoded.
fn wal_records(dir: &Path) -> Vec<WalRecord> {
    wal::decode_wal(&fs::read(dir.join("wal.bin")).unwrap())
        .unwrap()
        .records
}

/// WAL records that name table `name`: row records on it and DDL whose
/// text mentions it. Test table names are distinct words, so a substring
/// match is exact enough.
fn naming(dir: &Path, name: &str) -> Vec<WalRecord> {
    wal_records(dir)
        .into_iter()
        .filter(|r| match r {
            WalRecord::Insert { table, .. }
            | WalRecord::Delete { table, .. }
            | WalRecord::Update { table, .. } => table == name,
            WalRecord::Ddl { sql } => sql.to_ascii_lowercase().contains(name),
            _ => false,
        })
        .collect()
}

/// The `Ddl` texts among `records`.
fn ddl_texts(records: &[WalRecord]) -> Vec<String> {
    records
        .iter()
        .filter_map(|r| match r {
            WalRecord::Ddl { sql } => Some(sql.clone()),
            _ => None,
        })
        .collect()
}

/// The value of metric family `name` (label-free).
fn metric(db: &Database, name: &str) -> u64 {
    db.metrics()
        .into_iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

/// `r` with three committed rows, the target of every copy below.
fn store_with_r(scratch: &Scratch) -> Database {
    let mut db = Database::open(scratch.path()).unwrap();
    db.run_script(
        "CREATE TABLE r (id INTEGER, name VARCHAR(10));
         INSERT INTO r VALUES (1, 'a'), (2, 'b'), (3, 'c');",
    )
    .unwrap();
    db
}

/// Crash, reopen, and require the same physical state.
fn reopen_equal(scratch: &Scratch, db: Database) -> Database {
    let before = dump(&db);
    let triggers = db.triggers().len();
    drop(db);
    let db2 = Database::open(scratch.path()).unwrap();
    assert_eq!(dump(&db2), before);
    assert_eq!(db2.triggers().len(), triggers);
    db2
}

fn count(db: &Database, table: &str) -> Value {
    db.query(&format!("SELECT COUNT(*) FROM {table}"))
        .unwrap()
        .rows[0][0]
        .clone()
}

#[test]
fn temp_table_created_and_dropped_in_one_txn_is_never_logged() {
    let scratch = Scratch::new("local-table");
    let mut db = store_with_r(&scratch);
    db.run_script(
        "BEGIN;
         CREATE TABLE tmpcopy (id INTEGER, name VARCHAR(10));
         CREATE INDEX tmpcopy_id ON tmpcopy (id);
         INSERT INTO tmpcopy SELECT id + 10, name FROM r WHERE id < 3;
         UPDATE tmpcopy SET name = 'z' WHERE id = 11;
         DELETE FROM tmpcopy WHERE id = 12;
         INSERT INTO tmpcopy VALUES (13, 'y');
         INSERT INTO r SELECT * FROM tmpcopy;
         DROP TABLE tmpcopy;
         COMMIT;",
    )
    .unwrap();
    assert_eq!(naming(scratch.path(), "tmpcopy"), vec![]);
    let rows = naming(scratch.path(), "r");
    assert_eq!(rows.len(), 1 + 3 + 2, "CREATE r, three rows, two copies");
    let db = reopen_equal(&scratch, db);
    assert!(db.table("tmpcopy").is_none());
    assert_eq!(count(&db, "r"), Value::Int(5));
}

#[test]
fn local_table_with_savepoint_rollback_is_never_logged() {
    let scratch = Scratch::new("local-savepoint");
    let mut db = store_with_r(&scratch);
    db.run_script(
        "BEGIN;
         CREATE TABLE tmpcopy (id INTEGER, name VARCHAR(10));
         SAVEPOINT s;
         INSERT INTO tmpcopy VALUES (20, 'lost');
         INSERT INTO r SELECT * FROM tmpcopy;
         ROLLBACK TO s;
         INSERT INTO tmpcopy VALUES (21, 'kept');
         INSERT INTO r SELECT * FROM tmpcopy;
         DROP TABLE tmpcopy;
         COMMIT;",
    )
    .unwrap();
    assert_eq!(naming(scratch.path(), "tmpcopy"), vec![]);
    let db = reopen_equal(&scratch, db);
    assert_eq!(count(&db, "r"), Value::Int(4));
    let names = db.query("SELECT name FROM r WHERE id > 3").unwrap().rows;
    assert_eq!(names, vec![vec![Value::Str("kept".into())]]);
}

#[test]
fn only_the_instance_that_is_dropped_again_is_left_out() {
    let scratch = Scratch::new("local-twice");
    let mut db = store_with_r(&scratch);
    db.run_script(
        "BEGIN;
         CREATE TABLE tmpcopy (id INTEGER);
         INSERT INTO tmpcopy VALUES (1);
         DROP TABLE tmpcopy;
         CREATE TABLE tmpcopy (id INTEGER, name VARCHAR(10));
         INSERT INTO tmpcopy VALUES (2, 'second');
         COMMIT;",
    )
    .unwrap();
    let logged = naming(scratch.path(), "tmpcopy");
    assert_eq!(
        ddl_texts(&logged).len(),
        1,
        "only the second CREATE: {logged:?}"
    );
    assert!(ddl_texts(&logged)[0].contains("name"));
    assert_eq!(
        logged[1],
        WalRecord::Insert {
            table: "tmpcopy".into(),
            row: vec![Value::Int(2), Value::Str("second".into())],
        }
    );
    assert_eq!(logged.len(), 2);
    let db = reopen_equal(&scratch, db);
    assert_eq!(count(&db, "tmpcopy"), Value::Int(1));
}

#[test]
fn dropping_a_table_from_before_the_txn_is_logged() {
    let scratch = Scratch::new("local-preexisting");
    let mut db = store_with_r(&scratch);
    db.run_script("CREATE TABLE old (id INTEGER); INSERT INTO old VALUES (1)")
        .unwrap();
    db.run_script(
        "BEGIN;
         INSERT INTO old VALUES (2);
         DROP TABLE old;
         CREATE TABLE old (id INTEGER);
         INSERT INTO old VALUES (3);
         DROP TABLE old;
         COMMIT;",
    )
    .unwrap();
    // The first CREATE (autocommit) and the first DROP are logged; the
    // instance created and dropped inside the transaction is not.
    let ddl = ddl_texts(&naming(scratch.path(), "old"));
    assert_eq!(ddl.len(), 2, "{ddl:?}");
    assert!(ddl[0].starts_with("CREATE TABLE"));
    assert!(ddl[1].starts_with("DROP TABLE"));
    let db = reopen_equal(&scratch, db);
    assert!(db.table("old").is_none());
}

#[test]
fn create_and_drop_in_two_autocommit_statements_are_both_logged() {
    let scratch = Scratch::new("local-autocommit");
    let mut db = store_with_r(&scratch);
    db.execute("CREATE TABLE tmpcopy (id INTEGER)").unwrap();
    db.execute("INSERT INTO tmpcopy VALUES (1)").unwrap();
    db.execute("DROP TABLE tmpcopy").unwrap();
    let logged = naming(scratch.path(), "tmpcopy");
    assert_eq!(ddl_texts(&logged).len(), 2);
    assert_eq!(logged.len(), 3, "CREATE, INSERT, DROP: {logged:?}");
    let db = reopen_equal(&scratch, db);
    assert!(db.table("tmpcopy").is_none());
}

#[test]
fn trigger_on_a_local_table_keeps_the_whole_instance() {
    let scratch = Scratch::new("local-trigger");
    let mut db = store_with_r(&scratch);
    db.run_script(
        "BEGIN;
         CREATE TABLE tmpcopy (id INTEGER, name VARCHAR(10));
         CREATE TRIGGER tmpcopy_fwd AFTER INSERT ON tmpcopy FOR EACH ROW
         BEGIN INSERT INTO r VALUES (NEW.id, NEW.name); END;
         INSERT INTO tmpcopy VALUES (30, 'fired');
         DROP TABLE tmpcopy;
         COMMIT;",
    )
    .unwrap();
    let logged = naming(scratch.path(), "tmpcopy");
    let ddl = ddl_texts(&logged);
    assert_eq!(ddl.len(), 3, "CREATE, CREATE TRIGGER, DROP: {ddl:?}");
    assert_eq!(logged.len(), 4, "and the row: {logged:?}");
    let db = reopen_equal(&scratch, db);
    assert!(db.triggers().is_empty(), "dropped with its table");
    assert_eq!(count(&db, "r"), Value::Int(4));
}

#[test]
fn frame_of_only_a_local_table_writes_nothing() {
    let scratch = Scratch::new("local-empty");
    let mut db = store_with_r(&scratch);
    let size = db.wal_size();
    let (records, fsyncs) = (db.stats().wal_records, db.stats().wal_fsyncs);
    db.run_script(
        "BEGIN;
         CREATE TABLE tmpcopy (id INTEGER);
         INSERT INTO tmpcopy SELECT id FROM r;
         DROP TABLE tmpcopy;
         COMMIT;",
    )
    .unwrap();
    assert_eq!(db.wal_size(), size);
    assert_eq!(db.stats().wal_records, records);
    assert_eq!(db.stats().wal_fsyncs, fsyncs, "nothing to fsync");
    reopen_equal(&scratch, db);
}

#[test]
fn no_op_ddl_is_not_logged() {
    let scratch = Scratch::new("noop-ddl");
    let mut db = store_with_r(&scratch);
    db.execute("CREATE INDEX r_id ON r (id)").unwrap();
    let size = db.wal_size();
    let records = metric(&db, "rdb_wal_records_total");
    for noop in [
        "DROP TABLE IF EXISTS nosuch",
        "CREATE INDEX r_id_again ON r (id)",
        "CREATE TABLE IF NOT EXISTS r (id INTEGER)",
    ] {
        db.execute(noop).unwrap();
        assert_eq!(db.wal_size(), size, "{noop} grew the WAL");
        assert_eq!(metric(&db, "rdb_wal_records_total"), records, "{noop}");
    }
    reopen_equal(&scratch, db);
}

#[test]
fn analyze_logged_by_an_older_build_replays_as_a_no_op() {
    // Older builds logged `ANALYZE` as a `Ddl` record. Such a frame still
    // replays, to the same tables, and `ANALYZE` now writes no record.
    let scratch = Scratch::new("analyze-frame");
    let mut db = Database::open(scratch.path()).unwrap();
    db.run_script(
        "CREATE TABLE item (id INTEGER, name VARCHAR(10));
         CREATE INDEX item_id ON item (id);
         INSERT INTO item VALUES (1, 'pear'), (2, NULL);",
    )
    .unwrap();
    let before = dump(&db);
    db.close().unwrap();
    let mut frame = Vec::new();
    for rec in [
        WalRecord::TxnBegin { txn: 99 },
        WalRecord::Ddl {
            sql: "ANALYZE item".into(),
        },
        WalRecord::TxnCommit { txn: 99 },
    ] {
        wal::encode_frame(&rec, &mut frame);
    }
    let mut f = fs::OpenOptions::new()
        .append(true)
        .open(scratch.path().join("wal.bin"))
        .unwrap();
    std::io::Write::write_all(&mut f, &frame).unwrap();
    drop(f);
    assert!(wal_records(scratch.path()).contains(&WalRecord::Ddl {
        sql: "ANALYZE item".into()
    }));

    let mut db = Database::open(scratch.path()).unwrap();
    assert_eq!(dump(&db), before);
    let size = db.wal_size();
    let records = metric(&db, "rdb_wal_records_total");
    for analyze in ["ANALYZE item", "ANALYZE"] {
        db.execute(analyze).unwrap();
        assert_eq!(db.wal_size(), size, "{analyze} grew the WAL");
        assert_eq!(metric(&db, "rdb_wal_records_total"), records, "{analyze}");
    }
    assert!(matches!(
        db.execute("ANALYZE nosuch"),
        Err(DbError::NoSuchTable(_))
    ));
    reopen_equal(&scratch, db);
}
