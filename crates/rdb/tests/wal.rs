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

use xmlup_rdb::{Database, DbError, StorageConfig, Table, Value};

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

/// `open_with` must fail with a storage error and touch nothing.
fn assert_refused_untouched(dir: &Path, config: StorageConfig) -> String {
    let before = dir_image(dir);
    let why = match Database::open_with(dir, config) {
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

fn interrupted_checkpoint(config: StorageConfig, checkpoint_files: &[&str]) {
    let scratch = Scratch::new("stale-wal");
    let mut db = Database::open_with(scratch.path(), config).unwrap();
    db.run_script(SCHEMA).unwrap();
    db.run_script("INSERT INTO t VALUES (1, 'a')").unwrap();
    let pre_checkpoint_wal = fs::read(scratch.path().join("wal.bin")).unwrap();
    db.checkpoint().unwrap();
    let before = dump(&db);
    let first_checkpoint: Vec<Vec<u8>> = checkpoint_files
        .iter()
        .map(|f| fs::read(scratch.path().join(f)).unwrap())
        .collect();
    drop(db);

    // Crash window: checkpoint published but WAL truncation never
    // landed — the old (generation 0) WAL is still in place.
    fs::write(scratch.path().join("wal.bin"), &pre_checkpoint_wal).unwrap();
    let mut db2 = Database::open_with(scratch.path(), config).unwrap();
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
    let second_checkpoint: Vec<Vec<u8>> = checkpoint_files
        .iter()
        .map(|f| fs::read(scratch.path().join(f)).unwrap())
        .collect();
    for (f, bytes) in checkpoint_files.iter().zip(&first_checkpoint) {
        fs::write(scratch.path().join(f), bytes).unwrap();
    }
    let why = assert_refused_untouched(scratch.path(), config);
    assert!(why.contains("newer than the checkpoint"), "{why}");
    for (f, bytes) in checkpoint_files.iter().zip(&second_checkpoint) {
        fs::write(scratch.path().join(f), bytes).unwrap();
    }
    assert_eq!(
        dump(&Database::open_with(scratch.path(), config).unwrap()),
        after
    );
}

#[test]
fn stale_wal_from_interrupted_checkpoint_is_discarded() {
    interrupted_checkpoint(StorageConfig::default(), &["snapshot.bin"]);
    interrupted_checkpoint(StorageConfig::paged(), &["pages.meta"]);
}

#[test]
fn undecodable_wal_header_is_refused_not_reset() {
    for config in [StorageConfig::default(), StorageConfig::paged()] {
        let scratch = Scratch::new("bad-header");
        let mut db = Database::open_with(scratch.path(), config).unwrap();
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
        let why = assert_refused_untouched(scratch.path(), config);
        assert!(why.contains("WAL header"), "{why}");

        fs::write(&wal_path, &good).unwrap();
        assert_eq!(
            dump(&Database::open_with(scratch.path(), config).unwrap()),
            before
        );
    }
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
    let db = Database::open(scratch.path()).unwrap();
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
