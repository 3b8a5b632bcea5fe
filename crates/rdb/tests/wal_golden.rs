//! Whole-frame composition of the WAL, pinned byte for byte.
//!
//! One scripted run over a durable database covers every way a frame
//! gets its records: a trigger cascade, an explicit transaction with
//! `SAVEPOINT` / `ROLLBACK TO`, id allocation between statements, a
//! `tmp_*` table created, indexed, filled and dropped inside the frame
//! (left out of it), a statement that fails part-way, autocommitted id
//! allocation (flushed on its own), an id allocation whose flush fails
//! (its `NextId` rides in the next frame), a full `ROLLBACK` (the abort
//! marker and the re-asserted id counter), and a failed flush followed by
//! an empty transaction that rolls back (the buffered counter is
//! re-asserted, not dropped). The `wal.bin` it leaves must equal
//! `fixtures/wal_golden/wal.bin`.
//!
//! The failed flush is a real one: the test lowers this process's own
//! file-size limit (`RLIMIT_FSIZE`) to ten bytes past the WAL's end, as
//! `wal_write_failure.rs` does. The limit is process-wide, so this file
//! holds one test and builds as a binary of its own.
//!
//! When the format changes on purpose, the failure message names a file
//! holding the bytes this run wrote; copy it over the fixture.

#![cfg(target_os = "linux")]

use std::ffi::{c_int, c_ulong};
use std::fs;
use std::path::Path;

use xmlup_rdb::{Database, Table};

#[repr(C)]
struct RLimit {
    cur: c_ulong,
    max: c_ulong,
}

const RLIMIT_FSIZE: c_int = 1;
const SIGXFSZ: c_int = 25;
const SIG_IGN: usize = 1;

extern "C" {
    fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
    fn signal(signum: c_int, handler: usize) -> usize;
}

/// Run `f` with the soft file-size limit at `limit` bytes, then restore
/// the old limit before returning what `f` returned.
fn with_file_size_limit<T>(limit: u64, f: impl FnOnce() -> T) -> T {
    let mut old = RLimit { cur: 0, max: 0 };
    // SAFETY: plain libc calls on this process's own limits, with
    // pointers to live, correctly laid out structs.
    unsafe {
        signal(SIGXFSZ, SIG_IGN);
        assert_eq!(getrlimit(RLIMIT_FSIZE, &mut old), 0);
        let low = RLimit {
            cur: (limit as c_ulong).min(old.max),
            max: old.max,
        };
        assert_eq!(setrlimit(RLIMIT_FSIZE, &low), 0);
    }
    let out = f();
    // SAFETY: as above.
    unsafe { assert_eq!(setrlimit(RLIMIT_FSIZE, &old), 0) };
    out
}

fn dump(db: &Database) -> (Vec<(String, Table)>, i64) {
    let tables = db
        .table_names()
        .into_iter()
        .map(|n| (n.clone(), db.table(&n).unwrap().clone()))
        .collect();
    (tables, db.peek_next_id())
}

/// Allocate ids outside a transaction with the flush failing: the WAL
/// is left as it was and the `NextId` record stays buffered.
fn allocate_with_failed_flush(db: &mut Database, count: i64) {
    let end = db.wal_size();
    with_file_size_limit(end + 10, || db.allocate_ids(count));
    assert_eq!(db.wal_size(), end, "the failed flush was cut back");
}

/// The scripted run. Every step writes what the module docs list.
fn script(db: &mut Database) {
    db.run_script(
        "CREATE TABLE parent (id INTEGER, name VARCHAR(10));
         CREATE TABLE child (id INTEGER, pid INTEGER);
         CREATE INDEX child_pid ON child (pid);
         CREATE TRIGGER cascade_del AFTER DELETE ON parent FOR EACH ROW
         BEGIN DELETE FROM child WHERE pid = OLD.id; END;
         INSERT INTO parent VALUES (1, 'ann'), (2, 'bob'), (3, NULL);
         INSERT INTO child VALUES (10, 1), (11, 1), (12, 2);",
    )
    .unwrap();
    db.bump_next_id(100);
    // A trigger cascade: one autocommitted frame holds both tables' rows.
    db.execute("DELETE FROM parent WHERE id = 1").unwrap();

    // One explicit transaction.
    db.execute("BEGIN").unwrap();
    db.execute("UPDATE parent SET name = 'bea' WHERE id = 2")
        .unwrap();
    db.allocate_ids(5);
    db.execute("SAVEPOINT a").unwrap();
    db.execute("INSERT INTO child VALUES (13, 3)").unwrap();
    db.allocate_ids(2);
    db.execute("DELETE FROM parent WHERE id = 2").unwrap();
    db.execute("ROLLBACK TO a").unwrap();
    db.execute("INSERT INTO child VALUES (14, 2)").unwrap();
    db.allocate_ids(1);
    db.run_script(
        "CREATE TABLE tmp_copy (id INTEGER);
         CREATE INDEX tmp_copy_id ON tmp_copy (id);
         INSERT INTO tmp_copy SELECT id FROM child WHERE pid = 2;
         INSERT INTO parent SELECT id + 100, 'copy' FROM tmp_copy;
         DROP TABLE tmp_copy;",
    )
    .unwrap();
    // Fails on its second row: the first is undone and never logged.
    db.fail_on_table_write("child", 2);
    assert!(db
        .execute("INSERT INTO child VALUES (15, 3), (16, 3), (17, 3)")
        .is_err());
    db.execute("UPDATE child SET pid = 3 WHERE id = 12")
        .unwrap();
    db.execute("COMMIT").unwrap();

    // Autocommitted id allocation: a frame of one `NextId`.
    db.allocate_ids(7);

    // A failed flush; the next statement's frame carries its `NextId`,
    // and a read-only statement commits nothing.
    allocate_with_failed_flush(db, 4);
    db.execute("SELECT COUNT(*) FROM parent").unwrap();
    // Again, this time into an explicit transaction's frame.
    allocate_with_failed_flush(db, 3);
    db.begin().unwrap();
    db.execute("INSERT INTO parent VALUES (4, 'dee')").unwrap();
    db.commit().unwrap();

    // A full rollback: the abort marker, then the id counter re-asserted.
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO parent VALUES (5, 'eve')").unwrap();
    db.allocate_ids(6);
    db.execute("ROLLBACK").unwrap();

    // A failed flush, then a transaction that rolls back: the abort
    // marker, then the buffered counter re-asserted on its own.
    allocate_with_failed_flush(db, 2);
    db.execute("BEGIN").unwrap();
    db.execute("ROLLBACK").unwrap();

    db.execute("DROP TRIGGER cascade_del").unwrap();
}

#[test]
fn scripted_run_writes_the_golden_wal() {
    let dir = std::env::temp_dir().join(format!("xmlup-wal-golden-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let mut db = Database::open(&dir).unwrap();
    db.set_wal_sync(false);
    script(&mut db);

    // What the run did, as the counters saw it.
    let s = db.stats();
    assert_eq!(
        (s.txn_commits, s.txn_rollbacks, s.undo_records),
        (10, 4, 30),
        "commits, rollbacks, undo records"
    );
    assert_eq!(db.peek_next_id(), 122);

    let live = dump(&db);
    drop(db);
    let written = fs::read(dir.join("wal.bin")).unwrap();
    let reopened = Database::open(&dir).unwrap();
    assert_eq!(dump(&reopened), live, "the WAL replays to the live state");
    drop(reopened);
    let _ = fs::remove_dir_all(&dir);

    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/wal_golden/wal.bin");
    let golden = fs::read(&fixture).unwrap_or_default();
    if written != golden {
        let out = std::env::temp_dir().join("xmlup-wal-golden-actual.bin");
        fs::write(&out, &written).unwrap();
        let first = written.iter().zip(&golden).position(|(a, b)| a != b);
        panic!(
            "WAL bytes differ from {} (lengths {} vs {}, first difference at {:?}); \
             this run's bytes are in {}",
            fixture.display(),
            written.len(),
            golden.len(),
            first,
            out.display()
        );
    }
}
