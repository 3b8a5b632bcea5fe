//! A WAL append that fails part-way leaves no byte of its frame behind:
//! the log is cut back to the last whole frame, so a rolled-back
//! statement never comes back at recovery and a retried commit is not
//! logged twice.
//!
//! The failure is a real one. The test lowers this process's own
//! file-size limit (`RLIMIT_FSIZE`) to ten bytes past the WAL's end, so
//! the next append writes ten bytes and then fails with `EFBIG`. The
//! limit is process-wide, so this file holds one test and builds as a
//! binary of its own.

#![cfg(target_os = "linux")]

use std::ffi::{c_int, c_ulong};

use xmlup_rdb::{Database, DbError, Value};

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
        // Writing past the limit then fails with EFBIG instead of
        // killing the process.
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

fn ids(db: &Database) -> Vec<i64> {
    db.query("SELECT id FROM t ORDER BY id")
        .unwrap()
        .rows
        .iter()
        .map(|r| match r[0] {
            Value::Int(i) => i,
            ref v => panic!("unexpected id {v:?}"),
        })
        .collect()
}

fn assert_storage_err(r: Result<impl std::fmt::Debug, DbError>) {
    assert!(matches!(r, Err(DbError::Storage(_))), "{r:?}");
}

#[test]
fn failed_append_is_cut_back_and_never_replayed() {
    let dir = std::env::temp_dir().join(format!("xmlup-wal-write-failure-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = Database::open(&dir).unwrap();
    db.run_script("CREATE TABLE t (id INTEGER)").unwrap();
    db.run_script("INSERT INTO t VALUES (1)").unwrap();

    // Autocommit: the failed statement is rolled back, and the commit
    // after it must not carry the failed frame's bytes with it.
    let end = db.wal_size();
    let failed = with_file_size_limit(end + 10, || db.execute("INSERT INTO t VALUES (2)"));
    assert_storage_err(failed);
    assert_eq!(db.wal_size(), end, "the torn frame was cut back");
    assert_eq!(db.wal_synced_len(), end);
    db.run_script("INSERT INTO t VALUES (3)").unwrap();
    assert_eq!(ids(&db), [1, 3]);

    // Explicit transaction: a failed commit leaves it open, and the
    // retried commit is logged once.
    db.begin().unwrap();
    db.run_script("INSERT INTO t VALUES (4)").unwrap();
    let end = db.wal_size();
    let failed = with_file_size_limit(end + 10, || db.commit());
    assert_storage_err(failed);
    assert_eq!(db.wal_size(), end, "the torn frame was cut back");
    db.commit().unwrap();
    assert_eq!(ids(&db), [1, 3, 4]);
    assert_eq!(db.wal_synced_len(), db.wal_size());

    drop(db);
    let db = Database::open(&dir).unwrap();
    assert_eq!(ids(&db), [1, 3, 4], "recovery reads what was acknowledged");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
