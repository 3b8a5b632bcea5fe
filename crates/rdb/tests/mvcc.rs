//! MVCC snapshot-read tests: visibility reconstruction across the four
//! scan access paths, version GC bounds, and multi-threaded snapshot
//! isolation through the session layer.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use xmlup_rdb::session::SqlOutcome;
use xmlup_rdb::{Database, SharedDatabase, Value};

fn seeded() -> Database {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE t (id INTEGER, grp INTEGER, v VARCHAR(10));
         CREATE INDEX t_id ON t (id);
         INSERT INTO t VALUES (1, 1, 'a'), (2, 1, 'b'), (3, 2, 'c');",
    )
    .unwrap();
    db
}

fn count(db: &Database, snapshot: Option<u64>, sql: &str) -> i64 {
    db.query_at(sql, snapshot).unwrap().rows[0][0]
        .as_int()
        .unwrap()
}

#[test]
fn snapshot_hides_later_commits_on_every_access_path() {
    let mut db = seeded();
    let snap = db.begin_snapshot();

    db.execute("DELETE FROM t WHERE id = 1").unwrap();
    db.execute("INSERT INTO t VALUES (4, 2, 'd')").unwrap();
    db.execute("UPDATE t SET v = 'X' WHERE id = 2").unwrap();

    // Live state reflects all three statements…
    assert_eq!(count(&db, None, "SELECT COUNT(*) FROM t"), 3);
    assert_eq!(count(&db, None, "SELECT COUNT(*) FROM t WHERE v = 'X'"), 1);

    // …while the snapshot still sees the BEGIN-time image through a
    // sequential scan, an indexed point probe, and an indexed IN-list.
    assert_eq!(count(&db, Some(snap), "SELECT COUNT(*) FROM t"), 3);
    assert_eq!(
        count(&db, Some(snap), "SELECT COUNT(*) FROM t WHERE id = 1"),
        1
    );
    assert_eq!(
        count(&db, Some(snap), "SELECT COUNT(*) FROM t WHERE id = 4"),
        0
    );
    assert_eq!(
        count(
            &db,
            Some(snap),
            "SELECT COUNT(*) FROM t WHERE id IN (1, 2, 4)"
        ),
        2
    );
    assert_eq!(
        count(&db, Some(snap), "SELECT COUNT(*) FROM t WHERE v = 'X'"),
        0
    );

    // Rows reconstructed for the snapshot carry their old values.
    let rs = db
        .query_at("SELECT v FROM t WHERE id = 2", Some(snap))
        .unwrap();
    assert_eq!(rs.rows[0][0], Value::Str("b".into()));

    db.end_snapshot(snap);
}

#[test]
fn uncommitted_transaction_is_invisible_to_snapshots() {
    let mut db = seeded();
    let snap = db.begin_snapshot();
    db.begin().unwrap();
    db.execute("DELETE FROM t").unwrap();
    // Uncommitted delete: live heap is empty, the snapshot still sees 3.
    assert_eq!(count(&db, Some(snap), "SELECT COUNT(*) FROM t"), 3);
    db.rollback().unwrap();
    assert_eq!(count(&db, Some(snap), "SELECT COUNT(*) FROM t"), 3);
    assert_eq!(count(&db, None, "SELECT COUNT(*) FROM t"), 3);
    db.end_snapshot(snap);
}

#[test]
fn version_gc_is_bounded_by_the_oldest_snapshot() {
    let mut db = seeded();
    assert_eq!(db.snapshot_versions_retained(), 0);

    let snap = db.begin_snapshot();
    db.execute("UPDATE t SET v = 'x1' WHERE id = 1").unwrap();
    db.execute("UPDATE t SET v = 'x2' WHERE id = 1").unwrap();
    assert!(db.snapshot_versions_retained() > 0);

    // Once the snapshot closes, the next commit garbage-collects every
    // before-image it was holding alive.
    db.end_snapshot(snap);
    db.execute("UPDATE t SET v = 'x3' WHERE id = 1").unwrap();
    assert_eq!(db.snapshot_versions_retained(), 0);

    // A rolled-back write leaves nothing behind, even for a pinned
    // snapshot: its before-images never left the undo log.
    let snap = db.begin_snapshot();
    db.begin().unwrap();
    db.execute("UPDATE t SET v = 'x4' WHERE id = 1").unwrap();
    db.savepoint("s").unwrap();
    db.execute("DELETE FROM t WHERE id = 2").unwrap();
    db.rollback_to("s").unwrap();
    assert_eq!(db.snapshot_versions_retained(), 0);
    db.rollback().unwrap();
    assert_eq!(db.snapshot_versions_retained(), 0);
    let rs = db
        .query_at("SELECT v FROM t WHERE id = 1", Some(snap))
        .unwrap();
    assert_eq!(rs.rows[0][0], Value::Str("x3".into()));
    db.end_snapshot(snap);
}

#[test]
fn a_table_recreated_in_a_transaction_does_not_inherit_the_old_tables_records() {
    // DDL is not versioned: the reader sees the new table, rolled back
    // through its own records only. The old table's insert at slot 3
    // must not be replayed over the new table's one-slot heap.
    let mut db = seeded();
    let snap = db.begin_snapshot();
    db.begin().unwrap();
    db.execute("INSERT INTO t VALUES (4, 2, 'd')").unwrap();
    db.execute("DROP TABLE t").unwrap();
    db.execute("CREATE TABLE t (id INTEGER, grp INTEGER, v VARCHAR(10))")
        .unwrap();
    db.execute("INSERT INTO t VALUES (7, 7, 'z')").unwrap();
    assert_eq!(count(&db, Some(snap), "SELECT COUNT(*) FROM t"), 0);
    db.commit().unwrap();
    assert_eq!(count(&db, Some(snap), "SELECT COUNT(*) FROM t"), 0);
    assert_eq!(count(&db, None, "SELECT COUNT(*) FROM t"), 1);
    assert_eq!(db.snapshot_versions_retained(), 1);
    db.end_snapshot(snap);
}

#[test]
fn sessions_dropped_on_many_threads_leave_the_gauge_at_zero() {
    // Each thread opens its 200 sessions first and then, released
    // together, drops them: the decrements overlap.
    let shared = SharedDatabase::new(Database::new());
    let start = Arc::new(std::sync::Barrier::new(8));
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let shared = shared.clone();
            let start = start.clone();
            std::thread::spawn(move || {
                let sessions: Vec<_> = (0..200).map(|_| shared.session()).collect();
                start.wait();
                drop(sessions);
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert!(shared.metrics_text().contains("rdb_active_sessions 0"));
}

#[test]
fn concurrent_readers_see_stable_counts_while_writer_churns() {
    // A writer moves rows between groups inside explicit transactions
    // (total count invariant: 3). Reader sessions repeatedly open a
    // read transaction and check that two statements in it agree — a
    // torn read would observe a partially-applied transaction.
    let shared = SharedDatabase::new(seeded());
    let stop = Arc::new(AtomicBool::new(false));

    let mut readers = Vec::new();
    for _ in 0..4 {
        let shared = shared.clone();
        let stop = stop.clone();
        readers.push(std::thread::spawn(move || {
            let mut checks = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let mut sess = shared.session();
                sess.execute("BEGIN").unwrap();
                let a = match sess.execute("SELECT COUNT(*) FROM t").unwrap() {
                    SqlOutcome::Rows(rs) => rs.rows[0][0].as_int().unwrap(),
                    other => panic!("{other:?}"),
                };
                let b = match sess
                    .execute("SELECT COUNT(*) FROM t WHERE grp IN (1, 2)")
                    .unwrap()
                {
                    SqlOutcome::Rows(rs) => rs.rows[0][0].as_int().unwrap(),
                    other => panic!("{other:?}"),
                };
                sess.execute("COMMIT").unwrap();
                assert_eq!(a, 3, "reader saw a partially-committed state");
                assert_eq!(b, 3, "reader saw a partially-committed state");
                checks += 1;
            }
            checks
        }));
    }

    let writer = {
        let shared = shared.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut i = 0;
            while !stop.load(Ordering::Relaxed) {
                let mut sess = shared.session();
                sess.execute("BEGIN").unwrap();
                sess.execute("DELETE FROM t").unwrap();
                sess.execute(&format!(
                    "INSERT INTO t VALUES (1, 1, 'a{i}'), (2, 1, 'b{i}'), (3, 2, 'c{i}')"
                ))
                .unwrap();
                sess.execute("COMMIT").unwrap();
                i += 1;
            }
        })
    };

    std::thread::sleep(std::time::Duration::from_millis(300));
    stop.store(true, Ordering::Relaxed);
    let total: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
    writer.join().unwrap();
    assert!(total > 0, "readers must have made progress");

    // Quiescent: all snapshots closed, the next commit GCs every
    // version, and the final state is consistent.
    shared
        .execute("UPDATE t SET v = 'final' WHERE id = 1")
        .unwrap();
    assert_eq!(shared.with_read(|db| db.active_snapshots()), 0);
    assert_eq!(shared.with_read(|db| db.snapshot_versions_retained()), 0);
    assert_eq!(
        shared.query("SELECT COUNT(*) FROM t").unwrap().rows[0][0],
        Value::Int(3)
    );
}

#[test]
fn stale_snapshot_keeps_the_key_order_an_elided_sort_promised() {
    // `ORDER BY` over an indexed column walks the index and plans no
    // Sort. Once a writer commits past the snapshot the live index is
    // useless to it, so the fallback must restore the walk's order
    // itself: keys descending, equal keys in slot order.
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE o (id INTEGER, k INTEGER);
         CREATE INDEX o_k ON o (k);
         INSERT INTO o VALUES (1, 5), (2, 9), (3, 5), (4, 1), (5, 9), (6, 5);",
    )
    .unwrap();
    let sql = "SELECT id, k FROM o ORDER BY k DESC";
    let plan = db.query(&format!("EXPLAIN {sql}")).unwrap();
    let plan: Vec<String> = plan.rows.iter().map(|r| r[0].to_string()).collect();
    assert!(
        plan.iter().any(|l| l.contains("OrderedScan")) && !plan.iter().any(|l| l.contains("Sort")),
        "the sort must be elided for this test to mean anything: {plan:?}"
    );

    let snap = db.begin_snapshot();
    let fresh = db.query_at(sql, Some(snap)).unwrap().rows;
    let ids: Vec<i64> = fresh.iter().map(|r| r[0].as_int().unwrap()).collect();
    assert_eq!(ids, [2, 5, 1, 3, 6, 4]);

    // Move, remove and add rows under every key the snapshot saw.
    db.execute("UPDATE o SET k = 0 WHERE id = 2").unwrap();
    db.execute("DELETE FROM o WHERE id = 3").unwrap();
    db.execute("INSERT INTO o VALUES (7, 9), (8, 5)").unwrap();
    assert_ne!(db.query(sql).unwrap().rows, fresh);
    assert_eq!(db.query_at(sql, Some(snap)).unwrap().rows, fresh);
    db.end_snapshot(snap);
}

#[test]
fn pinned_reader_index_join_sees_its_epoch_fresh_reader_probes_the_live_index() {
    // The sorted outer union's child fetch: parents joined to the child
    // relation through its parentId index. (The join is spelled
    // SELECT-first: a session routes a statement opening with `WITH` to
    // the write path, which would take the writer token.)
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE p (id INTEGER, num INTEGER);
         CREATE TABLE c (id INTEGER, parentId INTEGER, v VARCHAR(10));
         CREATE INDEX p_id ON p (id);
         CREATE INDEX c_parent ON c (parentId);
         INSERT INTO p VALUES (1, 1), (2, 2), (3, 9);
         INSERT INTO c VALUES (10, 1, 'a'), (11, 1, 'b'), (20, 2, 'c'), (30, 3, 'd');",
    )
    .unwrap();
    let shared = SharedDatabase::new(db);
    let sql = "SELECT P.id, T.id, T.v FROM p P, c T WHERE T.parentId = P.id AND P.num < 5";
    let plan = shared.query(&format!("EXPLAIN {sql}")).unwrap();
    assert!(
        plan.rows
            .iter()
            .any(|r| r[0].to_string().contains("IndexJoin (T.parentId = P.id)")),
        "{plan:?}"
    );
    let rows = |sess: &mut xmlup_rdb::session::Session| match sess.execute(sql).unwrap() {
        SqlOutcome::Rows(rs) => rs.rows,
        other => panic!("{other:?}"),
    };
    let row = |p: i64, id: i64, v: &str| vec![Value::Int(p), Value::Int(id), Value::Str(v.into())];

    let mut pinned = shared.session();
    pinned.execute("BEGIN").unwrap();
    let epoch = rows(&mut pinned);
    assert_eq!(epoch, [row(1, 10, "a"), row(1, 11, "b"), row(2, 20, "c")]);

    // A writer replaces children of both pinned parents.
    shared.execute("DELETE FROM c WHERE id = 10").unwrap();
    shared.execute("DELETE FROM c WHERE parentId = 2").unwrap();
    shared
        .execute("INSERT INTO c VALUES (12, 1, 'e'), (21, 2, 'f'), (22, 2, 'g')")
        .unwrap();

    // The pinned reader still sees its epoch: the live index describes
    // the new heap, so the join hashes the reconstructed rows instead.
    assert_eq!(rows(&mut pinned), epoch);
    pinned.execute("COMMIT").unwrap();

    // A fresh reader gets the new rows by probing the index.
    let work = || shared.with_read(|db| (db.stats().index_lookups, db.stats().hash_join_builds));
    let before = work();
    let fresh = shared.query(sql).unwrap().rows;
    let after = work();
    assert_eq!(
        fresh,
        [
            row(1, 11, "b"),
            row(1, 12, "e"),
            row(2, 21, "f"),
            row(2, 22, "g")
        ]
    );
    assert!(
        after.0 > before.0,
        "no index lookups: {before:?} -> {after:?}"
    );
    assert_eq!(after.1, before.1, "the fresh read built a hash table");
}

/// Run `f` on its own thread and fail if it has not finished in 3 s —
/// the symptom of a writer token leaked by a panicked holder.
fn within_3s<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    let out = rx
        .recv_timeout(std::time::Duration::from_secs(3))
        .expect("blocked behind a writer token its panicked holder never released");
    worker.join().unwrap();
    out
}

fn panic_under_the_write_lock(shared: &SharedDatabase) {
    let shared = shared.clone();
    let writer = std::thread::spawn(move || shared.with_write(|_| panic!("writer bug")));
    assert!(writer.join().is_err());
}

fn assert_poisoned<T: std::fmt::Debug>(r: xmlup_rdb::Result<T>) {
    match r {
        Err(e) => assert!(e.to_string().contains("poisoned"), "{e}"),
        Ok(v) => panic!("a poisoned database answered {v:?}"),
    }
}

#[test]
fn panicked_writer_frees_the_token_and_later_calls_get_an_error() {
    let shared = SharedDatabase::new(seeded());
    panic_under_the_write_lock(&shared);

    let second = shared.clone();
    assert_poisoned(within_3s(move || {
        second.execute("INSERT INTO t VALUES (9, 9, 'z')")
    }));
    assert_poisoned(shared.query("SELECT 1"));
    let mut late = shared.session();
    assert_poisoned(late.execute("SELECT COUNT(*) FROM t"));
    assert_poisoned(within_3s(move || late.execute("DELETE FROM t")));
}

#[test]
fn session_opened_before_a_writer_panic_errors_and_drops_cleanly() {
    let shared = SharedDatabase::new(seeded());
    let mut reader = shared.session();
    reader.execute("BEGIN").unwrap();
    reader.execute("SELECT COUNT(*) FROM t").unwrap();
    let mut idle = shared.session();
    panic_under_the_write_lock(&shared);

    assert_poisoned(reader.execute("SELECT COUNT(*) FROM t"));
    assert_poisoned(idle.execute("INSERT INTO t VALUES (9, 9, 'z')"));
    // Dropping must not panic: on a server's connection thread that
    // would be a panic inside an unwind, which aborts the process.
    drop(reader);
    drop(idle);
    // Only the closure entry points, which return a bare `R`, re-raise.
    let db = shared.clone();
    let read = std::thread::spawn(move || db.with_read(|db| db.active_snapshots()));
    assert!(read.join().is_err());
}
