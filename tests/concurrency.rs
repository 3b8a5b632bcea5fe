//! Snapshot-isolation property: concurrent readers never observe a
//! partially-committed transaction, on either shredding scheme.
//!
//! A writer thread repeatedly runs a count-preserving transaction —
//! copy a subtree, then delete the copy, inside one `BEGIN … COMMIT` —
//! so every *committed* state of the store holds exactly the baseline
//! tuple count; only mid-transaction states deviate. Reader threads
//! repeatedly pin a snapshot and count tuples twice. Any reader that
//! sees a non-baseline count, or two statements of one snapshot that
//! disagree, has observed a torn (partially-committed or
//! partially-rolled-back) transaction.
//!
//! Schemes covered, over proptest-generated synthetic documents:
//!
//! * **Shared Inlining** through the middleware facade
//!   ([`SharedRepository`]: translated-update serialization + pinned
//!   [`RepoSnapshot`] reads), with some transactions rolling back
//!   instead of committing (seed-driven) so undo + MVCC interplay is
//!   exercised too.
//! * **Edge** through the engine session layer ([`SharedDatabase`]
//!   sessions speaking SQL, the cascade delete trigger doing subtree
//!   removal inside the writer's transaction).

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use xmlup_core::{RepoConfig, SharedRepository, XmlRepository};
use xmlup_rdb::session::SqlOutcome;
use xmlup_rdb::{Database, SharedDatabase, Value};
use xmlup_shred::edge;
use xmlup_workload::{fixed_document, synthetic_dtd, SyntheticParams};

const READERS: usize = 3;
/// Minimum committed writer transactions per case.
const WRITER_TXNS: usize = 8;
/// Minimum snapshot double-reads across all readers before the writer
/// may stop: on a single hardware thread the spawned readers might not
/// be scheduled at all while a fast writer burns through its quota, so
/// the writer keeps churning until the readers have demonstrably read
/// *under* concurrent commits.
const MIN_CHECKS: u64 = 6;

fn small_params() -> impl Strategy<Value = SyntheticParams> {
    (2usize..6, 2usize..4, 1usize..3, any::<u64>()).prop_map(|(sf, d, f, seed)| SyntheticParams {
        scaling_factor: sf,
        depth: d,
        fanout: f,
        seed,
    })
}

/// A reader's verdict: statements checked, and the first torn
/// observation `(first_count, second_count)` if any.
type Verdict = (u64, Option<(i64, i64)>);

fn check(baseline: i64, a: i64, b: i64) -> Option<(i64, i64)> {
    (a != baseline || b != baseline).then_some((a, b))
}

// ----------------------------------------------------------------------
// Shared Inlining via the SharedRepository facade
// ----------------------------------------------------------------------

fn run_inlined(p: &SyntheticParams, seed: u64) -> Vec<Verdict> {
    let dtd = synthetic_dtd(p.depth);
    let doc = fixed_document(p);
    let mut repo = XmlRepository::new(&dtd, "root", RepoConfig::default()).unwrap();
    repo.load(&doc).unwrap();
    let rel = repo.mapping.relation_by_element("n1").unwrap();
    let baseline = repo.tuple_count() as i64;
    let shared = SharedRepository::new(repo);

    let done = Arc::new(AtomicBool::new(false));
    let progress = Arc::new(AtomicU64::new(0));
    let mut readers = Vec::new();
    for _ in 0..READERS {
        let shared = shared.clone();
        let done = done.clone();
        let progress = progress.clone();
        readers.push(std::thread::spawn(move || -> Verdict {
            let mut checks = 0;
            while !done.load(Ordering::Relaxed) {
                let snap = shared.snapshot();
                let a = snap.tuple_count().unwrap();
                let b = snap.tuple_count().unwrap();
                checks += 1;
                progress.fetch_add(1, Ordering::Relaxed);
                if let Some(torn) = check(baseline, a, b) {
                    return (checks, Some(torn));
                }
            }
            (checks, None)
        }));
    }

    // The cap bounds the loop when readers stop early (a torn read
    // exits the reader; the failure then reports instead of hanging).
    let mut i = 0;
    while (i < WRITER_TXNS || progress.load(Ordering::Relaxed) < MIN_CHECKS) && i < 10_000 {
        // Count-preserving committed transaction: copy one n1 subtree
        // under the root, then delete the copy. Every committed epoch
        // holds the baseline count.
        shared
            .with_write(|r| {
                let root = r.root_id()?;
                let ids = r.ids_of(rel);
                let src = ids[(seed as usize + i) % ids.len()];
                r.in_transaction(|r| {
                    let before: std::collections::HashSet<i64> =
                        r.ids_of(rel).into_iter().collect();
                    r.copy_subtree(rel, src, root)?;
                    let fresh: Vec<i64> = r
                        .ids_of(rel)
                        .into_iter()
                        .filter(|id| !before.contains(id))
                        .collect();
                    r.delete_by_ids(rel, &fresh)?;
                    Ok(())
                })
            })
            .unwrap();
        // And every other round: a transaction that mutates and rolls
        // back — its writes must be equally invisible to snapshots.
        if i % 2 == 0 {
            let target = shared.with_read(|r| r.ids_of(rel)[0]);
            shared.with_write(|r| {
                r.db.begin().unwrap();
                r.delete_by_id(rel, target).unwrap();
                r.db.rollback().unwrap();
            });
        }
        i += 1;
        std::thread::yield_now();
    }
    done.store(true, Ordering::Relaxed);
    readers.into_iter().map(|h| h.join().unwrap()).collect()
}

// ----------------------------------------------------------------------
// Edge via SharedDatabase sessions
// ----------------------------------------------------------------------

fn session_count(sess: &mut xmlup_rdb::Session, sql: &str) -> i64 {
    match sess.execute(sql).unwrap() {
        SqlOutcome::Rows(rs) => rs.rows[0][0].as_int().unwrap(),
        other => panic!("expected rows, got {other:?}"),
    }
}

fn run_edge(p: &SyntheticParams, seed: u64) -> Vec<Verdict> {
    let doc = fixed_document(p);
    let mut db = Database::new();
    // Keep id 0 free: `parentId = 0` is the root sentinel, so the root
    // tuple itself must not be allocated id 0.
    db.bump_next_id(1);
    edge::create_schema(&mut db).unwrap();
    edge::create_delete_trigger(&mut db).unwrap();
    edge::shred(&mut db, &doc).unwrap();
    let baseline = db.query("SELECT COUNT(*) FROM Edge").unwrap().rows[0][0]
        .as_int()
        .unwrap();
    let root: i64 = db
        .query("SELECT id FROM Edge WHERE parentId = 0")
        .unwrap()
        .rows[0][0]
        .as_int()
        .unwrap();
    let children: Vec<i64> = db
        .query(&format!("SELECT id FROM Edge WHERE parentId = {root}"))
        .unwrap()
        .rows
        .iter()
        .filter_map(|r| r[0].as_int())
        .collect();
    let shared = SharedDatabase::new(db);

    let done = Arc::new(AtomicBool::new(false));
    let progress = Arc::new(AtomicU64::new(0));
    let mut readers = Vec::new();
    for _ in 0..READERS {
        let shared = shared.clone();
        let done = done.clone();
        let progress = progress.clone();
        readers.push(std::thread::spawn(move || -> Verdict {
            let mut checks = 0;
            while !done.load(Ordering::Relaxed) {
                let mut sess = shared.session();
                sess.execute("BEGIN").unwrap();
                let a = session_count(&mut sess, "SELECT COUNT(*) FROM Edge");
                let b = session_count(&mut sess, "SELECT COUNT(*) FROM Edge");
                sess.execute("COMMIT").unwrap();
                checks += 1;
                progress.fetch_add(1, Ordering::Relaxed);
                if let Some(torn) = check(baseline, a, b) {
                    return (checks, Some(torn));
                }
            }
            (checks, None)
        }));
    }

    // The cap bounds the loop when readers stop early (a torn read
    // exits the reader; the failure then reports instead of hanging).
    let mut i = 0;
    while (i < WRITER_TXNS || progress.load(Ordering::Relaxed) < MIN_CHECKS) && i < 10_000 {
        let src = children[(seed as usize + i) % children.len()];
        shared.with_write(|db| {
            db.begin().unwrap();
            let max_before: i64 = db.query("SELECT MAX(id) FROM Edge").unwrap().rows[0][0]
                .as_int()
                .unwrap();
            edge::copy_subtree(db, src, root).unwrap();
            // The cascade trigger removes the copied descendants with it.
            db.execute(&format!(
                "DELETE FROM Edge WHERE parentId = {root} AND id > {max_before}"
            ))
            .unwrap();
            db.commit().unwrap();
        });
        i += 1;
        std::thread::yield_now();
    }
    done.store(true, Ordering::Relaxed);
    readers.into_iter().map(|h| h.join().unwrap()).collect()
}

fn assert_isolated(scheme: &str, verdicts: Vec<Verdict>) -> Result<(), TestCaseError> {
    let checks: u64 = verdicts.iter().map(|(c, _)| c).sum();
    prop_assert!(checks > 0, "{scheme}: readers made no progress");
    for (_, torn) in verdicts {
        prop_assert!(
            torn.is_none(),
            "{scheme}: reader observed a partially-committed transaction: {torn:?}"
        );
    }
    Ok(())
}

// ----------------------------------------------------------------------
// Incremental checkpoints under concurrent MVCC snapshots
// ----------------------------------------------------------------------

/// Unique scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "xmlup-conc-ckpt-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The full Edge relation as the query path sees it, plus the id counter.
fn edge_dump(db: &Database) -> (Vec<Vec<Value>>, i64) {
    let rs = db
        .query("SELECT id, parentId, ord, kind, name, value FROM Edge ORDER BY id")
        .unwrap();
    (rs.rows, db.peek_next_id())
}

/// Open (or recover) a durable Edge store.
fn durable_edge(path: &Path) -> Database {
    let mut db = Database::open(path).unwrap();
    if db.table_names().is_empty() {
        db.bump_next_id(1);
        edge::create_schema(&mut db).unwrap();
        edge::create_delete_trigger(&mut db).unwrap();
        let p = SyntheticParams::new(6, 3, 2);
        edge::shred(&mut db, &fixed_document(&p)).unwrap();
    }
    db
}

/// Checkpoints race committed writer transactions while reader
/// sessions hold MVCC snapshots across both: the readers must never see
/// a non-baseline count (a checkpoint must not leak in-flight or
/// post-snapshot state into a pinned snapshot), and after a crash the
/// store recovers to exactly the committed prefix — every committed
/// transaction, nothing else — whether it landed before or after the
/// last checkpoint.
#[test]
fn checkpoint_under_snapshots_recovers_committed_prefix() {
    let scratch = Scratch::new();
    let db = durable_edge(scratch.path());
    let baseline = db.query("SELECT COUNT(*) FROM Edge").unwrap().rows[0][0]
        .as_int()
        .unwrap();
    let root: i64 = db
        .query("SELECT id FROM Edge WHERE parentId = 0")
        .unwrap()
        .rows[0][0]
        .as_int()
        .unwrap();
    let children: Vec<i64> = db
        .query(&format!("SELECT id FROM Edge WHERE parentId = {root}"))
        .unwrap()
        .rows
        .iter()
        .filter_map(|r| r[0].as_int())
        .collect();
    let shared = SharedDatabase::new(db);

    let done = Arc::new(AtomicBool::new(false));
    let progress = Arc::new(AtomicU64::new(0));
    let mut readers = Vec::new();
    for _ in 0..READERS {
        let shared = shared.clone();
        let done = done.clone();
        let progress = progress.clone();
        readers.push(std::thread::spawn(move || -> Verdict {
            let mut checks = 0;
            while !done.load(Ordering::Relaxed) {
                let mut sess = shared.session();
                sess.execute("BEGIN").unwrap();
                let a = session_count(&mut sess, "SELECT COUNT(*) FROM Edge");
                // Yield so checkpoints and commits land while the
                // snapshot stays pinned.
                std::thread::yield_now();
                let b = session_count(&mut sess, "SELECT COUNT(*) FROM Edge");
                sess.execute("COMMIT").unwrap();
                checks += 1;
                progress.fetch_add(1, Ordering::Relaxed);
                if let Some(torn) = check(baseline, a, b) {
                    return (checks, Some(torn));
                }
            }
            (checks, None)
        }));
    }

    // Writer thread: count-preserving committed transactions.
    let first_child = children[0];
    let writer = {
        let shared = shared.clone();
        let progress = progress.clone();
        std::thread::spawn(move || {
            let mut i = 0;
            while (i < WRITER_TXNS || progress.load(Ordering::Relaxed) < MIN_CHECKS) && i < 10_000 {
                let src = children[i % children.len()];
                shared.with_write(|db| {
                    db.begin().unwrap();
                    let max_before: i64 = db.query("SELECT MAX(id) FROM Edge").unwrap().rows[0][0]
                        .as_int()
                        .unwrap();
                    edge::copy_subtree(db, src, root).unwrap();
                    db.execute(&format!(
                        "DELETE FROM Edge WHERE parentId = {root} AND id > {max_before}"
                    ))
                    .unwrap();
                    db.commit().unwrap();
                });
                i += 1;
                std::thread::yield_now();
            }
        })
    };

    // Main thread: incremental checkpoints racing the writer's commits
    // and the readers' pinned snapshots.
    let mut checkpoints = 0;
    while !writer.is_finished() {
        shared.with_write(|db| db.checkpoint().unwrap());
        checkpoints += 1;
        std::thread::yield_now();
    }
    writer.join().unwrap();
    done.store(true, Ordering::Relaxed);
    let verdicts: Vec<Verdict> = readers.into_iter().map(|h| h.join().unwrap()).collect();
    let checks: u64 = verdicts.iter().map(|(c, _)| c).sum();
    assert!(checks > 0, "readers made no progress");
    for (_, torn) in verdicts {
        assert!(
            torn.is_none(),
            "reader observed a torn state across a checkpoint: {torn:?}"
        );
    }
    assert!(checkpoints > 0);

    // One more committed transaction AFTER the last checkpoint, so
    // recovery must compose the checkpoint's snapshot with a WAL
    // suffix. This one changes the count on purpose.
    shared.with_write(|db| {
        db.begin().unwrap();
        edge::copy_subtree(db, first_child, root).unwrap();
        db.commit().unwrap();
    });
    let (committed, stats) = shared.with_write(|db| (edge_dump(db), db.stats()));
    assert!(stats.checkpoints > 0);
    assert!(
        stats.checkpoint_bytes_written > 0,
        "checkpoints must report bytes written"
    );

    // Crash: drop every handle without close, reopen, compare.
    drop(shared);
    let recovered = durable_edge(scratch.path());
    assert_eq!(edge_dump(&recovered), committed);
    assert!(recovered.stats().recovered_txns > 0);
    recovered.close().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Shared Inlining: snapshot readers through the repository facade
    /// see only committed (baseline-count) states while translated
    /// updates commit and roll back underneath them.
    #[test]
    fn inlined_readers_never_see_partial_commits(p in small_params(), seed in any::<u64>()) {
        assert_isolated("shared-inlining", run_inlined(&p, seed))?;
    }

    /// Edge: session-layer readers over the single Edge relation see
    /// only committed states while a writer churns subtree copies with
    /// trigger-cascaded deletes.
    #[test]
    fn edge_readers_never_see_partial_commits(p in small_params(), seed in any::<u64>()) {
        assert_isolated("edge", run_edge(&p, seed))?;
    }
}
