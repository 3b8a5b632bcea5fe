//! Acceptance test for the durability subsystem (ISSUE: WAL, checkpoint
//! snapshots & crash recovery): a random update workload with an
//! injected fault runs against a *durable* store, the process "crashes"
//! (the database is dropped without a rollback or a clean close), the
//! store is reopened — and the recovered state must be byte-identical to
//! a never-crashed oracle, under the Shared Inlining mapping AND the
//! Edge mapping, with and without an intervening checkpoint.
//!
//! "Byte-identical" is [`Table`]'s `PartialEq` over the full physical
//! state (slots including tombstones, live counts, index buckets in
//! order) plus the engine's id counter. It holds across a checkpoint:
//! index contents are a pure function of the slot vector, so the indexes
//! DML and rollback maintain equal the ones a rebuild from the snapshot
//! produces.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use xmlup_core::{DeleteStrategy, InsertStrategy, RepoConfig, XmlRepository};
use xmlup_rdb::{Database, Table};
use xmlup_shred::{edge, Mapping};
use xmlup_workload::driver::{pick_targets, Workload};
use xmlup_workload::{fixed_document, synthetic_dtd, SyntheticParams};

/// Unique scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "xmlup-crash-{}-{}",
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

/// Deep physical snapshot of every relation plus the id counter.
fn snapshot(db: &Database) -> (Vec<(String, Table)>, i64) {
    let mut tables: Vec<(String, Table)> = db
        .table_names()
        .into_iter()
        .map(|n| {
            let t = db.table(&n).unwrap().clone();
            (n, t)
        })
        .collect();
    tables.sort_by(|a, b| a.0.cmp(&b.0));
    (tables, db.peek_next_id())
}

const PARAMS: (usize, usize, usize) = (20, 3, 2);

fn config(ds: DeleteStrategy) -> RepoConfig {
    RepoConfig {
        delete_strategy: ds,
        insert_strategy: InsertStrategy::Tuple,
        build_asr: ds == DeleteStrategy::Asr,
        statement_cost_us: 0,
        ..RepoConfig::default()
    }
}

/// Open (or recover) a durable Shared-Inlining repo; load the synthetic
/// document only when the store is fresh.
fn durable_repo(path: &Path, ds: DeleteStrategy) -> (XmlRepository, usize) {
    let (sf, depth, fanout) = PARAMS;
    let dtd = synthetic_dtd(depth);
    let mapping = Mapping::from_dtd(&dtd, "root").unwrap();
    let mut repo = XmlRepository::open_durable(path, mapping, config(ds)).unwrap();
    if repo.tuple_count() == 0 {
        repo.load(&fixed_document(&SyntheticParams::new(sf, depth, fanout)))
            .unwrap();
    }
    let n1 = repo.mapping.relation_by_element("n1").unwrap();
    (repo, n1)
}

/// Never-crashed in-memory oracle running the same logical operations.
fn oracle_repo(ds: DeleteStrategy) -> (XmlRepository, usize) {
    let (sf, depth, fanout) = PARAMS;
    let dtd = synthetic_dtd(depth);
    let mut repo = XmlRepository::new(&dtd, "root", config(ds)).unwrap();
    repo.load(&fixed_document(&SyntheticParams::new(sf, depth, fanout)))
        .unwrap();
    let n1 = repo.mapping.relation_by_element("n1").unwrap();
    (repo, n1)
}

/// Shared Inlining: kill the workload mid-run (fault → drop without
/// close), reopen, and require the recovered store byte-identical to the
/// pre-crash committed state AND to an independent never-crashed oracle
/// that ran the same committed prefix; then finish the workload on the
/// recovered store and converge on the oracle's final state, XML
/// round-trip included. `checkpoint_at` additionally checkpoints after
/// that many operations, so recovery crosses a snapshot + WAL boundary.
fn inline_crash_case(ds: DeleteStrategy, fail_at: u64, checkpoint_at: Option<usize>) {
    let scratch = Scratch::new();
    let (mut repo, rel) = durable_repo(scratch.path(), ds);
    let targets = pick_targets(&repo, rel, Workload::random10());
    repo.db.fail_after_statements(fail_at);

    let mut crashed_at = None;
    for (i, &id) in targets.iter().enumerate() {
        if checkpoint_at == Some(i) {
            repo.checkpoint().unwrap();
        }
        match repo.delete_by_id(rel, id) {
            Ok(_) => {}
            Err(e) => {
                assert!(e.is_injected_fault(), "{ds:?}: {e}");
                crashed_at = Some(i);
                break;
            }
        }
    }
    let crashed_at = crashed_at.expect("fault fired mid-workload");
    if let Some(c) = checkpoint_at {
        assert!(crashed_at >= c, "fault fired before the checkpoint ran");
    }
    let committed = snapshot(&repo.db);

    // Crash: drop the handle without rollback or close, then recover.
    drop(repo);
    let (mut recovered, rel) = durable_repo(scratch.path(), ds);
    assert_eq!(
        snapshot(&recovered.db),
        committed,
        "{ds:?}/fail_at={fail_at}/ckpt={checkpoint_at:?}: recovery lost the committed state"
    );

    // Independent oracle over the same committed prefix.
    let (mut oracle, orel) = oracle_repo(ds);
    for &id in &targets[..crashed_at] {
        oracle.delete_by_id(orel, id).unwrap();
    }
    assert_eq!(
        snapshot(&recovered.db),
        snapshot(&oracle.db),
        "{ds:?}: recovered state differs from the never-crashed oracle"
    );

    // The recovered store keeps working: finish the workload (including
    // the killed operation) and converge on the oracle's final state.
    for &id in &targets[crashed_at..] {
        recovered.delete_by_id(rel, id).unwrap();
        oracle.delete_by_id(orel, id).unwrap();
    }
    assert_eq!(snapshot(&recovered.db), snapshot(&oracle.db));

    // And the surviving XML document is the same document.
    let root = recovered.mapping.relation_by_element("root").unwrap();
    let (rec_doc, _) = recovered.fetch(root, None).unwrap();
    let (ora_doc, _) = oracle.fetch(root, None).unwrap();
    assert_eq!(
        xmlup_xml::serializer::to_string(&rec_doc),
        xmlup_xml::serializer::to_string(&ora_doc),
        "{ds:?}: recovered store publishes a different document"
    );
    recovered.close_durable().unwrap();
}

#[test]
fn inline_crash_mid_workload_recovers_exactly() {
    for ds in [
        DeleteStrategy::PerTupleTrigger,
        DeleteStrategy::Cascading,
        DeleteStrategy::Asr,
    ] {
        for fail_at in [2, 5, 9] {
            inline_crash_case(ds, fail_at, None);
        }
    }
}

#[test]
fn inline_crash_after_checkpoint_recovers_exactly() {
    // The fault fires a few operations past the checkpoint, so recovery
    // must compose the snapshot with the WAL suffix written after it.
    inline_crash_case(DeleteStrategy::Cascading, 7, Some(1));
    inline_crash_case(DeleteStrategy::PerTupleTrigger, 7, Some(1));
}

/// Build (or recover) a durable Edge-mapping store.
fn durable_edge(path: &Path) -> Database {
    let mut db = Database::open(path).unwrap();
    if db.table_names().is_empty() {
        let doc = xmlup_xml::parse(xmlup_xml::samples::CUSTOMER_XML)
            .unwrap()
            .doc;
        db.bump_next_id(1);
        edge::create_schema(&mut db).unwrap();
        edge::shred(&mut db, &doc).unwrap();
    }
    db
}

fn edge_id_of(db: &mut Database, name: &str) -> i64 {
    db.query(&format!("SELECT MIN(id) FROM Edge WHERE name = '{name}'"))
        .unwrap()
        .scalar()
        .unwrap()
        .as_int()
        .unwrap()
}

/// Edge mapping: one committed subtree copy, then a second copy killed
/// mid-write inside its transaction; crash (drop) and reopen. The
/// recovered store must equal the committed state — first copy applied,
/// killed copy invisible — and an in-memory oracle that only ever ran
/// the committed copy. The recovered store then completes the copy.
#[test]
fn edge_crash_mid_copy_recovers_committed_state() {
    let scratch = Scratch::new();
    let mut db = durable_edge(scratch.path());
    let root = edge_id_of(&mut db, "CustDB");
    let cust = edge_id_of(&mut db, "Customer");

    // Checkpoint the freshly shredded document, so recovery composes the
    // snapshot with the committed copy's WAL suffix.
    db.checkpoint().unwrap();

    let first = edge::copy_subtree(&mut db, cust, root).unwrap();
    assert!(first > 0);

    // Second copy dies mid-write; its transaction rolls back.
    db.begin().unwrap();
    db.fail_on_table_write("Edge", 4);
    let err = edge::copy_subtree(&mut db, cust, root).unwrap_err();
    assert!(matches!(
        &err,
        xmlup_shred::ShredError::Db(e)
            if matches!(e.root_cause(), xmlup_rdb::DbError::FaultInjected(_))
    ));
    db.rollback().unwrap();
    let committed = snapshot(&db);

    drop(db); // crash without close
    let mut recovered = durable_edge(scratch.path());
    assert_eq!(snapshot(&recovered), committed);
    assert!(recovered.stats().recovered_txns > 0);

    // Oracle: same document, same single committed copy, never crashed.
    let doc = xmlup_xml::parse(xmlup_xml::samples::CUSTOMER_XML)
        .unwrap()
        .doc;
    let mut oracle = Database::new();
    oracle.bump_next_id(1);
    edge::create_schema(&mut oracle).unwrap();
    edge::shred(&mut oracle, &doc).unwrap();
    let ocust = edge_id_of(&mut oracle, "Customer");
    let oroot = edge_id_of(&mut oracle, "CustDB");
    edge::copy_subtree(&mut oracle, ocust, oroot).unwrap();
    assert_eq!(snapshot(&recovered), snapshot(&oracle));

    // The recovered store completes the interrupted copy.
    let rroot = edge_id_of(&mut recovered, "CustDB");
    let rcust = edge_id_of(&mut recovered, "Customer");
    let n = edge::copy_subtree(&mut recovered, rcust, rroot).unwrap();
    assert_eq!(n, first);
    edge::copy_subtree(&mut oracle, ocust, oroot).unwrap();
    assert_eq!(snapshot(&recovered), snapshot(&oracle));
    recovered.close().unwrap();
}
