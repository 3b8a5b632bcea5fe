//! Checkpoint equivalence between a database's two backends: rows in
//! memory only (`Database::new`, `XmlRepository::new`), or durable
//! (`Database::open`, `XmlRepository::open_durable`: the same heap,
//! checkpointed to `snapshot.bin` behind a WAL). The *same* randomized
//! update script, run on one store of each kind, must leave both with
//! identical SELECT-visible state and the identical XML document, under
//! the Shared Inlining mapping AND the Edge mapping.
//!
//! The durable store checkpoints between the script's steps, so
//! checkpoints interleave with the updates without being allowed to
//! perturb visible state. After the script the durable store is crashed
//! (dropped without close), reopened, and compared once more: recovery
//! through the snapshot + WAL must reproduce the same state and the same
//! document.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use xmlup_core::{DeleteStrategy, InsertStrategy, RepoConfig, XmlRepository};
use xmlup_rdb::{Database, Value};
use xmlup_shred::{edge, Mapping};
use xmlup_workload::driver::{pick_targets, Workload};
use xmlup_workload::{fixed_document, synthetic_dtd, SyntheticParams};

/// Unique scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "xmlup-equiv-{}-{}",
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

fn repo_config() -> RepoConfig {
    RepoConfig {
        delete_strategy: DeleteStrategy::Cascading,
        insert_strategy: InsertStrategy::Tuple,
        ..RepoConfig::default()
    }
}

/// The SELECT-visible state: every table dumped through the query path,
/// ordered by id, plus the id counter.
#[allow(clippy::type_complexity)]
fn visible_state(db: &Database) -> (Vec<(String, Vec<Vec<Value>>)>, i64) {
    let mut tables = Vec::new();
    for name in db.table_names() {
        let cols: Vec<String> = db.table(&name).unwrap().schema.column_names();
        let rs = db
            .query(&format!(
                "SELECT {} FROM {name} ORDER BY id",
                cols.join(", ")
            ))
            .unwrap();
        tables.push((name, rs.rows));
    }
    tables.sort_by(|a, b| a.0.cmp(&b.0));
    (tables, db.peek_next_id())
}

fn params() -> impl Strategy<Value = SyntheticParams> {
    (60usize..120, 2usize..4, 1usize..3, any::<u64>()).prop_map(|(sf, d, f, seed)| {
        SyntheticParams {
            scaling_factor: sf,
            depth: d,
            fanout: f,
            seed,
        }
    })
}

/// One logical update operation, applied identically to both stores.
#[derive(Debug, Clone, Copy)]
enum Op {
    Delete(i64),
    CopyUnderRoot(i64),
}

/// Derive a deterministic script from the workload's target picker: each
/// target becomes a delete or a subtree copy, seed-driven.
fn script_for(repo: &XmlRepository, rel: usize, seed: u64) -> Vec<Op> {
    pick_targets(repo, rel, Workload::random10())
        .into_iter()
        .enumerate()
        .map(|(i, id)| {
            if (seed >> (i % 64)) & 1 == 0 {
                Op::Delete(id)
            } else {
                Op::CopyUnderRoot(id)
            }
        })
        .collect()
}

fn apply(repo: &mut XmlRepository, rel: usize, op: Op) {
    match op {
        // The target may have been removed by an earlier cascading
        // delete; both stores skip it identically.
        Op::Delete(id) => {
            repo.delete_by_id(rel, id).unwrap();
        }
        Op::CopyUnderRoot(id) => {
            if repo.ids_of(rel).contains(&id) {
                let root = repo.root_id().unwrap();
                repo.copy_subtree(rel, id, root).unwrap();
            }
        }
    }
}

/// The store at `path` (in memory only when `None`), loaded with the
/// document on first open, and its `n1` relation.
fn inline_repo(path: Option<&Path>, p: &SyntheticParams) -> (XmlRepository, usize) {
    let dtd = synthetic_dtd(p.depth);
    let mut repo = match path {
        Some(path) => {
            let mapping = Mapping::from_dtd(&dtd, "root").unwrap();
            XmlRepository::open_durable(path, mapping, repo_config()).unwrap()
        }
        None => XmlRepository::new(&dtd, "root", repo_config()).unwrap(),
    };
    if repo.tuple_count() == 0 {
        repo.load(&fixed_document(p)).unwrap();
    }
    let rel = repo.mapping.relation_by_element("n1").unwrap();
    (repo, rel)
}

/// The whole stored document, serialised.
fn inline_document(repo: &mut XmlRepository) -> String {
    let root = repo.mapping.relation_by_element("root").unwrap();
    let (doc, _) = repo.fetch(root, None).unwrap();
    xmlup_xml::serializer::to_string(&doc)
}

fn run_inline_case(p: &SyntheticParams, seed: u64) -> Result<(), TestCaseError> {
    let dir = Scratch::new();
    let (mut mem, rel) = inline_repo(None, p);
    let (mut durable, drel) = inline_repo(Some(dir.path()), p);
    prop_assert_eq!(rel, drel);

    let script = script_for(&mem, rel, seed);
    for (i, &op) in script.iter().enumerate() {
        apply(&mut mem, rel, op);
        apply(&mut durable, rel, op);
        if i % 3 == 1 {
            durable.checkpoint().unwrap();
        }
    }

    let expected = visible_state(&mem.db);
    prop_assert_eq!(visible_state(&durable.db), expected.clone());
    let document = inline_document(&mut mem);
    prop_assert_eq!(inline_document(&mut durable), document.clone());

    // Crash the durable store and recover: same state, same document.
    drop(durable);
    let (mut recovered, _) = inline_repo(Some(dir.path()), p);
    prop_assert_eq!(visible_state(&recovered.db), expected);
    prop_assert_eq!(inline_document(&mut recovered), document);
    recovered.close_durable().unwrap();
    Ok(())
}

// ----------------------------------------------------------------------
// Edge mapping
// ----------------------------------------------------------------------

/// The Edge store at `path` (in memory only when `None`), shredded on
/// first open.
fn edge_db(path: Option<&Path>, p: &SyntheticParams) -> Database {
    let mut db = path.map_or_else(Database::new, |path| Database::open(path).unwrap());
    if db.table_names().is_empty() {
        db.bump_next_id(1);
        edge::create_schema(&mut db).unwrap();
        edge::create_delete_trigger(&mut db).unwrap();
        edge::shred(&mut db, &fixed_document(p)).unwrap();
    }
    db
}

fn edge_children(db: &Database) -> (i64, Vec<i64>) {
    let root = db
        .query("SELECT id FROM Edge WHERE parentId = 0")
        .unwrap()
        .rows[0][0]
        .as_int()
        .unwrap();
    let children = db
        .query(&format!(
            "SELECT id FROM Edge WHERE parentId = {root} ORDER BY id"
        ))
        .unwrap()
        .rows
        .iter()
        .filter_map(|r| r[0].as_int())
        .collect();
    (root, children)
}

fn run_edge_case(p: &SyntheticParams, seed: u64) -> Result<(), TestCaseError> {
    let dir = Scratch::new();
    let mut mem = edge_db(None, p);
    let mut durable = edge_db(Some(dir.path()), p);

    let (root, children) = edge_children(&mem);
    prop_assert_eq!((root, children.clone()), edge_children(&durable));

    for i in 0..8usize {
        let src = children[(seed as usize + i) % children.len()];
        // Copy one subtree; every other round delete the copy again via
        // the cascade trigger (same script on both stores).
        for db in [&mut mem, &mut durable] {
            let max_before: i64 = db.query("SELECT MAX(id) FROM Edge").unwrap().rows[0][0]
                .as_int()
                .unwrap();
            edge::copy_subtree(db, src, root).unwrap();
            if i % 2 == 0 {
                db.execute(&format!(
                    "DELETE FROM Edge WHERE parentId = {root} AND id > {max_before}"
                ))
                .unwrap();
            }
        }
        if i % 2 == 1 {
            durable.checkpoint().unwrap();
        }
    }

    let document =
        |db: &mut Database| xmlup_xml::serializer::to_string(&edge::unshred(db).unwrap());
    let expected = visible_state(&mem);
    prop_assert_eq!(visible_state(&durable), expected.clone());
    let expected_doc = document(&mut mem);
    prop_assert_eq!(document(&mut durable), expected_doc.clone());

    // Crash + recover the durable store.
    drop(durable);
    let mut recovered = edge_db(Some(dir.path()), p);
    prop_assert_eq!(visible_state(&recovered), expected);
    prop_assert_eq!(document(&mut recovered), expected_doc);
    recovered.close().unwrap();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Shared Inlining: the same randomized delete/copy script leaves the
    /// in-memory and the checkpointed durable store SELECT-identical, XML
    /// round-trip included, and a crash + recover of the durable store
    /// changes neither.
    #[test]
    fn inline_backends_equivalent(p in params(), seed in any::<u64>()) {
        run_inline_case(&p, seed)?;
    }

    /// Edge: same subtree-copy/cascade-delete script, same equivalence.
    #[test]
    fn edge_backends_equivalent(p in params(), seed in any::<u64>()) {
        run_edge_case(&p, seed)?;
    }
}
