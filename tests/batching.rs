//! Equivalence of the batched update translation with the paper's
//! per-tuple translation: on non-overlapping target subtrees, the same
//! workload run with the default `batch_size` and with `batch_size` 1
//! must leave every relation **byte-identical** — checked with
//! [`Table`]'s `PartialEq`, which compares slots (including tombstones),
//! live counts, index buckets, and the engine's id counter — and must
//! fire row-level triggers in the **same order**.
//!
//! Firing order is observed through audit tables: a `FOR EACH ROW`
//! trigger on relation `t` appends every affected tuple's id to
//! `audit_t`, so each audit table's physical row order *is* that
//! relation's firing order, and any divergence shows up as a snapshot
//! diff. One audit table **per relation**, because the interleaving
//! *across* triggers legitimately differs: a multi-row statement runs
//! each trigger over all of its rows before the next trigger, while a
//! per-tuple loop alternates — the per-trigger row order is the
//! guaranteed invariant. Covered mappings: Shared Inlining (via
//! [`XmlRepository`]) and Edge (raw SQL over the `Edge` relation with
//! its cascade trigger).

use proptest::prelude::*;
use xmlup_core::{DeleteStrategy, InsertStrategy, RepoConfig, XmlRepository};
use xmlup_rdb::{Database, Table};
use xmlup_shred::edge;
use xmlup_workload::{fixed_document, synthetic_dtd, SyntheticParams};

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

fn repo(
    p: &SyntheticParams,
    ds: DeleteStrategy,
    is: InsertStrategy,
    batch_size: usize,
) -> (XmlRepository, usize) {
    let dtd = synthetic_dtd(p.depth);
    let doc = fixed_document(p);
    let mut repo = XmlRepository::new(
        &dtd,
        "root",
        RepoConfig {
            delete_strategy: ds,
            insert_strategy: is,
            build_asr: false,
            statement_cost_us: 0,
            batch_size,
            ..RepoConfig::default()
        },
    )
    .unwrap();
    repo.load(&doc).unwrap();
    let n1 = repo.mapping.relation_by_element("n1").unwrap();
    (repo, n1)
}

/// Install the firing-order probe: every row-level firing on relation
/// `t` appends the tuple id to `audit_t`, whose insertion order records
/// that relation's trigger firing order.
fn install_audit(db: &mut Database, event: &str, tables: &[&str]) {
    let pseudo = if event == "DELETE" { "OLD" } else { "NEW" };
    for t in tables {
        db.execute(&format!("CREATE TABLE audit_{t} (tid INTEGER)"))
            .unwrap();
        db.execute(&format!(
            "CREATE TRIGGER audit_{event}_{t} AFTER {event} ON {t} FOR EACH ROW \
             BEGIN INSERT INTO audit_{t} VALUES ({pseudo}.id); END"
        ))
        .unwrap();
    }
}

/// Deterministic non-empty subset of `ids`, kept in ascending order
/// (non-overlapping sibling subtrees: distinct `n1` roots never nest).
fn subset(ids: &[i64], seed: u64) -> Vec<i64> {
    let picked: Vec<i64> = ids
        .iter()
        .enumerate()
        .filter(|(i, _)| (seed >> (i % 64)) & 1 == 1)
        .map(|(_, &id)| id)
        .collect();
    if picked.is_empty() {
        vec![ids[0]]
    } else {
        picked
    }
}

fn small_params() -> impl Strategy<Value = SyntheticParams> {
    (2usize..12, 2usize..4, 1usize..4, any::<u64>()).prop_map(|(sf, d, f, seed)| SyntheticParams {
        scaling_factor: sf,
        depth: d,
        fanout: f,
        seed,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Shared Inlining, all delete strategies: one batched
    /// `DELETE … WHERE id IN (…)` ≡ a loop of per-tuple deletes, down to
    /// the physical bytes and the row-trigger firing order.
    #[test]
    fn batched_delete_matches_per_tuple(p in small_params(), seed in any::<u64>()) {
        let leaf = format!("n{}", p.depth);
        for ds in [
            DeleteStrategy::PerTupleTrigger,
            DeleteStrategy::PerStatementTrigger,
            DeleteStrategy::Cascading,
        ] {
            // Per-tuple reference: batch_size 1 degenerates the batched
            // path to the paper's one-statement-per-subtree translation.
            let (mut per_tuple, rel) = repo(&p, ds, InsertStrategy::Table, 1);
            install_audit(&mut per_tuple.db, "DELETE", &["n1", &leaf]);
            let targets = subset(&per_tuple.ids_of(rel), seed);
            per_tuple.delete_by_ids(rel, &targets).unwrap();
            let reference = snapshot(&per_tuple.db);

            let (mut batched, rel) = repo(&p, ds, InsertStrategy::Table, 256);
            install_audit(&mut batched.db, "DELETE", &["n1", &leaf]);
            batched.delete_by_ids(rel, &targets).unwrap();
            prop_assert_eq!(
                &snapshot(&batched.db), &reference,
                "strategy {} diverged on targets {:?}", ds.label(), targets
            );
        }
    }

    /// Shared Inlining, tuple-method insert: the multi-row VALUES
    /// batches must allocate the same ids, write the same bytes, and
    /// fire each relation's row triggers in the same order as the
    /// per-tuple INSERT loop.
    #[test]
    fn batched_tuple_insert_matches_per_tuple(p in small_params(), pick in any::<u64>()) {
        let leaf = format!("n{}", p.depth);
        let (mut per_tuple, rel) = repo(
            &p, DeleteStrategy::PerTupleTrigger, InsertStrategy::Tuple, 1,
        );
        install_audit(&mut per_tuple.db, "INSERT", &["n1", &leaf]);
        let ids = per_tuple.ids_of(rel);
        let src = ids[(pick as usize) % ids.len()];
        let root = per_tuple.root_id().unwrap();
        let copied = per_tuple.copy_subtree(rel, src, root).unwrap();
        let reference = snapshot(&per_tuple.db);

        let (mut batched, rel) = repo(
            &p, DeleteStrategy::PerTupleTrigger, InsertStrategy::Tuple, 256,
        );
        install_audit(&mut batched.db, "INSERT", &["n1", &leaf]);
        prop_assert_eq!(batched.copy_subtree(rel, src, root).unwrap(), copied);
        prop_assert_eq!(&snapshot(&batched.db), &reference);
    }

    /// Edge mapping: a batched IN-list delete through the cascade
    /// trigger ≡ per-tuple deletes of the same (non-overlapping) sibling
    /// subtrees — byte-identical `Edge` relation (slots, tombstones,
    /// index buckets, id counter), the same multiset of trigger firings,
    /// and target roots fired in ascending id order on both paths. The
    /// *global* audit order is not compared: the cascade re-enters the
    /// audit trigger, and a multi-row statement finishes the cascade
    /// trigger for all roots before the audit trigger runs, so roots
    /// audit after all descendants rather than interleaved.
    #[test]
    fn edge_batched_delete_matches_per_tuple(p in small_params(), seed in any::<u64>()) {
        let doc = fixed_document(&p);
        let build = || {
            let mut db = Database::new();
            db.bump_next_id(1);
            edge::create_schema(&mut db).unwrap();
            edge::shred(&mut db, &doc).unwrap();
            edge::create_delete_trigger(&mut db).unwrap();
            install_audit(&mut db, "DELETE", &["Edge"]);
            db
        };
        let targets = {
            let db = build();
            let rs = db
                .query("SELECT id FROM Edge WHERE name = 'n1' ORDER BY id")
                .unwrap();
            let ids: Vec<i64> = rs.rows.iter().filter_map(|r| r[0].as_int()).collect();
            subset(&ids, seed)
        };

        // Physical audit order (SeqScan returns slot order = firing order).
        let audit_order = |db: &mut Database| -> Vec<i64> {
            db.query("SELECT tid FROM audit_Edge")
                .unwrap()
                .rows
                .iter()
                .filter_map(|r| r[0].as_int())
                .collect()
        };

        // Per-tuple reference, in ascending id order — the order the
        // batched IN-list probe visits rows.
        let mut per_tuple = build();
        let stmt = per_tuple.prepare("DELETE FROM Edge WHERE id = ?").unwrap();
        for &id in &targets {
            per_tuple
                .execute_prepared(&stmt, &[xmlup_rdb::Value::Int(id)])
                .unwrap();
        }

        let mut batched = build();
        let marks = vec!["?"; targets.len()].join(", ");
        let params: Vec<xmlup_rdb::Value> =
            targets.iter().map(|&id| xmlup_rdb::Value::Int(id)).collect();
        let stmt = batched
            .prepare(&format!("DELETE FROM Edge WHERE id IN ({marks})"))
            .unwrap();
        batched.execute_prepared(&stmt, &params).unwrap();

        prop_assert_eq!(
            batched.table("Edge").unwrap(), per_tuple.table("Edge").unwrap(),
            "edge batched delete diverged on targets {:?}", targets
        );
        prop_assert_eq!(batched.peek_next_id(), per_tuple.peek_next_id());

        let a = audit_order(&mut per_tuple);
        let b = audit_order(&mut batched);
        // Same firings (each row exactly once) …
        let (mut sa, mut sb) = (a.clone(), b.clone());
        sa.sort_unstable();
        sb.sort_unstable();
        prop_assert_eq!(&sa, &sb, "different rows fired triggers");
        // … and the target roots fire in ascending id order on both paths.
        let roots = |order: &[i64]| -> Vec<i64> {
            order.iter().copied().filter(|id| targets.contains(id)).collect()
        };
        prop_assert_eq!(&roots(&a), &targets);
        prop_assert_eq!(&roots(&b), &targets);
    }
}
