//! Regression tests for the prepared-statement layer on the paper's hot
//! update paths: a workload of per-tuple operations must parse each
//! distinct SQL shape exactly once — repeats are served by prepared
//! statements and the plan cache.

use xmlup_core::{DeleteStrategy, InsertStrategy, RepoConfig, XmlRepository};
use xmlup_workload::{
    fixed_document, run_delete, run_insert, synthetic_dtd, SyntheticParams, Workload,
};

fn repo(ds: DeleteStrategy, is: InsertStrategy, batch_size: usize) -> (XmlRepository, usize) {
    let p = SyntheticParams::new(40, 4, 2);
    let dtd = synthetic_dtd(p.depth);
    let doc = fixed_document(&p);
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
    repo.reset_stats(); // count only the workload, not schema + shred
    let rel = repo.mapping.relation_by_element("n1").unwrap();
    (repo, rel)
}

#[test]
fn tuple_insert_workload_parses_each_shape_once() {
    // batch_size 1 pins the paper's one-statement-per-tuple translation,
    // which is the shape-amortization path under test here.
    let (mut repo, rel) = repo(DeleteStrategy::PerTupleTrigger, InsertStrategy::Tuple, 1);
    run_insert(&mut repo, rel, Workload::random10()).unwrap();
    let after_first = repo.stats();
    assert!(
        after_first.statements_parsed < after_first.client_statements,
        "prepared statements must amortize parsing: parsed {} of {} stmts",
        after_first.statements_parsed,
        after_first.client_statements
    );
    // A second identical workload re-executes only already-compiled
    // shapes: zero additional parses.
    run_insert(&mut repo, rel, Workload::random10()).unwrap();
    let after_second = repo.stats();
    assert_eq!(
        after_second.statements_parsed, after_first.statements_parsed,
        "second tuple-insert run re-parsed statements"
    );
    assert!(after_second.client_statements > after_first.client_statements);
}

#[test]
fn per_tuple_delete_workload_parses_each_shape_once() {
    let (mut repo, rel) = repo(DeleteStrategy::PerTupleTrigger, InsertStrategy::Tuple, 1);
    run_delete(&mut repo, rel, Workload::random10()).unwrap();
    let after_first = repo.stats();
    assert!(after_first.statements_parsed < after_first.client_statements);
    run_delete(&mut repo, rel, Workload::random10()).unwrap();
    let after_second = repo.stats();
    assert_eq!(
        after_second.statements_parsed, after_first.statements_parsed,
        "second per-tuple-delete run re-parsed statements"
    );
    assert!(after_second.client_statements > after_first.client_statements);
}

#[test]
fn table_insert_ddl_leaves_delete_shapes_cached() {
    // The table-insert strategy runs CREATE/DROP TABLE for its temp
    // tables on every copy. DDL moves the schema epoch and nothing else,
    // so the delete shapes parsed before the inserts are still cached
    // after them: the second delete round parses nothing.
    let (mut repo, rel) = repo(DeleteStrategy::PerTupleTrigger, InsertStrategy::Table, 1);
    run_delete(&mut repo, rel, Workload::random10()).unwrap();
    run_insert(&mut repo, rel, Workload::random10()).unwrap();
    let before = repo.stats();
    run_delete(&mut repo, rel, Workload::random10()).unwrap();
    let after = repo.stats();
    assert!(after.client_statements > before.client_statements);
    assert_eq!(
        after.statements_parsed, before.statements_parsed,
        "the inserts' temp-table DDL evicted the delete shapes"
    );
}
