//! Regression tests for the prepared-statement layer on the paper's hot
//! update and query paths: a workload of per-tuple operations, or of
//! subtree queries that differ only in their literals, must parse each
//! distinct SQL shape exactly once — repeats are served by prepared
//! statements and the plan cache.

use std::collections::BTreeMap;

use xmlup_core::{DeleteStrategy, InsertStrategy, RepoConfig, XmlRepository};
use xmlup_shred::outer_union;
use xmlup_workload::{
    fixed_document, run_delete, run_insert, synthetic_dtd, SyntheticParams, Workload,
};
use xmlup_xml::{Document, NodeId};

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

/// A `root/n1[num=x]` query, the shape the end-to-end benchmark's
/// `query-mem` stream issues.
fn n1_query(num: &str) -> String {
    format!(r#"FOR $x IN document("d")/root/n1[num="{num}"] RETURN $x"#)
}

fn element_count(doc: &Document, roots: &[NodeId]) -> usize {
    roots
        .iter()
        .map(|&r| {
            doc.descendants(r)
                .filter(|&n| doc.name(n).is_some())
                .count()
        })
        .sum()
}

#[test]
fn outer_union_queries_share_one_plan_across_literals() {
    let p = SyntheticParams::new(50, 3, 2);
    let dtd = synthetic_dtd(p.depth);
    let doc = fixed_document(&p);
    let mut repo = XmlRepository::new(
        &dtd,
        "root",
        RepoConfig {
            statement_cost_us: 0,
            ..RepoConfig::default()
        },
    )
    .unwrap();
    repo.load(&doc).unwrap();
    // Each n1's `num` with the n1 subtrees carrying it and their elements.
    let mut expect: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for &n1 in doc.children(doc.root()) {
        let num = doc
            .children(n1)
            .iter()
            .find(|&&c| doc.name(c) == Some("num"))
            .map(|&c| doc.string_value(c))
            .unwrap();
        let e = expect.entry(num).or_default();
        e.0 += 1;
        e.1 += element_count(&doc, &[n1]);
    }
    assert_eq!(expect.len(), 50, "the generator repeated an n1 num");

    repo.reset_stats();
    for (num, &(roots, elements)) in &expect {
        let (got, got_roots) = repo.query_xml(&n1_query(num)).unwrap();
        assert_eq!(got_roots.len(), roots, "roots for num {num}");
        assert_eq!(
            element_count(&got, &got_roots),
            elements,
            "elements for num {num}"
        );
    }
    let s = repo.stats();
    assert_eq!(s.statements_parsed, 1, "one Figure 5 text for 50 literals");
    assert_eq!(s.plans_built, 1);
    assert_eq!(s.plan_cache_hits, 49);

    // DDL moves the schema epoch: the next query replans once, the one
    // after it reuses that plan, and neither parses.
    repo.db
        .execute("CREATE INDEX idx_n2_str ON n2 (str)")
        .unwrap();
    let ddl = repo.stats();
    let (first, _) = expect.iter().next().unwrap();
    for _ in 0..2 {
        let (_, roots) = repo.query_xml(&n1_query(first)).unwrap();
        assert_eq!(roots.len(), expect[first].0);
    }
    let after = repo.stats();
    assert_eq!(after.statements_parsed, ddl.statements_parsed);
    assert_eq!(
        after.plans_built,
        ddl.plans_built + 1,
        "a CREATE INDEX replans once"
    );
    assert_eq!(after.plan_cache_hits, ddl.plan_cache_hits + 2);
}

#[test]
fn bound_root_filter_probes_the_same_index_as_the_spliced_one() {
    let p = SyntheticParams::new(20, 3, 2);
    let mut repo =
        XmlRepository::new(&synthetic_dtd(p.depth), "root", RepoConfig::default()).unwrap();
    repo.load(&fixed_document(&p)).unwrap();
    let n1 = repo.mapping.relation_by_element("n1").unwrap();
    let bound = outer_union::plan(&repo.mapping, n1, Some("num = '42'"));
    assert!(bound.sql.contains("WHERE num = ?)"));
    let spliced = bound.sql.replacen("num = ?", "num = '42'", 1);
    let explain = |sql: &str| -> Vec<String> {
        repo.db
            .query(&format!("EXPLAIN {sql}"))
            .unwrap()
            .rows
            .iter()
            .map(|r| r[0].to_string())
            .collect()
    };
    let (bound_plan, spliced_plan) = (explain(&bound.sql), explain(&spliced));
    assert!(
        spliced_plan
            .iter()
            .any(|l| l.trim() == "IndexScan n1 (num = '42') AS T"),
        "{spliced_plan:#?}"
    );
    // Operator for operator the same plan; only the probe's key is the
    // bound parameter.
    let spliced_plan: Vec<String> = spliced_plan
        .iter()
        .map(|l| l.replace("'42'", "$1"))
        .collect();
    assert_eq!(bound_plan, spliced_plan);
}
