//! Planner and Volcano-executor tests: EXPLAIN golden shapes for the
//! paper's workload queries, LIMIT pushdown, plan-slot epoch behaviour,
//! and planned-vs-naive A/B equivalence.

use xmlup_rdb::{Database, Value};

fn explain(db: &mut Database, sql: &str) -> String {
    let rs = db.query(sql).unwrap();
    rs.rows
        .iter()
        .map(|r| match &r[0] {
            Value::Str(s) => s.as_str(),
            other => panic!("EXPLAIN row is not a string: {other:?}"),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Edge-table schema shaped like the paper's shredded XML storage:
/// node tables with indexed `id`/`parentId` plus the ASR closure table.
fn edge_db() -> Database {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE n1 (id INTEGER, parentId INTEGER, num INTEGER);
         CREATE TABLE n2 (id INTEGER, parentId INTEGER, num INTEGER);
         CREATE TABLE n3 (id INTEGER, parentId INTEGER, num INTEGER);
         CREATE TABLE asr (id INTEGER, descendant INTEGER, mark BOOLEAN);
         CREATE INDEX n1_id ON n1 (id);
         CREATE INDEX n2_parent ON n2 (parentId);
         CREATE INDEX n3_parent ON n3 (parentId);
         CREATE INDEX asr_id ON asr (id);",
    )
    .unwrap();
    let ins1 = db.prepare("INSERT INTO n1 VALUES ($1, $2, $3)").unwrap();
    let ins2 = db.prepare("INSERT INTO n2 VALUES ($1, $2, $3)").unwrap();
    let ins3 = db.prepare("INSERT INTO n3 VALUES ($1, $2, $3)").unwrap();
    let insa = db.prepare("INSERT INTO asr VALUES ($1, $2, $3)").unwrap();
    for i in 0..40i64 {
        db.execute_prepared(
            &ins1,
            &[Value::Int(i), Value::Int(0), Value::Int(i * 7 % 50)],
        )
        .unwrap();
        for j in 0..4i64 {
            let id2 = i * 4 + j;
            db.execute_prepared(
                &ins2,
                &[Value::Int(id2), Value::Int(i), Value::Int(id2 % 30)],
            )
            .unwrap();
            db.execute_prepared(
                &ins3,
                &[Value::Int(id2 * 2), Value::Int(id2), Value::Int(id2 % 9)],
            )
            .unwrap();
            db.execute_prepared(
                &insa,
                &[Value::Int(i), Value::Int(id2), Value::Bool(id2 % 5 == 0)],
            )
            .unwrap();
        }
    }
    db
}

// ---------------------------------------------------------------------
// EXPLAIN golden shapes
// ---------------------------------------------------------------------

#[test]
fn cascading_delete_children_lookup_uses_index_scan() {
    let mut db = edge_db();
    // The trigger body the translation layer emits for cascading
    // deletes: child lookup by indexed parentId.
    let plan = explain(&mut db, "EXPLAIN DELETE FROM n2 WHERE parentId = 7");
    assert!(
        plan.contains("IndexScan n2 (parentId = 7)"),
        "child delete should probe the parentId index:\n{plan}"
    );
}

#[test]
fn asr_descendant_lookup_uses_index_scan() {
    let mut db = edge_db();
    // ASR maintenance: delete closure rows whose id is named by a
    // marked-descendant subquery — an indexed IN probe, not a scan.
    let plan = explain(
        &mut db,
        "EXPLAIN DELETE FROM asr WHERE id IN (SELECT descendant FROM asr WHERE mark = TRUE)",
    );
    assert!(
        plan.contains("IndexScan asr (id IN (subquery))"),
        "ASR descendant delete should probe the id index:\n{plan}"
    );
    // SELECT-side descendant lookup makes the same choice.
    let plan = explain(
        &mut db,
        "EXPLAIN SELECT num FROM n1 WHERE id IN (SELECT id FROM asr WHERE mark = TRUE)",
    );
    assert!(
        plan.contains("IndexScan n1 (id IN (subquery))"),
        "descendant select should probe the id index:\n{plan}"
    );
}

#[test]
fn garbage_collect_not_in_stays_seq_scan() {
    let mut db = edge_db();
    // `NOT IN` cannot be answered by an index probe; it must remain a
    // sequential scan with the predicate pushed into it.
    let plan = explain(
        &mut db,
        "EXPLAIN DELETE FROM n2 WHERE parentId NOT IN (SELECT id FROM n1)",
    );
    assert!(
        plan.contains("SeqScan n2"),
        "NOT IN delete must fall back to a sequential scan:\n{plan}"
    );
    assert!(!plan.contains("IndexScan"), "no index applies:\n{plan}");
}

#[test]
fn outer_union_join_uses_index_join() {
    let mut db = edge_db();
    // The outer-union reconstruction shape from the shredder:
    // `FROM Q P, child T WHERE T.parentId = P.C1` with Q a CTE. The
    // child's parentId index answers each parent's children.
    let plan = explain(
        &mut db,
        "EXPLAIN WITH Q1(C1) AS (SELECT id FROM n1 WHERE num < 10) \
         SELECT T.id, T.num FROM Q1 P, n2 T WHERE T.parentId = P.C1",
    );
    assert!(
        plan.contains("IndexJoin (T.parentId = P.C1)"),
        "outer-union reconstruction should index join:\n{plan}"
    );
    assert!(
        plan.contains("IndexScan n2 (parentId = P.C1) AS T"),
        "{plan}"
    );
    assert!(plan.contains("CteScan Q1 AS P"), "{plan}");
    // Three-way chain joins probe at every level.
    let plan = explain(
        &mut db,
        "EXPLAIN SELECT n3.id FROM n1, n2, n3 \
         WHERE n2.parentId = n1.id AND n3.parentId = n2.id AND n1.num < 10",
    );
    assert!(plan.contains("IndexJoin (n2.parentId = n1.id)"), "{plan}");
    assert!(plan.contains("IndexJoin (n3.parentId = n2.id)"), "{plan}");
    assert!(
        plan.contains("SeqScan n1 [filter: (n1.num < 10)]"),
        "single-binding predicate should be pushed into the n1 scan:\n{plan}"
    );
}

#[test]
fn explain_renders_for_prepared_and_adhoc() {
    let mut db = edge_db();
    // Ad-hoc text.
    let plan = explain(&mut db, "EXPLAIN SELECT id FROM n1 WHERE id = 3");
    assert!(plan.contains("IndexScan n1 (id = 3)"), "{plan}");
    // Prepared with a bound parameter: the key renders as its slot.
    let p = db
        .prepare("EXPLAIN SELECT id FROM n1 WHERE id = $1")
        .unwrap();
    let rs = db.query_prepared(&p, &[Value::Int(3)]).unwrap();
    let text = rs
        .rows
        .iter()
        .map(|r| match &r[0] {
            Value::Str(s) => s.clone(),
            other => panic!("{other:?}"),
        })
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("IndexScan n1 (id = $1)"), "{text}");
}

#[test]
fn explain_shapes_for_sort_limit_union_aggregate() {
    let mut db = edge_db();
    let plan = explain(
        &mut db,
        "EXPLAIN (SELECT id FROM n1) UNION ALL (SELECT id FROM n2) ORDER BY id DESC LIMIT 5",
    );
    assert!(plan.contains("Limit 5"), "{plan}");
    assert!(plan.contains("Sort [#1 DESC]"), "{plan}");
    assert!(plan.contains("UnionAll"), "{plan}");
    let plan = explain(&mut db, "EXPLAIN SELECT COUNT(*), MAX(num) FROM n2");
    assert!(plan.contains("Aggregate [COUNT(*), MAX(num)]"), "{plan}");
    let plan = explain(&mut db, "EXPLAIN SELECT DISTINCT parentId FROM n2");
    assert!(plan.contains("Distinct"), "{plan}");
}

// ---------------------------------------------------------------------
// LIMIT pushdown
// ---------------------------------------------------------------------

#[test]
fn limit_one_scans_few_rows() {
    let mut db = edge_db(); // n3 holds 160 rows
    db.reset_stats();
    let rs = db.query("SELECT id FROM n3 LIMIT 1").unwrap();
    assert_eq!(rs.rows.len(), 1);
    let scanned = db.stats().rows_scanned;
    assert!(
        scanned <= 2,
        "LIMIT 1 should stop the scan after the first row, scanned {scanned}"
    );
    // An ORDER BY blocks the pushdown: every row must be seen to sort.
    db.reset_stats();
    db.query("SELECT id FROM n3 ORDER BY num LIMIT 1").unwrap();
    assert!(
        db.stats().rows_scanned >= 160,
        "ORDER BY LIMIT must still scan everything, scanned {}",
        db.stats().rows_scanned
    );
}

#[test]
fn limit_zero_returns_nothing() {
    let mut db = edge_db();
    db.reset_stats();
    let rs = db.query("SELECT id FROM n3 LIMIT 0").unwrap();
    assert!(rs.rows.is_empty());
    assert_eq!(db.stats().rows_scanned, 0);
}

// ---------------------------------------------------------------------
// Plan caching across executions and DDL
// ---------------------------------------------------------------------

#[test]
fn repeated_select_compiles_once() {
    let mut db = edge_db();
    db.reset_stats();
    for _ in 0..5 {
        db.query("SELECT id FROM n1 WHERE id = 3").unwrap();
    }
    assert_eq!(
        db.stats().plans_built,
        1,
        "same SQL text should reuse the cached physical plan"
    );
}

#[test]
fn ddl_forces_replan_and_new_access_path() {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE t (id INTEGER, num INTEGER);
         INSERT INTO t VALUES (1, 10), (2, 20), (3, 30);",
    )
    .unwrap();
    let plan = explain(&mut db, "EXPLAIN SELECT num FROM t WHERE id = 2");
    assert!(plan.contains("SeqScan t"), "no index yet:\n{plan}");
    let sql = "SELECT num FROM t WHERE id = 2";
    assert_eq!(db.query(sql).unwrap().rows, vec![vec![Value::Int(20)]]);
    db.reset_stats();
    db.query(sql).unwrap();
    assert_eq!(db.stats().plans_built, 0, "still cached");
    // DDL bumps the schema epoch; the next execution replans and now
    // picks the index.
    db.execute("CREATE INDEX t_id ON t (id)").unwrap();
    db.reset_stats();
    assert_eq!(db.query(sql).unwrap().rows, vec![vec![Value::Int(20)]]);
    assert_eq!(db.stats().plans_built, 1, "DDL must invalidate the plan");
    assert_eq!(db.stats().index_scans, 1, "replanned query uses the index");
    let plan = explain(&mut db, "EXPLAIN SELECT num FROM t WHERE id = 2");
    assert!(plan.contains("IndexScan t (id = 2)"), "{plan}");
}

#[test]
fn prepared_statement_replans_after_ddl() {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE t (id INTEGER, num INTEGER);
         INSERT INTO t VALUES (1, 10), (2, 20);",
    )
    .unwrap();
    let p = db.prepare("SELECT num FROM t WHERE id = $1").unwrap();
    assert_eq!(
        db.query_prepared(&p, &[Value::Int(2)]).unwrap().rows,
        vec![vec![Value::Int(20)]]
    );
    db.execute("CREATE INDEX t_id ON t (id)").unwrap();
    db.reset_stats();
    // The handle survives the DDL and its next execution replans onto
    // the new index.
    assert_eq!(
        db.query_prepared(&p, &[Value::Int(2)]).unwrap().rows,
        vec![vec![Value::Int(20)]]
    );
    assert_eq!(db.stats().plans_built, 1);
    assert_eq!(db.stats().index_scans, 1);
    db.reset_stats();
    db.query_prepared(&p, &[Value::Int(1)]).unwrap();
    assert_eq!(db.stats().plans_built, 0, "replanned slot is reused");
}

// ---------------------------------------------------------------------
// Planned vs naive A/B equivalence
// ---------------------------------------------------------------------

#[test]
fn planned_results_match_naive_interpretation() {
    let queries = [
        "SELECT id, num FROM n1 WHERE num < 25 ORDER BY id",
        "SELECT n2.id FROM n1, n2 WHERE n2.parentId = n1.id AND n1.num < 10 ORDER BY n2.id",
        "SELECT n3.id FROM n1, n2, n3 \
         WHERE n2.parentId = n1.id AND n3.parentId = n2.id AND n1.num < 20 ORDER BY n3.id",
        "SELECT id FROM n2 WHERE parentId NOT IN (SELECT id FROM n1 WHERE num < 25) ORDER BY id",
        "SELECT num FROM n1 WHERE id IN (SELECT id FROM asr WHERE mark = TRUE) ORDER BY num, id",
        "SELECT COUNT(*), MIN(num), MAX(num), SUM(num) FROM n2 WHERE parentId < 12",
        "SELECT DISTINCT parentId FROM n3 ORDER BY parentId DESC LIMIT 7",
        "WITH Q1(C1) AS (SELECT id FROM n1 WHERE num < 15) \
         SELECT T.id, T.num FROM Q1 P, n2 T WHERE T.parentId = P.C1 ORDER BY T.id",
        "(SELECT id FROM n1 WHERE num < 5) UNION ALL (SELECT id FROM n2 WHERE num < 5) ORDER BY 1",
        "SELECT A.id, B.id FROM n2 A, n2 B WHERE A.parentId = B.parentId AND A.id < B.id \
         ORDER BY A.id, B.id LIMIT 20",
        "SELECT id FROM n1 WHERE EXISTS (SELECT * FROM n2 WHERE num > 28) ORDER BY id LIMIT 3",
        "SELECT id, num FROM n2 ORDER BY num DESC, id LIMIT 9",
    ];
    let planned = edge_db();
    let mut naive = edge_db();
    naive.set_planner_naive(true);
    for sql in queries {
        let a = planned.query(sql).unwrap();
        let b = naive.query(sql).unwrap();
        assert_eq!(a.columns, b.columns, "columns diverge for `{sql}`");
        assert_eq!(a.rows, b.rows, "rows diverge for `{sql}`");
    }
    // The planned side actually used its machinery.
    let s = planned.stats();
    assert!(
        s.hash_join_builds > 0 || s.index_lookups > 0,
        "no joins built or probed: {s:?}"
    );
    assert!(s.predicates_pushed > 0, "no predicates pushed: {s:?}");
    assert!(s.index_scans > 0, "no index scans chosen: {s:?}");
    // The naive side still hash joins (the interpreter did) but never
    // pushes predicates or chooses index scans.
    let s = naive.stats();
    assert!(s.hash_join_builds > 0);
    assert_eq!(s.predicates_pushed, 0);
    assert_eq!(s.index_scans, 0);
}

#[test]
fn index_joins_match_naive_interpretation() {
    // The sorted outer union (Figure 5) over the edge fixture: one CTE
    // per level, each child CTE joining its parent's CTE through the
    // child's parentId index (n2_parent, then n3_parent).
    let outer_union = "WITH \
        Q1(C1, C2, C3, C4, C5, C6) AS \
          (SELECT T.id, T.num, NULL, NULL, NULL, NULL FROM n1 T WHERE T.num < 20), \
        Q2(C1, C2, C3, C4, C5, C6) AS \
          (SELECT P.C1, NULL, T.id, T.num, NULL, NULL FROM Q1 P, n2 T WHERE T.parentId = P.C1), \
        Q3(C1, C2, C3, C4, C5, C6) AS \
          (SELECT P.C1, NULL, P.C3, NULL, T.id, T.num FROM Q2 P, n3 T WHERE T.parentId = P.C3) \
        (SELECT * FROM Q1) UNION ALL (SELECT * FROM Q2) UNION ALL (SELECT * FROM Q3)";
    let sorted = format!("{outer_union} ORDER BY C1, C3, C5");
    // No ORDER BY on most of them: an index join emits each bucket in
    // slot order, as the hash join it replaces did, so even row order
    // must agree.
    let queries = [
        outer_union,
        &sorted,
        "SELECT T.id, T.num FROM n1 P, n2 T WHERE T.parentId = P.id AND P.num < 30",
        "SELECT T.id FROM n1 P, n2 T WHERE T.parentId = P.id AND T.num > 10",
        "SELECT T.id FROM n2 P, n3 T WHERE T.parentId = P.id AND T.num + P.num > 12",
        "SELECT A.id, B.id FROM n2 A, n2 B WHERE B.parentId = A.parentId AND A.num < 8",
        "SELECT T.id FROM n1 P, n2 T WHERE T.parentId = P.id AND T.parentId = 3",
    ];
    let mut planned = edge_db();
    let mut naive = edge_db();
    naive.set_planner_naive(true);
    for sql in queries {
        let a = planned.query(sql).unwrap();
        let b = naive.query(sql).unwrap();
        assert!(!a.rows.is_empty(), "vacuous: `{sql}`");
        assert_eq!(a.columns, b.columns, "columns diverge for `{sql}`");
        assert_eq!(a.rows, b.rows, "rows diverge for `{sql}`");
    }
    let plan = explain(&mut planned, &format!("EXPLAIN {outer_union}"));
    assert!(plan.contains("IndexJoin (T.parentId = P.C1)"), "{plan}");
    assert!(plan.contains("IndexJoin (T.parentId = P.C3)"), "{plan}");
    assert!(!plan.contains("HashJoin"), "{plan}");
    // An inner side with its own literal probe keeps it and hash joins.
    let plan = explain(
        &mut planned,
        "EXPLAIN SELECT T.id FROM n1 P, n2 T WHERE T.parentId = P.id AND T.parentId = 3",
    );
    assert!(plan.contains("HashJoin (T.parentId = P.id)"), "{plan}");
    assert!(plan.contains("IndexScan n2 (parentId = 3) AS T"), "{plan}");
    assert!(planned.stats().index_lookups > 0);
    let s = naive.stats();
    assert!(s.hash_join_builds > 0, "{s:?}");
    assert_eq!(s.index_lookups, 0, "the oracle never probes: {s:?}");
}

#[test]
fn planner_errors_match_interpreter_shapes() {
    let db = edge_db();
    // Unknown table / column errors still surface from planning.
    assert!(db.query("SELECT * FROM nosuch").is_err());
    assert!(db.query("SELECT nosuch FROM n1").is_err());
    assert!(db
        .query("SELECT id FROM n1, n2 WHERE num = 1")
        .unwrap_err()
        .to_string()
        .contains("ambiguous"));
    assert!(db
        .query("SELECT id FROM n1 A, n2 A")
        .unwrap_err()
        .to_string()
        .contains("duplicate binding"));
    assert!(db
        .query("SELECT id FROM n1 ORDER BY 99")
        .unwrap_err()
        .to_string()
        .contains("out of range"));
    // Non-boolean WHERE must still error even though the planner pushes
    // the predicate into the scan.
    assert!(db
        .query("SELECT id FROM n1 WHERE 1")
        .unwrap_err()
        .to_string()
        .contains("expected boolean"));
}

#[test]
fn trigger_cascade_unchanged_by_planner() {
    // The cascading-delete path (DML + triggers + ASR bookkeeping) must
    // behave identically: same survivors, same firing counts.
    let script = "CREATE TABLE parent (id INTEGER);
         CREATE TABLE child (id INTEGER, parentId INTEGER);
         CREATE INDEX c_parent ON child (parentId);
         CREATE TRIGGER cas AFTER DELETE ON parent FOR EACH ROW BEGIN
           DELETE FROM child WHERE parentId = OLD.id;
         END;
         INSERT INTO parent VALUES (1), (2), (3);
         INSERT INTO child VALUES (10, 1), (11, 1), (12, 2), (13, 3);";
    let run = |naive: bool| {
        let mut db = Database::new();
        if naive {
            db.set_planner_naive(true);
        }
        db.run_script(script).unwrap();
        db.execute("DELETE FROM parent WHERE id = 1").unwrap();
        let left = db.query("SELECT id FROM child ORDER BY id").unwrap();
        (
            left.rows,
            db.stats().trigger_firings,
            db.stats().rows_deleted,
        )
    };
    assert_eq!(run(false), run(true));
}

// ---------------------------------------------------------------------
// Cost-based planner v2: statistics, range seeks, ORDER BY pushdown
// ---------------------------------------------------------------------

/// The edge fixture plus an ordered index on `n1(num)` and fresh
/// statistics on every table.
fn ordered_db() -> Database {
    let mut db = edge_db();
    db.run_script("CREATE INDEX n1_num ON n1 (num); ANALYZE;")
        .unwrap();
    db
}

/// A Shared-Inlining-shaped shredding: the shared element is inlined
/// into one wide table, set-valued children overflow into their own.
fn inlined_db() -> Database {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE book (id INTEGER, title VARCHAR(20), year INTEGER);
         CREATE TABLE author (bookId INTEGER, pos INTEGER, name VARCHAR(20));
         CREATE INDEX book_id ON book (id);
         CREATE INDEX author_book ON author (bookId);
         CREATE INDEX book_title ON book (title);
         CREATE INDEX book_year ON book (year);",
    )
    .unwrap();
    let insb = db.prepare("INSERT INTO book VALUES ($1, $2, $3)").unwrap();
    let insa = db
        .prepare("INSERT INTO author VALUES ($1, $2, $3)")
        .unwrap();
    let stems = ["data", "query", "xml", "tree", "index", "join"];
    for i in 0..60i64 {
        let title = format!("{}-{:02}", stems[i as usize % stems.len()], i);
        db.execute_prepared(
            &insb,
            &[Value::Int(i), Value::Str(title), Value::Int(1990 + i % 12)],
        )
        .unwrap();
        for j in 0..(i % 3) {
            db.execute_prepared(
                &insa,
                &[
                    Value::Int(i),
                    Value::Int(j),
                    Value::Str(format!("author-{}", (i * 3 + j) % 20)),
                ],
            )
            .unwrap();
        }
    }
    db.execute("ANALYZE").unwrap();
    db
}

#[test]
fn range_predicate_uses_range_seek() {
    let mut db = ordered_db();
    let plan = explain(
        &mut db,
        "EXPLAIN SELECT id FROM n1 WHERE num > 10 AND num <= 20",
    );
    assert!(
        plan.contains("RangeScan n1 (num > 10 AND num <= 20)"),
        "bounded predicate on the ordered column should seek:\n{plan}"
    );
    assert!(
        plan.contains("est rows="),
        "analyzed table should render a statistics estimate:\n{plan}"
    );
    db.reset_stats();
    let rs = db
        .query("SELECT id FROM n1 WHERE num > 10 AND num <= 20 ORDER BY id")
        .unwrap();
    assert!(!rs.rows.is_empty());
    let s = db.stats();
    assert!(s.range_seeks >= 1, "no range seek recorded: {s:?}");
    assert!(
        s.rows_scanned < 40,
        "seek should touch only the in-range slice, scanned {}",
        s.rows_scanned
    );
    // Same rows as the unindexed predicate evaluation.
    let mut naive = edge_db();
    naive.set_planner_naive(true);
    let expect = naive
        .query("SELECT id FROM n1 WHERE num > 10 AND num <= 20 ORDER BY id")
        .unwrap();
    assert_eq!(rs.rows, expect.rows);
}

#[test]
fn ordered_index_elides_sort_for_order_by_limit() {
    let mut db = ordered_db();
    let plan = explain(
        &mut db,
        "EXPLAIN SELECT id, num FROM n1 ORDER BY num LIMIT 3",
    );
    assert!(
        plan.contains("OrderedScan n1 (num)"),
        "ORDER BY on the ordered column should walk the index:\n{plan}"
    );
    assert!(!plan.contains("Sort"), "sort must be elided:\n{plan}");
    db.reset_stats();
    let rs = db
        .query("SELECT id, num FROM n1 ORDER BY num LIMIT 3")
        .unwrap();
    assert_eq!(rs.rows.len(), 3);
    let s = db.stats();
    assert!(s.sorts_elided >= 1, "elision not recorded: {s:?}");
    assert!(s.ordered_index_scans >= 1, "{s:?}");
    assert!(
        s.rows_scanned <= 5,
        "elided ORDER BY LIMIT 3 should pull O(k) rows, scanned {}",
        s.rows_scanned
    );
    // DESC walks the index backwards and still skips the sort.
    let plan = explain(
        &mut db,
        "EXPLAIN SELECT id, num FROM n1 ORDER BY num DESC LIMIT 3",
    );
    assert!(plan.contains("OrderedScan n1 (num DESC)"), "{plan}");
    assert!(!plan.contains("Sort"), "{plan}");
    // Both directions agree with a full stable sort.
    let mut naive = edge_db();
    naive.set_planner_naive(true);
    for sql in [
        "SELECT id, num FROM n1 ORDER BY num LIMIT 3",
        "SELECT id, num FROM n1 ORDER BY num DESC LIMIT 3",
        "SELECT id, num FROM n1 ORDER BY num",
        "SELECT id, num FROM n1 ORDER BY num DESC",
    ] {
        assert_eq!(
            db.query(sql).unwrap().rows,
            naive.query(sql).unwrap().rows,
            "rows diverge for `{sql}`"
        );
    }
}

#[test]
fn order_by_without_ordered_index_still_sorts() {
    // n2.num carries no index: the planner must keep the sort.
    let mut db = ordered_db();
    let plan = explain(&mut db, "EXPLAIN SELECT id FROM n2 ORDER BY num LIMIT 3");
    assert!(plan.contains("Sort"), "{plan}");
    db.reset_stats();
    db.query("SELECT id FROM n2 ORDER BY num LIMIT 3").unwrap();
    assert_eq!(db.stats().sorts_elided, 0);
}

#[test]
fn top_k_limit_matches_full_sort_prefix() {
    let db = edge_db(); // no ordered index: the heap path, not elision
                        // n2.num = id % 30 over 160 rows — heavy ties, so the top-k pass
                        // must reproduce the stable sort's tie order exactly.
    let full = db.query("SELECT id, num FROM n2 ORDER BY num").unwrap();
    for k in [0usize, 1, 7, 40, 159, 160, 500] {
        let rs = db
            .query(&format!("SELECT id, num FROM n2 ORDER BY num LIMIT {k}"))
            .unwrap();
        assert_eq!(
            rs.rows,
            full.rows[..k.min(full.rows.len())],
            "LIMIT {k} diverges from the stable-sort prefix"
        );
    }
    let full = db
        .query("SELECT id, num FROM n2 ORDER BY num DESC")
        .unwrap();
    let rs = db
        .query("SELECT id, num FROM n2 ORDER BY num DESC LIMIT 11")
        .unwrap();
    assert_eq!(rs.rows, full.rows[..11]);
}

#[test]
fn like_prefix_uses_range_seek() {
    let mut db = inlined_db();
    let plan = explain(
        &mut db,
        "EXPLAIN SELECT id FROM book WHERE title LIKE 'xml%'",
    );
    assert!(
        plan.contains("RangeScan book"),
        "LIKE prefix should seek the ordered title index:\n{plan}"
    );
    db.reset_stats();
    let rs = db
        .query("SELECT id FROM book WHERE title LIKE 'xml%' ORDER BY id")
        .unwrap();
    assert_eq!(rs.rows.len(), 10, "60 books, every 6th titled xml-*");
    assert!(db.stats().range_seeks >= 1);
    assert!(
        db.stats().rows_scanned < 60,
        "prefix seek should not scan the whole table, scanned {}",
        db.stats().rows_scanned
    );
    // A leading wildcard cannot seek.
    let plan = explain(
        &mut db,
        "EXPLAIN SELECT id FROM book WHERE title LIKE '%-05'",
    );
    assert!(plan.contains("SeqScan book"), "{plan}");
}

#[test]
fn analyzed_joins_reorder_by_selectivity() {
    let mut db = edge_db();
    db.execute("ANALYZE").unwrap();
    // FROM lists the big unfiltered table first; statistics say the
    // filtered n1 (≈4 of 40 rows) should be scanned first instead.
    let plan = explain(
        &mut db,
        "EXPLAIN SELECT n2.id FROM n2, n1 WHERE n2.parentId = n1.id AND n1.num < 5",
    );
    let p1 = plan.find("Scan n1").expect("n1 scanned");
    let p2 = plan.find("Scan n2").expect("n2 scanned");
    assert!(p1 < p2, "selective n1 should be placed before n2:\n{plan}");
    // Without statistics the FROM order is kept.
    let mut fresh = edge_db();
    let plan = explain(
        &mut fresh,
        "EXPLAIN SELECT n2.id FROM n2, n1 WHERE n2.parentId = n1.id AND n1.num < 5",
    );
    let p1 = plan.find("Scan n1").expect("n1 scanned");
    let p2 = plan.find("Scan n2").expect("n2 scanned");
    assert!(p2 < p1, "unanalyzed join must keep FROM order:\n{plan}");
}

#[test]
fn planner_v2_battery_matches_naive_on_edge_shredding() {
    let queries = [
        "SELECT id FROM n1 WHERE num > 10 AND num <= 30 ORDER BY id",
        "SELECT id FROM n1 WHERE num BETWEEN 5 AND 25 ORDER BY id",
        "SELECT id FROM n1 WHERE num >= 45 ORDER BY id DESC",
        "SELECT id FROM n1 WHERE num IS NULL ORDER BY id",
        "SELECT id, num FROM n1 ORDER BY num LIMIT 5",
        "SELECT id, num FROM n1 ORDER BY num DESC LIMIT 5",
        "SELECT id, num FROM n1 ORDER BY num",
        "SELECT n2.id FROM n2, n1 WHERE n2.parentId = n1.id AND n1.num > 30 ORDER BY n2.id",
        "SELECT * FROM n2, n1 WHERE n2.parentId = n1.id AND n1.num < 5 ORDER BY n2.id",
        "SELECT n3.id FROM n3, n2, n1 \
         WHERE n2.parentId = n1.id AND n3.parentId = n2.id AND n1.num < 20 ORDER BY n3.id",
        "SELECT COUNT(*) FROM n1 WHERE num > 10 AND num <= 30",
        "SELECT id FROM n1 WHERE num > 10 ORDER BY num LIMIT 4",
    ];
    let mut planned = edge_db();
    planned
        .run_script("CREATE INDEX n1_num ON n1 (num); ANALYZE;")
        .unwrap();
    let mut naive = edge_db();
    naive
        .run_script("CREATE INDEX n1_num ON n1 (num); ANALYZE;")
        .unwrap();
    naive.set_planner_naive(true);
    planned.reset_stats();
    naive.reset_stats();
    for sql in queries {
        let a = planned.query(sql).unwrap();
        let b = naive.query(sql).unwrap();
        assert_eq!(a.columns, b.columns, "columns diverge for `{sql}`");
        assert_eq!(a.rows, b.rows, "rows diverge for `{sql}`");
    }
    let s = planned.stats();
    assert!(s.range_seeks > 0, "battery never range-seeked: {s:?}");
    assert!(s.ordered_index_scans > 0, "{s:?}");
    assert!(s.sorts_elided > 0, "{s:?}");
    let s = naive.stats();
    assert_eq!(s.range_seeks, 0, "naive side must not seek: {s:?}");
    assert_eq!(s.ordered_index_scans, 0, "{s:?}");
    assert_eq!(s.sorts_elided, 0, "{s:?}");
}

#[test]
fn planner_v2_battery_matches_naive_on_inlined_shredding() {
    let queries = [
        "SELECT id, title FROM book WHERE title LIKE 'data%' ORDER BY id",
        "SELECT id FROM book WHERE title LIKE '%-1%' ORDER BY id",
        "SELECT id FROM book WHERE title NOT LIKE 'xml%' ORDER BY id",
        "SELECT id, year FROM book WHERE year BETWEEN 1995 AND 1999 ORDER BY id",
        "SELECT id, title FROM book ORDER BY title LIMIT 8",
        "SELECT id, title FROM book ORDER BY title DESC LIMIT 8",
        "SELECT b.id, a.name FROM author a, book b \
         WHERE a.bookId = b.id AND b.year > 1998 ORDER BY b.id, a.pos",
        "SELECT COUNT(*) FROM book WHERE title LIKE 'tree%'",
        "SELECT title FROM book WHERE year >= 2000 ORDER BY year, id LIMIT 6",
    ];
    let planned = inlined_db();
    let mut naive = inlined_db();
    naive.set_planner_naive(true);
    for sql in queries {
        let a = planned.query(sql).unwrap();
        let b = naive.query(sql).unwrap();
        assert_eq!(a.columns, b.columns, "columns diverge for `{sql}`");
        assert_eq!(a.rows, b.rows, "rows diverge for `{sql}`");
    }
}

#[test]
fn statistics_survive_checkpoint_and_recovery() {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "xmlup-planner-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    {
        let mut db = Database::open(&dir).unwrap();
        db.run_script(
            "CREATE TABLE t (id INTEGER, num INTEGER);
             CREATE INDEX t_num ON t (num);",
        )
        .unwrap();
        let ins = db.prepare("INSERT INTO t VALUES ($1, $2)").unwrap();
        for i in 0..50i64 {
            db.execute_prepared(&ins, &[Value::Int(i), Value::Int(i % 10)])
                .unwrap();
        }
        db.execute("ANALYZE t").unwrap();
        db.checkpoint().unwrap();
    }
    let mut db = Database::open(&dir).unwrap();
    // The recovered statistics still drive the plan: est rows render
    // and the ordered index still answers the range.
    let plan = explain(&mut db, "EXPLAIN SELECT id FROM t WHERE num > 7");
    assert!(plan.contains("RangeScan t (num > 7)"), "{plan}");
    assert!(plan.contains("est rows="), "{plan}");
    let rs = db.query("SELECT COUNT(*) FROM t WHERE num > 7").unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Int(10)]]);
    let _ = std::fs::remove_dir_all(&dir);
}
