//! Plan-cache invalidation by the statistics subsystem: `ANALYZE` and
//! `CREATE INDEX ...` are epoch-bumping DDL, so every
//! cached plan — text-keyed and prepared — must replan and may change
//! its access path.

use xmlup_rdb::{Database, Value};

fn explain(db: &mut Database, sql: &str) -> String {
    let rs = db.query(sql).unwrap();
    rs.rows
        .iter()
        .map(|r| match &r[0] {
            Value::Str(s) => s.as_str().to_string(),
            other => panic!("EXPLAIN row is not a string: {other:?}"),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn seeded_db() -> Database {
    let mut db = Database::new();
    db.run_script("CREATE TABLE t (id INTEGER, num INTEGER);")
        .unwrap();
    let ins = db.prepare("INSERT INTO t VALUES ($1, $2)").unwrap();
    for i in 0..100i64 {
        db.execute_prepared(&ins, &[Value::Int(i), Value::Int(i % 25)])
            .unwrap();
    }
    db
}

#[test]
fn analyze_invalidates_cached_plans() {
    let mut db = seeded_db();
    let sql = "SELECT id FROM t WHERE num > 20";
    db.query(sql).unwrap();
    db.reset_stats();
    db.query(sql).unwrap();
    let s = db.stats();
    assert_eq!(s.plans_built, 0, "second run must hit the cache: {s:?}");
    assert_eq!(s.plan_cache_hits, 1, "{s:?}");
    // ANALYZE rebuilds statistics and bumps the schema epoch: the very
    // next execution replans against them.
    db.execute("ANALYZE t").unwrap();
    assert_eq!(db.stats().stats_rebuilds, 1, "ANALYZE rebuilds stats");
    db.reset_stats();
    db.query(sql).unwrap();
    let s = db.stats();
    assert_eq!(s.plans_built, 1, "ANALYZE must invalidate the plan: {s:?}");
    // The replanned query is statistics-aware: plain EXPLAIN now shows
    // an estimated cardinality it could not have shown before.
    let plan = explain(&mut db, "EXPLAIN SELECT id FROM t WHERE num > 20");
    assert!(plan.contains("est rows="), "{plan}");
}

#[test]
fn ordered_index_ddl_invalidates_cached_plans() {
    let mut db = seeded_db();
    let sql = "SELECT id FROM t WHERE num > 20";
    let plan = explain(&mut db, "EXPLAIN SELECT id FROM t WHERE num > 20");
    assert!(plan.contains("SeqScan t"), "no index yet:\n{plan}");
    db.query(sql).unwrap();
    db.reset_stats();
    db.query(sql).unwrap();
    assert_eq!(db.stats().plans_built, 0, "cached");
    // The ordered index arrives; the cached plan is stale and the next
    // execution switches to a range seek.
    db.execute("CREATE INDEX t_num ON t (num)").unwrap();
    db.reset_stats();
    let rs = db.query(sql).unwrap();
    assert_eq!(rs.rows.len(), 16, "num in 21..25 over 100 rows");
    let s = db.stats();
    assert_eq!(s.plans_built, 1, "ordered-index DDL must replan: {s:?}");
    assert!(s.range_seeks >= 1, "replanned query should seek: {s:?}");
    let plan = explain(&mut db, "EXPLAIN SELECT id FROM t WHERE num > 20");
    assert!(plan.contains("RangeScan t (num > 20)"), "{plan}");
}

#[test]
fn prepared_statement_replans_after_analyze_and_ordered_index() {
    let mut db = seeded_db();
    let p = db
        .prepare("SELECT id FROM t WHERE num > $1 ORDER BY id")
        .unwrap();
    let before = db.query_prepared(&p, &[Value::Int(20)]).unwrap();
    db.reset_stats();
    db.query_prepared(&p, &[Value::Int(20)]).unwrap();
    assert_eq!(db.stats().plans_built, 0, "prepared slot reused");
    db.execute("CREATE INDEX t_num ON t (num)").unwrap();
    db.execute("ANALYZE t").unwrap();
    db.reset_stats();
    let after = db.query_prepared(&p, &[Value::Int(20)]).unwrap();
    let s = db.stats();
    assert_eq!(
        s.plans_built, 1,
        "prepared handle replans once after the epoch bump: {s:?}"
    );
    assert_eq!(before.rows, after.rows, "same rows either way");
    db.reset_stats();
    db.query_prepared(&p, &[Value::Int(20)]).unwrap();
    assert_eq!(db.stats().plans_built, 0, "replanned slot is reused again");
}
