//! Observability tests: EXPLAIN ANALYZE goldens, histogram bucket math,
//! metrics-text format stability, trace-JSON schema, the slow-query
//! log, and the regression that tracing state never perturbs engine
//! counters.

use std::time::Duration;
use xmlup_rdb::{obs, Database, Value};

/// Collect an EXPLAIN/EXPLAIN ANALYZE result as one string. Goes
/// through the `&mut` statement funnel because `EXPLAIN ANALYZE` over
/// DML executes (and so mutates); the read-only `query` path rejects it.
fn explain(db: &mut Database, sql: &str) -> String {
    let rs = db.query_mut(sql).unwrap();
    rs.rows
        .iter()
        .map(|r| match &r[0] {
            Value::Str(s) => s.as_str(),
            other => panic!("EXPLAIN row is not a string: {other:?}"),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Replace every measured duration with `X` so goldens are
/// deterministic: `time=…)` suffixes and the `Execution time:` /
/// `Actual:` trailing times.
fn scrub_times(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find("time=") {
        out.push_str(&rest[..i]);
        out.push_str("time=X");
        let tail = &rest[i + "time=".len()..];
        let end = tail.find([')', '\n']).unwrap_or(tail.len());
        rest = &tail[end..];
    }
    out.push_str(rest);
    out.lines()
        .map(|l| {
            if l.starts_with("Execution time:") {
                "Execution time: X"
            } else {
                l
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Three-level edge forest: 8 roots, 2 children each, 3 grandchildren
/// each, with the shredded-storage index layout. Row counts are exact
/// so per-operator actuals are predictable.
fn forest_db() -> Database {
    forest(
        "CREATE INDEX n1_id ON n1 (id);
         CREATE INDEX n2_parent ON n2 (parentId);
         CREATE INDEX n3_parent ON n3 (parentId);",
    )
}

/// The forest rows under the given index DDL.
fn forest(indexes: &str) -> Database {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE n1 (id INTEGER, parentId INTEGER, num INTEGER);
         CREATE TABLE n2 (id INTEGER, parentId INTEGER, num INTEGER);
         CREATE TABLE n3 (id INTEGER, parentId INTEGER, num INTEGER);",
    )
    .unwrap();
    db.run_script(indexes).unwrap();
    for i in 0..8i64 {
        db.execute(&format!("INSERT INTO n1 VALUES ({i}, 0, {i})"))
            .unwrap();
        for j in 0..2i64 {
            let id2 = 10 + i * 2 + j;
            db.execute(&format!("INSERT INTO n2 VALUES ({id2}, {i}, {j})"))
                .unwrap();
            for k in 0..3i64 {
                let id3 = id2 * 10 + k;
                db.execute(&format!("INSERT INTO n3 VALUES ({id3}, {id2}, {k})"))
                    .unwrap();
            }
        }
    }
    db
}

// ---------------------------------------------------------------------
// EXPLAIN ANALYZE goldens
// ---------------------------------------------------------------------

const FOREST_CHAIN: &str = "EXPLAIN ANALYZE SELECT n3.id FROM n1, n2, n3 \
     WHERE n2.parentId = n1.id AND n3.parentId = n2.id AND n1.num < 4";

#[test]
fn explain_analyze_hash_join_rows_golden() {
    let mut db = forest_db();
    // 4 roots pass the filter -> 8 n2 rows -> 24 n3 rows. Both children
    // are indexed on parentId, so each join probes once per outer row:
    // loops counts the probes, est rows the average bucket.
    let plan = explain(&mut db, FOREST_CHAIN);
    let expected = "\
Project [id] (actual rows=24 loops=1 time=X)
  IndexJoin (n3.parentId = n2.id) (actual rows=24 loops=1 time=X)
    IndexJoin (n2.parentId = n1.id) (actual rows=8 loops=1 time=X)
      SeqScan n1 [filter: (n1.num < 4)] (est rows=8) (actual rows=4 loops=1 time=X)
      IndexScan n2 (parentId = n1.id) (est rows=2) (actual rows=8 loops=4 time=X)
    IndexScan n3 (parentId = n2.id) (est rows=3) (actual rows=24 loops=8 time=X)
Execution time: X";
    assert_eq!(scrub_times(&plan), expected, "raw plan:\n{plan}");
}

#[test]
fn explain_analyze_hash_join_rows_golden_unindexed() {
    // The same chain without the parentId indexes hashes every child
    // relation once.
    let mut db = forest("CREATE INDEX n1_id ON n1 (id);");
    let plan = explain(&mut db, FOREST_CHAIN);
    let expected = "\
Project [id] (actual rows=24 loops=1 time=X)
  HashJoin (n3.parentId = n2.id) (actual rows=24 loops=1 time=X)
    HashJoin (n2.parentId = n1.id) (actual rows=8 loops=1 time=X)
      SeqScan n1 [filter: (n1.num < 4)] (est rows=8) (actual rows=4 loops=1 time=X)
      SeqScan n2 (est rows=16) (actual rows=16 loops=1 time=X)
    SeqScan n3 (est rows=48) (actual rows=48 loops=1 time=X)
Execution time: X";
    assert_eq!(scrub_times(&plan), expected, "raw plan:\n{plan}");
}

#[test]
fn explain_analyze_index_probe_loop_counts() {
    let mut db = forest_db();
    db.run_script(
        "CREATE TABLE marks (id INTEGER);
         INSERT INTO marks VALUES (1);
         INSERT INTO marks VALUES (2);
         INSERT INTO marks VALUES (5);",
    )
    .unwrap();
    // The IN-subquery probe issues one index lookup per distinct key:
    // loops counts the probes (3), rows the matches (3). The estimate
    // is one row per probe (8 rows over 8 distinct indexed ids).
    let plan = explain(
        &mut db,
        "EXPLAIN ANALYZE SELECT num FROM n1 WHERE id IN (SELECT id FROM marks)",
    );
    let expected = "\
Project [num] (actual rows=3 loops=1 time=X)
  IndexScan n1 (id IN (subquery)) (est rows=1) (actual rows=3 loops=3 time=X)
Execution time: X";
    assert_eq!(scrub_times(&plan), expected, "raw plan:\n{plan}");
}

#[test]
fn explain_analyze_in_list_probe_loop_counts() {
    let mut db = forest_db();
    // A literal IN-list (the batched-DML shape `id IN (…)`) probes the
    // index once per listed value: loops counts the probes, and the
    // plan line names the list width.
    let plan = explain(
        &mut db,
        "EXPLAIN ANALYZE SELECT num FROM n1 WHERE id IN (1, 2, 5)",
    );
    let expected = "\
Project [num] (actual rows=3 loops=1 time=X)
  IndexScan n1 (id IN (3 values)) (est rows=1) (actual rows=3 loops=3 time=X)
Execution time: X";
    assert_eq!(scrub_times(&plan), expected, "raw plan:\n{plan}");
}

#[test]
fn in_list_probe_set_is_built_once_per_statement() {
    let db = forest_db();
    // No index on n3.num, so the IN-list runs as a row filter over all
    // 48 n3 rows — the probe set must still be materialized exactly
    // once for the whole scan, not once per row.
    let before = db.stats().in_list_builds;
    let rs = db
        .query("SELECT id FROM n3 WHERE num IN (0, 2, 7, 9)")
        .unwrap();
    assert_eq!(rs.rows.len(), 32, "two of the four values match");
    assert_eq!(
        db.stats().in_list_builds - before,
        1,
        "probe set rebuilt per row instead of per statement"
    );
}

/// Rows the top operator(s) of an `EXPLAIN ANALYZE` body emitted: the
/// shallowest lines carrying actuals, CTE sections skipped, summed so a
/// `UNION ALL` counts every branch.
fn top_actual_rows(plan: &str) -> u64 {
    let indent = |l: &str| l.len() - l.trim_start().len();
    let mut top: Option<(usize, u64)> = None;
    let mut cte_indent = None;
    for line in plan.lines() {
        if cte_indent.is_some_and(|ci| indent(line) > ci) {
            continue;
        }
        cte_indent = line.trim_start().starts_with("CTE ").then(|| indent(line));
        let Some((_, tail)) = line.split_once("actual rows=") else {
            continue;
        };
        let rows: u64 = tail.split(' ').next().unwrap().parse().unwrap();
        match &mut top {
            Some((ind, sum)) if *ind == indent(line) => *sum += rows,
            Some((ind, _)) if *ind < indent(line) => {}
            _ => top = Some((indent(line), rows)),
        }
    }
    top.expect("plan has no actuals").1
}

#[test]
fn explain_analyze_profiles_the_production_path() {
    let mut db = forest_db();
    db.run_script("CREATE INDEX n3_id ON n3 (id); ANALYZE n3;")
        .unwrap();
    // (query, plan line it must exercise, the same query without its
    // ORDER BY … LIMIT when the limit applies above the profiled tree).
    let battery: [(&str, &str, Option<&str>); 14] = [
        (
            "SELECT n3.id FROM n1, n2, n3 \
             WHERE n2.parentId = n1.id AND n3.parentId = n2.id AND n1.num < 4",
            "IndexJoin",
            None,
        ),
        (
            "SELECT n1.id, n2.id FROM n2, n1 WHERE n1.parentId = n2.parentId AND n2.num = 1",
            "HashJoin",
            None,
        ),
        (
            "SELECT n1.id, n2.id FROM n1, n2 WHERE n1.num = 1",
            "NestedLoop",
            None,
        ),
        (
            "SELECT n2.id FROM n1, n2 WHERE n2.parentId = n1.id AND n1.num + n2.num > 3",
            "Filter",
            None,
        ),
        ("SELECT id FROM n2 WHERE num = 1", "[filter:", None),
        ("SELECT DISTINCT num FROM n3", "Distinct", None),
        (
            "SELECT COUNT(*), MAX(id) FROM n3 WHERE num > 0",
            "Aggregate",
            None,
        ),
        (
            "SELECT id FROM n1 WHERE num < 2 UNION ALL SELECT id FROM n2 WHERE num = 0",
            "UnionAll",
            None,
        ),
        (
            "WITH kids AS (SELECT id, parentId FROM n2 WHERE num = 1) \
             SELECT n1.id, kids.id FROM n1, kids WHERE kids.parentId = n1.id",
            "CTE kids",
            None,
        ),
        ("SELECT id FROM n3 LIMIT 5", "Limit 5", None),
        (
            "SELECT id FROM n1 UNION ALL SELECT id FROM n2 LIMIT 10",
            "Limit 10",
            None,
        ),
        (
            "SELECT id, num FROM n3 WHERE num < 2 ORDER BY num DESC, id LIMIT 4",
            "Sort",
            Some("SELECT id, num FROM n3 WHERE num < 2"),
        ),
        (
            "SELECT num FROM n1 WHERE id IN (1, 2, 5)",
            "IndexScan n1 (id IN (3 values))",
            None,
        ),
        (
            "SELECT num FROM n3 WHERE id >= 100 AND id < 112",
            "RangeScan",
            None,
        ),
    ];
    let work = |s: &xmlup_rdb::Stats| {
        [
            s.rows_scanned,
            s.index_lookups,
            s.seq_scans,
            s.index_scans,
            s.hash_join_builds,
        ]
    };
    let delta = |after: [u64; 5], before: [u64; 5]| -> Vec<u64> {
        after.iter().zip(before).map(|(a, b)| a - b).collect()
    };
    for (sql, must_render, unlimited) in battery {
        let s0 = work(&db.stats());
        let rs = db.query(sql).unwrap();
        let s1 = work(&db.stats());
        let plan = explain(&mut db, &format!("EXPLAIN ANALYZE {sql}"));
        let s2 = work(&db.stats());
        assert!(plan.contains(must_render), "{sql}: wrong shape\n{plan}");
        let emitted = match unlimited {
            Some(q) => db.query(q).unwrap().rows.len(),
            None => rs.rows.len(),
        };
        assert!(emitted > 0, "{sql}: vacuous case");
        assert_eq!(top_actual_rows(&plan), emitted as u64, "{sql}\n{plan}");
        assert_eq!(
            delta(s2, s1),
            delta(s1, s0),
            "{sql}: ANALYZE and the plain run did different work\n{plan}"
        );
    }
}

#[test]
fn explain_analyze_dml_reports_actuals() {
    let mut db = forest_db();
    // Orphan two n2 rows so the garbage-collecting NOT IN delete has
    // real work, then ANALYZE it: the plan lines must match the plain
    // EXPLAIN, plus one Actual: summary line (DML executes for real).
    db.execute("DELETE FROM n1 WHERE id = 3").unwrap();
    let plain = explain(
        &mut db,
        "EXPLAIN DELETE FROM n2 WHERE parentId NOT IN (SELECT id FROM n1)",
    );
    let analyzed = explain(
        &mut db,
        "EXPLAIN ANALYZE DELETE FROM n2 WHERE parentId NOT IN (SELECT id FROM n1)",
    );
    let (head, last) = analyzed.rsplit_once('\n').unwrap();
    assert_eq!(head, plain, "ANALYZE must render the same plan tree");
    let scrubbed = scrub_times(last);
    assert!(
        scrubbed.starts_with("Actual: rows=2 scanned="),
        "two orphaned children deleted: {last}"
    );
    assert!(scrubbed.contains("triggers="), "{last}");
    assert!(scrubbed.ends_with("time=X"), "{last}");
    // And the delete really happened.
    let left = db.query("SELECT COUNT(*) FROM n2").unwrap();
    assert_eq!(left.scalar(), Some(&Value::Int(14)));
}

#[test]
fn plain_explain_has_no_actuals() {
    let mut db = forest_db();
    let plan = explain(
        &mut db,
        "EXPLAIN SELECT n3.id FROM n1, n2, n3 \
         WHERE n2.parentId = n1.id AND n3.parentId = n2.id AND n1.num < 4",
    );
    assert!(!plan.contains("actual"), "{plan}");
    assert!(!plan.contains("est rows"), "{plan}");
    assert!(!plan.contains("Execution time"), "{plan}");
}

// ---------------------------------------------------------------------
// Histogram bucket math
// ---------------------------------------------------------------------

#[test]
fn histogram_bucket_math() {
    assert_eq!(obs::Histogram::bucket_index(0), 0);
    assert_eq!(obs::Histogram::bucket_index(1), 0);
    assert_eq!(obs::Histogram::bucket_index(2), 1);
    assert_eq!(obs::Histogram::bucket_index(3), 1);
    assert_eq!(obs::Histogram::bucket_index(4), 2);
    assert_eq!(obs::Histogram::bucket_index(1023), 9);
    assert_eq!(obs::Histogram::bucket_index(1024), 10);
    assert_eq!(obs::Histogram::bucket_index(u64::MAX), 63);
    assert_eq!(obs::Histogram::bucket_bound(0), 1);
    assert_eq!(obs::Histogram::bucket_bound(1), 3);
    assert_eq!(obs::Histogram::bucket_bound(9), 1023);
    assert_eq!(obs::Histogram::bucket_bound(63), u64::MAX);
    // Every value lands in a bucket whose bound contains it.
    for ns in [0u64, 1, 2, 7, 100, 4096, 1 << 40] {
        let i = obs::Histogram::bucket_index(ns);
        assert!(ns <= obs::Histogram::bucket_bound(i));
        if i > 0 {
            assert!(ns > obs::Histogram::bucket_bound(i - 1));
        }
    }

    let mut h = obs::Histogram::new();
    for ns in [10u64, 20, 30, 40, 1000] {
        h.record(ns);
    }
    assert_eq!(h.count(), 5);
    assert_eq!(h.sum_ns(), 1100);
    assert_eq!(h.max_ns(), 1000);
    // Median sample (30) is in bucket 4 (16..=31): p50 reports its bound.
    assert_eq!(h.p50_ns(), 31);
    // p95 rank is the 5th sample (1000), clamped to the exact max.
    assert_eq!(h.p95_ns(), 1000);
    assert_eq!(h.quantile_ns(0.0), 15, "rank clamps to the first sample");
    let empty = obs::Histogram::new();
    assert_eq!(empty.p50_ns(), 0);
    assert_eq!(empty.p95_ns(), 0);
}

// ---------------------------------------------------------------------
// Metrics registry and Prometheus text
// ---------------------------------------------------------------------

#[test]
fn metrics_text_format_is_stable() {
    let db = forest_db();
    db.query("SELECT COUNT(*) FROM n2").unwrap();
    let text = db.metrics_text();
    // Counter families the dashboards depend on.
    for family in [
        "rdb_rows_scanned_total",
        "rdb_plan_cache_hits_total",
        "rdb_plan_cache_misses_total",
        "rdb_recovered_txns_total",
        "rdb_wal_replayed_bytes_total",
        "rdb_recovery_micros_total",
        "rdb_tables",
        "rdb_plan_cache_entries",
        "rdb_uptime_seconds",
        "rdb_recovery_timestamp_seconds",
        "rdb_statement_tracking_enabled",
        "rdb_tracked_statements",
        "rdb_statement_store_evictions_total",
    ] {
        assert!(
            text.contains(&format!("# TYPE {family} ")),
            "missing TYPE for {family}:\n{text}"
        );
        assert!(
            text.contains(&format!("# HELP {family} ")),
            "missing HELP for {family}:\n{text}"
        );
    }
    // Exposition-format shape: every line is HELP, TYPE, or a sample;
    // HELP/TYPE appear exactly once per family.
    let mut seen_type: Vec<&str> = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let family = rest.split_whitespace().next().unwrap();
            assert!(!seen_type.contains(&family), "duplicate TYPE for {family}");
            seen_type.push(family);
            let kind = rest.split_whitespace().nth(1).unwrap();
            assert!(kind == "counter" || kind == "gauge", "{line}");
        } else if !line.starts_with("# HELP ") && !line.is_empty() {
            let (name_part, value) = line
                .rsplit_once(' ')
                .unwrap_or_else(|| panic!("sample line has no value: {line}"));
            assert!(value.parse::<u64>().is_ok(), "non-numeric sample: {line}");
            assert!(!name_part.is_empty());
        }
    }
    // Gauges reflect live state.
    assert!(text.contains("rdb_tables 3"), "{text}");
    // Phase-labeled series render with a label set when present.
    obs::set_tracing(true);
    db.query("SELECT COUNT(*) FROM n1").unwrap();
    let traced = db.metrics_text();
    obs::set_tracing(false);
    obs::clear_trace();
    assert!(
        traced.contains("rdb_phase_spans_total{phase=\"sql.execute\"}"),
        "{traced}"
    );
}

// ---------------------------------------------------------------------
// Trace JSON schema
// ---------------------------------------------------------------------

#[test]
fn trace_json_schema_and_lifecycle() {
    obs::clear_trace();
    obs::set_tracing(true);
    let db = forest_db();
    db.query("SELECT id FROM n1 WHERE id = 3").unwrap();
    obs::set_tracing(false);

    let events = obs::trace_events();
    assert!(!events.is_empty());
    assert!(events.iter().any(|e| e.name == "sql.execute"));
    assert!(events.iter().any(|e| e.name == "sql.parse"));
    assert!(events.iter().any(|e| e.name == "sql.plan"));

    let json = obs::trace_json();
    assert!(json.starts_with('[') && json.ends_with(']'));
    // One complete-event object per buffered event, chrome schema.
    assert_eq!(json.matches("\"ph\":\"X\"").count(), events.len());
    assert_eq!(json.matches("\"pid\":1").count(), events.len());
    assert!(json.contains("\"name\":\"sql.execute\""));
    assert!(json.contains("\"ts\":"));
    assert!(json.contains("\"dur\":"));

    // Aggregation feeds the phase table.
    let stats = obs::phase_stats();
    let exec = stats.iter().find(|s| s.name == "sql.execute").unwrap();
    assert!(exec.count >= 1);
    assert!(exec.p50_ns <= exec.p95_ns || exec.p95_ns == exec.max_ns);
    assert!(exec.p95_ns <= exec.max_ns.max(1));
    assert!(obs::render_phase_table().contains("sql.execute"));

    obs::clear_trace();
    assert!(obs::trace_events().is_empty());
    assert_eq!(obs::trace_json(), "[]");
    assert_eq!(obs::trace_events_dropped(), 0);
}

// ---------------------------------------------------------------------
// Tracing state must not perturb engine counters
// ---------------------------------------------------------------------

#[test]
fn tracing_state_leaves_counters_identical() {
    let script = "SELECT n3.id FROM n1, n2, n3 \
                  WHERE n2.parentId = n1.id AND n3.parentId = n2.id AND n1.num < 4;\
                  SELECT num FROM n1 WHERE id = 5;\
                  DELETE FROM n3 WHERE parentId = 11;";
    let run = |traced: bool| {
        obs::set_tracing(traced);
        let mut db = forest_db();
        db.reset_stats();
        db.run_script(script).unwrap();
        db.run_script(script).unwrap(); // second pass hits the plan cache
        obs::set_tracing(false);
        obs::clear_trace();
        db.stats()
    };
    let off = run(false);
    let on = run(true);
    assert_eq!(off, on, "tracing must not change any engine counter");
}

// ---------------------------------------------------------------------
// Slow-query log
// ---------------------------------------------------------------------

#[test]
fn slow_query_log_records_sql_phases_and_rows() {
    let mut db = forest_db();
    // Threshold zero: everything is "slow".
    db.set_slow_query_threshold(Some(Duration::ZERO));
    db.query("SELECT COUNT(*) FROM n2").unwrap();
    db.execute("DELETE FROM n3 WHERE parentId = 10").unwrap();
    let slow = db.take_slow_queries();
    assert_eq!(slow.len(), 2);
    assert_eq!(slow[0].sql, "SELECT COUNT(*) FROM n2");
    assert!(slow[0].total_ns > 0);
    assert!(
        slow[0].phases.iter().any(|(p, _)| *p == "sql.execute"),
        "phase breakdown missing sql.execute: {:?}",
        slow[0].phases
    );
    assert!(slow[0].rows_touched >= 16, "scanned all of n2");
    // Statement attribution: outside a session the id is 0, but the
    // fingerprint always joins against `rdb_statements`.
    assert_eq!(slow[0].session_id, 0, "no session on a bare Database");
    assert_ne!(slow[0].fingerprint, 0, "fingerprint computed at parse time");
    assert_eq!(slow[0].snapshot_epoch, None, "autocommit pins no snapshot");
    assert_eq!(slow[1].sql, "DELETE FROM n3 WHERE parentId = 10");
    assert!(slow[1].rows_touched >= 3, "deleted three grandchildren");
    // take_ drains the log.
    assert!(db.take_slow_queries().is_empty());
    // Raising the threshold stops recording.
    db.set_slow_query_threshold(Some(Duration::from_secs(3600)));
    db.query("SELECT COUNT(*) FROM n1").unwrap();
    assert!(db.take_slow_queries().is_empty());
    // Disabling entirely costs nothing and records nothing.
    db.set_slow_query_threshold(None);
    db.query("SELECT COUNT(*) FROM n1").unwrap();
    assert!(db.take_slow_queries().is_empty());
}
