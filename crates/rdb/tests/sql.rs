//! End-to-end SQL tests for the relational engine, including the exact
//! statement shapes the paper's translation layer generates.

use xmlup_rdb::{Database, DbError, ExecResult, Value};

fn customer_db() -> Database {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE Customer (id INTEGER, parentId INTEGER, Name VARCHAR(50),
                                Address_City VARCHAR(50), Address_State VARCHAR(2));
         CREATE TABLE Order_ (id INTEGER, parentId INTEGER, Date_ VARCHAR(10), Status VARCHAR(10));
         CREATE TABLE OrderLine (id INTEGER, parentId INTEGER, ItemName VARCHAR(50), Qty INTEGER);
         CREATE INDEX cust_id ON Customer (id);
         CREATE INDEX ord_parent ON Order_ (parentId);
         CREATE INDEX ol_parent ON OrderLine (parentId);
         INSERT INTO Customer VALUES (1, 0, 'John', 'Seattle', 'WA'),
                                     (2, 0, 'Mary', 'LA', 'CA'),
                                     (3, 0, 'John', 'Sacramento', 'CA');
         INSERT INTO Order_ VALUES (10, 1, '2000-12-01', 'ready'),
                                   (11, 1, '2001-01-15', 'shipped'),
                                   (12, 2, '2001-02-02', 'ready');
         INSERT INTO OrderLine VALUES (100, 10, 'tire', 4), (101, 10, 'wiper', 2),
                                      (102, 11, 'battery', 1), (103, 12, 'tire', 2);",
    )
    .unwrap();
    db
}

#[test]
fn select_with_join_and_filter() {
    let db = customer_db();
    let rs = db
        .query(
            "SELECT C.Name, O.Status FROM Customer C, Order_ O
             WHERE O.parentId = C.id AND C.Name = 'John'
             ORDER BY Status",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
    assert_eq!(rs.rows[0][1], Value::from("ready"));
    assert_eq!(rs.rows[1][1], Value::from("shipped"));
}

#[test]
fn three_way_join() {
    let db = customer_db();
    let rs = db
        .query(
            "SELECT C.Name FROM Customer C, Order_ O, OrderLine L
             WHERE O.parentId = C.id AND L.parentId = O.id AND L.ItemName = 'tire'
             ORDER BY Name",
        )
        .unwrap();
    let names: Vec<_> = rs.rows.iter().map(|r| r[0].render()).collect();
    assert_eq!(names, vec!["John", "Mary"]);
}

#[test]
fn figure5_outer_union_shape() {
    let db = customer_db();
    let rs = db
        .query(
            "WITH Q1(C1, C2, C3, C4, C5, C6, C7, C8, C9) AS (
                SELECT id, Name, Address_City, Address_State,
                       NULL, NULL, NULL, NULL, NULL
                FROM Customer
                WHERE Name = 'John'
            ), Q2(C1, C2, C3, C4, C5, C6, C7, C8, C9) AS (
                SELECT C1, NULL, NULL, NULL, id, Status, NULL, NULL, NULL
                FROM Q1, Order_ O
                WHERE O.parentId = Q1.C1
            ), Q3(C1, C2, C3, C4, C5, C6, C7, C8, C9) AS (
                SELECT C1, NULL, NULL, NULL, C5, NULL, id, ItemName, Qty
                FROM Q2, OrderLine OL
                WHERE OL.parentId = Q2.C5
            ) (
                SELECT * FROM Q1
            ) UNION ALL (
                SELECT * FROM Q2
            ) UNION ALL (
                SELECT * FROM Q3
            )
            ORDER BY C1, C5, C7",
        )
        .unwrap();
    assert_eq!(
        rs.columns,
        vec!["C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9"]
    );
    // John(1): customer row, then order 10 (lines 100, 101), order 11 (line 102).
    // John(3): customer row only. Total = 1+1+2+1+1 +1 = 7 rows.
    assert_eq!(rs.rows.len(), 7);
    // NULLs sort first: each parent row precedes its children.
    assert_eq!(rs.rows[0][0], Value::Int(1)); // customer 1 row (C5 NULL)
    assert!(rs.rows[0][4].is_null());
    assert_eq!(rs.rows[1][4], Value::Int(10)); // order 10 row (C7 NULL)
    assert!(rs.rows[1][6].is_null());
    assert_eq!(rs.rows[2][6], Value::Int(100)); // orderline rows follow
    assert_eq!(rs.rows[3][6], Value::Int(101));
    assert_eq!(rs.rows[4][4], Value::Int(11));
    assert_eq!(rs.rows[5][6], Value::Int(102));
    assert_eq!(rs.rows[6][0], Value::Int(3)); // customer 3, no orders
}

#[test]
fn per_row_trigger_cascades() {
    let mut db = customer_db();
    db.run_script(
        "CREATE TRIGGER cust_del AFTER DELETE ON Customer FOR EACH ROW BEGIN
            DELETE FROM Order_ WHERE parentId = OLD.id;
         END;
         CREATE TRIGGER ord_del AFTER DELETE ON Order_ FOR EACH ROW BEGIN
            DELETE FROM OrderLine WHERE parentId = OLD.id;
         END;",
    )
    .unwrap();
    db.reset_stats();
    let res = db
        .execute("DELETE FROM Customer WHERE Name = 'John'")
        .unwrap();
    assert_eq!(res.affected(), 2);
    assert_eq!(
        db.table("order_").unwrap().len(),
        1,
        "orders of customer 2 remain"
    );
    assert_eq!(
        db.table("orderline").unwrap().len(),
        1,
        "only line 103 remains"
    );
    let stats = db.stats();
    assert_eq!(
        stats.client_statements, 1,
        "single SQL statement issued by the client"
    );
    // 2 customer rows fired cust_del; 2 orders fired ord_del.
    assert_eq!(stats.trigger_firings, 4);
}

#[test]
fn per_statement_trigger_deletes_orphans() {
    let mut db = customer_db();
    db.run_script(
        "CREATE TRIGGER cust_del AFTER DELETE ON Customer FOR EACH STATEMENT BEGIN
            DELETE FROM Order_ WHERE parentId NOT IN (SELECT id FROM Customer);
         END;
         CREATE TRIGGER ord_del AFTER DELETE ON Order_ FOR EACH STATEMENT BEGIN
            DELETE FROM OrderLine WHERE parentId NOT IN (SELECT id FROM Order_);
         END;",
    )
    .unwrap();
    db.execute("DELETE FROM Customer WHERE Name = 'John'")
        .unwrap();
    assert_eq!(db.table("customer").unwrap().len(), 1);
    assert_eq!(db.table("order_").unwrap().len(), 1);
    assert_eq!(db.table("orderline").unwrap().len(), 1);
}

#[test]
fn cascading_delete_application_level() {
    // Paper Section 6.1.2: simulate per-statement triggers with a sequence
    // of NOT IN deletes, stopping when a delete removes nothing.
    let mut db = customer_db();
    let n = db
        .execute("DELETE FROM Customer WHERE Name = 'John'")
        .unwrap()
        .affected();
    assert_eq!(n, 2);
    let n = db
        .execute("DELETE FROM Order_ WHERE parentId NOT IN (SELECT id FROM Customer)")
        .unwrap()
        .affected();
    assert_eq!(n, 2);
    let n = db
        .execute("DELETE FROM OrderLine WHERE parentId NOT IN (SELECT id FROM Order_)")
        .unwrap()
        .affected();
    assert_eq!(n, 3);
}

#[test]
fn insert_select_copies_rows() {
    let mut db = customer_db();
    db.execute("CREATE TABLE Archive (id INTEGER, name VARCHAR(50))")
        .unwrap();
    let n = db
        .execute("INSERT INTO Archive SELECT id, Name FROM Customer WHERE Address_State = 'CA'")
        .unwrap()
        .affected();
    assert_eq!(n, 2);
    assert_eq!(db.table("archive").unwrap().len(), 2);
}

#[test]
fn update_sets_multiple_columns() {
    let mut db = customer_db();
    let n = db
        .execute("UPDATE Order_ SET Status = 'suspended' WHERE Status = 'ready'")
        .unwrap()
        .affected();
    assert_eq!(n, 2);
    let rs = db
        .query("SELECT COUNT(*) FROM Order_ WHERE Status = 'suspended'")
        .unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(2)));
}

#[test]
fn update_reads_old_row_values() {
    let mut db = customer_db();
    db.execute("UPDATE OrderLine SET Qty = Qty + 10 WHERE ItemName = 'tire'")
        .unwrap();
    let rs = db
        .query("SELECT Qty FROM OrderLine WHERE ItemName = 'tire' ORDER BY id")
        .unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(14));
    assert_eq!(rs.rows[1][0], Value::Int(12));
}

#[test]
fn aggregates_min_max_count_sum() {
    let db = customer_db();
    let rs = db
        .query("SELECT MIN(id), MAX(id), COUNT(*), SUM(Qty) FROM OrderLine")
        .unwrap();
    assert_eq!(
        rs.rows[0],
        vec![
            Value::Int(100),
            Value::Int(103),
            Value::Int(4),
            Value::Int(9)
        ]
    );
}

#[test]
fn aggregates_on_empty_input() {
    let db = customer_db();
    let rs = db
        .query("SELECT COUNT(*), MIN(id), SUM(Qty) FROM OrderLine WHERE Qty > 100")
        .unwrap();
    assert_eq!(rs.rows[0], vec![Value::Int(0), Value::Null, Value::Null]);
}

#[test]
fn three_valued_logic() {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE t (a INTEGER, b INTEGER);
         INSERT INTO t VALUES (1, NULL), (2, 5), (NULL, NULL);",
    )
    .unwrap();
    // NULL = NULL is unknown, filtered out.
    assert_eq!(
        db.query("SELECT * FROM t WHERE b = NULL")
            .unwrap()
            .rows
            .len(),
        0
    );
    assert_eq!(
        db.query("SELECT * FROM t WHERE b IS NULL")
            .unwrap()
            .rows
            .len(),
        2
    );
    assert_eq!(
        db.query("SELECT * FROM t WHERE a IS NOT NULL")
            .unwrap()
            .rows
            .len(),
        2
    );
    // NOT IN with NULL in the subquery result yields no rows.
    db.run_script("CREATE TABLE u (x INTEGER); INSERT INTO u VALUES (1), (NULL);")
        .unwrap();
    assert_eq!(
        db.query("SELECT * FROM t WHERE a NOT IN (SELECT x FROM u)")
            .unwrap()
            .rows
            .len(),
        0
    );
    // IN finds the match regardless of NULLs.
    assert_eq!(
        db.query("SELECT * FROM t WHERE a IN (SELECT x FROM u)")
            .unwrap()
            .rows
            .len(),
        1
    );
}

#[test]
fn not_in_against_empty_subquery_keeps_all() {
    let mut db = customer_db();
    db.execute("DELETE FROM Customer").unwrap();
    let rs = db
        .query("SELECT * FROM Order_ WHERE parentId NOT IN (SELECT id FROM Customer)")
        .unwrap();
    assert_eq!(rs.rows.len(), 3);
}

#[test]
fn exists_and_scalar_subquery() {
    let db = customer_db();
    let rs = db
        .query("SELECT Name FROM Customer WHERE EXISTS (SELECT * FROM Order_) ORDER BY Name")
        .unwrap();
    assert_eq!(rs.rows.len(), 3);
    let rs = db
        .query("SELECT (SELECT MAX(id) FROM OrderLine) FROM Customer")
        .unwrap();
    assert_eq!(rs.rows.len(), 3);
    assert_eq!(rs.rows[0][0], Value::Int(103));
}

#[test]
fn order_by_desc_and_limit() {
    let db = customer_db();
    let rs = db
        .query("SELECT id FROM OrderLine ORDER BY id DESC LIMIT 2")
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
    assert_eq!(rs.rows[0][0], Value::Int(103));
    assert_eq!(rs.rows[1][0], Value::Int(102));
}

#[test]
fn nulls_sort_first_ascending() {
    let mut db = Database::new();
    db.run_script("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (2), (NULL), (1);")
        .unwrap();
    let rs = db.query("SELECT a FROM t ORDER BY a").unwrap();
    assert_eq!(rs.rows[0][0], Value::Null);
    assert_eq!(rs.rows[1][0], Value::Int(1));
}

#[test]
fn duplicate_table_and_if_not_exists() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    assert!(matches!(
        db.execute("CREATE TABLE t (a INTEGER)"),
        Err(DbError::Schema(_))
    ));
    assert!(matches!(
        db.execute("CREATE TABLE IF NOT EXISTS t (a INTEGER)"),
        Ok(ExecResult::Ddl)
    ));
    db.execute("DROP TABLE t").unwrap();
    assert!(db.execute("DROP TABLE t").is_err());
    db.execute("DROP TABLE IF EXISTS t").unwrap();
}

#[test]
fn unknown_table_and_column_errors() {
    let mut db = Database::new();
    assert!(matches!(
        db.execute("SELECT * FROM ghost"),
        Err(DbError::NoSuchTable(_))
    ));
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    assert!(matches!(
        db.query("SELECT b FROM t"),
        Err(DbError::NoSuchColumn(_))
    ));
}

#[test]
fn ambiguous_column_detected() {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE a (id INTEGER); CREATE TABLE b (id INTEGER);
         INSERT INTO a VALUES (1); INSERT INTO b VALUES (1);",
    )
    .unwrap();
    assert!(matches!(
        db.query("SELECT id FROM a, b"),
        Err(DbError::NoSuchColumn(_))
    ));
    // Qualification resolves it.
    assert_eq!(db.query("SELECT a.id FROM a, b").unwrap().rows.len(), 1);
}

#[test]
fn insert_with_column_list_pads_nulls() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a INTEGER, b VARCHAR(10), c INTEGER)")
        .unwrap();
    db.execute("INSERT INTO t (c, a) VALUES (3, 1)").unwrap();
    let rs = db.query("SELECT a, b, c FROM t").unwrap();
    assert_eq!(rs.rows[0], vec![Value::Int(1), Value::Null, Value::Int(3)]);
}

#[test]
fn stats_track_statement_counts() {
    let mut db = customer_db();
    db.reset_stats();
    db.execute("SELECT * FROM Customer").unwrap();
    db.execute("DELETE FROM OrderLine WHERE Qty = 1").unwrap();
    let s = db.stats();
    assert_eq!(s.client_statements, 2);
    assert_eq!(s.total_statements, 2);
    assert_eq!(s.rows_deleted, 1);
}

#[test]
fn index_lookup_used_for_equality_delete() {
    let mut db = customer_db();
    db.reset_stats();
    db.execute("DELETE FROM Order_ WHERE parentId = 1").unwrap();
    let s = db.stats();
    assert_eq!(s.index_lookups, 1);
    assert_eq!(s.rows_deleted, 2);
    assert!(
        s.rows_scanned <= 2,
        "only the index hits were scanned, not the table"
    );
}

#[test]
fn trigger_recursion_depth_guard() {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE a (id INTEGER);
         CREATE TABLE b (id INTEGER);
         INSERT INTO a VALUES (1), (2);
         INSERT INTO b VALUES (1), (2);",
    )
    .unwrap();
    // Mutually recursive per-statement triggers that always delete something
    // would loop; the engine must abort cleanly.
    db.run_script(
        "CREATE TRIGGER ta AFTER DELETE ON a FOR EACH STATEMENT BEGIN
            INSERT INTO b VALUES (99);
            DELETE FROM b WHERE id = 99;
         END;
         CREATE TRIGGER tb AFTER DELETE ON b FOR EACH STATEMENT BEGIN
            INSERT INTO a VALUES (99);
            DELETE FROM a WHERE id = 99;
         END;",
    )
    .unwrap();
    let err = db.execute("DELETE FROM a WHERE id = 1").unwrap_err();
    assert!(matches!(err, DbError::TriggerDepth(_)));
}

#[test]
fn drop_trigger_stops_firing() {
    let mut db = customer_db();
    db.execute(
        "CREATE TRIGGER t1 AFTER DELETE ON Customer FOR EACH ROW BEGIN
            DELETE FROM Order_ WHERE parentId = OLD.id;
         END",
    )
    .unwrap();
    db.execute("DROP TRIGGER t1").unwrap();
    db.execute("DELETE FROM Customer WHERE id = 1").unwrap();
    assert_eq!(
        db.table("order_").unwrap().len(),
        3,
        "no cascade after drop"
    );
}

#[test]
fn insert_trigger_fires_with_new_binding() {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE t (id INTEGER);
         CREATE TABLE log (id INTEGER);
         CREATE TRIGGER ti AFTER INSERT ON t FOR EACH ROW BEGIN
            INSERT INTO log VALUES (NEW.id);
         END;",
    )
    .unwrap();
    db.execute("INSERT INTO t VALUES (7), (8)").unwrap();
    let rs = db.query("SELECT id FROM log ORDER BY id").unwrap();
    assert_eq!(rs.rows.len(), 2);
    assert_eq!(rs.rows[0][0], Value::Int(7));
}

#[test]
fn allocate_ids_monotone() {
    let mut db = Database::new();
    let a = db.allocate_ids(10);
    let b = db.allocate_ids(5);
    assert_eq!(b, a + 10);
    db.bump_next_id(1000);
    assert_eq!(db.allocate_ids(1), 1000);
    db.bump_next_id(50); // no-op, floor below current
    assert_eq!(db.peek_next_id(), 1001);
}

#[test]
fn arithmetic_and_division_errors() {
    let db = Database::new();
    let rs = db.query("SELECT 2 + 3 * 4 - 1, 10 / 3, 10 % 3").unwrap();
    assert_eq!(
        rs.rows[0],
        vec![Value::Int(13), Value::Int(3), Value::Int(1)]
    );
    assert!(db.query("SELECT 1 / 0").is_err());
}

#[test]
fn union_all_arity_mismatch_rejected() {
    let mut db = Database::new();
    db.run_script("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1);")
        .unwrap();
    assert!(db
        .query("SELECT a FROM t UNION ALL SELECT a, a FROM t")
        .is_err());
}

#[test]
fn qualified_wildcard_projection() {
    let db = customer_db();
    let rs = db
        .query("SELECT O.* FROM Customer C, Order_ O WHERE O.parentId = C.id AND C.id = 2")
        .unwrap();
    assert_eq!(rs.columns.len(), 4);
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][0], Value::Int(12));
}

#[test]
fn select_distinct_dedupes() {
    let db = customer_db();
    let rs = db
        .query("SELECT DISTINCT parentId FROM OrderLine ORDER BY parentId")
        .unwrap();
    assert_eq!(rs.rows.len(), 3);
    let rs = db
        .query("SELECT DISTINCT Name FROM Customer ORDER BY Name")
        .unwrap();
    assert_eq!(rs.rows.len(), 2, "two distinct names among three customers");
    // DISTINCT with an ORDER BY key outside the select list is rejected.
    assert!(db
        .query("SELECT DISTINCT Name FROM Customer ORDER BY id")
        .is_err());
}

#[test]
fn distinct_in_subquery() {
    let db = customer_db();
    let rs = db
        .query(
            "SELECT Name FROM Customer
             WHERE id IN (SELECT DISTINCT parentId FROM Order_) ORDER BY Name",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
}

#[test]
fn non_ascii_strings_roundtrip() {
    let mut db = Database::new();
    db.run_script("CREATE TABLE t (s TEXT); INSERT INTO t VALUES ('café 中文');")
        .unwrap();
    let rs = db.query("SELECT s FROM t").unwrap();
    assert_eq!(rs.rows[0][0], Value::from("café 中文"));
    // And it matches in predicates.
    let rs = db
        .query("SELECT COUNT(*) FROM t WHERE s = 'café 中文'")
        .unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(1)));
}

#[test]
fn arithmetic_overflow_wraps_instead_of_panicking() {
    let db = Database::new();
    // i64::MIN / -1 and MIN % -1 must not abort the process.
    let rs = db.query("SELECT (9223372036854775807 + 1) / -1").unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(i64::MIN));
    let rs = db.query("SELECT (9223372036854775807 + 1) % -1").unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(0));
    let rs = db.query("SELECT -(9223372036854775807 + 1)").unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(i64::MIN));
}

#[test]
fn order_by_position_out_of_range_errors() {
    let db = customer_db();
    assert!(db.query("SELECT Name FROM Customer ORDER BY 2").is_err());
    assert!(db.query("SELECT Name FROM Customer ORDER BY 0").is_err());
    assert!(db.query("SELECT Name FROM Customer ORDER BY 1").is_ok());
}
