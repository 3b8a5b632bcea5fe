//! Prepared statements, parameter binding, and plan-cache behavior —
//! the engine-side analogue of the JDBC `PreparedStatement`s the paper's
//! middleware holds against DB2.

use xmlup_rdb::{Database, DbError, Value};

fn item_db() -> Database {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE Item (id INTEGER, qty INTEGER, name VARCHAR(50),
                            ok BOOLEAN, note VARCHAR(50));
         CREATE INDEX item_id ON Item (id);",
    )
    .unwrap();
    db
}

// ----------------------------------------------------------------------
// parameter binding
// ----------------------------------------------------------------------

#[test]
fn binding_round_trips_every_value_variant() {
    let mut db = item_db();
    let ins = db
        .prepare("INSERT INTO Item VALUES (?, ?, ?, ?, ?)")
        .unwrap();
    assert_eq!(ins.param_count(), 5);
    let bound = [
        Value::Int(1),
        Value::Int(42),
        Value::Str("tire".into()),
        Value::Bool(true),
        Value::Null,
    ];
    db.execute_prepared(&ins, &bound).unwrap();
    let rs = db
        .query("SELECT id, qty, name, ok, note FROM Item")
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0], bound.to_vec());
}

#[test]
fn parameters_bind_in_predicates() {
    let mut db = item_db();
    db.run_script(
        "INSERT INTO Item VALUES (1, 4, 'tire', TRUE, NULL),
                                 (2, 2, 'wiper', FALSE, NULL),
                                 (3, 1, 'battery', TRUE, 'fragile');",
    )
    .unwrap();
    let by_id = db.prepare("SELECT name FROM Item WHERE id = ?").unwrap();
    for (id, name) in [(1, "tire"), (2, "wiper"), (3, "battery")] {
        let rs = db.query_prepared(&by_id, &[Value::Int(id)]).unwrap();
        assert_eq!(rs.rows[0][0], Value::from(name));
    }
    // Dollar parameters may repeat a slot.
    let sel = db
        .prepare("SELECT name FROM Item WHERE id = $1 OR qty = $1")
        .unwrap();
    assert_eq!(sel.param_count(), 1);
    let rs = db.query_prepared(&sel, &[Value::Int(2)]).unwrap();
    assert_eq!(rs.rows.len(), 1); // wiper matches on both id and qty
    assert_eq!(rs.rows[0][0], Value::from("wiper"));
    let upd = db
        .prepare("UPDATE Item SET qty = ? WHERE name = ?")
        .unwrap();
    let n = db
        .execute_prepared(&upd, &[Value::Int(9), Value::Str("tire".into())])
        .unwrap()
        .affected();
    assert_eq!(n, 1);
    let rs = db.query("SELECT qty FROM Item WHERE id = 1").unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(9));
}

#[test]
fn arity_mismatch_is_an_error() {
    let mut db = item_db();
    let ins = db
        .prepare("INSERT INTO Item VALUES (?, ?, ?, ?, ?)")
        .unwrap();
    let err = db.execute_prepared(&ins, &[Value::Int(1)]).unwrap_err();
    assert!(matches!(err, DbError::Execution(_)), "got {err:?}");
    let err = db
        .execute_prepared(
            &ins,
            &[
                Value::Int(1),
                Value::Int(2),
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
            ],
        )
        .unwrap_err();
    assert!(matches!(err, DbError::Execution(_)), "got {err:?}");
}

// ----------------------------------------------------------------------
// plan cache
// ----------------------------------------------------------------------

#[test]
fn repeated_text_parses_once() {
    let mut db = item_db();
    let before = db.stats();
    for i in 0..10 {
        db.execute(&format!(
            "INSERT INTO Item VALUES ({i}, 0, 'x', TRUE, NULL)"
        ))
        .ok();
        db.query("SELECT COUNT(*) FROM Item").unwrap();
    }
    let s = db.stats();
    // The COUNT(*) text repeats: 1 parse, 9 hits. The INSERTs differ.
    assert_eq!(s.client_statements - before.client_statements, 20);
    assert!(s.plan_cache_hits - before.plan_cache_hits >= 9);
}

#[test]
fn statements_parsed_stays_flat_while_client_statements_grows() {
    let mut db = item_db();
    let ins = db
        .prepare("INSERT INTO Item VALUES (?, ?, ?, ?, ?)")
        .unwrap();
    let sel = db.prepare("SELECT name FROM Item WHERE id = ?").unwrap();
    let parsed_before = db.stats().statements_parsed;
    let client_before = db.stats().client_statements;
    for i in 0..50 {
        db.execute_prepared(
            &ins,
            &[
                Value::Int(i),
                Value::Int(i % 7),
                Value::Str(format!("item{i}")),
                Value::Bool(i % 2 == 0),
                Value::Null,
            ],
        )
        .unwrap();
        let rs = db.query_prepared(&sel, &[Value::Int(i)]).unwrap();
        assert_eq!(rs.rows[0][0], Value::Str(format!("item{i}")));
    }
    let s = db.stats();
    assert_eq!(
        s.statements_parsed, parsed_before,
        "no re-parsing after prepare"
    );
    assert_eq!(s.client_statements - client_before, 100);
}

/// The repeated text of the DDL tests: a SELECT whose plan depends on
/// the catalog (whether `Item` exists, whether `qty` is indexed).
const PROBE: &str = "SELECT COUNT(*) FROM Item WHERE qty = 4";

/// Re-run a text cached before a schema change: it must come from the
/// text cache (one more hit, no parse) with a freshly built plan.
fn rerun_cached(db: &Database, sql: &str) -> Result<xmlup_rdb::ResultSet, DbError> {
    let before = db.stats();
    let answer = db.query(sql);
    let s = db.stats();
    assert_eq!(
        s.plan_cache_hits,
        before.plan_cache_hits + 1,
        "`{sql}` missed the cache"
    );
    assert_eq!(
        s.statements_parsed, before.statements_parsed,
        "`{sql}` was re-parsed"
    );
    assert!(
        s.plans_built > before.plans_built,
        "`{sql}` ran a stale plan"
    );
    answer
}

#[test]
fn ddl_replans_without_reparsing() {
    for ddl in [
        "DROP TABLE Item",
        "CREATE INDEX item_qty ON Item (qty)",
        "CREATE TABLE Other (id INTEGER)",
        "CREATE TRIGGER t AFTER DELETE ON Item FOR EACH ROW BEGIN \
         DELETE FROM Item WHERE id = -1; END",
    ] {
        let mut db = item_db();
        db.execute("INSERT INTO Item VALUES (1, 4, 'tire', TRUE, NULL)")
            .unwrap();
        db.query(PROBE).unwrap();
        let built = db.stats().plans_built;
        db.query(PROBE).unwrap();
        assert_eq!(
            db.stats().plans_built,
            built,
            "an unchanged schema replanned"
        );
        let index_scans = db.stats().index_scans;
        db.execute(ddl).unwrap();
        let answer = rerun_cached(&db, PROBE);
        if ddl.starts_with("DROP TABLE") {
            let err = answer.unwrap_err();
            assert!(matches!(err, DbError::NoSuchTable(_)), "got {err:?}");
            continue;
        }
        assert_eq!(
            answer.unwrap().scalar(),
            Some(&Value::Int(1)),
            "after `{ddl}`"
        );
        if ddl.starts_with("CREATE INDEX") {
            assert!(
                db.stats().index_scans > index_scans,
                "the new index went unused"
            );
            let plan = db.query(&format!("EXPLAIN {PROBE}")).unwrap();
            assert!(
                plan.rows
                    .iter()
                    .any(|r| r[0].to_string().contains("IndexScan")),
                "EXPLAIN after `{ddl}`: {:?}",
                plan.rows
            );
        }
    }
}

#[test]
fn prepared_handle_survives_ddl() {
    let mut db = item_db();
    let sel = db.prepare("SELECT COUNT(*) FROM Item").unwrap();
    // The handle shares its text's plan slot; the DDL moves the schema
    // epoch, so the next execution replans, and names resolve then.
    db.execute("CREATE TABLE Other (id INTEGER)").unwrap();
    let rs = db.query_prepared(&sel, &[]).unwrap();
    assert_eq!(rs.scalar().and_then(Value::as_int), Some(0));
}

#[test]
fn unbound_parameter_in_plain_execute_errors() {
    let db = item_db();
    let err = db.query("SELECT name FROM Item WHERE id = ?").unwrap_err();
    assert!(matches!(err, DbError::Execution(_)), "got {err:?}");
}

#[test]
fn rollback_of_ddl_replans_without_reparsing() {
    // A transaction creates a table and plans a query against it; the
    // ROLLBACK undoes the DDL, so the cached text must replan and find
    // no table (a stale plan would resolve against the dropped one — or
    // shadow a later table of the same name).
    let mut db = item_db();
    db.execute("BEGIN").unwrap();
    db.execute("CREATE TABLE Tmp (x INTEGER)").unwrap();
    db.execute("INSERT INTO Tmp VALUES (1)").unwrap();
    db.query("SELECT COUNT(*) FROM Tmp").unwrap();
    db.execute("ROLLBACK").unwrap();
    let err = rerun_cached(&db, "SELECT COUNT(*) FROM Tmp").unwrap_err();
    assert!(
        matches!(err, DbError::NoSuchTable(_)),
        "stale plan served after rollback of DDL: {err:?}"
    );

    // And the mirror image: a text cached *before* the transaction
    // replans against the table a rolled-back DROP TABLE restored.
    let mut db = item_db();
    db.run_script(
        "INSERT INTO Item VALUES (1, 4, 'tire', TRUE, NULL),
                                 (2, 4, 'wiper', FALSE, NULL);",
    )
    .unwrap();
    db.query(PROBE).unwrap();
    db.query(PROBE).unwrap();
    db.execute("BEGIN").unwrap();
    db.execute("DROP TABLE Item").unwrap();
    db.execute("ROLLBACK").unwrap();
    let rs = rerun_cached(&db, PROBE).unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(2)));
}

#[test]
fn rollback_without_ddl_keeps_the_cache() {
    let mut db = item_db();
    db.execute("INSERT INTO Item VALUES (1, 1, 'a', TRUE, NULL)")
        .unwrap();
    db.query("SELECT COUNT(*) FROM Item").unwrap();
    db.execute("BEGIN").unwrap();
    db.execute("DELETE FROM Item").unwrap();
    db.execute("ROLLBACK").unwrap();
    let hits_before = db.stats().plan_cache_hits;
    db.query("SELECT COUNT(*) FROM Item").unwrap();
    assert_eq!(
        db.stats().plan_cache_hits,
        hits_before + 1,
        "pure-DML rollback must not evict cached plans"
    );
}
