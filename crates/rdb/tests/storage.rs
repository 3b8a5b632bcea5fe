//! Tests for durable storage: the checkpoint codec and the engine's
//! checkpoint / reopen path.
//!
//! 1. Checkpoint-codec robustness on `snapshot.bin`: round-trip, plus
//!    truncation at *every* byte offset, trailing bytes and single-byte
//!    corruption must error, never panic — the file is the checkpoint's
//!    commit point.
//! 2. End-to-end: DML + checkpoint + reopen, WAL replay without a
//!    checkpoint, the statements between two checkpoints reaching the
//!    second, rollback and DDL undo reaching the checkpoint, and a table
//!    re-created between checkpoints.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use xmlup_rdb::storage::checkpoint::{decode_snapshot, encode_snapshot, Slots};
use xmlup_rdb::storage::{CatalogTable, CheckpointCatalog};
use xmlup_rdb::wal;
use xmlup_rdb::{ColumnDef, DataType, Database, TableSchema, Value};

/// Unique scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "xmlup-storage-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
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

#[test]
fn crc32_is_standard_ieee() {
    // The standard CRC-32 check value: pins the polynomial the snapshot
    // and the WAL frames are sealed with.
    assert_eq!(wal::crc32(b"123456789"), 0xCBF4_3926);
}

// ----------------------------------------------------------------------
// checkpoint codec
// ----------------------------------------------------------------------

fn schema(name: &str, columns: Vec<(String, DataType)>) -> TableSchema {
    TableSchema {
        name: name.into(),
        columns: columns
            .into_iter()
            .map(|(name, ty)| ColumnDef { name, ty })
            .collect(),
    }
}

fn sample_catalog() -> CheckpointCatalog {
    CheckpointCatalog {
        generation: 7,
        next_id: 1234,
        tables: vec![
            CatalogTable {
                key: "edge".into(),
                schema: schema(
                    "Edge",
                    vec![
                        ("source".into(), DataType::Integer),
                        ("name".into(), DataType::Text),
                        ("flag".into(), DataType::Boolean),
                    ],
                ),
                indexed: vec![0, 1, 2],
                stats: None,
            },
            CatalogTable {
                key: "empty".into(),
                schema: schema("Empty", vec![]),
                indexed: vec![],
                stats: None,
            },
        ],
        triggers: vec!["CREATE TRIGGER t AFTER DELETE ON Edge FOR EACH ROW BEGIN END".into()],
    }
}

/// Slot vectors for `sample_catalog`'s tables.
fn sample_slots() -> Vec<Slots> {
    vec![
        vec![
            Some(vec![
                Value::Int(1),
                Value::Str("a".into()),
                Value::Bool(true),
            ]),
            None,
            Some(vec![Value::Int(2), Value::Null, Value::Bool(false)]),
        ],
        vec![],
    ]
}

fn borrowed(slots: &[Slots]) -> Vec<&[Option<Vec<Value>>]> {
    slots.iter().map(Vec::as_slice).collect()
}

#[test]
fn checkpoint_files_roundtrip_and_reject_any_damage() {
    let (catalog, slots) = (sample_catalog(), sample_slots());
    let bytes = encode_snapshot(&catalog, &borrowed(&slots));
    assert_eq!(
        decode_snapshot(&bytes).expect("intact snapshot decodes"),
        (catalog, slots)
    );
    // The file commits a checkpoint and is published whole: a torn
    // write, bytes after the frame, or a flipped bit must be detected.
    let ok = |b: &[u8]| decode_snapshot(b).is_ok();
    for cut in 0..bytes.len() {
        assert!(!ok(&bytes[..cut]), "truncation at {cut}");
    }
    let mut longer = bytes.clone();
    longer.push(0);
    assert!(!ok(&longer), "one trailing byte");
    longer.extend_from_slice(&bytes);
    assert!(!ok(&longer), "a second frame after the first");
    for at in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[at] ^= 0x01;
        assert!(!ok(&bad), "corruption at {at}");
    }
}

#[test]
fn snapshot_roundtrip() {
    let rows = [
        vec![Value::Int(1), Value::Str("a".into()), Value::Bool(true)],
        vec![Value::Int(2), Value::Null, Value::Bool(false)],
    ];
    let catalog = CheckpointCatalog {
        generation: 3,
        next_id: 99,
        tables: vec![CatalogTable {
            key: "t".into(),
            schema: schema(
                "T",
                vec![
                    ("id".into(), DataType::Integer),
                    ("name".into(), DataType::Text),
                    ("flag".into(), DataType::Boolean),
                ],
            ),
            indexed: vec![0, 1],
            stats: Some(xmlup_rdb::TableStatistics::build(rows.iter(), 3)),
        }],
        triggers: vec!["CREATE TRIGGER x AFTER DELETE ON T FOR EACH ROW BEGIN DELETE FROM T WHERE (id = OLD.id); END".into()],
    };
    let [a, b] = rows;
    let slots = vec![vec![Some(a), None, Some(b)]];
    let bytes = encode_snapshot(&catalog, &borrowed(&slots));
    assert_eq!(decode_snapshot(&bytes).unwrap(), (catalog, slots));
}

#[test]
fn snapshot_corruption_detected() {
    let empty = CheckpointCatalog {
        generation: 0,
        next_id: 0,
        tables: vec![],
        triggers: vec![],
    };
    let mut bytes = encode_snapshot(&empty, &[]);
    let last = bytes.len() - 1;
    bytes[last] ^= 1;
    assert!(decode_snapshot(&bytes).is_err());
    assert!(decode_snapshot(&bytes[..bytes.len() - 1]).is_err());
    assert!(decode_snapshot(b"nope").is_err());
}

fn arb_catalog_table() -> impl Strategy<Value = CatalogTable> {
    (
        "[a-z]{1,8}",
        prop::collection::vec(
            (
                "[a-z]{1,6}",
                prop_oneof![
                    Just(DataType::Integer),
                    Just(DataType::Text),
                    Just(DataType::Boolean)
                ],
            ),
            0..5,
        ),
        prop::collection::vec(any::<u32>(), 0..4),
    )
        .prop_map(|(key, columns, indexed)| CatalogTable {
            schema: schema(&key.to_ascii_uppercase(), columns),
            key,
            indexed,
            stats: None,
        })
}

fn arb_slots() -> impl Strategy<Value = Slots> {
    prop::collection::vec(
        prop::option::of(prop::collection::vec(
            prop_oneof![
                any::<i64>().prop_map(Value::Int),
                "[a-z]{0,6}".prop_map(Value::Str),
                Just(Value::Null)
            ],
            0..4,
        )),
        0..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn snapshot_codec_roundtrip_random(
        generation in any::<u64>(),
        next_id in any::<i64>(),
        tables in prop::collection::vec((arb_catalog_table(), arb_slots()), 0..4),
        triggers in prop::collection::vec("[A-Z a-z]{0,24}", 0..3),
    ) {
        let (tables, slots): (Vec<_>, Vec<Slots>) = tables.into_iter().unzip();
        let catalog = CheckpointCatalog { generation, next_id, tables, triggers };
        let bytes = encode_snapshot(&catalog, &borrowed(&slots));
        for cut in 0..bytes.len() {
            prop_assert!(decode_snapshot(&bytes[..cut]).is_err());
        }
        prop_assert_eq!(decode_snapshot(&bytes).expect("roundtrip"), (catalog, slots));
    }
}

// ----------------------------------------------------------------------
// engine integration
// ----------------------------------------------------------------------

fn select_all(db: &Database, table: &str) -> Vec<Vec<Value>> {
    db.query(&format!("SELECT * FROM {table} ORDER BY id"))
        .unwrap()
        .rows
}

#[test]
fn database_checkpoint_and_reopen() {
    let scratch = Scratch::new();
    let before;
    {
        let mut db = Database::open(scratch.path()).unwrap();
        db.run_script(
            "CREATE TABLE item (id INTEGER, label VARCHAR(20));
             CREATE INDEX item_id ON item (id);
             INSERT INTO item VALUES (1, 'a'), (2, 'b'), (3, 'c');
             UPDATE item SET label = 'bee' WHERE id = 2;
             DELETE FROM item WHERE id = 3;",
        )
        .unwrap();
        db.checkpoint().unwrap();
        let written = db.stats().checkpoint_bytes_written;
        let on_disk = std::fs::metadata(scratch.path().join("snapshot.bin"))
            .unwrap()
            .len();
        assert_eq!(
            written, on_disk,
            "the checkpoint reports the snapshot's bytes"
        );
        // Post-checkpoint mutations land in the WAL only.
        db.execute("INSERT INTO item VALUES (4, 'd')").unwrap();
        before = select_all(&db, "item");
        db.close().unwrap();
    }
    let mut files: Vec<String> = std::fs::read_dir(scratch.path())
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    assert_eq!(files, ["snapshot.bin", "wal.bin"], "one checkpoint file");
    {
        let db = Database::open(scratch.path()).unwrap();
        assert_eq!(select_all(&db, "item"), before);
        // The recovered heap's indexes answer probes.
        let rs = db.query("SELECT label FROM item WHERE id = 2").unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Str("bee".into())]]);
    }
}

#[test]
fn database_recovers_from_wal_without_checkpoint() {
    let scratch = Scratch::new();
    let before;
    {
        let mut db = Database::open(scratch.path()).unwrap();
        db.run_script(
            "CREATE TABLE t (id INTEGER, v VARCHAR(10));
             INSERT INTO t VALUES (1, 'x'), (2, 'y');",
        )
        .unwrap();
        before = select_all(&db, "t");
        // Drop without close: simulated crash. Everything lives in the
        // WAL; there is no snapshot yet.
    }
    let db = Database::open(scratch.path()).unwrap();
    assert_eq!(select_all(&db, "t"), before);
    assert!(db.stats().recovered_txns > 0, "WAL replay ran");
}

/// Everything statements do between two checkpoints reaches the second
/// one: DML, its rollback, DDL and DDL rollback, on a store of 1 500
/// rows. A reopen from that checkpoint sees exactly what the statements
/// left.
#[test]
fn statements_since_a_checkpoint_reach_the_next_one() {
    let scratch = Scratch::new();
    let mut db = Database::open(scratch.path()).unwrap();
    db.set_wal_sync(false);
    let mut script = String::from(
        "CREATE TABLE item (id INTEGER, label VARCHAR(60));
         CREATE INDEX item_id ON item (id);
         CREATE TABLE gone (id INTEGER);
         INSERT INTO gone VALUES (1), (2);",
    );
    for chunk in (0..1500i64).collect::<Vec<_>>().chunks(100) {
        let values: Vec<String> = chunk
            .iter()
            .map(|i| format!("({i}, 'item {i:05}')"))
            .collect();
        script.push_str(&format!("INSERT INTO item VALUES {};", values.join(", ")));
    }
    db.run_script(&script).unwrap();
    db.checkpoint().unwrap();
    db.run_script(
        "INSERT INTO item VALUES (5000, 'new');
         UPDATE item SET label = 'changed' WHERE id = 700;
         DELETE FROM item WHERE id < 10;
         BEGIN;
         INSERT INTO item VALUES (6000, 'undone');
         DELETE FROM item WHERE id = 1000;
         UPDATE item SET label = 'undone' WHERE id = 1001;
         ROLLBACK;
         CREATE TABLE fresh (id INTEGER);
         INSERT INTO fresh VALUES (7);
         DROP TABLE gone;
         BEGIN;
         DROP TABLE item;
         CREATE TABLE tmp (id INTEGER);
         INSERT INTO tmp VALUES (1);
         ROLLBACK;",
    )
    .unwrap();
    let item = select_all(&db, "item");
    assert_eq!(item.len(), 1500 + 1 - 10);
    db.checkpoint().unwrap();
    drop(db);
    let db = Database::open(scratch.path()).unwrap();
    assert_eq!(select_all(&db, "item"), item);
    assert_eq!(select_all(&db, "fresh"), vec![vec![Value::Int(7)]]);
    for table in ["gone", "tmp"] {
        assert!(
            db.query(&format!("SELECT * FROM {table}")).is_err(),
            "{table}"
        );
    }
}

/// A table dropped and re-created under the same name between two
/// checkpoints: none of the old table's rows survive the reopen. A
/// dropped table that is not re-created leaves the store at the same
/// checkpoint.
#[test]
fn a_table_recreated_between_checkpoints_keeps_only_its_new_rows() {
    let scratch = Scratch::new();
    let mut db = Database::open(scratch.path()).unwrap();
    db.set_wal_sync(false);
    let mut script = String::from(
        "CREATE TABLE t (id INTEGER, v VARCHAR(20));
         CREATE TABLE u (id INTEGER);
         INSERT INTO u VALUES (1);",
    );
    for i in 0..300 {
        script.push_str(&format!("INSERT INTO t VALUES ({i}, 'old {i}');"));
    }
    db.run_script(&script).unwrap();
    db.checkpoint().unwrap();
    db.run_script(
        "DROP TABLE t;
         CREATE TABLE t (id INTEGER, v VARCHAR(20));
         INSERT INTO t VALUES (0, 'new 0'), (1, 'new 1'), (2, 'new 2');
         DROP TABLE u;",
    )
    .unwrap();
    db.checkpoint().unwrap();
    drop(db);
    let db = Database::open(scratch.path()).unwrap();
    let want: Vec<_> = (0..3)
        .map(|i| vec![Value::Int(i), Value::Str(format!("new {i}"))])
        .collect();
    assert_eq!(select_all(&db, "t"), want);
    assert!(db.query("SELECT * FROM u").is_err(), "u stays dropped");
}

#[test]
fn rollback_and_ddl_undo_reach_the_checkpoint() {
    let scratch = Scratch::new();
    let mut db = Database::open(scratch.path()).unwrap();
    db.run_script(
        "CREATE TABLE t (id INTEGER, v VARCHAR(10));
         INSERT INTO t VALUES (1, 'keep');",
    )
    .unwrap();
    // DML rollback: the undone insert must not reach the checkpoint.
    db.run_script("BEGIN; INSERT INTO t VALUES (2, 'gone'); ROLLBACK;")
        .unwrap();
    // DDL rollback: the dropped table comes back with its row.
    db.run_script("BEGIN; DROP TABLE t; ROLLBACK;").unwrap();
    // DDL rollback the other way: CREATE TABLE undone drops the table
    // again.
    db.run_script("BEGIN; CREATE TABLE u (id INTEGER); ROLLBACK;")
        .unwrap();
    db.checkpoint().unwrap();
    db.close().unwrap();
    let db = Database::open(scratch.path()).unwrap();
    assert_eq!(
        select_all(&db, "t"),
        vec![vec![Value::Int(1), Value::Str("keep".into())]]
    );
    assert!(
        db.query("SELECT * FROM u").is_err(),
        "rolled-back table gone"
    );
}
