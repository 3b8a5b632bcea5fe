//! On-disk format compatibility and distrust of what the disk says.
//!
//! `fixtures/format_v2/` holds two tiny store directories written by
//! commit 9a6a494: `memory/` (`snapshot.bin`, magic `XUPSNAP2`, +
//! `wal.bin`) and `paged/` (`pages.meta` + `pages.bin` + `wal.bin`),
//! written by the paged backend that was removed since. `memory/` pins
//! the bytes: the codec must read them and write them back identically.
//! `paged/` must be refused with every file left as found. Both were
//! produced by `Database::run_script` of this script followed by
//! `close()`; its tail after `CHECKPOINT` lives only in the WAL:
//!
//! ```sql
//! CREATE TABLE item (id INTEGER, parentId INTEGER, name TEXT);
//! CREATE TABLE child (id INTEGER, parentId INTEGER);
//! CREATE INDEX item_id ON item (id);
//! CREATE INDEX item_name ON item (name) USING ORDERED;
//! CREATE INDEX child_parent ON child (parentId);
//! CREATE TRIGGER item_del AFTER DELETE ON item FOR EACH ROW BEGIN
//!   DELETE FROM child WHERE parentId = OLD.id; END;
//! INSERT INTO item VALUES (1, 0, 'pear'), (2, 0, 'apple'), (3, 1, NULL),
//!                         (4, 1, 'plum'), (5, 2, 'peach');
//! INSERT INTO child VALUES (10, 1), (11, 1), (12, 4), (13, 5);
//! UPDATE item SET id = 6 WHERE id = 2;
//! DELETE FROM item WHERE id = 4;
//! ANALYZE item;
//! CHECKPOINT;
//! INSERT INTO item VALUES (7, 6, 'fig');
//! CREATE INDEX item_parent ON item (parentId) USING HASH;
//! CREATE INDEX child_id ON child (id) USING ORDERED;
//! UPDATE item SET name = 'pomelo' WHERE id = 1;
//! DELETE FROM item WHERE id = 5;
//! ```

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use xmlup_rdb::storage::checkpoint::{decode_snapshot, encode_snapshot, SNAP_MAGIC};
use xmlup_rdb::storage::{CatalogTable, CheckpointCatalog};
use xmlup_rdb::{wal, ColumnDef, DataType, Database, DbError, TableSchema, Value};

/// Unique scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "xmlup-format-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    /// A scratch copy of one fixture store (opening a store writes to it).
    fn with_fixture(which: &str) -> Scratch {
        let scratch = Scratch::new();
        for entry in fs::read_dir(fixture(which)).unwrap() {
            let entry = entry.unwrap();
            fs::copy(entry.path(), scratch.0.join(entry.file_name())).unwrap();
        }
        scratch
    }
}

fn fixture(path: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/format_v2")
        .join(path)
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn strs(db: &Database, sql: &str) -> Vec<String> {
    db.query(sql)
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].render())
        .collect()
}

/// What the fixture script left behind, checkpoint and WAL tail both.
fn assert_fixture_state(db: &Database) {
    assert_eq!(
        strs(db, "SELECT name FROM item ORDER BY id"),
        ["pomelo", "NULL", "apple", "fig"]
    );
    assert_eq!(
        strs(db, "SELECT id FROM child ORDER BY id"),
        ["10", "11"],
        "the delete trigger's cascade was replayed, not re-fired"
    );
    // Checkpointed and WAL-replayed indexes all came back, and every one
    // serves probes and seeks.
    assert_eq!(db.table("item").unwrap().indexed_columns(), vec![0, 1, 2]);
    assert_eq!(db.table("child").unwrap().indexed_columns(), vec![0, 1]);
    let plan = strs(db, "EXPLAIN SELECT name FROM item WHERE id = 6").join("\n");
    assert!(plan.contains("IndexScan item (id = 6)"), "{plan}");
    assert_eq!(strs(db, "SELECT name FROM item WHERE id = 6"), ["apple"]);
    let plan = strs(db, "EXPLAIN SELECT id FROM item WHERE parentId > 5").join("\n");
    assert!(plan.contains("RangeScan item (parentId > 5)"), "{plan}");
    assert_eq!(strs(db, "SELECT id FROM item WHERE name LIKE 'p%'"), ["1"]);
    assert!(db.table("item").unwrap().statistics().is_some());
}

#[test]
fn parent_format_snapshot_opens_and_recheckpoints() {
    let scratch = Scratch::with_fixture("memory");
    let mut db = Database::open(&scratch.0).unwrap();
    assert_fixture_state(&db);
    // The trigger came back live.
    db.execute("DELETE FROM item WHERE id = 1").unwrap();
    assert!(strs(&db, "SELECT id FROM child").is_empty());
    db.execute("INSERT INTO child VALUES (10, 1), (11, 1)")
        .unwrap();
    db.execute("INSERT INTO item VALUES (1, 0, 'pomelo')")
        .unwrap();
    db.checkpoint().unwrap();
    db.close().unwrap();
    assert_eq!(
        &fs::read(scratch.0.join("snapshot.bin")).unwrap()[..8],
        SNAP_MAGIC
    );
    let db = Database::open(&scratch.0).unwrap();
    assert_eq!(
        strs(&db, "SELECT name FROM item ORDER BY id"),
        ["pomelo", "NULL", "apple", "fig"]
    );
    assert_eq!(db.table("item").unwrap().indexed_columns(), vec![0, 1, 2]);
}

/// The format did not move: what the parent commit wrote decodes, and
/// encoding what was decoded gives the parent's bytes back.
#[test]
fn parent_format_bytes_are_reproduced_exactly() {
    let bytes = fs::read(fixture("memory/snapshot.bin")).unwrap();
    let (catalog, slots) = decode_snapshot(&bytes).unwrap();
    let borrowed: Vec<&[Option<Vec<Value>>]> = slots.iter().map(Vec::as_slice).collect();
    assert_eq!(encode_snapshot(&catalog, &borrowed), bytes, "snapshot.bin");

    // So does a checkpoint of the opened store: same state, same bytes.
    let scratch = Scratch::with_fixture("memory");
    fs::remove_file(scratch.0.join("wal.bin")).unwrap();
    let before = fs::read(scratch.0.join("snapshot.bin")).unwrap();
    let mut db = Database::open(&scratch.0).unwrap();
    db.checkpoint().unwrap();
    let mut after = decode_snapshot(&fs::read(scratch.0.join("snapshot.bin")).unwrap()).unwrap();
    after.0.generation -= 1;
    assert_eq!(after, decode_snapshot(&before).unwrap());
}

/// `[magic][len][crc][body]`, the checkpoint file's framing.
fn framed(magic: &[u8], body: &[u8]) -> Vec<u8> {
    let mut out = magic.to_vec();
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&wal::crc32(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

#[test]
fn previous_format_version_is_refused_and_left_as_found() {
    // A store this build cannot read is not read on a guess: the open
    // fails, naming why, and changes no file — the WAL's acknowledged
    // tail included. Two such stores: a snapshot written before the
    // current format version (magic digit 1), and a store of the removed
    // paged backend.
    for (which, downgrade, why) in [
        ("memory", true, "bad magic"),
        ("paged", false, "pages.meta"),
    ] {
        let scratch = Scratch::with_fixture(which);
        if downgrade {
            let mut bytes = fs::read(scratch.0.join("snapshot.bin")).unwrap();
            bytes[7] = b'1';
            fs::write(scratch.0.join("snapshot.bin"), &bytes).unwrap();
        }
        let before = dir_image(&scratch.0);
        match Database::open(&scratch.0) {
            Err(DbError::Storage(e)) => assert!(e.contains(why), "{which}: {e}"),
            other => panic!("expected a storage error, got {:?}", other.map(|_| ())),
        }
        assert!(dir_image(&scratch.0) == before, "{which}: modified");
    }
}

#[test]
fn crc_valid_garbage_is_a_decode_error() {
    // Raw garbage behind the magic fails the frame check...
    assert!(decode_snapshot(b"XUPSNAP2\xff\xff\xff\xffgarbage!garbage!").is_err());
    // ...and a CRC-valid frame whose body is cut anywhere, or is noise,
    // fails in the body parser instead of panicking or allocating by a
    // length it read.
    let decode = |b: &[u8]| decode_snapshot(b).is_ok();
    let bytes = fs::read(fixture("memory/snapshot.bin")).unwrap();
    let (magic, body) = (&bytes[..8], &bytes[16..]);
    assert!(decode(&framed(magic, body)), "intact body decodes");
    for cut in 0..body.len() {
        assert!(!decode(&framed(magic, &body[..cut])), "cut at {cut}");
    }
    let noise: Vec<u8> = (0..body.len()).map(|i| (i * 131 + 7) as u8).collect();
    assert!(!decode(&framed(magic, &noise)), "noise body");
}

/// Every file of a store directory, byte for byte.
fn dir_image(dir: &Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .map(|e| {
            let name = e.file_name().into_string().unwrap();
            (name, fs::read(e.path()).unwrap())
        })
        .collect()
}

#[test]
fn index_columns_read_from_disk_are_checked() {
    let table = |indexed: Vec<u32>| CheckpointCatalog {
        generation: 1,
        next_id: 1,
        tables: vec![CatalogTable {
            key: "t".into(),
            schema: TableSchema {
                name: "t".into(),
                columns: [("id", DataType::Integer), ("name", DataType::Text)]
                    .map(|(name, ty)| ColumnDef {
                        name: name.into(),
                        ty,
                    })
                    .into(),
            },
            indexed,
            stats: None,
        }],
        triggers: vec![],
    };
    let row = vec![Value::Int(1), Value::from("a")];

    // Snapshot: CRC-valid, but it indexes column 7 of a 2-column table.
    let scratch = Scratch::new();
    let slots = [Some(row)];
    fs::write(
        scratch.0.join("snapshot.bin"),
        encode_snapshot(&table(vec![0, 7]), &[&slots]),
    )
    .unwrap();
    match Database::open(&scratch.0) {
        Err(DbError::Storage(why)) => assert!(why.contains("unknown column 7"), "{why}"),
        other => panic!("expected a storage error, got {:?}", other.map(|_| ())),
    }

    // A row narrower than its schema would panic the index build too.
    let scratch = Scratch::new();
    let slots = [Some(vec![Value::Int(1)])];
    fs::write(
        scratch.0.join("snapshot.bin"),
        encode_snapshot(&table(vec![1]), &[&slots]),
    )
    .unwrap();
    assert!(matches!(
        Database::open(&scratch.0),
        Err(DbError::Storage(_))
    ));
}
