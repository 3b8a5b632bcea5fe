//! On-disk format compatibility and distrust of what the disk says.
//!
//! `fixtures/format_v1/` holds two tiny store directories written by the
//! commit before the index kinds were merged (snapshot magic `XUPSNAP1`
//! with verbatim hash buckets, page-meta magic `XUPPGME1` with separate
//! hash / ordered column lists): `memory/` (`snapshot.bin` + `wal.bin`)
//! and `paged/` (`pages.meta` + `pages.bin` + `wal.bin`). Both were
//! produced by this script, whose tail after `CHECKPOINT` lives only in
//! the WAL — including `CREATE INDEX … USING HASH|ORDERED` as DDL text:
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
use xmlup_rdb::storage::pager::{decode_meta, encode_meta, StoreMeta, TableMeta};
use xmlup_rdb::wal::{self, Snapshot, SnapshotTable};
use xmlup_rdb::{DataType, Database, DbError, StorageConfig, Value};

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
        let src = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures/format_v1")
            .join(which);
        for entry in fs::read_dir(src).unwrap() {
            let entry = entry.unwrap();
            fs::copy(entry.path(), scratch.0.join(entry.file_name())).unwrap();
        }
        scratch
    }
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
    // Hash-kind, ordered-kind, checkpointed and WAL-replayed indexes all
    // came back as the one kind, and every one serves probes and seeks.
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

fn reopen_and_recheckpoint(which: &str, config: StorageConfig, file: &str, magic: &[u8; 8]) {
    let scratch = Scratch::with_fixture(which);
    assert_ne!(&fs::read(scratch.0.join(file)).unwrap()[..8], magic);
    let mut db = Database::open_with(&scratch.0, config).unwrap();
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
        &fs::read(scratch.0.join(file)).unwrap()[..8],
        magic,
        "the checkpoint rewrote {file} in the current format"
    );
    let db = Database::open_with(&scratch.0, config).unwrap();
    assert_eq!(
        strs(&db, "SELECT name FROM item ORDER BY id"),
        ["pomelo", "NULL", "apple", "fig"]
    );
    assert_eq!(db.table("item").unwrap().indexed_columns(), vec![0, 1, 2]);
}

#[test]
fn parent_format_snapshot_opens_and_recheckpoints() {
    reopen_and_recheckpoint(
        "memory",
        StorageConfig::default(),
        "snapshot.bin",
        wal::SNAP_MAGIC,
    );
}

#[test]
fn parent_format_page_store_opens_and_recheckpoints() {
    reopen_and_recheckpoint(
        "paged",
        StorageConfig {
            pool_frames: 8,
            ..StorageConfig::paged()
        },
        "pages.meta",
        xmlup_rdb::storage::pager::META_MAGIC,
    );
}

#[test]
fn parent_format_snapshot_migrates_to_the_page_store() {
    let scratch = Scratch::with_fixture("memory");
    let db = Database::open_with(&scratch.0, StorageConfig::paged()).unwrap();
    assert_fixture_state(&db);
}

/// `[magic][len][crc][body]`, the framing both checkpoint files share.
fn framed(magic: &[u8], body: &[u8]) -> Vec<u8> {
    let mut out = magic.to_vec();
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&wal::crc32(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

#[test]
fn old_magic_over_garbage_is_a_decode_error() {
    // Raw garbage behind the old magic fails the frame check...
    assert!(wal::decode_snapshot(b"XUPSNAP1\xff\xff\xff\xffgarbage!garbage!").is_err());
    assert!(decode_meta(b"XUPPGME1\xff\xff\xff\xffgarbage!garbage!").is_err());
    // ...and a CRC-valid frame whose body is cut anywhere, or is noise,
    // fails in the old-format body parser (bucket skipping included)
    // instead of panicking or allocating by a length it read.
    let snapshot_ok: fn(&[u8]) -> bool = |b| wal::decode_snapshot(b).is_ok();
    let meta_ok: fn(&[u8]) -> bool = |b| decode_meta(b).is_ok();
    for (file, decode) in [
        ("memory/snapshot.bin", snapshot_ok),
        ("paged/pages.meta", meta_ok),
    ] {
        let bytes = fs::read(
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("tests/fixtures/format_v1")
                .join(file),
        )
        .unwrap();
        let (magic, body) = (&bytes[..8], &bytes[16..]);
        assert!(decode(&framed(magic, body)), "{file}: intact body decodes");
        for cut in 0..body.len() {
            assert!(!decode(&framed(magic, &body[..cut])), "{file} cut at {cut}");
        }
        let noise: Vec<u8> = (0..body.len()).map(|i| (i * 131 + 7) as u8).collect();
        assert!(!decode(&framed(magic, &noise)), "{file}: noise body");
    }
}

#[test]
fn index_columns_read_from_disk_are_checked() {
    let columns = vec![
        ("id".to_string(), DataType::Integer),
        ("name".to_string(), DataType::Text),
    ];
    let row = vec![Value::Int(1), Value::from("a")];

    // Snapshot: CRC-valid, but it indexes column 7 of a 2-column table.
    let scratch = Scratch::new();
    let snap = Snapshot {
        generation: 1,
        next_id: 1,
        tables: vec![SnapshotTable {
            key: "t".into(),
            name: "t".into(),
            columns: columns.clone(),
            slots: vec![Some(row.clone())],
            indexed: vec![0, 7],
            stats: None,
        }],
        triggers: vec![],
    };
    fs::write(scratch.0.join("snapshot.bin"), wal::encode_snapshot(&snap)).unwrap();
    for config in [StorageConfig::default(), StorageConfig::paged()] {
        match Database::open_with(&scratch.0, config) {
            Err(DbError::Storage(why)) => assert!(why.contains("unknown column 7"), "{why}"),
            other => panic!("expected a storage error, got {:?}", other.map(|_| ())),
        }
    }

    // Page meta: same lie, told by the paged backend's commit point.
    let scratch = Scratch::new();
    let meta = StoreMeta {
        generation: 1,
        next_id: 1,
        page_count: 0,
        lsn: 0,
        free: vec![],
        tables: vec![TableMeta {
            key: "t".into(),
            name: "t".into(),
            columns,
            root: 0,
            slots_len: 0,
            indexed: vec![2],
            stats: None,
        }],
        triggers: vec![],
    };
    fs::write(scratch.0.join("pages.meta"), encode_meta(&meta)).unwrap();
    match Database::open_with(&scratch.0, StorageConfig::paged()) {
        Err(DbError::Storage(why)) => assert!(why.contains("unknown column 2"), "{why}"),
        other => panic!("expected a storage error, got {:?}", other.map(|_| ())),
    }

    // A row narrower than its schema would panic the index build too.
    let scratch = Scratch::new();
    let mut short = snap;
    short.tables[0].indexed = vec![1];
    short.tables[0].slots = vec![Some(vec![Value::Int(1)])];
    fs::write(scratch.0.join("snapshot.bin"), wal::encode_snapshot(&short)).unwrap();
    assert!(matches!(
        Database::open(&scratch.0),
        Err(DbError::Storage(_))
    ));
}
