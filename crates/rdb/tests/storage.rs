//! Tests for the paged storage subsystem (pager, B-tree, buffer pool,
//! paged backend) plus the engine integration:
//!
//! 1. Page-format golden test: a known page encodes to a byte-exact
//!    image constructed independently from the documented layout.
//! 2. Checkpoint-codec robustness, on `pages.meta` and `snapshot.bin`
//!    alike: round-trip, plus truncation at *every* byte offset,
//!    trailing bytes and single-byte corruption must error, never
//!    panic — each file is its backend's commit point.
//! 3. B-tree model test: random put/delete then a full scan against a
//!    `BTreeMap` oracle under a minimal buffer pool (eviction pressure
//!    on every descent), including overflow-chain values.
//! 4. End-to-end paged engine: DML + checkpoint + reopen, WAL replay
//!    without a checkpoint, statements that never touch the pool,
//!    rollback and DDL undo reaching the checkpoint, a table re-created
//!    between checkpoints, and migration of a memory-backend snapshot
//!    directory.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use xmlup_rdb::storage::btree::{bt_delete, bt_put, bt_scan, MAX_INLINE};
use xmlup_rdb::storage::checkpoint::{
    decode_meta, decode_snapshot, encode_meta, encode_snapshot, PageAlloc, Slots,
};
use xmlup_rdb::storage::pager::{Page, PageKind, Pager, PAGE_HDR, PAGE_SIZE, SLOT_ENTRY};
use xmlup_rdb::storage::pool::PageHeap;
use xmlup_rdb::storage::{self, CatalogTable, CheckpointCatalog, TableImage};
use xmlup_rdb::wal;
use xmlup_rdb::{
    BackendKind, ColumnDef, DataType, Database, DbError, StorageConfig, TableSchema, Value,
};

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

// ----------------------------------------------------------------------
// page format
// ----------------------------------------------------------------------

#[test]
fn crc32_is_standard_ieee() {
    // The standard CRC-32 check value: pins the polynomial the page
    // and meta images are sealed with.
    assert_eq!(wal::crc32(b"123456789"), 0xCBF4_3926);
}

#[test]
fn page_format_golden() {
    // Build the page through the API ...
    let cells: Vec<Vec<u8>> = vec![b"hello".to_vec(), b"".to_vec(), vec![0xAB; 7]];
    let mut page = Page::new(PageKind::Leaf);
    page.set_next(0x1122_3344_5566_7788);
    assert!(page.set_cells(&cells));
    page.set_lsn(42);
    page.seal();

    // ... and independently from the documented layout:
    //   [crc u32][kind u8][flags u8][ncells u16][lsn u64][next u64]
    //   then 4-byte slot entries ([offset u16][len u16]), cells packed
    //   downward from the page tail in slot order, zeroes between.
    let mut want = [0u8; PAGE_SIZE];
    want[4] = 1; // kind = leaf
    want[5] = 0; // flags
    want[6..8].copy_from_slice(&3u16.to_le_bytes());
    want[8..16].copy_from_slice(&42u64.to_le_bytes());
    want[16..24].copy_from_slice(&0x1122_3344_5566_7788u64.to_le_bytes());
    let mut tail = PAGE_SIZE;
    for (i, cell) in cells.iter().enumerate() {
        tail -= cell.len();
        let slot = PAGE_HDR + i * SLOT_ENTRY;
        want[slot..slot + 2].copy_from_slice(&(tail as u16).to_le_bytes());
        want[slot + 2..slot + 4].copy_from_slice(&(cell.len() as u16).to_le_bytes());
        want[tail..tail + cell.len()].copy_from_slice(cell);
    }
    let crc = wal::crc32(&want[4..]);
    want[0..4].copy_from_slice(&crc.to_le_bytes());

    assert_eq!(
        page.as_bytes()[..],
        want[..],
        "page image must be byte-exact"
    );

    // And the image round-trips through the validating reader.
    let back = Page::from_bytes(&want).expect("sealed page decodes");
    assert_eq!(back.kind(), PageKind::Leaf);
    assert_eq!(back.ncells(), 3);
    assert_eq!(back.lsn(), 42);
    assert_eq!(back.cells(), cells);
}

#[test]
fn corrupt_page_rejected() {
    let mut page = Page::new(PageKind::Interior);
    assert!(page.set_cells(&[b"cell".to_vec()]));
    page.seal();
    let good = *page.as_bytes();
    assert!(Page::from_bytes(&good).is_ok());
    for at in [0usize, 4, 100, PAGE_SIZE - 1] {
        let mut bad = good;
        bad[at] ^= 0xFF;
        assert!(
            Page::from_bytes(&bad).is_err(),
            "flipped byte {at} must fail CRC or kind validation"
        );
    }
    assert!(
        Page::from_bytes(&good[..PAGE_SIZE - 1]).is_err(),
        "short read"
    );
}

// ----------------------------------------------------------------------
// checkpoint codec (one catalog, two files)
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
                slots_len: 3,
                indexed: vec![0, 1, 2],
                stats: None,
            },
            CatalogTable {
                key: "empty".into(),
                schema: schema("Empty", vec![]),
                slots_len: 0,
                indexed: vec![],
                stats: None,
            },
        ],
        triggers: vec!["CREATE TRIGGER t AFTER DELETE ON Edge FOR EACH ROW BEGIN END".into()],
    }
}

fn sample_alloc() -> PageAlloc {
    PageAlloc {
        page_count: 99,
        lsn: 400,
        free: vec![3, 8, 21],
    }
}

/// Slot vectors matching `sample_catalog`'s slot counts.
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
    let catalog = sample_catalog();
    let (alloc, roots, slots) = (sample_alloc(), vec![5, 0], sample_slots());
    let meta = encode_meta(&catalog, &alloc, &roots);
    assert_eq!(
        decode_meta(&meta).expect("intact meta decodes"),
        (catalog.clone(), alloc, roots)
    );
    let snapshot = encode_snapshot(&catalog, &borrowed(&slots));
    assert_eq!(
        decode_snapshot(&snapshot).expect("intact snapshot decodes"),
        (catalog, slots)
    );
    // Each file commits a checkpoint and is published whole: a torn
    // write, bytes after the frame, or a flipped bit must be detected.
    let meta_ok: fn(&[u8]) -> bool = |b| decode_meta(b).is_ok();
    let snapshot_ok: fn(&[u8]) -> bool = |b| decode_snapshot(b).is_ok();
    for (what, bytes, ok) in [("meta", meta, meta_ok), ("snapshot", snapshot, snapshot_ok)] {
        for cut in 0..bytes.len() {
            assert!(!ok(&bytes[..cut]), "{what}: truncation at {cut}");
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(!ok(&longer), "{what}: one trailing byte");
        longer.extend_from_slice(&bytes);
        assert!(!ok(&longer), "{what}: a second frame after the first");
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x01;
            assert!(!ok(&bad), "{what}: corruption at {at}");
        }
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
            slots_len: 3,
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
        any::<u64>(),
        prop::collection::vec(any::<u32>(), 0..4),
    )
        .prop_map(|(key, columns, slots_len, indexed)| CatalogTable {
            schema: schema(&key.to_ascii_uppercase(), columns),
            key,
            slots_len,
            indexed,
            stats: None,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn meta_codec_roundtrip_random(
        generation in any::<u64>(),
        next_id in any::<i64>(),
        page_count in any::<u64>(),
        lsn in any::<u64>(),
        free in prop::collection::vec(any::<u64>(), 0..8),
        tables in prop::collection::vec((arb_catalog_table(), any::<u64>()), 0..4),
        triggers in prop::collection::vec("[A-Z a-z]{0,24}", 0..3),
    ) {
        let (tables, roots): (Vec<_>, Vec<u64>) = tables.into_iter().unzip();
        let catalog = CheckpointCatalog { generation, next_id, tables, triggers };
        let alloc = PageAlloc { page_count, lsn, free };
        let bytes = encode_meta(&catalog, &alloc, &roots);
        for cut in 0..bytes.len() {
            prop_assert!(decode_meta(&bytes[..cut]).is_err());
        }
        prop_assert_eq!(decode_meta(&bytes).expect("roundtrip"), (catalog, alloc, roots));
    }
}

// ----------------------------------------------------------------------
// B-tree under a minimal buffer pool
// ----------------------------------------------------------------------

#[derive(Debug, Clone)]
enum BtOp {
    Put(u64, Vec<u8>),
    Delete(u64),
}

fn arb_bt_op() -> impl Strategy<Value = BtOp> {
    let key = 0u64..48;
    prop_oneof![
        4 => (key.clone(), prop::collection::vec(any::<u8>(), 0..40))
            .prop_map(|(k, v)| BtOp::Put(k, v)),
        1 => (key.clone(), Just(MAX_INLINE + 123))
            .prop_map(|(k, n)| BtOp::Put(k, vec![(k & 0xFF) as u8; n])),
        2 => key.prop_map(BtOp::Delete),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn btree_matches_model(ops in prop::collection::vec(arb_bt_op(), 1..120)) {
        let scratch = Scratch::new();
        let pager = Pager::open(&scratch.path().join("bt.bin")).unwrap();
        // Budget of 1 clamps to the 8-frame minimum: every multi-level
        // descent causes eviction traffic.
        let mut heap = PageHeap::new(pager, 1);
        let mut root = 0u64;
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for op in &ops {
            match op {
                BtOp::Put(k, v) => {
                    root = bt_put(&mut heap, root, *k, v).unwrap();
                    model.insert(*k, v.clone());
                }
                BtOp::Delete(k) => {
                    root = bt_delete(&mut heap, root, *k).unwrap();
                    model.remove(k);
                }
            }
        }
        let scanned = bt_scan(&mut heap, root).unwrap();
        let want: Vec<(u64, Vec<u8>)> = model.iter().map(|(k, v)| (*k, v.clone())).collect();
        prop_assert_eq!(scanned, want);
        if model.is_empty() {
            prop_assert_eq!(root, 0, "empty tree collapses to the nil root");
        }
    }
}

#[test]
fn btree_overflow_values_roundtrip() {
    let scratch = Scratch::new();
    let pager = Pager::open(&scratch.path().join("ovf.bin")).unwrap();
    let mut heap = PageHeap::new(pager, 16);
    let chunk = PAGE_SIZE - PAGE_HDR - SLOT_ENTRY;
    let sizes = [0, 1, MAX_INLINE, MAX_INLINE + 1, chunk, 3 * chunk + 5];
    let mut want: Vec<(u64, Vec<u8>)> = sizes
        .iter()
        .enumerate()
        .map(|(k, n)| (k as u64, (0..*n).map(|i| (i % 251) as u8).collect()))
        .collect();
    let mut root = 0u64;
    for (k, val) in &want {
        root = bt_put(&mut heap, root, *k, val).unwrap();
    }
    assert_eq!(bt_scan(&mut heap, root).unwrap(), want);
    // Replacing an overflow value frees its chain; deleting everything
    // collapses the tree.
    root = bt_put(&mut heap, root, 5, b"short now").unwrap();
    want[5].1 = b"short now".to_vec();
    assert_eq!(bt_scan(&mut heap, root).unwrap(), want);
    for k in 0..sizes.len() {
        root = bt_delete(&mut heap, root, k as u64).unwrap();
    }
    assert_eq!(root, 0);
}

// ----------------------------------------------------------------------
// paged store: eviction, checkpoint, reopen
// ----------------------------------------------------------------------

fn int_row(i: i64) -> Vec<Value> {
    vec![Value::Int(i), Value::Str(format!("row-{i}"))]
}

fn paged(pool_frames: usize) -> StorageConfig {
    StorageConfig {
        pool_frames,
        ..StorageConfig::paged()
    }
}

/// The catalog of a store holding the one table `t` of `int_row`s.
fn one_table_catalog(generation: u64, slots_len: u64) -> CheckpointCatalog {
    CheckpointCatalog {
        generation,
        next_id: 0,
        tables: vec![CatalogTable {
            key: "t".into(),
            schema: schema(
                "T",
                vec![
                    ("id".into(), DataType::Integer),
                    ("name".into(), DataType::Text),
                ],
            ),
            slots_len,
            indexed: vec![],
            stats: None,
        }],
        triggers: vec![],
    }
}

#[test]
fn paged_store_survives_eviction_and_reopen() {
    let scratch = Scratch::new();
    let n = 500u64;
    {
        let (store, checkpoint) = storage::open(scratch.path(), paged(1), None).unwrap();
        assert!(checkpoint.is_none(), "fresh directory has no checkpoint");
        // A table new since the last checkpoint is written whole, so the
        // reopen has a meta to recover from.
        let slots: Vec<_> = (0..n).map(|i| Some(int_row(i as i64))).collect();
        let image = TableImage {
            slots: &slots,
            changed: None,
        };
        let report = store
            .checkpoint(&one_table_catalog(1, n), &[image])
            .unwrap();
        assert!(report.pages_written > 0 && report.bytes_written > 0);
        let stats = store.metrics().pool;
        assert!(
            stats.evictions > 0 && stats.writebacks > 0,
            "an 8-frame pool over {n} rows must evict (stats: {stats:?})"
        );
    }
    // The recovery scan is the only reader of the B-tree: the slots it
    // hands back are every row written before the checkpoint.
    let (_, checkpoint) = storage::open(scratch.path(), paged(1), Some(1)).unwrap();
    let (catalog, slots) = checkpoint.expect("checkpoint recovered");
    assert_eq!(catalog, one_table_catalog(1, n));
    let want: Vec<_> = (0..n).map(|i| Some(int_row(i as i64))).collect();
    assert_eq!(slots, vec![want], "slots come from the B-tree");
}

#[test]
fn incremental_checkpoint_writes_only_dirty_pages() {
    let scratch = Scratch::new();
    let (store, _) = storage::open(scratch.path(), paged(4096), None).unwrap();
    let mut slots: Vec<_> = (0..2000).map(|i| Some(int_row(i))).collect();
    let image = TableImage {
        slots: &slots,
        changed: None,
    };
    let full = store
        .checkpoint(&one_table_catalog(1, 2000), &[image])
        .unwrap();
    // Touch a handful of rows: the next checkpoint must write far fewer
    // pages than the first (CoW amplifies a row to its root path, but
    // that is still O(touched), not O(database)).
    for (i, slot) in slots.iter_mut().enumerate().take(20) {
        *slot = Some(int_row(-(i as i64)));
    }
    let image = TableImage {
        slots: &slots,
        changed: Some(&[(1 << 20) - 1]),
    };
    let incr = store
        .checkpoint(&one_table_catalog(2, 2000), &[image])
        .unwrap();
    assert!(
        incr.pages_written * 5 <= full.pages_written,
        "dirty-only checkpoint must be ≥5x smaller: full={} incr={}",
        full.pages_written,
        incr.pages_written
    );
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
fn paged_database_checkpoint_and_reopen() {
    let scratch = Scratch::new();
    let cfg = StorageConfig::paged();
    let before;
    {
        let mut db = Database::open_with(scratch.path(), cfg).unwrap();
        assert_eq!(db.backend_kind(), BackendKind::Paged);
        db.run_script(
            "CREATE TABLE item (id INTEGER, label VARCHAR(20));
             CREATE INDEX item_id ON item (id);
             INSERT INTO item VALUES (1, 'a'), (2, 'b'), (3, 'c');
             UPDATE item SET label = 'bee' WHERE id = 2;
             DELETE FROM item WHERE id = 3;",
        )
        .unwrap();
        db.checkpoint().unwrap();
        let s = db.stats();
        assert!(
            s.checkpoint_pages_written > 0,
            "paged checkpoint reports pages"
        );
        assert!(s.checkpoint_bytes_written > 0);
        // Post-checkpoint mutations land in the WAL only.
        db.execute("INSERT INTO item VALUES (4, 'd')").unwrap();
        before = select_all(&db, "item");
        db.close().unwrap();
    }
    // Remove the legacy snapshot name if present: the paged path must
    // not depend on it.
    assert!(
        !scratch.path().join("snapshot.bin").exists(),
        "paged checkpoint must not write a full snapshot"
    );
    {
        let db = Database::open_with(scratch.path(), cfg).unwrap();
        assert_eq!(select_all(&db, "item"), before);
        // The recovered heap's indexes answer probes.
        let rs = db.query("SELECT label FROM item WHERE id = 2").unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Str("bee".into())]]);
        let sm = db.storage_metrics();
        assert_eq!(sm.backend, BackendKind::Paged);
        assert!(sm.pages_allocated > 0);
    }
}

/// One read path: on the paged backend every statement reads the heap,
/// and the page store is written through, never read, while the
/// database is open. A seq scan, an `=` probe, an `IN` list, a range
/// seek, an ordered `LIMIT` walk and a join over a table several times
/// larger than an 8-frame pool must not touch the pool at all, and must
/// answer as a memory-backend twin does.
#[test]
fn queries_read_the_heap_never_the_pool() {
    let scratch = Scratch::new();
    let mut paged_db = Database::open_with(scratch.path(), paged(8)).unwrap();
    paged_db.set_wal_sync(false);
    let mut mem = Database::new();
    let mut script = String::from(
        "CREATE TABLE item (id INTEGER, grp INTEGER, label VARCHAR(60));
         CREATE INDEX item_id ON item (id);
         CREATE TABLE grp (id INTEGER, name VARCHAR(10));
         CREATE INDEX grp_id ON grp (id);
         INSERT INTO grp VALUES (0, 'g0'), (1, 'g1'), (2, 'g2'), (3, 'g3');",
    );
    for chunk in (0..1500i64).collect::<Vec<_>>().chunks(100) {
        let values: Vec<String> = chunk
            .iter()
            .map(|i| format!("({i}, {}, 'item {i:05} outgrows the pool')", i % 7))
            .collect();
        script.push_str(&format!("INSERT INTO item VALUES {};", values.join(", ")));
    }
    script.push_str("ANALYZE;");
    for db in [&mut paged_db, &mut mem] {
        db.run_script(&script).unwrap();
    }
    paged_db.checkpoint().unwrap();
    let before = paged_db.storage_metrics();
    assert!(
        before.pages_allocated > 8 && before.pool.evictions > 0,
        "the rows must not fit the pool: {before:?}"
    );
    let s0 = paged_db.stats();
    let battery = [
        "SELECT * FROM item",
        "SELECT * FROM item WHERE id = 777",
        "SELECT * FROM item WHERE id IN (3, 500, 1499, 99999)",
        "SELECT id, label FROM item WHERE id BETWEEN 100 AND 120",
        "SELECT id, label FROM item ORDER BY id DESC LIMIT 5",
        "SELECT i.id, g.name FROM item i, grp g WHERE g.id = i.grp",
    ];
    for q in battery {
        let mut got = paged_db.query(q).unwrap().rows;
        let mut want = mem.query(q).unwrap().rows;
        if !q.contains("ORDER BY") {
            got.sort();
            want.sort();
        }
        assert!(!want.is_empty(), "{q}");
        assert_eq!(got, want, "{q}");
    }
    let s1 = paged_db.stats();
    for (what, b, a) in [
        ("seq scans", s0.seq_scans, s1.seq_scans),
        ("index scans", s0.index_scans, s1.index_scans),
        ("range seeks", s0.range_seeks, s1.range_seeks),
        (
            "ordered walks",
            s0.ordered_index_scans,
            s1.ordered_index_scans,
        ),
        ("join builds", s0.hash_join_builds, s1.hash_join_builds),
    ] {
        assert!(a > b, "the battery must exercise {what}");
    }
    let pool = paged_db.storage_metrics().pool;
    assert_eq!(
        pool.hits + pool.misses,
        before.pool.hits + before.pool.misses,
        "a query touched the buffer pool"
    );
}

#[test]
fn paged_database_recovers_from_wal_without_checkpoint() {
    let scratch = Scratch::new();
    let cfg = StorageConfig::paged();
    let before;
    {
        let mut db = Database::open_with(scratch.path(), cfg).unwrap();
        db.run_script(
            "CREATE TABLE t (id INTEGER, v VARCHAR(10));
             INSERT INTO t VALUES (1, 'x'), (2, 'y');",
        )
        .unwrap();
        before = select_all(&db, "t");
        // Drop without close: simulated crash. Everything lives in the
        // WAL; the page store has no meta yet.
    }
    let db = Database::open_with(scratch.path(), cfg).unwrap();
    assert_eq!(select_all(&db, "t"), before);
    assert!(db.stats().recovered_txns > 0, "WAL replay ran");
}

/// One write path: statements write the heap and the WAL, never the
/// page store. On a checkpointed store several times larger than its
/// 8-frame pool, DML, its rollback, DDL and DDL rollback leave every
/// pool counter where it was; the next `CHECKPOINT` brings the trees up
/// to date, and a reopen from them sees exactly what the statements
/// left.
#[test]
fn statements_write_the_heap_never_the_pool() {
    let scratch = Scratch::new();
    let mut db = Database::open_with(scratch.path(), paged(8)).unwrap();
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
            .map(|i| format!("({i}, 'item {i:05} outgrows the pool')"))
            .collect();
        script.push_str(&format!("INSERT INTO item VALUES {};", values.join(", ")));
    }
    db.run_script(&script).unwrap();
    db.checkpoint().unwrap();
    let before = db.storage_metrics();
    assert!(
        before.pages_allocated > 8 && before.pool.evictions > 0,
        "the rows must not fit the pool: {before:?}"
    );
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
    let after = db.storage_metrics();
    let counters = |m: &xmlup_rdb::StorageMetrics| {
        (
            m.pool.hits,
            m.pool.misses,
            m.pool.evictions,
            m.pages_allocated,
        )
    };
    assert_eq!(
        counters(&after),
        counters(&before),
        "a statement touched the page store"
    );
    let item = select_all(&db, "item");
    assert_eq!(item.len(), 1500 + 1 - 10);
    db.checkpoint().unwrap();
    let pool = db.storage_metrics().pool;
    assert!(
        pool.hits + pool.misses > before.pool.hits + before.pool.misses,
        "the checkpoint brings the trees up to the heap"
    );
    drop(db);
    let db = Database::open_with(scratch.path(), paged(8)).unwrap();
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
/// checkpoints is written whole into a new tree: none of the old tree's
/// rows survive the reopen. A dropped table that is not re-created
/// leaves the store at the same checkpoint.
#[test]
fn a_table_recreated_between_checkpoints_keeps_only_its_new_rows() {
    let scratch = Scratch::new();
    let mut db = Database::open_with(scratch.path(), paged(8)).unwrap();
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
    let db = Database::open_with(scratch.path(), paged(8)).unwrap();
    let want: Vec<_> = (0..3)
        .map(|i| vec![Value::Int(i), Value::Str(format!("new {i}"))])
        .collect();
    assert_eq!(select_all(&db, "t"), want);
    assert!(db.query("SELECT * FROM u").is_err(), "u stays dropped");
}

#[test]
fn paged_rollback_and_ddl_undo_reach_the_checkpoint() {
    let scratch = Scratch::new();
    let cfg = StorageConfig::paged();
    let mut db = Database::open_with(scratch.path(), cfg).unwrap();
    db.run_script(
        "CREATE TABLE t (id INTEGER, v VARCHAR(10));
         INSERT INTO t VALUES (1, 'keep');",
    )
    .unwrap();
    // DML rollback: the mirrored insert must be mirrored back out.
    db.run_script("BEGIN; INSERT INTO t VALUES (2, 'gone'); ROLLBACK;")
        .unwrap();
    // DDL rollback: DROP TABLE reclaims pages; the undo re-seeds them.
    db.run_script("BEGIN; DROP TABLE t; ROLLBACK;").unwrap();
    // DDL rollback the other way: CREATE TABLE undone drops the store
    // table again.
    db.run_script("BEGIN; CREATE TABLE u (id INTEGER); ROLLBACK;")
        .unwrap();
    db.checkpoint().unwrap();
    db.close().unwrap();
    let db = Database::open_with(scratch.path(), cfg).unwrap();
    assert_eq!(
        select_all(&db, "t"),
        vec![vec![Value::Int(1), Value::Str("keep".into())]]
    );
    assert!(
        db.query("SELECT * FROM u").is_err(),
        "rolled-back table gone"
    );
}

/// Every file of a store directory, byte for byte.
fn dir_image(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .map(|e| {
            let name = e.file_name().into_string().unwrap();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect()
}

/// The default (memory) backend must refuse `dir` and touch nothing.
fn assert_memory_open_refused(dir: &Path) {
    let before = dir_image(dir);
    match Database::open(dir) {
        Err(DbError::Storage(why)) => assert!(why.contains("--backend paged"), "{why}"),
        other => panic!("expected a storage error, got {:?}", other.map(|_| ())),
    }
    assert!(dir_image(dir) == before, "a refused open modified {dir:?}");
}

#[test]
fn memory_open_of_a_paged_store_is_refused() {
    let scratch = Scratch::new();
    let cfg = StorageConfig::paged();
    let mut db = Database::open_with(scratch.path(), cfg).unwrap();
    db.run_script(
        "CREATE TABLE m (id INTEGER, v VARCHAR(10));
         INSERT INTO m VALUES (1, 'one'), (2, 'two');",
    )
    .unwrap();
    db.checkpoint().unwrap();
    // Acknowledged, and only in the WAL: what a wrong-backend open used
    // to wipe as "stale".
    db.execute("INSERT INTO m VALUES (3, 'three')").unwrap();
    db.close().unwrap();
    assert_memory_open_refused(scratch.path());
    let db = Database::open_with(scratch.path(), cfg).unwrap();
    assert_eq!(select_all(&db, "m").len(), 3);
}

#[test]
fn paged_open_migrates_memory_snapshot() {
    let scratch = Scratch::new();
    {
        let mut db = Database::open(scratch.path()).unwrap();
        db.run_script(
            "CREATE TABLE m (id INTEGER, v VARCHAR(10));
             INSERT INTO m VALUES (1, 'one'), (2, 'two');",
        )
        .unwrap();
        db.checkpoint().unwrap();
        db.close().unwrap();
    }
    assert!(scratch.path().join("snapshot.bin").exists());
    let cfg = StorageConfig::paged();
    let before;
    {
        let mut db = Database::open_with(scratch.path(), cfg).unwrap();
        assert_eq!(db.backend_kind(), BackendKind::Paged);
        before = select_all(&db, "m");
        assert_eq!(before.len(), 2);
        db.execute("INSERT INTO m VALUES (3, 'three')").unwrap();
        db.checkpoint().unwrap();
        db.execute("INSERT INTO m VALUES (4, 'four')").unwrap();
        db.close().unwrap();
    }
    // The page store's first checkpoint superseded the snapshot it was
    // migrated from: the file is gone, and the memory backend can no
    // longer open the directory on a stale copy of it.
    assert!(!scratch.path().join("snapshot.bin").exists());
    assert_memory_open_refused(scratch.path());
    let db = Database::open_with(scratch.path(), cfg).unwrap();
    assert_eq!(select_all(&db, "m").len(), 4);
}

#[test]
fn paged_metrics_exposed() {
    let scratch = Scratch::new();
    let mut db = Database::open_with(scratch.path(), StorageConfig::paged()).unwrap();
    db.run_script(
        "CREATE TABLE t (id INTEGER);
         INSERT INTO t VALUES (1), (2), (3);",
    )
    .unwrap();
    db.query("SELECT * FROM t").unwrap();
    let text = db.metrics_text();
    for name in [
        "rdb_storage_pool_hits_total",
        "rdb_storage_pool_misses_total",
        "rdb_storage_pool_evictions_total",
        "rdb_storage_pages_allocated",
        "rdb_checkpoint_pages_written_total",
        "rdb_checkpoint_bytes_written_total",
    ] {
        assert!(text.contains(name), "metrics must expose {name}");
    }
}
