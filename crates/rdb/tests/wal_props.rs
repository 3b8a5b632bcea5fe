//! Property tests for the WAL (satellite of the durability PR):
//!
//! 1. Record framing round-trips over arbitrary `Value` rows — what the
//!    codec writes, the codec reads back, for every record shape — and
//!    the bytes are exactly those of a reference encoder kept here, so
//!    the on-disk format cannot drift.
//! 2. Torn-tail tolerance: truncating a WAL at *every* byte offset never
//!    panics the decoder and always yields a clean prefix of the frames
//!    that were written — and end-to-end, `Database::open` on a WAL cut
//!    at every offset recovers exactly the committed prefix, including
//!    a transaction that copies through a table it creates and drops.

use proptest::prelude::*;
use xmlup_rdb::wal::{self, WalRecord};
use xmlup_rdb::{Database, Value};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        "[a-zA-Z0-9 'é_-]{0,12}".prop_map(Value::Str),
        any::<bool>().prop_map(Value::Bool),
    ]
}

fn arb_record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        any::<u64>().prop_map(|txn| WalRecord::TxnBegin { txn }),
        any::<u64>().prop_map(|txn| WalRecord::TxnCommit { txn }),
        any::<u64>().prop_map(|txn| WalRecord::TxnAbort { txn }),
        ("[a-z]{1,8}", prop::collection::vec(arb_value(), 0..5))
            .prop_map(|(table, row)| WalRecord::Insert { table, row }),
        ("[a-z]{1,8}", any::<u64>()).prop_map(|(table, pos)| WalRecord::Delete { table, pos }),
        ("[a-z]{1,8}", any::<u64>(), any::<u32>(), arb_value()).prop_map(
            |(table, pos, column, value)| WalRecord::Update {
                table,
                pos,
                column,
                value,
            }
        ),
        "[A-Z ()',0-9a-z]{0,40}".prop_map(|sql| WalRecord::Ddl { sql }),
        any::<i64>().prop_map(|value| WalRecord::NextId { value }),
    ]
}

/// A table instance as one transaction logs it: `CREATE`, rows, `DROP`.
fn arb_instance() -> impl Strategy<Value = Vec<WalRecord>> {
    ("[a-z]{1,6}", prop::collection::vec(arb_value(), 0..6)).prop_map(|(name, cells)| {
        let table = format!("tmp_{name}");
        let mut records = vec![WalRecord::Ddl {
            sql: format!("CREATE TABLE {table} (v TEXT)"),
        }];
        records.extend(cells.into_iter().map(|v| WalRecord::Insert {
            table: table.clone(),
            row: vec![v],
        }));
        records.push(WalRecord::Ddl {
            sql: format!("DROP TABLE {table}"),
        });
        records
    })
}

/// The frame format written out longhand, apart from the library's
/// encoder: `[u32 len][u32 crc32][payload]`, little-endian, where the
/// payload is a tag byte and then the record's fields (strings and rows
/// length-prefixed, each value tagged).
fn reference_frame(rec: &WalRecord) -> Vec<u8> {
    fn put_str(p: &mut Vec<u8>, s: &str) {
        p.extend((s.len() as u32).to_le_bytes());
        p.extend(s.as_bytes());
    }
    fn put_value(p: &mut Vec<u8>, v: &Value) {
        match v {
            Value::Null => p.push(0),
            Value::Int(i) => {
                p.push(1);
                p.extend(i.to_le_bytes());
            }
            Value::Str(s) => {
                p.push(2);
                put_str(p, s);
            }
            Value::Bool(b) => p.extend([3, u8::from(*b)]),
        }
    }
    let mut p = Vec::new();
    match rec {
        WalRecord::TxnBegin { txn } => {
            p.push(1);
            p.extend(txn.to_le_bytes());
        }
        WalRecord::TxnCommit { txn } => {
            p.push(2);
            p.extend(txn.to_le_bytes());
        }
        WalRecord::TxnAbort { txn } => {
            p.push(3);
            p.extend(txn.to_le_bytes());
        }
        WalRecord::Insert { table, row } => {
            p.push(4);
            put_str(&mut p, table);
            p.extend((row.len() as u32).to_le_bytes());
            for v in row {
                put_value(&mut p, v);
            }
        }
        WalRecord::Delete { table, pos } => {
            p.push(5);
            put_str(&mut p, table);
            p.extend(pos.to_le_bytes());
        }
        WalRecord::Update {
            table,
            pos,
            column,
            value,
        } => {
            p.push(6);
            put_str(&mut p, table);
            p.extend(pos.to_le_bytes());
            p.extend(column.to_le_bytes());
            put_value(&mut p, value);
        }
        WalRecord::Ddl { sql } => {
            p.push(7);
            put_str(&mut p, sql);
        }
        WalRecord::NextId { value } => {
            p.push(8);
            p.extend(value.to_le_bytes());
        }
    }
    let mut frame = Vec::with_capacity(8 + p.len());
    frame.extend((p.len() as u32).to_le_bytes());
    frame.extend(wal::crc32(&p).to_le_bytes());
    frame.extend(p);
    frame
}

/// Encode `records` as a complete WAL byte image (header + frames).
fn encode_all(records: &[WalRecord], generation: u64) -> Vec<u8> {
    let mut bytes = wal::encode_wal_header(generation);
    for r in records {
        wal::encode_frame(r, &mut bytes);
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn record_frame_roundtrip(records in prop::collection::vec(arb_record(), 0..20)) {
        let bytes = encode_all(&records, 7);
        let decoded = wal::decode_wal(&bytes).expect("intact WAL decodes");
        prop_assert_eq!(decoded.generation, 7);
        prop_assert_eq!(decoded.clean_len, bytes.len() as u64);
        prop_assert_eq!(decoded.records, records);
    }

    #[test]
    fn encode_frame_writes_the_reference_bytes(
        records in prop::collection::vec(arb_record(), 0..20),
        prefix in prop::collection::vec(any::<u8>(), 0..9),
    ) {
        // Appended after arbitrary bytes already in the buffer: the
        // in-place header must land at the frame's own offset.
        let mut bytes = prefix.clone();
        let mut expected = prefix;
        for r in &records {
            wal::encode_frame(r, &mut bytes);
            expected.extend(reference_frame(r));
        }
        prop_assert_eq!(bytes, expected);
    }

    #[test]
    fn truncation_at_every_offset_yields_clean_prefix(
        records in prop::collection::vec(arb_record(), 1..12),
        instance in arb_instance(),
        at in any::<usize>(),
    ) {
        let mut records = records;
        let at = at % (records.len() + 1);
        records.splice(at..at, instance);
        let bytes = encode_all(&records, 3);
        for cut in 0..=bytes.len() {
            let truncated = &bytes[..cut];
            if cut < wal::WAL_HEADER_LEN {
                // No complete header: an empty log, not an error only
                // when the file is empty; otherwise the header itself is
                // corrupt. Either way the decoder must not panic.
                let _ = wal::decode_wal(truncated);
                continue;
            }
            let decoded = wal::decode_wal(truncated).expect("torn tail is not an error");
            let n = decoded.records.len();
            prop_assert!(n <= records.len());
            prop_assert_eq!(&decoded.records[..], &records[..n]);
            prop_assert!(decoded.clean_len as usize <= cut);
        }
    }

    #[test]
    fn corrupting_any_payload_byte_never_yields_garbage_records(
        records in prop::collection::vec(arb_record(), 1..6),
        flip in any::<u8>(),
    ) {
        // Flip one byte somewhere past the header: decoding must either
        // stop at the tear (prefix) or, if only a later frame is hit,
        // still agree with the original on everything before it.
        let bytes = encode_all(&records, 1);
        if bytes.len() <= wal::WAL_HEADER_LEN {
            return Ok(());
        }
        let at = wal::WAL_HEADER_LEN
            + (flip as usize) % (bytes.len() - wal::WAL_HEADER_LEN);
        let mut corrupt = bytes.clone();
        corrupt[at] ^= 0x40;
        if let Ok(decoded) = wal::decode_wal(&corrupt) {
            let n = decoded.records.len();
            prop_assert!(n <= records.len());
            prop_assert_eq!(&decoded.records[..], &records[..n]);
        }
    }
}

/// End-to-end: a real WAL produced by committed single-row transactions,
/// cut at every byte offset, always recovers to exactly the committed
/// prefix — never a partial transaction, never a panic. One of them
/// copies its row through a table it creates and drops, which the WAL
/// leaves out.
#[test]
fn open_recovers_committed_prefix_at_every_truncation_offset() {
    let base = std::env::temp_dir().join(format!("xmlup-walprop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let seed_dir = base.join("seed");
    let mut db = Database::open(&seed_dir).unwrap();
    db.set_wal_sync(false); // keep the many reopens below cheap
    db.run_script("CREATE TABLE t (k INTEGER)").unwrap();
    for k in 0..6 {
        if k == 3 {
            db.run_script(
                "BEGIN;
                 CREATE TABLE tmp_t (k INTEGER);
                 INSERT INTO tmp_t VALUES (3);
                 INSERT INTO t SELECT k FROM tmp_t;
                 DROP TABLE tmp_t;
                 COMMIT;",
            )
            .unwrap();
        } else {
            db.execute(&format!("INSERT INTO t VALUES ({k})")).unwrap();
        }
    }
    drop(db);
    let wal_bytes = std::fs::read(seed_dir.join("wal.bin")).unwrap();
    let logged = wal::decode_wal(&wal_bytes).unwrap().records;
    assert!(
        !logged.iter().any(|r| format!("{r:?}").contains("tmp_t")),
        "the local table reached the WAL: {logged:?}"
    );

    let cut_dir = base.join("cut");
    let mut prev = 0i64;
    for cut in 0..=wal_bytes.len() {
        let _ = std::fs::remove_dir_all(&cut_dir);
        std::fs::create_dir_all(&cut_dir).unwrap();
        std::fs::write(cut_dir.join("wal.bin"), &wal_bytes[..cut]).unwrap();
        let recovered = Database::open(&cut_dir).unwrap();
        let rows = match recovered.table("t") {
            // Cut fell before the CREATE TABLE frame completed.
            None => 0,
            Some(_) => recovered.query("SELECT COUNT(*) FROM t").unwrap().rows[0][0]
                .as_int()
                .unwrap(),
        };
        // Committed row count can only grow with the cut position, one
        // transaction at a time, up to all six.
        assert!((0..=6).contains(&rows), "cut {cut}: {rows} rows");
        assert!(rows >= prev, "cut {cut}: recovered {rows} after {prev}");
        prev = rows;
        if cut == wal_bytes.len() {
            assert_eq!(rows, 6, "full WAL recovers everything");
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}
