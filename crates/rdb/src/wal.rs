//! Write-ahead log and snapshot file formats for the durability layer.
//!
//! This module is pure encoding/decoding — it owns the byte formats and
//! nothing else. The engine (`crate::engine`) decides *when* records are
//! emitted, buffered, flushed, and replayed; see `Database::open`,
//! `Database::checkpoint`, and the commit paths there.
//!
//! # WAL format
//!
//! A WAL file is a 16-byte header (`b"XUPWAL01"` magic + little-endian
//! `u64` generation) followed by a sequence of framed records:
//!
//! ```text
//! [u32 payload_len][u32 crc32(payload)][payload bytes]
//! ```
//!
//! All integers are little-endian. The CRC is the standard CRC-32
//! (IEEE/zlib polynomial, reflected). A crash can leave a *torn tail* —
//! a partially written frame — which the decoder detects by a short
//! header, a length running past end-of-file, or a CRC mismatch; it
//! returns every record before the tear plus the clean byte offset so the
//! opener can truncate the tear away.
//!
//! Records are *logical redo*: transaction frames
//! (`TxnBegin … TxnCommit`) bracket the physical row effects
//! (slot-positioned insert/delete/update — replay never re-fires
//! triggers, whose effects were logged as their own records), DDL is
//! carried as SQL text (`crate::sql` renders it; recovery re-parses), and
//! id-counter movement is an absolute `NextId` so replay order of
//! discarded frames cannot skew it.
//!
//! # Snapshot format
//!
//! A snapshot file is `b"XUPSNAP2"` magic, then a `[u32 len][u32 crc]`
//! frame around one body: generation, `next_id`, every table (schema,
//! slots *including tombstones*, the indexed column list, statistics),
//! and the trigger list as rendered `CREATE TRIGGER` text. Index
//! contents are not written: they are rebuilt from the slots. The
//! previous format (`XUPSNAP1`: verbatim hash-index buckets, then a
//! separate ordered-index column list) is still read; its buckets are
//! skipped and its two lists merged.

use crate::error::{DbError, Result};
use crate::stats::{put_stats, read_stats, TableStatistics};
use crate::value::{DataType, Row, Value};

/// WAL file magic, followed by a little-endian `u64` generation.
pub const WAL_MAGIC: &[u8; 8] = b"XUPWAL01";
/// Snapshot file magic (the trailing digit is the format version).
pub const SNAP_MAGIC: &[u8; 8] = b"XUPSNAP2";
/// Magic of the previous snapshot format, still accepted on read.
const SNAP_MAGIC_V1: &[u8; 8] = b"XUPSNAP1";
/// Size of the WAL header: magic + generation.
pub const WAL_HEADER_LEN: usize = 16;

/// One logical redo record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Start of a transaction's frame. Records after it are buffered by
    /// recovery and applied only when the matching commit arrives.
    TxnBegin {
        /// Per-process transaction sequence number (diagnostic only —
        /// recovery relies on frame adjacency, not ids).
        txn: u64,
    },
    /// Commit: apply the buffered frame.
    TxnCommit {
        /// Sequence number of the committing transaction.
        txn: u64,
    },
    /// Abort marker written when an explicit transaction rolls back.
    /// Informational — the aborted work was never flushed.
    TxnAbort {
        /// Sequence number of the aborted transaction.
        txn: u64,
    },
    /// A row was appended to `table`. The slot position is implicit:
    /// appends are deterministic (`slots.len()`), and rolled-back work
    /// restores slot-vector lengths exactly, so replaying only committed
    /// frames reproduces the original positions.
    Insert {
        /// Lower-cased table key.
        table: String,
        /// The inserted row.
        row: Row,
    },
    /// The row at slot `pos` was deleted (tombstoned).
    Delete {
        /// Lower-cased table key.
        table: String,
        /// Slot position.
        pos: u64,
    },
    /// One cell of the row at slot `pos` was overwritten.
    Update {
        /// Lower-cased table key.
        table: String,
        /// Slot position.
        pos: u64,
        /// Column index.
        column: u32,
        /// The new value.
        value: Value,
    },
    /// A DDL statement ran; recovery re-parses and re-executes the text.
    Ddl {
        /// The statement as SQL (see [`crate::sql::stmt_to_sql`]).
        sql: String,
    },
    /// The id counter reached `value` (absolute, not a delta).
    NextId {
        /// New counter value.
        value: i64,
    },
}

// ----------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected — the zlib polynomial)
// ----------------------------------------------------------------------

/// CRC-32 checksum of `bytes` (IEEE polynomial, as used by zlib/PNG).
pub fn crc32(bytes: &[u8]) -> u32 {
    // Built once at compile time; the whole computation is const-able.
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ----------------------------------------------------------------------
// primitive encoders/decoders
// ----------------------------------------------------------------------

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            put_i64(out, *i);
        }
        Value::Str(s) => {
            out.push(2);
            put_str(out, s);
        }
        Value::Bool(b) => {
            out.push(3);
            out.push(u8::from(*b));
        }
    }
}

pub(crate) fn put_row(out: &mut Vec<u8>, row: &Row) {
    put_u32(out, row.len() as u32);
    for v in row {
        put_value(out, v);
    }
}

/// Strict cursor over a byte slice; every accessor fails on short input.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, at: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let s = self.bytes.get(self.at..end)?;
        self.at = end;
        Some(s)
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }

    pub(crate) fn i64(&mut self) -> Option<i64> {
        self.take(8)
            .map(|s| i64::from_le_bytes(s.try_into().unwrap()))
    }

    pub(crate) fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    pub(crate) fn value(&mut self) -> Option<Value> {
        match self.u8()? {
            0 => Some(Value::Null),
            1 => Some(Value::Int(self.i64()?)),
            2 => Some(Value::Str(self.str()?)),
            3 => Some(Value::Bool(self.u8()? != 0)),
            _ => None,
        }
    }

    pub(crate) fn row(&mut self) -> Option<Row> {
        let n = self.u32()? as usize;
        // Guard against corrupt lengths: a row cannot have more values
        // than bytes remaining (every value is at least one tag byte).
        if n > self.bytes.len() - self.at {
            return None;
        }
        let mut row = Vec::with_capacity(n);
        for _ in 0..n {
            row.push(self.value()?);
        }
        Some(row)
    }

    pub(crate) fn done(&self) -> bool {
        self.at == self.bytes.len()
    }
}

// ----------------------------------------------------------------------
// record codec
// ----------------------------------------------------------------------

fn encode_payload(rec: &WalRecord, out: &mut Vec<u8>) {
    match rec {
        WalRecord::TxnBegin { txn } => {
            out.push(1);
            put_u64(out, *txn);
        }
        WalRecord::TxnCommit { txn } => {
            out.push(2);
            put_u64(out, *txn);
        }
        WalRecord::TxnAbort { txn } => {
            out.push(3);
            put_u64(out, *txn);
        }
        WalRecord::Insert { table, row } => {
            out.push(4);
            put_str(out, table);
            put_row(out, row);
        }
        WalRecord::Delete { table, pos } => {
            out.push(5);
            put_str(out, table);
            put_u64(out, *pos);
        }
        WalRecord::Update {
            table,
            pos,
            column,
            value,
        } => {
            out.push(6);
            put_str(out, table);
            put_u64(out, *pos);
            put_u32(out, *column);
            put_value(out, value);
        }
        WalRecord::Ddl { sql } => {
            out.push(7);
            put_str(out, sql);
        }
        WalRecord::NextId { value } => {
            out.push(8);
            put_i64(out, *value);
        }
    }
}

fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    let mut r = Reader::new(payload);
    let rec = match r.u8()? {
        1 => WalRecord::TxnBegin { txn: r.u64()? },
        2 => WalRecord::TxnCommit { txn: r.u64()? },
        3 => WalRecord::TxnAbort { txn: r.u64()? },
        4 => WalRecord::Insert {
            table: r.str()?,
            row: r.row()?,
        },
        5 => WalRecord::Delete {
            table: r.str()?,
            pos: r.u64()?,
        },
        6 => WalRecord::Update {
            table: r.str()?,
            pos: r.u64()?,
            column: r.u32()?,
            value: r.value()?,
        },
        7 => WalRecord::Ddl { sql: r.str()? },
        8 => WalRecord::NextId { value: r.i64()? },
        _ => return None,
    };
    // Trailing bytes mean the frame length lied about the payload.
    r.done().then_some(rec)
}

/// Append one framed record (`len + crc + payload`) to `out`.
pub fn encode_frame(rec: &WalRecord, out: &mut Vec<u8>) {
    let mut payload = Vec::new();
    encode_payload(rec, &mut payload);
    put_u32(out, payload.len() as u32);
    put_u32(out, crc32(&payload));
    out.extend_from_slice(&payload);
}

/// Encode a fresh WAL header for `generation`.
pub fn encode_wal_header(generation: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(WAL_HEADER_LEN);
    out.extend_from_slice(WAL_MAGIC);
    put_u64(&mut out, generation);
    out
}

/// Parsed contents of a WAL file body.
#[derive(Debug)]
pub struct WalContents {
    /// The header's generation number.
    pub generation: u64,
    /// Every record before the first tear (or all of them).
    pub records: Vec<WalRecord>,
    /// Byte offset (from file start, header included) of the end of the
    /// last intact frame. Anything past it is a torn tail to truncate.
    pub clean_len: u64,
}

/// Decode a WAL file: header, then frames until end-of-file or a torn
/// tail. Never fails on a tear — that is the normal crash case; only a
/// missing/garbled *header* is an error (the opener recreates the file).
pub fn decode_wal(bytes: &[u8]) -> Result<WalContents> {
    if bytes.len() < WAL_HEADER_LEN || &bytes[..8] != WAL_MAGIC {
        return Err(DbError::Storage("WAL header missing or corrupt".into()));
    }
    let generation = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let mut records = Vec::new();
    let mut at = WAL_HEADER_LEN;
    // A short frame header past `at` is a torn tail: stop cleanly.
    while let Some(header) = bytes.get(at..at + 8) {
        let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        let Some(payload) = bytes.get(at + 8..at + 8 + len) else {
            break; // payload runs past EOF: torn tail
        };
        if crc32(payload) != crc {
            break; // bit rot or a tear that kept the length intact
        }
        let Some(rec) = decode_payload(payload) else {
            break; // CRC-clean but undecodable: treat as a tear, stop here
        };
        records.push(rec);
        at += 8 + len;
    }
    Ok(WalContents {
        generation,
        records,
        clean_len: at as u64,
    })
}

// ----------------------------------------------------------------------
// snapshot codec
// ----------------------------------------------------------------------

/// Serialized state of one table.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotTable {
    /// Lower-cased catalog key.
    pub key: String,
    /// Schema name as created (case preserved).
    pub name: String,
    /// Column name/type pairs in order.
    pub columns: Vec<(String, DataType)>,
    /// Every slot, tombstones included, in position order.
    pub slots: Vec<Option<Row>>,
    /// Indexed columns, ascending. Index contents are not serialized:
    /// they are a pure function of the slots and are rebuilt on restore.
    pub indexed: Vec<u32>,
    /// `ANALYZE` statistics, if built.
    pub stats: Option<TableStatistics>,
}

/// Full serialized database state.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Checkpoint generation this snapshot belongs to. A WAL whose header
    /// carries an older generation is stale (its effects are already in
    /// the snapshot) and is discarded on open.
    pub generation: u64,
    /// The id counter.
    pub next_id: i64,
    /// Tables, sorted by key.
    pub tables: Vec<SnapshotTable>,
    /// Triggers in registration order, as `CREATE TRIGGER` SQL.
    pub triggers: Vec<String>,
}

pub(crate) fn put_data_type(out: &mut Vec<u8>, ty: DataType) {
    out.push(match ty {
        DataType::Integer => 0,
        DataType::Text => 1,
        DataType::Boolean => 2,
    });
}

/// Encode a snapshot file: magic, then one `[len][crc][body]` frame.
pub fn encode_snapshot(snap: &Snapshot) -> Vec<u8> {
    let mut body = Vec::new();
    put_u64(&mut body, snap.generation);
    put_i64(&mut body, snap.next_id);
    put_u32(&mut body, snap.tables.len() as u32);
    for t in &snap.tables {
        put_str(&mut body, &t.key);
        put_str(&mut body, &t.name);
        put_u32(&mut body, t.columns.len() as u32);
        for (name, ty) in &t.columns {
            put_str(&mut body, name);
            put_data_type(&mut body, *ty);
        }
        put_u64(&mut body, t.slots.len() as u64);
        for slot in &t.slots {
            match slot {
                None => body.push(0),
                Some(row) => {
                    body.push(1);
                    put_row(&mut body, row);
                }
            }
        }
        put_u32(&mut body, t.indexed.len() as u32);
        for c in &t.indexed {
            put_u32(&mut body, *c);
        }
        put_stats(&mut body, t.stats.as_ref());
    }
    put_u32(&mut body, snap.triggers.len() as u32);
    for sql in &snap.triggers {
        put_str(&mut body, sql);
    }

    let mut out = Vec::with_capacity(body.len() + 16);
    out.extend_from_slice(SNAP_MAGIC);
    put_u32(&mut out, body.len() as u32);
    put_u32(&mut out, crc32(&body));
    out.extend_from_slice(&body);
    out
}

/// Decode a snapshot file. Unlike the WAL, a snapshot is written
/// atomically (temp file + rename), so any corruption is an error rather
/// than a tolerable tear.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot> {
    let corrupt = |what: &str| DbError::Storage(format!("snapshot corrupt: {what}"));
    if bytes.len() < 16 {
        return Err(corrupt("bad magic"));
    }
    let v1 = match &bytes[..8] {
        m if m == SNAP_MAGIC => false,
        m if m == SNAP_MAGIC_V1 => true,
        _ => return Err(corrupt("bad magic")),
    };
    let len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    let body = bytes
        .get(16..16 + len)
        .ok_or_else(|| corrupt("short body"))?;
    if crc32(body) != crc {
        return Err(corrupt("checksum mismatch"));
    }
    let mut r = Reader::new(body);
    let parse = || corrupt("truncated field");
    let generation = r.u64().ok_or_else(parse)?;
    let next_id = r.i64().ok_or_else(parse)?;
    let ntables = r.u32().ok_or_else(parse)? as usize;
    let mut tables = Vec::with_capacity(ntables.min(1024));
    for _ in 0..ntables {
        let key = r.str().ok_or_else(parse)?;
        let name = r.str().ok_or_else(parse)?;
        let ncols = r.u32().ok_or_else(parse)? as usize;
        let mut columns = Vec::with_capacity(ncols.min(1024));
        for _ in 0..ncols {
            let cname = r.str().ok_or_else(parse)?;
            let ty = match r.u8().ok_or_else(parse)? {
                0 => DataType::Integer,
                1 => DataType::Text,
                2 => DataType::Boolean,
                _ => return Err(corrupt("bad column type tag")),
            };
            columns.push((cname, ty));
        }
        let nslots = r.u64().ok_or_else(parse)? as usize;
        let mut slots = Vec::with_capacity(nslots.min(1 << 20));
        for _ in 0..nslots {
            match r.u8().ok_or_else(parse)? {
                0 => slots.push(None),
                1 => slots.push(Some(r.row().ok_or_else(parse)?)),
                _ => return Err(corrupt("bad slot tag")),
            }
        }
        let mut indexed = Vec::new();
        if v1 {
            // Hash-index section of the old format: keep the column,
            // skip its verbatim buckets.
            for _ in 0..r.u32().ok_or_else(parse)? {
                indexed.push(r.u32().ok_or_else(parse)?);
                for _ in 0..r.u32().ok_or_else(parse)? {
                    r.value().ok_or_else(parse)?;
                    for _ in 0..r.u32().ok_or_else(parse)? {
                        r.u64().ok_or_else(parse)?;
                    }
                }
            }
        }
        // The one list of the current format; in the old one, the
        // ordered-index columns.
        for _ in 0..r.u32().ok_or_else(parse)? {
            indexed.push(r.u32().ok_or_else(parse)?);
        }
        if v1 {
            indexed.sort_unstable();
            indexed.dedup();
        }
        let stats = read_stats(&mut r).ok_or_else(|| corrupt("bad statistics block"))?;
        tables.push(SnapshotTable {
            key,
            name,
            columns,
            slots,
            indexed,
            stats,
        });
    }
    let ntriggers = r.u32().ok_or_else(parse)? as usize;
    let mut triggers = Vec::with_capacity(ntriggers.min(1024));
    for _ in 0..ntriggers {
        triggers.push(r.str().ok_or_else(parse)?);
    }
    if !r.done() {
        return Err(corrupt("trailing bytes"));
    }
    Ok(Snapshot {
        generation,
        next_id,
        tables,
        triggers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::TxnBegin { txn: 1 },
            WalRecord::Ddl {
                sql: "CREATE TABLE t (id INTEGER, name TEXT)".into(),
            },
            WalRecord::Insert {
                table: "t".into(),
                row: vec![Value::Int(1), Value::Str("Jean's café".into())],
            },
            WalRecord::Update {
                table: "t".into(),
                pos: 0,
                column: 1,
                value: Value::Null,
            },
            WalRecord::Delete {
                table: "t".into(),
                pos: 0,
            },
            WalRecord::NextId { value: 42 },
            WalRecord::TxnCommit { txn: 1 },
            WalRecord::TxnAbort { txn: 2 },
        ]
    }

    #[test]
    fn frame_roundtrip() {
        let mut bytes = encode_wal_header(7);
        for rec in sample_records() {
            encode_frame(&rec, &mut bytes);
        }
        let contents = decode_wal(&bytes).unwrap();
        assert_eq!(contents.generation, 7);
        assert_eq!(contents.records, sample_records());
        assert_eq!(contents.clean_len, bytes.len() as u64);
    }

    #[test]
    fn torn_tail_yields_prefix() {
        let mut bytes = encode_wal_header(0);
        let boundaries: Vec<usize> = sample_records()
            .iter()
            .map(|rec| {
                encode_frame(rec, &mut bytes);
                bytes.len()
            })
            .collect();
        // Cut one byte short of the end: the last record is torn.
        let cut = &bytes[..bytes.len() - 1];
        let contents = decode_wal(cut).unwrap();
        assert_eq!(contents.records.len(), sample_records().len() - 1);
        assert_eq!(
            contents.clean_len as usize,
            boundaries[boundaries.len() - 2]
        );
    }

    #[test]
    fn corrupt_byte_stops_at_tear() {
        let mut bytes = encode_wal_header(0);
        for rec in sample_records() {
            encode_frame(&rec, &mut bytes);
        }
        // Flip a byte inside the third frame's payload.
        let mut at = WAL_HEADER_LEN;
        for _ in 0..2 {
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            at += 8 + len;
        }
        bytes[at + 10] ^= 0xFF;
        let contents = decode_wal(&bytes).unwrap();
        assert_eq!(contents.records.len(), 2, "stops before the corrupt frame");
        assert_eq!(contents.clean_len as usize, at);
    }

    #[test]
    fn header_corruption_is_an_error() {
        assert!(decode_wal(b"short").is_err());
        let mut bytes = encode_wal_header(0);
        bytes[0] = b'Y';
        assert!(decode_wal(&bytes).is_err());
    }

    #[test]
    fn snapshot_roundtrip() {
        let snap = Snapshot {
            generation: 3,
            next_id: 99,
            tables: vec![SnapshotTable {
                key: "t".into(),
                name: "T".into(),
                columns: vec![
                    ("id".into(), DataType::Integer),
                    ("name".into(), DataType::Text),
                    ("flag".into(), DataType::Boolean),
                ],
                slots: vec![
                    Some(vec![Value::Int(1), Value::Str("a".into()), Value::Bool(true)]),
                    None,
                    Some(vec![Value::Int(2), Value::Null, Value::Bool(false)]),
                ],
                indexed: vec![0, 1],
                stats: Some(crate::stats::TableStatistics::build(
                    [
                        &vec![Value::Int(1), Value::Str("a".into()), Value::Bool(true)],
                        &vec![Value::Int(2), Value::Null, Value::Bool(false)],
                    ]
                    .into_iter(),
                    3,
                )),
            }],
            triggers: vec!["CREATE TRIGGER x AFTER DELETE ON T FOR EACH ROW BEGIN DELETE FROM T WHERE (id = OLD.id); END".into()],
        };
        let bytes = encode_snapshot(&snap);
        assert_eq!(decode_snapshot(&bytes).unwrap(), snap);
    }

    #[test]
    fn snapshot_corruption_detected() {
        let snap = Snapshot {
            generation: 0,
            next_id: 0,
            tables: vec![],
            triggers: vec![],
        };
        let mut bytes = encode_snapshot(&snap);
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        assert!(decode_snapshot(&bytes).is_err());
        assert!(decode_snapshot(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_snapshot(b"nope").is_err());
    }
}
