//! Write-ahead log file format for the durability layer.
//!
//! This module is pure encoding/decoding — it owns the byte format and
//! nothing else. The engine (`crate::engine`) decides *when* records are
//! emitted, buffered, flushed, and replayed; see `Database::open`,
//! `Database::checkpoint`, and the commit paths there. The checkpoint
//! files the log is truncated against live in `crate::storage::checkpoint`.
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

use crate::error::{DbError, Result};
use crate::value::{Row, Value};

/// WAL file magic, followed by a little-endian `u64` generation.
pub const WAL_MAGIC: &[u8; 8] = b"XUPWAL01";
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

/// A `u32` count, then each item.
pub(crate) fn put_list<T>(out: &mut Vec<u8>, items: &[T], mut put: impl FnMut(&mut Vec<u8>, &T)) {
    put_u32(out, items.len() as u32);
    for item in items {
        put(out, item);
    }
}

/// A presence byte, then the item if there is one.
pub(crate) fn put_opt<T>(out: &mut Vec<u8>, item: Option<&T>, put: impl FnOnce(&mut Vec<u8>, &T)) {
    out.push(u8::from(item.is_some()));
    if let Some(item) = item {
        put(out, item);
    }
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
    put_list(out, row, put_value);
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
        self.list(Self::value)
    }

    /// A `u32` count, then that many items. The count bounds the loop,
    /// not the allocation: a lying count runs out of bytes instead.
    pub(crate) fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            out.push(item(self)?);
        }
        Some(out)
    }

    /// A presence byte, then the item if it says there is one.
    pub(crate) fn opt<T>(
        &mut self,
        item: impl FnOnce(&mut Self) -> Option<T>,
    ) -> Option<Option<T>> {
        match self.u8()? {
            0 => Some(None),
            1 => item(self).map(Some),
            _ => None,
        }
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

/// The `[u32 len][u32 crc32][payload]` frame at the start of `bytes`: its
/// payload and its whole length, or `None` if the header or payload runs
/// past the end or the checksum fails. The WAL reads a tear there; a
/// checkpoint file, which is never torn, an error.
pub(crate) fn read_frame(bytes: &[u8]) -> Option<(&[u8], usize)> {
    let len = u32::from_le_bytes(bytes.get(..4)?.try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes.get(4..8)?.try_into().unwrap());
    let payload = bytes.get(8..8usize.checked_add(len)?)?;
    (crc32(payload) == crc).then_some((payload, 8 + len))
}

/// Decode a WAL file: header, then frames until end-of-file or a torn
/// tail. Never fails on a tear — that is the normal crash case; only a
/// missing/garbled *header* is an error (the opener takes a file shorter
/// than a header for an empty log and refuses a header it cannot read).
pub fn decode_wal(bytes: &[u8]) -> Result<WalContents> {
    if bytes.len() < WAL_HEADER_LEN || &bytes[..8] != WAL_MAGIC {
        return Err(DbError::Storage("WAL header missing or corrupt".into()));
    }
    let generation = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let mut records = Vec::new();
    let mut at = WAL_HEADER_LEN;
    // A short, overlong or checksum-failing frame is a torn tail: stop
    // cleanly. So is a CRC-clean frame that does not decode.
    while let Some((payload, frame_len)) = read_frame(&bytes[at..]) {
        let Some(rec) = decode_payload(payload) else {
            break;
        };
        records.push(rec);
        at += frame_len;
    }
    Ok(WalContents {
        generation,
        records,
        clean_len: at as u64,
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
}
