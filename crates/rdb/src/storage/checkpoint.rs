//! The checkpoint file `snapshot.bin`, its codec, and its commit protocol.
//!
//! A checkpoint is a [`CheckpointCatalog`] plus every table's slot
//! vector, tombstones included. The file is `[magic][u32 len][u32
//! crc32][body]` with magic `XUPSNAP2`, all integers little-endian, and
//! the body is
//!
//! ```text
//! generation u64, next_id i64, table count u32,
//! per table: key, name, columns (name, type tag), slot count u64, slots,
//!            indexed column list, statistics block,
//! trigger count u32, triggers as CREATE TRIGGER text
//! ```
//!
//! Index contents are never written: they are rebuilt from the slots at
//! open.
//!
//! The file is published by writing a temporary file, syncing it,
//! renaming it over the old one and syncing the directory, so it is
//! never torn: any truncation, trailing byte or checksum mismatch is an
//! error, not a tear to recover from (the WAL is the opposite).

use super::{CatalogTable, CheckpointCatalog};
use crate::ast::ColumnDef;
use crate::error::{DbError, Result};
use crate::stats::{put_stats, read_stats};
use crate::table::TableSchema;
use crate::value::{DataType, Row};
use crate::wal::{
    crc32, put_i64, put_list, put_opt, put_row, put_str, put_u32, put_u64, read_frame, Reader,
};
use std::fs;
use std::io::Write;
use std::path::Path;

/// Snapshot file magic (the trailing digit is the format version).
pub const SNAP_MAGIC: &[u8; 8] = b"XUPSNAP2";

const SNAPSHOT_FILE: &str = "snapshot.bin";

/// One table's slot vector: every slot in position order, `None` for a
/// tombstone, so WAL replay appends at the positions the log recorded.
pub type Slots = Vec<Option<Row>>;

/// A checkpoint with its rows in hand: the catalog and one slot vector
/// per catalog table, in catalog order. `snapshot.bin` stores exactly
/// this.
pub type Snapshot = (CheckpointCatalog, Vec<Slots>);

/// Encode `snapshot.bin`. `slots[i]` is the slot vector of
/// `catalog.tables[i]`.
pub fn encode_snapshot(catalog: &CheckpointCatalog, slots: &[&[Option<Row>]]) -> Vec<u8> {
    assert_eq!(slots.len(), catalog.tables.len(), "one slot vector each");
    let mut out = SNAP_MAGIC.to_vec();
    out.extend_from_slice(&[0; 8]); // len + crc, patched once the body is known
    put_u64(&mut out, catalog.generation);
    put_i64(&mut out, catalog.next_id);
    let mut slots = slots.iter();
    put_list(&mut out, &catalog.tables, |out, t| {
        put_str(out, &t.key);
        put_str(out, &t.schema.name);
        put_list(out, &t.schema.columns, |out, c| {
            put_str(out, &c.name);
            out.push(match c.ty {
                DataType::Integer => 0,
                DataType::Text => 1,
                DataType::Boolean => 2,
            });
        });
        let table = slots.next().expect("one slot vector each");
        put_u64(out, table.len() as u64);
        for slot in *table {
            put_opt(out, slot.as_ref(), put_row);
        }
        put_list(out, &t.indexed, |out, ci| put_u32(out, *ci));
        put_stats(out, t.stats.as_ref());
    });
    put_list(&mut out, &catalog.triggers, |out, sql| put_str(out, sql));
    let len = (out.len() - 16) as u32;
    let crc = crc32(&out[16..]);
    out[8..12].copy_from_slice(&len.to_le_bytes());
    out[12..16].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Decode `snapshot.bin`.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot> {
    let corrupt = |why: &str| DbError::Storage(format!("snapshot corrupt: {why}"));
    if !bytes.starts_with(SNAP_MAGIC) {
        let magic = String::from_utf8_lossy(SNAP_MAGIC);
        return Err(corrupt(&format!("bad magic (this build reads {magic})")));
    }
    let body = match read_frame(&bytes[8..]) {
        Some((body, frame_len)) if 8 + frame_len == bytes.len() => body,
        _ => return Err(corrupt("frame cut short, overlong or failing its checksum")),
    };
    let mut r = Reader::new(body);
    let mut parse = || -> Option<Snapshot> {
        let generation = r.u64()?;
        let next_id = r.i64()?;
        let (tables, slots) = r
            .list(|r| {
                let key = r.str()?;
                let name = r.str()?;
                let columns = r.list(|r| {
                    let name = r.str()?;
                    let ty = match r.u8()? {
                        0 => DataType::Integer,
                        1 => DataType::Text,
                        2 => DataType::Boolean,
                        _ => return None,
                    };
                    Some(ColumnDef { name, ty })
                })?;
                let nslots = r.u64()?;
                let mut slots = Vec::with_capacity((nslots as usize).min(1 << 20));
                for _ in 0..nslots {
                    slots.push(r.opt(Reader::row)?);
                }
                let indexed = r.list(Reader::u32)?;
                let stats = read_stats(r)?;
                let entry = CatalogTable {
                    key,
                    schema: TableSchema { name, columns },
                    indexed,
                    stats,
                };
                Some((entry, slots))
            })?
            .into_iter()
            .unzip();
        let catalog = CheckpointCatalog {
            generation,
            next_id,
            tables,
            triggers: r.list(Reader::str)?,
        };
        r.done().then_some((catalog, slots))
    };
    parse().ok_or_else(|| corrupt("truncated or malformed body"))
}

/// Publish `dir/snapshot.bin`: write the encoded checkpoint beside it as
/// `snapshot.tmp`, sync, rename, sync the directory. The rename is the
/// commit point; a crash on either side of it leaves one whole file.
/// Returns the bytes written.
pub(crate) fn write_snapshot(
    dir: &Path,
    catalog: &CheckpointCatalog,
    slots: &[&[Option<Row>]],
) -> Result<u64> {
    let bytes = encode_snapshot(catalog, slots);
    (|| -> std::io::Result<u64> {
        let dest = dir.join(SNAPSHOT_FILE);
        let tmp = dest.with_extension("tmp");
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, dest)?;
        // Make the rename durable before the caller truncates the WAL the
        // checkpoint subsumes.
        if let Ok(dirf) = fs::File::open(dir) {
            let _ = dirf.sync_all();
        }
        Ok(bytes.len() as u64)
    })()
    .map_err(|e| DbError::Storage(format!("publish {SNAPSHOT_FILE}: {e}")))
}

/// `dir`'s `snapshot.bin`, if there is one.
pub(super) fn read_snapshot(dir: &Path) -> Result<Option<Snapshot>> {
    match fs::read(dir.join(SNAPSHOT_FILE)) {
        Ok(bytes) => decode_snapshot(&bytes).map(Some),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(DbError::Storage(format!("read {SNAPSHOT_FILE}: {e}"))),
    }
}
