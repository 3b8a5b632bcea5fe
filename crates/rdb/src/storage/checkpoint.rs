//! The two checkpoint files, their one codec, and their commit protocol.
//!
//! A checkpoint is a [`CheckpointCatalog`] plus, per table, whatever the
//! backend needs to find the rows again:
//!
//! * `snapshot.bin` (memory backend, magic `XUPSNAP2`): the catalog plus
//!   every slot vector, tombstones included.
//! * `pages.meta` (paged backend, magic `XUPPGME2`): the catalog plus the
//!   page-allocation state ([`PageAlloc`]) and one B-tree root per table;
//!   the rows themselves live in `pages.bin`.
//!
//! Both are `[magic][u32 len][u32 crc32][body]`, all integers
//! little-endian, and both bodies are the same sequence with two hooks:
//!
//! ```text
//! generation u64, next_id i64, <head hook>, table count u32,
//! per table: key, name, columns (name, type tag), <table hook>,
//!            indexed column list, statistics block,
//! trigger count u32, triggers as CREATE TRIGGER text
//! ```
//!
//! The head hook is empty in the snapshot and `page_count, lsn, free
//! list` in the meta; the table hook is `slot count, slots` in the
//! snapshot and `root, slot count` in the meta. Index contents are never
//! written: they are rebuilt from the slots at open.
//!
//! A checkpoint file is published by writing a temporary file, syncing
//! it, renaming it over the old one and syncing the directory, so it is
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
/// Page-meta file magic (the trailing digit is the format version).
pub const META_MAGIC: &[u8; 8] = b"XUPPGME2";

const SNAPSHOT_FILE: &str = "snapshot.bin";
const META_FILE: &str = "pages.meta";

/// One table's slot vector: every slot in position order, `None` for a
/// tombstone, so WAL replay appends at the positions the log recorded.
pub type Slots = Vec<Option<Row>>;

/// A checkpoint with its rows in hand: the catalog and one slot vector
/// per catalog table, in catalog order. `snapshot.bin` stores exactly
/// this; the paged backend rebuilds it from `pages.meta` and the B-trees.
pub type Snapshot = (CheckpointCatalog, Vec<Slots>);

/// What `pages.meta` decodes to: the catalog, the page-allocation state
/// and one B-tree root (0 = empty tree) per catalog table, in catalog
/// order.
pub type PageMeta = (CheckpointCatalog, PageAlloc, Vec<u64>);

/// Page-allocation state of the copy-on-write page store at a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageAlloc {
    /// Highest allocated page id.
    pub page_count: u64,
    /// Store LSN at checkpoint time.
    pub lsn: u64,
    /// Free page ids available for reuse.
    pub free: Vec<u64>,
}

fn encode(
    magic: &[u8; 8],
    catalog: &CheckpointCatalog,
    head: impl FnOnce(&mut Vec<u8>),
    mut table: impl FnMut(&mut Vec<u8>, usize, &CatalogTable),
) -> Vec<u8> {
    let mut out = magic.to_vec();
    out.extend_from_slice(&[0; 8]); // len + crc, patched once the body is known
    put_u64(&mut out, catalog.generation);
    put_i64(&mut out, catalog.next_id);
    head(&mut out);
    let mut i = 0;
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
        table(out, i, t);
        i += 1;
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

/// Decode one checkpoint file. `head` reads the head hook; `table` reads
/// the table hook and returns the table's slot count beside its payload.
fn decode<H, P>(
    magic: &[u8; 8],
    what: &str,
    bytes: &[u8],
    head: impl FnOnce(&mut Reader<'_>) -> Option<H>,
    mut table: impl FnMut(&mut Reader<'_>) -> Option<(u64, P)>,
) -> Result<(CheckpointCatalog, H, Vec<P>)> {
    let corrupt = |why: &str| DbError::Storage(format!("{what} corrupt: {why}"));
    if !bytes.starts_with(magic) {
        let magic = String::from_utf8_lossy(magic);
        return Err(corrupt(&format!("bad magic (this build reads {magic})")));
    }
    let body = match read_frame(&bytes[8..]) {
        Some((body, frame_len)) if 8 + frame_len == bytes.len() => body,
        _ => return Err(corrupt("frame cut short, overlong or failing its checksum")),
    };
    let mut r = Reader::new(body);
    let parse = || -> Option<(CheckpointCatalog, H, Vec<P>)> {
        let generation = r.u64()?;
        let next_id = r.i64()?;
        let head = head(&mut r)?;
        let (tables, payloads) = r
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
                let (slots_len, payload) = table(r)?;
                let indexed = r.list(Reader::u32)?;
                let stats = read_stats(r)?;
                let entry = CatalogTable {
                    key,
                    schema: TableSchema { name, columns },
                    slots_len,
                    indexed,
                    stats,
                };
                Some((entry, payload))
            })?
            .into_iter()
            .unzip();
        let catalog = CheckpointCatalog {
            generation,
            next_id,
            tables,
            triggers: r.list(Reader::str)?,
        };
        r.done().then_some((catalog, head, payloads))
    };
    parse().ok_or_else(|| corrupt("truncated or malformed body"))
}

/// Encode `snapshot.bin`. `slots[i]` is the slot vector of
/// `catalog.tables[i]`.
pub fn encode_snapshot(catalog: &CheckpointCatalog, slots: &[&[Option<Row>]]) -> Vec<u8> {
    assert_eq!(slots.len(), catalog.tables.len(), "one slot vector each");
    encode(
        SNAP_MAGIC,
        catalog,
        |_| {},
        |out, i, _| {
            put_u64(out, slots[i].len() as u64);
            for slot in slots[i] {
                put_opt(out, slot.as_ref(), put_row);
            }
        },
    )
}

/// Decode `snapshot.bin`.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot> {
    let slots = |r: &mut Reader<'_>| {
        let nslots = r.u64()?;
        let mut slots = Vec::with_capacity((nslots as usize).min(1 << 20));
        for _ in 0..nslots {
            slots.push(r.opt(Reader::row)?);
        }
        Some((nslots, slots))
    };
    let (catalog, (), slots) = decode(SNAP_MAGIC, "snapshot", bytes, |_| Some(()), slots)?;
    Ok((catalog, slots))
}

/// Encode `pages.meta`. `roots[i]` is the B-tree root of
/// `catalog.tables[i]`.
pub fn encode_meta(catalog: &CheckpointCatalog, alloc: &PageAlloc, roots: &[u64]) -> Vec<u8> {
    assert_eq!(roots.len(), catalog.tables.len(), "one root per table");
    encode(
        META_MAGIC,
        catalog,
        |out| {
            put_u64(out, alloc.page_count);
            put_u64(out, alloc.lsn);
            put_list(out, &alloc.free, |out, id| put_u64(out, *id));
        },
        |out, i, t| {
            put_u64(out, roots[i]);
            put_u64(out, t.slots_len);
        },
    )
}

/// Decode `pages.meta`.
pub fn decode_meta(bytes: &[u8]) -> Result<PageMeta> {
    let alloc = |r: &mut Reader<'_>| {
        Some(PageAlloc {
            page_count: r.u64()?,
            lsn: r.u64()?,
            free: r.list(Reader::u64)?,
        })
    };
    let root = |r: &mut Reader<'_>| {
        let root = r.u64()?;
        Some((r.u64()?, root))
    };
    decode(META_MAGIC, "page meta", bytes, alloc, root)
}

/// Atomically replace `dir/dest` with `bytes`: write them beside it under
/// the extension `.tmp` (`snapshot.tmp`, `pages.tmp`), sync, rename, sync
/// the directory. The rename is the commit point; a crash on either side
/// of it leaves one whole file. Returns the bytes written.
fn publish(dir: &Path, dest: &str, bytes: &[u8]) -> Result<u64> {
    (|| -> std::io::Result<u64> {
        let (tmp, dest) = (dir.join(dest).with_extension("tmp"), dir.join(dest));
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
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
    .map_err(|e| DbError::Storage(format!("publish {dest}: {e}")))
}

/// Read and decode `dir/name`, if it exists.
fn read<T>(dir: &Path, name: &str, decode: fn(&[u8]) -> Result<T>) -> Result<Option<T>> {
    match fs::read(dir.join(name)) {
        Ok(bytes) => decode(&bytes).map(Some),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(DbError::Storage(format!("read {name}: {e}"))),
    }
}

/// Publish `snapshot.bin`; returns the bytes written.
pub(super) fn write_snapshot(
    dir: &Path,
    catalog: &CheckpointCatalog,
    slots: &[&[Option<Row>]],
) -> Result<u64> {
    let bytes = encode_snapshot(catalog, slots);
    publish(dir, SNAPSHOT_FILE, &bytes)
}

/// Publish `pages.meta`; returns the bytes written. A `snapshot.bin` the
/// store was migrated from is superseded by the rename and removed, so no
/// later open can mistake it for the directory's checkpoint.
pub(super) fn write_meta(
    dir: &Path,
    catalog: &CheckpointCatalog,
    alloc: &PageAlloc,
    roots: &[u64],
) -> Result<u64> {
    let bytes = encode_meta(catalog, alloc, roots);
    let written = publish(dir, META_FILE, &bytes)?;
    let _ = fs::remove_file(dir.join(SNAPSHOT_FILE));
    Ok(written)
}

/// `dir`'s `snapshot.bin`, if there is one.
pub(super) fn read_snapshot(dir: &Path) -> Result<Option<Snapshot>> {
    read(dir, SNAPSHOT_FILE, decode_snapshot)
}

/// `dir`'s `pages.meta`, if there is one.
pub(super) fn read_meta(dir: &Path) -> Result<Option<PageMeta>> {
    read(dir, META_FILE, decode_meta)
}
