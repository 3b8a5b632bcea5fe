//! Slotted-page pager: the fixed-size on-disk page format and the
//! CRC-checked page file underneath the paged storage backend.
//!
//! ## On-disk page format (4096 bytes)
//!
//! ```text
//! offset  size  field
//! 0       4     crc32 (IEEE, over bytes 4..4096)
//! 4       1     kind (0 free, 1 b-tree leaf, 2 b-tree interior, 3 overflow)
//! 5       1     flags (reserved, 0)
//! 6       2     ncells (u16 LE)
//! 8       8     lsn (u64 LE) — store LSN of the write that sealed the page
//! 16      8     next (u64 LE) — interior: rightmost child; overflow: next
//!               page in the chain; leaf: 0
//! 24      4*n   slot directory: per cell, offset u16 LE + length u16 LE
//! ...           free space
//! tail          cells, packed downward from byte 4096 in slot order
//! ```
//!
//! All integers are little-endian. Page id 0 is reserved as the nil
//! pointer; page `i` lives at file offset `i * 4096`. The CRC is computed
//! when a page is sealed for writing and verified on every read, so a
//! torn or bit-rotted page surfaces as a storage error instead of silent
//! corruption.
//!
//! The checkpoint *meta* file (`pages.meta`) is the commit point of the
//! copy-on-write page store: magic, then one `[len][crc][body]` frame
//! holding the generation, the page-allocation state (page count +
//! freelist), and the table catalog (name, columns, B-tree root, slot
//! count, indexed columns) plus trigger SQL. It is written via the same
//! atomic tmp + rename + dir-sync protocol as the full snapshot.

use crate::error::{DbError, Result};
use crate::value::DataType;
use crate::wal::{self, crc32, Reader};
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Size of every page, in bytes.
pub const PAGE_SIZE: usize = 4096;
/// Size of the fixed page header (crc, kind, flags, ncells, lsn, next).
pub const PAGE_HDR: usize = 24;
/// Size of one slot-directory entry (offset u16 + length u16).
pub const SLOT_ENTRY: usize = 4;
/// Magic prefix of the checkpoint meta file (the trailing digit is the
/// format version).
pub const META_MAGIC: &[u8; 8] = b"XUPPGME2";
/// Magic of the previous meta format (separate hash- and ordered-index
/// column lists per table), still accepted on read.
const META_MAGIC_V1: &[u8; 8] = b"XUPPGME1";
/// Page-file name inside a durable database's directory.
pub const DATA_FILE: &str = "pages.bin";
/// Checkpoint meta-file name (the paged store's commit point).
pub const META_FILE: &str = "pages.meta";
/// Temporary meta name; atomically renamed over [`META_FILE`].
pub const META_TMP: &str = "pages.tmp";

/// What a page holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageKind {
    /// Unallocated / freed.
    Free,
    /// B-tree leaf: cells are `key → row payload` entries.
    Leaf,
    /// B-tree interior: cells are `separator key → child page` entries.
    Interior,
    /// Overflow chunk of a payload too large to inline in a leaf.
    Overflow,
}

impl PageKind {
    fn from_u8(b: u8) -> Option<PageKind> {
        Some(match b {
            0 => PageKind::Free,
            1 => PageKind::Leaf,
            2 => PageKind::Interior,
            3 => PageKind::Overflow,
            _ => return None,
        })
    }

    fn as_u8(self) -> u8 {
        match self {
            PageKind::Free => 0,
            PageKind::Leaf => 1,
            PageKind::Interior => 2,
            PageKind::Overflow => 3,
        }
    }
}

/// One in-memory page image.
#[derive(Clone)]
pub struct Page {
    buf: Box<[u8; PAGE_SIZE]>,
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("kind", &self.kind())
            .field("ncells", &self.ncells())
            .field("lsn", &self.lsn())
            .field("next", &self.next())
            .finish()
    }
}

impl Page {
    /// A zeroed page of the given kind.
    pub fn new(kind: PageKind) -> Page {
        let mut p = Page {
            buf: Box::new([0u8; PAGE_SIZE]),
        };
        p.buf[4] = kind.as_u8();
        p
    }

    /// Reconstruct a page from raw bytes, verifying length and checksum.
    pub fn from_bytes(bytes: &[u8]) -> Result<Page> {
        if bytes.len() != PAGE_SIZE {
            return Err(DbError::Storage(format!(
                "page corrupt: {} bytes (want {PAGE_SIZE})",
                bytes.len()
            )));
        }
        let stored = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
        if crc32(&bytes[4..]) != stored {
            return Err(DbError::Storage("page corrupt: checksum mismatch".into()));
        }
        if PageKind::from_u8(bytes[4]).is_none() {
            return Err(DbError::Storage(format!(
                "page corrupt: unknown kind {}",
                bytes[4]
            )));
        }
        let mut buf = Box::new([0u8; PAGE_SIZE]);
        buf.copy_from_slice(bytes);
        Ok(Page { buf })
    }

    /// The page's kind byte.
    pub fn kind(&self) -> PageKind {
        PageKind::from_u8(self.buf[4]).expect("validated on construction")
    }

    /// Number of cells in the slot directory.
    pub fn ncells(&self) -> usize {
        u16::from_le_bytes(self.buf[6..8].try_into().unwrap()) as usize
    }

    /// Store LSN stamped when the page was last sealed.
    pub fn lsn(&self) -> u64 {
        u64::from_le_bytes(self.buf[8..16].try_into().unwrap())
    }

    /// Stamp the store LSN.
    pub fn set_lsn(&mut self, lsn: u64) {
        self.buf[8..16].copy_from_slice(&lsn.to_le_bytes());
    }

    /// The `next` pointer (rightmost child / overflow continuation).
    pub fn next(&self) -> u64 {
        u64::from_le_bytes(self.buf[16..24].try_into().unwrap())
    }

    /// Set the `next` pointer.
    pub fn set_next(&mut self, next: u64) {
        self.buf[16..24].copy_from_slice(&next.to_le_bytes());
    }

    /// Borrow cell `i`'s bytes.
    pub fn cell(&self, i: usize) -> &[u8] {
        let at = PAGE_HDR + i * SLOT_ENTRY;
        let off = u16::from_le_bytes(self.buf[at..at + 2].try_into().unwrap()) as usize;
        let len = u16::from_le_bytes(self.buf[at + 2..at + 4].try_into().unwrap()) as usize;
        &self.buf[off..off + len]
    }

    /// Decode every cell into owned byte vectors, in slot order.
    pub fn cells(&self) -> Vec<Vec<u8>> {
        (0..self.ncells()).map(|i| self.cell(i).to_vec()).collect()
    }

    /// Bytes the given cells would occupy (header + slots + payloads).
    pub fn used_by(cells: &[Vec<u8>]) -> usize {
        PAGE_HDR + cells.iter().map(|c| SLOT_ENTRY + c.len()).sum::<usize>()
    }

    /// Replace the page's cell content: rewrite the slot directory and
    /// pack the cells downward from the page tail in slot order. Returns
    /// `false` (leaving the page untouched) if the cells do not fit.
    pub fn set_cells(&mut self, cells: &[Vec<u8>]) -> bool {
        if Page::used_by(cells) > PAGE_SIZE || cells.len() > u16::MAX as usize {
            return false;
        }
        // Wipe the old directory + cell area so sealed bytes are a pure
        // function of the logical content (golden-test determinism).
        self.buf[PAGE_HDR..].fill(0);
        self.buf[6..8].copy_from_slice(&(cells.len() as u16).to_le_bytes());
        let mut tail = PAGE_SIZE;
        for (i, cell) in cells.iter().enumerate() {
            tail -= cell.len();
            self.buf[tail..tail + cell.len()].copy_from_slice(cell);
            let at = PAGE_HDR + i * SLOT_ENTRY;
            self.buf[at..at + 2].copy_from_slice(&(tail as u16).to_le_bytes());
            self.buf[at + 2..at + 4].copy_from_slice(&(cell.len() as u16).to_le_bytes());
        }
        true
    }

    /// Compute and store the header checksum; call before writing out.
    pub fn seal(&mut self) {
        let crc = crc32(&self.buf[4..]);
        self.buf[0..4].copy_from_slice(&crc.to_le_bytes());
    }

    /// The raw page bytes (valid after [`Page::seal`]).
    pub fn as_bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.buf
    }
}

/// The page file: fixed-size CRC-checked pages addressed by id.
#[derive(Debug)]
pub struct Pager {
    file: fs::File,
}

fn io_err(ctx: &str, e: &std::io::Error) -> DbError {
    DbError::Storage(format!("{ctx}: {e}"))
}

impl Pager {
    /// Open (or create) the page file at `path`.
    pub fn open(path: &Path) -> Result<Pager> {
        let file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| io_err("open page file", &e))?;
        Ok(Pager { file })
    }

    /// Read and verify page `id`.
    pub fn read_page(&mut self, id: u64) -> Result<Page> {
        let mut bytes = [0u8; PAGE_SIZE];
        self.file
            .seek(SeekFrom::Start(id * PAGE_SIZE as u64))
            .map_err(|e| io_err("seek page", &e))?;
        self.file
            .read_exact(&mut bytes)
            .map_err(|e| io_err(&format!("read page {id}"), &e))?;
        Page::from_bytes(&bytes)
    }

    /// Seal and write page `id` (no fsync; see [`Pager::sync`]).
    pub fn write_page(&mut self, id: u64, page: &mut Page) -> Result<()> {
        page.seal();
        self.file
            .seek(SeekFrom::Start(id * PAGE_SIZE as u64))
            .map_err(|e| io_err("seek page", &e))?;
        self.file
            .write_all(page.as_bytes())
            .map_err(|e| io_err(&format!("write page {id}"), &e))?;
        Ok(())
    }

    /// Make every page write issued so far durable.
    pub fn sync(&mut self) -> Result<()> {
        self.file
            .sync_data()
            .map_err(|e| io_err("sync page file", &e))
    }

    /// Reset the file to empty (fresh store with no checkpoint meta).
    pub fn reset(&mut self) -> Result<()> {
        self.file
            .set_len(0)
            .map_err(|e| io_err("reset page file", &e))
    }
}

// ----------------------------------------------------------------------
// checkpoint meta codec
// ----------------------------------------------------------------------

/// Per-table entry in the checkpoint meta: everything needed to rebuild
/// the in-memory [`crate::Table`] from pages at open.
#[derive(Debug, Clone, PartialEq)]
pub struct TableMeta {
    /// Lower-cased catalog key.
    pub key: String,
    /// Schema name as created (case preserved).
    pub name: String,
    /// Column name/type pairs in order.
    pub columns: Vec<(String, DataType)>,
    /// Root page of the table's B-tree (0 = empty).
    pub root: u64,
    /// Slot-vector length, trailing tombstones included, so WAL replay
    /// appends rows at the positions the log recorded.
    pub slots_len: u64,
    /// Indexed column indices, ascending (indexes are rebuilt at open).
    pub indexed: Vec<u32>,
    /// Optimizer statistics captured at checkpoint time, if the table
    /// has been `ANALYZE`d.
    pub stats: Option<crate::stats::TableStatistics>,
}

/// Decoded contents of the checkpoint meta file: the commit point of the
/// copy-on-write page store.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreMeta {
    /// Checkpoint generation (same protocol as the snapshot/WAL pair).
    pub generation: u64,
    /// The engine's id counter at checkpoint time.
    pub next_id: i64,
    /// Highest allocated page id.
    pub page_count: u64,
    /// Store LSN at checkpoint time.
    pub lsn: u64,
    /// Free page ids available for reuse.
    pub free: Vec<u64>,
    /// Table catalog, sorted by key.
    pub tables: Vec<TableMeta>,
    /// Triggers in registration order, as `CREATE TRIGGER` SQL.
    pub triggers: Vec<String>,
}

/// Encode a checkpoint meta file: magic, then one `[len][crc][body]`
/// frame (the same framing discipline as the WAL and snapshot codecs).
pub fn encode_meta(meta: &StoreMeta) -> Vec<u8> {
    let mut body = Vec::new();
    wal::put_u64(&mut body, meta.generation);
    wal::put_i64(&mut body, meta.next_id);
    wal::put_u64(&mut body, meta.page_count);
    wal::put_u64(&mut body, meta.lsn);
    wal::put_u32(&mut body, meta.free.len() as u32);
    for id in &meta.free {
        wal::put_u64(&mut body, *id);
    }
    wal::put_u32(&mut body, meta.tables.len() as u32);
    for t in &meta.tables {
        wal::put_str(&mut body, &t.key);
        wal::put_str(&mut body, &t.name);
        wal::put_u32(&mut body, t.columns.len() as u32);
        for (name, ty) in &t.columns {
            wal::put_str(&mut body, name);
            wal::put_data_type(&mut body, *ty);
        }
        wal::put_u64(&mut body, t.root);
        wal::put_u64(&mut body, t.slots_len);
        wal::put_u32(&mut body, t.indexed.len() as u32);
        for ci in &t.indexed {
            wal::put_u32(&mut body, *ci);
        }
        crate::stats::put_stats(&mut body, t.stats.as_ref());
    }
    wal::put_u32(&mut body, meta.triggers.len() as u32);
    for sql in &meta.triggers {
        wal::put_str(&mut body, sql);
    }
    let mut out = Vec::with_capacity(body.len() + 16);
    out.extend_from_slice(META_MAGIC);
    wal::put_u32(&mut out, body.len() as u32);
    wal::put_u32(&mut out, crc32(&body));
    out.extend_from_slice(&body);
    out
}

/// Decode a checkpoint meta file. The meta is written atomically (tmp +
/// rename), so any corruption — truncation at *any* offset included —
/// is an error, never a partial parse.
pub fn decode_meta(bytes: &[u8]) -> Result<StoreMeta> {
    let corrupt = |what: &str| DbError::Storage(format!("page meta corrupt: {what}"));
    if bytes.len() < 16 {
        return Err(corrupt("bad magic"));
    }
    let v1 = match &bytes[..8] {
        m if m == META_MAGIC => false,
        m if m == META_MAGIC_V1 => true,
        _ => return Err(corrupt("bad magic")),
    };
    let len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    let body = bytes
        .get(16..16 + len)
        .ok_or_else(|| corrupt("short body"))?;
    if bytes.len() != 16 + len {
        return Err(corrupt("trailing bytes"));
    }
    if crc32(body) != crc {
        return Err(corrupt("checksum mismatch"));
    }
    let mut r = Reader::new(body);
    let parse = || corrupt("truncated field");
    let generation = r.u64().ok_or_else(parse)?;
    let next_id = r.i64().ok_or_else(parse)?;
    let page_count = r.u64().ok_or_else(parse)?;
    let lsn = r.u64().ok_or_else(parse)?;
    let nfree = r.u32().ok_or_else(parse)? as usize;
    let mut free = Vec::with_capacity(nfree.min(1 << 20));
    for _ in 0..nfree {
        free.push(r.u64().ok_or_else(parse)?);
    }
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
        let root = r.u64().ok_or_else(parse)?;
        let slots_len = r.u64().ok_or_else(parse)?;
        // One column list; the old format carried two (hash, ordered).
        let mut indexed = Vec::new();
        for _ in 0..if v1 { 2 } else { 1 } {
            for _ in 0..r.u32().ok_or_else(parse)? {
                indexed.push(r.u32().ok_or_else(parse)?);
            }
        }
        if v1 {
            indexed.sort_unstable();
            indexed.dedup();
        }
        let stats =
            crate::stats::read_stats(&mut r).ok_or_else(|| corrupt("bad statistics block"))?;
        tables.push(TableMeta {
            key,
            name,
            columns,
            root,
            slots_len,
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
        return Err(corrupt("trailing body bytes"));
    }
    Ok(StoreMeta {
        generation,
        next_id,
        page_count,
        lsn,
        free,
        tables,
        triggers,
    })
}
