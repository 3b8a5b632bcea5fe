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
//! The commit point of the copy-on-write page store is the checkpoint
//! *meta* file, `pages.meta`; its format and publish protocol live in
//! [`super::checkpoint`].

use crate::error::{DbError, Result};
use crate::wal::crc32;
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Size of every page, in bytes.
pub const PAGE_SIZE: usize = 4096;
/// Size of the fixed page header (crc, kind, flags, ncells, lsn, next).
pub const PAGE_HDR: usize = 24;
/// Size of one slot-directory entry (offset u16 + length u16).
pub const SLOT_ENTRY: usize = 4;
/// Page-file name inside a durable database's directory.
pub const DATA_FILE: &str = "pages.bin";

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
