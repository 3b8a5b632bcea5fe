//! The paged storage backend: per-table copy-on-write B-trees over a
//! slotted-page file, cached by a clock buffer pool, checkpointed
//! incrementally.
//!
//! Statements never touch the store: they write the in-memory heap and
//! the WAL, and each [`crate::Table`] records which slots changed. A
//! checkpoint brings the trees up to the heap — it frees the trees of
//! dropped tables, writes a table new since the last checkpoint whole,
//! and otherwise puts or deletes exactly the changed slots — then
//! flushes the dirty frames, fsyncs the page file, and commits by
//! publishing a small meta file (catalog, table roots, freelist; see
//! [`super::checkpoint`]). Shadow paging guarantees the previous
//! checkpoint's pages were never overwritten, so a crash at any instant
//! recovers from the old meta plus the WAL. The trees are read only by
//! [`super::open`] at recovery.
//!
//! An error while the trees are brought up to the heap leaves them
//! half-applied, so it *poisons* the store: that `CHECKPOINT` fails and
//! keeps the WAL, every later one fails with the stored error, and
//! queries keep answering from the heap.

use super::btree::{bt_delete, bt_free, bt_page_count, bt_put, bt_scan};
use super::checkpoint::{self, PageAlloc, PageMeta};
use super::pager::{Pager, DATA_FILE, PAGE_SIZE};
use super::pool::PageHeap;
use super::{
    BackendKind, CheckpointCatalog, CheckpointReport, StorageBackend, StorageMetrics, TableImage,
};
use crate::error::{DbError, Result};
use crate::value::Row;
use crate::wal::{self, Reader};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

fn encode_row(row: &Row) -> Vec<u8> {
    let mut out = Vec::new();
    wal::put_row(&mut out, row);
    out
}

fn decode_row(bytes: &[u8]) -> Result<Row> {
    let mut r = Reader::new(bytes);
    let row = r
        .row()
        .ok_or_else(|| DbError::Storage("page row payload corrupt".into()))?;
    if !r.done() {
        return Err(DbError::Storage(
            "page row payload has trailing bytes".into(),
        ));
    }
    Ok(row)
}

#[derive(Debug)]
struct StoreInner {
    heap: PageHeap,
    /// B-tree root per lower-cased table key (0 = empty tree), as of the
    /// last checkpoint once one has run.
    roots: HashMap<String, u64>,
    /// The error that left the trees half-applied; every later
    /// checkpoint fails with it.
    poisoned: Option<String>,
}

impl StoreInner {
    /// Bring the trees up to the heap the checkpoint describes.
    fn apply(&mut self, catalog: &CheckpointCatalog, tables: &[TableImage]) -> Result<()> {
        let mut dropped: Vec<String> = self
            .roots
            .keys()
            .filter(|k| !catalog.tables.iter().any(|t| &t.key == *k))
            .cloned()
            .collect();
        dropped.sort_unstable();
        for key in dropped {
            if let Some(root) = self.roots.remove(&key) {
                bt_free(&mut self.heap, root)?;
            }
        }
        for (t, image) in catalog.tables.iter().zip(tables) {
            let h = &mut self.heap;
            let root = match (image.changed, self.roots.get(&t.key).copied()) {
                (Some(changed), Some(mut root)) => {
                    for (w, &word) in changed.iter().enumerate() {
                        let mut bits = word;
                        while bits != 0 {
                            let pos = w * 64 + bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            root = match image.slots.get(pos) {
                                Some(Some(row)) => bt_put(h, root, pos as u64, &encode_row(row))?,
                                _ => bt_delete(h, root, pos as u64)?,
                            };
                        }
                    }
                    root
                }
                // New since the last checkpoint (perhaps dropped and
                // re-created under the same key), or never written here
                // (a migrated snapshot): write it whole.
                (_, old) => {
                    bt_free(h, old.unwrap_or(0))?;
                    let mut root = 0;
                    for (pos, slot) in image.slots.iter().enumerate() {
                        if let Some(row) = slot {
                            root = bt_put(h, root, pos as u64, &encode_row(row))?;
                        }
                    }
                    root
                }
            };
            self.roots.insert(t.key.clone(), root);
        }
        Ok(())
    }
}

/// The paged storage backend, behind one mutex so the trait works from
/// `&self`.
#[derive(Debug)]
pub struct PagedStore {
    dir: PathBuf,
    inner: Mutex<StoreInner>,
}

impl PagedStore {
    /// Open the page store inside `dir` with a buffer pool of
    /// `pool_frames` frames, at the state `meta` committed. Without a
    /// meta the page file is reset and holds no tree: the first
    /// checkpoint writes every table whole.
    pub(super) fn attach(
        dir: &Path,
        pool_frames: usize,
        meta: Option<&PageMeta>,
    ) -> Result<PagedStore> {
        let pager = Pager::open(&dir.join(DATA_FILE))?;
        let mut heap = PageHeap::new(pager, pool_frames);
        let mut roots = HashMap::new();
        match meta {
            Some((catalog, alloc, table_roots)) => {
                heap.load_state(alloc.page_count, alloc.free.clone(), alloc.lsn);
                for (t, root) in catalog.tables.iter().zip(table_roots) {
                    roots.insert(t.key.clone(), *root);
                }
            }
            None => heap.reset_file()?,
        }
        Ok(PagedStore {
            dir: dir.to_path_buf(),
            inner: Mutex::new(StoreInner {
                heap,
                roots,
                poisoned: None,
            }),
        })
    }

    fn with_inner<T>(&self, f: impl FnOnce(&mut StoreInner) -> Result<T>) -> Result<T> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(why) = &inner.poisoned {
            return Err(DbError::Storage(format!("page store poisoned: {why}")));
        }
        f(&mut inner)
    }

    /// All live rows of `table` in slot order: the recovery scan
    /// [`super::open`] rebuilds the heap from.
    pub(super) fn scan_table(&self, table: &str) -> Result<Vec<(u64, Row)>> {
        self.with_inner(|inner| {
            let root =
                inner.roots.get(table).copied().ok_or_else(|| {
                    DbError::Storage(format!("page store has no table `{table}`"))
                })?;
            let mut rows = Vec::new();
            for (pos, bytes) in bt_scan(&mut inner.heap, root)? {
                rows.push((pos, decode_row(&bytes)?));
            }
            Ok(rows)
        })
    }
}

impl StorageBackend for PagedStore {
    fn kind(&self) -> BackendKind {
        BackendKind::Paged
    }

    fn table_pages(&self, table: &str) -> Option<u64> {
        let mut inner = self.inner.lock().unwrap();
        let root = *inner.roots.get(table)?;
        bt_page_count(&mut inner.heap, root).ok()
    }

    fn checkpoint(
        &self,
        catalog: &CheckpointCatalog,
        tables: &[TableImage],
    ) -> Result<CheckpointReport> {
        self.with_inner(|inner| {
            // 1. Bring the trees up to the heap. A failure here leaves
            //    them half-applied: poison the store.
            if let Err(e) = inner.apply(catalog, tables) {
                inner.poisoned = Some(e.to_string());
                return Err(e);
            }
            // 2. Flush exactly the dirty pool frames and make them
            //    durable. Shadow paging means none of these writes can
            //    touch a page the previous checkpoint still references.
            let (pages, bytes) = inner.heap.flush()?;
            // 3. Publish the meta that points at them.
            let alloc = PageAlloc {
                page_count: inner.heap.page_count,
                lsn: inner.heap.lsn,
                free: inner.heap.checkpoint_free_list(),
            };
            let roots: Vec<u64> = catalog
                .tables
                .iter()
                .map(|t| inner.roots.get(&t.key).copied().unwrap_or(0))
                .collect();
            let meta_bytes = checkpoint::write_meta(&self.dir, catalog, &alloc, &roots)?;
            // 4. The rename is the commit point: pending frees become
            //    reusable and the new tree's pages stop being fresh.
            inner.heap.checkpoint_committed();
            Ok(CheckpointReport {
                pages_written: pages + meta_bytes.div_ceil(PAGE_SIZE as u64),
                bytes_written: bytes + meta_bytes,
            })
        })
    }

    fn metrics(&self) -> StorageMetrics {
        let inner = self.inner.lock().unwrap();
        StorageMetrics {
            backend: BackendKind::Paged,
            pool: inner.heap.pool_stats(),
            pool_frames: inner.heap.pool_budget() as u64,
            pages_allocated: inner.heap.page_count,
            lsn: inner.heap.lsn,
        }
    }
}
