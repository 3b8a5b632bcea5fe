//! The paged storage backend: per-table copy-on-write B-trees over a
//! slotted-page file, cached by a clock buffer pool, checkpointed
//! incrementally.
//!
//! All mutations land in pool frames (dirty, no I/O beyond eviction
//! write-back); a checkpoint flushes exactly the dirty frames, fsyncs
//! the page file, and commits by publishing a small meta file (catalog,
//! table roots, freelist; see [`super::checkpoint`]). Shadow paging guarantees
//! the previous checkpoint's pages were never overwritten, so a crash at
//! any instant recovers from the old meta plus the WAL.
//!
//! Mirror writes arrive from [`crate::Table`] on every slot mutation
//! (forward DML, rollback undo, and WAL replay all funnel through the
//! same six mutation methods), so the page store tracks the in-memory
//! heap byte for byte between checkpoints. It is written, never read,
//! while the database is open: statements read the heap, and the trees
//! are scanned only by [`super::open`] at recovery. Mirror paths cannot
//! return errors to their callers, so an I/O failure *poisons* the
//! store: the error is stored and surfaced by the next `CHECKPOINT`,
//! which fails and keeps the WAL, while queries keep answering from the
//! heap.

use super::btree::{bt_delete, bt_free, bt_page_count, bt_put, bt_scan};
use super::checkpoint::{self, PageAlloc, PageMeta};
use super::pager::{Pager, DATA_FILE, PAGE_SIZE};
use super::pool::PageHeap;
use super::{BackendKind, CheckpointCatalog, CheckpointReport, StorageBackend, StorageMetrics};
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
    /// B-tree root per lower-cased table key (0 = empty tree).
    roots: HashMap<String, u64>,
    /// First mirror-path I/O error; surfaces at the next checkpoint
    /// instead of being silently dropped.
    poisoned: Option<String>,
}

/// The paged storage backend. Interior-mutable behind one mutex so the
/// mirror hooks work from `&self` (every table holds it in an `Arc`).
#[derive(Debug)]
pub struct PagedStore {
    dir: PathBuf,
    inner: Mutex<StoreInner>,
}

impl PagedStore {
    /// Open the page store inside `dir` with a buffer pool of
    /// `pool_frames` frames, at the state `meta` committed. Without a
    /// meta the page file is reset: the store's content is whatever the
    /// caller seeds it with (fresh schema or a migrated snapshot).
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

    /// Run a mirror-path mutation; an error poisons the store instead of
    /// propagating (the mutation callers cannot fail).
    fn mirror(&self, f: impl FnOnce(&mut StoreInner) -> Result<()>) {
        let mut inner = self.inner.lock().unwrap();
        if inner.poisoned.is_some() {
            return;
        }
        if let Err(e) = f(&mut inner) {
            inner.poisoned = Some(e.to_string());
        }
    }

    /// All live rows of `table` in slot order: the recovery scan
    /// [`super::open`] rebuilds the heap from.
    pub(super) fn scan_table(&self, table: &str) -> Result<Vec<(u64, Row)>> {
        self.with_inner(|inner| {
            let root = root_of(inner, table)?;
            let mut rows = Vec::new();
            for (pos, bytes) in bt_scan(&mut inner.heap, root)? {
                rows.push((pos, decode_row(&bytes)?));
            }
            Ok(rows)
        })
    }
}

fn root_of(inner: &StoreInner, table: &str) -> Result<u64> {
    inner
        .roots
        .get(table)
        .copied()
        .ok_or_else(|| DbError::Storage(format!("page store has no table `{table}`")))
}

impl StorageBackend for PagedStore {
    fn kind(&self) -> BackendKind {
        BackendKind::Paged
    }

    fn is_persistent(&self) -> bool {
        true
    }

    fn create_table(&self, table: &str) {
        self.mirror(|inner| {
            inner.roots.insert(table.to_string(), 0);
            Ok(())
        });
    }

    fn drop_table(&self, table: &str) {
        self.mirror(|inner| {
            if let Some(root) = inner.roots.remove(table) {
                bt_free(&mut inner.heap, root)?;
            }
            Ok(())
        });
    }

    fn put_row(&self, table: &str, pos: u64, row: &Row) {
        let payload = encode_row(row);
        self.mirror(|inner| {
            let root = root_of(inner, table)?;
            let new_root = bt_put(&mut inner.heap, root, pos, &payload)?;
            inner.roots.insert(table.to_string(), new_root);
            Ok(())
        });
    }

    fn delete_row(&self, table: &str, pos: u64) {
        self.mirror(|inner| {
            let root = root_of(inner, table)?;
            let new_root = bt_delete(&mut inner.heap, root, pos)?;
            inner.roots.insert(table.to_string(), new_root);
            Ok(())
        });
    }

    fn table_pages(&self, table: &str) -> Option<u64> {
        let mut inner = self.inner.lock().unwrap();
        let root = *inner.roots.get(table)?;
        bt_page_count(&mut inner.heap, root).ok()
    }

    fn checkpoint(
        &self,
        catalog: &CheckpointCatalog,
        _slots: &[&[Option<Row>]],
    ) -> Result<CheckpointReport> {
        self.with_inner(|inner| {
            // 1. Flush exactly the dirty pool frames and make them
            //    durable. Shadow paging means none of these writes can
            //    touch a page the previous checkpoint still references.
            let (pages, bytes) = inner.heap.flush()?;
            // 2. Publish the meta that points at them.
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
            // 3. The rename is the commit point: pending frees become
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
