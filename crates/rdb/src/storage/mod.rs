//! Pluggable storage backends behind the relational engine, and the one
//! checkpoint / recovery path both of them implement.
//!
//! The engine's tables are in-memory slot vectors ([`crate::Table`]);
//! this module decides what sits underneath them:
//!
//! * [`MemoryBackend`] — the default. No second copy of the rows: a
//!   checkpoint writes every slot vector to `snapshot.bin`.
//! * [`PagedStore`](paged::PagedStore) — a slotted-page file with one
//!   copy-on-write B-tree per table (keyed on row id / slot position)
//!   and a clock buffer pool. The trees are the durable image and
//!   nothing more: no statement reads or writes them. A checkpoint
//!   brings them up to the heap from each table's changed slots, flushes
//!   only the dirty frames and publishes `pages.meta`, so its cost is
//!   O(slots changed), not O(database); only recovery reads them.
//!
//! Statements write the tables and the WAL only. Each [`crate::Table`]
//! records which slots changed since the last checkpoint.
//! The engine knows neither file: [`Database::checkpoint`](crate::Database::checkpoint)
//! hands [`StorageBackend::checkpoint`] a [`CheckpointCatalog`] and one
//! borrowed [`TableImage`] per table (slots + changed positions), and
//! truncates the WAL and clears the changed positions when it returns;
//! [`Database::open_with`](crate::Database::open_with) calls [`open`],
//! which reads whichever checkpoint the directory holds and hands back
//! the backend plus the catalog and slot vectors to rebuild tables from.
//! The file formats and their publish protocol live in [`checkpoint`].
//!
//! The split of responsibilities: the in-memory table is the one copy
//! of the rows the engine reads — scans, index probes, DML target
//! selection, undo, MVCC before-images — on both backends, while the
//! backend is the authority for *bytes on disk*. No trait method returns
//! rows; MVCC version chains stay above the trait, so snapshot reads
//! behave identically on every backend.

pub mod btree;
pub mod checkpoint;
pub mod paged;
pub mod pager;
pub mod pool;

pub use paged::PagedStore;
pub use pool::PoolStats;

use crate::error::{DbError, Result};
use crate::table::TableSchema;
use crate::value::Row;
use checkpoint::{Slots, Snapshot};
use std::path::{Path, PathBuf};

/// Which storage backend a database runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// In-memory tables only; checkpoints write a full snapshot.
    #[default]
    Memory,
    /// Slotted-page B-tree store with buffer pool and incremental
    /// checkpoints.
    Paged,
}

impl BackendKind {
    /// Parse a CLI flag value (`memory` / `paged`).
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s.to_ascii_lowercase().as_str() {
            "memory" | "mem" => Some(BackendKind::Memory),
            "paged" | "pages" => Some(BackendKind::Paged),
            _ => None,
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendKind::Memory => write!(f, "memory"),
            BackendKind::Paged => write!(f, "paged"),
        }
    }
}

/// Storage configuration for [`Database::open_with`](crate::Database::open_with).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageConfig {
    /// Backend selection (default: in-memory).
    pub backend: BackendKind,
    /// Buffer-pool frame budget for the paged backend (frames × 4 KiB).
    pub pool_frames: usize,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            backend: BackendKind::Memory,
            pool_frames: 1024,
        }
    }
}

impl StorageConfig {
    /// Convenience: the paged backend with the default pool budget.
    pub fn paged() -> StorageConfig {
        StorageConfig {
            backend: BackendKind::Paged,
            ..StorageConfig::default()
        }
    }
}

/// Storage-layer observability counters, surfaced in
/// [`Database::metrics`](crate::Database::metrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageMetrics {
    /// Which backend produced these numbers.
    pub backend: BackendKind,
    /// Buffer-pool hit/miss/eviction/write-back counters.
    pub pool: PoolStats,
    /// Configured pool frame budget.
    pub pool_frames: u64,
    /// Highest allocated page id.
    pub pages_allocated: u64,
    /// Current store LSN.
    pub lsn: u64,
}

/// One table's schema entry in a [`CheckpointCatalog`].
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogTable {
    /// Lower-cased catalog key.
    pub key: String,
    /// Name as created, and the columns in order.
    pub schema: TableSchema,
    /// Slot-vector length, trailing tombstones included.
    pub slots_len: u64,
    /// Indexed column indices, ascending.
    pub indexed: Vec<u32>,
    /// Optimizer statistics, if the table has been `ANALYZE`d.
    pub stats: Option<crate::stats::TableStatistics>,
}

/// What a checkpoint remembers besides the rows: the generation, the id
/// counter, and the catalog to rebuild tables and triggers from at the
/// next open. Both checkpoint files carry exactly this
/// ([`checkpoint`] is its one codec).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointCatalog {
    /// Checkpoint generation, stamped in the WAL header too: a WAL of
    /// an older generation is history this checkpoint already holds.
    pub generation: u64,
    /// The engine's id counter.
    pub next_id: i64,
    /// Table catalog, sorted by key.
    pub tables: Vec<CatalogTable>,
    /// Triggers in registration order, as `CREATE TRIGGER` SQL.
    pub triggers: Vec<String>,
}

/// Work a checkpoint did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Pages written: dirty frames flushed plus the checkpoint file in
    /// page units.
    pub pages_written: u64,
    /// Bytes written: dirty frames plus the checkpoint file.
    pub bytes_written: u64,
}

/// One table as a checkpoint sees it: the whole slot vector and which
/// slots changed since the previous checkpoint.
#[derive(Debug, Clone, Copy)]
pub struct TableImage<'a> {
    /// Every slot in position order, `None` for a tombstone.
    pub slots: &'a [Option<Row>],
    /// Slot positions changed since the previous checkpoint, one bit per
    /// position (word `pos / 64`, bit `pos % 64`), possibly naming
    /// positions past `slots` (rows since undone); `None` when the table
    /// is new since then, so every slot counts.
    pub changed: Option<&'a [u64]>,
}

/// A storage backend underneath the engine's in-memory tables.
///
/// Statements never call it: they write the tables and the WAL only.
/// The backend sees the rows once per checkpoint, and nothing here reads
/// rows back; a backend's own copy is read only by [`open`].
pub trait StorageBackend: std::fmt::Debug + Send + Sync {
    /// Which backend this is.
    fn kind(&self) -> BackendKind;

    /// Best-effort page count for one table's on-disk structure as of
    /// the last checkpoint, or `None` when the backend has no page-level
    /// representation (the in-memory backend) or the last checkpoint
    /// did not hold the table. Feeds the `rdb_tables.pages` system-view
    /// column.
    fn table_pages(&self, _table: &str) -> Option<u64> {
        None
    }

    /// Commit a checkpoint of `catalog`; `tables[i]` is the image of
    /// `catalog.tables[i]`. When this returns `Ok` the checkpoint is
    /// durable and the caller may truncate the WAL and forget which
    /// slots changed.
    fn checkpoint(
        &self,
        catalog: &CheckpointCatalog,
        tables: &[TableImage],
    ) -> Result<CheckpointReport>;

    /// Current storage-layer counters.
    fn metrics(&self) -> StorageMetrics;
}

/// The default backend: the engine's tables are the only copy of the
/// rows, so a checkpoint writes all of them to `snapshot.bin` and never
/// asks which changed.
#[derive(Debug, Default, Clone)]
pub struct MemoryBackend {
    /// Directory of a durable database; `None` under [`Database::new`](crate::Database::new).
    dir: Option<PathBuf>,
}

impl StorageBackend for MemoryBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Memory
    }

    fn checkpoint(
        &self,
        catalog: &CheckpointCatalog,
        tables: &[TableImage],
    ) -> Result<CheckpointReport> {
        let dir = self.dir.as_deref().ok_or_else(|| {
            DbError::Storage("checkpoint requires a durable database (Database::open)".into())
        })?;
        let slots: Vec<&[Option<Row>]> = tables.iter().map(|t| t.slots).collect();
        let bytes = checkpoint::write_snapshot(dir, catalog, &slots)?;
        Ok(CheckpointReport {
            pages_written: bytes.div_ceil(pager::PAGE_SIZE as u64),
            bytes_written: bytes,
        })
    }

    fn metrics(&self) -> StorageMetrics {
        StorageMetrics::default()
    }
}

/// Open the storage of the durable database in `dir`: read whichever
/// checkpoint the directory holds and hand back the backend plus, if
/// there is a checkpoint, its catalog and one slot vector per catalog
/// table — decoded from `snapshot.bin`, or scanned out of the B-trees
/// `pages.meta` roots. A paged open of a directory the memory backend
/// checkpointed decodes `snapshot.bin` over an empty page store, which
/// writes every table whole at its first checkpoint.
///
/// `wal_generation` is the generation in the directory's WAL header, if
/// it has one. A WAL newer than the checkpoint extends a checkpoint this
/// directory no longer holds, and a memory open of a paged store would
/// not see its rows at all: both are refused here, before any file is
/// created or written.
pub fn open(
    dir: &Path,
    config: StorageConfig,
    wal_generation: Option<u64>,
) -> Result<(Box<dyn StorageBackend>, Option<Snapshot>)> {
    let meta = checkpoint::read_meta(dir)?;
    if meta.is_some() && config.backend == BackendKind::Memory {
        return Err(DbError::Storage(format!(
            "{} holds a paged store (pages.meta): open it with the paged backend (--backend paged)",
            dir.display()
        )));
    }
    // A snapshot beside a meta is what the store was migrated from.
    let snapshot = match meta {
        Some(_) => None,
        None => checkpoint::read_snapshot(dir)?,
    };
    let generation = match (&meta, &snapshot) {
        (Some((catalog, ..)), _) | (_, Some((catalog, _))) => catalog.generation,
        _ => 0,
    };
    if let Some(wal) = wal_generation.filter(|&wal| wal > generation) {
        return Err(DbError::Storage(format!(
            "WAL generation {wal} is newer than the checkpoint's ({generation}): \
             the checkpoint it extends is missing from {}",
            dir.display()
        )));
    }
    if config.backend == BackendKind::Memory {
        let dir = Some(dir.to_path_buf());
        return Ok((Box::new(MemoryBackend { dir }), snapshot));
    }
    let store = PagedStore::attach(dir, config.pool_frames, meta.as_ref())?;
    let recovered = match meta {
        Some((catalog, ..)) => {
            let mut slots = Vec::with_capacity(catalog.tables.len());
            for t in &catalog.tables {
                let mut table: Slots = vec![None; t.slots_len as usize];
                for (pos, row) in store.scan_table(&t.key)? {
                    *table.get_mut(pos as usize).ok_or_else(|| {
                        DbError::Storage(format!(
                            "page store holds row {pos} of `{}` past its {} slots",
                            t.key, t.slots_len
                        ))
                    })? = Some(row);
                }
                slots.push(table);
            }
            Some((catalog, slots))
        }
        None => snapshot,
    };
    Ok((Box::new(store), recovered))
}
