//! Durable storage underneath the relational engine: one checkpoint.
//!
//! The engine's tables are in-memory slot vectors ([`crate::Table`]) and
//! the only copy of the rows it reads. Statements write the tables and
//! the WAL only. A checkpoint
//! ([`Database::checkpoint`](crate::Database::checkpoint)) writes the
//! [`CheckpointCatalog`] plus every slot vector to `snapshot.bin`, then
//! truncates the WAL; [`Database::open`](crate::Database::open) calls
//! [`open`], which reads that file back. The file format and its publish
//! protocol live in [`checkpoint`].
//!
//! A directory written by the removed paged backend (`pages.meta` +
//! `pages.bin`) is refused, not read.

pub mod checkpoint;

use crate::error::{DbError, Result};
use crate::table::TableSchema;
use checkpoint::Snapshot;
use std::path::Path;

/// The commit point of the removed paged backend.
const PAGES_META: &str = "pages.meta";

/// Which storage backend a repository asked for. Every durable database
/// checkpoints to `snapshot.bin`, so the choice has no effect. It is kept
/// only because the end-to-end benchmark (`benchmark/`) still names both
/// variants; ROADMAP item 2(b)'s benchmark change deletes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The one backend.
    #[default]
    Memory,
    /// Same as [`BackendKind::Memory`].
    Paged,
}

/// Buffer-pool counters. There is no buffer pool, so every counter reads
/// 0, as they always did on the memory workloads. Kept only because the
/// end-to-end benchmark still reads them; ROADMAP item 2(b)'s benchmark
/// change deletes them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Always 0.
    pub hits: u64,
    /// Always 0.
    pub misses: u64,
    /// Always 0.
    pub evictions: u64,
}

/// What [`Database::storage_metrics`](crate::Database::storage_metrics)
/// returns: all zero, kept only for the end-to-end benchmark (see
/// [`PoolStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageMetrics {
    /// Always zero.
    pub pool: PoolStats,
}

/// One table's schema entry in a [`CheckpointCatalog`].
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogTable {
    /// Lower-cased catalog key.
    pub key: String,
    /// Name as created, and the columns in order.
    pub schema: TableSchema,
    /// Indexed column indices, ascending.
    pub indexed: Vec<u32>,
}

/// What a checkpoint remembers besides the rows: the generation, the id
/// counter, and the catalog to rebuild tables and triggers from at the
/// next open.
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

/// Open the storage of the durable database in `dir`: its checkpoint,
/// if it has one.
///
/// `wal_generation` is the generation in the directory's WAL header, if
/// it has one. A WAL newer than the checkpoint extends a checkpoint this
/// directory no longer holds, and a directory holding `pages.meta` keeps
/// its rows in the removed paged format: both are refused here, before
/// any file is created or written.
pub fn open(dir: &Path, wal_generation: Option<u64>) -> Result<Option<Snapshot>> {
    if dir.join(PAGES_META).exists() {
        return Err(DbError::Storage(format!(
            "{} holds {PAGES_META}, a store in the paged format, which was removed: \
             export the document with an older build (`.show`) and reload it",
            dir.display()
        )));
    }
    let snapshot = checkpoint::read_snapshot(dir)?;
    let generation = snapshot
        .as_ref()
        .map_or(0, |(catalog, _)| catalog.generation);
    if let Some(wal) = wal_generation.filter(|&wal| wal > generation) {
        return Err(DbError::Storage(format!(
            "WAL generation {wal} is newer than the checkpoint's ({generation}): \
             the checkpoint it extends is missing from {}",
            dir.display()
        )));
    }
    Ok(snapshot)
}
