//! Multi-version concurrency control: epoch-stamped snapshot visibility.
//!
//! The paper's experiments run one JDBC client against DB2; the ROADMAP
//! north-star serves many. This module gives the engine the read side of
//! that story: every committed transaction advances a global *epoch*, and
//! a reader that pins a snapshot epoch `S` reconstructs, at any later
//! time, exactly the state that was committed when `S` was current.
//!
//! There is one before-image per mutated row: the transaction's undo
//! record (`crate::txn::UndoRecord`). A reader rolls a copy of a table
//! back through the open transaction's row records, newest first, and
//! then through the records of every commit after `S`. Those a commit
//! leaves behind only while a registered snapshot predates it: the
//! commit *moves* its row records into the touched tables' history,
//! stamped with its epoch. With no snapshot registered the records are
//! dropped as rollback no longer needs them, and a commit does no
//! per-table work. Retention is bounded by the oldest registered
//! snapshot (records it no longer predates are dropped at commit — the
//! version GC), and a rolled-back write never leaves a record behind.
//!
//! Writers are unaffected: they serialize through the existing
//! transaction/WAL path, always see the newest state, and copy nothing
//! for readers. This is snapshot isolation for readers, single-writer
//! serialization for updates — the concurrency model DESIGN.md §11
//! documents.

use crate::cells::Counter;
use crate::engine::Database;
use crate::obs::Histogram;
use crate::txn::UndoRecord;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// MVCC bookkeeping owned by the [`Database`].
#[derive(Debug, Default)]
pub(crate) struct MvccState {
    /// Epoch of the most recently committed transaction; commit
    /// publishes by advancing it.
    committed: AtomicU64,
    /// Whether some table may still hold retained records, so a commit
    /// has version GC to do.
    retaining: bool,
    /// Active snapshot epochs → reference count. Keyed in a `BTreeMap`
    /// so the GC horizon (the oldest active snapshot) is the first key.
    snapshots: Mutex<BTreeMap<u64, usize>>,
    /// Queries answered against a pinned snapshot (`snapshot_reads`).
    pub(crate) snapshot_reads: Counter,
    /// Sessions currently open against this database (gauge).
    pub(crate) active_sessions: Counter,
    /// Waits for the writer-admission token, in microseconds.
    pub(crate) write_lock_wait_us: Mutex<Histogram>,
}

impl MvccState {
    pub fn committed(&self) -> u64 {
        self.committed.load(Ordering::Acquire)
    }

    /// Publish a commit: it becomes visible to snapshots taken from now
    /// on. Returns the commit's epoch.
    pub fn publish_commit(&self) -> u64 {
        self.committed.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Oldest epoch any registered snapshot still reads at; `committed`
    /// when none is registered.
    pub fn gc_horizon(&self) -> u64 {
        let snaps = self.snapshots.lock().unwrap();
        snaps
            .keys()
            .next()
            .copied()
            .unwrap_or_else(|| self.committed())
            .min(self.committed())
    }
}

impl Database {
    /// Epoch of the most recently committed transaction.
    pub fn committed_epoch(&self) -> u64 {
        self.mvcc.committed()
    }

    /// Register a snapshot at the current committed epoch and return it.
    /// Every commit from now on leaves its row records behind for it, and
    /// the version GC keeps them until [`Database::end_snapshot`]
    /// releases it. [`Database::query_at`] reads at the snapshot.
    /// Snapshots are reference-counted: concurrent sessions at the same
    /// epoch share one registry slot.
    pub fn begin_snapshot(&self) -> u64 {
        let epoch = self.mvcc.committed();
        *self
            .mvcc
            .snapshots
            .lock()
            .unwrap()
            .entry(epoch)
            .or_insert(0) += 1;
        epoch
    }

    /// Release a snapshot taken with [`Database::begin_snapshot`].
    pub fn end_snapshot(&self, snapshot: u64) {
        let mut snaps = self.mvcc.snapshots.lock().unwrap();
        if let Some(n) = snaps.get_mut(&snapshot) {
            *n -= 1;
            if *n == 0 {
                snaps.remove(&snapshot);
            }
        }
    }

    /// Number of snapshots currently registered (distinct epochs may
    /// be shared; this counts registrations).
    pub fn active_snapshots(&self) -> usize {
        self.mvcc.snapshots.lock().unwrap().values().sum()
    }

    /// Row records retained for snapshots across all tables
    /// (`snapshot_versions_retained`).
    pub fn snapshot_versions_retained(&self) -> u64 {
        self.tables
            .values()
            .map(|t| t.versions_retained() as u64)
            .sum()
    }

    /// Publish a commit and hand its before-images to the snapshots
    /// that predate it. Called by the commit paths after the WAL flush
    /// succeeds and before the undo log is cleared. First the records no
    /// registered snapshot still predates are garbage-collected (skipped
    /// while no table retains any — every commit of a database no
    /// reader ever pinned). Then, when a registered snapshot is older
    /// than the new epoch, the log's row records move into the touched
    /// tables' history under that epoch; otherwise the caller drops them
    /// with the log.
    pub(crate) fn mvcc_commit(&mut self) {
        let epoch = self.mvcc.publish_commit();
        let horizon = self.mvcc.gc_horizon();
        if self.mvcc.retaining {
            let mut any = false;
            for t in self.tables.values_mut() {
                t.gc_versions(horizon);
                any |= t.versions_retained() > 0;
            }
            self.mvcc.retaining = any;
        }
        if horizon < epoch {
            let mut moved: Vec<UndoRecord> = Vec::new();
            for rec in std::mem::take(&mut self.txn.log) {
                match rec {
                    // The records before a table's creation belong to an
                    // earlier table of the same name.
                    UndoRecord::CreatedTable { name, .. } => {
                        moved.retain(|r| r.row_table() != Some(name.as_str()))
                    }
                    rec if rec.row_table().is_some() => moved.push(rec.without_after_image()),
                    _ => {}
                }
            }
            for rec in moved {
                let key = rec.row_table().expect("row record");
                if let Some(t) = self.tables.get_mut(key) {
                    t.retain_version(epoch, rec);
                    self.mvcc.retaining = true;
                }
            }
        }
    }

    /// Record a write-lock wait (microseconds) in the
    /// `write_lock_wait_us` histogram. Used by the session layer's
    /// writer-admission token.
    pub fn record_write_lock_wait(&self, micros: u64) {
        // The histogram buckets are nanosecond-based powers of two; the
        // session layer reports microseconds, so scale on the way in and
        // back out in the metrics rendering.
        self.mvcc
            .write_lock_wait_us
            .lock()
            .unwrap()
            .record(micros.saturating_mul(1000));
    }

    /// Bump/drop the `active_sessions` gauge (session layer lifecycle).
    pub(crate) fn session_opened(&self) {
        self.mvcc.active_sessions.add(1);
    }

    pub(crate) fn session_closed(&self) {
        // One atomic step: sessions dropped on several threads at once
        // run this under a shared guard.
        self.mvcc.active_sessions.sub_saturating(1);
    }
}

#[cfg(test)]
mod tests {
    use crate::Database;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn database_is_send_sync() {
        assert_send_sync::<Database>();
        assert_send_sync::<crate::PreparedStmt>();
    }

    #[test]
    fn snapshot_registry_refcounts() {
        let db = Database::new();
        let s1 = db.begin_snapshot();
        let s2 = db.begin_snapshot();
        assert_eq!(s1, s2);
        assert_eq!(db.active_snapshots(), 2);
        db.end_snapshot(s1);
        assert_eq!(db.active_snapshots(), 1);
        db.end_snapshot(s2);
        assert_eq!(db.active_snapshots(), 0);
    }
}
