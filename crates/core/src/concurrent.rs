//! Concurrent repository facade: many sessions, one shredded store.
//!
//! The paper's experiments drive a single JDBC client; a real middleware
//! deployment multiplexes many. [`SharedRepository`] wraps one
//! [`XmlRepository`] for that setting, with the same concurrency model as
//! the engine's session layer ([`xmlup_rdb::SharedDatabase`]):
//!
//! * **Translated updates serialize.** [`SharedRepository::update`] (and
//!   any mutation through [`SharedRepository::with_write`]) first takes a
//!   writer-admission token — one XQuery update statement owns the
//!   engine's transaction slot at a time, and its whole translation
//!   (bind-first queries, per-level statements, trigger cascades, ASR
//!   maintenance) commits or rolls back as one unit exactly as in the
//!   single-session facade.
//! * **Readers pin snapshots.** [`SharedRepository::snapshot`] registers
//!   an MVCC epoch and answers every query on it against that committed
//!   state, releasing the shared lock *between* statements — so a
//!   long-running analytical reader never blocks updates, and an update
//!   committing mid-read can never tear the reader's view.
//!
//! Snapshots need no setup on the engine: a commit keeps its row undo
//! records only while a live [`RepoSnapshot`] predates it, so the
//! version GC stays bounded by the oldest one.
//!
//! A writer that panics poisons the repository exactly as it does the
//! engine session layer (policy in [`xmlup_rdb::session`]): the writer
//! token is free again, [`SharedRepository::update`] / `query` and
//! [`RepoSnapshot::query`] return [`DbError::poisoned`], no `Drop`
//! panics, and only `with_read` / `with_write` re-raise the panic.

use crate::error::Result;
use crate::repository::XmlRepository;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use xmlup_rdb::{DbError, ResultSet, WriterGate, WriterTicket};

const POISONED: &str = "repository poisoned by a panicked writer";

/// Shared state behind every handle.
struct Inner {
    repo: RwLock<XmlRepository>,
    /// Held while an update owns the engine's transaction slot. Taken
    /// before the `RwLock` write guard, released after it — the same
    /// lock order as the engine session layer.
    gate: WriterGate,
}

impl Inner {
    fn read(&self) -> Result<RwLockReadGuard<'_, XmlRepository>> {
        Ok(self.repo.read().map_err(|_| DbError::poisoned())?)
    }

    fn write(&self) -> Result<RwLockWriteGuard<'_, XmlRepository>> {
        Ok(self.repo.write().map_err(|_| DbError::poisoned())?)
    }

    /// Read guard for snapshot registration and the wait histogram,
    /// which only touch the engine's own interior locks and so are safe
    /// through a poisoned guard (and must not panic inside a `Drop`).
    fn read_for_cleanup(&self) -> RwLockReadGuard<'_, XmlRepository> {
        self.repo.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn admit_writer(&self) -> WriterTicket {
        let (ticket, waited) = self.gate.acquire();
        self.read_for_cleanup()
            .db
            .record_write_lock_wait(waited.as_micros() as u64);
        ticket
    }
}

/// A thread-safe, cheaply clonable handle to one [`XmlRepository`].
#[derive(Clone)]
pub struct SharedRepository {
    inner: Arc<Inner>,
}

impl SharedRepository {
    /// Wrap `repo` for concurrent use.
    pub fn new(repo: XmlRepository) -> Self {
        SharedRepository {
            inner: Arc::new(Inner {
                repo: RwLock::new(repo),
                gate: WriterGate::default(),
            }),
        }
    }

    /// Parse, translate, and execute one XQuery update statement,
    /// serialized behind the writer token. Returns affected root objects.
    pub fn update(&self, statement: &str) -> Result<usize> {
        let _ticket = self.inner.admit_writer();
        let mut repo = self.inner.write()?;
        repo.execute_xquery(statement)
    }

    /// Run a closure against the exclusive repository, serialized behind
    /// the writer token. The closure gets the full single-session
    /// [`XmlRepository`] API ([`XmlRepository::load`], the direct
    /// strategy entry points, [`XmlRepository::in_transaction`]) but must
    /// leave no transaction open on return. Panics if an earlier writer
    /// panicked; a panic in `f` poisons the repository but frees the
    /// token.
    pub fn with_write<R>(&self, f: impl FnOnce(&mut XmlRepository) -> R) -> R {
        let _ticket = self.inner.admit_writer();
        let mut repo = self.inner.repo.write().expect(POISONED);
        f(&mut repo)
    }

    /// Run a closure against a shared read guard. The closure sees live
    /// committed state (every write path holds the exclusive guard for
    /// its whole transaction, so the heap is committed whenever this
    /// guard is obtainable); use [`SharedRepository::snapshot`] for a
    /// view that stays consistent *across* statements. Panics if an
    /// earlier writer panicked.
    pub fn with_read<R>(&self, f: impl FnOnce(&XmlRepository) -> R) -> R {
        f(&self.inner.repo.read().expect(POISONED))
    }

    /// One-shot snapshot-consistent SQL read.
    pub fn query(&self, sql: &str) -> Result<ResultSet> {
        let snap = self.snapshot();
        snap.query(sql)
    }

    /// Pin a snapshot of the current committed state. Every query on the
    /// returned handle answers against that epoch, no matter how many
    /// updates commit in between; dropping the handle releases it so the
    /// version GC can advance.
    pub fn snapshot(&self) -> RepoSnapshot {
        let epoch = self.inner.read_for_cleanup().db.begin_snapshot();
        RepoSnapshot {
            inner: self.inner.clone(),
            epoch,
        }
    }

    /// Engine metrics in the Prometheus text format.
    pub fn metrics_text(&self) -> String {
        self.with_read(|r| r.metrics_text())
    }
}

/// A pinned, transaction-consistent read view of a [`SharedRepository`].
///
/// Holds no lock between statements — only the MVCC epoch registration —
/// so concurrent updates proceed freely and this view never moves.
pub struct RepoSnapshot {
    inner: Arc<Inner>,
    epoch: u64,
}

impl RepoSnapshot {
    /// The pinned epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Evaluate a SQL query against the snapshot.
    pub fn query(&self, sql: &str) -> Result<ResultSet> {
        let repo = self.inner.read()?;
        Ok(repo.db.query_at(sql, Some(self.epoch))?)
    }

    /// Total live tuples across the mapping's tables as of the snapshot
    /// (the snapshot-consistent form of [`XmlRepository::tuple_count`]).
    pub fn tuple_count(&self) -> Result<i64> {
        let repo = self.inner.read()?;
        let mut total = 0;
        for rel in &repo.mapping.relations {
            let rs = repo.db.query_at(
                &format!("SELECT COUNT(*) FROM {}", rel.table),
                Some(self.epoch),
            )?;
            total += rs.rows[0][0].as_int().unwrap_or(0);
        }
        Ok(total)
    }
}

impl Drop for RepoSnapshot {
    fn drop(&mut self) {
        self.inner.read_for_cleanup().db.end_snapshot(self.epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RepoConfig, XmlRepository};
    use xmlup_xml::{dtd::Dtd, samples};

    fn shared() -> SharedRepository {
        let dtd = Dtd::parse(samples::CUSTOMER_DTD).unwrap();
        let doc = xmlup_xml::parse(samples::CUSTOMER_XML).unwrap().doc;
        let mut repo = XmlRepository::new(&dtd, "CustDB", RepoConfig::default()).unwrap();
        repo.load(&doc).unwrap();
        SharedRepository::new(repo)
    }

    #[test]
    fn snapshot_pins_across_a_translated_update() {
        let s = shared();
        let snap = s.snapshot();
        let before = snap.tuple_count().unwrap();

        // A translated XQuery delete commits while the snapshot is live.
        let n = s
            .update(
                r#"FOR $d IN document("custdb.xml")/CustDB,
                       $c IN $d/Customer[Name="John"]
                   UPDATE $d { DELETE $c }"#,
            )
            .unwrap();
        assert!(n > 0);

        // The snapshot still sees the pre-delete document; the live
        // store shrank.
        assert_eq!(snap.tuple_count().unwrap(), before);
        let live = s.with_read(|r| r.tuple_count()) as i64;
        assert!(live < before);

        // Releasing the snapshot deregisters it; the next commit's GC
        // horizon is then unbounded by this reader.
        drop(snap);
        assert_eq!(s.with_read(|r| r.db.active_snapshots()), 0);
    }

    #[test]
    fn updates_from_clones_serialize() {
        let s = shared();
        let before = s.with_read(|r| r.tuple_count());
        let a = s.clone();
        let t = std::thread::spawn(move || {
            a.update(
                r#"FOR $d IN document("custdb.xml")/CustDB,
                       $c IN $d/Customer[Name="John"]
                   UPDATE $d { DELETE $c }"#,
            )
            .unwrap()
        });
        let n = t.join().unwrap();
        assert!(n > 0);
        assert!(s.with_read(|r| r.tuple_count()) < before);
        // The wait histogram saw both writers pass through admission.
        assert!(s.metrics_text().contains("rdb_write_lock_wait_count"));
    }

    #[test]
    fn panicked_writer_frees_the_token_and_later_calls_get_an_error() {
        let s = shared();
        let early = s.snapshot();
        let w = s.clone();
        let writer = std::thread::spawn(move || w.with_write(|_| panic!("writer bug")));
        assert!(writer.join().is_err());

        // A second writer must come back — with an error — rather than
        // wait for a token its panicked holder never released.
        let (tx, rx) = std::sync::mpsc::channel();
        let w = s.clone();
        let second = std::thread::spawn(move || {
            let _ = tx.send(w.update(
                r#"FOR $d IN document("custdb.xml")/CustDB,
                       $c IN $d/Customer[Name="John"]
                   UPDATE $d { DELETE $c }"#,
            ));
        });
        let updated = rx
            .recv_timeout(std::time::Duration::from_secs(3))
            .expect("blocked behind a leaked writer token");
        second.join().unwrap();
        for err in [
            updated.map(|_| ()).unwrap_err(),
            s.query("SELECT COUNT(*) FROM Customer").unwrap_err(),
            early.query("SELECT COUNT(*) FROM Customer").unwrap_err(),
            early.tuple_count().unwrap_err(),
        ] {
            assert!(err.to_string().contains("poisoned"), "{err}");
        }
        // Releasing a snapshot is a `Drop`: it must not panic either.
        drop(early);
    }
}
