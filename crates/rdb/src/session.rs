//! Shared-database facade and per-connection sessions.
//!
//! [`SharedDatabase`] wraps one [`Database`] for concurrent use: readers
//! run simultaneously under a shared `RwLock` guard and always read
//! through a pinned MVCC snapshot (see [`crate::mvcc`]), so a reader can
//! never observe a half-committed transaction — one that runs between
//! another session's write statements rolls its copy of a table back
//! through that session's open undo log. Snapshots need no setup on the
//! wrapped engine. Writers serialize through a writer-admission token
//! (one engine-level transaction at a time, measured into the
//! `write_lock_wait_us` histogram) and then take the exclusive lock per
//! statement.
//!
//! [`Session`] is the unit of connection state: autocommit by default,
//! `BEGIN` opens either a read transaction (a snapshot held across
//! statements) that lazily upgrades to a write transaction on the first
//! mutating statement, acquiring the writer token for the rest of the
//! transaction. `COMMIT`/`ROLLBACK` release it. Dropping a session rolls
//! back anything uncommitted — a dropped connection can never leave the
//! engine's single transaction slot occupied.
//!
//! Lock order is fixed everywhere: writer token first, `RwLock` guard
//! second. Readers never touch the token, so reader admission is
//! conflict-free.
//!
//! **Poisoned-lock policy.** A writer that panics under the exclusive
//! guard may have left the engine half-updated: the `RwLock` stays
//! poisoned and the database is dead until reopened. Nothing else goes
//! down with it — the [`WriterTicket`] is released by the unwind, every
//! `Result`-returning entry point reports [`DbError::poisoned`], and no
//! `Drop` here panics. Only [`SharedDatabase::with_read`] and
//! [`SharedDatabase::with_write`], which return a bare `R`, re-raise it.

use crate::engine::{Database, ExecResult, ResultSet};
use crate::error::{DbError, Result};
use crate::sysview::{SessionRegistry, SessionState};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// Writer-admission gate: at most one [`WriterTicket`] is out at a time.
/// The session layer here and `xmlup_core::SharedRepository` both guard
/// the engine's single transaction slot with one.
#[derive(Clone, Default)]
pub struct WriterGate {
    /// `true` while a ticket is out. No caller code runs under this
    /// mutex, so even a poisoned guard holds a valid flag.
    inner: Arc<(Mutex<bool>, Condvar)>,
}

impl WriterGate {
    /// Block until the gate is free and take it. Returns the ticket and
    /// how long admission took (for the `write_lock_wait_us` histogram).
    pub fn acquire(&self) -> (WriterTicket, Duration) {
        let start = Instant::now();
        let (held, cv) = &*self.inner;
        let mut held = held.lock().unwrap_or_else(PoisonError::into_inner);
        while *held {
            held = cv.wait(held).unwrap_or_else(PoisonError::into_inner);
        }
        *held = true;
        drop(held);
        (WriterTicket { gate: self.clone() }, start.elapsed())
    }
}

/// Ownership of the write side; dropping it (normally or while a
/// panicking writer unwinds) reopens the gate.
pub struct WriterTicket {
    gate: WriterGate,
}

impl Drop for WriterTicket {
    fn drop(&mut self) {
        let (held, cv) = &*self.gate.inner;
        *held.lock().unwrap_or_else(PoisonError::into_inner) = false;
        cv.notify_one();
    }
}

const POISONED: &str = "database poisoned by a panicked writer";

/// Shared state behind every handle and session.
struct Shared {
    db: RwLock<Database>,
    /// Guards the engine's single transaction slot: held by an explicit
    /// write transaction or an autocommit write statement.
    gate: WriterGate,
    /// Live-session registry behind `rdb_sessions`, shared with the
    /// engine (which materializes the view). Its lock is never held
    /// while the writer token or the `RwLock` is acquired.
    registry: Arc<SessionRegistry>,
}

impl Shared {
    fn read(&self) -> Result<RwLockReadGuard<'_, Database>> {
        self.db.read().map_err(|_| DbError::poisoned())
    }

    fn write(&self) -> Result<RwLockWriteGuard<'_, Database>> {
        self.db.write().map_err(|_| DbError::poisoned())
    }

    /// Read guard for `Drop` impls and counters: snapshot registration
    /// and gauges sit behind the engine's own interior locks, so they
    /// are safe to reach through a poisoned guard.
    fn read_for_cleanup(&self) -> RwLockReadGuard<'_, Database> {
        self.db.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run `f` under the writer token and the exclusive guard (guard
    /// released first, token second — the module's lock order).
    fn write_with<R>(&self, session: u64, f: impl FnOnce(&mut Database) -> Result<R>) -> Result<R> {
        let _ticket = self.acquire_writer(session);
        let mut db = self.write()?;
        f(&mut db)
    }

    /// Acquire the writer token, recording the wait in the
    /// `write_lock_wait_us` histogram and — when acquiring on behalf of
    /// a session (`session != 0`) — attributing it to that session's
    /// cumulative wait time in `rdb_sessions`.
    fn acquire_writer(&self, session: u64) -> WriterTicket {
        if session != 0 {
            self.registry
                .set_state(session, SessionState::WaitingWriteLock);
        }
        let (ticket, waited) = self.gate.acquire();
        if session != 0 {
            self.registry.add_wait(session, waited.as_nanos() as u64);
            self.registry.set_state(session, SessionState::Executing);
        }
        self.read_for_cleanup()
            .record_write_lock_wait(waited.as_micros() as u64);
        ticket
    }
}

/// A concurrency facade over one [`Database`]: cheap to clone, safe to
/// share across threads.
#[derive(Clone)]
pub struct SharedDatabase {
    inner: Arc<Shared>,
}

impl SharedDatabase {
    /// Wrap `db` for shared use.
    pub fn new(db: Database) -> Self {
        let registry = db.session_registry();
        SharedDatabase {
            inner: Arc::new(Shared {
                db: RwLock::new(db),
                gate: WriterGate::default(),
                registry,
            }),
        }
    }

    /// Open a new session (one per connection / thread of control). The
    /// session appears in `rdb_sessions` until dropped.
    pub fn session(&self) -> Session {
        self.inner.read_for_cleanup().session_opened();
        let id = self.inner.registry.register();
        Session {
            shared: self.inner.clone(),
            state: SessionTxn::Idle,
            id,
        }
    }

    /// Run a closure against a shared read guard. The closure sees the
    /// live committed state; use a [`Session`] for snapshot-consistent
    /// multi-statement reads. Panics if an earlier writer panicked.
    pub fn with_read<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        f(&self.inner.db.read().expect(POISONED))
    }

    /// Run a closure against the exclusive write guard, serialized
    /// behind the writer-admission token. The closure may use the full
    /// `&mut` engine API (explicit transactions included) but must leave
    /// no transaction open on return. Panics if an earlier writer
    /// panicked; a panic in `f` poisons the database but frees the token.
    pub fn with_write<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        let _ticket = self.inner.acquire_writer(0);
        let mut db = self.inner.db.write().expect(POISONED);
        f(&mut db)
    }

    /// One-shot snapshot read (autocommit SELECT).
    pub fn query(&self, sql: &str) -> Result<ResultSet> {
        let db = self.inner.read()?;
        let snap = db.begin_snapshot();
        let result = db.query_at(sql, Some(snap));
        db.end_snapshot(snap);
        result
    }

    /// One-shot write statement (autocommit), serialized behind the
    /// writer token.
    pub fn execute(&self, sql: &str) -> Result<ExecResult> {
        self.inner.write_with(0, |db| db.execute(sql))
    }

    /// Metrics text of the underlying database.
    pub fn metrics_text(&self) -> String {
        self.with_read(|db| db.metrics_text())
    }
}

/// Per-session transaction state.
enum SessionTxn {
    /// Autocommit: reads take a fresh snapshot per statement, writes
    /// take the token per statement.
    Idle,
    /// `BEGIN` was issued and no write has happened yet: all reads pin
    /// this snapshot, so the transaction sees one consistent epoch.
    Read { snapshot: u64 },
    /// The transaction wrote: the session owns the writer token and the
    /// engine's explicit-transaction slot until `COMMIT`/`ROLLBACK`.
    Write { _ticket: WriterTicket },
}

/// What a statement produced, shaped for a wire protocol.
#[derive(Debug)]
pub enum SqlOutcome {
    /// A result set (SELECT / EXPLAIN).
    Rows(ResultSet),
    /// Rows affected by DML.
    Affected(usize),
    /// Statement executed with nothing to report (DDL, txn control).
    Done,
}

/// One connection's view of a [`SharedDatabase`]: autocommit statements
/// plus `BEGIN`/`COMMIT`/`ROLLBACK` transaction scoping.
pub struct Session {
    shared: Arc<Shared>,
    state: SessionTxn,
    /// Registry-assigned id; the `rdb_sessions.id` column.
    id: u64,
}

impl Session {
    /// Execute one SQL statement in this session. The session's
    /// `rdb_sessions` row tracks the statement text and the state
    /// machine (`parsing` → `executing` / `waiting_write_lock` /
    /// `committing` → `idle`) while it runs.
    pub fn execute(&mut self, sql: &str) -> Result<SqlOutcome> {
        self.shared.registry.statement_begin(self.id, sql);
        let result = match classify(sql) {
            StmtClass::Begin => self.begin(),
            StmtClass::Commit => self.commit(),
            StmtClass::Rollback => self.rollback(),
            StmtClass::Read => self.run_read(sql),
            StmtClass::Write => self.run_write(sql),
        };
        self.shared.registry.statement_end(self.id);
        result
    }

    /// Whether the session is inside an explicit transaction.
    pub fn in_transaction(&self) -> bool {
        !matches!(self.state, SessionTxn::Idle)
    }

    /// The session's registry id (the `rdb_sessions.id` column).
    pub fn id(&self) -> u64 {
        self.id
    }

    fn begin(&mut self) -> Result<SqlOutcome> {
        if self.in_transaction() {
            return Err(DbError::Txn(
                "already in a transaction (nested BEGIN; use SAVEPOINT)".into(),
            ));
        }
        // Snapshot acquisition at BEGIN: reads in this transaction all
        // see the epoch current right now.
        let snapshot = self.shared.read()?.begin_snapshot();
        self.shared.registry.set_snapshot(self.id, Some(snapshot));
        self.state = SessionTxn::Read { snapshot };
        Ok(SqlOutcome::Done)
    }

    fn commit(&mut self) -> Result<SqlOutcome> {
        match std::mem::replace(&mut self.state, SessionTxn::Idle) {
            SessionTxn::Idle => Err(DbError::Txn("COMMIT outside a transaction".into())),
            SessionTxn::Read { snapshot } => {
                // A read-only transaction commits trivially: release the
                // snapshot so version GC can advance.
                self.shared.read_for_cleanup().end_snapshot(snapshot);
                self.shared.registry.set_snapshot(self.id, None);
                Ok(SqlOutcome::Done)
            }
            SessionTxn::Write { _ticket } => {
                self.shared
                    .registry
                    .set_state(self.id, SessionState::Committing);
                self.shared.write()?.commit()?;
                Ok(SqlOutcome::Done)
            }
        }
    }

    fn rollback(&mut self) -> Result<SqlOutcome> {
        match std::mem::replace(&mut self.state, SessionTxn::Idle) {
            SessionTxn::Idle => Err(DbError::Txn("ROLLBACK outside a transaction".into())),
            SessionTxn::Read { snapshot } => {
                self.shared.read_for_cleanup().end_snapshot(snapshot);
                self.shared.registry.set_snapshot(self.id, None);
                Ok(SqlOutcome::Done)
            }
            SessionTxn::Write { _ticket } => {
                self.shared.write()?.rollback()?;
                Ok(SqlOutcome::Done)
            }
        }
    }

    fn run_read(&mut self, sql: &str) -> Result<SqlOutcome> {
        self.shared
            .registry
            .set_state(self.id, SessionState::Executing);
        let db = self.shared.read()?;
        match self.state {
            // Inside a write transaction reads must see the session's
            // own uncommitted writes, so they read the live heap. No
            // other writer can be active (the session holds the token),
            // and concurrent readers are snapshot-pinned, so nobody else
            // observes those uncommitted rows.
            SessionTxn::Write { .. } => db.query(sql).map(SqlOutcome::Rows),
            SessionTxn::Read { snapshot } => db.query_at(sql, Some(snapshot)).map(SqlOutcome::Rows),
            SessionTxn::Idle => {
                let snap = db.begin_snapshot();
                // Publish the per-statement snapshot so `rdb_sessions`
                // shows the epoch a concurrent autocommit read uses.
                self.shared.registry.set_snapshot(self.id, Some(snap));
                let result = db.query_at(sql, Some(snap));
                db.end_snapshot(snap);
                self.shared.registry.set_snapshot(self.id, None);
                result.map(SqlOutcome::Rows)
            }
        }
    }

    fn run_write(&mut self, sql: &str) -> Result<SqlOutcome> {
        match self.state {
            SessionTxn::Idle => {
                // Autocommit write: token for the duration of the
                // statement.
                let result = self.shared.write_with(self.id, |db| db.execute(sql));
                result.map(outcome)
            }
            SessionTxn::Read { snapshot } => {
                // First write upgrades the transaction: drop the read
                // snapshot, claim the writer token and the engine's
                // transaction slot, then run the statement inside it.
                let ticket = self.shared.acquire_writer(self.id);
                {
                    let mut db = self.shared.write()?;
                    db.end_snapshot(snapshot);
                    self.shared.registry.set_snapshot(self.id, None);
                    if let Err(e) = db.begin() {
                        self.state = SessionTxn::Idle;
                        return Err(e);
                    }
                }
                self.state = SessionTxn::Write { _ticket: ticket };
                self.run_write_stmt(sql)
            }
            SessionTxn::Write { .. } => self.run_write_stmt(sql),
        }
    }

    /// A write statement inside the session's open write transaction. On
    /// error the engine has already rolled the statement back; the
    /// transaction stays open (the client decides).
    fn run_write_stmt(&mut self, sql: &str) -> Result<SqlOutcome> {
        self.shared
            .registry
            .set_state(self.id, SessionState::Executing);
        self.shared.write()?.execute(sql).map(outcome)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        match std::mem::replace(&mut self.state, SessionTxn::Idle) {
            SessionTxn::Idle => {}
            SessionTxn::Read { snapshot } => {
                self.shared.read_for_cleanup().end_snapshot(snapshot);
            }
            SessionTxn::Write { _ticket } => {
                // A dropped connection mid-transaction rolls back, so
                // the engine's transaction slot is free again. Behind a
                // poisoned lock there is nothing to keep clean (and a
                // rollback over half-updated state could panic inside
                // this `Drop`).
                if let Ok(mut db) = self.shared.db.write() {
                    let _ = db.rollback();
                }
            }
        }
        self.shared.registry.unregister(self.id);
        self.shared.read_for_cleanup().session_closed();
    }
}

fn outcome(r: ExecResult) -> SqlOutcome {
    match r {
        ExecResult::Rows(rs) => SqlOutcome::Rows(rs),
        ExecResult::Affected(n) => SqlOutcome::Affected(n),
        _ => SqlOutcome::Done,
    }
}

enum StmtClass {
    Begin,
    Commit,
    Rollback,
    Read,
    Write,
}

/// Route a statement by its leading keyword(s). `SELECT` and plain
/// `EXPLAIN` are reads; `EXPLAIN ANALYZE` executes its inner statement
/// (which may be DML) and `ROLLBACK TO <savepoint>` targets the open
/// engine transaction, so both take the write path.
fn classify(sql: &str) -> StmtClass {
    let mut words = sql
        .split([' ', '\t', '\r', '\n', ';'])
        .filter(|w| !w.is_empty());
    let first = words.next().unwrap_or("").to_ascii_uppercase();
    let second = words.next().unwrap_or("").to_ascii_uppercase();
    match first.as_str() {
        "SELECT" => StmtClass::Read,
        "EXPLAIN" if second != "ANALYZE" => StmtClass::Read,
        "BEGIN" => StmtClass::Begin,
        "COMMIT" => StmtClass::Commit,
        "ROLLBACK" if second != "TO" => StmtClass::Rollback,
        _ => StmtClass::Write,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared() -> SharedDatabase {
        let mut db = Database::new();
        db.run_script(
            "CREATE TABLE t (id INTEGER, v VARCHAR(10));
             CREATE INDEX t_id ON t (id);
             INSERT INTO t VALUES (1, 'a'), (2, 'b');",
        )
        .unwrap();
        SharedDatabase::new(db)
    }

    #[test]
    fn autocommit_read_and_write() {
        let s = shared();
        let mut sess = s.session();
        match sess.execute("SELECT COUNT(*) FROM t").unwrap() {
            SqlOutcome::Rows(rs) => assert_eq!(rs.rows[0][0], crate::Value::Int(2)),
            other => panic!("expected rows: {other:?}"),
        }
        match sess.execute("INSERT INTO t VALUES (3, 'c')").unwrap() {
            SqlOutcome::Affected(1) => {}
            other => panic!("expected 1 affected: {other:?}"),
        }
    }

    #[test]
    fn read_txn_pins_its_snapshot() {
        let s = shared();
        let mut reader = s.session();
        reader.execute("BEGIN").unwrap();
        let before = match reader.execute("SELECT COUNT(*) FROM t").unwrap() {
            SqlOutcome::Rows(rs) => rs.rows[0][0].clone(),
            other => panic!("{other:?}"),
        };
        // A concurrent session commits a write.
        let mut writer = s.session();
        writer.execute("INSERT INTO t VALUES (3, 'c')").unwrap();
        // The reader still sees its BEGIN-time state.
        let after = match reader.execute("SELECT COUNT(*) FROM t").unwrap() {
            SqlOutcome::Rows(rs) => rs.rows[0][0].clone(),
            other => panic!("{other:?}"),
        };
        assert_eq!(before, after);
        reader.execute("COMMIT").unwrap();
        // A fresh statement sees the new row.
        match reader.execute("SELECT COUNT(*) FROM t").unwrap() {
            SqlOutcome::Rows(rs) => assert_eq!(rs.rows[0][0], crate::Value::Int(3)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn write_txn_rolls_back_on_drop() {
        let s = shared();
        {
            let mut sess = s.session();
            sess.execute("BEGIN").unwrap();
            sess.execute("DELETE FROM t").unwrap();
            // dropped here without COMMIT
        }
        let mut sess = s.session();
        match sess.execute("SELECT COUNT(*) FROM t").unwrap() {
            SqlOutcome::Rows(rs) => assert_eq!(rs.rows[0][0], crate::Value::Int(2)),
            other => panic!("{other:?}"),
        }
        // The writer token was released: a new write transaction works.
        sess.execute("BEGIN").unwrap();
        sess.execute("INSERT INTO t VALUES (9, 'z')").unwrap();
        sess.execute("COMMIT").unwrap();
    }

    #[test]
    fn session_gauge_tracks_open_sessions() {
        let s = shared();
        let a = s.session();
        let b = s.session();
        assert!(s
            .with_read(|db| db.metrics_text())
            .contains("rdb_active_sessions 2"));
        drop(a);
        drop(b);
        assert!(s.metrics_text().contains("rdb_active_sessions 0"));
    }
}
