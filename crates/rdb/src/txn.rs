//! Transaction support: the transaction log, savepoints, and
//! deterministic fault injection.
//!
//! The paper (Sections 3 and 6) assumes every translated `UPDATE { … }`
//! block executes as one transaction against DB2 — a mid-update error
//! must leave the shredded relations exactly as they were. This module
//! supplies the engine-side machinery: the transaction log
//! ([`UndoRecord`]), transaction/savepoint bookkeeping (`TxnState`) with
//! the `Database` methods that open, commit and roll back a transaction,
//! and a fault injector (`FaultState`) that lets tests and the workload
//! driver kill execution at a chosen statement or table write.
//!
//! The log is the one record of what a transaction did. Each effect is
//! one record holding its before-image and, on a durable database, its
//! after-image: rollback and `ROLLBACK TO` pop records above a mark and
//! undo them, and the commit encodes its WAL frame from the same records
//! (`UndoRecord::wal_ref`), less its frame-local tables
//! (`frame_local`). Id-counter moves are `NextId` records, logged on a
//! durable database only and skipped by undo (the counter is restored
//! from the savepoint or the transaction's start).
//!
//! Undo is *exact*: applying the log in reverse restores the database
//! byte-identically — slot vectors, the trigger list, and the id counter
//! all return to their pre-transaction state, and the indexes with them
//! (they are a pure function of the slots, see `crate::table`).
//! That invariant is what makes the property tests in
//! `tests/txn_props.rs` meaningful and is relied on by the fault
//! injection acceptance test at the workspace root.
//!
//! The row records are also the engine's only before-images for
//! snapshot reads: a reader rolls a copy of a table back through the open
//! transaction's records, and a commit that a registered snapshot
//! predates moves its records into the touched tables' history (see
//! `crate::mvcc`).

use crate::cells::Counter;
use crate::engine::{Database, StatsCells, Trigger};
use crate::error::{DbError, Result};
use crate::obs::Span;
use crate::table::Table;
use crate::value::{Row, Value};
use crate::wal::{self, WalRef};
use std::collections::HashMap;

/// One effect recorded by the engine. Records are appended in execution
/// order and undone in reverse on rollback. Each holds its before-image
/// and, on a durable database, what the WAL frame gets (`None`
/// otherwise).
#[derive(Debug, Clone)]
pub enum UndoRecord {
    /// A row was appended to `table` at slot `pos`.
    InsertedRow {
        /// Lower-cased table key.
        table: String,
        /// Slot position the row occupies.
        pos: usize,
        /// The row as it landed.
        row: Option<Row>,
    },
    /// A row was deleted: restore it at `pos`.
    DeletedRow {
        /// Lower-cased table key.
        table: String,
        /// Slot position the row occupied.
        pos: usize,
        /// The deleted row's values.
        row: Row,
    },
    /// A cell was overwritten: restore `old`.
    UpdatedCell {
        /// Lower-cased table key.
        table: String,
        /// Slot position of the updated row.
        pos: usize,
        /// Column index of the updated cell.
        column: usize,
        /// The cell's previous value.
        old: Value,
        /// The value as written.
        new: Option<Value>,
    },
    /// `CREATE TABLE` ran: drop the table again.
    CreatedTable {
        /// Lower-cased table key.
        name: String,
        /// The statement as SQL.
        sql: Option<String>,
    },
    /// `DROP TABLE` ran: restore the full table snapshot and the
    /// triggers that watched it (at their original positions in the
    /// trigger list).
    DroppedTable {
        /// Lower-cased table key.
        name: String,
        /// Snapshot of the dropped table.
        table: Box<Table>,
        /// `(position, trigger)` pairs removed with the table, ascending.
        triggers: Vec<(usize, Trigger)>,
        /// The statement as SQL.
        sql: Option<String>,
    },
    /// `CREATE INDEX` built a new index: drop it.
    CreatedIndex {
        /// Lower-cased table key.
        table: String,
        /// Indexed column.
        column: usize,
        /// The statement as SQL.
        sql: Option<String>,
    },
    /// `CREATE TRIGGER` ran: remove the trigger again.
    CreatedTrigger {
        /// Trigger name.
        name: String,
        /// Lower-cased key of the table it watches.
        table: String,
        /// The statement as SQL.
        sql: Option<String>,
    },
    /// `DROP TRIGGER` ran: restore the trigger at its original position.
    DroppedTrigger {
        /// Position in the trigger list.
        position: usize,
        /// The removed trigger.
        trigger: Box<Trigger>,
        /// The statement as SQL.
        sql: Option<String>,
    },
    /// The id counter reached `value` (durable databases only). Undo
    /// skips it: rollback restores the counter itself.
    NextId {
        /// New counter value.
        value: i64,
    },
}

impl UndoRecord {
    /// Whether undoing this record changes the catalog (tables, indexes,
    /// triggers) — if so, the rollback moves the schema epoch, mirroring
    /// the forward DDL path.
    pub fn is_ddl(&self) -> bool {
        matches!(
            self,
            UndoRecord::CreatedTable { .. }
                | UndoRecord::DroppedTable { .. }
                | UndoRecord::CreatedIndex { .. }
                | UndoRecord::CreatedTrigger { .. }
                | UndoRecord::DroppedTrigger { .. }
        )
    }

    /// The table a row record (`InsertedRow`, `DeletedRow`,
    /// `UpdatedCell`) touched; `None` for the other records.
    pub(crate) fn row_table(&self) -> Option<&str> {
        match self {
            UndoRecord::InsertedRow { table, .. }
            | UndoRecord::DeletedRow { table, .. }
            | UndoRecord::UpdatedCell { table, .. } => Some(table),
            _ => None,
        }
    }

    /// The record less its after-image, once the commit has written that
    /// to the WAL: what a table's version history keeps.
    pub(crate) fn without_after_image(mut self) -> Self {
        match &mut self {
            UndoRecord::InsertedRow { row, .. } => *row = None,
            UndoRecord::UpdatedCell { new, .. } => *new = None,
            _ => {}
        }
        self
    }

    /// The WAL record of this effect, borrowed from the record: the
    /// physical row effect at its slot, the DDL text, or the id counter.
    /// `None` for a record logged without its after-image (an in-memory
    /// database).
    pub(crate) fn wal_ref(&self) -> Option<WalRef<'_>> {
        Some(match self {
            UndoRecord::InsertedRow { table, row, .. } => WalRef::Insert(table, row.as_deref()?),
            UndoRecord::DeletedRow { table, pos, .. } => WalRef::Delete(table, *pos as u64),
            UndoRecord::UpdatedCell {
                table,
                pos,
                column,
                new,
                ..
            } => WalRef::Update(table, *pos as u64, *column as u32, new.as_ref()?),
            UndoRecord::CreatedTable { sql, .. }
            | UndoRecord::DroppedTable { sql, .. }
            | UndoRecord::CreatedIndex { sql, .. }
            | UndoRecord::CreatedTrigger { sql, .. }
            | UndoRecord::DroppedTrigger { sql, .. } => WalRef::Ddl(sql.as_deref()?),
            UndoRecord::NextId { value } => WalRef::NextId(*value),
        })
    }
}

/// The row records `log` holds for table `name`, newest first. The walk
/// stops at the record of the table's creation: anything older belongs
/// to an earlier table of the same name.
pub(crate) fn table_records<'a>(
    log: &'a [UndoRecord],
    name: &'a str,
) -> impl Iterator<Item = &'a UndoRecord> + 'a {
    log.iter()
        .rev()
        .take_while(move |r| {
            !matches!(r, UndoRecord::CreatedTable { name: n, .. } if n.eq_ignore_ascii_case(name))
        })
        .filter(move |r| r.row_table().is_some_and(|t| t.eq_ignore_ascii_case(name)))
}

/// Which of a transaction's records the commit leaves out of its frame
/// (`true` at their index): those of every *frame-local* table instance,
/// one whose `CREATE TABLE` and `DROP TABLE` both sit in `log`. That is
/// the pair itself and every row record and `CREATE INDEX` on the table
/// between them. Recovery never sees the instance, and loses nothing: it
/// ends dropped within the frame, and every other record is physical, so
/// the rest of the frame replays to the same heap slot for slot. An
/// instance that a trigger created or dropped between the pair is on is
/// kept whole.
pub(crate) fn frame_local(log: &[UndoRecord]) -> Vec<bool> {
    struct Instance {
        create: usize,
        members: Vec<usize>,
        touched: bool,
    }
    let mut left_out = vec![false; log.len()];
    let mut open: HashMap<&str, Instance> = HashMap::new();
    for (i, r) in log.iter().enumerate() {
        let (key, touches) = match r {
            UndoRecord::CreatedTable { name, .. } => {
                let inst = Instance {
                    create: i,
                    members: Vec::new(),
                    touched: false,
                };
                open.insert(name, inst);
                continue;
            }
            UndoRecord::DroppedTable { name, .. } => {
                if let Some(inst) = open.remove(name.as_str()).filter(|inst| !inst.touched) {
                    for at in inst.members.into_iter().chain([inst.create, i]) {
                        left_out[at] = true;
                    }
                }
                continue;
            }
            UndoRecord::CreatedTrigger { table, .. } => (table, true),
            UndoRecord::DroppedTrigger { trigger, .. } => (&trigger.table, true),
            UndoRecord::CreatedIndex { table, .. }
            | UndoRecord::InsertedRow { table, .. }
            | UndoRecord::DeletedRow { table, .. }
            | UndoRecord::UpdatedCell { table, .. } => (table, false),
            UndoRecord::NextId { .. } => continue,
        };
        if let Some(inst) = open.get_mut(key.as_str()) {
            if touches {
                inst.touched = true;
            } else {
                inst.members.push(i);
            }
        }
    }
    left_out
}

/// A named savepoint: a mark into the transaction log plus the
/// id-counter value at creation time.
#[derive(Debug, Clone)]
pub(crate) struct Savepoint {
    pub name: String,
    pub mark: usize,
    pub next_id: i64,
}

/// Transaction bookkeeping owned by the `Database`.
///
/// The log is populated even outside `BEGIN` — autocommit needs it for
/// statement-level atomicity (a failing statement, including any trigger
/// bodies it fired, rolls back as a unit) and for its WAL frame. On
/// success the log is simply discarded.
#[derive(Debug, Default)]
pub(crate) struct TxnState {
    /// Every effect, in execution order: undone in reverse on rollback,
    /// and on a durable database written as one `TxnBegin … TxnCommit`
    /// frame at commit. Rollback pops what it undoes, so an aborted
    /// transaction never reaches the disk at all.
    pub log: Vec<UndoRecord>,
    /// Inside an explicit `BEGIN … COMMIT/ROLLBACK` block.
    pub explicit: bool,
    /// Active savepoints, oldest first.
    pub savepoints: Vec<Savepoint>,
    /// Id-counter value when the explicit transaction began.
    pub start_next_id: i64,
}

impl TxnState {
    /// Forget everything (after COMMIT or a completed rollback).
    pub fn reset(&mut self) {
        self.log.clear();
        self.savepoints.clear();
        self.explicit = false;
    }
}

impl Database {
    /// Open an explicit transaction. Statements until [`Database::commit`]
    /// or [`Database::rollback`] accumulate their records as one unit.
    /// Nested transactions are not supported — use
    /// [`Database::savepoint`]. Direct API transaction control does not
    /// count as a client statement (it models JDBC's connection-level
    /// `setAutoCommit`/`commit`, not a round trip).
    pub fn begin(&mut self) -> Result<()> {
        if self.txn.explicit {
            return Err(DbError::Txn(
                "already in a transaction (nested BEGIN; use SAVEPOINT)".into(),
            ));
        }
        // Only `NextId` records a failed flush left may wait here; this
        // transaction's frame carries them.
        debug_assert!(
            self.txn
                .log
                .iter()
                .all(|r| matches!(r, UndoRecord::NextId { .. })),
            "autocommit left undo records"
        );
        self.txn.explicit = true;
        self.txn.start_next_id = self.next_id.get();
        Ok(())
    }

    /// Commit the open transaction, discarding its log. On a durable
    /// database the log is written to the WAL as one
    /// `TxnBegin … TxnCommit` frame first; if that write fails the
    /// transaction stays open (nothing was made durable) and the error is
    /// surfaced.
    pub fn commit(&mut self) -> Result<()> {
        if !self.txn.explicit {
            return Err(DbError::Txn("COMMIT outside a transaction".into()));
        }
        let _span = Span::enter("txn.commit");
        self.wal_flush_commit()?;
        StatsCells::bump(&self.stats.txn_commits, 1);
        self.mvcc_commit();
        self.txn.reset();
        Ok(())
    }

    /// Roll the open transaction back entirely: every recorded effect is
    /// undone (newest first) and the id counter returns to its
    /// `BEGIN`-time value.
    pub fn rollback(&mut self) -> Result<()> {
        if !self.txn.explicit {
            return Err(DbError::Txn("ROLLBACK outside a transaction".into()));
        }
        // On a durable database every record is one the frame would
        // have held.
        let log = &self.txn.log;
        let logged = self.durable.is_some() && !log.is_empty();
        // A `NextId` record is one the WAL has not seen: this
        // transaction's, or one a failed flush before `BEGIN` left.
        let id_unlogged = log.iter().any(|r| matches!(r, UndoRecord::NextId { .. }));
        self.rollback_to_mark(0);
        self.next_id.set(self.txn.start_next_id);
        self.txn.reset();
        if logged {
            // Audit marker only: the aborted frame was discarded
            // unflushed, so replay has nothing to skip. Best-effort — a
            // failed append must not fail the (already complete)
            // rollback.
            let txn = self.next_wal_txn();
            let mut buf = Vec::new();
            wal::encode(WalRef::TxnAbort(txn), &mut buf);
            // The abort marker is not a commit, so it is not synced.
            let _ = self.wal_append(&buf, 1, false);
        }
        if id_unlogged {
            // Re-assert the id counter (rolled back in memory) so the
            // durable image converges with it immediately: the aborted
            // transaction's NextId records were discarded with its frame,
            // along with any a failed flush before `BEGIN` left.
            self.log_next_id(self.next_id.get());
        }
        StatsCells::bump(&self.stats.txn_rollbacks, 1);
        Ok(())
    }

    /// Mark a savepoint inside the open transaction.
    pub fn savepoint(&mut self, name: &str) -> Result<()> {
        if !self.txn.explicit {
            return Err(DbError::Txn(format!(
                "SAVEPOINT {name} outside a transaction"
            )));
        }
        self.txn.savepoints.push(Savepoint {
            name: name.to_string(),
            mark: self.txn.log.len(),
            next_id: self.next_id.get(),
        });
        Ok(())
    }

    /// Roll back to the most recent savepoint named `name`
    /// (case-insensitive). The savepoint stays active, so a transaction
    /// can retry past it; later savepoints are discarded.
    pub fn rollback_to(&mut self, name: &str) -> Result<()> {
        if !self.txn.explicit {
            return Err(DbError::Txn(format!(
                "ROLLBACK TO {name} outside a transaction"
            )));
        }
        let at = self
            .txn
            .savepoints
            .iter()
            .rposition(|s| s.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| DbError::Txn(format!("no savepoint named `{name}`")))?;
        let sp = self.txn.savepoints[at].clone();
        self.txn.savepoints.truncate(at + 1);
        self.rollback_to_mark(sp.mark);
        self.next_id.set(sp.next_id);
        StatsCells::bump(&self.stats.txn_rollbacks, 1);
        Ok(())
    }

    /// Whether an explicit transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.txn.explicit
    }

    /// Number of records currently in the transaction log (on a durable
    /// database, `NextId` records included).
    pub fn undo_log_len(&self) -> usize {
        self.txn.log.len()
    }

    /// The open transaction's undo log, oldest first — what a snapshot
    /// reader rolls its copy of a table back through first.
    pub(crate) fn undo_log(&self) -> &[UndoRecord] {
        &self.txn.log
    }

    /// Undo all records above `mark`, newest first. If any undone record
    /// was DDL the schema epoch moves, mirroring the forward DDL path, so
    /// no plan built against the undone catalog is served again.
    pub(crate) fn rollback_to_mark(&mut self, mark: usize) {
        let mut ddl = false;
        while self.txn.log.len() > mark {
            let rec = self.txn.log.pop().expect("len > mark");
            ddl |= rec.is_ddl();
            self.apply_undo(rec);
        }
        if ddl {
            self.bump_schema_epoch();
        }
    }

    /// Apply one undo record. Records are self-describing; a missing
    /// table means the sequence was corrupted, so the undo degrades to a
    /// no-op rather than panicking.
    fn apply_undo(&mut self, rec: UndoRecord) {
        match rec {
            UndoRecord::InsertedRow { .. }
            | UndoRecord::DeletedRow { .. }
            | UndoRecord::UpdatedCell { .. } => {
                let t = rec.row_table().and_then(|k| self.tables.get_mut(k));
                if let Some(t) = t {
                    t.undo_row(&rec);
                }
            }
            UndoRecord::CreatedTable { name, .. } => {
                self.tables.remove(&name);
            }
            UndoRecord::DroppedTable {
                name,
                table,
                triggers,
                ..
            } => {
                self.tables.insert(name, *table);
                for (at, trig) in triggers {
                    self.triggers.insert(at.min(self.triggers.len()), trig);
                }
            }
            UndoRecord::CreatedIndex { table, column, .. } => {
                if let Some(t) = self.tables.get_mut(&table) {
                    t.drop_index(column);
                }
            }
            UndoRecord::CreatedTrigger { name, .. } => {
                self.triggers
                    .retain(|t| !t.name.eq_ignore_ascii_case(&name));
            }
            UndoRecord::DroppedTrigger {
                position, trigger, ..
            } => {
                self.triggers
                    .insert(position.min(self.triggers.len()), *trigger);
            }
            UndoRecord::NextId { .. } => {}
        }
    }

    /// Append an undo record for a forward mutation.
    pub(crate) fn record_undo(&mut self, rec: UndoRecord) {
        StatsCells::bump(&self.stats.undo_records, 1);
        self.txn.log.push(rec);
    }

    /// Log the id counter's new value as a `NextId` record, on a durable
    /// database only. Id allocation happens between statements, so
    /// outside an explicit transaction nothing else would flush it — a
    /// crash right after a bulk load must not recover a stale counter
    /// under persisted rows — and it is flushed at once. Best-effort: on
    /// failure the record stays in the log and the next successful flush
    /// carries it.
    pub(crate) fn log_next_id(&mut self, value: i64) {
        if self.durable.is_some() {
            self.txn.log.push(UndoRecord::NextId { value });
            if !self.txn.explicit && self.wal_flush_commit().is_ok() {
                // Outside a transaction the log holds nothing else.
                self.txn.log.clear();
            }
        }
    }
}

/// Deterministic fault injection armed on the `Database`.
///
/// Counters live in atomic cells so the hot DML loops can consult them
/// while a mutable borrow of the table map is live (disjoint field
/// borrows) and the shared-database facade stays `Sync`.
/// Faults are one-shot: once fired they disarm themselves.
#[derive(Debug, Default)]
pub(crate) struct FaultState {
    /// Fail the Nth client statement from now (0 = disarmed; 1 = next).
    stmt_countdown: Counter,
    /// Fail the Nth row write to this table (lower-cased key).
    write_table: Option<String>,
    /// Row-write countdown for `write_table` (0 = disarmed).
    write_countdown: Counter,
}

impl FaultState {
    /// Arm the statement fault: the `n`th client statement from now
    /// fails with [`DbError::FaultInjected`] before executing.
    pub fn arm_statement(&mut self, n: u64) {
        self.stmt_countdown.set(n);
    }

    /// Arm the table-write fault: the `n`th row written to `table`
    /// (insert, delete, or cell update) fails mid-statement.
    pub fn arm_table_write(&mut self, table: &str, n: u64) {
        self.write_table = Some(table.to_ascii_lowercase());
        self.write_countdown.set(n);
    }

    /// Disarm all faults.
    pub fn clear(&mut self) {
        self.stmt_countdown.set(0);
        self.write_table = None;
        self.write_countdown.set(0);
    }

    /// Whether any fault is currently armed.
    pub fn armed(&self) -> bool {
        self.stmt_countdown.get() > 0 || self.write_countdown.get() > 0
    }

    /// Tick the statement countdown; fires once when it reaches zero.
    pub fn check_statement(&self) -> Result<()> {
        let left = self.stmt_countdown.get();
        if left == 0 {
            return Ok(());
        }
        self.stmt_countdown.set(left - 1);
        if left == 1 {
            return Err(DbError::FaultInjected(
                "statement fault reached zero".into(),
            ));
        }
        Ok(())
    }

    /// Tick the table-write countdown for a write to `key`; fires once
    /// when it reaches zero.
    pub fn check_table_write(&self, key: &str) -> Result<()> {
        if self.write_table.as_deref() != Some(key) {
            return Ok(());
        }
        let left = self.write_countdown.get();
        if left == 0 {
            return Ok(());
        }
        self.write_countdown.set(left - 1);
        if left == 1 {
            return Err(DbError::FaultInjected(format!(
                "write fault on table `{key}` reached zero"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(t: &str) -> UndoRecord {
        UndoRecord::InsertedRow {
            table: t.into(),
            pos: 0,
            row: Some(vec![Value::Int(1)]),
        }
    }

    fn create(t: &str) -> UndoRecord {
        UndoRecord::CreatedTable {
            name: t.into(),
            sql: None,
        }
    }

    fn drop_table(t: &str) -> UndoRecord {
        UndoRecord::DroppedTable {
            name: t.into(),
            table: Box::new(Table::new(crate::TableSchema {
                name: t.into(),
                columns: Vec::new(),
            })),
            triggers: Vec::new(),
            sql: None,
        }
    }

    fn index(t: &str) -> UndoRecord {
        UndoRecord::CreatedIndex {
            table: t.into(),
            column: 0,
            sql: None,
        }
    }

    fn trigger_on(t: &str) -> UndoRecord {
        UndoRecord::CreatedTrigger {
            name: "trg".into(),
            table: t.into(),
            sql: None,
        }
    }

    #[test]
    fn frame_local_leaves_out_the_instance_and_nothing_else() {
        let log = vec![
            row("t"), // a table from before the frame
            create("tmp"),
            index("tmp"),
            row("tmp"),
            UndoRecord::NextId { value: 9 },
            row("r"),
            UndoRecord::DeletedRow {
                table: "tmp".into(),
                pos: 0,
                row: Vec::new(),
            },
            trigger_on("r"),
            drop_table("tmp"),
            row("tmp"), // a row for a later `tmp`: not this instance
        ];
        let out = frame_local(&log);
        assert_eq!(
            out,
            [false, true, true, true, false, false, true, false, true, false]
        );
    }

    #[test]
    fn frame_local_keeps_touched_unclosed_and_earlier_instances() {
        // A trigger on the table keeps it whole.
        let touched = [
            create("tmp"),
            trigger_on("tmp"),
            row("tmp"),
            drop_table("tmp"),
        ];
        assert_eq!(frame_local(&touched), [false; 4]);
        // A table from before the frame, dropped in it; one created and
        // never dropped.
        let open = [row("old"), drop_table("old"), create("new"), row("new")];
        assert_eq!(frame_local(&open), [false; 4]);
        // The same name twice: only the instance closed in the frame.
        let twice = [
            create("t"),
            row("t"),
            drop_table("t"),
            create("t"),
            row("t"),
        ];
        assert_eq!(frame_local(&twice), [true, true, true, false, false]);
    }
}
