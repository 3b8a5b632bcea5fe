//! Transaction support: undo log, savepoints, and deterministic fault
//! injection.
//!
//! The paper (Sections 3 and 6) assumes every translated `UPDATE { … }`
//! block executes as one transaction against DB2 — a mid-update error
//! must leave the shredded relations exactly as they were. This module
//! supplies the engine-side machinery: a logical undo log of
//! before-images ([`UndoRecord`]), transaction/savepoint bookkeeping
//! ([`TxnState`]), and a fault injector ([`FaultState`]) that lets tests
//! and the workload driver kill execution at a chosen statement or table
//! write.
//!
//! Undo is *exact*: applying the log in reverse restores the database
//! byte-identically — slot vectors, the trigger list, and the id counter
//! all return to their pre-transaction state, and the indexes with them
//! (they are a pure function of the slots, see `crate::table`).
//! That invariant is what makes the property tests in
//! `tests/txn_props.rs` meaningful and is relied on by the fault
//! injection acceptance test at the workspace root.

use crate::cells::Counter;
use crate::engine::Trigger;
use crate::error::{DbError, Result};
use crate::table::Table;
use crate::value::{Row, Value};
use crate::wal::WalRecord;
use std::sync::Mutex;

/// One reversible effect recorded by the engine. Records are appended in
/// execution order and applied in reverse on rollback.
#[derive(Debug, Clone)]
pub enum UndoRecord {
    /// A row was appended to `table` at slot `pos`.
    InsertedRow {
        /// Lower-cased table key.
        table: String,
        /// Slot position the row occupies.
        pos: usize,
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
    },
    /// `CREATE TABLE` ran: drop the table again.
    CreatedTable {
        /// Lower-cased table key.
        name: String,
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
    },
    /// `CREATE INDEX` built a new index: drop it.
    CreatedIndex {
        /// Lower-cased table key.
        table: String,
        /// Indexed column.
        column: usize,
    },
    /// `ANALYZE` rebuilt a table's statistics: restore the previous ones
    /// (possibly none).
    Analyzed {
        /// Lower-cased table key.
        table: String,
        /// Statistics before the analyze.
        prior: Option<Box<crate::stats::TableStatistics>>,
    },
    /// `CREATE TRIGGER` ran: remove the trigger again.
    CreatedTrigger {
        /// Trigger name.
        name: String,
    },
    /// `DROP TRIGGER` ran: restore the trigger at its original position.
    DroppedTrigger {
        /// Position in the trigger list.
        position: usize,
        /// The removed trigger.
        trigger: Box<Trigger>,
    },
}

impl UndoRecord {
    /// Whether undoing this record changes the catalog (tables, indexes,
    /// triggers) — if so, the plan cache must be invalidated on
    /// rollback, mirroring the forward DDL path.
    pub fn is_ddl(&self) -> bool {
        matches!(
            self,
            UndoRecord::CreatedTable { .. }
                | UndoRecord::DroppedTable { .. }
                | UndoRecord::CreatedIndex { .. }
                | UndoRecord::Analyzed { .. }
                | UndoRecord::CreatedTrigger { .. }
                | UndoRecord::DroppedTrigger { .. }
        )
    }
}

/// A named savepoint: a mark into the undo log plus the id-counter value
/// at creation time.
#[derive(Debug, Clone)]
pub(crate) struct Savepoint {
    pub name: String,
    pub mark: usize,
    pub next_id: i64,
    /// Redo-buffer length at creation time: `ROLLBACK TO` truncates the
    /// buffered WAL records along with the undo log, so discarded work
    /// is never flushed.
    pub redo_mark: usize,
}

/// Transaction bookkeeping owned by the `Database`.
///
/// The undo log is populated even outside `BEGIN` — autocommit needs it
/// for statement-level atomicity (a failing statement, including any
/// trigger bodies it fired, rolls back as a unit). On success the log is
/// simply discarded.
#[derive(Debug, Default)]
pub(crate) struct TxnState {
    /// Reversible effects, in execution order.
    pub log: Vec<UndoRecord>,
    /// Buffered WAL redo records mirroring `log` (populated only on a
    /// durable database). Flushed as one `TxnBegin … TxnCommit` frame at
    /// commit; truncated in lockstep with the undo log on rollback, so
    /// an aborted transaction never reaches the disk at all. Lives in a
    /// `Mutex` because `&self` paths (id allocation) also emit records.
    pub redo: Mutex<Vec<WalRecord>>,
    /// Inside an explicit `BEGIN … COMMIT/ROLLBACK` block.
    pub explicit: bool,
    /// Active savepoints, oldest first.
    pub savepoints: Vec<Savepoint>,
    /// Id-counter value when the explicit transaction began.
    pub start_next_id: i64,
}

impl TxnState {
    /// Current undo-log length, used as a statement-level mark.
    pub fn mark(&self) -> usize {
        self.log.len()
    }

    /// Current redo-buffer length, the WAL-side statement mark.
    pub fn redo_mark(&self) -> usize {
        self.redo.lock().unwrap().len()
    }

    /// Forget everything (after COMMIT or a completed rollback).
    pub fn reset(&mut self) {
        self.log.clear();
        self.redo.lock().unwrap().clear();
        self.savepoints.clear();
        self.explicit = false;
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
