//! Transaction support: undo log, savepoints, and deterministic fault
//! injection.
//!
//! The paper (Sections 3 and 6) assumes every translated `UPDATE { … }`
//! block executes as one transaction against DB2 — a mid-update error
//! must leave the shredded relations exactly as they were. This module
//! supplies the engine-side machinery: a logical undo log of
//! before-images ([`UndoRecord`]), transaction/savepoint bookkeeping
//! (`TxnState`), and a fault injector (`FaultState`) that lets tests
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
//!
//! The row records are also the engine's only before-images for
//! snapshot reads: a reader rolls a copy of a table back through the open
//! transaction's records, and a commit that a registered snapshot
//! predates moves its records into the touched tables' history (see
//! `crate::mvcc`).

use crate::cells::Counter;
use crate::engine::Trigger;
use crate::error::{DbError, Result};
use crate::table::Table;
use crate::value::{Row, Value};
use crate::wal::WalRecord;
use std::collections::HashMap;
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
    /// `UpdatedCell`) touched; `None` for the catalog records.
    pub(crate) fn row_table(&self) -> Option<&str> {
        match self {
            UndoRecord::InsertedRow { table, .. }
            | UndoRecord::DeletedRow { table, .. }
            | UndoRecord::UpdatedCell { table, .. } => Some(table),
            _ => None,
        }
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
            !matches!(r, UndoRecord::CreatedTable { name: n } if n.eq_ignore_ascii_case(name))
        })
        .filter(move |r| r.row_table().is_some_and(|t| t.eq_ignore_ascii_case(name)))
}

/// What a buffered `Ddl` redo record did, and to which table (lower-cased
/// key), taken from its statement when it was pushed: the commit tells
/// the records of a frame-local table apart by this, never by re-parsing
/// the SQL text.
#[derive(Debug)]
pub(crate) enum DdlEffect {
    /// `CREATE TABLE` created the table.
    CreateTable(String),
    /// `DROP TABLE` dropped the table.
    DropTable(String),
    /// `CREATE INDEX` indexed a column of the table.
    CreateIndex(String),
    /// A trigger created or dropped: the table it is on.
    Touches(String),
}

/// One buffered redo record: the record the WAL gets and, for DDL, what
/// the statement did.
#[derive(Debug)]
pub(crate) struct Redo {
    pub rec: WalRecord,
    pub ddl: Option<DdlEffect>,
}

impl From<WalRecord> for Redo {
    fn from(rec: WalRecord) -> Self {
        Redo { rec, ddl: None }
    }
}

/// Which of a transaction's buffered records the commit leaves out
/// (`true` at their index): those of every *frame-local* table instance,
/// one whose `CREATE TABLE` and `DROP TABLE` both sit in `redo`. That is
/// the pair itself and every row record and `CREATE INDEX` on the table
/// between them. Recovery never sees the instance, and loses nothing: it
/// ends dropped within the frame, and every other record is physical, so
/// the rest of the frame replays to the same heap slot for slot. An
/// instance that a trigger created or dropped between the pair is on is
/// kept whole.
pub(crate) fn frame_local(redo: &[Redo]) -> Vec<bool> {
    struct Instance {
        create: usize,
        members: Vec<usize>,
        touched: bool,
    }
    let mut left_out = vec![false; redo.len()];
    let mut open: HashMap<&str, Instance> = HashMap::new();
    for (i, r) in redo.iter().enumerate() {
        match &r.ddl {
            Some(DdlEffect::CreateTable(key)) => {
                open.insert(
                    key,
                    Instance {
                        create: i,
                        members: Vec::new(),
                        touched: false,
                    },
                );
            }
            Some(DdlEffect::DropTable(key)) => {
                if let Some(inst) = open.remove(key.as_str()).filter(|inst| !inst.touched) {
                    for at in inst.members.into_iter().chain([inst.create, i]) {
                        left_out[at] = true;
                    }
                }
            }
            Some(DdlEffect::CreateIndex(key)) => {
                if let Some(inst) = open.get_mut(key.as_str()) {
                    inst.members.push(i);
                }
            }
            Some(DdlEffect::Touches(key)) => {
                if let Some(inst) = open.get_mut(key.as_str()) {
                    inst.touched = true;
                }
            }
            None => {
                let table = match &r.rec {
                    WalRecord::Insert { table, .. }
                    | WalRecord::Delete { table, .. }
                    | WalRecord::Update { table, .. } => table,
                    _ => continue,
                };
                if let Some(inst) = open.get_mut(table.as_str()) {
                    inst.members.push(i);
                }
            }
        }
    }
    left_out
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
    /// commit, less its frame-local tables ([`frame_local`]); truncated
    /// in lockstep with the undo log on rollback, so an aborted
    /// transaction never reaches the disk at all. Lives in a `Mutex`
    /// because `&self` paths (id allocation) also emit records.
    pub redo: Mutex<Vec<Redo>>,
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

#[cfg(test)]
mod tests {
    use super::*;

    fn ddl(effect: DdlEffect) -> Redo {
        Redo {
            rec: WalRecord::Ddl { sql: String::new() },
            ddl: Some(effect),
        }
    }

    fn insert(table: &str) -> Redo {
        WalRecord::Insert {
            table: table.into(),
            row: vec![Value::Int(1)],
        }
        .into()
    }

    fn create(t: &str) -> Redo {
        ddl(DdlEffect::CreateTable(t.into()))
    }

    fn drop_table(t: &str) -> Redo {
        ddl(DdlEffect::DropTable(t.into()))
    }

    #[test]
    fn frame_local_leaves_out_the_instance_and_nothing_else() {
        let redo = vec![
            insert("t"), // a table from before the frame
            create("tmp"),
            ddl(DdlEffect::CreateIndex("tmp".into())),
            insert("tmp"),
            WalRecord::NextId { value: 9 }.into(),
            insert("r"),
            WalRecord::Delete {
                table: "tmp".into(),
                pos: 0,
            }
            .into(),
            ddl(DdlEffect::Touches("r".into())),
            drop_table("tmp"),
            insert("tmp"), // a row for a later `tmp`: not this instance
        ];
        let out = frame_local(&redo);
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
            ddl(DdlEffect::Touches("tmp".into())),
            insert("tmp"),
            drop_table("tmp"),
        ];
        assert_eq!(frame_local(&touched), [false; 4]);
        // A table from before the frame, dropped in it; one created and
        // never dropped.
        let open = [
            insert("old"),
            drop_table("old"),
            create("new"),
            insert("new"),
        ];
        assert_eq!(frame_local(&open), [false; 4]);
        // The same name twice: only the instance closed in the frame.
        let twice = [
            create("t"),
            insert("t"),
            drop_table("t"),
            create("t"),
            insert("t"),
        ];
        assert_eq!(frame_local(&twice), [true, true, true, false, false]);
    }
}
