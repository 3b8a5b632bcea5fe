//! In-memory table storage with ordered secondary indexes.
//!
//! A table also keeps the row undo records of recent commits that a
//! registered snapshot still predates (its `history`). A stale snapshot
//! read rolls a copy of the slots back through them with the same
//! per-slot undo step rollback uses (see `crate::mvcc`).

use crate::ast::ColumnDef;
use crate::error::{DbError, Result};
use crate::txn::{self, UndoRecord};
use crate::value::{Row, Value};
use std::collections::{BTreeMap, HashMap};

/// Schema of one table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSchema {
    /// Table name as created.
    pub name: String,
    /// Column definitions in order.
    pub columns: Vec<ColumnDef>,
}

impl TableSchema {
    /// Index of a column by case-insensitive name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Column names in order.
    pub fn column_names(&self) -> Vec<String> {
        self.columns.iter().map(|c| c.name.clone()).collect()
    }
}

/// One secondary index: key → slot positions, keys in
/// [`Value::sort_cmp`] order, positions **ascending** within a key, no
/// empty buckets. That makes the map a pure function of the slot vector,
/// so rollback and recovery restore it exactly without recording anything
/// about it.
type Index = BTreeMap<Value, Vec<usize>>;

/// A heap of rows with optional ordered indexes on single columns.
///
/// Rows live in slots (`Vec<Option<Row>>`); deletion tombstones the slot so
/// that row positions remain stable during statement execution. Indexes are
/// maintained eagerly on insert/delete/update.
///
/// `PartialEq` compares the full physical state — slot vector (including
/// tombstones), live count, and index contents — which is exactly the
/// "byte-identical" equality the transaction layer's undo restores (see
/// `crate::txn`). The snapshot history is deliberately excluded: it is
/// read-side reconstruction state, not part of the committed physical
/// image.
#[derive(Debug, Clone)]
pub struct Table {
    /// The table's schema.
    pub schema: TableSchema,
    slots: Vec<Option<Row>>,
    live: usize,
    /// column index → index on that column.
    indexes: HashMap<usize, Index>,
    /// Row undo records of commits a registered snapshot predates, each
    /// stamped with the epoch it committed under, oldest first (moved
    /// here at commit; see `crate::mvcc`).
    history: Vec<(u64, UndoRecord)>,
}

impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.slots == other.slots
            && self.live == other.live
            && self.indexes == other.indexes
    }
}

/// Splice `pos` into the bucket under `key`, keeping it sorted.
fn index_add(idx: &mut Index, key: &Value, pos: usize) {
    let bucket = idx.entry(key.clone()).or_default();
    let at = bucket.partition_point(|&p| p < pos);
    bucket.insert(at, pos);
}

/// Remove `pos` from the bucket under `key`, dropping the bucket when it
/// empties.
fn index_remove(idx: &mut Index, key: &Value, pos: usize) {
    if let Some(bucket) = idx.get_mut(key) {
        if let Ok(at) = bucket.binary_search(&pos) {
            bucket.remove(at);
        }
        if bucket.is_empty() {
            idx.remove(key);
        }
    }
}

/// Build the index on column `ci` from a slot vector.
fn index_build(slots: &[Option<Row>], ci: usize) -> Index {
    let mut idx = Index::new();
    for (pos, slot) in slots.iter().enumerate() {
        if let Some(row) = slot {
            index_add(&mut idx, &row[ci], pos);
        }
    }
    idx
}

impl Table {
    /// Create an empty table.
    pub fn new(schema: TableSchema) -> Self {
        Table {
            schema,
            slots: Vec::new(),
            live: 0,
            indexes: HashMap::new(),
            history: Vec::new(),
        }
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no live rows remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.schema.columns.len()
    }

    /// Add an index on `column` (no-op if one exists).
    pub fn create_index(&mut self, column: &str) -> Result<()> {
        let ci = self
            .schema
            .column_index(column)
            .ok_or_else(|| DbError::NoSuchColumn(format!("{}.{column}", self.schema.name)))?;
        if !self.indexes.contains_key(&ci) {
            self.indexes.insert(ci, index_build(&self.slots, ci));
        }
        Ok(())
    }

    /// Whether `column` is indexed.
    pub fn has_index(&self, column_idx: usize) -> bool {
        self.indexes.contains_key(&column_idx)
    }

    /// Indexed columns, ascending.
    pub fn indexed_columns(&self) -> Vec<usize> {
        let mut cols: Vec<usize> = self.indexes.keys().copied().collect();
        cols.sort_unstable();
        cols
    }

    /// Insert a row (arity must match). Returns its slot position.
    pub fn insert(&mut self, row: Row) -> Result<usize> {
        if row.len() != self.arity() {
            return Err(DbError::Schema(format!(
                "insert into {}: {} values for {} columns",
                self.schema.name,
                row.len(),
                self.arity()
            )));
        }
        let pos = self.slots.len();
        for (ci, idx) in self.indexes.iter_mut() {
            index_add(idx, &row[*ci], pos);
        }
        self.slots.push(Some(row));
        self.live += 1;
        Ok(pos)
    }

    /// Row at a slot position, if live.
    pub fn row(&self, pos: usize) -> Option<&Row> {
        self.slots.get(pos).and_then(Option::as_ref)
    }

    /// Delete the row at `pos`, returning it.
    pub fn delete(&mut self, pos: usize) -> Option<Row> {
        let row = self.slots.get_mut(pos)?.take()?;
        self.live -= 1;
        for (ci, idx) in self.indexes.iter_mut() {
            index_remove(idx, &row[*ci], pos);
        }
        Some(row)
    }

    /// Overwrite one column of the row at `pos`, returning the previous
    /// value. Undoing the update is the same call with that value.
    pub fn update_cell(&mut self, pos: usize, column_idx: usize, value: Value) -> Result<Value> {
        let row = self
            .slots
            .get_mut(pos)
            .and_then(Option::as_mut)
            .ok_or_else(|| DbError::Execution(format!("no live row at slot {pos}")))?;
        let old = std::mem::replace(&mut row[column_idx], value);
        if let Some(idx) = self.indexes.get_mut(&column_idx) {
            index_remove(idx, &old, pos);
            index_add(idx, &row[column_idx], pos);
        }
        Ok(old)
    }

    // ------------------------------------------------------------------
    // undo support (see `crate::txn`)
    //
    // Index contents are a pure function of the slot vector, so undo only
    // has to put the slots back: a delete is undone by `restore_row`, a
    // cell update by `update_cell` with the old value, and an insert by
    // `undo_insert` while it is still the last slot (rollback applies
    // records newest-first).
    // ------------------------------------------------------------------

    /// Undo a delete: put `row` back at `pos`.
    pub(crate) fn restore_row(&mut self, pos: usize, row: Row) {
        let Some(slot) = self.slots.get_mut(pos) else {
            return;
        };
        for (ci, idx) in self.indexes.iter_mut() {
            index_add(idx, &row[*ci], pos);
        }
        if slot.replace(row).is_none() {
            self.live += 1;
        }
    }

    /// Undo an insert of the row at `pos`. Rollback applies records
    /// newest-first, so any later appends were already undone and `pos`
    /// is the last slot again: popping it restores the slot vector's
    /// original length.
    pub(crate) fn undo_insert(&mut self, pos: usize) {
        self.delete(pos);
        debug_assert_eq!(pos + 1, self.slots.len(), "insert undo must be last slot");
        if pos + 1 == self.slots.len() {
            self.slots.pop();
        }
    }

    /// Undo one row record: the per-slot step of rollback and of a
    /// snapshot read's reconstruction. Catalog records are the engine's
    /// and are ignored here. Only the before-image is cloned: a record's
    /// after-image is the WAL's.
    pub(crate) fn undo_row(&mut self, rec: &UndoRecord) {
        match rec {
            UndoRecord::InsertedRow { pos, .. } => self.undo_insert(*pos),
            UndoRecord::DeletedRow { pos, row, .. } => self.restore_row(*pos, row.clone()),
            UndoRecord::UpdatedCell {
                pos, column, old, ..
            } => {
                // A vanished row means the log was corrupted; degrade to
                // a no-op like the other arms.
                let _ = self.update_cell(*pos, *column, old.clone());
            }
            _ => {}
        }
    }

    /// Drop the index on `column_idx` (undo of `CREATE INDEX`).
    pub(crate) fn drop_index(&mut self, column_idx: usize) {
        self.indexes.remove(&column_idx);
    }

    // ------------------------------------------------------------------
    // snapshot support (see `crate::wal`)
    // ------------------------------------------------------------------

    /// The raw slot vector, tombstones included (snapshot serialization).
    pub(crate) fn slots_raw(&self) -> &[Option<Row>] {
        &self.slots
    }

    /// Rebuild a table from checkpointed parts. The live count and the
    /// indexes are derived from the slots; only the indexed column list
    /// is persisted. The caller has validated `index_columns` against the
    /// schema.
    pub(crate) fn from_parts(
        schema: TableSchema,
        slots: Vec<Option<Row>>,
        index_columns: &[usize],
    ) -> Self {
        let live = slots.iter().filter(|s| s.is_some()).count();
        let indexes = index_columns
            .iter()
            .map(|&ci| (ci, index_build(&slots, ci)))
            .collect();
        Table {
            schema,
            slots,
            live,
            indexes,
            history: Vec::new(),
        }
    }

    /// Slot positions of all live rows.
    pub fn live_positions(&self) -> Vec<usize> {
        self.iter_live().map(|(i, _)| i).collect()
    }

    /// Iterate live rows.
    pub fn rows(&self) -> impl Iterator<Item = &Row> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Iterate live rows with their slot positions. This is the scan
    /// surface the Volcano executor pulls from: rows are borrowed from
    /// the heap, never cloned wholesale into an intermediate relation.
    pub fn iter_live(&self) -> impl Iterator<Item = (usize, &Row)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|r| (i, r)))
    }

    /// Distinct key count of the index on `column_idx`; 0 when the column
    /// is not indexed.
    pub(crate) fn index_distinct(&self, column_idx: usize) -> usize {
        self.indexes.get(&column_idx).map_or(0, |m| m.len())
    }

    /// Index lookup: positions (ascending) of live rows with
    /// `row[column_idx] == key`. Returns `None` if the column is not
    /// indexed.
    pub fn index_lookup(&self, column_idx: usize, key: &Value) -> Option<&[usize]> {
        self.indexes
            .get(&column_idx)
            .map(|m| m.get(key).map(Vec::as_slice).unwrap_or(&[]))
    }

    /// Walk the whole index on `column_idx` in key order (descending
    /// when `desc`) under [`Value::sort_cmp`]'s total order, positions
    /// ascending within equal keys. Lazy, so `ORDER BY … LIMIT k` pulls
    /// only the first `k` entries. Returns `None` when the column is not
    /// indexed.
    pub fn index_range(
        &self,
        column_idx: usize,
        desc: bool,
    ) -> Option<Box<dyn Iterator<Item = usize> + '_>> {
        let buckets = self.indexes.get(&column_idx)?.values();
        Some(if desc {
            Box::new(buckets.rev().flat_map(|ps| ps.iter().copied()))
        } else {
            Box::new(buckets.flat_map(|ps| ps.iter().copied()))
        })
    }

    // ------------------------------------------------------------------
    // snapshot reads (see `crate::mvcc`)
    //
    // A reader at snapshot epoch `S` sees the heap rolled back through,
    // newest first, the open transaction's row records for this table and
    // then every retained record committed after `S`. That is an exact
    // rollback of a copy: the records after `S` are a complete suffix of
    // this table's writes, because the version GC only drops records no
    // registered snapshot predates.
    // ------------------------------------------------------------------

    /// Whether a reader at snapshot `epoch` cannot read the live heap and
    /// its indexes: a retained record committed after the snapshot, or
    /// the open transaction (`open`, the engine's undo log) wrote here.
    pub(crate) fn changed_since(&self, epoch: u64, open: &[UndoRecord]) -> bool {
        self.history.last().is_some_and(|(e, _)| *e > epoch)
            || txn::table_records(open, &self.schema.name).next().is_some()
    }

    /// The rows visible at snapshot `epoch`, in slot order: a copy of the
    /// slot vector undone through the records newer than the snapshot.
    /// The scan returns owned rows, so copying the slots costs what the
    /// result needs anyway. The executor only takes this path when
    /// [`Table::changed_since`] says the heap has moved past the snapshot.
    pub(crate) fn rows_visible_at(&self, epoch: u64, open: &[UndoRecord]) -> Vec<Row> {
        let mut image = Table::from_parts(self.schema.clone(), self.slots.clone(), &[]);
        let retained = self.history.iter().rev().take_while(|(e, _)| *e > epoch);
        for rec in txn::table_records(open, &self.schema.name).chain(retained.map(|(_, r)| r)) {
            image.undo_row(rec);
        }
        image.slots.into_iter().flatten().collect()
    }

    /// Retain a committed row record for the snapshots that predate
    /// `epoch`, the epoch it committed under.
    pub(crate) fn retain_version(&mut self, epoch: u64, rec: UndoRecord) {
        self.history.push((epoch, rec));
    }

    /// Drop the records no registered snapshot can still need: a record
    /// stamped `epoch` serves snapshots strictly older than it, so once
    /// the oldest registered snapshot is `min_snapshot >= epoch` it is
    /// garbage.
    pub(crate) fn gc_versions(&mut self, min_snapshot: u64) {
        let stale = self.history.partition_point(|(e, _)| *e <= min_snapshot);
        self.history.drain(..stale);
    }

    /// Number of row records currently retained.
    pub fn versions_retained(&self) -> usize {
        self.history.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn schema() -> TableSchema {
        TableSchema {
            name: "t".into(),
            columns: vec![
                ColumnDef {
                    name: "id".into(),
                    ty: DataType::Integer,
                },
                ColumnDef {
                    name: "name".into(),
                    ty: DataType::Text,
                },
            ],
        }
    }

    #[test]
    fn insert_delete_roundtrip() {
        let mut t = Table::new(schema());
        let p = t.insert(vec![Value::Int(1), Value::from("a")]).unwrap();
        assert_eq!(t.len(), 1);
        let row = t.delete(p).unwrap();
        assert_eq!(row[0], Value::Int(1));
        assert_eq!(t.len(), 0);
        assert!(t.delete(p).is_none(), "double delete is a no-op");
    }

    #[test]
    fn arity_checked() {
        let mut t = Table::new(schema());
        assert!(t.insert(vec![Value::Int(1)]).is_err());
    }

    #[test]
    fn index_maintained_on_mutation() {
        let mut t = Table::new(schema());
        t.create_index("id").unwrap();
        let p0 = t.insert(vec![Value::Int(1), Value::from("a")]).unwrap();
        let p1 = t.insert(vec![Value::Int(1), Value::from("b")]).unwrap();
        assert_eq!(t.index_lookup(0, &Value::Int(1)).unwrap(), &[p0, p1]);
        t.delete(p0);
        assert_eq!(t.index_lookup(0, &Value::Int(1)).unwrap(), &[p1]);
        t.update_cell(p1, 0, Value::Int(2)).unwrap();
        assert!(t.index_lookup(0, &Value::Int(1)).unwrap().is_empty());
        assert_eq!(t.index_lookup(0, &Value::Int(2)).unwrap(), &[p1]);
    }

    #[test]
    fn index_built_over_existing_rows() {
        let mut t = Table::new(schema());
        t.insert(vec![Value::Int(7), Value::from("x")]).unwrap();
        t.create_index("id").unwrap();
        assert_eq!(t.index_lookup(0, &Value::Int(7)).unwrap().len(), 1);
        assert_eq!(
            t.index_lookup(1, &Value::from("x")),
            None,
            "name not indexed"
        );
    }

    /// Positions of an index walk, collected.
    fn walk(t: &Table, desc: bool) -> Vec<usize> {
        t.index_range(0, desc).unwrap().collect()
    }

    #[test]
    fn ordered_index_maintained_on_mutation() {
        let mut t = Table::new(schema());
        t.create_index("id").unwrap();
        let p0 = t.insert(vec![Value::Int(5), Value::from("a")]).unwrap();
        let p1 = t.insert(vec![Value::Int(1), Value::from("b")]).unwrap();
        let p2 = t.insert(vec![Value::Int(9), Value::from("c")]).unwrap();
        let p3 = t.insert(vec![Value::Int(5), Value::from("d")]).unwrap();
        assert_eq!(walk(&t, false), vec![p1, p0, p3, p2]);
        assert_eq!(
            walk(&t, true),
            vec![p2, p0, p3, p1],
            "descending flips key order but keeps in-key position order"
        );
        t.delete(p0);
        assert_eq!(walk(&t, false), vec![p1, p3, p2]);
        t.update_cell(p3, 0, Value::Int(100)).unwrap();
        assert_eq!(walk(&t, false), vec![p1, p2, p3]);
        assert_eq!(t.index_lookup(0, &Value::Int(100)).unwrap(), &[p3]);
    }

    #[test]
    fn rebuilt_index_matches_maintained_one() {
        let mut a = Table::new(schema());
        a.create_index("id").unwrap();
        a.create_index("name").unwrap();
        for i in 0..20i64 {
            let name = if i % 4 == 0 {
                Value::Null
            } else {
                Value::from(format!("n{}", i % 3))
            };
            a.insert(vec![Value::Int(i * 7 % 10), name]).unwrap();
        }
        a.delete(3);
        let old = a.update_cell(5, 0, Value::Int(-1)).unwrap();
        a.update_cell(7, 1, Value::Int(4)).unwrap();
        let rebuilt = |t: &Table| {
            Table::from_parts(
                t.schema.clone(),
                t.slots_raw().to_vec(),
                &t.indexed_columns(),
            )
        };
        assert_eq!(a, rebuilt(&a), "indexes are a pure function of the slots");
        // Undo is the forward mutation with the old value / row.
        a.update_cell(5, 0, old).unwrap();
        a.restore_row(3, vec![Value::Int(1), Value::from("n0")]);
        assert_eq!(a, rebuilt(&a));
        assert_eq!(a.index_lookup(0, &Value::Int(1)).unwrap(), &[3, 13]);
    }

    #[test]
    fn column_lookup_case_insensitive() {
        let s = schema();
        assert_eq!(s.column_index("ID"), Some(0));
        assert_eq!(s.column_index("Name"), Some(1));
        assert_eq!(s.column_index("none"), None);
    }
}
