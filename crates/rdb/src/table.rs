//! In-memory table storage with ordered secondary indexes.

use crate::ast::ColumnDef;
use crate::error::{DbError, Result};
use crate::stats::TableStatistics;
use crate::value::{Row, Value};
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;

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

/// One undo-style version record retained for MVCC snapshot reads:
/// "before `epoch` committed, slot `pos` held `prior`" (`None` = the slot
/// did not hold a live row). Entries are appended in mutation order, so
/// epochs are non-decreasing and the *first* matching entry for a slot is
/// the oldest — the one a snapshot reconstructs from.
#[derive(Debug, Clone)]
pub(crate) struct VersionEntry {
    /// Epoch the mutation commits under (`committed + 1` at write time).
    pub epoch: u64,
    /// Slot position the mutation touched.
    pub pos: usize,
    /// The slot's content immediately before the mutation.
    pub prior: Option<Row>,
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
/// `crate::txn`). The MVCC version history is deliberately excluded: it
/// is read-side reconstruction state, not part of the committed physical
/// image.
#[derive(Debug, Clone)]
pub struct Table {
    /// The table's schema.
    pub schema: TableSchema,
    slots: Vec<Option<Row>>,
    live: usize,
    /// column index → index on that column.
    indexes: HashMap<usize, Index>,
    /// `ANALYZE`-built planner statistics; counters are maintained by
    /// the slot mutations below, shape is frozen until the next analyze
    /// (see `crate::stats`).
    stats: Option<TableStatistics>,
    /// Version records for snapshot visibility (empty unless the owning
    /// database has MVCC enabled; see `crate::mvcc`).
    history: Vec<VersionEntry>,
    /// Slot positions changed since the last checkpoint, one bit per
    /// position (word `pos / 64`, bit `pos % 64`); `None` when the table
    /// is new since the last checkpoint, so every slot counts. Set by the
    /// slot mutations below, cleared by [`Table::checkpointed`]. Excluded
    /// from `PartialEq`: it describes the durable image, not the table.
    changed: Option<Vec<u64>>,
}

impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.slots == other.slots
            && self.live == other.live
            && self.indexes == other.indexes
            && self.stats == other.stats
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
            stats: None,
            history: Vec::new(),
            changed: None,
        }
    }

    // ------------------------------------------------------------------
    // changed slots since the last checkpoint (see `crate::storage`)
    // ------------------------------------------------------------------

    /// Note that slot `pos` changed (no-op while every slot counts).
    fn mark_changed(&mut self, pos: usize) {
        if let Some(bits) = &mut self.changed {
            let word = pos / 64;
            if bits.len() <= word {
                bits.resize(word + 1, 0);
            }
            bits[word] |= 1 << (pos % 64);
        }
    }

    /// Slot positions changed since the last checkpoint, one bit per
    /// position; `None` when the table is new since then. Positions may
    /// lie past the slot vector (an undone insert).
    pub(crate) fn changed_slots(&self) -> Option<&[u64]> {
        self.changed.as_deref()
    }

    /// A checkpoint holding the current slots committed: nothing has
    /// changed since.
    pub(crate) fn checkpointed(&mut self) {
        self.changed = Some(Vec::new());
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

    /// The table's `ANALYZE` statistics, if built.
    pub fn statistics(&self) -> Option<&TableStatistics> {
        self.stats.as_ref()
    }

    /// Install (or clear) statistics wholesale — the rollback path of
    /// `ANALYZE` and snapshot restore.
    pub(crate) fn set_statistics(&mut self, stats: Option<TableStatistics>) {
        self.stats = stats;
    }

    /// Rebuild statistics from a full scan of the live rows (the
    /// `ANALYZE` forward path). Returns the previous statistics so the
    /// transaction layer can restore them on rollback.
    pub(crate) fn analyze(&mut self) -> Option<TableStatistics> {
        let new =
            TableStatistics::build(self.slots.iter().filter_map(Option::as_ref), self.arity());
        self.stats.replace(new)
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
        if let Some(s) = &mut self.stats {
            s.note_insert(&row);
        }
        self.slots.push(Some(row));
        self.live += 1;
        self.mark_changed(pos);
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
        if let Some(s) = &mut self.stats {
            s.note_delete(&row);
        }
        self.mark_changed(pos);
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
        let new = &row[column_idx];
        if let Some(idx) = self.indexes.get_mut(&column_idx) {
            index_remove(idx, &old, pos);
            index_add(idx, new, pos);
        }
        if let Some(s) = &mut self.stats {
            s.note_update(column_idx, &old, new);
        }
        self.mark_changed(pos);
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
        if let Some(s) = &mut self.stats {
            s.note_insert(&row);
        }
        if slot.replace(row).is_none() {
            self.live += 1;
        }
        self.mark_changed(pos);
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
        stats: Option<TableStatistics>,
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
            stats,
            history: Vec::new(),
            changed: Some(Vec::new()),
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

    /// Index walk in key order (descending when `desc`), positions
    /// ascending within equal keys, between `(value, inclusive)` bounds
    /// under [`Value::sort_cmp`]'s total order (`None` is unbounded).
    /// Lazy, so `ORDER BY … LIMIT k` pulls only the first `k` entries.
    /// Returns `None` when the column is not indexed. Callers re-check
    /// the originating predicate per row, so the seek only needs to be a
    /// superset under the total order.
    pub fn index_range<'t>(
        &'t self,
        column_idx: usize,
        desc: bool,
        lower: Option<(&Value, bool)>,
        upper: Option<(&Value, bool)>,
    ) -> Option<Box<dyn Iterator<Item = usize> + 't>> {
        let m = self.indexes.get(&column_idx)?;
        // `BTreeMap::range` panics on inverted or empty-by-exclusion
        // bounds; those are simply empty seeks.
        if let (Some((lo, lo_incl)), Some((hi, hi_incl))) = (lower, upper) {
            if lo > hi || (lo == hi && !(lo_incl && hi_incl)) {
                return Some(Box::new(std::iter::empty()));
            }
        }
        fn as_bound(b: Option<(&Value, bool)>) -> Bound<&Value> {
            match b {
                None => Bound::Unbounded,
                Some((v, true)) => Bound::Included(v),
                Some((v, false)) => Bound::Excluded(v),
            }
        }
        let r = m.range::<Value, _>((as_bound(lower), as_bound(upper)));
        if desc {
            Some(Box::new(r.rev().flat_map(|(_, ps)| ps.iter().copied())))
        } else {
            Some(Box::new(r.flat_map(|(_, ps)| ps.iter().copied())))
        }
    }

    // ------------------------------------------------------------------
    // MVCC version history (see `crate::mvcc`)
    //
    // The engine records the *before* image of every slot a mutation is
    // about to touch, stamped with the epoch the enclosing transaction
    // will commit under. A reader holding snapshot epoch `S` reconstructs
    // each slot from the oldest entry with `epoch > S` (its `prior` is the
    // slot's content when `S` was current); slots with no such entry are
    // unchanged since the snapshot and read straight from the heap.
    // ------------------------------------------------------------------

    /// Record the before-image of `pos` under `epoch` before a mutation.
    /// No-op unless the owning database enabled version retention
    /// (single-threaded databases pay nothing). Repeated writes to one
    /// slot in one transaction are all recorded; only the first matters
    /// for visibility and GC drops them together.
    pub(crate) fn note_version(&mut self, epoch: u64, pos: usize) {
        let prior = self.slots.get(pos).cloned().unwrap_or(None);
        self.history.push(VersionEntry { epoch, pos, prior });
    }

    /// Record a freshly-inserted slot: its before-image is "no row", so
    /// snapshots older than `epoch` must not see it. Called *after* the
    /// insert with the returned position (the prior content of a new
    /// slot is always empty, so nothing needs capturing beforehand).
    pub(crate) fn note_insert(&mut self, epoch: u64, pos: usize) {
        self.history.push(VersionEntry {
            epoch,
            pos,
            prior: None,
        });
    }

    /// Whether any version entry is newer than snapshot `epoch` — i.e.
    /// whether a reader at that snapshot can trust the live heap and its
    /// indexes directly. Entries are appended with non-decreasing epochs,
    /// so only the newest needs checking.
    pub fn changed_since(&self, epoch: u64) -> bool {
        self.history.last().is_some_and(|e| e.epoch > epoch)
    }

    /// Materialize the rows visible at snapshot `epoch`: heap contents
    /// with every newer mutation's before-image layered back on. The
    /// executor only takes this path when [`Table::changed_since`] says
    /// the heap has moved past the snapshot.
    pub(crate) fn rows_visible_at(&self, epoch: u64) -> Vec<Row> {
        let mut overrides: HashMap<usize, &Option<Row>> = HashMap::new();
        for e in &self.history {
            if e.epoch > epoch {
                // First entry per slot wins: the oldest before-image is
                // the slot's content when the snapshot was current.
                overrides.entry(e.pos).or_insert(&e.prior);
            }
        }
        let max_pos = self
            .slots
            .len()
            .max(overrides.keys().map(|p| p + 1).max().unwrap_or(0));
        let mut rows = Vec::new();
        for pos in 0..max_pos {
            let visible = match overrides.get(&pos) {
                Some(prior) => prior.as_ref(),
                None => self.slots.get(pos).and_then(Option::as_ref),
            };
            if let Some(row) = visible {
                rows.push(row.clone());
            }
        }
        rows
    }

    /// Drop version entries no active snapshot can still need: an entry
    /// stamped `epoch` serves snapshots strictly older than it, so once
    /// the oldest active snapshot has reached `min_snapshot >= epoch` the
    /// entry is garbage. Entries of the open (uncommitted) transaction
    /// carry `committed + 1 > min_snapshot` and always survive.
    pub(crate) fn gc_versions(&mut self, min_snapshot: u64) {
        if self
            .history
            .first()
            .is_some_and(|e| e.epoch <= min_snapshot)
        {
            self.history.retain(|e| e.epoch > min_snapshot);
        }
    }

    /// Number of version entries currently retained.
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
    fn walk(
        t: &Table,
        desc: bool,
        lower: Option<(&Value, bool)>,
        upper: Option<(&Value, bool)>,
    ) -> Vec<usize> {
        t.index_range(0, desc, lower, upper).unwrap().collect()
    }

    #[test]
    fn ordered_index_maintained_on_mutation() {
        let mut t = Table::new(schema());
        t.create_index("id").unwrap();
        let p0 = t.insert(vec![Value::Int(5), Value::from("a")]).unwrap();
        let p1 = t.insert(vec![Value::Int(1), Value::from("b")]).unwrap();
        let p2 = t.insert(vec![Value::Int(9), Value::from("c")]).unwrap();
        let p3 = t.insert(vec![Value::Int(5), Value::from("d")]).unwrap();
        assert_eq!(walk(&t, false, None, None), vec![p1, p0, p3, p2]);
        assert_eq!(
            walk(&t, true, None, None),
            vec![p2, p0, p3, p1],
            "descending flips key order but keeps in-key position order"
        );
        let lo = Value::Int(2);
        let hi = Value::Int(8);
        let mid = (Some((&lo, true)), Some((&hi, true)));
        assert_eq!(walk(&t, false, mid.0, mid.1), vec![p0, p3]);
        t.delete(p0);
        assert_eq!(walk(&t, false, mid.0, mid.1), vec![p3]);
        t.update_cell(p3, 0, Value::Int(100)).unwrap();
        assert!(walk(&t, false, mid.0, mid.1).is_empty());
        assert_eq!(walk(&t, false, None, None), vec![p1, p2, p3]);
        assert_eq!(t.index_lookup(0, &Value::Int(100)).unwrap(), &[p3]);
    }

    #[test]
    fn inverted_range_is_empty_not_panic() {
        let mut t = Table::new(schema());
        t.create_index("id").unwrap();
        t.insert(vec![Value::Int(1), Value::from("a")]).unwrap();
        let lo = Value::Int(9);
        let hi = Value::Int(2);
        assert!(walk(&t, false, Some((&lo, true)), Some((&hi, true))).is_empty());
        assert!(
            walk(&t, false, Some((&hi, false)), Some((&hi, true))).is_empty(),
            "equal bounds with one exclusive end are empty"
        );
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
                t.statistics().cloned(),
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
