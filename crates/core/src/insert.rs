//! The three complex-insert strategies of paper Section 6.2.
//!
//! A complex insert copies an XML subtree stored across multiple relations
//! to a new parent, replicating every tuple under fresh ids while
//! preserving connectivity (copy semantics — ids must stay unique, so the
//! tuples can be neither shared nor copied verbatim).
//!
//! | strategy | id remapping | SQL statements |
//! |----------|--------------|----------------|
//! | tuple    | per-tuple map, gap-free ids | 1 INSERT per copied tuple |
//! | table    | `offset = nextId − minId` over temp tables | ~4 per relation |
//! | ASR      | same offset heuristic over marked ASR paths | ~2 per relation + ASR maintenance |
//!
//! Atomicity: every strategy here issues multiple client statements per
//! logical insert (and the table-based one creates and drops temporary
//! tables). [`crate::XmlRepository`] wraps each translated insert in one
//! engine transaction, so a mid-copy failure removes the partial subtree
//! *and* any leftover temp tables — the DDL undo restores the catalog too.

use crate::error::{CoreError, Result};
use std::collections::HashMap;
use xmlup_rdb::{Database, PreparedStmt, Value};
use xmlup_shred::loader::sql_literal;
use xmlup_shred::{outer_union, AsrIndex, Mapping};

/// Strategy selector for complex inserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertStrategy {
    /// Tuple-based (Section 6.2.1): stream the Sorted Outer Union, remap
    /// ids row by row, one `INSERT` per tuple. Low memory, many
    /// statements; allocates ids without gaps.
    Tuple,
    /// Table-based (Section 6.2.2): materialize the source subtree into
    /// temporary tables, remap en masse with the `nextId − minId` offset
    /// heuristic, one `INSERT … SELECT` per relation. The paper's winner
    /// for bulk inserts.
    Table,
    /// ASR-based (Section 6.2.3): find subtree ids by marking ASR paths,
    /// remap with the offset heuristic, insert per relation, extend the
    /// ASR with the copied paths.
    Asr,
}

impl InsertStrategy {
    /// All strategies, for sweeps.
    pub const ALL: [InsertStrategy; 3] = [
        InsertStrategy::Tuple,
        InsertStrategy::Table,
        InsertStrategy::Asr,
    ];

    /// Short label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            InsertStrategy::Tuple => "tuple",
            InsertStrategy::Table => "table",
            InsertStrategy::Asr => "asr",
        }
    }
}

/// On an order-preserving mapping, a fresh gap-spaced position placing a
/// new child of `dst_parent_id` after every existing sibling (copies
/// append, like the paper's unordered inserts). `None` when unordered.
fn appended_pos(
    db: &mut Database,
    mapping: &Mapping,
    rel: usize,
    dst_parent_id: i64,
) -> Result<Option<i64>> {
    use xmlup_shred::inline::POS_GAP;
    use xmlup_shred::ColumnKind;
    if !mapping.ordered {
        return Ok(None);
    }
    let parent = match mapping.relations[rel].parent {
        Some(p) => p,
        None => return Ok(None),
    };
    let mut max_pos = 0i64;
    for &crel in &mapping.relations[parent].children {
        let r = &mapping.relations[crel];
        if let Some(pi) = r.find_column(&[], &ColumnKind::Position) {
            // Parameterized so the statement text is constant per relation
            // and repeated appends reuse one cached plan.
            let stmt = db.prepare(&format!(
                "SELECT MAX({}) FROM {} WHERE parentId = ?",
                r.columns[pi].name, r.table
            ))?;
            let rs = db.query_prepared(&stmt, &[Value::Int(dst_parent_id)])?;
            if let Some(p) = rs.rows[0][0].as_int() {
                max_pos = max_pos.max(p);
            }
        }
    }
    Ok(Some(max_pos + POS_GAP))
}

/// Copy the subtree rooted at tuple `src_id` of relation `rel` so that the
/// copy hangs under parent tuple `dst_parent_id` (a tuple of `rel`'s
/// parent relation — or the same parent for sibling replication). Returns
/// the number of tuples created.
#[allow(clippy::too_many_arguments)]
pub fn copy_subtree(
    db: &mut Database,
    mapping: &Mapping,
    asr: Option<&AsrIndex>,
    strategy: InsertStrategy,
    rel: usize,
    src_id: i64,
    dst_parent_id: i64,
    batch_size: usize,
) -> Result<usize> {
    match strategy {
        InsertStrategy::Tuple => tuple_insert(db, mapping, rel, src_id, dst_parent_id, batch_size),
        InsertStrategy::Table => table_insert(db, mapping, rel, src_id, dst_parent_id),
        InsertStrategy::Asr => {
            let asr = asr.ok_or_else(|| {
                CoreError::Strategy("ASR insert requires a built ASR index".into())
            })?;
            asr_insert(db, mapping, asr, rel, src_id, dst_parent_id)
        }
    }
}

// ----------------------------------------------------------------------
// tuple-based
// ----------------------------------------------------------------------

fn tuple_insert(
    db: &mut Database,
    mapping: &Mapping,
    rel: usize,
    src_id: i64,
    dst_parent_id: i64,
    batch_size: usize,
) -> Result<usize> {
    let batch = batch_size.max(1);
    // Stream the source subtree via the Sorted Outer Union. The root
    // filter is a parameter so every copy of this relation shape reuses
    // one compiled outer-union plan.
    let plan = outer_union::plan(mapping, rel, Some("id = ?"));
    let rs = outer_union::execute_params(db, &plan, &[Value::Int(src_id)])?;
    // old id → new id; parents appear before children in the sorted stream.
    let mut remap: HashMap<i64, i64> = HashMap::new();
    let mut inserted = 0usize;
    // Ids are remapped tuple by tuple (the map above), but the INSERTs are
    // folded: each level buffers remapped rows and flushes a multi-row
    // `INSERT INTO t VALUES (…), (…)` every `batch` tuples — n/batch
    // statements instead of n. One prepared full-batch statement per
    // level, compiled lazily; the sub-batch tail flushes after the loop.
    let mut bufs: Vec<Vec<Value>> = vec![Vec::new(); plan.relations.len()];
    let mut widths: Vec<usize> = vec![0; plan.relations.len()];
    let mut insert_stmts: Vec<Option<PreparedStmt>> = vec![None; plan.relations.len()];
    let row_marks = |width: usize| format!("({})", vec!["?"; width].join(", "));
    for row in &rs.rows {
        // Level = deepest non-null id column (see outer_union::reassemble).
        let mut level = 0;
        for (li, &off) in plan.id_offsets.iter().enumerate() {
            if !row[off].is_null() {
                level = li;
            }
        }
        let off = plan.id_offsets[level];
        let old_id = row[off].as_int().expect("id column");
        let new_id = *remap.entry(old_id).or_insert_with(|| db.allocate_ids(1));
        let relation = &mapping.relations[plan.relations[level]];
        let new_parent = if level == 0 {
            dst_parent_id
        } else {
            let parent_rel = relation.parent.expect("child has parent");
            let plevel = plan
                .relations
                .iter()
                .position(|&r| r == parent_rel)
                .expect("parent in plan");
            let old_parent = row[plan.id_offsets[plevel]].as_int().expect("parent key");
            *remap.get(&old_parent).ok_or_else(|| {
                CoreError::Strategy("child tuple arrived before its parent".into())
            })?
        };
        let mut vals = vec![Value::Int(new_id), Value::Int(new_parent)];
        vals.extend_from_slice(&row[off + 1..off + 1 + relation.columns.len()]);
        if level == 0 {
            // Fresh appended position for the copied root on ordered
            // mappings (descendant positions are per-parent and disjoint,
            // so the verbatim copies below stay correct).
            if let Some(pos) = appended_pos(db, mapping, rel, dst_parent_id)? {
                let pi = relation
                    .find_column(&[], &xmlup_shred::ColumnKind::Position)
                    .expect("ordered relation has pos_");
                vals[2 + pi] = Value::Int(pos);
            }
        }
        widths[level] = vals.len();
        bufs[level].extend(vals);
        inserted += 1;
        if bufs[level].len() == widths[level] * batch {
            if insert_stmts[level].is_none() {
                let rows = vec![row_marks(widths[level]); batch].join(", ");
                insert_stmts[level] =
                    Some(db.prepare(&format!("INSERT INTO {} VALUES {rows}", relation.table))?);
            }
            let stmt = insert_stmts[level].as_ref().expect("prepared above");
            db.execute_prepared(stmt, &bufs[level])?;
            bufs[level].clear();
        }
    }
    // Tail flush: whatever each level buffered short of a full batch, in
    // level order so parents land before descendants.
    for (level, buf) in bufs.iter().enumerate() {
        if buf.is_empty() {
            continue;
        }
        let nrows = buf.len() / widths[level];
        let rows = vec![row_marks(widths[level]); nrows].join(", ");
        let stmt = db.prepare(&format!(
            "INSERT INTO {} VALUES {rows}",
            mapping.relations[plan.relations[level]].table
        ))?;
        db.execute_prepared(&stmt, buf)?;
    }
    Ok(inserted)
}

// ----------------------------------------------------------------------
// table-based
// ----------------------------------------------------------------------

/// Table-based copy of the subtree rooted at `src_id` under
/// `dst_parent_id`. Its `tmp_*` tables are created and dropped inside the
/// repository's transaction, so on a durable store the commit leaves them
/// out of the WAL: only the copied rows and the id counter are logged.
fn table_insert(
    db: &mut Database,
    mapping: &Mapping,
    rel: usize,
    src_id: i64,
    dst_parent_id: i64,
) -> Result<usize> {
    let subtree = mapping.subtree(rel);
    // 1. Materialize the source subtree into temp tables, level by level.
    for (i, &s) in subtree.iter().enumerate() {
        let relation = &mapping.relations[s];
        let cols: Vec<String> = relation
            .column_defs()
            .iter()
            .map(|c| format!("{} {}", c.name, c.ty))
            .collect();
        db.execute(&format!(
            "CREATE TABLE tmp_{} ({})",
            relation.table,
            cols.join(", ")
        ))?;
        if i == 0 {
            // Prepared so the root id is bound, not embedded: the statement
            // shape stays constant across copies (the CREATEs above move
            // the schema epoch, which replans it but does not re-parse it).
            let load = db.prepare(&format!(
                "INSERT INTO tmp_{t} SELECT * FROM {t} WHERE id = ?",
                t = relation.table
            ))?;
            db.execute_prepared(&load, &[Value::Int(src_id)])?;
        } else {
            let parent = mapping.relations[s].parent.expect("child has parent");
            db.execute(&format!(
                "INSERT INTO tmp_{t} SELECT * FROM {t} WHERE parentId IN (SELECT id FROM tmp_{p})",
                t = relation.table,
                p = mapping.relations[parent].table
            ))?;
        }
    }
    // 2. The paper's offset heuristic: offset = nextId − minId; nextId
    //    advances by maxId − minId + 1.
    let mut min_id = i64::MAX;
    let mut max_id = i64::MIN;
    let mut copied = 0usize;
    for &s in &subtree {
        let rs = db.query(&format!(
            "SELECT MIN(id), MAX(id), COUNT(*) FROM tmp_{}",
            mapping.relations[s].table
        ))?;
        if let (Some(lo), Some(hi)) = (rs.rows[0][0].as_int(), rs.rows[0][1].as_int()) {
            min_id = min_id.min(lo);
            max_id = max_id.max(hi);
        }
        copied += rs.rows[0][2].as_int().unwrap_or(0) as usize;
    }
    if copied == 0 {
        for &s in &subtree {
            db.execute(&format!("DROP TABLE tmp_{}", mapping.relations[s].table))?;
        }
        return Ok(0);
    }
    let span = max_id - min_id + 1;
    let next = db.allocate_ids(span);
    let offset = next - min_id;
    // 3. Re-insert shifted tuples, one statement per relation. The offset
    //    is bound, so each relation's statement text repeats across copies.
    for &s in &subtree {
        let relation = &mapping.relations[s];
        let data_cols: Vec<String> = relation.columns.iter().map(|c| c.name.clone()).collect();
        let select_cols = if data_cols.is_empty() {
            "id + $1, parentId + $1".to_string()
        } else {
            format!("id + $1, parentId + $1, {}", data_cols.join(", "))
        };
        let shift = db.prepare(&format!(
            "INSERT INTO {t} SELECT {select_cols} FROM tmp_{t}",
            t = relation.table
        ))?;
        db.execute_prepared(&shift, &[Value::Int(offset)])?;
    }
    // 4. Reattach the copied root to its destination parent (with a fresh
    //    appended position on ordered mappings — the verbatim-copied pos_
    //    would collide with the source's).
    reattach_root(db, mapping, rel, src_id + offset, dst_parent_id)?;
    for &s in &subtree {
        db.execute(&format!("DROP TABLE tmp_{}", mapping.relations[s].table))?;
    }
    Ok(copied)
}

/// Point the copied root at its destination parent, assigning a fresh
/// appended `pos_` on ordered mappings.
fn reattach_root(
    db: &mut Database,
    mapping: &Mapping,
    rel: usize,
    new_root_id: i64,
    dst_parent_id: i64,
) -> Result<()> {
    let relation = &mapping.relations[rel];
    match appended_pos(db, mapping, rel, dst_parent_id)? {
        Some(pos) => {
            let pi = relation
                .find_column(&[], &xmlup_shred::ColumnKind::Position)
                .expect("ordered relation has pos_");
            let stmt = db.prepare(&format!(
                "UPDATE {} SET parentId = ?, {} = ? WHERE id = ?",
                relation.table, relation.columns[pi].name
            ))?;
            db.execute_prepared(
                &stmt,
                &[
                    Value::Int(dst_parent_id),
                    Value::Int(pos),
                    Value::Int(new_root_id),
                ],
            )?;
        }
        None => {
            let stmt = db.prepare(&format!(
                "UPDATE {} SET parentId = ? WHERE id = ?",
                relation.table
            ))?;
            db.execute_prepared(&stmt, &[Value::Int(dst_parent_id), Value::Int(new_root_id)])?;
        }
    }
    Ok(())
}

// ----------------------------------------------------------------------
// ASR-based
// ----------------------------------------------------------------------

fn asr_insert(
    db: &mut Database,
    mapping: &Mapping,
    asr: &AsrIndex,
    rel: usize,
    src_id: i64,
    dst_parent_id: i64,
) -> Result<usize> {
    let subtree = mapping.subtree(rel);
    let rel_col = &asr.id_columns[asr
        .column_of(rel)
        .ok_or_else(|| CoreError::Strategy("relation not covered by ASR".into()))?];
    // 1. Mark the source paths (parameterized: one cached plan per
    //    relation column, independent of which subtree is copied).
    let mark = db.prepare(&format!(
        "UPDATE {} SET mark = TRUE WHERE {rel_col} = ?",
        asr.table
    ))?;
    db.execute_prepared(&mark, &[Value::Int(src_id)])?;
    // 2. Offset from the marked ids (MIN/MAX per covered level).
    let mut min_id = i64::MAX;
    let mut max_id = i64::MIN;
    for &s in &subtree {
        let c = &asr.id_columns[asr.column_of(s).expect("covered")];
        let rs = db.query(&format!(
            "SELECT MIN({c}), MAX({c}) FROM {} WHERE mark = TRUE",
            asr.table
        ))?;
        if let (Some(lo), Some(hi)) = (rs.rows[0][0].as_int(), rs.rows[0][1].as_int()) {
            min_id = min_id.min(lo);
            max_id = max_id.max(hi);
        }
    }
    if min_id == i64::MAX {
        db.execute(&format!(
            "UPDATE {} SET mark = FALSE WHERE mark = TRUE",
            asr.table
        ))?;
        return Ok(0);
    }
    // Destination ancestor path — resolved BEFORE any data is copied so a
    // missing path fails cleanly instead of leaving a half-applied insert.
    let ancestor_literals: Vec<(String, String)> = match mapping.relations[rel].parent {
        None => Vec::new(),
        Some(parent) => {
            let pcol = &asr.id_columns[asr.column_of(parent).expect("covered")];
            let lookup = db.prepare(&format!(
                "SELECT * FROM {} WHERE {pcol} = ? LIMIT 1",
                asr.table
            ))?;
            let rs = db.query_prepared(&lookup, &[Value::Int(dst_parent_id)])?;
            match rs.rows.first() {
                None => {
                    db.execute(&format!(
                        "UPDATE {} SET mark = FALSE WHERE mark = TRUE",
                        asr.table
                    ))?;
                    return Err(CoreError::Strategy(format!(
                        "destination parent {dst_parent_id} has no path in the ASR"
                    )));
                }
                Some(row) => mapping
                    .ancestor_chain(rel)
                    .iter()
                    .map(|&r| {
                        let ci = asr.column_of(r).expect("covered");
                        (asr.id_columns[ci].clone(), sql_literal(&row[ci]))
                    })
                    .collect(),
            }
        }
    };
    let span = max_id - min_id + 1;
    let next = db.allocate_ids(span);
    let offset = next - min_id;
    // 3. Replicate tuples per relation, ids drawn from the marked paths.
    let mut copied = 0usize;
    for &s in &subtree {
        let relation = &mapping.relations[s];
        let c = &asr.id_columns[asr.column_of(s).expect("covered")];
        let data_cols: Vec<String> = relation
            .columns
            .iter()
            .map(|col| col.name.clone())
            .collect();
        let select_cols = if data_cols.is_empty() {
            format!("id + {offset}, parentId + {offset}")
        } else {
            format!(
                "id + {offset}, parentId + {offset}, {}",
                data_cols.join(", ")
            )
        };
        copied += db
            .execute(&format!(
                "INSERT INTO {t} SELECT {select_cols} FROM {t} \
                 WHERE id IN (SELECT {c} FROM {} WHERE mark = TRUE)",
                asr.table,
                t = relation.table
            ))?
            .affected();
    }
    // 4. Reattach the copied root (fresh position on ordered mappings).
    reattach_root(db, mapping, rel, src_id + offset, dst_parent_id)?;
    // 5. ASR maintenance: add the copied paths (ancestor columns carry the
    //    destination parent's path, resolved up front), then unmark.
    let mut insert_cols: Vec<String> = Vec::new();
    let mut select_exprs: Vec<String> = Vec::new();
    for (c, lit) in &ancestor_literals {
        insert_cols.push(c.clone());
        select_exprs.push(lit.clone());
    }
    for &s in &subtree {
        let c = &asr.id_columns[asr.column_of(s).expect("covered")];
        insert_cols.push(c.clone());
        select_exprs.push(format!("{c} + {offset}"));
    }
    insert_cols.push("mark".into());
    select_exprs.push("FALSE".into());
    db.execute(&format!(
        "INSERT INTO {a} ({}) SELECT {} FROM {a} WHERE mark = TRUE",
        insert_cols.join(", "),
        select_exprs.join(", "),
        a = asr.table
    ))?;
    db.execute(&format!(
        "UPDATE {} SET mark = FALSE WHERE mark = TRUE",
        asr.table
    ))?;
    Ok(copied)
}

/// A *simple* insert (Section 6.2): writing an inlined item is a single
/// `UPDATE`; with `check_overwrite` the table is first queried to warn
/// about inserting "over" an existing single-occurrence item.
pub fn insert_inlined(
    db: &mut Database,
    mapping: &Mapping,
    rel: usize,
    column: usize,
    value: &Value,
    filter: Option<&str>,
    check_overwrite: bool,
) -> Result<usize> {
    let relation = &mapping.relations[rel];
    let col = &relation.columns[column];
    let where_clause = filter.map(|f| format!(" WHERE {f}")).unwrap_or_default();
    if check_overwrite {
        let extra = if where_clause.is_empty() {
            "WHERE"
        } else {
            "AND"
        };
        let rs = db.query(&format!(
            "SELECT COUNT(*) FROM {}{where_clause} {extra} {} IS NOT NULL",
            relation.table, col.name
        ))?;
        if rs.scalar().and_then(Value::as_int).unwrap_or(0) > 0 {
            return Err(CoreError::Strategy(format!(
                "insert over existing single-occurrence item {}.{}",
                relation.table, col.name
            )));
        }
    }
    let mut sets = vec![format!("{} = {}", col.name, sql_literal(value))];
    // Setting an inlined value implies its ancestors exist: raise presence
    // flags along the path.
    for c in &relation.columns {
        if matches!(c.kind, xmlup_shred::ColumnKind::Presence)
            && !c.path.is_empty()
            && c.path.len() <= col.path.len()
            && col.path[..c.path.len()] == c.path[..]
        {
            sets.push(format!("{} = TRUE", c.name));
        }
    }
    let n = db
        .execute(&format!(
            "UPDATE {} SET {}{where_clause}",
            relation.table,
            sets.join(", ")
        ))?
        .affected();
    Ok(n)
}
