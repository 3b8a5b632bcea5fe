//! Access Support Relations (paper Section 5.3, after Kemper & Moerkotte,
//! SIGMOD '90), extended to the XML mapping: one column per relation of the
//! mapping tree, one tuple per root-to-leaf path of the stored document,
//! left-complete (NULLs only below the path's end), plus a `mark` column
//! used by the ASR-based delete/insert strategies' marking schemes
//! (Sections 6.1.3 and 6.2.3).

use crate::error::Result;
use crate::inline::Mapping;
use crate::loader::insert_rows;
use std::collections::HashMap;
use xmlup_rdb::{Database, Value};

/// An access support relation over the whole mapping tree.
#[derive(Debug, Clone)]
pub struct AsrIndex {
    /// The ASR's table name.
    pub table: String,
    /// Relations covered, in pre-order (column i ↔ relation `relations[i]`).
    pub relations: Vec<usize>,
    /// Id column names, same order.
    pub id_columns: Vec<String>,
}

impl AsrIndex {
    /// Create and populate the ASR from the mapping's already-loaded
    /// tables. Creates hash indexes on every id column.
    pub fn build(db: &mut Database, mapping: &Mapping) -> Result<AsrIndex> {
        let asr = AsrIndex::attach(mapping);
        let cols: Vec<String> = asr
            .id_columns
            .iter()
            .map(|c| format!("{c} INTEGER"))
            .collect();
        db.execute(&format!(
            "CREATE TABLE {} ({}, mark BOOLEAN)",
            asr.table,
            cols.join(", ")
        ))?;
        for c in &asr.id_columns {
            db.execute(&format!("CREATE INDEX idx_asr_{c} ON {} ({c})", asr.table))?;
        }
        // The marking schemes (Sections 6.1.3 / 6.2.3) repeatedly select
        // `WHERE mark = TRUE`; index the flag so marked paths are probed,
        // not scanned.
        db.execute(&format!(
            "CREATE INDEX idx_asr_mark ON {} (mark)",
            asr.table
        ))?;
        asr.populate(db, mapping)?;
        Ok(asr)
    }

    /// Reconstruct the descriptor of an ASR that already exists in the
    /// database — e.g. after crash recovery reopened a durable store
    /// whose WAL/snapshot carry the ASR table and its contents. Issues
    /// no DDL and touches no data; the descriptor is fully determined by
    /// the mapping, so it matches whatever [`AsrIndex::build`] created.
    pub fn attach(mapping: &Mapping) -> AsrIndex {
        let relations = mapping.subtree(mapping.root());
        let id_columns: Vec<String> = relations
            .iter()
            .map(|&r| format!("id_{}", mapping.relations[r].table))
            .collect();
        AsrIndex {
            table: "ASR".to_string(),
            relations,
            id_columns,
        }
    }

    /// Column position for a relation index, if covered.
    pub fn column_of(&self, rel: usize) -> Option<usize> {
        self.relations.iter().position(|&r| r == rel)
    }

    /// (Re)populate from the current table contents. The walk happens at
    /// the application level, mirroring how the paper's middleware had to
    /// construct ASRs above the RDBMS.
    pub fn populate(&self, db: &mut Database, mapping: &Mapping) -> Result<()> {
        db.execute(&format!("DELETE FROM {}", self.table))?;
        // parent id → child ids, per relation.
        let mut children: Vec<HashMap<i64, Vec<i64>>> = Vec::new();
        for &r in &self.relations {
            let t = db
                .table(&mapping.relations[r].table)
                .expect("mapping tables exist");
            let mut map: HashMap<i64, Vec<i64>> = HashMap::new();
            for row in t.rows() {
                let id = row[0].as_int().expect("id");
                let pid = row[1].as_int().unwrap_or(0);
                map.entry(pid).or_default().push(id);
            }
            for v in map.values_mut() {
                v.sort_unstable();
            }
            children.push(map);
        }
        // Roots of the subtree: all tuples of relation 0 of the plan.
        let root_ids: Vec<i64> = {
            let t = db
                .table(&mapping.relations[self.relations[0]].table)
                .expect("root table");
            let mut v: Vec<i64> = t.rows().map(|r| r[0].as_int().expect("id")).collect();
            v.sort_unstable();
            v
        };
        let mut rows: Vec<Vec<Value>> = Vec::new();
        let mut path: Vec<(usize, i64)> = Vec::new();
        for rid in root_ids {
            self.walk(mapping, 0, rid, &children, &mut path, &mut rows);
        }
        // Bulk insert in chunks to bound statement size.
        insert_rows(db, &self.table, rows, 256)
    }

    fn walk(
        &self,
        mapping: &Mapping,
        level: usize,
        id: i64,
        children: &[HashMap<i64, Vec<i64>>],
        path: &mut Vec<(usize, i64)>,
        rows: &mut Vec<Vec<Value>>,
    ) {
        path.push((level, id));
        // Child levels: plan positions whose relation's parent is this
        // level's relation.
        let mut any_child = false;
        for cl in 0..self.relations.len() {
            if cl == level || self.parent_level_in(mapping, cl) != Some(level) {
                continue;
            }
            if let Some(kids) = children[cl].get(&id) {
                if !kids.is_empty() {
                    any_child = true;
                    for &k in kids {
                        self.walk(mapping, cl, k, children, path, rows);
                    }
                }
            }
        }
        if !any_child {
            // Left-complete tuple: ids along the path, NULL elsewhere.
            let mut row = vec![Value::Null; self.id_columns.len() + 1];
            for &(l, i) in path.iter() {
                row[l] = Value::Int(i);
            }
            *row.last_mut().unwrap() = Value::Bool(false);
            rows.push(row);
        }
        path.pop();
    }
    /// Parent plan-position of plan-position `cl`, given the mapping.
    pub fn parent_level_in(&self, mapping: &Mapping, cl: usize) -> Option<usize> {
        let rel = self.relations[cl];
        let parent = mapping.relations[rel].parent?;
        self.column_of(parent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::{create_schema, shred};
    use xmlup_xml::dtd::Dtd;
    use xmlup_xml::samples::{CUSTOMER_DTD, CUSTOMER_XML};

    fn setup() -> (Database, Mapping) {
        let dtd = Dtd::parse(CUSTOMER_DTD).unwrap();
        let mapping = Mapping::from_dtd(&dtd, "CustDB").unwrap();
        let doc = xmlup_xml::parse(CUSTOMER_XML).unwrap().doc;
        let mut db = Database::new();
        create_schema(&mut db, &mapping).unwrap();
        shred(&mut db, &mapping, &doc).unwrap();
        (db, mapping)
    }

    #[test]
    fn one_tuple_per_root_to_leaf_path() {
        let (mut db, mapping) = setup();
        let asr = AsrIndex::build(&mut db, &mapping).unwrap();
        // Leaves: 4 order lines, plus 1 customer with no orders → 5 paths.
        let n = db.table(&asr.table.to_ascii_lowercase()).unwrap().len();
        assert_eq!(n, 5);
    }

    #[test]
    fn descendant_lookup_via_asr() {
        let (mut db, mapping) = setup();
        let asr = AsrIndex::build(&mut db, &mapping).unwrap();
        // Ids of order lines under customer John (id of first Customer).
        let cust_col = &asr.id_columns[asr
            .column_of(mapping.relation_by_element("Customer").unwrap())
            .unwrap()];
        let line_col = &asr.id_columns[asr
            .column_of(mapping.relation_by_element("OrderLine").unwrap())
            .unwrap()];
        let john_id = db
            .query("SELECT MIN(id) FROM Customer WHERE Name = 'John'")
            .unwrap()
            .scalar()
            .unwrap()
            .as_int()
            .unwrap();
        let rs = db
            .query(&format!(
                "SELECT {line_col} FROM ASR WHERE {cust_col} = {john_id}"
            ))
            .unwrap();
        // First John has 3 order lines.
        let non_null = rs.rows.iter().filter(|r| !r[0].is_null()).count();
        assert_eq!(non_null, 3);
    }

    #[test]
    fn left_complete_nulls_at_bottom_only() {
        let (mut db, mapping) = setup();
        let asr = AsrIndex::build(&mut db, &mapping).unwrap();
        let rs = db.query(&format!("SELECT * FROM {}", asr.table)).unwrap();
        for row in &rs.rows {
            // Once a NULL id appears along a chain, everything below is NULL.
            let mut seen_null = false;
            for (cl, _) in asr.relations.iter().enumerate() {
                let is_null = row[cl].is_null();
                if let Some(pl) = asr.parent_level_in(&mapping, cl) {
                    if row[pl].is_null() {
                        assert!(is_null, "child id set under a NULL parent");
                    }
                }
                seen_null |= is_null;
            }
            let _ = seen_null;
        }
    }

    #[test]
    fn mark_column_starts_false() {
        let (mut db, mapping) = setup();
        AsrIndex::build(&mut db, &mapping).unwrap();
        let rs = db
            .query("SELECT COUNT(*) FROM ASR WHERE mark = TRUE")
            .unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(0)));
    }

    #[test]
    fn repopulate_after_data_change() {
        let (mut db, mapping) = setup();
        let asr = AsrIndex::build(&mut db, &mapping).unwrap();
        db.execute("DELETE FROM OrderLine").unwrap();
        asr.populate(&mut db, &mapping).unwrap();
        // Paths now end at orders (3) or customers without orders (1) → 4.
        assert_eq!(db.table("asr").unwrap().len(), 4);
    }
}
