//! Shredding documents into relations and rebuilding subtrees from rows.

use crate::error::{Result, ShredError};
use crate::inline::{ColumnKind, Mapping, Relation, POS_GAP};
use xmlup_rdb::{Database, Row, Value};
use xmlup_xml::{Attr, Document, NodeId};

/// Create the mapping's tables (and `parentId` indexes) in `db`.
pub fn create_schema(db: &mut Database, mapping: &Mapping) -> Result<()> {
    for rel in &mapping.relations {
        db.execute(&rel.create_table_sql())?;
        db.execute(&format!(
            "CREATE INDEX idx_{t}_id ON {t} (id)",
            t = rel.table
        ))?;
        db.execute(&format!(
            "CREATE INDEX idx_{t}_parent ON {t} (parentId)",
            t = rel.table
        ))?;
    }
    Ok(())
}

/// Shred `doc` into the mapping's tables. Returns the number of tuples
/// inserted. Ids are assigned from the database's id counter, parents
/// before children.
pub fn shred(db: &mut Database, mapping: &Mapping, doc: &Document) -> Result<usize> {
    let root = doc.root();
    let root_rel = mapping.root();
    if doc.name(root) != Some(mapping.relations[root_rel].element.as_str()) {
        return Err(ShredError::Shred(format!(
            "document root <{}> does not match the mapping root <{}>",
            doc.name(root).unwrap_or("?"),
            mapping.relations[root_rel].element
        )));
    }
    let mut loader = Loader {
        db,
        mapping,
        doc,
        count: 0,
        buffers: vec![Vec::new(); mapping.relations.len()],
    };
    loader.shred_element(root, root_rel, 0, 0)?;
    loader.flush_all()?;
    Ok(loader.count)
}

/// Shred a single element subtree into the mapping's tables under an
/// existing parent tuple (used for cross-document inserts, paper Example
/// 10 / Section 6.2's "different document with the same DTD" case).
/// `node` must be an element whose tag matches `rel_idx`'s element.
pub fn shred_subtree(
    db: &mut Database,
    mapping: &Mapping,
    doc: &Document,
    node: NodeId,
    rel_idx: usize,
    parent_id: i64,
    ord: i64,
) -> Result<usize> {
    if doc.name(node) != Some(mapping.relations[rel_idx].element.as_str()) {
        return Err(ShredError::Shred(format!(
            "subtree root <{}> does not match relation <{}>",
            doc.name(node).unwrap_or("?"),
            mapping.relations[rel_idx].element
        )));
    }
    let mut loader = Loader {
        db,
        mapping,
        doc,
        count: 0,
        buffers: vec![Vec::new(); mapping.relations.len()],
    };
    loader.shred_element(node, rel_idx, parent_id, ord)?;
    loader.flush_all()?;
    Ok(loader.count)
}

/// Rows per bulk `INSERT` statement during loading. Batch loading is how
/// an application would populate the store; the per-statement client
/// overhead then amortizes across the batch.
const LOAD_BATCH: usize = 128;

struct Loader<'a> {
    db: &'a mut Database,
    mapping: &'a Mapping,
    doc: &'a Document,
    count: usize,
    /// Pending rows per relation, flushed in [`LOAD_BATCH`] chunks.
    buffers: Vec<Vec<Row>>,
}

impl Loader<'_> {
    fn shred_element(
        &mut self,
        node: NodeId,
        rel_idx: usize,
        parent_id: i64,
        ord: i64,
    ) -> Result<i64> {
        let rel = &self.mapping.relations[rel_idx];
        let id = self.db.allocate_ids(1);
        let mut row: Row = Vec::with_capacity(2 + rel.columns.len());
        row.push(Value::Int(id));
        row.push(Value::Int(parent_id));
        for col in &rel.columns {
            row.push(match col.kind {
                // Gap-spaced sibling position (ordered mappings only).
                ColumnKind::Position => Value::Int((ord + 1) * POS_GAP),
                _ => extract_column(self.doc, node, &col.path, &col.kind),
            });
        }
        self.buffers[rel_idx].push(row);
        if self.buffers[rel_idx].len() >= LOAD_BATCH {
            self.flush(rel_idx)?;
        }
        self.count += 1;
        // Repeatable children get their own tuples, in document order; the
        // ordinal counts across *all* relation-mapped children so sibling
        // order interleaves correctly between relations.
        let mut child_ord = 0i64;
        for &child in self.doc.children(node) {
            if let Some(cname) = self.doc.name(child) {
                if let Some(crel) = self.mapping.relations[rel_idx]
                    .children
                    .iter()
                    .copied()
                    .find(|&c| self.mapping.relations[c].element == cname)
                {
                    self.shred_element(child, crel, id, child_ord)?;
                    child_ord += 1;
                }
            }
        }
        Ok(id)
    }

    fn flush(&mut self, rel_idx: usize) -> Result<()> {
        let rows = std::mem::take(&mut self.buffers[rel_idx]);
        insert_rows(
            self.db,
            &self.mapping.relations[rel_idx].table,
            rows,
            LOAD_BATCH,
        )
    }

    fn flush_all(&mut self) -> Result<()> {
        for i in 0..self.buffers.len() {
            self.flush(i)?;
        }
        Ok(())
    }
}

/// Extract the value of one inlined column from the element `node`.
pub fn extract_column(doc: &Document, node: NodeId, path: &[String], kind: &ColumnKind) -> Value {
    // Navigate the inlined path (each segment occurs at most once).
    let mut cur = node;
    for seg in path {
        match doc
            .children(cur)
            .iter()
            .copied()
            .find(|&c| doc.name(c) == Some(seg.as_str()))
        {
            Some(c) => cur = c,
            None => {
                return match kind {
                    ColumnKind::Presence => Value::Bool(false),
                    _ => Value::Null,
                }
            }
        }
    }
    match kind {
        ColumnKind::Position => Value::Null,
        ColumnKind::Presence => Value::Bool(true),
        ColumnKind::Pcdata => {
            let text: String = doc
                .children(cur)
                .iter()
                .filter_map(|&c| doc.text(c))
                .collect();
            if text.is_empty() && doc.children(cur).is_empty() {
                // <Name/> stores NULL; documented ambiguity with "absent".
                Value::Null
            } else {
                Value::Str(text)
            }
        }
        ColumnKind::Attribute(attr) => match doc.attr(cur, attr) {
            Some(a) => Value::Str(a.value.to_text()),
            None => Value::Null,
        },
    }
}

/// Insert `rows` (all of one width) into `table` with multi-row
/// `INSERT … VALUES` statements of up to `chunk` rows, every value bound
/// to a `?`. The full chunks share one statement text, so the engine
/// parses it once and the plan cache holds no single-use row texts.
pub fn insert_rows(db: &mut Database, table: &str, rows: Vec<Row>, chunk: usize) -> Result<()> {
    let mut rows = rows.into_iter().peekable();
    while let Some(first) = rows.peek() {
        let tuple = format!("({})", vec!["?"; first.len()].join(", "));
        let part: Vec<Row> = rows.by_ref().take(chunk).collect();
        let stmt = db.prepare(&format!(
            "INSERT INTO {table} VALUES {}",
            vec![tuple; part.len()].join(", ")
        ))?;
        let params: Vec<Value> = part.into_iter().flatten().collect();
        db.execute_prepared(&stmt, &params)?;
    }
    Ok(())
}

/// Render a value as a SQL literal.
pub fn sql_literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Int(i) => i.to_string(),
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
    }
}

/// Rebuild the element stored by one tuple of `rel` (without its
/// repeatable children): tag, attributes, inlined subelements, PCDATA.
/// Returns a detached node in `doc`.
pub fn build_element(doc: &mut Document, rel: &Relation, data: &[Value]) -> Result<NodeId> {
    let el = doc.new_element(rel.element.clone());
    // Group columns by their inlined path, creating nested elements on
    // demand. Paths are short (inlining depth), so linear search is fine.
    let mut made: Vec<(Vec<String>, NodeId)> = vec![(Vec::new(), el)];
    // First pass: presence flags decide which inlined elements exist.
    for (i, col) in rel.columns.iter().enumerate() {
        let v = data
            .get(i)
            .ok_or_else(|| ShredError::Reconstruct("row too narrow".into()))?;
        if col.path.is_empty() {
            continue;
        }
        let present = match col.kind {
            ColumnKind::Presence => v == &Value::Bool(true),
            ColumnKind::Position => false,
            _ => !v.is_null(),
        };
        if present {
            ensure_path(doc, &mut made, &col.path);
        }
    }
    // Second pass: fill attributes and PCDATA.
    for (i, col) in rel.columns.iter().enumerate() {
        let v = &data[i];
        if v.is_null() {
            continue;
        }
        let holder = match made.iter().find(|(p, _)| p == &col.path) {
            Some((_, n)) => *n,
            None => continue, // value for an absent inlined element
        };
        match &col.kind {
            ColumnKind::Presence | ColumnKind::Position => {}
            ColumnKind::Pcdata => {
                let t = doc.new_text(v.render());
                doc.append_child(holder, t)?;
            }
            ColumnKind::Attribute(attr) => {
                if let Some(e) = doc.element_mut(holder) {
                    e.attrs.push(Attr::text(attr.clone(), v.render()));
                }
            }
        }
    }
    Ok(el)
}

fn ensure_path(
    doc: &mut Document,
    made: &mut Vec<(Vec<String>, NodeId)>,
    path: &[String],
) -> NodeId {
    if let Some((_, n)) = made.iter().find(|(p, _)| p == path) {
        return *n;
    }
    let parent = ensure_path(doc, made, &path[..path.len() - 1]);
    let el = doc.new_element(path.last().unwrap().clone());
    doc.append_child(parent, el).expect("fresh attach");
    made.push((path.to_vec(), el));
    el
}

/// Rebuild the full document from the shredded tables (used by tests to
/// verify shred→reconstruct identity). Children are ordered by tuple id,
/// which preserves document order because the loader assigns ids in
/// document order.
pub fn unshred(db: &mut Database, mapping: &Mapping) -> Result<Document> {
    let mut doc = Document::new("__placeholder__");
    let root_rel = mapping.root();
    let rs = db.query(&format!(
        "SELECT * FROM {} ORDER BY id",
        mapping.relations[root_rel].table
    ))?;
    if rs.rows.len() != 1 {
        return Err(ShredError::Reconstruct(format!(
            "expected one root tuple, found {}",
            rs.rows.len()
        )));
    }
    let row = &rs.rows[0];
    let id = row[0].as_int().expect("root id");
    let el = build_element(&mut doc, &mapping.relations[root_rel], &row[2..])?;
    attach_children(db, mapping, &mut doc, root_rel, id, el)?;
    doc.replace_root(el)?;
    Ok(doc)
}

/// Recursively attach the repeatable children of tuple `id` to `el`.
fn attach_children(
    db: &mut Database,
    mapping: &Mapping,
    doc: &mut Document,
    rel_idx: usize,
    id: i64,
    el: NodeId,
) -> Result<()> {
    // Children of different relations interleave by id (document order).
    let mut kids: Vec<((i64, i64), usize, Row)> = Vec::new();
    for &crel in &mapping.relations[rel_idx].children {
        let rs = db.query(&format!(
            "SELECT * FROM {} WHERE parentId = {id} ORDER BY id",
            mapping.relations[crel].table
        ))?;
        let pos_col = mapping.relations[crel].find_column(&[], &ColumnKind::Position);
        for row in rs.rows {
            let cid = row[0].as_int().expect("child id");
            // Ordered mappings sort siblings by the pos_ column (id breaks
            // ties); otherwise tuple ids carry document order (the loader
            // assigns them that way).
            let key = match pos_col {
                Some(pi) => (row[2 + pi].as_int().unwrap_or(cid), cid),
                None => (cid, cid),
            };
            kids.push((key, crel, row));
        }
    }
    kids.sort_by_key(|(key, _, _)| *key);
    for ((_, cid), crel, row) in kids {
        let cel = build_element(doc, &mapping.relations[crel], &row[2..])?;
        doc.append_child(el, cel)?;
        attach_children(db, mapping, doc, crel, cid, cel)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlup_xml::dtd::Dtd;
    use xmlup_xml::samples::{CUSTOMER_DTD, CUSTOMER_XML};

    fn setup() -> (Database, Mapping, Document) {
        let dtd = Dtd::parse(CUSTOMER_DTD).unwrap();
        let mapping = Mapping::from_dtd(&dtd, "CustDB").unwrap();
        let doc = xmlup_xml::parse(CUSTOMER_XML).unwrap().doc;
        let mut db = Database::new();
        create_schema(&mut db, &mapping).unwrap();
        (db, mapping, doc)
    }

    #[test]
    fn shred_counts_tuples() {
        let (mut db, mapping, doc) = setup();
        let n = shred(&mut db, &mapping, &doc).unwrap();
        // 1 CustDB + 3 Customer + 3 Order + 4 OrderLine = 11.
        assert_eq!(n, 11);
        assert_eq!(db.table("custdb").unwrap().len(), 1);
        assert_eq!(db.table("customer").unwrap().len(), 3);
        assert_eq!(db.table("order").unwrap().len(), 3);
        assert_eq!(db.table("orderline").unwrap().len(), 4);
    }

    #[test]
    fn inlined_values_land_in_columns() {
        let (mut db, mapping, doc) = setup();
        shred(&mut db, &mapping, &doc).unwrap();
        let rs = db
            .query("SELECT Name, Address_City, Address_State FROM Customer ORDER BY id")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Str("John".into()));
        assert_eq!(rs.rows[0][1], Value::Str("Seattle".into()));
        assert_eq!(rs.rows[2][2], Value::Str("CA".into()));
        let rs = db
            .query("SELECT COUNT(*) FROM OrderLine WHERE ItemName = 'tire'")
            .unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(2)));
    }

    #[test]
    fn parent_child_links_hold() {
        let (mut db, mapping, doc) = setup();
        shred(&mut db, &mapping, &doc).unwrap();
        let rs = db
            .query(
                "SELECT COUNT(*) FROM Customer C, Order O, OrderLine L
                 WHERE O.parentId = C.id AND L.parentId = O.id AND C.Name = 'John'",
            )
            .unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(3)));
    }

    #[test]
    fn shred_unshred_roundtrip() {
        let (mut db, mapping, doc) = setup();
        shred(&mut db, &mapping, &doc).unwrap();
        let rebuilt = unshred(&mut db, &mapping).unwrap();
        assert!(
            doc.subtree_eq(doc.root(), &rebuilt, rebuilt.root()),
            "shred → unshred must be the identity:\noriginal:\n{}\nrebuilt:\n{}",
            xmlup_xml::serializer::to_string(&doc),
            xmlup_xml::serializer::to_string(&rebuilt)
        );
    }

    #[test]
    fn presence_flag_true_for_existing_address() {
        let (mut db, mapping, doc) = setup();
        shred(&mut db, &mapping, &doc).unwrap();
        let rs = db
            .query("SELECT COUNT(*) FROM Customer WHERE Address_present = TRUE")
            .unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(3)));
    }

    #[test]
    fn optional_status_null_when_absent() {
        let dtd = Dtd::parse(CUSTOMER_DTD).unwrap();
        let mapping = Mapping::from_dtd(&dtd, "CustDB").unwrap();
        let doc = xmlup_xml::parse(
            "<CustDB><Customer><Name>X</Name>
             <Address><City>C</City><State>S</State></Address>
             <Order><Date>2001-01-01</Date></Order></Customer></CustDB>",
        )
        .unwrap()
        .doc;
        let mut db = Database::new();
        create_schema(&mut db, &mapping).unwrap();
        shred(&mut db, &mapping, &doc).unwrap();
        let rs = db.query("SELECT Status FROM Order").unwrap();
        assert_eq!(rs.rows[0][0], Value::Null);
        // And it reconstructs without a Status element.
        let rebuilt = unshred(&mut db, &mapping).unwrap();
        assert!(doc.subtree_eq(doc.root(), &rebuilt, rebuilt.root()));
    }

    #[test]
    fn root_mismatch_rejected() {
        let (mut db, mapping, _) = setup();
        let wrong = xmlup_xml::parse("<Other/>").unwrap().doc;
        assert!(matches!(
            shred(&mut db, &mapping, &wrong),
            Err(ShredError::Shred(_))
        ));
    }

    #[test]
    fn sql_literal_escapes_quotes() {
        assert_eq!(sql_literal(&Value::Str("John's".into())), "'John''s'");
        assert_eq!(sql_literal(&Value::Null), "NULL");
        assert_eq!(sql_literal(&Value::Bool(true)), "TRUE");
    }

    #[test]
    fn document_order_preserved_across_sibling_relations() {
        // Orders and their lines interleave with other customers; ids are
        // assigned in document order so reconstruction preserves order.
        let (mut db, mapping, doc) = setup();
        shred(&mut db, &mapping, &doc).unwrap();
        let rebuilt = unshred(&mut db, &mapping).unwrap();
        let orig = xmlup_xml::serializer::to_compact_string(&doc);
        let back = xmlup_xml::serializer::to_compact_string(&rebuilt);
        assert_eq!(orig, back);
    }
}
