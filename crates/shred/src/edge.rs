//! The Edge storage mapping (paper Section 5.1, after Florescu &
//! Kossmann): every XML object becomes one tuple of a single `Edge`
//! relation. Works without a DTD, at the cost of fragmenting every
//! element across tuples — the comparison point the paper cites for why
//! inlining is preferable.
//!
//! Schema: `Edge(id, parentId, ord, kind, name, value)` where `kind` is
//! `'elem'`, `'attr'`, or `'text'`; `ord` is the position among siblings.

use crate::error::Result;
use crate::loader::{insert_rows, sql_literal};
use xmlup_rdb::{Database, Value};
use xmlup_xml::{Attr, Document, NodeId, NodeKind};

/// Name of the single edge table.
pub const EDGE_TABLE: &str = "Edge";

/// Create the `Edge` table with indexes on `id` and `parentId`.
pub fn create_schema(db: &mut Database) -> Result<()> {
    db.execute(
        "CREATE TABLE Edge (id INTEGER, parentId INTEGER, ord INTEGER,
                            kind VARCHAR(4), name TEXT, value TEXT)",
    )?;
    db.execute("CREATE INDEX idx_edge_id ON Edge (id)")?;
    db.execute("CREATE INDEX idx_edge_parent ON Edge (parentId)")?;
    Ok(())
}

/// Shred a document into the edge table. Returns tuples inserted.
pub fn shred(db: &mut Database, doc: &Document) -> Result<usize> {
    let mut rows: Vec<Vec<Value>> = Vec::new();
    walk(db, doc, doc.root(), 0, 0, &mut rows);
    let n = rows.len();
    insert_rows(db, EDGE_TABLE, rows, 256)?;
    Ok(n)
}

fn walk(
    db: &mut Database,
    doc: &Document,
    node: NodeId,
    parent_id: i64,
    ord: i64,
    rows: &mut Vec<Vec<Value>>,
) -> i64 {
    let id = db.allocate_ids(1);
    match doc.kind(node) {
        NodeKind::Text(s) => rows.push(vec![
            Value::Int(id),
            Value::Int(parent_id),
            Value::Int(ord),
            Value::from("text"),
            Value::Null,
            Value::Str(s.clone()),
        ]),
        NodeKind::Element(e) => {
            rows.push(vec![
                Value::Int(id),
                Value::Int(parent_id),
                Value::Int(ord),
                Value::from("elem"),
                Value::Str(e.name.clone()),
                Value::Null,
            ]);
            for (i, a) in e.attrs.iter().enumerate() {
                let aid = db.allocate_ids(1);
                rows.push(vec![
                    Value::Int(aid),
                    Value::Int(id),
                    Value::Int(i as i64),
                    Value::from("attr"),
                    Value::Str(a.name.clone()),
                    Value::Str(a.value.to_text()),
                ]);
            }
            for (i, &c) in e.children.iter().enumerate() {
                walk(db, doc, c, id, i as i64, rows);
            }
        }
    }
    id
}

/// Rebuild the document stored in the edge table (root = tuple with
/// `parentId = 0` and the smallest id).
pub fn unshred(db: &mut Database) -> Result<Document> {
    let rs = db.query(
        "SELECT id, parentId, ord, kind, name, value FROM Edge ORDER BY parentId, ord, id",
    )?;
    let mut doc = Document::new("__placeholder__");
    let mut by_parent: std::collections::HashMap<i64, Vec<&xmlup_rdb::Row>> =
        std::collections::HashMap::new();
    for row in &rs.rows {
        by_parent
            .entry(row[1].as_int().unwrap_or(0))
            .or_default()
            .push(row);
    }
    let roots = by_parent.get(&0).cloned().unwrap_or_default();
    let root_row = roots
        .first()
        .ok_or_else(|| crate::error::ShredError::Reconstruct("empty edge table".into()))?;
    let root = build(&mut doc, &by_parent, root_row);
    doc.replace_root(root)?;
    Ok(doc)
}

fn build(
    doc: &mut Document,
    by_parent: &std::collections::HashMap<i64, Vec<&xmlup_rdb::Row>>,
    row: &xmlup_rdb::Row,
) -> NodeId {
    let id = row[0].as_int().expect("id");
    match row[3].as_str() {
        Some("text") => doc.new_text(row[5].as_str().unwrap_or_default().to_string()),
        _ => {
            let el = doc.new_element(row[4].as_str().unwrap_or("?").to_string());
            if let Some(kids) = by_parent.get(&id) {
                for k in kids {
                    match k[3].as_str() {
                        Some("attr") => {
                            if let Some(e) = doc.element_mut(el) {
                                e.attrs.push(Attr::text(
                                    k[4].as_str().unwrap_or("?").to_string(),
                                    k[5].as_str().unwrap_or_default().to_string(),
                                ));
                            }
                        }
                        _ => {
                            let c = build(doc, by_parent, k);
                            doc.append_child(el, c).expect("fresh attach");
                        }
                    }
                }
            }
            el
        }
    }
}

/// Install the self-referential per-tuple delete trigger that cascades
/// element deletion down the edge table.
pub fn create_delete_trigger(db: &mut Database) -> Result<()> {
    db.execute(
        "CREATE TRIGGER edge_cascade AFTER DELETE ON Edge FOR EACH ROW BEGIN
            DELETE FROM Edge WHERE parentId = OLD.id;
         END",
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlup_xml::samples::CUSTOMER_XML;

    #[test]
    fn shred_and_unshred_roundtrip() {
        let doc = xmlup_xml::parse(CUSTOMER_XML).unwrap().doc;
        let mut db = Database::new();
        db.bump_next_id(1); // keep 0 as the "no parent" sentinel
        create_schema(&mut db).unwrap();
        let n = shred(&mut db, &doc).unwrap();
        assert!(n > 30, "one tuple per element/attr/text, got {n}");
        let rebuilt = unshred(&mut db).unwrap();
        assert!(doc.subtree_eq(doc.root(), &rebuilt, rebuilt.root()));
    }

    #[test]
    fn cascading_trigger_deletes_subtree() {
        let doc = xmlup_xml::parse(CUSTOMER_XML).unwrap().doc;
        let mut db = Database::new();
        db.bump_next_id(1);
        create_schema(&mut db).unwrap();
        shred(&mut db, &doc).unwrap();
        create_delete_trigger(&mut db).unwrap();
        let before = db.table("edge").unwrap().len();
        // Delete the first Customer element (a single SQL statement).
        let cust_id = db
            .query("SELECT MIN(id) FROM Edge WHERE name = 'Customer'")
            .unwrap()
            .scalar()
            .unwrap()
            .as_int()
            .unwrap();
        db.execute(&format!("DELETE FROM Edge WHERE id = {cust_id}"))
            .unwrap();
        let after = db.table("edge").unwrap().len();
        // First customer: Customer + Name(+text) + Address(+City/State+texts)
        // + 2 Orders with children — substantially more than 20 tuples.
        assert!(
            before - after > 20,
            "cascade removed {} tuples",
            before - after
        );
        // No orphans remain.
        let rs = db
            .query(
                "SELECT COUNT(*) FROM Edge WHERE parentId <> 0
                 AND parentId NOT IN (SELECT id FROM Edge)",
            )
            .unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(0)));
    }

    #[test]
    fn query_by_path_with_joins() {
        let doc = xmlup_xml::parse(CUSTOMER_XML).unwrap().doc;
        let mut db = Database::new();
        db.bump_next_id(1);
        create_schema(&mut db).unwrap();
        shred(&mut db, &doc).unwrap();
        // Names of customers with a tire order line: 4 self-joins — the
        // fragmentation cost the paper attributes to the edge approach.
        let rs = db
            .query(
                "SELECT v.value FROM Edge c, Edge n, Edge t, Edge o, Edge l, Edge i, Edge iv, Edge v
                 WHERE c.name = 'Customer'
                   AND n.parentId = c.id AND n.name = 'Name'
                   AND v.parentId = n.id AND v.kind = 'text'
                   AND o.parentId = c.id AND o.name = 'Order'
                   AND l.parentId = o.id AND l.name = 'OrderLine'
                   AND i.parentId = l.id AND i.name = 'ItemName'
                   AND iv.parentId = i.id AND iv.kind = 'text'
                   AND iv.value = 'tire'
                   AND t.id = c.id",
            )
            .unwrap();
        let mut names: Vec<&str> = rs.rows.iter().filter_map(|r| r[0].as_str()).collect();
        names.sort_unstable();
        assert_eq!(names, vec!["John", "Mary"]);
    }
}

/// Copy the subtree rooted at edge tuple `src_id` under `dst_parent_id`,
/// assigning fresh ids while preserving connectivity — the edge-store
/// analogue of the inlined mapping's complex insert (copy semantics, like
/// paper Section 6.2, but over the single fragmented relation). Returns
/// the number of tuples created.
pub fn copy_subtree(db: &mut Database, src_id: i64, dst_parent_id: i64) -> Result<usize> {
    // Breadth-first over the fragment forest, remapping ids level by
    // level. Each level is one SELECT; each tuple one INSERT (the edge
    // store has no schema to bulk-copy against, which is exactly the
    // fragmentation cost the paper attributes to this mapping).
    let mut frontier: Vec<(i64, i64)> = vec![(src_id, dst_parent_id)];
    let mut created = 0usize;
    while let Some((old_id, new_parent)) = frontier.pop() {
        let rs = db.query(&format!(
            "SELECT id, ord, kind, name, value FROM Edge WHERE id = {old_id}"
        ))?;
        let row = match rs.rows.first() {
            Some(r) => r.clone(),
            None => continue,
        };
        let new_id = db.allocate_ids(1);
        let vals = [
            xmlup_rdb::Value::Int(new_id),
            xmlup_rdb::Value::Int(new_parent),
            row[1].clone(),
            row[2].clone(),
            row[3].clone(),
            row[4].clone(),
        ];
        let rendered: Vec<String> = vals.iter().map(sql_literal).collect();
        db.execute(&format!(
            "INSERT INTO Edge VALUES ({})",
            rendered.join(", ")
        ))?;
        created += 1;
        let kids = db.query(&format!(
            "SELECT id FROM Edge WHERE parentId = {old_id} ORDER BY ord DESC, id DESC"
        ))?;
        for k in kids.rows {
            if let Some(kid) = k[0].as_int() {
                frontier.push((kid, new_id));
            }
        }
    }
    Ok(created)
}

#[cfg(test)]
mod copy_tests {
    use super::*;
    use xmlup_xml::samples::CUSTOMER_XML;

    #[test]
    fn copy_subtree_duplicates_structure() {
        let doc = xmlup_xml::parse(CUSTOMER_XML).unwrap().doc;
        let mut db = Database::new();
        db.bump_next_id(1);
        create_schema(&mut db).unwrap();
        shred(&mut db, &doc).unwrap();
        let root_id = db
            .query("SELECT MIN(id) FROM Edge WHERE name = 'CustDB'")
            .unwrap()
            .scalar()
            .unwrap()
            .as_int()
            .unwrap();
        let cust_id = db
            .query("SELECT MIN(id) FROM Edge WHERE name = 'Customer'")
            .unwrap()
            .scalar()
            .unwrap()
            .as_int()
            .unwrap();
        let before = db.table("edge").unwrap().len();
        let created = copy_subtree(&mut db, cust_id, root_id).unwrap();
        assert!(
            created > 10,
            "first customer fragment is sizable, got {created}"
        );
        assert_eq!(db.table("edge").unwrap().len(), before + created);
        // The rebuilt document now has four customers. The copy keeps the
        // source's ord (0), so it sorts directly after the original first
        // customer: [cust1, copy-of-cust1, cust2, cust3].
        let rebuilt = unshred(&mut db).unwrap();
        let kids: Vec<_> = rebuilt.children(rebuilt.root()).to_vec();
        assert_eq!(kids.len(), 4);
        assert!(rebuilt.subtree_eq(kids[0], &rebuilt, kids[1]));
    }

    #[test]
    fn copy_missing_source_is_noop() {
        let mut db = Database::new();
        db.bump_next_id(1);
        create_schema(&mut db).unwrap();
        assert_eq!(copy_subtree(&mut db, 999, 1).unwrap(), 0);
    }
}
