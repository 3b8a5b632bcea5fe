//! The Sorted Outer Union method (paper Section 5.2, after
//! Shanmugasundaram et al., VLDB '00): return an XML subtree stored across
//! multiple relations as a single sorted tuple stream, then reassemble it.
//!
//! The generated query has exactly the shape of the paper's Figure 5: one
//! `WITH` subquery per relation level, a wide NULL-padded tuple whose
//! child rows carry only their ancestors' *key* columns, `UNION ALL` over
//! the levels, and an `ORDER BY` over the id columns so every parent tuple
//! precedes its children and children of different parents are not
//! intermixed (NULLs sort first in this engine).

use crate::error::{Result, ShredError};
use crate::inline::Mapping;
use crate::loader::build_element;
use xmlup_rdb::{Database, ResultSet, Value};
use xmlup_xml::{Document, NodeId};

/// Layout of the wide outer-union tuple for a subtree of relations.
#[derive(Debug, Clone)]
pub struct OuterUnionPlan {
    /// Relations of the subtree, pre-order; entry 0 is the subtree root.
    pub relations: Vec<usize>,
    /// For each relation (same order): offset of its id column in the wide
    /// tuple. Data columns follow the id column.
    pub id_offsets: Vec<usize>,
    /// Total width of the wide tuple.
    pub width: usize,
    /// The SQL text.
    pub sql: String,
}

/// Build the Sorted Outer Union query for the subtree of `mapping` rooted
/// at relation `root_rel`, selecting root tuples that satisfy `filter`
/// (a SQL boolean expression over the root relation's columns, e.g.
/// `Name = 'John'`; `None` selects all).
pub fn plan(mapping: &Mapping, root_rel: usize, filter: Option<&str>) -> OuterUnionPlan {
    let relations = mapping.subtree(root_rel);
    // Wide layout: for each relation, [id, data columns…].
    let mut id_offsets = Vec::with_capacity(relations.len());
    let mut width = 0usize;
    for &r in &relations {
        id_offsets.push(width);
        width += 1 + mapping.relations[r].columns.len();
    }
    let col_names: Vec<String> = (1..=width).map(|i| format!("C{i}")).collect();

    // One CTE per relation. Q1 selects the roots (with the filter); each
    // child CTE joins its parent's CTE on parentId, carrying ancestor id
    // columns only.
    let mut ctes: Vec<String> = Vec::new();
    for (qi, &r) in relations.iter().enumerate() {
        let rel = &mapping.relations[r];
        let mut select: Vec<String> = vec!["NULL".to_string(); width];
        let own_off = id_offsets[qi];
        select[own_off] = "T.id".into();
        for (ci, col) in rel.columns.iter().enumerate() {
            select[own_off + 1 + ci] = format!("T.{}", col.name);
        }
        let body = if qi == 0 {
            let where_clause = match filter {
                Some(f) => format!(" WHERE {f}"),
                None => String::new(),
            };
            format!(
                "SELECT {} FROM {} T{}",
                select.join(", "),
                rel.table,
                where_clause
            )
        } else {
            // Parent CTE index within the subtree listing.
            let parent_rel = rel.parent.expect("non-root relation has a parent");
            let pq = relations
                .iter()
                .position(|&x| x == parent_rel)
                .expect("parent inside subtree");
            // Carry every ancestor id from the parent CTE.
            let mut cur = qi;
            loop {
                let prel = mapping.relations[relations[cur]].parent;
                match prel.and_then(|p| relations.iter().position(|&x| x == p)) {
                    Some(anc) => {
                        select[id_offsets[anc]] = format!("P.C{}", id_offsets[anc] + 1);
                        cur = anc;
                    }
                    None => break,
                }
            }
            format!(
                "SELECT {} FROM Q{} P, {} T WHERE T.parentId = P.C{}",
                select.join(", "),
                pq + 1,
                rel.table,
                id_offsets[pq] + 1
            )
        };
        ctes.push(format!(
            "Q{}({}) AS ({})",
            qi + 1,
            col_names.join(", "),
            body
        ));
    }
    let unions: Vec<String> = (1..=relations.len())
        .map(|i| format!("(SELECT * FROM Q{i})"))
        .collect();
    let order: Vec<String> = id_offsets.iter().map(|o| format!("C{}", o + 1)).collect();
    let sql = format!(
        "WITH {} {} ORDER BY {}",
        ctes.join(", "),
        unions.join(" UNION ALL "),
        order.join(", ")
    );
    OuterUnionPlan {
        relations,
        id_offsets,
        width,
        sql,
    }
}

/// Execute an outer-union plan. The query is prepared against the
/// engine's plan cache, so repeat executions of the same query text skip
/// re-parsing the (large) Figure 5 query, DDL in between or not. A root
/// filter that splices a literal makes one text per literal; bind it with
/// [`execute_params`] to share one.
pub fn execute(db: &mut Database, p: &OuterUnionPlan) -> Result<ResultSet> {
    execute_params(db, p, &[])
}

/// Execute an outer-union plan whose root filter contains `?`/`$n`
/// placeholders (e.g. a plan built with `filter = Some("id = ?")`),
/// binding `params` to them. Lets per-subtree fetch loops reuse one
/// compiled plan across ids instead of parsing a fresh query per id.
pub fn execute_params(
    db: &mut Database,
    p: &OuterUnionPlan,
    params: &[Value],
) -> Result<ResultSet> {
    let stmt = db.prepare(&p.sql)?;
    Ok(db.query_prepared(&stmt, params)?)
}

/// Reassemble the sorted tuple stream into detached XML subtrees inside
/// `doc` — one per selected root tuple. Also returns, for each constructed
/// element, its originating tuple id (useful for id remapping).
pub fn reassemble(
    doc: &mut Document,
    mapping: &Mapping,
    p: &OuterUnionPlan,
    rs: &ResultSet,
) -> Result<Vec<NodeId>> {
    if rs.columns.len() != p.width {
        return Err(ShredError::Reconstruct(format!(
            "outer union width mismatch: {} vs {}",
            rs.columns.len(),
            p.width
        )));
    }
    let mut roots = Vec::new();
    // Open element per level: (tuple id, node).
    let mut open: Vec<Option<(i64, NodeId)>> = vec![None; p.relations.len()];
    // Ordered mappings: remember each constructed node's pos_ value and
    // which parents gained children, to restore document order afterwards.
    let mut pos_of: std::collections::HashMap<NodeId, i64> = std::collections::HashMap::new();
    let mut parents: Vec<NodeId> = Vec::new();
    for row in &rs.rows {
        // The row's level is the deepest relation whose own id column is
        // non-NULL and whose ancestor keys match; since children carry only
        // ancestor keys, that is simply the *last* non-null id column.
        let mut level = None;
        for (li, &off) in p.id_offsets.iter().enumerate() {
            if !row[off].is_null() {
                level = Some(li);
            }
        }
        let level =
            level.ok_or_else(|| ShredError::Reconstruct("row with no id columns set".into()))?;
        let off = p.id_offsets[level];
        let id = row[off]
            .as_int()
            .ok_or_else(|| ShredError::Reconstruct(format!("non-integer id {:?}", row[off])))?;
        let rel = &mapping.relations[p.relations[level]];
        let data = &row[off + 1..off + 1 + rel.columns.len()];
        let el = build_element(doc, rel, data)?;
        if mapping.ordered {
            if let Some(pi) = rel.find_column(&[], &crate::inline::ColumnKind::Position) {
                if let Some(pos) = data[pi].as_int() {
                    pos_of.insert(el, pos);
                }
            }
        }
        if level == 0 {
            roots.push(el);
        } else {
            // Parent level: the relation-tree parent of this level.
            let parent_rel = rel.parent.expect("child level has parent");
            let plevel = p
                .relations
                .iter()
                .position(|&r| r == parent_rel)
                .expect("parent in plan");
            let (pid, pnode) = open[plevel].ok_or_else(|| {
                ShredError::Reconstruct("child row arrived before its parent".into())
            })?;
            let expected = row[p.id_offsets[plevel]].as_int();
            if expected != Some(pid) {
                return Err(ShredError::Reconstruct(format!(
                    "child row parent key {expected:?} does not match open parent {pid}"
                )));
            }
            doc.append_child(pnode, el)?;
            if mapping.ordered {
                parents.push(pnode);
            }
        }
        open[level] = Some((id, el));
        for o in open.iter_mut().skip(level + 1) {
            *o = None;
        }
    }
    if mapping.ordered {
        parents.sort_unstable();
        parents.dedup();
        for pnode in parents {
            if let Some(e) = doc.element_mut(pnode) {
                // Stable sort: children without a pos (the tuple's own
                // inlined content) keep their places ahead of positioned
                // relation children.
                let mut kids = e.children.clone();
                kids.sort_by_key(|c| pos_of.get(c).copied().unwrap_or(i64::MIN));
                e.children = kids;
            }
        }
    }
    Ok(roots)
}

/// Convenience: run the outer union for `root_rel` and return the rebuilt
/// subtrees as detached elements of a fresh document (plus the document).
pub fn fetch_subtrees(
    db: &mut Database,
    mapping: &Mapping,
    root_rel: usize,
    filter: Option<&str>,
) -> Result<(Document, Vec<NodeId>)> {
    fetch_subtrees_params(db, mapping, root_rel, filter, &[])
}

/// [`fetch_subtrees`] with `?`/`$n` placeholders in the filter bound to
/// `params` — e.g. `filter = Some("id = ?")` fetches one subtree per call
/// while reusing a single compiled outer-union plan across ids.
pub fn fetch_subtrees_params(
    db: &mut Database,
    mapping: &Mapping,
    root_rel: usize,
    filter: Option<&str>,
    params: &[Value],
) -> Result<(Document, Vec<NodeId>)> {
    let p = plan(mapping, root_rel, filter);
    let rs = execute_params(db, &p, params)?;
    let mut doc = Document::new("__results__");
    let roots = reassemble(&mut doc, mapping, &p, &rs)?;
    Ok((doc, roots))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::{create_schema, shred};
    use xmlup_xml::dtd::Dtd;
    use xmlup_xml::samples::{CUSTOMER_DTD, CUSTOMER_XML};

    fn setup() -> (Database, Mapping, Document) {
        let dtd = Dtd::parse(CUSTOMER_DTD).unwrap();
        let mapping = Mapping::from_dtd(&dtd, "CustDB").unwrap();
        let doc = xmlup_xml::parse(CUSTOMER_XML).unwrap().doc;
        let mut db = Database::new();
        create_schema(&mut db, &mapping).unwrap();
        shred(&mut db, &mapping, &doc).unwrap();
        (db, mapping, doc)
    }

    #[test]
    fn sql_has_figure5_shape() {
        let (_, mapping, _) = setup();
        let cust = mapping.relation_by_element("Customer").unwrap();
        let p = plan(&mapping, cust, Some("Name = 'John'"));
        assert!(p.sql.starts_with("WITH Q1("));
        assert!(p.sql.contains("UNION ALL"));
        assert!(p.sql.contains("WHERE Name = 'John'"));
        assert!(p.sql.contains("ORDER BY"));
        // Three levels: Customer, Order, OrderLine.
        assert_eq!(p.relations.len(), 3);
        assert!(p.sql.contains("Q3"));
    }

    #[test]
    fn returns_customer_john_example6() {
        let (mut db, mapping, _) = setup();
        let cust = mapping.relation_by_element("Customer").unwrap();
        let (doc, roots) = fetch_subtrees(&mut db, &mapping, cust, Some("Name = 'John'")).unwrap();
        assert_eq!(roots.len(), 2);
        // First John: 2 orders with 2+1 lines.
        let orders: Vec<_> = doc
            .children(roots[0])
            .iter()
            .filter(|&&c| doc.name(c) == Some("Order"))
            .copied()
            .collect();
        assert_eq!(orders.len(), 2);
        let lines = doc
            .children(orders[0])
            .iter()
            .filter(|&&c| doc.name(c) == Some("OrderLine"))
            .count();
        assert_eq!(lines, 2);
        // Inlined values reconstructed.
        let name = doc.children(roots[0])[0];
        assert_eq!(doc.name(name), Some("Name"));
        assert_eq!(doc.string_value(name), "John");
        // Second John has no orders.
        assert!(doc
            .children(roots[1])
            .iter()
            .all(|&c| doc.name(c) != Some("Order")));
    }

    #[test]
    fn whole_document_roundtrip_through_outer_union() {
        let (mut db, mapping, orig) = setup();
        let (doc, roots) = fetch_subtrees(&mut db, &mapping, mapping.root(), None).unwrap();
        assert_eq!(roots.len(), 1);
        assert!(orig.subtree_eq(orig.root(), &doc, roots[0]));
    }

    #[test]
    fn filter_selecting_nothing_returns_empty() {
        let (mut db, mapping, _) = setup();
        let cust = mapping.relation_by_element("Customer").unwrap();
        let (_, roots) = fetch_subtrees(&mut db, &mapping, cust, Some("Name = 'Nobody'")).unwrap();
        assert!(roots.is_empty());
    }

    #[test]
    fn subtree_from_middle_level() {
        let (mut db, mapping, _) = setup();
        let order = mapping.relation_by_element("Order").unwrap();
        let (doc, roots) =
            fetch_subtrees(&mut db, &mapping, order, Some("Status = 'ready'")).unwrap();
        assert_eq!(roots.len(), 2);
        for r in roots {
            assert_eq!(doc.name(r), Some("Order"));
            assert!(doc
                .children(r)
                .iter()
                .any(|&c| doc.name(c) == Some("OrderLine")));
        }
    }
}
