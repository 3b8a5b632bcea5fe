//! The four XML delete strategies of paper Section 6.1.
//!
//! A *complex* delete removes a subtree stored across multiple relations:
//! besides the target tuples, all their descendants in subsidiary tables
//! must go. The strategies differ in who propagates the cascade and in how
//! many SQL statements the application must issue:
//!
//! | strategy              | client SQL statements | cascade executed by |
//! |-----------------------|-----------------------|---------------------|
//! | per-tuple trigger     | 1                     | RDBMS, per deleted row (indexed `parentId` lookups) |
//! | per-statement trigger | 1                     | RDBMS, per statement (orphan scan of each child relation) |
//! | cascading             | 1 per relation level  | application (`NOT IN` anti-joins) |
//! | ASR                   | ~3 + 1 per level      | application via the ASR's marked paths |
//!
//! Atomicity: the multi-statement strategies (cascading, ASR) issue several
//! client statements per logical delete. [`crate::XmlRepository`] runs each
//! translated delete inside one engine transaction, so a failure at any
//! statement rolls the whole cascade back; the single-statement trigger
//! strategies already get this from statement-level atomicity (a trigger
//! body shares its statement's undo scope).

use crate::error::{CoreError, Result};
use xmlup_rdb::{Database, Value};
use xmlup_shred::{AsrIndex, Mapping};

/// Strategy selector for complex deletes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeleteStrategy {
    /// `FOR EACH ROW` triggers installed on every non-leaf relation
    /// (Section 6.1.1.1). The winner on random workloads in the paper.
    PerTupleTrigger,
    /// `FOR EACH STATEMENT` triggers deleting orphans (Section 6.1.1.1).
    /// The winner on bulk workloads.
    PerStatementTrigger,
    /// Application-level simulation of per-statement triggers
    /// (Section 6.1.2): a `NOT IN` delete per level, stopping as soon as a
    /// level removes nothing.
    Cascading,
    /// ASR-based delete with the marking scheme (Section 6.1.3).
    Asr,
}

impl DeleteStrategy {
    /// All strategies, for sweeps.
    pub const ALL: [DeleteStrategy; 4] = [
        DeleteStrategy::PerTupleTrigger,
        DeleteStrategy::PerStatementTrigger,
        DeleteStrategy::Cascading,
        DeleteStrategy::Asr,
    ];

    /// Short label used in experiment output (matches the paper's legends).
    pub fn label(self) -> &'static str {
        match self {
            DeleteStrategy::PerTupleTrigger => "per-tuple trigger",
            DeleteStrategy::PerStatementTrigger => "per-stm trigger",
            DeleteStrategy::Cascading => "cascade",
            DeleteStrategy::Asr => "asr",
        }
    }
}

/// Install the triggers a strategy needs (no-op for cascading/ASR). Call
/// once after schema creation.
pub fn install_triggers(
    db: &mut Database,
    mapping: &Mapping,
    strategy: DeleteStrategy,
) -> Result<()> {
    match strategy {
        DeleteStrategy::PerTupleTrigger => {
            for rel in &mapping.relations {
                if rel.children.is_empty() {
                    continue;
                }
                let body: Vec<String> = rel
                    .children
                    .iter()
                    .map(|&c| {
                        format!(
                            "DELETE FROM {} WHERE parentId = OLD.id;",
                            mapping.relations[c].table
                        )
                    })
                    .collect();
                db.execute(&format!(
                    "CREATE TRIGGER td_{t} AFTER DELETE ON {t} FOR EACH ROW BEGIN {b} END",
                    t = rel.table,
                    b = body.join(" ")
                ))?;
            }
        }
        DeleteStrategy::PerStatementTrigger => {
            for rel in &mapping.relations {
                if rel.children.is_empty() {
                    continue;
                }
                let body: Vec<String> = rel
                    .children
                    .iter()
                    .map(|&c| {
                        format!(
                            "DELETE FROM {} WHERE parentId NOT IN (SELECT id FROM {});",
                            mapping.relations[c].table, rel.table
                        )
                    })
                    .collect();
                db.execute(&format!(
                    "CREATE TRIGGER ts_{t} AFTER DELETE ON {t} FOR EACH STATEMENT BEGIN {b} END",
                    t = rel.table,
                    b = body.join(" ")
                ))?;
            }
        }
        DeleteStrategy::Cascading | DeleteStrategy::Asr => {}
    }
    Ok(())
}

/// Remove any triggers installed by [`install_triggers`].
pub fn remove_triggers(db: &mut Database, mapping: &Mapping) -> Result<()> {
    let names: Vec<String> = db
        .triggers()
        .iter()
        .map(|t| t.name.clone())
        .filter(|n| {
            mapping.relations.iter().any(|r| {
                n.eq_ignore_ascii_case(&format!("td_{}", r.table))
                    || n.eq_ignore_ascii_case(&format!("ts_{}", r.table))
            })
        })
        .collect();
    for n in names {
        db.execute(&format!("DROP TRIGGER {n}"))?;
    }
    Ok(())
}

/// Delete the subtrees rooted at tuples of relation `rel` that satisfy
/// `filter` (SQL over that relation's columns; `None` = all). Returns the
/// number of root tuples deleted.
pub fn delete_where(
    db: &mut Database,
    mapping: &Mapping,
    asr: Option<&AsrIndex>,
    strategy: DeleteStrategy,
    rel: usize,
    filter: Option<&str>,
) -> Result<usize> {
    delete_where_params(db, mapping, asr, strategy, rel, filter, &[])
}

/// [`delete_where`] with `?`/`$n` placeholders in the filter bound to
/// `params`. Per-tuple callers (e.g. deleting by id with `id = ?`) keep
/// the statement text constant, so every delete after the first reuses
/// the cached plan instead of re-parsing.
pub fn delete_where_params(
    db: &mut Database,
    mapping: &Mapping,
    asr: Option<&AsrIndex>,
    strategy: DeleteStrategy,
    rel: usize,
    filter: Option<&str>,
    params: &[Value],
) -> Result<usize> {
    let table = &mapping.relations[rel].table;
    let where_clause = filter.map(|f| format!(" WHERE {f}")).unwrap_or_default();
    match strategy {
        // A single SQL statement; the RDBMS cascades.
        DeleteStrategy::PerTupleTrigger | DeleteStrategy::PerStatementTrigger => {
            let stmt = db.prepare(&format!("DELETE FROM {table}{where_clause}"))?;
            let n = db.execute_prepared(&stmt, params)?.affected();
            Ok(n)
        }
        DeleteStrategy::Cascading => {
            let stmt = db.prepare(&format!("DELETE FROM {table}{where_clause}"))?;
            let n = db.execute_prepared(&stmt, params)?.affected();
            // Orphan deletes, level by level; a branch stops as soon as a
            // delete removes nothing (paper Section 6.1.2).
            cascade_children(db, mapping, rel)?;
            Ok(n)
        }
        DeleteStrategy::Asr => {
            let asr = asr.ok_or_else(|| {
                CoreError::Strategy("ASR delete requires a built ASR index".into())
            })?;
            delete_via_asr(db, mapping, asr, rel, filter, params)
        }
    }
}

fn cascade_children(db: &mut Database, mapping: &Mapping, rel: usize) -> Result<()> {
    for &c in &mapping.relations[rel].children.clone() {
        let n = db
            .execute(&format!(
                "DELETE FROM {} WHERE parentId NOT IN (SELECT id FROM {})",
                mapping.relations[c].table, mapping.relations[rel].table
            ))?
            .affected();
        if n > 0 {
            cascade_children(db, mapping, c)?;
        }
    }
    Ok(())
}

fn delete_via_asr(
    db: &mut Database,
    mapping: &Mapping,
    asr: &AsrIndex,
    rel: usize,
    filter: Option<&str>,
    params: &[Value],
) -> Result<usize> {
    let table = &mapping.relations[rel].table;
    let col = asr
        .column_of(rel)
        .ok_or_else(|| CoreError::Strategy(format!("relation {table} not covered by ASR")))?;
    let id_col = &asr.id_columns[col];
    let where_clause = filter.map(|f| format!(" WHERE {f}")).unwrap_or_default();
    // 1. Mark every path through a deleted root. The filter (and its
    //    parameters) only appears here; the remaining steps have constant
    //    statement text per relation and hit the plan cache on their own,
    //    DDL in between or not.
    let mark = db.prepare(&format!(
        "UPDATE {a} SET mark = TRUE WHERE {id_col} IN (SELECT id FROM {table}{where_clause})",
        a = asr.table
    ))?;
    db.execute_prepared(&mark, params)?;
    // 2. Delete descendants per level, ids obtained from marked paths.
    for &d in mapping.subtree(rel).iter().skip(1) {
        let dcol = &asr.id_columns[asr.column_of(d).expect("subtree covered")];
        db.execute(&format!(
            "DELETE FROM {} WHERE id IN (SELECT {dcol} FROM {} WHERE mark = TRUE)",
            mapping.relations[d].table, asr.table
        ))?;
    }
    // 3. Delete the roots themselves — by the ids recorded in the marked
    //    paths, not by re-running the filter: a filter that references
    //    descendants (e.g. a child-relation predicate) would no longer
    //    match after step 2 removed those descendants.
    let n = db
        .execute(&format!(
            "DELETE FROM {table} WHERE id IN (SELECT {id_col} FROM {} WHERE mark = TRUE)",
            asr.table
        ))?
        .affected();
    // 4. ASR maintenance: drop the marked paths, then re-insert truncated
    //    (left-complete) paths for ancestors that lost their only path.
    db.execute(&format!("DELETE FROM {} WHERE mark = TRUE", asr.table))?;
    if mapping.relations[rel].parent.is_some() {
        // Ancestor chain root → parent.
        let chain = mapping.ancestor_chain(rel);
        let cols: Vec<String> = chain
            .iter()
            .map(|&r| asr.id_columns[asr.column_of(r).expect("covered")].clone())
            .collect();
        let froms: Vec<String> = chain
            .iter()
            .enumerate()
            .map(|(i, &r)| format!("{} T{i}", mapping.relations[r].table))
            .collect();
        let mut conds: Vec<String> = (1..chain.len())
            .map(|i| format!("T{i}.parentId = T{}.id", i - 1))
            .collect();
        let last = chain.len() - 1;
        let pcol = &cols[last];
        conds.push(format!(
            "T{last}.id NOT IN (SELECT {pcol} FROM {} WHERE {pcol} IS NOT NULL)",
            asr.table
        ));
        let selects: Vec<String> = (0..chain.len()).map(|i| format!("T{i}.id")).collect();
        db.execute(&format!(
            "INSERT INTO {} ({}, mark) SELECT {}, FALSE FROM {} WHERE {}",
            asr.table,
            cols.join(", "),
            selects.join(", "),
            froms.join(", "),
            conds.join(" AND ")
        ))?;
    }
    Ok(n)
}

/// A *simple* delete (Section 6.1): removing an inlined item is a single
/// `UPDATE` setting its column(s) to NULL — plus the presence flag when
/// the inlined element is non-leaf.
pub fn delete_inlined(
    db: &mut Database,
    mapping: &Mapping,
    rel: usize,
    inlined_path: &[String],
    filter: Option<&str>,
) -> Result<usize> {
    let relation = &mapping.relations[rel];
    let mut sets: Vec<String> = Vec::new();
    for col in &relation.columns {
        let covered = col.path.len() >= inlined_path.len()
            && col.path[..inlined_path.len()] == inlined_path[..];
        if covered {
            match col.kind {
                xmlup_shred::ColumnKind::Presence => sets.push(format!("{} = FALSE", col.name)),
                _ => sets.push(format!("{} = NULL", col.name)),
            }
        }
    }
    if sets.is_empty() {
        return Err(CoreError::Path(format!(
            "no inlined columns under path {inlined_path:?} in {}",
            relation.table
        )));
    }
    let where_clause = filter.map(|f| format!(" WHERE {f}")).unwrap_or_default();
    let n = db
        .execute(&format!(
            "UPDATE {} SET {}{where_clause}",
            relation.table,
            sets.join(", ")
        ))?
        .affected();
    Ok(n)
}
