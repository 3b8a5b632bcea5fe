//! `XmlRepository`: the paper's middleware — an XML store whose documents
//! live shredded in the relational engine, with pluggable delete/insert
//! strategies and XQuery update execution.

use crate::delete::{self, DeleteStrategy};
use crate::error::{CoreError, Result};
use crate::insert::{self, InsertStrategy};
use crate::translate::{self, TranslatedOp};
use xmlup_rdb::{BackendKind, Database, Span, Stats, StorageConfig, Value};
use xmlup_shred::{loader, outer_union, AsrIndex, Mapping};
use xmlup_xml::dtd::Dtd;
use xmlup_xml::{Document, NodeId};
use xmlup_xquery::parse_statement;

/// Repository configuration.
#[derive(Debug, Clone, Copy)]
pub struct RepoConfig {
    /// Strategy for complex deletes.
    pub delete_strategy: DeleteStrategy,
    /// Strategy for complex inserts.
    pub insert_strategy: InsertStrategy,
    /// Build (and maintain) the Access Support Relation. Forced on when
    /// either strategy is ASR-based.
    pub build_asr: bool,
    /// Simulated per-client-statement overhead in microseconds (the
    /// JDBC round-trip + SQL compilation cost of the paper's DB2 setup).
    /// Zero disables the simulation; the benchmark harness enables it so
    /// statement-count trade-offs behave as they did against a real
    /// client/server RDBMS. See DESIGN.md.
    pub statement_cost_us: u64,
    /// Maximum rows folded into one translated SQL statement: multi-row
    /// `INSERT ... VALUES (...), (...)` and `DELETE ... WHERE id IN (...)`
    /// chunks. `1` reproduces the paper's one-statement-per-tuple
    /// translation; larger windows amortize the per-statement cost that
    /// dominates §6's tuple-binding numbers.
    pub batch_size: usize,
    /// Storage backend for durable repositories: heap tables serialized
    /// as a full snapshot per checkpoint (`Memory`, the default) or the
    /// paged B-tree store with incremental checkpoints (`Paged`).
    /// Ignored by in-memory constructors ([`XmlRepository::new`]).
    pub backend: BackendKind,
    /// Buffer-pool frame budget for the paged backend (pages held in
    /// memory at once). Ignored by the memory backend.
    pub pool_frames: usize,
}

impl Default for RepoConfig {
    fn default() -> Self {
        RepoConfig {
            delete_strategy: DeleteStrategy::PerTupleTrigger,
            insert_strategy: InsertStrategy::Table,
            build_asr: false,
            statement_cost_us: 0,
            batch_size: 256,
            backend: BackendKind::Memory,
            pool_frames: 1024,
        }
    }
}

impl RepoConfig {
    /// Whether the configuration needs an ASR.
    pub fn needs_asr(&self) -> bool {
        self.build_asr
            || self.delete_strategy == DeleteStrategy::Asr
            || self.insert_strategy == InsertStrategy::Asr
    }
}

/// An XML repository over the relational engine.
#[derive(Debug)]
pub struct XmlRepository {
    /// The relational store (public for inspection and experiments).
    pub db: Database,
    /// The inlining mapping.
    pub mapping: Mapping,
    /// The ASR, when configured.
    pub asr: Option<AsrIndex>,
    config: RepoConfig,
}

impl XmlRepository {
    /// Create a repository for documents conforming to `dtd` with the
    /// given root element: builds the schema, installs the strategy's
    /// triggers.
    pub fn new(dtd: &Dtd, root: &str, config: RepoConfig) -> Result<Self> {
        Self::with_mapping(Mapping::from_dtd(dtd, root)?, config)
    }

    /// Like [`XmlRepository::new`] but with the order-preserving mapping
    /// (`pos_` columns + gap-based positional inserts; the paper's
    /// Section 8 extension).
    pub fn new_ordered(dtd: &Dtd, root: &str, config: RepoConfig) -> Result<Self> {
        Self::with_mapping(Mapping::from_dtd_ordered(dtd, root)?, config)
    }

    /// Build a repository over an already-constructed mapping.
    pub fn with_mapping(mapping: Mapping, config: RepoConfig) -> Result<Self> {
        let mut db = Database::new();
        db.set_statement_cost(std::time::Duration::from_micros(config.statement_cost_us));
        loader::create_schema(&mut db, &mapping)?;
        delete::install_triggers(&mut db, &mapping, config.delete_strategy)?;
        Ok(XmlRepository {
            db,
            mapping,
            asr: None,
            config,
        })
    }

    /// Open (or create) a durable repository rooted at `path`: the
    /// relational store lives on disk behind a write-ahead log (see
    /// [`Database::open`]). A fresh directory gets the schema and the
    /// strategy's triggers; an existing one is crash-recovered to its
    /// last committed state — snapshot and WAL already carry the schema,
    /// triggers, data, and id counter, so nothing is re-created, and a
    /// previously built ASR is reattached rather than rebuilt.
    pub fn open_durable(
        path: impl AsRef<std::path::Path>,
        mapping: Mapping,
        config: RepoConfig,
    ) -> Result<Self> {
        let storage = StorageConfig {
            backend: config.backend,
            pool_frames: config.pool_frames,
        };
        let mut db = Database::open_with(path, storage)?;
        db.set_statement_cost(std::time::Duration::from_micros(config.statement_cost_us));
        if db.table_names().is_empty() {
            loader::create_schema(&mut db, &mapping)?;
            delete::install_triggers(&mut db, &mapping, config.delete_strategy)?;
        }
        let asr = if config.needs_asr() && db.table("ASR").is_some() {
            Some(AsrIndex::attach(&mapping))
        } else {
            None
        };
        Ok(XmlRepository {
            db,
            mapping,
            asr,
            config,
        })
    }

    /// Checkpoint the underlying durable store: write a full snapshot
    /// and truncate the write-ahead log. Errors on a non-durable
    /// repository or inside an open transaction.
    pub fn checkpoint(&mut self) -> Result<()> {
        Ok(self.db.checkpoint()?)
    }

    /// Flush and fsync the WAL, then close the store. A no-op beyond
    /// dropping for an in-memory repository. Crash recovery does not
    /// require this — dropping the repository is equivalent to a kill,
    /// and committed state survives either way — but a clean close
    /// surfaces any deferred I/O error instead of swallowing it.
    pub fn close_durable(self) -> Result<()> {
        Ok(self.db.close()?)
    }

    /// Run `f` as one transaction against the store — the paper
    /// Section 3 atomicity guarantee for a translated update: either
    /// every SQL statement the operation issued (triggers included)
    /// commits, or a mid-operation error rolls the store back to its
    /// byte-identical pre-operation state. When a transaction is already
    /// open (e.g. a multi-operation `UPDATE { … }` block wrapping
    /// several sub-operations), the outer transaction owns atomicity and
    /// `f` runs inside it unchanged.
    pub fn in_transaction<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.atomically(f)
    }

    /// [`XmlRepository::in_transaction`]'s internal twin (kept private so
    /// doc links on the public name stay the single entry point).
    fn atomically<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.db.in_transaction() {
            return f(self);
        }
        self.db.begin()?;
        match f(self) {
            Ok(v) => {
                self.db.commit()?;
                Ok(v)
            }
            Err(e) => {
                // Restore the pre-operation state; surface the original
                // error, not any rollback-side problem.
                let _ = self.db.rollback();
                Err(e)
            }
        }
    }

    /// Positional insert of a new child tuple (order-preserving mappings
    /// only); see [`crate::ordered`]. Atomic: the position probe, any
    /// gap-exhaustion renumbering, and the insert commit or roll back
    /// together.
    pub fn insert_tuple_at(
        &mut self,
        rel: usize,
        parent_id: i64,
        values: &[(String, Value)],
        at: crate::ordered::InsertAt,
    ) -> Result<crate::ordered::PositionalInsert> {
        self.atomically(|r| {
            crate::ordered::insert_tuple_at(&mut r.db, &r.mapping, rel, parent_id, values, at)
        })
    }

    /// The active configuration.
    pub fn config(&self) -> RepoConfig {
        self.config
    }

    /// Shred a document into the store (building the ASR afterwards when
    /// configured). Returns tuples inserted. Atomic: a failed load (bad
    /// document mid-shred) leaves the store as it was.
    pub fn load(&mut self, doc: &Document) -> Result<usize> {
        self.atomically(|r| {
            let shred_span = Span::enter("shred.emit");
            let n = loader::shred(&mut r.db, &r.mapping, doc)?;
            drop(shred_span);
            if r.config.needs_asr() && r.asr.is_none() {
                r.asr = Some(AsrIndex::build(&mut r.db, &r.mapping)?);
            } else if let Some(asr) = &r.asr {
                asr.populate(&mut r.db, &r.mapping)?;
            }
            Ok(n)
        })
    }

    /// Execution statistics of the underlying engine.
    pub fn stats(&self) -> Stats {
        self.db.stats()
    }

    /// Reset the engine's statistics counters.
    pub fn reset_stats(&mut self) {
        self.db.reset_stats();
    }

    /// The engine's metrics registry rendered in the Prometheus text
    /// exposition format (see [`Database::metrics_text`]). For a
    /// crash-recovered repository this includes the recovery series
    /// (`rdb_recovered_txns_total`, `rdb_wal_replayed_bytes_total`,
    /// `rdb_recovery_micros_total`).
    pub fn metrics_text(&self) -> String {
        self.db.metrics_text()
    }

    /// Total live tuples across the mapping's tables (Table 1's
    /// "data size" metric).
    pub fn tuple_count(&self) -> usize {
        self.mapping
            .relations
            .iter()
            .filter_map(|r| self.db.table(&r.table).map(|t| t.len()))
            .sum()
    }

    /// Ids of all tuples of `rel` (sorted).
    pub fn ids_of(&self, rel: usize) -> Vec<i64> {
        let mut ids: Vec<i64> = self
            .db
            .table(&self.mapping.relations[rel].table)
            .map(|t| t.rows().filter_map(|r| r[0].as_int()).collect())
            .unwrap_or_default();
        ids.sort_unstable();
        ids
    }

    /// Id of the document root tuple.
    pub fn root_id(&self) -> Result<i64> {
        self.ids_of(self.mapping.root())
            .first()
            .copied()
            .ok_or_else(|| CoreError::Strategy("repository is empty".into()))
    }

    // ------------------------------------------------------------------
    // direct (pre-translated) operations
    // ------------------------------------------------------------------

    /// Complex delete: remove subtrees of `rel` matching `filter`.
    pub fn delete_where(&mut self, rel: usize, filter: Option<&str>) -> Result<usize> {
        self.delete_where_params(rel, filter, &[])
    }

    /// [`XmlRepository::delete_where`] with `?`/`$n` placeholders in the
    /// filter bound to `params`.
    ///
    /// The whole delete — trigger cascades, the cascading strategy's
    /// per-level statements, ASR maintenance — executes as one
    /// transaction: a mid-delete error restores the pre-delete state.
    pub fn delete_where_params(
        &mut self,
        rel: usize,
        filter: Option<&str>,
        params: &[Value],
    ) -> Result<usize> {
        self.atomically(|r| {
            let n = delete::delete_where_params(
                &mut r.db,
                &r.mapping,
                r.asr.as_ref(),
                r.config.delete_strategy,
                rel,
                filter,
                params,
            )?;
            // The ASR strategy maintains the index incrementally; any other
            // strategy leaves a built ASR stale — refresh it so ASR-accelerated
            // queries keep answering correctly.
            if n > 0 && r.config.delete_strategy != DeleteStrategy::Asr {
                if let Some(asr) = &r.asr {
                    asr.populate(&mut r.db, &r.mapping)?;
                }
            }
            Ok(n)
        })
    }

    /// Complex delete of one subtree by id. Parameterized (`id = ?`), so
    /// a loop of per-tuple deletes parses each statement shape once.
    pub fn delete_by_id(&mut self, rel: usize, id: i64) -> Result<usize> {
        self.delete_where_params(rel, Some("id = ?"), &[Value::Int(id)])
    }

    /// Batched complex delete: remove the subtrees of `rel` rooted at
    /// `ids`, folding up to [`RepoConfig::batch_size`] roots into each
    /// `DELETE ... WHERE id IN (...)` statement instead of issuing one
    /// statement per root. Atomic across all chunks. Equivalent to a
    /// `delete_by_id` loop when the target subtrees are disjoint (the
    /// roots sort within each chunk, so FOR EACH ROW triggers fire in id
    /// order); overlapping targets are deleted once rather than erroring
    /// per-root. Returns subtree roots removed.
    pub fn delete_by_ids(&mut self, rel: usize, ids: &[i64]) -> Result<usize> {
        if ids.is_empty() {
            return Ok(0);
        }
        let batch = self.config.batch_size.max(1);
        self.atomically(|r| {
            let mut n = 0;
            for chunk in ids.chunks(batch) {
                // Placeholders, not literals: every full chunk shares one
                // statement text (`id IN (?, …)` of width `batch`), so the
                // whole workload parses each shape once — the prepared-
                // statement discipline of the per-tuple path, kept under
                // batching.
                let marks = vec!["?"; chunk.len()].join(", ");
                let params: Vec<Value> = chunk.iter().map(|&id| Value::Int(id)).collect();
                n += r.delete_where_params(rel, Some(&format!("id IN ({marks})")), &params)?;
            }
            Ok(n)
        })
    }

    /// Complex insert: copy the subtree at (`rel`, `src_id`) under
    /// `dst_parent_id`. Returns tuples created.
    ///
    /// Atomic: the table-based strategy's temporary tables (DDL), the
    /// per-level load statements, id allocation, and ASR maintenance
    /// all commit or roll back as one unit.
    pub fn copy_subtree(&mut self, rel: usize, src_id: i64, dst_parent_id: i64) -> Result<usize> {
        self.atomically(|r| {
            let n = insert::copy_subtree(
                &mut r.db,
                &r.mapping,
                r.asr.as_ref(),
                r.config.insert_strategy,
                rel,
                src_id,
                dst_parent_id,
                r.config.batch_size,
            )?;
            if n > 0 && r.config.insert_strategy != InsertStrategy::Asr {
                if let Some(asr) = &r.asr {
                    asr.populate(&mut r.db, &r.mapping)?;
                }
            }
            Ok(n)
        })
    }

    /// Fetch subtrees of `rel` matching `filter` via the Sorted Outer
    /// Union, reconstructed as XML.
    pub fn fetch(&mut self, rel: usize, filter: Option<&str>) -> Result<(Document, Vec<NodeId>)> {
        Ok(outer_union::fetch_subtrees(
            &mut self.db,
            &self.mapping,
            rel,
            filter,
        )?)
    }

    /// [`XmlRepository::fetch`] with `?`/`$n` placeholders in the filter
    /// bound to `params`.
    pub fn fetch_params(
        &mut self,
        rel: usize,
        filter: Option<&str>,
        params: &[Value],
    ) -> Result<(Document, Vec<NodeId>)> {
        Ok(outer_union::fetch_subtrees_params(
            &mut self.db,
            &self.mapping,
            rel,
            filter,
            params,
        )?)
    }

    /// Evaluate a path query (`FOR`/`WHERE`/`RETURN`) and return the
    /// matching subtrees as XML. Uses the ASR to skip intermediate joins
    /// when one is available and the path is covered (Section 5.3).
    pub fn query_xml(&mut self, statement: &str) -> Result<(Document, Vec<NodeId>)> {
        let parse_span = Span::enter("xquery.parse");
        let stmt = parse_statement(statement)?;
        drop(parse_span);
        let translate_span = Span::enter("xquery.translate");
        let q = translate::translate_query(&stmt, &self.mapping)?;
        let filter = translate::query_filter_sql(&q, &self.mapping, self.asr.as_ref())?;
        drop(translate_span);
        self.fetch(q.rel, filter.as_deref())
    }

    // ------------------------------------------------------------------
    // XQuery execution
    // ------------------------------------------------------------------

    /// Parse, translate, and execute an XQuery update statement against
    /// the relational store. Returns the number of affected root objects.
    ///
    /// Multi-operation statements (several sub-ops, or nested Sub-Updates)
    /// run with **bind-first** semantics, exactly as paper Section 6.3
    /// prescribes: all target bindings are computed with queries *before*
    /// any sub-operation executes, so an earlier operation cannot disturb
    /// a later operation's selection (the Example 8 ordering hazard).
    ///
    /// The whole statement is one transaction: bindings are computed
    /// over the pre-update snapshot, and if any sub-operation fails the
    /// store rolls back to that snapshot (no half-applied update block).
    pub fn execute_xquery(&mut self, statement: &str) -> Result<usize> {
        let parse_span = Span::enter("xquery.parse");
        let stmt = parse_statement(statement)?;
        drop(parse_span);
        let translate_span = Span::enter("xquery.translate");
        let ops = translate::translate_update(&stmt, &self.mapping)?;
        drop(translate_span);
        if ops.len() == 1 {
            // Simple statements translate to direct SQL (Section 6.1/6.2).
            return self.execute_translated(&ops[0]);
        }
        self.atomically(|r| {
            let bound: Vec<BoundOp> = ops.iter().map(|op| r.bind_op(op)).collect::<Result<_>>()?;
            let mut affected = 0;
            for b in bound {
                affected += r.exec_bound(b)?;
            }
            Ok(affected)
        })
    }

    /// Ids of `rel` tuples matching a translated filter.
    fn bind_ids(&mut self, rel: usize, filter: &Option<String>) -> Result<Vec<i64>> {
        let table = &self.mapping.relations[rel].table;
        let wc = filter
            .as_deref()
            .map(|f| format!(" WHERE {f}"))
            .unwrap_or_default();
        Ok(self
            .db
            .query(&format!("SELECT id FROM {table}{wc} ORDER BY id"))?
            .rows
            .iter()
            .filter_map(|r| r[0].as_int())
            .collect())
    }

    fn bind_op(&mut self, op: &TranslatedOp) -> Result<BoundOp> {
        Ok(match op {
            TranslatedOp::DeleteSubtrees { rel, filter } => BoundOp::DeleteSubtrees {
                rel: *rel,
                ids: self.bind_ids(*rel, filter)?,
            },
            TranslatedOp::DeleteInlined { rel, path, filter } => BoundOp::DeleteInlined {
                rel: *rel,
                path: path.clone(),
                ids: self.bind_ids(*rel, filter)?,
            },
            TranslatedOp::CopySubtrees {
                src_rel,
                src_filter,
                dst_rel,
                dst_filter,
            } => BoundOp::CopySubtrees {
                src_rel: *src_rel,
                src_ids: self.bind_ids(*src_rel, src_filter)?,
                dst_ids: self.bind_ids(*dst_rel, dst_filter)?,
            },
            TranslatedOp::InsertInlined {
                rel,
                column,
                value,
                filter,
            } => BoundOp::SetInlined {
                rel: *rel,
                column: *column,
                value: value.clone(),
                ids: self.bind_ids(*rel, filter)?,
            },
            TranslatedOp::UpdateInlined {
                rel,
                column,
                value,
                filter,
            } => BoundOp::SetInlined {
                rel: *rel,
                column: *column,
                value: value.clone(),
                ids: self.bind_ids(*rel, filter)?,
            },
            TranslatedOp::InsertTupleAt {
                rel,
                values,
                anchor_rel,
                anchor_filter,
                before,
            } => {
                let anchor_table = &self.mapping.relations[*anchor_rel].table;
                let wc = anchor_filter
                    .as_deref()
                    .map(|f| format!(" WHERE {f}"))
                    .unwrap_or_default();
                let anchors = self
                    .db
                    .query(&format!(
                        "SELECT id, parentId FROM {anchor_table}{wc} ORDER BY id"
                    ))?
                    .rows
                    .iter()
                    .filter_map(|r| Some((r[0].as_int()?, r[1].as_int()?)))
                    .collect();
                BoundOp::InsertTupleAt {
                    rel: *rel,
                    values: values.clone(),
                    anchors,
                    before: *before,
                }
            }
        })
    }

    fn exec_bound(&mut self, op: BoundOp) -> Result<usize> {
        fn in_list(ids: &[i64]) -> String {
            ids.iter()
                .map(i64::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        }
        // Bound id sets can be arbitrarily large; fold them into IN-list
        // statements of at most `batch_size` ids each so statement size
        // stays bounded while statement count stays ~n/batch.
        let batch = self.config.batch_size.max(1);
        match op {
            BoundOp::DeleteSubtrees { rel, ids } => {
                if ids.is_empty() {
                    return Ok(0);
                }
                let mut n = 0;
                for chunk in ids.chunks(batch) {
                    n += self.delete_where(rel, Some(&format!("id IN ({})", in_list(chunk))))?;
                }
                Ok(n)
            }
            BoundOp::DeleteInlined { rel, path, ids } => {
                if ids.is_empty() {
                    return Ok(0);
                }
                let mut n = 0;
                for chunk in ids.chunks(batch) {
                    n += delete::delete_inlined(
                        &mut self.db,
                        &self.mapping,
                        rel,
                        &path,
                        Some(&format!("id IN ({})", in_list(chunk))),
                    )?;
                }
                Ok(n)
            }
            BoundOp::CopySubtrees {
                src_rel,
                src_ids,
                dst_ids,
            } => {
                let mut n = 0;
                for &d in &dst_ids {
                    for &s in &src_ids {
                        n += self.copy_subtree(src_rel, s, d)?;
                    }
                }
                Ok(n)
            }
            BoundOp::SetInlined {
                rel,
                column,
                value,
                ids,
            } => {
                if ids.is_empty() {
                    return Ok(0);
                }
                // Route through the simple-insert primitive so presence
                // flags along the inlined path are raised exactly as in
                // the single-op path.
                let mut n = 0;
                for chunk in ids.chunks(batch) {
                    n += insert::insert_inlined(
                        &mut self.db,
                        &self.mapping,
                        rel,
                        column,
                        &value,
                        Some(&format!("id IN ({})", in_list(chunk))),
                        false,
                    )?;
                }
                Ok(n)
            }
            BoundOp::InsertTupleAt {
                rel,
                values,
                anchors,
                before,
            } => {
                let mut n = 0;
                for (aid, parent) in anchors {
                    let at = if before {
                        crate::ordered::InsertAt::Before(aid)
                    } else {
                        crate::ordered::InsertAt::After(aid)
                    };
                    crate::ordered::insert_tuple_at(
                        &mut self.db,
                        &self.mapping,
                        rel,
                        parent,
                        &values,
                        at,
                    )?;
                    n += 1;
                }
                Ok(n)
            }
        }
    }

    /// Execute one translated operation, atomically (see
    /// [`XmlRepository::execute_xquery`]).
    pub fn execute_translated(&mut self, op: &TranslatedOp) -> Result<usize> {
        self.atomically(|r| r.execute_translated_inner(op))
    }

    fn execute_translated_inner(&mut self, op: &TranslatedOp) -> Result<usize> {
        match op {
            TranslatedOp::DeleteSubtrees { rel, filter } => {
                self.delete_where(*rel, filter.as_deref())
            }
            TranslatedOp::DeleteInlined { rel, path, filter } => Ok(delete::delete_inlined(
                &mut self.db,
                &self.mapping,
                *rel,
                path,
                filter.as_deref(),
            )?),
            // Bind first (source and destination ids; anchor id + parent),
            // then act once per bound tuple: the multi-op path's two steps.
            TranslatedOp::CopySubtrees { .. } | TranslatedOp::InsertTupleAt { .. } => {
                let bound = self.bind_op(op)?;
                self.exec_bound(bound)
            }
            TranslatedOp::InsertInlined {
                rel,
                column,
                value,
                filter,
            } => Ok(insert::insert_inlined(
                &mut self.db,
                &self.mapping,
                *rel,
                *column,
                value,
                filter.as_deref(),
                false,
            )?),
            TranslatedOp::UpdateInlined {
                rel,
                column,
                value,
                filter,
            } => {
                let relation = &self.mapping.relations[*rel];
                let wc = filter
                    .as_deref()
                    .map(|f| format!(" WHERE {f}"))
                    .unwrap_or_default();
                Ok(self
                    .db
                    .execute(&format!(
                        "UPDATE {} SET {} = {}{wc}",
                        relation.table,
                        relation.columns[*column].name,
                        xmlup_shred::loader::sql_literal(value)
                    ))?
                    .affected())
            }
        }
    }

    /// Helper used by tests and benches: value of an inlined column for a
    /// given tuple id.
    pub fn column_value(&mut self, rel: usize, id: i64, column: &str) -> Result<Value> {
        let stmt = self.db.prepare(&format!(
            "SELECT {column} FROM {} WHERE id = ?",
            self.mapping.relations[rel].table
        ))?;
        let rs = self.db.query_prepared(&stmt, &[Value::Int(id)])?;
        rs.rows
            .first()
            .and_then(|r| r.first())
            .cloned()
            .ok_or_else(|| CoreError::Strategy(format!("no tuple {id}")))
    }
}

/// A translated operation with its bindings materialized (ids computed
/// before any execution — paper Section 6.3's bind-first discipline).
#[derive(Debug, Clone)]
enum BoundOp {
    DeleteSubtrees {
        rel: usize,
        ids: Vec<i64>,
    },
    DeleteInlined {
        rel: usize,
        path: Vec<String>,
        ids: Vec<i64>,
    },
    CopySubtrees {
        src_rel: usize,
        src_ids: Vec<i64>,
        dst_ids: Vec<i64>,
    },
    SetInlined {
        rel: usize,
        column: usize,
        value: Value,
        ids: Vec<i64>,
    },
    InsertTupleAt {
        rel: usize,
        values: Vec<(String, Value)>,
        anchors: Vec<(i64, i64)>,
        before: bool,
    },
}

impl XmlRepository {
    /// Copy a subtree from another repository (same DTD/mapping shape)
    /// under `dst_parent_id` here — the relational form of paper
    /// Example 10. The subtree travels as XML: fetched from the source via
    /// the Sorted Outer Union, then shredded into this store with fresh
    /// ids. Returns tuples created.
    pub fn import_subtree(
        &mut self,
        src: &mut XmlRepository,
        src_rel: usize,
        src_id: i64,
        dst_rel: usize,
        dst_parent_id: i64,
    ) -> Result<usize> {
        if self.mapping.relations.len() != src.mapping.relations.len()
            || self.mapping.relations[dst_rel].element != src.mapping.relations[src_rel].element
        {
            return Err(CoreError::Strategy(
                "import requires repositories over the same DTD mapping".into(),
            ));
        }
        let (doc, roots) = src.fetch_params(src_rel, Some("id = ?"), &[Value::Int(src_id)])?;
        // The whole import into *this* store is one transaction: a failure
        // mid-shred leaves the destination untouched.
        self.atomically(|rp| {
            // Sibling ordinal for ordered mappings: append after every
            // existing child of the destination parent.
            let mut ord: i64 = 0;
            if rp.mapping.ordered {
                for &crel in &rp.mapping.relations
                    [rp.mapping.relations[dst_rel].parent.unwrap_or(dst_rel)]
                .children
                .clone()
                {
                    let t = &rp.mapping.relations[crel].table;
                    let stmt = rp
                        .db
                        .prepare(&format!("SELECT COUNT(*) FROM {t} WHERE parentId = ?"))?;
                    let rs = rp.db.query_prepared(&stmt, &[Value::Int(dst_parent_id)])?;
                    ord += rs.scalar().and_then(Value::as_int).unwrap_or(0);
                }
            }
            let mut created = 0;
            for r in &roots {
                created += loader::shred_subtree(
                    &mut rp.db,
                    &rp.mapping,
                    &doc,
                    *r,
                    dst_rel,
                    dst_parent_id,
                    ord,
                )?;
                ord += 1;
            }
            if let Some(asr) = &rp.asr {
                asr.populate(&mut rp.db, &rp.mapping)?;
            }
            Ok(created)
        })
    }
}
