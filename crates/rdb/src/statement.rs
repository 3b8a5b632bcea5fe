//! Statement entry: the SQL-text plan cache, prepared statements, and the
//! public calls a client statement arrives through.
//!
//! Every entry point runs the same funnel. The text is looked up in the
//! plan cache and parsed on a miss; the client statement is counted and
//! its simulated round trip charged; the statement runs through the
//! `&mut self` write funnel (`exec_client`: statement-level atomicity,
//! autocommit) or the `&self` read funnel (`exec_read`); and one
//! per-statement accounting path brackets either call.
//!
//! A cached [`Stmt`] is pure syntax, so the text cache keeps it across
//! DDL. What DDL can change is the physical SELECT plan, and that lives
//! in the text's [`PlanSlot`], stamped with the schema epoch it was built
//! at: the next execution after the epoch moves replans. The schema epoch
//! is the only thing that retires a cached statement.

use crate::ast::{SelectStmt, Stmt};
use crate::engine::{Database, ExecResult, ResultSet, StatsCells};
use crate::error::{DbError, Result};
use crate::exec::EvalCtx;
use crate::obs::{self, SlowQuery, Span};
use crate::parser::{parse_script_with_text, parse_stmt_with_params};
use crate::plan::{PlanSlot, SelectPlan};
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upper bound on cached statement texts (LRU beyond it), sized on
/// `xmlup-e2e` (EXPERIMENTS.md "One statement entry"). The workloads'
/// repeated shapes fit inside it: at 32 entries the traced seed-1 hit
/// ratio is 0.99 on `bulk-dblp` and 0.80 on `oltp-mem`. It is not larger
/// because single-use texts (the outer-union queries splice their root
/// predicate) pile up in a full cache: at 512 entries the sizing runs
/// found `query-mem` `op_p50_ms` 19 % worse in 9 of 9 pairs.
const PLAN_CACHE_CAPACITY: usize = 32;

/// A statement compiled once and executable many times with bound
/// parameter values — the engine-side analogue of the JDBC
/// `PreparedStatement`s the paper's middleware holds against DB2.
///
/// Obtained from [`Database::prepare`]; executed with
/// [`Database::execute_prepared`] or [`Database::query_prepared`]. The
/// handle holds the parsed statement and shares its text's plan slot
/// with the plan cache, so it survives DDL: names resolve at execution
/// time, and the first execution after the schema epoch moves replans the
/// SELECT for every holder of the slot.
#[derive(Debug, Clone)]
pub struct PreparedStmt {
    stmt: Arc<Stmt>,
    params: usize,
    sql: String,
    slot: Arc<PlanSlot>,
}

impl PreparedStmt {
    /// Number of parameter slots the statement binds.
    pub fn param_count(&self) -> usize {
        self.params
    }

    /// The SQL text the statement was compiled from.
    pub fn sql(&self) -> &str {
        &self.sql
    }
}

/// Bounded LRU cache of parsed statements and their plan slots, keyed on
/// SQL text. Nothing clears it: an entry leaves only by eviction.
#[derive(Debug, Default)]
pub(crate) struct PlanCache {
    plans: HashMap<String, CachedPlan>,
    /// Monotonic use counter driving LRU eviction.
    tick: u64,
}

#[derive(Debug)]
struct CachedPlan {
    stmt: Arc<Stmt>,
    params: usize,
    last_used: u64,
    slot: Arc<PlanSlot>,
}

impl PlanCache {
    /// Cached statement texts (the `rdb_plan_cache_entries` gauge).
    pub(crate) fn len(&self) -> usize {
        self.plans.len()
    }

    fn get(&mut self, sql: &str) -> Option<(Arc<Stmt>, usize, Arc<PlanSlot>)> {
        self.tick += 1;
        let tick = self.tick;
        self.plans.get_mut(sql).map(|p| {
            p.last_used = tick;
            (p.stmt.clone(), p.params, p.slot.clone())
        })
    }

    fn insert(&mut self, sql: &str, stmt: Arc<Stmt>, params: usize, slot: Arc<PlanSlot>) {
        if self.plans.len() >= PLAN_CACHE_CAPACITY && !self.plans.contains_key(sql) {
            // Evict the least recently used plan: O(capacity).
            if let Some(victim) = self
                .plans
                .iter()
                .min_by_key(|(_, p)| p.last_used)
                .map(|(k, _)| k.clone())
            {
                self.plans.remove(&victim);
            }
        }
        self.tick += 1;
        let tick = self.tick;
        self.plans.insert(
            sql.to_string(),
            CachedPlan {
                stmt,
                params,
                last_used: tick,
                slot,
            },
        );
    }
}

impl Database {
    /// Execute one SQL statement. Repeat executions of the same SQL text
    /// reuse the cached statement instead of re-parsing.
    pub fn execute(&mut self, sql: &str) -> Result<ExecResult> {
        let (stmt, _, slot, hit) = self.plan_for(sql)?;
        let ctx = self.client_ctx(&[], Some(slot), hit);
        self.exec_client_logged(&stmt, &ctx, sql)
    }

    /// Compile `sql` into a reusable [`PreparedStmt`]. `?` placeholders
    /// bind positionally; `$n` placeholders name their 1-based slot.
    /// Preparation does not count as a client statement — only
    /// [`Database::execute_prepared`] calls do.
    pub fn prepare(&self, sql: &str) -> Result<PreparedStmt> {
        let (stmt, params, slot, _) = self.plan_for(sql)?;
        Ok(PreparedStmt {
            stmt,
            params,
            sql: sql.to_string(),
            slot,
        })
    }

    /// Execute a prepared statement with `params` bound to its
    /// placeholders. The statement is not re-parsed; parameter values are
    /// substituted during evaluation.
    pub fn execute_prepared(
        &mut self,
        stmt: &PreparedStmt,
        params: &[Value],
    ) -> Result<ExecResult> {
        let ctx = self.bind(stmt, params)?;
        self.exec_client_logged(&stmt.stmt, &ctx, &stmt.sql)
    }

    /// Execute a prepared read-only query and return its result set.
    /// Shares the `&self` read path with [`Database::query`].
    pub fn query_prepared(&self, stmt: &PreparedStmt, params: &[Value]) -> Result<ResultSet> {
        let ctx = self.bind(stmt, params)?;
        self.query_logged(&stmt.stmt, &ctx, &stmt.sql)
    }

    /// Execute a `;`-separated script.
    ///
    /// On failure the error is a [`DbError::ScriptStatement`] carrying
    /// the failing statement's 0-based index and SQL text. Under
    /// autocommit every statement *preceding* the failing one stays
    /// applied (each committed on its own); the failing statement itself
    /// rolls back atomically. If the script opened an explicit
    /// transaction (`BEGIN`) that is still uncommitted at the point of
    /// failure, the preceding statements of that transaction remain
    /// pending — the caller decides whether to `COMMIT` or `ROLLBACK`
    /// them.
    pub fn run_script(&mut self, sql: &str) -> Result<Vec<ExecResult>> {
        let stmts = parse_script_with_text(sql)?;
        StatsCells::bump(&self.stats.statements_parsed, stmts.len() as u64);
        let mut out = Vec::with_capacity(stmts.len());
        for (index, (s, text)) in stmts.iter().enumerate() {
            let ctx = self.client_ctx(&[], None, false);
            match self.exec_client_logged(s, &ctx, text) {
                Ok(r) => out.push(r),
                Err(cause) => {
                    return Err(DbError::ScriptStatement {
                        index,
                        sql: text.clone(),
                        cause: Box::new(cause),
                    })
                }
            }
        }
        Ok(out)
    }

    /// Run a read-only query (`SELECT`, `EXPLAIN`, or
    /// `EXPLAIN ANALYZE <select>`) and return its result set.
    ///
    /// Takes `&self`: concurrent sessions holding a shared reference can
    /// query simultaneously while a writer serializes through the
    /// `&mut self` statement paths (see [`crate::session`]). Reads see
    /// the live committed state; for a transaction-consistent view across
    /// statements use [`Database::query_at`] with a pinned snapshot.
    pub fn query(&self, sql: &str) -> Result<ResultSet> {
        self.query_at(sql, None)
    }

    /// [`Database::query`] against a pinned MVCC snapshot (from
    /// [`Database::begin_snapshot`]): every table is reconstructed as of
    /// that epoch, so a sequence of `query_at` calls with the same
    /// snapshot observes one transaction-consistent state regardless of
    /// concurrently committing writers.
    pub fn query_at(&self, sql: &str, snapshot: Option<u64>) -> Result<ResultSet> {
        let (stmt, _, slot, hit) = self.plan_for(sql)?;
        let mut ctx = self.client_ctx(&[], Some(slot), hit);
        ctx.snapshot = snapshot;
        self.query_logged(&stmt, &ctx, sql)
    }

    /// Run a statement that returns rows through the full `&mut`
    /// statement funnel — needed for `EXPLAIN ANALYZE` over DML, which
    /// really executes its statement and therefore mutates.
    pub fn query_mut(&mut self, sql: &str) -> Result<ResultSet> {
        match self.execute(sql)? {
            ExecResult::Rows(rs) => Ok(rs),
            other => Err(DbError::Execution(format!("not a query: {other:?}"))),
        }
    }

    /// Look up the parsed statement for `sql`, parsing and caching on a
    /// miss. The trailing `bool` reports whether the cache hit — the
    /// per-statement statistics store counts hits per fingerprint.
    fn plan_for(&self, sql: &str) -> Result<(Arc<Stmt>, usize, Arc<PlanSlot>, bool)> {
        if let Some((stmt, params, slot)) = self.plan_cache.lock().unwrap().get(sql) {
            StatsCells::bump(&self.stats.plan_cache_hits, 1);
            return Ok((stmt, params, slot, true));
        }
        StatsCells::bump(&self.stats.plan_cache_misses, 1);
        StatsCells::bump(&self.stats.statements_parsed, 1);
        let parse_span = Span::enter("sql.parse");
        let (stmt, params) = parse_stmt_with_params(sql)?;
        drop(parse_span);
        let stmt = Arc::new(stmt);
        let slot = Arc::new(PlanSlot::default());
        self.plan_cache
            .lock()
            .unwrap()
            .insert(sql, stmt.clone(), params, slot.clone());
        Ok((stmt, params, slot, false))
    }

    /// Physical plan for a top-level SELECT: reuse the statement's plan
    /// slot when its epoch is current, otherwise compile and store. The
    /// returned plan is pinned in `ctx.keepalive` for the statement.
    pub(crate) fn select_plan_for(
        &self,
        q: &SelectStmt,
        ctx: &EvalCtx<'_>,
    ) -> Result<Arc<SelectPlan>> {
        let plan = match &ctx.plan_slot {
            Some(slot) => {
                let epoch = self.schema_epoch.get();
                let cached = slot
                    .plan
                    .lock()
                    .unwrap()
                    .as_ref()
                    .filter(|(e, _)| *e == epoch)
                    .map(|(_, p)| p.clone());
                match cached {
                    Some(p) => p,
                    None => {
                        let p = Arc::new(self.build_select_plan(q, ctx)?);
                        *slot.plan.lock().unwrap() = Some((epoch, p.clone()));
                        p
                    }
                }
            }
            None => Arc::new(self.build_select_plan(q, ctx)?),
        };
        ctx.keepalive.borrow_mut().push(plan.clone());
        Ok(plan)
    }

    /// The bookkeeping every client statement pays on entry: count it
    /// and build its evaluation context with its plan slot and whether
    /// the cache hit.
    fn client_ctx<'a>(
        &self,
        params: &'a [Value],
        slot: Option<Arc<PlanSlot>>,
        hit: bool,
    ) -> EvalCtx<'a> {
        StatsCells::bump(&self.stats.client_statements, 1);
        let mut ctx = EvalCtx::with_params(params);
        ctx.plan_slot = slot;
        ctx.plan_cache_hit = hit;
        ctx
    }

    /// Check `params` against the prepared statement's arity, then enter
    /// it as a client statement. A prepared statement reuses its parsed
    /// form by construction, so it counts as a cache hit.
    fn bind<'a>(&self, stmt: &PreparedStmt, params: &'a [Value]) -> Result<EvalCtx<'a>> {
        if params.len() != stmt.params {
            return Err(DbError::Execution(format!(
                "prepared statement binds {} parameter(s), got {}: {}",
                stmt.params,
                params.len(),
                stmt.sql
            )));
        }
        Ok(self.client_ctx(params, Some(stmt.slot.clone()), true))
    }

    /// The write funnel ([`Database::exec_client`]) bracketed by the
    /// per-statement accounting.
    fn exec_client_logged(
        &mut self,
        stmt: &Stmt,
        ctx: &EvalCtx<'_>,
        sql: &str,
    ) -> Result<ExecResult> {
        let probe = StatementProbe::start(self);
        let result = self.exec_client(stmt, ctx);
        if let Some(probe) = probe {
            let rows = result.as_ref().ok().map(|r| match r {
                ExecResult::Rows(rs) => rs.rows.len() as u64,
                other => other.affected() as u64,
            });
            probe.finish(self, ctx, sql, rows);
        }
        result
    }

    /// The read funnel ([`Database::exec_read`]) bracketed by the same
    /// per-statement accounting as [`Database::exec_client_logged`].
    fn query_logged(&self, stmt: &Stmt, ctx: &EvalCtx<'_>, sql: &str) -> Result<ResultSet> {
        if ctx.snapshot.is_some() {
            StatsCells::bump(&self.mvcc.snapshot_reads, 1);
        }
        let probe = StatementProbe::start(self);
        let result = self.exec_read(stmt, ctx);
        if let Some(probe) = probe {
            let rows = result.as_ref().ok().map(|rs| rs.rows.len() as u64);
            probe.finish(self, ctx, sql, rows);
        }
        result
    }

    /// Read-only statement funnel: `SELECT`, plain `EXPLAIN`, and
    /// `EXPLAIN ANALYZE` over a SELECT. Mirrors [`Database::exec_client`]'s
    /// bookkeeping (fault injection, statement counters, rollback stat
    /// on error) without touching the undo/redo machinery — a failed
    /// read has nothing to roll back.
    fn exec_read(&self, stmt: &Stmt, ctx: &EvalCtx<'_>) -> Result<ResultSet> {
        let _span = Span::enter("sql.execute");
        self.fault.check_statement()?;
        StatsCells::bump(&self.stats.total_statements, 1);
        let result = self.exec_query(stmt, ctx);
        if result.is_err() {
            StatsCells::bump(&self.stats.txn_rollbacks, 1);
        }
        result
    }

    /// Rows scanned + inserted + deleted + updated so far (slow-query
    /// "rows touched" bookkeeping).
    fn rows_touched(&self) -> u64 {
        self.stats.rows_scanned.get()
            + self.stats.rows_inserted.get()
            + self.stats.rows_deleted.get()
            + self.stats.rows_updated.get()
    }
}

/// Per-statement accounting around one execution. With neither a
/// slow-query threshold nor statement tracking configured,
/// [`StatementProbe::start`] is two atomic reads and returns `None`.
/// Otherwise the statement is timed and its spans are collected (even
/// with tracing off); a successful execution is aggregated into the
/// fingerprint store behind `rdb_statements`, and a breach of the
/// threshold lands a [`SlowQuery`] record — attributed to the current
/// session, snapshot epoch, and fingerprint — in the slow-query log.
struct StatementProbe {
    /// Record into the per-statement store (tracking on).
    track: bool,
    /// Slow-query threshold in effect, if any.
    threshold: Option<Duration>,
    touched_before: u64,
    wal_before: u64,
    start: Instant,
}

impl StatementProbe {
    fn start(db: &Database) -> Option<Self> {
        let threshold = db.slow_threshold.get();
        let track = db.statements.enabled();
        if threshold.is_none() && !track {
            return None;
        }
        let touched_before = db.rows_touched();
        let wal_before = db.stats.wal_bytes.get();
        obs::stmt_collect_begin();
        Some(StatementProbe {
            track,
            threshold,
            touched_before,
            wal_before,
            start: Instant::now(),
        })
    }

    /// Close the sample: `rows` is the rows returned or affected, `None`
    /// when the statement failed (failed statements are not tracked).
    /// The fingerprint is read from the plan slot — computed at most once
    /// per SQL text — or, for slot-less `run_script` statements, computed
    /// on the spot.
    fn finish(self, db: &Database, ctx: &EvalCtx<'_>, sql: &str, rows: Option<u64>) {
        let elapsed = self.start.elapsed();
        let phases = obs::stmt_collect_end();
        let track = self.track && rows.is_some();
        let slow = self.threshold.is_some_and(|t| elapsed >= t);
        if !track && !slow {
            return;
        }
        let compute = || Arc::new(crate::sysview::fingerprint(sql));
        let fp = match &ctx.plan_slot {
            Some(slot) => slot.fingerprint.get_or_init(compute).clone(),
            None => compute(),
        };
        if track {
            db.statements.record(
                &fp,
                rows.unwrap_or(0),
                elapsed.as_nanos() as u64,
                ctx.plan_cache_hit,
                db.stats.wal_bytes.get() - self.wal_before,
            );
        }
        if slow {
            let mut log = db.slow_log.lock().unwrap();
            if log.len() >= obs::SLOW_QUERY_CAPACITY {
                log.remove(0);
            }
            log.push(SlowQuery {
                sql: sql.to_string(),
                total_ns: elapsed.as_nanos() as u64,
                phases,
                rows_touched: db.rows_touched() - self.touched_before,
                session_id: crate::sysview::current_session(),
                snapshot_epoch: ctx.snapshot,
                fingerprint: fp.hash,
            });
        }
    }
}
