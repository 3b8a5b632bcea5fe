//! Volcano-style pull executor for compiled physical plans.
//!
//! Each operator is a cursor exposing `next()`, which yields one output
//! row at a time. Rows are materialized lazily: base-table scans iterate
//! the table's slot array by reference and only clone rows that survive
//! the predicates pushed down into the scan, instead of cloning whole
//! tables up front the way the old AST interpreter did.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::time::Instant;

use crate::ast::{AggFunc, BinOp, Expr, SelectStmt, UnOp};
use crate::engine::{Database, ResultSet, StatsCells};
use crate::error::{DbError, Result};
use crate::plan::{Access, CorePlan, JoinKind, PlanSlot, ProjStep, ScanPlan, SelectPlan};
use crate::table::Table;
use crate::value::{Row, Value};

/// Resolve a possibly-qualified column name against a binding layout.
/// Returns the offset into the joined row, `Ok(None)` when the name is
/// absent (so OLD/NEW pseudo-rows can be tried next), or an error for
/// ambiguous or half-resolved references.
pub(crate) fn layout_resolve(
    layout: &[(String, Vec<String>, usize)],
    table: Option<&str>,
    name: &str,
) -> Result<Option<usize>> {
    match table {
        Some(t) => {
            for (binding, cols, off) in layout {
                if binding.eq_ignore_ascii_case(t) {
                    if let Some(ci) = cols.iter().position(|c| c.eq_ignore_ascii_case(name)) {
                        return Ok(Some(off + ci));
                    }
                    return Err(DbError::NoSuchColumn(format!("{t}.{name}")));
                }
            }
            Ok(None)
        }
        None => {
            let mut found = None;
            for (binding, cols, off) in layout {
                if let Some(ci) = cols.iter().position(|c| c.eq_ignore_ascii_case(name)) {
                    if found.is_some() {
                        return Err(DbError::NoSuchColumn(format!(
                            "ambiguous column `{name}` (also in `{binding}`)"
                        )));
                    }
                    found = Some(off + ci);
                }
            }
            Ok(found)
        }
    }
}

/// SQL `LIKE` wildcard match: `%` matches any run of characters
/// (including empty), `_` matches exactly one. Case-sensitive, no escape
/// syntax. Iterative two-pointer matcher with greedy `%` backtracking.
pub(crate) fn like_match(s: &str, pattern: &str) -> bool {
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    let (mut si, mut pi) = (0usize, 0usize);
    // Resume points for the most recent `%`: pattern index after it and
    // the subject index it currently absorbs up to.
    let (mut star_pi, mut star_si) = (usize::MAX, 0usize);
    while si < s.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star_pi = pi;
            star_si = si;
            pi += 1;
        } else if star_pi != usize::MAX {
            // Mismatch past a `%`: widen what it absorbs by one char.
            star_si += 1;
            si = star_si;
            pi = star_pi + 1;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

/// A row environment expressions can be evaluated against: resolves
/// column names to offsets and hands out values by offset.
pub(crate) trait Scope {
    fn resolve(&self, table: Option<&str>, name: &str) -> Result<Option<usize>>;
    fn value(&self, off: usize) -> &Value;
}

/// Borrowed view over a binding layout plus a flat value slice — the
/// executor's zero-copy scope. An empty value slice is legal for
/// resolution-only probes (validation, row-independent key evaluation).
pub(crate) struct SliceEnv<'a> {
    pub layout: &'a [(String, Vec<String>, usize)],
    pub values: &'a [Value],
}

impl Scope for SliceEnv<'_> {
    fn resolve(&self, table: Option<&str>, name: &str) -> Result<Option<usize>> {
        layout_resolve(self.layout, table, name)
    }
    fn value(&self, off: usize) -> &Value {
        &self.values[off]
    }
}

/// Row environment during expression evaluation: bindings with their
/// column names, laid out contiguously in `values`. Owned variant used
/// by the DML paths (INSERT/UPDATE/DELETE), which bind one table's row.
#[derive(Debug, Default, Clone)]
pub(crate) struct RowEnv {
    /// (binding name, column names, offset into `values`).
    pub layout: Vec<(String, Vec<String>, usize)>,
    pub values: Vec<Value>,
}

impl RowEnv {
    pub fn single(binding: &str, columns: &[String], row: &[Value]) -> Self {
        RowEnv {
            layout: vec![(binding.to_string(), columns.to_vec(), 0)],
            values: row.to_vec(),
        }
    }

    /// Rebind the environment to a new row without rebuilding the layout.
    /// Hot per-row loops construct the layout once per statement and call
    /// this per tuple.
    pub fn set_values(&mut self, row: &[Value]) {
        self.values.clear();
        self.values.extend_from_slice(row);
    }

    /// Resolve a possibly-qualified column to an offset.
    pub fn resolve(&self, table: Option<&str>, name: &str) -> Result<Option<usize>> {
        layout_resolve(&self.layout, table, name)
    }
}

impl Scope for RowEnv {
    fn resolve(&self, table: Option<&str>, name: &str) -> Result<Option<usize>> {
        RowEnv::resolve(self, table, name)
    }
    fn value(&self, off: usize) -> &Value {
        &self.values[off]
    }
}

/// A materialized relation (CTE body executed once per statement).
/// Column names live in the scan plans that read it, so only the rows
/// are kept here.
#[derive(Debug, Clone)]
pub(crate) struct Materialized {
    pub rows: Rc<Vec<Row>>,
}

pub(crate) type CteEnv = HashMap<String, Materialized>;

pub(crate) struct CachedSub {
    pub rows: Vec<Row>,
    /// First-column value set for IN probes (nulls excluded, tracked apart).
    pub set: HashSet<Value>,
    pub has_null: bool,
}

/// Probe set for a row-independent `IN (v1, v2, …)` list, built once per
/// statement instead of re-evaluating the list for every outer row.
pub(crate) struct CachedList {
    pub set: HashSet<Value>,
    pub has_null: bool,
}

/// Per-statement evaluation context: the `OLD`/`NEW` trigger row, if any,
/// bound parameter values, and a cache for uncorrelated subquery results.
pub(crate) struct EvalCtx<'a> {
    /// Pseudo-table name (`OLD` or `NEW`) and its column/value bindings.
    pub pseudo_row: Option<(&'a str, &'a [(String, Value)])>,
    /// Values bound to `?`/`$n` placeholders, indexed by slot.
    pub params: &'a [Value],
    pub sub_cache: RefCell<HashMap<usize, Rc<CachedSub>>>,
    /// Probe sets for row-independent IN-lists, keyed by the list's
    /// address inside the (kept-alive) statement or plan.
    pub list_cache: RefCell<HashMap<usize, Rc<CachedList>>>,
    /// Plans and DML access paths executed during this statement. The
    /// subquery and IN-list caches key on addresses inside them, so each
    /// must outlive the statement even if the shared plan slot is
    /// replaced mid-statement — otherwise a later allocation could alias
    /// a cached entry.
    pub keepalive: RefCell<Vec<std::sync::Arc<dyn std::any::Any>>>,
    /// Shared plan slot for the top-level statement, set by
    /// `execute`/`execute_prepared` after construction. Only the outer
    /// SELECT consults it; nested selects (subqueries, triggers) always
    /// plan fresh, so the slot can never serve the wrong statement.
    pub plan_slot: Option<std::sync::Arc<PlanSlot>>,
    /// MVCC snapshot epoch the statement reads at, set by the `&self`
    /// read path (`Database::query_at`). `None` reads the live committed
    /// state. Scans over tables that changed since the snapshot fall
    /// back to reconstructing the epoch's row image (see
    /// [`ScanCur::start`]).
    pub snapshot: Option<u64>,
    /// Whether this statement's plan came from the plan cache (or a
    /// prepared statement, which reuses its compiled plan by
    /// construction). Feeds the `plan_cache_hits` column of
    /// `rdb_statements`.
    pub plan_cache_hit: bool,
}

impl<'a> EvalCtx<'a> {
    pub fn new() -> Self {
        EvalCtx {
            pseudo_row: None,
            params: &[],
            sub_cache: RefCell::new(HashMap::new()),
            list_cache: RefCell::new(HashMap::new()),
            keepalive: RefCell::new(Vec::new()),
            plan_slot: None,
            snapshot: None,
            plan_cache_hit: false,
        }
    }

    pub fn with_pseudo(name: &'a str, row: &'a [(String, Value)]) -> Self {
        EvalCtx {
            pseudo_row: Some((name, row)),
            params: &[],
            sub_cache: RefCell::new(HashMap::new()),
            list_cache: RefCell::new(HashMap::new()),
            keepalive: RefCell::new(Vec::new()),
            plan_slot: None,
            snapshot: None,
            plan_cache_hit: false,
        }
    }

    pub fn with_params(params: &'a [Value]) -> Self {
        EvalCtx {
            pseudo_row: None,
            params,
            sub_cache: RefCell::new(HashMap::new()),
            list_cache: RefCell::new(HashMap::new()),
            keepalive: RefCell::new(Vec::new()),
            plan_slot: None,
            snapshot: None,
            plan_cache_hit: false,
        }
    }
}

/// Everything a cursor needs besides its own state.
pub(crate) struct ExecCtx<'a, 'c> {
    pub db: &'a Database,
    pub ctx: &'a EvalCtx<'c>,
    pub ctes: &'a CteEnv,
}

/// Per-operator actuals accumulated during an `EXPLAIN ANALYZE` run.
/// Plain execution never allocates these, so the un-analyzed path pays
/// nothing for the instrumentation.
#[derive(Debug, Default)]
pub(crate) struct OpProf {
    /// Rows the operator emitted.
    pub rows: Cell<u64>,
    /// Times the operator was (re)started; for index scans, the number
    /// of index probes issued.
    pub loops: Cell<u64>,
    /// Nanoseconds spent inside the operator's `next()` calls
    /// (children included — the tree is read top-down like `EXPLAIN
    /// ANALYZE` output in other engines).
    pub ns: Cell<u64>,
}

impl OpProf {
    fn add(cell: &Cell<u64>, by: u64) {
        cell.set(cell.get() + by);
    }
}

/// Profiling mirror of one [`CorePlan`]: an [`OpProf`] per operator the
/// renderer will print, keyed by position so the rendered tree and the
/// actuals stay aligned by construction.
#[derive(Debug, Default)]
pub(crate) struct CoreProf {
    /// The Project or Aggregate at the top of the core.
    pub output: OpProf,
    /// The Distinct wrapper, when present.
    pub distinct: OpProf,
    /// The residual Filter, when present.
    pub filter: OpProf,
    /// `joins[i]` profiles the join that brings in `scans[i + 1]`.
    pub joins: Vec<OpProf>,
    /// One per scan, in FROM order.
    pub scans: Vec<OpProf>,
}

impl CoreProf {
    fn for_core(core: &CorePlan) -> CoreProf {
        CoreProf {
            joins: (1..core.scans.len()).map(|_| OpProf::default()).collect(),
            scans: (0..core.scans.len()).map(|_| OpProf::default()).collect(),
            ..CoreProf::default()
        }
    }
}

/// Profiling mirror of a full [`SelectPlan`], allocated per `EXPLAIN
/// ANALYZE` execution (never stored on the shared/cached plan).
#[derive(Debug, Default)]
pub(crate) struct PlanProf {
    /// One `Vec<CoreProf>` per CTE, in definition order.
    pub ctes: Vec<Vec<CoreProf>>,
    /// One per body core.
    pub cores: Vec<CoreProf>,
}

impl PlanProf {
    /// Build the profiling mirror for `plan`.
    pub fn for_plan(plan: &SelectPlan) -> PlanProf {
        PlanProf {
            ctes: plan
                .ctes
                .iter()
                .map(|c| c.body.iter().map(CoreProf::for_core).collect())
                .collect(),
            cores: plan.body.iter().map(CoreProf::for_core).collect(),
        }
    }
}

/// A Volcano operator: yields one row per `next()` call, `None` at end.
/// This is the executor's only pull interface — plain statements and
/// `EXPLAIN ANALYZE` build the same cursor tree and drive it through
/// the same loop in [`Database::run_cores`]; profiling is an optional
/// sink on each [`Input`] edge, not a second set of operators.
trait Cursor {
    fn next(&mut self, ex: &ExecCtx<'_, '_>) -> Result<Option<Row>>;
}

/// An operator's input edge: the child cursor plus, under `EXPLAIN
/// ANALYZE`, the child's actuals. Every pull in the executor goes
/// through [`Input::next`], the one place rows and time are recorded.
/// An index join keeps its inner edge typed (`C = ScanCur`) so it can
/// re-aim the scan per outer row.
struct Input<'a, C: Cursor + ?Sized + 'a = dyn Cursor + 'a> {
    cur: Box<C>,
    prof: Option<&'a OpProf>,
}

impl<C: Cursor + ?Sized> Input<'_, C> {
    fn next(&mut self, ex: &ExecCtx<'_, '_>) -> Result<Option<Row>> {
        let Some(p) = self.prof else {
            return self.cur.next(ex);
        };
        let t0 = Instant::now();
        let r = self.cur.next(ex);
        OpProf::add(&p.ns, t0.elapsed().as_nanos() as u64);
        if matches!(r, Ok(Some(_))) {
            OpProf::add(&p.rows, 1);
        }
        r
    }
}

/// Degenerate FROM-less source: exactly one empty row.
struct OneRow {
    done: bool,
}

impl Cursor for OneRow {
    fn next(&mut self, _ex: &ExecCtx<'_, '_>) -> Result<Option<Row>> {
        if self.done {
            Ok(None)
        } else {
            self.done = true;
            Ok(Some(Vec::new()))
        }
    }
}

enum ScanSrc<'a> {
    Table(&'a Table),
    Mat(Rc<Vec<Row>>),
}

enum ScanState<'a> {
    Start,
    SeqTable {
        pos: usize,
    },
    SeqMat {
        i: usize,
    },
    Bucket {
        rows: Vec<Row>,
        i: usize,
    },
    /// Slot positions out of [`Database::resolve_access`]; rows are
    /// fetched (and filtered) lazily, so `LIMIT k` over an index walk
    /// touches only ~k entries.
    Positions {
        iter: Box<dyn Iterator<Item = usize> + 'a>,
    },
    Done,
}

/// Leaf scan: sequential over a table's slot array, an index probe, or a
/// materialized CTE. Pushed-down predicates filter before rows clone.
pub(crate) struct ScanCur<'a> {
    plan: &'a ScanPlan,
    src: ScanSrc<'a>,
    state: ScanState<'a>,
    /// `EXPLAIN ANALYZE` sink for the probe count (`loops`), which only
    /// the scan knows; rows and time are recorded by its [`Input`] edge.
    prof: Option<&'a OpProf>,
}

impl<'a> ScanCur<'a> {
    fn prof_loop(&self, by: u64) {
        if let Some(p) = self.prof {
            OpProf::add(&p.loops, by);
        }
    }

    /// Do all pushed-down conjuncts accept this row?
    fn passes(&self, row: &[Value], ex: &ExecCtx<'_, '_>) -> Result<bool> {
        self.accepts(&self.plan.pushed, row, ex)
    }

    fn accepts(&self, conjuncts: &[Expr], row: &[Value], ex: &ExecCtx<'_, '_>) -> Result<bool> {
        if conjuncts.is_empty() {
            return Ok(true);
        }
        let env = SliceEnv {
            layout: &self.plan.layout,
            values: row,
        };
        for p in conjuncts {
            if ex.db.eval_bool(p, &env, ex.ctx, ex.ctes)? != Some(true) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn start(&self, ex: &ExecCtx<'_, '_>) -> Result<ScanState<'a>> {
        let t: &'a Table = match &self.src {
            ScanSrc::Mat(_) => {
                self.prof_loop(1);
                return Ok(ScanState::SeqMat { i: 0 });
            }
            ScanSrc::Table(t) => t,
        };
        if let Some(s) = self.stale_at(ex.ctx) {
            // The live heap (and its indexes) moved past this statement's
            // snapshot: reconstruct the epoch's row image and scan that
            // instead.
            return self.start_snapshot(ex, t, s);
        }
        if let Some(iter) =
            ex.db
                .resolve_access(t, &self.plan.access, ex.ctx, ex.ctes, self.prof)?
        {
            return Ok(ScanState::Positions { iter });
        }
        Ok(ScanState::SeqTable { pos: 0 })
    }

    /// The snapshot epoch this scan has to reconstruct its table at:
    /// `Some` when the statement reads at a snapshot the table's heap has
    /// moved past.
    fn stale_at(&self, ctx: &EvalCtx<'_>) -> Option<u64> {
        match self.src {
            ScanSrc::Table(t) => ctx.snapshot.filter(|&s| t.changed_since(s)),
            ScanSrc::Mat(_) => None,
        }
    }

    /// Aim the scan at one index bucket — an index join's probe for one
    /// outer row. The pushed conjuncts still filter every fetched row.
    fn probe(&mut self, ex: &ExecCtx<'_, '_>, ci: usize, key: &Value) -> Result<()> {
        let ScanSrc::Table(t) = self.src else {
            unreachable!("index joins probe base tables")
        };
        self.prof_loop(1);
        self.state = ScanState::Positions {
            iter: ex.db.point_probe(t, ci, Some(key))?,
        };
        Ok(())
    }

    /// Stale-snapshot fallback: materialize the table as it stood at
    /// epoch `s` and scan that image. The live indexes describe the
    /// *current* heap, so every access path degrades to one filtered pass
    /// over the reconstructed rows: the probe conjunct the planner took
    /// out of `pushed` is re-applied from `plan.probe`, and range bounds
    /// never left `pushed`. Correctness over speed: a table only
    /// takes this path while a writer has committed past the reader's
    /// snapshot, and version GC retires the detour as snapshots close.
    fn start_snapshot(&self, ex: &ExecCtx<'_, '_>, t: &Table, s: u64) -> Result<ScanState<'a>> {
        StatsCells::bump(&ex.db.stats.seq_scans, 1);
        self.prof_loop(1);
        let mut rows = Vec::new();
        for row in t.rows_visible_at(s) {
            StatsCells::bump(&ex.db.stats.rows_scanned, 1);
            if self.accepts(self.plan.probe.as_slice(), &row, ex)? && self.passes(&row, ex)? {
                rows.push(row);
            }
        }
        // An ordered walk promised key order (and may have elided a
        // sort): restore it, stably, so equal keys keep position order
        // as the index walk would.
        if let Access::Range {
            ci,
            ordered: true,
            desc,
            ..
        } = &self.plan.access
        {
            if *desc {
                rows.sort_by(|a, b| b[*ci].sort_cmp(&a[*ci]));
            } else {
                rows.sort_by(|a, b| a[*ci].sort_cmp(&b[*ci]));
            }
        }
        Ok(ScanState::Bucket { rows, i: 0 })
    }
}

/// The error for an index a plan names but the table no longer has. DDL
/// replans, so this only fires if a plan outlived its schema epoch.
fn index_gone(t: &Table, ci: usize) -> DbError {
    DbError::Execution(format!(
        "index on column {ci} of `{}` vanished between plan and execution",
        t.schema.name
    ))
}

impl Database {
    /// Point probe: one index lookup per key, positions merged
    /// ascending. Literal probes ([`Database::resolve_access`]) and index
    /// joins both come through here, so `index_scans` / `index_lookups`
    /// count the same thing for each.
    fn point_probe<'k>(
        &self,
        t: &Table,
        ci: usize,
        keys: impl IntoIterator<Item = &'k Value>,
    ) -> Result<Box<dyn Iterator<Item = usize>>> {
        StatsCells::bump(&self.stats.index_scans, 1);
        let mut ps = Vec::new();
        let mut buckets = 0;
        for key in keys {
            ps.extend_from_slice(t.index_lookup(ci, key).ok_or_else(|| index_gone(t, ci))?);
            StatsCells::bump(&self.stats.index_lookups, 1);
            buckets += 1;
        }
        if buckets > 1 {
            ps.sort_unstable();
        }
        Ok(Box::new(ps.into_iter()))
    }

    /// The one place an [`Access`] becomes slot positions — SELECT scans
    /// and DELETE/UPDATE target selection, both over the heap, come
    /// through here, so access-path counters mean the same thing for
    /// every statement kind. `None` stands for "every live slot"
    /// (`Access::Seq`): the caller walks the table its own way. Point
    /// probes and range seeks yield positions ascending; an ordered walk
    /// yields them lazily in key order. Keys and bounds are
    /// row-independent by construction and evaluated once. `prof`
    /// collects `EXPLAIN ANALYZE` loop counts (one per probe).
    pub(crate) fn resolve_access<'t>(
        &self,
        t: &'t Table,
        access: &Access,
        ctx: &EvalCtx<'_>,
        ctes: &CteEnv,
        prof: Option<&OpProf>,
    ) -> Result<Option<Box<dyn Iterator<Item = usize> + 't>>> {
        let loops = |by: usize| {
            if let Some(p) = prof {
                OpProf::add(&p.loops, by as u64);
            }
        };
        let empty = SliceEnv {
            layout: &[],
            values: &[],
        };
        match access {
            Access::Seq => {
                StatsCells::bump(&self.stats.seq_scans, 1);
                loops(1);
                Ok(None)
            }
            Access::IndexEq { ci, key } => {
                loops(1);
                let key = self.eval_expr(key, &empty, ctx, ctes)?;
                let key = (!key.is_null()).then_some(&key);
                Ok(Some(self.point_probe(t, *ci, key)?))
            }
            Access::IndexIn { ci, query } => {
                let sub = self.cached_subquery(query, ctx)?;
                loops(sub.set.len());
                Ok(Some(self.point_probe(t, *ci, sub.set.iter())?))
            }
            Access::IndexInList { ci, list } => {
                let list = self
                    .cached_in_list(list, ctx, ctes)?
                    .expect("chooser only picks row-independent lists");
                loops(list.set.len());
                Ok(Some(self.point_probe(t, *ci, list.set.iter())?))
            }
            Access::Range {
                ci,
                lower,
                upper,
                ordered,
                desc,
            } => {
                let eval_bound = |b: &Option<(Expr, bool)>| -> Result<Option<(Value, bool)>> {
                    Ok(match b {
                        Some((e, incl)) => Some((self.eval_expr(e, &empty, ctx, ctes)?, *incl)),
                        None => None,
                    })
                };
                let lo = eval_bound(lower)?;
                let hi = eval_bound(upper)?;
                StatsCells::bump(&self.stats.index_scans, 1);
                if lo.is_some() || hi.is_some() {
                    StatsCells::bump(&self.stats.range_seeks, 1);
                }
                if *ordered {
                    StatsCells::bump(&self.stats.ordered_index_scans, 1);
                }
                loops(1);
                let walk = t
                    .index_range(
                        *ci,
                        *ordered && *desc,
                        lo.as_ref().map(|(v, i)| (v, *i)),
                        hi.as_ref().map(|(v, i)| (v, *i)),
                    )
                    .ok_or_else(|| index_gone(t, *ci))?;
                if *ordered {
                    return Ok(Some(walk));
                }
                // The bounding conjuncts are re-checked per row, so the
                // seek only narrows candidates; emit them in slot order.
                let mut ps: Vec<usize> = walk.collect();
                ps.sort_unstable();
                Ok(Some(Box::new(ps.into_iter())))
            }
        }
    }
}

impl Cursor for ScanCur<'_> {
    fn next(&mut self, ex: &ExecCtx<'_, '_>) -> Result<Option<Row>> {
        loop {
            match std::mem::replace(&mut self.state, ScanState::Done) {
                ScanState::Start => {
                    self.state = self.start(ex)?;
                }
                ScanState::SeqTable { mut pos } => {
                    let ScanSrc::Table(t) = &self.src else {
                        unreachable!("SeqTable state implies a table source")
                    };
                    let slots = t.slots_raw();
                    while pos < slots.len() {
                        if let Some(row) = &slots[pos] {
                            StatsCells::bump(&ex.db.stats.rows_scanned, 1);
                            if self.passes(row, ex)? {
                                let out = row.clone();
                                self.state = ScanState::SeqTable { pos: pos + 1 };
                                return Ok(Some(out));
                            }
                        }
                        pos += 1;
                    }
                    return Ok(None);
                }
                ScanState::SeqMat { mut i } => {
                    let ScanSrc::Mat(rows) = &self.src else {
                        unreachable!("SeqMat state implies a materialized source")
                    };
                    while i < rows.len() {
                        StatsCells::bump(&ex.db.stats.rows_scanned, 1);
                        if self.passes(&rows[i], ex)? {
                            let out = rows[i].clone();
                            self.state = ScanState::SeqMat { i: i + 1 };
                            return Ok(Some(out));
                        }
                        i += 1;
                    }
                    return Ok(None);
                }
                ScanState::Bucket { rows, i } => {
                    if i < rows.len() {
                        let out = rows[i].clone();
                        self.state = ScanState::Bucket { rows, i: i + 1 };
                        return Ok(Some(out));
                    }
                    return Ok(None);
                }
                ScanState::Positions { mut iter } => {
                    let ScanSrc::Table(t) = &self.src else {
                        unreachable!("Positions state implies a table source")
                    };
                    for p in iter.by_ref() {
                        StatsCells::bump(&ex.db.stats.rows_scanned, 1);
                        let row = t.row(p).expect("index points at live row");
                        if self.passes(row, ex)? {
                            let out = row.clone();
                            self.state = ScanState::Positions { iter };
                            return Ok(Some(out));
                        }
                    }
                    return Ok(None);
                }
                ScanState::Done => return Ok(None),
            }
        }
    }
}

/// Materialized right side of a hash join: the kept rows plus a map
/// from join-key value to indices into them.
type BuildSide = (Vec<Row>, HashMap<Value, Vec<usize>>);

/// A join's key over the left row, shared by hash and index joins.
struct JoinKey<'a> {
    expr: &'a Expr,
    /// Pre-resolved offset of `expr` in the prefix layout when the key
    /// is a plain column — probes index the left row directly instead of
    /// re-resolving the name per row.
    off: Option<usize>,
    /// Layout covering only the bindings to the LEFT of this join — the
    /// key must resolve exactly as it did at plan time, before the right
    /// binding (and later ones) were in scope.
    layout: &'a [(String, Vec<String>, usize)],
}

impl<'a> JoinKey<'a> {
    fn new(expr: &'a Expr, layout: &'a [(String, Vec<String>, usize)]) -> Self {
        let off = match expr {
            Expr::Column { table, name } => layout_resolve(layout, table.as_deref(), name)
                .ok()
                .flatten(),
            _ => None,
        };
        JoinKey { expr, off, layout }
    }

    /// The key of `lrow`; `None` when it is NULL, which matches nothing.
    fn eval<'r>(&self, lrow: &'r [Value], ex: &ExecCtx<'_, '_>) -> Result<Option<Cow<'r, Value>>> {
        let key = match self.off {
            Some(off) => Cow::Borrowed(&lrow[off]),
            None => {
                let env = SliceEnv {
                    layout: self.layout,
                    values: lrow,
                };
                Cow::Owned(ex.db.eval_expr(self.expr, &env, ex.ctx, ex.ctes)?)
            }
        };
        Ok((!key.is_null()).then_some(key))
    }
}

/// Hash join: builds a hash table over the right scan on the first left
/// row (an empty left side never pays for the build), then probes with
/// the left key evaluated against the prefix layout.
struct HashJoinCur<'a> {
    left: Input<'a>,
    right: Option<Input<'a>>,
    right_ci: usize,
    key: JoinKey<'a>,
    build: Option<BuildSide>,
    pending: Option<(Row, Vec<usize>, usize)>,
}

impl Cursor for HashJoinCur<'_> {
    fn next(&mut self, ex: &ExecCtx<'_, '_>) -> Result<Option<Row>> {
        loop {
            if let Some((lrow, hits, i)) = &mut self.pending {
                if *i < hits.len() {
                    let build = self.build.as_ref().expect("pending implies built");
                    let mut out = lrow.clone();
                    out.extend(build.0[hits[*i]].iter().cloned());
                    *i += 1;
                    return Ok(Some(out));
                }
                self.pending = None;
            }
            let Some(lrow) = self.left.next(ex)? else {
                return Ok(None);
            };
            if self.build.is_none() {
                let mut scan = self.right.take().expect("first build takes the scan");
                let mut rows: Vec<Row> = Vec::new();
                let mut map: HashMap<Value, Vec<usize>> = HashMap::new();
                while let Some(rrow) = scan.next(ex)? {
                    let key = &rrow[self.right_ci];
                    if !key.is_null() {
                        map.entry(key.clone()).or_default().push(rows.len());
                    }
                    rows.push(rrow);
                }
                StatsCells::bump(&ex.db.stats.hash_join_builds, 1);
                self.build = Some((rows, map));
            }
            let build = self.build.as_ref().expect("built above");
            let hits = match self.key.eval(&lrow, ex)? {
                Some(key) => build.1.get(key.as_ref()).cloned(),
                None => continue,
            };
            if let Some(hits) = hits {
                self.pending = Some((lrow, hits, 0));
            }
        }
    }
}

/// Index nested-loop join: for each left row, probe the right table's
/// index on `right_ci` with the left key and emit the bucket's rows that
/// pass the scan's pushed conjuncts, in slot order — the order a hash
/// join over the same scan produces.
struct IndexJoinCur<'a> {
    left: Input<'a>,
    right: Input<'a, ScanCur<'a>>,
    right_ci: usize,
    key: JoinKey<'a>,
    /// The left row whose bucket `right` is emitting.
    lrow: Option<Row>,
}

impl Cursor for IndexJoinCur<'_> {
    fn next(&mut self, ex: &ExecCtx<'_, '_>) -> Result<Option<Row>> {
        loop {
            if let Some(lrow) = &self.lrow {
                if let Some(rrow) = self.right.next(ex)? {
                    let mut out = lrow.clone();
                    out.extend(rrow);
                    return Ok(Some(out));
                }
                self.lrow = None;
            }
            let Some(lrow) = self.left.next(ex)? else {
                return Ok(None);
            };
            match self.key.eval(&lrow, ex)? {
                Some(key) => self.right.cur.probe(ex, self.right_ci, &key)?,
                None => continue,
            }
            self.lrow = Some(lrow);
        }
    }
}

/// Cartesian nested-loop join; the right side is materialized once, on
/// the first left row.
struct LoopJoinCur<'a> {
    left: Input<'a>,
    right: Option<Input<'a>>,
    right_rows: Option<Vec<Row>>,
    pending: Option<(Row, usize)>,
}

impl Cursor for LoopJoinCur<'_> {
    fn next(&mut self, ex: &ExecCtx<'_, '_>) -> Result<Option<Row>> {
        loop {
            if let Some((lrow, i)) = &mut self.pending {
                let rows = self.right_rows.as_ref().expect("pending implies rows");
                if *i < rows.len() {
                    let mut out = lrow.clone();
                    out.extend(rows[*i].iter().cloned());
                    *i += 1;
                    return Ok(Some(out));
                }
                self.pending = None;
            }
            let Some(lrow) = self.left.next(ex)? else {
                return Ok(None);
            };
            if self.right_rows.is_none() {
                let mut scan = self.right.take().expect("first loop takes the scan");
                let mut rows = Vec::new();
                while let Some(r) = scan.next(ex)? {
                    rows.push(r);
                }
                self.right_rows = Some(rows);
            }
            self.pending = Some((lrow, 0));
        }
    }
}

/// Residual predicate filter over the full joined layout.
struct FilterCur<'a> {
    input: Input<'a>,
    residual: &'a [Expr],
    layout: &'a [(String, Vec<String>, usize)],
}

impl Cursor for FilterCur<'_> {
    fn next(&mut self, ex: &ExecCtx<'_, '_>) -> Result<Option<Row>> {
        'rows: while let Some(row) = self.input.next(ex)? {
            let env = SliceEnv {
                layout: self.layout,
                values: &row,
            };
            for p in self.residual {
                if ex.db.eval_bool(p, &env, ex.ctx, ex.ctes)? != Some(true) {
                    continue 'rows;
                }
            }
            return Ok(Some(row));
        }
        Ok(None)
    }
}

/// Projection: wildcards copy ranges, expressions are evaluated.
struct ProjectCur<'a> {
    input: Input<'a>,
    steps: &'a [ProjStep],
    layout: &'a [(String, Vec<String>, usize)],
}

impl Cursor for ProjectCur<'_> {
    fn next(&mut self, ex: &ExecCtx<'_, '_>) -> Result<Option<Row>> {
        let Some(row) = self.input.next(ex)? else {
            return Ok(None);
        };
        let env = SliceEnv {
            layout: self.layout,
            values: &row,
        };
        let mut out = Vec::with_capacity(self.steps.len());
        for step in self.steps {
            match step {
                ProjStep::All => out.extend(row.iter().cloned()),
                ProjStep::Range { off, len } => {
                    out.extend(row[*off..off + len].iter().cloned());
                }
                ProjStep::Col(off) => out.push(row[*off].clone()),
                ProjStep::Expr(e) => out.push(ex.db.eval_expr(e, &env, ex.ctx, ex.ctes)?),
            }
        }
        Ok(Some(out))
    }
}

/// DISTINCT: first occurrence of each row wins; order preserved.
struct DistinctCur<'a> {
    input: Input<'a>,
    seen: HashSet<Row>,
}

impl Cursor for DistinctCur<'_> {
    fn next(&mut self, ex: &ExecCtx<'_, '_>) -> Result<Option<Row>> {
        while let Some(row) = self.input.next(ex)? {
            if self.seen.insert(row.clone()) {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }
}

/// Aggregation: drains the input entirely, then emits a single row of
/// aggregate expression results.
struct AggCur<'a> {
    input: Input<'a>,
    exprs: &'a [Expr],
    layout: &'a [(String, Vec<String>, usize)],
    done: bool,
}

impl Cursor for AggCur<'_> {
    fn next(&mut self, ex: &ExecCtx<'_, '_>) -> Result<Option<Row>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let mut rows = Vec::new();
        while let Some(row) = self.input.next(ex)? {
            rows.push(row);
        }
        let mut out = Vec::with_capacity(self.exprs.len());
        for e in self.exprs {
            out.push(
                ex.db
                    .eval_aggregate_expr(e, self.layout, &rows, ex.ctx, ex.ctes)?,
            );
        }
        Ok(Some(out))
    }
}

impl Database {
    /// Open the leaf cursor for one scan plan.
    fn open_scan<'a>(
        &'a self,
        plan: &'a ScanPlan,
        ctes: &CteEnv,
        prof: Option<&'a OpProf>,
    ) -> Result<ScanCur<'a>> {
        let src = if plan.is_cte {
            let m = ctes
                .get(&plan.key)
                .ok_or_else(|| DbError::NoSuchTable(plan.name.clone()))?;
            ScanSrc::Mat(m.rows.clone())
        } else if plan.is_sys {
            // System views materialize from live engine state at cursor
            // open; downstream operators treat the rows like a CTE body.
            ScanSrc::Mat(Rc::new(self.sysview_rows(&plan.key)?))
        } else {
            let t = self
                .tables
                .get(&plan.key)
                .ok_or_else(|| DbError::NoSuchTable(plan.name.clone()))?;
            ScanSrc::Table(t)
        };
        Ok(ScanCur {
            plan,
            src,
            state: ScanState::Start,
            prof,
        })
    }

    /// Assemble the cursor tree for one SELECT core. With `prof` set
    /// (`EXPLAIN ANALYZE`), each edge of the same tree carries the
    /// matching [`CoreProf`] slot for its child's rows/loops/time.
    fn open_core<'a>(
        &'a self,
        core: &'a CorePlan,
        ctx: &EvalCtx<'_>,
        ctes: &CteEnv,
        prof: Option<&'a CoreProf>,
    ) -> Result<Input<'a>> {
        // Every non-scan operator starts exactly once per execution;
        // scans count their own loops (one per probe).
        let edge = |cur: Box<dyn Cursor + 'a>, p: Option<&'a OpProf>| -> Input<'a> {
            if let Some(p) = p {
                OpProf::add(&p.loops, 1);
            }
            Input { cur, prof: p }
        };
        let scan_edge = |scan: ScanCur<'a>| -> Input<'a> {
            Input {
                prof: scan.prof,
                cur: Box::new(scan),
            }
        };
        let mut cur = if core.scans.is_empty() {
            edge(Box::new(OneRow { done: false }), None)
        } else {
            scan_edge(self.open_scan(&core.scans[0].0, ctes, prof.map(|p| &p.scans[0]))?)
        };
        for (i, (scan_plan, kind)) in core.scans.iter().enumerate().skip(1) {
            let right = self.open_scan(scan_plan, ctes, prof.map(|p| &p.scans[i]))?;
            let join: Box<dyn Cursor + 'a> = match kind {
                // Live indexes describe the current heap; over a stale
                // snapshot the join hashes the epoch's reconstructed rows.
                JoinKind::Index { right_ci, left_key } if right.stale_at(ctx).is_none() => {
                    Box::new(IndexJoinCur {
                        left: cur,
                        right: Input {
                            prof: right.prof,
                            cur: Box::new(right),
                        },
                        right_ci: *right_ci,
                        key: JoinKey::new(left_key, &core.layout[..i]),
                        lrow: None,
                    })
                }
                JoinKind::Hash { right_ci, left_key } | JoinKind::Index { right_ci, left_key } => {
                    Box::new(HashJoinCur {
                        left: cur,
                        right: Some(scan_edge(right)),
                        right_ci: *right_ci,
                        key: JoinKey::new(left_key, &core.layout[..i]),
                        build: None,
                        pending: None,
                    })
                }
                JoinKind::Loop => Box::new(LoopJoinCur {
                    left: cur,
                    right: Some(scan_edge(right)),
                    right_rows: None,
                    pending: None,
                }),
            };
            cur = edge(join, prof.map(|p| &p.joins[i - 1]));
        }
        if !core.residual.is_empty() {
            let filter = FilterCur {
                input: cur,
                residual: &core.residual,
                layout: &core.layout,
            };
            cur = edge(Box::new(filter), prof.map(|p| &p.filter));
        }
        if let Some(agg_exprs) = &core.aggregate {
            let agg = AggCur {
                input: cur,
                exprs: agg_exprs,
                layout: &core.layout,
                done: false,
            };
            cur = edge(Box::new(agg), prof.map(|p| &p.output));
        } else {
            let project = ProjectCur {
                input: cur,
                steps: &core.projections,
                layout: &core.layout,
            };
            cur = edge(Box::new(project), prof.map(|p| &p.output));
            if core.distinct {
                let distinct = DistinctCur {
                    input: cur,
                    seen: HashSet::new(),
                };
                cur = edge(Box::new(distinct), prof.map(|p| &p.distinct));
            }
        }
        Ok(cur)
    }

    /// Run every core of a (possibly UNION ALL) body. With `pull_limit`
    /// the pipeline stops as soon as that many rows surfaced — the
    /// limit-pushdown path for `LIMIT` without `ORDER BY`.
    fn run_cores(
        &self,
        cores: &[CorePlan],
        pull_limit: Option<u64>,
        ctx: &EvalCtx<'_>,
        ctes: &CteEnv,
        prof: Option<&[CoreProf]>,
    ) -> Result<Vec<Row>> {
        if pull_limit == Some(0) {
            return Ok(Vec::new());
        }
        let ex = ExecCtx {
            db: self,
            ctx,
            ctes,
        };
        let mut out = Vec::new();
        'cores: for (ci, core) in cores.iter().enumerate() {
            let mut cur = self.open_core(core, ctx, ctes, prof.map(|ps| &ps[ci]))?;
            while let Some(row) = cur.next(&ex)? {
                out.push(row);
                if pull_limit.is_some_and(|n| out.len() as u64 >= n) {
                    break 'cores;
                }
            }
        }
        Ok(out)
    }

    /// Execute a compiled SELECT plan: materialize CTEs, run the body,
    /// then apply ORDER BY / LIMIT.
    pub(crate) fn exec_select_plan(
        &self,
        plan: &SelectPlan,
        ctx: &EvalCtx<'_>,
    ) -> Result<ResultSet> {
        self.exec_select_plan_prof(plan, ctx, None)
    }

    /// [`exec_select_plan`] with an optional per-operator profile sink.
    /// The profile is per-execution state owned by the caller — never
    /// stored on the (possibly cached and shared) plan itself.
    pub(crate) fn exec_select_plan_prof(
        &self,
        plan: &SelectPlan,
        ctx: &EvalCtx<'_>,
        prof: Option<&PlanProf>,
    ) -> Result<ResultSet> {
        let mut ctes: CteEnv = HashMap::new();
        for (i, cte) in plan.ctes.iter().enumerate() {
            let rows = self.run_cores(&cte.body, None, ctx, &ctes, prof.map(|p| &p.ctes[i][..]))?;
            ctes.insert(
                cte.key.clone(),
                Materialized {
                    rows: Rc::new(rows),
                },
            );
        }
        let body_prof = prof.map(|p| &p.cores[..]);
        if plan.keys.is_empty() {
            if plan.elided_sort {
                StatsCells::bump(&self.stats.sorts_elided, 1);
            }
            let rows = self.run_cores(&plan.body, plan.limit, ctx, &ctes, body_prof)?;
            return Ok(ResultSet {
                columns: plan.columns.clone(),
                rows,
            });
        }
        let mut rows = self.run_cores(&plan.body, None, ctx, &ctes, body_prof)?;
        if !plan.hidden_on_output.is_empty() {
            let out_layout: Vec<(String, Vec<String>, usize)> =
                vec![(String::new(), plan.columns.clone(), 0)];
            for row in &mut rows {
                let extras = {
                    let env = SliceEnv {
                        layout: &out_layout,
                        values: row,
                    };
                    let mut extras = Vec::with_capacity(plan.hidden_on_output.len());
                    for e in &plan.hidden_on_output {
                        extras.push(self.eval_expr(e, &env, ctx, &ctes)?);
                    }
                    extras
                };
                row.extend(extras);
            }
        }
        let key_cmp = |a: &Row, b: &Row| {
            for &(i, desc) in &plan.keys {
                let ord = a[i].sort_cmp(&b[i]);
                if ord != std::cmp::Ordering::Equal {
                    return if desc { ord.reverse() } else { ord };
                }
            }
            std::cmp::Ordering::Equal
        };
        match plan.limit {
            // Top-k: selecting the k smallest under a total order (sort
            // keys, then input position — the stable-sort tiebreak made
            // explicit) is O(n + k log k) instead of O(n log n) and
            // yields exactly the stable-sort prefix.
            Some(k) if (k as usize) < rows.len() => {
                let k = k as usize;
                if k == 0 {
                    rows.clear();
                } else {
                    let mut tagged: Vec<(usize, Row)> = rows.drain(..).enumerate().collect();
                    let cmp = |a: &(usize, Row), b: &(usize, Row)| {
                        key_cmp(&a.1, &b.1).then(a.0.cmp(&b.0))
                    };
                    tagged.select_nth_unstable_by(k - 1, cmp);
                    tagged.truncate(k);
                    tagged.sort_unstable_by(cmp);
                    rows.extend(tagged.into_iter().map(|(_, r)| r));
                }
            }
            _ => rows.sort_by(key_cmp),
        }
        if rows.first().is_some_and(|r| r.len() > plan.visible) {
            for row in &mut rows {
                row.truncate(plan.visible);
            }
        }
        if let Some(n) = plan.limit {
            rows.truncate(n as usize);
        }
        Ok(ResultSet {
            columns: plan.columns.clone(),
            rows,
        })
    }

    /// Plan and execute an ad-hoc SELECT (subqueries, trigger bodies,
    /// `INSERT ... SELECT`, script statements). The plan is pinned for
    /// the rest of the statement so subquery-cache keys — addresses of
    /// expressions inside it — stay valid.
    pub(crate) fn eval_select(&self, q: &SelectStmt, ctx: &EvalCtx<'_>) -> Result<ResultSet> {
        let plan = std::sync::Arc::new(self.build_select_plan(q, ctx)?);
        ctx.keepalive.borrow_mut().push(plan.clone());
        self.exec_select_plan(&plan, ctx)
    }

    /// Whether an ORDER BY key expression can be evaluated against an
    /// already-materialized result set: every column it references is an
    /// unqualified name of an output column. Qualified references and
    /// aggregates need the source rows.
    pub(crate) fn computable_on_output(e: &Expr, columns: &[String]) -> bool {
        match e {
            Expr::Literal(_) | Expr::Param(_) => true,
            Expr::Column { table: None, name } => {
                columns.iter().any(|c| c.eq_ignore_ascii_case(name))
            }
            Expr::Column { table: Some(_), .. } => false,
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => {
                Self::computable_on_output(expr, columns)
            }
            Expr::Binary { left, right, .. } => {
                Self::computable_on_output(left, columns)
                    && Self::computable_on_output(right, columns)
            }
            Expr::InList { expr, list, .. } => {
                Self::computable_on_output(expr, columns)
                    && list.iter().all(|l| Self::computable_on_output(l, columns))
            }
            Expr::InSubquery { expr, .. } => Self::computable_on_output(expr, columns),
            Expr::Like { expr, .. } => Self::computable_on_output(expr, columns),
            Expr::Exists { .. } | Expr::ScalarSubquery(_) => true,
            Expr::Aggregate { .. } => false,
        }
    }

    /// Whether an expression can be evaluated without a row environment
    /// (literals, OLD/NEW references, uncorrelated subqueries).
    pub(crate) fn row_independent(e: &Expr) -> bool {
        match e {
            Expr::Literal(_) | Expr::Param(_) => true,
            Expr::Column { table: Some(t), .. } => {
                t.eq_ignore_ascii_case("OLD") || t.eq_ignore_ascii_case("NEW")
            }
            Expr::Column { .. } => false,
            Expr::Unary { expr, .. } => Self::row_independent(expr),
            Expr::Binary { left, right, .. } => {
                Self::row_independent(left) && Self::row_independent(right)
            }
            Expr::IsNull { expr, .. } => Self::row_independent(expr),
            Expr::InList { expr, list, .. } => {
                Self::row_independent(expr) && list.iter().all(Self::row_independent)
            }
            Expr::InSubquery { expr, .. } => Self::row_independent(expr),
            Expr::Like { expr, .. } => Self::row_independent(expr),
            Expr::Exists { .. } | Expr::ScalarSubquery(_) => true,
            Expr::Aggregate { .. } => false,
        }
    }

    /// Verify that every column reference in `e` resolves against `env`
    /// (or the OLD/NEW pseudo-row). Subquery bodies are skipped — they are
    /// validated in their own scope when evaluated.
    pub(crate) fn check_columns(&self, e: &Expr, env: &dyn Scope, ctx: &EvalCtx<'_>) -> Result<()> {
        match e {
            Expr::Literal(_) | Expr::Param(_) => Ok(()),
            Expr::Column { table, name } => {
                if env.resolve(table.as_deref(), name)?.is_some()
                    || self.pseudo_lookup(ctx, table.as_deref(), name).is_some()
                {
                    Ok(())
                } else {
                    Err(DbError::NoSuchColumn(match table {
                        Some(t) => format!("{t}.{name}"),
                        None => name.clone(),
                    }))
                }
            }
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => {
                self.check_columns(expr, env, ctx)
            }
            Expr::Binary { left, right, .. } => {
                self.check_columns(left, env, ctx)?;
                self.check_columns(right, env, ctx)
            }
            Expr::InList { expr, list, .. } => {
                self.check_columns(expr, env, ctx)?;
                list.iter()
                    .try_for_each(|l| self.check_columns(l, env, ctx))
            }
            Expr::InSubquery { expr, .. } => self.check_columns(expr, env, ctx),
            Expr::Like { expr, .. } => self.check_columns(expr, env, ctx),
            Expr::Exists { .. } | Expr::ScalarSubquery(_) => Ok(()),
            Expr::Aggregate { arg, .. } => match arg {
                Some(a) => self.check_columns(a, env, ctx),
                None => Ok(()),
            },
        }
    }

    /// Can `e` be evaluated given only the bindings in `env` (plus OLD/NEW
    /// and subqueries)? Used to pick hash-join keys.
    pub(crate) fn expr_resolvable(&self, e: &Expr, env: &dyn Scope, ctx: &EvalCtx<'_>) -> bool {
        match e {
            Expr::Literal(_) | Expr::Param(_) => true,
            Expr::Column { table, name } => match env.resolve(table.as_deref(), name) {
                Ok(Some(_)) => true,
                _ => self.pseudo_lookup(ctx, table.as_deref(), name).is_some(),
            },
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => {
                self.expr_resolvable(expr, env, ctx)
            }
            Expr::Binary { left, right, .. } => {
                self.expr_resolvable(left, env, ctx) && self.expr_resolvable(right, env, ctx)
            }
            Expr::InList { expr, list, .. } => {
                self.expr_resolvable(expr, env, ctx)
                    && list.iter().all(|l| self.expr_resolvable(l, env, ctx))
            }
            Expr::InSubquery { expr, .. } => self.expr_resolvable(expr, env, ctx),
            Expr::Like { expr, .. } => self.expr_resolvable(expr, env, ctx),
            Expr::Exists { .. } | Expr::ScalarSubquery(_) => true,
            Expr::Aggregate { .. } => false,
        }
    }

    pub(crate) fn pseudo_lookup(
        &self,
        ctx: &EvalCtx<'_>,
        table: Option<&str>,
        name: &str,
    ) -> Option<Value> {
        let (pname, bindings) = ctx.pseudo_row?;
        match table {
            Some(t) if !t.eq_ignore_ascii_case(pname) => None,
            Some(_) => bindings
                .iter()
                .find(|(c, _)| c.eq_ignore_ascii_case(name))
                .map(|(_, v)| v.clone()),
            // Unqualified names do not silently fall through to OLD/NEW.
            None => None,
        }
    }

    // ------------------------------------------------------------------
    // expression evaluation
    // ------------------------------------------------------------------

    // `ctes` is threaded through for future correlated-subquery support;
    // today subqueries open their own CTE scope.
    #[allow(clippy::only_used_in_recursion)]
    pub(crate) fn eval_expr(
        &self,
        e: &Expr,
        env: &dyn Scope,
        ctx: &EvalCtx<'_>,
        ctes: &CteEnv,
    ) -> Result<Value> {
        match e {
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Param(i) => ctx
                .params
                .get(*i)
                .cloned()
                .ok_or_else(|| DbError::Execution(format!("unbound parameter ${}", i + 1))),
            Expr::Column { table, name } => {
                if let Some(off) = env.resolve(table.as_deref(), name)? {
                    return Ok(env.value(off).clone());
                }
                if let Some(v) = self.pseudo_lookup(ctx, table.as_deref(), name) {
                    return Ok(v);
                }
                Err(DbError::NoSuchColumn(match table {
                    Some(t) => format!("{t}.{name}"),
                    None => name.clone(),
                }))
            }
            Expr::Unary { op, expr } => {
                let v = self.eval_expr(expr, env, ctx, ctes)?;
                match op {
                    UnOp::Neg => match v {
                        Value::Null => Ok(Value::Null),
                        Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
                        other => Err(DbError::Type(format!("cannot negate {other}"))),
                    },
                    UnOp::Not => match self.truth(&v)? {
                        None => Ok(Value::Null),
                        Some(b) => Ok(Value::Bool(!b)),
                    },
                }
            }
            Expr::Binary { left, op, right } => {
                if matches!(op, BinOp::And | BinOp::Or) {
                    let l = self.eval_expr(left, env, ctx, ctes)?;
                    let lt = self.truth(&l)?;
                    // Short-circuit per 3VL.
                    match (op, lt) {
                        (BinOp::And, Some(false)) => return Ok(Value::Bool(false)),
                        (BinOp::Or, Some(true)) => return Ok(Value::Bool(true)),
                        _ => {}
                    }
                    let r = self.eval_expr(right, env, ctx, ctes)?;
                    let rt = self.truth(&r)?;
                    return Ok(match (op, lt, rt) {
                        (BinOp::And, Some(true), Some(true)) => Value::Bool(true),
                        (BinOp::And, _, Some(false)) => Value::Bool(false),
                        (BinOp::And, _, _) => Value::Null,
                        (BinOp::Or, _, Some(true)) => Value::Bool(true),
                        (BinOp::Or, Some(false), Some(false)) => Value::Bool(false),
                        (BinOp::Or, _, _) => Value::Null,
                        _ => unreachable!(),
                    });
                }
                let l = self.eval_expr(left, env, ctx, ctes)?;
                let r = self.eval_expr(right, env, ctx, ctes)?;
                if op.is_comparison() {
                    return Ok(match l.sql_cmp(&r) {
                        None => {
                            if l.is_null() || r.is_null() {
                                Value::Null
                            } else {
                                // Incomparable types: unequal.
                                match op {
                                    BinOp::Ne => Value::Bool(true),
                                    _ => Value::Bool(false),
                                }
                            }
                        }
                        Some(ord) => Value::Bool(match op {
                            BinOp::Eq => ord.is_eq(),
                            BinOp::Ne => !ord.is_eq(),
                            BinOp::Lt => ord.is_lt(),
                            BinOp::Le => ord.is_le(),
                            BinOp::Gt => ord.is_gt(),
                            BinOp::Ge => ord.is_ge(),
                            _ => unreachable!(),
                        }),
                    });
                }
                // Arithmetic.
                match (l, r) {
                    (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                    (Value::Int(a), Value::Int(b)) => match op {
                        BinOp::Add => Ok(Value::Int(a.wrapping_add(b))),
                        BinOp::Sub => Ok(Value::Int(a.wrapping_sub(b))),
                        BinOp::Mul => Ok(Value::Int(a.wrapping_mul(b))),
                        BinOp::Div => {
                            if b == 0 {
                                Err(DbError::Execution("division by zero".into()))
                            } else {
                                // wrapping: i64::MIN / -1 must not abort.
                                Ok(Value::Int(a.wrapping_div(b)))
                            }
                        }
                        BinOp::Mod => {
                            if b == 0 {
                                Err(DbError::Execution("modulo by zero".into()))
                            } else {
                                Ok(Value::Int(a.wrapping_rem(b)))
                            }
                        }
                        _ => unreachable!(),
                    },
                    (a, b) => Err(DbError::Type(format!("arithmetic on {a} and {b}"))),
                }
            }
            Expr::IsNull { expr, negated } => {
                let v = self.eval_expr(expr, env, ctx, ctes)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let v = self.eval_expr(expr, env, ctx, ctes)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                // Row-independent lists (the common shape, e.g. batched
                // `id IN (…)` deletes) build their probe set once per
                // statement; only correlated lists re-evaluate per row.
                if let Some(cl) = self.cached_in_list(list, ctx, ctes)? {
                    return Ok(if cl.set.contains(&v) {
                        Value::Bool(!negated)
                    } else if cl.has_null {
                        Value::Null
                    } else {
                        Value::Bool(*negated)
                    });
                }
                let mut saw_null = false;
                for item in list {
                    let iv = self.eval_expr(item, env, ctx, ctes)?;
                    if iv.is_null() {
                        saw_null = true;
                    } else if iv == v {
                        return Ok(Value::Bool(!negated));
                    }
                }
                if saw_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Bool(*negated))
                }
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = self.eval_expr(expr, env, ctx, ctes)?;
                match v {
                    Value::Null => Ok(Value::Null),
                    Value::Str(s) => Ok(Value::Bool(like_match(&s, pattern) != *negated)),
                    other => Err(DbError::Type(format!("LIKE on non-string value {other}"))),
                }
            }
            Expr::InSubquery {
                expr,
                query,
                negated,
            } => {
                let v = self.eval_expr(expr, env, ctx, ctes)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let sub = self.cached_subquery(query, ctx)?;
                if sub.set.contains(&v) {
                    Ok(Value::Bool(!negated))
                } else if sub.has_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Bool(*negated))
                }
            }
            Expr::Exists { query, negated } => {
                let sub = self.cached_subquery(query, ctx)?;
                Ok(Value::Bool(sub.rows.is_empty() == *negated))
            }
            Expr::ScalarSubquery(query) => {
                let sub = self.cached_subquery(query, ctx)?;
                match sub.rows.len() {
                    0 => Ok(Value::Null),
                    1 => Ok(sub.rows[0]
                        .first()
                        .cloned()
                        .ok_or_else(|| DbError::Execution("zero-column subquery".into()))?),
                    n => Err(DbError::Execution(format!(
                        "scalar subquery returned {n} rows"
                    ))),
                }
            }
            Expr::Aggregate { .. } => Err(DbError::Execution(
                "aggregate used outside an aggregate query".into(),
            )),
        }
    }

    pub(crate) fn cached_subquery(
        &self,
        q: &SelectStmt,
        ctx: &EvalCtx<'_>,
    ) -> Result<Rc<CachedSub>> {
        let key = q as *const SelectStmt as usize;
        if let Some(hit) = ctx.sub_cache.borrow().get(&key) {
            return Ok(hit.clone());
        }
        let rs = self.eval_select(q, ctx)?;
        let mut set = HashSet::with_capacity(rs.rows.len());
        let mut has_null = false;
        for r in &rs.rows {
            match r.first() {
                Some(Value::Null) | None => has_null = true,
                Some(v) => {
                    set.insert(v.clone());
                }
            }
        }
        let cached = Rc::new(CachedSub {
            rows: rs.rows,
            set,
            has_null,
        });
        ctx.sub_cache.borrow_mut().insert(key, cached.clone());
        Ok(cached)
    }

    /// Probe set for a row-independent IN-list, materialized once per
    /// statement and cached by the list's address (the statement or plan
    /// holding it outlives the execution — see `EvalCtx::keepalive`).
    /// Returns `None` for correlated lists, which must be re-evaluated
    /// against each outer row.
    pub(crate) fn cached_in_list(
        &self,
        list: &[Expr],
        ctx: &EvalCtx<'_>,
        ctes: &CteEnv,
    ) -> Result<Option<Rc<CachedList>>> {
        let key = list.as_ptr() as usize;
        if let Some(hit) = ctx.list_cache.borrow().get(&key) {
            return Ok(Some(hit.clone()));
        }
        if !list.iter().all(Self::row_independent) {
            return Ok(None);
        }
        StatsCells::bump(&self.stats.in_list_builds, 1);
        let empty = SliceEnv {
            layout: &[],
            values: &[],
        };
        let mut set = HashSet::with_capacity(list.len());
        let mut has_null = false;
        for item in list {
            let v = self.eval_expr(item, &empty, ctx, ctes)?;
            if v.is_null() {
                has_null = true;
            } else {
                set.insert(v);
            }
        }
        let cached = Rc::new(CachedList { set, has_null });
        ctx.list_cache.borrow_mut().insert(key, cached.clone());
        Ok(Some(cached))
    }

    pub(crate) fn truth(&self, v: &Value) -> Result<Option<bool>> {
        match v {
            Value::Null => Ok(None),
            Value::Bool(b) => Ok(Some(*b)),
            other => Err(DbError::Type(format!("expected boolean, got {other}"))),
        }
    }

    pub(crate) fn eval_bool(
        &self,
        e: &Expr,
        env: &dyn Scope,
        ctx: &EvalCtx<'_>,
        ctes: &CteEnv,
    ) -> Result<Option<bool>> {
        let v = self.eval_expr(e, env, ctx, ctes)?;
        self.truth(&v)
    }

    pub(crate) fn eval_aggregate_expr(
        &self,
        e: &Expr,
        layout: &[(String, Vec<String>, usize)],
        rows: &[Row],
        ctx: &EvalCtx<'_>,
        ctes: &CteEnv,
    ) -> Result<Value> {
        match e {
            Expr::Aggregate { func, arg } => match func {
                AggFunc::Count => match arg {
                    None => Ok(Value::Int(rows.len() as i64)),
                    Some(a) => {
                        let mut n = 0i64;
                        for row in rows {
                            let env = SliceEnv {
                                layout,
                                values: row,
                            };
                            if !self.eval_expr(a, &env, ctx, ctes)?.is_null() {
                                n += 1;
                            }
                        }
                        Ok(Value::Int(n))
                    }
                },
                AggFunc::Min | AggFunc::Max => {
                    let a = arg
                        .as_ref()
                        .ok_or_else(|| DbError::Execution("MIN/MAX need an argument".into()))?;
                    let mut best: Option<Value> = None;
                    for row in rows {
                        let env = SliceEnv {
                            layout,
                            values: row,
                        };
                        let v = self.eval_expr(a, &env, ctx, ctes)?;
                        if v.is_null() {
                            continue;
                        }
                        best = Some(match best {
                            None => v,
                            Some(b) => {
                                let take_new = match v.sort_cmp(&b) {
                                    std::cmp::Ordering::Less => *func == AggFunc::Min,
                                    std::cmp::Ordering::Greater => *func == AggFunc::Max,
                                    std::cmp::Ordering::Equal => false,
                                };
                                if take_new {
                                    v
                                } else {
                                    b
                                }
                            }
                        });
                    }
                    Ok(best.unwrap_or(Value::Null))
                }
                AggFunc::Sum => {
                    let a = arg
                        .as_ref()
                        .ok_or_else(|| DbError::Execution("SUM needs an argument".into()))?;
                    let mut sum: Option<i64> = None;
                    for row in rows {
                        let env = SliceEnv {
                            layout,
                            values: row,
                        };
                        match self.eval_expr(a, &env, ctx, ctes)? {
                            Value::Null => {}
                            Value::Int(i) => sum = Some(sum.unwrap_or(0).wrapping_add(i)),
                            other => return Err(DbError::Type(format!("SUM over {other}"))),
                        }
                    }
                    Ok(sum.map(Value::Int).unwrap_or(Value::Null))
                }
            },
            Expr::Binary { left, op, right } => {
                let l = self.eval_aggregate_expr(left, layout, rows, ctx, ctes)?;
                let r = self.eval_aggregate_expr(right, layout, rows, ctx, ctes)?;
                let combined = Expr::Binary {
                    left: Box::new(Expr::Literal(l)),
                    op: *op,
                    right: Box::new(Expr::Literal(r)),
                };
                self.eval_expr(&combined, &RowEnv::default(), ctx, ctes)
            }
            Expr::Unary { op, expr } => {
                let v = self.eval_aggregate_expr(expr, layout, rows, ctx, ctes)?;
                let combined = Expr::Unary {
                    op: *op,
                    expr: Box::new(Expr::Literal(v)),
                };
                self.eval_expr(&combined, &RowEnv::default(), ctx, ctes)
            }
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Param(i) => ctx
                .params
                .get(*i)
                .cloned()
                .ok_or_else(|| DbError::Execution(format!("unbound parameter ${}", i + 1))),
            other => Err(DbError::Execution(format!(
                "non-aggregate expression in aggregate query: {other:?}"
            ))),
        }
    }
}
