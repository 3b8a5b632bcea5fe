//! Rule-based query planner: compiles a [`SelectStmt`] AST into a
//! physical [`SelectPlan`] executed by the Volcano cursors in `exec`.
//!
//! Planning is a single pass per core, mirroring the access decisions
//! the old interpreter made on the fly so results (and the counters the
//! paper's experiments read) stay comparable:
//!
//! 1. **Join selection** — for each FROM source after the first, the
//!    first equality conjunct `src.col = expr-over-earlier-bindings`
//!    turns the source into a hash-join build side; everything else
//!    falls back to a nested-loop (cartesian) join.
//! 2. **Predicate pushdown** — each remaining conjunct that references
//!    exactly one binding is pushed into that binding's scan, filtering
//!    rows before they are cloned out of the table's slot array.
//! 3. **Access selection** — a pushed conjunct of the shape
//!    `col = <row-independent>`, `col IN (subquery)` or `col IN (list)`
//!    over an indexed base-table column turns the scan into an index
//!    probe; failing that, bounds on an indexed column turn it into a
//!    range seek ([`Database::choose_access`], shared with DELETE/UPDATE
//!    target selection and their `EXPLAIN`).
//! 4. **Index joins** — a hash join whose build side is still a
//!    sequential scan of a base table indexed on the join column probes
//!    that index once per outer row instead.
//!
//! Consuming an equality conjunct without re-checking it is sound
//! because index buckets and hash-join tables group values by
//! `Value`'s derived equality, which agrees with SQL `=` on the
//! non-null, same-type values that reach them (nulls never enter
//! buckets or build tables).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::ast::{Expr, InsertSource, SelectCore, SelectItem, SelectStmt, Stmt};
use crate::engine::{Database, ResultSet, StatsCells};
use crate::error::{DbError, Result};
use crate::exec::{CoreProf, EvalCtx, OpProf, PlanProf, SliceEnv};
use crate::sql::{expr_to_sql, stmt_to_sql};
use crate::table::Table;
use crate::value::Value;

/// The literal prefix of a LIKE pattern: the characters before the first
/// wildcard. `None` when the pattern starts with a wildcard (no usable
/// prefix).
fn like_prefix(pattern: &str) -> Option<String> {
    let p: String = pattern
        .chars()
        .take_while(|c| *c != '%' && *c != '_')
        .collect();
    if p.is_empty() {
        None
    } else {
        Some(p)
    }
}

/// Smallest string strictly greater than every string starting with
/// `prefix` under code-point order (which matches `str`'s byte order for
/// UTF-8): increment the last incrementable character and drop the tail.
/// `None` when no such string exists — the range is unbounded above.
fn prefix_successor(prefix: &str) -> Option<String> {
    let mut chars: Vec<char> = prefix.chars().collect();
    while let Some(&last) = chars.last() {
        let mut code = last as u32 + 1;
        // Skip the surrogate gap, which `char` cannot represent.
        if (0xD800..=0xDFFF).contains(&code) {
            code = 0xE000;
        }
        if let Some(next) = char::from_u32(code) {
            *chars.last_mut().unwrap() = next;
            return Some(chars.into_iter().collect());
        }
        chars.pop();
    }
    None
}

/// Literal view of a planned range bound: `Some(None)` for unbounded,
/// `Some(Some(..))` for a literal, `None` when the bound is an expression
/// statistics cannot evaluate at plan time.
fn literal_bound(b: &Option<(Expr, bool)>) -> Option<Option<(&Value, bool)>> {
    match b {
        None => Some(None),
        Some((Expr::Literal(v), incl)) => Some(Some((v, *incl))),
        Some(_) => None,
    }
}

/// How a scan reaches its rows.
#[derive(Debug, Clone)]
pub(crate) enum Access {
    /// Walk every live slot.
    Seq,
    /// Probe the index on column `ci` with a row-independent key.
    IndexEq { ci: usize, key: Expr },
    /// Probe the index on column `ci` with every value produced by an
    /// uncorrelated subquery.
    IndexIn { ci: usize, query: Box<SelectStmt> },
    /// Probe the index on column `ci` with every distinct value of a
    /// row-independent IN-list (the batched-DML shape `id IN (…)`).
    IndexInList { ci: usize, list: Vec<Expr> },
    /// Seek the index on column `ci` between row-independent
    /// bounds (`(expr, inclusive)`; `None` is unbounded). The bounding
    /// conjuncts stay in `pushed` and are re-checked per row, so the seek
    /// only narrows candidates — three-valued logic and cross-type
    /// comparison semantics are preserved by the re-check. With
    /// `ordered`, positions are emitted in key order (reversed by `desc`)
    /// instead of slot order, letting the plan elide an `ORDER BY` sort.
    Range {
        ci: usize,
        lower: Option<(Expr, bool)>,
        upper: Option<(Expr, bool)>,
        ordered: bool,
        desc: bool,
    },
}

/// One FROM source compiled to a physical scan.
#[derive(Debug, Clone)]
pub(crate) struct ScanPlan {
    /// Whether the source is a CTE of the same statement (resolved in
    /// the per-execution CTE environment, not the catalog).
    pub is_cte: bool,
    /// Whether the source is a system view (`rdb_*`), materialized from
    /// engine state at cursor-open time. User tables shadow views, so
    /// this is only set when no table of the same name exists.
    pub is_sys: bool,
    /// Catalog/CTE key (lower-cased name).
    pub key: String,
    /// Source name as written (for error messages and EXPLAIN).
    pub name: String,
    /// The scan's own one-entry row layout: (FROM-clause binding — alias
    /// or table name —, column names of the source, offset 0). Built at
    /// plan time so that opening the scan allocates nothing; pushed
    /// predicates resolve against it.
    pub layout: [(String, Vec<String>, usize); 1],
    pub access: Access,
    /// Conjuncts referencing only this binding, evaluated before the
    /// row is cloned out of the source.
    pub pushed: Vec<Expr>,
    /// The conjunct a point probe in `access` answers exactly, taken out
    /// of `pushed` so the live path does not re-check it. Kept only for
    /// stale-snapshot scans, which cannot use the live index and filter
    /// by it instead; `EXPLAIN` does not render it.
    pub probe: Option<Expr>,
    /// Planner cardinality estimate: table size for a sequential scan,
    /// average index-bucket size for a probe, 0 for CTEs (unknown at
    /// plan time). Shown by `EXPLAIN ANALYZE` next to actual rows.
    pub est_rows: u64,
    /// Whether `est_rows` came from `ANALYZE` statistics (histogram /
    /// distinct-count estimation) rather than the legacy table-size
    /// heuristics. Statistics-backed estimates also show in plain
    /// `EXPLAIN`.
    pub stats_est: bool,
}

impl ScanPlan {
    pub fn binding(&self) -> &str {
        &self.layout[0].0
    }

    pub fn columns(&self) -> &[String] {
        &self.layout[0].1
    }
}

/// How a scan joins against the bindings to its left.
#[derive(Debug, Clone)]
pub(crate) enum JoinKind {
    /// Build a hash table on this scan's column `right_ci`; probe with
    /// `left_key` evaluated over the prefix layout.
    Hash { right_ci: usize, left_key: Expr },
    /// Probe this base table's index on `right_ci` once per left row
    /// with `left_key`; the scan's pushed conjuncts filter each fetched
    /// row. Falls back to [`JoinKind::Hash`] over a stale snapshot.
    Index { right_ci: usize, left_key: Expr },
    /// Cartesian nested loop (residual predicates filter later).
    Loop,
}

/// One projection output.
#[derive(Debug, Clone)]
pub(crate) enum ProjStep {
    /// `*` — the whole joined row.
    All,
    /// `binding.*` — a contiguous column range of the joined row.
    Range { off: usize, len: usize },
    /// A plain column reference, pre-resolved to its row offset.
    Col(usize),
    /// A computed expression.
    Expr(Expr),
}

/// Physical plan for one SELECT core.
#[derive(Debug, Clone)]
pub(crate) struct CorePlan {
    /// Scans in FROM order; the join kind of the first entry is unused.
    pub scans: Vec<(ScanPlan, JoinKind)>,
    /// (binding, columns, offset) for the fully joined row.
    pub layout: Vec<(String, Vec<String>, usize)>,
    /// Conjuncts not consumed by joins, pushdown, or index probes.
    pub residual: Vec<Expr>,
    pub projections: Vec<ProjStep>,
    pub out_columns: Vec<String>,
    /// `Some(projection exprs)` when any projection aggregates.
    pub aggregate: Option<Vec<Expr>>,
    pub distinct: bool,
}

/// Physical plan for one CTE.
#[derive(Debug, Clone)]
pub(crate) struct CtePlan {
    pub key: String,
    pub name: String,
    pub columns: Vec<String>,
    pub body: Vec<CorePlan>,
}

/// Physical plan for a full SELECT statement.
#[derive(Debug, Clone)]
pub(crate) struct SelectPlan {
    pub ctes: Vec<CtePlan>,
    pub body: Vec<CorePlan>,
    /// ORDER BY keys as (row offset, descending).
    pub keys: Vec<(usize, bool)>,
    /// Hidden sort keys computable from the output columns alone,
    /// appended to each output row before sorting.
    pub hidden_on_output: Vec<Expr>,
    /// Number of visible output columns (rows are truncated back to
    /// this width after sorting on hidden keys).
    pub visible: usize,
    pub limit: Option<u64>,
    pub columns: Vec<String>,
    /// Whether an `ORDER BY` sort was elided because the single scan
    /// already emits rows in key order (ordered-index walk).
    pub elided_sort: bool,
}

/// A shared, epoch-stamped slot for a statement's compiled [`SelectPlan`].
/// The same slot is held by the SQL-text plan cache and by every
/// [`PreparedStmt`](crate::PreparedStmt) for that text, so replanning
/// after DDL benefits all holders at once.
#[derive(Debug, Default)]
pub(crate) struct PlanSlot {
    /// The compiled plan, stamped with the schema epoch it was built at.
    pub(crate) plan: Mutex<Option<(u64, Arc<SelectPlan>)>>,
    /// Literal-normalized fingerprint of the statement text, computed at
    /// most once per slot and shared by every execution of the text
    /// (statement tracking and slow-query attribution both read it).
    pub(crate) fingerprint: std::sync::OnceLock<Arc<crate::sysview::Fingerprint>>,
}

/// The optional planning rules, decided once per plan. The naive oracle
/// ([`Database::set_planner_naive`]) runs none of them: FROM order, hash
/// joins that leave their key conjunct in the filter, and sequential
/// scans under a filter re-checked on every joined row — the
/// pre-planner interpreter's behaviour.
#[derive(Debug, Clone, Copy)]
struct Rules {
    /// Greedy statistics-driven join reordering.
    reorder_joins: bool,
    /// Consume hash-join key conjuncts, push single-binding conjuncts
    /// into their scans and pick index access paths for them.
    pushdown: bool,
    /// Turn hash joins over an indexed inner column into index joins.
    index_joins: bool,
    /// Walk an index in key order instead of sorting.
    elide_sorts: bool,
}

impl Database {
    /// Compile a SELECT into a physical plan.
    pub(crate) fn build_select_plan(
        &self,
        q: &SelectStmt,
        ctx: &EvalCtx<'_>,
    ) -> Result<SelectPlan> {
        let _span = crate::obs::Span::enter("sql.plan");
        StatsCells::bump(&self.stats.plans_built, 1);
        let on = !self.planner_naive.get();
        let rules = Rules {
            reorder_joins: on,
            pushdown: on,
            index_joins: on,
            elide_sorts: on,
        };
        let mut cte_cols: HashMap<String, Vec<String>> = HashMap::new();
        let mut cte_plans: Vec<CtePlan> = Vec::new();
        for cte in &q.ctes {
            let body = self.plan_cores(&cte.body, ctx, &cte_cols, rules)?;
            let derived = body[0].out_columns.clone();
            let columns = match &cte.columns {
                Some(cols) => {
                    if cols.len() != derived.len() {
                        return Err(DbError::Schema(format!(
                            "CTE `{}` declares {} columns but produces {}",
                            cte.name,
                            cols.len(),
                            derived.len()
                        )));
                    }
                    cols.clone()
                }
                None => derived,
            };
            let key = cte.name.to_ascii_lowercase();
            cte_cols.insert(key.clone(), columns.clone());
            cte_plans.push(CtePlan {
                key,
                name: cte.name.clone(),
                columns,
                body,
            });
        }
        let mut body = self.plan_cores(&q.body, ctx, &cte_cols, rules)?;
        let columns = body[0].out_columns.clone();
        let visible = columns.len();
        let mut keys: Vec<(usize, bool)> = Vec::with_capacity(q.order_by.len());
        let mut hidden: Vec<&Expr> = Vec::new();
        for k in &q.order_by {
            let idx = match &k.expr {
                Expr::Column { table: None, name } => {
                    columns.iter().position(|c| c.eq_ignore_ascii_case(name))
                }
                Expr::Literal(Value::Int(n)) => {
                    if *n >= 1 && (*n as usize) <= visible {
                        Some(*n as usize - 1)
                    } else {
                        return Err(DbError::Execution(format!(
                            "ORDER BY position {n} is out of range (1..={visible})"
                        )));
                    }
                }
                _ => None,
            };
            match idx {
                Some(i) => keys.push((i, k.desc)),
                None => {
                    keys.push((visible + hidden.len(), k.desc));
                    hidden.push(&k.expr);
                }
            }
        }
        let mut hidden_on_output: Vec<Expr> = Vec::new();
        if !hidden.is_empty() {
            if hidden
                .iter()
                .all(|e| Self::computable_on_output(e, &columns))
            {
                hidden_on_output = hidden.iter().map(|e| (*e).clone()).collect();
            } else if q.body.len() != 1 {
                return Err(DbError::Execution(
                    "ORDER BY over a UNION must name an output column".into(),
                ));
            } else if q.body[0].distinct {
                return Err(DbError::Execution(
                    "ORDER BY items must appear in the select list with DISTINCT".into(),
                ));
            } else {
                // Hidden keys over the source rows: append them to the
                // single core as extra (invisible) projections.
                let core = &mut body[0];
                {
                    let probe = SliceEnv {
                        layout: &core.layout,
                        values: &[],
                    };
                    for e in &hidden {
                        self.check_columns(e, &probe, ctx)?;
                    }
                }
                for e in &hidden {
                    match &mut core.aggregate {
                        Some(exprs) => exprs.push((*e).clone()),
                        None => core.projections.push(ProjStep::Expr((*e).clone())),
                    }
                }
            }
        }
        // --- ORDER BY pushdown -------------------------------------------
        // A single-key sort over a single-scan, non-aggregated core whose
        // key is a direct column of an indexed base table is
        // elided: the scan walks the index in key order instead,
        // and `LIMIT k` then pulls only the first `k` rows.
        let mut elided_sort = false;
        if rules.elide_sorts
            && body.len() == 1
            && keys.len() == 1
            && hidden.is_empty()
            && hidden_on_output.is_empty()
        {
            let core = &mut body[0];
            if core.scans.len() == 1 && core.aggregate.is_none() && !core.distinct {
                let (key_off, key_desc) = keys[0];
                // Map the output offset back to a source-row offset
                // through the projection steps; with a single scan, row
                // offsets are table column indices.
                let mut src: Option<usize> = None;
                let mut out = 0usize;
                for step in &core.projections {
                    let w = match step {
                        ProjStep::All => core.layout.iter().map(|(_, c, _)| c.len()).sum(),
                        ProjStep::Range { len, .. } => *len,
                        ProjStep::Col(_) | ProjStep::Expr(_) => 1,
                    };
                    if key_off >= out && key_off < out + w {
                        src = match step {
                            ProjStep::All => Some(key_off - out),
                            ProjStep::Range { off, .. } => Some(off + (key_off - out)),
                            ProjStep::Col(off) => Some(*off),
                            ProjStep::Expr(_) => None,
                        };
                        break;
                    }
                    out += w;
                }
                if let Some(rci) = src {
                    let scan = &mut core.scans[0].0;
                    if !scan.is_cte && self.tables.get(&scan.key).is_some_and(|t| t.has_index(rci))
                    {
                        match &mut scan.access {
                            // A filtered scan with no LIMIT stays
                            // sequential: visiting every index entry in
                            // key order to spare the few survivors a sort
                            // costs more than scanning and sorting them.
                            a @ Access::Seq if q.limit.is_some() || scan.pushed.is_empty() => {
                                *a = Access::Range {
                                    ci: rci,
                                    lower: None,
                                    upper: None,
                                    ordered: true,
                                    desc: key_desc,
                                };
                                elided_sort = true;
                            }
                            Access::Range {
                                ci, ordered, desc, ..
                            } if *ci == rci => {
                                *ordered = true;
                                *desc = key_desc;
                                elided_sort = true;
                            }
                            _ => {}
                        }
                    }
                }
                if elided_sort {
                    keys.clear();
                }
            }
        }
        Ok(SelectPlan {
            ctes: cte_plans,
            body,
            keys,
            hidden_on_output,
            visible,
            limit: q.limit,
            columns,
            elided_sort,
        })
    }

    fn plan_cores(
        &self,
        cores: &[SelectCore],
        ctx: &EvalCtx<'_>,
        cte_cols: &HashMap<String, Vec<String>>,
        rules: Rules,
    ) -> Result<Vec<CorePlan>> {
        let mut out: Vec<CorePlan> = Vec::with_capacity(cores.len());
        for core in cores {
            let plan = self.plan_core(core, ctx, cte_cols, rules)?;
            if let Some(first) = out.first() {
                if plan.out_columns.len() != first.out_columns.len() {
                    return Err(DbError::Schema(format!(
                        "UNION ALL arity mismatch: {} vs {}",
                        first.out_columns.len(),
                        plan.out_columns.len()
                    )));
                }
            }
            out.push(plan);
        }
        if out.is_empty() {
            return Err(DbError::Execution("empty select body".into()));
        }
        Ok(out)
    }

    fn plan_core(
        &self,
        core: &SelectCore,
        ctx: &EvalCtx<'_>,
        cte_cols: &HashMap<String, Vec<String>>,
        rules: Rules,
    ) -> Result<CorePlan> {
        let conjuncts: Vec<Expr> = core
            .filter
            .as_ref()
            .map(|f| f.conjuncts().into_iter().cloned().collect())
            .unwrap_or_default();
        let mut consumed = vec![false; conjuncts.len()];

        // --- join order --------------------------------------------------
        // `order[k]` is the FROM index planned as the k-th scan. Greedy
        // smallest-estimate-first reordering only fires when every source
        // is a base table with ANALYZE statistics, so plans (and the row
        // orders existing results bake in) for un-analyzed schemas are
        // byte-stable.
        let order: Vec<usize> = if rules.reorder_joins {
            self.join_order(core, &conjuncts, cte_cols)
        } else {
            (0..core.from.len()).collect()
        };
        let identity_order = order.iter().enumerate().all(|(k, &j)| k == j);

        // --- sources -----------------------------------------------------
        let mut scans: Vec<(ScanPlan, JoinKind)> = Vec::with_capacity(core.from.len());
        let mut layout: Vec<(String, Vec<String>, usize)> = Vec::new();
        let mut width = 0usize;
        for &fi in &order {
            let tref = &core.from[fi];
            let binding = tref.binding().to_string();
            if layout
                .iter()
                .any(|(b, _, _)| b.eq_ignore_ascii_case(&binding))
            {
                return Err(DbError::Schema(format!(
                    "duplicate binding `{binding}` in FROM"
                )));
            }
            let key = tref.name.to_ascii_lowercase();
            let (is_cte, is_sys, columns) = if let Some(cols) = cte_cols.get(&key) {
                (true, false, cols.clone())
            } else if let Some(t) = self.tables.get(&key) {
                (false, false, t.schema.column_names())
            } else if let Some(cols) = crate::sysview::view_columns(&key) {
                // System views resolve last, so a CTE or user table of
                // the same name shadows them.
                (false, true, cols.iter().map(|c| c.to_string()).collect())
            } else {
                return Err(DbError::NoSuchTable(tref.name.clone()));
            };
            layout.push((binding.clone(), columns.clone(), width));
            width += columns.len();
            scans.push((
                ScanPlan {
                    is_cte,
                    is_sys,
                    key,
                    name: tref.name.clone(),
                    layout: [(binding, columns, 0)],
                    access: Access::Seq,
                    pushed: Vec::new(),
                    probe: None,
                    est_rows: 0,
                    stats_est: false,
                },
                JoinKind::Loop,
            ));
        }

        // --- validation --------------------------------------------------
        // Column references must resolve even when the input is empty.
        {
            let probe = SliceEnv {
                layout: &layout,
                values: &[],
            };
            if let Some(f) = &core.filter {
                self.check_columns(f, &probe, ctx)?;
            }
            for item in &core.projections {
                if let SelectItem::Expr { expr, .. } = item {
                    self.check_columns(expr, &probe, ctx)?;
                }
            }
        }

        // --- join selection ----------------------------------------------
        // For each source after the first, take the first equality
        // conjunct `src.col = expr-over-earlier-bindings` (either operand
        // order) as a hash-join key. The pre-planner interpreter made the
        // same choice, so join selection runs without `rules.pushdown`
        // too — but then the conjunct is NOT consumed, reproducing the
        // interpreter's re-check of the whole filter on joined rows.
        for i in 1..scans.len() {
            let prefix = SliceEnv {
                layout: &layout[..i],
                values: &[],
            };
            'conj: for (ci_conj, conj) in conjuncts.iter().enumerate() {
                if consumed[ci_conj] {
                    continue;
                }
                if let Expr::Binary {
                    left,
                    op: crate::ast::BinOp::Eq,
                    right,
                } = conj
                {
                    for (a, b) in [(left, right), (right, left)] {
                        if let Expr::Column { table: qual, name } = a.as_ref() {
                            let qual_matches = qual
                                .as_deref()
                                .map(|q| q.eq_ignore_ascii_case(scans[i].0.binding()))
                                .unwrap_or(false);
                            if qual_matches {
                                if let Some(col) = scans[i]
                                    .0
                                    .columns()
                                    .iter()
                                    .position(|c| c.eq_ignore_ascii_case(name))
                                {
                                    if self.expr_resolvable(b, &prefix, ctx) {
                                        scans[i].1 = JoinKind::Hash {
                                            right_ci: col,
                                            left_key: (**b).clone(),
                                        };
                                        consumed[ci_conj] = rules.pushdown;
                                        break 'conj;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }

        if rules.pushdown {
            // --- predicate pushdown --------------------------------------
            // A conjunct whose column references land in exactly one
            // binding filters inside that binding's scan. Conjuncts that
            // reference no binding stay residual so their evaluation
            // errors surface exactly as the filter's would.
            if scans.len() <= 64 {
                for (ci_conj, conj) in conjuncts.iter().enumerate() {
                    if consumed[ci_conj] {
                        continue;
                    }
                    if let Some(mask) = Self::binding_mask(conj, &layout) {
                        if mask.count_ones() == 1 {
                            let target = mask.trailing_zeros() as usize;
                            scans[target].0.pushed.push(conj.clone());
                            consumed[ci_conj] = true;
                            StatsCells::bump(&self.stats.predicates_pushed, 1);
                        }
                    }
                }
            }

            // --- access selection and index joins ------------------------
            // A hash join whose build side is left a sequential scan of a
            // table indexed on the join column probes that index per
            // outer row instead. No statistics gate: the hash join clones
            // every inner row into its build side, the probe touches only
            // matching rows. An inner side with its own literal probe keeps
            // it and stays a hash join.
            for (scan, kind) in &mut scans {
                if scan.is_cte {
                    continue;
                }
                let Some(t) = self.tables.get(&scan.key) else {
                    continue;
                };
                let pushed: Vec<&Expr> = scan.pushed.iter().collect();
                let (consumed, access) = Self::choose_access(t, scan.binding(), &pushed);
                scan.probe = consumed.map(|pi| scan.pushed.remove(pi));
                scan.access = access;
                if let JoinKind::Hash { right_ci, left_key } = kind {
                    if rules.index_joins
                        && matches!(scan.access, Access::Seq)
                        && t.has_index(*right_ci)
                    {
                        *kind = JoinKind::Index {
                            right_ci: *right_ci,
                            left_key: left_key.clone(),
                        };
                    }
                }
            }
        }

        // --- cardinality estimates ---------------------------------------
        // Without ANALYZE statistics the legacy heuristics apply: table
        // size for a sequential scan, average index-bucket size for a
        // probe — so plans and EXPLAIN output for un-analyzed schemas are
        // unchanged. With statistics, estimates come from distinct counts
        // and equi-depth histograms. CTE sizes are unknown at plan time.
        // An index join's inner side estimates one probe's bucket.
        for (scan, kind) in &mut scans {
            scan.est_rows = if scan.is_cte {
                0
            } else if let Some(t) = self.tables.get(&scan.key) {
                scan.stats_est = t.statistics().is_some();
                match kind {
                    JoinKind::Index { right_ci, .. } => bucket_rows(t, *right_ci),
                    _ => Self::estimate_scan(scan, t),
                }
            } else {
                0
            };
        }

        let residual: Vec<Expr> = conjuncts
            .into_iter()
            .zip(&consumed)
            .filter(|(_, c)| !**c)
            .map(|(e, _)| e)
            .collect();

        // --- projections -------------------------------------------------
        let aggregate_mode = core.projections.iter().any(|p| match p {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            _ => false,
        });
        let mut out_columns: Vec<String> = Vec::new();
        let mut steps: Vec<ProjStep> = Vec::new();
        let mut agg_exprs: Vec<Expr> = Vec::new();
        for (i, item) in core.projections.iter().enumerate() {
            match item {
                SelectItem::Wildcard => {
                    if aggregate_mode {
                        return Err(DbError::Execution(
                            "wildcards cannot be mixed with aggregates".into(),
                        ));
                    }
                    if identity_order {
                        for (_, cols, _) in &layout {
                            out_columns.extend(cols.iter().cloned());
                        }
                        steps.push(ProjStep::All);
                    } else {
                        // Reordered join: `*` still expands in FROM order.
                        for j in 0..order.len() {
                            let k = order.iter().position(|&o| o == j).unwrap();
                            let (_, cols, off) = &layout[k];
                            out_columns.extend(cols.iter().cloned());
                            steps.push(ProjStep::Range {
                                off: *off,
                                len: cols.len(),
                            });
                        }
                    }
                }
                SelectItem::QualifiedWildcard(t) => {
                    if aggregate_mode {
                        return Err(DbError::Execution(
                            "wildcards cannot be mixed with aggregates".into(),
                        ));
                    }
                    let (_, cols, off) = layout
                        .iter()
                        .find(|(b, _, _)| b.eq_ignore_ascii_case(t))
                        .ok_or_else(|| DbError::NoSuchTable(format!("{t}.*")))?;
                    out_columns.extend(cols.iter().cloned());
                    steps.push(ProjStep::Range {
                        off: *off,
                        len: cols.len(),
                    });
                }
                SelectItem::Expr { expr, alias } => {
                    out_columns.push(match alias {
                        Some(a) => a.clone(),
                        None => match expr {
                            Expr::Column { name, .. } => name.clone(),
                            _ => format!("col{}", i + 1),
                        },
                    });
                    if aggregate_mode {
                        agg_exprs.push(expr.clone());
                    } else if let Expr::Column { table, name } = expr {
                        // Pre-resolve plain columns to row offsets; OLD/NEW
                        // pseudo references resolve to None and stay as
                        // expressions.
                        match crate::exec::layout_resolve(&layout, table.as_deref(), name)? {
                            Some(off) => steps.push(ProjStep::Col(off)),
                            None => steps.push(ProjStep::Expr(expr.clone())),
                        }
                    } else {
                        steps.push(ProjStep::Expr(expr.clone()));
                    }
                }
            }
        }

        Ok(CorePlan {
            scans,
            layout,
            residual,
            projections: steps,
            out_columns,
            aggregate: if aggregate_mode {
                Some(agg_exprs)
            } else {
                None
            },
            distinct: core.distinct,
        })
    }

    /// Bitmask of bindings an expression's column references land in, or
    /// `None` when the expression cannot be classified (aggregates,
    /// unresolvable names). Pseudo-row (OLD/NEW) references contribute no
    /// bits — they are row-independent constants during a statement.
    fn binding_mask(e: &Expr, layout: &[(String, Vec<String>, usize)]) -> Option<u64> {
        match e {
            Expr::Literal(_) | Expr::Param(_) => Some(0),
            Expr::Column { table, name } => match table.as_deref() {
                Some(t) => {
                    if let Some(i) = layout
                        .iter()
                        .position(|(b, _, _)| b.eq_ignore_ascii_case(t))
                    {
                        Some(1u64 << i)
                    } else {
                        // Validated already: must be an OLD/NEW pseudo
                        // reference, constant for the statement.
                        Some(0)
                    }
                }
                None => layout
                    .iter()
                    .position(|(_, cols, _)| cols.iter().any(|c| c.eq_ignore_ascii_case(name)))
                    .map(|i| 1u64 << i),
            },
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => {
                Self::binding_mask(expr, layout)
            }
            Expr::Binary { left, right, .. } => {
                Some(Self::binding_mask(left, layout)? | Self::binding_mask(right, layout)?)
            }
            Expr::InList { expr, list, .. } => {
                let mut m = Self::binding_mask(expr, layout)?;
                for l in list {
                    m |= Self::binding_mask(l, layout)?;
                }
                Some(m)
            }
            Expr::InSubquery { expr, .. } => Self::binding_mask(expr, layout),
            Expr::Like { expr, .. } => Self::binding_mask(expr, layout),
            Expr::Exists { .. } | Expr::ScalarSubquery(_) => Some(0),
            Expr::Aggregate { .. } => None,
        }
    }

    // ------------------------------------------------------------------
    // cost model
    // ------------------------------------------------------------------

    /// Choose the scan order for a core's FROM sources: greedy
    /// smallest-estimate-first, preferring sources that share an equality
    /// conjunct with an already-placed binding (so hash joins stay hash
    /// joins). Returns the identity order unless every source is a base
    /// table with ANALYZE statistics — cost comparisons need real
    /// cardinalities, and gating on statistics keeps plans for
    /// un-analyzed schemas byte-stable.
    fn join_order(
        &self,
        core: &SelectCore,
        conjuncts: &[Expr],
        cte_cols: &HashMap<String, Vec<String>>,
    ) -> Vec<usize> {
        let n = core.from.len();
        let identity: Vec<usize> = (0..n).collect();
        if !(2..=4).contains(&n) {
            return identity;
        }
        let mut layout: Vec<(String, Vec<String>, usize)> = Vec::new();
        let mut tables: Vec<&Table> = Vec::new();
        let mut width = 0usize;
        for tref in &core.from {
            let key = tref.name.to_ascii_lowercase();
            if cte_cols.contains_key(&key) {
                return identity;
            }
            // A missing table surfaces as NoSuchTable in the main pass.
            let Some(t) = self.tables.get(&key) else {
                return identity;
            };
            if t.statistics().is_none() {
                return identity;
            }
            let cols = t.schema.column_names();
            layout.push((tref.binding().to_string(), cols, width));
            width += layout.last().map_or(0, |(_, c, _)| c.len());
            tables.push(t);
        }
        let mut est: Vec<u64> = tables.iter().map(|t| (t.len() as u64).max(1)).collect();
        let mut edges = vec![0u64; n];
        for conj in conjuncts {
            let Some(mask) = Self::binding_mask(conj, &layout) else {
                continue;
            };
            if mask.count_ones() == 1 {
                let j = mask.trailing_zeros() as usize;
                if let Some(e) = Self::est_conjunct(tables[j], conj, &layout[j].0) {
                    est[j] = est[j].min(e.max(1));
                }
            } else if mask.count_ones() == 2
                && matches!(
                    conj,
                    Expr::Binary {
                        op: crate::ast::BinOp::Eq,
                        ..
                    }
                )
            {
                let a = mask.trailing_zeros() as usize;
                let b = 63 - mask.leading_zeros() as usize;
                edges[a] |= 1 << b;
                edges[b] |= 1 << a;
            }
        }
        let mut order = Vec::with_capacity(n);
        let mut placed = 0u64;
        let mut remaining: Vec<usize> = (0..n).collect();
        while !remaining.is_empty() {
            let connected: Vec<usize> = if placed == 0 {
                Vec::new()
            } else {
                remaining
                    .iter()
                    .copied()
                    .filter(|&j| edges[j] & placed != 0)
                    .collect()
            };
            let pool: &[usize] = if connected.is_empty() {
                &remaining
            } else {
                &connected
            };
            // Ties keep the original FROM order (min index wins).
            let pick = *pool.iter().min_by_key(|&&j| (est[j], j)).unwrap();
            order.push(pick);
            placed |= 1 << pick;
            remaining.retain(|&j| j != pick);
        }
        order
    }

    /// Statistics-based row estimate for a single-binding conjunct over
    /// base table `t`, or `None` when the shape is not estimable
    /// (non-literal operands, unresolvable columns, no statistics).
    fn est_conjunct(t: &Table, conj: &Expr, binding: &str) -> Option<u64> {
        use crate::ast::BinOp::{Eq, Ge, Gt, Le, Lt};
        let s = t.statistics()?;
        let col_of = |e: &Expr| -> Option<usize> {
            if let Expr::Column { table: qual, name } = e {
                let qual_ok = qual
                    .as_deref()
                    .map(|q| q.eq_ignore_ascii_case(binding))
                    .unwrap_or(true);
                if qual_ok {
                    let ci = t.schema.column_index(name)?;
                    if ci < s.columns.len() {
                        return Some(ci);
                    }
                }
            }
            None
        };
        match conj {
            Expr::Binary { left, op, right } => {
                for (colside, keyside, flipped) in [(left, right, false), (right, left, true)] {
                    let (Some(ci), Expr::Literal(v)) = (col_of(colside), keyside.as_ref()) else {
                        continue;
                    };
                    let c = &s.columns[ci];
                    return Some(match (op, flipped) {
                        (Eq, _) => c.est_eq_rows(v),
                        (Gt, false) | (Lt, true) => c.est_range_rows(Some((v, false)), None),
                        (Ge, false) | (Le, true) => c.est_range_rows(Some((v, true)), None),
                        (Lt, false) | (Gt, true) => c.est_range_rows(None, Some((v, false))),
                        (Le, false) | (Ge, true) => c.est_range_rows(None, Some((v, true))),
                        _ => return None,
                    });
                }
                None
            }
            Expr::Like {
                expr,
                pattern,
                negated: false,
            } => {
                let ci = col_of(expr)?;
                let prefix = like_prefix(pattern)?;
                let hi = prefix_successor(&prefix).map(Value::Str);
                let lo = Value::Str(prefix);
                Some(
                    s.columns[ci]
                        .est_range_rows(Some((&lo, true)), hi.as_ref().map(|h| (h, false))),
                )
            }
            Expr::IsNull { expr, negated } => {
                let ci = col_of(expr)?;
                let nulls = s.columns[ci].null_count;
                Some(if *negated {
                    s.row_count.saturating_sub(nulls)
                } else {
                    nulls
                })
            }
            _ => None,
        }
    }

    /// The column of `t` that `e` names under `binding` (unqualified, or
    /// qualified by the binding), when that column is indexed.
    fn indexed_column(t: &Table, binding: &str, e: &Expr) -> Option<usize> {
        let Expr::Column { table: qual, name } = e else {
            return None;
        };
        if qual
            .as_deref()
            .is_some_and(|q| !q.eq_ignore_ascii_case(binding))
        {
            return None;
        }
        t.schema.column_index(name).filter(|&ci| t.has_index(ci))
    }

    /// The one access chooser, shared by SELECT planning, DELETE/UPDATE
    /// target selection and DML `EXPLAIN`. `conjuncts` all reference only
    /// `binding`'s row. The first conjunct of the shape
    /// `col = <row-independent>`, `col IN (subquery)` or
    /// `col IN (<row-independent list>)` over an indexed column becomes a
    /// point probe and is *consumed* (its index is returned: the probe
    /// answers it exactly, so it need not be re-checked). Failing that,
    /// bounds on an indexed column become a range seek, which consumes
    /// nothing. Otherwise the scan stays sequential.
    pub(crate) fn choose_access(
        t: &Table,
        binding: &str,
        conjuncts: &[&Expr],
    ) -> (Option<usize>, Access) {
        use crate::ast::BinOp::Eq;
        for (i, conj) in conjuncts.iter().enumerate() {
            let probe = match conj {
                Expr::Binary {
                    left,
                    op: Eq,
                    right,
                } => [(left, right), (right, left)]
                    .into_iter()
                    .find_map(|(colside, keyside)| {
                        let ci = Self::indexed_column(t, binding, colside)?;
                        Self::row_independent(keyside).then(|| Access::IndexEq {
                            ci,
                            key: (**keyside).clone(),
                        })
                    }),
                Expr::InSubquery {
                    expr,
                    query,
                    negated: false,
                } => Self::indexed_column(t, binding, expr).map(|ci| Access::IndexIn {
                    ci,
                    query: query.clone(),
                }),
                Expr::InList {
                    expr,
                    list,
                    negated: false,
                } if list.iter().all(Self::row_independent) => {
                    Self::indexed_column(t, binding, expr).map(|ci| Access::IndexInList {
                        ci,
                        list: list.clone(),
                    })
                }
                _ => None,
            };
            if let Some(access) = probe {
                return (Some(i), access);
            }
        }
        (
            None,
            Self::pick_range_access(t, binding, conjuncts).unwrap_or(Access::Seq),
        )
    }

    /// A range seek over an indexed column that `conjuncts` bound —
    /// comparisons against a row-independent expression and
    /// `LIKE 'prefix%'` patterns — when the seek is estimated (or, without
    /// statistics, assumed) to be selective. The bounding conjuncts are
    /// not consumed: the scan re-checks them per candidate row.
    fn pick_range_access(t: &Table, binding: &str, conjuncts: &[&Expr]) -> Option<Access> {
        use crate::ast::BinOp::{Ge, Gt, Le, Lt};
        type RangeBounds = (Option<(Expr, bool)>, Option<(Expr, bool)>);
        // Per indexed column in first-seen order; only the first lower
        // and first upper bound are kept (any single bound is a superset
        // of the conjunction, and every conjunct is re-checked).
        let mut bounds: Vec<(usize, RangeBounds)> = Vec::new();
        for p in conjuncts {
            let (ci, lower, upper) = match p {
                Expr::Binary { left, op, right } if matches!(op, Lt | Le | Gt | Ge) => {
                    let hit = [(left, right, false), (right, left, true)]
                        .into_iter()
                        .find_map(|(colside, keyside, flipped)| {
                            let ci = Self::indexed_column(t, binding, colside)?;
                            if !Self::row_independent(keyside) {
                                return None;
                            }
                            let (is_lower, incl) = match (op, flipped) {
                                (Gt, false) | (Lt, true) => (true, false),
                                (Ge, false) | (Le, true) => (true, true),
                                (Lt, false) | (Gt, true) => (false, false),
                                (Le, false) | (Ge, true) => (false, true),
                                _ => unreachable!(),
                            };
                            let b = ((**keyside).clone(), incl);
                            Some(if is_lower {
                                (ci, Some(b), None)
                            } else {
                                (ci, None, Some(b))
                            })
                        });
                    match hit {
                        Some(h) => h,
                        None => continue,
                    }
                }
                Expr::Like {
                    expr,
                    pattern,
                    negated: false,
                } => {
                    let Some(ci) = Self::indexed_column(t, binding, expr) else {
                        continue;
                    };
                    let Some(prefix) = like_prefix(pattern) else {
                        continue;
                    };
                    let upper =
                        prefix_successor(&prefix).map(|s| (Expr::Literal(Value::Str(s)), false));
                    (ci, Some((Expr::Literal(Value::Str(prefix)), true)), upper)
                }
                _ => continue,
            };
            if let Some((_, b)) = bounds.iter_mut().find(|(c, _)| *c == ci) {
                if b.0.is_none() {
                    b.0 = lower;
                }
                if b.1.is_none() {
                    b.1 = upper;
                }
            } else {
                bounds.push((ci, (lower, upper)));
            }
        }
        // Prefer a column bounded on both sides, else the first bounded.
        let i = bounds
            .iter()
            .position(|(_, b)| b.0.is_some() && b.1.is_some())
            .or(if bounds.is_empty() { None } else { Some(0) })?;
        let (ci, (lower, upper)) = bounds.swap_remove(i);
        // Selectivity check: with statistics and literal bounds, seek only
        // when it is expected to skip at least half the table. Without
        // statistics an explicitly bounded column is assumed selective.
        if let Some(s) = t.statistics() {
            if ci < s.columns.len() {
                if let (Some(lo), Some(hi)) = (literal_bound(&lower), literal_bound(&upper)) {
                    let est = s.columns[ci].est_range_rows(lo, hi);
                    if est.saturating_mul(2) > t.len() as u64 {
                        return None;
                    }
                }
            }
        }
        Some(Access::Range {
            ci,
            lower,
            upper,
            ordered: false,
            desc: false,
        })
    }

    /// Cardinality estimate for one scan. Statistics-backed when the
    /// table has them; the legacy size heuristics otherwise.
    fn estimate_scan(scan: &ScanPlan, t: &Table) -> u64 {
        let total = t.len() as u64;
        let stats = t.statistics();
        match &scan.access {
            Access::Seq => match stats {
                Some(_) => {
                    let mut est = total;
                    for p in &scan.pushed {
                        if let Some(e) = Self::est_conjunct(t, p, scan.binding()) {
                            est = est.min(e);
                        }
                    }
                    est
                }
                None => total,
            },
            Access::IndexEq { ci, key } => {
                if let (Some(s), Expr::Literal(v)) = (stats, key) {
                    if *ci < s.columns.len() {
                        return s.columns[*ci].est_eq_rows(v);
                    }
                }
                bucket_rows(t, *ci)
            }
            Access::IndexIn { ci, .. } | Access::IndexInList { ci, .. } => bucket_rows(t, *ci),
            Access::Range {
                ci, lower, upper, ..
            } => {
                if let Some(s) = stats {
                    if *ci < s.columns.len() {
                        if let (Some(lo), Some(hi)) = (literal_bound(lower), literal_bound(upper)) {
                            return s.columns[*ci].est_range_rows(lo, hi);
                        }
                    }
                }
                // Bounded seek without statistics: assume a third of the
                // table survives.
                total.div_ceil(3)
            }
        }
    }

    // ------------------------------------------------------------------
    // EXPLAIN
    // ------------------------------------------------------------------

    /// Render the physical plan of a statement without executing it:
    /// one output row per operator line, indented by tree depth.
    pub(crate) fn explain_stmt(&self, stmt: &Stmt, ctx: &EvalCtx<'_>) -> Result<ResultSet> {
        let mut lines: Vec<String> = Vec::new();
        self.explain_into(stmt, ctx, 0, &mut lines)?;
        Ok(ResultSet {
            columns: vec!["plan".into()],
            rows: lines.into_iter().map(|l| vec![Value::Str(l)]).collect(),
        })
    }

    pub(crate) fn explain_into(
        &self,
        stmt: &Stmt,
        ctx: &EvalCtx<'_>,
        ind: usize,
        lines: &mut Vec<String>,
    ) -> Result<()> {
        match stmt {
            Stmt::Explain { stmt, .. } => self.explain_into(stmt, ctx, ind, lines),
            Stmt::Select(q) => {
                let plan = self.build_select_plan(q, ctx)?;
                render_select_plan(&plan, ind, lines);
                Ok(())
            }
            Stmt::Insert { table, source, .. } => match source {
                InsertSource::Values(rows) => {
                    push(
                        lines,
                        ind,
                        format!("Insert {table} ({} row(s))", rows.len()),
                    );
                    Ok(())
                }
                InsertSource::Select(q) => {
                    push(lines, ind, format!("Insert {table}"));
                    let plan = self.build_select_plan(q, ctx)?;
                    render_select_plan(&plan, ind + 1, lines);
                    Ok(())
                }
            },
            Stmt::Delete { table, filter } => {
                push(lines, ind, format!("Delete {table}"));
                self.explain_dml_access(table, filter.as_ref(), ind + 1, lines)
            }
            Stmt::Update { table, filter, .. } => {
                push(lines, ind, format!("Update {table}"));
                self.explain_dml_access(table, filter.as_ref(), ind + 1, lines)
            }
            other => {
                push(lines, ind, stmt_to_sql(other));
                Ok(())
            }
        }
    }

    /// The access path DELETE/UPDATE reach their target rows by, and the
    /// conjuncts of `filter` still to be checked per candidate row.
    pub(crate) fn dml_access<'e>(t: &Table, filter: Option<&'e Expr>) -> (Access, Vec<&'e Expr>) {
        let mut residual = filter.map(Expr::conjuncts).unwrap_or_default();
        let (consumed, access) = Self::choose_access(t, &t.schema.name, &residual);
        if let Some(i) = consumed {
            residual.remove(i);
        }
        (access, residual)
    }

    /// Render the scan DELETE/UPDATE select their target rows with — the
    /// same [`Database::dml_access`] choice the statement executes.
    fn explain_dml_access(
        &self,
        table: &str,
        filter: Option<&Expr>,
        ind: usize,
        lines: &mut Vec<String>,
    ) -> Result<()> {
        let key = table.to_ascii_lowercase();
        let t = self
            .tables
            .get(&key)
            .ok_or_else(|| DbError::NoSuchTable(table.to_string()))?;
        let (access, residual) = Self::dml_access(t, filter);
        let scan = ScanPlan {
            is_cte: false,
            is_sys: false,
            key,
            name: t.schema.name.clone(),
            layout: [(t.schema.name.clone(), t.schema.column_names(), 0)],
            access,
            pushed: residual.into_iter().cloned().collect(),
            probe: None,
            est_rows: 0,
            stats_est: false,
        };
        render_scan(&scan, ind, lines, None);
        Ok(())
    }
}

/// Average index-bucket size of column `ci`: the legacy estimate of one
/// point probe's rows.
fn bucket_rows(t: &Table, ci: usize) -> u64 {
    let distinct = t.index_distinct(ci) as u64;
    if distinct == 0 {
        0
    } else {
        (t.len() as u64).div_ceil(distinct)
    }
}

fn push(lines: &mut Vec<String>, ind: usize, line: String) {
    lines.push(format!("{}{line}", "  ".repeat(ind)));
}

/// ` (actual rows=R loops=L time=T)` suffix for an analyzed operator;
/// empty when no profile is attached (plain `EXPLAIN` stays unchanged).
fn actual_suffix(prof: Option<&OpProf>) -> String {
    match prof {
        Some(p) => format!(
            " (actual rows={} loops={} time={})",
            p.rows.get(),
            p.loops.get(),
            crate::obs::fmt_ns(p.ns.get())
        ),
        None => String::new(),
    }
}

fn render_select_plan(plan: &SelectPlan, ind: usize, lines: &mut Vec<String>) {
    render_select_plan_prof(plan, ind, lines, None);
}

pub(crate) fn render_select_plan_prof(
    plan: &SelectPlan,
    ind: usize,
    lines: &mut Vec<String>,
    prof: Option<&PlanProf>,
) {
    for (i, cte) in plan.ctes.iter().enumerate() {
        push(
            lines,
            ind,
            format!("CTE {} [{}]", cte.name, cte.columns.join(", ")),
        );
        render_cores(&cte.body, ind + 1, lines, prof.map(|p| &p.ctes[i][..]));
    }
    let mut ind = ind;
    if let Some(n) = plan.limit {
        push(lines, ind, format!("Limit {n}"));
        ind += 1;
    }
    if !plan.keys.is_empty() {
        let keys: Vec<String> = plan
            .keys
            .iter()
            .map(|(i, desc)| format!("#{}{}", i + 1, if *desc { " DESC" } else { "" }))
            .collect();
        push(lines, ind, format!("Sort [{}]", keys.join(", ")));
        ind += 1;
    }
    render_cores(&plan.body, ind, lines, prof.map(|p| &p.cores[..]));
}

fn render_cores(
    cores: &[CorePlan],
    ind: usize,
    lines: &mut Vec<String>,
    prof: Option<&[CoreProf]>,
) {
    let mut ind = ind;
    if cores.len() > 1 {
        push(lines, ind, "UnionAll".to_string());
        ind += 1;
    }
    for (i, core) in cores.iter().enumerate() {
        render_core(core, ind, lines, prof.map(|ps| &ps[i]));
    }
}

fn render_core(core: &CorePlan, ind: usize, lines: &mut Vec<String>, prof: Option<&CoreProf>) {
    let mut ind = ind;
    if core.distinct && core.aggregate.is_none() {
        push(
            lines,
            ind,
            format!("Distinct{}", actual_suffix(prof.map(|p| &p.distinct))),
        );
        ind += 1;
    }
    match &core.aggregate {
        Some(exprs) => {
            let rendered: Vec<String> = exprs.iter().map(expr_to_sql).collect();
            push(
                lines,
                ind,
                format!(
                    "Aggregate [{}]{}",
                    rendered.join(", "),
                    actual_suffix(prof.map(|p| &p.output))
                ),
            );
        }
        None => push(
            lines,
            ind,
            format!(
                "Project [{}]{}",
                core.out_columns.join(", "),
                actual_suffix(prof.map(|p| &p.output))
            ),
        ),
    }
    ind += 1;
    if !core.residual.is_empty() {
        let rendered: Vec<String> = core.residual.iter().map(expr_to_sql).collect();
        push(
            lines,
            ind,
            format!(
                "Filter ({}){}",
                rendered.join(" AND "),
                actual_suffix(prof.map(|p| &p.filter))
            ),
        );
        ind += 1;
    }
    render_joins(core, core.scans.len(), ind, lines, prof);
}

fn render_joins(
    core: &CorePlan,
    n: usize,
    ind: usize,
    lines: &mut Vec<String>,
    prof: Option<&CoreProf>,
) {
    match n {
        0 => push(lines, ind, "Result (one row)".to_string()),
        1 => render_scan(&core.scans[0].0, ind, lines, prof.map(|p| &p.scans[0])),
        _ => {
            let join_suffix = actual_suffix(prof.map(|p| &p.joins[n - 2]));
            let (scan, kind) = &core.scans[n - 1];
            let join = |op: &str, right_ci: usize, left_key: &Expr| {
                let col = &scan.columns()[right_ci];
                format!(
                    "{op} ({}.{col} = {})",
                    scan.binding(),
                    expr_to_sql(left_key)
                )
            };
            // An index join's inner side renders as the point probe it
            // issues per outer row.
            let (op, probed) = match kind {
                JoinKind::Hash { right_ci, left_key } => {
                    (join("HashJoin", *right_ci, left_key), None)
                }
                JoinKind::Index { right_ci, left_key } => (
                    join("IndexJoin", *right_ci, left_key),
                    Some(ScanPlan {
                        access: Access::IndexEq {
                            ci: *right_ci,
                            key: left_key.clone(),
                        },
                        ..scan.clone()
                    }),
                ),
                JoinKind::Loop => ("NestedLoop".to_string(), None),
            };
            push(lines, ind, format!("{op}{join_suffix}"));
            render_joins(core, n - 1, ind + 1, lines, prof);
            render_scan(
                probed.as_ref().unwrap_or(scan),
                ind + 1,
                lines,
                prof.map(|p| &p.scans[n - 1]),
            );
        }
    }
}

fn render_scan(scan: &ScanPlan, ind: usize, lines: &mut Vec<String>, prof: Option<&OpProf>) {
    let mut line = if scan.is_cte {
        format!("CteScan {}", scan.name)
    } else if scan.is_sys {
        format!("SysScan {}", scan.name)
    } else {
        match &scan.access {
            Access::Seq => format!("SeqScan {}", scan.name),
            Access::IndexEq { ci, key } => format!(
                "IndexScan {} ({} = {})",
                scan.name,
                scan.columns()[*ci],
                expr_to_sql(key)
            ),
            Access::IndexIn { ci, .. } => format!(
                "IndexScan {} ({} IN (subquery))",
                scan.name,
                scan.columns()[*ci]
            ),
            Access::IndexInList { ci, list } => format!(
                "IndexScan {} ({} IN ({} values))",
                scan.name,
                scan.columns()[*ci],
                list.len()
            ),
            Access::Range {
                ci,
                lower,
                upper,
                ordered,
                desc,
            } => {
                let col = &scan.columns()[*ci];
                let mut parts: Vec<String> = Vec::new();
                if let Some((e, incl)) = lower {
                    parts.push(format!(
                        "{col} >{} {}",
                        if *incl { "=" } else { "" },
                        expr_to_sql(e)
                    ));
                }
                if let Some((e, incl)) = upper {
                    parts.push(format!(
                        "{col} <{} {}",
                        if *incl { "=" } else { "" },
                        expr_to_sql(e)
                    ));
                }
                let what = if parts.is_empty() {
                    col.clone()
                } else {
                    parts.join(" AND ")
                };
                if *ordered {
                    format!(
                        "OrderedScan {} ({what}{})",
                        scan.name,
                        if *desc { " DESC" } else { "" }
                    )
                } else {
                    format!("RangeScan {} ({what})", scan.name)
                }
            }
        }
    };
    if !scan.binding().eq_ignore_ascii_case(&scan.name) {
        line.push_str(&format!(" AS {}", scan.binding()));
    }
    if !scan.pushed.is_empty() {
        let rendered: Vec<String> = scan.pushed.iter().map(expr_to_sql).collect();
        line.push_str(&format!(" [filter: {}]", rendered.join(" AND ")));
    }
    if prof.is_some() || scan.stats_est {
        line.push_str(&format!(" (est rows={})", scan.est_rows));
        line.push_str(&actual_suffix(prof));
    }
    push(lines, ind, line);
}
