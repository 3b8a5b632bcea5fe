//! Abstract syntax for the SQL subset the engine executes.
//!
//! The subset is exactly what the paper's translation layer emits: DDL
//! (tables, indexes, AFTER-DELETE/INSERT triggers), DML
//! (`INSERT … VALUES`/`INSERT … SELECT`, `DELETE`, `UPDATE`), and queries
//! with multi-way joins, `WITH` common table expressions, `UNION ALL`,
//! `ORDER BY`, uncorrelated `IN`/`NOT IN` subqueries, `EXISTS`, and the
//! aggregates needed by the id-remapping heuristics (`MIN`/`MAX`/`COUNT`).

use crate::value::{DataType, Value};

/// A column definition in `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Column type.
    pub ty: DataType,
}

/// Trigger firing granularity (paper Section 6.1.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerGranularity {
    /// `FOR EACH ROW` — fired per deleted tuple with `OLD` bound.
    Row,
    /// `FOR EACH STATEMENT` — fired once per statement that affected rows.
    Statement,
}

/// Trigger event. The paper's strategies need `AFTER DELETE`; `AFTER
/// INSERT` is supported for completeness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerEvent {
    /// `AFTER DELETE`
    Delete,
    /// `AFTER INSERT`
    Insert,
}

/// A SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `CREATE TABLE [IF NOT EXISTS] name (col type, …)`
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<ColumnDef>,
        /// Suppress the duplicate-table error.
        if_not_exists: bool,
    },
    /// `DROP TABLE [IF EXISTS] name`
    DropTable {
        /// Table name.
        name: String,
        /// Suppress the missing-table error.
        if_exists: bool,
    },
    /// `CREATE INDEX name ON table (column)`. There is one index kind, so
    /// no `USING` clause.
    CreateIndex {
        /// Index name (bookkeeping only).
        name: String,
        /// Indexed table.
        table: String,
        /// Indexed column.
        column: String,
    },
    /// `ANALYZE [table]` — rebuild planner statistics (row counts,
    /// distinct counts, min/max, equi-depth histograms) for one table or
    /// every table. DDL-like: it is WAL-logged as SQL text and bumps the
    /// schema epoch so cached plans replan against the new statistics.
    Analyze {
        /// Table to analyze; `None` analyzes all tables.
        table: Option<String>,
    },
    /// `CREATE TRIGGER name AFTER DELETE ON table FOR EACH ROW BEGIN … END`
    CreateTrigger {
        /// Trigger name.
        name: String,
        /// Firing event.
        event: TriggerEvent,
        /// Table the trigger is attached to.
        table: String,
        /// Row- or statement-level firing.
        granularity: TriggerGranularity,
        /// Body statements executed on firing.
        body: Vec<Stmt>,
    },
    /// `DROP TRIGGER name`
    DropTrigger {
        /// Trigger name.
        name: String,
    },
    /// `INSERT INTO table [(cols)] VALUES (…)[, (…)]` or `INSERT INTO table [(cols)] SELECT …`
    Insert {
        /// Target table.
        table: String,
        /// Explicit column list, if given.
        columns: Option<Vec<String>>,
        /// Row source.
        source: InsertSource,
    },
    /// `DELETE FROM table [WHERE expr]`
    Delete {
        /// Target table.
        table: String,
        /// Row filter.
        filter: Option<Expr>,
    },
    /// `UPDATE table SET col = expr, … [WHERE expr]`
    Update {
        /// Target table.
        table: String,
        /// Assignments.
        sets: Vec<(String, Expr)>,
        /// Row filter.
        filter: Option<Expr>,
    },
    /// A query.
    Select(Box<SelectStmt>),
    /// `BEGIN [TRANSACTION | WORK]` — open an explicit transaction.
    Begin,
    /// `COMMIT [TRANSACTION | WORK]` — commit the open transaction.
    Commit,
    /// `ROLLBACK [TRANSACTION | WORK] [TO [SAVEPOINT] name]` — roll the
    /// open transaction back entirely, or to a named savepoint.
    Rollback {
        /// Savepoint to roll back to; `None` rolls back the whole
        /// transaction.
        to_savepoint: Option<String>,
    },
    /// `SAVEPOINT name` — mark a partial-rollback point.
    Savepoint {
        /// Savepoint name.
        name: String,
    },
    /// `CHECKPOINT` — snapshot a durable database and truncate its WAL
    /// (see `crate::wal`). Rejected inside explicit transactions and
    /// trigger bodies, and on non-durable databases.
    Checkpoint,
    /// `EXPLAIN [ANALYZE] stmt` — compile the inner statement into a
    /// physical plan and return the rendered operator tree (one output
    /// row per line). Plain `EXPLAIN` does not execute; `EXPLAIN
    /// ANALYZE` executes the statement (side effects included) and
    /// annotates each operator with actual rows, loops, and elapsed
    /// time next to the planner's estimates.
    Explain {
        /// Execute and annotate with actuals (`EXPLAIN ANALYZE`).
        analyze: bool,
        /// The statement being explained.
        stmt: Box<Stmt>,
    },
}

impl Stmt {
    /// Whether this is a transaction-control statement (`BEGIN`,
    /// `COMMIT`, `ROLLBACK`, `SAVEPOINT`). These manage the undo log
    /// rather than run under it, and are rejected inside trigger bodies.
    pub fn is_txn_control(&self) -> bool {
        matches!(
            self,
            Stmt::Begin | Stmt::Commit | Stmt::Rollback { .. } | Stmt::Savepoint { .. }
        )
    }
}

/// Row source of an `INSERT`.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    /// Literal tuples.
    Values(Vec<Vec<Expr>>),
    /// `INSERT … SELECT`.
    Select(Box<SelectStmt>),
}

/// A full query: optional CTEs, a `UNION ALL` chain of cores, ordering.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// `WITH name(cols) AS (core), …` — each CTE sees the previous ones.
    pub ctes: Vec<Cte>,
    /// One or more cores combined with `UNION ALL`.
    pub body: Vec<SelectCore>,
    /// Sort keys over the output columns.
    pub order_by: Vec<OrderKey>,
    /// `LIMIT n`.
    pub limit: Option<u64>,
}

/// One common table expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Cte {
    /// CTE name.
    pub name: String,
    /// Optional explicit output column names.
    pub columns: Option<Vec<String>>,
    /// The CTE body (may itself be a UNION ALL chain, no nested WITH).
    pub body: Vec<SelectCore>,
}

/// A single `SELECT … FROM … WHERE …` block.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectCore {
    /// `SELECT DISTINCT` — deduplicate output rows.
    pub distinct: bool,
    /// Projected items.
    pub projections: Vec<SelectItem>,
    /// Joined tables (comma syntax; inner joins expressed in `WHERE`).
    pub from: Vec<TableRef>,
    /// Filter / join predicates.
    pub filter: Option<Expr>,
}

/// One projection.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// `expr [AS alias]`
    Expr {
        /// Projected expression.
        expr: Expr,
        /// Output name override.
        alias: Option<String>,
    },
}

/// A table reference in `FROM`.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Table or CTE name.
    pub name: String,
    /// Binding alias (defaults to the name).
    pub alias: Option<String>,
}

impl TableRef {
    /// The name this table binds to in the query's namespace.
    pub fn binding(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// One `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// Output column name or 1-based position.
    pub expr: Expr,
    /// Descending order.
    pub desc: bool,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
}

impl BinOp {
    /// Whether this operator is a comparison yielding a boolean.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical NOT.
    Not,
}

/// Aggregate functions (evaluated over the whole core; the subset has no
/// `GROUP BY` because the paper's generated SQL never needs one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` / `COUNT(expr)`
    Count,
    /// `MIN(expr)`
    Min,
    /// `MAX(expr)`
    Max,
    /// `SUM(expr)`
    Sum,
}

/// Scalar expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Literal(Value),
    /// A parameter placeholder (`?` or `$n`), 0-based. Bound to a value at
    /// execution time by [`crate::engine::Database::execute_prepared`].
    Param(usize),
    /// A column reference, optionally qualified by a table binding.
    Column {
        /// Qualifier (`t` in `t.c`), if any.
        table: Option<String>,
        /// Column name.
        name: String,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `expr IS [NOT] NULL`
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// `IS NOT NULL` when true.
        negated: bool,
    },
    /// `expr [NOT] LIKE 'pattern'` — SQL pattern match with `%` (any
    /// run) and `_` (any single character) wildcards. The pattern is a
    /// string literal, fixed at parse time, which lets the planner turn
    /// a non-wildcard prefix into an ordered-index range seek.
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// The pattern text (unescaped string literal).
        pattern: String,
        /// `NOT LIKE` when true.
        negated: bool,
    },
    /// `expr [NOT] IN (v1, v2, …)`
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// `NOT IN` when true.
        negated: bool,
    },
    /// `expr [NOT] IN (SELECT …)` — uncorrelated.
    InSubquery {
        /// Tested expression.
        expr: Box<Expr>,
        /// The subquery (single output column).
        query: Box<SelectStmt>,
        /// `NOT IN` when true.
        negated: bool,
    },
    /// `[NOT] EXISTS (SELECT …)` — uncorrelated.
    Exists {
        /// The subquery.
        query: Box<SelectStmt>,
        /// `NOT EXISTS` when true.
        negated: bool,
    },
    /// A scalar subquery returning one row, one column.
    ScalarSubquery(Box<SelectStmt>),
    /// Aggregate call; `arg` is `None` for `COUNT(*)`.
    Aggregate {
        /// The aggregate function.
        func: AggFunc,
        /// Argument expression (`None` = `*`).
        arg: Option<Box<Expr>>,
    },
}

impl Expr {
    /// Convenience: column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column {
            table: None,
            name: name.into(),
        }
    }

    /// Convenience: qualified column reference.
    pub fn qcol(table: impl Into<String>, name: impl Into<String>) -> Expr {
        Expr::Column {
            table: Some(table.into()),
            name: name.into(),
        }
    }

    /// Convenience: literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Convenience: equality.
    pub fn eq(left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op: BinOp::Eq,
            right: Box::new(right),
        }
    }

    /// Whether the expression tree contains an aggregate call.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Aggregate { .. } => true,
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => {
                expr.contains_aggregate()
            }
            Expr::Binary { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            Expr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(Expr::contains_aggregate)
            }
            Expr::InSubquery { expr, .. } => expr.contains_aggregate(),
            _ => false,
        }
    }

    /// Split a conjunction into its conjuncts.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        match self {
            Expr::Binary {
                left,
                op: BinOp::And,
                right,
            } => {
                let mut out = left.conjuncts();
                out.extend(right.conjuncts());
                out
            }
            other => vec![other],
        }
    }
}
