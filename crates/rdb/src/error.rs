//! Errors for the relational engine.

use std::fmt;

/// Any error raised by SQL parsing, planning, or execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// SQL text could not be tokenized or parsed.
    SqlParse(String),
    /// A referenced table does not exist.
    NoSuchTable(String),
    /// A referenced column does not exist or is ambiguous.
    NoSuchColumn(String),
    /// Schema-level problem (duplicate table, bad column count, …).
    Schema(String),
    /// Type error during expression evaluation.
    Type(String),
    /// Anything else that indicates a malformed statement at runtime.
    Execution(String),
    /// Trigger recursion exceeded the safety limit.
    TriggerDepth(String),
    /// Transaction-control misuse (nested `BEGIN`, `COMMIT` outside a
    /// transaction, unknown savepoint, …).
    Txn(String),
    /// A deterministic injected fault fired (see
    /// `Database::fail_after_statements` / `Database::fail_on_table_write`).
    FaultInjected(String),
    /// Durable-storage failure: WAL/snapshot I/O, a corrupt snapshot, or
    /// `CHECKPOINT` against a non-durable database.
    Storage(String),
    /// A statement inside `Database::run_script` failed; carries the
    /// failing statement's 0-based index and SQL text plus the
    /// underlying error.
    ScriptStatement {
        /// 0-based index of the failing statement within the script.
        index: usize,
        /// SQL text of the failing statement.
        sql: String,
        /// The underlying engine error.
        cause: Box<DbError>,
    },
}

impl DbError {
    /// What every `Result`-returning entry point of the shared facades
    /// reports once a writer has panicked under the exclusive lock (see
    /// the poisoned-lock policy in [`crate::session`]).
    pub fn poisoned() -> DbError {
        DbError::Execution("database poisoned by a panicked writer; it must be reopened".into())
    }

    /// The innermost error, unwrapping any script-statement context.
    pub fn root_cause(&self) -> &DbError {
        match self {
            DbError::ScriptStatement { cause, .. } => cause.root_cause(),
            other => other,
        }
    }
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::SqlParse(m) => write!(f, "SQL parse error: {m}"),
            DbError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            DbError::NoSuchColumn(c) => write!(f, "no such column: {c}"),
            DbError::Schema(m) => write!(f, "schema error: {m}"),
            DbError::Type(m) => write!(f, "type error: {m}"),
            DbError::Execution(m) => write!(f, "execution error: {m}"),
            DbError::TriggerDepth(m) => write!(f, "trigger recursion limit: {m}"),
            DbError::Txn(m) => write!(f, "transaction error: {m}"),
            DbError::FaultInjected(m) => write!(f, "injected fault: {m}"),
            DbError::Storage(m) => write!(f, "storage error: {m}"),
            DbError::ScriptStatement { index, sql, cause } => {
                write!(f, "script statement #{index} (`{sql}`): {cause}")
            }
        }
    }
}

impl std::error::Error for DbError {}

/// Engine-wide result alias.
pub type Result<T> = std::result::Result<T, DbError>;
