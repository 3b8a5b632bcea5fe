//! # xmlup-rdb
//!
//! An in-memory relational engine standing in for the IBM DB2 UDB 7.1
//! instance the paper's experiments ran against. The engine executes the
//! SQL subset the XML-update translation layer emits: DDL with per-tuple /
//! per-statement `AFTER DELETE` triggers and ordered indexes, DML, and queries
//! with multi-way (hash) joins, `WITH` CTEs, `UNION ALL`, `ORDER BY`,
//! uncorrelated `IN`/`NOT IN` subqueries, and `MIN`/`MAX`/`COUNT`/`SUM`
//! aggregates.
//!
//! Execution statistics ([`Stats`]) expose the quantities the paper's
//! analysis reasons about: SQL statements executed (client vs. total,
//! including trigger bodies), rows scanned, trigger firings, index
//! lookups, and transaction commits/rollbacks.
//!
//! The [`txn`] module supplies transactions: `BEGIN`/`COMMIT`/`ROLLBACK`
//! and `SAVEPOINT`/`ROLLBACK TO` (both as SQL and as the
//! [`Database::begin`]-family API), statement-level atomicity under
//! autocommit, exact undo of DML *and* DDL, and deterministic fault
//! injection for crash-recovery tests.
//!
//! ```
//! use xmlup_rdb::{Database, Value};
//!
//! let mut db = Database::new();
//! db.run_script(
//!     "CREATE TABLE Customer (id INTEGER, Name VARCHAR(50));
//!      CREATE INDEX c_id ON Customer (id);
//!      INSERT INTO Customer VALUES (0, 'John'), (1, 'Mary');",
//! )
//! .unwrap();
//! let rs = db.query("SELECT Name FROM Customer WHERE id = 1").unwrap();
//! assert_eq!(rs.rows[0][0], Value::Str("Mary".into()));
//! ```

#![deny(missing_docs)]

pub mod ast;
mod cells;
pub mod engine;
pub mod error;
mod exec;
pub mod http;
pub mod lexer;
pub mod mvcc;
pub mod obs;
pub mod parser;
mod plan;
pub mod server;
pub mod session;
pub mod sql;
mod statement;
pub mod stats;
pub mod storage;
pub mod sysview;
pub mod table;
pub mod txn;
pub mod value;
pub mod wal;

pub use ast::{
    BinOp, ColumnDef, Expr, InsertSource, SelectStmt, Stmt, TriggerEvent, TriggerGranularity, UnOp,
};
pub use engine::{Database, ExecResult, ResultSet, Stats, Trigger};
pub use error::{DbError, Result};
pub use http::{MetricsHandle, MetricsServer};
pub use obs::{Metric, MetricKind, PhaseStat, SlowQuery, Span, TraceEvent};
pub use parser::{parse_script, parse_script_with_text, parse_stmt, parse_stmt_with_params};
pub use server::{Server, ServerHandle};
pub use session::{Session, SharedDatabase, WriterGate, WriterTicket};
pub use sql::stmt_to_sql;
pub use statement::PreparedStmt;
pub use stats::{ColumnStatistics, TableStatistics};
pub use storage::{BackendKind, PoolStats, StorageMetrics};
pub use sysview::{
    fingerprint, is_system_view, view_columns, Fingerprint, SessionInfo, SessionState,
    StatementStats, SYSTEM_VIEWS,
};
pub use table::{Table, TableSchema};
pub use txn::UndoRecord;
pub use value::{DataType, Row, Value};
pub use wal::WalRecord;
