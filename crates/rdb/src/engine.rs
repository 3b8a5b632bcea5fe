//! SQL execution engine: statement dispatch, query evaluation with
//! index-accelerated joins, trigger firing, and execution statistics.
//! Client statements enter through the `statement` module.
//!
//! The engine is deliberately shaped like the slice of IBM DB2 the paper's
//! middleware exercised: everything arrives as SQL text (or a pre-parsed
//! [`Stmt`]), per-tuple and per-statement `AFTER DELETE` triggers cascade
//! inside the engine, and a statistics block exposes the quantities the
//! paper reasons about (statements executed, rows scanned, trigger
//! firings, index lookups).

use crate::ast::*;
use crate::cells::{Counter, FlagCell, IdCell};
use crate::error::{DbError, Result};
use crate::exec::{EvalCtx, PlanProf, RowEnv, SliceEnv};
use crate::mvcc::MvccState;
use crate::obs::{self, Metric, Span};
use crate::parser::parse_stmt_with_params;
use crate::sql::stmt_to_sql;
use crate::statement::PlanCache;
use crate::storage::checkpoint::{self, Slots};
use crate::storage::{self, CatalogTable, CheckpointCatalog, StorageMetrics};
use crate::table::{Table, TableSchema};
use crate::txn::{self, FaultState, TxnState, UndoRecord};
use crate::value::{Row, Value};
use crate::wal::{self, WalRecord, WalRef};
use std::collections::{HashMap, HashSet};
use std::fs;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::sync::Mutex;

/// Cascading triggers deeper than this abort execution (recursive schemas
/// with always-firing triggers would otherwise loop; see the cascading
/// delete discussion in paper Section 6.1.2).
const MAX_TRIGGER_DEPTH: usize = 100;

/// The engine's counter table: the one place a counter is declared.
/// Each `field: "help"` line yields the public [`Stats`] field (the help
/// text is its documentation), the atomic cell the engine bumps, its
/// line in the snapshot, and its `rdb_<field>_total` metric.
macro_rules! engine_counters {
    ($($name:ident: $help:literal,)+) => {
        /// Execution counters. All counters are cumulative; use
        /// [`Database::reset_stats`] between measurements.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Stats {
            $(#[doc = $help] pub $name: u64,)+
        }

        impl Stats {
            /// Every counter as its `rdb_<field>_total` metric.
            fn counter_metrics(&self) -> Vec<Metric> {
                vec![$(Metric::counter(
                    concat!("rdb_", stringify!($name), "_total"),
                    $help,
                    self.$name,
                ),)+]
            }
        }

        #[derive(Debug, Default)]
        pub(crate) struct StatsCells {
            $(pub(crate) $name: Counter,)+
        }

        impl StatsCells {
            fn snapshot(&self) -> Stats {
                Stats { $($name: self.$name.get(),)+ }
            }

            #[cfg(test)]
            fn cells(&self) -> Vec<(&'static str, &Counter)> {
                vec![$((stringify!($name), &self.$name),)+]
            }
        }
    };
}

engine_counters! {
    client_statements: "Statements submitted through the public API",
    total_statements: "All statements executed, including trigger bodies",
    rows_scanned: "Rows visited by scans (a nested loop reads its inner side once)",
    rows_inserted: "Rows inserted",
    rows_deleted: "Rows deleted",
    rows_updated: "Rows updated",
    trigger_firings: "Trigger firings (per-row triggers count once per row)",
    index_lookups: "Probes answered by a persistent index",
    statements_parsed: "Statements compiled from SQL text (each distinct statement shape should be parsed once; repeats come from the plan cache)",
    plan_cache_hits: "execute/prepare calls answered by the plan cache",
    plan_cache_misses: "execute/prepare calls that had to parse",
    txn_commits: "Transactions committed: explicit COMMITs plus autocommitted statements that mutated state",
    txn_rollbacks: "Rollbacks applied: explicit ROLLBACK / ROLLBACK TO plus automatic statement-level rollbacks of failed statements",
    undo_records: "Undo records appended to the transaction log",
    wal_records: "WAL records written to disk (frame markers included)",
    wal_bytes: "Bytes appended to the WAL (framing included)",
    wal_fsyncs: "fsync calls issued by WAL appends (group-flushed commits)",
    checkpoints: "Checkpoints taken (snapshot written, WAL truncated)",
    recovered_txns: "Committed transactions replayed from the WAL by the most recent open (set once at open; reset_stats zeroes it)",
    plans_built: "Physical SELECT plans compiled by the planner (cache hits on a still-valid plan slot do not recompile)",
    seq_scans: "Sequential scans opened by the executor",
    index_scans: "Index scans opened by the executor (SELECT probes plus the DELETE/UPDATE position-finding probes)",
    in_list_builds: "IN-list probe sets materialized (once per statement per list; correlated lists never build one)",
    predicates_pushed: "Filter conjuncts pushed down into scans at plan time",
    wal_replayed_bytes: "WAL payload bytes replayed by the most recent open (header excluded; set once at open; reset_stats zeroes it)",
    recovery_micros: "Wall-clock time of the most recent open's recovery (snapshot load + WAL replay), in microseconds",
    checkpoint_bytes_written: "Bytes written by checkpoints (each writes snapshot.bin whole)",
    ordered_index_scans: "Scans that walked an index in key order (ORDER BY pushdown)",
    sorts_elided: "Sorts elided because an index walk already produced the requested ORDER BY order",
}

impl StatsCells {
    pub(crate) fn bump(cell: &Counter, by: u64) {
        cell.add(by);
    }
}

/// A registered trigger.
#[derive(Debug, Clone)]
pub struct Trigger {
    /// Trigger name.
    pub name: String,
    /// Firing event.
    pub event: TriggerEvent,
    /// Table (lower-cased) the trigger watches.
    pub table: String,
    /// Firing granularity.
    pub granularity: TriggerGranularity,
    /// Parsed body.
    pub body: Arc<Vec<Stmt>>,
}

/// A query result: column names plus rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Row>,
}

impl ResultSet {
    /// Index of an output column by case-insensitive name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
    }

    /// Single-value convenience accessor (first row, first column).
    pub fn scalar(&self) -> Option<&Value> {
        self.rows.first().and_then(|r| r.first())
    }
}

/// Outcome of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecResult {
    /// A query's result set.
    Rows(ResultSet),
    /// Rows affected by DML.
    Affected(usize),
    /// DDL completed.
    Ddl,
    /// Transaction control (`BEGIN`/`COMMIT`/`ROLLBACK`/`SAVEPOINT`)
    /// completed.
    Txn,
    /// `CHECKPOINT` completed: snapshot written, WAL truncated.
    Checkpoint,
}

impl ExecResult {
    /// Rows affected (0 for non-DML).
    pub fn affected(&self) -> usize {
        match self {
            ExecResult::Affected(n) => *n,
            _ => 0,
        }
    }
}

/// The in-memory relational database.
#[derive(Debug)]
pub struct Database {
    pub(crate) tables: HashMap<String, Table>,
    pub(crate) triggers: Vec<Trigger>,
    pub(crate) stats: StatsCells,
    pub(crate) next_id: IdCell,
    /// Parsed statements and their plan slots for SQL text seen by
    /// `execute`/`query`/`prepare` (see the `statement` module).
    pub(crate) plan_cache: Mutex<PlanCache>,
    /// Bumped on every DDL, every rollback that undoes DDL, and every
    /// [`Database::set_planner_naive`]; physical plans carry the epoch
    /// they were built under and replan when it moves.
    pub(crate) schema_epoch: Counter,
    /// When set, the planner skips predicate pushdown and index-access
    /// selection and re-checks the whole filter on joined rows,
    /// reproducing the pre-planner AST interpreter's strategy (for A/B
    /// experiments).
    pub(crate) planner_naive: FlagCell,
    /// Undo log, explicit-transaction flag, and savepoints.
    pub(crate) txn: TxnState,
    /// Armed fault-injection counters (see
    /// [`Database::fail_after_statements`]).
    pub(crate) fault: FaultState,
    /// Durable-storage attachment, present iff the database was created
    /// with [`Database::open`]. `None` while recovery replays the log so
    /// replayed work is not re-logged.
    pub(crate) durable: Option<DurableState>,
    /// MVCC epoch, snapshot registry, and concurrency metrics (see
    /// [`crate::mvcc`]).
    pub(crate) mvcc: MvccState,
    /// Per-statement execution aggregates (`rdb_statements`), keyed by
    /// literal-normalized fingerprint. Off by default.
    pub(crate) statements: crate::sysview::StatementStore,
    /// Live-session registry (`rdb_sessions`), shared with the session
    /// layer via [`Database::session_registry`].
    pub(crate) sessions: Arc<crate::sysview::SessionRegistry>,
    /// Instant this `Database` value was created — the anchor for the
    /// `rdb_uptime_seconds` gauge.
    pub(crate) created: std::time::Instant,
    /// Unix timestamp (seconds) of the most recent crash recovery
    /// performed by [`Database::open`]; 0 when the database never
    /// recovered. Exposed as the `rdb_recovery_timestamp_seconds` gauge.
    pub(crate) recovered_at: Counter,
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

/// On-disk attachment of a durable database: the storage directory, the
/// open WAL appender, and the checkpoint generation bookkeeping.
#[derive(Debug)]
pub(crate) struct DurableState {
    /// Directory holding `wal.bin` and `snapshot.bin`.
    dir: PathBuf,
    /// Appender positioned at `wal_len`. `None` once a failed append
    /// could not be cut back: the file's end is then unknown, so every
    /// later append is refused until the database is reopened.
    wal: Mutex<Option<fs::File>>,
    /// Whether commits `fsync` the WAL (default true; tests may disable
    /// it to keep many small commits cheap).
    sync: FlagCell,
    /// WAL length in bytes: the end of the last whole frame. Every
    /// commit is synced before it returns, so this is also the
    /// acknowledged prefix.
    wal_len: Counter,
    /// Checkpoint generation stamped in both the checkpoint file and the
    /// WAL header. A WAL whose generation trails the checkpoint's is
    /// leftover from before a checkpoint whose truncation never landed —
    /// recovery discards it.
    generation: u64,
    /// Monotonic transaction sequence number for WAL frames.
    txn_seq: Counter,
}

/// WAL file name inside a durable database's directory.
const WAL_FILE: &str = "wal.bin";

fn storage_err(ctx: &str, e: &std::io::Error) -> DbError {
    DbError::Storage(format!("{ctx}: {e}"))
}

/// What every append returns once a failed append could not be cut back.
fn wal_refused() -> DbError {
    DbError::Storage("WAL refuses appends after a failed write; reopen the database".into())
}

/// Start the log of `generation`: cut the file to nothing and make a
/// header durable.
fn reset_wal(file: &mut fs::File, generation: u64) -> std::io::Result<()> {
    file.set_len(0)?;
    file.seek(SeekFrom::Start(0))?;
    file.write_all(&wal::encode_wal_header(generation))?;
    file.sync_data()
}

impl Database {
    /// Create an empty database.
    pub fn new() -> Self {
        Database {
            tables: HashMap::new(),
            triggers: Vec::new(),
            stats: StatsCells::default(),
            next_id: IdCell::new(0),
            plan_cache: Mutex::new(PlanCache::default()),
            schema_epoch: Counter::new(0),
            planner_naive: FlagCell::new(false),
            txn: TxnState::default(),
            fault: FaultState::default(),
            durable: None,
            mvcc: MvccState::default(),
            statements: crate::sysview::StatementStore::default(),
            sessions: Arc::new(crate::sysview::SessionRegistry::default()),
            created: std::time::Instant::now(),
            recovered_at: Counter::new(0),
        }
    }

    /// The live-session registry, shared with the session layer so
    /// `rdb_sessions` reflects sessions opened through
    /// [`SharedDatabase`](crate::session::SharedDatabase).
    pub(crate) fn session_registry(&self) -> Arc<crate::sysview::SessionRegistry> {
        self.sessions.clone()
    }

    /// Snapshot of the execution counters.
    pub fn stats(&self) -> Stats {
        self.stats.snapshot()
    }

    /// Zero all counters.
    pub fn reset_stats(&mut self) {
        self.stats = StatsCells::default();
    }

    /// The metrics registry: every [`Stats`] counter as an `rdb_*`
    /// counter metric, point-in-time gauges (tables, plan-cache entries,
    /// WAL size, transaction state), and — when tracing has recorded
    /// spans — per-phase latency series labelled by phase name.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut m = self.stats().counter_metrics();
        m.extend([
            Metric::gauge(
                "rdb_tables",
                "Tables in the catalog",
                self.tables.len() as u64,
            ),
            Metric::gauge(
                "rdb_plan_cache_entries",
                "Compiled plans cached by SQL text",
                self.plan_cache.lock().unwrap().len() as u64,
            ),
            Metric::gauge(
                "rdb_wal_size_bytes",
                "Current WAL file size (0 when non-durable)",
                self.wal_size(),
            ),
            Metric::gauge(
                "rdb_in_transaction",
                "Whether an explicit transaction is open",
                self.txn.explicit as u64,
            ),
            Metric::gauge(
                "rdb_undo_log_len",
                "Records currently in the transaction log (on a durable database, id-counter records included)",
                self.txn.log.len() as u64,
            ),
            Metric::counter(
                "rdb_snapshot_reads_total",
                "Queries answered against a pinned MVCC snapshot",
                self.mvcc.snapshot_reads.get(),
            ),
            Metric::gauge(
                "rdb_active_sessions",
                "Sessions currently open on the shared database",
                self.mvcc.active_sessions.get(),
            ),
            Metric::gauge(
                "rdb_snapshot_versions_retained",
                "MVCC before-images retained across all tables",
                self.snapshot_versions_retained(),
            ),
            Metric::gauge(
                "rdb_uptime_seconds",
                "Seconds since this database instance was created",
                self.created.elapsed().as_secs(),
            ),
            Metric::gauge(
                "rdb_recovery_timestamp_seconds",
                "Unix time of the most recent crash recovery (0 = never)",
                self.recovered_at.get(),
            ),
            Metric::gauge(
                "rdb_statement_tracking_enabled",
                "Whether per-statement statistics collection is on",
                self.statements.enabled() as u64,
            ),
            Metric::gauge(
                "rdb_tracked_statements",
                "Statement fingerprints currently in the statistics store",
                self.statements.len() as u64,
            ),
            Metric::counter(
                "rdb_statement_store_evictions_total",
                "Fingerprints evicted by the statement store's capacity bound",
                self.statements.evictions(),
            ),
        ]);
        {
            // Writer-admission wait histogram (recorded in ns, reported
            // in µs to match the metric name).
            let h = self.mvcc.write_lock_wait_us.lock().unwrap();
            m.push(Metric::counter(
                "rdb_write_lock_wait_count",
                "Writer-admission waits recorded",
                h.count(),
            ));
            m.push(Metric::counter(
                "rdb_write_lock_wait_us_sum",
                "Total writer-admission wait time (microseconds)",
                h.sum_ns() / 1000,
            ));
            m.push(Metric::gauge(
                "rdb_write_lock_wait_us_p50",
                "Median writer-admission wait (microseconds)",
                h.p50_ns() / 1000,
            ));
            m.push(Metric::gauge(
                "rdb_write_lock_wait_us_p95",
                "95th-percentile writer-admission wait (microseconds)",
                h.p95_ns() / 1000,
            ));
        }
        // Grouped per family so the Prometheus renderer emits each
        // HELP/TYPE header once.
        let phases = obs::phase_stats();
        for ps in &phases {
            let mut metric = Metric::counter(
                "rdb_phase_spans_total",
                "Spans recorded per phase",
                ps.count,
            );
            metric.labels.push(("phase", ps.name.to_string()));
            m.push(metric);
        }
        for ps in &phases {
            let mut metric = Metric::counter(
                "rdb_phase_ns_total",
                "Total time spent per phase (nanoseconds)",
                ps.total_ns,
            );
            metric.labels.push(("phase", ps.name.to_string()));
            m.push(metric);
        }
        for ps in &phases {
            let mut metric = Metric::gauge(
                "rdb_phase_p95_ns",
                "95th-percentile phase latency estimate (nanoseconds)",
                ps.p95_ns,
            );
            metric.labels.push(("phase", ps.name.to_string()));
            m.push(metric);
        }
        m
    }

    /// The metrics registry rendered in the Prometheus text exposition
    /// format.
    pub fn metrics_text(&self) -> String {
        obs::render_prometheus(&self.metrics())
    }

    /// Name/value pairs for the `rdb_wal` system view: WAL counters from
    /// [`Stats`] plus the WAL's transaction sequence number when the
    /// database is durable.
    pub(crate) fn wal_view_rows(&self) -> Vec<(&'static str, u64)> {
        let s = self.stats();
        let mut rows = vec![
            ("durable", self.durable.is_some() as u64),
            ("wal_size_bytes", self.wal_size()),
            ("wal_records_total", s.wal_records),
            ("wal_bytes_total", s.wal_bytes),
            ("wal_fsyncs_total", s.wal_fsyncs),
            ("wal_replayed_bytes", s.wal_replayed_bytes),
        ];
        if let Some(d) = &self.durable {
            rows.push(("txn_seq", d.txn_seq.get()));
        }
        rows
    }

    /// Name/value pairs for the `rdb_checkpoints` system view:
    /// checkpoint counters plus the most recent recovery's telemetry.
    pub(crate) fn checkpoint_view_rows(&self) -> Vec<(&'static str, u64)> {
        let s = self.stats();
        let mut rows = vec![
            ("checkpoints_total", s.checkpoints),
            ("bytes_written_total", s.checkpoint_bytes_written),
            ("recovered_txns", s.recovered_txns),
            ("wal_replayed_bytes", s.wal_replayed_bytes),
            ("recovery_micros", s.recovery_micros),
            ("recovery_timestamp", self.recovered_at.get()),
        ];
        if let Some(d) = &self.durable {
            rows.push(("generation", d.generation));
        }
        rows
    }

    /// The system-wide "next available id" counter used by the id
    /// allocation heuristics of paper Section 6.2. Reserves `count` ids and
    /// returns the first.
    pub fn allocate_ids(&mut self, count: i64) -> i64 {
        let start = self.next_id.get();
        self.next_id.set(start + count);
        if count != 0 {
            self.log_next_id(start + count);
        }
        start
    }

    /// Raise the id counter to at least `floor` (used after bulk loads).
    pub fn bump_next_id(&mut self, floor: i64) {
        if self.next_id.get() < floor {
            self.next_id.set(floor);
            self.log_next_id(floor);
        }
    }

    /// Current value of the id counter without allocating.
    pub fn peek_next_id(&self) -> i64 {
        self.next_id.get()
    }

    /// Access a table by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(&name.to_ascii_lowercase())
    }

    /// Names of all tables (lower-cased), sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tables.keys().cloned().collect();
        v.sort();
        v
    }

    /// Registered triggers.
    pub fn triggers(&self) -> &[Trigger] {
        &self.triggers
    }

    /// Advance the schema epoch: every plan slot's SELECT plan is stale
    /// and replans on its next execution. DDL, a rollback that undoes DDL
    /// and [`Database::set_planner_naive`] call this; nothing else
    /// retires a cached statement.
    pub(crate) fn bump_schema_epoch(&self) {
        self.schema_epoch.set(self.schema_epoch.get() + 1);
    }

    /// Disable (or re-enable) the planner's predicate pushdown and
    /// index-access selection. With `naive` set, a SELECT still keys its
    /// nested loops on an equality conjunct where one allows (the
    /// interpreter joined on the same conjunct) but re-evaluates the
    /// whole filter on every joined row and never probes an index or
    /// pushes a predicate into a scan — the pre-planner AST interpreter's
    /// strategy, which the tests use as the oracle the planner must
    /// match row for row.
    pub fn set_planner_naive(&mut self, naive: bool) {
        self.planner_naive.set(naive);
        self.bump_schema_epoch();
    }

    // ------------------------------------------------------------------
    // transactions
    // ------------------------------------------------------------------

    /// Write funnel: every `&mut self` client statement lands here.
    ///
    /// Non-control statements run under statement-level atomicity — on
    /// error, everything the statement did (including trigger-body
    /// mutations, which share the same log) is rolled back before the
    /// error is returned, matching how a real RDBMS aborts a failed
    /// statement. Outside an explicit transaction a successful statement
    /// autocommits (its records are written to the WAL and discarded).
    pub(crate) fn exec_client(&mut self, stmt: &Stmt, ctx: &EvalCtx<'_>) -> Result<ExecResult> {
        let _span = Span::enter("sql.execute");
        if stmt.is_txn_control() || matches!(stmt, Stmt::Checkpoint) {
            // Control statements manage the log; they are not run under
            // it and are exempt from the statement fault (so a test can
            // arm a fault and still COMMIT/ROLLBACK around it).
            return self.exec_internal(stmt, ctx, 0);
        }
        self.fault.check_statement()?;
        let mark = self.txn.log.len();
        match self.exec_internal(stmt, ctx, 0) {
            Ok(r) => {
                if !self.txn.explicit {
                    // Autocommit: write the log as one committed WAL
                    // frame before declaring the statement durable and
                    // dropping the log.
                    if let Err(e) = self.wal_flush_commit() {
                        self.rollback_to_mark(mark);
                        StatsCells::bump(&self.stats.txn_rollbacks, 1);
                        return Err(e);
                    }
                    // Below `mark` sit only `NextId` records a failed flush
                    // left, now written too: they commit nothing.
                    if self.txn.log.len() > mark {
                        StatsCells::bump(&self.stats.txn_commits, 1);
                        self.mvcc_commit();
                    }
                    self.txn.log.clear();
                }
                Ok(r)
            }
            Err(e) => {
                self.rollback_to_mark(mark);
                StatsCells::bump(&self.stats.txn_rollbacks, 1);
                Err(e)
            }
        }
    }

    // ------------------------------------------------------------------
    // fault injection
    // ------------------------------------------------------------------

    /// Arm a one-shot deterministic fault: the `n`th client statement
    /// from now (1 = the very next one) fails with
    /// [`DbError::FaultInjected`] before executing. Transaction-control
    /// statements are not counted. The armed fault survives until it
    /// fires or [`Database::clear_faults`] is called.
    pub fn fail_after_statements(&mut self, n: u64) {
        self.fault.arm_statement(n);
    }

    /// Arm a one-shot fault on the `n`th row write (insert, delete, or
    /// cell update) to `table`, firing *mid-statement* — the
    /// statement-level rollback then has real partial work to undo,
    /// including any trigger-body writes already applied.
    pub fn fail_on_table_write(&mut self, table: &str, n: u64) {
        self.fault.arm_table_write(table, n);
    }

    /// Disarm all injected faults.
    pub fn clear_faults(&mut self) {
        self.fault.clear();
    }

    /// Whether any injected fault is still armed.
    pub fn faults_armed(&self) -> bool {
        self.fault.armed()
    }

    // ------------------------------------------------------------------
    // durable storage: WAL, checkpoint, recovery
    // ------------------------------------------------------------------

    /// Open (or create) a durable database rooted at `path`.
    ///
    /// Recovery rebuilds the tables from the directory's checkpoint if it
    /// has one, then replays the WAL's committed frames on top: each
    /// complete `TxnBegin … TxnCommit` frame is applied, an uncommitted
    /// trailing frame (the transaction the crash caught in flight) is
    /// discarded, and a torn final record is truncated away. Replay is
    /// physical — rows land at the slot positions the log recorded — so
    /// the recovered state is byte-identical to the pre-crash committed
    /// state.
    ///
    /// The WAL header's generation decides what the log is worth. Equal
    /// to the checkpoint's: it extends the checkpoint and is replayed.
    /// Older: it is leftover from a checkpoint whose truncation never
    /// landed, its effects are already inside the checkpoint, and it is
    /// reset. Newer, or a full-length header that does not decode: the
    /// log holds acknowledged commits this open cannot place, so the open
    /// fails with [`DbError::Storage`] and no file is modified. A file
    /// shorter than a header is a log torn at creation, i.e. empty.
    ///
    /// A directory written by the removed paged backend (it holds
    /// `pages.meta`) is refused the same way.
    pub fn open(path: impl AsRef<Path>) -> Result<Database> {
        let _span = Span::enter("db.recover");
        let recover_start = std::time::Instant::now();
        let dir = path.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| storage_err("create database directory", &e))?;
        let wal_path = dir.join(WAL_FILE);
        let bytes = match fs::read(&wal_path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(storage_err("read WAL", &e)),
        };
        let log = if bytes.len() < wal::WAL_HEADER_LEN {
            None
        } else {
            Some(wal::decode_wal(&bytes)?)
        };
        // Everything that can refuse the open has run before the first
        // write below.
        let checkpoint = storage::open(&dir, log.as_ref().map(|log| log.generation))?;
        let mut db = Database::new();
        let mut generation = 0u64;
        if let Some((catalog, slots)) = checkpoint {
            generation = catalog.generation;
            db.restore(catalog, slots)?;
        }
        let mut file = fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(&wal_path)
            .map_err(|e| storage_err("open WAL", &e))?;
        let mut recovered = 0u64;
        let mut replayed_bytes = 0u64;
        match log {
            Some(log) if log.generation == generation => {
                replayed_bytes = log.clean_len - wal::WAL_HEADER_LEN as u64;
                recovered = db.replay(log.records)?;
                if (log.clean_len as usize) < bytes.len() {
                    // Torn tail from a crash mid-append: discard it.
                    file.set_len(log.clean_len)
                        .map_err(|e| storage_err("truncate torn WAL tail", &e))?;
                }
            }
            // Older than the checkpoint, or no header yet: start the log
            // of this generation.
            _ => reset_wal(&mut file, generation).map_err(|e| storage_err("reset WAL", &e))?,
        }
        let wal_len = file
            .seek(SeekFrom::End(0))
            .map_err(|e| storage_err("seek WAL end", &e))?;
        // Replay ran with `durable` unset so nothing re-logged itself;
        // wipe its undo/stats bookkeeping before arming the appender.
        db.txn = TxnState::default();
        db.stats = StatsCells::default();
        db.stats.recovered_txns.set(recovered);
        db.stats.wal_replayed_bytes.set(replayed_bytes);
        db.stats
            .recovery_micros
            .set(recover_start.elapsed().as_micros() as u64);
        db.recovered_at.set(
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
        );
        db.durable = Some(DurableState {
            dir,
            wal: Mutex::new(Some(file)),
            sync: FlagCell::new(true),
            wal_len: Counter::new(wal_len),
            generation,
            txn_seq: Counter::new(0),
        });
        Ok(db)
    }

    /// Sync the WAL, then drop the database. An explicit transaction
    /// still open at close is discarded unwritten — exactly as a crash
    /// would discard it.
    pub fn close(mut self) -> Result<()> {
        if let Some(d) = self.durable.take() {
            if let Some(file) = d.wal.into_inner().unwrap_or_else(|e| e.into_inner()) {
                file.sync_all()
                    .map_err(|e| storage_err("sync WAL on close", &e))?;
            }
        }
        Ok(())
    }

    /// Write a checkpoint: publish the catalog (schemas, indexed columns,
    /// statistics, triggers, id counter) and every table's slots as
    /// `snapshot.bin`, then truncate the WAL to a header of the new
    /// generation. A crash at any point leaves either the old checkpoint
    /// (with its WAL) or the new one (with a stale WAL that
    /// [`Database::open`] resets) — never a torn one.
    pub fn checkpoint(&mut self) -> Result<()> {
        let Some(d) = &self.durable else {
            return Err(DbError::Storage(
                "CHECKPOINT requires a durable database (Database::open)".into(),
            ));
        };
        if self.txn.explicit {
            return Err(DbError::Txn(
                "CHECKPOINT inside an explicit transaction".into(),
            ));
        }
        if d.wal.lock().unwrap().is_none() {
            return Err(wal_refused());
        }
        let generation = d.generation + 1;
        let (catalog, slots) = self.checkpoint_catalog(generation);
        let bytes = checkpoint::write_snapshot(&d.dir, &catalog, &slots)?;
        let d = self.durable.as_mut().expect("checked above");
        let mut w = d.wal.lock().unwrap();
        let file = w.as_mut().expect("checked above");
        if let Err(e) = reset_wal(file, generation) {
            // The log may be cut without its new header: appending to it
            // would write frames no open can read.
            *w = None;
            return Err(storage_err("checkpoint", &e));
        }
        drop(w);
        d.generation = generation;
        d.wal_len.set(wal::WAL_HEADER_LEN as u64);
        StatsCells::bump(&self.stats.checkpoints, 1);
        StatsCells::bump(&self.stats.checkpoint_bytes_written, bytes);
        Ok(())
    }

    /// Buffer-pool counters. There is no buffer pool, so they are all
    /// zero; kept only for the end-to-end benchmark (see
    /// [`StorageMetrics`]).
    pub fn storage_metrics(&self) -> StorageMetrics {
        StorageMetrics::default()
    }

    /// Whether this database was opened durably ([`Database::open`]).
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// Storage directory of a durable database.
    pub fn storage_dir(&self) -> Option<&Path> {
        self.durable.as_ref().map(|d| d.dir.as_path())
    }

    /// Toggle per-commit `fsync` of the WAL (on by default). With sync
    /// off commits are still written to the OS before they return — a
    /// process crash loses nothing; only an OS crash can. Tests use this
    /// to keep many small commits cheap.
    pub fn set_wal_sync(&mut self, sync: bool) {
        if let Some(d) = &self.durable {
            d.sync.set(sync);
        }
    }

    /// Does nothing: every commit is synced before it returns. Kept
    /// because the end-to-end benchmark still calls it.
    pub fn set_wal_group_commit(&mut self, _window: u64) {}

    /// End of the last whole frame in the WAL (0 for a non-durable
    /// database). Every acknowledged commit ends at or before it; after
    /// each append, rollback and checkpoint it equals
    /// [`Database::wal_size`]. Kept because the end-to-end benchmark cuts
    /// `wal.bin` here to simulate a crash.
    pub fn wal_synced_len(&self) -> u64 {
        self.durable.as_ref().map_or(0, |d| d.wal_len.get())
    }

    /// Current WAL file size in bytes (0 for a non-durable database).
    pub fn wal_size(&self) -> u64 {
        self.durable
            .as_ref()
            .and_then(|d| fs::metadata(d.dir.join(WAL_FILE)).ok())
            .map(|m| m.len())
            .unwrap_or(0)
    }

    pub(crate) fn next_wal_txn(&self) -> u64 {
        let d = self.durable.as_ref().expect("durable database");
        let n = d.txn_seq.get() + 1;
        d.txn_seq.set(n);
        n
    }

    /// Append pre-framed bytes to the WAL. A `commit` frame is synced
    /// (when sync mode is on) before this returns, so an acknowledged
    /// commit is on disk. If the write or the sync fails, the file is cut
    /// back to the last whole frame, so no byte of the failed frame is
    /// replayed or written out by a later append; if that cut fails too,
    /// the appender is dropped and every later append is refused.
    pub(crate) fn wal_append(&self, bytes: &[u8], records: u64, commit: bool) -> Result<()> {
        let _span = Span::enter("wal.append");
        let d = self.durable.as_ref().expect("durable database");
        let mut w = d.wal.lock().unwrap();
        let file = w.as_mut().ok_or_else(wal_refused)?;
        let written = file
            .write_all(bytes)
            .map_err(|e| storage_err("WAL append", &e))
            .and_then(|()| {
                if commit && d.sync.get() {
                    let _fsync_span = Span::enter("wal.fsync");
                    file.sync_data().map_err(|e| storage_err("WAL fsync", &e))?;
                    StatsCells::bump(&self.stats.wal_fsyncs, 1);
                }
                Ok(())
            });
        if let Err(e) = written {
            let end = d.wal_len.get();
            let cut = file
                .set_len(end)
                .and_then(|()| file.seek(SeekFrom::Start(end)))
                .and_then(|_| file.sync_data());
            if cut.is_err() {
                *w = None;
            }
            return Err(e);
        }
        d.wal_len.set(d.wal_len.get() + bytes.len() as u64);
        StatsCells::bump(&self.stats.wal_records, records);
        StatsCells::bump(&self.stats.wal_bytes, bytes.len() as u64);
        Ok(())
    }

    /// Write the transaction log as one committed WAL frame (`TxnBegin`,
    /// the records, `TxnCommit`), encoded from the records' own fields,
    /// leaving out the records of every frame-local table
    /// ([`txn::frame_local`]). The log is left as it is: on failure the
    /// caller decides whether to roll back, on success it discards the
    /// log. Nothing is written when non-durable or when no record is
    /// left to log.
    pub(crate) fn wal_flush_commit(&self) -> Result<()> {
        if self.durable.is_none() {
            return Ok(());
        }
        let log = &self.txn.log;
        let left_out = txn::frame_local(log);
        let kept = || {
            log.iter()
                .zip(&left_out)
                .filter(|(_, &out)| !out)
                .filter_map(|(r, _)| r.wal_ref())
        };
        let n = kept().count();
        if n == 0 {
            return Ok(());
        }
        let txn = self.next_wal_txn();
        let (begin, commit) = (WalRef::TxnBegin(txn), WalRef::TxnCommit(txn));
        let len = wal::frame_len(begin)
            + kept().map(wal::frame_len).sum::<usize>()
            + wal::frame_len(commit);
        let mut buf = Vec::with_capacity(len);
        wal::encode(begin, &mut buf);
        for r in kept() {
            wal::encode(r, &mut buf);
        }
        wal::encode(commit, &mut buf);
        debug_assert_eq!(buf.len(), len, "frame_len disagrees with encode");
        self.wal_append(&buf, n as u64 + 2, true)
    }

    /// Rebuild one table from its checkpointed catalog entry and slots.
    /// The indexed column numbers and the rows come from disk, so they
    /// are checked against the schema here rather than trusted by the
    /// index build.
    fn table_from_checkpoint(t: CatalogTable, slots: Slots) -> Result<Table> {
        let width = t.schema.columns.len();
        let indexed: Vec<usize> = t.indexed.iter().map(|&ci| ci as usize).collect();
        if let Some(ci) = indexed.iter().find(|&&ci| ci >= width) {
            return Err(DbError::Storage(format!(
                "checkpoint indexes unknown column {ci} of `{}`",
                t.key
            )));
        }
        if slots.iter().flatten().any(|r| r.len() != width) {
            return Err(DbError::Storage(format!(
                "checkpoint holds a row of the wrong width in `{}`",
                t.key
            )));
        }
        Ok(Table::from_parts(t.schema, slots, &indexed))
    }

    /// Reconstruct state from a checkpoint (open-time only): `slots[i]`
    /// is the slot vector of `catalog.tables[i]`, trailing tombstones
    /// included, so WAL replay lands rows at the logged positions.
    fn restore(&mut self, catalog: CheckpointCatalog, slots: Vec<Slots>) -> Result<()> {
        for (t, slots) in catalog.tables.into_iter().zip(slots) {
            let key = t.key.clone();
            self.tables
                .insert(key, Self::table_from_checkpoint(t, slots)?);
        }
        for sql in &catalog.triggers {
            let (stmt, _) = parse_stmt_with_params(sql)?;
            self.exec_internal(&stmt, &EvalCtx::new(), 0)?;
        }
        self.next_id.set(catalog.next_id);
        Ok(())
    }

    /// Triggers in registration order rendered back to `CREATE TRIGGER`
    /// SQL (checkpoint serialization).
    fn trigger_sql(&self) -> Vec<String> {
        self.triggers
            .iter()
            .map(|t| {
                stmt_to_sql(&Stmt::CreateTrigger {
                    name: t.name.clone(),
                    event: t.event,
                    table: t.table.clone(),
                    granularity: t.granularity,
                    body: (*t.body).clone(),
                })
            })
            .collect()
    }

    /// What a checkpoint of the current state holds: the catalog
    /// (schemas, indexed columns, triggers, id counter) and,
    /// borrowed, each table's slot vector. Tables are sorted by key so
    /// the checkpoint bytes are deterministic.
    fn checkpoint_catalog(&self, generation: u64) -> (CheckpointCatalog, Vec<&[Option<Row>]>) {
        let mut tables: Vec<(CatalogTable, &[Option<Row>])> = self
            .tables
            .iter()
            .map(|(key, t)| {
                let entry = CatalogTable {
                    key: key.clone(),
                    schema: t.schema.clone(),
                    indexed: t.indexed_columns().iter().map(|&ci| ci as u32).collect(),
                };
                (entry, t.slots_raw())
            })
            .collect();
        tables.sort_by(|a, b| a.0.key.cmp(&b.0.key));
        let (tables, slots) = tables.into_iter().unzip();
        let catalog = CheckpointCatalog {
            generation,
            next_id: self.next_id.get(),
            tables,
            triggers: self.trigger_sql(),
        };
        (catalog, slots)
    }

    /// Apply the WAL's records: complete `TxnBegin … TxnCommit` frames
    /// are applied, aborted or uncommitted (trailing) frames discarded,
    /// top-level records applied immediately. Returns the number of
    /// committed transactions replayed.
    fn replay(&mut self, records: Vec<WalRecord>) -> Result<u64> {
        let mut pending: Vec<WalRecord> = Vec::new();
        let mut in_txn = false;
        let mut committed = 0u64;
        for rec in records {
            match rec {
                WalRecord::TxnBegin { .. } => {
                    pending.clear();
                    in_txn = true;
                }
                WalRecord::TxnCommit { .. } => {
                    for r in pending.drain(..) {
                        self.apply_wal_record(r)?;
                    }
                    if in_txn {
                        committed += 1;
                    }
                    in_txn = false;
                }
                WalRecord::TxnAbort { .. } => {
                    pending.clear();
                    in_txn = false;
                }
                other if in_txn => pending.push(other),
                other => self.apply_wal_record(other)?,
            }
        }
        // A trailing frame with no commit is the transaction the crash
        // caught in flight: `pending` is simply dropped.
        Ok(committed)
    }

    /// Redo one record. DML is physical (slot positions recorded at log
    /// time); trigger-fired statements were logged as their own records,
    /// so triggers are not re-fired here. DDL replays as SQL text.
    fn apply_wal_record(&mut self, rec: WalRecord) -> Result<()> {
        let missing =
            |t: &str| DbError::Storage(format!("WAL replay references missing table `{t}`"));
        match rec {
            WalRecord::Insert { table, row } => {
                self.tables
                    .get_mut(&table)
                    .ok_or_else(|| missing(&table))?
                    .insert(row)?;
            }
            WalRecord::Delete { table, pos } => {
                self.tables
                    .get_mut(&table)
                    .ok_or_else(|| missing(&table))?
                    .delete(pos as usize);
            }
            WalRecord::Update {
                table,
                pos,
                column,
                value,
            } => {
                self.tables
                    .get_mut(&table)
                    .ok_or_else(|| missing(&table))?
                    .update_cell(pos as usize, column as usize, value)?;
            }
            WalRecord::Ddl { sql } => {
                let (stmt, _) = parse_stmt_with_params(&sql)?;
                self.exec_internal(&stmt, &EvalCtx::new(), 0)?;
            }
            WalRecord::NextId { value } => self.next_id.set(value),
            WalRecord::TxnBegin { .. }
            | WalRecord::TxnCommit { .. }
            | WalRecord::TxnAbort { .. } => {}
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // statement dispatch
    // ------------------------------------------------------------------

    fn exec_internal(
        &mut self,
        stmt: &Stmt,
        ctx: &EvalCtx<'_>,
        depth: usize,
    ) -> Result<ExecResult> {
        if depth > MAX_TRIGGER_DEPTH {
            return Err(DbError::TriggerDepth(format!("depth {depth}")));
        }
        StatsCells::bump(&self.stats.total_statements, 1);
        let is_ddl = matches!(
            stmt,
            Stmt::CreateTable { .. }
                | Stmt::DropTable { .. }
                | Stmt::CreateIndex { .. }
                | Stmt::CreateTrigger { .. }
                | Stmt::DropTrigger { .. }
        );
        // DDL is redone from the WAL as SQL text, rendered by the
        // exact-roundtrip printer into the statement's log record.
        let sql = (is_ddl && self.durable.is_some()).then(|| stmt_to_sql(stmt));
        let result = match stmt {
            Stmt::CreateTable {
                name,
                columns,
                if_not_exists,
            } => {
                let key = name.to_ascii_lowercase();
                if self.tables.contains_key(&key) {
                    if *if_not_exists {
                        return Ok(ExecResult::Ddl);
                    }
                    return Err(DbError::Schema(format!("table `{name}` already exists")));
                }
                let mut seen = HashSet::new();
                for c in columns {
                    if !seen.insert(c.name.to_ascii_lowercase()) {
                        return Err(DbError::Schema(format!(
                            "duplicate column `{}` in `{name}`",
                            c.name
                        )));
                    }
                }
                self.tables.insert(
                    key.clone(),
                    Table::new(TableSchema {
                        name: name.clone(),
                        columns: columns.clone(),
                    }),
                );
                self.record_undo(UndoRecord::CreatedTable { name: key, sql });
                Ok(ExecResult::Ddl)
            }
            Stmt::DropTable { name, if_exists } => {
                let key = name.to_ascii_lowercase();
                match self.tables.remove(&key) {
                    None => {
                        if !*if_exists {
                            return Err(DbError::NoSuchTable(name.clone()));
                        }
                        // Nothing to drop: a no-op, and not logged.
                        return Ok(ExecResult::Ddl);
                    }
                    Some(table) => {
                        // Capture the triggers removed with the table at
                        // their positions so undo can splice them back.
                        let mut removed = Vec::new();
                        let mut kept = Vec::with_capacity(self.triggers.len());
                        for (at, trig) in std::mem::take(&mut self.triggers).into_iter().enumerate()
                        {
                            if trig.table == key {
                                removed.push((at, trig));
                            } else {
                                kept.push(trig);
                            }
                        }
                        self.triggers = kept;
                        self.record_undo(UndoRecord::DroppedTable {
                            name: key,
                            table: Box::new(table),
                            triggers: removed,
                            sql,
                        });
                    }
                }
                Ok(ExecResult::Ddl)
            }
            Stmt::CreateIndex { table, column, .. } => {
                let key = table.to_ascii_lowercase();
                let t = self
                    .tables
                    .get_mut(&key)
                    .ok_or_else(|| DbError::NoSuchTable(table.clone()))?;
                let new_on = t.schema.column_index(column).filter(|&ci| !t.has_index(ci));
                t.create_index(column)?;
                let Some(column) = new_on else {
                    // The column was already indexed: a no-op, and not
                    // logged.
                    return Ok(ExecResult::Ddl);
                };
                self.record_undo(UndoRecord::CreatedIndex {
                    table: key,
                    column,
                    sql,
                });
                Ok(ExecResult::Ddl)
            }
            // `ANALYZE [table]` still parses, so a WAL an older build
            // logged one in replays. There are no statistics to build:
            // past the table-name check it does nothing, and it is
            // neither logged nor a reason to replan.
            Stmt::Analyze { table } => match table {
                Some(name) if !self.tables.contains_key(&name.to_ascii_lowercase()) => {
                    Err(DbError::NoSuchTable(name.clone()))
                }
                _ => Ok(ExecResult::Ddl),
            },
            Stmt::CreateTrigger {
                name,
                event,
                table,
                granularity,
                body,
            } => {
                let key = table.to_ascii_lowercase();
                if !self.tables.contains_key(&key) {
                    return Err(DbError::NoSuchTable(table.clone()));
                }
                if self
                    .triggers
                    .iter()
                    .any(|t| t.name.eq_ignore_ascii_case(name))
                {
                    return Err(DbError::Schema(format!("trigger `{name}` already exists")));
                }
                self.triggers.push(Trigger {
                    name: name.clone(),
                    event: *event,
                    table: key.clone(),
                    granularity: *granularity,
                    body: Arc::new(body.clone()),
                });
                self.record_undo(UndoRecord::CreatedTrigger {
                    name: name.clone(),
                    table: key,
                    sql,
                });
                Ok(ExecResult::Ddl)
            }
            Stmt::DropTrigger { name } => {
                let at = self
                    .triggers
                    .iter()
                    .position(|t| t.name.eq_ignore_ascii_case(name))
                    .ok_or_else(|| DbError::Schema(format!("no trigger `{name}`")))?;
                let trigger = self.triggers.remove(at);
                self.record_undo(UndoRecord::DroppedTrigger {
                    position: at,
                    trigger: Box::new(trigger),
                    sql,
                });
                Ok(ExecResult::Ddl)
            }
            Stmt::Insert {
                table,
                columns,
                source,
            } => self.exec_insert(table, columns.as_deref(), source, ctx, depth),
            Stmt::Delete { table, filter } => self.exec_delete(table, filter.as_ref(), ctx, depth),
            Stmt::Update {
                table,
                sets,
                filter,
            } => self.exec_update(table, sets, filter.as_ref(), ctx),
            Stmt::Explain {
                analyze: true,
                stmt: inner,
            } if !matches!(inner.as_ref(), Stmt::Select(_)) => Ok(ExecResult::Rows(
                self.exec_explain_analyze(inner, ctx, depth)?,
            )),
            Stmt::Select(_) | Stmt::Explain { .. } => {
                Ok(ExecResult::Rows(self.exec_query(stmt, ctx)?))
            }
            Stmt::Begin | Stmt::Commit | Stmt::Rollback { .. } | Stmt::Savepoint { .. } => {
                if depth > 0 {
                    return Err(DbError::Txn(
                        "transaction control inside a trigger body".into(),
                    ));
                }
                match stmt {
                    Stmt::Begin => self.begin()?,
                    Stmt::Commit => self.commit()?,
                    Stmt::Rollback { to_savepoint } => match to_savepoint {
                        Some(name) => self.rollback_to(name)?,
                        None => self.rollback()?,
                    },
                    Stmt::Savepoint { name } => self.savepoint(name)?,
                    _ => unreachable!("outer match covers txn control"),
                }
                Ok(ExecResult::Txn)
            }
            Stmt::Checkpoint => {
                if depth > 0 {
                    return Err(DbError::Txn("CHECKPOINT inside a trigger body".into()));
                }
                self.checkpoint()?;
                Ok(ExecResult::Checkpoint)
            }
        };
        // DDL that gets here changed the catalog (tables, indexes,
        // triggers), so every plan slot replans. No-op DDL (`CREATE TABLE
        // IF NOT EXISTS` on an existing table, `DROP TABLE IF EXISTS` on a
        // missing one, `CREATE INDEX` on an indexed column) returns early
        // above: it neither replans nor logs a record.
        if is_ddl && result.is_ok() {
            self.bump_schema_epoch();
        }
        result
    }

    /// The statements that answer with rows and write nothing: SELECT,
    /// plain `EXPLAIN`, and `EXPLAIN ANALYZE` over a SELECT. The one arm
    /// both the read funnel and [`Database::exec_internal`] run them
    /// through.
    pub(crate) fn exec_query(&self, stmt: &Stmt, ctx: &EvalCtx<'_>) -> Result<ResultSet> {
        match stmt {
            Stmt::Select(q) => {
                let plan = self.select_plan_for(q, ctx)?;
                self.exec_select_plan(&plan, ctx)
            }
            Stmt::Explain {
                analyze: false,
                stmt,
            } => self.explain_stmt(stmt, ctx),
            Stmt::Explain {
                analyze: true,
                stmt,
            } => match stmt.as_ref() {
                Stmt::Select(q) => self.explain_analyze_select(q, ctx),
                _ => Err(DbError::Execution(
                    "EXPLAIN ANALYZE of DML executes the statement; \
                     use a write path (`execute`/`query_mut`)"
                        .into(),
                )),
            },
            other => Err(DbError::Execution(format!(
                "not a query: {}",
                stmt_to_sql(other)
            ))),
        }
    }

    /// `EXPLAIN ANALYZE` for a SELECT: runs the plan with a per-operator
    /// profile and renders actuals (rows produced, loop counts, wall time)
    /// against the planner's estimates. The profiling state is allocated
    /// per execution and never stored on the (possibly cached, shared)
    /// plan.
    fn explain_analyze_select(&self, q: &SelectStmt, ctx: &EvalCtx<'_>) -> Result<ResultSet> {
        let mut lines: Vec<String> = Vec::new();
        let start = std::time::Instant::now();
        let plan = self.select_plan_for(q, ctx)?;
        let prof = PlanProf::for_plan(&plan);
        self.exec_select_plan_prof(&plan, ctx, Some(&prof))?;
        let total_ns = start.elapsed().as_nanos() as u64;
        crate::plan::render_select_plan_prof(&plan, 0, &mut lines, Some(&prof));
        lines.push(format!("Execution time: {}", obs::fmt_ns(total_ns)));
        Ok(ResultSet {
            columns: vec!["plan".into()],
            rows: lines.into_iter().map(|l| vec![Value::Str(l)]).collect(),
        })
    }

    /// `EXPLAIN ANALYZE` of DML (or DDL): execute the statement for real
    /// — as in PostgreSQL, so it mutates the database — and report the
    /// plan the non-analyzing EXPLAIN would print plus an `Actual:` line
    /// derived from the statement's stats deltas (DML has no cursor tree
    /// to profile).
    fn exec_explain_analyze(
        &mut self,
        stmt: &Stmt,
        ctx: &EvalCtx<'_>,
        depth: usize,
    ) -> Result<ResultSet> {
        let mut lines: Vec<String> = Vec::new();
        let start = std::time::Instant::now();
        let before = self.stats.snapshot();
        let result = self.exec_internal(stmt, ctx, depth)?;
        let total_ns = start.elapsed().as_nanos() as u64;
        let after = self.stats.snapshot();
        self.explain_into(stmt, ctx, 0, &mut lines)?;
        lines.push(format!(
            "Actual: rows={} scanned={} index_lookups={} triggers={} time={}",
            result.affected(),
            after.rows_scanned - before.rows_scanned,
            after.index_lookups - before.index_lookups,
            after.trigger_firings - before.trigger_firings,
            obs::fmt_ns(total_ns)
        ));
        Ok(ResultSet {
            columns: vec!["plan".into()],
            rows: lines.into_iter().map(|l| vec![Value::Str(l)]).collect(),
        })
    }

    // ------------------------------------------------------------------
    // DML
    // ------------------------------------------------------------------

    fn exec_insert(
        &mut self,
        table: &str,
        columns: Option<&[String]>,
        source: &InsertSource,
        ctx: &EvalCtx<'_>,
        depth: usize,
    ) -> Result<ExecResult> {
        // Evaluate source rows first (they may read the target table).
        let source_rows: Vec<Row> = match source {
            InsertSource::Values(rows) => {
                let env = RowEnv::default();
                rows.iter()
                    .map(|exprs| {
                        exprs
                            .iter()
                            .map(|e| self.eval_expr(e, &env, ctx, &HashMap::new()))
                            .collect::<Result<Row>>()
                    })
                    .collect::<Result<Vec<Row>>>()?
            }
            InsertSource::Select(q) => self.eval_select(q, ctx)?.rows,
        };
        let key = table.to_ascii_lowercase();
        let (arity, col_map) = {
            let t = self
                .tables
                .get(&key)
                .ok_or_else(|| DbError::NoSuchTable(table.into()))?;
            let arity = t.arity();
            let col_map: Option<Vec<usize>> = match columns {
                None => None,
                Some(cols) => Some(
                    cols.iter()
                        .map(|c| {
                            t.schema
                                .column_index(c)
                                .ok_or_else(|| DbError::NoSuchColumn(format!("{table}.{c}")))
                        })
                        .collect::<Result<Vec<usize>>>()?,
                ),
            };
            (arity, col_map)
        };
        let has_insert_triggers = self
            .triggers
            .iter()
            .any(|t| t.table == key && t.event == TriggerEvent::Insert);
        let mut inserted_rows: Vec<Row> = Vec::new();
        for src in source_rows {
            let full = match &col_map {
                None => {
                    if src.len() != arity {
                        return Err(DbError::Schema(format!(
                            "INSERT into {table}: {} values for {arity} columns",
                            src.len()
                        )));
                    }
                    src
                }
                Some(map) => {
                    if src.len() != map.len() {
                        return Err(DbError::Schema(format!(
                            "INSERT into {table}: {} values for {} named columns",
                            src.len(),
                            map.len()
                        )));
                    }
                    let mut full = vec![Value::Null; arity];
                    for (v, &ci) in src.into_iter().zip(map.iter()) {
                        full[ci] = v;
                    }
                    full
                }
            };
            inserted_rows.push(full);
        }
        let n = inserted_rows.len();
        // Rows applied so far are recorded in the log even when the
        // statement fails partway (arity error, injected fault): the
        // client funnel rolls the partial work back before surfacing the
        // error.
        let mut positions = Vec::with_capacity(n);
        let mut failure = None;
        {
            let t = self.tables.get_mut(&key).unwrap();
            // Unless a trigger needs the rows afterwards, move them in.
            let rows = if has_insert_triggers {
                inserted_rows.clone()
            } else {
                std::mem::take(&mut inserted_rows)
            };
            for row in rows {
                if let Err(e) = self.fault.check_table_write(&key) {
                    failure = Some(e);
                    break;
                }
                match t.insert(row) {
                    Ok(p) => positions.push(p),
                    Err(e) => {
                        failure = Some(e);
                        break;
                    }
                }
            }
        }
        let applied = positions.len();
        // Redo is physical: on a durable database each record keeps the
        // row as it landed, read back from its slot once the statement's
        // rows are in, so the copies sit together and are freed together
        // at commit.
        let durable = self.durable.is_some();
        let t = &self.tables[&key];
        let records: Vec<UndoRecord> = positions
            .into_iter()
            .map(|pos| UndoRecord::InsertedRow {
                table: key.clone(),
                pos,
                row: durable.then(|| t.row(pos).cloned()).flatten(),
            })
            .collect();
        for rec in records {
            self.record_undo(rec);
        }
        if let Some(e) = failure {
            return Err(e);
        }
        StatsCells::bump(&self.stats.rows_inserted, applied as u64);
        if n > 0 && has_insert_triggers {
            self.fire_triggers(&key, TriggerEvent::Insert, &inserted_rows, depth)?;
        }
        Ok(ExecResult::Affected(n))
    }

    fn exec_delete(
        &mut self,
        table: &str,
        filter: Option<&Expr>,
        ctx: &EvalCtx<'_>,
        depth: usize,
    ) -> Result<ExecResult> {
        let key = table.to_ascii_lowercase();
        let positions = self.select_positions(&key, filter, ctx)?;
        let has_delete_triggers = self
            .triggers
            .iter()
            .any(|t| t.table == key && t.event == TriggerEvent::Delete);
        let mut failure = None;
        let deleted: Vec<(usize, Row)> = {
            let t = self.tables.get_mut(&key).unwrap();
            let mut out = Vec::with_capacity(positions.len());
            for &p in &positions {
                if let Err(e) = self.fault.check_table_write(&key) {
                    failure = Some(e);
                    break;
                }
                if let Some(row) = t.delete(p) {
                    out.push((p, row));
                }
            }
            out
        };
        let n = deleted.len();
        // Triggers bind OLD per deleted row; clone only when one exists.
        let mut trigger_rows: Vec<Row> = Vec::new();
        for (pos, row) in deleted {
            if has_delete_triggers {
                trigger_rows.push(row.clone());
            }
            self.record_undo(UndoRecord::DeletedRow {
                table: key.clone(),
                pos,
                row,
            });
        }
        if let Some(e) = failure {
            return Err(e);
        }
        StatsCells::bump(&self.stats.rows_deleted, n as u64);
        if !trigger_rows.is_empty() {
            self.fire_triggers(&key, TriggerEvent::Delete, &trigger_rows, depth)?;
        }
        Ok(ExecResult::Affected(n))
    }

    fn exec_update(
        &mut self,
        table: &str,
        sets: &[(String, Expr)],
        filter: Option<&Expr>,
        ctx: &EvalCtx<'_>,
    ) -> Result<ExecResult> {
        let key = table.to_ascii_lowercase();
        let positions = self.select_positions(&key, filter, ctx)?;
        // Resolve target columns and evaluate per-row assignments against
        // the *old* row, then apply.
        let (columns, set_indices) = {
            let t = self.tables.get(&key).unwrap();
            let cols = t.schema.column_names();
            let idx: Vec<usize> = sets
                .iter()
                .map(|(c, _)| {
                    t.schema
                        .column_index(c)
                        .ok_or_else(|| DbError::NoSuchColumn(format!("{table}.{c}")))
                })
                .collect::<Result<Vec<usize>>>()?;
            (cols, idx)
        };
        let mut pending: Vec<(usize, Vec<Value>)> = Vec::with_capacity(positions.len());
        // Layout built once; only the row values change per tuple.
        let mut env = RowEnv::single(table, &columns, &[]);
        for &p in &positions {
            let row = self.tables.get(&key).unwrap().row(p).ok_or_else(|| {
                DbError::Execution(format!("row vanished during UPDATE at slot {p}"))
            })?;
            env.set_values(row);
            let vals: Vec<Value> = sets
                .iter()
                .map(|(_, e)| self.eval_expr(e, &env, ctx, &HashMap::new()))
                .collect::<Result<Vec<Value>>>()?;
            pending.push((p, vals));
        }
        let n = pending.len();
        let mut failure = None;
        // Per cell: slot, column, the old value and, on a durable
        // database, the value as written (the WAL's after-image).
        let durable = self.durable.is_some();
        let mut cell_undo: Vec<(usize, usize, Value, Option<Value>)> = Vec::new();
        {
            let t = self.tables.get_mut(&key).unwrap();
            'rows: for (p, vals) in pending {
                for (&ci, v) in set_indices.iter().zip(vals) {
                    if let Err(e) = self.fault.check_table_write(&key) {
                        failure = Some(e);
                        break 'rows;
                    }
                    let new = durable.then(|| v.clone());
                    match t.update_cell(p, ci, v) {
                        Ok(old) => cell_undo.push((p, ci, old, new)),
                        Err(e) => {
                            failure = Some(e);
                            break 'rows;
                        }
                    }
                }
            }
        }
        for (pos, column, old, new) in cell_undo {
            self.record_undo(UndoRecord::UpdatedCell {
                table: key.clone(),
                pos,
                column,
                old,
                new,
            });
        }
        if let Some(e) = failure {
            return Err(e);
        }
        StatsCells::bump(&self.stats.rows_updated, n as u64);
        Ok(ExecResult::Affected(n))
    }

    /// Slot positions (ascending) of rows in `table` satisfying
    /// `filter`, reached by the access path [`Database::dml_access`]
    /// chooses — the same chooser and resolver SELECT scans use.
    fn select_positions(
        &self,
        key: &str,
        filter: Option<&Expr>,
        ctx: &EvalCtx<'_>,
    ) -> Result<Vec<usize>> {
        let t = self
            .tables
            .get(key)
            .ok_or_else(|| DbError::NoSuchTable(key.into()))?;
        if filter.is_none() {
            return Ok(t.live_positions());
        }
        let (access, residual) = Self::dml_access(t, filter);
        // The subquery and IN-list caches key on addresses inside
        // `access`; pin it for as long as `ctx` lives.
        let access = Arc::new(access);
        ctx.keepalive.borrow_mut().push(access.clone());
        let ctes = HashMap::new();
        let layout = [(t.schema.name.clone(), t.schema.column_names(), 0)];
        let positions = match self.resolve_access(t, &access, ctx, &ctes, None)? {
            Some(ps) => ps,
            None => Box::new(t.iter_live().map(|(p, _)| p)),
        };
        let mut out = Vec::new();
        'rows: for p in positions {
            StatsCells::bump(&self.stats.rows_scanned, 1);
            let env = SliceEnv {
                layout: &layout,
                values: t.row(p).expect("index points at live row"),
            };
            for conj in &residual {
                if self.eval_bool(conj, &env, ctx, &ctes)? != Some(true) {
                    continue 'rows;
                }
            }
            out.push(p);
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // triggers
    // ------------------------------------------------------------------

    fn fire_triggers(
        &mut self,
        table_key: &str,
        event: TriggerEvent,
        rows: &[Row],
        depth: usize,
    ) -> Result<()> {
        let fired: Vec<Trigger> = self
            .triggers
            .iter()
            .filter(|t| t.table == table_key && t.event == event)
            .cloned()
            .collect();
        if fired.is_empty() {
            return Ok(());
        }
        let _span = Span::enter("trigger.fire");
        let columns: Vec<String> = self
            .tables
            .get(table_key)
            .map(|t| t.schema.column_names())
            .unwrap_or_default();
        let pseudo = match event {
            TriggerEvent::Delete => "OLD",
            TriggerEvent::Insert => "NEW",
        };
        for trig in fired {
            match trig.granularity {
                TriggerGranularity::Row => {
                    for row in rows {
                        StatsCells::bump(&self.stats.trigger_firings, 1);
                        let bindings: Vec<(String, Value)> =
                            columns.iter().cloned().zip(row.iter().cloned()).collect();
                        let ctx = EvalCtx::with_pseudo(pseudo, &bindings);
                        for stmt in trig.body.iter() {
                            self.exec_internal(stmt, &ctx, depth + 1)?;
                        }
                    }
                }
                TriggerGranularity::Statement => {
                    StatsCells::bump(&self.stats.trigger_firings, 1);
                    let ctx = EvalCtx::new();
                    for stmt in trig.body.iter() {
                        self.exec_internal(stmt, &ctx, depth + 1)?;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::MetricKind;

    /// The counter table is complete and wired straight: every `Stats`
    /// field is one `rdb_<field>_total` counter, every cell feeds its own
    /// field (each is bumped by a different amount, which subsumes
    /// "bump each once, read all ones"), and `reset_stats` zeroes them all.
    #[test]
    fn counter_table_is_complete() {
        let mut db = Database::new();
        let names: Vec<&str> = db.stats.cells().iter().map(|(n, _)| *n).collect();
        for (i, (_, cell)) in db.stats.cells().iter().enumerate() {
            StatsCells::bump(cell, i as u64 + 1);
        }
        // `Debug` is derived by the compiler from the struct itself, so
        // it names the fields independently of the macro's own lists.
        let debug = format!("{:?}", db.stats());
        let fields: Vec<&str> = debug
            .trim_start_matches("Stats { ")
            .trim_end_matches(" }")
            .split(", ")
            .collect();
        assert_eq!(fields.len(), names.len());
        let metrics = db.metrics();
        for (i, name) in names.iter().enumerate() {
            assert_eq!(fields[i], format!("{name}: {}", i + 1));
            let family = format!("rdb_{name}_total");
            let hits: Vec<&Metric> = metrics.iter().filter(|m| m.name == family).collect();
            assert_eq!(hits.len(), 1, "{family} must appear exactly once");
            assert_eq!(hits[0].kind, MetricKind::Counter, "{family}");
            assert_eq!(hits[0].value, i as u64 + 1, "{family} reads the wrong cell");
            assert!(!hits[0].help.is_empty(), "{family} has no help text");
        }

        db.reset_stats();
        assert_eq!(db.stats(), Stats::default());
    }

    /// Dashboards key on these names: the Prometheus families of a
    /// database (phase series appear only once tracing has recorded
    /// spans).
    #[test]
    fn metric_family_names_are_pinned() {
        let text = Database::new().metrics_text();
        let mut families: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .map(|l| l.split(' ').next().unwrap())
            .filter(|f| !f.starts_with("rdb_phase_"))
            .collect();
        families.sort_unstable();
        let expected = [
            "rdb_active_sessions",
            "rdb_checkpoint_bytes_written_total",
            "rdb_checkpoints_total",
            "rdb_client_statements_total",
            "rdb_in_list_builds_total",
            "rdb_in_transaction",
            "rdb_index_lookups_total",
            "rdb_index_scans_total",
            "rdb_ordered_index_scans_total",
            "rdb_plan_cache_entries",
            "rdb_plan_cache_hits_total",
            "rdb_plan_cache_misses_total",
            "rdb_plans_built_total",
            "rdb_predicates_pushed_total",
            "rdb_recovered_txns_total",
            "rdb_recovery_micros_total",
            "rdb_recovery_timestamp_seconds",
            "rdb_rows_deleted_total",
            "rdb_rows_inserted_total",
            "rdb_rows_scanned_total",
            "rdb_rows_updated_total",
            "rdb_seq_scans_total",
            "rdb_snapshot_reads_total",
            "rdb_snapshot_versions_retained",
            "rdb_sorts_elided_total",
            "rdb_statement_store_evictions_total",
            "rdb_statement_tracking_enabled",
            "rdb_statements_parsed_total",
            "rdb_tables",
            "rdb_total_statements_total",
            "rdb_tracked_statements",
            "rdb_trigger_firings_total",
            "rdb_txn_commits_total",
            "rdb_txn_rollbacks_total",
            "rdb_undo_log_len",
            "rdb_undo_records_total",
            "rdb_uptime_seconds",
            "rdb_wal_bytes_total",
            "rdb_wal_fsyncs_total",
            "rdb_wal_records_total",
            "rdb_wal_replayed_bytes_total",
            "rdb_wal_size_bytes",
            "rdb_write_lock_wait_count",
            "rdb_write_lock_wait_us_p50",
            "rdb_write_lock_wait_us_p95",
            "rdb_write_lock_wait_us_sum",
        ];
        assert_eq!(families, expected);
    }
}
