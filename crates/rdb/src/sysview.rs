//! System introspection views (`rdb_*`): read-only virtual tables that
//! expose the engine's internal state — catalog, statistics, metrics,
//! live sessions, per-statement execution statistics, and durability
//! telemetry — through the ordinary SQL pipeline.
//!
//! A system view is resolved by the planner like a table (after CTEs and
//! user tables, so a user table of the same name shadows the view),
//! materialized at cursor-open time into an in-memory row set, and then
//! flows through the same scan/join/sort/limit operators as any other
//! FROM source. That means `WHERE`, joins against user tables,
//! `ORDER BY`, `LIMIT`, aggregates, and CTEs all compose with system
//! views for free.
//!
//! The module also owns the two instrumentation substrates the views
//! read from:
//!
//! * `StatementStore` — a pg_stat_statements-style aggregate keyed by
//!   a literal-normalized statement fingerprint, LRU-bounded, feeding
//!   `rdb_statements`.
//! * `SessionRegistry` — live per-session state (state machine,
//!   snapshot epoch, current statement, cumulative writer-lock wait),
//!   feeding `rdb_sessions`.

use std::collections::HashMap;
use std::sync::Mutex;

use crate::cells::FlagCell;
use crate::engine::Database;
use crate::error::{DbError, Result};
use crate::lexer::{lex, Tok};
use crate::obs::Histogram;
use crate::value::{Row, Value};

// ---------------------------------------------------------------------------
// view catalog
// ---------------------------------------------------------------------------

/// Names of all system views, sorted. `rdb_tables` lists user tables
/// only; the views themselves are virtual and live outside the catalog.
pub const SYSTEM_VIEWS: &[&str] = &[
    "rdb_checkpoints",
    "rdb_columns",
    "rdb_indexes",
    "rdb_metrics",
    "rdb_sessions",
    "rdb_statements",
    "rdb_tables",
    "rdb_wal",
];

/// Column names of the system view `name` (lower-cased), or `None` if
/// `name` is not a system view.
pub fn view_columns(name: &str) -> Option<&'static [&'static str]> {
    Some(match name {
        "rdb_tables" => &["name", "rows", "indexes"],
        "rdb_columns" => &["table_name", "column_name", "ordinal"],
        "rdb_indexes" => &["table_name", "column_name", "entries"],
        "rdb_metrics" => &["name", "kind", "labels", "value"],
        "rdb_sessions" => &[
            "id",
            "state",
            "snapshot_epoch",
            "statement",
            "wait_us",
            "statements",
        ],
        "rdb_statements" => &[
            "fingerprint",
            "sql",
            "calls",
            "rows",
            "total_us",
            "mean_us",
            "p95_us",
            "plan_cache_hits",
            "wal_bytes",
        ],
        "rdb_wal" => &["name", "value"],
        "rdb_checkpoints" => &["name", "value"],
        _ => return None,
    })
}

/// Whether `name` (already lower-cased) names a system view.
pub fn is_system_view(name: &str) -> bool {
    view_columns(name).is_some()
}

// ---------------------------------------------------------------------------
// statement fingerprinting
// ---------------------------------------------------------------------------

/// A literal-normalized statement identity: the FNV-1a 64 hash of the
/// normalized text plus the text itself (for display in
/// `rdb_statements`).
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// FNV-1a 64 hash of [`Fingerprint::normalized`].
    pub hash: u64,
    /// The statement with literals and placeholders replaced by `?`,
    /// IN-lists and multi-row `VALUES` collapsed to one element.
    pub normalized: String,
}

/// Compute the fingerprint of one SQL statement.
///
/// Normalization re-lexes the text, replaces every literal
/// (`Int`/`Str`) and placeholder (`?`/`$n`) token with `?`, drops a
/// trailing `;`, joins tokens with single spaces, and then collapses
/// repeated parameter groups so `IN (1, 2, 3)` and `IN (?)` share a
/// fingerprint, as do multi-row and single-row `VALUES` lists. Text
/// that fails to lex (never the case for statements that executed)
/// falls back to the trimmed raw text. The hash is computed over the
/// case-folded text — the parser matches keywords case-insensitively,
/// so `select` and `SELECT` variants are the same statement — while
/// `normalized` keeps the original casing for display.
pub fn fingerprint(sql: &str) -> Fingerprint {
    let normalized = normalize(sql);
    Fingerprint {
        hash: fnv1a(normalized.to_ascii_lowercase().as_bytes()),
        normalized,
    }
}

fn normalize(sql: &str) -> String {
    let Ok(toks) = lex(sql) else {
        return sql.trim().to_string();
    };
    let mut words: Vec<String> = Vec::with_capacity(toks.len());
    for t in &toks {
        match t {
            Tok::Int(_) | Tok::Str(_) | Tok::Question | Tok::Dollar(_) => {
                words.push("?".to_string())
            }
            other => words.push(other.to_string()),
        }
    }
    while words.last().is_some_and(|w| w == ";") {
        words.pop();
    }
    let mut text = words.join(" ");
    // Collapse parameter lists to one element: first `? , ?` → `?`
    // (IN-lists, one row of a VALUES list), then `( ? ) , ( ? )` →
    // `( ? )` (multi-row VALUES). Each runs to a fixpoint.
    loop {
        let next = text.replace("? , ?", "?");
        if next == text {
            break;
        }
        text = next;
    }
    loop {
        let next = text.replace("( ? ) , ( ? )", "( ? )");
        if next == text {
            break;
        }
        text = next;
    }
    text
}

/// FNV-1a 64-bit hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// per-statement statistics store
// ---------------------------------------------------------------------------

/// Maximum distinct fingerprints retained by the statement store; the
/// least-recently-updated entry is evicted beyond this.
pub const STATEMENT_STORE_CAPACITY: usize = 256;

/// Aggregated execution statistics for one statement fingerprint, as
/// surfaced by `rdb_statements` and [`Database::statement_statistics`].
#[derive(Debug, Clone)]
pub struct StatementStats {
    /// Fingerprint hash (FNV-1a 64 of the literal-normalized text).
    pub fingerprint: u64,
    /// Literal-normalized statement text.
    pub sql: String,
    /// Successful executions recorded.
    pub calls: u64,
    /// Rows returned (queries) or affected (DML), summed over calls.
    pub rows: u64,
    /// Total execution time, nanoseconds.
    pub total_ns: u64,
    /// Mean execution time, nanoseconds.
    pub mean_ns: u64,
    /// 95th-percentile execution time (histogram upper bound),
    /// nanoseconds.
    pub p95_ns: u64,
    /// Executions that reused a cached or prepared plan.
    pub plan_cache_hits: u64,
    /// WAL bytes appended while these statements ran.
    pub wal_bytes: u64,
}

#[derive(Debug)]
struct StatementEntry {
    sql: String,
    calls: u64,
    rows: u64,
    total_ns: u64,
    latency: Histogram,
    plan_cache_hits: u64,
    wal_bytes: u64,
    last_used: u64,
}

#[derive(Debug, Default)]
struct StoreInner {
    entries: HashMap<u64, StatementEntry>,
    tick: u64,
    evictions: u64,
}

/// pg_stat_statements-style store: per-fingerprint execution aggregates,
/// bounded by [`STATEMENT_STORE_CAPACITY`] with least-recently-updated
/// eviction. Disabled by default; when disabled the execution funnel
/// pays a single atomic flag read per statement.
#[derive(Debug, Default)]
pub(crate) struct StatementStore {
    enabled: FlagCell,
    inner: Mutex<StoreInner>,
}

impl StatementStore {
    /// Whether recording is enabled.
    pub(crate) fn enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Enable or disable recording. Disabling keeps existing aggregates.
    pub(crate) fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Record one successful execution under `fp`.
    pub(crate) fn record(&self, fp: &Fingerprint, rows: u64, ns: u64, plan_hit: bool, wal: u64) {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.entries.contains_key(&fp.hash) && inner.entries.len() >= STATEMENT_STORE_CAPACITY
        {
            // Evict the least-recently-updated fingerprint (same O(n)
            // sweep the plan cache uses; n is bounded by the capacity).
            if let Some(&victim) = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                inner.entries.remove(&victim);
                inner.evictions += 1;
            }
        }
        let entry = inner
            .entries
            .entry(fp.hash)
            .or_insert_with(|| StatementEntry {
                sql: fp.normalized.clone(),
                calls: 0,
                rows: 0,
                total_ns: 0,
                latency: Histogram::new(),
                plan_cache_hits: 0,
                wal_bytes: 0,
                last_used: 0,
            });
        entry.calls += 1;
        entry.rows += rows;
        entry.total_ns += ns;
        entry.latency.record(ns);
        entry.plan_cache_hits += plan_hit as u64;
        entry.wal_bytes += wal;
        entry.last_used = tick;
    }

    /// The `RESET` hook: drop all aggregates (keeps the enabled flag).
    pub(crate) fn reset(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.entries.clear();
        inner.evictions = 0;
    }

    /// Number of fingerprints currently tracked.
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().unwrap().entries.len()
    }

    /// Entries evicted by the capacity bound since the last reset.
    pub(crate) fn evictions(&self) -> u64 {
        self.inner.lock().unwrap().evictions
    }

    /// Snapshot all aggregates, heaviest (by total time) first; ties
    /// break on the fingerprint for deterministic output.
    pub(crate) fn snapshot(&self) -> Vec<StatementStats> {
        let inner = self.inner.lock().unwrap();
        let mut out: Vec<StatementStats> = inner
            .entries
            .iter()
            .map(|(&hash, e)| StatementStats {
                fingerprint: hash,
                sql: e.sql.clone(),
                calls: e.calls,
                rows: e.rows,
                total_ns: e.total_ns,
                mean_ns: e.total_ns / e.calls.max(1),
                p95_ns: e.latency.p95_ns(),
                plan_cache_hits: e.plan_cache_hits,
                wal_bytes: e.wal_bytes,
            })
            .collect();
        out.sort_by(|a, b| {
            b.total_ns
                .cmp(&a.total_ns)
                .then(a.fingerprint.cmp(&b.fingerprint))
        });
        out
    }
}

// ---------------------------------------------------------------------------
// session registry
// ---------------------------------------------------------------------------

/// What a session is doing right now (the `rdb_sessions.state` column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Connected, between statements.
    Idle,
    /// Classifying/parsing the statement text.
    Parsing,
    /// Running a statement through the engine.
    Executing,
    /// Blocked on the writer-admission token.
    WaitingWriteLock,
    /// Committing an explicit transaction.
    Committing,
}

impl SessionState {
    /// Lower-snake rendering used by the view and the wire protocol.
    pub fn as_str(self) -> &'static str {
        match self {
            SessionState::Idle => "idle",
            SessionState::Parsing => "parsing",
            SessionState::Executing => "executing",
            SessionState::WaitingWriteLock => "waiting_write_lock",
            SessionState::Committing => "committing",
        }
    }
}

/// One live session's instantaneous state, as surfaced by
/// `rdb_sessions`.
#[derive(Debug, Clone)]
pub struct SessionInfo {
    /// Registry-assigned session id (1-based; 0 means "no session").
    pub id: u64,
    /// Current state-machine state.
    pub state: SessionState,
    /// Pinned MVCC snapshot epoch, if the session holds one.
    pub snapshot_epoch: Option<u64>,
    /// Statement currently executing, if any.
    pub statement: Option<String>,
    /// Cumulative time spent waiting for the writer token, nanoseconds.
    pub wait_ns: u64,
    /// Statements executed by this session.
    pub statements: u64,
}

#[derive(Debug, Default)]
struct RegistryInner {
    next_id: u64,
    sessions: std::collections::BTreeMap<u64, SessionInfo>,
}

/// Registry of live sessions backing `rdb_sessions`. Shared (via `Arc`)
/// between the [`Database`] — which materializes the view — and the
/// session layer, which drives the per-session state machine. The
/// registry's lock is never held while engine locks are taken, so it
/// cannot participate in a lock cycle.
#[derive(Debug, Default)]
pub(crate) struct SessionRegistry {
    inner: Mutex<RegistryInner>,
}

impl SessionRegistry {
    /// Register a new session and return its id.
    pub(crate) fn register(&self) -> u64 {
        let mut inner = self.inner.lock().unwrap();
        inner.next_id += 1;
        let id = inner.next_id;
        inner.sessions.insert(
            id,
            SessionInfo {
                id,
                state: SessionState::Idle,
                snapshot_epoch: None,
                statement: None,
                wait_ns: 0,
                statements: 0,
            },
        );
        id
    }

    /// Remove a closed session.
    pub(crate) fn unregister(&self, id: u64) {
        self.inner.lock().unwrap().sessions.remove(&id);
    }

    fn with<R>(&self, id: u64, f: impl FnOnce(&mut SessionInfo) -> R) -> Option<R> {
        self.inner.lock().unwrap().sessions.get_mut(&id).map(f)
    }

    /// Transition the session's state machine.
    pub(crate) fn set_state(&self, id: u64, state: SessionState) {
        self.with(id, |s| s.state = state);
    }

    /// Mark a statement as starting: state moves to `parsing`, the text
    /// is published, and the session's statement counter bumps.
    pub(crate) fn statement_begin(&self, id: u64, sql: &str) {
        self.with(id, |s| {
            s.state = SessionState::Parsing;
            s.statement = Some(sql.to_string());
            s.statements += 1;
        });
    }

    /// Mark the statement as finished: back to `idle`, text cleared.
    pub(crate) fn statement_end(&self, id: u64) {
        self.with(id, |s| {
            s.state = SessionState::Idle;
            s.statement = None;
        });
    }

    /// Attribute writer-token wait time to the session.
    pub(crate) fn add_wait(&self, id: u64, ns: u64) {
        self.with(id, |s| s.wait_ns += ns);
    }

    /// Publish (or clear) the session's pinned snapshot epoch.
    pub(crate) fn set_snapshot(&self, id: u64, epoch: Option<u64>) {
        self.with(id, |s| s.snapshot_epoch = epoch);
    }

    /// Snapshot all live sessions in id order.
    pub(crate) fn snapshot(&self) -> Vec<SessionInfo> {
        self.inner
            .lock()
            .unwrap()
            .sessions
            .values()
            .cloned()
            .collect()
    }
}

// ---------------------------------------------------------------------------
// row materialization
// ---------------------------------------------------------------------------

fn int(v: u64) -> Value {
    Value::Int(v as i64)
}

fn s(v: impl Into<String>) -> Value {
    Value::Str(v.into())
}

fn opt_int(v: Option<u64>) -> Value {
    v.map_or(Value::Null, int)
}

impl Database {
    /// Enable or disable per-statement statistics collection
    /// (`rdb_statements`). Off by default; when off the execution funnel
    /// pays one atomic flag read per statement. Existing aggregates are
    /// kept across disable/enable — use
    /// [`Database::reset_statement_statistics`] to drop them.
    pub fn set_statement_tracking(&self, on: bool) {
        self.statements.set_enabled(on);
    }

    /// Whether per-statement statistics collection is enabled.
    pub fn statement_tracking(&self) -> bool {
        self.statements.enabled()
    }

    /// The `RESET` hook: drop all per-statement aggregates.
    pub fn reset_statement_statistics(&self) {
        self.statements.reset();
    }

    /// Snapshot the per-statement statistics store, heaviest (by total
    /// execution time) first.
    pub fn statement_statistics(&self) -> Vec<StatementStats> {
        self.statements.snapshot()
    }

    /// The per-statement statistics as a JSON array (the payload of the
    /// HTTP `/statements` endpoint).
    pub fn statements_json(&self) -> String {
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        let items: Vec<String> = self
            .statement_statistics()
            .iter()
            .map(|st| {
                format!(
                    "{{\"fingerprint\":\"{:016x}\",\"sql\":\"{}\",\"calls\":{},\"rows\":{},\
                     \"total_us\":{},\"mean_us\":{},\"p95_us\":{},\"plan_cache_hits\":{},\
                     \"wal_bytes\":{}}}",
                    st.fingerprint,
                    esc(&st.sql),
                    st.calls,
                    st.rows,
                    st.total_ns / 1_000,
                    st.mean_ns / 1_000,
                    st.p95_ns / 1_000,
                    st.plan_cache_hits,
                    st.wal_bytes
                )
            })
            .collect();
        format!("[{}]", items.join(","))
    }

    /// Materialize the rows of the system view `name`. Called by the
    /// executor when a scan's source resolved to a system view at plan
    /// time.
    pub(crate) fn sysview_rows(&self, name: &str) -> Result<Vec<Row>> {
        match name {
            "rdb_tables" => Ok(self.rows_tables()),
            "rdb_columns" => Ok(self.rows_columns()),
            "rdb_indexes" => Ok(self.rows_indexes()),
            "rdb_metrics" => Ok(self.rows_metrics()),
            "rdb_sessions" => Ok(self.rows_sessions()),
            "rdb_statements" => Ok(self.rows_statements()),
            "rdb_wal" => Ok(self.rows_wal()),
            "rdb_checkpoints" => Ok(self.rows_checkpoints()),
            other => Err(DbError::NoSuchTable(other.to_string())),
        }
    }

    fn rows_tables(&self) -> Vec<Row> {
        self.table_names()
            .into_iter()
            .map(|name| {
                let t = &self.tables[&name];
                let cols = t.schema.column_names();
                let indexes: Vec<&str> = t
                    .indexed_columns()
                    .into_iter()
                    .map(|ci| cols[ci].as_str())
                    .collect();
                vec![s(name.clone()), int(t.len() as u64), s(indexes.join(", "))]
            })
            .collect()
    }

    fn rows_columns(&self) -> Vec<Row> {
        let mut rows = Vec::new();
        for name in self.table_names() {
            let t = &self.tables[&name];
            for (ci, col) in t.schema.column_names().into_iter().enumerate() {
                rows.push(vec![s(name.clone()), s(col), int(ci as u64)]);
            }
        }
        rows
    }

    fn rows_indexes(&self) -> Vec<Row> {
        let mut rows = Vec::new();
        for name in self.table_names() {
            let t = &self.tables[&name];
            for ci in t.indexed_columns() {
                rows.push(vec![
                    s(name.clone()),
                    s(t.schema.columns[ci].name.clone()),
                    int(t.index_distinct(ci) as u64),
                ]);
            }
        }
        rows
    }

    fn rows_metrics(&self) -> Vec<Row> {
        self.metrics()
            .into_iter()
            .map(|m| {
                let labels: Vec<String> =
                    m.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
                vec![
                    s(m.name),
                    s(match m.kind {
                        crate::obs::MetricKind::Counter => "counter",
                        crate::obs::MetricKind::Gauge => "gauge",
                    }),
                    s(labels.join(",")),
                    int(m.value),
                ]
            })
            .collect()
    }

    fn rows_sessions(&self) -> Vec<Row> {
        self.sessions
            .snapshot()
            .into_iter()
            .map(|info| {
                vec![
                    int(info.id),
                    s(info.state.as_str()),
                    opt_int(info.snapshot_epoch),
                    info.statement.map_or(Value::Null, Value::Str),
                    int(info.wait_ns / 1_000),
                    int(info.statements),
                ]
            })
            .collect()
    }

    fn rows_statements(&self) -> Vec<Row> {
        self.statements
            .snapshot()
            .into_iter()
            .map(|st| {
                vec![
                    s(format!("{:016x}", st.fingerprint)),
                    s(st.sql),
                    int(st.calls),
                    int(st.rows),
                    int(st.total_ns / 1_000),
                    int(st.mean_ns / 1_000),
                    int(st.p95_ns / 1_000),
                    int(st.plan_cache_hits),
                    int(st.wal_bytes),
                ]
            })
            .collect()
    }

    fn rows_wal(&self) -> Vec<Row> {
        self.wal_view_rows()
            .into_iter()
            .map(|(name, value)| vec![s(name), int(value)])
            .collect()
    }

    fn rows_checkpoints(&self) -> Vec<Row> {
        self.checkpoint_view_rows()
            .into_iter()
            .map(|(name, value)| vec![s(name), int(value)])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literals_and_placeholders_normalize_alike() {
        let a = fingerprint("SELECT name FROM t WHERE id = 42");
        let b = fingerprint("SELECT name FROM t WHERE id = ?");
        let c = fingerprint("SELECT name FROM t WHERE id = $1");
        let d = fingerprint("select name from t where id = 'x';");
        assert_eq!(a.hash, b.hash);
        assert_eq!(b.hash, c.hash);
        assert_eq!(c.hash, d.hash);
        assert_eq!(a.normalized, "SELECT name FROM t WHERE id = ?");
    }

    #[test]
    fn in_lists_collapse() {
        let a = fingerprint("SELECT * FROM t WHERE id IN (1, 2, 3)");
        let b = fingerprint("SELECT * FROM t WHERE id IN (7)");
        assert_eq!(a.hash, b.hash);
        assert!(a.normalized.contains("IN ( ? )"));
    }

    #[test]
    fn values_rows_collapse() {
        let a = fingerprint("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')");
        let b = fingerprint("INSERT INTO t VALUES (9, 'z')");
        assert_eq!(a.hash, b.hash);
        assert!(a.normalized.ends_with("VALUES ( ? )"));
    }

    #[test]
    fn distinct_statements_differ() {
        let a = fingerprint("SELECT a FROM t");
        let b = fingerprint("SELECT b FROM t");
        assert_ne!(a.hash, b.hash);
    }

    #[test]
    fn store_caps_and_evicts_least_recently_updated() {
        let store = StatementStore::default();
        store.set_enabled(true);
        for i in 0..STATEMENT_STORE_CAPACITY + 10 {
            let fp = fingerprint(&format!("SELECT c{i} FROM t"));
            store.record(&fp, 1, 1_000, false, 0);
        }
        assert_eq!(store.len(), STATEMENT_STORE_CAPACITY);
        assert_eq!(store.evictions(), 10);
        // The earliest fingerprints were evicted; the latest survive.
        let survivors: Vec<String> = store.snapshot().into_iter().map(|s| s.sql).collect();
        assert!(!survivors.iter().any(|s| s.contains("c0 ")));
        store.reset();
        assert_eq!(store.len(), 0);
        assert_eq!(store.evictions(), 0);
    }

    #[test]
    fn registry_tracks_lifecycle() {
        let reg = SessionRegistry::default();
        let a = reg.register();
        let b = reg.register();
        assert_ne!(a, b);
        reg.statement_begin(a, "SELECT 1");
        reg.set_state(a, SessionState::Executing);
        reg.add_wait(a, 5_000);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 2);
        let sa = snap.iter().find(|s| s.id == a).unwrap();
        assert_eq!(sa.state, SessionState::Executing);
        assert_eq!(sa.statement.as_deref(), Some("SELECT 1"));
        assert_eq!(sa.wait_ns, 5_000);
        assert_eq!(sa.statements, 1);
        reg.statement_end(a);
        reg.unregister(b);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].state, SessionState::Idle);
        assert!(snap[0].statement.is_none());
    }
}
