//! Fault-tolerant workload driver.
//!
//! Loads a synthetic document, runs a bulk or random delete/insert
//! workload over it, and — with `--fail-at` / `--fail-table` — injects a
//! deterministic fault mid-workload to demonstrate graceful recovery:
//! the killed operation's transaction rolls back, the operation is
//! retried, and the rest of the workload completes.
//!
//! With `--db-path` the store is durable (WAL + checkpoint snapshots,
//! see the `xmlup_rdb::wal` module); `--crash-and-recover` additionally
//! simulates a process kill at the first injected fault — the database
//! handle is dropped without a clean close, reopened from disk, and the
//! recovered state verified byte-identical to the pre-crash committed
//! state before the workload resumes.
//!
//! ```text
//! workload [--op delete|insert] [--workload bulk|random]
//!          [--delete-strategy per-tuple|per-statement|cascading|asr]
//!          [--insert-strategy tuple|table|asr]
//!          [--batch-size N]     rows folded per translated SQL statement
//!          [--scale N] [--depth N] [--fanout N] [--seed N]
//!          [--fail-at N]        fail the Nth client SQL statement
//!          [--fail-table T:N]   fail the Nth write to table T
//!          [--db-path DIR]      durable store rooted at DIR
//!          [--checkpoint-every N]  CHECKPOINT after every N operations
//!          [--crash-and-recover]   kill + reopen + verify at the fault
//!          [--metrics-out FILE]    dump the final metric registry as JSON
//!          [--track-statements]    per-statement stats; print the top 10
//! ```

use xmlup_core::{DeleteStrategy, InsertStrategy, RepoConfig, XmlRepository};
use xmlup_rdb::{Table, Value};
use xmlup_shred::Mapping;
use xmlup_workload::driver::{
    pick_targets, run_delete_recovering, run_insert_recovering, RecoveryReport, Workload,
};
use xmlup_workload::synthetic::{fixed_document, synthetic_dtd, SyntheticParams};

struct Args {
    op: String,
    workload: Workload,
    delete_strategy: DeleteStrategy,
    insert_strategy: InsertStrategy,
    batch_size: usize,
    scale: usize,
    depth: usize,
    fanout: usize,
    fail_at: Option<u64>,
    fail_table: Option<(String, u64)>,
    db_path: Option<String>,
    checkpoint_every: Option<usize>,
    crash_and_recover: bool,
    metrics_out: Option<String>,
    track_statements: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: workload [--op delete|insert] [--workload bulk|random]\n\
         \x20               [--delete-strategy per-tuple|per-statement|cascading|asr]\n\
         \x20               [--insert-strategy tuple|table|asr]\n\
         \x20               [--batch-size N]\n\
         \x20               [--scale N] [--depth N] [--fanout N] [--seed N]\n\
         \x20               [--fail-at N] [--fail-table TABLE:N]\n\
         \x20               [--db-path DIR]\n\
         \x20               [--checkpoint-every N] [--crash-and-recover]\n\
         \x20               [--metrics-out FILE] [--track-statements]"
    );
    std::process::exit(2);
}

/// Reject a flag combination, naming the offending flag.
fn flag_error(msg: &str) -> ! {
    eprintln!("workload: {msg}");
    usage();
}

fn parse_args() -> Args {
    let mut args = Args {
        op: "delete".into(),
        workload: Workload::random10(),
        delete_strategy: DeleteStrategy::Cascading,
        insert_strategy: InsertStrategy::Tuple,
        batch_size: 256,
        scale: 50,
        depth: 3,
        fanout: 2,
        fail_at: None,
        fail_table: None,
        db_path: None,
        checkpoint_every: None,
        crash_and_recover: false,
        metrics_out: None,
        track_statements: false,
    };
    let mut seed = 0xab1e_u64;
    let mut random = true;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--op" => args.op = value(&mut i),
            "--workload" => match value(&mut i).as_str() {
                "bulk" => random = false,
                "random" => random = true,
                _ => usage(),
            },
            "--delete-strategy" => {
                args.delete_strategy = match value(&mut i).as_str() {
                    "per-tuple" => DeleteStrategy::PerTupleTrigger,
                    "per-statement" => DeleteStrategy::PerStatementTrigger,
                    "cascading" => DeleteStrategy::Cascading,
                    "asr" => DeleteStrategy::Asr,
                    _ => usage(),
                }
            }
            "--insert-strategy" => {
                args.insert_strategy = match value(&mut i).as_str() {
                    "tuple" => InsertStrategy::Tuple,
                    "table" => InsertStrategy::Table,
                    "asr" => InsertStrategy::Asr,
                    _ => usage(),
                }
            }
            "--batch-size" => args.batch_size = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--scale" => args.scale = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--depth" => args.depth = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--fanout" => args.fanout = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--fail-at" => args.fail_at = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            "--fail-table" => {
                let v = value(&mut i);
                let (t, n) = v.split_once(':').unwrap_or_else(|| usage());
                args.fail_table = Some((t.to_string(), n.parse().unwrap_or_else(|_| usage())));
            }
            "--db-path" => args.db_path = Some(value(&mut i)),
            "--checkpoint-every" => {
                args.checkpoint_every = Some(value(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--crash-and-recover" => args.crash_and_recover = true,
            "--metrics-out" => args.metrics_out = Some(value(&mut i)),
            "--track-statements" => args.track_statements = true,
            _ => usage(),
        }
        i += 1;
    }
    if random {
        args.workload = Workload::Random {
            count: xmlup_workload::RANDOM_OPS,
            seed,
        };
    } else {
        args.workload = Workload::Bulk;
    }
    // Contradictory flag combinations are rejected up front, naming the
    // offending flag, rather than failing obscurely mid-run.
    if args.fail_at.is_some() && args.fail_table.is_some() {
        flag_error("--fail-at conflicts with --fail-table: arm one fault at a time");
    }
    if args.crash_and_recover && args.db_path.is_none() {
        flag_error("--crash-and-recover requires --db-path: crash recovery needs a durable store");
    }
    if args.checkpoint_every.is_some() && args.db_path.is_none() {
        flag_error("--checkpoint-every requires --db-path: CHECKPOINT needs a durable store");
    }
    if args.checkpoint_every == Some(0) {
        flag_error("--checkpoint-every expects N >= 1");
    }
    if args.batch_size == 0 {
        flag_error("--batch-size expects N >= 1");
    }
    args
}

fn config_of(args: &Args) -> RepoConfig {
    let needs_asr =
        args.delete_strategy == DeleteStrategy::Asr || args.insert_strategy == InsertStrategy::Asr;
    RepoConfig {
        delete_strategy: args.delete_strategy,
        insert_strategy: args.insert_strategy,
        build_asr: needs_asr,
        statement_cost_us: 0,
        batch_size: args.batch_size,
        ..RepoConfig::default()
    }
}

fn arm_faults(repo: &mut XmlRepository, args: &Args) {
    if let Some(n) = args.fail_at {
        repo.db.fail_after_statements(n);
        println!("armed fault: fail client statement #{n}");
    }
    if let Some((table, n)) = &args.fail_table {
        repo.db.fail_on_table_write(table, *n);
        println!("armed fault: fail write #{n} to table {table}");
    }
}

fn main() {
    let args = parse_args();
    if args.op != "delete" && args.op != "insert" {
        usage();
    }
    match &args.db_path {
        Some(path) => run_durable(&args, path),
        None => run_in_memory(&args),
    }
}

/// The original in-memory path: load, arm, run, report.
fn run_in_memory(args: &Args) {
    let params = SyntheticParams::new(args.scale, args.depth, args.fanout);
    let dtd = synthetic_dtd(args.depth);
    let doc = fixed_document(&params);
    let mut repo = XmlRepository::new(&dtd, "root", config_of(args)).expect("mapping");
    repo.db.set_statement_tracking(args.track_statements);
    repo.load(&doc).expect("load");
    let rel = repo.mapping.relation_by_element("n1").expect("n1");
    let before = repo.tuple_count();
    println!(
        "loaded synthetic document: scale={} depth={} fanout={} ({} tuples)",
        args.scale, args.depth, args.fanout, before
    );
    arm_faults(&mut repo, args);

    let stmts_before = repo.db.stats().client_statements;
    let report = match args.op.as_str() {
        "delete" => run_delete_recovering(&mut repo, rel, args.workload),
        _ => run_insert_recovering(&mut repo, rel, args.workload),
    }
    .expect("workload failed with a non-injected error");
    let statements_issued = repo.db.stats().client_statements - stmts_before;
    print_report(&repo, args, before, &report, 0, 0, statements_issued);
    print_statements(&repo, args);
    write_metrics(&repo, args, statements_issued, report.rows_affected);
}

/// One logical workload operation, replayable after a crash.
enum PlannedOp {
    DeleteAll,
    DeleteIds(Vec<i64>),
    CopyUnderParent(i64),
}

fn exec_op(repo: &mut XmlRepository, rel: usize, op: &PlannedOp) -> xmlup_core::Result<usize> {
    match op {
        PlannedOp::DeleteAll => repo.delete_where(rel, None),
        PlannedOp::DeleteIds(ids) => repo.delete_by_ids(rel, ids),
        PlannedOp::CopyUnderParent(id) => {
            let table = repo.mapping.relations[rel].table.clone();
            let parent = repo
                .db
                .query(&format!("SELECT parentId FROM {table} WHERE id = {id}"))?
                .scalar()
                .and_then(Value::as_int)
                .unwrap_or(0);
            repo.copy_subtree(rel, *id, parent)
        }
    }
}

/// Full physical dump of the store: every table plus the id counter.
/// `Table`'s `PartialEq` is physical equality, so equal dumps mean a
/// byte-identical recovered state.
fn dump(repo: &XmlRepository) -> (Vec<(String, Table)>, i64) {
    (
        repo.db
            .table_names()
            .into_iter()
            .map(|n| (n.clone(), repo.db.table(&n).unwrap().clone()))
            .collect(),
        repo.db.peek_next_id(),
    )
}

fn open_repo(args: &Args, path: &str) -> XmlRepository {
    let dtd = synthetic_dtd(args.depth);
    let mapping = Mapping::from_dtd(&dtd, "root").expect("mapping");
    XmlRepository::open_durable(path, mapping, config_of(args)).unwrap_or_else(|e| {
        eprintln!("cannot open durable store {path}: {e}");
        std::process::exit(1);
    })
}

/// Durable path: open (or recover) the store, then drive the operations
/// one by one so checkpoints and the simulated crash can interleave.
fn run_durable(args: &Args, path: &str) {
    let params = SyntheticParams::new(args.scale, args.depth, args.fanout);
    let mut repo = open_repo(args, path);
    repo.db.set_statement_tracking(args.track_statements);
    if repo.tuple_count() == 0 {
        let doc = fixed_document(&params);
        repo.load(&doc).expect("load");
        println!(
            "loaded synthetic document into durable store at {path}: scale={} depth={} fanout={}",
            args.scale, args.depth, args.fanout
        );
    } else {
        println!(
            "recovered durable store at {path}: {} tuples, {} committed txns replayed",
            repo.tuple_count(),
            repo.db.stats().recovered_txns
        );
    }
    let rel = repo.mapping.relation_by_element("n1").expect("n1");
    let before = repo.tuple_count();

    let mut args_armed = args;
    let defaulted;
    if args.crash_and_recover && args.fail_at.is_none() && args.fail_table.is_none() {
        // A crash needs a trigger: default to killing an early statement.
        defaulted = Args {
            fail_at: Some(12),
            ..clone_args(args)
        };
        args_armed = &defaulted;
    }
    arm_faults(&mut repo, args_armed);

    let ops: Vec<PlannedOp> = match (args.op.as_str(), args.workload) {
        ("delete", Workload::Bulk) => vec![PlannedOp::DeleteAll],
        // Each batch of subtree roots is one replayable (and atomic)
        // operation, so checkpoints and the simulated crash interleave at
        // batch granularity.
        ("delete", _) => pick_targets(&repo, rel, args.workload)
            .chunks(args.batch_size.max(1))
            .map(|c| PlannedOp::DeleteIds(c.to_vec()))
            .collect(),
        (_, w) => pick_targets(&repo, rel, w)
            .into_iter()
            .map(PlannedOp::CopyUnderParent)
            .collect(),
    };

    let mut report = RecoveryReport::default();
    let mut checkpoints = 0usize;
    let mut crashes = 0usize;
    // Statement counting survives the simulated crash: the counter base
    // resets when the store reopens (a fresh handle starts at zero).
    let mut statements_issued = 0u64;
    let mut stmt_base = repo.db.stats().client_statements;
    let mut i = 0;
    while i < ops.len() {
        let r = exec_op(&mut repo, rel, &ops[i]);
        let now = repo.db.stats().client_statements;
        statements_issued += now - stmt_base;
        stmt_base = now;
        match r {
            Ok(n) => {
                report.completed += 1;
                report.rows_affected += n;
                i += 1;
                if let Some(every) = args.checkpoint_every {
                    if report.completed % every == 0 {
                        let bytes0 = repo.db.stats().checkpoint_bytes_written;
                        repo.db.execute("CHECKPOINT").expect("checkpoint");
                        checkpoints += 1;
                        println!(
                            "checkpoint #{checkpoints}: {} bytes written",
                            repo.db.stats().checkpoint_bytes_written - bytes0
                        );
                    }
                }
            }
            Err(e) if e.is_injected_fault() => {
                report.faults_absorbed += 1;
                if args.crash_and_recover && crashes == 0 {
                    crashes += 1;
                    // The fault's transaction has rolled back, so the
                    // in-memory state is the committed state. Kill the
                    // process (drop without close) and recover.
                    let expected = dump(&repo);
                    drop(repo);
                    repo = open_repo(args, path);
                    // The statement store dies with the old handle;
                    // re-arm tracking on the recovered one.
                    repo.db.set_statement_tracking(args.track_statements);
                    stmt_base = repo.db.stats().client_statements;
                    let recovered = dump(&repo);
                    if recovered != expected {
                        eprintln!(
                            "workload: CRASH RECOVERY MISMATCH at operation {i}: \
                             recovered state differs from pre-crash committed state"
                        );
                        std::process::exit(1);
                    }
                    println!(
                        "crash simulated at operation {}: reopened from {path}, {} committed \
                         txns replayed, state verified byte-identical",
                        i,
                        repo.db.stats().recovered_txns
                    );
                }
                // Retry the killed operation.
            }
            Err(e) => panic!("workload failed with a non-injected error: {e}"),
        }
    }
    print_report(
        &repo,
        args,
        before,
        &report,
        checkpoints,
        crashes,
        statements_issued,
    );
    print_statements(&repo, args);
    write_metrics(&repo, args, statements_issued, report.rows_affected);
    repo.close_durable().expect("close durable store");
}

/// With `--track-statements`, print the top statement fingerprints by
/// total execution time — the same data `rdb_statements` serves.
fn print_statements(repo: &XmlRepository, args: &Args) {
    if !args.track_statements {
        return;
    }
    let stats = repo.db.statement_statistics();
    println!("top statements by total time ({} tracked):", stats.len());
    for s in stats.iter().take(10) {
        let mut sql: String = s.sql.chars().take(60).collect();
        if sql.len() < s.sql.len() {
            sql.push('…');
        }
        println!(
            "  {:016x}  calls {:>6}  rows {:>8}  mean {:>7}us  p95 {:>7}us  {sql}",
            s.fingerprint,
            s.calls,
            s.rows,
            s.mean_ns / 1_000,
            s.p95_ns / 1_000,
        );
    }
}

/// Manual clone: `Args` holds only plain data but derives nothing.
fn clone_args(a: &Args) -> Args {
    Args {
        op: a.op.clone(),
        workload: a.workload,
        delete_strategy: a.delete_strategy,
        insert_strategy: a.insert_strategy,
        batch_size: a.batch_size,
        scale: a.scale,
        depth: a.depth,
        fanout: a.fanout,
        fail_at: a.fail_at,
        fail_table: a.fail_table.clone(),
        db_path: a.db_path.clone(),
        checkpoint_every: a.checkpoint_every,
        crash_and_recover: a.crash_and_recover,
        metrics_out: a.metrics_out.clone(),
        track_statements: a.track_statements,
    }
}

/// Dump the final metric registry as a JSON array, one object per
/// sample: `{"name":…,"kind":…,"labels":{…},"value":…}`, followed by the
/// workload-level batching samples (`workload_statements_issued`,
/// `workload_rows_per_statement`).
fn write_metrics(repo: &XmlRepository, args: &Args, statements_issued: u64, rows_affected: usize) {
    let Some(path) = &args.metrics_out else {
        return;
    };
    let escape = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let mut out = String::from("[\n");
    let metrics = repo.db.metrics();
    for m in metrics.iter() {
        let labels = m
            .labels
            .iter()
            .map(|(k, v)| format!("\"{}\":\"{}\"", escape(k), escape(v)))
            .collect::<Vec<_>>()
            .join(",");
        out.push_str(&format!(
            "  {{\"name\":\"{}\",\"kind\":\"{:?}\",\"labels\":{{{labels}}},\"value\":{}}},\n",
            m.name, m.kind, m.value,
        ));
    }
    let rows_per_statement = if statements_issued == 0 {
        0.0
    } else {
        rows_affected as f64 / statements_issued as f64
    };
    out.push_str(&format!(
        "  {{\"name\":\"workload_statements_issued\",\"kind\":\"Counter\",\"labels\":{{\"batch_size\":\"{}\"}},\"value\":{statements_issued}}},\n",
        args.batch_size
    ));
    out.push_str(&format!(
        "  {{\"name\":\"workload_rows_per_statement\",\"kind\":\"Gauge\",\"labels\":{{\"batch_size\":\"{}\"}},\"value\":{rows_per_statement}}}\n",
        args.batch_size
    ));
    out.push_str("]\n");
    std::fs::write(path, out).expect("write --metrics-out file");
    println!("wrote {} metric(s) to {path}", metrics.len() + 2);
}

#[allow(clippy::too_many_arguments)]
fn print_report(
    repo: &XmlRepository,
    args: &Args,
    before: usize,
    report: &RecoveryReport,
    checkpoints: usize,
    crashes: usize,
    statements_issued: u64,
) {
    let stats = repo.db.stats();
    println!(
        "{} {} workload: {} operations completed, {} injected fault(s) absorbed, {} rows affected",
        args.workload.label(),
        args.op,
        report.completed,
        report.faults_absorbed,
        report.rows_affected
    );
    let rows_per_statement = if statements_issued == 0 {
        0.0
    } else {
        report.rows_affected as f64 / statements_issued as f64
    };
    println!(
        "batching: batch_size {}, {} SQL statement(s) issued, {:.2} rows/statement",
        args.batch_size, statements_issued, rows_per_statement
    );
    println!(
        "tuples {} -> {}; txn commits {}, rollbacks {}, undo records {}",
        before,
        repo.tuple_count(),
        stats.txn_commits,
        stats.txn_rollbacks,
        stats.undo_records
    );
    if repo.db.is_durable() {
        println!(
            "durable: {} WAL records ({} bytes, {} fsyncs), {} checkpoint(s), {} simulated crash(es)",
            stats.wal_records, stats.wal_bytes, stats.wal_fsyncs, checkpoints, crashes
        );
    }
    if report.faults_absorbed > 0 {
        println!("recovered: every aborted operation rolled back and was retried successfully");
    }
}
