//! Driving one workload: set-up, warm-up, the timed closed loop, the
//! traced replay, and the checks on what the repository returned and
//! kept.

use crate::stats::{fnv1a, median, quantile, sorted, tail};
use crate::trace::{self, Tracer};
use crate::workloads::{Op, Spec, Stream, DOC, WARMUP_OPS};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use xmlup_core::{translate, CoreError, RepoConfig, XmlRepository};
use xmlup_shred::{loader, outer_union, Mapping};
use xmlup_xml::serializer::{subtree_to_string, to_compact_string, WriteOptions};
use xmlup_xml::{Document, NodeId};
use xmlup_xquery::{parse_statement, Store};

#[derive(Debug, Clone)]
pub struct Settings {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Where the durable stores live while a run lasts.
    pub scratch: PathBuf,
    /// Where trace and result files go.
    pub out: PathBuf,
    /// Fresh set-up cycles whose median is `setup_s`.
    pub setup_cycles: usize,
    /// Divides each workload's count prefix and the warm-up: 1, or 100
    /// under `--smoke`.
    pub prefix_div: usize,
    /// Ops of the stream also applied by the in-memory evaluator, whose
    /// document the repository's must then equal; 0 skips the check.
    pub verify_ops: usize,
}

/// A metric's name (one of `report`'s tables, which hold the unit) and
/// its value.
pub type Metric = (&'static str, f64);

#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Facts about the run that are not metrics (op counts, percentiles
    /// chosen), for the result file.
    pub notes: Vec<(&'static str, f64)>,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {what}");
        }
    }

    fn absorb(&mut self, pass: &Pass) {
        self.attempted += pass.ops as u64;
        self.failed += pass.failed as u64;
    }
}

// ----------------------------------------------------------------------
// counters
// ----------------------------------------------------------------------

/// The engine counters the count-based metrics are made of.
#[derive(Debug, Clone, Copy)]
#[repr(usize)]
enum C {
    ClientStatements,
    RowsScanned,
    IndexLookups,
    TriggerFirings,
    UndoRecords,
    WalBytes,
    WalFsyncs,
    PlanCacheHits,
    PlanCacheMisses,
    PoolHits,
    PoolMisses,
    PoolEvictions,
    Checkpoints,
    CheckpointBytes,
}
const COUNTERS: usize = C::CheckpointBytes as usize + 1;
type Counters = [u64; COUNTERS];

fn read_counters(repo: &XmlRepository) -> Counters {
    let s = repo.stats();
    let pool = repo.db.storage_metrics().pool;
    let mut c = [0; COUNTERS];
    c[C::ClientStatements as usize] = s.client_statements;
    c[C::RowsScanned as usize] = s.rows_scanned;
    c[C::IndexLookups as usize] = s.index_lookups;
    c[C::TriggerFirings as usize] = s.trigger_firings;
    c[C::UndoRecords as usize] = s.undo_records;
    c[C::WalBytes as usize] = s.wal_bytes;
    c[C::WalFsyncs as usize] = s.wal_fsyncs;
    c[C::PlanCacheHits as usize] = s.plan_cache_hits;
    c[C::PlanCacheMisses as usize] = s.plan_cache_misses;
    c[C::PoolHits as usize] = pool.hits;
    c[C::PoolMisses as usize] = pool.misses;
    c[C::PoolEvictions as usize] = pool.evictions;
    c[C::Checkpoints as usize] = s.checkpoints;
    c[C::CheckpointBytes as usize] = s.checkpoint_bytes_written;
    c
}

/// What the counters were spent on.
#[derive(Debug, Clone, Copy)]
#[repr(usize)]
enum Class {
    Update,
    Query,
    Checkpoint,
}

/// Counter deltas per class, with the op counts they divide by.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Tally {
    counters: [Counters; 3],
    ops: usize,
    update_stmts: usize,
    queries: usize,
    /// Tuples the queries returned (rows of their outer unions).
    query_tuples: usize,
}

impl Tally {
    fn add(&mut self, class: Class, before: &Counters, after: &Counters) {
        for (acc, (b, a)) in self.counters[class as usize]
            .iter_mut()
            .zip(before.iter().zip(after))
        {
            *acc += a - b;
        }
    }

    fn of(&self, class: Class, c: C) -> f64 {
        self.counters[class as usize][c as usize] as f64
    }

    fn all(&self, c: C) -> f64 {
        self.counters.iter().map(|k| k[c as usize] as f64).sum()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

// ----------------------------------------------------------------------
// the repository under test
// ----------------------------------------------------------------------

fn config(spec: &Spec) -> RepoConfig {
    RepoConfig {
        backend: spec.backend,
        pool_frames: spec.pool_frames,
        ..RepoConfig::default()
    }
}

fn mapping(spec: &Spec) -> Mapping {
    Mapping::from_dtd(&spec.dtd(), spec.root_element()).expect("the workload DTDs map")
}

/// Open the store at `dir` with the benchmark's flush policy: one fsync
/// per commit.
fn open(spec: &Spec, dir: &Path) -> Result<XmlRepository, CoreError> {
    let mut repo = XmlRepository::open_durable(dir, mapping(spec), config(spec))?;
    repo.db.set_wal_sync(true);
    repo.db.set_wal_group_commit(1);
    Ok(repo)
}

struct Loaded {
    repo: XmlRepository,
    doc: Document,
    tuples: usize,
    seconds: f64,
    load_seconds: f64,
}

/// One set-up cycle: generate the document, open a fresh durable store,
/// load, first checkpoint.
fn setup(spec: &Spec, seed: u64, dir: &Path) -> Loaded {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).expect("scratch directory");
    let start = Instant::now();
    let doc = spec.document(seed);
    let mut repo = open(spec, dir).expect("open a fresh store");
    let load_start = Instant::now();
    let tuples = repo.load(&doc).expect("load the generated document");
    let load_seconds = load_start.elapsed().as_secs_f64();
    repo.checkpoint().expect("first checkpoint");
    Loaded {
        repo,
        doc,
        tuples,
        seconds: start.elapsed().as_secs_f64(),
        load_seconds,
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Bytes of the whole document serialised, fetched with one sorted outer
/// union so the plan cache is left as the ops filled it.
fn xml_bytes(repo: &mut XmlRepository) -> Result<usize, CoreError> {
    let (doc, roots) = repo.fetch(repo.mapping.root(), None)?;
    Ok(roots
        .iter()
        .map(|&r| subtree_to_string(&doc, r, &WriteOptions { pretty: false }).len())
        .sum())
}

fn document_hash(repo: &mut XmlRepository) -> Result<u64, CoreError> {
    let doc = loader::unshred(&mut repo.db, &repo.mapping)?;
    Ok(fnv1a(to_compact_string(&doc).as_bytes()))
}

fn count_elements(doc: &Document, roots: &[NodeId]) -> usize {
    roots
        .iter()
        .map(|&r| {
            doc.descendants(r)
                .filter(|&n| doc.name(n).is_some())
                .count()
        })
        .sum()
}

// ----------------------------------------------------------------------
// one op, untraced and traced
// ----------------------------------------------------------------------

type QueryResult = Result<(Document, Vec<NodeId>), CoreError>;

/// `execute_xquery` taken apart at its public seams, a span around each.
fn traced_update(repo: &mut XmlRepository, tr: &mut Tracer, xq: &str) -> Result<usize, CoreError> {
    let s = tr.enter("xquery.parse");
    let stmt = parse_statement(xq);
    tr.exit(s);
    let s = tr.enter("translate");
    let ops = stmt
        .map_err(CoreError::from)
        .and_then(|stmt| translate::translate_update(&stmt, &repo.mapping));
    tr.exit(s);
    let ops = ops?;
    let [op] = &ops[..] else {
        return Err(CoreError::Unsupported(
            "the traced pipeline runs single-operation statements".into(),
        ));
    };
    let s = tr.enter("db.begin");
    let begun = repo.db.begin();
    tr.exit(s);
    begun?;
    let s = tr.enter("repository.exec");
    let affected = repo.execute_translated(op);
    tr.exit(s);
    match affected {
        Ok(n) => {
            let s = tr.enter("db.commit");
            let committed = repo.db.commit();
            tr.exit(s);
            committed?;
            Ok(n)
        }
        Err(e) => {
            let _ = repo.db.rollback();
            Err(e)
        }
    }
}

/// `query_xml` taken apart the same way.
fn traced_query(repo: &mut XmlRepository, tr: &mut Tracer, xq: &str) -> QueryResult {
    let s = tr.enter("xquery.parse");
    let stmt = parse_statement(xq);
    tr.exit(s);
    let stmt = stmt?;
    let s = tr.enter("translate");
    let spec = translate::translate_query(&stmt, &repo.mapping).and_then(|q| {
        let filter = translate::query_filter_sql(&q, &repo.mapping, repo.asr.as_ref())?;
        Ok((q.rel, filter))
    });
    tr.exit(s);
    let (rel, filter) = spec?;
    let s = tr.enter("outer_union.plan");
    let plan = outer_union::plan(&repo.mapping, rel, filter.as_deref());
    tr.exit(s);
    let s = tr.enter("outer_union.execute");
    let rows = outer_union::execute(&mut repo.db, &plan);
    tr.exit(s);
    let rows = rows?;
    let s = tr.enter("outer_union.reassemble");
    let mut doc = Document::new("__results__");
    let roots = outer_union::reassemble(&mut doc, &repo.mapping, &plan, &rows);
    tr.exit(s);
    Ok((doc, roots?))
}

fn update_ok(results: &[Result<usize, CoreError>], stmts: &[(String, usize)]) -> bool {
    results.len() == stmts.len()
        && results
            .iter()
            .zip(stmts)
            .all(|(r, (_, expect))| matches!(r, Ok(n) if n == expect))
}

fn query_ok(result: &QueryResult, roots: usize, elements: usize) -> bool {
    matches!(result, Ok((doc, r)) if r.len() == roots && count_elements(doc, r) == elements)
}

// ----------------------------------------------------------------------
// a pass over the op stream
// ----------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Stop {
    Ops(usize),
    /// Until this many seconds have gone by, and the count prefix with
    /// them.
    Seconds(f64),
}

#[derive(Debug, Default)]
struct Pass {
    ops: usize,
    failed: usize,
    update_ms: Vec<f64>,
    query_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    /// Wall time of the loop: ops, checkpoints and the harness between
    /// them; the pause for the disk measurement is left out.
    wall_s: f64,
    /// Counters over the count prefix.
    prefix: Option<Tally>,
    /// Store bytes and document bytes, measured at the count prefix.
    disk: Option<(u64, usize)>,
}

struct PassOptions<'a> {
    stop: Stop,
    /// Ops after which the counters are recorded.
    prefix: Option<usize>,
    /// Measure bytes on disk per XML byte at the prefix, off the clock.
    measure_disk: Option<&'a Path>,
}

fn run_pass(
    spec: &Spec,
    repo: &mut XmlRepository,
    stream: &mut dyn Stream,
    opts: PassOptions<'_>,
    mut tracer: Option<&mut Tracer>,
) -> Pass {
    let mut pass = Pass::default();
    let mut tally = Tally::default();
    let mut reported = 0;
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    loop {
        let elapsed = (start.elapsed() - paused).as_secs_f64();
        let done = match opts.stop {
            Stop::Ops(n) => pass.ops >= n,
            Stop::Seconds(s) => elapsed >= s && pass.ops >= opts.prefix.unwrap_or(0),
        };
        if done {
            pass.wall_s = elapsed;
            break;
        }
        let op = stream.next_op();
        let before = read_counters(repo);
        let root = tracer.as_deref_mut().map(|tr| {
            tr.enter(match op {
                Op::Update(_) => "update",
                Op::Query { .. } => "query",
            })
        });
        let t = Instant::now();
        let (class, ok) = match &op {
            Op::Update(stmts) => {
                let results: Vec<_> = stmts
                    .iter()
                    .map(|(xq, _)| match tracer.as_deref_mut() {
                        Some(tr) => traced_update(repo, tr, xq),
                        None => repo.execute_xquery(xq),
                    })
                    .collect();
                pass.update_ms.push(t.elapsed().as_secs_f64() * 1e3);
                (Class::Update, update_ok(&results, stmts))
            }
            Op::Query {
                xq,
                roots,
                elements,
                ..
            } => {
                let result = match tracer.as_deref_mut() {
                    Some(tr) => traced_query(repo, tr, xq),
                    None => repo.query_xml(xq),
                };
                pass.query_ms.push(t.elapsed().as_secs_f64() * 1e3);
                (Class::Query, query_ok(&result, *roots, *elements))
            }
        };
        if let (Some(tr), Some(root)) = (tracer.as_deref_mut(), root) {
            tr.exit(root);
            tr.end_op();
        }
        tally.add(class, &before, &read_counters(repo));
        tally.ops += 1;
        pass.ops += 1;
        if !ok {
            pass.failed += 1;
            if reported < 5 {
                reported += 1;
                eprintln!("FAILED: op {} of {}: {op:?}", pass.ops, spec.name);
            }
        }
        match &op {
            Op::Update(stmts) => {
                let every = spec.checkpoint_every;
                let due = (tally.update_stmts + stmts.len()) / every > tally.update_stmts / every;
                tally.update_stmts += stmts.len();
                if due {
                    let before = read_counters(repo);
                    let span = tracer.as_deref_mut().map(|tr| tr.enter("checkpoint"));
                    let t = Instant::now();
                    let done = repo.checkpoint();
                    pass.checkpoint_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    if let (Some(tr), Some(span)) = (tracer.as_deref_mut(), span) {
                        tr.exit(span);
                        tr.end_op();
                    }
                    tally.add(Class::Checkpoint, &before, &read_counters(repo));
                    if let Err(e) = done {
                        pass.failed += 1;
                        eprintln!("FAILED: checkpoint of {}: {e}", spec.name);
                    }
                }
            }
            Op::Query { tuples, .. } => {
                tally.queries += 1;
                tally.query_tuples += tuples;
            }
        }
        if Some(pass.ops) == opts.prefix {
            pass.prefix = Some(tally.clone());
            if let Some(dir) = opts.measure_disk {
                let pause = Instant::now();
                let measured = repo
                    .checkpoint()
                    .and_then(|()| Ok((dir_bytes(dir), xml_bytes(repo)?)));
                match measured {
                    Ok(d) => pass.disk = Some(d),
                    Err(e) => {
                        pass.failed += 1;
                        eprintln!("FAILED: disk measurement of {}: {e}", spec.name);
                    }
                }
                paused += pause.elapsed();
            }
        }
    }
    pass
}

// ----------------------------------------------------------------------
// checks after the loop
// ----------------------------------------------------------------------

/// Kill the repository and reopen it: hash the document, drop the store
/// without `close_durable`, cut the WAL back to its last fsynced byte (a
/// killed process keeps the operating system's cache; a crashed machine
/// does not), reopen, and require the same hash. Returns the reopen time
/// in ms and the WAL bytes replayed. A tracer gets one span around the
/// drop and the reopen; the hashing statements are the harness's own and
/// stay out of the trace.
fn kill_and_reopen(
    spec: &Spec,
    mut repo: XmlRepository,
    stream: &dyn Stream,
    loaded_tuples: usize,
    dir: &Path,
    mut tracer: Option<&mut Tracer>,
    out: &mut Outcome,
) -> (f64, f64) {
    if let Some(tr) = tracer.as_deref_mut() {
        tr.pause();
    }
    let tuples = repo.tuple_count();
    out.check(
        tuples == stream.tuples(),
        &format!(
            "{}: repository holds {tuples} tuples, the model {}",
            spec.name,
            stream.tuples()
        ),
    );
    let drift = tuples.abs_diff(loaded_tuples) as f64 / loaded_tuples as f64;
    out.check(
        drift <= spec.tuple_tolerance,
        &format!(
            "{}: tuple count drifted {:.1} % from the loaded {loaded_tuples}",
            spec.name,
            drift * 100.0
        ),
    );
    let before = document_hash(&mut repo);
    let synced = repo.db.wal_synced_len();
    let span = tracer.as_deref_mut().map(|tr| {
        tr.resume();
        tr.enter("reopen")
    });
    drop(repo);
    if let Ok(wal) = fs::OpenOptions::new().write(true).open(dir.join("wal.bin")) {
        if wal.metadata().is_ok_and(|m| m.len() > synced) {
            wal.set_len(synced).expect("cut the WAL");
        }
    }
    let t = Instant::now();
    let reopened = open(spec, dir);
    let reopen_ms = t.elapsed().as_secs_f64() * 1e3;
    if let (Some(tr), Some(span)) = (tracer, span) {
        tr.exit(span);
        tr.end_op();
        tr.pause();
    }
    let (after, replayed) = match reopened {
        Ok(mut repo) => (
            document_hash(&mut repo),
            repo.stats().wal_replayed_bytes as f64,
        ),
        Err(e) => (Err(e), 0.0),
    };
    out.check(
        matches!((&before, &after), (Ok(a), Ok(b)) if a == b),
        &format!(
            "{}: document hash {before:?} before the kill, {after:?} after reopening",
            spec.name
        ),
    );
    (reopen_ms, replayed)
}

/// Canonical text of a subtree: children sorted, so that two documents
/// that differ only in sibling order read the same.
fn canonical(doc: &Document, node: NodeId) -> String {
    match doc.name(node) {
        None => doc.text(node).unwrap_or_default().to_string(),
        Some(name) => {
            let mut kids: Vec<String> = doc
                .children(node)
                .iter()
                .map(|&c| canonical(doc, c))
                .collect();
            kids.sort();
            format!("<{name}>{}</{name}>", kids.concat())
        }
    }
}

/// The differential prefix: the first ops of the stream applied both to
/// a fresh repository and, by the `xmlup_xquery` evaluator, to the
/// document in memory must leave the same document.
fn verify_prefix(spec: &Spec, settings: &Settings, dir: &Path, out: &mut Outcome) {
    let Loaded { mut repo, doc, .. } = setup(spec, settings.seed, dir);
    let mut stream = spec.stream(&doc, settings.seed);
    let mut store = Store::new();
    store.add_document(DOC, doc);
    for _ in 0..settings.verify_ops {
        if let Op::Update(stmts) = stream.next_op() {
            for (xq, expect) in &stmts {
                let got = repo.execute_xquery(xq);
                let mem = store.execute_str(xq);
                out.check(
                    matches!(&got, Ok(n) if n == expect) && mem.is_ok(),
                    &format!(
                        "{}: verify op returned {got:?}, expected {expect}; in memory {:?}",
                        spec.name,
                        mem.err()
                    ),
                );
            }
        }
    }
    let mem = store.document(DOC).expect("document added above");
    let same = loader::unshred(&mut repo.db, &repo.mapping)
        .map(|rel| canonical(&rel, rel.root()) == canonical(mem, mem.root()));
    out.check(
        matches!(same, Ok(true)),
        &format!(
            "{}: after {} ops the repository and the in-memory evaluator disagree ({same:?})",
            spec.name, settings.verify_ops
        ),
    );
}

// ----------------------------------------------------------------------
// the two modes
// ----------------------------------------------------------------------

fn scratch_dir(spec: &Spec, settings: &Settings) -> PathBuf {
    settings
        .scratch
        .join(format!("{}-{}", spec.name, std::process::id()))
}

/// Ops of the workload's count prefix under these settings.
pub fn prefix_ops(spec: &Spec, settings: &Settings) -> usize {
    (spec.count_prefix / settings.prefix_div).max(1)
}

pub fn warmup_ops(settings: &Settings) -> usize {
    WARMUP_OPS / settings.prefix_div
}

fn warm_up(
    spec: &Spec,
    settings: &Settings,
    repo: &mut XmlRepository,
    stream: &mut dyn Stream,
    out: &mut Outcome,
) {
    let opts = PassOptions {
        stop: Stop::Ops(warmup_ops(settings)),
        prefix: None,
        measure_disk: None,
    };
    out.absorb(&run_pass(spec, repo, stream, opts, None));
}

/// The end-to-end metrics: tracing off, `execute_xquery` and `query_xml`
/// called as a user calls them.
pub fn run_end_to_end(spec: &Spec, settings: &Settings) -> Outcome {
    let mut out = Outcome::default();
    let dir = scratch_dir(spec, settings);
    if settings.verify_ops > 0 {
        verify_prefix(spec, settings, &dir, &mut out);
    }
    let mut setups = Vec::new();
    let mut loaded = setup(spec, settings.seed, &dir);
    setups.push(loaded.seconds);
    for _ in 1..settings.setup_cycles {
        drop(loaded);
        loaded = setup(spec, settings.seed, &dir);
        setups.push(loaded.seconds);
    }
    let Loaded {
        mut repo,
        doc,
        tuples,
        ..
    } = loaded;
    let mut stream = spec.stream(&doc, settings.seed);
    drop(doc);
    out.check(
        tuples == stream.tuples() && tuples == repo.tuple_count(),
        &format!(
            "{}: loaded {tuples} tuples, the model {}",
            spec.name,
            stream.tuples()
        ),
    );
    warm_up(spec, settings, &mut repo, stream.as_mut(), &mut out);
    let prefix = prefix_ops(spec, settings);
    let opts = PassOptions {
        stop: Stop::Seconds(settings.seconds),
        prefix: Some(prefix),
        measure_disk: Some(&dir),
    };
    let pass = run_pass(spec, &mut repo, stream.as_mut(), opts, None);
    out.absorb(&pass);
    kill_and_reopen(spec, repo, stream.as_ref(), tuples, &dir, None, &mut out);
    let _ = fs::remove_dir_all(&dir);

    let tally = pass.prefix.clone().unwrap_or_default();
    let (disk, xml) = pass.disk.unwrap_or((0, 0));
    let latencies = sorted(&[&pass.update_ms[..], &pass.query_ms[..]].concat());
    out.metrics = vec![
        ("ops_per_s", ratio(pass.ops as f64, pass.wall_s)),
        ("op_p50_ms", quantile(&latencies, 0.5)),
        ("setup_s", median(&setups)),
        (
            "wal_bytes_per_update",
            ratio(tally.all(C::WalBytes), tally.update_stmts as f64),
        ),
        ("disk_bytes_per_xml_byte", ratio(disk as f64, xml as f64)),
    ];
    out.notes = vec![
        ("timed_ops", pass.ops as f64),
        ("timed_seconds", pass.wall_s),
        ("op_p50_samples", latencies.len() as f64),
        ("count_prefix_ops", prefix as f64),
        ("count_prefix_update_statements", tally.update_stmts as f64),
        ("loaded_tuples", tuples as f64),
        ("store_bytes_at_prefix", disk as f64),
        ("xml_bytes_at_prefix", xml as f64),
        ("setup_cycles", setups.len() as f64),
        (
            "setup_fastest_s",
            setups.iter().copied().fold(f64::INFINITY, f64::min),
        ),
        (
            "setup_slowest_s",
            setups.iter().copied().fold(0.0, f64::max),
        ),
    ];
    out
}

/// The per-layer metrics: an untraced pass for half the time, then the
/// same ops again on a fresh store with a span around every public call
/// the two repository entry points are made of.
pub fn run_traced(spec: &Spec, settings: &Settings) -> Outcome {
    let mut out = Outcome::default();
    let dir = scratch_dir(spec, settings);
    let prefix = prefix_ops(spec, settings);

    let Loaded {
        mut repo,
        doc,
        tuples,
        load_seconds,
        ..
    } = setup(spec, settings.seed, &dir);
    let mut stream = spec.stream(&doc, settings.seed);
    warm_up(spec, settings, &mut repo, stream.as_mut(), &mut out);
    let opts = PassOptions {
        stop: Stop::Seconds(settings.seconds / 2.0),
        prefix: Some(prefix),
        measure_disk: None,
    };
    let plain = run_pass(spec, &mut repo, stream.as_mut(), opts, None);
    out.absorb(&plain);
    drop(repo);

    // The same state again, so that the traced pass replays the same ops
    // on the same data.
    let mut tracer = Tracer::start();
    let span = tracer.enter("loader.shred");
    let Loaded { mut repo, .. } = setup(spec, settings.seed, &dir);
    tracer.exit(span);
    tracer.end_op();
    let mut stream = spec.stream(&doc, settings.seed);
    drop(doc);
    tracer.pause();
    warm_up(spec, settings, &mut repo, stream.as_mut(), &mut out);
    tracer.resume();
    let first_op = tracer.next_op();
    let opts = PassOptions {
        stop: Stop::Ops(plain.ops),
        prefix: Some(prefix),
        measure_disk: None,
    };
    let traced = run_pass(spec, &mut repo, stream.as_mut(), opts, Some(&mut tracer));
    out.absorb(&traced);
    out.check(
        plain.prefix.is_some() && plain.prefix == traced.prefix,
        &format!(
            "{}: the traced pipeline did other work than the untraced run over the same {prefix} ops\n  untraced {:?}\n  traced   {:?}",
            spec.name, plain.prefix, traced.prefix
        ),
    );
    let traced_ops = first_op..tracer.next_op();
    let (reopen_ms, replayed) = kill_and_reopen(
        spec,
        repo,
        stream.as_ref(),
        tuples,
        &dir,
        Some(&mut tracer),
        &mut out,
    );
    let _ = fs::remove_dir_all(&dir);

    let spans = tracer.finish();
    let _ = fs::create_dir_all(&settings.out);
    let trace_file = settings.out.join(format!("trace-{}.json", spec.name));
    if let Err(e) = fs::write(&trace_file, trace::to_json(&spans)) {
        eprintln!("cannot write {}: {e}", trace_file.display());
    }

    // Layer times: self time per span name over the traced ops and their
    // checkpoints (set-up and reopen are left out), as a mean per op.
    let totals = trace::totals_by_name(&spans, traced_ops);
    let per_op_us = |names: &[&str], inclusive: bool| {
        let ns: u64 = names
            .iter()
            .filter_map(|n| totals.get(n))
            .map(|t| if inclusive { t.inclusive_ns } else { t.self_ns })
            .sum();
        ratio(ns as f64 / 1e3, traced.ops as f64)
    };
    let attributed_ns: u64 = totals
        .iter()
        .filter(|(name, _)| !matches!(**name, "update" | "query"))
        .map(|(_, t)| t.self_ns)
        .sum();

    let tally = plain.prefix.clone().unwrap_or_default();
    let updates = tally.update_stmts as f64;
    let ops = tally.ops as f64;
    let update_ms = sorted(&plain.update_ms);
    let query_ms = sorted(&plain.query_ms);
    let checkpoint_ms = sorted(&plain.checkpoint_ms);
    let (update_tail, update_tail_pct) = tail(&update_ms);
    let (query_tail, query_tail_pct) = tail(&query_ms);
    let pool_requests = tally.all(C::PoolHits) + tally.all(C::PoolMisses);
    let plan_lookups = tally.all(C::PlanCacheHits) + tally.all(C::PlanCacheMisses);
    out.metrics = vec![
        ("xquery.parse_us", per_op_us(&["xquery.parse"], false)),
        ("translate.us", per_op_us(&["translate"], false)),
        ("repository.exec_us", per_op_us(&["repository.exec"], false)),
        (
            "repository.sql_per_update",
            ratio(tally.of(Class::Update, C::ClientStatements), updates),
        ),
        ("repository.update_p50_ms", quantile(&update_ms, 0.5)),
        ("repository.update_tail_ms", update_tail),
        ("repository.query_p50_ms", quantile(&query_ms, 0.5)),
        ("repository.query_tail_ms", query_tail),
        (
            "outer_union.plan_us",
            per_op_us(&["outer_union.plan"], false),
        ),
        (
            "outer_union.execute_us",
            per_op_us(&["outer_union.execute"], true),
        ),
        (
            "outer_union.reassemble_us",
            per_op_us(&["outer_union.reassemble"], false),
        ),
        (
            "outer_union.rows_per_query",
            ratio(tally.query_tuples as f64, tally.queries as f64),
        ),
        ("loader.tuples_per_s", ratio(tuples as f64, load_seconds)),
        ("sql.parse_us", per_op_us(&["sql.parse"], false)),
        ("sql.plan_us", per_op_us(&["sql.plan"], false)),
        (
            "sql.plan_cache_hit_ratio",
            ratio(tally.all(C::PlanCacheHits), plan_lookups),
        ),
        ("exec.us", per_op_us(&["sql.execute"], false)),
        (
            "exec.rows_scanned_per_op",
            ratio(tally.all(C::RowsScanned), ops),
        ),
        (
            "exec.index_lookups_per_op",
            ratio(tally.all(C::IndexLookups), ops),
        ),
        ("trigger.fire_us", per_op_us(&["trigger.fire"], false)),
        (
            "trigger.firings_per_update",
            ratio(tally.of(Class::Update, C::TriggerFirings), updates),
        ),
        (
            "txn.commit_us",
            per_op_us(&["txn.commit", "db.begin", "db.commit"], false),
        ),
        (
            "txn.undo_records_per_update",
            ratio(tally.of(Class::Update, C::UndoRecords), updates),
        ),
        ("wal.append_us", per_op_us(&["wal.append"], false)),
        ("wal.fsync_us", per_op_us(&["wal.fsync"], false)),
        (
            "wal.fsyncs_per_update",
            ratio(tally.of(Class::Update, C::WalFsyncs), updates),
        ),
        (
            "storage.pool_hit_ratio",
            // No page requests (the memory backend): nothing missed.
            if pool_requests == 0.0 {
                1.0
            } else {
                tally.all(C::PoolHits) / pool_requests
            },
        ),
        (
            "storage.pool_evictions_per_op",
            ratio(tally.all(C::PoolEvictions), ops),
        ),
        ("storage.checkpoint_p50_ms", quantile(&checkpoint_ms, 0.5)),
        ("storage.checkpoint_max_ms", quantile(&checkpoint_ms, 1.0)),
        (
            "storage.checkpoint_bytes",
            ratio(
                tally.of(Class::Checkpoint, C::CheckpointBytes),
                tally.of(Class::Checkpoint, C::Checkpoints),
            ),
        ),
        ("recovery.reopen_ms", reopen_ms),
        ("recovery.wal_replayed_bytes", replayed),
        (
            "trace.overhead_pct",
            100.0 * ratio(traced.wall_s - plain.wall_s, plain.wall_s),
        ),
        (
            "trace.unattributed_pct",
            100.0 * (1.0 - ratio(attributed_ns as f64 / 1e9, traced.wall_s)),
        ),
    ];
    out.notes = vec![
        ("replayed_ops", plain.ops as f64),
        ("untraced_seconds", plain.wall_s),
        ("traced_seconds", traced.wall_s),
        ("count_prefix_ops", prefix as f64),
        ("update_samples", update_ms.len() as f64),
        ("update_tail_percentile", update_tail_pct),
        ("query_samples", query_ms.len() as f64),
        ("query_tail_percentile", query_tail_pct),
        ("checkpoint_samples", checkpoint_ms.len() as f64),
        ("trace_spans", spans.len() as f64),
    ];
    out
}
