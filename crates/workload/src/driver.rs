//! Workload drivers (paper Section 7.1): *bulk* applies an operation to
//! every subtree at the target level; *random* applies it to a fixed
//! number of randomly chosen subtrees (the paper uses 10).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use xmlup_core::{Result, XmlRepository};

/// Number of operations in the paper's random workloads.
pub const RANDOM_OPS: usize = 10;

/// Which tuples an operation touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every subtree of the target relation.
    Bulk,
    /// `count` randomly chosen subtrees (seeded).
    Random {
        /// Subtrees touched.
        count: usize,
        /// RNG seed for the choice.
        seed: u64,
    },
}

impl Workload {
    /// The paper's 10-operation random workload.
    pub fn random10() -> Self {
        Workload::Random {
            count: RANDOM_OPS,
            seed: 0xab1e,
        }
    }

    /// Label used in experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            Workload::Bulk => "bulk",
            Workload::Random { .. } => "random",
        }
    }
}

/// Pick the workload's target ids from relation `rel`.
pub fn pick_targets(repo: &XmlRepository, rel: usize, workload: Workload) -> Vec<i64> {
    let ids = repo.ids_of(rel);
    match workload {
        Workload::Bulk => ids,
        Workload::Random { count, seed } => {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut picked: Vec<i64> = ids
                .choose_multiple(&mut rng, count.min(ids.len()))
                .copied()
                .collect();
            picked.sort_unstable();
            picked
        }
    }
}

/// Run a delete workload over relation `rel`. Bulk issues one unfiltered
/// delete (a single SQL statement under the trigger strategies, as the
/// paper notes); random folds the chosen subtree roots into batched
/// `id IN (...)` deletes via [`XmlRepository::delete_by_ids`] — with
/// `batch_size: 1` this degenerates to the paper's one-delete-per-subtree
/// translation. Returns the number of root tuples deleted.
pub fn run_delete(repo: &mut XmlRepository, rel: usize, workload: Workload) -> Result<usize> {
    match workload {
        Workload::Bulk => repo.delete_where(rel, None),
        Workload::Random { .. } => {
            let targets = pick_targets(repo, rel, workload);
            repo.delete_by_ids(rel, &targets)
        }
    }
}

/// Run an insert workload: replicate subtrees of `rel` under their own
/// parents (the paper's self-copy query). Returns tuples created.
pub fn run_insert(repo: &mut XmlRepository, rel: usize, workload: Workload) -> Result<usize> {
    let targets = pick_targets(repo, rel, workload);
    assert!(
        repo.mapping.relations[rel].parent.is_some(),
        "insert workload needs a non-root relation"
    );
    let mut created = 0;
    for id in targets {
        // Map each source to its parent tuple: one parameterized lookup
        // (parsed once for the whole loop) through the repository, which
        // charges its simulated round trip.
        let parent_id = repo
            .column_value(rel, id, "parentId")?
            .as_int()
            .unwrap_or(0);
        created += repo.copy_subtree(rel, id, parent_id)?;
    }
    Ok(created)
}

/// Outcome of a fault-tolerant workload run
/// ([`run_delete_recovering`] / [`run_insert_recovering`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Logical operations that completed (after any retries).
    pub completed: usize,
    /// Injected faults absorbed: each one aborted a single operation,
    /// whose transaction rolled back, and the operation was retried.
    pub faults_absorbed: usize,
    /// Root tuples deleted or tuples created by the completed operations.
    pub rows_affected: usize,
}

/// Run `op`, retrying whenever it fails with an *injected* fault. The
/// repository executes each translated operation as one transaction, so a
/// fault leaves the store exactly as before the attempt — retrying is
/// safe. Injected faults are one-shot (they disarm on firing), so the
/// loop terminates. Real errors propagate. Returns `(rows, faults)`.
fn retry_on_fault(
    repo: &mut XmlRepository,
    mut op: impl FnMut(&mut XmlRepository) -> Result<usize>,
) -> Result<(usize, usize)> {
    let mut faults = 0;
    loop {
        match op(repo) {
            Ok(n) => return Ok((n, faults)),
            Err(e) if e.is_injected_fault() => faults += 1,
            Err(e) => return Err(e),
        }
    }
}

/// [`run_delete`], but surviving injected faults: an operation killed
/// mid-cascade rolls back and is retried, and the rest of the workload
/// still runs.
pub fn run_delete_recovering(
    repo: &mut XmlRepository,
    rel: usize,
    workload: Workload,
) -> Result<RecoveryReport> {
    let mut report = RecoveryReport::default();
    match workload {
        Workload::Bulk => {
            let (n, f) = retry_on_fault(repo, |r| r.delete_where(rel, None))?;
            report.completed = 1;
            report.faults_absorbed = f;
            report.rows_affected = n;
        }
        Workload::Random { .. } => {
            // One retryable operation per batch of subtree roots: a fault
            // mid-batch rolls the whole batch back, so the retry re-issues
            // exactly the rows the failed statement covered.
            let targets = pick_targets(repo, rel, workload);
            let batch = repo.config().batch_size.max(1);
            for chunk in targets.chunks(batch) {
                let (n, f) = retry_on_fault(repo, |r| r.delete_by_ids(rel, chunk))?;
                report.completed += 1;
                report.faults_absorbed += f;
                report.rows_affected += n;
            }
        }
    }
    Ok(report)
}

/// [`run_insert`], but surviving injected faults: a self-copy killed
/// mid-shred rolls back (including any temp tables) and is retried.
pub fn run_insert_recovering(
    repo: &mut XmlRepository,
    rel: usize,
    workload: Workload,
) -> Result<RecoveryReport> {
    let targets = pick_targets(repo, rel, workload);
    let table = repo.mapping.relations[rel].table.clone();
    let lookup = repo
        .db
        .prepare(&format!("SELECT parentId FROM {table} WHERE id = ?"))?;
    let mut report = RecoveryReport::default();
    for id in targets {
        let parent_id = repo
            .db
            .query_prepared(&lookup, &[xmlup_rdb::Value::Int(id)])?
            .scalar()
            .and_then(xmlup_rdb::Value::as_int)
            .unwrap_or(0);
        let (n, f) = retry_on_fault(repo, |r| r.copy_subtree(rel, id, parent_id))?;
        report.completed += 1;
        report.faults_absorbed += f;
        report.rows_affected += n;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{fixed_document, synthetic_dtd, SyntheticParams};
    use xmlup_core::{DeleteStrategy, InsertStrategy, RepoConfig};

    fn repo(ds: DeleteStrategy, is: InsertStrategy) -> (XmlRepository, usize) {
        let p = SyntheticParams::new(20, 3, 2);
        let dtd = synthetic_dtd(3);
        let doc = fixed_document(&p);
        let mut repo = XmlRepository::new(
            &dtd,
            "root",
            RepoConfig {
                delete_strategy: ds,
                insert_strategy: is,
                build_asr: ds == DeleteStrategy::Asr || is == InsertStrategy::Asr,
                statement_cost_us: 0,
                ..RepoConfig::default()
            },
        )
        .unwrap();
        repo.load(&doc).unwrap();
        let n1 = repo.mapping.relation_by_element("n1").unwrap();
        (repo, n1)
    }

    #[test]
    fn bulk_delete_leaves_only_root() {
        let (mut r, n1) = repo(DeleteStrategy::PerTupleTrigger, InsertStrategy::Table);
        let n = run_delete(&mut r, n1, Workload::Bulk).unwrap();
        assert_eq!(n, 20);
        assert_eq!(r.tuple_count(), 1);
    }

    #[test]
    fn random_delete_removes_ten_subtrees() {
        let (mut r, n1) = repo(DeleteStrategy::PerTupleTrigger, InsertStrategy::Table);
        let before = r.tuple_count();
        let n = run_delete(&mut r, n1, Workload::random10()).unwrap();
        assert_eq!(n, 10);
        // Each subtree: 1 + 2 + 4 = 7 tuples.
        assert_eq!(before - r.tuple_count(), 70);
    }

    #[test]
    fn bulk_insert_doubles_the_document() {
        let (mut r, n1) = repo(DeleteStrategy::PerTupleTrigger, InsertStrategy::Table);
        let before = r.tuple_count();
        let created = run_insert(&mut r, n1, Workload::Bulk).unwrap();
        assert_eq!(created, before - 1);
        assert_eq!(r.tuple_count(), 2 * before - 1);
    }

    #[test]
    fn random_insert_adds_ten_subtrees() {
        let (mut r, n1) = repo(DeleteStrategy::PerTupleTrigger, InsertStrategy::Tuple);
        let before = r.tuple_count();
        let created = run_insert(&mut r, n1, Workload::random10()).unwrap();
        assert_eq!(created, 70);
        assert_eq!(r.tuple_count(), before + 70);
    }

    #[test]
    fn targets_are_deterministic() {
        let (r, n1) = repo(DeleteStrategy::PerTupleTrigger, InsertStrategy::Table);
        let a = pick_targets(&r, n1, Workload::random10());
        let b = pick_targets(&r, n1, Workload::random10());
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
    }

    #[test]
    fn strategies_agree_on_random_delete() {
        let mut counts = Vec::new();
        for ds in DeleteStrategy::ALL {
            let (mut r, n1) = repo(ds, InsertStrategy::Table);
            run_delete(&mut r, n1, Workload::random10()).unwrap();
            counts.push(r.tuple_count());
        }
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }

    #[test]
    fn random_delete_recovers_from_injected_fault() {
        let (mut r, n1) = repo(DeleteStrategy::Cascading, InsertStrategy::Table);
        let before = r.tuple_count();
        // Kill the 2nd client statement: mid-cascade inside the one
        // batched delete all 10 roots fold into (batch_size 256 default),
        // so the fault aborts — and the retry re-issues — that batch.
        r.db.fail_after_statements(2);
        let report = run_delete_recovering(&mut r, n1, Workload::random10()).unwrap();
        assert_eq!(report.completed, 1);
        assert_eq!(report.faults_absorbed, 1);
        assert_eq!(report.rows_affected, 10);
        // Same net effect as a fault-free run: 10 subtrees of 7 tuples.
        assert_eq!(before - r.tuple_count(), 70);
        assert!(!r.db.faults_armed());
    }

    #[test]
    fn random_insert_recovers_from_table_write_fault() {
        let (mut r, n1) = repo(DeleteStrategy::PerTupleTrigger, InsertStrategy::Tuple);
        let before = r.tuple_count();
        // Kill the 12th write to the n2 table: some self-copy dies
        // mid-subtree and must roll back cleanly before the retry.
        let n2_table = r.mapping.relations[r.mapping.relation_by_element("n2").unwrap()]
            .table
            .clone();
        r.db.fail_on_table_write(&n2_table, 12);
        let report = run_insert_recovering(&mut r, n1, Workload::random10()).unwrap();
        assert_eq!(report.completed, 10);
        assert_eq!(report.faults_absorbed, 1);
        assert_eq!(report.rows_affected, 70);
        assert_eq!(r.tuple_count(), before + 70);
    }

    #[test]
    fn real_errors_still_propagate() {
        let (mut r, n1) = repo(DeleteStrategy::PerTupleTrigger, InsertStrategy::Table);
        // A genuine SQL error (unknown column) is not an injected fault
        // and must not be swallowed by the retry loop.
        let err = retry_on_fault(&mut r, |repo| {
            repo.delete_where(n1, Some("no_such_column = 1"))
        });
        assert!(err.is_err());
    }

    #[test]
    fn insert_strategies_agree_on_random_insert() {
        let mut counts = Vec::new();
        for is in InsertStrategy::ALL {
            let (mut r, n1) = repo(DeleteStrategy::PerTupleTrigger, is);
            run_insert(&mut r, n1, Workload::random10()).unwrap();
            counts.push(r.tuple_count());
        }
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }
}
