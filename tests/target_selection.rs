//! Target selection seeks: the mapping indexes the leaf columns of the
//! root's child relations, so the first step of `root/n1[num=x]/n2[num=y]`
//! probes `n1.num` instead of scanning every `n1`, and the indexes come
//! back when a durable store is reopened.

use std::path::PathBuf;
use xmlup_core::{RepoConfig, XmlRepository};
use xmlup_rdb::Value;
use xmlup_shred::Mapping;
use xmlup_workload::{fixed_document, synthetic_dtd, SyntheticParams};

/// Unique scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "xmlup-target-selection-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn text(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        other => panic!("expected a string, got {other:?}"),
    }
}

/// `num` of one `n1` and of one of its `n2` children.
fn a_target(repo: &mut XmlRepository) -> (String, String) {
    let rs = repo
        .db
        .query("SELECT n1.num, n2.num FROM n1, n2 WHERE n2.parentId = n1.id ORDER BY n2.id LIMIT 1")
        .unwrap();
    (text(&rs.rows[0][0]), text(&rs.rows[0][1]))
}

/// Delete `root/n1[num=a]/n2[num=b]` and return the rows scanned.
fn delete_scanned(repo: &mut XmlRepository, a: &str, b: &str) -> u64 {
    let before = repo.stats().rows_scanned;
    let n = repo
        .execute_xquery(&format!(
            r#"FOR $a IN document("doc")/root/n1[num="{a}"], $b IN $a/n2[num="{b}"] UPDATE $a {{ DELETE $b }}"#
        ))
        .unwrap();
    assert!(n >= 1, "the delete found no target");
    repo.stats().rows_scanned - before
}

#[test]
fn root_predicate_probes_and_its_index_survives_reopen() {
    let params = SyntheticParams::new(2000, 2, 2);
    let doc = fixed_document(&params);
    let mapping = Mapping::from_dtd(&synthetic_dtd(params.depth), "root").unwrap();
    let scratch = Scratch::new("reopen");
    let config = RepoConfig::default();
    let mut repo = XmlRepository::open_durable(&scratch.0, mapping.clone(), config).unwrap();
    repo.load(&doc).unwrap();
    assert_eq!(repo.db.table("n1").unwrap().len(), 2000);

    let (a, b) = a_target(&mut repo);
    let scanned = delete_scanned(&mut repo, &a, &b);
    assert!(
        scanned <= 50,
        "the delete scanned {scanned} rows; root/n1[num=x] should probe n1.num"
    );
    repo.checkpoint().unwrap();
    let (a2, b2) = a_target(&mut repo);
    repo.close_durable().unwrap();

    let mut repo = XmlRepository::open_durable(&scratch.0, mapping.clone(), config).unwrap();
    let rs = repo
        .db
        .query(&format!("EXPLAIN SELECT id FROM n1 WHERE num = '{a2}'"))
        .unwrap();
    let plan: Vec<String> = rs.rows.iter().map(|r| text(&r[0])).collect();
    assert!(
        plan.iter().any(|l| l.contains("IndexScan n1 (num = ")),
        "after reopen the root predicate should still probe:\n{}",
        plan.join("\n")
    );
    let scanned = delete_scanned(&mut repo, &a2, &b2);
    assert!(
        scanned <= 50,
        "after reopen the delete scanned {scanned} rows"
    );
}
