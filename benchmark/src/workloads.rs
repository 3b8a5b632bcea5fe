//! The four workloads: their documents, their fixed settings, and the op
//! generators. A generator keeps a model of the document's live targets,
//! so every op it emits carries the result the repository must return,
//! and the program under test receives nothing but XQuery text.

use crate::stats::Rng;
use std::collections::HashMap;
use xmlup_rdb::BackendKind;
use xmlup_workload::dblp::{dblp_document, dblp_dtd, DblpParams};
use xmlup_workload::{fixed_document, synthetic_dtd, SyntheticParams};
use xmlup_xml::dtd::Dtd;
use xmlup_xml::{Document, NodeId};

/// The document name the generated statements use.
pub const DOC: &str = "bench.xml";

/// One unit of the closed loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// XQuery update statements timed together as one op, each with the
    /// affected count `execute_xquery` must return.
    Update(Vec<(String, usize)>),
    /// A `RETURN` query with the number of subtrees and of elements in
    /// them that `query_xml` must return, and the tuples those hold.
    Query {
        xq: String,
        roots: usize,
        elements: usize,
        tuples: usize,
    },
}

/// A seeded op stream over a model of the document.
pub trait Stream {
    fn next_op(&mut self) -> Op;
    /// Tuples the repository holds once every op emitted so far is applied.
    fn tuples(&self) -> usize;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Data {
    /// `fixed_document`, scaling factor 2000, depth 4, fanout 2.
    Synthetic,
    /// `dblp_document`, 50 conferences, 200 publications each on average.
    Dblp,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mix {
    /// Every op an update: delete, insert, replace in turn.
    Oltp,
    /// Twenty subtree queries, then one update.
    QueryHeavy,
    /// Five updates, then one subtree query.
    Mixed,
    /// Copy-then-delete iterations, a whole-conference query after ten.
    Bulk,
}

/// Fixed settings of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub data: Data,
    mix: Mix,
    pub backend: BackendKind,
    pub pool_frames: usize,
    /// `checkpoint()` after this many update statements.
    pub checkpoint_every: usize,
    /// Ops after which the counters are read. Fixed, so that the
    /// count-based metrics repeat exactly however many ops the timed
    /// phase goes on to complete.
    pub count_prefix: usize,
    /// Share of the loaded tuple count the final count may differ by.
    pub tuple_tolerance: f64,
}

pub const WARMUP_OPS: usize = 200;

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "oltp-mem",
        why: "single-subtree updates on the memory backend: the fixed cost per update dominates (parse, translate, plan cache, commit, WAL fsync)",
        data: Data::Synthetic,
        mix: Mix::Oltp,
        backend: BackendKind::Memory,
        pool_frames: 1024,
        checkpoint_every: 1000,
        count_prefix: 6000,
        tuple_tolerance: 0.05,
    },
    Spec {
        name: "query-mem",
        why: "subtree queries on the same document: the sorted outer union, planner and executor dominate; WAL and storage are idle",
        data: Data::Synthetic,
        mix: Mix::QueryHeavy,
        backend: BackendKind::Memory,
        pool_frames: 1024,
        checkpoint_every: 1000,
        count_prefix: 420,
        tuple_tolerance: 0.05,
    },
    Spec {
        name: "mixed-paged",
        why: "the same updates and queries on the paged backend with a pool 40 times smaller than the data: B-tree, pager and pool under reads beside writes",
        data: Data::Synthetic,
        mix: Mix::Mixed,
        backend: BackendKind::Paged,
        pool_frames: 64,
        checkpoint_every: 250,
        count_prefix: 600,
        tuple_tolerance: 0.05,
    },
    Spec {
        name: "bulk-dblp",
        why: "DBLP copy and delete of about 200 tuples per update: insert and delete strategies, triggers, executor and WAL volume dominate; parse and fsync do not",
        data: Data::Dblp,
        mix: Mix::Bulk,
        backend: BackendKind::Memory,
        pool_frames: 1024,
        checkpoint_every: 500,
        count_prefix: 550,
        tuple_tolerance: 0.10,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    pub fn dtd(&self) -> Dtd {
        match self.data {
            Data::Synthetic => synthetic_dtd(4),
            Data::Dblp => dblp_dtd(),
        }
    }

    pub fn root_element(&self) -> &'static str {
        match self.data {
            Data::Synthetic => "root",
            Data::Dblp => "dblp",
        }
    }

    /// The workload's document; the generators take the run's seed.
    pub fn document(&self, seed: u64) -> Document {
        match self.data {
            Data::Synthetic => fixed_document(&SyntheticParams {
                seed,
                ..SyntheticParams::new(2000, 4, 2)
            }),
            Data::Dblp => dblp_document(&DblpParams {
                conferences: 50,
                pubs_per_conf: 200,
                seed,
                ..DblpParams::default()
            }),
        }
    }

    /// The op stream over `doc`, which must be `self.document(seed)`.
    pub fn stream(&self, doc: &Document, seed: u64) -> Box<dyn Stream> {
        // Offset the seed so the ops do not share the document's random
        // sequence.
        let rng = Rng::new(seed ^ 0x0b5e_55ed_0b5e_55ed);
        match self.data {
            Data::Synthetic => Box::new(SyntheticStream {
                model: SyntheticModel::from_document(doc),
                rng,
                mix: self.mix,
                issued: 0,
            }),
            Data::Dblp => Box::new(DblpStream {
                model: DblpModel::from_document(doc),
                rng,
                issued: 0,
            }),
        }
    }
}

fn child_elements<'a>(
    doc: &'a Document,
    node: NodeId,
    name: &'a str,
) -> impl Iterator<Item = NodeId> + 'a {
    doc.children(node)
        .iter()
        .copied()
        .filter(move |&c| doc.name(c) == Some(name))
}

fn child_text(doc: &Document, node: NodeId, name: &str) -> String {
    child_elements(doc, node, name)
        .next()
        .map(|c| doc.string_value(c))
        .unwrap_or_default()
}

// ----------------------------------------------------------------------
// synthetic document: root / n1 / n2 / n3 / n4, each with str and num
// ----------------------------------------------------------------------

/// Tuples of one `n2` subtree (n2 + 2 n3 + 4 n4). Updates move whole
/// `n2` subtrees only, so every one keeps this size.
const N2_TUPLES: usize = 7;
/// Elements per tuple: the tuple's own and its inlined `str` and `num`.
const ELEMENTS_PER_TUPLE: usize = 3;

/// Live `(n1, n2)` targets, addressed the way the statements address
/// them: by `num`. Two `n1` may share a `num` and one `n1` may hold the
/// same `n2` `num` twice (after a copy), so expectations are counted over
/// every match.
#[derive(Debug, Clone)]
pub struct SyntheticModel {
    n1: Vec<N1>,
    by_num: HashMap<String, Vec<usize>>,
}

#[derive(Debug, Clone)]
struct N1 {
    num: String,
    /// `num` of each live `n2` child.
    n2: Vec<String>,
}

impl SyntheticModel {
    pub fn from_document(doc: &Document) -> Self {
        let n1: Vec<N1> = child_elements(doc, doc.root(), "n1")
            .map(|e| N1 {
                num: child_text(doc, e, "num"),
                n2: child_elements(doc, e, "n2")
                    .map(|c| child_text(doc, c, "num"))
                    .collect(),
            })
            .collect();
        let mut by_num: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, e) in n1.iter().enumerate() {
            by_num.entry(e.num.clone()).or_default().push(i);
        }
        SyntheticModel { n1, by_num }
    }

    pub fn tuples(&self) -> usize {
        1 + self.n1.len() + N2_TUPLES * self.n1.iter().map(|e| e.n2.len()).sum::<usize>()
    }

    fn matching(&self, n1_num: &str) -> &[usize] {
        self.by_num.get(n1_num).map_or(&[], Vec::as_slice)
    }

    /// `n2` children with `n2_num` under every `n1` with `n1_num`.
    fn count_n2(&self, n1_num: &str, n2_num: &str) -> usize {
        self.matching(n1_num)
            .iter()
            .map(|&i| self.n1[i].n2.iter().filter(|n| *n == n2_num).count())
            .sum()
    }

    fn count_children(&self, n1_num: &str) -> usize {
        self.matching(n1_num)
            .iter()
            .map(|&i| self.n1[i].n2.len())
            .sum()
    }

    /// Delete `n1[num]/n2[num]`; returns subtrees removed.
    fn delete(&mut self, n1_num: &str, n2_num: &str) -> usize {
        let removed = self.count_n2(n1_num, n2_num);
        for i in self.matching(n1_num).to_vec() {
            self.n1[i].n2.retain(|n| n != n2_num);
        }
        removed
    }

    /// Copy every `n1[src]/n2[n2_num]` under every `n1[dst]`; returns
    /// tuples created. Bindings are taken before anything is copied, so a
    /// copy onto its own parent does not feed itself.
    fn copy(&mut self, src: &str, n2_num: &str, dst: &str) -> usize {
        let sources = self.count_n2(src, n2_num);
        let targets = self.matching(dst).to_vec();
        for &i in &targets {
            for _ in 0..sources {
                self.n1[i].n2.push(n2_num.to_string());
            }
        }
        N2_TUPLES * sources * targets.len()
    }
}

struct SyntheticStream {
    model: SyntheticModel,
    rng: Rng,
    mix: Mix,
    issued: usize,
}

impl SyntheticStream {
    /// A random `n1` that still has `n2` children.
    fn parent_with_children(&mut self) -> usize {
        loop {
            let i = self.rng.below(self.model.n1.len());
            if !self.model.n1[i].n2.is_empty() {
                return i;
            }
        }
    }

    fn update(&mut self, kind: usize) -> Op {
        let i = self.parent_with_children();
        let a = self.model.n1[i].num.clone();
        let stmt = match kind {
            0 => {
                let j = self.rng.below(self.model.n1[i].n2.len());
                let b = self.model.n1[i].n2[j].clone();
                let expect = self.model.delete(&a, &b);
                (
                    format!(
                        r#"FOR $a IN document("{DOC}")/root/n1[num="{a}"], $b IN $a/n2[num="{b}"] UPDATE $a {{ DELETE $b }}"#
                    ),
                    expect,
                )
            }
            1 => {
                let j = self.rng.below(self.model.n1[i].n2.len());
                let b = self.model.n1[i].n2[j].clone();
                let t = self.rng.below(self.model.n1.len());
                let c = self.model.n1[t].num.clone();
                let expect = self.model.copy(&a, &b, &c);
                (
                    format!(
                        r#"FOR $s IN document("{DOC}")/root/n1[num="{a}"]/n2[num="{b}"], $t IN document("{DOC}")/root/n1[num="{c}"] UPDATE $t {{ INSERT $s }}"#
                    ),
                    expect,
                )
            }
            _ => {
                // Same length as the generated strings, so the document
                // keeps its size.
                let text: String = (0..50)
                    .map(|_| (b'a' + self.rng.below(26) as u8) as char)
                    .collect();
                (
                    format!(
                        r#"FOR $a IN document("{DOC}")/root/n1[num="{a}"], $b IN $a/n2, $s IN $b/str UPDATE $b {{ REPLACE $s WITH <str>{text}</str> }}"#
                    ),
                    self.model.count_children(&a),
                )
            }
        };
        Op::Update(vec![stmt])
    }

    fn query(&mut self) -> Op {
        let i = self.rng.below(self.model.n1.len());
        let a = self.model.n1[i].num.clone();
        let parents = self.model.matching(&a).len();
        let children = self.model.count_children(&a);
        let (xq, roots, tuples) = if self.rng.below(5) < 4 {
            (
                format!(r#"FOR $x IN document("{DOC}")/root/n1[num="{a}"] RETURN $x"#),
                parents,
                parents + N2_TUPLES * children,
            )
        } else {
            (
                format!(r#"FOR $x IN document("{DOC}")/root/n1[num="{a}"]/n2 RETURN $x"#),
                children,
                N2_TUPLES * children,
            )
        };
        Op::Query {
            xq,
            roots,
            elements: ELEMENTS_PER_TUPLE * tuples,
            tuples,
        }
    }
}

impl Stream for SyntheticStream {
    fn next_op(&mut self) -> Op {
        let i = self.issued;
        self.issued += 1;
        match self.mix {
            Mix::Oltp => self.update(i % 3),
            Mix::QueryHeavy if i % 21 == 20 => self.update((i / 21) % 3),
            Mix::QueryHeavy => self.query(),
            Mix::Mixed if i % 6 == 5 => self.query(),
            // Five updates in six ops: the update's turn is its index
            // among the updates, so the three kinds keep equal shares.
            Mix::Mixed => self.update((i - i / 6) % 3),
            Mix::Bulk => unreachable!("the DBLP stream serves bulk-dblp"),
        }
    }

    fn tuples(&self) -> usize {
        self.model.tuples()
    }
}

// ----------------------------------------------------------------------
// DBLP document: dblp / conference / inproceedings / (author | cite)
// ----------------------------------------------------------------------

/// The publications of one conference in one year.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Cell {
    pubs: usize,
    /// `author` and `cite` tuples under those publications.
    leaves: usize,
}

impl Cell {
    fn tuples(&self) -> usize {
        self.pubs + self.leaves
    }

    /// `inproceedings` carries `title`, `year` and `pages` inlined;
    /// `author` and `cite` are one element each.
    fn elements(&self) -> usize {
        4 * self.pubs + self.leaves
    }
}

/// Live `(conference, year)` targets.
#[derive(Debug, Clone)]
pub struct DblpModel {
    names: Vec<String>,
    years: Vec<String>,
    /// `cells[conference][year]`.
    cells: Vec<Vec<Cell>>,
    /// Per conference, the year whose publications the last iteration
    /// deleted: the next copy into that conference refills it, so the
    /// number of populated cells stays level.
    hole: Vec<Option<usize>>,
    loaded_tuples: usize,
}

impl DblpModel {
    pub fn from_document(doc: &Document) -> Self {
        let mut names = Vec::new();
        let mut rows: Vec<Vec<(String, usize)>> = Vec::new();
        let mut years: Vec<String> = Vec::new();
        for conf in child_elements(doc, doc.root(), "conference") {
            names.push(child_text(doc, conf, "name"));
            let mut pubs = Vec::new();
            for p in child_elements(doc, conf, "inproceedings") {
                let year = child_text(doc, p, "year");
                if !years.contains(&year) {
                    years.push(year.clone());
                }
                let leaves = child_elements(doc, p, "author").count()
                    + child_elements(doc, p, "cite").count();
                pubs.push((year, leaves));
            }
            rows.push(pubs);
        }
        years.sort();
        let cells = rows
            .iter()
            .map(|pubs| {
                let mut row = vec![Cell::default(); years.len()];
                for (year, leaves) in pubs {
                    let y = years.iter().position(|x| x == year).expect("year listed");
                    row[y].pubs += 1;
                    row[y].leaves += leaves;
                }
                row
            })
            .collect();
        let mut m = DblpModel {
            hole: vec![None; names.len()],
            names,
            years,
            cells,
            loaded_tuples: 0,
        };
        m.loaded_tuples = m.tuples();
        m
    }

    pub fn tuples(&self) -> usize {
        1 + self.names.len() + self.cells.iter().flatten().map(Cell::tuples).sum::<usize>()
    }
}

/// Tuples one bulk copy aims at, and the donors it chooses among.
const COPY_TUPLES: usize = 200;
const DONOR_CHOICES: usize = 16;

struct DblpStream {
    model: DblpModel,
    rng: Rng,
    issued: usize,
}

impl DblpStream {
    /// One iteration of the paper's Table 2 operations made repeatable:
    /// copy one donor conference's publications of a year into a target
    /// conference, then delete one year's publications of the target. The
    /// year deleted is the one whose size brings the tuple count back
    /// closest to the loaded count, so the document neither grows nor
    /// shrinks over any number of iterations.
    fn iteration(&mut self) -> Op {
        let m = &mut self.model;
        let confs = m.names.len();
        let t = self.rng.below(confs);
        // The year the target lacks, if it lacks one. Of the first few
        // donors (from a random start) with publications in that year,
        // the one whose copy is closest to the nominal size: a seed then
        // decides which tuples move, not how many, and the time and the
        // WAL bytes per update say the same thing for every seed.
        let first_year = m.hole[t].unwrap_or_else(|| self.rng.below(m.years.len()));
        let first_conf = self.rng.below(confs);
        let (y, d) = (0..m.years.len())
            .map(|k| (first_year + k) % m.years.len())
            .find_map(|y| {
                (0..confs)
                    .map(|k| (first_conf + k) % confs)
                    .filter(|&d| d != t && m.cells[d][y].pubs > 0)
                    .take(DONOR_CHOICES)
                    .min_by_key(|&d| m.cells[d][y].tuples().abs_diff(COPY_TUPLES))
                    .map(|d| (y, d))
            })
            .expect("some other conference has publications");
        let copied = m.cells[d][y];
        m.cells[t][y].pubs += copied.pubs;
        m.cells[t][y].leaves += copied.leaves;
        let copy = (
            format!(
                r#"FOR $s IN document("{DOC}")/dblp/conference[name="{}"]/inproceedings[year="{}"], $t IN document("{DOC}")/dblp/conference[name="{}"] UPDATE $t {{ INSERT $s }}"#,
                m.names[d], m.years[y], m.names[t]
            ),
            copied.tuples(),
        );
        let excess = m.tuples() as i64 - m.loaded_tuples as i64;
        let gone = (0..m.years.len())
            .filter(|&g| g != y && m.cells[t][g].pubs > 0)
            .min_by_key(|&g| (excess - m.cells[t][g].tuples() as i64).abs())
            .expect("a conference keeps publications in more than one year");
        let deleted = std::mem::take(&mut m.cells[t][gone]);
        m.hole[t] = Some(gone);
        let delete = (
            format!(
                r#"FOR $c IN document("{DOC}")/dblp/conference[name="{}"], $p IN $c/inproceedings[year="{}"] UPDATE $c {{ DELETE $p }}"#,
                m.names[t], m.years[gone]
            ),
            deleted.pubs,
        );
        Op::Update(vec![copy, delete])
    }

    fn query(&mut self) -> Op {
        let m = &self.model;
        let c = self.rng.below(m.names.len());
        let tuples = 1 + m.cells[c].iter().map(Cell::tuples).sum::<usize>();
        // `conference` carries `name` inlined.
        let elements = 2 + m.cells[c].iter().map(Cell::elements).sum::<usize>();
        Op::Query {
            xq: format!(
                r#"FOR $x IN document("{DOC}")/dblp/conference[name="{}"] RETURN $x"#,
                m.names[c]
            ),
            roots: 1,
            elements,
            tuples,
        }
    }
}

impl Stream for DblpStream {
    fn next_op(&mut self) -> Op {
        let i = self.issued;
        self.issued += 1;
        if i % 11 == 10 {
            self.query()
        } else {
            self.iteration()
        }
    }

    fn tuples(&self) -> usize {
        self.model.tuples()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_synthetic() -> Document {
        fixed_document(&SyntheticParams {
            seed: 3,
            ..SyntheticParams::new(20, 4, 2)
        })
    }

    #[test]
    fn synthetic_model_counts_the_loaded_document() {
        let m = SyntheticModel::from_document(&small_synthetic());
        assert_eq!(m.n1.len(), 20);
        assert!(m.n1.iter().all(|e| e.n2.len() == 2));
        // 1 root + 20 subtrees of 1 + 2 + 4 + 8 tuples.
        assert_eq!(m.tuples(), 1 + 20 * 15);
    }

    #[test]
    fn synthetic_model_follows_delete_copy_and_duplicates() {
        let mut m = SyntheticModel::from_document(&small_synthetic());
        let (a, c) = (m.n1[0].num.clone(), m.n1[1].num.clone());
        let b = m.n1[0].n2[0].clone();
        let before = m.tuples();
        // Copy onto another parent, then onto the source's own parent.
        assert_eq!(m.copy(&a, &b, &c), 7);
        assert_eq!(m.copy(&a, &b, &a), 7);
        assert_eq!(m.tuples(), before + 14);
        assert_eq!(m.count_n2(&a, &b), 2);
        assert_eq!(m.count_children(&a), 3);
        // Two sources now: a copy creates both under the one target.
        assert_eq!(m.copy(&a, &b, &c), 14);
        // Deleting by num removes every match under that parent.
        assert_eq!(m.delete(&a, &b), 2);
        assert_eq!(m.delete(&a, &b), 0);
        assert_eq!(m.count_children(&a), 1);
        assert_eq!(m.tuples(), before + 14 + 14 - 14);
    }

    #[test]
    fn synthetic_model_counts_every_parent_sharing_a_num() {
        let mut m = SyntheticModel::from_document(&small_synthetic());
        // Force a collision: give parent 1 the num of parent 0.
        let a = m.n1[0].num.clone();
        m.n1[1].num = a.clone();
        m.by_num.get_mut(&a).unwrap().push(1);
        assert_eq!(m.count_children(&a), 4);
        let b = m.n1[0].n2[0].clone();
        let other = m.n1[2].num.clone();
        // One source, two targets.
        assert_eq!(m.copy(&a, &b, &a), 14);
        assert_eq!(m.copy(&other, &m.n1[2].n2[0].clone(), &a), 14);
        assert_eq!(m.count_children(&a), 8);
    }

    #[test]
    fn streams_repeat_for_a_seed_and_differ_across_seeds() {
        for s in &SPECS {
            let doc = match s.data {
                Data::Synthetic => small_synthetic(),
                Data::Dblp => dblp_document(&DblpParams {
                    conferences: 6,
                    pubs_per_conf: 30,
                    seed: 3,
                    ..DblpParams::default()
                }),
            };
            let ops = |seed| {
                let mut st = s.stream(&doc, seed);
                (0..60).map(|_| st.next_op()).collect::<Vec<_>>()
            };
            assert_eq!(ops(5), ops(5), "{}", s.name);
            assert_ne!(ops(5), ops(6), "{}", s.name);
        }
    }

    #[test]
    fn mixes_keep_their_shares() {
        let doc = small_synthetic();
        let count = |name: &str, n: usize| {
            let mut st = spec(name).unwrap().stream(&doc, 1);
            (0..n)
                .filter(|_| matches!(st.next_op(), Op::Update(_)))
                .count()
        };
        assert_eq!(count("oltp-mem", 300), 300);
        assert_eq!(count("query-mem", 210), 10);
        assert_eq!(count("mixed-paged", 300), 250);
        // The three update kinds take turns on the mixed stream too.
        let mut st = spec("mixed-paged").unwrap().stream(&doc, 1);
        let mut kinds = [0usize; 3];
        for _ in 0..360 {
            if let Op::Update(stmts) = st.next_op() {
                let xq = &stmts[0].0;
                let k = if xq.contains("DELETE") {
                    0
                } else if xq.contains("INSERT") {
                    1
                } else {
                    2
                };
                kinds[k] += 1;
            }
        }
        assert_eq!(kinds, [100, 100, 100]);
    }

    #[test]
    fn dblp_iterations_hold_the_tuple_count_level() {
        let doc = dblp_document(&DblpParams {
            conferences: 8,
            pubs_per_conf: 40,
            seed: 9,
            ..DblpParams::default()
        });
        let model = DblpModel::from_document(&doc);
        let loaded = model.tuples();
        let largest_cell = model
            .cells
            .iter()
            .flatten()
            .map(Cell::tuples)
            .max()
            .unwrap();
        let mut st = spec("bulk-dblp").unwrap().stream(&doc, 4);
        for _ in 0..2000 {
            if let Op::Update(stmts) = st.next_op() {
                assert_eq!(stmts.len(), 2);
                assert!(stmts[0].1 > 0 && stmts[1].1 > 0);
            }
            // Never further from the loaded count than a few cells.
            let drift = st.tuples().abs_diff(loaded);
            assert!(drift <= 4 * largest_cell, "drift {drift} of {loaded}");
        }
    }
}
