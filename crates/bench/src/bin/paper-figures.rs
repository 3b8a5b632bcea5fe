//! Regenerate the tables and figures of *Updating XML* (SIGMOD 2001),
//! Section 7 — and nothing else: how fast the engine underneath is gets
//! measured by `xmlup-e2e` (`benchmark/`).
//!
//! ```text
//! paper-figures [all|table1|asr-paths|fig6|fig7|fig8|fig9|fig10|fig11|randomized|storage|ordered|table2|obs-overhead] [--full|--smoke]
//! ```
//!
//! Default parameter ranges are trimmed so the whole suite runs in a
//! couple of minutes; `--full` uses the paper's complete ranges (scaling
//! factors to 1000, depths to 6); `--smoke` runs every figure at its
//! smallest parameters (well under a minute — what CI runs).
//!
//! When `BENCH_JSON_DIR` is set, every figure with plotted series
//! additionally writes a machine-readable `BENCH_<figure>.json` there.
//!
//! `obs-overhead` is not a figure but the CI guard: it exits 1 if the
//! observability off-state costs more than 2% on the joins benchmark, or
//! if per-statement tracking costs more than 2% of the same statement's
//! time. It runs only when named explicitly, never under `all`, so a
//! casual run on a loaded machine cannot flake on it.

use xmlup_bench::experiments as exp;
use xmlup_workload::dblp::DblpParams;
use xmlup_workload::Workload;

/// Which parameter ranges a figure runs over.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Scale {
    Smoke,
    Default,
    Full,
}

impl Scale {
    /// The default range, the paper's full one, or — under `--smoke` —
    /// just the first default point.
    fn of(self, default: &'static [usize], full: &'static [usize]) -> &'static [usize] {
        match self {
            Scale::Smoke => &default[..1],
            Scale::Default => default,
            Scale::Full => full,
        }
    }

    fn scaling(self) -> &'static [usize] {
        self.of(&[100, 200, 400, 800], &[100, 200, 400, 600, 800, 1000])
    }

    fn depths(self) -> &'static [usize] {
        self.of(&[2, 3, 4, 5], &[1, 2, 3, 4, 5, 6])
    }
}

/// A name the command line accepts and what it runs.
type Entry = (&'static str, fn(Scale));

/// The one list of figures: the usage text, `all`, `--smoke` and the
/// dispatcher are all derived from it, in this order.
const FIGURES: [Entry; 12] = [
    ("table1", |_| exp::print_table1()),
    ("asr-paths", |s| {
        let fanouts = s.of(&[1, 2, 4, 8], &[1, 2, 4, 8]);
        let lens = s.of(&[2, 3, 4], &[2, 3, 4, 5]);
        exp::print_asr_paths(&exp::asr_path_expressions(fanouts, lens));
    }),
    ("fig6", |s| {
        show(
            "fig6",
            exp::delete_vs_scaling(Workload::Bulk, s.scaling(), "6"),
        )
    }),
    ("fig7", |s| {
        show(
            "fig7",
            exp::delete_vs_scaling(Workload::random10(), s.scaling(), "7"),
        )
    }),
    ("fig8", |s| {
        show(
            "fig8",
            exp::delete_vs_depth(Workload::Bulk, s.depths(), "8"),
        )
    }),
    ("fig9", |s| {
        show(
            "fig9",
            exp::delete_vs_depth(Workload::random10(), s.depths(), "9"),
        )
    }),
    ("fig10", |s| {
        show(
            "fig10",
            exp::insert_vs_depth(Workload::Bulk, s.depths(), "10"),
        )
    }),
    ("fig11", |s| {
        show(
            "fig11",
            exp::insert_vs_depth(Workload::random10(), s.depths(), "11"),
        )
    }),
    ("randomized", |s| {
        show("randomized", exp::randomized_delete(s.scaling()))
    }),
    ("storage", |s| {
        exp::print_storage(&exp::storage_ablation(s.scaling()))
    }),
    ("ordered", |s| {
        exp::print_ordered(&exp::ordered_ablation(s.scaling()))
    }),
    ("table2", |s| {
        let (conferences, pubs_per_conf) = match s {
            // Ten random conference subtrees are replicated, so at least
            // ten must exist.
            Scale::Smoke => (12, 10),
            Scale::Default => (50, 40),
            Scale::Full => (300, 60),
        };
        exp::print_table2(&exp::table2(&DblpParams {
            conferences,
            pubs_per_conf,
            ..Default::default()
        }));
    }),
];

/// The CI overhead gate; see the module doc for why `all` skips it.
const GUARD: Entry = ("obs-overhead", |_| obs_overhead_guard());

fn show(tag: &str, fig: exp::Figure) {
    fig.print();
    exp::emit_figure_json(tag, &fig);
}

fn obs_overhead_guard() {
    let m = exp::obs_off_overhead(64, 15);
    println!(
        "obs-overhead guard: {:.2} ns per inert span site × {} sites/stmt \
         = {:.0} ns against {:.0} ns/stmt ({} rows scanned): {:.4}% off-state overhead",
        m.ns_per_span,
        m.spans_per_stmt,
        m.ns_per_span * m.spans_per_stmt as f64,
        m.query_ns,
        m.rows_scanned,
        m.overhead_pct
    );
    if m.overhead_pct >= 2.0 {
        eprintln!("obs-overhead guard FAILED: off-state overhead exceeds 2%");
        std::process::exit(1);
    }
    let t = exp::statement_tracking_overhead(64, 15);
    println!(
        "statement-tracking guard: {:.1} ns/stmt off vs {:.1} ns/stmt on \
         = {:.1} ns tracking tail against {:.0} ns/stmt: {:.4}% overhead",
        t.ns_per_stmt_off, t.ns_per_stmt_on, t.ns_tracking, t.query_ns, t.overhead_pct
    );
    if t.overhead_pct >= 2.0 {
        eprintln!("statement-tracking guard FAILED: tracking overhead exceeds 2%");
        std::process::exit(1);
    }
}

fn usage() -> String {
    let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
    format!(
        "paper-figures [all|{}|{}] [--full|--smoke]",
        names.join("|"),
        GUARD.0
    )
}

/// What a command line asks for: the entries to run, in table order, and
/// the scale to run them at. Anything not in the table is an error.
fn select(args: &[String]) -> Result<(Vec<&'static Entry>, Scale), String> {
    let mut scale = Scale::Default;
    let mut what = None;
    for arg in args {
        match arg.as_str() {
            "--full" | "--smoke" if scale != Scale::Default => {
                return Err("--full and --smoke exclude each other; give one, once".into());
            }
            "--full" => scale = Scale::Full,
            "--smoke" => scale = Scale::Smoke,
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            name if what.is_some() => {
                return Err(format!("one figure name at a time (second: `{name}`)"));
            }
            name => what = Some(name),
        }
    }
    let entries: Vec<&'static Entry> = match what {
        None | Some("all") => FIGURES.iter().collect(),
        Some(name) => FIGURES
            .iter()
            .chain([&GUARD])
            .filter(|(n, _)| *n == name)
            .collect(),
    };
    if entries.is_empty() {
        return Err(format!("unknown figure `{}`", what.unwrap_or_default()));
    }
    Ok((entries, scale))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match select(&args) {
        Ok((entries, scale)) => {
            for (_, run) in entries {
                run(scale);
            }
        }
        Err(msg) => {
            eprintln!("paper-figures: {msg}\nusage: {}", usage());
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(args: &[&str]) -> Result<(Vec<&'static str>, Scale), String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        select(&args).map(|(entries, scale)| (entries.iter().map(|e| e.0).collect(), scale))
    }

    #[test]
    fn every_name_in_the_table_dispatches_to_itself_alone() {
        for (name, _) in FIGURES.iter().chain([&GUARD]) {
            assert_eq!(names(&[name]), Ok((vec![*name], Scale::Default)));
        }
    }

    #[test]
    fn all_and_smoke_visit_each_figure_exactly_once_and_never_the_guard() {
        let table: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        let mut unique = table.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), table.len(), "duplicate name in FIGURES");
        assert!(!table.contains(&GUARD.0) && !table.contains(&"all"));

        assert_eq!(names(&[]), Ok((table.clone(), Scale::Default)));
        assert_eq!(names(&["all"]), Ok((table.clone(), Scale::Default)));
        assert_eq!(names(&["--smoke"]), Ok((table.clone(), Scale::Smoke)));
        assert_eq!(names(&["--full", "all"]), Ok((table, Scale::Full)));
        assert_eq!(
            names(&["fig7", "--smoke"]),
            Ok((vec!["fig7"], Scale::Smoke))
        );
    }

    #[test]
    fn anything_outside_the_table_is_an_error() {
        for bad in [
            &["fig12"][..],
            &["throughput"],
            &["--fast"],
            &["fig6", "fig7"],
            &["--full", "--smoke"],
            &["--smoke", "--smoke"],
        ] {
            assert!(names(bad).is_err(), "{bad:?} was accepted");
        }
    }

    #[test]
    fn smoke_is_the_first_point_of_every_default_range() {
        assert_eq!(Scale::Smoke.scaling(), [100]);
        assert_eq!(Scale::Smoke.depths(), [2]);
        assert_eq!(Scale::Default.scaling(), [100, 200, 400, 800]);
        assert_eq!(Scale::Full.depths(), [1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn module_doc_lists_exactly_the_table() {
        let doc_line = format!("//! {}\n", usage());
        assert!(
            include_str!("paper-figures.rs").contains(&doc_line),
            "the usage line in the module doc has drifted from FIGURES; it must read:\n{doc_line}"
        );
    }
}
