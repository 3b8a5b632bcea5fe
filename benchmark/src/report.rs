//! The metric tables, the printed and written results, the recorded
//! environment, and `compare`.

use crate::run::{prefix_ops, run_end_to_end, run_traced, warmup_ops, Outcome, Settings};
use crate::stats::Json;
use crate::workloads::{Spec, SPECS};
use std::fs;
use std::path::Path;
use std::process::Command;

/// Default length of the timed phase; `BENCHMARK.json` passes the same.
pub const RUN_SECONDS: f64 = 20.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// End-to-end metrics: name, unit, direction, and the share of the
/// parent's median by which a later change may worsen the metric before
/// it counts as a regression.
pub const END_TO_END: [(&str, &str, Better, f64); 5] = [
    ("ops_per_s", "op/s", Better::Higher, 0.25),
    ("op_p50_ms", "ms", Better::Lower, 0.25),
    ("setup_s", "s", Better::Lower, 0.25),
    ("wal_bytes_per_update", "bytes", Better::Lower, 0.05),
    ("disk_bytes_per_xml_byte", "ratio", Better::Lower, 0.05),
];

/// Per-layer metrics, in the order of the request's path through the
/// layers. They carry no bound.
pub const PER_LAYER: [(&str, &str, Better); 35] = [
    ("xquery.parse_us", "us", Better::Lower),
    ("translate.us", "us", Better::Lower),
    ("repository.exec_us", "us", Better::Lower),
    ("repository.sql_per_update", "count", Better::Lower),
    ("repository.update_p50_ms", "ms", Better::Lower),
    ("repository.update_tail_ms", "ms", Better::Lower),
    ("repository.query_p50_ms", "ms", Better::Lower),
    ("repository.query_tail_ms", "ms", Better::Lower),
    ("outer_union.plan_us", "us", Better::Lower),
    ("outer_union.execute_us", "us", Better::Lower),
    ("outer_union.reassemble_us", "us", Better::Lower),
    ("outer_union.rows_per_query", "count", Better::Lower),
    ("loader.tuples_per_s", "1/s", Better::Higher),
    ("sql.parse_us", "us", Better::Lower),
    ("sql.plan_us", "us", Better::Lower),
    ("sql.plan_cache_hit_ratio", "ratio", Better::Higher),
    ("exec.us", "us", Better::Lower),
    ("exec.rows_scanned_per_op", "count", Better::Lower),
    ("exec.index_lookups_per_op", "count", Better::Lower),
    ("trigger.fire_us", "us", Better::Lower),
    ("trigger.firings_per_update", "count", Better::Lower),
    ("txn.commit_us", "us", Better::Lower),
    ("txn.undo_records_per_update", "count", Better::Lower),
    ("wal.append_us", "us", Better::Lower),
    ("wal.fsync_us", "us", Better::Lower),
    ("wal.fsyncs_per_update", "count", Better::Lower),
    ("storage.pool_hit_ratio", "ratio", Better::Higher),
    ("storage.pool_evictions_per_op", "count", Better::Lower),
    ("storage.checkpoint_p50_ms", "ms", Better::Lower),
    ("storage.checkpoint_max_ms", "ms", Better::Lower),
    ("storage.checkpoint_bytes", "bytes", Better::Lower),
    ("recovery.reopen_ms", "ms", Better::Lower),
    ("recovery.wal_replayed_bytes", "bytes", Better::Lower),
    ("trace.overhead_pct", "%", Better::Lower),
    ("trace.unattributed_pct", "%", Better::Lower),
];

fn mode_name(traced: bool) -> &'static str {
    if traced {
        "per_layer"
    } else {
        "end_to_end"
    }
}

/// The one-line result the driver reads.
fn result_line(out: &Outcome) -> Json {
    Json::obj([
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        (
            "metrics",
            Json::obj(out.metrics.iter().map(|&(name, value)| {
                (
                    name,
                    Json::obj([
                        ("value", Json::Num(value)),
                        ("unit", Json::str(unit_of(name))),
                    ]),
                )
            })),
        ),
    ])
}

fn unit_of(metric: &str) -> &'static str {
    let e2e = END_TO_END.iter().map(|&(name, unit, ..)| (name, unit));
    let layers = PER_LAYER.iter().map(|&(name, unit, _)| (name, unit));
    e2e.chain(layers)
        .find(|&(name, _)| name == metric)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("metric {metric} is in neither table"))
}

fn print_outcome(spec: &Spec, traced: bool, out: &Outcome) {
    // Every run reports every metric of its mode, under the table's names.
    let reported: Vec<&str> = out.metrics.iter().map(|&(name, _)| name).collect();
    let table: Vec<&str> = if traced {
        PER_LAYER.iter().map(|&(name, ..)| name).collect()
    } else {
        END_TO_END.iter().map(|&(name, ..)| name).collect()
    };
    assert_eq!(reported, table, "metrics reported and metrics declared");
    println!("## {} / {}: {}", spec.name, mode_name(traced), spec.why);
    for &(name, value) in &out.metrics {
        println!("{name:<34} {value:>16.4} {}", unit_of(name));
    }
    for (name, value) in &out.notes {
        println!("  ({name} = {value})");
    }
    println!("attempted_ops {}  failed_ops {}", out.attempted, out.failed);
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Filesystem type of the mount that holds `path`, from `/proc/mounts`.
fn filesystem_of(path: &Path) -> String {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split(' ');
            let (_, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then_some((mount.len(), fstype))
        })
        .max_by_key(|&(len, _)| len)
        .map_or("unknown", |(_, fstype)| fstype)
        .to_string()
}

/// Everything a reader needs beside the numbers to judge them.
fn environment(settings: &Settings) -> Json {
    let _ = fs::create_dir_all(&settings.scratch);
    let workloads = SPECS.iter().map(|s| {
        (
            s.name,
            Json::obj([
                ("backend", Json::str(format!("{:?}", s.backend))),
                ("pool_frames", Json::Num(s.pool_frames as f64)),
                (
                    "checkpoint_every_updates",
                    Json::Num(s.checkpoint_every as f64),
                ),
                (
                    "count_prefix_ops",
                    Json::Num(prefix_ops(s, settings) as f64),
                ),
            ]),
        )
    });
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        (
            "rustc",
            Json::str(command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "git_commit",
            Json::str(
                command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
            ),
        ),
        ("seed", Json::Num(settings.seed as f64)),
        ("seconds", Json::Num(settings.seconds)),
        ("warmup_ops", Json::Num(warmup_ops(settings) as f64)),
        ("setup_cycles", Json::Num(settings.setup_cycles as f64)),
        ("clients", Json::str("one thread, closed loop")),
        ("scratch", Json::str(settings.scratch.display().to_string())),
        (
            "scratch_filesystem",
            Json::str(filesystem_of(&settings.scratch)),
        ),
        (
            "flush_policy",
            Json::str("set_wal_sync(true), group-commit window 1: one fsync per commit"),
        ),
        ("statement_cost_us", Json::Num(0.0)),
        ("workloads", Json::obj(workloads)),
    ])
}

/// Run what the command line named. One workload in one mode ends with
/// the driver's result line; anything more also writes a result file.
/// Returns whether every check passed.
pub fn run(workload: Option<&str>, trace: Option<bool>, settings: &Settings) -> bool {
    let specs: Vec<&Spec> = SPECS
        .iter()
        .filter(|s| workload.is_none_or(|w| w == s.name))
        .collect();
    let modes: &[bool] = match trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    let env = environment(settings);
    println!("# environment {}", env.render());
    let mut ok = true;
    let mut last = None;
    let mut results = Vec::new();
    for spec in specs {
        let mut by_mode = Vec::new();
        for &traced in modes {
            let out = if traced {
                run_traced(spec, settings)
            } else {
                run_end_to_end(spec, settings)
            };
            print_outcome(spec, traced, &out);
            ok &= out.failed == 0;
            let line = result_line(&out);
            let mut entry = line.clone();
            if let Json::Obj(m) = &mut entry {
                m.insert(
                    "notes".into(),
                    Json::obj(out.notes.iter().map(|&(k, v)| (k, Json::Num(v)))),
                );
            }
            by_mode.push((mode_name(traced), entry));
            last = Some(line);
        }
        results.push((spec.name, Json::obj(by_mode)));
    }
    let single = workload.is_some() && trace.is_some();
    if !single {
        let file = settings.out.join(match workload {
            Some(w) => format!("result-{w}.json"),
            None => "result.json".into(),
        });
        let doc = Json::obj([("environment", env), ("workloads", Json::obj(results))]);
        let written =
            fs::create_dir_all(&settings.out).and_then(|()| fs::write(&file, doc.render()));
        match written {
            Ok(()) => println!("# results written to {}", file.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", file.display());
                ok = false;
            }
        }
    }
    if let (true, Some(line)) = (single, last) {
        println!("{}", line.render());
    }
    ok
}

/// Compare two result files: for every workload and end-to-end metric
/// print both values, how much worse B is than A, and the bound. Returns
/// whether B is within every bound and no more of its ops failed.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |p: &Path| -> Result<Json, String> {
        let text = fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a, b) = (load(a)?, load(b)?);
    let runs = |doc: &Json, w: &str| doc.get("workloads")?.get(w)?.get("end_to_end").cloned();
    let value = |run: &Json, m: &str| run.get("metrics")?.get(m)?.get("value")?.as_f64();
    let failure_rate = |run: &Json| {
        let failed = run.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        let attempted = run.get("attempted").and_then(Json::as_f64).unwrap_or(1.0);
        failed / attempted.max(1.0)
    };
    let mut within = true;
    println!(
        "{:<12} {:<24} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "worse %", "bound %"
    );
    for spec in &SPECS {
        let (Some(ra), Some(rb)) = (runs(&a, spec.name), runs(&b, spec.name)) else {
            println!("{:<12} missing from one of the files", spec.name);
            within = false;
            continue;
        };
        for (name, _, better, bound) in END_TO_END {
            let (Some(va), Some(vb)) = (value(&ra, name), value(&rb, name)) else {
                println!("{:<12} {name:<24} missing", spec.name);
                within = false;
                continue;
            };
            let worse = match better {
                Better::Lower => (vb - va) / va,
                Better::Higher => (va - vb) / va,
            };
            let verdict = if worse > bound { "  REGRESSED" } else { "" };
            within &= worse <= bound;
            println!(
                "{:<12} {name:<24} {va:>14.4} {vb:>14.4} {:>9.2} {:>7.1}{verdict}",
                spec.name,
                worse * 100.0,
                bound * 100.0
            );
        }
        if failure_rate(&rb) > failure_rate(&ra) {
            println!("{:<12} failed ops rose", spec.name);
            within = false;
        }
    }
    Ok(within)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn direction(b: Better) -> &'static str {
        match b {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// `BENCHMARK.json` at the repository root and the tables here name
    /// the same workloads and metrics with the same units, directions and
    /// bounds.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse(&fs::read_to_string(path).unwrap()).unwrap();
        let field = |v: &Json, k: &str| match v.get(k) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("{k}: expected a string, found {other:?}"),
        };
        let list = |k: &str| match doc.get(k) {
            Some(Json::Arr(a)) => a.clone(),
            other => panic!("{k}: expected an array, found {other:?}"),
        };

        assert_eq!(doc.get("run_seconds").unwrap().as_f64(), Some(RUN_SECONDS));
        let workloads: Vec<_> = list("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let specs: Vec<_> = SPECS
            .iter()
            .map(|s| (s.name.to_string(), s.why.to_string()))
            .collect();
        assert_eq!(workloads, specs);
        assert!(SPECS
            .iter()
            .all(|s| s.why.len() <= 200 && !s.why.contains('\n')));

        let e2e: Vec<_> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.get("bound").unwrap().as_f64().unwrap(),
                )
            })
            .collect();
        let table: Vec<_> = END_TO_END
            .iter()
            .map(|&(n, u, b, bound)| {
                (
                    n.to_string(),
                    u.to_string(),
                    direction(b).to_string(),
                    bound,
                )
            })
            .collect();
        assert_eq!(e2e, table);

        let layers: Vec<_> = list("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let table: Vec<_> = PER_LAYER
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), direction(b).to_string()))
            .collect();
        assert_eq!(layers, table);
    }

    #[test]
    fn compare_applies_bounds_in_the_metric_direction() {
        let result = |ops: f64, p50: f64, failed: f64| {
            let metric = |v: f64| Json::obj([("value", Json::Num(v)), ("unit", Json::str("x"))]);
            let run = Json::obj([
                ("attempted", Json::Num(100.0)),
                ("failed", Json::Num(failed)),
                (
                    "metrics",
                    Json::obj([
                        ("ops_per_s", metric(ops)),
                        ("op_p50_ms", metric(p50)),
                        ("setup_s", metric(1.0)),
                        ("wal_bytes_per_update", metric(500.0)),
                        ("disk_bytes_per_xml_byte", metric(2.0)),
                    ]),
                ),
            ]);
            let per = SPECS
                .iter()
                .map(|s| (s.name, Json::obj([("end_to_end", run.clone())])));
            Json::obj([("workloads", Json::obj(per))])
        };
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-compare-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, doc: Json| {
            let p = dir.join(name);
            fs::write(&p, doc.render()).unwrap();
            p
        };
        let bound = |metric: &str| {
            let (.., bound) = END_TO_END.iter().find(|m| m.0 == metric).unwrap();
            *bound
        };
        let (ops, p50) = (bound("ops_per_s"), bound("op_p50_ms"));
        let base = write("base.json", result(1000.0, 1.0, 0.0));
        // Half a bound worse both ways: inside.
        let near = write(
            "near.json",
            result(1000.0 * (1.0 - ops / 2.0), 1.0 + p50 / 2.0, 0.0),
        );
        // Higher throughput and lower latency are never regressions.
        let faster = write("faster.json", result(2000.0, 0.5, 0.0));
        let slow = write("slow.json", result(1000.0 * (1.0 - ops - 0.02), 1.0, 0.0));
        let late = write("late.json", result(1000.0, 1.0 + p50 + 0.02, 0.0));
        let failing = write("failing.json", result(1000.0, 1.0, 1.0));
        assert_eq!(compare(&base, &near), Ok(true));
        assert_eq!(compare(&base, &faster), Ok(true));
        assert_eq!(compare(&base, &slow), Ok(false));
        assert_eq!(compare(&base, &late), Ok(false));
        assert_eq!(compare(&base, &failing), Ok(false));
        assert!(compare(&base, &dir.join("absent.json")).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
