//! `xmlup-e2e`: one end-to-end benchmark of XQuery updates and queries
//! over a durable `XmlRepository`, with per-layer attribution. See
//! `README.md` beside this package for the workloads, the metrics and
//! the layer each one belongs to.

mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use run::Settings;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: xmlup-e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                 [--verify] [--smoke] [--scratch DIR] [--out DIR]
       xmlup-e2e compare A.json B.json

With --workload and --trace, one run of that workload: --trace 0 prints
the end-to-end metrics, --trace 1 the per-layer metrics; the last line of
standard output is the result as one JSON object. Without --workload,
every workload runs in both modes and the results go to
<out>/result.json as well. --verify also applies the first 300 ops of a
stream with the in-memory evaluator and compares the documents. --smoke
runs every workload for a fraction of a second, with a tenth of that
check.";

/// Ops of each stream that `--verify` replays on the in-memory evaluator.
const VERIFY_OPS: usize = 300;

/// What the command line asked for.
enum Command {
    Run {
        workload: Option<String>,
        trace: Option<bool>,
        settings: Settings,
    },
    Compare(PathBuf, PathBuf),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [a, b] => Ok(Command::Compare(a.into(), b.into())),
            _ => Err("compare takes two result files".into()),
        };
    }
    let mut workload = None;
    let mut trace = None;
    let mut smoke = false;
    let mut settings = Settings {
        seed: 1,
        seconds: report::RUN_SECONDS,
        scratch: PathBuf::from("benchmark/scratch"),
        out: PathBuf::from("benchmark/out"),
        setup_cycles: 9,
        prefix_div: 1,
        verify_ops: 0,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                settings.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                settings.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(settings.seconds > 0.0 && settings.seconds <= 600.0) {
                    return Err("--seconds must be above 0 and at most 600".into());
                }
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--scratch" => settings.scratch = value()?.into(),
            "--out" => settings.out = value()?.into(),
            "--verify" => settings.verify_ops = VERIFY_OPS,
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &workload {
        if workloads::spec(w).is_none() {
            let names: Vec<_> = workloads::SPECS.iter().map(|s| s.name).collect();
            return Err(format!("unknown workload {w}; one of {}", names.join(", ")));
        }
    }
    if smoke {
        settings.seconds = 0.1;
        settings.setup_cycles = 1;
        settings.prefix_div = 100;
        settings.verify_ops = VERIFY_OPS / 10;
    }
    Ok(Command::Run {
        workload,
        trace,
        settings,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let ok = match parse_args(&args) {
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
        Ok(Command::Compare(a, b)) => match report::compare(&a, &b) {
            Ok(within) => within,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        },
        Ok(Command::Run {
            workload,
            trace,
            settings,
        }) => report::run(workload.as_deref(), trace, &settings),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
